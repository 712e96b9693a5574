//! The repository benchmark: four named workloads driven through the
//! harness's public entry points, end-to-end metrics from an untraced run,
//! and per-layer metrics from a traced replica of the same workload.
//!
//! This file holds the pieces every workload shares: round statistics
//! (median, quartiles, a nearest-rank percentile that refuses thin tails),
//! the FNV-1a digest of deterministic results, and the in-memory span
//! recorder whose self times give the per-layer breakdown. The workloads
//! live in [`workloads`], the host-speed correction of their timings in
//! [`host`], the metrics and layer probes in [`metrics`], and the command
//! line in `src/main.rs`. See `README.md` for the metric table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub mod host;
pub mod metrics;
pub mod workloads;

/// Fewest samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    // keylint: allow(S005) -- timing samples; a probe closure that touches a key yields only its duration
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}

/// Median of `values`: the middle value, or the mean of the two middle
/// values for an even count (Python's `statistics.median`).
///
/// # Panics
///
/// Panics when `values` is empty or holds a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles of `values`, by the same "exclusive" rule as
/// Python's `statistics.quantiles(values, n=4)`, the rule spreads between
/// runs are judged by. A single sample is its own quartiles.
///
/// # Panics
///
/// Panics when `values` is empty or holds a NaN.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |i: usize| {
        let m = (n + 1) * i;
        let j = (m / 4).clamp(1, n - 1);
        // Signed: with two samples the clamp makes Python extrapolate.
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Nearest-rank `p`-th percentile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it: a p99 over 500 samples would rest
/// on five values and is refused rather than reported.
///
/// # Panics
///
/// Panics when `p` is outside `(0, 100]` or a sample is NaN.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// 64-bit FNV-1a hash: the `sim_digest` of a workload's deterministic
/// results, so a performance-only change can show they are unchanged.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform reports it.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `memsim.clone`.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The executor cell (or client-thread unit) the span belongs to.
    pub cell: u64,
}

impl Span {
    /// Wall time the span covers.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self times: each span's duration minus the part of it its
    /// child spans cover.
    pub self_ns: u64,
}

/// In-memory span recorder. Spans nest through a stack, so a span's parent
/// is whichever span was open when it began; work that runs on executor
/// threads records into a [`Recorder::cell`] of its own, which the thread
/// that called the executor folds back with [`Recorder::absorb`] under the
/// span open at that time.
///
/// A [`Recorder::disabled`] recorder runs the same code paths without
/// timing anything, so set-up code is shared by traced and untraced runs.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    cell: u64,
    next_cell: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
}

impl Recorder {
    /// A recording trace whose timestamps count from `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            enabled: true,
            cell: 0,
            next_cell: 1,
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
        }
    }

    /// A recorder that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new(Instant::now())
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves `n` consecutive cell ids for a batch of executor cells and
    /// returns the first.
    pub fn reserve_cells(&mut self, n: usize) -> u64 {
        let first = self.next_cell;
        self.next_cell += n as u64;
        first
    }

    /// A fresh recorder for the cell `id`, sharing this recorder's epoch and
    /// on/off state; it is `Send`, so executor cells can own one.
    #[must_use]
    pub fn cell(&self, id: u64) -> Self {
        Self {
            cell: id,
            ..if self.enabled {
                Self::new(self.epoch)
            } else {
                Self::disabled()
            }
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cell: self.cell,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0) += n;
        }
    }

    /// Raises the gauge `name` to at least `n` (a high-water mark).
    pub fn at_least(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            let g = self.gauges.entry(name).or_insert(0);
            *g = (*g).max(n);
        }
    }

    /// Folds a cell's spans, counters and gauges into this recorder. The
    /// cell's top-level spans become children of the span open here.
    pub fn absorb(&mut self, cell: Recorder) {
        if !self.enabled {
            return;
        }
        let base = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(cell.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base).or(parent),
            ..s
        }));
        for (name, n) in cell.counters {
            self.count(name, n);
        }
        for (name, n) in cell.gauges {
            self.at_least(name, n);
        }
    }

    /// Every span recorded so far, parents before children.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The counter `name` (0 if never counted).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The gauge `name` (0 if never raised).
    #[must_use]
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Durations of every span called `name`, in milliseconds.
    #[must_use]
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals. Children may overlap one another when they
    /// ran on different executor threads, so the union is taken, not the
    /// sum.
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.clamp(reach, s.end_ns), b.clamp(reach, s.end_ns));
                    covered += b - a;
                    reach = reach.max(b);
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Calls, total time and self time per span name.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// The trace as JSON: one span per line, then the counters and the
    /// per-name totals.
    #[must_use]
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\",\n\"spans\": [\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"parent\": {parent}, \"cell\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.cell,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        let object = |map: &BTreeMap<&str, u64>| {
            let fields: Vec<String> = map.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            fields.join(", ")
        };
        let _ = write!(
            out,
            "],\n\"counters\": {{{}}},\n\"gauges\": {{{}}},\n\"totals\": {{\n",
            object(&self.counters),
            object(&self.gauges)
        );
        let totals: Vec<String> = self
            .totals()
            .iter()
            .map(|(k, t)| {
                format!(
                    "\"{k}\": {{\"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                    t.calls, t.total_ns, t.self_ns
                )
            })
            .collect();
        out.push_str(&totals.join(",\n"));
        out.push_str("\n}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        // Nearest rank rounds the rank up.
        let w: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&w, 51.0), Some(21.0));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        let w: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&w, 99.0), None, "only 9 samples beyond");
        assert_eq!(percentile(&w[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed() < Duration::from_micros(us) {}
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut rec = Recorder::new(Instant::now());
        rec.span("outer", |rec| {
            spin(200);
            rec.span("inner", |_| spin(500));
            rec.span("inner", |_| spin(500));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let selfs = rec.self_times_ns();
        let kids = spans[1].duration_ns() + spans[2].duration_ns();
        assert_eq!(selfs[0], spans[0].duration_ns() - kids);
        assert_eq!(
            selfs[1],
            spans[1].duration_ns(),
            "leaf self time is its duration"
        );
        let totals = rec.totals();
        assert_eq!(totals["inner"].calls, 2);
        assert_eq!(totals["inner"].self_ns, kids);
        assert!(totals["outer"].self_ns >= 200_000);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two cells that ran side by side on different threads, absorbed
        // under one batch span: their union, not their sum, is covered.
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch);
        let mut a = rec.cell(1);
        let mut b = rec.cell(2);
        rec.span("batch", |rec| {
            a.span("cell", |_| spin(400));
            b.spans.push(Span {
                start_ns: a.spans[0].start_ns,
                ..a.spans[0]
            });
            rec.absorb(a);
            rec.absorb(b);
        });
        let selfs = rec.self_times_ns();
        let batch = rec.spans()[0].duration_ns();
        let cell = rec.spans()[1].duration_ns();
        assert_eq!(rec.spans()[2].parent, Some(0));
        assert_eq!(selfs[0], batch - cell);
        assert_eq!(rec.spans()[1].cell, 1);
    }

    #[test]
    fn disabled_recorder_runs_the_code_without_recording() {
        let mut rec = Recorder::disabled();
        let v = rec.span("x", |rec| {
            rec.count("n", 3);
            rec.span("y", |_| 7)
        });
        assert_eq!(v, 7);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.counter("n"), 0);
        assert!(!rec.cell(4).enabled());
    }

    #[test]
    fn absorb_merges_counters_and_rebases_parents() {
        let mut rec = Recorder::new(Instant::now());
        let first = rec.reserve_cells(2);
        assert_eq!(rec.reserve_cells(1), first + 2);
        let mut cell = rec.cell(first);
        cell.span("a", |c| c.span("b", |_| ()));
        cell.count("memsim.forks", 2);
        cell.at_least("keyscan.patterns", 4);
        rec.span("root", |_| ());
        rec.absorb(cell);
        rec.count("memsim.forks", 1);
        rec.at_least("keyscan.patterns", 3);
        assert_eq!(rec.spans()[1].parent, None, "no span was open at absorb");
        assert_eq!(rec.spans()[2].parent, Some(1));
        assert_eq!(rec.counter("memsim.forks"), 3);
        assert_eq!(rec.gauge("keyscan.patterns"), 4);
        let json = rec.to_json("w");
        assert!(json.contains("\"name\": \"b\""), "{json}");
        assert!(json.contains("\"memsim.forks\": 3"), "{json}");
    }
}
