//! A pure-std stand-in for the slice of Criterion's API our benches use.
//!
//! The build environment has no registry access, so `criterion` cannot be a
//! dependency. This facade keeps the bench sources criterion-shaped
//! (`benchmark_group` / `bench_function` / `iter`) while timing with
//! `std::time::Instant`: each benchmark runs a short calibration pass, then
//! `SAMPLES` timed samples, and reports the median ns/iter.
//!
//! Run with `cargo bench -p bench` (optionally `-- <substring>` to filter).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Number of timed samples per benchmark; the median is reported.
const SAMPLES: usize = 7;
/// Target wall time for one sample during calibration.
const TARGET_SAMPLE: Duration = Duration::from_millis(40);
/// Iteration cap so pathological calibration can't spin forever.
const MAX_ITERS: u64 = 100_000;

/// Top-level driver: parses the filter from `std::env::args` and owns the
/// report stream.
pub struct Criterion {
    filter: Option<String>,
}

impl Criterion {
    /// Builds a driver from the process arguments. Flags (`--bench`, which
    /// cargo passes to bench binaries) are ignored; the first bare argument
    /// becomes a substring filter on benchmark names.
    #[must_use]
    pub fn from_args() -> Self {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'));
        Self { filter }
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            group: name.to_string(),
            throughput: None,
        }
    }

    fn matches(&self, full_name: &str) -> bool {
        self.filter
            .as_deref()
            .map_or(true, |f| full_name.contains(f))
    }
}

/// Identifier combining a function name and a parameter, mirroring
/// criterion's `BenchmarkId`.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    #[must_use]
    pub fn new(name: &str, parameter: impl std::fmt::Display) -> Self {
        Self {
            label: format!("{name}/{parameter}"),
        }
    }

    /// Just the parameter as the label.
    #[must_use]
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

/// How `iter_batched` sizes its batches. Retained for source compatibility;
/// the facade always runs one routine call per sample.
#[derive(Clone, Copy)]
pub enum BatchSize {
    /// Large per-iteration inputs (one setup + one routine call per sample).
    LargeInput,
    /// Small per-iteration inputs.
    SmallInput,
}

/// Declared throughput of a benchmark, reported as MB/s when set.
#[derive(Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    group: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Source-compatibility no-op (sampling is fixed in the facade).
    pub fn sample_size(&mut self, _n: usize) {}

    /// Declares throughput for subsequent benches of the group, reported as
    /// MB/s beside the per-iteration time.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Runs one benchmark.
    pub fn bench_function(&mut self, name: impl BenchName, mut f: impl FnMut(&mut Bencher)) {
        let full = format!("{}/{}", self.group, name.label());
        if !self.criterion.matches(&full) {
            return;
        }
        let mut b = Bencher {
            median_ns: None,
        };
        f(&mut b);
        println!("{}", report_line(&full, b.median_ns, self.throughput));
    }

    /// Runs one benchmark that takes an input by reference.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        let full = format!("{}/{}", self.group, id.label);
        if !self.criterion.matches(&full) {
            return;
        }
        let mut b = Bencher {
            median_ns: None,
        };
        f(&mut b, input);
        println!("{}", report_line(&full, b.median_ns, self.throughput));
    }

    /// Ends the group (report lines are emitted eagerly; this is a no-op).
    pub fn finish(self) {}
}

/// Accepts both `&str` names and `BenchmarkId`s.
pub trait BenchName {
    /// The display label.
    fn label(&self) -> String;
}

impl BenchName for &str {
    fn label(&self) -> String {
        (*self).to_string()
    }
}

impl BenchName for BenchmarkId {
    fn label(&self) -> String {
        self.label.clone()
    }
}

/// Timing context passed to benchmark closures.
pub struct Bencher {
    median_ns: Option<f64>,
}

impl Bencher {
    /// Times `routine`, calibrating an iteration count for ~40 ms samples
    /// and recording the median over [`SAMPLES`] samples.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        // Calibrate: how many iterations fit the target sample time?
        let start = Instant::now();
        black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let iters = (TARGET_SAMPLE.as_nanos() / once.as_nanos())
            .clamp(1, u128::from(MAX_ITERS)) as u64;

        let mut samples = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            samples.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.median_ns = Some(median(&mut samples));
    }

    /// Times `routine` over fresh inputs from `setup` (one setup + one
    /// routine call per sample; `setup` time is excluded).
    pub fn iter_batched<I, R>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> R,
        _size: BatchSize,
    ) {
        let mut samples = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            samples.push(t0.elapsed().as_nanos() as f64);
        }
        self.median_ns = Some(median(&mut samples));
    }
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    samples[samples.len() / 2]
}

fn report_line(name: &str, median_ns: Option<f64>, throughput: Option<Throughput>) -> String {
    let Some(ns) = median_ns else {
        return format!("{name:<50}       (no measurement recorded)");
    };
    let time = if ns >= 1_000_000.0 {
        format!("{:>12.3} ms/iter", ns / 1_000_000.0)
    } else if ns >= 1_000.0 {
        format!("{:>12.3} µs/iter", ns / 1_000.0)
    } else {
        format!("{ns:>12.1} ns/iter")
    };
    match throughput {
        // Bytes per nanosecond times 1e3 is decimal megabytes per second.
        Some(Throughput::Bytes(bytes)) => {
            format!("{name:<50} {time} {:>12.1} MB/s", bytes as f64 / ns * 1e3)
        }
        None => format!("{name:<50} {time}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_records_a_median() {
        let mut c = Criterion { filter: None };
        let mut ran = 0u64;
        let mut g = c.benchmark_group("t");
        g.bench_function("count", |b| b.iter(|| ran += 1));
        g.finish();
        assert!(ran > 0);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let c = Criterion {
            filter: Some("only_this".into()),
        };
        assert!(c.matches("group/only_this_one"));
        assert!(!c.matches("group/other"));
    }

    #[test]
    fn batched_runs_setup_per_sample() {
        let mut c = Criterion { filter: None };
        let mut setups = 0u64;
        let mut g = c.benchmark_group("t");
        g.bench_with_input(BenchmarkId::new("b", 1), &(), |b, ()| {
            b.iter_batched(
                || {
                    setups += 1;
                },
                |()| (),
                BatchSize::SmallInput,
            );
        });
        assert_eq!(setups, SAMPLES as u64);
    }

    #[test]
    fn throughput_is_stored_per_group_and_reported_in_mb_per_s() {
        let mut c = Criterion { filter: None };
        let mut g = c.benchmark_group("t");
        assert!(g.throughput.is_none());
        g.throughput(Throughput::Bytes(4_000_000));
        assert!(matches!(g.throughput, Some(Throughput::Bytes(4_000_000))));
        // 4 MB in 2 ms is 2000 MB/s.
        let line = report_line("t/scan", Some(2_000_000.0), g.throughput);
        assert!(line.contains("2.000 ms/iter"), "{line}");
        assert!(line.contains("2000.0 MB/s"), "{line}");
        assert!(!report_line("t/scan", Some(2_000_000.0), None).contains("MB/s"));
    }

    #[test]
    fn median_of_odd_sample_count() {
        let mut s = vec![5.0, 1.0, 3.0];
        assert_eq!(median(&mut s), 3.0);
    }
}
