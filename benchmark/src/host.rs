//! Host-speed correction of timings taken on a shared host.
//!
//! The cores this benchmark runs on are shared with other tenants, and how
//! fast they run integer code swings by up to 2.5x over seconds to minutes
//! (measured with [`reference_ms`]: 0.42 ms on a quiet core, 1.1 ms on a
//! busy one). A run that spends its whole length in a busy stretch reads
//! slow however its rounds are summarised, so the spread between runs of the
//! same code grows past any useful regression bound.
//!
//! Every timed piece of work is therefore paired with the time of a fixed
//! reference loop measured right before and after it, and while it runs
//! when it runs on several threads ([`HostMeter`]), and its time is scaled
//! to [`REFERENCE_MS`] with the fixed power law of [`Sample::at_reference`]:
//! the time the work would take on a core running the reference loop in
//! exactly that long. A change that makes the program faster lowers every
//! scaled time by the same share, whatever the host was doing.

use crate::median;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The reference speed timings are reported at: the reference loop's
/// milliseconds on a moderately busy core of the measuring host (its
/// median over runs there was 0.66–0.68 ms), so that neither a quiet nor a
/// busy run is scaled far.
pub const REFERENCE_MS: f64 = 0.7;

/// How much of the host's slowdown a sample's time follows: the work takes
/// `ref_ms^ELASTICITY` times a constant. The work mixes arithmetic, which
/// slows with the reference loop, and memory-bound page work, which barely
/// does, so the exponent lies between 0 and 1. It is fixed, not fitted per
/// run: fitting it to a run's own samples gave 0.14–0.65 (regression on
/// noisy probes underestimates it) and added the fit's own noise. On ten
/// runs per workload in each of two to four sets, taken hours apart, of one
/// build on a 2-vCPU Xeon guest, 0.6 gave the smallest run-to-run spread
/// of `ops_per_s` across all four workloads (interquartile range 0.02–0.10
/// of the median, against 0.02–0.17 for a per-run Theil–Sen line and
/// 0.05–0.28 unscaled).
pub const ELASTICITY: f64 = 0.6;

/// Runs the fixed reference loop once and returns its milliseconds: 640k
/// dependent 64×64→128-bit multiplies, the operation bignum arithmetic is
/// made of, in a working set that stays in L1.
#[must_use]
pub fn reference_ms() -> f64 {
    let t0 = Instant::now();
    let mut lanes = [0x9E37_79B9_7F4A_7C15u64; 16];
    for r in 0..40_000u64 {
        for i in 0..16 {
            let m = u128::from(lanes[i]) * u128::from(lanes[(i + 1) & 15] | 1) + u128::from(r);
            lanes[i] = (m as u64) ^ ((m >> 64) as u64);
        }
    }
    std::hint::black_box(lanes);
    t0.elapsed().as_secs_f64() * 1e3
}

/// How often the background sampler of a multi-threaded meter probes.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// Measures the host's speed around pieces of work.
///
/// Every lap probes the reference loop on each of the work's threads at
/// once. Work spread over several executor threads runs in calls lasting
/// up to seconds, during which the host's speed moves, so a meter for more
/// than one thread also runs a background thread that probes every
/// [`SAMPLE_EVERY`] while the work runs. Each probe takes its core from a
/// worker for about half a millisecond, about 1% of the work's time; the
/// loop stays in L1, so what it reads is the core's speed, not the load
/// the workers put on memory.
#[derive(Debug)]
pub struct HostMeter {
    threads: usize,
    last_ms: f64,
    sampler: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
    background: Arc<Mutex<Vec<f64>>>,
}

impl HostMeter {
    /// A meter for work running on `threads` threads.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let background = Arc::new(Mutex::new(Vec::new()));
        let sampler = (threads > 1).then(|| {
            let stop = Arc::new(AtomicBool::new(false));
            let (flag, readings) = (Arc::clone(&stop), Arc::clone(&background));
            let handle = std::thread::spawn(move || {
                while !flag.load(Ordering::Relaxed) {
                    std::thread::sleep(SAMPLE_EVERY);
                    let ms = reference_ms();
                    readings.lock().expect("sampler lock").push(ms);
                }
            });
            (stop, handle)
        });
        let mut meter = Self {
            threads: threads.max(1),
            last_ms: 0.0,
            sampler,
            background,
        };
        meter.last_ms = meter.probe();
        meter
    }

    fn probe(&self) -> f64 {
        if self.threads == 1 {
            return reference_ms();
        }
        let times: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.threads)
                .map(|_| s.spawn(reference_ms))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference loop"))
                .collect()
        });
        times.iter().sum::<f64>() / times.len() as f64
    }

    /// Probes now and returns the reference time of the work done since
    /// the previous lap: the median of the previous lap's probe, the
    /// background readings since, and this probe.
    pub fn lap(&mut self) -> f64 {
        let mut readings = vec![self.last_ms];
        readings.append(&mut self.background.lock().expect("sampler lock"));
        self.last_ms = self.probe();
        readings.push(self.last_ms);
        median(&readings)
    }

    /// Runs `f` as one operation of `kind`, then laps: `f`'s result and
    /// its sample.
    pub fn time<T>(&mut self, kind: usize, f: impl FnOnce() -> T) -> (T, Sample) {
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        let sample = Sample {
            kind,
            ops: 1,
            secs,
            ref_ms: self.lap(),
        };
        (out, sample)
    }
}

impl Drop for HostMeter {
    fn drop(&mut self) {
        if let Some((stop, handle)) = self.sampler.take() {
            stop.store(true, Ordering::Relaxed);
            handle.join().expect("sampler thread");
        }
    }
}

/// One timed piece of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Which piece of work it was: samples of one kind repeat the same
    /// work (up to the round's seed), and set-up time takes each kind's
    /// median ([`secs_at_reference`]).
    pub kind: usize,
    /// Operations it performed.
    pub ops: u64,
    /// Its wall time in seconds.
    pub secs: f64,
    /// The reference loop's milliseconds around it ([`HostMeter::lap`]).
    pub ref_ms: f64,
}

impl Sample {
    /// The sample's seconds scaled to [`REFERENCE_MS`]:
    /// `secs * (REFERENCE_MS / ref_ms)^ELASTICITY`.
    #[must_use]
    pub fn at_reference(&self) -> f64 {
        self.secs * (REFERENCE_MS / self.ref_ms).powf(ELASTICITY)
    }
}

/// Operations per second of `samples` at [`REFERENCE_MS`]: their
/// operations over their scaled seconds; NaN without operations.
#[must_use]
pub fn ops_per_s_at_reference(samples: &[Sample]) -> f64 {
    let ops: u64 = samples.iter().map(|s| s.ops).sum();
    let secs: f64 = samples.iter().map(Sample::at_reference).sum();
    ops as f64 / secs
}

/// Seconds of one set-up at [`REFERENCE_MS`]: the median scaled time of
/// each kind, averaged over the kinds so that every kind weighs the same
/// however often it was sampled; NaN without samples.
#[must_use]
pub fn secs_at_reference(samples: &[Sample]) -> f64 {
    let mut kinds: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in samples {
        kinds.entry(s.kind).or_default().push(s.at_reference());
    }
    kinds.values().map(|v| median(v)).sum::<f64>() / kinds.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: usize, ops: u64, ref_ms: f64, secs: f64) -> Sample {
        Sample {
            kind,
            ops,
            secs,
            ref_ms,
        }
    }

    #[test]
    fn a_sample_at_the_reference_speed_keeps_its_time() {
        assert_eq!(sample(0, 1, REFERENCE_MS, 0.25).at_reference(), 0.25);
        // Four times the reference time: 4^0.6 times slower.
        let slow = sample(0, 1, 4.0 * REFERENCE_MS, 0.25 * 4f64.powf(ELASTICITY));
        assert!((slow.at_reference() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn throughput_is_read_at_the_reference_speed() {
        // Work that follows the power law exactly reads the same at every
        // host speed: 2 ms per op at the reference speed.
        let samples: Vec<Sample> = [0.45, 0.6, 0.9, 1.1]
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let ops = 10 * (i as u64 + 1);
                let secs = ops as f64 * 2e-3 * (r / REFERENCE_MS).powf(ELASTICITY);
                sample(i % 2, ops, r, secs)
            })
            .collect();
        let got = ops_per_s_at_reference(&samples);
        assert!((got - 500.0).abs() < 1e-9, "{got}");
        assert!(ops_per_s_at_reference(&[]).is_nan());
    }

    #[test]
    fn setup_time_weighs_every_kind_the_same() {
        // Kind 0 has three samples (median 0.1 s), kind 1 one (0.5 s).
        let setup = [
            sample(0, 1, REFERENCE_MS, 0.1),
            sample(0, 1, REFERENCE_MS, 0.9),
            sample(0, 1, REFERENCE_MS, 0.05),
            sample(1, 1, REFERENCE_MS, 0.5),
        ];
        assert!((secs_at_reference(&setup) - 0.3).abs() < 1e-12);
        assert!(secs_at_reference(&[]).is_nan());
    }

    #[test]
    fn meter_laps_take_the_median_of_probes_around_the_work() {
        let mut meter = HostMeter::new(1);
        let first = meter.last_ms;
        let lap = meter.lap();
        assert!(first > 0.0 && lap > 0.0);
        assert_eq!(lap, (first + meter.last_ms) / 2.0);

        let mut meter = HostMeter::new(2);
        std::thread::sleep(SAMPLE_EVERY * 4);
        let background = meter.background.lock().unwrap().len();
        assert!(background >= 1, "the sampler probes while the work runs");
        assert!(meter.lap() > 0.0);
        // Dropping the meter stops and joins the sampler.
        drop(meter);
    }
}
