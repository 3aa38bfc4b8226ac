//! Sample pools, quantiles and the process-level gauges.

use std::time::{Duration, Instant};

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latency samples by kind, in milliseconds, in the order issued.
#[derive(Debug, Default)]
pub struct Samples {
    /// Client round trip of a run (request written → terminal frame read).
    pub run_ms: Vec<f64>,
    /// Request written → first `pick` frame (streamed runs) or → the answer
    /// frame (plain runs, where every pick arrives at once).
    pub ttfp_ms: Vec<f64>,
    /// Run round trip minus the server-reported `AnswerBody.wall_ms`.
    pub overhead_ms: Vec<f64>,
    /// A client with no session → its first answer.
    pub first_answer_ms: Vec<f64>,
    /// `Client::insert` → acknowledgement.
    pub insert_ms: Vec<f64>,
    /// `Client::remove` → acknowledgement.
    pub remove_ms: Vec<f64>,
    /// `Client::open` → `opened`.
    pub open_ms: Vec<f64>,
}

impl Samples {
    /// Keeps, position by position, the smaller of `self` and `other`.
    ///
    /// Every round issues the same operations in the same order, so position
    /// `i` of a pool is the same operation in every round. What disturbs an
    /// operation on a shared two-core box (a neighbour on the sibling
    /// hyperthread, a descheduled vCPU) only ever slows it, for milliseconds
    /// to seconds at a time; the fastest of a dozen replicas is the
    /// operation on an undisturbed machine, and quantiles are then taken
    /// across positions. A real regression slows every replica. A pool whose
    /// length differs (an operation failed and left no sample) is skipped.
    pub fn keep_best(&mut self, other: &Samples) {
        fn best(mine: &mut Vec<f64>, theirs: &[f64]) {
            if mine.is_empty() {
                mine.extend_from_slice(theirs);
            } else if mine.len() == theirs.len() {
                for (m, t) in mine.iter_mut().zip(theirs) {
                    *m = m.min(*t);
                }
            }
        }
        best(&mut self.run_ms, &other.run_ms);
        best(&mut self.ttfp_ms, &other.ttfp_ms);
        best(&mut self.overhead_ms, &other.overhead_ms);
        best(&mut self.first_answer_ms, &other.first_answer_ms);
        best(&mut self.insert_ms, &other.insert_ms);
        best(&mut self.remove_ms, &other.remove_ms);
        best(&mut self.open_ms, &other.open_ms);
    }
}

/// What one timed round hands back to the round loop.
#[derive(Debug, Default)]
pub struct RoundOut {
    /// Wall time of the whole round.
    pub wall: Duration,
    /// The part of it `qps` divides by: all of it, except in `restart_churn`
    /// where only the mixed insert/run/remove phases count.
    pub rate_wall: Duration,
    /// Process CPU seconds spent in the round.
    pub cpu_s: f64,
    /// Operations issued.
    pub attempted: u64,
    /// Operations whose result matched the offline reference.
    pub verified: u64,
    /// Verified operations completed inside `rate_wall`.
    pub rate_ops: u64,
    /// Latency samples.
    pub samples: Samples,
    /// Answer fingerprints in issue order.
    pub fingerprints: Vec<String>,
}

/// Nearest-rank quantile of an unsorted pool; 0 for an empty pool.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Times `f` once, in milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms(t.elapsed()))
}

/// Median of `reps` timings of `f`, in milliseconds.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| time_ms(&mut f).1).collect();
    median(&samples)
}

/// `utime + stime` of this process in seconds, from `/proc/self/stat`.
/// Linux reports both in USER_HZ ticks, which is 100 on every supported
/// architecture; over a ten-second section that resolves 0.1 %.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed integer-hash loop of roughly 200 ms on the sizing box. Timed
/// before and after each workload so a disturbed machine is visible next to
/// the numbers it disturbed; nothing is ever rescaled by it.
pub fn calibrate_ms() -> f64 {
    let (h, t) = time_ms(|| {
        let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..120_000_000u64 {
            h = (h ^ i).wrapping_mul(0x0100_0000_01b3).rotate_left(23);
        }
        h
    });
    std::hint::black_box(h);
    t
}
