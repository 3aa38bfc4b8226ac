//! The repository benchmark: four closed-loop wire workloads against an
//! in-process `graphrep_serve` server, nine end-to-end metrics, and a traced
//! pass that times the public functions of every crate on the query path.
//!
//! `README.md` next to this crate is the specification: why each workload
//! exists, what each metric means on each workload, and which product
//! signatures the benchmark is allowed to call. The code changes nothing in
//! the product crates and claims no gain.

pub mod churn;
pub mod compare;
pub mod fixture;
pub mod measure;
pub mod metrics;
pub mod probes;
pub mod scratch;
pub mod steady;
pub mod trace;
pub mod wire;

use measure::{median, quantile};
use metrics::Values;
use std::time::{Duration, Instant};
use trace::Trace;

/// The four workloads, in the order `BENCHMARK.json` declares them.
pub const WORKLOADS: [&str; 4] = [
    "refine_warm",
    "dashboard_hot",
    "restart_churn",
    "sharded_refine",
];

/// How long the timed section lasts.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Whole rounds until this much time has been measured (the driver's
    /// `--seconds`); never fewer than two rounds.
    Seconds(f64),
    /// Exactly this many rounds (the determinism self-test).
    Rounds(usize),
}

/// One invocation's parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Permutes the order of every schedule; never changes what is in them.
    pub seed: u64,
    /// Length of the timed section.
    pub budget: Budget,
    /// Traced pass: spans, wire-side layer counters and in-process probes.
    pub trace: bool,
    /// Problem sizes.
    pub sizes: fixture::Sizes,
    /// How many times the whole set-up is repeated; `setup_s` is the median.
    pub setup_reps: usize,
}

/// What one workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations issued in the timed rounds and the tails.
    pub attempted: u64,
    /// Operations that errored, were refused, or answered differently from
    /// the offline reference.
    pub failed: u64,
    /// Steady-state conditions that did not hold (empty when all did).
    pub violations: Vec<String>,
    /// End-to-end metrics (plain run) or per-layer metrics (traced run).
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts behind the quantiles and other context for the reader
    /// of the stderr table.
    pub notes: Vec<String>,
    /// FNV digest of the schedule actually replayed (determinism test).
    pub schedule_digest: u64,
    /// Fingerprints of the answers of the first timed round, in order.
    pub fingerprints: Vec<String>,
    /// The host calibration loop, timed before anything else ran.
    pub calib_start_ms: f64,
}

impl Outcome {
    /// Starts a report: times the host calibration loop.
    pub fn begin() -> Self {
        Self {
            calib_start_ms: measure::calibrate_ms(),
            ..Self::default()
        }
    }

    /// True when every answer verified and every steady-state check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// Counts of the timed section, with the per-round rates the best
    /// decile is taken over (so a disturbed run can be recognised).
    fn note_timed(&mut self, timed: &Timed) {
        let series = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        self.notes
            .push(format!("round qps: {}", series(&timed.round_qps)));
        self.notes.push(format!(
            "round cpu_ms_per_req: {}",
            series(&timed.round_cpu_ms)
        ));
        let b = &timed.best;
        self.notes.push(format!(
            "{} rounds; positions per round: {} runs, {} first answers, {} inserts, {} removes",
            timed.round_qps.len(),
            b.run_ms.len(),
            b.first_answer_ms.len(),
            b.insert_ms.len(),
            b.remove_ms.len(),
        ));
        self.attempted += timed.attempted;
        self.failed += timed.failed;
        self.fingerprints = timed.first_round.clone();
    }

    /// Fills in the nine end-to-end metrics of a plain run.
    pub fn fill_plain(&mut self, setup_times: &[f64], timed: &Timed) -> Result<(), String> {
        self.note_timed(timed);
        self.notes.push(format!(
            "host calibration loop: {:.1} ms before, {:.1} ms after",
            self.calib_start_ms,
            measure::calibrate_ms()
        ));
        let v = metrics::end_to_end(median(setup_times), timed);
        self.metrics = metrics::finalize(v, metrics::END_TO_END)?;
        Ok(())
    }

    /// Fills in the per-layer metrics of a traced run: `wire` holds what
    /// the workload read off its own server, the rest comes from the timed
    /// section, the codec probe on `answers` and the in-process probes; the
    /// trace is then written out.
    pub fn fill_traced(
        &mut self,
        name: &str,
        sizes: &fixture::Sizes,
        timed: &Timed,
        mut wire: Values,
        answers: &[graphrep_serve::AnswerBody],
        mut trace: Trace,
    ) -> Result<(), String> {
        self.note_timed(timed);
        let s = &timed.best;
        let run_p50 = quantile(&s.run_ms, 0.5);
        let overhead = quantile(&s.overhead_ms, 0.5);
        wire.extend([
            ("serve.overhead_p50_ms", overhead),
            ("serve.overhead_share", overhead / run_p50),
            ("serve.open_rtt_ms", median(&s.open_ms)),
            ("serve.remove_p50_ms", median(&s.remove_ms)),
            ("wire.run_p99_ms", quantile(&s.run_ms, 0.99)),
            ("wire.run_samples", timed.run_samples as f64),
            ("wire.rounds", timed.round_qps.len() as f64),
            (
                "trace.overhead_share",
                quantile(&timed.traced_walls, 0.0) / quantile(&timed.plain_walls, 0.0) - 1.0,
            ),
        ]);
        trace.on = true;
        wire.extend(probes::codec(answers, &mut trace));
        wire.extend(probes::layers(sizes, &mut trace)?);
        wire.extend([
            ("trace.spans", trace.len() as f64),
            ("host.calib_ms_start", self.calib_start_ms),
            ("host.calib_ms_end", measure::calibrate_ms()),
        ]);
        trace
            .write(&scratch::out_dir().join(format!("trace-{name}.json")), name)
            .map_err(|e| format!("writing the trace: {e}"))?;
        self.metrics = metrics::finalize(wire, metrics::PER_LAYER)?;
        Ok(())
    }
}

/// Records a failed check. Only the first few messages are kept; the count
/// of failures is carried by `attempted - verified`.
pub fn note(violations: &mut Vec<String>, message: String) {
    if violations.len() < 8 {
        violations.push(message);
    }
}

/// A workload the round loop can drive: every round replays the same work.
pub trait Rounds {
    /// One timed round with span recording on or off.
    fn round(&mut self, traced: bool) -> Result<measure::RoundOut, String>;
}

/// Result of the timed section.
#[derive(Debug, Default)]
pub struct Timed {
    /// Position by position, the fastest replica over all rounds (see
    /// [`measure::Samples::keep_best`]); a workload's tail is added to it.
    pub best: measure::Samples,
    /// Verified operations per second of each round.
    pub round_qps: Vec<f64>,
    /// Process CPU milliseconds per operation of each round.
    pub round_cpu_ms: Vec<f64>,
    /// Wall seconds of the rounds run with span recording off / on.
    pub plain_walls: Vec<f64>,
    /// See `plain_walls`.
    pub traced_walls: Vec<f64>,
    /// Run round trips observed over all rounds.
    pub run_samples: usize,
    /// Operations attempted / failed.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Fingerprints of the first round.
    pub first_round: Vec<String>,
}

/// Runs whole rounds until the budget is spent. In a traced pass rounds
/// alternate between recording spans and not, so `trace.overhead_share`
/// compares like with like inside one process.
pub fn run_rounds(w: &mut dyn Rounds, budget: Budget, trace: bool) -> Result<Timed, String> {
    let mut t = Timed::default();
    let started = Instant::now();
    let mut measured = Duration::ZERO;
    let mut n = 0usize;
    loop {
        let done = match budget {
            Budget::Seconds(s) => n >= 2 && measured.as_secs_f64() >= s,
            Budget::Rounds(r) => n >= r,
        };
        // A round that stalls (machine suspended, runaway product change)
        // must not run the process into the driver's kill limit.
        if done || (n >= 1 && started.elapsed() > Duration::from_secs(100)) {
            break;
        }
        let traced = trace && n % 2 == 1;
        let out = w.round(traced)?;
        measured += out.wall;
        let wall_s = out.wall.as_secs_f64();
        if traced {
            t.traced_walls.push(wall_s);
        } else {
            t.plain_walls.push(wall_s);
        }
        t.round_qps
            .push(out.rate_ops as f64 / out.rate_wall.as_secs_f64());
        t.round_cpu_ms
            .push(out.cpu_s * 1e3 / out.attempted.max(1) as f64);
        t.run_samples += out.samples.run_ms.len();
        t.attempted += out.attempted;
        t.failed += out.attempted - out.verified;
        if n == 0 {
            t.first_round = out.fingerprints;
        }
        t.best.keep_best(&out.samples);
        n += 1;
    }
    Ok(t)
}

/// Runs one workload start to finish.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match name {
        "refine_warm" | "dashboard_hot" | "sharded_refine" => steady::run(name, cfg),
        "restart_churn" => churn::run(cfg),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {WORKLOADS:?})"
        )),
    }
}
