//! Command line of the repository benchmark.
//!
//! ```text
//! graphrep-benchmark --workload W --seed N --seconds S --trace 0|1
//! graphrep-benchmark suite [--runs R] [--out NAME] [--seed N] [--seconds S] [--layers]
//! graphrep-benchmark --compare A B
//! ```
//!
//! The first form is what `BENCHMARK.json` runs: one workload, one process,
//! a table on stderr and one JSON object as the last line of stdout.

use graphrep_benchmark::fixture::{Sizes, DEFAULT_SEED};
use graphrep_benchmark::{compare, metrics, run_workload, Budget, Outcome, RunConfig};
use std::io::Write;
use std::process::ExitCode;

/// Timed seconds when `--seconds` is absent (`run_seconds` of BENCHMARK.json).
const DEFAULT_SECONDS: u64 = 6;

fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn number_of<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match value_of(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag} takes a number, got `{v}`")),
    }
}

/// Marks the re-executed, pinned child.
const PINNED: &str = "GRAPHREP_BENCH_PINNED";

/// Re-executes this invocation under `taskset -c <last allowed CPU>` and
/// returns the child's exit code; `None` when already pinned, when only one
/// CPU is allowed anyway, or when there is no `taskset` to run.
///
/// One closed-loop client never needs two CPUs at once, and on a two-vCPU
/// virtual machine every client → server → worker hand-off that crosses
/// CPUs is an inter-processor interrupt through the hypervisor: unpinned, a
/// cache-hit round trip read 94–124 µs depending on where the scheduler had
/// put the threads that minute; pinned it reads 26–28 µs, run after run.
/// Pinning makes the numbers about the code. (It also means rayon sees one
/// CPU and runs its default of one worker.) On one CPU a single malloc arena
/// is the natural setting too: with glibc's per-thread arenas `VmHWM` read
/// 34–42 MB depending on which thread happened to allocate what, with one
/// arena 25–27 MB.
fn run_pinned(args: &[String]) -> Option<ExitCode> {
    if std::env::var_os(PINNED).is_some() {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let last = allowed.rsplit([',', '-']).next()?;
    if last == allowed {
        return None;
    }
    let exe = std::env::current_exe().ok()?;
    let child = std::process::Command::new("taskset")
        .args(["-c", last])
        .arg(exe)
        .args(args)
        .env(PINNED, "1")
        .env("MALLOC_ARENA_MAX", "1")
        .status()
        .ok()?;
    Some(ExitCode::from(child.code().unwrap_or(2) as u8))
}

fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                metrics::unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut err = std::io::stderr();
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
            return Err("--compare takes two result sets".to_owned());
        };
        let table = compare::compare(a, b)?;
        let _ = write!(std::io::stdout().lock(), "{table}");
        return Ok(ExitCode::SUCCESS);
    }
    let seed = number_of(args, "--seed", DEFAULT_SEED)?;
    let seconds = number_of(args, "--seconds", DEFAULT_SECONDS)?;
    if args.first().map(String::as_str) == Some("suite") {
        let path = compare::suite(
            value_of(args, "--out").unwrap_or("suite"),
            number_of(args, "--runs", 5usize)?,
            seed,
            seconds,
            args.iter().any(|a| a == "--layers"),
        )?;
        let _ = writeln!(err, "result set written to {}", path.display());
        return Ok(ExitCode::SUCCESS);
    }
    let workload = value_of(args, "--workload")
        .ok_or("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")?;
    // `ServeConfig::default()` reads this variable; a stray value would
    // silently measure the other I/O engine.
    if std::env::var_os("GRAPHREP_SERVE_IO").is_some() {
        return Err("GRAPHREP_SERVE_IO is set; unset it to benchmark the default server".into());
    }
    let trace = match value_of(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    if let Some(code) = run_pinned(args) {
        return Ok(code);
    }
    if std::env::var_os(PINNED).is_none() {
        let _ = writeln!(err, "not pinned to one CPU (no taskset, or one CPU only)");
    }
    let cfg = RunConfig {
        seed,
        budget: Budget::Seconds(seconds as f64),
        trace,
        sizes: Sizes::FULL,
        // Set-up time is the median of three full set-ups; a traced pass
        // reports no set-up time and sets up once.
        setup_reps: if trace { 1 } else { 3 },
    };
    let out = run_workload(workload, &cfg)?;
    let _ = writeln!(
        err,
        "{workload}  seed {seed}  {} s  trace {}",
        seconds,
        u8::from(trace)
    );
    for (name, value) in &out.metrics {
        let _ = writeln!(err, "  {name:<34} {value:>16.4} {}", metrics::unit_of(name));
    }
    let _ = writeln!(err, "  attempted {}  failed {}", out.attempted, out.failed);
    for n in &out.notes {
        let _ = writeln!(err, "  {n}");
    }
    for v in &out.violations {
        let _ = writeln!(err, "  VIOLATION: {v}");
    }
    let _ = writeln!(std::io::stdout().lock(), "{}", result_line(&out));
    Ok(if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            let _ = writeln!(std::io::stderr().lock(), "graphrep-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
