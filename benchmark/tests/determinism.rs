//! Determinism self-test: every workload at a tiny size, twice with the same
//! seed and once with another. One test function, so the workloads run one
//! after the other (they share `benchmark/out/` and two cores).

use graphrep_benchmark::fixture::Sizes;
use graphrep_benchmark::{metrics, run_workload, Budget, Outcome, RunConfig, WORKLOADS};

/// Counters that must repeat exactly, not merely closely.
const EXACT: &[&str] = &[
    "ged.engine_calls_per_req",
    "ged.lookups_per_req",
    "metric.band_pass_share",
    "core.nodes_expanded_per_run",
    "core.verified_per_run",
    "core.distance_calls_per_run",
    "core.ladder_hit_share",
    "core.answer_hit_share",
    "core.index_bin_bytes",
    "core.rebuild_share",
    "shard.prune_rate",
    "shard.touched_per_pick",
    "shard.engine_entries_per_run",
    "serve.errors",
    "serve.overloaded",
    "serve.deadline_exceeded",
];

fn run(workload: &str, seed: u64, trace: bool) -> Outcome {
    let cfg = RunConfig {
        seed,
        budget: Budget::Rounds(2),
        trace,
        sizes: Sizes::TINY,
        setup_reps: 1,
    };
    let out = run_workload(workload, &cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(
        out.correct(),
        "{workload} seed {seed}: {} of {} failed, {:?}",
        out.failed,
        out.attempted,
        out.violations
    );
    assert!(out.attempted > 0);
    out
}

fn value(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .1
}

#[test]
fn workloads_are_deterministic_and_verify_under_any_seed() {
    for workload in WORKLOADS {
        let (a, b) = (run(workload, 7, false), run(workload, 7, false));
        assert_eq!(a.schedule_digest, b.schedule_digest, "{workload}");
        assert_eq!(a.fingerprints, b.fingerprints, "{workload}");
        assert_eq!(a.attempted, b.attempted, "{workload}");
        let names: Vec<&str> = a.metrics.iter().map(|(n, _)| *n).collect();
        let declared: Vec<&str> = metrics::END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared, "{workload} prints every end-to-end metric");
        // (A tiny round is shorter than one 10 ms tick of process CPU time.)
        for (name, v) in a.metrics.iter().filter(|(n, _)| *n != "cpu_ms_per_req") {
            assert!(
                *v > 0.0,
                "{workload} {name} = {v}: end-to-end metrics are never 0"
            );
        }

        // Another seed replays the same queries in another order — except in
        // restart_churn, where every operation's cost depends on what came
        // before it and the script is the same under every seed.
        let c = run(workload, 8, false);
        if workload == "restart_churn" {
            assert_eq!(a.schedule_digest, c.schedule_digest);
            assert_eq!(a.fingerprints, c.fingerprints);
        } else {
            assert_ne!(a.schedule_digest, c.schedule_digest, "{workload}");
            let sorted = |o: &Outcome| {
                let mut f = o.fingerprints.clone();
                f.sort();
                f
            };
            assert_eq!(sorted(&a), sorted(&c), "{workload}");
        }

        let (ta, tb) = (run(workload, 7, true), run(workload, 7, true));
        let names: Vec<&str> = ta.metrics.iter().map(|(n, _)| *n).collect();
        let declared: Vec<&str> = metrics::PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared, "{workload} prints every per-layer metric");
        for name in EXACT {
            assert_eq!(
                value(&ta, name).to_bits(),
                value(&tb, name).to_bits(),
                "{workload} {name} must repeat exactly"
            );
        }
        assert_eq!(
            ta.fingerprints, a.fingerprints,
            "{workload}: tracing changes no answer"
        );
    }
}

/// `BENCHMARK.json` and the code declare the same workloads, names and units.
#[test]
fn benchmark_json_matches_the_metric_tables() {
    #[derive(serde::Deserialize)]
    struct Decl {
        name: String,
        unit: String,
    }
    #[derive(serde::Deserialize)]
    struct Named {
        name: String,
    }
    #[derive(serde::Deserialize)]
    struct File {
        workloads: Vec<Named>,
        end_to_end: Vec<Decl>,
        per_layer: Vec<Decl>,
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let file: File = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let pairs = |d: &[Decl]| -> Vec<(String, String)> {
        d.iter().map(|d| (d.name.clone(), d.unit.clone())).collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(pairs(&file.end_to_end), table(metrics::END_TO_END));
    assert_eq!(pairs(&file.per_layer), table(metrics::PER_LAYER));
    let workloads: Vec<String> = file.workloads.into_iter().map(|w| w.name).collect();
    assert_eq!(workloads, WORKLOADS);
}
