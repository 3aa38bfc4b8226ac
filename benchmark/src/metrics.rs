//! The metric tables: every name the benchmark may print, with its unit.
//! `BENCHMARK.json` declares the same names (a test keeps them in step), and
//! a run that cannot fill every declared name fails instead of printing a
//! partial result.

use crate::measure::{median, peak_rss_mb, quantile};
use crate::Timed;

/// End-to-end metrics, printed by a plain run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("run_p50_ms", "ms"),
    ("run_p95_ms", "ms"),
    ("ttfp_p50_ms", "ms"),
    ("first_answer_ms", "ms"),
    ("insert_p50_ms", "ms"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ged.engine_us_per_call", "us"),
    ("ged.within_cold_us", "us"),
    ("ged.cached_lookup_ns", "ns"),
    ("ged.tier_reject_share", "share"),
    ("ged.engine_calls_per_req", "count"),
    ("ged.lookups_per_req", "count"),
    ("metric.band_scan_ns_per_row", "ns"),
    ("metric.band_pass_share", "share"),
    ("core.index_build_s", "s"),
    ("core.session_open_ms", "ms"),
    ("core.run_p50_ms", "ms"),
    ("core.run_p95_ms", "ms"),
    ("core.nodes_expanded_per_run", "count"),
    ("core.verified_per_run", "count"),
    ("core.distance_calls_per_run", "count"),
    ("core.ladder_hit_share", "share"),
    ("core.answer_hit_share", "share"),
    ("core.view_hit_share", "share"),
    ("core.answer_get_ns", "ns"),
    ("core.save_bin_ms", "ms"),
    ("core.load_bin_ms", "ms"),
    ("core.index_bin_bytes", "bytes"),
    ("core.insert_p50_ms", "ms"),
    ("core.remove_p50_ms", "ms"),
    ("core.rebuild_p50_ms", "ms"),
    ("core.rebuild_share", "share"),
    ("shard.build_s", "s"),
    ("shard.session_open_ms", "ms"),
    ("shard.run_p50_ms", "ms"),
    ("shard.prune_rate", "share"),
    ("shard.touched_per_pick", "count"),
    ("shard.engine_entries_per_run", "count"),
    ("shard.vs_single_ratio", "ratio"),
    ("serve.overhead_p50_ms", "ms"),
    ("serve.overhead_share", "share"),
    ("serve.ping_rtt_us", "us"),
    ("serve.encode_answer_ns", "ns"),
    ("serve.decode_answer_ns", "ns"),
    ("serve.answer_frame_bytes", "bytes"),
    ("serve.open_rtt_ms", "ms"),
    ("serve.registry_open_ms", "ms"),
    ("serve.start_ms", "ms"),
    ("serve.accept_ms", "ms"),
    ("serve.accept_slow_share", "share"),
    ("serve.remove_p50_ms", "ms"),
    ("serve.persist_ms_per_mutation", "ms"),
    ("serve.persist_bytes_per_mutation", "bytes"),
    ("serve.server_run_p50_ms", "ms"),
    ("serve.errors", "count"),
    ("serve.overloaded", "count"),
    ("serve.deadline_exceeded", "count"),
    ("datagen.store_load_ms", "ms"),
    ("datagen.store_save_ms", "ms"),
    ("wire.run_p99_ms", "ms"),
    ("wire.run_samples", "count"),
    ("wire.rounds", "count"),
    ("host.calib_ms_start", "ms"),
    ("host.calib_ms_end", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
];

/// A growing list of `(name, value)` pairs.
pub type Values = Vec<(&'static str, f64)>;

/// The best decile of per-round values: the ninth for a rate, the first
/// for a cost. Rounds replay the same work and disturbance only ever slows
/// them (see [`crate::measure::Samples::keep_best`]); the second or third
/// best of a dozen or two short rounds is the undisturbed machine without
/// resting on a single lucky reading.
pub fn best_decile(rounds: &[f64], higher_is_better: bool) -> f64 {
    quantile(rounds, if higher_is_better { 0.9 } else { 0.1 })
}

/// The nine end-to-end values of one run.
pub fn end_to_end(setup_s: f64, timed: &Timed) -> Values {
    let b = &timed.best;
    vec![
        ("setup_s", setup_s),
        ("qps", best_decile(&timed.round_qps, true)),
        ("run_p50_ms", quantile(&b.run_ms, 0.5)),
        ("run_p95_ms", quantile(&b.run_ms, 0.95)),
        ("ttfp_p50_ms", quantile(&b.ttfp_ms, 0.5)),
        ("first_answer_ms", median(&b.first_answer_ms)),
        ("insert_p50_ms", median(&b.insert_ms)),
        ("cpu_ms_per_req", best_decile(&timed.round_cpu_ms, false)),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

/// Orders `values` like `table` and checks every declared name is present
/// exactly once and nothing undeclared slipped in.
pub fn finalize(values: Values, table: &[(&'static str, &'static str)]) -> Result<Values, String> {
    for (name, _) in &values {
        if !table.iter().any(|(n, _)| n == name) {
            return Err(format!("metric `{name}` is not declared"));
        }
    }
    table
        .iter()
        .map(|(name, _)| {
            let mut found = values.iter().filter(|(n, _)| n == name);
            match (found.next(), found.next()) {
                (Some(&(_, v)), None) if v.is_finite() => Ok((*name, v)),
                (Some(&(_, v)), None) => Err(format!("metric `{name}` is {v}")),
                (None, _) => Err(format!("metric `{name}` was not measured")),
                (Some(_), Some(_)) => Err(format!("metric `{name}` was measured twice")),
            }
        })
        .collect()
}

/// Unit of a declared metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}
