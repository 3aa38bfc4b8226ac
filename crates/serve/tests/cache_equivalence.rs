//! Workload-replay differential harness for the serving-layer caches
//! (DESIGN.md §11): the same deterministic skewed workload is replayed
//! against a cache-off server (`capacity: 0`) and a cache-on server at 1,
//! 4, and 8 workers, and every answer must be byte-identical — to the
//! other server, to the offline engine, and across a repeat round that is
//! served almost entirely from the answer cache. A mutation round then
//! proves the epoch boundary: post-mutation answers must match an offline
//! replay of the *mutated* state, never a stale cached one.

use graphrep_core::CacheConfig;
use graphrep_datagen::{Dataset, DatasetKind, DatasetSpec};
use graphrep_serve::protocol::DatasetStats;
use graphrep_serve::registry::load_in_memory;
use graphrep_serve::{
    offline_reference, run_load, verify_against_offline, Client, DatasetRegistry, LoadMode,
    LoadSpec, ServeConfig, ServerHandle,
};

const SEED: u64 = 20140622;

fn dud(size: usize) -> DatasetSpec {
    DatasetSpec::new(DatasetKind::DudLike, size, SEED)
}

fn spec_for(data: &Dataset) -> LoadSpec {
    LoadSpec {
        dataset: "ce".into(),
        connections: 4,
        requests_per_conn: 12,
        thetas: vec![
            data.default_theta * 0.8,
            data.default_theta,
            data.default_theta * 1.2,
        ],
        ks: vec![2, 4],
        quantile: 0.75,
        seed: 7,
        skew: 1.2,
        mode: LoadMode::Blocking,
    }
}

fn start_with_cache(workers: usize, data: Dataset, cache: CacheConfig) -> ServerHandle {
    let mut reg = DatasetRegistry::new();
    reg.insert(load_in_memory("ce", data).with_cache_config(cache));
    graphrep_serve::start(
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
        reg,
    )
    .expect("server start")
}

fn cache_stats(addr: &str) -> DatasetStats {
    let stats = Client::connect(addr)
        .expect("connect for stats")
        .stats()
        .expect("stats");
    stats
        .datasets
        .into_iter()
        .find(|d| d.name == "ce")
        .expect("dataset row")
}

fn assert_conservation(d: &DatasetStats) {
    for (tier, c) in [
        ("answer_cache", &d.answer_cache),
        ("view_store", &d.view_store),
    ] {
        assert_eq!(c.lookups, c.hits + c.misses, "{tier}: {c:?}");
        assert!(c.evictions <= c.insertions, "{tier}: {c:?}");
    }
}

/// The tentpole criterion: cache-on answers are byte-identical to
/// cache-off and offline answers at every pool size, including a repeat
/// round on the warm cache, whose hits must strictly grow.
#[test]
fn cached_answers_match_uncached_and_offline_at_every_pool_size() {
    let gen = dud(60);
    let spec = spec_for(&gen.generate());
    let reference = offline_reference(&load_in_memory("ce", gen.generate()), &spec);
    let total = spec.connections * spec.requests_per_conn;

    for workers in [1usize, 4, 8] {
        let off = CacheConfig { capacity: 0 };
        let handle_off = start_with_cache(workers, gen.generate(), off);
        let report_off = run_load(&handle_off.addr().to_string(), &spec).expect("cache-off load");
        let stats_off = cache_stats(&handle_off.addr().to_string());
        handle_off.shutdown();
        assert!(report_off.errors.is_empty(), "{:?}", report_off.errors);
        assert_eq!(
            verify_against_offline(&report_off, &reference)
                .unwrap_or_else(|e| panic!("cache-off at {workers} workers: {e}")),
            total
        );
        assert_eq!(stats_off.answer_cache.lookups, 0, "{stats_off:?}");
        assert!(!stats_off.cache_enabled, "{stats_off:?}");
        assert!(
            report_off.answers.iter().all(|a| !a.body.cached),
            "cache-off server flagged an answer as cached"
        );

        let handle_on = start_with_cache(workers, gen.generate(), CacheConfig::default());
        let addr_on = handle_on.addr().to_string();
        let report_on = run_load(&addr_on, &spec).expect("cache-on round 1");
        let hits_round1 = cache_stats(&addr_on).answer_cache.hits;
        let report_again = run_load(&addr_on, &spec).expect("cache-on round 2");
        let stats_on = cache_stats(&addr_on);
        handle_on.shutdown();

        assert!(report_on.errors.is_empty(), "{:?}", report_on.errors);
        assert!(report_again.errors.is_empty(), "{:?}", report_again.errors);
        for (label, report) in [("round 1", &report_on), ("round 2", &report_again)] {
            assert_eq!(
                verify_against_offline(report, &reference)
                    .unwrap_or_else(|e| panic!("cache-on {label} at {workers} workers: {e}")),
                total
            );
        }

        // Byte-identical across servers, request by request.
        let fp = |r: &graphrep_serve::LoadReport| -> Vec<String> {
            r.answers.iter().map(|a| a.body.fingerprint()).collect()
        };
        assert_eq!(
            fp(&report_off),
            fp(&report_on),
            "cache-off vs cache-on diverged at {workers} workers"
        );
        assert_eq!(
            fp(&report_on),
            fp(&report_again),
            "warm repeat diverged at {workers} workers"
        );

        assert!(stats_on.cache_enabled, "{stats_on:?}");
        assert_conservation(&stats_on);
        assert!(
            stats_on.answer_cache.hits > hits_round1,
            "repeat round added no hits: {} -> {}",
            hits_round1,
            stats_on.answer_cache.hits
        );
        assert!(
            report_again.answers.iter().any(|a| a.body.cached),
            "warm repeat served nothing from the cache at {workers} workers"
        );
    }
}

/// The epoch boundary over the wire: a remove bumps the epoch and wipes
/// the caches, and every post-mutation answer matches an offline replay of
/// the mutated state — a stale pre-mutation answer would diverge.
#[test]
fn mutation_over_the_wire_never_serves_stale_cached_answers() {
    let gen = dud(60);
    let spec = spec_for(&gen.generate());
    let total = spec.connections * spec.requests_per_conn;
    const VICTIM: u32 = 5;

    let reference_before = offline_reference(&load_in_memory("ce", gen.generate()), &spec);
    let reference_after = {
        let ds = load_in_memory("ce", gen.generate());
        ds.remove_graph(VICTIM).expect("offline remove");
        offline_reference(&ds, &spec)
    };

    let handle = start_with_cache(4, gen.generate(), CacheConfig::default());
    let addr = handle.addr().to_string();

    // Warm round against the pre-mutation state.
    let warm = run_load(&addr, &spec).expect("warm load");
    assert!(warm.errors.is_empty(), "{:?}", warm.errors);
    assert_eq!(
        verify_against_offline(&warm, &reference_before).expect("pre-mutation verify"),
        total
    );
    let before = cache_stats(&addr);

    let receipt = Client::connect(&addr)
        .expect("connect")
        .remove("ce", VICTIM)
        .expect("remove over the wire");
    assert_eq!(receipt.epoch, 1, "remove must bump the epoch");

    // Replay the identical workload: answers must now match the mutated
    // offline state, and the caches must have been wiped at the boundary.
    let after_load = run_load(&addr, &spec).expect("post-mutation load");
    assert!(after_load.errors.is_empty(), "{:?}", after_load.errors);
    assert_eq!(
        verify_against_offline(&after_load, &reference_after).expect("post-mutation verify"),
        total
    );
    let after = cache_stats(&addr);
    handle.shutdown();

    assert!(
        after.answer_cache.invalidated > before.answer_cache.invalidated,
        "mutation must wipe the answer cache: {before:?} -> {after:?}"
    );
    assert_conservation(&after);
    assert!(
        after.answer_cache.hits > before.answer_cache.hits,
        "the post-mutation round must re-warm and hit again: {after:?}"
    );

    // The removed graph can appear in no post-mutation answer.
    for a in &after_load.answers {
        assert!(
            !a.body.ids.contains(&VICTIM),
            "tombstoned graph {VICTIM} served at θ = {}, k = {}",
            a.theta,
            a.k
        );
    }
}

/// Regression: the `stats` endpoint must report cache memory, starting at
/// zero and growing once the view store and answer cache are warm.
#[test]
fn stats_report_cache_memory_that_grows_after_warmup() {
    let gen = dud(40);
    let theta = gen.generate().default_theta;
    let handle = graphrep_serve::start_in_memory(ServeConfig::default(), "ce", gen.generate())
        .expect("start");
    let addr = handle.addr().to_string();

    let cold = cache_stats(&addr);
    assert!(cold.cache_enabled, "caches must default on: {cold:?}");
    assert_eq!(cold.answer_cache.memory_bytes, 0, "{cold:?}");
    assert_eq!(cold.view_store.memory_bytes, 0, "{cold:?}");

    // Two runs at the same θ and different k: both record θ-neighborhood
    // views, both miss the answer cache and are inserted.
    let mut c = Client::connect(&addr).expect("connect");
    let opened = c.open("ce", 0.75).expect("open");
    c.run_answer(opened.session, theta, 3).expect("run k=3");
    c.run_answer(opened.session, theta, 4).expect("run k=4");

    let warm = cache_stats(&addr);
    assert!(
        warm.answer_cache.memory_bytes > 0,
        "answer cache reported no memory after warm-up: {warm:?}"
    );
    assert!(
        warm.view_store.memory_bytes > 0,
        "view store reported no memory after warm-up: {warm:?}"
    );
    assert!(warm.answer_cache.entries >= 2, "{warm:?}");

    // The wire representation carries both tiers for operators to scrape.
    let body = Client::connect(&addr)
        .expect("connect")
        .stats()
        .expect("stats");
    let json = serde_json::to_string(&body).expect("stats serialize");
    assert!(json.contains("view_store"), "{json}");
    assert!(json.contains("answer_cache"), "{json}");
    handle.shutdown();
}
