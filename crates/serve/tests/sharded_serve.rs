//! Sharded serving over the wire (DESIGN.md §14): a registry entry backed
//! by a shard [`graphrep_shard::Coordinator`] must answer byte-identically
//! to a single-index server, report per-shard stats, and return mutation
//! receipts carrying the full per-shard epoch vector.

use graphrep_datagen::{DatasetKind, DatasetSpec};
use graphrep_serve::{registry::load_in_memory, Response};
use graphrep_serve::{start, Client, DatasetRegistry, ServeConfig, ShardedDataset};

fn sharded_server(size: usize, seed: u64, shards: usize) -> graphrep_serve::ServerHandle {
    let data = DatasetSpec::new(DatasetKind::DudLike, size, seed).generate();
    let mut reg = DatasetRegistry::new();
    reg.insert_sharded(ShardedDataset::in_memory("d", data, shards, 0x5eed));
    start(
        ServeConfig {
            workers: 2,
            ..Default::default()
        },
        reg,
    )
    .expect("server start")
}

/// Per-shard counters flow through the `stats` endpoint, and a wire query
/// against the sharded backend reports its scatter-gather profile.
#[test]
fn sharded_stats_and_answers_over_the_wire() {
    let handle = sharded_server(40, 11, 3);
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

    let stats = client.stats().expect("stats");
    let ds = &stats.datasets[0];
    assert_eq!(ds.shards.len(), 3, "stats must list one entry per shard");
    assert!(
        ds.index_source.starts_with("sharded x3"),
        "{}",
        ds.index_source
    );
    assert!(!ds.cache_enabled, "sharded datasets bypass the caches");
    let total_live: usize = ds.shards.iter().map(|s| s.live).sum();
    assert_eq!(total_live, 40);
    for s in &ds.shards {
        assert_eq!(s.epoch, 0, "fresh build starts at epoch 0 per shard");
    }

    let open = client.open("d", 0.75).expect("open");
    let answer = match client.run(open.session, 4.0, 5, None).expect("run") {
        Response::Answer(a) => a,
        other => panic!("expected Answer, got {other:?}"),
    };
    assert_eq!(answer.shard_count, 3);
    assert!(answer.picks >= 1);
    assert_eq!(
        answer.picks * 3,
        answer.shards_pruned + answer.shards_touched,
        "every pick accounts for every shard exactly once"
    );
    client.close(open.session).expect("close");
    client.shutdown().expect("shutdown");
    handle.wait();
}

/// The sharded and single-index servers produce byte-identical answer
/// fingerprints for the same dataset and `(θ, k)` grid.
#[test]
fn sharded_server_matches_single_index_server() {
    let make_data = || DatasetSpec::new(DatasetKind::DudLike, 36, 29).generate();

    let mut single_reg = DatasetRegistry::new();
    single_reg.insert(load_in_memory("d", make_data()));
    let single = start(
        ServeConfig {
            workers: 2,
            ..Default::default()
        },
        single_reg,
    )
    .expect("single server");
    let sharded = sharded_server(36, 29, 4);

    let mut sc = Client::connect(&single.addr().to_string()).expect("connect single");
    let mut hc = Client::connect(&sharded.addr().to_string()).expect("connect sharded");
    let so = sc.open("d", 0.75).expect("open single");
    let ho = hc.open("d", 0.75).expect("open sharded");
    for theta in [3.0, 4.0, 5.0] {
        for k in [2usize, 5] {
            let a = match sc.run(so.session, theta, k, None).expect("single run") {
                Response::Answer(a) => a,
                other => panic!("single: {other:?}"),
            };
            let b = match hc.run(ho.session, theta, k, None).expect("sharded run") {
                Response::Answer(b) => b,
                other => panic!("sharded: {other:?}"),
            };
            assert_eq!(
                a.fingerprint(),
                b.fingerprint(),
                "θ={theta} k={k}: sharded answer must be byte-identical"
            );
        }
    }
    sc.shutdown().expect("shutdown single");
    hc.shutdown().expect("shutdown sharded");
    single.wait();
    sharded.wait();
}

/// A ~0 deadline aborts the scatter-gather run with `deadline_exceeded` —
/// sharded sessions poll the same admission-time token as the single-index
/// path — and the session survives: its next run still answers.
#[test]
fn sharded_zero_deadline_aborts_but_session_survives() {
    let handle = sharded_server(40, 11, 3);
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

    let open = client.open("d", 0.75).expect("open");
    let resp = client
        .run(open.session, 4.0, 5, Some(0))
        .expect("transport");
    assert_eq!(
        resp.error_code(),
        Some(graphrep_serve::codes::DEADLINE_EXCEEDED),
        "{resp:?}"
    );

    // The aborted session answers normally afterwards, identically to a
    // fresh session over the same (unmutated) epoch vector.
    let after = match client.run(open.session, 4.0, 5, None).expect("rerun") {
        Response::Answer(a) => a,
        other => panic!("expected Answer, got {other:?}"),
    };
    let fresh_open = client.open("d", 0.75).expect("open fresh");
    let fresh = match client
        .run(fresh_open.session, 4.0, 5, None)
        .expect("fresh run")
    {
        Response::Answer(a) => a,
        other => panic!("expected Answer, got {other:?}"),
    };
    assert_eq!(
        after.fingerprint(),
        fresh.fingerprint(),
        "session corrupted by the abort"
    );

    let stats = client.stats().expect("stats");
    let run = stats
        .endpoints
        .iter()
        .find(|e| e.endpoint == "run")
        .expect("run endpoint row");
    assert_eq!(run.deadline_exceeded, 1, "{run:?}");
    assert_eq!(run.ok, 2, "{run:?}");
    client.shutdown().expect("shutdown");
    handle.wait();
}

/// Wire mutations against a sharded dataset route to one owning shard:
/// the receipt's epoch vector moves in exactly one slot per operation.
#[test]
fn sharded_wire_mutations_bump_one_epoch_slot() {
    let handle = sharded_server(30, 7, 3);
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

    // Same spec as the server's dataset, regenerated to learn the feature
    // dimensionality the insert must match.
    let dims = DatasetSpec::new(DatasetKind::DudLike, 30, 7)
        .generate()
        .db
        .dims();
    let before = [0u64; 3];
    let r1 = client
        .insert(
            "d",
            vec![0, 1, 1],
            vec![(0, 1, 0), (1, 2, 1)],
            vec![0.5; dims],
        )
        .expect("insert");
    assert_eq!(r1.id, 30);
    assert_eq!(r1.shard_epochs.len(), 3);
    let moved: Vec<usize> = (0..3)
        .filter(|&i| r1.shard_epochs[i] != before[i])
        .collect();
    assert_eq!(moved.len(), 1, "exactly one shard epoch moves per insert");
    assert_eq!(r1.shard_epochs[moved[0]], 1);

    let r2 = client.remove("d", 4).expect("remove");
    let moved2: Vec<usize> = (0..3)
        .filter(|&i| r2.shard_epochs[i] != r1.shard_epochs[i])
        .collect();
    assert_eq!(moved2.len(), 1, "exactly one shard epoch moves per remove");

    client.shutdown().expect("shutdown");
    handle.wait();
}
