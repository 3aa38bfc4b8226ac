//! Registry-level persistence of mutations: a dir-backed dataset appends one
//! checksummed record per insert/remove to `mutations.log` and replaces
//! `index.bin`, a clean reopen warm-loads the mutated index at the log's
//! epoch, and every mismatch between the two — a torn or corrupt record, a
//! crash between the append and the rename, a damaged index — is detected
//! and answered by replaying the log, never a silently stale snapshot.
//! Persistence is best-effort, but a failed write is counted, not swallowed.

use graphrep_datagen::store::{self, LogRecord};
use graphrep_datagen::{Dataset, DatasetKind, DatasetSpec};
use graphrep_graph::generate::mutate;
use graphrep_graph::GraphBuilder;
use graphrep_serve::registry::{load_in_memory, LoadedDataset, ShardedDataset, EXTERNAL_FAMILY};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("graphrep-mutpersist-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

#[test]
fn mutations_persist_and_reopen_at_the_recorded_epoch() {
    let dir = tmpdir("rt");
    let data = DatasetSpec::new(DatasetKind::DudLike, 24, 4242).generate();
    let theta = data.default_theta;
    store::save(&data, &dir).expect("save dataset");

    // First open: cold build, persisted for the next start.
    let ds = LoadedDataset::open("d", &dir, true).expect("open");
    assert_eq!(ds.index_source(), "built");

    // One insert + one remove, both re-persisted with their epoch.
    let mut rng = SmallRng::seed_from_u64(5);
    let g = mutate(&mut rng, data.db.graph(0), 2, &[0, 1], &[0]);
    let r1 = ds
        .insert_graph(g, data.db.features(0).to_vec())
        .expect("insert");
    assert_eq!((r1.id, r1.epoch), (24, 1));
    let r2 = ds.remove_graph(2).expect("remove");
    assert_eq!(r2.epoch, 2);
    assert_eq!((r2.live, r2.tombstones), (24, 1));
    assert_eq!(ds.stats().persist_errors, 0, "happy path persists cleanly");
    let want = format!(
        "{:?}",
        ds.index_arc().query(ds.relevant_for(0.75), theta, 3).0
    );
    drop(ds);

    assert_eq!(store::load_logged(&dir).expect("log").records.len(), 2);

    // Clean reopen: warm load at epoch 2 with liveness intact, answering
    // byte-identically to the pre-restart index.
    let ds = LoadedDataset::open("d", &dir, false).expect("reopen");
    assert_eq!(ds.index_source(), "loaded");
    let index = ds.index_arc();
    assert_eq!(index.epoch(), 2);
    assert_eq!(index.tree().len(), 25);
    assert_eq!(index.tree().live_len(), 24);
    assert!(!index.tree().is_live(2));
    let got = format!("{:?}", index.query(ds.relevant_for(0.75), theta, 3).0);
    assert_eq!(got, want);
    drop(ds);

    // Tamper with the log: the persisted index no longer matches the
    // logged epoch, so the open must fall back to a rebuild instead of
    // serving the (now unverifiable) snapshot.
    store::append(&dir, &LogRecord::Remove { id: 5 }).expect("tamper");
    let ds = LoadedDataset::open("d", &dir, false).expect("reopen after tamper");
    assert!(
        ds.index_source().contains("stale"),
        "expected a stale-fallback source, got {:?}",
        ds.index_source()
    );
    let _ = ds.index_arc().query(ds.relevant_for(0.75), theta, 3);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-persisting is best-effort — a mutation whose backing directory has
/// vanished still applies and the dataset keeps serving — but every failed
/// write is counted into `persist_errors` instead of being swallowed.
#[test]
fn failed_persistence_is_counted_and_serving_continues() {
    let dir = tmpdir("gone");
    let data = DatasetSpec::new(DatasetKind::DudLike, 16, 77).generate();
    store::save(&data, &dir).expect("save dataset");
    let ds = LoadedDataset::open("d", &dir, true).expect("open");
    assert_eq!(ds.stats().persist_errors, 0);

    std::fs::remove_dir_all(&dir).expect("pull the directory out from under the dataset");
    let mut rng = SmallRng::seed_from_u64(9);
    let g = mutate(&mut rng, data.db.graph(0), 2, &[0, 1], &[0]);
    let r = ds
        .insert_graph(g, data.db.features(0).to_vec())
        .expect("the insert itself must still apply");
    assert_eq!((r.id, r.epoch), (16, 1));
    assert!(
        ds.stats().persist_errors > 0,
        "failed writes must be counted"
    );
    let _ = ds
        .index_arc()
        .query(ds.relevant_for(0.75), data.default_theta, 3);
}

/// The write-back of an index built at open is best-effort in the same way:
/// with a directory squatting on `index.bin` the file can be neither read nor
/// written, the open still serves a fresh build, and the failed write counts.
#[test]
fn failed_open_time_write_back_is_counted() {
    let dir = tmpdir("squat");
    let data = DatasetSpec::new(DatasetKind::DudLike, 16, 78).generate();
    store::save(&data, &dir).expect("save dataset");
    std::fs::create_dir(dir.join("index.bin")).expect("squat on index.bin");

    let ds = LoadedDataset::open("d", &dir, true).expect("open must still succeed");
    assert_eq!(ds.index_source(), "built");
    assert_eq!(ds.stats().persist_errors, 1);
    let _ = ds
        .index_arc()
        .query(ds.relevant_for(0.75), data.default_theta, 3);

    let _ = std::fs::remove_dir_all(&dir);
}

/// `stats` says how often the rebuild policy tripped: tombstoning 5 of 16
/// graphs crosses the default 0.3 ratio once, and the counter agrees with
/// the receipts.
#[test]
fn policy_rebuilds_are_counted_in_stats() {
    let data = DatasetSpec::new(DatasetKind::DudLike, 16, 79).generate();
    let ds = load_in_memory("d", data);
    assert_eq!(ds.stats().rebuilds, 0);
    let rebuilt = (0..6)
        .filter(|&id| ds.remove_graph(id).expect("remove").rebuilt)
        .count();
    assert_eq!(rebuilt, 1);
    assert_eq!(ds.stats().rebuilds, 1);
}

/// `index.bin` is the one index file the registry looks for: a JSON-era
/// directory (only `index.json` on disk) is never read — the open rebuilds
/// once, writes `index.bin`, and the next open warm-loads that.
#[test]
fn json_era_directory_is_rebuilt_once_into_binary() {
    let dir = tmpdir("jsonmig");
    let data = DatasetSpec::new(DatasetKind::DudLike, 20, 515).generate();
    store::save(&data, &dir).expect("save dataset");
    std::fs::write(dir.join("index.json"), b"{\"version\":2,\"graphs\":20}").expect("write json");

    let ds = LoadedDataset::open("d", &dir, true).expect("json-era open");
    assert_eq!(ds.index_source(), "built", "index.json must not be read");
    assert_eq!(ds.stats().persist_errors, 0);
    drop(ds);
    assert!(
        dir.join("index.bin").exists(),
        "the rebuild must write index.bin"
    );

    let ds = LoadedDataset::open("d", &dir, false).expect("reopen");
    assert_eq!(ds.index_source(), "loaded");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt `index.bin` is answered by a rebuild whose provenance names the
/// broken file — never a crash or a wrong index.
#[test]
fn corrupt_binary_index_rebuilds_with_provenance() {
    let dir = tmpdir("binrot");
    let data = DatasetSpec::new(DatasetKind::DudLike, 16, 516).generate();
    store::save(&data, &dir).expect("save dataset");

    let ds = LoadedDataset::open("d", &dir, true).expect("first open");
    drop(ds);
    let bin = std::fs::read(dir.join("index.bin")).expect("read bin");
    std::fs::write(dir.join("index.bin"), &bin[..bin.len() / 2]).expect("truncate");

    let ds = LoadedDataset::open("d", &dir, false).expect("open over corrupt bin");
    let source = ds.index_source();
    assert!(
        source.contains("built") && source.contains("index.bin"),
        "expected a rebuild naming the corrupt file, got {source:?}"
    );
    let _ = ds
        .index_arc()
        .query(ds.relevant_for(0.75), data.default_theta, 3);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory whose base snapshot holds a graph too large for exact GED is
/// refused at open by both dataset kinds, with an error naming the graph,
/// instead of a panic in the middle of the build.
#[test]
fn oversized_base_graph_is_an_open_error() {
    let dir = tmpdir("oversized");
    let mut data = DatasetSpec::new(DatasetKind::DudLike, 12, 517).generate();
    let n = graphrep_ged::MAX_EXACT_NODES + 1;
    let mut path = GraphBuilder::new();
    for _ in 0..n {
        path.add_node(0);
    }
    for v in 1..n as u16 {
        path.add_edge(v - 1, v, 0).expect("path edge");
    }
    let features = data.db.features(0).to_vec();
    data.db = data.db.pushed(path.build(), features);
    data.family.push(EXTERNAL_FAMILY);
    store::save(&data, &dir).expect("save dataset");

    let errors = [
        LoadedDataset::open("d", &dir, true).err(),
        ShardedDataset::open("d", &dir, 2).err(),
    ];
    for e in errors {
        let e = e.expect("open must refuse the directory");
        assert!(
            e.message.contains("graph 12") && e.message.contains(&format!("{n} nodes")),
            "{e}"
        );
    }
    assert!(!dir.join("index.bin").exists(), "nothing was built");

    let _ = std::fs::remove_dir_all(&dir);
}

/// An `index.bin` of format version 2 is never served: releases that wrote
/// it could also build it under non-default parameters or hybrid distances,
/// and such a file cannot be told apart from a default build. The open
/// rebuilds with the version named, leaves a version-3 file behind, and the
/// next open warm-loads that.
#[test]
fn version_2_index_is_rebuilt_once_into_version_3() {
    let dir = tmpdir("v2purge");
    let data = DatasetSpec::new(DatasetKind::DudLike, 16, 517).generate();
    store::save(&data, &dir).expect("save dataset");
    drop(LoadedDataset::open("d", &dir, true).expect("first open"));
    let version = |dir: &Path| {
        let bin = std::fs::read(dir.join("index.bin")).expect("read bin");
        u32::from_le_bytes([bin[8], bin[9], bin[10], bin[11]])
    };
    assert_eq!(version(&dir), 3);
    let mut bin = std::fs::read(dir.join("index.bin")).expect("read bin");
    bin[8..12].copy_from_slice(&2u32.to_le_bytes());
    std::fs::write(dir.join("index.bin"), &bin).expect("write version 2");

    let ds = LoadedDataset::open("d", &dir, true).expect("open over version 2");
    assert_eq!(
        ds.index_source(),
        "built (stale index on disk: index.bin: unsupported index version 2)"
    );
    assert_eq!(ds.stats().persist_errors, 0);
    drop(ds);
    assert_eq!(version(&dir), 3, "the rebuild must write a version-3 file");
    let ds = LoadedDataset::open("d", &dir, false).expect("reopen");
    assert_eq!(ds.index_source(), "loaded");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The answers a dataset gives at a few `(θ, k)` points, as one string.
fn answers(ds: &LoadedDataset, theta: f64) -> String {
    let index = ds.index_arc();
    [(theta, 3), (theta * 1.5, 5), (theta * 0.7, 8)]
        .iter()
        .map(|&(t, k)| format!("{:?}\n", index.query(ds.relevant_for(0.75), t, k).0))
        .collect()
}

/// Applies `records` to `base` in memory — the offline replay every reopen
/// must answer like.
fn replayed(base: Dataset, records: &[LogRecord]) -> LoadedDataset {
    let ds = load_in_memory("replay", base);
    for r in records {
        match r {
            LogRecord::Insert {
                graph, features, ..
            } => ds.insert_graph(graph.clone(), features.clone()).map(|_| ()),
            LogRecord::Remove { id } => ds.remove_graph(*id).map(|_| ()),
        }
        .expect("replayed mutation applies");
    }
    ds
}

/// What the directory held just before the last mutation of a script.
struct BeforeLast {
    index_bin: Vec<u8>,
    log_len: usize,
}

/// A dataset directory with a built `index.bin` and the mutation script
/// insert → remove 2 → insert applied through a dir-backed registry entry.
/// Returns the base, the applied records, and what the directory held
/// before the last mutation.
fn mutated_dir(dir: &Path, seed: u64) -> (Dataset, Vec<LogRecord>, BeforeLast) {
    let base = DatasetSpec::new(DatasetKind::DudLike, 16, seed).generate();
    store::save(&base, dir).expect("save dataset");
    let ds = LoadedDataset::open("d", dir, true).expect("open");
    let mut rng = SmallRng::seed_from_u64(seed);
    let g1 = mutate(&mut rng, base.db.graph(0), 2, &[0, 1], &[0]);
    let g2 = mutate(&mut rng, base.db.graph(5), 1, &[0, 1], &[0]);
    ds.insert_graph(g1, base.db.features(0).to_vec())
        .expect("insert");
    ds.remove_graph(2).expect("remove");
    let before_last = BeforeLast {
        index_bin: std::fs::read(dir.join("index.bin")).expect("index.bin"),
        log_len: std::fs::read(dir.join("mutations.log")).expect("log").len(),
    };
    ds.insert_graph(g2, base.db.features(5).to_vec())
        .expect("insert");
    assert_eq!(ds.stats().persist_errors, 0);
    let records = store::load_logged(dir).expect("log").records;
    assert_eq!(records.len(), 3);
    (base, records, before_last)
}

/// The rebuild fallback replays removes too: with `index.bin` damaged after
/// an insert and a remove, the reopened dataset must not bring the removed
/// graph back, and it answers like the offline replay at the log's epoch.
#[test]
fn rebuild_fallback_keeps_removed_graphs_removed() {
    let dir = tmpdir("resurrect");
    let (base, records, _) = mutated_dir(&dir, 601);
    let theta = base.default_theta;
    let bin = std::fs::read(dir.join("index.bin")).expect("read bin");
    std::fs::write(dir.join("index.bin"), &bin[..bin.len() / 2]).expect("truncate");

    let ds = LoadedDataset::open("d", &dir, false).expect("reopen");
    assert!(ds.index_source().contains("stale"), "{}", ds.index_source());
    let index = ds.index_arc();
    assert!(!index.tree().is_live(2), "the removed graph came back");
    assert_eq!((index.epoch(), index.tree().len()), (3, 18));
    assert_eq!(
        answers(&ds, theta),
        answers(&replayed(base, &records), theta)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn or corrupt last record ends the log: cut at every byte offset, or
/// with any one of its bytes flipped, the reopen answers like the offline
/// replay of exactly the intact records. The torn tail is cut off, so a
/// mutation made after the reopen is not lost behind it.
#[test]
fn torn_or_corrupt_last_record_replays_the_intact_prefix() {
    let dir = tmpdir("torn");
    let (base, records, before_last) = mutated_dir(&dir, 602);
    let theta = base.default_theta;
    let log = std::fs::read(dir.join("mutations.log")).expect("log");
    let bin = std::fs::read(dir.join("index.bin")).expect("bin");
    let intact = before_last.log_len;
    let want = answers(&replayed(base, &records[..2]), theta);

    let mut damaged: Vec<Vec<u8>> = (intact..log.len()).map(|cut| log[..cut].to_vec()).collect();
    damaged.extend((intact..log.len()).map(|at| {
        let mut bad = log.clone();
        bad[at] ^= 0x04;
        bad
    }));
    for (i, bytes) in damaged.iter().enumerate() {
        std::fs::write(dir.join("mutations.log"), bytes).expect("damage");
        std::fs::write(dir.join("index.bin"), &bin).expect("restore bin");
        let ds = LoadedDataset::open("d", &dir, false).expect("reopen");
        assert!(ds.index_source().contains("stale"), "case {i}");
        assert_eq!(ds.index_arc().epoch(), 2, "case {i}");
        assert_eq!(answers(&ds, theta), want, "case {i}");
        assert_eq!(ds.stats().persist_errors, 0, "case {i}");
        assert_eq!(
            std::fs::metadata(dir.join("mutations.log"))
                .expect("log")
                .len() as usize,
            intact,
            "case {i}: the damaged tail must be cut off"
        );
    }

    // After the cut, a new mutation is the log's third record.
    let ds = LoadedDataset::open("d", &dir, false).expect("reopen");
    ds.remove_graph(7).expect("remove");
    drop(ds);
    let ds = LoadedDataset::open("d", &dir, false).expect("reopen");
    assert_eq!(ds.index_source(), "loaded");
    assert_eq!(ds.index_arc().epoch(), 3);
    assert!(!ds.index_arc().tree().is_live(7));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash between the append and the rename leaves the previous
/// `index.bin` beside a log one record longer: the reopen must notice and
/// answer with every record applied.
#[test]
fn crash_between_append_and_rename_replays_every_record() {
    let dir = tmpdir("crash");
    let (base, records, before_last) = mutated_dir(&dir, 603);
    let theta = base.default_theta;
    let want = answers(&replayed(base, &records), theta);
    let ds = LoadedDataset::open("d", &dir, false).expect("clean reopen");
    assert_eq!(ds.index_source(), "loaded");
    assert_eq!(answers(&ds, theta), want);
    drop(ds);

    std::fs::write(dir.join("index.bin"), before_last.index_bin).expect("put back");
    let ds = LoadedDataset::open("d", &dir, true).expect("reopen");
    assert!(ds.index_source().contains("stale"), "{}", ds.index_source());
    assert_eq!(ds.index_arc().epoch(), 3);
    assert_eq!(answers(&ds, theta), want);
    drop(ds);
    let ds = LoadedDataset::open("d", &dir, false).expect("warm reopen");
    assert_eq!(ds.index_source(), "loaded", "the rebuild was written back");
    assert_eq!(answers(&ds, theta), want);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file in `dir`, by name.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("read dir")
        .flatten()
        .filter(|e| e.path().is_file())
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).expect("read file"))
        })
        .collect()
}

/// A mutation writes what it changed: an insert leaves the three base files
/// byte-identical, and a remove changes only `mutations.log` and `index.bin`.
#[test]
fn mutations_write_only_the_log_and_the_index() {
    let dir = tmpdir("written");
    let data = DatasetSpec::new(DatasetKind::DudLike, 16, 604).generate();
    store::save(&data, &dir).expect("save dataset");
    let ds = LoadedDataset::open("d", &dir, true).expect("open");

    let before = files(&dir);
    let mut rng = SmallRng::seed_from_u64(4);
    let g = mutate(&mut rng, data.db.graph(3), 2, &[0, 1], &[0]);
    ds.insert_graph(g, data.db.features(3).to_vec())
        .expect("insert");
    let after = files(&dir);
    for f in ["graphs.txt", "features.csv", "meta.json"] {
        assert_eq!(after[f], before[f], "{f} was rewritten by an insert");
    }

    ds.remove_graph(1).expect("remove");
    let removed = files(&dir);
    let changed: Vec<&str> = removed
        .iter()
        .filter(|(name, bytes)| after.get(*name) != Some(*bytes))
        .map(|(name, _)| name.as_str())
        .collect();
    assert_eq!(changed, ["index.bin", "mutations.log"]);
    assert_eq!(removed.len(), after.len(), "no file appeared or vanished");
    assert_eq!(ds.stats().persist_errors, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory in the previous layout — the whole store rewritten after
/// each mutation, an `epoch.txt` sidecar, no log — opens `stale` (its
/// `index.bin` sits at an epoch the empty log does not reach) and rebuilds
/// once: the write-back is loaded by the next open.
#[test]
fn sidecar_era_directory_is_rebuilt_once() {
    let dir = tmpdir("sidecar");
    let spec = DatasetSpec::new(DatasetKind::DudLike, 16, 605);
    let data = spec.generate();
    let mut rng = SmallRng::seed_from_u64(6);
    let g = mutate(&mut rng, data.db.graph(0), 2, &[0, 1], &[0]);
    let row = data.db.features(0).to_vec();
    let ds = load_in_memory("d", spec.generate());
    ds.insert_graph(g.clone(), row.clone()).expect("insert");
    ds.remove_graph(4).expect("remove");
    let mutated = Dataset {
        db: data.db.pushed(g, row),
        family: [&data.family[..], &[EXTERNAL_FAMILY]].concat(),
        ..data
    };
    store::save(&mutated, &dir).expect("save store");
    std::fs::write(dir.join("epoch.txt"), "2\n").expect("sidecar");
    std::fs::write(dir.join("index.bin"), ds.index_arc().save_bin()).expect("index");

    let ds = LoadedDataset::open("d", &dir, true).expect("sidecar-era open");
    assert!(ds.index_source().contains("stale"), "{}", ds.index_source());
    assert_eq!(ds.stats().persist_errors, 0);
    drop(ds);
    let ds = LoadedDataset::open("d", &dir, false).expect("reopen");
    assert_eq!(ds.index_source(), "loaded");
    assert_eq!(ds.index_arc().tree().len(), 17);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The answers a sharded dataset gives at the points [`answers`] uses.
fn sharded_answers(ds: &ShardedDataset, theta: f64) -> String {
    let session = ds.open_session(0.75);
    [(theta, 3), (theta * 1.5, 5), (theta * 0.7, 8)]
        .iter()
        .map(|&(t, k)| format!("{:?}\n", session.run(t, k).0))
        .collect()
}

/// The per-shard epoch vector of a sharded dataset.
fn epochs(ds: &ShardedDataset) -> Vec<u64> {
    ds.stats().shards.iter().map(|s| s.epoch).collect()
}

/// A graph the default query picks first: removing it changes answers.
fn first_pick(ds: &LoadedDataset, theta: f64) -> u32 {
    ds.index_arc().query(ds.relevant_for(0.75), theta, 3).0.ids[0]
}

/// A sharded dataset persists through the log alone: after an insert and a
/// remove, a reopen at a *different* shard count keeps the removed graph
/// removed and answers byte-identically to a single index on the same
/// directory.
#[test]
fn sharded_mutations_reopen_at_any_shard_count() {
    let dir = tmpdir("shardlog");
    let data = DatasetSpec::new(DatasetKind::DudLike, 24, 606).generate();
    let theta = data.default_theta;
    store::save(&data, &dir).expect("save dataset");
    let spec = DatasetSpec::new(DatasetKind::DudLike, 24, 606);
    let victim = first_pick(&load_in_memory("d", spec.generate()), theta);

    let ds = ShardedDataset::open("d", &dir, 4).expect("open");
    let mut rng = SmallRng::seed_from_u64(6);
    let g = mutate(&mut rng, data.db.graph(0), 2, &[0, 1], &[0]);
    let r = ds
        .insert_graph(g, data.db.features(0).to_vec())
        .expect("insert");
    assert_eq!(r.id, 24);
    ds.remove_graph(victim).expect("remove");
    assert_eq!(ds.stats().persist_errors, 0);
    drop(ds);
    assert_eq!(store::load_logged(&dir).expect("log").records.len(), 2);

    let reopened = ShardedDataset::open("d", &dir, 2).expect("reopen at S = 2");
    assert!(
        !reopened.open_session(0.75).relevant().contains(&victim),
        "the removed graph came back"
    );
    let single = LoadedDataset::open("d", &dir, false).expect("single-index open");
    assert!(!single.index_arc().tree().is_live(victim));
    assert_eq!(sharded_answers(&reopened, theta), answers(&single, theta));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Whatever `<dir>/shards/` holds — the layout an earlier version wrote
/// before the last mutations, garbage, or nothing — a sharded reopen serves
/// the log's state, and the next insert's id continues the log.
#[test]
fn sharded_reopen_serves_the_log_whatever_shards_dir_holds() {
    let dir = tmpdir("shardstale");
    let data = DatasetSpec::new(DatasetKind::DudLike, 20, 607).generate();
    let theta = data.default_theta;
    store::save(&data, &dir).expect("save dataset");
    let ds = ShardedDataset::open("d", &dir, 3).expect("open");
    // What the directory's shard layout held before the mutations, if
    // anything: restoring it simulates a crash after the log appends.
    let snapshot = tmpdir("shardstale-snapshot");
    let had_layout = copy_tree(&dir.join("shards"), &snapshot);
    let mut rng = SmallRng::seed_from_u64(7);
    let mut next_id = 20;
    let g = mutate(&mut rng, data.db.graph(1), 2, &[0, 1], &[0]);
    let r = ds
        .insert_graph(g, data.db.features(1).to_vec())
        .expect("insert");
    assert_eq!(r.id, next_id);
    next_id += 1;
    ds.remove_graph(4).expect("remove");
    drop(ds);

    for case in ["stale copy", "garbage", "nothing"] {
        let shards = dir.join("shards");
        let _ = std::fs::remove_dir_all(&shards);
        match case {
            "stale copy" if had_layout => {
                copy_tree(&snapshot, &shards);
            }
            "garbage" => {
                std::fs::create_dir_all(shards.join("shard0")).expect("mkdir");
                std::fs::write(shards.join("manifest.txt"), "not a manifest\n").expect("write");
                std::fs::write(shards.join("shard0").join("index.bin"), b"junk").expect("write");
            }
            _ => {}
        }
        let reopened = ShardedDataset::open("d", &dir, 3).expect(case);
        let single = LoadedDataset::open("d", &dir, false).expect(case);
        assert!(!single.index_arc().tree().is_live(4), "{case}");
        assert_eq!(
            sharded_answers(&reopened, theta),
            answers(&single, theta),
            "{case}"
        );
        let g = mutate(&mut rng, data.db.graph(2), 1, &[0, 1], &[0]);
        let r = reopened
            .insert_graph(g, data.db.features(2).to_vec())
            .expect(case);
        assert_eq!(r.id, next_id, "{case}: the insert id must continue the log");
        next_id += 1;
    }
    // Every insert above is in the log, at its id, and the directory opens.
    let logged = store::load_logged(&dir).expect("log stays consistent");
    assert_eq!(logged.data.db.len(), next_id as usize);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&snapshot);
}

/// Copies the tree under `src` into `dst`; false when `src` does not exist.
fn copy_tree(src: &Path, dst: &Path) -> bool {
    let Ok(entries) = std::fs::read_dir(src) else {
        return false;
    };
    std::fs::create_dir_all(dst).expect("mkdir");
    for e in entries.flatten() {
        let to = dst.join(e.file_name());
        if e.path().is_dir() {
            copy_tree(&e.path(), &to);
        } else {
            std::fs::copy(e.path(), to).expect("copy");
        }
    }
    true
}

/// A reopen at the same shard count restores the pre-restart epoch vector
/// and answers like before the restart; a torn last record is cut and the
/// vector is the one before that record; persistence failures are counted
/// as for a single index.
#[test]
fn sharded_restart_restores_epochs_and_cuts_a_torn_tail() {
    let dir = tmpdir("shardrestart");
    let data = DatasetSpec::new(DatasetKind::DudLike, 26, 608).generate();
    let theta = data.default_theta;
    store::save(&data, &dir).expect("save dataset");
    let ds = ShardedDataset::open("d", &dir, 3).expect("open");
    let mut rng = SmallRng::seed_from_u64(4242);
    for i in 0..4 {
        let g = mutate(&mut rng, data.db.graph(i), 2, &[0, 1], &[0]);
        ds.insert_graph(g, data.db.features(i).to_vec())
            .expect("insert");
    }
    let before_last = (
        epochs(&ds),
        sharded_answers(&ds, theta),
        std::fs::read(dir.join("mutations.log")).expect("log").len(),
    );
    let r = ds.remove_graph(27).expect("remove");
    let want = (epochs(&ds), sharded_answers(&ds, theta));
    assert_eq!(r.shard_epochs, want.0);
    drop(ds);

    let ds = ShardedDataset::open("d", &dir, 3).expect("reopen");
    assert_eq!(epochs(&ds), want.0, "the pre-restart epoch vector");
    assert_eq!(sharded_answers(&ds, theta), want.1);
    let single = LoadedDataset::open("d", &dir, false).expect("single");
    assert_eq!(want.1, answers(&single, theta));
    drop((ds, single));

    // Tear the last record: the reopen serves the state before it.
    let log = std::fs::read(dir.join("mutations.log")).expect("log");
    std::fs::write(dir.join("mutations.log"), &log[..log.len() - 3]).expect("tear");
    let ds = ShardedDataset::open("d", &dir, 3).expect("reopen torn");
    assert_eq!(epochs(&ds), before_last.0);
    assert_eq!(sharded_answers(&ds, theta), before_last.1);
    assert_eq!(ds.stats().persist_errors, 0);
    assert_eq!(
        std::fs::metadata(dir.join("mutations.log"))
            .expect("log")
            .len() as usize,
        before_last.2,
        "the torn tail must be cut off"
    );

    // A write that fails is counted, and the mutation still applies.
    std::fs::remove_dir_all(&dir).expect("pull the directory out");
    let g = mutate(&mut rng, data.db.graph(5), 1, &[0, 1], &[0]);
    let r = ds
        .insert_graph(g, data.db.features(5).to_vec())
        .expect("the insert itself must still apply");
    assert_eq!(r.id, 30);
    assert_eq!(ds.stats().persist_errors, 1);
}
