//! Registry-level persistence of mutations: a dir-backed dataset re-persists
//! after every insert/remove (epoch sidecar first), a clean reopen warm-loads
//! the mutated index at the recorded epoch, and a sidecar/index mismatch is
//! detected and answered with a rebuild — never a silently stale snapshot.
//! Persistence is best-effort, but a failed write is counted, not swallowed.

use graphrep_datagen::{store, DatasetKind, DatasetSpec};
use graphrep_graph::generate::mutate;
use graphrep_serve::registry::{load_in_memory, LoadedDataset};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::PathBuf;

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

    assert_eq!(
        std::fs::read_to_string(dir.join("epoch.txt"))
            .expect("sidecar")
            .trim(),
        "2"
    );

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

    // Tamper with the sidecar: the persisted index no longer matches the
    // recorded epoch, so the open must fall back to a rebuild instead of
    // serving the (now unverifiable) snapshot.
    std::fs::write(dir.join("epoch.txt"), "7\n").expect("tamper");
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
/// directory (only `index.json` on disk, here a perfectly loadable one) is
/// never read — the open rebuilds once, writes `index.bin`, and the next
/// open warm-loads that.
#[test]
fn json_era_directory_is_rebuilt_once_into_binary() {
    let dir = tmpdir("jsonmig");
    let data = DatasetSpec::new(DatasetKind::DudLike, 20, 515).generate();
    store::save(&data, &dir).expect("save dataset");
    let json = load_in_memory("d", data).index_arc().save_json();
    std::fs::write(dir.join("index.json"), json).expect("write json");

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
