//! Mutation routing and restart consistency (DESIGN.md §14): a mutation
//! must land on exactly one shard (only that shard's epoch moves), receipts
//! must carry the full epoch vector, and a coordinator restarted from
//! persisted shard manifests must answer byte-identically at the recorded
//! epochs. A torn manifest — truncated before its `end` terminator, the
//! same discipline as the serve layer's epoch check — must be detected and
//! answered with a rebuild fallback, never silently served.

use graphrep_core::{NbIndex, NbIndexConfig};
use graphrep_datagen::{Dataset, DatasetKind, DatasetSpec};
use graphrep_ged::GedConfig;
use graphrep_graph::generate::mutate;
use graphrep_shard::{CoordConfig, CoordError, Coordinator, ManifestError, RestoreSource};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

fn dataset() -> Dataset {
    DatasetSpec::new(DatasetKind::DudLike, 26, 17).generate()
}

fn config(shards: usize, ladder: &[f64]) -> CoordConfig {
    CoordConfig {
        shards,
        seed: 0xC0FFEE,
        ladder: ladder.to_vec(),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("graphrep-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Inserts and removes bump exactly the owning shard's epoch; every receipt
/// carries the full epoch vector.
#[test]
fn mutations_route_to_owning_shard_only() {
    let data = dataset();
    let coord = Coordinator::build(
        &data.db,
        GedConfig::default(),
        &config(4, &data.default_ladder),
    );
    let mut rng = SmallRng::seed_from_u64(99);
    let mut before = coord.epochs();
    assert_eq!(before, vec![0, 0, 0, 0]);
    for i in 0..6 {
        let src = rng.gen_range(0..data.db.len());
        let g = mutate(
            &mut rng,
            data.db.graph(src as u32),
            1 + i % 3,
            &[0, 1],
            &[0],
        );
        let receipt = coord.insert(g).expect("insert");
        assert_eq!(receipt.epochs.len(), 4, "receipt carries the full vector");
        assert_eq!(receipt.epochs, coord.epochs());
        for (s, (&e0, &e1)) in before.iter().zip(&receipt.epochs).enumerate() {
            if s == receipt.shard {
                assert_eq!(e1, e0 + 1, "owning shard {s} bumps once");
            } else {
                assert_eq!(e1, e0, "shard {s} must not move for a foreign insert");
            }
        }
        before = receipt.epochs;
    }
    // Removals route by ownership lookup, not geometry.
    let receipt = coord.remove(3).expect("remove");
    for (s, (&e0, &e1)) in before.iter().zip(&receipt.epochs).enumerate() {
        let expect = if s == receipt.shard { e0 + 1 } else { e0 };
        assert_eq!(e1, expect);
    }
    assert!(coord.remove(10_000).is_err(), "unowned id is rejected");
}

/// Round trip through `save`/`load`: the restarted coordinator sits at the
/// recorded epoch vector and answers byte-identically — and both agree with
/// the single-index reference over the same live state.
#[test]
fn restart_from_manifest_answers_identically() {
    let data = dataset();
    let coord = Coordinator::build(
        &data.db,
        GedConfig::default(),
        &config(3, &data.default_ladder),
    );
    let mut rng = SmallRng::seed_from_u64(4242);
    let mut reference = NbIndex::build(
        data.db.oracle(GedConfig::default()),
        NbIndexConfig {
            num_vps: 4,
            ladder: data.default_ladder.clone(),
            ..Default::default()
        },
    );
    let mut live: Vec<u32> = (0..data.db.len() as u32).collect();
    for i in 0..4 {
        let g = mutate(&mut rng, data.db.graph(i), 2, &[0, 1], &[0]);
        let receipt = coord.insert(g.clone()).expect("insert");
        let (id, _) = reference.insert(g).expect("reference insert");
        assert_eq!(receipt.id, id);
        live.push(id);
    }
    coord.remove(live[1]).expect("remove");
    reference.remove(live[1]).expect("reference remove");
    live.remove(1);

    let dir = temp_dir("restart");
    coord.save(&dir).expect("save");
    let restored = Coordinator::load(&dir, GedConfig::default()).expect("load");
    assert_eq!(restored.epochs(), coord.epochs(), "recorded epoch vector");
    assert_eq!(restored.live_len(), coord.live_len());

    let theta = data.default_theta;
    for k in [1, 3, 6] {
        let (want, _) = reference.start_session(live.clone()).run(theta, k);
        let (before, _) = coord.session(live.clone()).run(theta, k);
        let (after, _) = restored.session(live.clone()).run(theta, k);
        assert_eq!(format!("{before:?}"), format!("{want:?}"));
        assert_eq!(
            format!("{after:?}"),
            format!("{want:?}"),
            "restart must not change any answer at k = {k}"
        );
    }
    // A post-restart mutation continues the id sequence where it left off.
    let g = mutate(&mut rng, data.db.graph(0), 1, &[0, 1], &[0]);
    let receipt = restored.insert(g.clone()).expect("insert after restart");
    let (id, _) = reference.insert(g).expect("reference insert");
    assert_eq!(receipt.id, id);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A manifest truncated before its `end` terminator is detected as torn;
/// `open_or_rebuild` falls back to a fresh build and re-persists it.
#[test]
fn torn_manifest_is_detected_and_rebuilt() {
    let data = dataset();
    let cfg = config(3, &data.default_ladder);
    let coord = Coordinator::build(&data.db, GedConfig::default(), &cfg);
    let dir = temp_dir("torn");
    coord.save(&dir).expect("save");

    // Tear the manifest: drop its tail, terminator included.
    let path = dir.join("manifest.txt");
    let full = std::fs::read_to_string(&path).expect("read manifest");
    std::fs::write(&path, &full[..full.len() * 2 / 3]).expect("tear manifest");
    match Coordinator::load(&dir, GedConfig::default()) {
        Err(CoordError::Manifest(ManifestError::Torn(_) | ManifestError::Format(_))) => {}
        other => panic!("torn manifest must be detected, got {other:?}"),
    }

    let (rebuilt, source) =
        Coordinator::open_or_rebuild(&dir, &data.db, GedConfig::default(), &cfg)
            .expect("fallback rebuild");
    assert!(
        matches!(source, RestoreSource::Rebuilt(_)),
        "fallback must report the rebuild"
    );
    assert_eq!(rebuilt.epochs(), vec![0, 0, 0]);
    assert_eq!(rebuilt.live_len(), data.db.len());

    // The rebuild re-persisted a clean manifest: the next open loads it.
    let (reloaded, source) =
        Coordinator::open_or_rebuild(&dir, &data.db, GedConfig::default(), &cfg)
            .expect("reload after repair");
    assert_eq!(source, RestoreSource::Loaded);
    let relevant = data.default_query().relevant_set(&data.db);
    let (a, _) = rebuilt.session(relevant.clone()).run(data.default_theta, 4);
    let (b, _) = reloaded.session(relevant).run(data.default_theta, 4);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A missing shard payload (deleted `index.bin`) is a load error even with
/// an intact manifest — the manifest is the commit record, the payloads are
/// its referents.
#[test]
fn missing_shard_payload_fails_load() {
    let data = dataset();
    let cfg = config(2, &data.default_ladder);
    let coord = Coordinator::build(&data.db, GedConfig::default(), &cfg);
    let dir = temp_dir("missing");
    coord.save(&dir).expect("save");
    std::fs::remove_file(dir.join("shard1").join("index.bin")).expect("drop payload");
    assert!(matches!(
        Coordinator::load(&dir, GedConfig::default()),
        Err(CoordError::Shard(1, _))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}
