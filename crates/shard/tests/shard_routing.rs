//! Mutation routing (DESIGN.md §14): a mutation must land on exactly one
//! shard (only that shard's epoch moves), and receipts must carry the full
//! epoch vector. Restarts replay the dataset's mutation log through these
//! same routes; `graphrep-serve`'s `mutation_persistence` suite covers them.

use graphrep_datagen::{Dataset, DatasetKind, DatasetSpec};
use graphrep_ged::GedConfig;
use graphrep_graph::generate::mutate;
use graphrep_shard::{CoordConfig, Coordinator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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
