//! Collaboration groups (paper Table 1, Example 4): the most knowledgeable
//! *non-overlapping* groups in a DBLP-style network.
//!
//! Each graph is a 2-hop ego-net labeled by community; a traditional top-k
//! returns heavily overlapping neighborhoods of the same hot community,
//! while the representative query returns groups spread across the network.
//!
//! ```sh
//! cargo run --release --example collaboration_groups
//! ```

use graphrep::baselines::traditional_topk;
use graphrep::core::{NbIndex, NbIndexConfig};
use graphrep::datagen::{DatasetKind, DatasetSpec};
use graphrep::ged::GedConfig;

fn main() {
    let data = DatasetSpec::new(DatasetKind::DblpLike, 500, 55).generate();
    let query = data.default_query();
    let relevant = query.relevant_set(&data.db);
    println!(
        "{} collaboration groups, {} in the top activity quartile",
        data.db.len(),
        relevant.len()
    );

    let oracle = data.db.oracle(GedConfig::default());
    let index = NbIndex::build(
        oracle.clone(),
        NbIndexConfig {
            num_vps: 12,
            ladder: data.default_ladder.clone(),
            ..NbIndexConfig::default()
        },
    );

    let k = 6;
    let theta = data.default_theta;
    let trad = traditional_topk(&data.db, &query, k);
    let (rep, _) = index.query(relevant, theta, k);

    // Structural overlap inside each answer set: count pairs closer than θ.
    let overlapping_pairs = |ids: &[u32]| {
        let mut c = 0;
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                if oracle.ask(a, b, theta).0 {
                    c += 1;
                }
            }
        }
        c
    };

    println!("\ntraditional top-{k} groups: {trad:?}");
    println!(
        "  pairs within θ of each other: {}",
        overlapping_pairs(&trad)
    );
    println!("\nrepresentative top-{k} groups: {:?}", rep.ids);
    println!(
        "  pairs within θ of each other: {}",
        overlapping_pairs(&rep.ids)
    );
    println!(
        "  coverage of active groups: {:.0}% (π = {:.3}), compression ratio {:.1}",
        100.0 * rep.pi(),
        rep.pi(),
        rep.compression_ratio()
    );
    for &g in &rep.ids {
        let graph = data.db.graph(g);
        println!(
            "  group {g:>4}: {} members, {} ties, activity {:.3}",
            graph.node_count(),
            graph.edge_count(),
            query.score(&data.db, g)
        );
    }
}
