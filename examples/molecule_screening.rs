//! Molecule screening (paper Sec 8.4, Fig 7): traditional top-k vs top-k
//! representative on an AChE-style target.
//!
//! A traditional top-k returns five near-duplicates from the single
//! highest-scoring scaffold family; the representative query returns five
//! structurally distinct classes, each worth a separate lead-optimization
//! campaign.
//!
//! ```sh
//! cargo run --release --example molecule_screening
//! ```

use graphrep::baselines::traditional_topk;
use graphrep::core::{evaluate_answer, NbIndex, NbIndexConfig, RelevanceQuery, Scorer};
use graphrep::datagen::{DatasetKind, DatasetSpec};
use graphrep::ged::GedConfig;

fn main() {
    let data = DatasetSpec::new(DatasetKind::DudLike, 400, 7).generate();
    // "Binding affinity against AChE": a single target dimension.
    let query = RelevanceQuery::top_quantile(&data.db, Scorer::MeanOfDims(vec![0]), 0.75);
    let relevant = query.relevant_set(&data.db);
    let oracle = data.db.oracle(GedConfig::default());
    let theta = data.default_theta;
    let k = 5;

    let trad = traditional_topk(&data.db, &query, k);

    let index = NbIndex::build(
        oracle.clone(),
        NbIndexConfig {
            num_vps: 12,
            ladder: data.default_ladder.clone(),
            ..NbIndexConfig::default()
        },
    );
    let (rep, _) = index.query(relevant.clone(), theta, k);

    let describe = |ids: &[u32]| {
        for &g in ids {
            let graph = data.db.graph(g);
            println!(
                "    graph {g:>4}: {} atoms / {} bonds, affinity {:.3}, family {}",
                graph.node_count(),
                graph.edge_count(),
                query.score(&data.db, g),
                data.family[g as usize]
            );
        }
    };

    println!("traditional top-{k} (score only):");
    describe(&trad);
    let trad_eval = evaluate_answer(&trad, &relevant, |g| {
        relevant
            .iter()
            .copied()
            .filter(|&r| oracle.ask(g, r, theta).0)
            .collect()
    });
    println!(
        "  distinct scaffold families: {}",
        distinct_families(&data.family, &trad)
    );
    println!(
        "  π = {:.3}, CR = {:.1}",
        trad_eval.pi(),
        trad_eval.compression_ratio()
    );

    println!("\ntop-{k} representative query (θ = {theta}):");
    describe(&rep.ids);
    println!(
        "  distinct scaffold families: {}",
        distinct_families(&data.family, &rep.ids)
    );
    println!("  π = {:.3}, CR = {:.1}", rep.pi(), rep.compression_ratio());

    // Intra-answer structural diversity: average pairwise edit distance.
    let avg_pairwise = |ids: &[u32]| {
        let mut tot = 0.0;
        let mut cnt = 0.0;
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                tot += oracle.distance(a, b);
                cnt += 1.0;
            }
        }
        if cnt == 0.0 {
            0.0
        } else {
            tot / cnt
        }
    };
    println!(
        "\navg pairwise edit distance — traditional: {:.1}, representative: {:.1}",
        avg_pairwise(&trad),
        avg_pairwise(&rep.ids)
    );
}

fn distinct_families(family: &[u32], ids: &[u32]) -> usize {
    let mut fams: Vec<u32> = ids.iter().map(|&g| family[g as usize]).collect();
    fams.sort_unstable();
    fams.dedup();
    fams.len()
}
