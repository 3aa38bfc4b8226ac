//! One module per group of paper experiments; `run` dispatches by id.
//!
//! Every function prints CSV to stdout and mirrors it under `results/`.
//! DESIGN.md §5 maps experiment ids to paper tables/figures.

pub mod ablation;
pub mod build;
pub mod distances;
pub mod hybrid;
pub mod motivation;
pub mod quality;
pub mod refinement;
pub mod scalability;
pub mod summary;
pub mod threads;
pub mod tiers;

use crate::harness::Ctx;

/// All experiment ids, in suggested execution order.
pub const ALL: &[&str] = &[
    "table3",
    "fig2a",
    "fig2b",
    "fig5dist",
    "fig5fpr",
    "table4",
    "fig7",
    "fig5time",
    "fig6a",
    "fig6scale",
    "fig6k",
    "fig6h",
    "fig6i",
    "fig6j",
    "fig6build",
    "ablation-vp",
    "ablation-b",
    "ablation-bounds",
    "hybrid",
    "threads",
    "ged_tiers",
    "summary",
];

/// Runs the experiment `id`; returns false if unknown.
pub fn run(ctx: &Ctx, id: &str) -> bool {
    match id {
        "table3" => quality::table3(ctx),
        "table4" => quality::table4(ctx),
        "fig7" => quality::fig7(ctx),
        "fig2a" => motivation::fig2a(ctx),
        "fig2b" => motivation::fig2b(ctx),
        "fig5dist" => distances::fig5dist(ctx),
        "fig5fpr" => distances::fig5fpr(ctx),
        "fig5time" => scalability::fig5time(ctx),
        "fig6a" => scalability::fig6a(ctx),
        "fig6scale" => scalability::fig6scale(ctx),
        "fig6k" => scalability::fig6k(ctx),
        "fig6h" => scalability::fig6h(ctx),
        "fig6i" => refinement::fig6i(ctx),
        "fig6j" => refinement::fig6j(ctx),
        "fig6build" => build::fig6build(ctx),
        "ablation-vp" => ablation::vp_sweep(ctx),
        "ablation-b" => ablation::branching_sweep(ctx),
        "ablation-bounds" => ablation::bounds_ablation(ctx),
        "hybrid" => hybrid::hybrid_scale(ctx),
        "threads" => threads::thread_scaling(ctx),
        "ged_tiers" => tiers::ged_tiers(ctx),
        "summary" => summary::summary(ctx),
        "all" => {
            for id in ALL {
                eprintln!("== running {id} ==");
                run(ctx, id);
            }
        }
        _ => return false,
    }
    true
}

/// The three paper-dataset stand-ins at a given size.
pub fn standard_specs(size: usize, seed: u64) -> Vec<graphrep_datagen::DatasetSpec> {
    use graphrep_datagen::{DatasetKind, DatasetSpec};
    vec![
        DatasetSpec::new(DatasetKind::DudLike, size, seed),
        DatasetSpec::new(DatasetKind::DblpLike, size, seed + 1),
        DatasetSpec::new(DatasetKind::AmazonLike, size, seed + 2),
    ]
}
