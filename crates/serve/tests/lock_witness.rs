//! Dynamic lock-order witness (DESIGN.md §12): drives a full serve workload
//! — server start, sessions, queries, mutations, stats, shutdown — with the
//! `lock-audit` feature on, then checks the runtime witness against the
//! *static* lock graph extracted by `graphrep-check`:
//!
//! * at least one multi-lock edge must be observed (the harness is not
//!   vacuously green), and
//! * every observed `(held, acquired)` pair must appear in the static graph.
//!   The analyzer skips calls it cannot resolve, some of them made with a
//!   guard live (DESIGN.md §12.4), so this test is what catches an edge it
//!   missed. Such an edge is a gap in `graphrep-check`, not in the serving
//!   code.
//!
//! Compiled only under `--features lock-audit`; the default build has no
//! witness to interrogate.

#![cfg(feature = "lock-audit")]

use graphrep_datagen::{DatasetKind, DatasetSpec};
use graphrep_graph::generate::mutate;
use graphrep_lockaudit::witness;
use graphrep_serve::registry::load_in_memory;
use graphrep_serve::{start, Client, DatasetRegistry, ServeConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

#[test]
fn observed_lock_order_is_a_subset_of_the_static_graph() {
    // A small dataset keeps the NP-hard mutation path fast while still
    // exercising every lock tier: registry state, oracle shards and hints,
    // view/answer caches, the session map, and the server queue.
    let data = DatasetSpec::new(DatasetKind::DudLike, 24, 11).generate();
    let features = data.db.features(0).to_vec();
    let donor = data.db.graph(0).clone();
    let mut reg = DatasetRegistry::new();
    reg.insert(load_in_memory("w", data));
    let handle = start(
        ServeConfig {
            workers: 3,
            ..ServeConfig::default()
        },
        reg,
    )
    .expect("server starts");
    let addr = handle.addr().to_string();

    let mut client = Client::connect(&addr).expect("client connects");
    let opened = client.open("w", 0.75).expect("session opens");
    for (theta, k) in [(1.5, 3usize), (2.5, 4), (1.5, 3)] {
        let _ = client
            .run(opened.session, theta, k, None)
            .expect("query runs");
    }
    // Mutations drive the deepest chain: the state write guard held across
    // the forked index insert (oracle extension transplants every shard,
    // the vantage sweep takes shard + hints locks, the caches are dropped).
    let mut rng = SmallRng::seed_from_u64(7);
    let inserted = {
        let g = mutate(&mut rng, &donor, 2, &[0, 1], &[0]);
        let nodes = g.node_labels().to_vec();
        let edges = g.edges().iter().map(|e| (e.u, e.v, e.label)).collect();
        client
            .insert("w", nodes, edges, features.clone())
            .expect("insert lands")
    };
    let _ = client.remove("w", inserted.id).expect("remove lands");
    let _ = client.run(opened.session, 2.0, 3, None).expect("rerun");
    let _ = client.stats().expect("stats snapshot");
    client.close(opened.session).expect("session closes");
    client.shutdown().expect("shutdown accepted");
    handle.wait();

    let observed = witness::observed_edges();
    assert!(
        !observed.is_empty(),
        "the workload should observe at least one multi-lock edge"
    );

    let report = graphrep_check::lint_workspace(&graphrep_check::workspace_root())
        .expect("static lint runs");
    let graph = report.lock_graph.expect("workspace lint extracts a graph");
    let static_edges: BTreeSet<(&str, &str)> = graph
        .edges
        .iter()
        .map(|e| (e.from.as_str(), e.to.as_str()))
        .collect();
    let escaped: Vec<_> = observed
        .iter()
        .filter(|&&(f, t)| !static_edges.contains(&(f, t)))
        .collect();
    assert!(
        escaped.is_empty(),
        "dynamic edges missing from the static lock graph: {escaped:?}\n\
         (static analysis must over-approximate the runtime order)"
    );
}
