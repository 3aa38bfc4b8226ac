//! The offline verifier behind `graphrep load --verify-data DIR` must not
//! trust the file it checks. A server on `DIR` serves whatever
//! `DIR/index.bin` holds at the log's epoch, so the reference is rebuilt
//! from the base snapshot and `mutations.log` instead. Here that file is an
//! index built over non-metric hybrid distances (which only the library can
//! still write): the reference must ignore it, and a server that loaded it
//! must fail verification.

use graphrep_core::NbIndex;
use graphrep_datagen::{store, DatasetKind, DatasetSpec};
use graphrep_ged::{GedConfig, GedMode};
use graphrep_serve::registry::{default_index_config, load_in_memory, write_index};
use graphrep_serve::{
    offline_reference, offline_reference_from_dir, run_load, start, verify_against_offline,
    DatasetRegistry, LoadMode, LoadSpec, ServeConfig,
};

#[test]
fn verifier_rebuilds_its_reference_instead_of_reading_index_bin() {
    let dir = std::env::temp_dir().join(format!("graphrep-verifier-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let data = DatasetSpec::new(DatasetKind::DudLike, 160, 7).generate();
    store::save(&data, &dir).expect("save dataset");
    let hybrid = GedConfig {
        mode: GedMode::Hybrid { exact_max_nodes: 3 },
        ..GedConfig::default()
    };
    let poisoned = NbIndex::build(data.db.oracle(hybrid), default_index_config(&data));
    write_index(&dir, &poisoned).expect("write index.bin");

    let spec = LoadSpec {
        dataset: "d".into(),
        connections: 1,
        requests_per_conn: 4,
        thetas: vec![4.0],
        ks: vec![10],
        quantile: 0.75,
        seed: 1,
        skew: 0.0,
        mode: LoadMode::Blocking,
    };
    let reference = offline_reference_from_dir(&dir, &spec).expect("reference");
    assert_eq!(
        reference,
        offline_reference(&load_in_memory("d", data), &spec),
        "the reference must be the default exact build, not the file on disk"
    );

    let mut registry = DatasetRegistry::new();
    registry.load_dir("d", &dir, false).expect("load dir");
    let served = registry.get("d").expect("dataset").stats().index_source;
    assert_eq!(
        served, "loaded",
        "the server trusts the file at the log's epoch"
    );
    let handle = start(
        ServeConfig {
            workers: 1,
            ..Default::default()
        },
        registry,
    )
    .expect("start server");
    let report = run_load(&handle.addr().to_string(), &spec).expect("load");
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let verdict = verify_against_offline(&report, &reference);
    assert!(
        verdict.is_err(),
        "answers from the hybrid index.bin verified: {verdict:?}"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
