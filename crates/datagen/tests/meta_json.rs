//! `meta.json` as a byte format: a dataset directory written by an earlier
//! release loads, and saving it writes the same bytes back.

use graphrep_datagen::store::{load, save, StoreError};
use graphrep_datagen::DatasetKind;
use std::fs;
use std::path::PathBuf;

/// `meta.json` in its exact on-disk bytes: pretty JSON, two-space indent,
/// no trailing newline, label names as `{"names": [...]}` in id order.
const GOLDEN_META: &str = r#"{
  "kind": "dud",
  "seed": 5,
  "labels": {
    "names": [
      "C",
      "N",
      "single"
    ]
  },
  "family": [
    0,
    1
  ],
  "default_theta": 2.5,
  "default_ladder": [
    1.0,
    2.5
  ]
}"#;

/// A fresh two-graph dataset directory around `meta`.
fn dataset_dir(name: &str, meta: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("graphrep-meta-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let graphs = "t 1 0\nv 0 0\nt 2 1\nv 0 1\nv 1 0\ne 0 1 2\n";
    fs::write(dir.join("graphs.txt"), graphs).unwrap();
    fs::write(dir.join("features.csv"), "0.5\n0.25\n").unwrap();
    fs::write(dir.join("meta.json"), meta).unwrap();
    dir
}

#[test]
fn golden_meta_json_loads_and_saves_byte_identical() {
    let dir = dataset_dir("golden", GOLDEN_META);
    let data = load(&dir).unwrap();
    assert_eq!(data.spec.kind, DatasetKind::DudLike);
    assert_eq!(data.spec.seed, 5);
    assert_eq!(data.family, [0, 1]);
    assert_eq!(data.default_theta, 2.5);
    assert_eq!(data.default_ladder, [1.0, 2.5]);
    let out = dir.join("saved");
    save(&data, &out).unwrap();
    assert_eq!(
        fs::read_to_string(out.join("meta.json")).unwrap(),
        GOLDEN_META
    );
    let _ = fs::remove_dir_all(&dir);
}

/// The loaded interner looks every stored name up, interns an existing
/// name to its id and a new one to the next id.
#[test]
fn loaded_labels_look_up_and_extend_in_order() {
    let dir = dataset_dir("labels", GOLDEN_META);
    let mut labels = load(&dir).unwrap().db.labels().clone();
    for (id, name) in ["C", "N", "single"].into_iter().enumerate() {
        assert_eq!(labels.get(name), Some(id as u32));
    }
    assert_eq!(labels.get("O"), None);
    assert_eq!(labels.intern("N"), 1);
    assert_eq!(labels.intern("O"), 3);
    assert_eq!(labels.len(), 4);
    let _ = fs::remove_dir_all(&dir);
}

/// Interning a repeated name in order would renumber every later label.
#[test]
fn repeated_label_name_rejected() {
    let dir = dataset_dir("dup", &GOLDEN_META.replace("\"single\"", "\"C\""));
    let err = load(&dir).unwrap_err();
    assert!(matches!(err, StoreError::Inconsistent(_)), "{err}");
    assert!(err.to_string().contains("\"C\""), "{err}");
    let _ = fs::remove_dir_all(&dir);
}
