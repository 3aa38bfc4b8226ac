//! Where the benchmark writes: `benchmark/out/` in the checkout the binary
//! was built from, never outside it.

use std::path::{Path, PathBuf};

/// Traces, result sets and scratch dataset directories go here.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory under [`out_dir`], removed when dropped.
#[derive(Debug)]
pub struct Scratch(pub PathBuf);

impl Scratch {
    /// Creates `out/tmp-<pid>-<tag>`, emptying any leftover of that name.
    pub fn new(tag: &str) -> Result<Self, String> {
        let dir = out_dir().join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Replaces `to` with a copy of the (flat) directory `from`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.path().is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}
