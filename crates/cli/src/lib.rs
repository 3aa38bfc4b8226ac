#![warn(missing_docs)]

//! Command-line workflows for `graphrep`.
//!
//! The `graphrep` binary wraps the library for a shell-first workflow:
//!
//! ```sh
//! graphrep generate --kind dud --size 1000 --seed 7 --out data/dud
//! graphrep stats    --data data/dud
//! graphrep index    --data data/dud
//! graphrep query    --data data/dud --theta 4 --k 10
//! graphrep refine   --data data/dud --theta 4 --k 10 --steps 3.6,4.4,4.0
//! graphrep topk     --data data/dud --k 10
//! ```
//!
//! Commands are implemented as functions returning their textual output, so
//! integration tests drive them directly.

pub mod args;
pub mod commands;

pub use args::{parse, Command};
pub use commands::run;

/// CLI-level errors with user-facing messages.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(s: String) -> Self {
        CliError(s)
    }
}

impl From<&str> for CliError {
    fn from(s: &str) -> Self {
        CliError(s.to_owned())
    }
}
