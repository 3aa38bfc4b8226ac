#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

//! Graph edit distance for `graphrep`.
//!
//! The paper's distance function `d(g, g')` is the classical graph edit
//! distance (GED), which is NP-hard to compute. This crate provides the full
//! stack the rest of the workspace builds on:
//!
//! * [`cost::CostModel`] — symmetric edit-operation costs (metric-validated),
//! * [`exact`] — A\* exact GED with an admissible label-multiset heuristic
//!   summed over edge classes, cutoff support (for θ-membership tests) and
//!   an expansion budget,
//! * [`bipartite`] — Riesen–Bunke style `O(n³)` upper bound via the
//!   [`assignment`] (Hungarian) solver,
//! * [`bounds`] — near-linear admissible lower bounds,
//! * [`GedEngine`] — the policy layer combining all of the above,
//! * [`DistanceOracle`] — database-level memoization plus the call counters
//!   every experiment reports.

pub mod assignment;
pub mod bipartite;
pub mod bounds;
pub mod cache;
pub mod cost;
pub mod counter;
pub mod engine;
pub mod exact;
pub mod profile;
pub(crate) mod scratch;
pub(crate) mod tables;

pub use cache::{DistanceOracle, FactTable, Facts, MetricHints, OracleStats, TierStats};
pub use profile::GraphProfile;

/// Asserts a paper-derived runtime invariant when the *consuming* crate is
/// compiled with its `invariant-audit` cargo feature; expands to nothing
/// otherwise.
///
/// Because `cfg` is resolved after macro expansion, the feature gate is
/// evaluated against the crate where the macro is used — each crate that
/// audits (this one, `graphrep-core`, the root package) declares its own
/// `invariant-audit` feature and forwards it down the dependency chain. When
/// the feature is off the condition tokens are stripped before name
/// resolution, so audits may reference audit-only fields and be arbitrarily
/// expensive.
///
/// ```
/// use graphrep_ged::audit_invariant;
/// let (lb, d) = (2.0_f64, 3.0_f64);
/// audit_invariant!(lb <= d + 1e-9, "Thm 4: lower bound {lb} exceeds exact {d}");
/// ```
#[macro_export]
macro_rules! audit_invariant {
    ($cond:expr, $($fmt:tt)+) => {
        match () {
            #[cfg(feature = "invariant-audit")]
            () => {
                if !($cond) {
                    panic!(
                        "invariant-audit violation: {}",
                        format_args!($($fmt)+)
                    );
                }
            }
            #[cfg(not(feature = "invariant-audit"))]
            () => {}
        }
    };
}
pub use cost::CostModel;
pub use counter::{CounterSnapshot, GedCounters};
pub use engine::{inside, Fact, GedConfig, GedEngine, GedMode};
pub use exact::{ged_exact, ged_exact_full, ExactResult, Outcome, MAX_EXACT_NODES};
