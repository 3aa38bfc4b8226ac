#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

//! `graphrep-serve` — the concurrent query-serving layer.
//!
//! Turns the core library's interactive query model (paper Sec 7: one
//! initialization phase, many `(θ, k)` runs) into a long-lived,
//! dependency-free TCP service:
//!
//! * [`registry`] — datasets and NB-Indexes warm-loaded once at startup
//!   ([`graphrep_core::NbIndex::load_bin_at_epoch`] when an `index.bin` sits
//!   next to the dataset, a fresh build otherwise) and `Arc`-shared everywhere;
//! * [`sessions`] — `open_session` / `run` / `close_session` over the wire
//!   with idle expiry;
//! * [`server`] — a bounded worker pool with admission control (explicit
//!   `overloaded` rejections instead of unbounded queueing), per-request
//!   deadlines enforced cooperatively between search heap pops, live
//!   metrics, and graceful drain-then-exit shutdown;
//! * [`reactor`] — the one I/O engine: a single epoll thread owns the
//!   listener and every connection, so the server is Linux-only;
//! * [`protocol`] — length-prefixed JSON frames, every one a tagged
//!   `{id, req}` / `{id, resp}` envelope (pipelined, answered out of order),
//!   over std::net + the vendored `serde_json`; no external dependencies;
//! * [`client`] — a blocking client plus the deterministic load harness
//!   whose answers are verified byte-identical to offline
//!   [`graphrep_core::QuerySession::run`].

#[cfg(not(target_os = "linux"))]
compile_error!("graphrep-serve drives its connections with epoll and builds on Linux only");

pub mod client;
pub mod metrics;
pub mod protocol;
pub mod reactor;
pub mod registry;
pub mod server;
pub mod sessions;

pub use client::{
    offline_reference, offline_reference_from_dir, run_load, verify_against_offline,
    verify_stream_consistency, Client, LoadAnswer, LoadMode, LoadReport, LoadSpec, StreamedRun,
};
pub use metrics::{Endpoint, EndpointCounters, LatencyHistogram, ServerMetrics};
pub use protocol::{
    codes, AnswerBody, CacheTierStats, DecodeError, FrameDecoder, MutatedBody, PickBody, Request,
    Response, ServeError, StatsBody, TaggedRequest, TaggedResponse,
};
pub use registry::{DatasetEntry, DatasetRegistry, LoadedDataset, MutationReceipt, ShardedDataset};
pub use server::{start, start_in_memory, ServeConfig, ServerHandle};
pub use sessions::{LiveSession, SessionManager};
