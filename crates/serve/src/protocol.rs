//! Wire protocol: length-prefixed JSON frames over TCP.
//!
//! Every message is one frame: a 4-byte big-endian payload length followed
//! by that many bytes of JSON. Every frame in either direction is a tagged
//! envelope — [`TaggedRequest`] `{"id", "req"}` from the client,
//! [`TaggedResponse`] `{"id", "resp"}` back — so one connection can carry
//! many requests in flight, answered out of order, and a streamed run's
//! picks are told apart by the id they carry. A blocking exchange is the
//! same thing with one id in flight. Requests and responses inside the
//! envelope are externally tagged enums (`{"Run": {...}}`, `"Pong"`), so a
//! frame is self-describing and the protocol grows new variants without a
//! version. The vendored `serde_json` prints floats via their shortest
//! round-trip representation, which is what makes server answers
//! byte-comparable to offline answers.

use graphrep_core::{AnswerSet, CacheCounters, RunStats};
use graphrep_graph::GraphId;
use serde::{Deserialize, Serialize, Value};
use std::io::{ErrorKind, Read, Write};
use std::time::{Duration, Instant};

/// Hard ceiling on a single frame's JSON payload. A header announcing more
/// than this is treated as a protocol violation, not an allocation request.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Machine-readable error codes carried by [`Response::Error`].
pub mod codes {
    /// Admission control rejected the request: the server queue is full.
    pub const OVERLOADED: &str = "overloaded";
    /// The request's deadline expired before (or while) it executed.
    pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
    /// Unknown dataset or unknown/expired session id.
    pub const NOT_FOUND: &str = "not_found";
    /// The request was structurally valid JSON but semantically malformed.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The server is draining and no longer admits new work.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// A server-side invariant failed while handling the request.
    pub const INTERNAL: &str = "internal";
    /// A streaming consumer read too slowly: its connection write queue hit
    /// the configured cap and the in-flight run was cancelled.
    pub const SLOW_CONSUMER: &str = "slow_consumer";
}

/// One error type for the whole serving layer: framing, I/O, registry
/// loading, and client-side verification failures all surface as a message.
#[derive(Debug)]
pub struct ServeError {
    /// Human-readable description of what failed.
    pub message: String,
}

impl ServeError {
    /// Wraps a message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        Self::new(format!("io: {e}"))
    }
}

impl From<serde_json::Error> for ServeError {
    fn from(e: serde_json::Error) -> Self {
        Self::new(format!("json: {e}"))
    }
}

/// Body of [`Request::Open`]: start a session on a named dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenBody {
    /// Registry name of the dataset to query.
    pub dataset: String,
    /// Score quantile defining the relevant set (same default as the CLI).
    pub quantile: f64,
}

/// Body of [`Request::Run`]: one `(θ, k)` run on an open session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunBody {
    /// Session id returned by [`Response::Opened`].
    pub session: u64,
    /// Distance threshold θ.
    pub theta: f64,
    /// Answer-set size k.
    pub k: usize,
    /// Per-request deadline in milliseconds, measured from admission. `None`
    /// falls back to the server's default (which may be unlimited).
    pub deadline_ms: Option<u64>,
}

/// Body of [`Request::Close`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CloseBody {
    /// Session id to discard.
    pub session: u64,
}

/// Body of [`Request::Ping`]: a no-op that occupies a worker for `wait_ms`.
/// Zero-cost liveness probe by default; with a wait it is the load/overload
/// tests' deterministic stand-in for a slow query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PingBody {
    /// Milliseconds the worker sleeps before replying.
    pub wait_ms: u64,
}

/// One wire edge: `(u, v, label)` with raw label ids. The server rebuilds
/// the graph through [`graphrep_graph::GraphBuilder`], so wire input cannot
/// smuggle in a graph violating the structural invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireEdge {
    /// One endpoint.
    pub u: u16,
    /// The other endpoint.
    pub v: u16,
    /// Edge label id.
    pub label: u32,
}

/// Body of [`Request::Insert`]: add a graph to a dataset (DESIGN.md §10).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InsertBody {
    /// Registry name of the dataset to mutate.
    pub dataset: String,
    /// Node labels; node `i` gets `nodes[i]`.
    pub nodes: Vec<u32>,
    /// Edges over those nodes.
    pub edges: Vec<WireEdge>,
    /// Feature vector (must match the dataset's dimensionality).
    pub features: Vec<f64>,
}

/// Body of [`Request::Remove`]: tombstone a graph (DESIGN.md §10).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemoveBody {
    /// Registry name of the dataset to mutate.
    pub dataset: String,
    /// Graph id to remove.
    pub id: GraphId,
}

/// A client request, always sent inside a [`TaggedRequest`].
/// `Open`/`Run`/`RunStream`/`Ping`/`Insert`/`Remove` go through the bounded
/// worker pool (and can be rejected by admission control);
/// `Close`/`Stats`/`Shutdown` are answered inline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Start a session (paper Sec 7 initialization phase).
    Open(OpenBody),
    /// Execute one `(θ, k)` search-and-update run.
    Run(RunBody),
    /// Discard a session.
    Close(CloseBody),
    /// Fetch live server metrics.
    Stats,
    /// Liveness probe / synthetic work item.
    Ping(PingBody),
    /// Add a graph to a dataset.
    Insert(InsertBody),
    /// Tombstone a graph in a dataset.
    Remove(RemoveBody),
    /// Begin graceful shutdown: drain queued work, then exit.
    Shutdown,
    /// Execute one `(θ, k)` run, streaming each accepted pick as its own
    /// [`Response::Pick`] frame before the terminal [`Response::AnswerEnd`].
    RunStream(RunBody),
}

/// The request envelope, the only frame a client sends: a client-chosen id
/// echoed on every response frame the request produces, which is what lets
/// responses complete out of order on a pipelined connection. A bare
/// [`Request`] frame is a protocol violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaggedRequest {
    /// Client-chosen correlation id. Must be unique among the connection's
    /// in-flight requests; reusing a live id is a [`codes::BAD_REQUEST`].
    pub id: u64,
    /// The request proper.
    pub req: Request,
}

/// The response envelope, the only frame a server sends, carrying the
/// originating request's id. A streamed run emits many envelopes with the
/// same id (picks, then the terminal answer); every other request emits
/// exactly one. A diagnostic that answers no request (an unparseable frame)
/// carries `u64::MAX`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaggedResponse {
    /// The id of the request this frame answers.
    pub id: u64,
    /// The response proper.
    pub resp: Response,
}

/// Body of [`Response::Opened`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenedBody {
    /// Session id for subsequent [`Request::Run`]s.
    pub session: u64,
    /// Size of the relevant set `|L_q|`.
    pub relevant: usize,
    /// Wall time of the initialization phase in milliseconds.
    pub init_ms: f64,
}

/// Body of [`Response::Answer`]: an [`AnswerSet`] plus run statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnswerBody {
    /// Chosen graphs, in selection order.
    pub ids: Vec<GraphId>,
    /// Relevant graphs covered by the union of θ-neighborhoods.
    pub covered: usize,
    /// Size of the relevant set.
    pub relevant: usize,
    /// Representative power after each greedy iteration.
    pub pi_trajectory: Vec<f64>,
    /// Edit-distance engine calls made by this run.
    pub distance_calls: u64,
    /// Server-side wall time of the run in milliseconds.
    pub wall_ms: f64,
    /// Whether the answer was served from the cross-session answer cache.
    /// Not part of [`AnswerBody::fingerprint`] — a hit is byte-identical to
    /// the run it memoized; this flag only describes how it was obtained.
    pub cached: bool,
    /// Number of shards the dataset is split over; `0` means the run went
    /// through a single NB-Index (no scatter-gather).
    pub shard_count: usize,
    /// Greedy picks for which the bound aggregation skipped at least the
    /// pruned shards (sharded runs only; see `shards_pruned`).
    pub picks: u64,
    /// Total shard visits the coordinator skipped across all picks because
    /// the shard's aggregated bound could not beat the current best.
    pub shards_pruned: u64,
    /// Total shard visits that did refine candidates (verification work).
    pub shards_touched: u64,
}

impl AnswerBody {
    /// Packs a run result for the wire, whichever engine produced it: a
    /// single-index run carries zero shard counts, a scatter-gather run its
    /// per-pick pruning statistics, a cache hit `cached: true`.
    pub fn from_run(answer: &AnswerSet, stats: &RunStats) -> Self {
        Self {
            ids: answer.ids.clone(),
            covered: answer.covered,
            relevant: answer.relevant,
            pi_trajectory: answer.pi_trajectory.clone(),
            distance_calls: stats.distance_calls,
            wall_ms: duration_ms(stats.wall),
            cached: stats.cached,
            shard_count: stats.shard_count,
            picks: stats.picks,
            shards_pruned: stats.shards_pruned,
            shards_touched: stats.shards_touched,
        }
    }

    /// Reconstructs the [`AnswerSet`] (dropping the run statistics).
    pub fn answer_set(&self) -> AnswerSet {
        AnswerSet {
            ids: self.ids.clone(),
            covered: self.covered,
            relevant: self.relevant,
            pi_trajectory: self.pi_trajectory.clone(),
        }
    }

    /// Canonical comparison form: the debug rendering of the answer set,
    /// which covers ids, coverage, and the full π trajectory. Two answers
    /// with equal fingerprints are byte-identical results.
    pub fn fingerprint(&self) -> String {
        format!("{:?}", self.answer_set())
    }
}

/// Per-endpoint request counters and latency summary, as served by
/// [`Response::Stats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndpointStats {
    /// Endpoint name (`open`, `run`, `close`, `stats`, `ping`, `insert`,
    /// `remove`, `shutdown`).
    pub endpoint: String,
    /// Requests dispatched (including rejected ones).
    pub requests: u64,
    /// Requests answered successfully.
    pub ok: u64,
    /// Requests rejected by admission control.
    pub overloaded: u64,
    /// Requests aborted by their deadline.
    pub deadline_exceeded: u64,
    /// All other error responses.
    pub errors: u64,
    /// Latency median in milliseconds (bucket upper bound).
    pub p50_ms: f64,
    /// Latency 99th percentile in milliseconds (bucket upper bound).
    pub p99_ms: f64,
    /// Upper bound of the slowest occupied latency bucket, in milliseconds.
    pub max_ms: f64,
    /// Request counts per log₂ latency bucket: bucket `b` holds requests
    /// that took `[2^b, 2^(b+1))` microseconds. Trailing zeros trimmed.
    pub latency_buckets: Vec<u64>,
}

/// Distance-oracle counter deltas since server start, per dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleDelta {
    /// Engine invocations that produced an exact distance.
    pub distance_computations: u64,
    /// "Outside τ" verdicts (engine or filter tier).
    pub within_rejections: u64,
    /// Requests answered from cache.
    pub cache_hits: u64,
    /// Upper-bound-certified accepts (no engine call).
    pub ub_accepts: u64,
    /// Raw edit-distance engine calls.
    pub engine_calls: u64,
    /// Rejections by the size lower bound.
    pub size_rejects: u64,
    /// Rejections by the label lower bound.
    pub label_rejects: u64,
    /// Rejections by the degree-sequence lower bound.
    pub degree_rejects: u64,
    /// Rejections by the vantage (Lipschitz) lower bound.
    pub vantage_lb_rejects: u64,
    /// Acceptances by the vantage (triangle) upper bound.
    pub vantage_ub_accepts: u64,
}

/// Counters of one cache tier (view store or answer cache), as served by
/// [`Response::Stats`]. Conservation identities hold exactly in every
/// snapshot: `lookups == hits + misses` and `evictions ≤ insertions`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheTierStats {
    /// Lookup requests served (hit or miss).
    pub lookups: u64,
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries written (including replacements).
    pub insertions: u64,
    /// Entries dropped by capacity pressure or replacement.
    pub evictions: u64,
    /// Entries dropped by wholesale invalidation (mutation epoch bumps).
    pub invalidated: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Approximate resident bytes of the stored values.
    pub memory_bytes: usize,
}

impl From<CacheCounters> for CacheTierStats {
    fn from(c: CacheCounters) -> Self {
        Self {
            lookups: c.lookups,
            hits: c.hits,
            misses: c.misses,
            insertions: c.insertions,
            evictions: c.evictions,
            invalidated: c.invalidated,
            entries: c.entries,
            memory_bytes: c.memory_bytes,
        }
    }
}

/// One shard of a sharded dataset, as served by [`Response::Stats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Shard mutation epoch.
    pub epoch: u64,
    /// Live members.
    pub live: usize,
    /// Member slots (live + tombstoned).
    pub len: usize,
    /// Edit-distance engine calls through the shard's own oracle.
    pub engine_calls: u64,
    /// Engine calls served for foreign (cross-shard) probes.
    pub foreign_calls: u64,
    /// Resident bytes of the shard's NB-Index.
    pub index_memory_bytes: usize,
}

/// Per-dataset registry statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Registry name.
    pub name: String,
    /// Number of graphs in the database.
    pub graphs: usize,
    /// Resident NB-Index memory (vantage orderings + tree) in bytes.
    pub index_memory_bytes: usize,
    /// How the index came to be: `loaded` (warm start from disk) or `built`.
    pub index_source: String,
    /// Oracle activity since the server started serving this dataset.
    pub oracle: OracleDelta,
    /// Whether the caching layer is on for this dataset.
    pub cache_enabled: bool,
    /// Materialized θ-neighborhood view-store counters and memory.
    pub view_store: CacheTierStats,
    /// Cross-session answer-cache counters and memory.
    pub answer_cache: CacheTierStats,
    /// Per-shard breakdown for sharded datasets; empty when the dataset is
    /// served by a single NB-Index.
    pub shards: Vec<ShardStats>,
    /// Best-effort persist steps (log append or cut, `index.bin` replace)
    /// that failed since the dataset was loaded — after a mutation, or the
    /// write-back of an index built at open. Serving continues regardless;
    /// nonzero means the on-disk state is behind the served one.
    pub persist_errors: u64,
    /// Mutations since the dataset was loaded whose receipt said `rebuilt`:
    /// how often the rebuild policy (DESIGN.md §10) tripped. Absent from
    /// servers that predate the counter, hence defaulted.
    #[serde(default)]
    pub rebuilds: u64,
}

/// Body of [`Response::Stats`]: a full observability snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsBody {
    /// Milliseconds since the server started.
    pub uptime_ms: f64,
    /// Worker-pool size (the in-flight bound).
    pub workers: usize,
    /// Admission-control queue capacity.
    pub queue_limit: usize,
    /// Requests currently waiting in the queue.
    pub queue_len: usize,
    /// Sessions currently open.
    pub sessions_open: usize,
    /// Sessions removed by idle expiry since start.
    pub sessions_expired: u64,
    /// Per-endpoint counters and latency histograms.
    pub endpoints: Vec<EndpointStats>,
    /// Per-dataset index and oracle statistics.
    pub datasets: Vec<DatasetStats>,
    /// Connections currently open (accepted and not yet torn down).
    pub connections_open: usize,
}

/// Body of [`Response::Mutated`]: receipt for an applied insert/remove.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MutatedBody {
    /// Affected graph id (the new id for inserts).
    pub id: GraphId,
    /// Dataset mutation epoch after the operation.
    pub epoch: u64,
    /// Live (non-tombstoned) graphs after the operation.
    pub live: usize,
    /// Tombstoned graphs after the operation.
    pub tombstones: usize,
    /// Whether the operation tripped the rebuild policy.
    pub rebuilt: bool,
    /// Server-side wall time of the mutation in milliseconds.
    pub wall_ms: f64,
    /// Full per-shard epoch vector after the mutation (sharded datasets
    /// only; empty for single-index datasets). For sharded datasets the
    /// `epoch` field above is the owning shard's epoch.
    pub shard_epochs: Vec<u64>,
}

/// Body of [`Response::Pick`]: one streamed greedy pick, emitted as the
/// best-first search or the shard coordinator commits it. The fields mirror
/// one entry of the final answer: `id` is `ids[seq]` and `pi` is
/// `pi_trajectory[seq]`, so concatenating a run's picks reconstructs the
/// answer prefix exactly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PickBody {
    /// Zero-based pick index within the run.
    pub seq: usize,
    /// The representative graph just accepted.
    pub id: GraphId,
    /// Relevant graphs covered after this pick.
    pub covered: usize,
    /// Size of the relevant set `|L_q|`.
    pub relevant: usize,
    /// Coverage ratio π after this pick.
    pub pi: f64,
}

impl PickBody {
    /// Packs a core pick event for the wire.
    pub fn from_event(e: &graphrep_core::PickEvent) -> Self {
        Self {
            seq: e.seq,
            id: e.id,
            covered: e.covered,
            relevant: e.relevant,
            pi: e.pi,
        }
    }
}

/// Body of [`Response::Error`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Machine-readable code from [`codes`].
    pub code: String,
    /// Human-readable detail.
    pub message: String,
}

/// A server response. Every request yields exactly one response frame,
/// except [`Request::RunStream`], which yields zero or more
/// [`Response::Pick`] frames followed by exactly one terminal frame
/// ([`Response::AnswerEnd`] on success, [`Response::Error`] otherwise).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Session created.
    Opened(OpenedBody),
    /// Run finished.
    Answer(AnswerBody),
    /// Session discarded.
    Closed,
    /// Metrics snapshot.
    Stats(StatsBody),
    /// Liveness reply.
    Pong,
    /// Mutation applied.
    Mutated(MutatedBody),
    /// Shutdown acknowledged; the server drains and exits.
    ShutdownAck,
    /// The request failed; see the code for why.
    Error(ErrorBody),
    /// One streamed greedy pick of an in-flight [`Request::RunStream`].
    Pick(PickBody),
    /// Terminal frame of a streamed run: the full answer + stats, with a
    /// fingerprint byte-identical to the [`Response::Answer`] the blocking
    /// `Run` of the same `(θ, k)` would have returned.
    AnswerEnd(AnswerBody),
}

impl Response {
    /// The error code if this is an error response.
    pub fn error_code(&self) -> Option<&str> {
        match self {
            Response::Error(e) => Some(&e.code),
            _ => None,
        }
    }
}

/// Converts a [`Duration`] to fractional milliseconds.
pub fn duration_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `{"id", "req"|"resp"}` envelope around a borrowed body: encodes to
/// the bytes of the derived [`TaggedRequest`] / [`TaggedResponse`] without
/// first cloning the body into one (the vendored derive takes no generics).
pub(crate) struct Tagged<'a, T> {
    id: u64,
    field: &'static str,
    body: &'a T,
}

impl<'a> Tagged<'a, Request> {
    /// The wire form of `TaggedRequest { id, req }`.
    pub(crate) fn request(id: u64, req: &'a Request) -> Self {
        Self {
            id,
            field: "req",
            body: req,
        }
    }
}

impl<'a> Tagged<'a, Response> {
    /// The wire form of `TaggedResponse { id, resp }`.
    pub(crate) fn response(id: u64, resp: &'a Response) -> Self {
        Self {
            id,
            field: "resp",
            body: resp,
        }
    }
}

impl<T: Serialize> Serialize for Tagged<'_, T> {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("id".to_owned(), self.id.to_value()),
            (self.field.to_owned(), self.body.to_value()),
        ])
    }
}

/// Encodes one frame (4-byte big-endian length + JSON payload) into an
/// owned buffer — the form worker threads hand to a connection write queue.
pub fn encode_frame<T: Serialize>(msg: &T) -> Result<Vec<u8>, ServeError> {
    let body = serde_json::to_string(msg)?;
    if body.len() > MAX_FRAME_BYTES {
        return Err(ServeError::new(format!(
            "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte limit",
            body.len()
        )));
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(body.as_bytes());
    Ok(frame)
}

/// Writes one frame: [`encode_frame`], then one `write_all` and a flush.
pub fn write_frame<T: Serialize>(w: &mut impl Write, msg: &T) -> Result<(), ServeError> {
    w.write_all(&encode_frame(msg)?)?;
    w.flush()?;
    Ok(())
}

/// Typed, fatal decode failures of the incremental [`FrameDecoder`]. Every
/// variant poisons the stream: framing has lost sync, so the only safe
/// recovery is closing the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// A frame header announced more than [`MAX_FRAME_BYTES`].
    Oversized {
        /// The announced payload length.
        announced: usize,
    },
    /// A complete payload was not valid UTF-8.
    Utf8 {
        /// Decoder detail.
        detail: String,
    },
    /// A complete payload was not valid JSON for the expected type.
    Json {
        /// Parser detail.
        detail: String,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Oversized { announced } => write!(
                f,
                "peer announced a {announced}-byte frame (limit {MAX_FRAME_BYTES})"
            ),
            DecodeError::Utf8 { detail } => write!(f, "frame is not UTF-8: {detail}"),
            DecodeError::Json { detail } => write!(f, "frame is not valid JSON: {detail}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for ServeError {
    fn from(e: DecodeError) -> Self {
        ServeError::new(e.to_string())
    }
}

/// Incremental frame decoder, the one frame reader on either side of the
/// wire: [`FrameDecoder::feed`] accepts whatever bytes the socket produced —
/// including partial headers and payloads split at arbitrary boundaries —
/// and [`FrameDecoder::next_payload`] yields complete frames as they become
/// available. The reactor feeds it from readiness-driven reads; a blocking
/// peer calls [`FrameDecoder::read_message`], which does the reads itself.
/// Malformed input surfaces as a typed [`DecodeError`]; the decoder itself
/// never panics and never reads past a frame boundary, so a well-formed
/// frame following a complete frame is always decoded intact.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames. Compacted
    /// opportunistically so the buffer does not grow without bound.
    start: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes read from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `start` is dead.
        if self.start > 0 && (self.start >= self.buf.len() || self.start > 64 * 1024) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as frames (partial frame data).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Returns the next complete frame's payload as validated UTF-8, `None`
    /// when more bytes are needed. Errors are fatal for the stream.
    pub fn next_payload(&mut self) -> Result<Option<String>, DecodeError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(DecodeError::Oversized { announced: len });
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let payload = avail[4..4 + len].to_vec();
        // Consume the frame before validating the payload: the framing layer
        // stays in sync even when the payload itself is garbage.
        self.start += 4 + len;
        match String::from_utf8(payload) {
            Ok(text) => Ok(Some(text)),
            Err(e) => Err(DecodeError::Utf8 {
                detail: e.to_string(),
            }),
        }
    }

    /// Decodes the next complete frame into `T`, `None` when more bytes are
    /// needed.
    pub fn next_message<T: Deserialize>(&mut self) -> Result<Option<T>, DecodeError> {
        match self.next_payload()? {
            None => Ok(None),
            Some(text) => match serde_json::from_str(&text) {
                Ok(v) => Ok(Some(v)),
                Err(e) => Err(DecodeError::Json {
                    detail: e.to_string(),
                }),
            },
        }
    }

    /// Blocking read of the next message from `r`: returns a frame already
    /// buffered by an earlier read without touching `r`, otherwise reads
    /// into a stack buffer until one completes. `None` means the peer closed
    /// at a frame boundary; a close mid-frame is an error. On a stream with
    /// a read timeout, every timeout checks `deadline`, so a silent peer —
    /// between frames or mid-frame — fails the call once it passes.
    pub fn read_message<T: Deserialize>(
        &mut self,
        r: &mut impl Read,
        deadline: Instant,
    ) -> Result<Option<T>, ServeError> {
        let mut chunk = [0u8; 8 << 10];
        loop {
            if let Some(msg) = self.next_message()? {
                return Ok(Some(msg));
            }
            match r.read(&mut chunk) {
                Ok(0) if self.buffered() == 0 => return Ok(None),
                Ok(0) => return Err(ServeError::new("peer closed mid-frame")),
                Ok(n) => self.feed(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    if Instant::now() >= deadline {
                        return Err(ServeError::new("timed out waiting for a frame"));
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A `Read` that plays one scripted step per call — bytes, delivered
    /// whole, or an error — and past the script reports `end`: EOF when
    /// `None`, that error on every call otherwise.
    struct Scripted {
        steps: VecDeque<Result<Vec<u8>, ErrorKind>>,
        end: Option<ErrorKind>,
    }

    impl Scripted {
        fn new(steps: Vec<Result<Vec<u8>, ErrorKind>>, end: Option<ErrorKind>) -> Self {
            Self {
                steps: steps.into(),
                end,
            }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            match self.steps.pop_front() {
                Some(Ok(bytes)) => {
                    out[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(Err(kind)) => Err(kind.into()),
                None => self.end.map_or(Ok(0), |kind| Err(kind.into())),
            }
        }
    }

    /// One `read_message` on a fresh decoder with a deadline a second out.
    fn read_one<T: Deserialize>(r: &mut impl Read) -> Result<Option<T>, ServeError> {
        FrameDecoder::new().read_message(r, Instant::now() + Duration::from_secs(1))
    }

    fn round_trip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(msg: &T) -> T {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg).unwrap();
        match read_one::<T>(&mut buf.as_slice()).unwrap() {
            Some(t) => t,
            None => panic!("expected a frame, got a close"),
        }
    }

    #[test]
    fn request_frames_round_trip() {
        for req in [
            Request::Open(OpenBody {
                dataset: "dud".into(),
                quantile: 0.75,
            }),
            Request::Run(RunBody {
                session: 7,
                theta: 3.5,
                k: 4,
                deadline_ms: Some(250),
            }),
            Request::Close(CloseBody { session: 7 }),
            Request::Stats,
            Request::Ping(PingBody { wait_ms: 0 }),
            Request::Shutdown,
        ] {
            assert_eq!(round_trip(&req), req);
        }
    }

    /// The borrowing envelope is byte-identical on the wire to the derived
    /// one, in both directions, so peers decode it as `TaggedRequest` /
    /// `TaggedResponse`.
    #[test]
    fn borrowed_envelopes_encode_like_the_derived_ones() {
        let req = Request::Run(RunBody {
            session: 3,
            theta: 0.1 + 0.2,
            k: 4,
            deadline_ms: None,
        });
        assert_eq!(
            encode_frame(&Tagged::request(u64::MAX, &req)).unwrap(),
            encode_frame(&TaggedRequest {
                id: u64::MAX,
                req: req.clone()
            })
            .unwrap()
        );
        let resp = Response::Pick(PickBody {
            seq: 1,
            id: 9,
            covered: 5,
            relevant: 7,
            pi: 5.0 / 7.0,
        });
        let frame = encode_frame(&Tagged::response(42, &resp)).unwrap();
        assert_eq!(
            frame,
            encode_frame(&TaggedResponse {
                id: 42,
                resp: resp.clone()
            })
            .unwrap()
        );
        match read_one::<TaggedResponse>(&mut frame.as_slice()) {
            Ok(Some(t)) => assert_eq!(t, TaggedResponse { id: 42, resp }),
            other => panic!("expected a tagged frame, got {other:?}"),
        }
    }

    #[test]
    fn answer_body_preserves_float_trajectories() {
        let body = AnswerBody {
            ids: vec![3, 1, 9],
            covered: 17,
            relevant: 23,
            pi_trajectory: vec![0.1, 1.0 / 3.0, 0.7391304347826086],
            distance_calls: 42,
            wall_ms: 1.25,
            cached: false,
            shard_count: 0,
            picks: 0,
            shards_pruned: 0,
            shards_touched: 0,
        };
        let back = round_trip(&Response::Answer(body.clone()));
        match back {
            Response::Answer(b) => {
                assert_eq!(b, body);
                assert_eq!(b.fingerprint(), body.fingerprint());
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    /// The `cached` flag is transport metadata: it survives the wire but
    /// never changes the answer fingerprint, so cache-on and cache-off
    /// replays compare equal.
    #[test]
    fn cached_flag_round_trips_outside_the_fingerprint() {
        let mut body = AnswerBody {
            ids: vec![2, 4],
            covered: 9,
            relevant: 12,
            pi_trajectory: vec![0.5, 0.75],
            distance_calls: 0,
            wall_ms: 0.01,
            cached: false,
            shard_count: 0,
            picks: 0,
            shards_pruned: 0,
            shards_touched: 0,
        };
        let fp = body.fingerprint();
        body.cached = true;
        match round_trip(&Response::Answer(body.clone())) {
            Response::Answer(b) => {
                assert!(b.cached);
                assert_eq!(b.fingerprint(), fp);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn closed_at_frame_boundary() {
        let empty: &[u8] = &[];
        match read_one::<Request>(&mut { empty }).unwrap() {
            None => {}
            other => panic!("expected a close, got {other:?}"),
        }
    }

    #[test]
    fn oversized_header_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        let err = read_one::<Request>(&mut buf.as_slice()).unwrap_err();
        assert!(err.message.contains("limit"), "{err}");
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Stats).unwrap();
        buf.truncate(buf.len() - 1);
        assert!(read_one::<Request>(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn mutation_frames_round_trip() {
        for req in [
            Request::Insert(InsertBody {
                dataset: "dud".into(),
                nodes: vec![0, 1, 1],
                edges: vec![
                    WireEdge {
                        u: 0,
                        v: 1,
                        label: 0,
                    },
                    WireEdge {
                        u: 1,
                        v: 2,
                        label: 1,
                    },
                ],
                features: vec![1.5, 2.0],
            }),
            Request::Remove(RemoveBody {
                dataset: "dud".into(),
                id: 17,
            }),
        ] {
            assert_eq!(round_trip(&req), req);
        }
        let resp = Response::Mutated(MutatedBody {
            id: 41,
            epoch: 9,
            live: 40,
            tombstones: 2,
            rebuilt: false,
            wall_ms: 0.75,
            shard_epochs: vec![3, 6],
        });
        assert_eq!(round_trip(&resp), resp);
    }

    /// A `stats` body from a server that predates `rebuilds` still decodes:
    /// the field is defaulted, every other one is required as before.
    #[test]
    fn dataset_stats_decode_without_rebuilds() {
        let stats = DatasetStats {
            name: "dud".into(),
            graphs: 40,
            index_memory_bytes: 4096,
            index_source: "built".into(),
            oracle: OracleDelta {
                distance_computations: 1,
                within_rejections: 2,
                cache_hits: 3,
                ub_accepts: 4,
                engine_calls: 5,
                size_rejects: 6,
                label_rejects: 7,
                degree_rejects: 8,
                vantage_lb_rejects: 9,
                vantage_ub_accepts: 10,
            },
            cache_enabled: true,
            view_store: CacheTierStats::default(),
            answer_cache: CacheTierStats::default(),
            shards: Vec::new(),
            persist_errors: 2,
            rebuilds: 3,
        };
        let serde::Value::Obj(mut fields) = stats.to_value() else {
            panic!("a struct serializes as an object");
        };
        assert_eq!(DatasetStats::from_value(&stats.to_value()).unwrap(), stats);
        fields.retain(|(k, _)| k != "rebuilds");
        let old = DatasetStats::from_value(&serde::Value::Obj(fields.clone())).unwrap();
        assert_eq!(
            old,
            DatasetStats {
                rebuilds: 0,
                ..stats
            }
        );
        fields.retain(|(k, _)| k != "persist_errors");
        assert!(DatasetStats::from_value(&serde::Value::Obj(fields)).is_err());
    }

    /// A truncated header (fewer than 4 bytes, then EOF) must be a typed
    /// error, not a hang or a panic.
    #[test]
    fn truncated_header_is_an_error() {
        let partial: &[u8] = &[0, 0];
        let err = read_one::<Request>(&mut { partial }).unwrap_err();
        assert!(err.message.contains("closed mid-frame"), "{err}");
    }

    /// Any announced length above [`MAX_FRAME_BYTES`] is rejected from the
    /// header alone — no allocation of attacker-controlled size happens.
    #[test]
    fn length_just_over_cap_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&((MAX_FRAME_BYTES as u32) + 1).to_be_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let err = read_one::<Request>(&mut buf.as_slice()).unwrap_err();
        assert!(err.message.contains("limit"), "{err}");
    }

    /// A zero-length frame is a syntactically valid header whose empty
    /// payload fails JSON parsing — typed error, no panic.
    #[test]
    fn zero_length_frame_is_an_error() {
        let buf = 0u32.to_be_bytes();
        assert!(read_one::<Request>(&mut buf.as_slice()).is_err());
    }

    /// Non-UTF-8 payload bytes surface as the UTF-8 error, not a panic.
    #[test]
    fn non_utf8_payload_is_an_error() {
        let payload = [0xff, 0xfe, 0x80, 0x81];
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        buf.extend_from_slice(&payload);
        let err = read_one::<Request>(&mut buf.as_slice()).unwrap_err();
        assert!(err.message.contains("UTF-8"), "{err}");
    }

    /// Well-formed UTF-8 that is not valid JSON (or not a known variant)
    /// surfaces as a JSON error.
    #[test]
    fn garbage_json_payload_is_an_error() {
        for payload in ["{\"Nonsense\":1}", "]][[", "", "42"] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            buf.extend_from_slice(payload.as_bytes());
            assert!(
                read_one::<Request>(&mut buf.as_slice()).is_err(),
                "payload {payload:?} must be rejected"
            );
        }
    }

    /// Two frames delivered by one `read` come back one per call, the
    /// second from the buffer: the reader is not touched again (its next
    /// step would fail the call).
    #[test]
    fn two_frames_in_one_read_come_back_one_per_call() {
        let mut both = encode_frame(&Request::Stats).unwrap();
        both.extend(encode_frame(&Request::Shutdown).unwrap());
        let mut r = Scripted::new(vec![Ok(both), Err(ErrorKind::BrokenPipe)], None);
        let mut dec = FrameDecoder::new();
        let deadline = Instant::now() + Duration::from_secs(1);
        let first = dec.read_message::<Request>(&mut r, deadline).unwrap();
        assert_eq!(first, Some(Request::Stats));
        let second = dec.read_message::<Request>(&mut r, deadline).unwrap();
        assert_eq!(second, Some(Request::Shutdown));
        let err = dec.read_message::<Request>(&mut r, deadline).unwrap_err();
        assert!(err.message.contains("io:"), "{err}");
    }

    /// A frame split across reads, with read timeouts between the pieces,
    /// is reassembled into one message; the close after it is at a boundary.
    #[test]
    fn frame_split_by_would_block_is_reassembled() {
        let frame = encode_frame(&Request::Close(CloseBody { session: 9 })).unwrap();
        let mut r = Scripted::new(
            vec![
                Ok(frame[..2].to_vec()),
                Err(ErrorKind::WouldBlock),
                Ok(frame[2..7].to_vec()),
                Err(ErrorKind::TimedOut),
                Err(ErrorKind::Interrupted),
                Ok(frame[7..].to_vec()),
            ],
            None,
        );
        let mut dec = FrameDecoder::new();
        let deadline = Instant::now() + Duration::from_secs(1);
        let msg = dec.read_message::<Request>(&mut r, deadline).unwrap();
        assert_eq!(msg, Some(Request::Close(CloseBody { session: 9 })));
        assert_eq!(dec.read_message::<Request>(&mut r, deadline).unwrap(), None);
    }

    /// A close after part of a frame is an error, not a clean `None` —
    /// in the header or in the payload, with or without a timeout between.
    #[test]
    fn close_mid_frame_is_an_error() {
        let frame = encode_frame(&Request::Stats).unwrap();
        for cut in [1, 4, frame.len() - 1] {
            let mut r = Scripted::new(
                vec![Ok(frame[..cut].to_vec()), Err(ErrorKind::WouldBlock)],
                None,
            );
            let err = read_one::<Request>(&mut r).unwrap_err();
            assert!(err.message.contains("closed mid-frame"), "cut {cut}: {err}");
        }
    }

    /// A peer that sends nothing more fails the call once the deadline
    /// passes — between frames and mid-frame alike — and not before.
    #[test]
    fn silent_peer_errors_at_the_deadline() {
        let frame = encode_frame(&Request::Stats).unwrap();
        for cut in [0, 3, 6] {
            // An empty read is EOF, so "nothing sent" is an empty script.
            let sent = (cut > 0).then(|| Ok(frame[..cut].to_vec()));
            let mut r = Scripted::new(sent.into_iter().collect(), Some(ErrorKind::WouldBlock));
            let wait = Duration::from_millis(20);
            let t0 = Instant::now();
            let err = FrameDecoder::new()
                .read_message::<Request>(&mut r, t0 + wait)
                .unwrap_err();
            assert!(t0.elapsed() >= wait, "gave up before the deadline");
            assert!(err.message.contains("timed out"), "{err}");
        }
    }
}
