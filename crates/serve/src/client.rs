//! Client side: a blocking request/response client plus the deterministic
//! load harness (`N` connections × `M` requests on a fixed seed) and its
//! offline verifier — the tool that proves server answers are byte-identical
//! to [`graphrep_core::QuerySession::run`].

use crate::protocol::{
    self, AnswerBody, CloseBody, FrameDecoder, InsertBody, MutatedBody, OpenBody, OpenedBody,
    PickBody, PingBody, RemoveBody, Request, Response, RunBody, ServeError, StatsBody, Tagged,
    TaggedResponse, WireEdge,
};
use crate::registry::{self, LoadedDataset};
use graphrep_core::AnswerSet;
use graphrep_datagen::store;
use graphrep_ged::GedConfig;
use std::collections::HashMap;
use std::net::TcpStream;
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

/// Upper bound on waiting for any single response.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// A blocking protocol client over one TCP connection. Every request goes
/// out under a fresh id; [`Client::run_pipelined`] keeps several in flight.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// Holds the bytes of any frame a read took beyond the one returned.
    decoder: FrameDecoder,
    /// Next request id.
    next_id: u64,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: &str) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| ServeError::new(format!("connect {addr}: {e}")))?;
        let _ = stream.set_nodelay(true);
        // Short read timeout, so `read_response` checks its deadline: a
        // wedged server turns into an error, not a hung client.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
        Ok(Self {
            stream,
            decoder: FrameDecoder::new(),
            next_id: 1,
        })
    }

    /// Writes `req` under a fresh id and returns the id.
    fn send(&mut self, req: &Request) -> Result<u64, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        protocol::write_frame(&mut self.stream, &Tagged::request(id, req))?;
        Ok(id)
    }

    /// Reads one response frame, failing once `deadline` passes.
    fn read_response(&mut self, deadline: Instant) -> Result<TaggedResponse, ServeError> {
        self.decoder
            .read_message(&mut self.stream, deadline)?
            .ok_or_else(|| ServeError::new("server closed the connection mid-request"))
    }

    /// Sends one request and waits for its response.
    pub fn request(&mut self, req: &Request) -> Result<Response, ServeError> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let id = self.send(req)?;
        let tr = self.read_response(deadline)?;
        if tr.id != id {
            return Err(ServeError::new(format!(
                "response for request id {} while awaiting {id}",
                tr.id
            )));
        }
        Ok(tr.resp)
    }

    /// Sends every request, each under its own id, then collects the
    /// (possibly out-of-order, possibly streamed) replies until each has its
    /// terminal frame. Results come back indexed like `reqs`.
    fn exchange(&mut self, reqs: &[Request]) -> Result<Vec<StreamedRun>, ServeError> {
        let t0 = Instant::now();
        let deadline = t0 + REPLY_TIMEOUT;
        let first = self.next_id;
        let mut out = Vec::with_capacity(reqs.len());
        for req in reqs {
            self.send(req)?;
            out.push(StreamedRun {
                picks: Vec::new(),
                terminal: Response::Closed,
                ttfp: None,
                total: Duration::ZERO,
            });
        }
        let mut open = out.len();
        while open > 0 {
            let tr = self.read_response(deadline)?;
            // Ids were handed out consecutively from `first`.
            let slot = tr
                .id
                .checked_sub(first)
                .and_then(|i| usize::try_from(i).ok());
            let Some(run) = slot.and_then(|i| out.get_mut(i)) else {
                return Err(ServeError::new(format!(
                    "response for unknown request id {}",
                    tr.id
                )));
            };
            match tr.resp {
                Response::Pick(p) => {
                    run.ttfp.get_or_insert_with(|| t0.elapsed());
                    run.picks.push(p);
                }
                terminal => {
                    if run.total != Duration::ZERO {
                        return Err(ServeError::new(format!(
                            "two terminal frames for request id {}",
                            tr.id
                        )));
                    }
                    run.terminal = terminal;
                    run.total = t0.elapsed();
                    open -= 1;
                }
            }
        }
        Ok(out)
    }

    /// Opens a session on `dataset` with the given relevance quantile.
    pub fn open(&mut self, dataset: &str, quantile: f64) -> Result<OpenedBody, ServeError> {
        match self.request(&Request::Open(OpenBody {
            dataset: dataset.to_owned(),
            quantile,
        }))? {
            Response::Opened(b) => Ok(b),
            other => Err(unexpected("Opened", &other)),
        }
    }

    /// Executes one `(θ, k)` run. Returns the raw [`Response`] so callers
    /// can distinguish answers from `deadline_exceeded`/`overloaded`.
    pub fn run(
        &mut self,
        session: u64,
        theta: f64,
        k: usize,
        deadline_ms: Option<u64>,
    ) -> Result<Response, ServeError> {
        self.request(&Request::Run(RunBody {
            session,
            theta,
            k,
            deadline_ms,
        }))
    }

    /// Like [`Client::run`] but demands a successful answer.
    pub fn run_answer(
        &mut self,
        session: u64,
        theta: f64,
        k: usize,
    ) -> Result<AnswerBody, ServeError> {
        match self.run(session, theta, k, None)? {
            Response::Answer(b) => Ok(b),
            other => Err(unexpected("Answer", &other)),
        }
    }

    /// Executes one `(θ, k)` run with streamed picks: one [`PickBody`] per
    /// representative as the greedy loop accepts it, then the terminal
    /// frame.
    pub fn run_streaming(
        &mut self,
        session: u64,
        theta: f64,
        k: usize,
        deadline_ms: Option<u64>,
    ) -> Result<StreamedRun, ServeError> {
        let req = Request::RunStream(RunBody {
            session,
            theta,
            k,
            deadline_ms,
        });
        let mut runs = self.exchange(std::slice::from_ref(&req))?;
        Ok(runs.remove(0))
    }

    /// Like [`Client::run_streaming`] but demands a successful answer and
    /// checks the pick stream is consistent with it (same ids, same order,
    /// same trajectory).
    pub fn run_streaming_answer(
        &mut self,
        session: u64,
        theta: f64,
        k: usize,
    ) -> Result<(Vec<PickBody>, AnswerBody), ServeError> {
        let run = self.run_streaming(session, theta, k, None)?;
        let body = match run.terminal {
            Response::AnswerEnd(b) => b,
            other => return Err(unexpected("AnswerEnd", &other)),
        };
        verify_stream_consistency(&run.picks, &body).map_err(ServeError::new)?;
        Ok((run.picks, body))
    }

    /// Issues every query as its own in-flight request on this one
    /// connection — true wire pipelining — then collects the out-of-order
    /// completions. `streamed` selects [`Request::RunStream`] per query
    /// instead of [`Request::Run`]. Results come back indexed like
    /// `queries`.
    pub fn run_pipelined(
        &mut self,
        session: u64,
        queries: &[(f64, usize)],
        streamed: bool,
    ) -> Result<Vec<StreamedRun>, ServeError> {
        let reqs: Vec<Request> = queries
            .iter()
            .map(|&(theta, k)| {
                let body = RunBody {
                    session,
                    theta,
                    k,
                    deadline_ms: None,
                };
                if streamed {
                    Request::RunStream(body)
                } else {
                    Request::Run(body)
                }
            })
            .collect();
        self.exchange(&reqs)
    }

    /// Closes a session.
    pub fn close(&mut self, session: u64) -> Result<(), ServeError> {
        match self.request(&Request::Close(CloseBody { session }))? {
            Response::Closed => Ok(()),
            other => Err(unexpected("Closed", &other)),
        }
    }

    /// Inserts a graph into `dataset` on the server. `nodes` are raw node
    /// labels (index = node id), `edges` are `(u, v, label)` endpoint
    /// triples, `features` must match the dataset's feature dimensionality.
    pub fn insert(
        &mut self,
        dataset: &str,
        nodes: Vec<u32>,
        edges: Vec<(u16, u16, u32)>,
        features: Vec<f64>,
    ) -> Result<MutatedBody, ServeError> {
        let edges = edges
            .into_iter()
            .map(|(u, v, label)| WireEdge { u, v, label })
            .collect();
        match self.request(&Request::Insert(InsertBody {
            dataset: dataset.to_owned(),
            nodes,
            edges,
            features,
        }))? {
            Response::Mutated(b) => Ok(b),
            other => Err(unexpected("Mutated", &other)),
        }
    }

    /// Tombstones graph `id` in `dataset` on the server.
    pub fn remove(&mut self, dataset: &str, id: u32) -> Result<MutatedBody, ServeError> {
        match self.request(&Request::Remove(RemoveBody {
            dataset: dataset.to_owned(),
            id,
        }))? {
            Response::Mutated(b) => Ok(b),
            other => Err(unexpected("Mutated", &other)),
        }
    }

    /// Fetches the live metrics snapshot.
    pub fn stats(&mut self) -> Result<StatsBody, ServeError> {
        match self.request(&Request::Stats)? {
            Response::Stats(b) => Ok(b),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Liveness probe; `wait_ms` occupies a worker that long.
    pub fn ping(&mut self, wait_ms: u64) -> Result<Response, ServeError> {
        self.request(&Request::Ping(PingBody { wait_ms }))
    }

    /// Requests graceful shutdown.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.request(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(unexpected("ShutdownAck", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ServeError {
    ServeError::new(format!("expected {wanted}, got {got:?}"))
}

/// One streamed (or pipelined) run as observed by the client.
#[derive(Debug, Clone)]
pub struct StreamedRun {
    /// Streamed picks in emission order (empty for a non-streamed
    /// pipelined request).
    pub picks: Vec<PickBody>,
    /// The terminal frame: [`Response::AnswerEnd`] on success (or
    /// [`Response::Answer`] for a non-streamed pipelined request), an error
    /// frame otherwise.
    pub terminal: Response,
    /// Time from issuing the request to the first streamed pick.
    pub ttfp: Option<Duration>,
    /// Time from issuing the request to its terminal frame.
    pub total: Duration,
}

/// Checks that a streamed pick sequence is exactly the prefix view of its
/// terminal answer: same ids in the same order, bit-identical π trajectory,
/// and a final coverage that matches the summary.
pub fn verify_stream_consistency(picks: &[PickBody], body: &AnswerBody) -> Result<(), String> {
    if picks.len() != body.ids.len() {
        return Err(format!(
            "{} streamed picks but the answer has {} ids",
            picks.len(),
            body.ids.len()
        ));
    }
    for (i, p) in picks.iter().enumerate() {
        if p.seq != i {
            return Err(format!("pick {i} carries seq {}", p.seq));
        }
        if p.id != body.ids[i] {
            return Err(format!(
                "pick {i} chose graph {:?} but the answer has {:?}",
                p.id, body.ids[i]
            ));
        }
        if p.pi.to_bits() != body.pi_trajectory[i].to_bits() {
            return Err(format!(
                "pick {i} π = {} but the answer trajectory has {}",
                p.pi, body.pi_trajectory[i]
            ));
        }
        if p.relevant != body.relevant {
            return Err(format!(
                "pick {i} relevant = {} but the answer has {}",
                p.relevant, body.relevant
            ));
        }
    }
    if let Some(last) = picks.last() {
        if last.covered != body.covered {
            return Err(format!(
                "final pick covers {} but the answer covers {}",
                last.covered, body.covered
            ));
        }
    }
    Ok(())
}

/// A deterministic load profile: every `(connection, request)` slot maps to
/// a fixed `(θ, k)` via seed mixing, so two executions of the same spec —
/// or an offline replay — exercise exactly the same queries.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Registry name of the dataset to load-test.
    pub dataset: String,
    /// Concurrent client connections.
    pub connections: usize,
    /// Requests issued per connection.
    pub requests_per_conn: usize,
    /// θ values drawn from per request.
    pub thetas: Vec<f64>,
    /// k values drawn from per request.
    pub ks: Vec<usize>,
    /// Relevance quantile for the per-connection session.
    pub quantile: f64,
    /// Mixing seed.
    pub seed: u64,
    /// Zipf-like skew exponent over the `θ × k` combination grid. `0.0`
    /// (uniform) reproduces the historical schedule byte-exactly; larger
    /// values concentrate traffic on the first combinations — combination
    /// `i` (row-major over `thetas × ks`) is drawn with weight
    /// `1 / (i + 1)^skew`, the shape cache experiments use to model
    /// production key reuse.
    pub skew: f64,
    /// How each connection issues its schedule over the wire.
    pub mode: LoadMode,
}

/// Wire discipline of a load-harness connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadMode {
    /// Blocking runs, one in flight — the historical harness.
    #[default]
    Blocking,
    /// `depth` streamed runs ([`Request::RunStream`]) in flight per
    /// connection; picks are checked against the terminal answer and
    /// time-to-first-pick is recorded. Depth 1 is one streamed run at a
    /// time.
    Pipelined {
        /// In-flight requests per connection (clamped to at least 1).
        depth: usize,
    },
}

/// SplitMix64 finalizer: a cheap, high-quality deterministic mixer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl LoadSpec {
    /// The fixed `(θ, k)` sequence of connection `conn`. Empty when either
    /// value pool is empty.
    pub fn schedule(&self, conn: usize) -> Vec<(f64, usize)> {
        if self.thetas.is_empty() || self.ks.is_empty() {
            return Vec::new();
        }
        if self.skew > 0.0 {
            return self.schedule_skewed(conn);
        }
        (0..self.requests_per_conn)
            .map(|r| {
                let h = mix(self.seed ^ ((conn as u64) << 32) ^ (r as u64));
                let theta = self.thetas[(h % self.thetas.len().max(1) as u64) as usize];
                let k = self.ks[((h >> 32) % self.ks.len().max(1) as u64) as usize];
                (theta, k)
            })
            .collect()
    }

    /// Skewed schedule: the flattened `θ × k` grid is sampled with Zipf-like
    /// weights `1 / (i + 1)^skew` via an inverse-CDF walk over the same
    /// SplitMix64 stream the uniform path uses — still fully deterministic
    /// in `(seed, conn, request)`.
    fn schedule_skewed(&self, conn: usize) -> Vec<(f64, usize)> {
        let combos: Vec<(f64, usize)> = self
            .thetas
            .iter()
            .flat_map(|&t| self.ks.iter().map(move |&k| (t, k)))
            .collect();
        let weights: Vec<f64> = (0..combos.len())
            .map(|i| 1.0 / ((i + 1) as f64).powf(self.skew))
            .collect();
        let total: f64 = weights.iter().sum();
        (0..self.requests_per_conn)
            .map(|r| {
                let h = mix(self.seed ^ ((conn as u64) << 32) ^ (r as u64));
                let u = (h as f64 / u64::MAX as f64) * total;
                let mut acc = 0.0;
                for (i, w) in weights.iter().enumerate() {
                    acc += w;
                    if u <= acc {
                        return combos[i];
                    }
                }
                // Float-accumulation slack: u can exceed the running sum by
                // an ulp; the last combination is the correct bucket then.
                combos[combos.len() - 1]
            })
            .collect()
    }

    /// Every distinct `(θ, k)` the spec will issue, keyed by `θ.to_bits()`.
    pub fn unique_queries(&self) -> Vec<(f64, usize)> {
        let mut seen: HashMap<(u64, usize), ()> = HashMap::new();
        let mut out = Vec::new();
        for conn in 0..self.connections {
            for (theta, k) in self.schedule(conn) {
                if seen.insert((theta.to_bits(), k), ()).is_none() {
                    out.push((theta, k));
                }
            }
        }
        out
    }
}

/// One successful load-test answer.
#[derive(Debug, Clone)]
pub struct LoadAnswer {
    /// Connection index.
    pub conn: usize,
    /// Request index within the connection.
    pub req: usize,
    /// θ issued.
    pub theta: f64,
    /// k issued.
    pub k: usize,
    /// The server's answer.
    pub body: AnswerBody,
}

/// Aggregate result of a load run.
#[derive(Debug)]
pub struct LoadReport {
    /// Successful answers, ordered by `(conn, req)`.
    pub answers: Vec<LoadAnswer>,
    /// Error descriptions (empty on a clean run).
    pub errors: Vec<String>,
    /// End-to-end wall time of the whole run.
    pub wall: Duration,
    /// Client-observed per-request latencies in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Client-observed time-to-first-pick in milliseconds (pipelined mode
    /// only; empty under [`LoadMode::Blocking`]).
    pub ttfp_ms: Vec<f64>,
}

impl LoadReport {
    /// Total requests that produced an answer.
    pub fn completed(&self) -> usize {
        self.answers.len()
    }

    /// Requests per second over the whole run.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.answers.len() as f64 / secs
        }
    }

    /// Latency quantile `p` in `[0, 1]` (exact over the recorded samples).
    pub fn latency_quantile_ms(&self, p: f64) -> f64 {
        quantile(&self.latencies_ms, p)
    }

    /// Time-to-first-pick quantile `p` in `[0, 1]` over the recorded
    /// samples (0.0 when the mode streamed nothing).
    pub fn ttfp_quantile_ms(&self, p: f64) -> f64 {
        quantile(&self.ttfp_ms, p)
    }
}

fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let idx = ((p.clamp(0.0, 1.0) * (v.len() - 1) as f64).round()) as usize;
    v[idx.min(v.len() - 1)]
}

/// Runs the load profile against a live server: each connection opens its
/// own session, issues its schedule, and closes. Answers come back ordered
/// by `(conn, req)` regardless of interleaving, so the report itself is
/// deterministic when the server is.
pub fn run_load(addr: &str, spec: &LoadSpec) -> Result<LoadReport, ServeError> {
    #[derive(Default)]
    struct ConnResult {
        answers: Vec<LoadAnswer>,
        errors: Vec<String>,
        latencies_ms: Vec<f64>,
        ttfp_ms: Vec<f64>,
    }

    /// Records one pipelined completion into the result.
    fn record_streamed(
        out: &mut ConnResult,
        conn: usize,
        req: usize,
        theta: f64,
        k: usize,
        run: StreamedRun,
    ) {
        let body = match run.terminal {
            Response::AnswerEnd(b) | Response::Answer(b) => b,
            other => {
                out.errors.push(format!("conn {conn} req {req}: {other:?}"));
                return;
            }
        };
        if let Err(e) = verify_stream_consistency(&run.picks, &body) {
            out.errors
                .push(format!("conn {conn} req {req} stream mismatch: {e}"));
            return;
        }
        out.latencies_ms.push(protocol::duration_ms(run.total));
        if let Some(t) = run.ttfp {
            out.ttfp_ms.push(protocol::duration_ms(t));
        }
        out.answers.push(LoadAnswer {
            conn,
            req,
            theta,
            k,
            body,
        });
    }

    let t0 = Instant::now();
    let mut handles = Vec::new();
    for conn in 0..spec.connections {
        let addr = addr.to_owned();
        let spec = spec.clone();
        let spawned = thread::Builder::new()
            .name(format!("graphrep-load-{conn}"))
            .spawn(move || -> ConnResult {
                let mut out = ConnResult::default();
                let mut client = match Client::connect(&addr) {
                    Ok(c) => c,
                    Err(e) => {
                        out.errors.push(format!("conn {conn}: {e}"));
                        return out;
                    }
                };
                let opened = match client.open(&spec.dataset, spec.quantile) {
                    Ok(o) => o,
                    Err(e) => {
                        out.errors.push(format!("conn {conn} open: {e}"));
                        return out;
                    }
                };
                let schedule = spec.schedule(conn);
                match spec.mode {
                    LoadMode::Blocking => {
                        for (req, (theta, k)) in schedule.into_iter().enumerate() {
                            let q0 = Instant::now();
                            match client.run(opened.session, theta, k, None) {
                                Ok(Response::Answer(body)) => {
                                    out.latencies_ms.push(protocol::duration_ms(q0.elapsed()));
                                    out.answers.push(LoadAnswer {
                                        conn,
                                        req,
                                        theta,
                                        k,
                                        body,
                                    });
                                }
                                Ok(other) => {
                                    out.errors.push(format!("conn {conn} req {req}: {other:?}"))
                                }
                                Err(e) => out.errors.push(format!("conn {conn} req {req}: {e}")),
                            }
                        }
                    }
                    LoadMode::Pipelined { depth } => {
                        let depth = depth.max(1);
                        let mut req = 0usize;
                        for chunk in schedule.chunks(depth) {
                            match client.run_pipelined(opened.session, chunk, true) {
                                Ok(runs) => {
                                    for (i, run) in runs.into_iter().enumerate() {
                                        let (theta, k) = chunk[i];
                                        record_streamed(&mut out, conn, req + i, theta, k, run);
                                    }
                                }
                                Err(e) => {
                                    out.errors.push(format!("conn {conn} batch at {req}: {e}"));
                                    return out;
                                }
                            }
                            req += chunk.len();
                        }
                    }
                }
                if let Err(e) = client.close(opened.session) {
                    out.errors.push(format!("conn {conn} close: {e}"));
                }
                out
            })
            .map_err(|e| ServeError::new(format!("spawning load thread {conn}: {e}")))?;
        handles.push(spawned);
    }
    let mut answers = Vec::new();
    let mut errors = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut ttfp_ms = Vec::new();
    for h in handles {
        match h.join() {
            Ok(mut r) => {
                answers.append(&mut r.answers);
                errors.append(&mut r.errors);
                latencies_ms.append(&mut r.latencies_ms);
                ttfp_ms.append(&mut r.ttfp_ms);
            }
            Err(_) => errors.push("a load thread panicked".to_owned()),
        }
    }
    answers.sort_by_key(|a| (a.conn, a.req));
    Ok(LoadReport {
        answers,
        errors,
        wall: t0.elapsed(),
        latencies_ms,
        ttfp_ms,
    })
}

/// Computes the offline ground truth for `spec` on an already-loaded
/// dataset: one shared session per quantile, `QuerySession::run` per unique
/// `(θ, k)`. Keys are `(θ.to_bits(), k)`.
pub fn offline_reference(ds: &LoadedDataset, spec: &LoadSpec) -> HashMap<(u64, usize), AnswerSet> {
    let session = ds
        .index_arc()
        .start_session_shared(ds.relevant_for(spec.quantile));
    spec.unique_queries()
        .into_iter()
        .map(|(theta, k)| ((theta.to_bits(), k), session.run(theta, k).0))
        .collect()
}

/// Rebuilds the dataset at `dir` from its base snapshot and mutation log —
/// removes included — and computes [`offline_reference`] for it. It never
/// reads `<dir>/index.bin`: that is the file a server on `dir` loaded, so
/// it is under test, not ground truth. A sharded server logs to the same
/// file, so this single-index `QuerySession::run` is the ground truth for
/// either kind of server.
pub fn offline_reference_from_dir(
    dir: &Path,
    spec: &LoadSpec,
) -> Result<HashMap<(u64, usize), AnswerSet>, ServeError> {
    let logged = store::load_logged(dir)
        .map_err(|e| ServeError::new(format!("loading {}: {e}", dir.display())))?;
    let config = registry::default_index_config(&logged.data);
    let index = registry::replay(&logged, GedConfig::default(), config)?;
    let ds = LoadedDataset::from_parts(&spec.dataset, None, logged.data, index, "built".into());
    Ok(offline_reference(&ds, spec))
}

/// Checks every served answer against the offline ground truth via the
/// byte-level fingerprint. Returns how many answers were verified, or a
/// description of the first mismatch.
pub fn verify_against_offline(
    report: &LoadReport,
    reference: &HashMap<(u64, usize), AnswerSet>,
) -> Result<usize, String> {
    for a in &report.answers {
        let Some(want) = reference.get(&(a.theta.to_bits(), a.k)) else {
            return Err(format!(
                "no offline reference for θ = {}, k = {}",
                a.theta, a.k
            ));
        };
        let got = a.body.fingerprint();
        let want = format!("{want:?}");
        if got != want {
            return Err(format!(
                "conn {} req {} (θ = {}, k = {}): server answered {got} but offline run gives {want}",
                a.conn, a.req, a.theta, a.k
            ));
        }
    }
    Ok(report.answers.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> LoadSpec {
        LoadSpec {
            dataset: "d".into(),
            connections: 3,
            requests_per_conn: 8,
            thetas: vec![3.0, 4.0, 5.0],
            ks: vec![2, 4],
            quantile: 0.75,
            seed: 42,
            skew: 0.0,
            mode: LoadMode::Blocking,
        }
    }

    #[test]
    fn skewed_schedule_is_deterministic_and_concentrated() {
        let mut s = spec();
        s.skew = 1.2;
        s.requests_per_conn = 100;
        assert_eq!(s.schedule(0), s.schedule(0));
        // The head combination must dominate a uniform share (100 / 6 ≈ 17).
        let head = (s.thetas[0], s.ks[0]);
        let head_hits = (0..s.connections)
            .flat_map(|c| s.schedule(c))
            .filter(|&(t, k)| t.to_bits() == head.0.to_bits() && k == head.1)
            .count();
        assert!(
            head_hits > (s.connections * s.requests_per_conn) / s.thetas.len() / s.ks.len(),
            "skew 1.2 must over-sample the head combination, got {head_hits}"
        );
        // Every drawn combination is from the grid, and unique_queries
        // still covers the skewed schedule.
        let uniq = s.unique_queries();
        for conn in 0..s.connections {
            for (theta, k) in s.schedule(conn) {
                assert!(uniq
                    .iter()
                    .any(|&(t, kk)| t.to_bits() == theta.to_bits() && kk == k));
            }
        }
    }

    #[test]
    fn zero_skew_keeps_the_historical_uniform_schedule() {
        // The uniform path must stay byte-exact so existing expectations
        // (and cross-version replay comparisons) hold.
        let s = spec();
        let first: Vec<(u64, usize)> = s
            .schedule(0)
            .into_iter()
            .map(|(t, k)| (t.to_bits(), k))
            .collect();
        let conn = 0u64;
        let h = mix(s.seed ^ conn);
        let want0 = (
            s.thetas[(h % 3) as usize].to_bits(),
            s.ks[((h >> 32) % 2) as usize],
        );
        assert_eq!(first[0], want0);
    }

    #[test]
    fn schedules_are_deterministic_and_seeded() {
        let s = spec();
        assert_eq!(s.schedule(0), s.schedule(0));
        assert_ne!(s.schedule(0), s.schedule(1), "connections must differ");
        let mut other = spec();
        other.seed = 43;
        assert_ne!(s.schedule(0), other.schedule(0), "seed must matter");
    }

    #[test]
    fn unique_queries_covers_the_schedule() {
        let s = spec();
        let uniq = s.unique_queries();
        assert!(!uniq.is_empty());
        assert!(uniq.len() <= s.thetas.len() * s.ks.len());
        for conn in 0..s.connections {
            for (theta, k) in s.schedule(conn) {
                assert!(uniq
                    .iter()
                    .any(|&(t, kk)| t.to_bits() == theta.to_bits() && kk == k));
            }
        }
    }

    #[test]
    fn report_quantiles() {
        let r = LoadReport {
            answers: vec![],
            errors: vec![],
            wall: Duration::from_secs(1),
            latencies_ms: vec![5.0, 1.0, 9.0, 3.0],
            ttfp_ms: vec![2.0, 0.5],
        };
        assert_eq!(r.latency_quantile_ms(0.0), 1.0);
        assert_eq!(r.latency_quantile_ms(1.0), 9.0);
        assert_eq!(r.latency_quantile_ms(0.5), 5.0);
    }
}
