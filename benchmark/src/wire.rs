//! The one client connection every workload drives, with each call timed and
//! (in traced rounds) recorded as a span.
//!
//! One connection, closed loop: with two client connections on two cores
//! cache-hit `qps` swung ±16 % between identical rounds, with one ±5 %.

use crate::fixture::{PoolGraph, FIRST_K, QUANTILE};
use crate::measure::{median, ms};
use crate::metrics::Values;
use crate::trace::Trace;
use graphrep_serve::{
    verify_stream_consistency, AnswerBody, Client, DatasetRegistry, MutatedBody, PickBody,
    Response, ServeConfig, ServerHandle, StatsBody,
};
use std::time::{Duration, Instant};

/// Registry name of the dataset every workload serves.
pub const DATASET: &str = "bench";

/// Starts a default-configured server over `registry`.
pub fn start_server(registry: DatasetRegistry) -> Result<ServerHandle, String> {
    graphrep_serve::start(ServeConfig::default(), registry).map_err(|e| format!("start: {e}"))
}

/// One observed run.
#[derive(Debug)]
pub struct RunObs {
    /// The answer.
    pub body: AnswerBody,
    /// Streamed picks (empty for a plain run).
    pub picks: Vec<PickBody>,
    /// Request written → terminal frame read.
    pub total: Duration,
    /// Request written → first pick (streamed) or → the answer (plain).
    pub ttfp: Duration,
}

impl RunObs {
    /// Round trip minus the server's own run time, in milliseconds.
    pub fn overhead_ms(&self) -> f64 {
        ms(self.total) - self.body.wall_ms
    }

    /// Checks the answer against the offline reference fingerprint and, for
    /// a streamed run, the pick stream against the answer. Called after the
    /// round's clock has stopped.
    pub fn verify(&self, reference: &str) -> Result<(), String> {
        if !self.picks.is_empty() {
            verify_stream_consistency(&self.picks, &self.body)?;
        }
        let got = self.body.fingerprint();
        if got == reference {
            Ok(())
        } else {
            Err(format!("answer {got} differs from offline {reference}"))
        }
    }
}

/// The benchmark's client connection.
#[derive(Debug)]
pub struct Conn {
    client: Client,
}

impl Conn {
    /// Connects and waits for the first reply. The returned duration is the
    /// accept wait: the blocking acceptor polls every 20 ms, so this reads
    /// 20 ms or 0.5 ms purely by thread-start phase. It is reported as its
    /// own layer metric and kept out of every end-to-end number.
    pub fn connect(addr: &str, tr: &mut Trace, parent: u32) -> Result<(Self, Duration), String> {
        let t0 = Instant::now();
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        match client.ping(0).map_err(|e| e.to_string())? {
            Response::Pong => {}
            other => return Err(format!("ping answered {other:?}")),
        }
        let d = t0.elapsed();
        tr.record("connect", parent, 0, t0, d);
        Ok((Self { client }, d))
    }

    /// Opens a session at `quantile`.
    pub fn open(
        &mut self,
        quantile: f64,
        tr: &mut Trace,
        parent: u32,
    ) -> Result<(u64, Duration), String> {
        let t0 = Instant::now();
        let opened = self
            .client
            .open(DATASET, quantile)
            .map_err(|e| format!("open: {e}"))?;
        let d = t0.elapsed();
        tr.record("open", parent, 0, t0, d);
        Ok((opened.session, d))
    }

    /// One `(θ, k)` run. Streamed runs record a `first_pick` child span.
    pub fn run(
        &mut self,
        session: u64,
        theta: f64,
        k: usize,
        streamed: bool,
        tr: &mut Trace,
        parent: u32,
    ) -> Result<RunObs, String> {
        let t0 = Instant::now();
        if !streamed {
            let body = self
                .client
                .run_answer(session, theta, k)
                .map_err(|e| format!("run: {e}"))?;
            let total = t0.elapsed();
            if tr.on {
                let req = tr.request();
                tr.record("run", parent, req, t0, total);
            }
            return Ok(RunObs {
                body,
                picks: Vec::new(),
                total,
                ttfp: total,
            });
        }
        let run = self
            .client
            .run_streaming(session, theta, k, None)
            .map_err(|e| format!("run_stream: {e}"))?;
        let body = match run.terminal {
            Response::AnswerEnd(b) => b,
            other => return Err(format!("run_stream ended with {other:?}")),
        };
        let ttfp = run.ttfp.ok_or("streamed run delivered no pick")?;
        if tr.on {
            let req = tr.request();
            let id = tr.record("run", parent, req, t0, run.total);
            tr.record("first_pick", id, req, t0, ttfp);
        }
        Ok(RunObs {
            body,
            picks: run.picks,
            total: run.total,
            ttfp,
        })
    }

    /// A client without a session gets its first answer: open at the default
    /// quantile, one streamed run at the default θ (streamed runs bypass the
    /// answer cache, so every repetition does the same work), close. Returns
    /// the run and how long the open took.
    pub fn first_answer(
        &mut self,
        theta0: f64,
        tr: &mut Trace,
        parent: u32,
    ) -> Result<(RunObs, Duration), String> {
        let (sid, open) = self.open(QUANTILE, tr, parent)?;
        let obs = self.run(sid, theta0, FIRST_K, true, tr, parent)?;
        self.close(sid, tr, parent)?;
        Ok((obs, open))
    }

    /// Closes a session.
    pub fn close(&mut self, session: u64, tr: &mut Trace, parent: u32) -> Result<(), String> {
        let t0 = Instant::now();
        self.client
            .close(session)
            .map_err(|e| format!("close: {e}"))?;
        tr.record("close", parent, 0, t0, t0.elapsed());
        Ok(())
    }

    /// Inserts a pool graph.
    pub fn insert(
        &mut self,
        g: &PoolGraph,
        tr: &mut Trace,
        parent: u32,
    ) -> Result<(MutatedBody, Duration), String> {
        let t0 = Instant::now();
        let body = self
            .client
            .insert(
                DATASET,
                g.nodes.clone(),
                g.edges.clone(),
                g.features.clone(),
            )
            .map_err(|e| format!("insert: {e}"))?;
        let d = t0.elapsed();
        tr.record("insert", parent, 0, t0, d);
        Ok((body, d))
    }

    /// Tombstones graph `id`.
    pub fn remove(
        &mut self,
        id: u32,
        tr: &mut Trace,
        parent: u32,
    ) -> Result<(MutatedBody, Duration), String> {
        let t0 = Instant::now();
        let body = self
            .client
            .remove(DATASET, id)
            .map_err(|e| format!("remove: {e}"))?;
        let d = t0.elapsed();
        tr.record("remove", parent, 0, t0, d);
        Ok((body, d))
    }

    /// One `ping(0)` round trip.
    pub fn ping(&mut self) -> Result<Duration, String> {
        let t0 = Instant::now();
        self.client.ping(0).map_err(|e| format!("ping: {e}"))?;
        Ok(t0.elapsed())
    }

    /// The server's metrics snapshot.
    pub fn stats(&mut self) -> Result<StatsBody, String> {
        self.client.stats().map_err(|e| format!("stats: {e}"))
    }

    /// Requests shutdown and waits until the server has drained.
    pub fn shutdown(
        mut self,
        handle: ServerHandle,
        tr: &mut Trace,
        parent: u32,
    ) -> Result<(), String> {
        let t0 = Instant::now();
        self.client
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        drop(self);
        handle.wait();
        tr.record("shutdown", parent, 0, t0, t0.elapsed());
        Ok(())
    }
}

/// Server-side counters of the benchmark dataset, summed over the `stats`
/// snapshots absorbed (one per server lifetime).
#[derive(Debug, Default, Clone)]
pub struct Counters {
    engine_calls: u64,
    cache_hits: u64,
    tier_settled: u64,
    ub_accepts: u64,
    answer_hits: u64,
    answer_lookups: u64,
    view_hits: u64,
    view_lookups: u64,
    errors: u64,
    overloaded: u64,
    deadline_exceeded: u64,
    /// The run endpoint's p50 bucket bound, one per snapshot.
    run_p50_ms: Vec<f64>,
}

fn share(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

impl Counters {
    /// Adds one snapshot. `streamed` picks the endpoint whose latency
    /// histogram is the workload's.
    pub fn absorb(&mut self, stats: &StatsBody, streamed: bool) {
        if let Some(d) = stats.datasets.iter().find(|d| d.name == DATASET) {
            let o = &d.oracle;
            self.engine_calls += o.engine_calls;
            self.cache_hits += o.cache_hits;
            self.ub_accepts += o.ub_accepts;
            self.tier_settled += o.size_rejects
                + o.label_rejects
                + o.degree_rejects
                + o.vantage_lb_rejects
                + o.vantage_ub_accepts;
            self.answer_hits += d.answer_cache.hits;
            self.answer_lookups += d.answer_cache.lookups;
            self.view_hits += d.view_store.hits;
            self.view_lookups += d.view_store.lookups;
        }
        let endpoint = if streamed { "run_stream" } else { "run" };
        for e in &stats.endpoints {
            self.errors += e.errors;
            self.overloaded += e.overloaded;
            self.deadline_exceeded += e.deadline_exceeded;
            if e.endpoint == endpoint {
                self.run_p50_ms.push(e.p50_ms);
            }
        }
    }

    /// What happened after `earlier` was taken on the same server.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            engine_calls: self.engine_calls - earlier.engine_calls,
            cache_hits: self.cache_hits - earlier.cache_hits,
            tier_settled: self.tier_settled - earlier.tier_settled,
            ub_accepts: self.ub_accepts - earlier.ub_accepts,
            answer_hits: self.answer_hits - earlier.answer_hits,
            answer_lookups: self.answer_lookups - earlier.answer_lookups,
            view_hits: self.view_hits - earlier.view_hits,
            view_lookups: self.view_lookups - earlier.view_lookups,
            errors: self.errors - earlier.errors,
            overloaded: self.overloaded - earlier.overloaded,
            deadline_exceeded: self.deadline_exceeded - earlier.deadline_exceeded,
            run_p50_ms: self.run_p50_ms.clone(),
        }
    }

    /// Uncached oracle decisions (the product's `engine_calls`, filter-tier
    /// rejects included).
    pub fn engine_calls(&self) -> u64 {
        self.engine_calls
    }

    /// Share of answer-cache lookups that hit.
    pub fn answer_hit_share(&self) -> f64 {
        share(self.answer_hits, self.answer_lookups)
    }

    /// Error frames, admission refusals and missed deadlines.
    pub fn refusals(&self) -> u64 {
        self.errors + self.overloaded + self.deadline_exceeded
    }

    /// The wire-side layer metrics: `self` covers the timed rounds over
    /// `ops` operations, `lifetime` the servers' whole lives (warm-up
    /// included), which is where filter tiers get to decide anything.
    pub fn layers(&self, lifetime: &Counters, ops: u64) -> Values {
        let ops = ops.max(1) as f64;
        vec![
            ("ged.engine_calls_per_req", self.engine_calls as f64 / ops),
            (
                "ged.lookups_per_req",
                (self.engine_calls + self.cache_hits) as f64 / ops,
            ),
            (
                "ged.tier_reject_share",
                share(
                    lifetime.tier_settled,
                    lifetime.engine_calls + lifetime.ub_accepts,
                ),
            ),
            ("core.answer_hit_share", self.answer_hit_share()),
            (
                "core.view_hit_share",
                share(self.view_hits, self.view_lookups),
            ),
            ("serve.server_run_p50_ms", median(&lifetime.run_p50_ms)),
            ("serve.errors", lifetime.errors as f64),
            ("serve.overloaded", lifetime.overloaded as f64),
            ("serve.deadline_exceeded", lifetime.deadline_exceeded as f64),
        ]
    }
}
