//! The three workloads that drive one long-lived server: `refine_warm`,
//! `dashboard_hot` and `sharded_refine`. They differ only in what is served
//! (one index or four shards), how many sessions are open, the schedule and
//! whether runs are streamed — so they share one implementation.

use crate::fixture::{self, PoolGraph, Query, Sizes, FIRST_K, QUANTILE};
use crate::measure::{cpu_seconds, median, ms, RoundOut, Samples};
use crate::trace::Trace;
use crate::wire::{self, Conn, Counters, RunObs, DATASET};
use crate::{note, run_rounds, Outcome, Rounds, RunConfig};
use graphrep_serve::{
    registry, AnswerBody, DatasetRegistry, LoadedDataset, ServerHandle, ShardedDataset,
};
use std::sync::Arc;
use std::time::Instant;

/// What distinguishes the three workloads.
#[derive(Debug, Clone)]
struct Spec {
    name: &'static str,
    n: usize,
    /// 0 serves one NB-Index; otherwise a coordinator over this many shards.
    shards: usize,
    quantiles: Vec<f64>,
    /// `(θ / default_theta, k, session)` of every unique query.
    unique: Vec<Query>,
    /// One round: indices into `unique`, before the seed permutes them.
    schedule: Vec<usize>,
    streamed: bool,
}

fn spec(name: &str, sizes: &Sizes) -> Spec {
    // θ is stored relative to the dataset's default and scaled at set-up;
    // DudLike's default is 4.0 and the scaling keeps that out of this file.
    match name {
        "refine_warm" => {
            let unique = fixture::refine_queries(1.0, 6, sizes.refine_per_session);
            Spec {
                name: "refine_warm",
                n: sizes.big_n,
                shards: 0,
                quantiles: fixture::REFINE_QUANTILES.to_vec(),
                schedule: (0..unique.len()).collect(),
                unique,
                streamed: true,
            }
        }
        "dashboard_hot" => Spec {
            name: "dashboard_hot",
            n: sizes.big_n,
            shards: 0,
            quantiles: vec![QUANTILE],
            unique: fixture::refine_queries(1.0, 1, sizes.dash_keys),
            schedule: fixture::zipf_schedule(sizes.dash_keys, sizes.dash_ops, 1.2),
            streamed: false,
        },
        _ => {
            let unique = fixture::refine_queries(1.0, 1, sizes.shard_unique);
            Spec {
                name: "sharded_refine",
                n: sizes.small_n,
                shards: sizes.shards,
                quantiles: vec![QUANTILE],
                schedule: (0..unique.len()).collect(),
                unique,
                streamed: true,
            }
        }
    }
}

/// A set-up server with its one client connection and open sessions.
struct Fixture {
    spec: Spec,
    handle: ServerHandle,
    conn: Conn,
    sessions: Vec<u64>,
    theta0: f64,
    /// The served single-index dataset (`None` when sharded): the offline
    /// reference runs on its index so the reference pass costs no second
    /// build and no second oracle warm-up.
    single: Option<Arc<LoadedDataset>>,
    trace: Trace,
    /// Per unique query; filled by `compute_reference`.
    reference: Vec<String>,
    first_reference: String,
    /// First round of a traced pass keeps its answers for the codec probe.
    kept_answers: Vec<AnswerBody>,
}

impl Fixture {
    /// Generate + build + start + connect + open sessions + one untimed pass
    /// of the exact schedule (the first pass is 10–20 % slower: cold
    /// distance cache, lazy initialisation) + one first-answer probe.
    fn set_up(spec: &Spec, schedule: &[usize]) -> Result<Self, String> {
        let data = fixture::dataset(spec.n);
        let theta0 = data.default_theta;
        let mut reg = DatasetRegistry::new();
        let single = if spec.shards == 0 {
            reg.insert(registry::load_in_memory(DATASET, data));
            reg.get(DATASET).and_then(|e| e.as_single().cloned())
        } else {
            reg.insert_sharded(ShardedDataset::in_memory(
                DATASET,
                data,
                spec.shards,
                fixture::DATA_SEED,
            ));
            None
        };
        let handle = wire::start_server(reg)?;
        let mut trace = Trace::new();
        let (mut conn, _) = Conn::connect(&handle.addr().to_string(), &mut trace, 0)?;
        let mut sessions = Vec::with_capacity(spec.quantiles.len());
        for &q in &spec.quantiles {
            sessions.push(conn.open(q, &mut trace, 0)?.0);
        }
        let mut fx = Self {
            spec: spec.clone(),
            handle,
            conn,
            sessions,
            theta0,
            single,
            trace,
            reference: Vec::new(),
            first_reference: String::new(),
            kept_answers: Vec::new(),
        };
        for &i in schedule {
            fx.issue(i, 0)?;
        }
        fx.conn.first_answer(theta0, &mut fx.trace, 0)?;
        Ok(fx)
    }

    fn issue(&mut self, unique: usize, parent: u32) -> Result<RunObs, String> {
        let q = self.spec.unique[unique];
        self.conn.run(
            self.sessions[q.session],
            q.theta * self.theta0,
            q.k,
            self.spec.streamed,
            &mut self.trace,
            parent,
        )
    }

    /// Offline `QuerySession::run` for every unique query. A sharded
    /// workload is checked against a single index over the same data: the
    /// coordinator must answer exactly what one NB-Index answers.
    fn compute_reference(&mut self) {
        let ds = match &self.single {
            Some(ds) => Arc::clone(ds),
            None => Arc::new(registry::load_in_memory(
                "reference",
                fixture::dataset(self.spec.n),
            )),
        };
        let fingerprint = |q: f64, theta: f64, k: usize| {
            let session = ds.index_arc().start_session_shared(ds.relevant_for(q));
            let (answer, stats) = session.run(theta, k);
            AnswerBody::from_run(&answer, &stats).fingerprint()
        };
        self.reference = self
            .spec
            .unique
            .iter()
            .map(|u| fingerprint(self.spec.quantiles[u.session], u.theta * self.theta0, u.k))
            .collect();
        self.first_reference = fingerprint(QUANTILE, self.theta0, FIRST_K);
    }

    fn shut_down(mut self) -> Result<Trace, String> {
        self.conn.shutdown(self.handle, &mut self.trace, 0)?;
        Ok(self.trace)
    }
}

/// The fixture plus the seed-permuted schedule: what the round loop drives.
struct Driver {
    fx: Fixture,
    schedule: Vec<usize>,
    /// First-answer probes after each round, off the round's clock: spread
    /// over the whole run, so a burst of host noise hits a few, not all.
    first_per_round: usize,
    violations: Vec<String>,
}

impl Rounds for Driver {
    fn round(&mut self, traced: bool) -> Result<RoundOut, String> {
        let fx = &mut self.fx;
        fx.trace.on = traced;
        let span = fx.trace.begin("round", 0);
        let mut observed: Vec<(usize, Result<RunObs, String>)> =
            Vec::with_capacity(self.schedule.len());
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        for &i in &self.schedule {
            // An error frame fails the operation, not the run.
            observed.push((i, fx.issue(i, span)));
        }
        let wall = t0.elapsed();
        let cpu_s = cpu_seconds() - cpu0;
        fx.trace.end(span);
        fx.trace.on = false;

        let mut out = RoundOut {
            wall,
            rate_wall: wall,
            cpu_s,
            attempted: observed.len() as u64,
            ..RoundOut::default()
        };
        let keep = traced && fx.kept_answers.is_empty();
        for (i, obs) in observed {
            let obs = match obs {
                Ok(o) => o,
                Err(e) => {
                    note(&mut self.violations, format!("{}: {e}", fx.spec.name));
                    continue;
                }
            };
            out.samples.run_ms.push(ms(obs.total));
            out.samples.ttfp_ms.push(ms(obs.ttfp));
            out.samples.overhead_ms.push(obs.overhead_ms());
            match obs.verify(&fx.reference[i]) {
                Ok(()) => {
                    out.verified += 1;
                    out.rate_ops += 1;
                }
                Err(e) => note(&mut self.violations, e),
            }
            if obs.body.shard_count != fx.spec.shards {
                note(
                    &mut self.violations,
                    format!(
                        "answer crossed {} shards, expected {}",
                        obs.body.shard_count, fx.spec.shards
                    ),
                );
            }
            out.fingerprints.push(obs.body.fingerprint());
            if keep && fx.kept_answers.len() < 64 {
                fx.kept_answers.push(obs.body);
            }
        }
        fx.trace.on = traced;
        for _ in 0..self.first_per_round {
            out.attempted += 1;
            let (obs, open) = fx.conn.first_answer(fx.theta0, &mut fx.trace, 0)?;
            out.samples.first_answer_ms.push(ms(open) + ms(obs.total));
            out.samples.open_ms.push(ms(open));
            match obs.verify(&fx.first_reference) {
                Ok(()) => out.verified += 1,
                Err(e) => note(&mut self.violations, e),
            }
        }
        fx.trace.on = false;
        Ok(out)
    }
}

/// What the mutation tails of all set-up fixtures add up to.
#[derive(Default)]
struct Tails {
    /// Position by position, the fastest replica.
    best: Samples,
    attempted: u64,
    failed: u64,
}

impl Fixture {
    /// Inserts the pool, then removes it again. Mutations bump the epoch and
    /// drop both caches, so this cannot sit between rounds; it runs on each
    /// set-up fixture just before it is shut down (off the set-up clock),
    /// which gives every insert as many replicas as there are set-ups.
    fn tail(
        &mut self,
        pool: &[PoolGraph],
        traced: bool,
        tails: &mut Tails,
        violations: &mut Vec<String>,
    ) -> Result<(), String> {
        self.trace.on = traced;
        let span = self.trace.begin("tail", 0);
        let mut s = Samples::default();
        let mut live = self.spec.n;
        let mut check = |acked: usize, expected: usize| {
            tails.attempted += 1;
            if acked != expected {
                tails.failed += 1;
                note(
                    violations,
                    format!("a mutation left {acked} graphs live, expected {expected}"),
                );
            }
        };
        let mut ids = Vec::with_capacity(pool.len());
        for g in pool {
            let (ack, took) = self.conn.insert(g, &mut self.trace, span)?;
            s.insert_ms.push(ms(took));
            live += 1;
            check(ack.live, live);
            ids.push(ack.id);
        }
        for id in ids {
            let (ack, took) = self.conn.remove(id, &mut self.trace, span)?;
            s.remove_ms.push(ms(took));
            live -= 1;
            check(ack.live, live);
        }
        self.trace.end(span);
        self.trace.on = false;
        tails.best.keep_best(&s);
        Ok(())
    }
}

/// The conditions that make each workload the workload it claims to be.
fn steady_state(spec: &Spec, rounds: &Counters, ops: u64, violations: &mut Vec<String>) {
    let hits = rounds.answer_hit_share();
    match spec.name {
        "refine_warm" => {
            if hits > 0.01 {
                violations.push(format!("refine_warm hit the answer cache ({hits})"));
            }
            if rounds.engine_calls() > 0 {
                violations.push(format!(
                    "refine_warm oracle still cold: {} engine calls over {ops} requests",
                    rounds.engine_calls()
                ));
            }
        }
        "dashboard_hot" if hits < 0.99 => {
            violations.push(format!("dashboard_hot answer hit share {hits}"));
        }
        _ => {}
    }
    if rounds.refusals() > 0 {
        violations.push("the server counted errors, refusals or missed deadlines".to_owned());
    }
}

/// Runs one of the three workloads.
pub fn run(name: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    let spec = spec(name, &cfg.sizes);
    let mut out = Outcome::begin();
    let mut schedule = spec.schedule.clone();
    fixture::permute(&mut schedule, cfg.seed, 1);
    // The tail's insert order is the same for every seed: which insert
    // trips the rebuild policy depends on the order, and a tail of a dozen
    // inserts is too short to average that out.
    let pool = fixture::insert_pool(spec.n, cfg.sizes.tail_inserts);

    // The whole set-up, several times; the last one is measured on.
    let mut setup_times = Vec::with_capacity(cfg.setup_reps);
    let mut tails = Tails::default();
    let mut violations = Vec::new();
    let mut fx: Option<Fixture> = None;
    for _ in 0..cfg.setup_reps.max(1) {
        if let Some(mut old) = fx.take() {
            old.tail(&pool, false, &mut tails, &mut violations)?;
            old.shut_down()?;
        }
        let t0 = Instant::now();
        fx = Some(Fixture::set_up(&spec, &schedule)?);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let mut fx = fx.ok_or("no set-up ran")?;
    fx.compute_reference();

    let mut d = Driver {
        fx,
        schedule,
        first_per_round: cfg.sizes.first_per_round,
        violations,
    };
    let (mut before, mut after) = (Counters::default(), Counters::default());
    before.absorb(&d.fx.conn.stats()?, spec.streamed);
    let mut timed = run_rounds(&mut d, cfg.budget, cfg.trace)?;
    after.absorb(&d.fx.conn.stats()?, spec.streamed);
    let rounds = after.since(&before);
    steady_state(&spec, &rounds, timed.attempted, &mut d.violations);
    let round_ops = timed.attempted;
    d.fx.tail(&pool, cfg.trace, &mut tails, &mut d.violations)?;
    timed.best.insert_ms = tails.best.insert_ms;
    timed.best.remove_ms = tails.best.remove_ms;
    timed.attempted += tails.attempted;
    timed.failed += tails.failed;

    out.schedule_digest = fixture::digest(&[
        format!("{:?}", d.schedule),
        format!("{:?}", spec.unique),
        format!("{:?}", pool.iter().map(|g| &g.nodes).collect::<Vec<_>>()),
    ]);
    if cfg.trace {
        let mut wire = rounds.layers(&after, round_ops);
        let pings: Vec<f64> = (0..200)
            .map(|_| d.fx.conn.ping().map(|t| ms(t) * 1e3))
            .collect::<Result<_, _>>()?;
        wire.push(("serve.ping_rtt_us", median(&pings)));
        let answers = std::mem::take(&mut d.fx.kept_answers);
        let trace = d.fx.shut_down()?;
        out.fill_traced(name, &cfg.sizes, &timed, wire, &answers, trace)?;
    } else {
        d.fx.shut_down()?;
        out.fill_plain(&setup_times, &timed)?;
    }
    out.violations = d.violations;
    Ok(out)
}
