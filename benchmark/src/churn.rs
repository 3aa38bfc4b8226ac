//! `restart_churn`: the only workload where writes sit beside reads and the
//! distance oracle is cold. Every round restores the dataset directory from
//! a pristine copy and replays the same script of restart epochs, so rounds
//! do identical work and policy rebuilds stall the same step every time.
//!
//! One epoch: open the dataset from disk → start a server → connect (accept
//! wait, its own layer metric) → open a session and get a first answer →
//! three steps of [insert a pool graph; open a session; four runs; close;
//! remove the oldest inserted graph once eight are live] → a probe answer →
//! shutdown. The probe must equal the first answer after the next reopen.

use crate::fixture::{self, PoolGraph, Sizes, FIRST_K, QUANTILE};
use crate::measure::{cpu_seconds, median, ms, RoundOut};
use crate::scratch::{copy_dir, Scratch};
use crate::trace::Trace;
use crate::wire::{self, Conn, Counters, DATASET};
use crate::{note, run_rounds, Outcome, Rounds, RunConfig};
use graphrep_core::NbIndex;
use graphrep_datagen::store;
use graphrep_ged::GedConfig;
use graphrep_serve::{registry, AnswerBody, DatasetRegistry, LoadedDataset};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const STEPS_PER_EPOCH: usize = 3;
const RUNS_PER_STEP: usize = 4;
const LIVE_INSERTS: usize = 8;

/// One step of the round script. The wire round and the offline mirror
/// interpret the same list, so they cannot drift apart.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    Reopen,
    FirstAnswer,
    Insert(usize),
    OpenSession,
    Run { theta: f64, k: usize },
    CloseSession,
    RemoveOldest,
    Probe,
    Shutdown,
}

/// The round script. It is the same under every seed: the oracle starts
/// cold in every epoch and every insert changes the database, so what an
/// operation costs depends on everything before it — permuting the inserts
/// or moving a wide-θ run onto a cold session moved `run_p50_ms` by 30 %
/// between seeds. Ten seeds are ten replicas of this workload. θ spreads
/// evenly over `[0.55, 1.55]` of the default (in an order that scatters it
/// over the round) so the latency quantiles do not sit on the edge between
/// two clusters of equal queries.
fn script(epochs: usize) -> Vec<Ev> {
    let steps = epochs * STEPS_PER_EPOCH;
    let runs = steps * RUNS_PER_STEP;
    let queries: Vec<Ev> = (0..runs)
        .map(|i| Ev::Run {
            theta: 0.55 + ((i * 19) % runs) as f64 / runs as f64,
            k: 2 + (i * 7) % 12,
        })
        .collect();
    let mut queries = queries.into_iter();
    let mut out = Vec::new();
    let mut live = 0usize;
    for e in 0..epochs {
        out.extend([Ev::Reopen, Ev::FirstAnswer]);
        for s in 0..STEPS_PER_EPOCH {
            out.extend([Ev::Insert(e * STEPS_PER_EPOCH + s), Ev::OpenSession]);
            live += 1;
            out.extend(queries.by_ref().take(RUNS_PER_STEP));
            out.push(Ev::CloseSession);
            if live > LIVE_INSERTS {
                out.push(Ev::RemoveOldest);
                live -= 1;
            }
        }
        out.extend([Ev::Probe, Ev::Shutdown]);
    }
    out
}

/// What the offline mirror answered: one fingerprint per answering event
/// and one live count per mutation, in script order.
#[derive(Debug, Default)]
struct Reference {
    answers: Vec<String>,
    live: Vec<usize>,
}

fn offline_answer(ds: &LoadedDataset, quantile: f64, theta: f64, k: usize) -> String {
    let session = ds
        .index_arc()
        .start_session_shared(ds.relevant_for(quantile));
    let (answer, stats) = session.run(theta, k);
    AnswerBody::from_run(&answer, &stats).fingerprint()
}

/// Replays the script against a dataset that is never restarted: answers
/// after a reopen must equal answers of the process that never went away.
fn mirror(dir: &Path, script: &[Ev], pool: &[PoolGraph]) -> Result<Reference, String> {
    let ds = LoadedDataset::open("mirror", dir, false).map_err(|e| e.to_string())?;
    let theta0 = ds.default_theta();
    let mut r = Reference::default();
    let mut inserted = VecDeque::new();
    for ev in script {
        match *ev {
            Ev::FirstAnswer | Ev::Probe => {
                r.answers
                    .push(offline_answer(&ds, QUANTILE, theta0, FIRST_K));
            }
            Ev::Run { theta, k } => {
                r.answers
                    .push(offline_answer(&ds, QUANTILE, theta * theta0, k));
            }
            Ev::Insert(i) => {
                let g = &pool[i];
                let receipt = ds
                    .insert_graph(g.graph.clone(), g.features.clone())
                    .map_err(|e| e.to_string())?;
                inserted.push_back(receipt.id);
                r.live.push(receipt.live);
            }
            Ev::RemoveOldest => {
                let id = inserted
                    .pop_front()
                    .ok_or("script removes before inserting")?;
                let receipt = ds.remove_graph(id).map_err(|e| e.to_string())?;
                r.live.push(receipt.live);
            }
            Ev::Reopen | Ev::OpenSession | Ev::CloseSession | Ev::Shutdown => {}
        }
    }
    Ok(r)
}

/// What the restarts add to the shared server counters.
#[derive(Debug, Default)]
struct Totals {
    /// Summed over every epoch's `stats` snapshot, taken just before
    /// shutdown: each server's whole life falls inside a timed round.
    server: Counters,
    ping_us: Vec<f64>,
    accept_ms: Vec<f64>,
    rebuilt: u64,
    mutations: u64,
}

struct Driver {
    _scratch: Scratch,
    pristine: PathBuf,
    work: PathBuf,
    pool: Vec<PoolGraph>,
    script: Vec<Ev>,
    reference: Option<Reference>,
    trace: Trace,
    violations: Vec<String>,
    totals: Totals,
    /// Graph ids removed during the most recent round.
    removed: Vec<u32>,
    /// Answers of the first traced round, for the codec probe.
    kept_answers: Vec<AnswerBody>,
}

impl Driver {
    /// Generate + save + build + persist + one untimed round.
    fn set_up(sizes: &Sizes, rep: usize) -> Result<Self, String> {
        let scratch = Scratch::new(&format!("churn{rep}"))?;
        let pristine = scratch.0.join("pristine");
        let work = scratch.0.join("work");
        let data = fixture::dataset(sizes.small_n);
        store::save(&data, &pristine).map_err(|e| e.to_string())?;
        let built = LoadedDataset::open(DATASET, &pristine, true).map_err(|e| e.to_string())?;
        if built.index_source() != "built" {
            return Err(format!("pristine index was {}", built.index_source()));
        }
        drop(built);
        let script = script(sizes.churn_epochs);
        let mut d = Self {
            _scratch: scratch,
            pristine,
            work,
            pool: fixture::insert_pool(sizes.small_n, sizes.churn_epochs * STEPS_PER_EPOCH),
            script,
            reference: None,
            trace: Trace::new(),
            violations: Vec::new(),
            totals: Totals::default(),
            removed: Vec::new(),
            kept_answers: Vec::new(),
        };
        d.round(false)?;
        d.totals = Totals::default();
        if let Some(v) = d.violations.first() {
            return Err(format!("warm-up round: {v}"));
        }
        Ok(d)
    }

    /// The state the last round left on disk answers exactly like an index
    /// built from scratch over the same graphs.
    fn verify_final_state(&mut self) -> Result<(u64, u64), String> {
        let ds = LoadedDataset::open(DATASET, &self.work, false).map_err(|e| e.to_string())?;
        if ds.index_source() != "loaded" {
            note(
                &mut self.violations,
                format!("final state reopened as {}", ds.index_source()),
            );
        }
        let data = store::load(&self.work).map_err(|e| e.to_string())?;
        let fresh = NbIndex::build(
            data.db.oracle(GedConfig::default()),
            registry::default_index_config(&data),
        );
        let theta0 = data.default_theta;
        let (mut attempted, mut verified) = (0, 0);
        for q in [0.5, 0.65, 0.8, 0.9] {
            let mut relevant = ds.relevant_for(q);
            relevant.retain(|id| !self.removed.contains(id));
            let session = fresh.start_session(relevant);
            for (rel, k) in [(0.6, 3), (0.9, 8), (1.2, 12), (1.5, 20)] {
                attempted += 1;
                let (want, _) = session.run(rel * theta0, k);
                let got = offline_answer(&ds, q, rel * theta0, k);
                if got == format!("{want:?}") {
                    verified += 1;
                } else {
                    note(
                        &mut self.violations,
                        format!("final state diverges at q={q} θ={rel}·θ₀ k={k}"),
                    );
                }
            }
        }
        Ok((attempted, verified))
    }
}

impl Rounds for Driver {
    fn round(&mut self, traced: bool) -> Result<RoundOut, String> {
        copy_dir(&self.pristine, &self.work)?;
        self.removed.clear();
        self.trace.on = traced;
        let round_span = self.trace.begin("round", 0);
        let mut out = RoundOut::default();
        let mut notes: Vec<String> = Vec::new();
        // (answer index, observation) pairs verified after the clock stops.
        let mut answers = Vec::new();
        let mut live_acks = Vec::new();
        let mut inserted: VecDeque<u32> = VecDeque::new();
        let mut server = None;
        let mut session = 0u64;
        let mut theta0 = 0.0;
        let mut open_start = Duration::ZERO;
        let mut mixed_from = Instant::now();
        let mut last_probe: Option<String> = None;
        let mut epoch_span = 0;
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        for ev in self.script.clone() {
            let tr = &mut self.trace;
            match ev {
                Ev::Reopen => {
                    epoch_span = tr.begin("epoch", round_span);
                    let t = Instant::now();
                    let ds = LoadedDataset::open(DATASET, &self.work, false)
                        .map_err(|e| e.to_string())?;
                    tr.record("registry_open", epoch_span, 0, t, t.elapsed());
                    if ds.index_source() != "loaded" {
                        notes.push(format!("reopen {}", ds.index_source()));
                    }
                    theta0 = ds.default_theta();
                    let mut reg = DatasetRegistry::new();
                    reg.insert(ds);
                    let t_start = Instant::now();
                    let handle = wire::start_server(reg)?;
                    tr.record("start", epoch_span, 0, t_start, t_start.elapsed());
                    open_start = t.elapsed();
                    let (conn, accept) = Conn::connect(&handle.addr().to_string(), tr, epoch_span)?;
                    self.totals.accept_ms.push(ms(accept));
                    server = Some((handle, conn));
                }
                Ev::FirstAnswer | Ev::Probe => {
                    let (_, conn) = server.as_mut().ok_or("script answers before reopening")?;
                    if ev == Ev::Probe {
                        out.rate_wall += mixed_from.elapsed();
                    }
                    let (obs, opened) = conn.first_answer(theta0, tr, epoch_span)?;
                    let fp = obs.body.fingerprint();
                    if ev == Ev::FirstAnswer {
                        // Reopen + start + open session + run; the accept
                        // wait in between is excluded.
                        out.samples
                            .first_answer_ms
                            .push(ms(open_start) + ms(opened) + ms(obs.total));
                        if last_probe.as_ref().is_some_and(|p| *p != fp) {
                            notes.push("answer changed across a restart".to_owned());
                        }
                        mixed_from = Instant::now();
                    } else {
                        last_probe = Some(fp);
                        for _ in 0..10 {
                            self.totals.ping_us.push(ms(conn.ping()?) * 1e3);
                        }
                    }
                    answers.push((obs, false));
                }
                Ev::Insert(i) => {
                    let (_, conn) = server.as_mut().ok_or("script inserts before reopening")?;
                    let (ack, took) = conn.insert(&self.pool[i], tr, epoch_span)?;
                    out.samples.insert_ms.push(ms(took));
                    inserted.push_back(ack.id);
                    live_acks.push(ack.live);
                    self.totals.mutations += 1;
                    self.totals.rebuilt += u64::from(ack.rebuilt);
                }
                Ev::RemoveOldest => {
                    let (_, conn) = server.as_mut().ok_or("script removes before reopening")?;
                    let id = inserted
                        .pop_front()
                        .ok_or("script removes before inserting")?;
                    let (ack, took) = conn.remove(id, tr, epoch_span)?;
                    out.samples.remove_ms.push(ms(took));
                    live_acks.push(ack.live);
                    self.removed.push(id);
                    self.totals.mutations += 1;
                    self.totals.rebuilt += u64::from(ack.rebuilt);
                }
                Ev::OpenSession => {
                    let (_, conn) = server.as_mut().ok_or("script opens before reopening")?;
                    let (sid, took) = conn.open(QUANTILE, tr, epoch_span)?;
                    out.samples.open_ms.push(ms(took));
                    session = sid;
                }
                Ev::Run { theta, k } => {
                    let (_, conn) = server.as_mut().ok_or("script runs before reopening")?;
                    let obs = conn.run(session, theta * theta0, k, true, tr, epoch_span)?;
                    answers.push((obs, true));
                }
                Ev::CloseSession => {
                    let (_, conn) = server.as_mut().ok_or("script closes before reopening")?;
                    conn.close(session, tr, epoch_span)?;
                }
                Ev::Shutdown => {
                    let (handle, mut conn) =
                        server.take().ok_or("script shuts down before reopening")?;
                    self.totals.server.absorb(&conn.stats()?, true);
                    conn.shutdown(handle, tr, epoch_span)?;
                    tr.end(epoch_span);
                }
            }
        }
        out.wall = t0.elapsed();
        out.cpu_s = cpu_seconds() - cpu0;
        self.trace.end(round_span);
        self.trace.on = false;

        // Verification, off the clock.
        out.attempted = (answers.len() + live_acks.len()) as u64;
        if traced && self.kept_answers.is_empty() {
            self.kept_answers = answers
                .iter()
                .take(64)
                .map(|(o, _)| o.body.clone())
                .collect();
        }
        for (i, (obs, in_mixed_phase)) in answers.iter().enumerate() {
            if *in_mixed_phase {
                out.samples.run_ms.push(ms(obs.total));
                out.samples.ttfp_ms.push(ms(obs.ttfp));
                out.samples.overhead_ms.push(obs.overhead_ms());
            }
            out.fingerprints.push(obs.body.fingerprint());
            // The warm-up round of a set-up runs before the mirror exists.
            let ok = self
                .reference
                .as_ref()
                .is_none_or(|r| obs.verify(&r.answers[i]).map_err(|e| notes.push(e)).is_ok());
            if ok {
                out.verified += 1;
                out.rate_ops += u64::from(*in_mixed_phase);
            }
        }
        for (i, &live) in live_acks.iter().enumerate() {
            let ok = self.reference.as_ref().is_none_or(|r| live == r.live[i]);
            if ok {
                out.verified += 1;
                out.rate_ops += 1;
            } else {
                notes.push(format!("mutation {i} left {live} graphs live"));
            }
        }
        for n in notes {
            note(&mut self.violations, n);
        }
        Ok(out)
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::begin();
    let mut setup_times = Vec::with_capacity(cfg.setup_reps);
    let mut driver = None;
    for rep in 0..cfg.setup_reps.max(1) {
        drop(driver.take());
        let t0 = Instant::now();
        driver = Some(Driver::set_up(&cfg.sizes, rep)?);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let mut d = driver.ok_or("no set-up ran")?;
    let mirror_dir = d.pristine.with_file_name("mirror");
    copy_dir(&d.pristine, &mirror_dir)?;
    d.reference = Some(mirror(&mirror_dir, &d.script, &d.pool)?);

    let mut timed = run_rounds(&mut d, cfg.budget, cfg.trace)?;
    let round_ops = timed.attempted;
    let (final_attempted, final_verified) = d.verify_final_state()?;
    timed.attempted += final_attempted;
    timed.failed += final_attempted - final_verified;
    if d.totals.server.engine_calls() == 0 {
        d.violations
            .push("restart_churn made no engine calls: the oracle was not cold".to_owned());
    }
    if d.totals.server.refusals() > 0 {
        d.violations
            .push("the server counted errors, refusals or missed deadlines".to_owned());
    }

    out.schedule_digest = fixture::digest(&[format!("{:?}", d.script)]);
    out.notes.push(format!(
        "{} of {} wire mutations tripped the rebuild policy; accept wait p50 {:.2} ms over {} restarts",
        d.totals.rebuilt,
        d.totals.mutations,
        median(&d.totals.accept_ms),
        d.totals.accept_ms.len()
    ));
    if cfg.trace {
        let server = &d.totals.server;
        let mut wire = server.layers(server, round_ops);
        wire.push(("serve.ping_rtt_us", median(&d.totals.ping_us)));
        let trace = std::mem::take(&mut d.trace);
        out.fill_traced(
            "restart_churn",
            &cfg.sizes,
            &timed,
            wire,
            &d.kept_answers,
            trace,
        )?;
    } else {
        out.fill_plain(&setup_times, &timed)?;
    }
    out.violations = std::mem::take(&mut d.violations);
    Ok(out)
}
