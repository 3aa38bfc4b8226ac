//! Subcommand implementations. Each returns its textual output so the
//! integration tests can assert on it.

use crate::args::Command;
use crate::CliError;
use graphrep_baselines::traditional_topk;
use graphrep_core::{CancelToken, GraphDatabase, NbIndex, RelevanceQuery, Scorer, Session};
use graphrep_datagen::{store, Dataset, DatasetSpec};
use graphrep_ged::{GedConfig, GedMode};
use graphrep_graph::stats::DatasetStats;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

type Handler = fn(&Command) -> Result<String, CliError>;

/// Every subcommand with its handler and the flags it takes — the lists
/// [`HELP`] prints (the global `--threads` goes without saying). A flag
/// outside the list is an error: a typo or a retired flag must fail loudly,
/// not run ignored.
const SUBCOMMANDS: &[(&str, Handler, &[&str])] = &[
    ("generate", generate, &["kind", "size", "seed", "out"]),
    ("stats", stats, &["data"]),
    ("index", index, &["data"]),
    (
        "query",
        query,
        &["data", "theta", "k", "quantile", "shards"],
    ),
    (
        "refine",
        refine,
        &["data", "theta", "k", "steps", "quantile"],
    ),
    ("topk", topk, &["data", "k", "quantile"]),
    (
        "compare",
        compare,
        &["data", "theta", "k", "quantile", "hybrid"],
    ),
    (
        "serve",
        serve,
        &[
            "data",
            "name",
            "addr",
            "workers",
            "write-queue-cap",
            "max-queue",
            "deadline-ms",
            "idle-secs",
            "cache-capacity",
            "shards",
        ],
    ),
    (
        "load",
        load,
        &[
            "addr",
            "name",
            "connections",
            "requests",
            "theta",
            "k",
            "quantile",
            "seed",
            "skew",
            "pipeline",
            "verify-data",
            "shutdown",
        ],
    ),
    (
        "mutate",
        mutate_cmd,
        &["data", "insert", "remove", "seed", "addr", "name", "shards"],
    ),
];

/// Dispatches a parsed command, returning its output.
pub fn run(cmd: &Command) -> Result<String, CliError> {
    if matches!(cmd.name.as_str(), "help" | "--help" | "-h") {
        return Ok(HELP.to_owned());
    }
    let Some((_, handler, flags)) = SUBCOMMANDS.iter().find(|(name, ..)| *name == cmd.name) else {
        return Err(CliError(format!(
            "unknown subcommand `{}`; try `graphrep help`",
            cmd.name
        )));
    };
    let known: Vec<&str> = flags.iter().copied().chain(["threads"]).collect();
    cmd.allow_only(&known)?;
    configure_threads(cmd)?;
    handler(cmd)
}

/// Usage text.
pub const HELP: &str = "\
graphrep — top-k representative queries on graph databases (SIGMOD'14)

subcommands:
  generate --kind dud|dblp|amazon --size N [--seed S] --out DIR
  stats    --data DIR
  index    --data DIR
  query    --data DIR --theta T --k K [--quantile Q] [--shards S]
  refine   --data DIR --theta T --k K --steps t1,t2,... [--quantile Q]
  topk     --data DIR --k K [--quantile Q]
  compare  --data DIR --theta T --k K [--quantile Q] [--hybrid MAXN]
           (REP vs DIV vs DisC vs top-k)
  serve    --data DIR [--name NAME] [--addr HOST:PORT] [--workers N]
           [--write-queue-cap BYTES]
           [--max-queue N] [--deadline-ms MS] [--idle-secs S]
           [--cache-capacity N] [--shards S]
  load     --addr HOST:PORT [--name NAME] [--connections N] [--requests M]
           [--theta t1,t2,...] [--k k1,k2,...] [--quantile Q] [--seed S]
           [--skew S] [--pipeline DEPTH]
           [--verify-data DIR] [--shutdown true]
  mutate   --data DIR [--insert N] [--remove id1,id2,...] [--seed S]
           [--addr HOST:PORT [--name NAME]] [--shards S]

`index`, `query` and `refine` read a dataset directory the way `serve`
does: they reuse `<DIR>/index.bin` when it sits at the epoch of
`<DIR>/mutations.log`, and otherwise build the index the server builds
(exact GED, default parameters, the dataset's threshold ladder) over the
base snapshot, replay the log (removed graphs stay removed) and write
`index.bin` back. That file is the only index a dataset has, so every later
`query`, `serve` and `load --verify-data` reads the same one. `compare
--hybrid MAXN` trades exactness for speed in memory and writes nothing.

`serve` keeps a materialized θ-neighborhood view store and a cross-session
answer cache per dataset (epoch-keyed, invalidated on mutation).
--cache-capacity 0 disables both. `load --skew S` draws (θ, k) pairs
Zipf-like with exponent S instead of uniformly (0 = the historical uniform
schedule).

`serve` drives every connection from one epoll reactor thread (Linux
only): thousands of idle connections per core, pipelined requests (every
frame carries its request id) and streamed runs whose picks go out
frame-by-frame. `load --pipeline DEPTH` keeps DEPTH streamed runs in
flight per connection (1 = one at a time), verifies every stream against
its terminal summary and reports time-to-first-pick.

`query --shards S`, `serve --shards S` and `mutate --shards S` partition
the dataset into S metric-space shards (farthest-point centers), build one
NB-Index per shard and replay `<DIR>/mutations.log` through them, then run
scatter-gather distributed greedy: answers are byte-identical to the
single-index path at any S, and mutations route to the owning shard,
bumping only its epoch, and append to the same log. Nothing else is
written, so every sharded open builds.

`mutate` inserts N randomly perturbed copies of existing graphs and/or
tombstones the listed ids. Without --addr it mutates the dataset directory
in place (one record appended to mutations.log per op, index.bin
replaced); with --addr the same ops go over the wire to a running server,
which persists them to its own directory the same way.

every subcommand accepts --threads N to set the worker count for index
build, inserts and the offline baselines (0 or omitted = one worker per
core); a query runs on one thread (`serve --workers` sizes the pool that
runs queries side by side), and answers are identical at any thread count.
";

/// Applies the global `--threads N` flag (0 = auto): the rayon worker count
/// of index build, inserts and the offline baselines. A query enters no
/// parallel region; results are thread-count-independent.
fn configure_threads(cmd: &Command) -> Result<(), CliError> {
    let threads: usize = cmd.parsed_or("threads", 0)?;
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .map_err(|e| CliError(format!("--threads: {e}")))
}

/// The `--data` directory: base snapshot plus its mutation log.
fn load_logged(cmd: &Command) -> Result<store::Logged, CliError> {
    let dir = cmd.req("data")?;
    store::load_logged(Path::new(dir)).map_err(|e| CliError(format!("loading {dir}: {e}")))
}

fn load_dataset(cmd: &Command) -> Result<Dataset, CliError> {
    Ok(load_logged(cmd)?.data)
}

fn ged_config(cmd: &Command) -> Result<GedConfig, CliError> {
    let mut config = GedConfig::default();
    if let Some(maxn) = cmd.opt("hybrid") {
        let exact_max_nodes = maxn
            .parse()
            .map_err(|_| CliError(format!("--hybrid: bad node count `{maxn}`")))?;
        config.mode = GedMode::Hybrid { exact_max_nodes };
    }
    Ok(config)
}

/// Opens the index the way the server does
/// ([`graphrep_serve::registry::open_index`]): `<DIR>/index.bin` only at the
/// epoch of its mutation log, otherwise the server's build over the base
/// snapshot with the log replayed, written back (tmp + rename) so the
/// *next* invocation starts warm. Returns the index, a provenance line for
/// the command output and, for a build, the outcome of the write-back.
fn build_or_load_index(
    cmd: &Command,
    logged: &store::Logged,
) -> Result<(NbIndex, String, Option<std::io::Result<()>>), CliError> {
    use graphrep_serve::registry::{default_index_config, open_index, write_index};
    let dir = Path::new(cmd.req("data")?);
    let (index, source) = open_index(
        dir,
        logged,
        GedConfig::default(),
        default_index_config(&logged.data),
    )
    .map_err(|e| CliError(e.to_string()))?;
    if source == "loaded" {
        let path = dir.join("index.bin");
        let provenance = format!("index: loaded {} (0 build distances)\n", path.display());
        return Ok((index, provenance, None));
    }
    let written = write_index(dir, &index);
    let b = index.build_stats();
    let provenance = format!(
        "index: {source} ({} edit distances, {:.2?})\n",
        b.distance_calls, b.wall
    );
    Ok((index, provenance, Some(written)))
}

fn default_query(cmd: &Command, data: &Dataset) -> Result<RelevanceQuery, CliError> {
    let q: f64 = cmd.parsed_or("quantile", 0.75)?;
    let scorer = Scorer::MeanOfDims((0..data.db.dims().max(1)).collect());
    Ok(RelevanceQuery::top_quantile(&data.db, scorer, q))
}

fn generate(cmd: &Command) -> Result<String, CliError> {
    let kind = store::kind_from_str(cmd.req("kind")?)
        .ok_or_else(|| CliError("--kind must be dud, dblp or amazon".into()))?;
    let size: usize = cmd.parsed("size")?;
    let seed: u64 = cmd.parsed_or("seed", 42u64)?;
    let out = cmd.req("out")?;
    let data = DatasetSpec::new(kind, size, seed).generate();
    store::save(&data, Path::new(out)).map_err(|e| CliError(format!("writing {out}: {e}")))?;
    Ok(format!(
        "wrote {} graphs ({}) to {out} — default θ = {}\n",
        data.db.len(),
        kind.name(),
        data.default_theta
    ))
}

fn stats(cmd: &Command) -> Result<String, CliError> {
    let data = load_dataset(cmd)?;
    let s = DatasetStats::compute(data.db.graphs());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "dataset: {} ({})",
        cmd.req("data")?,
        data.spec.kind.name()
    );
    let _ = writeln!(out, "{s}");
    let _ = writeln!(out, "feature dims: {}", data.db.dims());
    let _ = writeln!(out, "default θ: {}", data.default_theta);
    let _ = writeln!(out, "default ladder: {:?}", data.default_ladder);
    Ok(out)
}

/// `index`: builds the dataset directory's `index.bin` if it is missing or
/// stale, and reports what it holds.
fn index(cmd: &Command) -> Result<String, CliError> {
    let logged = load_logged(cmd)?;
    let (index, provenance, written) = build_or_load_index(cmd, &logged)?;
    let b = index.build_stats();
    let mut out = provenance;
    let _ = writeln!(
        out,
        "index built in {:.2?}: {} edit distances, {} tree nodes, {} VPs, {} bytes",
        b.wall,
        b.distance_calls,
        index.tree().nodes().len(),
        index.vantage().num_vps(),
        index.memory_bytes(),
    );
    // Zero on a loaded index: only a build searches.
    let c = index.oracle().engine().counters().snapshot();
    let _ = writeln!(
        out,
        "exact GED: {} searches, {} A* expansions, {} budget fallbacks",
        c.exact_searches, c.expansions, c.budget_fallbacks,
    );
    if let Some(written) = written {
        let path = Path::new(cmd.req("data")?).join("index.bin");
        written.map_err(|e| CliError(format!("writing {}: {e}", path.display())))?;
        let _ = writeln!(out, "saved to {}", path.display());
    }
    Ok(out)
}

/// `query`: one-shot top-k representative query. With `--shards S` the same
/// query is answered by scatter-gather distributed greedy over S shards
/// built and replayed from the directory's log — byte-identical answers,
/// plus per-pick shard-pruning stats.
fn query(cmd: &Command) -> Result<String, CliError> {
    let logged = load_logged(cmd)?;
    let data = &logged.data;
    let theta: f64 = cmd.parsed("theta")?;
    let k: usize = cmd.parsed("k")?;
    let quantile: f64 = cmd.parsed_or("quantile", 0.75)?;
    let rq = default_query(cmd, data)?;
    let relevant = rq.relevant_set(&data.db);
    let relevant_len = relevant.len();
    let (session, provenance): (Box<dyn Session>, String) = match cmd.opt("shards") {
        Some(_) => {
            let ds = graphrep_serve::ShardedDataset::open(
                "local",
                Path::new(cmd.req("data")?),
                cmd.parsed("shards")?,
            )
            .map_err(|e| CliError(e.to_string()))?;
            let provenance = format!("index: {}\n", ds.stats().index_source);
            (Box::new(ds.open_session(quantile)), provenance)
        }
        None => {
            // Best effort: a read-only dataset directory must not fail the query.
            let (index, provenance, _) = build_or_load_index(cmd, &logged)?;
            let session = Arc::new(index).start_session_shared(relevant);
            (Box::new(session), provenance)
        }
    };
    let (answer, stats) = session
        .run_with(theta, k, &CancelToken::never(), None)
        .map_err(|e| CliError(e.to_string()))?;
    let mut out = provenance;
    let _ = writeln!(
        out,
        "|L_q| = {relevant_len}, θ = {theta}, k = {k} → {} answers in {:.2?} ({} {})",
        answer.len(),
        stats.wall,
        stats.distance_calls,
        if stats.shard_count > 0 {
            "engine entries"
        } else {
            "edit distances"
        }
    );
    for (i, &g) in answer.ids.iter().enumerate() {
        let graph = data.db.graph(g);
        let _ = writeln!(
            out,
            "  {:>2}. graph {g:>5}  {} nodes / {} edges  score {:.3}  π so far {:.3}",
            i + 1,
            graph.node_count(),
            graph.edge_count(),
            rq.score(&data.db, g),
            answer.pi_trajectory[i]
        );
    }
    let _ = writeln!(
        out,
        "π(A) = {:.3}, compression ratio = {:.1}",
        answer.pi(),
        answer.compression_ratio()
    );
    if stats.shard_count > 0 {
        let pairs = stats.shards_pruned + stats.shards_touched;
        let _ = writeln!(
            out,
            "scatter-gather: {} picks over {} shards, {:.1}% of shard-pick pairs pruned",
            stats.picks,
            stats.shard_count,
            100.0 * stats.shards_pruned as f64 / pairs.max(1) as f64
        );
    }
    Ok(out)
}

fn refine(cmd: &Command) -> Result<String, CliError> {
    let logged = load_logged(cmd)?;
    let data = &logged.data;
    let theta: f64 = cmd.parsed("theta")?;
    let k: usize = cmd.parsed("k")?;
    let steps = cmd
        .float_list("steps")?
        .ok_or_else(|| CliError("--steps is required (comma-separated θ values)".into()))?;
    let (index, provenance, _) = build_or_load_index(cmd, &logged)?;
    let rq = default_query(cmd, data)?;
    let relevant = rq.relevant_set(&data.db);
    let session = index.start_session(relevant);
    let mut out = provenance;
    let _ = writeln!(out, "initialization: {:.2?}", session.init_wall());
    for t in std::iter::once(theta).chain(steps) {
        let (answer, stats) = session.run(t, k);
        let _ = writeln!(
            out,
            "θ = {t:>6.2}: π = {:.3}, CR = {:>6.1}, {} edit distances, {:.2?}",
            answer.pi(),
            answer.compression_ratio(),
            stats.distance_calls,
            stats.wall
        );
    }
    Ok(out)
}

fn topk(cmd: &Command) -> Result<String, CliError> {
    let data = load_dataset(cmd)?;
    let k: usize = cmd.parsed("k")?;
    let rq = default_query(cmd, &data)?;
    let ids = traditional_topk(&data.db, &rq, k);
    let mut out = format!("traditional top-{k} by score:\n");
    for &g in &ids {
        let _ = writeln!(out, "  graph {g:>5}  score {:.3}", rq.score(&data.db, g));
    }
    Ok(out)
}

fn compare(cmd: &Command) -> Result<String, CliError> {
    use graphrep_baselines::{div_topk, greedy_disc, DivVariant};
    use graphrep_core::{
        baseline_greedy, evaluate_answer, BruteForceProvider, NeighborhoodProvider,
    };
    let data = load_dataset(cmd)?;
    let theta: f64 = cmd.parsed("theta")?;
    let k: usize = cmd.parsed("k")?;
    let oracle = data.db.oracle(ged_config(cmd)?);
    let rq = default_query(cmd, &data)?;
    let relevant = rq.relevant_set(&data.db);
    let provider = BruteForceProvider::new(&oracle, &relevant);

    let rep = baseline_greedy(&provider, &relevant, theta, k);
    let divt = div_topk(&provider, &relevant, theta, k, DivVariant::Theta);
    let div2 = div_topk(&provider, &relevant, theta, k, DivVariant::TwoTheta);
    let disc = greedy_disc(&provider, &relevant, theta, None);
    let trad = traditional_topk(&data.db, &rq, k);

    let eval = |ids: &[u32]| evaluate_answer(ids, &relevant, |g| provider.neighborhood(g, theta));
    let mut out = format!(
        "|L_q| = {}, θ = {theta}, k = {k}\n{:<14} {:>6} {:>8} {:>8}\n",
        relevant.len(),
        "model",
        "|A|",
        "π(A)",
        "CR"
    );
    let mut line = |name: &str, ids: &[u32]| {
        let e = eval(ids);
        let _ = writeln!(
            out,
            "{name:<14} {:>6} {:>8.3} {:>8.1}",
            ids.len(),
            e.pi(),
            e.compression_ratio()
        );
    };
    let typ = graphrep_baselines::topk_typicality(&oracle, &relevant, theta, k);
    line("REP (greedy)", &rep.ids);
    line("DIV(theta)", &divt.ids);
    line("DIV(2theta)", &div2.ids);
    line("DisC (full)", &disc.ids);
    line("typicality", &typ.ids);
    line("top-k", &trad);
    Ok(out)
}

/// Starts the TCP query server on one dataset directory and blocks until a
/// wire `Shutdown` request arrives. The bound address is printed (and
/// flushed) before blocking so scripts can scrape the chosen port.
fn serve(cmd: &Command) -> Result<String, CliError> {
    use graphrep_core::CacheConfig;
    use graphrep_serve::{DatasetRegistry, ServeConfig};
    let dir = cmd.req("data")?;
    let name = cmd.opt("name").unwrap_or("default").to_owned();
    let cfg = ServeConfig {
        addr: cmd.opt("addr").unwrap_or("127.0.0.1:0").to_owned(),
        workers: cmd.parsed_or("workers", 4usize)?,
        write_queue_cap: cmd
            .parsed_or("write-queue-cap", ServeConfig::default().write_queue_cap)?,
        max_queue: cmd.parsed_or("max-queue", 64usize)?,
        default_deadline_ms: match cmd.opt("deadline-ms") {
            Some(ms) => Some(
                ms.parse()
                    .map_err(|_| CliError(format!("--deadline-ms: bad value `{ms}`")))?,
            ),
            None => None,
        },
        idle_session_ttl: std::time::Duration::from_secs(cmd.parsed_or("idle-secs", 900u64)?),
        ..ServeConfig::default()
    };
    // `--cache-capacity 0` disables the caching layer.
    let cache = CacheConfig {
        capacity: cmd.parsed_or("cache-capacity", CacheConfig::default().capacity)?,
    };
    let mut registry = DatasetRegistry::new();
    let shards: usize = cmd.parsed_or("shards", 0usize)?;
    let shard_note = if shards > 0 {
        registry
            .load_dir_sharded(&name, Path::new(dir), shards)
            .map_err(|e| CliError(e.to_string()))?;
        format!(", {shards} shards")
    } else {
        registry
            .load_dir_with(&name, Path::new(dir), true, cache)
            .map_err(|e| CliError(e.to_string()))?;
        String::new()
    };
    let handle = graphrep_serve::start(cfg, registry).map_err(|e| CliError(e.to_string()))?;
    let addr = handle.addr();
    println!("graphrep-serve listening on {addr} (dataset `{name}`{shard_note})");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    handle.wait();
    Ok(format!("server on {addr} shut down cleanly\n"))
}

/// Drives a deterministic load profile against a running server and, with
/// `--verify-data DIR`, proves the served answers byte-identical to offline
/// `QuerySession::run` on the same dataset.
fn load(cmd: &Command) -> Result<String, CliError> {
    use graphrep_serve::{
        offline_reference_from_dir, run_load, verify_against_offline, Client, LoadMode, LoadSpec,
    };
    let addr = cmd.req("addr")?;
    let verify_dir = cmd.opt("verify-data");
    let thetas = match cmd.float_list("theta")? {
        Some(t) => t,
        None => {
            let dir = verify_dir.ok_or_else(|| {
                CliError("--theta t1,t2,... is required unless --verify-data is given".into())
            })?;
            let data =
                store::load(Path::new(dir)).map_err(|e| CliError(format!("loading {dir}: {e}")))?;
            vec![
                data.default_theta * 0.8,
                data.default_theta,
                data.default_theta * 1.2,
            ]
        }
    };
    let ks: Vec<usize> = match cmd.opt("k") {
        Some(s) => s
            .split(',')
            .map(|p| {
                p.trim()
                    .parse()
                    .map_err(|_| CliError(format!("--k: bad value `{p}`")))
            })
            .collect::<Result<_, _>>()?,
        None => vec![3, 5],
    };
    let mode = match cmd.opt("pipeline") {
        None => LoadMode::Blocking,
        Some(depth) => LoadMode::Pipelined {
            depth: depth
                .parse()
                .map_err(|_| CliError(format!("--pipeline: bad depth `{depth}`")))?,
        },
    };
    let spec = LoadSpec {
        dataset: cmd.opt("name").unwrap_or("default").to_owned(),
        connections: cmd.parsed_or("connections", 4usize)?,
        requests_per_conn: cmd.parsed_or("requests", 25usize)?,
        thetas,
        ks,
        quantile: cmd.parsed_or("quantile", 0.75f64)?,
        seed: cmd.parsed_or("seed", 42u64)?,
        skew: cmd.parsed_or("skew", 0.0f64)?,
        mode,
    };
    let report = run_load(addr, &spec).map_err(|e| CliError(e.to_string()))?;
    let mut out = format!(
        "load: {} connections x {} requests against {addr}\n",
        spec.connections, spec.requests_per_conn
    );
    let _ = writeln!(
        out,
        "completed: {}, errors: {}",
        report.completed(),
        report.errors.len()
    );
    let _ = writeln!(
        out,
        "wall: {:.2?}, throughput: {:.1} req/s, p50 {:.2} ms, p99 {:.2} ms",
        report.wall,
        report.throughput_rps(),
        report.latency_quantile_ms(0.50),
        report.latency_quantile_ms(0.99),
    );
    if !report.ttfp_ms.is_empty() {
        let _ = writeln!(
            out,
            "time-to-first-pick: p50 {:.2} ms, p99 {:.2} ms ({} streamed runs)",
            report.ttfp_quantile_ms(0.50),
            report.ttfp_quantile_ms(0.99),
            report.ttfp_ms.len(),
        );
    }
    let verification = match verify_dir {
        Some(dir) => {
            let reference = offline_reference_from_dir(Path::new(dir), &spec)
                .map_err(|e| CliError(e.to_string()))?;
            Some(verify_against_offline(&report, &reference))
        }
        None => None,
    };
    if let Some(Ok(n)) = &verification {
        let _ = writeln!(
            out,
            "verified: {n} answers byte-identical to offline QuerySession::run"
        );
    }
    // Cache summary from the server's stats endpoint, for operators and the
    // CI smoke job (which greps these lines for a nonzero hit count).
    if let Ok(mut client) = Client::connect(addr) {
        if let Ok(stats) = client.stats() {
            for ds in stats
                .datasets
                .iter()
                .filter(|d| d.name == spec.dataset && d.cache_enabled)
            {
                let pct = |hits: u64, lookups: u64| {
                    if lookups == 0 {
                        0.0
                    } else {
                        100.0 * hits as f64 / lookups as f64
                    }
                };
                let a = &ds.answer_cache;
                let v = &ds.view_store;
                let _ = writeln!(
                    out,
                    "answer cache: {}/{} hits ({:.1}%), {} entries, {} bytes",
                    a.hits,
                    a.lookups,
                    pct(a.hits, a.lookups),
                    a.entries,
                    a.memory_bytes
                );
                let _ = writeln!(
                    out,
                    "view store: {}/{} hits ({:.1}%), {} entries, {} bytes",
                    v.hits,
                    v.lookups,
                    pct(v.hits, v.lookups),
                    v.entries,
                    v.memory_bytes
                );
            }
        }
    }
    if cmd.opt("shutdown") == Some("true") {
        let mut client = Client::connect(addr).map_err(|e| CliError(e.to_string()))?;
        client.shutdown().map_err(|e| CliError(e.to_string()))?;
        let _ = writeln!(out, "shutdown requested");
    }
    if !report.errors.is_empty() {
        return Err(CliError(format!(
            "{} load errors; first: {}",
            report.errors.len(),
            report.errors[0]
        )));
    }
    if let Some(Err(e)) = verification {
        return Err(CliError(format!("verification failed: {e}")));
    }
    let expected = spec.connections * spec.requests_per_conn;
    if report.completed() != expected {
        return Err(CliError(format!(
            "expected {expected} answers, got {}",
            report.completed()
        )));
    }
    Ok(out)
}

/// One human-readable receipt line shared by both mutate transports.
fn receipt_line(
    op: &str,
    id: u32,
    epoch: u64,
    live: usize,
    tombstones: usize,
    rebuilt: bool,
) -> String {
    format!(
        "{op} → graph {id} (epoch {epoch}, live {live}, tombstones {tombstones}{})",
        if rebuilt { ", rebuilt" } else { "" }
    )
}

/// The label alphabets actually present in the database, for generating
/// insert candidates that stay inside the dataset's vocabulary.
fn alphabets(db: &GraphDatabase) -> (Vec<u32>, Vec<u32>) {
    let mut nodes = std::collections::BTreeSet::new();
    let mut edges = std::collections::BTreeSet::new();
    for g in db.graphs() {
        nodes.extend(g.node_labels().iter().copied());
        edges.extend(g.edges().iter().map(|e| e.label));
    }
    if nodes.is_empty() {
        nodes.insert(0);
    }
    if edges.is_empty() {
        edges.insert(0);
    }
    (nodes.into_iter().collect(), edges.into_iter().collect())
}

/// Online mutation driver (DESIGN.md §10): plans deterministic inserts
/// (randomly perturbed copies of existing graphs, features copied from the
/// source) and tombstone removes, then applies them either directly to the
/// dataset directory or over the wire to a running server.
fn mutate_cmd(cmd: &Command) -> Result<String, CliError> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let dir = cmd.req("data")?;
    let data = load_dataset(cmd)?;
    let n_insert: usize = cmd.parsed_or("insert", 0usize)?;
    let removes: Vec<u32> = match cmd.opt("remove") {
        Some(s) => s
            .split(',')
            .map(|p| {
                p.trim()
                    .parse()
                    .map_err(|_| CliError(format!("--remove: bad id `{p}`")))
            })
            .collect::<Result<_, _>>()?,
        None => Vec::new(),
    };
    if n_insert == 0 && removes.is_empty() {
        return Err(CliError(
            "nothing to do: pass --insert N and/or --remove id1,id2,...".into(),
        ));
    }
    let seed: u64 = cmd.parsed_or("seed", 0xc0ffeeu64)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let (node_alpha, edge_alpha) = alphabets(&data.db);
    let inserts: Vec<(graphrep_graph::Graph, Vec<f64>)> = (0..n_insert)
        .map(|_| {
            let src = rng.gen_range(0..data.db.len()) as u32;
            let edits = 1 + rng.gen_range(0..3);
            let g = graphrep_graph::generate::mutate(
                &mut rng,
                data.db.graph(src),
                edits,
                &node_alpha,
                &edge_alpha,
            );
            (g, data.db.features(src).to_vec())
        })
        .collect();

    let mut out = String::new();
    match cmd.opt("addr") {
        Some(addr) => {
            use graphrep_serve::Client;
            let name = cmd.opt("name").unwrap_or("default");
            let mut client = Client::connect(addr).map_err(|e| CliError(e.to_string()))?;
            for (g, f) in inserts {
                let nodes = g.node_labels().to_vec();
                let edges = g.edges().iter().map(|e| (e.u, e.v, e.label)).collect();
                let r = client
                    .insert(name, nodes, edges, f)
                    .map_err(|e| CliError(e.to_string()))?;
                let _ = writeln!(
                    out,
                    "{}",
                    receipt_line("insert", r.id, r.epoch, r.live, r.tombstones, r.rebuilt)
                );
            }
            for id in removes {
                let r = client
                    .remove(name, id)
                    .map_err(|e| CliError(e.to_string()))?;
                let _ = writeln!(
                    out,
                    "{}",
                    receipt_line("remove", r.id, r.epoch, r.live, r.tombstones, r.rebuilt)
                );
            }
        }
        None => {
            // Local path: one NB-Index, or with `--shards S` the shards
            // replayed from the log — mutations then route to the owning
            // shard, bump only its epoch, and the receipt carries the full
            // epoch vector. Either way each op appends one log record.
            use graphrep_serve::{DatasetEntry, LoadedDataset, ShardedDataset};
            let path = Path::new(dir);
            let entry = match cmd.opt("shards") {
                Some(_) => ShardedDataset::open("local", path, cmd.parsed("shards")?)
                    .map(|ds| DatasetEntry::Sharded(Arc::new(ds))),
                None => LoadedDataset::open("local", path, true)
                    .map(|ds| DatasetEntry::Single(Arc::new(ds))),
            }
            .map_err(|e| CliError(e.to_string()))?;
            let ops = inserts
                .into_iter()
                .map(|(g, f)| ("insert", entry.insert_graph(g, f)))
                .chain(
                    removes
                        .into_iter()
                        .map(|id| ("remove", entry.remove_graph(id))),
                );
            let mut last = None;
            for (op, receipt) in ops {
                let r = receipt.map_err(|e| CliError(e.to_string()))?;
                let mut line = receipt_line(op, r.id, r.epoch, r.live, r.tombstones, r.rebuilt);
                if !r.shard_epochs.is_empty() {
                    let _ = write!(line, " [shard {}, epochs {:?}]", r.shard, r.shard_epochs);
                }
                let _ = writeln!(out, "{line}");
                last = Some(r);
            }
            if let Some(r) = last {
                let at = if r.shard_epochs.is_empty() {
                    format!("epoch {}", r.epoch)
                } else {
                    format!("epochs {:?}", r.shard_epochs)
                };
                let total = r.live + r.tombstones;
                let _ = writeln!(
                    out,
                    "dataset {dir} now at {at}: {} live / {total} total graphs",
                    r.live
                );
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn parse_q(parts: &[&str]) -> Command {
        let argv: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        parse(&argv).unwrap()
    }

    fn run_args(parts: &[&str]) -> Result<String, CliError> {
        run(&parse_q(parts))
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("graphrep-cli-{name}-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn full_cli_workflow() {
        let dir = tmp("flow");
        let out = run_args(&[
            "generate", "--kind", "dud", "--size", "60", "--seed", "3", "--out", &dir,
        ])
        .unwrap();
        assert!(out.contains("wrote 60 graphs"));

        let out = run_args(&["stats", "--data", &dir]).unwrap();
        assert!(out.contains("60 graphs"));

        let idx = format!("{dir}/index.bin");
        let out = run_args(&["index", "--data", &dir]).unwrap();
        assert!(out.contains("index built"));
        assert!(out.contains(&format!("saved to {idx}")), "{out}");
        assert!(std::path::Path::new(&idx).exists());

        let out = run_args(&["query", "--data", &dir, "--theta", "4", "--k", "5"]).unwrap();
        assert!(out.contains("index: loaded"), "{out}");
        assert!(out.contains("π(A)"), "{out}");

        let out = run_args(&[
            "refine", "--data", &dir, "--theta", "4", "--k", "5", "--steps", "3.6,4.4",
        ])
        .unwrap();
        assert!(out.contains("index: loaded"), "{out}");
        assert!(out.matches("θ =").count() == 3, "{out}");

        let out = run_args(&["topk", "--data", &dir, "--k", "3"]).unwrap();
        assert!(out.contains("traditional top-3"));

        let out = run_args(&["compare", "--data", &dir, "--theta", "4", "--k", "5"]).unwrap();
        assert!(out.contains("REP (greedy)"), "{out}");
        assert!(out.contains("DisC (full)"));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn threads_flag_accepted_and_answers_thread_independent() {
        let dir = tmp("threads");
        run_args(&[
            "generate", "--kind", "dud", "--size", "60", "--seed", "3", "--out", &dir,
        ])
        .unwrap();
        // Keep only the timing-free answer lines.
        let answers = |out: String| -> Vec<String> {
            out.lines()
                .filter(|l| l.contains(". graph") || l.contains("π(A)"))
                .map(str::to_owned)
                .collect()
        };
        let one = run_args(&[
            "query",
            "--data",
            &dir,
            "--theta",
            "4",
            "--k",
            "5",
            "--threads",
            "1",
        ])
        .unwrap();
        let four = run_args(&[
            "query",
            "--data",
            &dir,
            "--theta",
            "4",
            "--k",
            "5",
            "--threads",
            "4",
        ])
        .unwrap();
        assert_eq!(answers(one), answers(four));
        assert!(run_args(&[
            "query",
            "--data",
            &dir,
            "--theta",
            "4",
            "--k",
            "5",
            "--threads",
            "x"
        ])
        .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Cold-start satellite: the first one-shot `query` builds (and
    /// persists) the index; the second invocation must take the
    /// persisted-index path and report a zero-cost build phase.
    #[test]
    fn second_query_invocation_skips_the_build() {
        let dir = tmp("warm");
        let _ = std::fs::remove_dir_all(&dir);
        run_args(&[
            "generate", "--kind", "dud", "--size", "40", "--seed", "7", "--out", &dir,
        ])
        .unwrap();
        let answers = |out: &str| -> Vec<String> {
            out.lines()
                .filter(|l| l.contains(". graph") || l.contains("π(A)"))
                .map(str::to_owned)
                .collect()
        };
        let first = run_args(&["query", "--data", &dir, "--theta", "4", "--k", "3"]).unwrap();
        assert!(first.contains("index: built"), "{first}");
        assert!(
            std::path::Path::new(&format!("{dir}/index.bin")).exists(),
            "query must persist the built index (binary format) next to the dataset"
        );
        let second = run_args(&["query", "--data", &dir, "--theta", "4", "--k", "3"]).unwrap();
        assert!(second.contains("index: loaded"), "{second}");
        assert!(second.contains("0 build distances"), "{second}");
        assert_eq!(answers(&first), answers(&second));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// No invocation writes an `index.bin` other than the server's build:
    /// a private build flag (here the non-metric `--hybrid`, whose bounds
    /// break Thms 3–8) is rejected before any work, a `query` answers what
    /// an in-memory default build answers, and the file `index` leaves
    /// behind is byte for byte that build, which later queries load.
    #[test]
    fn every_index_bin_is_the_default_exact_build() {
        use graphrep_serve::registry::default_index_config;
        let dir = tmp("onlyexact");
        let _ = std::fs::remove_dir_all(&dir);
        run_args(&[
            "generate", "--kind", "dud", "--size", "160", "--seed", "7", "--out", &dir,
        ])
        .unwrap();
        let index_bin = format!("{dir}/index.bin");
        let q = ["query", "--data", &dir, "--theta", "4", "--k", "10"];

        let err = run_args(&[&q[..], &["--hybrid", "3"]].concat()).unwrap_err();
        assert!(err.0.contains("--hybrid"), "{err}");
        assert!(!Path::new(&index_bin).exists(), "a rejected query wrote");

        let data = store::load(Path::new(&dir)).unwrap();
        let want = NbIndex::build(
            data.db.oracle(GedConfig::default()),
            default_index_config(&data),
        );
        let relevant = default_query(&parse_q(&q), &data)
            .unwrap()
            .relevant_set(&data.db);
        let (answer, _) = want.start_session(relevant).run(4.0, 10);
        let out = run_args(&q).unwrap();
        let picks: Vec<u32> = out
            .lines()
            .filter(|l| l.contains(". graph"))
            .map(|l| l.split_whitespace().nth(2).unwrap().parse().unwrap())
            .collect();
        assert_eq!(picks, answer.ids, "{out}");

        run_args(&["index", "--data", &dir]).unwrap();
        assert!(std::fs::read(&index_bin).unwrap() == want.save_bin());
        let again = run_args(&q).unwrap();
        assert!(again.contains("index: loaded"), "{again}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// End-to-end `load` against an in-process server, including offline
    /// verification and wire-initiated shutdown.
    #[test]
    fn load_command_verifies_against_offline_run() {
        let dir = tmp("serveload");
        let _ = std::fs::remove_dir_all(&dir);
        run_args(&[
            "generate", "--kind", "dud", "--size", "50", "--seed", "11", "--out", &dir,
        ])
        .unwrap();
        let mut registry = graphrep_serve::DatasetRegistry::new();
        registry
            .load_dir("default", std::path::Path::new(&dir), true)
            .unwrap();
        let handle = graphrep_serve::start(
            graphrep_serve::ServeConfig {
                workers: 2,
                ..Default::default()
            },
            registry,
        )
        .unwrap();
        let addr = handle.addr().to_string();
        let out = run_args(&[
            "load",
            "--addr",
            &addr,
            "--connections",
            "3",
            "--requests",
            "4",
            "--verify-data",
            &dir,
            "--shutdown",
            "true",
        ])
        .unwrap();
        assert!(out.contains("errors: 0"), "{out}");
        assert!(out.contains("verified: 12 answers"), "{out}");
        assert!(out.contains("shutdown requested"), "{out}");
        handle.wait();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Offline `mutate` round-trip: the dataset directory absorbs the ops,
    /// and a later warm `query` serves the mutated state.
    #[test]
    fn mutate_command_updates_the_dataset_in_place() {
        let dir = tmp("mutate");
        let _ = std::fs::remove_dir_all(&dir);
        run_args(&[
            "generate", "--kind", "dud", "--size", "40", "--seed", "9", "--out", &dir,
        ])
        .unwrap();
        let out = run_args(&[
            "mutate", "--data", &dir, "--insert", "2", "--remove", "5", "--seed", "1",
        ])
        .unwrap();
        assert!(out.contains("insert → graph 40"), "{out}");
        assert!(out.contains("insert → graph 41"), "{out}");
        assert!(out.contains("remove → graph 5"), "{out}");
        assert!(out.contains("now at epoch 3: 41 live / 42 total"), "{out}");
        let logged = store::load_logged(Path::new(&dir)).unwrap();
        assert_eq!(logged.records.len(), 3);

        // The warm query path picks the mutated index up and never returns
        // the tombstoned graph.
        let out = run_args(&["query", "--data", &dir, "--theta", "4", "--k", "5"]).unwrap();
        assert!(out.contains("index: loaded"), "{out}");
        assert!(!out.contains("graph     5 "), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Wire-mode `mutate` against an in-process server.
    #[test]
    fn mutate_command_over_the_wire() {
        let dir = tmp("mutwire");
        let _ = std::fs::remove_dir_all(&dir);
        run_args(&[
            "generate", "--kind", "dud", "--size", "30", "--seed", "13", "--out", &dir,
        ])
        .unwrap();
        let mut registry = graphrep_serve::DatasetRegistry::new();
        registry
            .load_dir("default", std::path::Path::new(&dir), true)
            .unwrap();
        let handle = graphrep_serve::start(
            graphrep_serve::ServeConfig {
                workers: 2,
                ..Default::default()
            },
            registry,
        )
        .unwrap();
        let addr = handle.addr().to_string();
        let out = run_args(&[
            "mutate", "--data", &dir, "--addr", &addr, "--insert", "1", "--remove", "2,7",
        ])
        .unwrap();
        assert!(out.contains("insert → graph 30"), "{out}");
        assert!(out.contains("(epoch 3"), "{out}");
        // The server re-persisted its directory: offline verification against
        // the same dir must agree with the post-mutation server state.
        let out = run_args(&[
            "load",
            "--addr",
            &addr,
            "--connections",
            "2",
            "--requests",
            "3",
            "--verify-data",
            &dir,
            "--shutdown",
            "true",
        ])
        .unwrap();
        assert!(out.contains("verified: 6 answers"), "{out}");
        handle.wait();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The answer lines of a `query` output (no timings).
    fn answer_lines(out: &str) -> Vec<String> {
        out.lines()
            .filter(|l| l.contains(". graph") || l.contains("π(A)"))
            .map(str::to_owned)
            .collect()
    }

    /// The first pick of a `query` output.
    fn first_pick(out: &str) -> u32 {
        let line = out.lines().find(|l| l.contains(" 1. graph")).unwrap();
        line.split_whitespace().nth(2).unwrap().parse().unwrap()
    }

    /// `query --shards S` builds the shards from the directory and answers
    /// byte-identically to the single-index path at any S, before and after
    /// a sharded remove made at another S.
    #[test]
    fn sharded_query_matches_single_index_answers() {
        let dir = tmp("shardq");
        let _ = std::fs::remove_dir_all(&dir);
        run_args(&[
            "generate", "--kind", "dud", "--size", "50", "--seed", "17", "--out", &dir,
        ])
        .unwrap();
        let sharded = run_args(&[
            "query", "--data", &dir, "--theta", "4", "--k", "5", "--shards", "4",
        ])
        .unwrap();
        assert!(
            sharded.contains("index: sharded x4 (built, 0 log records replayed)"),
            "{sharded}"
        );
        assert!(sharded.contains("scatter-gather:"), "{sharded}");
        assert!(!std::path::Path::new(&format!("{dir}/shards")).exists());
        let single = run_args(&["query", "--data", &dir, "--theta", "4", "--k", "5"]).unwrap();
        assert_eq!(answer_lines(&sharded), answer_lines(&single));
        let resharded = run_args(&[
            "query", "--data", &dir, "--theta", "4", "--k", "5", "--shards", "2",
        ])
        .unwrap();
        assert!(
            resharded.contains("index: sharded x2 (built"),
            "{resharded}"
        );
        assert_eq!(answer_lines(&resharded), answer_lines(&single));

        // A remove made through 4 shards is in the log every open replays.
        let victim = first_pick(&single);
        let victim_s = victim.to_string();
        run_args(&[
            "mutate", "--data", &dir, "--shards", "4", "--remove", &victim_s,
        ])
        .unwrap();
        let sharded = run_args(&[
            "query", "--data", &dir, "--theta", "4", "--k", "5", "--shards", "2",
        ])
        .unwrap();
        assert!(sharded.contains("1 log records replayed"), "{sharded}");
        assert_ne!(first_pick(&sharded), victim, "{sharded}");
        let single = run_args(&["query", "--data", &dir, "--theta", "4", "--k", "5"]).unwrap();
        assert_eq!(answer_lines(&sharded), answer_lines(&single));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The implicit `index.bin` loads only at the log's epoch: a stale file
    /// (the one written before a remove) or no file at all is answered by
    /// replaying the log, so the removed graph stays removed, and the
    /// written-back file makes the next query warm.
    #[test]
    fn implicit_index_replays_the_log_over_a_stale_or_missing_file() {
        let dir = tmp("staleidx");
        let _ = std::fs::remove_dir_all(&dir);
        run_args(&[
            "generate", "--kind", "dud", "--size", "40", "--seed", "31", "--out", &dir,
        ])
        .unwrap();
        let query = || run_args(&["query", "--data", &dir, "--theta", "4", "--k", "5"]).unwrap();
        let before = query();
        let victim = first_pick(&before);
        let index_bin = format!("{dir}/index.bin");
        let stale = std::fs::read(&index_bin).unwrap();
        run_args(&["mutate", "--data", &dir, "--remove", &victim.to_string()]).unwrap();
        let want = answer_lines(&query());
        for case in ["stale", "missing"] {
            if case == "stale" {
                std::fs::write(&index_bin, &stale).unwrap();
            } else {
                std::fs::remove_file(&index_bin).unwrap();
            }
            let out = query();
            assert!(out.contains("index: built"), "{case}: {out}");
            assert_ne!(first_pick(&out), victim, "{case}: {out}");
            assert_eq!(answer_lines(&out), want, "{case}");
            let warm = query();
            assert!(warm.contains("index: loaded"), "{case}: {warm}");
            assert_eq!(answer_lines(&warm), want, "{case}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sharded local `mutate`: receipts carry the owning shard and the full
    /// epoch vector, and only the owning shard's epoch moves per op.
    #[test]
    fn sharded_mutate_routes_to_owning_shard() {
        let dir = tmp("shardmut");
        let _ = std::fs::remove_dir_all(&dir);
        run_args(&[
            "generate", "--kind", "dud", "--size", "30", "--seed", "5", "--out", &dir,
        ])
        .unwrap();
        let out = run_args(&[
            "mutate", "--data", &dir, "--shards", "2", "--insert", "1", "--remove", "3", "--seed",
            "1",
        ])
        .unwrap();
        assert!(out.contains("insert → graph 30"), "{out}");
        assert!(out.contains("[shard "), "{out}");
        assert!(out.contains("epochs ["), "{out}");
        assert!(out.contains("now at epochs"), "{out}");
        assert!(out.contains("30 live / 31 total"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Wire-level proof of sharded/single equivalence: `load --verify-data`
    /// checks a *sharded* server's answers byte-for-byte against the offline
    /// single-index `QuerySession::run` reference.
    #[test]
    fn load_verifies_sharded_server_against_single_index_reference() {
        let dir = tmp("shardserve");
        let _ = std::fs::remove_dir_all(&dir);
        run_args(&[
            "generate", "--kind", "dud", "--size", "40", "--seed", "23", "--out", &dir,
        ])
        .unwrap();
        let mut registry = graphrep_serve::DatasetRegistry::new();
        registry
            .load_dir_sharded("default", std::path::Path::new(&dir), 3)
            .unwrap();
        let handle = graphrep_serve::start(
            graphrep_serve::ServeConfig {
                workers: 2,
                ..Default::default()
            },
            registry,
        )
        .unwrap();
        let addr = handle.addr().to_string();
        let out = run_args(&[
            "load",
            "--addr",
            &addr,
            "--connections",
            "2",
            "--requests",
            "4",
            "--verify-data",
            &dir,
        ])
        .unwrap();
        assert!(out.contains("errors: 0"), "{out}");
        assert!(out.contains("verified: 8 answers"), "{out}");

        // A wire mutation routes through the sharded backend and persists;
        // the replayed load must verify against the *mutated* state (the
        // offline reference replays the same log, removes included).
        let out = run_args(&[
            "mutate", "--data", &dir, "--addr", &addr, "--insert", "1", "--remove", "2",
        ])
        .unwrap();
        assert!(out.contains("insert → graph 40"), "{out}");
        assert!(out.contains("remove → graph 2"), "{out}");
        let out = run_args(&[
            "load",
            "--addr",
            &addr,
            "--connections",
            "2",
            "--requests",
            "4",
            "--verify-data",
            &dir,
            "--shutdown",
            "true",
        ])
        .unwrap();
        assert!(out.contains("errors: 0"), "{out}");
        assert!(out.contains("verified: 8 answers"), "{out}");
        handle.wait();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run_args(&["frobnicate"]).is_err());
    }

    /// No subcommand runs with a flag it does not take — the check comes
    /// before any work, so nothing here touches a dataset or a socket.
    #[test]
    fn every_subcommand_rejects_an_unknown_flag() {
        for (name, ..) in SUBCOMMANDS {
            let err = run_args(&[name, "--bogus", "1"]).unwrap_err();
            assert!(
                err.0.contains("unknown flag --bogus"),
                "`{name}` answered {err}"
            );
        }
    }

    #[test]
    fn help_prints_usage() {
        let out = run_args(&["help"]).unwrap();
        assert!(out.contains("generate"));
        assert!(out.contains("refine"));
    }

    #[test]
    fn generate_rejects_bad_kind() {
        let err = run_args(&[
            "generate", "--kind", "zzz", "--size", "5", "--out", "/tmp/x",
        ])
        .unwrap_err();
        assert!(err.0.contains("dud"));
    }

    #[test]
    fn query_missing_data_errors() {
        assert!(run_args(&["query", "--theta", "4", "--k", "3"]).is_err());
    }
}
