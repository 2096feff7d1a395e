//! Logic behind the `sequin` command-line tool (kept in the library so it
//! is unit-testable; `src/bin/sequin.rs` is a thin wrapper).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use sequin_engine::{
    make_sharded_engine, CheckpointPolicy, CheckpointStore, Checkpointer, DisorderPolicy,
    EngineConfig, MultiEngine, NativeEngine, OutputKind, ShardedEngine, SharedMultiEngine,
    Strategy,
};
use sequin_metrics::{pairs_table, run_engine, run_engine_batched, shard_table, RunReport};
use sequin_netsim::{delay_shuffle, measure_disorder, punctuate};
use sequin_obs::{filter_outputs, lineage_json, lineage_text, Bundle, ObsConfig};
use sequin_query::{parse, Query};
use sequin_server::{
    loopback_run, Client, CoreConfig, EngineCore, MetricsFormat, Server, ServerConfig, TraceFormat,
    TRACE_ALL_OUTPUTS, TRACE_ALL_QUERIES,
};
use sequin_types::{Duration, EventRef, StreamItem, TypeRegistry, ValueKind};
use sequin_workload::{read_trace, Intrusion, Rfid, Stock, Synthetic, SyntheticConfig};

/// Parses the schema DSL: whitespace-separated type declarations
/// `Name(field:kind, ...)`, kinds `int|float|str|bool`, e.g.
///
/// ```text
/// SHIPPED(tag:int,location:int) SCANNED(tag:int) PING()
/// ```
///
/// # Errors
///
/// Returns a human-readable message for malformed declarations, unknown
/// kinds, or duplicate names.
pub fn parse_schema(text: &str) -> Result<TypeRegistry, String> {
    let mut registry = TypeRegistry::new();
    let mut rest = text.trim();
    while !rest.is_empty() {
        let open = rest
            .find('(')
            .ok_or_else(|| format!("expected `(` after type name in `{rest}`"))?;
        let name = rest[..open].trim();
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("invalid type name `{name}`"));
        }
        let close = rest[open..]
            .find(')')
            .map(|ix| open + ix)
            .ok_or_else(|| format!("missing `)` for type `{name}`"))?;
        let body = rest[open + 1..close].trim();
        let mut fields: Vec<(&str, ValueKind)> = Vec::new();
        if !body.is_empty() {
            for part in body.split(',') {
                let (fname, fkind) = part
                    .split_once(':')
                    .ok_or_else(|| format!("expected `field:kind` in `{part}` of `{name}`"))?;
                let kind = match fkind.trim() {
                    "int" => ValueKind::Int,
                    "float" => ValueKind::Float,
                    "str" => ValueKind::Str,
                    "bool" => ValueKind::Bool,
                    other => return Err(format!("unknown kind `{other}` in `{name}`")),
                };
                fields.push((fname.trim(), kind));
            }
        }
        registry.declare(name, &fields).map_err(|e| e.to_string())?;
        rest = rest[close + 1..].trim_start();
    }
    if registry.is_empty() {
        return Err("schema declared no types".into());
    }
    Ok(registry)
}

/// `sequin explain`: parses a query against a schema and describes the
/// resolved plan.
///
/// # Errors
///
/// Returns schema or query compilation errors as display strings.
pub fn explain(schema: &str, query_text: &str) -> Result<String, String> {
    let registry = parse_schema(schema)?;
    let query = parse(query_text, &registry).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let pattern: Vec<String> = query
        .components()
        .iter()
        .map(|c| {
            let types: Vec<String> = c
                .types
                .iter()
                .map(|&t| registry.schema(t).name().to_owned())
                .collect();
            format!(
                "{}{} {}",
                if c.negated { "!" } else { "" },
                types.join("|"),
                c.var
            )
        })
        .collect();
    out.push_str(&format!("pattern      : SEQ({})\n", pattern.join(", ")));
    out.push_str(&format!("positives    : {}\n", query.positive_len()));
    for p in 0..query.positive_len() {
        let comp = &query.components()[query.positive_comp(p)];
        let types: Vec<String> = comp
            .types
            .iter()
            .map(|&t| registry.schema(t).name().to_owned())
            .collect();
        out.push_str(&format!(
            "  slot {p}     : {} {} ({} insertion-time predicate(s))\n",
            types.join("|"),
            comp.var,
            query.local_predicates(p).len()
        ));
    }
    for neg in query.negations() {
        let types: Vec<String> = neg
            .types
            .iter()
            .map(|&t| registry.schema(t).name().to_owned())
            .collect();
        let place = match (neg.left, neg.right) {
            (None, Some(_)) => "leading".to_owned(),
            (Some(_), None) => "trailing (sealed emission required)".to_owned(),
            (Some(l), Some(r)) => format!("between slots {l} and {r}"),
            (None, None) => unreachable!("analysis guarantees a flank"),
        };
        out.push_str(&format!(
            "negation     : !{} ({place}, {} predicate(s))\n",
            types.join("|"),
            neg.predicates.len()
        ));
    }
    out.push_str(&format!("window       : {}\n", query.window()));
    out.push_str(&format!(
        "predicates   : {} total, {} cross-component\n",
        query.predicates().len(),
        query.join_predicates().len()
    ));
    match query.partition() {
        Some(_) => out.push_str("partitioning : available (equality chain covers all slots)\n"),
        None => out.push_str("partitioning : not available\n"),
    }
    out.push_str(&format!(
        "projection   : {}\n",
        if query.projections().is_empty() {
            "event ids (default)"
        } else {
            "RETURN clause"
        }
    ));
    Ok(out)
}

/// Options shared by the `run` and `replay` subcommands.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Evaluation strategy.
    pub strategy: Strategy,
    /// Disorder bound `K` (or adaptive floor).
    pub k: u64,
    /// Use adaptive K̂ estimation with this safety factor.
    pub adaptive: Option<f64>,
    /// Inject a punctuation every `n` events (simulator-omniscient).
    pub punctuate_every: Option<usize>,
    /// Checkpoint the engine every `n` events (implies wrapping the engine
    /// in a [`Checkpointer`]).
    pub checkpoint_every: Option<u64>,
    /// Path of a checkpoint-store file to resume from and to save new
    /// checkpoints into. Resuming replays the regenerated stream suffix
    /// with exactly-once dedup, so the same seed/workload must be used.
    pub resume_from: Option<String>,
    /// Per-query disorder policy (latency vs retraction-noise knob).
    pub policy: DisorderPolicy,
    /// Worker shards for Native evaluation (1 = single-threaded; other
    /// strategies ignore the setting).
    pub shards: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            strategy: Strategy::Native,
            k: 100,
            adaptive: None,
            punctuate_every: None,
            checkpoint_every: None,
            resume_from: None,
            policy: DisorderPolicy::default(),
            shards: 1,
        }
    }
}

/// Runs `query_text` over a named built-in workload with synthetic
/// disorder, returning a human-readable report.
///
/// `workload` is one of `synthetic`, `rfid`, `intrusion`, `stock`;
/// an empty `query_text` selects the workload's flagship query.
///
/// # Errors
///
/// Reports unknown workloads and schema/query errors as display strings.
pub fn run_workload(
    workload: &str,
    query_text: &str,
    events: usize,
    ooo: f64,
    max_delay: u64,
    seed: u64,
    opts: &RunOptions,
) -> Result<String, String> {
    let (registry, history, default_query) = build_workload(workload, events, seed)?;
    let text = if query_text.trim().is_empty() {
        &default_query
    } else {
        query_text
    };
    let query = parse(text, &registry).map_err(|e| e.to_string())?;
    let stream = delay_shuffle(&history, ooo, max_delay.max(1), seed);
    run_stream(&stream, query, opts)
}

/// Instantiates a named built-in workload: its schema, an in-order event
/// history, and the workload's flagship query.
///
/// # Errors
///
/// Lists the accepted names when `workload` matches none.
pub fn build_workload(
    workload: &str,
    events: usize,
    seed: u64,
) -> Result<(Arc<TypeRegistry>, Vec<EventRef>, String), String> {
    let (registry, history, default_query): (Arc<TypeRegistry>, Vec<EventRef>, String) =
        match workload {
            "synthetic" => {
                let w = Synthetic::new(SyntheticConfig::default());
                let h = w.generate(events, seed);
                (
                    Arc::clone(w.registry()),
                    h,
                    "PATTERN SEQ(T0 a, T1 b, T2 c) WHERE a.tag == b.tag AND b.tag == c.tag \
                     WITHIN 100"
                        .to_owned(),
                )
            }
            "rfid" => {
                let w = Rfid::new();
                let (h, _) = w.generate(events / 3, 0.05, seed);
                (
                    Arc::clone(w.registry()),
                    h,
                    "PATTERN SEQ(SHIPPED s, !SCANNED c, RECEIVED r) \
                     WHERE s.tag == r.tag AND c.tag == s.tag WITHIN 100 RETURN s.tag, r.ts"
                        .to_owned(),
                )
            }
            "intrusion" => {
                let w = Intrusion::new();
                let h = w.generate(events, 100, events / 500 + 1, seed);
                (
                    Arc::clone(w.registry()),
                    h,
                    "PATTERN SEQ(LOGIN_FAIL f1, LOGIN_FAIL f2, LOGIN_OK k, PRIV_ESC p) \
                     WHERE f1.user == f2.user AND f2.user == k.user AND k.user == p.user \
                     WITHIN 60 RETURN k.user, p.ts"
                        .to_owned(),
                )
            }
            "stock" => {
                let w = Stock::new();
                let h = w.generate(events, 8, seed);
                (
                    Arc::clone(w.registry()),
                    h,
                    "PATTERN SEQ(STOCK a, STOCK b, STOCK c) \
                     WHERE a.sym == b.sym AND b.sym == c.sym \
                     AND a.price < b.price AND b.price < c.price WITHIN 30"
                        .to_owned(),
                )
            }
            other => {
                return Err(format!(
                    "unknown workload `{other}` (expected synthetic|rfid|intrusion|stock)"
                ))
            }
        };
    Ok((registry, history, default_query))
}

/// Replays a text trace (see [`sequin_workload::read_trace`]) through a
/// query.
///
/// # Errors
///
/// Reports schema, query, and trace parse failures as display strings.
pub fn run_trace_text(
    schema: &str,
    query_text: &str,
    trace_text: &str,
    opts: &RunOptions,
) -> Result<String, String> {
    let registry = parse_schema(schema)?;
    let query = parse(query_text, &registry).map_err(|e| e.to_string())?;
    let events = read_trace(trace_text.as_bytes(), &registry).map_err(|e| e.to_string())?;
    let stream: Vec<StreamItem> = events.into_iter().map(StreamItem::Event).collect();
    run_stream(&stream, query, opts)
}

fn run_stream(
    stream: &[StreamItem],
    query: Arc<sequin_query::Query>,
    opts: &RunOptions,
) -> Result<String, String> {
    let disorder = measure_disorder(stream);
    let stream_owned;
    let stream = if let Some(n) = opts.punctuate_every {
        stream_owned = punctuate(stream, n.max(1));
        &stream_owned[..]
    } else {
        stream
    };
    let mut config = match opts.adaptive {
        Some(safety) => EngineConfig::with_adaptive_k(Duration::new(opts.k), safety),
        None => EngineConfig::with_k(Duration::new(opts.k)),
    };
    config.policy = opts.policy;
    if opts.punctuate_every.is_some() {
        config.watermark = sequin_engine::WatermarkSource::Both;
    }
    let use_checkpoints = opts.checkpoint_every.is_some() || opts.resume_from.is_some();
    let sharded = opts.shards > 1 && opts.strategy == Strategy::Native;
    let mut resume_note = None;
    let mut shard_note = None;
    let report = if use_checkpoints {
        let engine = make_sharded_engine(opts.strategy, query, config, opts.shards);
        let policy = match opts.checkpoint_every {
            Some(n) => CheckpointPolicy::every(n.max(1)),
            None => CheckpointPolicy::default(),
        };
        let (mut ck, replay_from) = match opts.resume_from.as_deref().map(Path::new) {
            Some(path) if path.exists() => match CheckpointStore::load(path) {
                Ok(store) => Checkpointer::resume(engine, policy, store),
                Err(e) => {
                    // graceful degradation: a rotted store file means cold
                    // start, never a crash or silently wrong state
                    resume_note = Some(format!("checkpoint file unreadable ({e}): cold start"));
                    (Checkpointer::new(engine, policy), 0)
                }
            },
            _ => (Checkpointer::new(engine, policy), 0),
        };
        let suffix = &stream[(replay_from as usize).min(stream.len())..];
        let report = run_engine(&mut ck, suffix, 64);
        if replay_from > 0 {
            resume_note = Some(format!("resumed at item {replay_from}"));
        }
        if let Some(path) = opts.resume_from.as_deref() {
            ck.store()
                .save(Path::new(path))
                .map_err(|e| format!("cannot save checkpoint `{path}`: {e}"))?;
        }
        report
    } else if sharded {
        // batched ingestion is what lets the pool use its worker threads
        let mut pool = ShardedEngine::new(query, config, opts.shards);
        let report = run_engine_batched(&mut pool, stream, 256);
        shard_note = Some(shard_table(&pool.per_shard_stats()).to_string());
        report
    } else {
        let mut engine = make_sharded_engine(opts.strategy, query, config, opts.shards);
        run_engine(engine.as_mut(), stream, 64)
    };

    let mut out = String::new();
    out.push_str(&format!(
        "stream       : {} events, {:.1}% late, max lateness {}\n",
        report.events,
        disorder.late_fraction * 100.0,
        disorder.max_lateness
    ));
    out.push_str(&format!("strategy     : {}\n", opts.strategy));
    out.push_str(&format!("matches      : {} (net)\n", report.net_matches()));
    out.push_str(&format!(
        "throughput   : {:.0} events/s\n",
        report.throughput_eps
    ));
    out.push_str(&format!(
        "latency      : mean {:.1} / p99 {} arrivals\n",
        report.arrival_latency.mean(),
        report.arrival_latency.p99()
    ));
    out.push_str(&format!(
        "state        : peak {} / mean {:.1} events\n",
        report.peak_state, report.mean_state
    ));
    out.push_str(&format!(
        "counters     : {} insertions, {} dfs steps, {} purged, {} beyond-K arrivals\n",
        report.stats.insertions,
        report.stats.dfs_steps,
        report.stats.purged,
        report.stats.late_drops
    ));
    if use_checkpoints {
        out.push_str(&format!(
            "checkpoints  : {} written, {} rejected, {} replay-suppressed\n",
            report.stats.checkpoints_written,
            report.stats.checkpoints_rejected,
            report.stats.replayed_suppressed
        ));
        if let Some(note) = resume_note {
            out.push_str(&format!("recovery     : {note}\n"));
        }
    }
    if sharded {
        out.push_str(&format!(
            "shards       : {} workers, {} events routed, merge buffer peak {}\n",
            opts.shards, report.stats.events_routed, report.stats.merge_buffer_peak
        ));
        if let Some(table) = shard_note {
            out.push_str(&table);
        }
    }
    Ok(out)
}

// ------------------------------------------------- networked subcommands --

/// How the networked subcommands (`netbench`, `send`) synthesize the
/// arrival stream they ship over the wire.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Built-in workload name (`synthetic`, `rfid`, `intrusion`, `stock`).
    pub workload: String,
    /// Query text; empty selects the workload's flagship query.
    pub query: String,
    /// Events to generate before disorder is applied.
    pub events: usize,
    /// Out-of-order fraction in `0..1`.
    pub ooo: f64,
    /// Maximum lateness in ticks.
    pub max_delay: u64,
    /// Workload/disorder seed.
    pub seed: u64,
}

impl Default for StreamSpec {
    fn default() -> Self {
        StreamSpec {
            workload: "synthetic".to_owned(),
            query: String::new(),
            events: 10_000,
            ooo: 0.2,
            max_delay: 100,
            seed: 42,
        }
    }
}

/// Evaluation settings for the networked subcommands.
#[derive(Debug, Clone)]
pub struct NetOptions {
    /// Disorder bound `K`.
    pub k: u64,
    /// Evaluation strategy.
    pub strategy: Strategy,
    /// Disorder-handling policy for server-side evaluation.
    pub policy: DisorderPolicy,
    /// Events per EVENT_BATCH frame (`<= 1` sends singletons).
    pub batch: usize,
    /// Inject a punctuation every `n` events before shipping.
    pub punctuate_every: Option<usize>,
    /// Worker shards per Native query engine on the server side.
    pub shards: usize,
    /// Observability recorder settings for the server-side engine core
    /// (`ObsConfig::disabled()` removes all instrumentation overhead).
    pub obs: ObsConfig,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            k: 100,
            strategy: Strategy::Native,
            policy: DisorderPolicy::Conservative,
            batch: 64,
            punctuate_every: None,
            shards: 1,
            obs: ObsConfig::default(),
        }
    }
}

/// Parses a disorder-policy name: `conservative`, `speculative`
/// (`aggressive` is accepted as a legacy alias), `lazy`, or
/// `adaptive[:ACCURACY]` with accuracy in `0..=100` (default 90).
///
/// # Errors
///
/// Lists the accepted names when `name` matches none.
pub fn parse_policy(name: &str) -> Result<DisorderPolicy, String> {
    if let Some(rest) = name.strip_prefix("adaptive") {
        let accuracy = match rest.strip_prefix(':') {
            Some(n) => n
                .parse::<u8>()
                .ok()
                .filter(|&a| a <= 100)
                .ok_or_else(|| format!("adaptive accuracy must be 0..=100, got `{n}`"))?,
            None if rest.is_empty() => 90,
            None => {
                return Err(format!(
                    "unknown disorder policy `{name}` (try `adaptive` or `adaptive:90`)"
                ))
            }
        };
        return Ok(DisorderPolicy::AdaptiveSlack { accuracy });
    }
    match name {
        "conservative" => Ok(DisorderPolicy::Conservative),
        "speculative" | "aggressive" => Ok(DisorderPolicy::Speculative),
        "lazy" => Ok(DisorderPolicy::Lazy),
        other => Err(format!(
            "unknown disorder policy `{other}` \
             (conservative|speculative|lazy|adaptive[:N])"
        )),
    }
}

fn policy_name(policy: DisorderPolicy) -> String {
    match policy {
        DisorderPolicy::Conservative => "conservative".to_owned(),
        DisorderPolicy::Speculative => "speculative".to_owned(),
        DisorderPolicy::Lazy => "lazy".to_owned(),
        DisorderPolicy::AdaptiveSlack { accuracy } => format!("adaptive:{accuracy}"),
    }
}

/// Builds the disordered (and optionally punctuated) stream a networked
/// subcommand replays, plus the schema and effective query text.
fn prepared_stream(
    spec: &StreamSpec,
    net: &NetOptions,
) -> Result<(Arc<TypeRegistry>, Vec<StreamItem>, String), String> {
    let (registry, history, default_query) =
        build_workload(&spec.workload, spec.events, spec.seed)?;
    let text = if spec.query.trim().is_empty() {
        default_query
    } else {
        spec.query.clone()
    };
    let mut stream = delay_shuffle(&history, spec.ooo, spec.max_delay.max(1), spec.seed);
    if let Some(n) = net.punctuate_every {
        stream = punctuate(&stream, n.max(1));
    }
    Ok((registry, stream, text))
}

fn net_core(registry: Arc<TypeRegistry>, net: &NetOptions) -> CoreConfig {
    let mut engine = EngineConfig::with_k(Duration::new(net.k));
    engine.policy = net.policy;
    if net.punctuate_every.is_some() {
        engine.watermark = sequin_engine::WatermarkSource::Both;
    }
    let mut core = CoreConfig::new(registry, net.strategy, engine);
    core.shards = net.shards.max(1);
    core.obs = net.obs;
    core
}

/// `sequin netbench`: replays a disordered workload through a loopback
/// TCP server and verifies the streamed outputs byte-for-byte against the
/// in-process oracle. Errors if the comparison diverges, so it doubles as
/// the CI smoke test for the whole server stack.
///
/// # Errors
///
/// Reports workload/query errors, transport failures, and any oracle
/// divergence as display strings.
pub fn run_netbench(spec: &StreamSpec, net: &NetOptions) -> Result<String, String> {
    let (registry, stream, text) = prepared_stream(spec, net)?;
    let core = net_core(registry, net);
    let report = loopback_run(core, std::slice::from_ref(&text), &stream, net.batch.max(1))?;
    let mut out = String::new();
    out.push_str(&format!(
        "stream       : {} items over loopback TCP, batches of {}\n",
        report.items,
        net.batch.max(1)
    ));
    out.push_str(&format!(
        "evaluation   : {} strategy, {} policy, K={}, {} shard(s)\n",
        net.strategy,
        policy_name(net.policy),
        net.k,
        net.shards.max(1)
    ));
    out.push_str(&format!(
        "outputs      : {} frames, byte-identical to the in-process oracle\n",
        report.outputs
    ));
    out.push_str(&format!(
        "throughput   : {:.0} items/s end-to-end ({} busy advisories)\n",
        report.throughput_eps, report.busy
    ));
    out.push_str(&format!(
        "engine       : {} insertions, {} dfs steps, {} purged\n",
        report.engine.insertions, report.engine.dfs_steps, report.engine.purged
    ));
    out.push_str(&format!("{}", pairs_table(report.server.as_pairs())));
    Ok(out)
}

/// Deployment settings for `sequin serve`.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:7070` (`:0` picks a free port).
    pub addr: String,
    /// Queries registered before the first connection (clients may
    /// SUBSCRIBE more).
    pub queries: Vec<String>,
    /// Checkpoint every `n` ingested items (enables exactly-once restart
    /// when `store` is also set).
    pub checkpoint_every: Option<u64>,
    /// Checkpoint-store file: loaded at startup to resume a previous
    /// incarnation, saved on every dirty message.
    pub store: Option<String>,
    /// Flight recorder directory (`--bundle-dir`): where a
    /// `recovery-fallback.sqpm` postmortem bundle lands when a startup
    /// resume rejects checkpoints. Defaults to the store file's directory
    /// when durability is on.
    pub bundle_dir: Option<String>,
    /// Evaluation settings shared by every registered query.
    pub net: NetOptions,
}

/// Resolves the schema a server negotiates: an explicit `--types` DSL
/// string wins; otherwise the named workload's registry (default
/// `synthetic`).
///
/// # Errors
///
/// Reports schema-DSL and unknown-workload errors as display strings.
pub fn serve_registry(
    workload: Option<&str>,
    types: Option<&str>,
) -> Result<Arc<TypeRegistry>, String> {
    match types {
        Some(schema) => Ok(Arc::new(parse_schema(schema)?)),
        None => Ok(build_workload(workload.unwrap_or("synthetic"), 0, 0)?.0),
    }
}

/// `sequin serve`: starts the engine thread and TCP acceptor. Returns the
/// running server (kept alive by the caller), the bound address, and a
/// startup banner; the thin binary prints the banner and parks forever.
///
/// # Errors
///
/// Reports bind failures, unreadable stores, and bad preregistered
/// queries as display strings.
pub fn start_server(
    registry: Arc<TypeRegistry>,
    opts: &ServeOptions,
) -> Result<(Server, std::net::SocketAddr, String), String> {
    let fingerprint = registry.fingerprint();
    let mut core = net_core(registry, &opts.net);
    core.checkpoint_every = opts.checkpoint_every;
    let resuming = opts.store.as_deref().is_some_and(|p| Path::new(p).exists());
    let mut config = ServerConfig::new(core);
    config.queries = opts.queries.clone();
    config.store_path = opts.store.as_ref().map(PathBuf::from);
    config.bundle_dir = match (&opts.bundle_dir, &opts.store) {
        (Some(dir), _) => Some(PathBuf::from(dir)),
        // durable servers default the flight recorder next to the store
        (None, Some(store)) => Some(
            Path::new(store)
                .parent()
                .filter(|d| !d.as_os_str().is_empty())
                .unwrap_or(Path::new("."))
                .to_path_buf(),
        ),
        (None, None) => None,
    };
    let mut server = Server::start(config)?;
    let addr = server.listen(&opts.addr).map_err(|e| e.to_string())?;
    let mut banner = String::new();
    banner.push_str(&format!("listening    : {addr}\n"));
    banner.push_str(&format!("schema       : fingerprint {fingerprint:#018x}\n"));
    banner.push_str(&format!(
        "evaluation   : {} strategy, {} policy, K={}\n",
        opts.net.strategy,
        policy_name(opts.net.policy),
        opts.net.k
    ));
    match (&opts.store, opts.checkpoint_every) {
        (Some(store), Some(n)) => banner.push_str(&format!(
            "durability   : checkpoint every {n} items to `{store}`{}\n",
            if resuming { " (resumed)" } else { "" }
        )),
        _ => banner.push_str("durability   : off (volatile)\n"),
    }
    banner.push_str(&format!(
        "queries      : {} preregistered\n",
        opts.queries.len()
    ));
    Ok((server, addr, banner))
}

/// `sequin send`: connects to a running server, subscribes the query,
/// replays the generated stream (honoring the server's `resume_from`
/// replay cursor), and reports what came back. `drain` asks the server to
/// flush end-of-stream state afterwards — leave it off when other senders
/// will keep the stream alive.
///
/// # Errors
///
/// Reports connection, handshake, and protocol failures as display
/// strings.
pub fn send(
    addr: &str,
    spec: &StreamSpec,
    net: &NetOptions,
    drain: bool,
) -> Result<String, String> {
    let (registry, stream, text) = prepared_stream(spec, net)?;
    let fingerprint = registry.fingerprint();

    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let (resume_from, preregistered) = client
        .hello(fingerprint, "sequin-send")
        .map_err(|e| e.to_string())?;
    let query_id = client.subscribe(&text).map_err(|e| e.to_string())?;

    let suffix = &stream[(resume_from as usize).min(stream.len())..];
    let batch = net.batch.max(1);
    let mut pending: Vec<EventRef> = Vec::new();
    for item in suffix {
        match item {
            StreamItem::Event(e) if batch > 1 => {
                pending.push(e.clone());
                if pending.len() >= batch {
                    client.send_batch(&pending).map_err(|e| e.to_string())?;
                    pending.clear();
                }
            }
            other => {
                if !pending.is_empty() {
                    client.send_batch(&pending).map_err(|e| e.to_string())?;
                    pending.clear();
                }
                client.send_item(other).map_err(|e| e.to_string())?;
            }
        }
    }
    if !pending.is_empty() {
        client.send_batch(&pending).map_err(|e| e.to_string())?;
    }
    if drain {
        client.drain().map_err(|e| e.to_string())?;
    }
    // stats is a round-trip through the engine queue, so every output the
    // ingests above triggered is banked once it returns
    let (server_stats, engine_stats) = client.stats().map_err(|e| e.to_string())?;
    let outputs = client.take_outputs();
    let busy = client.busy_seen();
    client.bye();

    let mut out = String::new();
    out.push_str(&format!(
        "connected    : {addr}, schema {fingerprint:#018x}\n"
    ));
    out.push_str(&format!(
        "query        : id {query_id} ({preregistered} registered before this session)\n"
    ));
    if resume_from > 0 {
        out.push_str(&format!(
            "recovery     : server resumed at item {resume_from}; sent only the suffix\n"
        ));
    }
    out.push_str(&format!(
        "sent         : {} of {} items{}\n",
        suffix.len(),
        stream.len(),
        if drain { ", then drained" } else { "" }
    ));
    out.push_str(&format!(
        "outputs      : {} frames ({} busy advisories)\n",
        outputs.len(),
        busy
    ));
    out.push_str(&format!(
        "engine       : {} insertions, {} purged, {} replay-suppressed\n",
        engine_stats.insertions, engine_stats.purged, engine_stats.replayed_suppressed
    ));
    out.push_str(&format!("{}", pairs_table(server_stats.as_pairs())));
    Ok(out)
}

/// Parses a metrics-exposition format name.
///
/// # Errors
///
/// Lists the accepted names when `name` matches none.
pub fn parse_metrics_format(name: &str) -> Result<MetricsFormat, String> {
    match name {
        "prom" | "prometheus" => Ok(MetricsFormat::Prometheus),
        "json" => Ok(MetricsFormat::Json),
        "trace" | "trace-json" => Ok(MetricsFormat::TraceJson),
        other => Err(format!(
            "unknown metrics format `{other}` (prom|json|trace)"
        )),
    }
}

/// `sequin stats`: connects to a running server as an observer (the
/// fingerprint-0 wildcard HELLO, so no schema knowledge is needed) and
/// fetches one rendered telemetry document — Prometheus text, the JSON
/// series array, or the structured trace ring. The binary's `--watch`
/// mode calls this in a loop.
///
/// # Errors
///
/// Reports connection, handshake, and protocol failures as display
/// strings.
pub fn fetch_stats(addr: &str, format: MetricsFormat) -> Result<String, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    client.hello(0, "sequin-stats").map_err(|e| e.to_string())?;
    let body = client.metrics(format).map_err(|e| e.to_string())?;
    client.bye();
    Ok(body)
}

/// Renders one `--watch` refresh: every sample of the scraped Prometheus
/// exposition as a `series | labels | value` table, histogram buckets
/// folded away (their `_sum`/`_count` rows stay). Because it is built
/// from the full snapshot rather than a hand-picked allowlist, every
/// series the core exports — including `sequin_retraction_emitted`,
/// `sequin_slack_bound`, and `sequin_trace_evicted_total` — shows up the
/// moment the engine starts reporting it.
pub fn watch_table(prom: &str) -> String {
    let mut table = sequin_metrics::Table::new(&["series", "labels", "value"]);
    let mut rows = 0usize;
    for line in prom.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let (name, labels) = match series.split_once('{') {
            Some((n, rest)) => (n, rest.trim_end_matches('}')),
            None => (series, ""),
        };
        if name.ends_with("_bucket") {
            continue;
        }
        table.row(&[name.to_owned(), labels.to_owned(), value.to_owned()]);
        rows += 1;
    }
    if rows == 0 {
        return "no series exported yet\n".to_owned();
    }
    table.to_string()
}

// ----------------------------------------------------------------- trace --

/// Settings for `sequin trace`: render causal lineage either live from a
/// running server (TRACE_REQ/TRACE_REPLY) or from an on-disk postmortem
/// bundle.
#[derive(Debug, Clone, Default)]
pub struct TraceOptions {
    /// Render an on-disk postmortem bundle instead of querying a server.
    pub bundle: Option<String>,
    /// Server to query live (`--addr`); ignored when `bundle` is set.
    pub addr: Option<String>,
    /// Restrict to one query id.
    pub query: Option<u64>,
    /// Restrict to one provenance id (the 16-hex-digit `pid` stamped on
    /// every output span).
    pub pid: Option<u64>,
    /// Emit JSON instead of the text renderer.
    pub json: bool,
}

/// Parses a provenance id: 16 hex digits, with or without `0x`.
pub fn parse_pid(text: &str) -> Result<u64, String> {
    let hex = text.strip_prefix("0x").unwrap_or(text);
    u64::from_str_radix(hex, 16)
        .map_err(|_| format!("--pid expects a hex provenance id, got `{text}`"))
}

/// Renders a decoded postmortem bundle: capture context (reason, config,
/// replay parameters) followed by the lineage of every output span it
/// froze, through the same renderers the live path uses.
pub fn render_bundle(bundle: &Bundle, query: Option<u64>, pid: Option<u64>, json: bool) -> String {
    let outputs = filter_outputs(&bundle.spans, query, pid);
    if json {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"reason\": {:?},\n", bundle.reason));
        s.push_str(&format!("  \"config\": {:?},\n", bundle.config));
        s.push_str("  \"params\": {");
        for (i, (k, v)) in bundle.params.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("{k:?}: {v}"));
        }
        s.push_str("},\n");
        s.push_str(&format!(
            "  \"spans_recorded\": {},\n  \"spans_dropped\": {},\n",
            bundle.recorded, bundle.dropped
        ));
        s.push_str(&format!("  \"lineage\": {},\n", lineage_json(&outputs)));
        s.push_str(&format!(
            "  \"metrics\": {}\n}}\n",
            if bundle.metrics_json.is_empty() {
                "[]"
            } else {
                &bundle.metrics_json
            }
        ));
        return s;
    }
    let mut out = String::new();
    out.push_str(&format!("reason       : {}\n", bundle.reason));
    for line in bundle.config.lines() {
        out.push_str(&format!("config       : {line}\n"));
    }
    let params = bundle
        .params
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ");
    out.push_str(&format!("params       : {params}\n"));
    out.push_str(&format!(
        "trace ring   : {} span(s) recorded, {} evicted\n",
        bundle.recorded, bundle.dropped
    ));
    out.push('\n');
    out.push_str(&lineage_text(&outputs));
    out
}

/// `sequin trace`: reconstructs the causal lineage of emitted (and
/// retracted) outputs — which events constitute each match, what arrival
/// triggered or what watermark sealed it, and for retractions which late
/// event contradicted it. Reads either a live server (observer HELLO,
/// then TRACE_REQ) or an on-disk postmortem bundle.
///
/// # Errors
///
/// Reports missing sources, unreadable/corrupt bundles, and protocol
/// failures as display strings.
pub fn run_trace(o: &TraceOptions) -> Result<String, String> {
    if let Some(path) = &o.bundle {
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read bundle `{path}`: {e}"))?;
        let bundle = Bundle::decode(&bytes).map_err(|e| format!("corrupt bundle `{path}`: {e}"))?;
        return Ok(render_bundle(&bundle, o.query, o.pid, o.json));
    }
    let addr = o
        .addr
        .as_deref()
        .ok_or("trace needs --bundle <path> or --addr <host:port>")?;
    let format = if o.json {
        TraceFormat::Json
    } else {
        TraceFormat::Text
    };
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    client.hello(0, "sequin-trace").map_err(|e| e.to_string())?;
    let body = client
        .trace(
            format,
            o.query.unwrap_or(TRACE_ALL_QUERIES),
            o.pid.unwrap_or(TRACE_ALL_OUTPUTS),
        )
        .map_err(|e| e.to_string())?;
    client.bye();
    Ok(body)
}

// ------------------------------------------------------------- benchmark --

/// Settings for `sequin bench`: a fixed-seed sharded-throughput benchmark
/// with an optional committed baseline acting as a regression gate.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Events to generate before disorder is applied.
    pub events: usize,
    /// Out-of-order fraction in `0..1`.
    pub ooo: f64,
    /// Maximum lateness in ticks.
    pub max_delay: u64,
    /// Workload/disorder seed (fixed so runs are comparable).
    pub seed: u64,
    /// Disorder bound `K`.
    pub k: u64,
    /// Shard counts to measure, e.g. `[1, 4]`. Shards=1 is always run
    /// first as the output oracle even when absent from the list.
    pub shard_counts: Vec<usize>,
    /// Events per [`sequin_engine::Engine::ingest_batch`] call.
    pub batch: usize,
    /// Write the machine-readable report here (e.g. `BENCH_ci.json`).
    pub json_out: Option<String>,
    /// Committed baseline to gate against (e.g. `bench/baseline.json`).
    pub baseline: Option<String>,
    /// Rewrite the baseline from this run instead of gating against it.
    pub refresh_baseline: bool,
    /// Require `throughput(max shards) >= F * throughput(shards=1)`.
    /// CI passes 2.0. The floor is hardware-aware: on machines with fewer
    /// than `2F` cores it is clamped to `max(cores / 2, 0.5)` — a parallel
    /// speedup the hardware cannot express must not fail the gate, but
    /// routed sharding regressing to the old lockstep slowdown (0.33x)
    /// still does, even single-core.
    pub min_speedup: Option<f64>,
    /// Allowed per-config throughput regression vs the baseline, percent.
    pub regression_pct: f64,
    /// Write the instrumentation-overhead report here (e.g.
    /// `BENCH_obs.json`). Set by the CI preset.
    pub obs_out: Option<String>,
    /// Fail if the observability layer costs more than this percentage of
    /// throughput versus the same run with metrics configured off. CI
    /// passes 5.0; `None` (with `obs_out` unset) skips the measurement.
    pub max_obs_overhead_pct: Option<f64>,
    /// Query counts for the multi-query marginal-cost axis (e.g.
    /// `[1, 64, 1024]`). Non-empty switches `bench` into that mode: each
    /// count builds a prefix-overlapping query family and measures
    /// shared-plan vs independent per-query evaluation.
    pub query_counts: Vec<usize>,
    /// Require `shared throughput >= F * independent throughput` at the
    /// largest entry of `query_counts`. CI passes 5.0.
    pub min_multi_speedup: Option<f64>,
    /// Measure the disorder-policy latency axis: conservative vs
    /// speculative evaluation of a negation query over the same
    /// disordered stream, reporting per-policy p50 detection latency
    /// and the speculative retraction rate in the JSON report. Set by
    /// the CI preset.
    pub policy_axis: bool,
    /// Gate the axis: require speculative p50 detection latency
    /// strictly below conservative p50. Enforced only at `ooo >= 0.2`,
    /// where disorder makes conservative deferral visible; implies
    /// `policy_axis`. Set by the CI preset.
    pub policy_gate: bool,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            events: 20_000,
            ooo: 0.3,
            max_delay: 100,
            seed: 42,
            k: 100,
            shard_counts: vec![1, 2],
            batch: 256,
            json_out: None,
            baseline: None,
            refresh_baseline: false,
            min_speedup: None,
            regression_pct: 15.0,
            obs_out: None,
            max_obs_overhead_pct: None,
            query_counts: Vec::new(),
            min_multi_speedup: None,
            policy_axis: false,
            policy_gate: false,
        }
    }
}

impl BenchOptions {
    /// The CI preset: ~100k events at 30% disorder, the full
    /// shard-scaling axis {1, 2, 4, 8}, `BENCH_ci.json` artifact, gated
    /// against `bench/baseline.json`.
    pub fn ci() -> BenchOptions {
        BenchOptions {
            events: 100_000,
            shard_counts: vec![1, 2, 4, 8],
            json_out: Some("BENCH_ci.json".to_owned()),
            baseline: Some("bench/baseline.json".to_owned()),
            obs_out: Some("BENCH_obs.json".to_owned()),
            max_obs_overhead_pct: Some(5.0),
            policy_axis: true,
            policy_gate: true,
            ..BenchOptions::default()
        }
    }
}

/// One measured configuration of a bench run.
#[derive(Debug, Clone)]
struct BenchConfigReport {
    shards: usize,
    throughput_eps: f64,
    /// Median per-output detection latency in event-time ticks
    /// (`emit_clock - last constituent ts` — how long disorder deferred
    /// the result past the point it became true; the same quantity the
    /// sequin-obs `sequin_deferral_time` histogram samples). The
    /// previously reported arrival-sequence latency is identically zero
    /// for this negation-free workload, which is why the baseline showed
    /// p50/p95 = 0.
    p50_detection_ticks: u64,
    /// 95th percentile of the same distribution.
    p95_detection_ticks: u64,
    outputs: usize,
}

/// The disorder-policy axis of `sequin bench`: one negation query (whose
/// conservative evaluation must defer emission until the watermark seals
/// the negated window) evaluated twice over the same disordered stream,
/// once per policy. Detection latency is *event time* — emission clock
/// minus the match's last constituent timestamp — so the comparison is
/// deterministic for a fixed seed, not a wall-clock measurement.
#[derive(Debug, Clone)]
struct PolicyAxisReport {
    conservative_p50: u64,
    speculative_p50: u64,
    inserts: usize,
    retracts: usize,
}

impl PolicyAxisReport {
    /// Retractions per speculative insert (the accuracy price of the
    /// latency win).
    fn retraction_rate(&self) -> f64 {
        if self.inserts == 0 {
            0.0
        } else {
            self.retracts as f64 / self.inserts as f64
        }
    }
}

/// The negation query the policy axis measures: trailing-window sealing
/// is exactly where conservative deferral costs latency and speculation
/// risks retractions.
const POLICY_AXIS_QUERY: &str = "PATTERN SEQ(T0 a, !T1 b, T2 c) WITHIN 100";

fn measure_policy_axis(
    registry: &Arc<TypeRegistry>,
    stream: &[StreamItem],
    k: u64,
) -> Result<PolicyAxisReport, String> {
    let query = parse(POLICY_AXIS_QUERY, registry).map_err(|e| e.to_string())?;
    let run_policy = |policy: DisorderPolicy| -> RunReport {
        let mut cfg = EngineConfig::with_k(Duration::new(k));
        cfg.policy = policy;
        let mut engine = NativeEngine::new(Arc::clone(&query), cfg);
        run_engine(&mut engine, stream, 64)
    };
    let conservative = run_policy(DisorderPolicy::Conservative);
    let speculative = run_policy(DisorderPolicy::Speculative);
    if sequin_metrics::net_inserts(&conservative.outputs)
        != sequin_metrics::net_inserts(&speculative.outputs)
    {
        return Err(
            "policy axis: speculative settled output diverged from the conservative oracle"
                .to_owned(),
        );
    }
    let inserts = speculative
        .outputs
        .iter()
        .filter(|o| o.kind == OutputKind::Insert)
        .count();
    Ok(PolicyAxisReport {
        conservative_p50: conservative.event_time_latency.p50(),
        speculative_p50: speculative.event_time_latency.p50(),
        inserts,
        retracts: speculative.outputs.len() - inserts,
    })
}

fn bench_json(
    opts: &BenchOptions,
    configs: &[BenchConfigReport],
    policy: Option<&PolicyAxisReport>,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"sequin\",\n");
    s.push_str(&format!("  \"events\": {},\n", opts.events));
    s.push_str(&format!("  \"ooo\": {:.2},\n", opts.ooo));
    s.push_str(&format!("  \"seed\": {},\n", opts.seed));
    s.push_str(&format!("  \"k\": {},\n", opts.k));
    s.push_str("  \"configs\": [\n");
    for (ix, c) in configs.iter().enumerate() {
        s.push_str(&format!(
            "    {{ \"shards\": {}, \"throughput_eps\": {:.1}, \"p50_detection_ticks\": {}, \
             \"p95_detection_ticks\": {}, \"outputs\": {} }}{}\n",
            c.shards,
            c.throughput_eps,
            c.p50_detection_ticks,
            c.p95_detection_ticks,
            c.outputs,
            if ix + 1 < configs.len() { "," } else { "" }
        ));
    }
    match policy {
        None => s.push_str("  ]\n}\n"),
        Some(p) => {
            s.push_str("  ],\n");
            s.push_str(&format!(
                "  \"disorder_policy\": {{ \"query\": {:?}, \
                 \"conservative_p50_ticks\": {}, \"speculative_p50_ticks\": {}, \
                 \"inserts\": {}, \"retracts\": {}, \"retraction_rate\": {:.4} }}\n}}\n",
                POLICY_AXIS_QUERY,
                p.conservative_p50,
                p.speculative_p50,
                p.inserts,
                p.retracts,
                p.retraction_rate()
            ));
        }
    }
    s
}

/// Extracts `(shards, throughput_eps)` pairs from a bench JSON report.
/// Deliberately minimal: it only understands the flat key/value shape
/// [`bench_json`] writes (keys may come in any order within a config).
fn parse_baseline(text: &str) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    let mut shards: Option<usize> = None;
    let mut throughput: Option<f64> = None;
    for piece in text.split(|c: char| "{},[]".contains(c)) {
        let Some((key, value)) = piece.split_once(':') else {
            continue;
        };
        match key.trim().trim_matches('"') {
            "shards" => shards = value.trim().parse().ok(),
            "throughput_eps" => throughput = value.trim().parse().ok(),
            _ => continue,
        }
        if let (Some(s), Some(t)) = (shards, throughput) {
            out.push((s, t));
            shards = None;
            throughput = None;
        }
    }
    out
}

/// One timed [`EngineCore`] pass over `stream` (best of three), used to
/// price the observability layer: the same workload is run with the
/// recorder on and configured off, and the throughput delta is the
/// instrumentation overhead the CI gate bounds.
fn obs_bench_eps(
    registry: &Arc<TypeRegistry>,
    text: &str,
    stream: &[StreamItem],
    k: u64,
    batch: usize,
    obs: ObsConfig,
) -> Result<f64, String> {
    let mut best = 0.0f64;
    for _ in 0..3 {
        let mut cfg = CoreConfig::new(
            Arc::clone(registry),
            Strategy::Native,
            EngineConfig::with_k(Duration::new(k)),
        );
        cfg.obs = obs;
        let mut core = EngineCore::new(cfg);
        core.subscribe(text).map_err(|e| e.to_string())?;
        let start = std::time::Instant::now();
        let mut outputs = 0usize;
        for chunk in stream.chunks(batch) {
            outputs += core.ingest_batch(chunk).len();
        }
        outputs += core.finish().len();
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        std::hint::black_box(outputs);
        best = best.max(stream.len() as f64 / secs);
    }
    Ok(best)
}

/// `sequin bench`: measures Native-engine throughput at each requested
/// shard count over a fixed-seed disordered synthetic stream, verifying
/// every sharded run's outputs against the single-threaded oracle, then
/// gates against (or refreshes) a committed baseline.
///
/// # Errors
///
/// Reports output divergence, a breached regression gate or speedup
/// floor, and file I/O failures as display strings.
pub fn run_bench(opts: &BenchOptions) -> Result<String, String> {
    if !opts.query_counts.is_empty() {
        return run_bench_queries(opts);
    }
    let (registry, history, text) = build_workload("synthetic", opts.events, opts.seed)?;
    let query = parse(&text, &registry).map_err(|e| e.to_string())?;
    let stream = delay_shuffle(&history, opts.ooo, opts.max_delay.max(1), opts.seed);
    let config = EngineConfig::with_k(Duration::new(opts.k));
    let batch = opts.batch.max(1);

    let mut shard_counts: Vec<usize> = opts.shard_counts.iter().map(|&n| n.max(1)).collect();
    if shard_counts.is_empty() || shard_counts[0] != 1 {
        shard_counts.insert(0, 1);
    }
    shard_counts.dedup();

    // best of three: the regression gate needs a stable number, and the
    // max over repeats is far less noisy than any single run
    let run_at = |n: usize| -> RunReport {
        let mut best: Option<RunReport> = None;
        for _ in 0..3 {
            let mut pool = ShardedEngine::new(Arc::clone(&query), config, n);
            let r = run_engine_batched(&mut pool, &stream, batch);
            if best
                .as_ref()
                .is_none_or(|b| r.throughput_eps > b.throughput_eps)
            {
                best = Some(r);
            }
        }
        best.expect("three runs happened")
    };

    let oracle = run_at(1);
    let mut configs = vec![BenchConfigReport {
        shards: 1,
        throughput_eps: oracle.throughput_eps,
        p50_detection_ticks: oracle.event_time_latency.p50(),
        p95_detection_ticks: oracle.event_time_latency.p95(),
        outputs: oracle.outputs.len(),
    }];
    for &n in &shard_counts[1..] {
        let report = run_at(n);
        if report.outputs != oracle.outputs {
            return Err(format!(
                "shards={n} outputs diverged from the single-threaded oracle \
                 ({} vs {} items)",
                report.outputs.len(),
                oracle.outputs.len()
            ));
        }
        configs.push(BenchConfigReport {
            shards: n,
            throughput_eps: report.throughput_eps,
            p50_detection_ticks: report.event_time_latency.p50(),
            p95_detection_ticks: report.event_time_latency.p95(),
            outputs: report.outputs.len(),
        });
    }

    let mut out = String::new();
    out.push_str(&format!(
        "bench        : {} events, {:.0}% ooo, seed {}, K={}, batches of {}\n",
        opts.events,
        opts.ooo * 100.0,
        opts.seed,
        opts.k,
        batch
    ));
    let mut table = sequin_metrics::Table::new(&[
        "shards",
        "throughput_eps",
        "p50_detection",
        "p95_detection",
        "outputs",
    ]);
    for c in &configs {
        table.row(&[
            c.shards.to_string(),
            format!("{:.0}", c.throughput_eps),
            c.p50_detection_ticks.to_string(),
            c.p95_detection_ticks.to_string(),
            c.outputs.to_string(),
        ]);
    }
    out.push_str(&table.to_string());
    out.push_str("outputs      : all shard counts byte-identical to shards=1\n");

    let policy_axis = if opts.policy_axis || opts.policy_gate {
        Some(measure_policy_axis(&registry, &stream, opts.k)?)
    } else {
        None
    };
    if let Some(p) = &policy_axis {
        out.push_str(&format!(
            "policy axis  : p50 detection conservative {} vs speculative {} ticks, \
             {} retraction(s) over {} insert(s) ({:.1}%), settled outputs identical\n",
            p.conservative_p50,
            p.speculative_p50,
            p.retracts,
            p.inserts,
            p.retraction_rate() * 100.0
        ));
    }

    let json = bench_json(opts, &configs, policy_axis.as_ref());
    if let Some(path) = &opts.json_out {
        std::fs::write(path, &json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        out.push_str(&format!("report       : wrote {path}\n"));
    }

    if let Some(f) = opts.min_speedup {
        let base = configs[0].throughput_eps;
        let best = configs
            .iter()
            .map(|c| c.throughput_eps)
            .fold(0.0f64, f64::max);
        let speedup = if base > 0.0 { best / base } else { 0.0 };
        // a parallel speedup needs cores to run on: clamp the requested
        // floor to what this machine can express (CI's 4-core runners
        // keep the full 2.0x; a 1-core sandbox still must clear 0.5x,
        // which the old lockstep fan-out's 0.33x would fail)
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let floor = f.min((cores as f64 / 2.0).max(0.5));
        if speedup < floor {
            return Err(format!(
                "speedup floor breached: best/shards=1 = {speedup:.2}x < required {floor:.2}x \
                 ({f:.2}x requested, clamped for {cores} core(s))"
            ));
        }
        out.push_str(&format!(
            "speedup      : {speedup:.2}x over shards=1 (floor {floor:.2}x from {f:.2}x \
             requested on {cores} core(s))\n"
        ));
    }

    if let Some(path) = &opts.baseline {
        if opts.refresh_baseline {
            if let Some(dir) = Path::new(path).parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir)
                        .map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
                }
            }
            std::fs::write(path, &json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            out.push_str(&format!("baseline     : refreshed {path}\n"));
        } else {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read baseline `{path}`: {e}"))?;
            let baseline = parse_baseline(&text);
            if baseline.is_empty() {
                return Err(format!("baseline `{path}` holds no configs"));
            }
            let floor = 1.0 - opts.regression_pct / 100.0;
            let mut gated = 0;
            for c in &configs {
                let Some(&(_, base)) = baseline.iter().find(|(s, _)| *s == c.shards) else {
                    continue;
                };
                gated += 1;
                if c.throughput_eps < base * floor {
                    return Err(format!(
                        "throughput regression at shards={}: {:.0} eps vs baseline {:.0} \
                         (allowed {:.0}% drop)",
                        c.shards, c.throughput_eps, base, opts.regression_pct
                    ));
                }
            }
            out.push_str(&format!(
                "baseline     : {gated} config(s) within {:.0}% of {path}\n",
                opts.regression_pct
            ));
        }
    }

    if opts.policy_gate {
        let p = policy_axis
            .as_ref()
            .expect("policy_gate implies the axis was measured");
        // below 20% disorder the negated window often seals before the
        // watermark would have held it back, so the two policies can
        // legitimately tie — the latency gate is only meaningful once
        // disorder is heavy enough to separate them
        if opts.ooo >= 0.2 {
            if p.speculative_p50 >= p.conservative_p50 {
                return Err(format!(
                    "disorder-policy gate breached: speculative p50 {} ticks is not below \
                     conservative p50 {} ticks at {:.0}% disorder",
                    p.speculative_p50,
                    p.conservative_p50,
                    opts.ooo * 100.0
                ));
            }
            out.push_str(&format!(
                "policy gate  : speculative p50 {} < conservative p50 {} ticks\n",
                p.speculative_p50, p.conservative_p50
            ));
        } else {
            out.push_str(&format!(
                "policy gate  : skipped (disorder {:.0}% < 20% threshold)\n",
                opts.ooo * 100.0
            ));
        }
    }

    if opts.obs_out.is_some() || opts.max_obs_overhead_pct.is_some() {
        let eps_off = obs_bench_eps(
            &registry,
            &text,
            &stream,
            opts.k,
            batch,
            ObsConfig::disabled(),
        )?;
        let eps_noprov = obs_bench_eps(
            &registry,
            &text,
            &stream,
            opts.k,
            batch,
            ObsConfig::without_provenance(),
        )?;
        let eps_on = obs_bench_eps(
            &registry,
            &text,
            &stream,
            opts.k,
            batch,
            ObsConfig::default(),
        )?;
        let pct = |base: f64, measured: f64| {
            if base > 0.0 {
                ((base - measured) / base * 100.0).max(0.0)
            } else {
                0.0
            }
        };
        // the whole recorder vs nothing, and provenance stamping alone vs
        // the same recorder with plain emit spans
        let overhead_pct = pct(eps_off, eps_on);
        let provenance_pct = pct(eps_noprov, eps_on);
        if let Some(path) = &opts.obs_out {
            let obs_json = format!(
                "{{\n  \"bench\": \"sequin-obs-overhead\",\n  \"events\": {},\n  \
                 \"throughput_obs_off_eps\": {:.1},\n  \
                 \"throughput_provenance_off_eps\": {:.1},\n  \
                 \"throughput_obs_on_eps\": {:.1},\n  \
                 \"overhead_pct\": {:.2},\n  \"provenance_overhead_pct\": {:.2},\n  \
                 \"max_overhead_pct\": {}\n}}\n",
                opts.events,
                eps_off,
                eps_noprov,
                eps_on,
                overhead_pct,
                provenance_pct,
                opts.max_obs_overhead_pct
                    .map_or("null".to_owned(), |f| format!("{f:.1}")),
            );
            std::fs::write(path, obs_json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            out.push_str(&format!("obs report   : wrote {path}\n"));
        }
        out.push_str(&format!(
            "obs overhead : {overhead_pct:.2}% ({eps_on:.0} eps instrumented vs {eps_off:.0} \
             eps off)\n"
        ));
        out.push_str(&format!(
            "provenance   : {provenance_pct:.2}% over plain emit spans ({eps_noprov:.0} eps \
             without lineage)\n"
        ));
        if let Some(limit) = opts.max_obs_overhead_pct {
            let breach = if overhead_pct > limit {
                Some(format!(
                    "instrumentation overhead gate breached: {overhead_pct:.2}% > \
                     allowed {limit:.2}%"
                ))
            } else if provenance_pct > limit {
                Some(format!(
                    "provenance overhead gate breached: {provenance_pct:.2}% over \
                     provenance-off > allowed {limit:.2}%"
                ))
            } else {
                None
            };
            if let Some(message) = breach {
                // flight recorder: freeze the instrumented run that blew
                // the budget so the failure is inspectable offline
                let bundle_path = bench_gate_bundle(
                    &registry,
                    &text,
                    &stream,
                    opts,
                    batch,
                    &[
                        (
                            "overhead_pct_x100".to_owned(),
                            (overhead_pct * 100.0) as u64,
                        ),
                        (
                            "provenance_pct_x100".to_owned(),
                            (provenance_pct * 100.0) as u64,
                        ),
                        ("limit_pct_x100".to_owned(), (limit * 100.0) as u64),
                    ],
                );
                return Err(match bundle_path {
                    Some(p) => format!("{message} (postmortem bundle: {p})"),
                    None => message,
                });
            }
            out.push_str(&format!("obs gate     : within {limit:.1}% budget\n"));
        }
    }
    Ok(out)
}

/// Captures a `bench-gate` postmortem bundle: re-drives the benchmark
/// stream through a provenance-enabled core and writes the resulting
/// lineage + metrics capture next to the obs report. Best-effort — a
/// failed capture never masks the gate error itself.
fn bench_gate_bundle(
    registry: &Arc<TypeRegistry>,
    text: &str,
    stream: &[StreamItem],
    opts: &BenchOptions,
    batch: usize,
    extra: &[(String, u64)],
) -> Option<String> {
    let mut cfg = CoreConfig::new(
        Arc::clone(registry),
        Strategy::Native,
        EngineConfig::with_k(Duration::new(opts.k)),
    );
    cfg.obs = ObsConfig::default();
    let mut core = EngineCore::new(cfg);
    core.subscribe(text).ok()?;
    for chunk in stream.chunks(batch) {
        core.ingest_batch(chunk);
    }
    core.finish();
    let mut params = vec![
        ("events".to_owned(), opts.events as u64),
        ("seed".to_owned(), opts.seed),
        ("k".to_owned(), opts.k),
        ("batch".to_owned(), batch as u64),
    ];
    params.extend(extra.iter().cloned());
    let bundle = core.postmortem_bundle("bench-gate", params);
    let path = "BENCH_obs_failure.sqpm";
    std::fs::write(path, bundle.encode()).ok()?;
    Some(path.to_owned())
}

/// One measured query count of the multi-query bench axis.
#[derive(Debug, Clone)]
struct QueriesConfigReport {
    queries: usize,
    shared_eps: f64,
    independent_eps: f64,
    speedup: f64,
    outputs: usize,
    prefix_groups: u64,
}

fn bench_queries_json(opts: &BenchOptions, configs: &[QueriesConfigReport]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"sequin-multi-query\",\n");
    s.push_str(&format!("  \"events\": {},\n", opts.events));
    s.push_str(&format!("  \"ooo\": {:.2},\n", opts.ooo));
    s.push_str(&format!("  \"seed\": {},\n", opts.seed));
    s.push_str(&format!("  \"k\": {},\n", opts.k));
    s.push_str("  \"configs\": [\n");
    for (ix, c) in configs.iter().enumerate() {
        s.push_str(&format!(
            "    {{ \"queries\": {}, \"shared_eps\": {:.1}, \"independent_eps\": {:.1}, \
             \"speedup\": {:.2}, \"outputs\": {}, \"prefix_groups\": {} }}{}\n",
            c.queries,
            c.shared_eps,
            c.independent_eps,
            c.speedup,
            c.outputs,
            c.prefix_groups,
            if ix + 1 < configs.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The multi-query marginal-cost axis of `sequin bench` (`--queries`):
/// for each requested count `N`, a family of `N` textually distinct
/// queries sharing a common two-component prefix (`SEQ(T0 a, T1 b, T* c)`
/// with varying tail type and tail predicate) is evaluated over the same
/// disordered stream twice — once through the shared-plan compiler and
/// once on independent per-query engines. Outputs must be identical
/// (the shared plan's correctness contract); the reported `speedup` is
/// the shared/independent throughput ratio, optionally gated by
/// `min_multi_speedup` at the largest `N`.
fn run_bench_queries(opts: &BenchOptions) -> Result<String, String> {
    let workload = Synthetic::new(SyntheticConfig {
        num_types: 16,
        ..SyntheticConfig::default()
    });
    let registry = Arc::clone(workload.registry());
    let history = workload.generate(opts.events, opts.seed);
    let stream = delay_shuffle(&history, opts.ooo, opts.max_delay.max(1), opts.seed);
    let config = EngineConfig::with_k(Duration::new(opts.k));
    let batch = opts.batch.max(1);

    // controlled prefix overlap: every query shares the `(T0, T1)` prefix
    // and window, so the compiler pools the prefix into one group; tails
    // vary over 14 types and a one-value selectivity band on `c.x` (the
    // pushed-down predicate rejects most tail events at insert time),
    // keeping the family textually distinct up to 1400 queries
    let family = |n: usize| -> Result<Vec<Arc<Query>>, String> {
        (0..n)
            .map(|i| {
                let tail = 2 + i % 14;
                let band = (i / 14) % 100;
                let text = format!(
                    "PATTERN SEQ(T0 a, T1 b, T{tail} c) \
                     WHERE c.x >= {band} AND c.x < {} WITHIN 100",
                    band + 1
                );
                parse(&text, &registry).map_err(|e| format!("`{text}`: {e}"))
            })
            .collect()
    };

    let mut counts: Vec<usize> = opts.query_counts.iter().map(|&n| n.max(1)).collect();
    counts.sort_unstable();
    counts.dedup();

    let mut configs = Vec::new();
    for &n in &counts {
        let queries = family(n)?;

        // one untimed pass per backend pins the correctness contract:
        // identical per-query output, including emission bookkeeping
        let drive_shared = |timed: bool| -> (
            Vec<(sequin_engine::QueryId, sequin_engine::OutputItem)>,
            f64,
            u64,
        ) {
            let mut eng = SharedMultiEngine::new(config);
            for q in &queries {
                eng.register(Arc::clone(q));
            }
            let start = std::time::Instant::now();
            let mut out = Vec::new();
            for chunk in stream.chunks(batch) {
                out.extend(eng.ingest_batch(chunk).into_iter().flatten());
            }
            out.extend(eng.finish());
            let eps = stream.len() as f64 / start.elapsed().as_secs_f64().max(1e-9);
            let groups = eng.plan_metrics().prefix_groups;
            if timed {
                std::hint::black_box(&out);
            }
            (out, eps, groups)
        };
        let drive_independent = |timed: bool| -> (
            Vec<(sequin_engine::QueryId, sequin_engine::OutputItem)>,
            f64,
        ) {
            let mut eng = MultiEngine::new();
            for q in &queries {
                eng.register(Arc::clone(q), Strategy::Native, config);
            }
            let start = std::time::Instant::now();
            let mut out = Vec::new();
            for chunk in stream.chunks(batch) {
                out.extend(eng.ingest_batch(chunk).into_iter().flatten());
            }
            out.extend(eng.finish());
            let eps = stream.len() as f64 / start.elapsed().as_secs_f64().max(1e-9);
            if timed {
                std::hint::black_box(&out);
            }
            (out, eps)
        };

        let (shared_out, mut shared_eps, prefix_groups) = drive_shared(false);
        let (indep_out, mut indep_eps) = drive_independent(false);
        if shared_out != indep_out {
            return Err(format!(
                "queries={n}: shared-plan output diverged from independent evaluation \
                 ({} vs {} items)",
                shared_out.len(),
                indep_out.len()
            ));
        }
        let outputs = shared_out.len();
        drop((shared_out, indep_out));

        // best of two timed repeats per backend (the untimed verification
        // pass already warmed caches)
        for _ in 0..2 {
            shared_eps = shared_eps.max(drive_shared(true).1);
            indep_eps = indep_eps.max(drive_independent(true).1);
        }

        configs.push(QueriesConfigReport {
            queries: n,
            shared_eps,
            independent_eps: indep_eps,
            speedup: if indep_eps > 0.0 {
                shared_eps / indep_eps
            } else {
                0.0
            },
            outputs,
            prefix_groups,
        });
    }

    let mut out = String::new();
    out.push_str(&format!(
        "bench        : multi-query axis, {} events, {:.0}% ooo, seed {}, K={}, batches of {}\n",
        opts.events,
        opts.ooo * 100.0,
        opts.seed,
        opts.k,
        batch
    ));
    let mut table = sequin_metrics::Table::new(&[
        "queries",
        "shared_eps",
        "independent_eps",
        "speedup",
        "outputs",
        "prefix_groups",
    ]);
    for c in &configs {
        table.row(&[
            c.queries.to_string(),
            format!("{:.0}", c.shared_eps),
            format!("{:.0}", c.independent_eps),
            format!("{:.2}x", c.speedup),
            c.outputs.to_string(),
            c.prefix_groups.to_string(),
        ]);
    }
    out.push_str(&table.to_string());
    out.push_str("outputs      : shared plan identical to independent evaluation at every count\n");

    if let Some(path) = &opts.json_out {
        std::fs::write(path, bench_queries_json(opts, &configs))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        out.push_str(&format!("report       : wrote {path}\n"));
    }

    if let Some(f) = opts.min_multi_speedup {
        let largest = configs.last().expect("at least one count");
        if largest.speedup < f {
            return Err(format!(
                "marginal-cost floor breached at queries={}: shared/independent = \
                 {:.2}x < required {f:.2}x",
                largest.queries, largest.speedup
            ));
        }
        out.push_str(&format!(
            "marginal cost: {:.2}x over independent at queries={} (floor {f:.2}x)\n",
            largest.speedup, largest.queries
        ));
    }
    Ok(out)
}

// ------------------------------------------------------------ simulation --

/// Settings for `sequin sim`: the differential simulation harness.
#[derive(Debug, Clone, Default)]
pub struct SimCliOptions {
    /// Harness knobs (seeds, case counts, budget, shrinking, sabotage).
    pub opts: sequin_sim::SimOptions,
    /// Replay exactly one case index (of the first seed) instead of the
    /// full matrix; prints the case and its verdict.
    pub replay_case: Option<u64>,
    /// Write the machine-readable report here (e.g. `SIM_ci.json`).
    pub json_out: Option<String>,
    /// Write each failure's self-contained `#[test]` repro into this
    /// directory (one `.rs` file per failure).
    pub emit_repro: Option<String>,
    /// Run the multi-query mode instead: generated query *sets* with
    /// overlapping prefixes, shared-plan evaluation checked against the
    /// independent per-query reference (no shrinking; failures replay
    /// via `--multi --seed S --case N`).
    pub multi: bool,
}

impl SimCliOptions {
    /// The CI preset: pinned seeds 1–4, 560 cases, 80 s budget,
    /// `SIM_ci.json` artifact, repros into `sim-repros/`, postmortem
    /// bundles into `sim-bundles/`.
    pub fn ci() -> SimCliOptions {
        let mut opts = sequin_sim::SimOptions::ci();
        opts.bundle_dir = Some(PathBuf::from("sim-bundles"));
        SimCliOptions {
            opts,
            replay_case: None,
            json_out: Some("SIM_ci.json".to_owned()),
            emit_repro: Some("sim-repros".to_owned()),
            multi: false,
        }
    }
}

fn sim_json(o: &SimCliOptions, report: &sequin_sim::SimReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"sim\": \"sequin\",\n");
    s.push_str(&format!(
        "  \"seeds\": [{}],\n",
        o.opts
            .seeds
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str(&format!(
        "  \"cases_per_seed\": {},\n",
        o.opts.cases_per_seed
    ));
    s.push_str(&format!("  \"purge_skew\": {},\n", o.opts.purge_skew));
    s.push_str(&format!(
        "  \"retraction_drop\": {},\n",
        o.opts.retraction_drop
    ));
    s.push_str(&format!(
        "  \"policy\": {:?},\n",
        o.opts
            .policy
            .map_or_else(|| "mixed".to_owned(), policy_name)
    ));
    s.push_str(&format!("  \"cases_run\": {},\n", report.cases_run));
    s.push_str(&format!(
        "  \"elapsed_secs\": {:.1},\n",
        report.elapsed.as_secs_f64()
    ));
    s.push_str(&format!(
        "  \"budget_exhausted\": {},\n",
        report.budget_exhausted
    ));
    s.push_str("  \"failures\": [\n");
    for (ix, f) in report.failures.iter().enumerate() {
        let paths: Vec<String> = f.original.iter().map(|m| m.path.to_string()).collect();
        s.push_str(&format!(
            "    {{ \"seed\": {}, \"case\": {}, \"paths\": {:?}, \"summary\": {:?} }}{}\n",
            f.seed,
            f.case_ix,
            paths,
            f.summary,
            if ix + 1 < report.failures.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// `sequin sim`: runs the deterministic differential simulation harness —
/// generated queries and disorder schedules, each checked against the
/// naive oracle and across every production path (sharded, batched,
/// crash/resume, networked loopback). Failures are shrunk to minimal
/// repros and reported with their replayable `--seed`/`--case` pair.
///
/// # Errors
///
/// Returns a summary (after writing any requested artifacts) when any
/// case mismatches, so CI fails loudly; file I/O problems are also
/// reported as display strings.
pub fn run_sim(o: &SimCliOptions) -> Result<String, String> {
    if o.multi {
        return run_sim_multi(o);
    }
    // single-case replay: regenerate, check, and show the verdict
    if let Some(case_ix) = o.replay_case {
        let seed = o.opts.seeds.first().copied().unwrap_or(0);
        let case = sequin_sim::runner::materialize(seed, case_ix, &o.opts);
        let mut out = String::new();
        out.push_str(&format!("case         : seed {seed}, index {case_ix}\n"));
        out.push_str(&format!("query        : {}\n", case.query.text()));
        out.push_str(&format!(
            "stream       : {} items, K={}, purge={:?}, watermark={}\n",
            case.items.len(),
            case.config.k,
            case.config.purge_every,
            case.config.watermark
        ));
        return match sequin_sim::replay(seed, case_ix, &o.opts) {
            None => {
                out.push_str("verdict      : clean (all paths agree)\n");
                Ok(out)
            }
            Some(f) => {
                for m in &f.mismatches {
                    out.push_str(&format!("mismatch     : {} — {}\n", m.path, m.detail));
                }
                out.push_str(&format!("shrunk to    : {}\n", f.summary));
                out.push('\n');
                out.push_str(&f.repro);
                Err(out)
            }
        };
    }

    let mut progress = String::new();
    let report = sequin_sim::run(&o.opts, |line| {
        progress.push_str(&format!("  {line}\n"));
    });

    let mut out = String::new();
    out.push_str(&format!(
        "sim          : {} cases over {} seed(s), {} checked in {:.1}s{}\n",
        o.opts.seeds.len() as u64 * o.opts.cases_per_seed,
        o.opts.seeds.len(),
        report.cases_run,
        report.elapsed.as_secs_f64(),
        if report.budget_exhausted {
            " (budget exhausted)"
        } else {
            ""
        }
    ));
    let counts = o
        .opts
        .shard_counts
        .iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(",");
    out.push_str(&format!(
        "paths        : oracle, builder-vs-parser, routed-sharded{{{counts}}}, batched, \
         crash-resume, sharded-resume, loopback\n"
    ));
    if o.opts.purge_skew > 0 {
        out.push_str(&format!(
            "sabotage     : purge horizon skewed by {} tick(s); mismatches expected\n",
            o.opts.purge_skew
        ));
    }
    if o.opts.retraction_drop > 0 {
        out.push_str(&format!(
            "sabotage     : dropping retraction #{} silently; mismatches expected\n",
            o.opts.retraction_drop
        ));
    }
    if let Some(p) = o.opts.policy {
        out.push_str(&format!(
            "policy       : all queries pinned to {}\n",
            policy_name(p)
        ));
    } else {
        out.push_str("policy       : mixed per query (conservative/speculative/lazy/adaptive)\n");
    }
    if !progress.is_empty() {
        out.push_str(&progress);
    }

    if let Some(path) = &o.json_out {
        std::fs::write(path, sim_json(o, &report))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        out.push_str(&format!("report       : wrote {path}\n"));
    }
    if let Some(dir) = &o.emit_repro {
        if !report.failures.is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
            for f in &report.failures {
                let path = format!("{dir}/sim_seed_{}_case_{}.rs", f.seed, f.case_ix);
                std::fs::write(&path, &f.repro)
                    .map_err(|e| format!("cannot write `{path}`: {e}"))?;
                out.push_str(&format!("repro        : wrote {path}\n"));
            }
        }
    }

    if report.clean() {
        out.push_str("verdict      : clean (all paths agree on every case)\n");
        Ok(out)
    } else {
        for f in &report.failures {
            out.push_str(&format!(
                "failure      : seed {} case {} ({}); replay: sequin sim --seed {} --case {}\n",
                f.seed,
                f.case_ix,
                f.mismatches
                    .iter()
                    .map(|m| m.path.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                f.seed,
                f.case_ix
            ));
        }
        Err(format!(
            "{out}{} of {} cases mismatched",
            report.failures.len(),
            report.cases_run
        ))
    }
}

fn sim_multi_json(o: &SimCliOptions, report: &sequin_sim::MultiReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"sim\": \"sequin\",\n");
    s.push_str("  \"mode\": \"multi\",\n");
    s.push_str(&format!(
        "  \"seeds\": [{}],\n",
        o.opts
            .seeds
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str(&format!(
        "  \"cases_per_seed\": {},\n",
        o.opts.cases_per_seed
    ));
    s.push_str(&format!("  \"purge_skew\": {},\n", o.opts.purge_skew));
    s.push_str(&format!(
        "  \"retraction_drop\": {},\n",
        o.opts.retraction_drop
    ));
    s.push_str(&format!(
        "  \"policy\": {:?},\n",
        o.opts
            .policy
            .map_or_else(|| "mixed".to_owned(), policy_name)
    ));
    s.push_str(&format!("  \"cases_run\": {},\n", report.cases_run));
    s.push_str(&format!(
        "  \"elapsed_secs\": {:.1},\n",
        report.elapsed.as_secs_f64()
    ));
    s.push_str(&format!(
        "  \"budget_exhausted\": {},\n",
        report.budget_exhausted
    ));
    s.push_str("  \"failures\": [\n");
    for (ix, f) in report.failures.iter().enumerate() {
        let paths: Vec<String> = f.mismatches.iter().map(|m| m.path.to_string()).collect();
        s.push_str(&format!(
            "    {{ \"seed\": {}, \"case\": {}, \"paths\": {:?}, \"summary\": {:?} }}{}\n",
            f.seed,
            f.case_ix,
            paths,
            f.summary,
            if ix + 1 < report.failures.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// `sequin sim --multi`: the multi-query differential mode — generated
/// query sets with overlapping prefixes, shared-plan evaluation checked
/// per query against independent engines, across item-by-item, batched,
/// crash/resume (resumed at two shards), sharded, and loopback paths.
fn run_sim_multi(o: &SimCliOptions) -> Result<String, String> {
    // single-case replay: regenerate, check, and show the verdict
    if let Some(case_ix) = o.replay_case {
        let seed = o.opts.seeds.first().copied().unwrap_or(0);
        let case = sequin_sim::materialize_multi(seed, case_ix, &o.opts);
        let mut out = String::new();
        out.push_str(&format!(
            "case         : seed {seed}, index {case_ix} (multi-query)\n"
        ));
        for (qx, q) in case.queries.iter().enumerate() {
            out.push_str(&format!("query {qx}      : {}\n", q.text()));
        }
        out.push_str(&format!(
            "stream       : {} items, K={}, purge={:?}, watermark={}\n",
            case.items.len(),
            case.config.k,
            case.config.purge_every,
            case.config.watermark
        ));
        return match sequin_sim::replay_multi(seed, case_ix, &o.opts) {
            None => {
                out.push_str("verdict      : clean (shared plan matches independent evaluation)\n");
                Ok(out)
            }
            Some(f) => {
                for m in &f.mismatches {
                    out.push_str(&format!("mismatch     : {} — {}\n", m.path, m.detail));
                }
                Err(out)
            }
        };
    }

    let mut progress = String::new();
    let report = sequin_sim::run_multi(&o.opts, |line| {
        progress.push_str(&format!("  {line}\n"));
    });

    let mut out = String::new();
    out.push_str(&format!(
        "sim          : {} multi-query cases over {} seed(s), {} checked in {:.1}s{}\n",
        o.opts.seeds.len() as u64 * o.opts.cases_per_seed,
        o.opts.seeds.len(),
        report.cases_run,
        report.elapsed.as_secs_f64(),
        if report.budget_exhausted {
            " (budget exhausted)"
        } else {
            ""
        }
    ));
    out.push_str(
        "paths        : shared-plan, shared-batched, shared-crash-resume, \
         shared-vs-sharded(2), shared-loopback\n",
    );
    if o.opts.purge_skew > 0 {
        out.push_str(&format!(
            "sabotage     : purge horizon skewed by {} tick(s); mismatches expected\n",
            o.opts.purge_skew
        ));
    }
    if o.opts.retraction_drop > 0 {
        out.push_str(&format!(
            "sabotage     : dropping retraction #{} silently; mismatches expected\n",
            o.opts.retraction_drop
        ));
    }
    if let Some(p) = o.opts.policy {
        out.push_str(&format!(
            "policy       : all queries pinned to {}\n",
            policy_name(p)
        ));
    } else {
        out.push_str("policy       : mixed per query (conservative/speculative/lazy/adaptive)\n");
    }
    if !progress.is_empty() {
        out.push_str(&progress);
    }

    if let Some(path) = &o.json_out {
        std::fs::write(path, sim_multi_json(o, &report))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        out.push_str(&format!("report       : wrote {path}\n"));
    }

    if report.clean() {
        out.push_str("verdict      : clean (shared plan matches independent evaluation)\n");
        Ok(out)
    } else {
        for f in &report.failures {
            out.push_str(&format!(
                "failure      : seed {} case {} ({}); replay: sequin sim --multi --seed {} --case {}\n",
                f.seed,
                f.case_ix,
                f.mismatches
                    .iter()
                    .map(|m| m.path.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                f.seed,
                f.case_ix
            ));
        }
        Err(format!(
            "{out}{} of {} multi-query cases mismatched",
            report.failures.len(),
            report.cases_run
        ))
    }
}

/// Parses a strategy name.
///
/// # Errors
///
/// Lists the accepted names when `name` matches none.
pub fn parse_strategy(name: &str) -> Result<Strategy, String> {
    match name {
        "native" | "native-ooo" => Ok(Strategy::Native),
        "buffered" | "k-slack" | "k-slack-buffer" => Ok(Strategy::Buffered),
        "inorder" | "in-order" => Ok(Strategy::InOrder),
        other => Err(format!(
            "unknown strategy `{other}` (native|buffered|inorder)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_dsl_parses_all_kinds() {
        let reg = parse_schema("A(x:int, s:str) B(f:float,ok:bool) PING()").unwrap();
        assert_eq!(reg.len(), 3);
        let a = reg.lookup("A").unwrap();
        assert_eq!(reg.schema(a).field("s").unwrap().1, ValueKind::Str);
        let ping = reg.lookup("PING").unwrap();
        assert_eq!(reg.schema(ping).arity(), 0);
    }

    #[test]
    fn schema_dsl_rejects_garbage() {
        assert!(parse_schema("").is_err());
        assert!(parse_schema("A").is_err());
        assert!(parse_schema("A(x)").is_err());
        assert!(parse_schema("A(x:void)").is_err());
        assert!(parse_schema("A(x:int").is_err());
        assert!(parse_schema("A(x:int) A(y:int)").is_err());
        assert!(parse_schema("A-B(x:int)").is_err());
    }

    #[test]
    fn explain_describes_the_plan() {
        let out = explain(
            "SHIPPED(tag:int) SCANNED(tag:int) RECEIVED(tag:int)",
            "PATTERN SEQ(SHIPPED s, !SCANNED c, RECEIVED r) \
             WHERE s.tag == r.tag AND c.tag == s.tag WITHIN 100",
        )
        .unwrap();
        assert!(out.contains("positives    : 2"));
        assert!(out.contains("negation"));
        assert!(out.contains("partitioning : available"));
    }

    #[test]
    fn explain_reports_query_errors() {
        let err = explain("A(x:int)", "PATTERN SEQ(B b) WITHIN 5").unwrap_err();
        assert!(err.contains("unknown event type"));
    }

    #[test]
    fn run_workload_produces_report() {
        let out = run_workload("rfid", "", 3000, 0.2, 50, 7, &RunOptions::default()).unwrap();
        assert!(out.contains("matches"));
        assert!(out.contains("throughput"));
    }

    #[test]
    fn run_workload_rejects_unknown_name() {
        assert!(run_workload("nope", "", 10, 0.0, 1, 1, &RunOptions::default()).is_err());
    }

    #[test]
    fn watch_table_surfaces_retraction_and_slack_series() {
        let prom = "\
# HELP sequin_retraction_emitted retractions\n\
# TYPE sequin_retraction_emitted counter\n\
sequin_retraction_emitted{query=\"0\"} 3\n\
sequin_slack_bound{query=\"0\"} 17\n\
sequin_trace_evicted_total 2\n\
sequin_ingest_latency_ticks_bucket{le=\"1\"} 5\n\
sequin_ingest_latency_ticks_count 5\n";
        let table = watch_table(prom);
        assert!(table.contains("sequin_retraction_emitted"), "{table}");
        assert!(table.contains("sequin_slack_bound"), "{table}");
        assert!(table.contains("sequin_trace_evicted_total"), "{table}");
        assert!(table.contains("query=\"0\""), "{table}");
        // histogram buckets fold away; their _count rows stay
        assert!(!table.contains("_bucket"), "{table}");
        assert!(
            table.contains("sequin_ingest_latency_ticks_count"),
            "{table}"
        );
        assert_eq!(watch_table("# only comments\n"), "no series exported yet\n");
    }

    #[test]
    fn parse_pid_accepts_hex_with_or_without_prefix() {
        assert_eq!(parse_pid("00000000000000ff"), Ok(0xff));
        assert_eq!(parse_pid("0xff"), Ok(0xff));
        assert!(parse_pid("zzz").is_err());
    }

    #[test]
    fn trace_replay_end_to_end() {
        let schema = "A(x:int) B(x:int)";
        let trace = "10 A 1\n30 B 1\n20 A 2\n";
        let out = run_trace_text(
            schema,
            "PATTERN SEQ(A a, B b) WITHIN 100",
            trace,
            &RunOptions::default(),
        )
        .unwrap();
        assert!(out.contains("matches      : 2"), "{out}");
    }

    #[test]
    fn strategy_names() {
        assert_eq!(parse_strategy("native").unwrap(), Strategy::Native);
        assert_eq!(parse_strategy("k-slack").unwrap(), Strategy::Buffered);
        assert_eq!(parse_strategy("in-order").unwrap(), Strategy::InOrder);
        assert!(parse_strategy("quantum").is_err());
    }

    #[test]
    fn punctuated_and_adaptive_options() {
        let opts = RunOptions {
            strategy: Strategy::Native,
            k: 50,
            adaptive: Some(2.0),
            punctuate_every: Some(100),
            ..RunOptions::default()
        };
        let out = run_workload("synthetic", "", 2000, 0.2, 50, 3, &opts).unwrap();
        assert!(out.contains("state"));
    }

    #[test]
    fn checkpointed_run_reports_counters_and_resumes() {
        let path = "target/test-cli-resume.ckpt";
        let _ = std::fs::remove_file(path);
        let opts = RunOptions {
            checkpoint_every: Some(500),
            resume_from: Some(path.to_owned()),
            ..RunOptions::default()
        };
        let out = run_workload("synthetic", "", 2000, 0.2, 50, 9, &opts).unwrap();
        assert!(out.contains("checkpoints  :"), "{out}");
        assert!(!out.contains("0 written"), "{out}");
        assert!(
            std::path::Path::new(path).exists(),
            "store saved for next run"
        );

        // second run with the identical workload resumes from the store
        // and re-delivers nothing that was already delivered
        let out2 = run_workload("synthetic", "", 2000, 0.2, 50, 9, &opts).unwrap();
        assert!(out2.contains("recovery     : resumed at item"), "{out2}");
        assert!(out2.contains("matches      : 0 (net)"), "{out2}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn policy_names() {
        assert_eq!(
            parse_policy("conservative").unwrap(),
            DisorderPolicy::Conservative
        );
        assert_eq!(
            parse_policy("speculative").unwrap(),
            DisorderPolicy::Speculative
        );
        // legacy alias kept for existing scripts and CI configs
        assert_eq!(
            parse_policy("aggressive").unwrap(),
            DisorderPolicy::Speculative
        );
        assert_eq!(parse_policy("lazy").unwrap(), DisorderPolicy::Lazy);
        assert_eq!(
            parse_policy("adaptive").unwrap(),
            DisorderPolicy::AdaptiveSlack { accuracy: 90 }
        );
        assert_eq!(
            parse_policy("adaptive:50").unwrap(),
            DisorderPolicy::AdaptiveSlack { accuracy: 50 }
        );
        assert!(parse_policy("adaptive:101").is_err());
        assert!(parse_policy("adaptive:x").is_err());
        assert!(parse_policy("eager").is_err());

        assert_eq!(policy_name(DisorderPolicy::Conservative), "conservative");
        assert_eq!(
            policy_name(DisorderPolicy::AdaptiveSlack { accuracy: 75 }),
            "adaptive:75"
        );
    }

    #[test]
    fn netbench_verifies_every_policy_against_the_oracle() {
        for policy in [
            DisorderPolicy::Conservative,
            DisorderPolicy::Speculative,
            DisorderPolicy::Lazy,
            DisorderPolicy::AdaptiveSlack { accuracy: 90 },
        ] {
            let spec = StreamSpec {
                events: 600,
                ..StreamSpec::default()
            };
            let net = NetOptions {
                policy,
                punctuate_every: Some(100),
                ..NetOptions::default()
            };
            let out = run_netbench(&spec, &net).unwrap();
            assert!(out.contains("byte-identical"), "{out}");
            assert!(out.contains("events_ingested"), "{out}");
        }
    }

    #[test]
    fn netbench_with_shards_matches_oracle() {
        let spec = StreamSpec {
            events: 600,
            ..StreamSpec::default()
        };
        let net = NetOptions {
            shards: 4,
            punctuate_every: Some(100),
            ..NetOptions::default()
        };
        let out = run_netbench(&spec, &net).unwrap();
        assert!(out.contains("byte-identical"), "{out}");
        assert!(out.contains("4 shard(s)"), "{out}");
    }

    #[test]
    fn sharded_run_prints_shard_table() {
        let opts = RunOptions {
            shards: 3,
            ..RunOptions::default()
        };
        let out = run_workload("synthetic", "", 2000, 0.2, 50, 11, &opts).unwrap();
        assert!(out.contains("shards       : 3 workers"), "{out}");
        assert!(out.contains("events_routed"), "{out}");

        // identical matches as single-threaded
        let single =
            run_workload("synthetic", "", 2000, 0.2, 50, 11, &RunOptions::default()).unwrap();
        let matches_line = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("matches"))
                .map(str::to_owned)
        };
        assert_eq!(matches_line(&out), matches_line(&single));
    }

    #[test]
    fn bench_json_round_trips_through_the_baseline_parser() {
        let opts = BenchOptions::default();
        let configs = vec![
            BenchConfigReport {
                shards: 1,
                throughput_eps: 1234.5,
                p50_detection_ticks: 0,
                p95_detection_ticks: 2,
                outputs: 99,
            },
            BenchConfigReport {
                shards: 4,
                throughput_eps: 4321.0,
                p50_detection_ticks: 1,
                p95_detection_ticks: 3,
                outputs: 99,
            },
        ];
        let json = bench_json(&opts, &configs, None);
        let parsed = parse_baseline(&json);
        assert_eq!(parsed, vec![(1, 1234.5), (4, 4321.0)]);
        assert!(parse_baseline("not json at all").is_empty());

        // the disorder-policy block must not confuse the baseline parser
        let axis = PolicyAxisReport {
            conservative_p50: 40,
            speculative_p50: 3,
            inserts: 80,
            retracts: 8,
        };
        let json = bench_json(&opts, &configs, Some(&axis));
        assert_eq!(parse_baseline(&json), vec![(1, 1234.5), (4, 4321.0)]);
        assert!(json.contains("\"retraction_rate\": 0.1000"), "{json}");
    }

    #[test]
    fn bench_policy_axis_measures_and_gates() {
        let opts = BenchOptions {
            events: 4000,
            ooo: 0.3,
            policy_axis: true,
            policy_gate: true,
            ..BenchOptions::default()
        };
        let out = run_bench(&opts).unwrap();
        assert!(out.contains("policy axis  :"), "{out}");
        assert!(out.contains("settled outputs identical"), "{out}");
        assert!(
            out.contains("policy gate  : speculative p50"),
            "speculative must beat conservative at 30% disorder: {out}"
        );

        // below the disorder threshold the latency gate is advisory only
        let calm = BenchOptions {
            events: 4000,
            ooo: 0.0,
            policy_gate: true,
            ..BenchOptions::default()
        };
        let out = run_bench(&calm).unwrap();
        assert!(out.contains("policy gate  : skipped"), "{out}");
    }

    #[test]
    fn bench_refreshes_then_gates_against_the_baseline() {
        let dir = "target/test-bench";
        std::fs::create_dir_all(dir).unwrap();
        let baseline = format!("{dir}/baseline.json");
        let json = format!("{dir}/report.json");
        let _ = std::fs::remove_file(&baseline);
        let mut opts = BenchOptions {
            events: 2000,
            shard_counts: vec![1, 2],
            json_out: Some(json.clone()),
            baseline: Some(baseline.clone()),
            refresh_baseline: true,
            ..BenchOptions::default()
        };
        let out = run_bench(&opts).unwrap();
        assert!(out.contains("refreshed"), "{out}");
        assert!(out.contains("byte-identical to shards=1"), "{out}");
        assert!(Path::new(&baseline).exists());
        assert!(Path::new(&json).exists());

        // gate against the just-written baseline; a huge allowance keeps
        // the test robust to scheduler jitter in shared CI containers
        opts.refresh_baseline = false;
        opts.regression_pct = 95.0;
        let out2 = run_bench(&opts).unwrap();
        assert!(out2.contains("2 config(s) within"), "{out2}");

        // an impossible baseline must trip the gate
        std::fs::write(
            &baseline,
            "{ \"configs\": [ { \"shards\": 1, \"throughput_eps\": 1e18 } ] }",
        )
        .unwrap();
        opts.regression_pct = 15.0;
        let err = run_bench(&opts).unwrap_err();
        assert!(err.contains("throughput regression"), "{err}");
        std::fs::remove_file(&baseline).ok();
        std::fs::remove_file(&json).ok();
    }

    #[test]
    fn serve_and_send_round_trip_over_tcp() {
        let registry = serve_registry(Some("synthetic"), None).unwrap();
        let serve_opts = ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            queries: Vec::new(),
            checkpoint_every: None,
            store: None,
            bundle_dir: None,
            net: NetOptions::default(),
        };
        let (mut server, addr, banner) = start_server(registry, &serve_opts).unwrap();
        assert!(banner.contains("listening"), "{banner}");
        assert!(banner.contains("volatile"), "{banner}");

        let spec = StreamSpec {
            events: 400,
            ..StreamSpec::default()
        };
        let out = send(&addr.to_string(), &spec, &NetOptions::default(), true).unwrap();
        assert!(out.contains("sent         : 400 of 400 items"), "{out}");
        assert!(out.contains("outputs"), "{out}");
        assert!(out.contains("connections_opened"), "{out}");
        server.shutdown();
    }

    #[test]
    fn serve_registry_prefers_explicit_schema() {
        let reg = serve_registry(Some("rfid"), Some("A(x:int) B(x:int)")).unwrap();
        assert!(reg.lookup("A").is_some());
        assert!(reg.lookup("SHIPPED").is_none());
        assert!(serve_registry(Some("nope"), None).is_err());
    }

    #[test]
    fn corrupt_checkpoint_file_degrades_to_cold_start() {
        let path = "target/test-cli-corrupt.ckpt";
        std::fs::write(path, b"not a checkpoint store").unwrap();
        let opts = RunOptions {
            resume_from: Some(path.to_owned()),
            ..RunOptions::default()
        };
        let out = run_workload("synthetic", "", 1000, 0.2, 50, 5, &opts).unwrap();
        assert!(out.contains("cold start"), "{out}");
        assert!(
            out.contains("matches"),
            "the run itself still completes: {out}"
        );
        std::fs::remove_file(path).ok();
    }
}
