//! The server's single-threaded evaluation core.
//!
//! [`EngineCore`] owns everything the engine thread touches: an
//! evaluation backend fanning the shared arrival stream out to every
//! registered query, the text→id subscription table, and — when
//! durability is configured — a multi-query adaptation of the
//! checkpoint/exactly-once machinery from [`sequin_engine::Checkpointer`].
//! Keeping it free of threads and sockets makes the recovery semantics
//! testable in isolation; `server.rs` is then only plumbing.
//!
//! ## Evaluation backends
//!
//! Three interchangeable backends sit behind the core (the private
//! `Eval` enum):
//!
//! * **Shared** — a [`SharedMultiEngine`] compiled by `sequin-plan`:
//!   queries with a common SEQ prefix share pooled AIS stacks and one
//!   partial-match walk, single-event predicates are pushed to insert
//!   time, and an event-type routing index skips uninterested queries.
//!   Used when `shared_plan` is set, the strategy is Native, and
//!   evaluation is single-sharded.
//! * **Independent** — a [`MultiEngine`] of per-query engines (any
//!   strategy, sharded pools). Used when `shared_plan` is off or the
//!   strategy is not Native.
//! * **Hybrid** — both at once, used when `shared_plan` is set *and*
//!   `shards > 1`: every partitionable query runs on its own routed
//!   [`sequin_engine::ShardedEngine`] pool, while the queries sharding
//!   cannot parallelize (no equality chain to hash on) share the
//!   plan-compiled evaluator. Global query ids stay dense registration
//!   indices; outputs from the two halves are interleaved back into
//!   registration order per arrival.
//!
//! All produce byte-identical per-query output, and their snapshots use
//! the same per-logical-query interchange format, so a durable restart may
//! switch backends (or shard counts) freely — the hybrid backend splits
//! and reassembles the envelope around its two halves.
//!
//! ## Durability model
//!
//! A checkpoint is one sealed envelope holding the ingest position, the
//! emission-log high-water mark, the registered query *texts*, and the
//! backend's snapshot blob (a [`MultiEngine::snapshot`]-format envelope of
//! per-query state, whichever backend wrote it). Persisting the texts
//! makes a restart self-contained: resume re-parses and re-registers the
//! same queries in the same order (ids are dense registration indices, so
//! they are stable) before restoring operator state. The emission log
//! records `(query id, output kind, match key)` per delivered output; on
//! resume the suffix past the checkpoint's mark seeds a suppression
//! multiset that swallows replayed duplicates — the same exactly-once
//! construction the single-engine `Checkpointer` uses, extended with the
//! query id.
//!
//! Only canonical texts are persisted: a text that deduplicated onto an
//! existing logical query (see [`EngineCore::subscribe`]) is an alias and
//! is re-derived when its client re-subscribes after a restart.
//!
//! Subscribing a *new* query immediately takes a checkpoint (when durable)
//! so registrations survive a crash even if no event has arrived since.

use std::collections::BTreeMap;
use std::sync::Arc;

use sequin_engine::{
    stable_query_id, CheckpointStore, DisorderPolicy, EngineConfig, MultiEngine, OutputItem,
    OutputKind, PlanMetrics, QueryId, SharedMultiEngine, Strategy,
};
use sequin_obs::{Bundle, MetricsSnapshot, ObsConfig, Recorder, Span, SpanKind};
use sequin_query::{parse, Query, QueryError};
use sequin_runtime::{seal_deadline, MatchKey, RuntimeStats};
use sequin_types::codec::{open_envelope, seal_envelope};
use sequin_types::{
    CodecError, Decode, Encode, Reader, StreamItem, Timestamp, TypeRegistry, Writer,
};

use crate::frame::{kind_tag, policy_from_wire, policy_to_wire, ErrorCode};
use crate::stats::ServerStats;

/// Evaluation settings shared by every query the core registers.
#[derive(Clone)]
pub struct CoreConfig {
    /// Schema the server negotiates with clients (fingerprint) and parses
    /// query texts against.
    pub registry: Arc<TypeRegistry>,
    /// Engine strategy used for every registered query.
    pub strategy: Strategy,
    /// Per-engine configuration (disorder bound, emission policy, ...).
    pub engine: EngineConfig,
    /// `Some(n)` checkpoints every `n` ingested stream items and maintains
    /// the emission log for exactly-once restarts; `None` disables
    /// durability entirely (no log, no suppression).
    pub checkpoint_every: Option<u64>,
    /// Worker shards per Native query engine (1 = plain single-threaded
    /// evaluation; >1 builds a [`sequin_engine::ShardedEngine`] pool).
    /// Snapshots are shard-count-agnostic, so a restart may resume with a
    /// different value.
    pub shards: usize,
    /// Observability: latency/deferral recording and the structured trace
    /// ring. [`ObsConfig::disabled`] turns all recording off (a single
    /// predicted branch per batch — the "configured off ⇒ zero overhead"
    /// path the bench gate measures).
    pub obs: ObsConfig,
    /// Evaluate queries through the shared-plan compiler
    /// ([`SharedMultiEngine`]) when eligible (Native strategy). With
    /// `shards > 1` this composes rather than conflicts: partitionable
    /// queries run on routed sharded pools and the rest share the plan
    /// (the hybrid backend). Non-Native strategies fall back to
    /// independent per-query engines regardless of this flag. Output is
    /// byte-identical in every configuration; the shared plan amortizes
    /// state and work across queries with common SEQ prefixes.
    pub shared_plan: bool,
}

impl CoreConfig {
    /// A volatile (non-durable) core over `registry` with the given
    /// strategy and engine settings.
    pub fn new(
        registry: Arc<TypeRegistry>,
        strategy: Strategy,
        engine: EngineConfig,
    ) -> CoreConfig {
        CoreConfig {
            registry,
            strategy,
            engine,
            checkpoint_every: None,
            shards: 1,
            obs: ObsConfig::default(),
            shared_plan: true,
        }
    }
}

/// Why a SUBSCRIBE was rejected, pre-mapped to the wire-level
/// [`ErrorCode`] the server reports: syntax errors are [`BadQuery`]
/// (`ErrorCode::BadQuery`), semantic rejections are
/// [`ErrorCode::BadAnalysis`]. The message carries the analyzer's
/// diagnostic, including the byte offset of the offending construct when
/// one is known (`... (at byte N)`).
///
/// [`BadQuery`]: ErrorCode::BadQuery
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscribeError {
    /// The wire error code to report.
    pub code: ErrorCode,
    /// Human-readable diagnostic (offset included when known).
    pub message: String,
}

impl From<QueryError> for SubscribeError {
    fn from(e: QueryError) -> SubscribeError {
        let code = match &e {
            QueryError::Parse(_) => ErrorCode::BadQuery,
            QueryError::Analyze(_) => ErrorCode::BadAnalysis,
        };
        SubscribeError {
            code,
            message: e.to_string(),
        }
    }
}

impl std::fmt::Display for SubscribeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for SubscribeError {}

/// Builds one query engine per `cfg` with the query's negotiated disorder
/// policy: a sharded pool when `cfg.shards > 1` asks for one (and the
/// strategy supports it), a plain engine otherwise.
fn build_engine(
    cfg: &CoreConfig,
    q: Arc<sequin_query::Query>,
    policy: DisorderPolicy,
) -> Box<dyn sequin_engine::Engine> {
    let mut engine_cfg = cfg.engine;
    engine_cfg.policy = policy;
    sequin_engine::make_sharded_engine(cfg.strategy, q, engine_cfg, cfg.shards)
}

fn encode_log_record(qid: QueryId, kind_tag: u8, key: &MatchKey) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(qid.index() as u64);
    w.put_u8(kind_tag);
    key.encode(&mut w);
    seal_envelope(&w.into_bytes())
}

fn decode_log_record(bytes: &[u8]) -> Result<(u64, u8, MatchKey), CodecError> {
    let payload = open_envelope(bytes)?;
    let mut r = Reader::new(payload);
    let qid = r.get_u64()?;
    let tag = r.get_u8()?;
    if tag > 1 {
        return Err(CodecError::InvalidTag {
            what: "OutputKind",
            tag,
        });
    }
    let key = MatchKey::decode(&mut r)?;
    r.finish()?;
    Ok((qid, tag, key))
}

/// Which backend hosts one of the hybrid core's queries, and the query's
/// dense id *within* that backend (global ids are registration order
/// across both).
#[derive(Debug, Clone, Copy)]
enum HybridHost {
    Shared(QueryId),
    Sharded(QueryId),
}

/// Splits a [`MultiEngine::snapshot`]-format envelope (`count` +
/// length-prefixed per-query blobs) into its per-query blobs.
fn split_multi_envelope(bytes: &[u8]) -> Result<Vec<Vec<u8>>, CodecError> {
    let payload = open_envelope(bytes)?;
    let mut r = Reader::new(payload);
    let n = r.get_u64()?;
    if n > r.remaining() as u64 {
        return Err(CodecError::BadLength);
    }
    let mut blobs = Vec::with_capacity(n as usize);
    for _ in 0..n {
        blobs.push(r.get_bytes()?);
    }
    r.finish()?;
    Ok(blobs)
}

/// Reassembles per-query blobs into a [`MultiEngine::snapshot`]-format
/// envelope (the inverse of [`split_multi_envelope`]).
fn seal_multi_envelope<B: AsRef<[u8]>>(blobs: &[B]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(blobs.len() as u64);
    for b in blobs {
        w.put_bytes(b.as_ref());
    }
    seal_envelope(&w.into_bytes())
}

/// The evaluation backend behind the core (see the module docs):
/// independent per-query engines, the shared-plan evaluator, or the hybrid
/// composition of both. All produce byte-identical output and interchange
/// snapshot blobs.
enum Eval {
    /// One engine per query ([`MultiEngine`]): any strategy, sharded pools.
    Independent(MultiEngine),
    /// Pooled stacks + common-prefix sharing ([`SharedMultiEngine`]).
    /// Boxed: the shared evaluator is much larger than a [`MultiEngine`].
    Shared(Box<SharedMultiEngine>),
    /// Both at once — how `shared_plan` composes with `shards > 1`: each
    /// partitionable query gets its own routed
    /// [`sequin_engine::ShardedEngine`] pool, and the queries sharding
    /// cannot help (no equality chain to hash on) share the plan-compiled
    /// evaluator instead of each paying for a full engine.
    Hybrid {
        shared: Box<SharedMultiEngine>,
        sharded: MultiEngine,
        /// Host + backend-local id per global query, in registration order.
        hosts: Vec<HybridHost>,
    },
}

impl Eval {
    fn new(cfg: &CoreConfig) -> Eval {
        if cfg.shared_plan && cfg.strategy == Strategy::Native {
            if cfg.shards <= 1 {
                Eval::Shared(Box::new(SharedMultiEngine::new(cfg.engine)))
            } else {
                Eval::Hybrid {
                    shared: Box::new(SharedMultiEngine::new(cfg.engine)),
                    sharded: MultiEngine::new(),
                    hosts: Vec::new(),
                }
            }
        } else {
            Eval::Independent(MultiEngine::new())
        }
    }

    fn register(&mut self, cfg: &CoreConfig, q: Arc<Query>, policy: DisorderPolicy) -> QueryId {
        match self {
            Eval::Independent(m) => m.register_engine(build_engine(cfg, q, policy)),
            Eval::Shared(s) => s.register_with_policy(q, policy),
            Eval::Hybrid {
                shared,
                sharded,
                hosts,
            } => {
                // the routing decision must depend only on config + query
                // (both persisted), so a resume rebuilds the same split
                let partitionable = cfg.engine.partitioned && q.partition().is_some();
                let host = if partitionable {
                    HybridHost::Sharded(sharded.register_engine(build_engine(cfg, q, policy)))
                } else {
                    HybridHost::Shared(shared.register_with_policy(q, policy))
                };
                hosts.push(host);
                QueryId::from_index(hosts.len() - 1)
            }
        }
    }

    /// Maps each backend's dense local ids back to global ids, in local
    /// registration order: `(shared_to_global, sharded_to_global)`.
    fn hybrid_globals(hosts: &[HybridHost]) -> (Vec<QueryId>, Vec<QueryId>) {
        let mut to_shared = Vec::new();
        let mut to_sharded = Vec::new();
        for (global, host) in hosts.iter().enumerate() {
            match host {
                HybridHost::Shared(_) => to_shared.push(QueryId::from_index(global)),
                HybridHost::Sharded(_) => to_sharded.push(QueryId::from_index(global)),
            }
        }
        (to_shared, to_sharded)
    }

    /// Remaps both backends' outputs for one arrival to global ids and
    /// interleaves them in global registration order (each backend already
    /// emits its queries in local registration order, and a stable sort
    /// preserves emission order within a query).
    fn hybrid_merge(
        hosts: &[HybridHost],
        shared: Vec<(QueryId, OutputItem)>,
        sharded: Vec<(QueryId, OutputItem)>,
    ) -> Vec<(QueryId, OutputItem)> {
        let (to_shared, to_sharded) = Self::hybrid_globals(hosts);
        let mut out = Vec::with_capacity(shared.len() + sharded.len());
        out.extend(shared.into_iter().map(|(l, o)| (to_shared[l.index()], o)));
        out.extend(sharded.into_iter().map(|(l, o)| (to_sharded[l.index()], o)));
        out.sort_by_key(|(q, _)| q.index());
        out
    }

    fn ingest_batch(&mut self, items: &[StreamItem]) -> Vec<Vec<(QueryId, OutputItem)>> {
        match self {
            Eval::Independent(m) => m.ingest_batch(items),
            Eval::Shared(s) => s.ingest_batch(items),
            Eval::Hybrid {
                shared,
                sharded,
                hosts,
            } => {
                let sh = shared.ingest_batch(items);
                let sd = sharded.ingest_batch(items);
                sh.into_iter()
                    .zip(sd)
                    .map(|(a, b)| Self::hybrid_merge(hosts, a, b))
                    .collect()
            }
        }
    }

    fn finish(&mut self) -> Vec<(QueryId, OutputItem)> {
        match self {
            Eval::Independent(m) => m.finish(),
            Eval::Shared(s) => s.finish(),
            Eval::Hybrid {
                shared,
                sharded,
                hosts,
            } => {
                let sh = shared.finish();
                let sd = sharded.finish();
                Self::hybrid_merge(hosts, sh, sd)
            }
        }
    }

    fn stats(&self) -> Vec<RuntimeStats> {
        match self {
            Eval::Independent(m) => m.stats(),
            Eval::Shared(s) => s.stats(),
            Eval::Hybrid {
                shared,
                sharded,
                hosts,
            } => {
                let sh = shared.stats();
                let sd = sharded.stats();
                hosts
                    .iter()
                    .map(|h| match h {
                        HybridHost::Shared(l) => sh[l.index()],
                        HybridHost::Sharded(l) => sd[l.index()],
                    })
                    .collect()
            }
        }
    }

    fn watermark(&self) -> Option<Timestamp> {
        match self {
            Eval::Independent(m) => m.watermark(),
            Eval::Shared(s) => s.watermark(),
            Eval::Hybrid {
                shared, sharded, ..
            } => match (shared.watermark(), sharded.watermark()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
        }
    }

    fn snapshot(&self) -> Result<Vec<u8>, CodecError> {
        match self {
            Eval::Independent(m) => m.snapshot(),
            Eval::Shared(s) => s.snapshot(),
            Eval::Hybrid {
                shared,
                sharded,
                hosts,
            } => {
                // both backends write the same `count + per-query blobs`
                // interchange envelope; reassemble in global order so the
                // blob is indistinguishable from a single-backend snapshot
                let sh = split_multi_envelope(&shared.snapshot()?)?;
                let sd = split_multi_envelope(&sharded.snapshot()?)?;
                let blobs: Vec<&[u8]> = hosts
                    .iter()
                    .map(|h| match h {
                        HybridHost::Shared(l) => sh[l.index()].as_slice(),
                        HybridHost::Sharded(l) => sd[l.index()].as_slice(),
                    })
                    .collect();
                Ok(seal_multi_envelope(&blobs))
            }
        }
    }

    fn restore(&mut self, blob: &[u8]) -> Result<(), CodecError> {
        match self {
            Eval::Independent(m) => m.restore(blob),
            Eval::Shared(s) => s.restore(blob),
            Eval::Hybrid {
                shared,
                sharded,
                hosts,
            } => {
                let blobs = split_multi_envelope(blob)?;
                if blobs.len() != hosts.len() {
                    return Err(CodecError::SnapshotMismatch("hybrid query count"));
                }
                let mut sh = Vec::new();
                let mut sd = Vec::new();
                for (h, b) in hosts.iter().zip(blobs) {
                    match h {
                        HybridHost::Shared(_) => sh.push(b),
                        HybridHost::Sharded(_) => sd.push(b),
                    }
                }
                shared.restore(&seal_multi_envelope(&sh))?;
                sharded.restore(&seal_multi_envelope(&sd))
            }
        }
    }

    fn hybrid_host(hosts: &[HybridHost], qid: QueryId) -> HybridHost {
        hosts[qid.index()]
    }

    fn query_clock(&self, qid: QueryId) -> Option<Timestamp> {
        match self {
            Eval::Independent(m) => m.engine(qid).clock(),
            Eval::Shared(s) => Some(s.query_clock(qid)),
            Eval::Hybrid {
                shared,
                sharded,
                hosts,
            } => match Self::hybrid_host(hosts, qid) {
                HybridHost::Shared(l) => Some(shared.query_clock(l)),
                HybridHost::Sharded(l) => sharded.engine(l).clock(),
            },
        }
    }

    fn query_watermark(&self, qid: QueryId) -> Option<Timestamp> {
        match self {
            Eval::Independent(m) => m.engine(qid).watermark(),
            Eval::Shared(s) => Some(s.query_watermark(qid)),
            Eval::Hybrid {
                shared,
                sharded,
                hosts,
            } => match Self::hybrid_host(hosts, qid) {
                HybridHost::Shared(l) => Some(shared.query_watermark(l)),
                HybridHost::Sharded(l) => sharded.engine(l).watermark(),
            },
        }
    }

    /// One query's live disorder slack bound `k̂` — fixed for the
    /// conservative/speculative/lazy policies, the control loop's current
    /// estimate under adaptive slack. `None` when the hosting engine does
    /// not expose one.
    fn query_slack(&self, qid: QueryId) -> Option<sequin_types::Duration> {
        match self {
            Eval::Independent(m) => m.engine(qid).slack_bound(),
            Eval::Shared(s) => Some(s.query_slack(qid)),
            Eval::Hybrid {
                shared,
                sharded,
                hosts,
            } => match Self::hybrid_host(hosts, qid) {
                HybridHost::Shared(l) => Some(shared.query_slack(l)),
                HybridHost::Sharded(l) => sharded.engine(l).slack_bound(),
            },
        }
    }

    /// One query's logical state size — what its isolated engine reports,
    /// or the shared plan's per-query attribution.
    fn query_state_size(&self, qid: QueryId) -> usize {
        match self {
            Eval::Independent(m) => m.engine(qid).state_size(),
            Eval::Shared(s) => s.query_state_size(qid),
            Eval::Hybrid {
                shared,
                sharded,
                hosts,
            } => match Self::hybrid_host(hosts, qid) {
                HybridHost::Shared(l) => shared.query_state_size(l),
                HybridHost::Sharded(l) => sharded.engine(l).state_size(),
            },
        }
    }

    fn per_shard_stats(&self, qid: QueryId) -> Vec<RuntimeStats> {
        match self {
            Eval::Independent(m) => m.engine(qid).per_shard_stats(),
            Eval::Shared(s) => vec![s.stats()[qid.index()]],
            Eval::Hybrid {
                shared,
                sharded,
                hosts,
            } => match Self::hybrid_host(hosts, qid) {
                HybridHost::Shared(l) => vec![shared.stats()[l.index()]],
                HybridHost::Sharded(l) => sharded.engine(l).per_shard_stats(),
            },
        }
    }

    /// Ingest-edge routing counters for one query's sharded pool (`None`
    /// for single-threaded evaluation, including shared-plan-hosted
    /// queries).
    fn route_stats(&self, qid: QueryId) -> Option<sequin_engine::RouteStats> {
        match self {
            Eval::Independent(m) => m.engine(qid).route_stats(),
            Eval::Shared(_) => None,
            Eval::Hybrid { sharded, hosts, .. } => match Self::hybrid_host(hosts, qid) {
                HybridHost::Shared(_) => None,
                HybridHost::Sharded(l) => sharded.engine(l).route_stats(),
            },
        }
    }

    /// Shared-plan structural gauges and sharing counters (`None` on the
    /// independent backend — there is no plan to describe).
    fn plan_metrics(&self) -> Option<PlanMetrics> {
        match self {
            Eval::Independent(_) => None,
            Eval::Shared(s) => Some(s.plan_metrics()),
            Eval::Hybrid { shared, .. } => Some(shared.plan_metrics()),
        }
    }
}

/// The engine thread's state: subscriptions, evaluation, durability.
pub struct EngineCore {
    cfg: CoreConfig,
    eval: Eval,
    /// `(query text, id)` in registration order: one entry per *logical*
    /// query, `queries[i].1.index() == i`.
    queries: Vec<(String, QueryId)>,
    /// Analyzed form of each logical query (same indexing as `queries`) —
    /// the structural-dedup comparison key and the stable-id source.
    parsed: Vec<Arc<Query>>,
    /// Effective disorder policy per logical query (same indexing as
    /// `queries`) — whatever the first subscriber negotiated, persisted in
    /// checkpoints so a resume rebuilds identical engines.
    policies: Vec<DisorderPolicy>,
    /// Retractions delivered per query by *this* process (replayed
    /// duplicates excluded) — the `sequin_retraction_emitted` series.
    retractions: Vec<u64>,
    /// Texts that deduplicated onto an existing logical query. Not
    /// persisted in checkpoints; rebuilt lazily as clients re-subscribe.
    aliases: Vec<(String, QueryId)>,
    store: CheckpointStore,
    /// Stream items ingested so far (the clients' replay cursor).
    position: u64,
    last_ckpt_position: u64,
    /// Replay-dedup multiset: outputs the pre-crash process delivered that
    /// deterministic replay will regenerate.
    suppress: BTreeMap<(u64, u8, MatchKey), u64>,
    /// Checkpoint counters describing *this* process (not the snapshot).
    extra: RuntimeStats,
    /// Set when the log or checkpoints changed since the last
    /// [`EngineCore::take_dirty`] — the server's cue to persist the store.
    dirty: bool,
    drained: bool,
    /// Observability recorder: per-query latency/deferral distributions
    /// and the structured trace ring.
    obs: Recorder,
}

impl std::fmt::Debug for EngineCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCore")
            .field("queries", &self.queries.len())
            .field("position", &self.position)
            .field("checkpoints", &self.store.checkpoint_count())
            .field("log_len", &self.store.log_len())
            .field("drained", &self.drained)
            .finish()
    }
}

impl EngineCore {
    /// A fresh core with no queries and an empty store.
    pub fn new(cfg: CoreConfig) -> EngineCore {
        let obs = Recorder::new(cfg.obs);
        let eval = Eval::new(&cfg);
        EngineCore {
            cfg,
            eval,
            queries: Vec::new(),
            parsed: Vec::new(),
            policies: Vec::new(),
            retractions: Vec::new(),
            aliases: Vec::new(),
            store: CheckpointStore::new(),
            position: 0,
            last_ckpt_position: 0,
            suppress: BTreeMap::new(),
            extra: RuntimeStats::default(),
            dirty: false,
            drained: false,
            obs,
        }
    }

    /// Recovers from persisted artifacts. Returns the core plus the stream
    /// position clients must replay from (0 on a cold start).
    ///
    /// The fallback ladder mirrors [`sequin_engine::Checkpointer::resume`]:
    /// newest intact checkpoint wins; corrupted, version-skewed, or
    /// unparsable ones are counted in
    /// [`RuntimeStats::checkpoints_rejected`] and skipped; if none survive,
    /// recovery degrades to a cold start. The emission-log suffix past the
    /// accepted checkpoint's mark then seeds replay suppression.
    pub fn resume(cfg: CoreConfig, store: CheckpointStore) -> (EngineCore, u64) {
        let mut rejected = 0u64;
        let mut accepted = None;
        for ckpt in store.checkpoints_newest_first() {
            match Self::open_checkpoint(&cfg, ckpt, store.log_len()) {
                Ok(ok) => {
                    accepted = Some(ok);
                    break;
                }
                Err(_) => rejected += 1,
            }
        }
        let (position, log_mark, eval, queries, parsed, policies) =
            accepted.unwrap_or_else(|| (0, 0, Eval::new(&cfg), Vec::new(), Vec::new(), Vec::new()));
        let mut suppress: BTreeMap<(u64, u8, MatchKey), u64> = BTreeMap::new();
        for rec in store.log_records().skip(log_mark) {
            match decode_log_record(rec) {
                Ok((qid, tag, key)) => *suppress.entry((qid, tag, key)).or_insert(0) += 1,
                Err(_) => rejected += 1, // corrupt log record: cannot dedup it
            }
        }
        let obs = Recorder::new(cfg.obs);
        let core = EngineCore {
            cfg,
            eval,
            queries,
            parsed,
            policies,
            retractions: Vec::new(),
            aliases: Vec::new(),
            store,
            position,
            last_ckpt_position: position,
            suppress,
            extra: RuntimeStats {
                checkpoints_rejected: rejected,
                ..RuntimeStats::default()
            },
            dirty: false,
            drained: false,
            obs,
        };
        (core, position)
    }

    #[allow(clippy::type_complexity)]
    fn open_checkpoint(
        cfg: &CoreConfig,
        bytes: &[u8],
        log_len: usize,
    ) -> Result<
        (
            u64,
            usize,
            Eval,
            Vec<(String, QueryId)>,
            Vec<Arc<Query>>,
            Vec<DisorderPolicy>,
        ),
        CodecError,
    > {
        let payload = open_envelope(bytes)?;
        let mut r = Reader::new(payload);
        let position = r.get_u64()?;
        let log_mark = r.get_u64()? as usize;
        if log_mark > log_len {
            return Err(CodecError::SnapshotMismatch("emission log length"));
        }
        let n = r.get_u64()?;
        if n > r.remaining() as u64 {
            return Err(CodecError::BadLength);
        }
        let mut texts = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let text = r.get_str()?;
            // the effective policy rides along as the same (mode, knob)
            // pair SUBSCRIBE carries; mode 0 never reaches a checkpoint
            let policy = policy_from_wire(r.get_u8()?, r.get_u8()?)?
                .ok_or(CodecError::SnapshotMismatch("persisted query policy"))?;
            texts.push((text, policy));
        }
        let blob = r.get_bytes()?;
        r.finish()?;
        // The blob is backend-agnostic (a per-logical-query envelope), so
        // the resuming core builds whatever backend *its* config asks for
        // and restores into it — a shared-plan checkpoint restores into
        // independent engines and vice versa.
        let mut eval = Eval::new(cfg);
        let mut queries = Vec::with_capacity(texts.len());
        let mut parsed = Vec::with_capacity(texts.len());
        let mut policies = Vec::with_capacity(texts.len());
        for (text, policy) in texts {
            let q = parse(&text, &cfg.registry)
                .map_err(|_| CodecError::SnapshotMismatch("persisted query text"))?;
            let id = eval.register(cfg, q.clone(), policy);
            queries.push((text, id));
            parsed.push(q);
            policies.push(policy);
        }
        eval.restore(&blob)?;
        Ok((position, log_mark, eval, queries, parsed, policies))
    }

    fn durable(&self) -> bool {
        self.cfg.checkpoint_every.is_some()
    }

    /// Registers `text` as a query, or returns the existing id when it
    /// names a query already registered (clients re-subscribing after a
    /// reconnect land on their old query and its retained state).
    ///
    /// Deduplication is *structural*, not textual: the text is parsed and
    /// analyzed, and if the normalized query equals one already registered
    /// — same pattern, predicates, window, and projection, however the
    /// text was spelled — the existing logical query's id is returned and
    /// the new spelling is remembered as an alias. Only genuinely new
    /// queries reach the evaluation backend (and, on the shared-plan
    /// backend, trigger an incremental recompile).
    ///
    /// # Errors
    ///
    /// [`SubscribeError`] with [`ErrorCode::BadQuery`] on a syntax error
    /// or [`ErrorCode::BadAnalysis`] on a semantic one; the message embeds
    /// the byte offset of the offending construct when known.
    pub fn subscribe(&mut self, text: &str) -> Result<QueryId, SubscribeError> {
        self.subscribe_with_policy(text, None).map(|(id, _)| id)
    }

    /// [`EngineCore::subscribe`] with an explicit disorder-policy request:
    /// `None` accepts the server's configured default. Returns the id
    /// *and* the effective policy — when the text lands on an already
    /// registered query (textually, as an alias, or structurally), that
    /// query's policy wins regardless of what was requested, and the
    /// caller learns which one it got. Only a genuinely new registration
    /// binds the requested policy.
    pub fn subscribe_with_policy(
        &mut self,
        text: &str,
        policy: Option<DisorderPolicy>,
    ) -> Result<(QueryId, DisorderPolicy), SubscribeError> {
        if let Some((_, id)) = self.queries.iter().find(|(t, _)| t == text) {
            return Ok((*id, self.policies[id.index()]));
        }
        if let Some((_, id)) = self.aliases.iter().find(|(t, _)| t == text) {
            return Ok((*id, self.policies[id.index()]));
        }
        let q = parse(text, &self.cfg.registry)?;
        if let Some(ix) = self.parsed.iter().position(|p| **p == *q) {
            let id = self.queries[ix].1;
            self.aliases.push((text.to_owned(), id));
            return Ok((id, self.policies[ix]));
        }
        let policy = policy.unwrap_or(self.cfg.engine.policy);
        let id = self.eval.register(&self.cfg, q.clone(), policy);
        self.queries.push((text.to_owned(), id));
        self.parsed.push(q);
        self.policies.push(policy);
        if self.durable() {
            // make the registration itself crash-safe
            self.checkpoint_now();
        }
        Ok((id, policy))
    }

    /// The effective disorder policy of a registered query.
    pub fn query_policy(&self, id: QueryId) -> DisorderPolicy {
        self.policies[id.index()]
    }

    /// Ingests one arrival into every query; returns the outputs to
    /// deliver (replay duplicates already swallowed). Ignored after
    /// [`EngineCore::finish`].
    pub fn ingest(&mut self, item: &StreamItem) -> Vec<(QueryId, OutputItem)> {
        self.ingest_batch(std::slice::from_ref(item))
    }

    /// Ingests a run of arrivals through [`MultiEngine::ingest_batch`] —
    /// the entry point that lets sharded pools use their worker threads.
    ///
    /// Outputs, log records, and checkpoints are identical to item-by-item
    /// [`EngineCore::ingest`] calls: the run is split at checkpoint
    /// boundaries so every checkpoint captures the engine state at exactly
    /// the position it records, never mid-cadence.
    pub fn ingest_batch(&mut self, items: &[StreamItem]) -> Vec<(QueryId, OutputItem)> {
        if self.drained {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut rest = items;
        while !rest.is_empty() {
            let take = match self.cfg.checkpoint_every {
                Some(n) => {
                    let since = self.position.saturating_sub(self.last_ckpt_position);
                    (n.saturating_sub(since).max(1) as usize).min(rest.len())
                }
                None => rest.len(),
            };
            let (chunk, tail) = rest.split_at(take);
            rest = tail;
            let obs_on = self.obs.enabled();
            let before = if obs_on {
                self.eval.stats()
            } else {
                Vec::new()
            };
            let chunk_start = out.len();
            for raw in self.eval.ingest_batch(chunk) {
                self.position += 1;
                let filtered = self.filter_and_log(raw);
                out.extend(filtered);
            }
            if obs_on {
                self.record_chunk_spans(chunk.len() as u64, &before, &out[chunk_start..]);
            }
            if let Some(n) = self.cfg.checkpoint_every {
                if self.position.saturating_sub(self.last_ckpt_position) >= n {
                    self.checkpoint_now();
                }
            }
        }
        out
    }

    /// Flushes every query's held state (end-of-stream) and marks the core
    /// drained; later ingests are dropped.
    pub fn finish(&mut self) -> Vec<(QueryId, OutputItem)> {
        if self.drained {
            return Vec::new();
        }
        let obs_on = self.obs.enabled();
        let before = if obs_on {
            self.eval.stats()
        } else {
            Vec::new()
        };
        let raw = self.eval.finish();
        let out = self.filter_and_log(raw);
        if obs_on {
            self.record_chunk_spans(0, &before, &out);
        }
        self.drained = true;
        if self.durable() {
            self.checkpoint_now();
        }
        out
    }

    fn filter_and_log(&mut self, raw: Vec<(QueryId, OutputItem)>) -> Vec<(QueryId, OutputItem)> {
        if !self.durable() {
            for (qid, o) in &raw {
                if o.kind == OutputKind::Retract {
                    self.bump_retraction(*qid);
                }
            }
            return raw;
        }
        let mut out = Vec::with_capacity(raw.len());
        for (qid, o) in raw {
            let tag = kind_tag(o.kind);
            let key = (qid.index() as u64, tag, o.m.key());
            if let Some(n) = self.suppress.get_mut(&key) {
                *n -= 1;
                if *n == 0 {
                    self.suppress.remove(&key);
                }
                self.extra.replayed_suppressed += 1;
                continue;
            }
            if o.kind == OutputKind::Retract {
                self.bump_retraction(qid);
            }
            self.store.append_log(encode_log_record(qid, tag, &key.2));
            self.dirty = true;
            out.push((qid, o));
        }
        out
    }

    fn bump_retraction(&mut self, qid: QueryId) {
        let ix = qid.index();
        if self.retractions.len() <= ix {
            self.retractions.resize(ix + 1, 0);
        }
        self.retractions[ix] += 1;
    }

    /// Takes a checkpoint immediately (no-op when any engine lacks
    /// snapshot support).
    pub fn checkpoint_now(&mut self) {
        let Ok(blob) = self.eval.snapshot() else {
            return;
        };
        let mut w = Writer::new();
        w.put_u64(self.position);
        w.put_u64(self.store.log_len() as u64);
        w.put_u64(self.queries.len() as u64);
        for ((text, _), policy) in self.queries.iter().zip(&self.policies) {
            w.put_str(text);
            let (mode, knob) = policy_to_wire(Some(*policy));
            w.put_u8(mode);
            w.put_u8(knob);
        }
        w.put_bytes(&blob);
        self.store.push_checkpoint(seal_envelope(&w.into_bytes()));
        self.extra.checkpoints_written += 1;
        self.last_ckpt_position = self.position;
        self.dirty = true;
    }

    /// The durable artifacts (what a crash survives).
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// Returns whether the store changed since the last call, clearing the
    /// flag — the engine thread's cue to persist to disk.
    pub fn take_dirty(&mut self) -> bool {
        std::mem::replace(&mut self.dirty, false)
    }

    /// Sets the flag [`EngineCore::take_dirty`] cleared, after a persist
    /// that did not reach the disk.
    pub(crate) fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    /// Stream items ingested so far.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Worker shards each Native query engine evaluates on.
    pub fn shards(&self) -> u64 {
        self.cfg.shards.max(1) as u64
    }

    /// Number of registered queries.
    pub fn query_count(&self) -> u64 {
        self.queries.len() as u64
    }

    /// True once [`EngineCore::finish`] has run.
    pub fn drained(&self) -> bool {
        self.drained
    }

    /// The schema fingerprint this core negotiates sessions against.
    pub fn fingerprint(&self) -> u64 {
        self.cfg.registry.fingerprint()
    }

    /// The minimum low-watermark across registered queries.
    pub fn watermark(&self) -> Option<Timestamp> {
        self.eval.watermark()
    }

    /// Shared-plan structural gauges and sharing counters; `None` when the
    /// core evaluates queries independently.
    pub fn plan_metrics(&self) -> Option<PlanMetrics> {
        self.eval.plan_metrics()
    }

    /// True when the shared-plan backend is active (including the hybrid
    /// core, where it hosts the unpartitionable queries).
    pub fn shared_plan_active(&self) -> bool {
        matches!(self.eval, Eval::Shared(_) | Eval::Hybrid { .. })
    }

    /// Aggregate operator counters across every query, plus this process's
    /// checkpoint/recovery counters.
    pub fn stats(&self) -> RuntimeStats {
        let mut total = self.extra;
        for s in self.eval.stats() {
            total += s;
        }
        total
    }

    /// Replayed-but-not-yet-seen suppressions still outstanding.
    pub fn pending_suppressions(&self) -> usize {
        self.suppress.values().map(|n| *n as usize).sum()
    }

    /// The stream clock: maximum occurrence timestamp any query engine has
    /// observed, in ticks (0 before the first event).
    fn core_clock(&self) -> u64 {
        self.queries
            .iter()
            .filter_map(|(_, qid)| self.eval.query_clock(*qid))
            .map(|t| t.ticks())
            .max()
            .unwrap_or(0)
    }

    /// Records trace spans for one ingested chunk: an `Ingest` span, then
    /// per-query `Route`/`StackInsert`/`Construct`/`Negate`/`Purge` spans
    /// derived from operator-counter deltas (`before` → now), then one
    /// `Emit` span per delivered output with its event-id provenance and
    /// disorder hold time. Spans are chunk-granular by design: the trace
    /// shows what each batch *did*, not a per-event firehose, which keeps
    /// recording cost a handful of counter reads per batch.
    fn record_chunk_spans(
        &mut self,
        ingested: u64,
        before: &[RuntimeStats],
        outputs: &[(QueryId, OutputItem)],
    ) {
        let after = self.eval.stats();
        let core_clock = self.core_clock();
        let core_wm = self.eval.watermark().map(|t| t.ticks()).unwrap_or(0);
        if ingested > 0 {
            self.obs.ingest_span(ingested, core_clock, core_wm);
        }
        for (i, (_, qid)) in self.queries.iter().enumerate() {
            let prev = before.get(i).copied().unwrap_or_default();
            let Some(now) = after.get(i) else { continue };
            let clock = self
                .eval
                .query_clock(*qid)
                .map(|t| t.ticks())
                .unwrap_or(core_clock);
            let wm = self
                .eval
                .query_watermark(*qid)
                .map(|t| t.ticks())
                .unwrap_or(core_wm);
            let steps = [
                (SpanKind::Route, now.events_routed - prev.events_routed),
                (SpanKind::StackInsert, now.insertions - prev.insertions),
                (
                    SpanKind::Construct,
                    now.matches_constructed - prev.matches_constructed,
                ),
                (SpanKind::Negate, now.negated_matches - prev.negated_matches),
                (SpanKind::Purge, now.purged - prev.purged),
            ];
            for (kind, delta) in steps {
                self.obs.span(kind, i as u64, delta, clock, wm);
            }
        }
        for (qid, o) in outputs {
            let i = qid.index();
            let insert = o.kind == OutputKind::Insert;
            self.obs
                .record_output(i, insert, o.arrival_latency(), o.event_time_latency());
            let events: Vec<u64> = o.m.events().iter().map(|e| e.id().get()).collect();
            let wm = self
                .eval
                .query_watermark(*qid)
                .map(|t| t.ticks())
                .unwrap_or(core_wm);
            if !self.obs.provenance() {
                self.obs.emit_span(
                    i as u64,
                    events,
                    o.event_time_latency(),
                    o.emit_clock.ticks(),
                    wm,
                );
                continue;
            }
            // Full causal provenance. Every field below is derived from
            // the output itself (or from the query text), so the recorded
            // span is byte-identical across backends and shard counts —
            // only the ring-global `seq` may differ, and the lineage
            // renderers drop it.
            let pid = o.provenance_id(stable_query_id(&self.parsed[i]));
            let arrivals: Vec<u64> = o.m.events().iter().map(|e| e.arrival().get()).collect();
            let (kind, cause, bound) = match (o.kind, o.cause) {
                (OutputKind::Retract, c) => {
                    (SpanKind::Retract, c.map(|id| id.get()).unwrap_or(0), 0)
                }
                (OutputKind::Insert, Some(c)) => (SpanKind::Emit, c.get(), 0),
                (OutputKind::Insert, None) => {
                    // Sealed release: record the deadline the watermark (or
                    // adaptive slack bound) had to pass — the negation
                    // region's seal for guarded queries, the match's own
                    // span otherwise.
                    let deadline = seal_deadline(&self.parsed[i], o.m.events())
                        .unwrap_or_else(|| o.m.last_ts());
                    (SpanKind::Seal, 0, deadline.ticks())
                }
            };
            self.obs.output_span(Span {
                seq: 0,
                kind,
                query: i as u64,
                count: 1,
                clock: o.emit_clock.ticks(),
                watermark: wm,
                events,
                held: o.event_time_latency(),
                pid,
                cause,
                bound,
                arrivals,
            });
        }
    }

    /// JSON dump of the structured trace ring (`[]`-bodied object when
    /// tracing is disabled).
    pub fn trace_json(&self) -> String {
        self.obs.trace_json()
    }

    /// Renders the causal lineage of the ring's output spans, optionally
    /// filtered by query index and/or provenance id. `json` selects the
    /// machine rendering; text otherwise. Both renderings omit the
    /// ring-global span `seq`, so a fixed-seed run renders byte-identically
    /// across backends and shard counts.
    pub fn lineage(&self, query: Option<u64>, pid: Option<u64>, json: bool) -> String {
        let spans = sequin_obs::filter_outputs(self.obs.trace().spans(), query, pid);
        if json {
            sequin_obs::lineage_json(&spans)
        } else {
            sequin_obs::lineage_text(&spans)
        }
    }

    /// Captures a self-contained postmortem [`Bundle`]: the current
    /// lineage slice, the rendered metrics snapshot, a description of the
    /// registered queries/policies, and replay parameters (the stream
    /// cursor, shard count, query count) merged with whatever
    /// caller-specific `params` the capturing site supplies (sim seed,
    /// case index, sabotage knobs, …).
    pub fn postmortem_bundle(&self, reason: &str, params: Vec<(String, u64)>) -> Bundle {
        let mut config = String::new();
        for ((text, qid), policy) in self.queries.iter().zip(&self.policies) {
            config.push_str(&format!("q{}: {} policy={:?}\n", qid.index(), text, policy));
        }
        config.push_str(&format!(
            "strategy={:?} shards={} checkpoint_every={:?}",
            self.cfg.strategy, self.cfg.shards, self.cfg.checkpoint_every
        ));
        let mut all_params = vec![
            ("cursor".to_string(), self.position),
            ("shards".to_string(), self.shards()),
            ("queries".to_string(), self.query_count()),
        ];
        all_params.extend(params);
        Bundle {
            reason: reason.to_string(),
            config,
            params: all_params,
            metrics_json: self.metrics_snapshot(None).to_json(),
            spans: self.obs.trace().spans().cloned().collect(),
            recorded: self.obs.trace().recorded(),
            dropped: self.obs.trace().dropped(),
        }
    }

    /// Whether latency/trace recording is on.
    pub fn obs_enabled(&self) -> bool {
        self.obs.enabled()
    }

    /// Assembles the full telemetry snapshot: per-query operator counters,
    /// watermark/clock/lag and state-size gauges, purge reclamation, the
    /// recorder's detection-latency and deferral-time histograms, per-shard
    /// worker counters (sharded pools only), engine-wide totals, and — when
    /// the caller passes them — server counters plus the live ingest-queue
    /// depth.
    ///
    /// Everything recorded is a logical quantity, so a fixed-seed workload
    /// yields a byte-identical rendering, and the output-derived series
    /// (histograms, emitted/retracted counts) are additionally identical
    /// across shard counts. `sequin_purge_reclaimed_bytes` is an estimate:
    /// purged stack instances × the in-memory size of an `Event` record
    /// (attribute payloads not counted).
    pub fn metrics_snapshot(&self, server: Option<(&ServerStats, u64)>) -> MetricsSnapshot {
        const STAT_GAUGES: [&str; 2] = ["max_stack_depth", "merge_buffer_peak"];
        const SERVER_GAUGES: [&str; 3] = ["subscriptions", "engine_shards", "max_engine_batch"];
        let mut b = MetricsSnapshot::builder();

        let per_query = self.eval.stats();
        let empty = sequin_obs::QueryObs::default();
        for (i, (_, qid)) in self.queries.iter().enumerate() {
            let labels = [("query", i.to_string())];
            let Some(stats) = per_query.get(i) else {
                continue;
            };
            for (name, v) in stats.as_pairs() {
                let full = format!("sequin_engine_{name}");
                if STAT_GAUGES.contains(&name) {
                    b.gauge(&full, &labels, v);
                } else {
                    b.counter(&full, &labels, v);
                }
            }
            // a registration-order-independent identity for dashboards
            // that survive restarts with a different subscription order
            let stable = format!("{:016x}", stable_query_id(&self.parsed[i]));
            b.gauge(
                "sequin_query_info",
                &[("query", i.to_string()), ("qid", stable.clone())],
                1,
            );
            if let (Some(clock), Some(wm)) =
                (self.eval.query_clock(*qid), self.eval.query_watermark(*qid))
            {
                let (c, w) = (clock.ticks(), wm.ticks());
                b.gauge("sequin_stream_clock", &labels, c);
                b.gauge("sequin_watermark", &labels, w);
                b.gauge("sequin_watermark_lag", &labels, c.saturating_sub(w));
            }
            b.gauge(
                "sequin_engine_state_size",
                &labels,
                self.eval.query_state_size(*qid) as u64,
            );
            b.counter(
                "sequin_purge_reclaimed_bytes",
                &labels,
                stats.purged * std::mem::size_of::<sequin_types::Event>() as u64,
            );
            // disorder-policy series: retractions this process delivered
            // and the live slack bound k̂ (fixed for conservative /
            // speculative / lazy, the control-loop estimate under
            // adaptive slack)
            b.counter(
                "sequin_retraction_emitted",
                &labels,
                self.retractions.get(i).copied().unwrap_or(0),
            );
            if let Some(k) = self.eval.query_slack(*qid) {
                b.gauge("sequin_slack_bound", &labels, k.ticks());
            }
            let shards = self.eval.per_shard_stats(*qid);
            if shards.len() > 1 {
                for (s_ix, s) in shards.iter().enumerate() {
                    let labels = [("query", i.to_string()), ("shard", s_ix.to_string())];
                    for (name, v) in s.as_pairs() {
                        let full = format!("sequin_shard_{name}");
                        if STAT_GAUGES.contains(&name) {
                            b.gauge(&full, &labels, v);
                        } else {
                            b.counter(&full, &labels, v);
                        }
                    }
                }
            }
            // ingest-edge routing: full deliveries vs watermark-only
            // advances per shard, plus the pool-wide broadcast counters
            // and the per-shard queue's high-water mark
            if let Some(rs) = self.eval.route_stats(*qid) {
                for (s_ix, (full, adv)) in rs.full_events.iter().zip(&rs.advances).enumerate() {
                    let labels = [("query", i.to_string()), ("shard", s_ix.to_string())];
                    b.counter("sequin_route_full_events", &labels, *full);
                    b.counter("sequin_route_advances", &labels, *adv);
                }
                b.counter(
                    "sequin_route_broadcast_events",
                    &labels,
                    rs.broadcast_events,
                );
                b.counter("sequin_route_punctuations", &labels, rs.punctuations);
                b.gauge(
                    "sequin_route_queue_depth_peak",
                    &labels,
                    rs.queue_depth_peak,
                );
            }
            if self.obs.enabled() {
                let qo = self.obs.query_obs().get(i).unwrap_or(&empty);
                let keyed = [("qid", stable), ("query", i.to_string())];
                b.histogram("sequin_detection_latency", &keyed, &qo.detection);
                b.histogram("sequin_deferral_time", &keyed, &qo.deferral);
                b.counter("sequin_outputs_emitted", &keyed, qo.emitted);
                b.counter("sequin_outputs_retracted", &keyed, qo.retracted);
            }
        }

        for (name, v) in self.stats().as_pairs() {
            let full = format!("sequin_engine_{name}_total");
            if STAT_GAUGES.contains(&name) {
                b.gauge(&full, &[], v);
            } else {
                b.counter(&full, &[], v);
            }
        }
        if let Some(pm) = self.eval.plan_metrics() {
            b.gauge("sequin_plan_pooled_stacks", &[], pm.pooled_stacks);
            b.gauge("sequin_plan_stack_refs", &[], pm.stack_refs);
            b.gauge("sequin_plan_prefix_groups", &[], pm.prefix_groups);
            b.gauge("sequin_plan_grouped_queries", &[], pm.grouped_queries);
            b.gauge("sequin_plan_epochs", &[], pm.epochs);
            b.counter("sequin_plan_routed_events", &[], pm.routed_events);
            b.counter("sequin_plan_routing_misses", &[], pm.routing_misses);
            b.counter("sequin_plan_shared_partials", &[], pm.shared_partials);
            b.counter("sequin_plan_fanout_outputs", &[], pm.fanout_outputs);
        }
        b.counter(
            "sequin_retraction_emitted_total",
            &[],
            self.retractions.iter().sum(),
        );
        b.counter("sequin_ingest_position", &[], self.position);
        b.gauge("sequin_queries", &[], self.query_count());
        b.gauge(
            "sequin_pending_suppressions",
            &[],
            self.pending_suppressions() as u64,
        );
        if self.obs.enabled() {
            b.counter(
                "sequin_trace_spans_recorded",
                &[],
                self.obs.trace().recorded(),
            );
            b.counter(
                "sequin_trace_spans_dropped",
                &[],
                self.obs.trace().dropped(),
            );
            b.counter(
                "sequin_trace_evicted_total",
                &[],
                self.obs.trace().dropped(),
            );
        }
        if let Some((stats, queue_depth)) = server {
            for (name, v) in stats.as_pairs() {
                let full = format!("sequin_server_{name}");
                if SERVER_GAUGES.contains(&name) {
                    b.gauge(&full, &[], v);
                } else {
                    b.counter(&full, &[], v);
                }
            }
            b.gauge("sequin_server_queue_depth", &[], queue_depth);
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_engine::OutputKind;
    use sequin_types::{Duration, Event, EventId, Value, ValueKind};

    fn registry() -> Arc<TypeRegistry> {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B"] {
            reg.declare(name, &[("x", ValueKind::Int)]).unwrap();
        }
        Arc::new(reg)
    }

    fn cfg(reg: &Arc<TypeRegistry>, every: Option<u64>) -> CoreConfig {
        CoreConfig {
            registry: reg.clone(),
            strategy: Strategy::Native,
            engine: EngineConfig::with_k(Duration::new(10)),
            checkpoint_every: every,
            shards: 1,
            obs: ObsConfig::default(),
            shared_plan: true,
        }
    }

    fn item(reg: &TypeRegistry, ty: &str, id: u64, ts: u64) -> StreamItem {
        StreamItem::Event(Arc::new(
            Event::builder(reg.lookup(ty).unwrap(), Timestamp::new(ts))
                .id(EventId::new(id))
                .attr(Value::Int(0))
                .build(),
        ))
    }

    fn stream(reg: &TypeRegistry) -> Vec<StreamItem> {
        let mut items = Vec::new();
        let mut id = 0;
        for t in 0..60u64 {
            id += 1;
            let ty = if t % 3 == 0 { "B" } else { "A" };
            let ts = if t % 5 == 2 { t.saturating_sub(3) } else { t };
            items.push(item(reg, ty, id, ts * 2));
        }
        items
    }

    const Q_AB: &str = "PATTERN SEQ(A a, B b) WITHIN 8";
    const Q_BA: &str = "PATTERN SEQ(B b, A a) WITHIN 8";

    fn net(out: &[(QueryId, OutputItem)]) -> Vec<(usize, bool, Vec<u64>)> {
        let mut v: Vec<(usize, bool, Vec<u64>)> = out
            .iter()
            .map(|(q, o)| {
                (
                    q.index(),
                    o.kind == OutputKind::Insert,
                    o.m.events().iter().map(|e| e.id().get()).collect(),
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn subscribe_dedups_identical_text() {
        let reg = registry();
        let mut core = EngineCore::new(cfg(&reg, None));
        let a = core.subscribe(Q_AB).unwrap();
        let b = core.subscribe(Q_BA).unwrap();
        assert_ne!(a, b);
        assert_eq!(core.subscribe(Q_AB).unwrap(), a, "same text, same id");
        assert_eq!(core.query_count(), 2);
        assert!(core.subscribe("PATTERN nonsense").is_err());
        assert_eq!(core.query_count(), 2, "failed parse registers nothing");
    }

    #[test]
    fn subscribe_dedups_structurally_equal_text() {
        let reg = registry();
        let mut core = EngineCore::new(cfg(&reg, None));
        let a = core.subscribe(Q_AB).unwrap();
        // same query, different spelling: extra whitespace
        let alias = "PATTERN  SEQ( A a ,  B b )  WITHIN 8";
        assert_eq!(core.subscribe(alias).unwrap(), a, "normalized dedup");
        assert_eq!(core.query_count(), 1, "alias registers no new query");
        // the alias is remembered: re-subscribing it is a table hit
        assert_eq!(core.subscribe(alias).unwrap(), a);
        assert_eq!(core.query_count(), 1);
        // a genuinely different query still gets its own id
        assert_ne!(core.subscribe(Q_BA).unwrap(), a);
        assert_eq!(core.query_count(), 2);
    }

    #[test]
    fn subscribe_reports_coded_errors_with_offsets() {
        let reg = registry();
        let mut core = EngineCore::new(cfg(&reg, None));
        let e = core.subscribe("PATTERN nonsense").unwrap_err();
        assert_eq!(e.code, ErrorCode::BadQuery);

        let text = "PATTERN SEQ(A a, Zed z) WITHIN 5";
        let e = core.subscribe(text).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadAnalysis);
        assert!(e.message.contains("unknown event type"), "{e}");
        let off = text.find("Zed").unwrap();
        assert!(
            e.message.contains(&format!("(at byte {off})")),
            "analyzer span missing from {e}"
        );
        assert_eq!(core.query_count(), 0, "failed analysis registers nothing");
    }

    #[test]
    fn shared_and_independent_backends_agree() {
        let reg = registry();
        let items = stream(&reg);
        // two queries with the same (A, B) prefix and window but different
        // final components force actual prefix sharing on the shared
        // backend
        let q_abb = "PATTERN SEQ(A a, B b, B c) WITHIN 12";
        let q_aba = "PATTERN SEQ(A a, B b, A c) WITHIN 12";

        let run = |shared: bool| {
            let mut c = cfg(&reg, None);
            c.shared_plan = shared;
            let mut core = EngineCore::new(c);
            assert_eq!(core.shared_plan_active(), shared);
            for q in [Q_AB, Q_BA, q_abb, q_aba] {
                core.subscribe(q).unwrap();
            }
            let mut out = Vec::new();
            for it in &items {
                out.extend(core.ingest(it));
            }
            out.extend(core.finish());
            assert_eq!(core.plan_metrics().is_some(), shared);
            (net(&out), core)
        };
        let (with_plan, shared_core) = run(true);
        let (without, _) = run(false);
        assert_eq!(with_plan, without, "backends must agree byte-for-byte");
        let pm = shared_core.plan_metrics().unwrap();
        assert!(pm.prefix_groups >= 1, "AB prefix should group: {pm:?}");
        assert!(pm.routed_events > 0);
    }

    #[test]
    fn crash_resume_switches_backends_exactly_once() {
        let reg = registry();
        let items = stream(&reg);

        let mut oracle = EngineCore::new(cfg(&reg, None));
        oracle.subscribe(Q_AB).unwrap();
        oracle.subscribe(Q_BA).unwrap();
        let mut baseline = Vec::new();
        for it in &items {
            baseline.extend(oracle.ingest(it));
        }
        baseline.extend(oracle.finish());

        // shared-plan core writes the checkpoints...
        let mut core = EngineCore::new(cfg(&reg, Some(25)));
        assert!(core.shared_plan_active());
        core.subscribe(Q_AB).unwrap();
        core.subscribe(Q_BA).unwrap();
        let mut delivered = Vec::new();
        delivered.extend(core.ingest_batch(&items[..40]));
        let saved = core.store().clone();
        drop(core); // crash

        // ...and a sharded independent core resumes from them
        let mut two = cfg(&reg, Some(25));
        two.shards = 2;
        two.shared_plan = false;
        let (mut core, replay_from) = EngineCore::resume(two, saved);
        assert!(replay_from > 0, "a checkpoint was accepted");
        assert!(!core.shared_plan_active());
        delivered.extend(core.ingest_batch(&items[replay_from as usize..]));
        delivered.extend(core.finish());
        assert_eq!(net(&delivered), net(&baseline));
        assert_eq!(core.pending_suppressions(), 0);

        // reverse direction: independent checkpoint, shared resume
        let mut indep = cfg(&reg, Some(25));
        indep.shared_plan = false;
        let mut core = EngineCore::new(indep);
        core.subscribe(Q_AB).unwrap();
        core.subscribe(Q_BA).unwrap();
        let mut delivered = Vec::new();
        delivered.extend(core.ingest_batch(&items[..40]));
        let saved = core.store().clone();
        drop(core); // crash

        let (mut core, replay_from) = EngineCore::resume(cfg(&reg, Some(25)), saved);
        assert!(replay_from > 0);
        assert!(core.shared_plan_active());
        delivered.extend(core.ingest_batch(&items[replay_from as usize..]));
        delivered.extend(core.finish());
        assert_eq!(net(&delivered), net(&baseline));
        assert_eq!(core.pending_suppressions(), 0);
    }

    #[test]
    fn drained_core_ignores_further_input() {
        let reg = registry();
        let mut core = EngineCore::new(cfg(&reg, None));
        core.subscribe(Q_AB).unwrap();
        let items = stream(&reg);
        let mut out = Vec::new();
        for it in &items {
            out.extend(core.ingest(it));
        }
        out.extend(core.finish());
        assert!(core.drained());
        assert!(!out.is_empty());
        assert!(core.ingest(&items[0]).is_empty());
        assert!(core.finish().is_empty(), "second finish is a no-op");
    }

    #[test]
    fn crash_and_resume_is_exactly_once_across_queries() {
        let reg = registry();
        let items = stream(&reg);

        // oracle: one uninterrupted run
        let mut oracle = EngineCore::new(cfg(&reg, None));
        oracle.subscribe(Q_AB).unwrap();
        oracle.subscribe(Q_BA).unwrap();
        let mut baseline = Vec::new();
        for it in &items {
            baseline.extend(oracle.ingest(it));
        }
        baseline.extend(oracle.finish());

        // durable run, crash after 40 items
        let mut core = EngineCore::new(cfg(&reg, Some(25)));
        core.subscribe(Q_AB).unwrap();
        core.subscribe(Q_BA).unwrap();
        let mut delivered = Vec::new();
        for it in &items[..40] {
            delivered.extend(core.ingest(it));
        }
        let saved = core.store().clone();
        drop(core); // crash

        let (mut core, replay_from) = EngineCore::resume(cfg(&reg, Some(25)), saved);
        assert!(replay_from > 0, "a checkpoint was accepted");
        assert_eq!(core.query_count(), 2, "queries rebuilt from the snapshot");
        for it in &items[replay_from as usize..] {
            delivered.extend(core.ingest(it));
        }
        delivered.extend(core.finish());
        assert_eq!(net(&delivered), net(&baseline));
        assert!(core.stats().replayed_suppressed > 0);
        assert_eq!(core.pending_suppressions(), 0);
    }

    #[test]
    fn corrupted_latest_checkpoint_falls_back_then_cold_start() {
        let reg = registry();
        let items = stream(&reg);

        let mut oracle = EngineCore::new(cfg(&reg, None));
        oracle.subscribe(Q_AB).unwrap();
        let mut baseline = Vec::new();
        for it in &items {
            baseline.extend(oracle.ingest(it));
        }
        baseline.extend(oracle.finish());

        let mut core = EngineCore::new(cfg(&reg, Some(15)));
        core.subscribe(Q_AB).unwrap();
        let mut pre_crash = Vec::new();
        for it in &items[..40] {
            pre_crash.extend(core.ingest(it));
        }
        let mut saved = core.store().clone();
        assert!(saved.checkpoint_count() >= 2);
        saved.checkpoint_mut(0).unwrap()[25] ^= 0x10;
        drop(core);

        let (mut core, replay_from) = EngineCore::resume(cfg(&reg, Some(15)), saved.clone());
        assert_eq!(core.stats().checkpoints_rejected, 1, "latest rejected");
        let mut delivered = pre_crash.clone();
        for it in &items[replay_from as usize..] {
            delivered.extend(core.ingest(it));
        }
        delivered.extend(core.finish());
        assert_eq!(net(&delivered), net(&baseline));

        // now corrupt every checkpoint: cold start, still exactly-once
        let count = saved.checkpoint_count();
        for ix in 0..count {
            let bytes = saved.checkpoint_mut(ix).unwrap();
            let keep = bytes.len() / 2;
            bytes.truncate(keep);
        }
        let (mut core, replay_from) = EngineCore::resume(cfg(&reg, Some(15)), saved);
        assert_eq!(replay_from, 0, "cold start");
        // a cold core has no queries yet; the server re-subscribes
        assert_eq!(core.subscribe(Q_AB).unwrap().index(), 0);
        let mut delivered2 = pre_crash;
        for it in &items {
            delivered2.extend(core.ingest(it));
        }
        delivered2.extend(core.finish());
        assert_eq!(net(&delivered2), net(&baseline));
        assert_eq!(core.pending_suppressions(), 0);
    }

    #[test]
    fn batched_ingest_matches_item_by_item_including_checkpoints() {
        let reg = registry();
        let items = stream(&reg);

        let mut seq = EngineCore::new(cfg(&reg, Some(7)));
        seq.subscribe(Q_AB).unwrap();
        seq.subscribe(Q_BA).unwrap();
        let mut want = Vec::new();
        for it in &items {
            want.extend(seq.ingest(it));
        }
        want.extend(seq.finish());

        let mut bat = EngineCore::new(cfg(&reg, Some(7)));
        bat.subscribe(Q_AB).unwrap();
        bat.subscribe(Q_BA).unwrap();
        let mut got = Vec::new();
        // ragged batch sizes that straddle the checkpoint cadence
        let mut rest = &items[..];
        for size in [1usize, 10, 3, 17, 9].iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let take = (*size).min(rest.len());
            got.extend(bat.ingest_batch(&rest[..take]));
            rest = &rest[take..];
        }
        got.extend(bat.finish());

        assert_eq!(net(&got), net(&want));
        assert_eq!(bat.position(), seq.position());
        assert_eq!(
            bat.stats().checkpoints_written,
            seq.stats().checkpoints_written,
            "batch splitting preserves the checkpoint cadence"
        );
    }

    #[test]
    fn crash_resume_with_different_shard_count_is_exactly_once() {
        let reg = registry();
        let items = stream(&reg);

        let mut oracle = EngineCore::new(cfg(&reg, None));
        oracle.subscribe(Q_AB).unwrap();
        oracle.subscribe(Q_BA).unwrap();
        let mut baseline = Vec::new();
        for it in &items {
            baseline.extend(oracle.ingest(it));
        }
        baseline.extend(oracle.finish());

        let mut two = cfg(&reg, Some(25));
        two.shards = 2;
        let mut core = EngineCore::new(two);
        core.subscribe(Q_AB).unwrap();
        core.subscribe(Q_BA).unwrap();
        assert_eq!(core.shards(), 2);
        let mut delivered = Vec::new();
        delivered.extend(core.ingest_batch(&items[..40]));
        let saved = core.store().clone();
        drop(core); // crash

        // resume on a *different* shard count: snapshots are agnostic
        let mut four = cfg(&reg, Some(25));
        four.shards = 4;
        let (mut core, replay_from) = EngineCore::resume(four, saved);
        assert!(replay_from > 0, "a checkpoint was accepted");
        assert_eq!(core.query_count(), 2);
        delivered.extend(core.ingest_batch(&items[replay_from as usize..]));
        delivered.extend(core.finish());
        assert_eq!(net(&delivered), net(&baseline));
        assert!(core.stats().replayed_suppressed > 0);
        assert_eq!(core.pending_suppressions(), 0);
    }

    #[test]
    fn hybrid_backend_composes_shared_and_sharded() {
        let reg = registry();
        let items = stream(&reg);
        // one query sharding can parallelize (equality chain → partition
        // scheme) and two it cannot (no WHERE clause)
        let q_part = "PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 8";

        let run = |shards: usize, shared_plan: bool| {
            let mut c = cfg(&reg, None);
            c.shards = shards;
            c.shared_plan = shared_plan;
            let mut core = EngineCore::new(c);
            for q in [Q_AB, q_part, Q_BA] {
                core.subscribe(q).unwrap();
            }
            let mut out = Vec::new();
            for chunk in items.chunks(13) {
                out.extend(core.ingest_batch(chunk));
            }
            out.extend(core.finish());
            (net(&out), core)
        };

        let (baseline, _) = run(1, false);
        let (hybrid, core) = run(3, true);
        assert_eq!(hybrid, baseline, "hybrid must be byte-identical");
        assert!(core.shared_plan_active(), "shared half hosts Q_AB/Q_BA");
        assert!(core.plan_metrics().is_some());
        // the partitionable query (global id 1) runs on a routed pool...
        let qids: Vec<QueryId> = (0..3).map(QueryId::from_index).collect();
        let rs = core.eval.route_stats(qids[1]).expect("sharded pool");
        assert_eq!(rs.full_events.len(), 3);
        assert_eq!(core.eval.per_shard_stats(qids[1]).len(), 3);
        // ...and the unpartitionable ones stay on the shared plan
        assert!(core.eval.route_stats(qids[0]).is_none());
        assert!(core.eval.route_stats(qids[2]).is_none());
    }

    #[test]
    fn hybrid_checkpoint_interchanges_with_single_shard_backends() {
        let reg = registry();
        let items = stream(&reg);
        let q_part = "PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 8";

        let mut oracle = EngineCore::new(cfg(&reg, None));
        oracle.subscribe(Q_AB).unwrap();
        oracle.subscribe(q_part).unwrap();
        let mut baseline = Vec::new();
        for it in &items {
            baseline.extend(oracle.ingest(it));
        }
        baseline.extend(oracle.finish());

        // hybrid core (shared + sharded halves) writes the checkpoints...
        let mut hy = cfg(&reg, Some(25));
        hy.shards = 2;
        let mut core = EngineCore::new(hy);
        assert!(core.shared_plan_active());
        core.subscribe(Q_AB).unwrap();
        core.subscribe(q_part).unwrap();
        let mut delivered = Vec::new();
        delivered.extend(core.ingest_batch(&items[..40]));
        let saved = core.store().clone();
        drop(core); // crash

        // ...and a single-shard shared core resumes them exactly-once
        let (mut core, replay_from) = EngineCore::resume(cfg(&reg, Some(25)), saved);
        assert!(replay_from > 0, "a checkpoint was accepted");
        assert!(matches!(core.eval, Eval::Shared(_)));
        delivered.extend(core.ingest_batch(&items[replay_from as usize..]));
        delivered.extend(core.finish());
        assert_eq!(net(&delivered), net(&baseline));
        assert_eq!(core.pending_suppressions(), 0);

        // reverse: shared checkpoint resumes on a wider hybrid core
        let mut core = EngineCore::new(cfg(&reg, Some(25)));
        core.subscribe(Q_AB).unwrap();
        core.subscribe(q_part).unwrap();
        let mut delivered = Vec::new();
        delivered.extend(core.ingest_batch(&items[..40]));
        let saved = core.store().clone();
        drop(core); // crash

        let mut four = cfg(&reg, Some(25));
        four.shards = 4;
        let (mut core, replay_from) = EngineCore::resume(four, saved);
        assert!(replay_from > 0);
        assert!(matches!(core.eval, Eval::Hybrid { .. }));
        delivered.extend(core.ingest_batch(&items[replay_from as usize..]));
        delivered.extend(core.finish());
        assert_eq!(net(&delivered), net(&baseline));
        assert_eq!(core.pending_suppressions(), 0);
    }

    #[test]
    fn subscription_is_durable_immediately() {
        let reg = registry();
        let mut core = EngineCore::new(cfg(&reg, Some(1000)));
        core.subscribe(Q_AB).unwrap();
        assert!(core.take_dirty());
        let saved = core.store().clone();
        drop(core); // crash before any event

        let (core, replay_from) = EngineCore::resume(cfg(&reg, Some(1000)), saved);
        assert_eq!(replay_from, 0);
        assert_eq!(core.query_count(), 1, "registration survived the crash");
    }
}
