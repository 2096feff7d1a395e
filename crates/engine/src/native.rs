//! Strategy 3: the paper's native out-of-order engine.

use std::cmp::Ordering;
use std::sync::Arc;

use sequin_query::{PartitionScheme, Query};
use sequin_runtime::{purge, AisStack, Constructor, PartitionKey, PartitionMap, RuntimeStats};
use sequin_types::codec::{fnv1a64, open_envelope, seal_envelope};
use sequin_types::{
    ArrivalSeq, CodecError, Decode, Encode, EventRef, Reader, StreamItem, Timestamp, Writer,
};

use crate::config::EngineConfig;
use crate::emit::Emitter;
use crate::output::OutputItem;
use crate::traits::Engine;
use crate::watermark::WatermarkTracker;

/// Per-partition positive state: one [`AisStack`] per positive slot.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    pub(crate) stacks: Vec<AisStack>,
}

impl Shard {
    fn new(m: usize) -> Shard {
        Shard {
            stacks: vec![AisStack::new(); m],
        }
    }

    fn len(&self) -> usize {
        self.stacks.iter().map(AisStack::len).sum()
    }
}

/// A query's positive state: one shard, or one per partition key.
#[derive(Debug)]
pub(crate) enum ShardSet {
    Single(Shard),
    Partitioned {
        scheme: PartitionScheme,
        map: PartitionMap<Shard>,
    },
}

impl ShardSet {
    /// Every shard, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Shard> {
        let (single, map) = match self {
            ShardSet::Single(shard) => (Some(shard), None),
            ShardSet::Partitioned { map, .. } => (None, Some(map)),
        };
        single
            .into_iter()
            .chain(map.into_iter().flat_map(|m| m.iter().map(|(_, s)| s)))
    }

    /// Reads the positive-state section of a snapshot (see
    /// [`NativeEngine::merged_snapshot`]) for `query` under `config`.
    fn read(
        query: &Query,
        config: &EngineConfig,
        r: &mut Reader<'_>,
    ) -> Result<ShardSet, CodecError> {
        let m = query.positive_len();
        let decode_shard = |r: &mut Reader<'_>| -> Result<Shard, CodecError> {
            let stacks = Vec::<AisStack>::decode(r)?;
            if stacks.len() != m {
                return Err(CodecError::SnapshotMismatch("positive slot count"));
            }
            Ok(Shard { stacks })
        };
        match r.get_u8()? {
            0 => Ok(ShardSet::Single(decode_shard(r)?)),
            1 => {
                let scheme = match (config.partitioned, query.partition()) {
                    (true, Some(scheme)) => scheme.clone(),
                    _ => return Err(CodecError::SnapshotMismatch("partitioning scheme")),
                };
                let map = PartitionMap::restore(r, decode_shard)?;
                Ok(ShardSet::Partitioned { scheme, map })
            }
            tag => Err(CodecError::InvalidTag {
                what: "ShardSet",
                tag,
            }),
        }
    }
}

/// One query's snapshot blob — the format [`NativeEngine::snapshot`]
/// writes and the shared evaluator writes per query — decoded and checked
/// against the query and the configuration it is restored under.
pub(crate) struct QueryBlob {
    pub(crate) wm: WatermarkTracker,
    pub(crate) seq: ArrivalSeq,
    pub(crate) shards: ShardSet,
    pub(crate) emit: Emitter,
}

impl QueryBlob {
    /// Decodes `bytes` for `query`. The watermark tracker's slack
    /// parameters and the emitter's policy come from `config`, not from
    /// the snapshot: a policy change across a checkpoint takes effect on
    /// restore.
    pub(crate) fn read(
        query: &Arc<Query>,
        config: &EngineConfig,
        bytes: &[u8],
    ) -> Result<QueryBlob, CodecError> {
        let mut r = Reader::new(open_envelope(bytes)?);
        if r.get_u64()? != Emitter::fingerprint(query, config) {
            return Err(CodecError::SnapshotMismatch(
                "query/configuration fingerprint",
            ));
        }
        let wm = WatermarkTracker::restore_from(config, &mut r)?;
        let seq = ArrivalSeq::decode(&mut r)?;
        let stats = RuntimeStats::decode(&mut r)?;
        let shards = ShardSet::read(query, config, &mut r)?;
        let emit = Emitter::read_tail(query, config.policy, stats, &mut r)?;
        r.finish()?;
        Ok(QueryBlob {
            wm,
            seq,
            shards,
            emit,
        })
    }
}

/// Which slice of the partition-key space this engine owns when it runs
/// as one worker of a [`crate::ShardedEngine`]. `None` means the engine
/// owns everything (the ordinary single-threaded configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardSlice {
    /// This worker's index in `0..of`.
    pub(crate) index: u32,
    /// Total number of workers.
    pub(crate) of: u32,
}

impl ShardSlice {
    /// True when `key` routes to this worker.
    pub(crate) fn owns(&self, key: &PartitionKey) -> bool {
        key_hash(key) % u64::from(self.of) == u64::from(self.index)
    }

    /// The primary worker (index 0) owns everything that cannot be
    /// keyed — the overflow shard — and is the one that accounts for
    /// work every worker performs in lockstep (watermarks, negatives).
    fn primary(&self) -> bool {
        self.index == 0
    }
}

/// Routing hash: FNV-1a over the key's wire encoding, so placement is
/// stable across processes, platforms, and hash-map seeds (the same
/// fingerprint-stable construction snapshots use). The ingest-edge router
/// in [`crate::ShardedEngine`] uses the same function, so the worker's
/// ownership check and the router's owner computation can never disagree.
pub(crate) fn key_hash(key: &PartitionKey) -> u64 {
    let mut w = Writer::new();
    key.encode(&mut w);
    fnv1a64(&w.into_bytes())
}

/// One arrival's outputs, separated by emission phase so a deterministic
/// cross-shard merge can reproduce the single-threaded order exactly:
/// retractions first, then construction-time emissions (by slot), then
/// seal-time emissions (by deadline, then match identity).
#[derive(Debug, Default)]
pub(crate) struct PhasedOutput {
    /// Speculative-mode retractions, keyed by the match's seal deadline.
    pub(crate) retracts: Vec<(Timestamp, OutputItem)>,
    /// Construction-time emissions, keyed by the arrival's positive slot.
    pub(crate) constructed: Vec<(usize, OutputItem)>,
    /// Seal-time emissions, keyed by the match's seal deadline.
    pub(crate) sealed: Vec<(Timestamp, OutputItem)>,
}

fn match_order(a: &OutputItem, b: &OutputItem) -> Ordering {
    let ka = a.m.events().iter().map(|e| e.id());
    let kb = b.m.events().iter().map(|e| e.id());
    ka.cmp(kb)
}

/// One pre-routed ingest message, as delivered to a sliced worker by the
/// routing [`crate::ShardedEngine`]: the full event when this worker owns
/// one of its slots (or the event is a negation flank, broadcast to every
/// worker), otherwise a watermark-only advance mirroring the arrival so
/// the worker's sequence number, clock, disorder estimate, and purge
/// cadence stay lockstep with the single-threaded engine.
#[derive(Debug, Clone)]
pub(crate) enum RoutedMsg {
    /// Full event, already stamped with its global arrival sequence.
    Event {
        /// The router's global arrival sequence for this event.
        seq: ArrivalSeq,
        /// The stamped event (one clone at the ingest edge, shared by
        /// every owner).
        event: EventRef,
    },
    /// Arrival metadata only: the event's state belongs to other workers.
    Advance {
        /// The router's global arrival sequence for this event.
        seq: ArrivalSeq,
        /// The event's occurrence timestamp (watermark/clock input).
        ts: Timestamp,
    },
    /// Stream punctuation, broadcast to every worker.
    Punctuation(Timestamp),
}

impl PhasedOutput {
    pub(crate) fn len(&self) -> usize {
        self.retracts.len() + self.constructed.len() + self.sealed.len()
    }

    /// Merges per-shard phases for one arrival into the canonical output
    /// order and appends to `out`; returns how many items were buffered
    /// (the merge-buffer size for this arrival).
    ///
    /// Within a phase the order is fully determined by data, not by shard
    /// count: retractions and sealed emissions sort by (deadline, event
    /// ids) — exactly the order the single-threaded engine's seal heap
    /// pops them — and construction-time emissions sort by slot, where
    /// each slot's matches come from exactly one shard (the one owning
    /// the arriving event's key for that slot) in DFS order.
    pub(crate) fn merge_into(phases: Vec<PhasedOutput>, out: &mut Vec<OutputItem>) -> usize {
        let buffered: usize = phases.iter().map(PhasedOutput::len).sum();
        let mut retracts = Vec::new();
        let mut constructed = Vec::new();
        let mut sealed = Vec::new();
        for mut p in phases {
            retracts.append(&mut p.retracts);
            constructed.append(&mut p.constructed);
            sealed.append(&mut p.sealed);
        }
        retracts.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| match_order(&a.1, &b.1)));
        constructed.sort_by_key(|(slot, _)| *slot);
        sealed.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| match_order(&a.1, &b.1)));
        out.extend(retracts.into_iter().map(|(_, o)| o));
        out.extend(constructed.into_iter().map(|(_, o)| o));
        out.extend(sealed.into_iter().map(|(_, o)| o));
        buffered
    }
}

/// The paper's engine: order-insensitive active instance stacks,
/// arrival-driven construction with out-of-order compensation, and
/// watermark-safe purge.
///
/// * Negation-free matches are emitted the instant their last-arriving
///   constituent is ingested (zero arrival latency, exactly once) — except
///   under [`DisorderPolicy::Lazy`](crate::DisorderPolicy::Lazy), which
///   defers every emission to the seal drain.
/// * Negation is handled per [`DisorderPolicy`](crate::DisorderPolicy):
///   conservatively (held until the negation regions seal, then
///   re-validated), speculatively (emitted immediately, retracted if a
///   late negative lands), lazily, or conservatively under an adaptive
///   slack bound.
/// * State is purged against the watermark (`clock − K`, punctuation, or
///   both) using the thresholds derived in [`sequin_runtime::purge`].
/// * With [`EngineConfig::partitioned`] and a query-level equality chain,
///   positive stacks are sharded by the join key; the negative index stays
///   global (negatives filter by predicate at check time).
#[derive(Debug)]
pub struct NativeEngine {
    config: EngineConfig,
    ctor: Constructor,
    shards: ShardSet,
    emit: Emitter,
    wm: WatermarkTracker,
    next_seq: ArrivalSeq,
    scratch: Vec<Vec<EventRef>>,
    slice: Option<ShardSlice>,
    /// What is left of the [`EngineConfig::retraction_drop`] sabotage
    /// budget on this instance. Not part of snapshots — the knob only
    /// exists for the differential simulator.
    retractions_to_drop: u64,
}

impl NativeEngine {
    /// Creates the engine.
    pub fn new(query: Arc<Query>, config: EngineConfig) -> NativeEngine {
        let m = query.positive_len();
        let shards = match (config.partitioned, query.partition()) {
            (true, Some(scheme)) => ShardSet::Partitioned {
                scheme: scheme.clone(),
                map: PartitionMap::new(),
            },
            _ => ShardSet::Single(Shard::new(m)),
        };
        NativeEngine {
            ctor: Constructor::new(Arc::clone(&query), config.construct),
            emit: Emitter::new(query, config.policy),
            shards,
            wm: WatermarkTracker::new(&config),
            config,
            next_seq: ArrivalSeq::default(),
            scratch: Vec::new(),
            slice: None,
            retractions_to_drop: config.retraction_drop,
        }
    }

    /// Creates one worker of a sharded pool, owning only the partition
    /// keys that hash to `slice`. The worker still observes every stream
    /// item (watermarks, sequence numbers, and the negative index advance
    /// in lockstep with the single-threaded engine) but inserts and
    /// constructs only for its own keys.
    pub(crate) fn sliced(
        query: Arc<Query>,
        config: EngineConfig,
        slice: ShardSlice,
    ) -> NativeEngine {
        let mut eng = NativeEngine::new(query, config);
        eng.slice = Some(slice);
        eng
    }

    fn primary(&self) -> bool {
        self.slice.is_none_or(|s| s.primary())
    }

    /// The current (monotone) low-watermark.
    pub fn watermark(&self) -> Timestamp {
        self.wm.current()
    }

    /// The current disorder-bound estimate (`K`, or the adaptive `K̂`).
    pub fn k_hat(&self) -> sequin_types::Duration {
        self.wm.k_hat()
    }

    /// The stream clock: maximum occurrence timestamp observed so far.
    pub fn clock(&self) -> Timestamp {
        self.wm.clock()
    }

    /// Watermark lag: how far the published watermark trails the stream
    /// clock (see [`Engine::clock`]).
    pub fn watermark_lag(&self) -> sequin_types::Duration {
        self.wm.lag()
    }

    /// Minimum occurrence timestamp across every live positive-stack
    /// entry, or `None` when all stacks are empty. Inspection hook for the
    /// purge-invariant property tests; not part of the stable API.
    #[doc(hidden)]
    pub fn oldest_stack_ts(&self) -> Option<Timestamp> {
        self.shards
            .iter()
            .flat_map(|shard| &shard.stacks)
            .filter_map(|stack| stack.events().first().map(|e| e.ts()))
            .min()
    }

    /// True when this worker owns the arriving event for `slot` — i.e.
    /// the (slot, partition-key) pair hashes to this slice, or the state
    /// is unpartitioned and this is the primary (overflow) worker.
    fn owns_slot(&self, slot: usize, event: &EventRef) -> bool {
        let Some(slice) = self.slice else { return true };
        match &self.shards {
            ShardSet::Single(_) => slice.primary(),
            ShardSet::Partitioned { scheme, .. } => {
                match event
                    .field(scheme.fields[slot])
                    .and_then(PartitionKey::from_value)
                {
                    Some(key) => slice.owns(&key),
                    // unkeyable (float) events are dropped by every
                    // worker exactly as the single-threaded engine drops
                    // them; let the primary account for the predicate
                    // work so counter totals line up
                    None => slice.primary(),
                }
            }
        }
    }

    fn process_event(&mut self, event: &EventRef, out: &mut PhasedOutput) {
        if self.wm.observe_event(event.ts()) {
            // disorder bound violated: state this event needed may already
            // be purged; process best-effort and record the violation.
            // Every worker of a sharded pool sees this in lockstep, so
            // only the primary attributes it.
            if self.primary() {
                self.emit.stats.late_drops += 1;
            }
        }

        // negatives first: a negative at the same timestamp as a positive
        // arrival must be visible to validation in this call. Every worker
        // keeps the full negative index (negatives filter at check time);
        // only the primary attributes the duplicated indexing cost.
        let is_negated_type = self
            .ctor
            .query()
            .negations()
            .iter()
            .any(|n| n.matches_type(event.event_type()));
        if is_negated_type {
            let counted = self.primary();
            self.emit.offer_negative(
                event,
                counted,
                self.next_seq,
                &self.wm,
                &mut self.retractions_to_drop,
                out,
            );
        }

        // positive slots: route, pre-filter, insert, compensate-construct
        let slots = self.ctor.query().slots_for_type(event.event_type());
        let mut routed = false;
        for slot in slots {
            if !self.owns_slot(slot, event) {
                continue;
            }
            routed = true;
            if !self.passes_local(slot, event) {
                continue;
            }
            let mut raw = std::mem::take(&mut self.scratch);
            raw.clear();
            let shard = match &mut self.shards {
                ShardSet::Single(shard) => Some(shard),
                ShardSet::Partitioned { scheme, map } => event
                    .field(scheme.fields[slot])
                    .and_then(PartitionKey::from_value)
                    .map(|key| map.shard_mut(key, || Shard::new(self.ctor.query().positive_len()))),
            };
            if let Some(shard) = shard {
                Self::insert_and_construct(
                    &self.ctor,
                    shard,
                    slot,
                    event,
                    &mut self.emit.stats,
                    &mut raw,
                );
            }
            for events in raw.drain(..) {
                self.emit
                    .route_match(slot, events, event.id(), self.next_seq, &self.wm, out);
            }
            self.scratch = raw;
        }
        if routed {
            self.emit.stats.events_routed += 1;
        }
    }

    fn insert_and_construct(
        ctor: &Constructor,
        shard: &mut Shard,
        slot: usize,
        event: &EventRef,
        stats: &mut RuntimeStats,
        raw: &mut Vec<Vec<EventRef>>,
    ) {
        let pos = match shard.stacks[slot].insert(Arc::clone(event)) {
            Some(pos) => pos,
            None => return, // duplicate delivery
        };
        stats.insertions += 1;
        if pos + 1 != shard.stacks[slot].len() {
            stats.ooo_insertions += 1;
        }
        stats.max_stack_depth = stats.max_stack_depth.max(shard.stacks[slot].len() as u64);
        ctor.matches_with(&shard.stacks, slot, event, stats, raw);
    }

    fn passes_local(&mut self, slot: usize, event: &EventRef) -> bool {
        let query = self.ctor.query();
        let mut binding: Vec<Option<&EventRef>> = vec![None; query.components().len()];
        binding[query.positive_comp(slot)] = Some(event);
        for pred in query.local_predicates(slot) {
            self.emit.stats.predicate_evals += 1;
            if pred.eval(&binding) != Some(true) {
                return false;
            }
        }
        true
    }

    fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        // all-or-nothing: a decode failure leaves the current state
        // untouched
        let blob = QueryBlob::read(self.ctor.query(), &self.config, bytes)?;
        self.wm = blob.wm;
        self.next_seq = blob.seq;
        self.shards = blob.shards;
        self.emit = blob.emit;
        Ok(())
    }

    fn run_purge(&mut self) {
        // every worker of a sharded pool purges on the same cadence; the
        // pass itself and the (replicated) negative-index purge are
        // attributed by the primary only, while per-stack purges are
        // disjoint and counted locally
        let primary = self.primary();
        if primary {
            self.emit.stats.purge_runs += 1;
        }
        let watermark = self.watermark();
        let window = self.ctor.query().window();
        // purge_horizon_skew is the simulator's sabotage knob: widening the
        // thresholds deletes state that is still needed, which the
        // differential harness must detect. Zero in any real configuration.
        let skew = sequin_types::Duration::new(self.config.purge_horizon_skew);
        let prefix = purge::prefix_threshold(watermark, window).saturating_add(skew);
        let fin = purge::final_threshold(watermark).saturating_add(skew);
        let mut purged = 0u64;
        let purge_shard = |shard: &mut Shard, purged: &mut u64| {
            let m = shard.stacks.len();
            for (slot, stack) in shard.stacks.iter_mut().enumerate() {
                let threshold = if slot + 1 == m { fin } else { prefix };
                *purged += stack.purge_before(threshold) as u64;
            }
        };
        match &mut self.shards {
            ShardSet::Single(shard) => purge_shard(shard, &mut purged),
            ShardSet::Partitioned { map, .. } => {
                for (_, shard) in map.iter_mut() {
                    purge_shard(shard, &mut purged);
                }
                map.retain_live(|shard| shard.len() == 0);
            }
        }
        self.emit.stats.purged += purged;
        let threshold = purge::negative_threshold(watermark, window).saturating_add(skew);
        self.emit.purge_negatives(threshold, primary);
    }

    /// Drains the seal and runs a due purge: the tail of every arrival.
    fn settle(&mut self, out: &mut PhasedOutput) {
        self.emit.drain_sealed(self.next_seq, &self.wm, out);
        if self.config.purge.due(self.next_seq.get()) {
            self.run_purge();
        }
    }

    /// Processes one stream item, keeping outputs separated by emission
    /// phase (the merge-ready form [`crate::ShardedEngine`] consumes).
    pub(crate) fn ingest_phased(&mut self, item: &StreamItem) -> PhasedOutput {
        let mut out = PhasedOutput::default();
        match item {
            StreamItem::Event(event) => {
                self.next_seq = self.next_seq.next();
                let stamped = Arc::new(event.as_ref().clone().with_arrival(self.next_seq));
                self.process_event(&stamped, &mut out);
            }
            StreamItem::Punctuation(t) => {
                self.wm.observe_punctuation(*t);
            }
        }
        self.settle(&mut out);
        out
    }

    /// Applies one routed message, mirroring [`NativeEngine::ingest_phased`]
    /// exactly: the sequence number, watermark, seal drain, and purge
    /// cadence advance as if this worker had ingested the full stream.
    /// [`RoutedMsg::Advance`] reproduces precisely what a non-owning
    /// lockstep worker used to do with a full event — observe the
    /// timestamp, attribute a late arrival on the primary, drain seals,
    /// check the purge cadence — without the event clone or the per-slot
    /// ownership probes.
    pub(crate) fn apply_routed(&mut self, msg: &RoutedMsg) -> PhasedOutput {
        let mut out = PhasedOutput::default();
        match msg {
            RoutedMsg::Event { seq, event } => {
                self.next_seq = *seq;
                self.process_event(event, &mut out);
            }
            RoutedMsg::Advance { seq, ts } => {
                self.next_seq = *seq;
                if self.wm.observe_event(*ts) && self.primary() {
                    self.emit.stats.late_drops += 1;
                }
            }
            RoutedMsg::Punctuation(t) => {
                self.wm.observe_punctuation(*t);
            }
        }
        self.settle(&mut out);
        out
    }

    /// The last arrival sequence this engine stamped (or mirrored). The
    /// router resynchronizes from this after a restore.
    pub(crate) fn seq(&self) -> ArrivalSeq {
        self.next_seq
    }

    /// Number of entries in the (worker-replicated) negative index.
    /// Inspection hook for the broadcast property tests; not part of the
    /// stable API.
    #[doc(hidden)]
    pub fn negative_index_len(&self) -> usize {
        self.emit.negatives.len()
    }

    /// End-of-stream flush in merge-ready form.
    pub(crate) fn finish_phased(&mut self) -> PhasedOutput {
        let mut out = PhasedOutput::default();
        self.wm.seal();
        self.emit.drain_sealed(self.next_seq, &self.wm, &mut out);
        out
    }

    /// State size excluding the negative index, which sharded pools
    /// replicate on every worker and must count once.
    pub(crate) fn owned_state_size(&self) -> usize {
        self.state_size() - self.emit.negatives.len()
    }

    /// Zeroes the counters (a restored non-primary worker starts from a
    /// clean slate so pool-wide aggregation does not double-count the
    /// snapshot's history).
    pub(crate) fn reset_stats(&mut self) {
        self.emit.stats.reset();
    }

    /// Serializes the union of a sharded pool's workers — `parts[0]` is
    /// the primary — as one canonical snapshot; a single engine's
    /// [`NativeEngine::snapshot`] is the one-part case. Restoring it into
    /// a single engine — or a pool with a *different* worker count —
    /// reproduces the same evaluation state. Lockstep state (watermark,
    /// arrival sequence, negative index) comes from the primary worker;
    /// partition maps are disjoint by construction and written as one
    /// key-sorted map; pending/unsealed matches are the sorted union.
    pub(crate) fn merged_snapshot(parts: &[&NativeEngine]) -> Vec<u8> {
        let primary = parts[0];
        assert!(primary.primary(), "parts[0] is the primary worker");
        let mut w = Writer::new();
        w.put_u64(Emitter::fingerprint(primary.ctor.query(), &primary.config));
        primary.wm.snapshot_into(&mut w);
        primary.next_seq.encode(&mut w);
        let mut stats = RuntimeStats::default();
        for p in parts {
            stats += p.emit.stats;
        }
        stats.encode(&mut w);
        match &primary.shards {
            ShardSet::Single(shard) => {
                // only the primary worker holds unpartitioned state
                w.put_u8(0);
                shard.stacks.encode(&mut w);
            }
            ShardSet::Partitioned { .. } => {
                w.put_u8(1);
                let mut entries: Vec<(&PartitionKey, &Shard)> = Vec::new();
                for p in parts {
                    if let ShardSet::Partitioned { map, .. } = &p.shards {
                        entries.extend(map.iter());
                    }
                }
                entries.sort_by(|a, b| a.0.cmp(b.0));
                w.put_u64(entries.len() as u64);
                for (key, shard) in entries {
                    key.encode(&mut w);
                    shard.stacks.encode(&mut w);
                }
            }
        }
        let emitters: Vec<&Emitter> = parts.iter().map(|p| &p.emit).collect();
        Emitter::write_tail(&emitters, &mut w);
        seal_envelope(&w.into_bytes())
    }

    /// After restoring a full snapshot into a sliced worker, drops the
    /// state other workers own: foreign partition shards, and pending /
    /// unsealed matches keyed to foreign partitions. Lockstep state
    /// (watermark, sequence, negatives) is kept everywhere.
    pub(crate) fn prune_to_slice(&mut self) {
        let Some(slice) = self.slice else { return };
        match &mut self.shards {
            ShardSet::Single(shard) => {
                if !slice.primary() {
                    *shard = Shard::new(shard.stacks.len());
                    self.emit.retain_matches(|_| false);
                }
            }
            ShardSet::Partitioned { scheme, map } => {
                map.retain_keys(|k| slice.owns(k));
                let field = scheme.fields[0];
                self.emit.retain_matches(|events| {
                    events
                        .first()
                        .and_then(|e| e.field(field))
                        .and_then(PartitionKey::from_value)
                        .map_or(slice.primary(), |k| slice.owns(&k))
                });
            }
        }
    }
}

impl Engine for NativeEngine {
    fn ingest(&mut self, item: &StreamItem) -> Vec<OutputItem> {
        let phased = self.ingest_phased(item);
        let mut out = Vec::new();
        PhasedOutput::merge_into(vec![phased], &mut out);
        out
    }

    fn finish(&mut self) -> Vec<OutputItem> {
        // end-of-stream seals every region
        let phased = self.finish_phased();
        let mut out = Vec::new();
        PhasedOutput::merge_into(vec![phased], &mut out);
        out
    }

    fn stats(&self) -> RuntimeStats {
        self.emit.stats
    }

    fn state_size(&self) -> usize {
        let stacks: usize = self.shards.iter().map(Shard::len).sum();
        stacks + self.emit.len()
    }

    fn query(&self) -> &Arc<Query> {
        self.ctor.query()
    }

    fn watermark(&self) -> Option<Timestamp> {
        Some(self.wm.current())
    }

    fn clock(&self) -> Option<Timestamp> {
        Some(self.wm.clock())
    }

    fn slack_bound(&self) -> Option<sequin_types::Duration> {
        Some(self.wm.k_hat())
    }

    fn snapshot(&self) -> Result<Vec<u8>, CodecError> {
        Ok(Self::merged_snapshot(&[self]))
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        self.restore_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DisorderPolicy, WatermarkSource};
    use crate::output::OutputKind;
    use crate::traits::run_to_end;
    use sequin_query::parse;
    use sequin_runtime::purge::PurgePolicy;
    use sequin_types::{Duration, Event, EventId, TypeRegistry, Value, ValueKind};

    fn registry() -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B", "C", "N"] {
            reg.declare(name, &[("x", ValueKind::Int), ("tag", ValueKind::Int)])
                .unwrap();
        }
        reg
    }

    fn item(reg: &TypeRegistry, ty: &str, id: u64, ts: u64, x: i64) -> StreamItem {
        StreamItem::Event(Arc::new(
            Event::builder(reg.lookup(ty).unwrap(), Timestamp::new(ts))
                .id(EventId::new(id))
                .attr(Value::Int(x))
                .attr(Value::Int(x))
                .build(),
        ))
    }

    fn keys(out: &[OutputItem]) -> Vec<(bool, Vec<u64>)> {
        let mut v: Vec<(bool, Vec<u64>)> = out
            .iter()
            .map(|o| {
                (
                    o.kind == OutputKind::Insert,
                    o.m.events().iter().map(|e| e.id().get()).collect(),
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn out_of_order_match_recovered_immediately() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
        let mut eng = NativeEngine::new(q, EngineConfig::default());
        let mut out = Vec::new();
        out.extend(eng.ingest(&item(&reg, "B", 1, 20, 0)));
        assert!(out.is_empty());
        out.extend(eng.ingest(&item(&reg, "A", 2, 10, 0)));
        assert_eq!(out.len(), 1, "compensation fired on the late A");
        assert_eq!(out[0].arrival_latency(), 0);
    }

    #[test]
    fn exactly_once_under_shuffle() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b, C c) WITHIN 100", &reg).unwrap();
        let items = [
            item(&reg, "C", 5, 50, 0),
            item(&reg, "A", 1, 10, 0),
            item(&reg, "B", 3, 30, 0),
            item(&reg, "A", 2, 20, 0),
            item(&reg, "C", 6, 60, 0),
        ];
        let mut eng = NativeEngine::new(q, EngineConfig::default());
        let out = run_to_end(&mut eng, &items);
        assert_eq!(
            keys(&out),
            vec![
                (true, vec![1, 3, 5]),
                (true, vec![1, 3, 6]),
                (true, vec![2, 3, 5]),
                (true, vec![2, 3, 6]),
            ]
        );
    }

    #[test]
    fn duplicate_delivery_is_idempotent() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
        let mut eng = NativeEngine::new(q, EngineConfig::default());
        let a = item(&reg, "A", 1, 10, 0);
        let b = item(&reg, "B", 2, 20, 0);
        let mut out = Vec::new();
        out.extend(eng.ingest(&a));
        out.extend(eng.ingest(&b));
        out.extend(eng.ingest(&b));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn conservative_negation_waits_for_seal() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 100", &reg).unwrap();
        let mut cfg = EngineConfig::with_k(Duration::new(10));
        cfg.policy = DisorderPolicy::Conservative;
        let mut eng = NativeEngine::new(q, cfg);
        let mut out = Vec::new();
        out.extend(eng.ingest(&item(&reg, "A", 1, 10, 0)));
        out.extend(eng.ingest(&item(&reg, "B", 2, 20, 0)));
        // match constructed but region (10,20) not sealed: watermark = 10
        assert!(out.is_empty());
        // late negative inside the region arrives
        out.extend(eng.ingest(&item(&reg, "N", 3, 15, 0)));
        assert!(out.is_empty());
        // advance watermark past 20: the match is (correctly) suppressed
        out.extend(eng.ingest(&item(&reg, "A", 4, 40, 0)));
        assert!(out.is_empty());
        assert!(eng.stats().negated_matches >= 1);
    }

    #[test]
    fn conservative_negation_emits_clean_match_after_seal() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 100", &reg).unwrap();
        let mut eng = NativeEngine::new(q, EngineConfig::with_k(Duration::new(10)));
        let mut out = Vec::new();
        out.extend(eng.ingest(&item(&reg, "A", 1, 10, 0)));
        out.extend(eng.ingest(&item(&reg, "B", 2, 20, 0)));
        assert!(out.is_empty());
        out.extend(eng.ingest(&item(&reg, "A", 4, 40, 0))); // watermark 30 >= 20
        assert_eq!(keys(&out), vec![(true, vec![1, 2])]);
    }

    #[test]
    fn speculative_negation_emits_then_retracts() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 100", &reg).unwrap();
        let mut cfg = EngineConfig::with_k(Duration::new(50));
        cfg.policy = DisorderPolicy::Speculative;
        let mut eng = NativeEngine::new(q, cfg);
        let mut out = Vec::new();
        out.extend(eng.ingest(&item(&reg, "A", 1, 10, 0)));
        out.extend(eng.ingest(&item(&reg, "B", 2, 20, 0)));
        assert_eq!(out.len(), 1, "emitted optimistically");
        // a late negative inside (10,20) retracts it
        let retractions = eng.ingest(&item(&reg, "N", 3, 15, 0));
        assert_eq!(retractions.len(), 1);
        assert_eq!(retractions[0].kind, OutputKind::Retract);
        assert_eq!(keys(&retractions), vec![(false, vec![1, 2])]);
    }

    #[test]
    fn speculative_insert_minus_retract_equals_conservative() {
        let reg = registry();
        let text = "PATTERN SEQ(A a, !N n, B b) WHERE a.tag == b.tag WITHIN 50";
        let q = parse(text, &reg).unwrap();
        let items: Vec<StreamItem> = vec![
            item(&reg, "A", 1, 10, 1),
            item(&reg, "B", 2, 30, 1),
            item(&reg, "N", 3, 20, 0), // late negative kills (1,2)
            item(&reg, "A", 4, 40, 2),
            item(&reg, "B", 5, 60, 2),
            item(&reg, "A", 7, 200, 3), // advances watermark far
        ];
        let mut cons = NativeEngine::new(Arc::clone(&q), {
            let mut c = EngineConfig::with_k(Duration::new(30));
            c.policy = DisorderPolicy::Conservative;
            c
        });
        let mut aggr = NativeEngine::new(q, {
            let mut c = EngineConfig::with_k(Duration::new(30));
            c.policy = DisorderPolicy::Speculative;
            c
        });
        let out_c = run_to_end(&mut cons, &items);
        let out_a = run_to_end(&mut aggr, &items);
        // net speculative output (inserts minus retracts) == conservative
        let mut net: std::collections::BTreeMap<Vec<u64>, i64> = Default::default();
        for o in &out_a {
            let k: Vec<u64> = o.m.events().iter().map(|e| e.id().get()).collect();
            *net.entry(k).or_default() += if o.kind == OutputKind::Insert { 1 } else { -1 };
        }
        net.retain(|_, v| *v != 0);
        let mut cons_keys: Vec<Vec<u64>> = out_c
            .iter()
            .map(|o| o.m.events().iter().map(|e| e.id().get()).collect())
            .collect();
        cons_keys.sort();
        let net_keys: Vec<Vec<u64>> = net.keys().cloned().collect();
        assert_eq!(net_keys, cons_keys);
    }

    #[test]
    fn punctuation_seals_regions() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 100", &reg).unwrap();
        let mut cfg = EngineConfig::with_k(Duration::new(1_000_000));
        cfg.watermark = WatermarkSource::Both;
        let mut eng = NativeEngine::new(q, cfg);
        let mut out = Vec::new();
        out.extend(eng.ingest(&item(&reg, "A", 1, 10, 0)));
        out.extend(eng.ingest(&item(&reg, "B", 2, 20, 0)));
        assert!(out.is_empty());
        out.extend(eng.ingest(&StreamItem::Punctuation(Timestamp::new(25))));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn finish_seals_everything() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 100", &reg).unwrap();
        let mut eng = NativeEngine::new(q, EngineConfig::with_k(Duration::new(1_000_000)));
        eng.ingest(&item(&reg, "A", 1, 10, 0));
        eng.ingest(&item(&reg, "B", 2, 20, 0));
        let out = eng.finish();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn purge_bounds_state_without_losing_matches() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 20", &reg).unwrap();
        let mut cfg = EngineConfig::with_k(Duration::new(10));
        cfg.purge = PurgePolicy::EAGER;
        let mut purged_eng = NativeEngine::new(Arc::clone(&q), cfg);
        let mut unpurged_cfg = EngineConfig::with_k(Duration::new(10));
        unpurged_cfg.purge = PurgePolicy::NEVER;
        let mut unpurged_eng = NativeEngine::new(q, unpurged_cfg);

        // a long stream with small bounded disorder
        let mut items = Vec::new();
        let mut id = 0;
        for t in 0..500u64 {
            id += 1;
            let ty = if t % 4 == 0 { "B" } else { "A" };
            let ts = if t % 7 == 3 { t.saturating_sub(5) } else { t };
            items.push(item(&reg, ty, id, ts * 3, 0));
        }
        let out_p = run_to_end(&mut purged_eng, &items);
        let out_u = run_to_end(&mut unpurged_eng, &items);
        assert_eq!(keys(&out_p), keys(&out_u));
        assert!(purged_eng.state_size() * 4 < unpurged_eng.state_size());
    }

    #[test]
    fn partitioned_agrees_with_unpartitioned() {
        let reg = registry();
        let text = "PATTERN SEQ(A a, B b, C c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 200";
        let q = parse(text, &reg).unwrap();
        assert!(q.partition().is_some());
        let mut part = NativeEngine::new(Arc::clone(&q), EngineConfig::default());
        let flat_cfg = EngineConfig {
            partitioned: false,
            ..EngineConfig::default()
        };
        let mut flat = NativeEngine::new(q, flat_cfg);

        let mut items = Vec::new();
        let mut id = 0;
        for t in 0..300u64 {
            id += 1;
            let ty = ["A", "B", "C"][(t % 3) as usize];
            let tag = (t % 5) as i64;
            let ts = if t % 6 == 2 { t.saturating_sub(4) } else { t };
            items.push(item(&reg, ty, id, ts * 2, tag));
        }
        let out_p = run_to_end(&mut part, &items);
        let out_f = run_to_end(&mut flat, &items);
        assert_eq!(keys(&out_p), keys(&out_f));
        assert!(!out_p.is_empty());
    }

    #[test]
    fn late_beyond_k_is_counted() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 10", &reg).unwrap();
        let mut eng = NativeEngine::new(q, EngineConfig::with_k(Duration::new(5)));
        eng.ingest(&item(&reg, "A", 1, 1000, 0));
        eng.ingest(&item(&reg, "B", 2, 10, 0)); // 990 late, bound is 5
        assert_eq!(eng.stats().late_drops, 1);
    }

    #[test]
    fn adaptive_k_with_adequate_floor_is_exact() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
        // floor covers the real disorder: adaptive must behave like fixed K
        let mut adaptive = NativeEngine::new(
            Arc::clone(&q),
            EngineConfig::with_adaptive_k(Duration::new(50), 2.0),
        );
        let mut fixed = NativeEngine::new(q, EngineConfig::with_k(Duration::new(50)));
        let items = [
            item(&reg, "B", 1, 40, 0),
            item(&reg, "A", 2, 10, 0), // 30 late, within floor
            item(&reg, "A", 3, 50, 0),
            item(&reg, "B", 4, 90, 0),
        ];
        let out_a = run_to_end(&mut adaptive, &items);
        let out_f = run_to_end(&mut fixed, &items);
        assert_eq!(keys(&out_a), keys(&out_f));
        assert_eq!(adaptive.stats().late_drops, 0);
    }

    #[test]
    fn adaptive_k_estimate_grows_with_observed_lateness() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
        let mut eng = NativeEngine::new(q, EngineConfig::with_adaptive_k(Duration::new(5), 2.0));
        eng.ingest(&item(&reg, "A", 1, 100, 0));
        assert_eq!(eng.k_hat(), Duration::new(5));
        eng.ingest(&item(&reg, "B", 2, 60, 0)); // 40 late
        assert_eq!(eng.k_hat(), Duration::new(80));
        // watermark never retreats
        let wm_before = eng.watermark();
        eng.ingest(&item(&reg, "B", 3, 61, 0));
        assert!(eng.watermark() >= wm_before);
    }

    #[test]
    fn state_size_reflects_pending() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 100", &reg).unwrap();
        let mut eng = NativeEngine::new(q, EngineConfig::with_k(Duration::new(1_000_000)));
        eng.ingest(&item(&reg, "A", 1, 10, 0));
        eng.ingest(&item(&reg, "B", 2, 20, 0));
        assert_eq!(eng.state_size(), 3); // 2 stack instances + 1 pending
    }

    fn policy_cfg(k: u64, policy: DisorderPolicy) -> EngineConfig {
        let mut c = EngineConfig::with_k(Duration::new(k));
        c.policy = policy;
        c
    }

    /// A disordered mixed stream exercising negation, retraction windows,
    /// and plain matches.
    fn mixed_stream(reg: &TypeRegistry) -> Vec<StreamItem> {
        vec![
            item(reg, "A", 1, 10, 1),
            item(reg, "B", 2, 30, 1),
            item(reg, "N", 3, 20, 0), // late negative kills (1,2)
            item(reg, "A", 4, 40, 2),
            item(reg, "B", 5, 60, 2),
            item(reg, "B", 6, 55, 2), // late positive
            item(reg, "A", 7, 200, 3),
            item(reg, "B", 8, 230, 3),
        ]
    }

    fn settled(out: &[OutputItem]) -> Vec<Vec<u64>> {
        let mut net: std::collections::BTreeMap<Vec<u64>, i64> = Default::default();
        for o in out {
            let k: Vec<u64> = o.m.events().iter().map(|e| e.id().get()).collect();
            *net.entry(k).or_default() += if o.kind == OutputKind::Insert { 1 } else { -1 };
        }
        net.retain(|_, v| *v != 0);
        assert!(net.values().all(|v| *v == 1), "no duplicate settles");
        net.into_keys().collect()
    }

    #[test]
    fn every_policy_settles_to_the_conservative_output() {
        let reg = registry();
        for text in [
            "PATTERN SEQ(A a, !N n, B b) WHERE a.tag == b.tag WITHIN 50",
            "PATTERN SEQ(A a, B b) WITHIN 50",
        ] {
            let q = parse(text, &reg).unwrap();
            let items = mixed_stream(&reg);
            let mut cons =
                NativeEngine::new(Arc::clone(&q), policy_cfg(30, DisorderPolicy::Conservative));
            let oracle = settled(&run_to_end(&mut cons, &items));
            for policy in [
                DisorderPolicy::Speculative,
                DisorderPolicy::Lazy,
                DisorderPolicy::AdaptiveSlack { accuracy: 0 },
                DisorderPolicy::AdaptiveSlack { accuracy: 100 },
            ] {
                let mut eng = NativeEngine::new(Arc::clone(&q), policy_cfg(30, policy));
                let got = settled(&run_to_end(&mut eng, &items));
                assert_eq!(got, oracle, "{text} under {policy:?}");
            }
        }
    }

    #[test]
    fn lazy_defers_negation_free_matches_to_the_seal_drain() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
        let mut eng = NativeEngine::new(q, policy_cfg(10, DisorderPolicy::Lazy));
        let mut out = Vec::new();
        out.extend(eng.ingest(&item(&reg, "A", 1, 10, 0)));
        out.extend(eng.ingest(&item(&reg, "B", 2, 20, 0)));
        assert!(out.is_empty(), "lazy holds the match while it is unsealed");
        assert_eq!(eng.state_size(), 3, "2 stack instances + 1 deferred");
        // watermark passes the match's max timestamp: it emits coalesced
        out.extend(eng.ingest(&item(&reg, "A", 3, 40, 0)));
        assert_eq!(keys(&out), vec![(true, vec![1, 2])]);
        // and never a retraction
        assert!(out.iter().all(|o| o.kind == OutputKind::Insert));
    }

    #[test]
    fn retraction_drop_knob_swallows_exactly_one_retraction() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 100", &reg).unwrap();
        let mut cfg = policy_cfg(50, DisorderPolicy::Speculative);
        cfg.retraction_drop = 1;
        let mut sabotaged = NativeEngine::new(Arc::clone(&q), cfg);
        let mut honest = NativeEngine::new(q, policy_cfg(50, DisorderPolicy::Speculative));
        let items = [
            item(&reg, "A", 1, 10, 0),
            item(&reg, "B", 2, 20, 0),
            item(&reg, "N", 3, 15, 0), // retracts (1,2)
            item(&reg, "A", 4, 30, 0),
            item(&reg, "B", 5, 40, 0),
            item(&reg, "N", 6, 35, 0), // retracts (4,5)
        ];
        let out_s = run_to_end(&mut sabotaged, &items);
        let out_h = run_to_end(&mut honest, &items);
        let retracts =
            |out: &[OutputItem]| out.iter().filter(|o| o.kind == OutputKind::Retract).count();
        assert_eq!(retracts(&out_h), 2);
        assert_eq!(retracts(&out_s), 1, "first retraction silently dropped");
        // the sabotaged settled output keeps a match the honest one drops
        assert_eq!(settled(&out_s).len(), settled(&out_h).len() + 1);
    }

    #[test]
    fn policy_change_across_snapshot_restores_and_settles_once() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 100", &reg).unwrap();
        let prefix = [
            item(&reg, "A", 1, 10, 0),
            item(&reg, "B", 2, 20, 0), // speculative: emitted unsealed
        ];
        let suffix = [
            item(&reg, "N", 3, 15, 0), // invalidates (1,2) after the switch
            item(&reg, "A", 4, 200, 0),
            item(&reg, "B", 5, 220, 0),
        ];
        let mut spec =
            NativeEngine::new(Arc::clone(&q), policy_cfg(50, DisorderPolicy::Speculative));
        let mut out = Vec::new();
        for it in &prefix {
            out.extend(spec.ingest(it));
        }
        assert_eq!(keys(&out), vec![(true, vec![1, 2])], "emitted unsealed");
        let snap = spec.snapshot().unwrap();
        // resume the same state under every other policy: the inherited
        // unsealed record must still be retracted by the late negative
        for policy in [
            DisorderPolicy::Conservative,
            DisorderPolicy::Lazy,
            DisorderPolicy::AdaptiveSlack { accuracy: 90 },
        ] {
            let mut resumed = NativeEngine::new(Arc::clone(&q), policy_cfg(50, policy));
            resumed.restore(&snap).unwrap();
            let mut tail = out.clone();
            for it in &suffix {
                tail.extend(resumed.ingest(it));
            }
            tail.extend(resumed.finish());
            assert_eq!(
                settled(&tail),
                vec![vec![4, 5]],
                "resume under {policy:?}: (1,2) retracted exactly once, (4,5) kept"
            );
        }
    }
}
