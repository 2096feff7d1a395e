//! Shared-plan multi-query evaluation.
//!
//! [`SharedMultiEngine`] evaluates many registered queries over one
//! arrival stream through a [`sequin_plan::SharedPlan`]: pooled AIS
//! stacks (slots with identical signatures share one physical stack and
//! one insert-time predicate evaluation), common-prefix groups (one
//! partial-match enumeration forked to every member's final slot), and an
//! event-type routing index (an arrival touches only the plan nodes of
//! interested queries).
//!
//! ## One evaluation body
//!
//! The evaluator runs the same per-query code as
//! [`crate::NativeEngine`]. Construction is the runtime's single walk
//! ([`sequin_runtime::walk`]): a query's own anchors run
//! [`Constructor::matches_over`] on its pooled stacks, filtered to the
//! anchor's partition key when the query shards (a key-filtered pooled
//! stack yields the same candidates, in the same order, as the key's
//! dedicated shard stack); a prefix group runs the same walk through a
//! site that checks the group's common predicates once and forks each
//! complete prefix to every member's final slot. Negation, the seal,
//! speculative retraction and lazy deferral are the native engine's
//! per-query emitter, stamped with the epoch's arrival sequence and
//! clock. The naive oracle of the differential simulator is independent
//! of both and judges them.
//!
//! ## Equivalence contract
//!
//! Per query, the output sequence is **byte-identical** to an independent
//! [`crate::MultiEngine`] of native engines evaluating the same queries
//! under the same configuration, for streams whose lateness stays within
//! the disorder bound. Beyond-`K` arrivals are best-effort in both
//! evaluators; the shared evaluator's pooled purge threshold (the `min`
//! over referencing queries) retains a superset of each query's state, so
//! it can only *recover* strictly more of those out-of-contract matches.
//! Per-query [`RuntimeStats`] are faithful for the routing, insertion,
//! emission, and lateness counters, and — with the window cut-off on —
//! for `dfs_steps` and `predicate_evals`; pure cost counters (`purged`,
//! `max_stack_depth`, and on partitioned queries `ooo_insertions`)
//! describe the shared physical layout — the pooled purge threshold
//! retains more state than any single query needs, and a pooled stack
//! holds every partition key where the isolated engine keeps per-key
//! shard stacks.
//!
//! ## Epochs
//!
//! Queries registered at the same stream position share an *epoch*: one
//! watermark tracker and one arrival sequence. A query subscribed
//! mid-stream starts a fresh epoch, so it observes exactly the arrivals
//! a newly constructed independent engine would — stacks never pool
//! across epochs (the epoch is part of the plan's slot signature).
//!
//! Epochs are additionally split by *watermark class*: queries under a
//! fixed disorder bound (conservative, speculative, lazy) pool freely,
//! while each [`DisorderPolicy::AdaptiveSlack`] accuracy level gets its
//! own epoch — an adaptive query's watermark is driven by its lateness
//! sketch and must never be shared with a fixed-bound query (the pooling
//! compatibility rule).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use sequin_plan::{compile, BindEntry, PrefixGroup, QuerySpec, SharedPlan, SlotSig};
use sequin_query::Query;
use sequin_runtime::{purge, walk, AisStack, Constructor, PartitionKey, RuntimeStats, WalkSite};
use sequin_types::codec::{open_envelope, seal_envelope};
use sequin_types::{
    ArrivalSeq, CodecError, Duration, Encode, EventRef, Reader, StreamItem, Timestamp, Writer,
};

use crate::config::{DisorderPolicy, EngineConfig};
use crate::emit::Emitter;
use crate::multi::QueryId;
use crate::native::{PhasedOutput, QueryBlob};
use crate::output::OutputItem;
use crate::watermark::WatermarkTracker;

/// Plan-level evaluation metrics exposed for observability: structural
/// gauges describe the current compiled plan, counters accumulate over
/// the engine's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanMetrics {
    /// Physical pooled stacks in the current plan.
    pub pooled_stacks: u64,
    /// Logical (query, slot) anchors served by those stacks.
    pub stack_refs: u64,
    /// Common-prefix groups in the current plan.
    pub prefix_groups: u64,
    /// Queries whose prefix enumeration is shared with at least one other.
    pub grouped_queries: u64,
    /// Registration epochs.
    pub epochs: u64,
    /// Events the routing index dispatched to at least one plan node.
    pub routed_events: u64,
    /// Events no registered query was interested in.
    pub routing_misses: u64,
    /// Complete prefix partials enumerated once for a whole group.
    pub shared_partials: u64,
    /// Member matches forked out of shared partials.
    pub fanout_outputs: u64,
}

/// The watermark-compatibility class of a [`DisorderPolicy`]: fixed-bound
/// policies share one tracker per registration position; each adaptive
/// accuracy level tracks its own (the sketch-driven bound must not leak
/// between queries with different knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WmClass {
    Fixed,
    Adaptive(u8),
}

impl WmClass {
    fn of(policy: DisorderPolicy) -> WmClass {
        match policy.adaptive_accuracy() {
            Some(accuracy) => WmClass::Adaptive(accuracy),
            None => WmClass::Fixed,
        }
    }

    /// A representative policy for constructing this class's watermark
    /// tracker (the tracker only consults [`DisorderPolicy::adaptive_params`]).
    fn tracker_policy(self) -> DisorderPolicy {
        match self {
            WmClass::Fixed => DisorderPolicy::Conservative,
            WmClass::Adaptive(accuracy) => DisorderPolicy::AdaptiveSlack { accuracy },
        }
    }
}

/// Per-registration-epoch stream state: one watermark tracker and one
/// arrival sequence shared by every query registered at that position
/// with a compatible watermark class.
struct EpochState {
    wm: WatermarkTracker,
    seq: ArrivalSeq,
    /// Active query indices in this epoch (rebuilt on recompile).
    queries: Vec<usize>,
}

impl EpochState {
    fn new(config: &EngineConfig, class: WmClass) -> EpochState {
        let mut c = *config;
        c.policy = class.tracker_policy();
        EpochState {
            wm: WatermarkTracker::new(&c),
            seq: ArrivalSeq::default(),
            queries: Vec::new(),
        }
    }
}

/// Per-query evaluation state not shareable across queries.
struct QueryState {
    ctor: Constructor,
    /// Negatives, seal, retraction and the query's counters; the policy
    /// here governs emission timing (the watermark side lives in the
    /// epoch's class).
    emit: Emitter,
    epoch: usize,
    phased: PhasedOutput,
    /// Scratch flag: this arrival routed to at least one of the query's
    /// stacks (cleared at the end of every arrival).
    routed: bool,
}

/// Multi-query evaluation over one shared plan (see module docs).
///
/// Drop-in for [`crate::MultiEngine`] when every query runs the native
/// strategy under one shared [`EngineConfig`] (with an optional per-query
/// [`DisorderPolicy`] override): registration returns
/// [`QueryId`]s compatible with `MultiEngine`'s, outputs carry the same
/// tags in the same order, and snapshots use the `MultiEngine` envelope
/// of per-query native-engine blobs — a checkpoint taken by either
/// evaluator restores into the other.
pub struct SharedMultiEngine {
    config: EngineConfig,
    specs: Vec<QuerySpec>,
    plan: SharedPlan,
    /// Physical stacks, parallel to `plan.stacks`.
    stacks: Vec<AisStack>,
    states: Vec<QueryState>,
    epochs: Vec<EpochState>,
    /// Epochs accepting same-position registrations, one per watermark
    /// class (cleared once an item has been ingested since the last
    /// registration).
    open_epochs: Vec<(WmClass, usize)>,
    /// What is left of the [`EngineConfig::retraction_drop`] sabotage
    /// budget on this evaluator. Not part of snapshots.
    retractions_to_drop: u64,
    counters: PlanMetrics,
    scratch_marked: Vec<usize>,
}

impl std::fmt::Debug for SharedMultiEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMultiEngine")
            .field("queries", &self.specs.len())
            .field("pooled_stacks", &self.plan.stacks.len())
            .field("groups", &self.plan.groups.len())
            .finish()
    }
}

impl SharedMultiEngine {
    /// Creates an empty shared evaluator; every registered query runs
    /// under `config`.
    pub fn new(config: EngineConfig) -> SharedMultiEngine {
        SharedMultiEngine {
            config,
            specs: Vec::new(),
            plan: SharedPlan::default(),
            stacks: Vec::new(),
            states: Vec::new(),
            epochs: Vec::new(),
            open_epochs: Vec::new(),
            retractions_to_drop: config.retraction_drop,
            counters: PlanMetrics::default(),
            scratch_marked: Vec::new(),
        }
    }

    /// The shared configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The query registered under `id`.
    pub fn query(&self, id: QueryId) -> &Arc<Query> {
        self.states[id.index()].ctor.query()
    }

    /// Registers a query under the shared configuration's policy;
    /// incremental recompile carries all pooled stack contents over by
    /// signature equality. Queries registered at the same stream position
    /// with a compatible watermark class share an epoch; a query
    /// registered after any ingestion starts a fresh one (it must not see
    /// earlier arrivals).
    pub fn register(&mut self, query: Arc<Query>) -> QueryId {
        let policy = self.config.policy;
        self.register_with_policy(query, policy)
    }

    /// Like [`SharedMultiEngine::register`], with a per-query
    /// [`DisorderPolicy`] overriding the shared configuration's.
    pub fn register_with_policy(&mut self, query: Arc<Query>, policy: DisorderPolicy) -> QueryId {
        let class = WmClass::of(policy);
        let epoch = match self.open_epochs.iter().find(|(c, _)| *c == class) {
            Some(&(_, e)) => e,
            None => {
                self.epochs.push(EpochState::new(&self.config, class));
                let e = self.epochs.len() - 1;
                self.open_epochs.push((class, e));
                e
            }
        };
        self.specs.push(QuerySpec {
            query: Arc::clone(&query),
            epoch,
        });
        self.states.push(QueryState {
            ctor: Constructor::new(Arc::clone(&query), self.config.construct),
            emit: Emitter::new(query, policy),
            epoch,
            phased: PhasedOutput::default(),
            routed: false,
        });
        self.recompile();
        QueryId::new(self.specs.len() - 1)
    }

    /// The policy a query was registered under.
    pub fn query_policy(&self, id: QueryId) -> DisorderPolicy {
        self.states[id.index()].emit.policy
    }

    /// One query's current disorder-bound estimate (`K`, or the adaptive
    /// `K̂` of its epoch's slack control loop).
    pub fn query_slack(&self, id: QueryId) -> Duration {
        self.epochs[self.states[id.index()].epoch].wm.k_hat()
    }

    /// Recompiles the plan from `specs` and reconciles physical stacks by
    /// slot-signature equality (contents survive; new signatures start
    /// empty).
    fn recompile(&mut self) {
        let plan = compile(&self.specs, self.config.partitioned);
        let old_plan = std::mem::take(&mut self.plan);
        let mut old_stacks: Vec<Option<AisStack>> = std::mem::take(&mut self.stacks)
            .into_iter()
            .map(Some)
            .collect();
        let old_ix: HashMap<SlotSig, usize> = old_plan
            .stacks
            .iter()
            .enumerate()
            .map(|(i, n)| (n.sig.clone(), i))
            .collect();
        let mut stacks = Vec::with_capacity(plan.stacks.len());
        for node in &plan.stacks {
            match old_ix.get(&node.sig) {
                Some(&i) => stacks.push(old_stacks[i].take().expect("signatures are unique")),
                None => stacks.push(AisStack::new()),
            }
        }
        self.plan = plan;
        self.stacks = stacks;
        for ep in &mut self.epochs {
            ep.queries.clear();
        }
        for (qix, spec) in self.specs.iter().enumerate() {
            self.epochs[spec.epoch].queries.push(qix);
        }
    }

    /// Ingests one arrival; outputs are tagged per query in registration
    /// order, exactly as [`crate::MultiEngine::ingest`] tags them.
    pub fn ingest(&mut self, item: &StreamItem) -> Vec<(QueryId, OutputItem)> {
        self.ingest_one(item);
        self.collect_outputs()
    }

    /// Ingests a run of arrivals, returning one output vector per item
    /// (same contract as [`crate::MultiEngine::ingest_batch`]).
    pub fn ingest_batch(&mut self, items: &[StreamItem]) -> Vec<Vec<(QueryId, OutputItem)>> {
        items.iter().map(|it| self.ingest(it)).collect()
    }

    /// End-of-stream: seals every epoch's watermark and flushes pending
    /// matches.
    pub fn finish(&mut self) -> Vec<(QueryId, OutputItem)> {
        for ep in &mut self.epochs {
            ep.wm.seal();
        }
        self.drain_all_sealed();
        self.collect_outputs()
    }

    /// Per-query operator statistics, in registration order.
    pub fn stats(&self) -> Vec<RuntimeStats> {
        self.states.iter().map(|s| s.emit.stats).collect()
    }

    /// Plan metrics (see [`PlanMetrics`]).
    pub fn plan_metrics(&self) -> PlanMetrics {
        PlanMetrics {
            pooled_stacks: self.plan.stacks.len() as u64,
            stack_refs: self.plan.stacks.iter().map(|n| n.refs.len() as u64).sum(),
            prefix_groups: self.plan.groups.len() as u64,
            grouped_queries: self.plan.grouped_queries() as u64,
            epochs: self.epochs.len() as u64,
            ..self.counters
        }
    }

    /// Total physical state held: pooled stack entries (counted once,
    /// however many queries they serve) plus per-query negative/pending/
    /// unsealed state.
    pub fn state_size(&self) -> usize {
        let stacks: usize = self.stacks.iter().map(AisStack::len).sum();
        let per_query: usize = self.states.iter().map(|s| s.emit.len()).sum();
        stacks + per_query
    }

    /// One query's logical state size — what its isolated engine would
    /// report (its slots' stack entries plus its private state).
    pub fn query_state_size(&self, id: QueryId) -> usize {
        let qix = id.index();
        let stacks: usize = self.plan.queries[qix]
            .stack_of_slot
            .iter()
            .map(|&six| self.stacks[six].len())
            .sum();
        stacks + self.states[qix].emit.len()
    }

    /// The minimum watermark across all queries, mirroring
    /// [`crate::MultiEngine::watermark`].
    pub fn watermark(&self) -> Option<Timestamp> {
        self.states
            .iter()
            .map(|s| self.epochs[s.epoch].wm.current())
            .min()
    }

    /// One query's watermark.
    pub fn query_watermark(&self, id: QueryId) -> Timestamp {
        self.epochs[self.states[id.index()].epoch].wm.current()
    }

    /// One query's stream clock (max occurrence timestamp observed since
    /// its registration).
    pub fn query_clock(&self, id: QueryId) -> Timestamp {
        self.epochs[self.states[id.index()].epoch].wm.clock()
    }

    // ------------------------------------------------------------------
    // ingestion
    // ------------------------------------------------------------------

    fn ingest_one(&mut self, item: &StreamItem) {
        self.open_epochs.clear();
        match item {
            StreamItem::Event(event) => {
                // one stamped arrival per epoch: each epoch's sequence
                // counts only items since its registration moment
                let mut stamped: Vec<EventRef> = Vec::with_capacity(self.epochs.len());
                for ep in &mut self.epochs {
                    ep.seq = ep.seq.next();
                    stamped.push(Arc::new(event.as_ref().clone().with_arrival(ep.seq)));
                }
                for ep in self.epochs.iter_mut() {
                    if ep.wm.observe_event(event.ts()) {
                        for &qix in &ep.queries {
                            self.states[qix].emit.stats.late_drops += 1;
                        }
                    }
                }
                let plan = std::mem::take(&mut self.plan);
                self.route_event(&plan, &stamped, event.event_type());
                self.plan = plan;
            }
            StreamItem::Punctuation(t) => {
                for ep in &mut self.epochs {
                    ep.wm.observe_punctuation(*t);
                }
            }
        }
        self.drain_all_sealed();
        for eix in 0..self.epochs.len() {
            if self.config.purge.due(self.epochs[eix].seq.get()) {
                self.run_purge(eix);
            }
        }
    }

    fn route_event(
        &mut self,
        plan: &SharedPlan,
        stamped: &[EventRef],
        ty: sequin_types::EventTypeId,
    ) {
        let Some(entry) = plan.routing.get(&ty) else {
            self.counters.routing_misses += 1;
            return;
        };
        self.counters.routed_events += 1;

        // negatives first: a negative at the same timestamp as a positive
        // arrival must be visible to validation during this call
        for &qix in &entry.neg_queries {
            let st = &mut self.states[qix];
            let ep = &self.epochs[st.epoch];
            st.emit.offer_negative(
                &stamped[st.epoch],
                true,
                ep.seq,
                &ep.wm,
                &mut self.retractions_to_drop,
                &mut st.phased,
            );
        }

        let mut marked = std::mem::take(&mut self.scratch_marked);
        for &six in &entry.stacks {
            let node = &plan.stacks[six];
            let ev = &stamped[node.sig.epoch];
            // an arrival that reaches a query's stack counts as routed for
            // that query even if pre-filters reject it (native parity)
            for r in &node.refs {
                if !self.states[r.query].routed {
                    self.states[r.query].routed = true;
                    marked.push(r.query);
                }
            }
            // predicate pushdown: the slot's local predicates run once,
            // short-circuit accounting attributed to every referencing
            // (query, slot)
            let mut evals = 0u64;
            let mut pass = true;
            {
                let mut binding: Vec<Option<&EventRef>> = vec![None; node.local_components];
                binding[node.local_comp] = Some(ev);
                for pred in &node.local_preds {
                    evals += 1;
                    if pred.eval(&binding) != Some(true) {
                        pass = false;
                        break;
                    }
                }
            }
            if evals > 0 {
                for r in &node.refs {
                    self.states[r.query].emit.stats.predicate_evals += evals;
                }
            }
            if !pass {
                continue;
            }
            // keyed slots drop unkeyable (float) events, as the native
            // partitioned engine does
            if let Some(field) = node.sig.partition {
                if ev.field(field).and_then(PartitionKey::from_value).is_none() {
                    continue;
                }
            }
            let pos = match self.stacks[six].insert(Arc::clone(ev)) {
                Some(pos) => pos,
                None => continue, // duplicate delivery: idempotent everywhere
            };
            let depth = self.stacks[six].len();
            for r in &node.refs {
                let st = &mut self.states[r.query].emit.stats;
                st.insertions += 1;
                if pos + 1 != depth {
                    st.ooo_insertions += 1;
                }
                st.max_stack_depth = st.max_stack_depth.max(depth as u64);
            }
            for &(gix, pos) in &node.shared_anchors {
                self.group_construct(plan, gix, pos, ev);
            }
            for r in &node.plain_refs {
                self.plain_construct(plan, r.query, r.slot, ev);
            }
        }
        for qix in marked.drain(..) {
            self.states[qix].routed = false;
            self.states[qix].emit.stats.events_routed += 1;
        }
        self.scratch_marked = marked;
    }

    /// Per-query construction for anchors outside any shared prefix walk:
    /// the query's own constructor over its pooled stacks, restricted to
    /// the anchor's partition key when the query shards.
    fn plain_construct(
        &mut self,
        plan: &SharedPlan,
        qix: usize,
        anchor_slot: usize,
        anchor: &EventRef,
    ) {
        let slot_stack = &plan.queries[qix].stack_of_slot;
        let stacks = &self.stacks;
        let st = &mut self.states[qix];
        let scheme = if self.config.partitioned {
            st.ctor.query().partition()
        } else {
            None
        };
        let key = scheme.and_then(|s| {
            anchor
                .field(s.fields[anchor_slot])
                .and_then(PartitionKey::from_value)
        });
        let mut raw: Vec<Vec<EventRef>> = Vec::new();
        st.ctor.matches_over(
            move |slot| &stacks[slot_stack[slot]],
            move |slot, ev| match (scheme, &key) {
                (Some(s), Some(k)) => {
                    ev.field(s.fields[slot])
                        .and_then(PartitionKey::from_value)
                        .as_ref()
                        == Some(k)
                }
                _ => true,
            },
            anchor_slot,
            anchor,
            &mut st.emit.stats,
            &mut raw,
        );
        let ep = &self.epochs[st.epoch];
        for events in raw {
            st.emit.route_match(
                anchor_slot,
                events,
                anchor.id(),
                ep.seq,
                &ep.wm,
                &mut st.phased,
            );
        }
    }

    /// One shared enumeration of a group's prefix partials, forked to
    /// every member's final-slot scan. Per member, the emitted matches —
    /// and their order — are exactly what the member's own native walker
    /// anchored at `anchor_pos` would produce.
    fn group_construct(
        &mut self,
        plan: &SharedPlan,
        gix: usize,
        anchor_pos: usize,
        anchor: &EventRef,
    ) {
        let g = &plan.groups[gix];
        let key = g.partition_fields.as_ref().and_then(|fields| {
            anchor
                .field(fields[anchor_pos])
                .and_then(PartitionKey::from_value)
        });
        let n_members = g.members.len();
        let mut site = GroupSite {
            g,
            plan,
            stacks: &self.stacks,
            cutoff: self.config.construct.window_cutoff,
            key,
            shared_dfs: 0,
            member_evals: vec![0; n_members],
            member_dfs: vec![0; n_members],
            member_constructed: vec![0; n_members],
            partials: 0,
            forked: Vec::new(),
        };
        walk(
            &mut site,
            g.prefix_len(),
            anchor_pos,
            anchor,
            g.window,
            self.config.construct,
        );
        let GroupSite {
            shared_dfs,
            member_evals,
            member_dfs,
            member_constructed,
            partials,
            forked,
            ..
        } = site;
        self.counters.shared_partials += partials;
        self.counters.fanout_outputs += forked.len() as u64;
        for (mx, member) in g.members.iter().enumerate() {
            let st = &mut self.states[member.query].emit.stats;
            st.dfs_steps += shared_dfs + member_dfs[mx];
            st.predicate_evals += member_evals[mx];
            st.matches_constructed += member_constructed[mx];
        }
        for (mx, events) in forked {
            let st = &mut self.states[g.members[mx].query];
            let ep = &self.epochs[st.epoch];
            st.emit.route_match(
                anchor_pos,
                events,
                anchor.id(),
                ep.seq,
                &ep.wm,
                &mut st.phased,
            );
        }
    }

    /// Emits every query's pending matches whose regions sealed.
    fn drain_all_sealed(&mut self) {
        for st in &mut self.states {
            let ep = &self.epochs[st.epoch];
            st.emit.drain_sealed(ep.seq, &ep.wm, &mut st.phased);
        }
    }

    /// Purges one epoch's pooled stacks and its queries' negative
    /// indexes. A pooled stack's threshold is the minimum over its
    /// referencing (query, slot) anchors, so it retains a superset of
    /// each query's own state — output-inert for in-bound streams, since
    /// every query's scan ranges stay above its own threshold.
    fn run_purge(&mut self, eix: usize) {
        for i in 0..self.epochs[eix].queries.len() {
            let qix = self.epochs[eix].queries[i];
            self.states[qix].emit.stats.purge_runs += 1;
        }
        let wm = self.epochs[eix].wm.current();
        let skew = Duration::new(self.config.purge_horizon_skew);
        let plan = std::mem::take(&mut self.plan);
        for (six, node) in plan.stacks.iter().enumerate() {
            if node.sig.epoch != eix {
                continue;
            }
            let mut threshold: Option<Timestamp> = None;
            for r in &node.refs {
                let q = &plan.queries[r.query].query;
                let t = if r.slot + 1 == q.positive_len() {
                    purge::final_threshold(wm)
                } else {
                    purge::prefix_threshold(wm, q.window())
                }
                .saturating_add(skew);
                threshold = Some(threshold.map_or(t, |prev| prev.min(t)));
            }
            if let Some(t) = threshold {
                let removed = self.stacks[six].purge_before(t) as u64;
                if removed > 0 {
                    for r in &node.refs {
                        self.states[r.query].emit.stats.purged += removed;
                    }
                }
            }
        }
        self.plan = plan;
        for i in 0..self.epochs[eix].queries.len() {
            let qix = self.epochs[eix].queries[i];
            let st = &mut self.states[qix];
            let t = purge::negative_threshold(wm, st.ctor.query().window()).saturating_add(skew);
            st.emit.purge_negatives(t, true);
        }
    }

    /// Drains per-query phase buffers into the canonical output order,
    /// tagged in registration order (the `MultiEngine` contract).
    fn collect_outputs(&mut self) -> Vec<(QueryId, OutputItem)> {
        let mut out = Vec::new();
        for qix in 0..self.states.len() {
            let st = &mut self.states[qix];
            if st.phased.retracts.is_empty()
                && st.phased.constructed.is_empty()
                && st.phased.sealed.is_empty()
            {
                continue;
            }
            let phased = std::mem::take(&mut st.phased);
            let mut items = Vec::new();
            PhasedOutput::merge_into(vec![phased], &mut items);
            for o in items {
                out.push((QueryId::new(qix), o));
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // snapshots
    // ------------------------------------------------------------------

    /// Serializes the evaluation as a [`crate::MultiEngine`] envelope of
    /// per-query [`crate::NativeEngine`]-format blobs: plan-shape-agnostic by
    /// construction (each blob describes one logical query, not the
    /// pooled layout), so it restores into independent engines — or into
    /// a shared evaluator compiled from a different registration history.
    pub fn snapshot(&self) -> Result<Vec<u8>, CodecError> {
        let mut w = Writer::new();
        w.put_u64(self.specs.len() as u64);
        for qix in 0..self.specs.len() {
            w.put_bytes(&self.query_blob(qix));
        }
        Ok(seal_envelope(&w.into_bytes()))
    }

    fn query_blob(&self, qix: usize) -> Vec<u8> {
        let st = &self.states[qix];
        let ep = &self.epochs[st.epoch];
        let q = st.ctor.query();
        let mut w = Writer::new();
        w.put_u64(Emitter::fingerprint(q, &self.config));
        ep.wm.snapshot_into(&mut w);
        ep.seq.encode(&mut w);
        st.emit.stats.encode(&mut w);
        // per-slot event lists from the pooled stacks (identical content
        // to what the query's isolated engine would hold, modulo the
        // pooled purge superset). A pooled stack's events — and any one
        // key's subsequence of them — are sorted and distinct, so they
        // encode exactly as the isolated engine's stacks do.
        let slot_events: Vec<&[EventRef]> = self.plan.queries[qix]
            .stack_of_slot
            .iter()
            .map(|&six| self.stacks[six].events())
            .collect();
        match (self.config.partitioned, q.partition()) {
            (true, Some(scheme)) => {
                w.put_u8(1);
                let m = slot_events.len();
                let mut shards: BTreeMap<PartitionKey, Vec<Vec<EventRef>>> = BTreeMap::new();
                for (slot, events) in slot_events.iter().enumerate() {
                    for ev in *events {
                        let key = ev
                            .field(scheme.fields[slot])
                            .and_then(PartitionKey::from_value)
                            .expect("keyed slots hold only keyable events");
                        shards.entry(key).or_insert_with(|| vec![Vec::new(); m])[slot]
                            .push(Arc::clone(ev));
                    }
                }
                w.put_u64(shards.len() as u64);
                for (key, per_slot) in &shards {
                    key.encode(&mut w);
                    per_slot.encode(&mut w);
                }
            }
            _ => {
                w.put_u8(0);
                w.put_u64(slot_events.len() as u64);
                for events in &slot_events {
                    events.encode(&mut w);
                }
            }
        }
        Emitter::write_tail(&[&st.emit], &mut w);
        seal_envelope(&w.into_bytes())
    }

    /// Restores from a snapshot written by [`SharedMultiEngine::snapshot`]
    /// **or** by a [`crate::MultiEngine`] of native engines evaluating the
    /// same queries in the same registration order under this
    /// configuration. All-or-nothing: on error the current state is
    /// untouched. Epochs are re-derived by grouping queries with
    /// identical restored (watermark, sequence) stream positions.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let payload = open_envelope(bytes)?;
        let mut r = Reader::new(payload);
        if r.get_u64()? != self.specs.len() as u64 {
            return Err(CodecError::SnapshotMismatch("registered query count"));
        }
        let mut blobs = Vec::with_capacity(self.specs.len());
        for _ in 0..self.specs.len() {
            blobs.push(r.get_bytes()?);
        }
        r.finish()?;
        let mut restored: Vec<QueryBlob> = Vec::with_capacity(blobs.len());
        for (st, blob) in self.states.iter().zip(&blobs) {
            let config = EngineConfig {
                policy: st.emit.policy,
                ..self.config
            };
            restored.push(QueryBlob::read(st.ctor.query(), &config, blob)?);
        }
        // regroup epochs: queries at identical stream positions with a
        // compatible watermark class share one
        let mut keys: Vec<(Vec<u8>, u64, WmClass)> = Vec::new();
        let mut epoch_of: Vec<usize> = Vec::with_capacity(restored.len());
        for (st, rq) in self.states.iter().zip(&restored) {
            let mut wb = Writer::new();
            rq.wm.snapshot_into(&mut wb);
            let key = (wb.into_bytes(), rq.seq.get(), WmClass::of(st.emit.policy));
            let eix = match keys.iter().position(|k| *k == key) {
                Some(i) => i,
                None => {
                    keys.push(key);
                    keys.len() - 1
                }
            };
            epoch_of.push(eix);
        }
        let mut specs = self.specs.clone();
        for (qix, spec) in specs.iter_mut().enumerate() {
            spec.epoch = epoch_of[qix];
        }
        let plan = compile(&specs, self.config.partitioned);
        let mut stacks: Vec<AisStack> = plan.stacks.iter().map(|_| AisStack::new()).collect();
        for (qix, rq) in restored.iter().enumerate() {
            for shard in rq.shards.iter() {
                for (slot, stack) in shard.stacks.iter().enumerate() {
                    let six = plan.queries[qix].stack_of_slot[slot];
                    for ev in stack.events() {
                        stacks[six].insert(Arc::clone(ev));
                    }
                }
            }
        }
        let mut epochs: Vec<EpochState> = Vec::with_capacity(keys.len());
        for eix in 0..keys.len() {
            let first = epoch_of
                .iter()
                .position(|&e| e == eix)
                .expect("epoch has a member");
            epochs.push(EpochState {
                wm: restored[first].wm.clone(),
                seq: restored[first].seq,
                queries: Vec::new(),
            });
        }
        for (qix, spec) in specs.iter().enumerate() {
            epochs[spec.epoch].queries.push(qix);
        }
        // commit
        self.specs = specs;
        self.plan = plan;
        self.stacks = stacks;
        self.epochs = epochs;
        self.open_epochs.clear();
        for ((st, rq), epoch) in self.states.iter_mut().zip(restored).zip(epoch_of) {
            st.epoch = epoch;
            st.emit = rq.emit;
            st.phased = PhasedOutput::default();
            st.routed = false;
        }
        Ok(())
    }
}

/// The shared prefix enumeration: the construction walk over the group's
/// prefix positions (bounds and order identical for every member), with
/// group-common predicates evaluated once on the representative binding
/// and per-member short-circuit accounting reconstructed from the
/// compiled [`sequin_plan::BindPlan`]. Each complete partial is forked to
/// every member's final-slot scan.
struct GroupSite<'s> {
    g: &'s PrefixGroup,
    plan: &'s SharedPlan,
    stacks: &'s [AisStack],
    cutoff: bool,
    key: Option<PartitionKey>,
    shared_dfs: u64,
    member_evals: Vec<u64>,
    member_dfs: Vec<u64>,
    member_constructed: Vec<u64>,
    partials: u64,
    /// `(member index, positive-order events)` in enumeration order.
    forked: Vec<(usize, Vec<EventRef>)>,
}

impl<'s> WalkSite<'s> for GroupSite<'s> {
    fn stack(&self, pos: usize) -> &'s AisStack {
        &self.stacks[self.g.prefix_stacks[pos]]
    }

    fn admit(&self, pos: usize, ev: &EventRef) -> bool {
        match (&self.g.partition_fields, &self.key) {
            (Some(fields), Some(k)) => {
                ev.field(fields[pos])
                    .and_then(PartitionKey::from_value)
                    .as_ref()
                    == Some(k)
            }
            _ => true,
        }
    }

    /// Evaluates the common predicates referencing the just-bound
    /// position once, then replays each member's declaration-order
    /// short-circuit against the observed first failure.
    fn bind(&mut self, chosen: &[Option<EventRef>], pos: usize) -> bool {
        let rep = &self.g.rep;
        let mut binding: Vec<Option<&EventRef>> = vec![None; rep.components().len()];
        for (p, c) in chosen.iter().enumerate() {
            if let Some(ev) = c.as_ref() {
                binding[self.g.rep_comp_of_pos[p]] = Some(ev);
            }
        }
        let bp = &self.g.binds[pos];
        let mut failed: Option<usize> = None;
        for &ci in &bp.common_touching {
            if self.g.common[ci].eval(&binding) == Some(false) {
                failed = Some(ci);
                break;
            }
        }
        for (mx, entries) in bp.per_member.iter().enumerate() {
            for e in entries {
                self.member_evals[mx] += 1;
                if let BindEntry::Common(ci) = e {
                    if failed == Some(*ci) {
                        break;
                    }
                }
            }
        }
        failed.is_none()
    }

    fn step(&mut self) {
        self.shared_dfs += 1;
    }

    /// A complete prefix partial: scan each member's final-slot stack
    /// (the innermost level of the member's own walk).
    fn complete(&mut self, chosen: &[Option<EventRef>]) {
        self.partials += 1;
        let prefix_len = self.g.prefix_len();
        let prev_ts = chosen[prefix_len - 1]
            .as_ref()
            .expect("prefix complete")
            .ts();
        let first_ts = chosen[0].as_ref().expect("prefix complete").ts();
        let lo = prev_ts.saturating_add(Duration::new(1));
        let hi = first_ts
            .saturating_add(self.g.window)
            .saturating_add(Duration::new(1));
        for (mx, member) in self.g.members.iter().enumerate() {
            let mq = &self.plan.queries[member.query].query;
            let final_comp = mq.positive_comp(prefix_len);
            let stacks: &[AisStack] = self.stacks;
            let stack = &stacks[member.final_stack];
            let candidates: &[EventRef] = if self.cutoff {
                stack.range(lo, hi)
            } else {
                stack.events()
            };
            for ev in candidates.iter() {
                if let (Some(field), Some(k)) = (member.final_partition_field, &self.key) {
                    if ev.field(field).and_then(PartitionKey::from_value).as_ref() != Some(k) {
                        continue;
                    }
                }
                self.member_dfs[mx] += 1;
                if !self.cutoff && (ev.ts() < lo || ev.ts() >= hi) {
                    continue;
                }
                let mut binding: Vec<Option<&EventRef>> = vec![None; mq.components().len()];
                for (p, c) in chosen.iter().enumerate() {
                    binding[mq.positive_comp(p)] = Some(c.as_ref().expect("prefix complete"));
                }
                binding[final_comp] = Some(ev);
                let mut pass = true;
                for pred in mq.predicates() {
                    if pred.mask().contains(final_comp) {
                        self.member_evals[mx] += 1;
                        if pred.eval(&binding) == Some(false) {
                            pass = false;
                            break;
                        }
                    }
                }
                if pass {
                    self.member_constructed[mx] += 1;
                    let mut events: Vec<EventRef> = chosen
                        .iter()
                        .map(|c| Arc::clone(c.as_ref().expect("prefix complete")))
                        .collect();
                    events.push(Arc::clone(ev));
                    self.forked.push((mx, events));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::MultiEngine;
    use crate::native::NativeEngine;
    use crate::traits::Strategy;
    use sequin_prng::Rng;
    use sequin_query::parse;
    use sequin_types::{Event, EventId, TypeRegistry, Value, ValueKind};

    fn registry() -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B", "C", "D", "E", "N"] {
            reg.declare(name, &[("x", ValueKind::Int), ("tag", ValueKind::Int)])
                .unwrap();
        }
        reg
    }

    fn item(reg: &TypeRegistry, ty: &str, id: u64, ts: u64, x: i64, tag: i64) -> StreamItem {
        StreamItem::Event(Arc::new(
            Event::builder(reg.lookup(ty).unwrap(), Timestamp::new(ts))
                .id(EventId::new(id))
                .attr(Value::Int(x))
                .attr(Value::Int(tag))
                .build(),
        ))
    }

    /// A mixed query set exercising prefix sharing, stack pooling, local
    /// predicates, negation, and partitioning.
    fn query_set(reg: &TypeRegistry) -> Vec<Arc<Query>> {
        [
            "PATTERN SEQ(A a, B b, C c) WITHIN 60",
            "PATTERN SEQ(A a, B b, D d) WITHIN 60",
            "PATTERN SEQ(A a, B b) WITHIN 40",
            "PATTERN SEQ(A a, !N n, B b) WITHIN 50",
            "PATTERN SEQ(A a, B b, C c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 60",
            "PATTERN SEQ(A a, B b, D d) WHERE a.tag == b.tag AND b.tag == d.tag WITHIN 60",
            "PATTERN SEQ(A a, B b) WHERE a.x > 400 WITHIN 60",
            "PATTERN SEQ(A p, B q, C r) WITHIN 60",
            "PATTERN SEQ(D d, E e) WHERE d.x < e.x WITHIN 80",
        ]
        .iter()
        .map(|t| parse(t, reg).unwrap())
        .collect()
    }

    fn gen_stream(reg: &TypeRegistry, seed: u64, n: usize, max_delay: u64) -> Vec<StreamItem> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut items = Vec::new();
        for i in 0..n {
            let ty = ["A", "B", "C", "D", "E", "N"][rng.gen_range(0..6usize)];
            let base = (i as u64) * 3;
            let ts = base.saturating_sub(rng.gen_range(0..max_delay));
            let x = rng.gen_range(0..1000i64);
            let tag = rng.gen_range(0..4i64);
            items.push(item(reg, ty, i as u64 + 1, ts, x, tag));
            if rng.gen_bool(0.05) {
                items.push(StreamItem::Punctuation(Timestamp::new(
                    base.saturating_sub(max_delay),
                )));
            }
        }
        items
    }

    fn outputs_eq(got: &[(QueryId, OutputItem)], want: &[(QueryId, OutputItem)], context: &str) {
        assert_eq!(got.len(), want.len(), "output count differs at {context}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.0, w.0, "query tag differs at {context}");
            assert_eq!(g.1, w.1, "output item differs at {context}");
        }
    }

    fn run_differential(config: EngineConfig, seed: u64) {
        let reg = registry();
        let queries = query_set(&reg);
        let mut shared = SharedMultiEngine::new(config);
        let mut multi = MultiEngine::new();
        for q in &queries {
            shared.register(Arc::clone(q));
            multi.register(Arc::clone(q), Strategy::Native, config);
        }
        // K = 100 (default) covers max_delay = 90: in-bound stream
        let items = gen_stream(&reg, seed, 400, 90);
        for (ix, it) in items.iter().enumerate() {
            let got = shared.ingest(it);
            let want = multi.ingest(it);
            outputs_eq(&got, &want, &format!("item {ix}"));
        }
        outputs_eq(&shared.finish(), &multi.finish(), "finish");
        // emission-relevant stats must agree exactly
        for (qx, (s, m)) in shared.stats().iter().zip(multi.stats()).enumerate() {
            assert_eq!(s.events_routed, m.events_routed, "events_routed q{qx}");
            assert_eq!(s.insertions, m.insertions, "insertions q{qx}");
            if queries[qx].partition().is_none() || !config.partitioned {
                assert_eq!(s.ooo_insertions, m.ooo_insertions, "ooo_insertions q{qx}");
            } else {
                // per-key shard stacks see fewer inversions than the
                // pooled stack holding every key
                assert!(s.ooo_insertions >= m.ooo_insertions, "ooo_insertions q{qx}");
            }
            assert_eq!(
                s.matches_constructed, m.matches_constructed,
                "constructed q{qx}"
            );
            assert_eq!(s.negated_matches, m.negated_matches, "negated q{qx}");
            assert_eq!(s.late_drops, m.late_drops, "late_drops q{qx}");
            // with the window cut-off both walks scan exactly the in-window
            // candidates; a full scan would also visit the pooled purge's
            // extra retained entries
            if config.construct.window_cutoff {
                assert_eq!(s.dfs_steps, m.dfs_steps, "dfs_steps q{qx}");
                assert_eq!(
                    s.predicate_evals, m.predicate_evals,
                    "predicate_evals q{qx}"
                );
            }
            // max_stack_depth may exceed the isolated engine's after a
            // purge: the pooled threshold (min over refs) retains more
            assert!(s.max_stack_depth >= m.max_stack_depth, "max_stack_depth");
        }
    }

    #[test]
    fn matches_independent_evaluation_conservative() {
        for seed in 1..=3 {
            run_differential(EngineConfig::default(), seed);
        }
    }

    #[test]
    fn matches_independent_evaluation_speculative() {
        let cfg = EngineConfig {
            policy: DisorderPolicy::Speculative,
            ..EngineConfig::default()
        };
        for seed in 4..=6 {
            run_differential(cfg, seed);
        }
    }

    #[test]
    fn matches_independent_evaluation_lazy() {
        let cfg = EngineConfig {
            policy: DisorderPolicy::Lazy,
            ..EngineConfig::default()
        };
        run_differential(cfg, 4);
    }

    #[test]
    fn matches_independent_evaluation_adaptive() {
        let cfg = EngineConfig {
            policy: DisorderPolicy::AdaptiveSlack { accuracy: 90 },
            ..EngineConfig::default()
        };
        run_differential(cfg, 5);
    }

    /// Per-query policies in one shared plan: every query's output stays
    /// byte-identical to its own independent engine running the same
    /// policy, and fixed-bound queries still pool while adaptive ones get
    /// their own watermark epoch.
    #[test]
    fn mixed_policies_match_independent_evaluation() {
        let reg = registry();
        let queries = query_set(&reg);
        let base = EngineConfig::default();
        let policies = [
            DisorderPolicy::Conservative,
            DisorderPolicy::Speculative,
            DisorderPolicy::Lazy,
            DisorderPolicy::AdaptiveSlack { accuracy: 90 },
        ];
        let mut shared = SharedMultiEngine::new(base);
        let mut multi = MultiEngine::new();
        for (ix, q) in queries.iter().enumerate() {
            let policy = policies[ix % policies.len()];
            shared.register_with_policy(Arc::clone(q), policy);
            let cfg = EngineConfig { policy, ..base };
            multi.register(Arc::clone(q), Strategy::Native, cfg);
        }
        assert_eq!(
            shared.plan_metrics().epochs,
            2,
            "one fixed-bound epoch, one adaptive epoch"
        );
        let items = gen_stream(&reg, 12, 400, 90);
        for (ix, it) in items.iter().enumerate() {
            outputs_eq(&shared.ingest(it), &multi.ingest(it), &format!("item {ix}"));
        }
        outputs_eq(&shared.finish(), &multi.finish(), "finish");
        for (ix, _) in queries.iter().enumerate() {
            let id = QueryId::new(ix);
            assert_eq!(shared.query_policy(id), policies[ix % policies.len()]);
        }
    }

    #[test]
    fn matches_independent_evaluation_unpartitioned() {
        let cfg = EngineConfig {
            partitioned: false,
            ..EngineConfig::default()
        };
        run_differential(cfg, 7);
    }

    #[test]
    fn matches_independent_evaluation_without_cutoff() {
        let mut cfg = EngineConfig::default();
        cfg.construct.window_cutoff = false;
        run_differential(cfg, 8);
    }

    #[test]
    fn plan_actually_shares_state() {
        let reg = registry();
        let queries = query_set(&reg);
        let mut shared = SharedMultiEngine::new(EngineConfig::default());
        for q in &queries {
            shared.register(Arc::clone(q));
        }
        let pm = shared.plan_metrics();
        assert!(pm.prefix_groups >= 1, "common prefixes form groups");
        assert!(pm.grouped_queries >= 4, "AB-prefixed queries share");
        assert!(
            pm.stack_refs > pm.pooled_stacks,
            "pooling serves multiple anchors per stack"
        );
        for it in gen_stream(&reg, 9, 200, 50) {
            shared.ingest(&it);
        }
        let pm = shared.plan_metrics();
        assert!(pm.routed_events > 0);
        assert!(pm.shared_partials > 0, "shared prefix walks happened");
        assert!(pm.fanout_outputs > 0, "partials forked to members");
    }

    #[test]
    fn snapshot_interchanges_with_multi_engine() {
        let reg = registry();
        let queries = query_set(&reg);
        let config = EngineConfig::default();
        let mut shared = SharedMultiEngine::new(config);
        let mut multi = MultiEngine::new();
        for q in &queries {
            shared.register(Arc::clone(q));
            multi.register(Arc::clone(q), Strategy::Native, config);
        }
        let items = gen_stream(&reg, 10, 300, 90);
        let (head, tail) = items.split_at(200);
        for it in head {
            outputs_eq(&shared.ingest(it), &multi.ingest(it), "head");
        }

        // shared -> independent
        let snap = shared.snapshot().unwrap();
        let mut multi2 = MultiEngine::new();
        for q in &queries {
            multi2.register(Arc::clone(q), Strategy::Native, config);
        }
        multi2.restore(&snap).unwrap();
        // independent -> shared
        let msnap = multi.snapshot().unwrap();
        let mut shared2 = SharedMultiEngine::new(config);
        for q in &queries {
            shared2.register(Arc::clone(q));
        }
        shared2.restore(&msnap).unwrap();

        for (ix, it) in tail.iter().enumerate() {
            let want = multi.ingest(it);
            outputs_eq(&shared.ingest(it), &want, &format!("tail {ix} (shared)"));
            outputs_eq(
                &multi2.ingest(it),
                &want,
                &format!("tail {ix} (restored multi)"),
            );
            outputs_eq(
                &shared2.ingest(it),
                &want,
                &format!("tail {ix} (restored shared)"),
            );
        }
        let want = multi.finish();
        outputs_eq(&shared.finish(), &want, "finish (shared)");
        outputs_eq(&multi2.finish(), &want, "finish (restored multi)");
        outputs_eq(&shared2.finish(), &want, "finish (restored shared)");
    }

    #[test]
    fn mid_stream_registration_is_exact() {
        let reg = registry();
        let config = EngineConfig::default();
        let q1 = parse("PATTERN SEQ(A a, B b, C c) WITHIN 60", &reg).unwrap();
        let q2 = parse("PATTERN SEQ(A a, B b, D d) WITHIN 60", &reg).unwrap();
        let mut shared = SharedMultiEngine::new(config);
        let id1 = shared.register(Arc::clone(&q1));
        let mut eng1 = NativeEngine::new(Arc::clone(&q1), config);

        let items = gen_stream(&reg, 11, 300, 60);
        let (head, tail) = items.split_at(150);
        for it in head {
            let got = shared.ingest(it);
            let want: Vec<(QueryId, OutputItem)> = crate::traits::Engine::ingest(&mut eng1, it)
                .into_iter()
                .map(|o| (id1, o))
                .collect();
            outputs_eq(&got, &want, "head");
        }
        // q2 subscribes mid-stream: a fresh independent engine sees only
        // the suffix, and the shared evaluator must agree byte-for-byte
        let id2 = shared.register(Arc::clone(&q2));
        let mut eng2 = NativeEngine::new(Arc::clone(&q2), config);
        for (ix, it) in tail.iter().enumerate() {
            let got = shared.ingest(it);
            let mut want: Vec<(QueryId, OutputItem)> = Vec::new();
            for o in crate::traits::Engine::ingest(&mut eng1, it) {
                want.push((id1, o));
            }
            for o in crate::traits::Engine::ingest(&mut eng2, it) {
                want.push((id2, o));
            }
            outputs_eq(&got, &want, &format!("tail {ix}"));
        }
        let got = shared.finish();
        let mut want: Vec<(QueryId, OutputItem)> = Vec::new();
        for o in crate::traits::Engine::finish(&mut eng1) {
            want.push((id1, o));
        }
        for o in crate::traits::Engine::finish(&mut eng2) {
            want.push((id2, o));
        }
        outputs_eq(&got, &want, "finish");
        assert_eq!(shared.plan_metrics().epochs, 2, "mid-stream epoch split");
    }

    /// The checkpoint bytes are a compatibility contract: a snapshot of
    /// the mixed query set, with lazy queries holding deferred matches and
    /// the speculative negation query holding unsealed emissions, hashes
    /// to a recorded constant.
    #[test]
    fn snapshot_bytes_are_pinned() {
        let reg = registry();
        let mut shared = SharedMultiEngine::new(EngineConfig::default());
        for (ix, q) in query_set(&reg).into_iter().enumerate() {
            let policy = if ix % 2 == 0 {
                DisorderPolicy::Lazy
            } else {
                DisorderPolicy::Speculative
            };
            shared.register_with_policy(q, policy);
        }
        for it in gen_stream(&reg, 13, 200, 90) {
            shared.ingest(&it);
        }
        let snap = shared.snapshot().unwrap();
        let hash = sequin_types::codec::fnv1a64(&snap);
        assert_eq!(hash, 6335006597378603233, "len {}", snap.len());
    }

    #[test]
    fn restore_rejects_mismatched_fingerprint() {
        let reg = registry();
        let q1 = parse("PATTERN SEQ(A a, B b) WITHIN 40", &reg).unwrap();
        let q2 = parse("PATTERN SEQ(A a, C c) WITHIN 40", &reg).unwrap();
        let config = EngineConfig::default();
        let mut shared = SharedMultiEngine::new(config);
        shared.register(q1);
        let snap = shared.snapshot().unwrap();
        let mut other = SharedMultiEngine::new(config);
        other.register(q2);
        assert!(matches!(
            other.restore(&snap),
            Err(CodecError::SnapshotMismatch(_))
        ));
    }
}
