//! Per-query emission: what a constructed match becomes under the
//! query's [`DisorderPolicy`] — emitted now, held until its negation
//! regions seal, emitted speculatively and retracted by a late negative,
//! or deferred to the seal drain — and the snapshot sections that carry
//! this state.
//!
//! [`crate::NativeEngine`] holds one [`Emitter`]; the shared multi-query
//! evaluator holds one per registered query. Both pass in their own
//! stream position (arrival sequence and watermark tracker), which
//! stamps every output.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::Arc;

use sequin_query::Query;
use sequin_runtime::{regions, seal_deadline, Match, NegationIndex, RuntimeStats};
use sequin_types::codec::fnv1a64;
use sequin_types::{
    ArrivalSeq, CodecError, Decode, Encode, EventId, EventRef, Reader, Timestamp, Writer,
};

use crate::config::{DisorderPolicy, EngineConfig};
use crate::native::PhasedOutput;
use crate::output::{OutputItem, OutputKind};
use crate::watermark::WatermarkTracker;

/// A constructed match waiting for its negation regions to seal
/// (conservative emission), or for the watermark to pass it (lazy).
#[derive(Debug, Clone)]
struct Pending {
    deadline: Timestamp,
    events: Vec<EventRef>,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        self.deadline.cmp(&other.deadline).then_with(|| {
            let a = self.events.iter().map(|e| e.id());
            let b = other.events.iter().map(|e| e.id());
            a.cmp(b)
        })
    }
}

/// A match already emitted whose negation regions were not yet sealed
/// (speculative emission): a late negative may still retract it.
#[derive(Debug, Clone)]
struct EmittedUnsealed {
    deadline: Timestamp,
    events: Vec<EventRef>,
}

/// One query's emission state: its negative index, the matches held for
/// the seal, the speculative emissions a late negative may still
/// retract, and the query's counters.
#[derive(Debug)]
pub(crate) struct Emitter {
    pub(crate) query: Arc<Query>,
    pub(crate) policy: DisorderPolicy,
    pub(crate) negatives: NegationIndex,
    pending: BinaryHeap<Reverse<Pending>>,
    emitted_unsealed: Vec<EmittedUnsealed>,
    pub(crate) stats: RuntimeStats,
}

impl Emitter {
    pub(crate) fn new(query: Arc<Query>, policy: DisorderPolicy) -> Emitter {
        Emitter {
            negatives: NegationIndex::new(Arc::clone(&query)),
            query,
            policy,
            pending: BinaryHeap::new(),
            emitted_unsealed: Vec::new(),
            stats: RuntimeStats::default(),
        }
    }

    /// Entries held: negatives, pending and unsealed matches.
    pub(crate) fn len(&self) -> usize {
        self.negatives.len() + self.pending.len() + self.emitted_unsealed.len()
    }

    fn output(
        &self,
        events: Vec<EventRef>,
        kind: OutputKind,
        cause: Option<EventId>,
        seq: ArrivalSeq,
        wm: &WatermarkTracker,
    ) -> OutputItem {
        OutputItem {
            kind,
            m: Match::new(&self.query, events),
            emit_seq: seq,
            emit_clock: wm.clock(),
            cause,
        }
    }

    /// Indexes an arriving negative and retracts the emitted, still
    /// unsealed matches it invalidates. With `counted` false the indexing
    /// work goes to throwaway counters: a sharded pool's non-primary
    /// workers replicate the index without counting it again.
    /// `to_drop` is the caller's [`EngineConfig::retraction_drop`]
    /// sabotage budget.
    pub(crate) fn offer_negative(
        &mut self,
        negative: &EventRef,
        counted: bool,
        seq: ArrivalSeq,
        wm: &WatermarkTracker,
        to_drop: &mut u64,
        out: &mut PhasedOutput,
    ) {
        if counted {
            self.negatives.offer(negative, &mut self.stats);
        } else {
            self.negatives.offer(negative, &mut RuntimeStats::default());
        }
        // Speculative emission leaves unsealed matches standing that a
        // late negative must retract. Other policies may still carry
        // unsealed records inherited through a policy-changing restore,
        // which they retract the same way rather than double-count.
        if self.policy.speculates() || !self.emitted_unsealed.is_empty() {
            self.retract_invalidated(negative, seq, wm, to_drop, out);
        }
    }

    fn retract_invalidated(
        &mut self,
        negative: &EventRef,
        seq: ArrivalSeq,
        wm: &WatermarkTracker,
        to_drop: &mut u64,
        out: &mut PhasedOutput,
    ) {
        let query = Arc::clone(&self.query);
        let mut retracted: Vec<(Timestamp, Vec<EventRef>)> = Vec::new();
        self.emitted_unsealed.retain(|rec| {
            let rs = regions(&query, &rec.events);
            for (ix, neg) in query.negations().iter().enumerate() {
                if !neg.matches_type(negative.event_type()) {
                    continue;
                }
                let region = rs[ix];
                if region.is_empty() || negative.ts() < region.start || negative.ts() >= region.end
                {
                    continue;
                }
                let mut binding = query.binding_from_positives(&rec.events);
                binding[neg.comp] = Some(negative);
                if neg
                    .predicates
                    .iter()
                    .all(|p| p.eval(&binding) == Some(true))
                {
                    retracted.push((rec.deadline, rec.events.clone()));
                    return false;
                }
            }
            true
        });
        for (deadline, events) in retracted {
            self.stats.negated_matches += 1;
            // sabotage knob: swallow the retraction (the unsealed record is
            // already gone) so the settled output keeps a match the oracle
            // rejects — the differential harness must flag this
            if *to_drop > 0 {
                *to_drop -= 1;
                continue;
            }
            let o = self.output(events, OutputKind::Retract, Some(negative.id()), seq, wm);
            out.retracts.push((deadline, o));
        }
    }

    /// Decides what to do with a freshly constructed match (`slot` is the
    /// arriving event's positive slot, the construction-phase merge key;
    /// `trigger` is the arriving event whose ingestion constructed the
    /// match — the causal link recorded on immediate emissions).
    pub(crate) fn route_match(
        &mut self,
        slot: usize,
        events: Vec<EventRef>,
        trigger: EventId,
        seq: ArrivalSeq,
        wm: &WatermarkTracker,
        out: &mut PhasedOutput,
    ) {
        let policy = self.policy;
        if !self.query.has_negation() {
            if policy == DisorderPolicy::Lazy {
                // Defer to the seal drain: the deadline is the match's own
                // maximum timestamp, so it emits once the watermark passes
                // the match (or a drain/finish seals the stream).
                let deadline = events.last().expect("match has events").ts();
                self.pending.push(Reverse(Pending { deadline, events }));
            } else {
                let o = self.output(events, OutputKind::Insert, Some(trigger), seq, wm);
                out.constructed.push((slot, o));
            }
            return;
        }
        let deadline = seal_deadline(&self.query, &events).expect("query has negation");
        match policy {
            DisorderPolicy::Lazy => {
                // Even already-sealed matches go through the pending heap,
                // so every lazy emission leaves via the seal drain.
                self.pending.push(Reverse(Pending { deadline, events }));
            }
            DisorderPolicy::Conservative | DisorderPolicy::AdaptiveSlack { .. } => {
                if deadline <= wm.current() {
                    if !self.negatives.violates(&events, &mut self.stats) {
                        let o = self.output(events, OutputKind::Insert, Some(trigger), seq, wm);
                        out.constructed.push((slot, o));
                    }
                } else {
                    self.pending.push(Reverse(Pending { deadline, events }));
                }
            }
            DisorderPolicy::Speculative => {
                if self.negatives.violates(&events, &mut self.stats) {
                    return;
                }
                if deadline > wm.current() {
                    self.emitted_unsealed.push(EmittedUnsealed {
                        deadline,
                        events: events.clone(),
                    });
                }
                let o = self.output(events, OutputKind::Insert, Some(trigger), seq, wm);
                out.constructed.push((slot, o));
            }
        }
    }

    /// Emits pending matches whose regions sealed, and forgets sealed
    /// speculative records.
    pub(crate) fn drain_sealed(
        &mut self,
        seq: ArrivalSeq,
        wm: &WatermarkTracker,
        out: &mut PhasedOutput,
    ) {
        let watermark = wm.current();
        while let Some(Reverse(top)) = self.pending.peek() {
            if top.deadline > watermark {
                break;
            }
            let Reverse(p) = self.pending.pop().expect("peeked");
            if !self.negatives.violates(&p.events, &mut self.stats) {
                let o = self.output(p.events, OutputKind::Insert, None, seq, wm);
                out.sealed.push((p.deadline, o));
            }
        }
        self.emitted_unsealed.retain(|rec| rec.deadline > watermark);
    }

    /// Purges negatives below `threshold`; `counted` as in
    /// [`Emitter::offer_negative`].
    pub(crate) fn purge_negatives(&mut self, threshold: Timestamp, counted: bool) {
        if counted {
            self.negatives.purge_before(threshold, &mut self.stats);
        } else {
            self.negatives
                .purge_before(threshold, &mut RuntimeStats::default());
        }
    }

    /// Keeps only the pending and unsealed matches `keep` accepts.
    pub(crate) fn retain_matches(&mut self, keep: impl Fn(&[EventRef]) -> bool) {
        self.pending.retain(|Reverse(p)| keep(&p.events));
        self.emitted_unsealed.retain(|rec| keep(&rec.events));
    }

    /// A fingerprint of the query and the semantics-relevant configuration,
    /// embedded in snapshots so state is never restored into an engine
    /// evaluating a different query (or the same query under incompatible
    /// settings). The disorder policy is deliberately *not* part of it:
    /// snapshots are policy-portable, so a subscription can change policy
    /// across a checkpoint resume (the carried pending/unsealed records
    /// drain correctly under any policy).
    pub(crate) fn fingerprint(query: &Query, config: &EngineConfig) -> u64 {
        let desc = format!("{}|{:?}|{}", query, config.watermark, config.partitioned);
        fnv1a64(desc.as_bytes())
    }

    /// Writes the snapshot tail of one logical query held by `parts`:
    /// the negative index of `parts[0]` (workers of a sharded pool
    /// replicate it), then the union of the pending and of the unsealed
    /// matches. Heaps iterate in arbitrary order and the unsealed log in
    /// arrival order, so both are sorted: identical state always writes
    /// identical bytes, whatever the history or the worker count.
    pub(crate) fn write_tail(parts: &[&Emitter], w: &mut Writer) {
        parts[0].negatives.snapshot_into(w);
        let pending = parts
            .iter()
            .flat_map(|p| p.pending.iter().map(|Reverse(x)| (x.deadline, &x.events)));
        write_match_records(pending.collect(), w);
        let unsealed = parts
            .iter()
            .flat_map(|p| p.emitted_unsealed.iter().map(|x| (x.deadline, &x.events)));
        write_match_records(unsealed.collect(), w);
    }

    /// Reads a tail written by [`Emitter::write_tail`] into a fresh
    /// emitter for `query` under `policy`, carrying `stats`.
    pub(crate) fn read_tail(
        query: &Arc<Query>,
        policy: DisorderPolicy,
        stats: RuntimeStats,
        r: &mut Reader<'_>,
    ) -> Result<Emitter, CodecError> {
        let negatives = NegationIndex::restore(Arc::clone(query), r)?;
        let pending = read_match_records(r)?
            .into_iter()
            .map(|(deadline, events)| Reverse(Pending { deadline, events }))
            .collect();
        let emitted_unsealed = read_match_records(r)?
            .into_iter()
            .map(|(deadline, events)| EmittedUnsealed { deadline, events })
            .collect();
        Ok(Emitter {
            query: Arc::clone(query),
            policy,
            negatives,
            pending,
            emitted_unsealed,
            stats,
        })
    }
}

fn write_match_records(mut records: Vec<(Timestamp, &Vec<EventRef>)>, w: &mut Writer) {
    records.sort_by(|a, b| {
        a.0.cmp(&b.0).then_with(|| {
            let ka = a.1.iter().map(|e| e.id());
            let kb = b.1.iter().map(|e| e.id());
            ka.cmp(kb)
        })
    });
    w.put_u64(records.len() as u64);
    for (deadline, events) in records {
        deadline.encode(w);
        events.encode(w);
    }
}

fn read_match_records(r: &mut Reader<'_>) -> Result<Vec<(Timestamp, Vec<EventRef>)>, CodecError> {
    let n = r.get_u64()?;
    if n > r.remaining() as u64 {
        return Err(CodecError::BadLength);
    }
    let mut records = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let deadline = Timestamp::decode(r)?;
        let events = Vec::<EventRef>::decode(r)?;
        records.push((deadline, events));
    }
    Ok(records)
}
