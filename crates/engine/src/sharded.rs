//! Partition-parallel evaluation: routed ingestion into N sliced
//! [`NativeEngine`] workers with a deterministic, watermark-aligned
//! output merge.
//!
//! ## Routing
//!
//! Each event is hashed **once**, at the ingest edge: the router stamps
//! the event with its global arrival sequence and computes the owner set
//! from the partition key of every positive slot the event can fill
//! (fingerprint-stable FNV-1a of the key's wire encoding — the same
//! function the worker's own `owns_slot` check uses, so router and worker
//! can never disagree). Owners receive the full event over their bounded
//! per-shard queue; every other worker receives only a lightweight
//! [`RoutedMsg::Advance`] carrying the sequence number and timestamp, so
//! watermarks, arrival sequence numbers, the adaptive disorder estimate,
//! and the purge cadence still advance in lockstep with the
//! single-threaded engine. Two message classes are broadcast in full:
//!
//! * **negation flanks** — every worker replicates the negative index
//!   (negatives filter at check time), so a negated-type event must reach
//!   all workers exactly once;
//! * **punctuation** — watermark control, by definition global.
//!
//! Unpartitionable work (queries with no equality chain, or unkeyable
//! float attributes) routes to worker 0, the overflow shard. This
//! replaces the previous lockstep design in which every worker ingested
//! the *full* stream and discarded foreign events at insert time — N
//! workers doing N× the stream work, which benchmarked slower than one.
//!
//! ## Merge determinism
//!
//! Because a match's constituents all share the partition key of the slot
//! they bind, a match is constructed by exactly one worker, and the
//! per-arrival outputs of all workers are disjoint. Each worker returns
//! its outputs separated by emission phase (retractions, construction,
//! seal) and the merge orders them by data-determined keys — seal
//! deadline and event ids, or the arriving event's slot — reproducing the
//! single-threaded engine's order byte-for-byte under both emission
//! policies. The merge aligns phases of the *same* arrival and never
//! reorders across arrivals. See `DESIGN.md` §12 and §16.
//!
//! ## Checkpoints
//!
//! [`ShardedEngine::snapshot`] seals the union of the workers' state as
//! one canonical envelope in the exact single-engine format, so a
//! checkpoint written with `--shards 2` restores into `--shards 4` (or
//! into a plain [`NativeEngine`]) unchanged: every worker restores the
//! full snapshot, then prunes to the slice it owns. The router
//! resynchronizes its global sequence from the restored primary.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use sequin_query::Query;
use sequin_runtime::{PartitionKey, RuntimeStats};
use sequin_types::{ArrivalSeq, CodecError, EventRef, FieldId, StreamItem, Timestamp};

use crate::config::EngineConfig;
use crate::native::{key_hash, NativeEngine, PhasedOutput, RoutedMsg, ShardSlice};
use crate::output::OutputItem;
use crate::traits::Engine;

/// Bound of each worker's job queue, in batches. The engine API is
/// synchronous (a batch's outputs are returned before the next batch is
/// submitted), so one slot is occupancy and the second absorbs the
/// send/recv rendezvous without ever blocking the router.
const JOB_QUEUE_BOUND: usize = 2;

/// Ingest-edge routing counters for one [`ShardedEngine`] pool.
///
/// `full_events[i] + advances[i]` equals the number of events routed so
/// far for every shard `i`: each event reaches each worker exactly once,
/// either in full (owner, or broadcast flank) or as a watermark-only
/// advance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// Per shard: full events delivered (owned slots + broadcasts).
    pub full_events: Vec<u64>,
    /// Per shard: watermark-only advances delivered.
    pub advances: Vec<u64>,
    /// Events broadcast in full to every worker (negation flanks).
    pub broadcast_events: u64,
    /// Punctuations broadcast to every worker.
    pub punctuations: u64,
    /// Largest number of routed messages enqueued to one worker in a
    /// single batch (the per-shard queue's high-water mark).
    pub queue_depth_peak: u64,
}

impl RouteStats {
    fn new(shards: usize) -> RouteStats {
        RouteStats {
            full_events: vec![0; shards],
            advances: vec![0; shards],
            ..RouteStats::default()
        }
    }
}

/// One worker of the pool: the sliced engine, shared with (and normally
/// driven by) a persistent thread over a bounded job queue. The control
/// plane (snapshot, restore, stats, finish, single-item ingest) locks the
/// engine directly — safe because the engine API is synchronous, so the
/// worker thread is idle between batches.
struct Worker {
    engine: Arc<Mutex<NativeEngine>>,
    /// `None` for single-shard pools, which never spawn threads.
    job_tx: Option<SyncSender<Vec<RoutedMsg>>>,
    res_rx: Option<Receiver<Vec<(u32, PhasedOutput)>>>,
    join: Option<JoinHandle<()>>,
}

impl Worker {
    fn lock(&self) -> MutexGuard<'_, NativeEngine> {
        self.engine.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// N partition-sliced [`NativeEngine`] workers behind an ingest-edge
/// router and a deterministic merge; byte-identical to the
/// single-threaded engine, faster on multi-core hardware when fed
/// batches.
pub struct ShardedEngine {
    query: Arc<Query>,
    config: EngineConfig,
    workers: Vec<Worker>,
    /// The router's global arrival sequence — the single point where
    /// events are stamped.
    next_seq: ArrivalSeq,
    /// Per positive slot, the partition field the router keys on;
    /// `None` when evaluation is unpartitioned (everything routes to the
    /// overflow shard 0).
    partition_fields: Option<Vec<FieldId>>,
    route: RouteStats,
    merge_peak: u64,
    /// Reusable owner-set scratch (one flag per shard).
    owner_scratch: Vec<bool>,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.workers.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

fn spawn_worker(index: usize, engine: Arc<Mutex<NativeEngine>>) -> Worker {
    let (job_tx, job_rx) = sync_channel::<Vec<RoutedMsg>>(JOB_QUEUE_BOUND);
    let (res_tx, res_rx) = sync_channel::<Vec<(u32, PhasedOutput)>>(JOB_QUEUE_BOUND);
    let thread_engine = Arc::clone(&engine);
    let join = std::thread::Builder::new()
        .name(format!("sequin-shard-{index}"))
        .spawn(move || {
            while let Ok(batch) = job_rx.recv() {
                let mut eng = thread_engine.lock().unwrap_or_else(|e| e.into_inner());
                let mut outs = Vec::new();
                for (ix, msg) in batch.iter().enumerate() {
                    let phased = eng.apply_routed(msg);
                    if phased.len() > 0 {
                        outs.push((ix as u32, phased));
                    }
                }
                drop(eng);
                if res_tx.send(outs).is_err() {
                    break;
                }
            }
        })
        .expect("spawn shard worker");
    Worker {
        engine,
        job_tx: Some(job_tx),
        res_rx: Some(res_rx),
        join: Some(join),
    }
}

impl ShardedEngine {
    /// Creates a pool of `shards` workers (clamped to at least 1).
    pub fn new(query: Arc<Query>, config: EngineConfig, shards: usize) -> ShardedEngine {
        let n = shards.max(1);
        let workers = Self::make_workers(&query, config, n);
        let partition_fields = match (config.partitioned, query.partition()) {
            (true, Some(scheme)) => Some(scheme.fields.clone()),
            _ => None,
        };
        ShardedEngine {
            query,
            config,
            workers,
            next_seq: ArrivalSeq::default(),
            partition_fields,
            route: RouteStats::new(n),
            merge_peak: 0,
            owner_scratch: vec![false; n],
        }
    }

    fn make_engines(query: &Arc<Query>, config: EngineConfig, n: usize) -> Vec<NativeEngine> {
        (0..n)
            .map(|i| {
                NativeEngine::sliced(
                    Arc::clone(query),
                    config,
                    ShardSlice {
                        index: i as u32,
                        of: n as u32,
                    },
                )
            })
            .collect()
    }

    fn make_workers(query: &Arc<Query>, config: EngineConfig, n: usize) -> Vec<Worker> {
        Self::make_engines(query, config, n)
            .into_iter()
            .enumerate()
            .map(|(i, eng)| {
                let engine = Arc::new(Mutex::new(eng));
                if n > 1 {
                    spawn_worker(i, engine)
                } else {
                    Worker {
                        engine,
                        job_tx: None,
                        res_rx: None,
                        join: None,
                    }
                }
            })
            .collect()
    }

    /// Number of workers in the pool.
    pub fn shard_count(&self) -> usize {
        self.workers.len()
    }

    /// Per-worker counters, in shard order (shard 0 additionally carries
    /// the costs every worker pays in lockstep: watermarks, negatives).
    pub fn per_shard_stats(&self) -> Vec<RuntimeStats> {
        self.workers.iter().map(|w| w.lock().stats()).collect()
    }

    /// The ingest-edge routing counters (full deliveries vs watermark-only
    /// advances per shard, broadcasts, queue high-water mark).
    pub fn route_stats(&self) -> RouteStats {
        self.route.clone()
    }

    /// Per-worker [`NativeEngine::oldest_stack_ts`], in shard order.
    /// Inspection hook for the purge-invariant property tests; not part of
    /// the stable API.
    #[doc(hidden)]
    pub fn worker_oldest_stack_ts(&self) -> Vec<Option<Timestamp>> {
        self.workers
            .iter()
            .map(|w| w.lock().oldest_stack_ts())
            .collect()
    }

    /// Per-worker negative-index sizes, in shard order. Inspection hook
    /// for the negation-flank broadcast property tests; not part of the
    /// stable API.
    #[doc(hidden)]
    pub fn worker_negative_lens(&self) -> Vec<usize> {
        self.workers
            .iter()
            .map(|w| w.lock().negative_index_len())
            .collect()
    }

    /// Routes one stream item: pushes exactly one [`RoutedMsg`] onto every
    /// lane (one lane per shard). Events are stamped here — once — with
    /// the global arrival sequence; the stamped event is shared by every
    /// owner via its `Arc`.
    fn route_item(&mut self, item: &StreamItem, lanes: &mut [Vec<RoutedMsg>]) {
        let n = lanes.len();
        match item {
            StreamItem::Punctuation(t) => {
                self.route.punctuations += 1;
                for lane in lanes.iter_mut() {
                    lane.push(RoutedMsg::Punctuation(*t));
                }
            }
            StreamItem::Event(event) => {
                self.next_seq = self.next_seq.next();
                let seq = self.next_seq;
                let stamped: EventRef = Arc::new(event.with_arrival(seq));
                let ty = stamped.event_type();
                let flank = self.query.negations().iter().any(|ng| ng.matches_type(ty));
                if flank || n == 1 {
                    if flank {
                        self.route.broadcast_events += 1;
                    }
                    for (i, lane) in lanes.iter_mut().enumerate() {
                        self.route.full_events[i] += 1;
                        lane.push(RoutedMsg::Event {
                            seq,
                            event: Arc::clone(&stamped),
                        });
                    }
                    return;
                }
                let owners = &mut self.owner_scratch;
                owners.iter_mut().for_each(|o| *o = false);
                for slot in self.query.slots_for_type(ty) {
                    match &self.partition_fields {
                        // unpartitioned evaluation: all positive state
                        // lives on the overflow shard
                        None => owners[0] = true,
                        Some(fields) => {
                            match stamped
                                .field(fields[slot])
                                .and_then(PartitionKey::from_value)
                            {
                                Some(key) => {
                                    owners[key_hash(&key) as usize % n] = true;
                                }
                                // unkeyable (float) attribute: the primary
                                // performs (and accounts) the doomed probe,
                                // exactly as the single-threaded engine does
                                None => owners[0] = true,
                            }
                        }
                    }
                }
                let ts = stamped.ts();
                for (i, lane) in lanes.iter_mut().enumerate() {
                    if owners[i] {
                        self.route.full_events[i] += 1;
                        lane.push(RoutedMsg::Event {
                            seq,
                            event: Arc::clone(&stamped),
                        });
                    } else {
                        self.route.advances[i] += 1;
                        lane.push(RoutedMsg::Advance { seq, ts });
                    }
                }
            }
        }
    }

    fn fresh_lanes(&self, capacity: usize) -> Vec<Vec<RoutedMsg>> {
        (0..self.workers.len())
            .map(|_| Vec::with_capacity(capacity))
            .collect()
    }

    fn merge(&mut self, phases: Vec<PhasedOutput>, out: &mut Vec<OutputItem>) {
        let buffered = PhasedOutput::merge_into(phases, out);
        self.merge_peak = self.merge_peak.max(buffered as u64);
    }
}

impl Engine for ShardedEngine {
    fn ingest(&mut self, item: &StreamItem) -> Vec<OutputItem> {
        // single-item path: route, then apply inline under each worker's
        // lock — thread handoff would only add latency for one arrival,
        // and the result is identical by construction
        let mut lanes = self.fresh_lanes(1);
        self.route_item(item, &mut lanes);
        let phases: Vec<PhasedOutput> = self
            .workers
            .iter()
            .zip(&lanes)
            .map(|(w, lane)| w.lock().apply_routed(&lane[0]))
            .collect();
        let mut out = Vec::new();
        self.merge(phases, &mut out);
        out
    }

    fn ingest_batch(&mut self, items: &[StreamItem]) -> Vec<(usize, OutputItem)> {
        if items.is_empty() {
            return Vec::new();
        }
        if self.workers.len() == 1 || items.len() == 1 {
            let mut out = Vec::new();
            for (ix, item) in items.iter().enumerate() {
                out.extend(self.ingest(item).into_iter().map(|o| (ix, o)));
            }
            return out;
        }
        // route the whole batch at the edge, hand each worker its lane,
        // then align the (sparse) per-item phase sets: the merge combines
        // phases of the *same* arrival, never across arrivals
        let mut lanes = self.fresh_lanes(items.len());
        for item in items {
            self.route_item(item, &mut lanes);
        }
        self.route.queue_depth_peak = self.route.queue_depth_peak.max(items.len() as u64);
        for (w, lane) in self.workers.iter().zip(lanes) {
            w.job_tx
                .as_ref()
                .expect("multi-shard pool has worker threads")
                .send(lane)
                .expect("shard worker alive");
        }
        let results: Vec<Vec<(u32, PhasedOutput)>> = self
            .workers
            .iter()
            .map(|w| {
                w.res_rx
                    .as_ref()
                    .expect("multi-shard pool has worker threads")
                    .recv()
                    .expect("shard worker alive")
            })
            .collect();
        let mut cursors: Vec<_> = results
            .into_iter()
            .map(|v| v.into_iter().peekable())
            .collect();
        let mut out = Vec::new();
        let mut merged = Vec::new();
        for ix in 0..items.len() as u32 {
            let mut phases = Vec::new();
            for c in cursors.iter_mut() {
                if c.peek().is_some_and(|(i, _)| *i == ix) {
                    phases.push(c.next().expect("peeked").1);
                }
            }
            if phases.is_empty() {
                continue;
            }
            merged.clear();
            self.merge(phases, &mut merged);
            out.extend(merged.drain(..).map(|o| (ix as usize, o)));
        }
        out
    }

    fn finish(&mut self) -> Vec<OutputItem> {
        let phases: Vec<PhasedOutput> = self
            .workers
            .iter()
            .map(|w| w.lock().finish_phased())
            .collect();
        let mut out = Vec::new();
        self.merge(phases, &mut out);
        out
    }

    fn stats(&self) -> RuntimeStats {
        let mut agg = RuntimeStats::default();
        for w in &self.workers {
            agg += w.lock().stats();
        }
        agg.merge_buffer_peak = agg.merge_buffer_peak.max(self.merge_peak);
        agg
    }

    fn state_size(&self) -> usize {
        // the negative index is replicated on every worker; count it once
        self.workers.first().map_or(0, |w| w.lock().state_size())
            + self
                .workers
                .iter()
                .skip(1)
                .map(|w| w.lock().owned_state_size())
                .sum::<usize>()
    }

    fn query(&self) -> &Arc<Query> {
        &self.query
    }

    fn watermark(&self) -> Option<Timestamp> {
        self.workers.first().map(|w| w.lock().watermark())
    }

    fn clock(&self) -> Option<Timestamp> {
        // every worker observes every arrival (via full events or
        // advances), so any worker's clock is the pool's clock
        self.workers.first().map(|w| w.lock().clock())
    }

    fn slack_bound(&self) -> Option<sequin_types::Duration> {
        // watermark state is lockstep across workers, so any worker's
        // disorder-bound estimate is the pool's
        self.workers.first().map(|w| w.lock().k_hat())
    }

    fn per_shard_stats(&self) -> Vec<RuntimeStats> {
        ShardedEngine::per_shard_stats(self)
    }

    fn route_stats(&self) -> Option<RouteStats> {
        Some(ShardedEngine::route_stats(self))
    }

    fn snapshot(&self) -> Result<Vec<u8>, CodecError> {
        let guards: Vec<MutexGuard<'_, NativeEngine>> =
            self.workers.iter().map(Worker::lock).collect();
        let parts: Vec<&NativeEngine> = guards.iter().map(|g| &**g).collect();
        Ok(NativeEngine::merged_snapshot(&parts))
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        // restore into fresh engines first so a bad snapshot leaves the
        // pool untouched (all-or-nothing, like the single engine)
        let mut fresh = Self::make_engines(&self.query, self.config, self.workers.len());
        for (i, eng) in fresh.iter_mut().enumerate() {
            eng.restore(bytes)?;
            eng.prune_to_slice();
            // the snapshot's aggregate history stays with the primary; the
            // other workers restart their disjoint counters from zero
            if i > 0 {
                eng.reset_stats();
            }
        }
        // the router mirrors the restored primary's sequence so stamping
        // continues exactly where the checkpoint left off
        self.next_seq = fresh[0].seq();
        for (w, eng) in self.workers.iter().zip(fresh) {
            *w.lock() = eng;
        }
        self.merge_peak = 0;
        self.route = RouteStats::new(self.workers.len());
        Ok(())
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        for w in &mut self.workers {
            // hang up the job queue; the worker loop exits on recv error
            w.job_tx = None;
            w.res_rx = None;
            if let Some(join) = w.join.take() {
                let _ = join.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DisorderPolicy;
    use crate::traits::run_to_end;
    use sequin_query::parse;
    use sequin_types::{Duration, Event, EventId, TypeRegistry, Value, ValueKind};

    fn registry() -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B", "C", "N"] {
            reg.declare(name, &[("x", ValueKind::Int), ("tag", ValueKind::Int)])
                .unwrap();
        }
        reg
    }

    fn item(reg: &TypeRegistry, ty: &str, id: u64, ts: u64, tag: i64) -> StreamItem {
        StreamItem::Event(Arc::new(
            Event::builder(reg.lookup(ty).unwrap(), Timestamp::new(ts))
                .id(EventId::new(id))
                .attr(Value::Int(tag))
                .attr(Value::Int(tag))
                .build(),
        ))
    }

    fn stream(reg: &TypeRegistry) -> Vec<StreamItem> {
        let mut items = Vec::new();
        let mut id = 0;
        for t in 0..240u64 {
            id += 1;
            // negatives are sparse so some matches survive negation
            let ty = match t % 10 {
                9 => "N",
                0 | 3 | 6 => "A",
                1 | 4 | 7 => "B",
                _ => "C",
            };
            // blocks of four consecutive arrivals share a tag so every
            // block yields correlated A/B/C candidates
            let tag = ((t / 4) % 5) as i64;
            let ts = if t % 5 == 3 { t.saturating_sub(6) } else { t };
            items.push(item(reg, ty, id, ts * 2, tag));
        }
        items
    }

    fn partitioned_query(reg: &TypeRegistry) -> Arc<Query> {
        let q = parse(
            "PATTERN SEQ(A a, !N n, B b, C c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 120",
            reg,
        )
        .unwrap();
        assert!(q.partition().is_some());
        q
    }

    #[test]
    fn sharded_outputs_equal_single_threaded_all_policies() {
        let reg = registry();
        let q = partitioned_query(&reg);
        let items = stream(&reg);
        for policy in [
            DisorderPolicy::Conservative,
            DisorderPolicy::Speculative,
            DisorderPolicy::Lazy,
            DisorderPolicy::AdaptiveSlack { accuracy: 90 },
        ] {
            let mut cfg = EngineConfig::with_k(Duration::new(20));
            cfg.policy = policy;
            let mut oracle = NativeEngine::new(Arc::clone(&q), cfg);
            let want = run_to_end(&mut oracle, &items);
            assert!(!want.is_empty());
            for n in [1usize, 2, 3, 5] {
                let mut pool = ShardedEngine::new(Arc::clone(&q), cfg, n);
                let got = run_to_end(&mut pool, &items);
                assert_eq!(got, want, "shards={n} {policy:?}");
            }
        }
    }

    #[test]
    fn batched_ingest_equals_per_item_ingest() {
        let reg = registry();
        let q = partitioned_query(&reg);
        let items = stream(&reg);
        let cfg = EngineConfig::with_k(Duration::new(20));
        let mut per_item = ShardedEngine::new(Arc::clone(&q), cfg, 3);
        let mut want = Vec::new();
        for it in &items {
            want.extend(per_item.ingest(it));
        }
        want.extend(per_item.finish());

        let mut batched = ShardedEngine::new(q, cfg, 3);
        let mut got = Vec::new();
        for chunk in items.chunks(17) {
            got.extend(batched.ingest_batch(chunk).into_iter().map(|(_, o)| o));
        }
        got.extend(batched.finish());
        assert_eq!(got, want);
        assert!(batched.stats().merge_buffer_peak >= 1);
        assert!(batched.route_stats().queue_depth_peak >= 17);
    }

    #[test]
    fn snapshot_interchanges_with_native_and_other_shard_counts() {
        let reg = registry();
        let q = partitioned_query(&reg);
        let items = stream(&reg);
        let cfg = EngineConfig::with_k(Duration::new(20));
        let (head, tail) = items.split_at(items.len() / 2);

        // oracle runs straight through
        let mut oracle = NativeEngine::new(Arc::clone(&q), cfg);
        let mut want = Vec::new();
        for it in head {
            want.extend(oracle.ingest(it));
        }
        let mut tail_want = Vec::new();
        for it in tail {
            tail_want.extend(oracle.ingest(it));
        }
        tail_want.extend(oracle.finish());

        // a 2-worker pool checkpoints mid-stream...
        let mut pool2 = ShardedEngine::new(Arc::clone(&q), cfg, 2);
        let mut got_head = Vec::new();
        for it in head {
            got_head.extend(pool2.ingest(it));
        }
        assert_eq!(got_head, want);
        let snap = pool2.snapshot().unwrap();

        // ...and both a 5-worker pool and a plain single engine resume it
        let mut pool5 = ShardedEngine::new(Arc::clone(&q), cfg, 5);
        pool5.restore(&snap).unwrap();
        let mut got5 = Vec::new();
        for it in tail {
            got5.extend(pool5.ingest(it));
        }
        got5.extend(pool5.finish());
        assert_eq!(got5, tail_want);

        let mut single = NativeEngine::new(Arc::clone(&q), cfg);
        single.restore(&snap).unwrap();
        let mut got1 = Vec::new();
        for it in tail {
            got1.extend(single.ingest(it));
        }
        got1.extend(single.finish());
        assert_eq!(got1, tail_want);

        // and the merged snapshot is byte-identical to what the resumed
        // single engine would itself have written at the same point
        let mut native_half = NativeEngine::new(Arc::clone(&q), cfg);
        for it in head {
            native_half.ingest(it);
        }
        // counters differ in routing-only fields, so compare via restore:
        // restoring the pool snapshot into a fresh single engine and
        // re-snapshotting must be a fixed point
        let mut fixed = NativeEngine::new(q, cfg);
        fixed.restore(&snap).unwrap();
        assert_eq!(fixed.snapshot().unwrap(), snap);
    }

    /// The checkpoint bytes are a compatibility contract. A conservative
    /// prefix leaves sealed-pending matches; resuming it under the
    /// speculative policy adds emitted-but-unsealed ones, so both the
    /// single engine's snapshot and the 2-worker pool's merged snapshot
    /// carry every section. Each hashes to a recorded constant.
    #[test]
    fn checkpoint_bytes_are_pinned() {
        let reg = registry();
        let q = partitioned_query(&reg);
        let items = stream(&reg);
        let (head, tail) = (&items[..120], &items[120..130]);
        let cfg = |policy| {
            let mut c = EngineConfig::with_k(Duration::new(60));
            c.policy = policy;
            c
        };
        let mut conservative = NativeEngine::new(Arc::clone(&q), cfg(DisorderPolicy::Conservative));
        for it in head {
            conservative.ingest(it);
        }
        let head_snap = conservative.snapshot().unwrap();

        let mut single = NativeEngine::new(Arc::clone(&q), cfg(DisorderPolicy::Speculative));
        single.restore(&head_snap).unwrap();
        let mut pool = ShardedEngine::new(q, cfg(DisorderPolicy::Speculative), 2);
        pool.restore(&head_snap).unwrap();
        for it in tail {
            single.ingest(it);
            pool.ingest(it);
        }
        let single_snap = single.snapshot().unwrap();
        let pool_snap = pool.snapshot().unwrap();
        let fnv = sequin_types::codec::fnv1a64;
        assert_eq!(
            fnv(&single_snap),
            4278306762480316423,
            "single len {}",
            single_snap.len()
        );
        assert_eq!(
            fnv(&pool_snap),
            4278306762480316423,
            "pool len {}",
            pool_snap.len()
        );
    }

    #[test]
    fn unpartitionable_query_runs_on_overflow_shard() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
        assert!(q.partition().is_none());
        let items = stream(&reg);
        let cfg = EngineConfig::with_k(Duration::new(20));
        let mut oracle = NativeEngine::new(Arc::clone(&q), cfg);
        let want = run_to_end(&mut oracle, &items);
        let mut pool = ShardedEngine::new(q, cfg, 4);
        let got = run_to_end(&mut pool, &items);
        assert_eq!(got, want);
        // all positive work landed on shard 0
        let per = pool.per_shard_stats();
        assert!(per[0].insertions > 0);
        assert!(per[1..].iter().all(|s| s.insertions == 0));
        // and the router only delivered full events to shard 0 (the N
        // flank events broadcast; everything else advanced shards 1..)
        let route = pool.route_stats();
        assert!(route.advances[0] < route.advances[1]);
    }

    #[test]
    fn per_shard_counters_sum_to_oracle_totals() {
        let reg = registry();
        let q = partitioned_query(&reg);
        let items = stream(&reg);
        let cfg = EngineConfig::with_k(Duration::new(20));
        let mut oracle = NativeEngine::new(Arc::clone(&q), cfg);
        run_to_end(&mut oracle, &items);
        let mut pool = ShardedEngine::new(q, cfg, 4);
        run_to_end(&mut pool, &items);
        let want = oracle.stats();
        let got = pool.stats();
        assert_eq!(got.insertions, want.insertions);
        assert_eq!(got.matches_constructed, want.matches_constructed);
        assert_eq!(got.negated_matches, want.negated_matches);
        assert_eq!(got.purged, want.purged);
        assert_eq!(got.purge_runs, want.purge_runs);
        assert_eq!(got.late_drops, want.late_drops);
        assert!(got.max_stack_depth <= want.max_stack_depth);
        assert!(got.events_routed >= want.events_routed);
    }

    #[test]
    fn every_event_reaches_every_shard_exactly_once() {
        let reg = registry();
        let q = partitioned_query(&reg);
        let items = stream(&reg);
        let events = items
            .iter()
            .filter(|i| matches!(i, StreamItem::Event(_)))
            .count() as u64;
        let mut pool = ShardedEngine::new(q, EngineConfig::with_k(Duration::new(20)), 4);
        run_to_end(&mut pool, &items);
        let route = pool.route_stats();
        for i in 0..4 {
            assert_eq!(
                route.full_events[i] + route.advances[i],
                events,
                "shard {i}"
            );
            // every negation flank was broadcast in full
            assert!(route.full_events[i] >= route.broadcast_events);
        }
        assert_eq!(route.broadcast_events, 24, "one N per 10 arrivals");
    }
}
