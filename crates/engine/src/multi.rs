//! Evaluating several queries over one shared arrival stream.

use std::sync::Arc;

use sequin_query::Query;
use sequin_runtime::RuntimeStats;
use sequin_types::codec::{begin_envelope, open_envelope, seal_envelope_at};
use sequin_types::{CodecError, Reader, StreamItem, Writer};

use crate::config::EngineConfig;
use crate::output::OutputItem;
use crate::traits::{Engine, Strategy};

/// A registered query's handle within a [`MultiEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(usize);

impl QueryId {
    pub(crate) fn new(ix: usize) -> QueryId {
        QueryId(ix)
    }

    /// The handle for dense registration index `ix`. An evaluator that
    /// spreads one registration order over several multi-query engines
    /// (the server core splits its queries between a shared plan and
    /// per-query pools) mints its global ids with this.
    pub fn from_index(ix: usize) -> QueryId {
        QueryId(ix)
    }

    /// The dense registration index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Fans one arrival stream out to many queries, each evaluated by its own
/// engine, and tags outputs with the originating [`QueryId`].
///
/// Monitoring deployments routinely run dozens of patterns over one feed;
/// this wrapper gives them a single ingestion point with per-query
/// configuration (different strategies, bounds, or disorder policies may
/// be mixed freely).
///
/// ```
/// use sequin_engine::{EngineConfig, MultiEngine, Strategy};
/// use sequin_query::parse;
/// use sequin_types::{TypeRegistry, ValueKind};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut reg = TypeRegistry::new();
/// reg.declare("A", &[("x", ValueKind::Int)])?;
/// reg.declare("B", &[("x", ValueKind::Int)])?;
/// let mut multi = MultiEngine::new();
/// let q1 = multi.register(
///     parse("PATTERN SEQ(A a, B b) WITHIN 10", &reg)?,
///     Strategy::Native,
///     EngineConfig::default(),
/// );
/// let q2 = multi.register(
///     parse("PATTERN SEQ(B b, A a) WITHIN 10", &reg)?,
///     Strategy::Native,
///     EngineConfig::default(),
/// );
/// assert_ne!(q1, q2);
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct MultiEngine {
    engines: Vec<Box<dyn Engine>>,
}

impl std::fmt::Debug for MultiEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiEngine")
            .field("queries", &self.engines.len())
            .finish()
    }
}

impl MultiEngine {
    /// Creates an empty multi-query engine.
    pub fn new() -> MultiEngine {
        MultiEngine::default()
    }

    /// Registers a query with its own strategy and configuration.
    pub fn register(
        &mut self,
        query: Arc<Query>,
        strategy: Strategy,
        config: EngineConfig,
    ) -> QueryId {
        self.engines
            .push(crate::make_engine(strategy, query, config));
        QueryId(self.engines.len() - 1)
    }

    /// Registers a pre-built engine.
    pub fn register_engine(&mut self, engine: Box<dyn Engine>) -> QueryId {
        self.engines.push(engine);
        QueryId(self.engines.len() - 1)
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// True when no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// Ingests one arrival into every registered engine; outputs are
    /// tagged with the query that produced them, in registration order.
    pub fn ingest(&mut self, item: &StreamItem) -> Vec<(QueryId, OutputItem)> {
        let mut out = Vec::new();
        for (ix, engine) in self.engines.iter_mut().enumerate() {
            for o in engine.ingest(item) {
                out.push((QueryId(ix), o));
            }
        }
        out
    }

    /// Ingests a run of arrivals into every registered engine, returning
    /// one output vector per input item with the same tagging and order
    /// as item-by-item [`MultiEngine::ingest`] calls. Engines that fan
    /// batches out across threads (sharded pools) get their parallelism
    /// from the batched entry point.
    pub fn ingest_batch(&mut self, items: &[StreamItem]) -> Vec<Vec<(QueryId, OutputItem)>> {
        let mut per_item: Vec<Vec<(QueryId, OutputItem)>> =
            (0..items.len()).map(|_| Vec::new()).collect();
        for (ix, engine) in self.engines.iter_mut().enumerate() {
            for (item_ix, o) in engine.ingest_batch(items) {
                per_item[item_ix].push((QueryId(ix), o));
            }
        }
        // an engine's outputs arrive grouped by item already; regrouping
        // by item keeps registration order within each item because
        // engines are visited in registration order
        per_item
    }

    /// Finishes every engine (see [`Engine::finish`]).
    pub fn finish(&mut self) -> Vec<(QueryId, OutputItem)> {
        let mut out = Vec::new();
        for (ix, engine) in self.engines.iter_mut().enumerate() {
            for o in engine.finish() {
                out.push((QueryId(ix), o));
            }
        }
        out
    }

    /// Per-query operator statistics, in registration order.
    pub fn stats(&self) -> Vec<RuntimeStats> {
        self.engines.iter().map(|e| e.stats()).collect()
    }

    /// Total state held across all queries.
    pub fn state_size(&self) -> usize {
        self.engines.iter().map(|e| e.state_size()).sum()
    }

    /// The engine evaluating `id`, for per-query inspection.
    pub fn engine(&self, id: QueryId) -> &dyn Engine {
        self.engines[id.0].as_ref()
    }

    /// The low-watermark the *whole* multi-query evaluation has reached:
    /// the minimum over registered engines that track one (`None` when no
    /// engine does). Used by checkpoint policies that trigger on watermark
    /// advance.
    pub fn watermark(&self) -> Option<sequin_types::Timestamp> {
        self.engines.iter().filter_map(|e| e.watermark()).min()
    }

    /// Serializes every registered engine's state into one checksummed
    /// envelope (fails if any engine lacks snapshot support).
    pub fn snapshot(&self) -> Result<Vec<u8>, CodecError> {
        let blobs = self
            .engines
            .iter()
            .map(|e| e.snapshot())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(seal_query_blobs(&blobs))
    }

    /// Restores every registered engine from a [`MultiEngine::snapshot`]
    /// taken with the same queries registered in the same order.
    ///
    /// Engines restored before a failure keep their restored state; the
    /// caller should discard the whole `MultiEngine` on error.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let blobs = open_query_blobs(bytes)?;
        if blobs.len() != self.engines.len() {
            return Err(CodecError::SnapshotMismatch("registered query count"));
        }
        for (engine, blob) in self.engines.iter_mut().zip(blobs) {
            engine.restore(blob)?;
        }
        Ok(())
    }
}

/// Seals per-query snapshot blobs, in registration order, into the
/// multi-query checkpoint envelope: a query count, then one
/// length-prefixed blob per query. [`MultiEngine`] and
/// [`crate::SharedMultiEngine`] both write it, so a checkpoint taken by
/// either restores into the other.
pub fn seal_query_blobs<I>(blobs: I) -> Vec<u8>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: AsRef<[u8]>,
{
    let blobs = blobs.into_iter();
    let mut w = Writer::new();
    let start = begin_envelope(&mut w);
    w.put_u64(blobs.len() as u64);
    for b in blobs {
        w.put_bytes(b.as_ref());
    }
    seal_envelope_at(&mut w, start);
    w.into_bytes()
}

/// Opens a [`seal_query_blobs`] envelope into its per-query blobs,
/// borrowed from `bytes`.
pub fn open_query_blobs(bytes: &[u8]) -> Result<Vec<&[u8]>, CodecError> {
    let mut r = Reader::new(open_envelope(bytes)?);
    let n = r.get_len()?;
    let blobs = (0..n)
        .map(|_| {
            let len = r.get_len()?;
            r.take(len)
        })
        .collect::<Result<Vec<_>, _>>()?;
    r.finish()?;
    Ok(blobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_query::parse;
    use sequin_types::{Duration, Event, EventId, Timestamp, TypeRegistry, Value, ValueKind};

    fn setup() -> (TypeRegistry, MultiEngine, QueryId, QueryId) {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B"] {
            reg.declare(name, &[("x", ValueKind::Int)]).unwrap();
        }
        let mut multi = MultiEngine::new();
        let cfg = EngineConfig::with_k(Duration::new(50));
        let ab = multi.register(
            parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap(),
            Strategy::Native,
            cfg,
        );
        let ba = multi.register(
            parse("PATTERN SEQ(B b, A a) WITHIN 100", &reg).unwrap(),
            Strategy::Native,
            cfg,
        );
        (reg, multi, ab, ba)
    }

    fn item(reg: &TypeRegistry, ty: &str, id: u64, ts: u64) -> StreamItem {
        StreamItem::Event(Arc::new(
            Event::builder(reg.lookup(ty).unwrap(), Timestamp::new(ts))
                .id(EventId::new(id))
                .attr(Value::Int(0))
                .build(),
        ))
    }

    #[test]
    fn outputs_are_tagged_per_query() {
        let (reg, mut multi, ab, ba) = setup();
        let mut out = Vec::new();
        // A@10, B@20 matches q_ab; B@20, A@30 matches q_ba
        out.extend(multi.ingest(&item(&reg, "A", 1, 10)));
        out.extend(multi.ingest(&item(&reg, "B", 2, 20)));
        out.extend(multi.ingest(&item(&reg, "A", 3, 30)));
        out.extend(multi.finish());
        let for_ab: Vec<_> = out.iter().filter(|(q, _)| *q == ab).collect();
        let for_ba: Vec<_> = out.iter().filter(|(q, _)| *q == ba).collect();
        assert_eq!(for_ab.len(), 1);
        assert_eq!(for_ba.len(), 1);
        assert_eq!(multi.len(), 2);
        assert!(!multi.is_empty());
    }

    #[test]
    fn per_query_stats_and_state() {
        let (reg, mut multi, ab, _) = setup();
        multi.ingest(&item(&reg, "A", 1, 10));
        let stats = multi.stats();
        assert_eq!(stats.len(), 2);
        assert!(multi.state_size() >= 2, "the A enters both queries' stacks");
        assert_eq!(multi.engine(ab).query().positive_len(), 2);
    }

    #[test]
    fn register_engine_accepts_prebuilt_engines() {
        let (reg, mut multi, _, _) = setup();
        let q = parse("PATTERN SEQ(A a) WITHIN 5", &reg).unwrap();
        let id = multi.register_engine(crate::make_engine(
            Strategy::InOrder,
            q,
            EngineConfig::default(),
        ));
        assert_eq!(id.index(), 2);
        let out = multi.ingest(&item(&reg, "A", 9, 5));
        assert!(out.iter().any(|(qid, _)| *qid == id));
    }

    #[test]
    fn ingest_batch_matches_item_by_item() {
        let (reg, mut multi, _, _) = setup();
        let items = [
            item(&reg, "A", 1, 10),
            item(&reg, "B", 2, 20),
            item(&reg, "A", 3, 30),
            item(&reg, "B", 4, 40),
        ];
        let (reg2, mut seq, _, _) = setup();
        assert_eq!(reg.fingerprint(), reg2.fingerprint());
        let mut want: Vec<Vec<(QueryId, OutputItem)>> = Vec::new();
        for it in &items {
            want.push(seq.ingest(it));
        }
        let got = multi.ingest_batch(&items);
        assert_eq!(got, want);
    }

    #[test]
    fn empty_multi_engine_is_harmless() {
        let mut multi = MultiEngine::new();
        assert!(multi.is_empty());
        assert!(multi.finish().is_empty());
        assert_eq!(multi.state_size(), 0);
        assert_eq!(multi.watermark(), None);
    }

    #[test]
    fn watermark_is_minimum_over_engines() {
        let (reg, mut multi, _, _) = setup();
        multi.ingest(&item(&reg, "A", 1, 500));
        // both engines share K = 50, so both watermarks sit at 450
        assert_eq!(multi.watermark(), Some(Timestamp::new(450)));
    }
}
