//! The four workloads: schema, query set, stream generator and the
//! pre-encoded EVENT_BATCH frames the load generator sends.
//!
//! The server sees none of this directly: it gets a `--types` schema,
//! SUBSCRIBE frames and events over the wire. The workload name and the
//! seed stay here.

use std::sync::Arc;

use sequin_engine::{DisorderPolicy, EngineConfig};
use sequin_netsim::delay_shuffle;
use sequin_server::frame::{encode_frame, Frame};
use sequin_types::{Duration, StreamItem, TypeRegistry};
use sequin_workload::{Synthetic, SyntheticConfig};

/// Share of events that arrive late.
pub const DISORDER: f64 = 0.3;
/// Largest lateness, in ticks.
pub const MAX_DELAY: u64 = 100;
/// The server's disorder bound `K`.
pub const K: u64 = 100;
/// Events per EVENT_BATCH frame.
pub const BATCH: usize = 64;
/// `--checkpoint-every` of the durable workload.
pub const CHECKPOINT_EVERY: u64 = 1000;

/// Names accepted by `--workload`, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["light", "output_heavy", "many_queries", "durable"];

/// One workload: what the generator knows and the server is told.
pub struct Workload {
    /// `--workload` name.
    pub name: &'static str,
    /// Alphabet size of the synthetic generator.
    types: usize,
    /// The schema the generator encodes events against.
    pub registry: Arc<TypeRegistry>,
    /// Query texts in SUBSCRIBE order, each with its policy request
    /// (`None` takes the server default, conservative).
    pub queries: Vec<(String, Option<DisorderPolicy>)>,
    /// Served with `--store` and `--checkpoint-every`.
    pub durable: bool,
}

const TAG_CHAIN: &str = "WHERE a.tag == b.tag AND b.tag == c.tag";

impl Workload {
    /// Builds the workload called `name`.
    pub fn build(name: &str) -> Result<Workload, String> {
        let (name, types, durable) = match name {
            "light" => ("light", 4, false),
            "output_heavy" => ("output_heavy", 4, false),
            "many_queries" => ("many_queries", 16, false),
            "durable" => ("durable", 4, true),
            other => {
                return Err(format!(
                    "unknown workload `{other}` (expected one of {})",
                    NAMES.join("|")
                ))
            }
        };
        let queries = match name {
            "output_heavy" => vec![(
                format!("PATTERN SEQ(T0 a, T1 b, T2 c) {TAG_CHAIN} WITHIN 1000"),
                None,
            )],
            "many_queries" => many_queries(1024),
            _ => vec![(
                format!("PATTERN SEQ(T0 a, T1 b, T2 c) {TAG_CHAIN} WITHIN 100"),
                None,
            )],
        };
        let registry = Arc::clone(Synthetic::new(config(types)).registry());
        Ok(Workload {
            name,
            types,
            registry,
            queries,
            durable,
        })
    }

    /// The `--types` schema text for `sequin serve`.
    pub fn schema(&self) -> String {
        (0..self.types)
            .map(|i| format!("T{i}(x:int,tag:int)"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The arrival-ordered stream of `events` events for `seed`: synthetic
    /// history, then 30% of events delayed by up to 100 ticks.
    pub fn stream(&self, events: usize, seed: u64) -> Vec<StreamItem> {
        let history = Synthetic::new(config(self.types)).generate(events, seed);
        delay_shuffle(&history, DISORDER, MAX_DELAY, seed)
    }

    /// Engine settings the server runs every query under.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig::with_k(Duration::new(K))
    }
}

fn config(types: usize) -> SyntheticConfig {
    SyntheticConfig {
        num_types: types,
        ..SyntheticConfig::default()
    }
}

/// The `bench --queries` family with tag correlation, `WITHIN 300`: query
/// `i` is `SEQ(T0 a, T1 b, T{2+i%14} c)` with a one-value band on `c.x`
/// (1% of `0..100`). When `i % 8` is 3 or 7 the middle component is
/// negated; the `i % 8 == 3` ones subscribe speculative, so they retract.
fn many_queries(n: usize) -> Vec<(String, Option<DisorderPolicy>)> {
    (0..n)
        .map(|i| {
            let tail = 2 + i % 14;
            let band = (i / 14) % 100;
            let middle = if i % 8 == 3 || i % 8 == 7 {
                "!T1 b"
            } else {
                "T1 b"
            };
            let text = format!(
                "PATTERN SEQ(T0 a, {middle}, T{tail} c) {TAG_CHAIN} \
                 AND c.x >= {band} AND c.x < {} WITHIN 300",
                band + 1
            );
            let policy = (i % 8 == 3).then_some(DisorderPolicy::Speculative);
            (text, policy)
        })
        .collect()
}

/// A stream cut into EVENT_BATCH frames, encoded once before timing.
pub struct Frames {
    /// Every frame, length prefix included, back to back.
    pub wire: Vec<u8>,
    /// `(start, end)` of each frame in `wire`.
    pub spans: Vec<(usize, usize)>,
    /// Stream position of each event, indexed by event id.
    pub position_of_id: Vec<u32>,
    /// Events in the stream.
    pub events: usize,
}

impl Frames {
    /// Encodes `stream` (events only) into frames of [`BATCH`] events.
    pub fn encode(stream: &[StreamItem]) -> Frames {
        let mut wire = Vec::new();
        let mut spans = Vec::new();
        let mut position_of_id = vec![u32::MAX; stream.len()];
        let events: Vec<_> = stream
            .iter()
            .enumerate()
            .map(|(pos, item)| {
                let e = item.as_event().expect("the generator emits events only");
                let id = e.id().get() as usize;
                if id >= position_of_id.len() {
                    position_of_id.resize(id + 1, u32::MAX);
                }
                position_of_id[id] = pos as u32;
                e.clone()
            })
            .collect();
        for chunk in events.chunks(BATCH) {
            let sealed = encode_frame(&Frame::EventBatch(chunk.to_vec()));
            let start = wire.len();
            wire.extend_from_slice(&(sealed.len() as u32).to_le_bytes());
            wire.extend_from_slice(&sealed);
            spans.push((start, wire.len()));
        }
        Frames {
            wire,
            spans,
            position_of_id,
            events: stream.len(),
        }
    }

    /// The sealed envelope of frame `b` (without its length prefix).
    pub fn sealed(&self, b: usize) -> &[u8] {
        let (start, end) = self.spans[b];
        &self.wire[start + 4..end]
    }
}
