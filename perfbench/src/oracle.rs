//! The in-process oracle every served run is held against: an
//! [`EngineCore`] with the same schema and queries, fed the same items one
//! at a time, its outputs encoded by the same frame encoder.

use std::collections::HashMap;
use std::sync::Arc;

use sequin_engine::{OutputItem, OutputKind, QueryId, Strategy};
use sequin_obs::ObsConfig;
use sequin_server::frame::{encode_frame, Frame, OutputFrame};
use sequin_server::{CoreConfig, EngineCore};
use sequin_types::StreamItem;

use crate::workload::Workload;

/// What the oracle produced for one stream.
pub struct Oracle {
    /// Every OUTPUT frame's sealed envelope, in emission order.
    pub frames: Vec<Vec<u8>>,
    /// Query id of each frame.
    pub query: Vec<u64>,
    /// Whether each frame is an insert.
    pub insert: Vec<bool>,
    /// The largest stream position among each frame's events.
    pub last_position: Vec<u32>,
    /// Event-time deferral of each frame (emission clock minus the
    /// match's last timestamp), in ticks.
    pub deferral_ticks: Vec<u64>,
    /// Frames emitted before end-of-stream (the rest came from the drain).
    pub before_drain: usize,
}

/// The output frame the server sends for one engine output.
pub fn output_frame(qid: QueryId, item: &OutputItem) -> Frame {
    Frame::Output(OutputFrame {
        query_id: qid.index() as u64,
        kind: item.kind,
        events: item.m.events().to_vec(),
        emit_seq: item.emit_seq,
        emit_clock: item.emit_clock,
    })
}

/// A volatile core for `w`, as `sequin serve` builds it, with `obs`.
pub fn core_config(w: &Workload, obs: ObsConfig) -> CoreConfig {
    let mut cfg = CoreConfig::new(Arc::clone(&w.registry), Strategy::Native, w.engine_config());
    cfg.obs = obs;
    cfg
}

impl Oracle {
    /// Runs the oracle over `stream`, then end-of-stream.
    pub fn run(w: &Workload, stream: &[StreamItem], position_of_id: &[u32]) -> Oracle {
        let mut core = EngineCore::new(core_config(w, ObsConfig::disabled()));
        for (q, policy) in &w.queries {
            core.subscribe_with_policy(q, *policy)
                .expect("workload queries are valid");
        }
        let mut oracle = Oracle {
            frames: Vec::new(),
            query: Vec::new(),
            insert: Vec::new(),
            last_position: Vec::new(),
            deferral_ticks: Vec::new(),
            before_drain: 0,
        };
        for item in stream {
            for (qid, o) in core.ingest(item) {
                oracle.push(qid, &o, position_of_id);
            }
        }
        oracle.before_drain = oracle.frames.len();
        for (qid, o) in core.finish() {
            oracle.push(qid, &o, position_of_id);
        }
        oracle
    }

    fn push(&mut self, qid: QueryId, o: &OutputItem, position_of_id: &[u32]) {
        self.frames.push(encode_frame(&output_frame(qid, o)));
        self.query.push(qid.index() as u64);
        self.insert.push(o.kind == OutputKind::Insert);
        let last =
            o.m.events()
                .iter()
                .map(|e| position_of_id[e.id().get() as usize])
                .max()
                .unwrap_or(0);
        self.last_position.push(last);
        self.deferral_ticks.push(o.event_time_latency());
    }

    /// Inserts and retractions among the oracle's frames.
    pub fn kinds(&self) -> (usize, usize) {
        let inserts = self.insert.iter().filter(|i| **i).count();
        (inserts, self.insert.len() - inserts)
    }
}

/// How a served run's OUTPUT frames differ from the oracle's.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// Oracle frames never received.
    pub missing: u64,
    /// Received frames the oracle never produced.
    pub extra: u64,
    /// Frames received in another position of their query's sequence.
    pub misordered: u64,
}

impl Divergence {
    /// Every divergent output.
    pub fn total(&self) -> u64 {
        self.missing + self.extra + self.misordered
    }
}

/// Matches received frames to oracle frames, byte for byte, per query and
/// in order. Returns the divergence and, for each received frame, the
/// oracle index it matched (`None` for an extra frame).
pub fn compare(oracle: &Oracle, received: &[&[u8]]) -> (Divergence, Vec<Option<usize>>) {
    let mut by_bytes: HashMap<&[u8], Vec<usize>> = HashMap::new();
    for (ix, f) in oracle.frames.iter().enumerate().rev() {
        by_bytes.entry(f.as_slice()).or_default().push(ix);
    }
    let mut d = Divergence::default();
    let mut matched = Vec::with_capacity(received.len());
    for got in received {
        match by_bytes.get_mut(got).and_then(Vec::pop) {
            Some(ix) => matched.push(Some(ix)),
            None => {
                d.extra += 1;
                matched.push(None);
            }
        }
    }
    d.missing = by_bytes.values().map(|v| v.len() as u64).sum();
    // within each query, matched frames must arrive in oracle order
    let mut last_seen: HashMap<u64, usize> = HashMap::new();
    for ix in matched.iter().flatten() {
        let q = oracle.query[*ix];
        if let Some(prev) = last_seen.insert(q, *ix) {
            if prev > *ix {
                d.misordered += 1;
            }
        }
    }
    (d, matched)
}
