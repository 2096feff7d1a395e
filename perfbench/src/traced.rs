//! The traced in-process pass and the per-layer waterfall.
//!
//! The pass replays a workload through the same public calls the server's
//! engine thread makes, per EVENT_BATCH frame: `decode_frame`,
//! `EngineCore::ingest_batch`, `encode_frame` per output and, when
//! durable, `take_dirty` → `CheckpointStore::save`; `subscribe_with_policy`
//! at set-up and `finish` at the end. Each call gets a [`Span`]. Spans stay
//! in memory and are written out when the pass ends.
//!
//! Calls inside `ingest_batch` are split by reference passes without
//! spans: a bare [`SharedMultiEngine`] (the evaluator the core runs), and
//! the core with observability off, without provenance, and on.
//!
//! Each layer's share is its time over the wall time of the served
//! saturating run. The engine thread is that run's critical path: its
//! layers (encode, evaluator, observability, checkpoint, the core's own
//! code) and the unattributed remainder, the server edge (queue hand-offs,
//! socket writes, waiting), add up to the wall time. Frame decoding runs
//! on the session reader thread beside it, so its share is reported
//! alongside and overlaps the rest.

use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sequin_engine::SharedMultiEngine;
use sequin_obs::ObsConfig;
use sequin_query::parse;
use sequin_server::frame::{decode_frame, encode_frame, Frame};
use sequin_server::EngineCore;
use sequin_types::StreamItem;

use crate::oracle::{core_config, output_frame};
use crate::stats::{median, pct, quantile};
use crate::workload::{Frames, Workload, CHECKPOINT_EVERY};

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer call, e.g. `frame.decode`.
    pub name: &'static str,
    /// Start, ns since the pass began.
    pub start_ns: u64,
    /// End, ns since the pass began.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The EVENT_BATCH frame the call served (`u32::MAX` outside batches).
    pub batch: u32,
}

/// Span recorder; records nothing when off, so the untraced pass runs the
/// same code.
pub struct Tracer {
    origin: Instant,
    on: bool,
    /// Recorded spans, in start order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder, on or off.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, parent: u32, batch: u32) -> u32 {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            batch,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes a span.
    pub fn end(&mut self, id: u32) {
        if self.on {
            let now = self.now();
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Self time per span: duration minus the part its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Summed self time of every span called `name`.
    pub fn layer_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"batch\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                if s.parent == ROOT {
                    -1
                } else {
                    s.parent as i64
                },
                if s.batch == u32::MAX {
                    -1
                } else {
                    s.batch as i64
                }
            )?;
        }
        out.flush()
    }
}

/// Self-test hook: busy-wait this long inside every call of one layer.
#[derive(Clone, Copy)]
pub struct Injected {
    /// The span name to slow down.
    pub layer: &'static str,
    /// Extra time per call.
    pub delay: Duration,
}

fn spin(d: Duration) {
    let t = Instant::now();
    while t.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// One pipeline pass.
pub struct Pass {
    /// The spans (empty when untraced).
    pub tracer: Tracer,
    /// Wall time of the batches and the drain (set-up excluded), ns.
    pub wall_ns: u64,
    /// Engine batches ingested.
    pub batches: usize,
    /// Outputs encoded.
    pub outputs: u64,
    /// Encoded output bytes, length prefix included.
    pub output_bytes: u64,
    /// Per store save: (engine batch index, ns, store bytes after the save).
    pub saves: Vec<(u32, u64, u64)>,
    /// The core after the drain.
    pub core: EngineCore,
}

/// Where the calls of one frame are recorded: the tracer, the pass's root
/// span, the frame index, and the self-test's injected delay.
struct Call<'a> {
    tracer: &'a mut Tracer,
    root: u32,
    batch: u32,
    inject: Option<Injected>,
}

impl Call<'_> {
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.tracer.begin(name, self.root, self.batch);
        if let Some(i) = self.inject.filter(|i| i.layer == name) {
            spin(i.delay);
        }
        let out = f();
        self.tracer.end(s);
        out
    }
}

/// The frames the server's engine thread ingests together, `group` at a
/// time (it coalesces queued events into batches of up to 256).
fn engine_batches(frames: &Frames, group: usize) -> Vec<std::ops::Range<usize>> {
    let n = frames.spans.len();
    (0..n)
        .step_by(group.max(1))
        .map(|start| start..(start + group.max(1)).min(n))
        .collect()
}

/// Replays `frames` through the server's calls, `group` frames per engine
/// batch. `store` makes it durable.
pub fn pipeline(
    w: &Workload,
    frames: &Frames,
    group: usize,
    traced: bool,
    inject: Option<Injected>,
    store: Option<&Path>,
) -> Result<Pass, String> {
    let mut cfg = core_config(w, ObsConfig::default());
    if store.is_some() {
        cfg.checkpoint_every = Some(CHECKPOINT_EVERY);
    }
    let mut tracer = Tracer::new(traced);
    let root = tracer.begin("pass", ROOT, u32::MAX);
    let mut core = EngineCore::new(cfg);
    for (q, policy) in &w.queries {
        let mut call = Call {
            tracer: &mut tracer,
            root,
            batch: u32::MAX,
            inject,
        };
        call.timed("core.subscribe", || core.subscribe_with_policy(q, *policy))
            .map_err(|e| e.to_string())?;
    }
    let (mut outputs, mut output_bytes, mut saves) = (0u64, 0u64, Vec::new());
    let batches = engine_batches(frames, group);
    let started = Instant::now();
    for k in 0..=batches.len() {
        let mut call = Call {
            tracer: &mut tracer,
            root,
            batch: k as u32,
            inject,
        };
        let outs = if let Some(range) = batches.get(k) {
            let mut items: Vec<StreamItem> = Vec::new();
            for b in range.clone() {
                match call.timed("frame.decode", || decode_frame(frames.sealed(b))) {
                    Ok(Frame::EventBatch(events)) => {
                        items.extend(events.into_iter().map(StreamItem::Event))
                    }
                    other => return Err(format!("frame {b} did not decode to a batch: {other:?}")),
                }
            }
            call.timed("core.ingest_batch", || core.ingest_batch(&items))
        } else {
            call.timed("core.finish", || core.finish())
        };
        for (qid, o) in outs {
            let bytes = call.timed("frame.encode", || encode_frame(&output_frame(qid, &o)));
            outputs += 1;
            output_bytes += bytes.len() as u64 + 4;
        }
        if let Some(path) = store {
            let t0 = Instant::now();
            let saved = call.timed("checkpoint.save", || {
                core.take_dirty()
                    .then(|| core.store().save(path))
                    .transpose()
            });
            let ns = t0.elapsed().as_nanos() as u64;
            if saved.map_err(|e| e.to_string())?.is_some() {
                let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                saves.push((k as u32, ns, bytes));
            }
        }
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    tracer.end(root);
    Ok(Pass {
        tracer,
        wall_ns,
        batches: batches.len(),
        outputs,
        output_bytes,
        saves,
        core,
    })
}

/// The stream as the batches the server ingests, decoded once.
pub fn decoded_batches(frames: &Frames, group: usize) -> Vec<Vec<StreamItem>> {
    engine_batches(frames, group)
        .into_iter()
        .map(|range| {
            range
                .flat_map(|b| match decode_frame(frames.sealed(b)) {
                    Ok(Frame::EventBatch(events)) => events,
                    _ => Vec::new(),
                })
                .map(StreamItem::Event)
                .collect()
        })
        .collect()
}

/// The bare evaluator: returns (ingest + finish ns, register ns, peak
/// state size). A recording `tracer` gets a span per registration, batch
/// and drain, and the state size is sampled after every batch; both cost
/// time, so the timed repeats pass a tracer that is off.
fn bare_engine(w: &Workload, batches: &[Vec<StreamItem>], tracer: &mut Tracer) -> (u64, u64, u64) {
    let queries: Vec<_> = w
        .queries
        .iter()
        .map(|(q, policy)| (parse(q, &w.registry).expect("valid query"), *policy))
        .collect();
    let root = tracer.begin("engine.pass", ROOT, u32::MAX);
    let t0 = Instant::now();
    let mut eng = SharedMultiEngine::new(w.engine_config());
    for (q, policy) in &queries {
        let s = tracer.begin("plan.register", root, u32::MAX);
        eng.register_with_policy(Arc::clone(q), policy.unwrap_or(w.engine_config().policy));
        tracer.end(s);
    }
    let register_ns = t0.elapsed().as_nanos() as u64;
    let mut peak = 0u64;
    let t0 = Instant::now();
    for (b, batch) in batches.iter().enumerate() {
        let s = tracer.begin("engine.ingest_batch", root, b as u32);
        std::hint::black_box(eng.ingest_batch(batch));
        tracer.end(s);
        if tracer.on {
            peak = peak.max(eng.state_size() as u64);
        }
    }
    let s = tracer.begin("engine.finish", root, batches.len() as u32);
    std::hint::black_box(eng.finish());
    tracer.end(s);
    let ns = t0.elapsed().as_nanos() as u64;
    tracer.end(root);
    (ns, register_ns, peak)
}

/// The core alone over decoded batches: ingest + finish ns.
fn core_only(w: &Workload, batches: &[Vec<StreamItem>], obs: ObsConfig, durable: bool) -> u64 {
    let mut cfg = core_config(w, obs);
    if durable {
        cfg.checkpoint_every = Some(CHECKPOINT_EVERY);
    }
    let mut core = EngineCore::new(cfg);
    for (q, policy) in &w.queries {
        core.subscribe_with_policy(q, *policy).expect("valid query");
    }
    let t0 = Instant::now();
    for batch in batches {
        std::hint::black_box(core.ingest_batch(batch));
    }
    std::hint::black_box(core.finish());
    t0.elapsed().as_nanos() as u64
}

/// Reference-pass medians, ns.
pub struct References {
    /// Bare evaluator.
    pub bare: f64,
    /// Core, observability off.
    pub off: f64,
    /// Core, observability without provenance.
    pub no_provenance: f64,
    /// Core, observability on (as served).
    pub on: f64,
    /// Core, observability on, checkpointing into memory (durable only).
    pub durable: f64,
    /// Query registration on the bare evaluator.
    pub register: f64,
    /// Peak evaluator state, events.
    pub peak_state: u64,
    /// Spans of the warm-up pass of the bare evaluator.
    pub spans: Tracer,
}

/// Runs the reference passes `reps` times, interleaved, after one warm-up.
pub fn references(w: &Workload, batches: &[Vec<StreamItem>], reps: usize) -> References {
    let mut spans = Tracer::new(true);
    let (_, _, peak_state) = bare_engine(w, batches, &mut spans);
    let mut v: [Vec<f64>; 6] = Default::default();
    for _ in 0..reps {
        let (bare, register, _) = bare_engine(w, batches, &mut Tracer::new(false));
        v[0].push(bare as f64);
        v[5].push(register as f64);
        v[1].push(core_only(w, batches, ObsConfig::disabled(), false) as f64);
        v[2].push(core_only(w, batches, ObsConfig::without_provenance(), false) as f64);
        v[3].push(core_only(w, batches, ObsConfig::default(), false) as f64);
        if w.durable {
            v[4].push(core_only(w, batches, ObsConfig::default(), true) as f64);
        }
    }
    References {
        bare: median(&v[0]),
        off: median(&v[1]),
        no_provenance: median(&v[2]),
        on: median(&v[3]),
        durable: if w.durable { median(&v[4]) } else { 0.0 },
        register: median(&v[5]),
        peak_state,
        spans,
    }
}

/// Layer times of one traced pass, ns, attributed with the references.
#[derive(Debug, Clone, Default)]
pub struct Waterfall {
    /// `decode_frame` self time. The server decodes on the session reader
    /// thread, beside the engine thread, so this layer overlaps the others.
    pub decode: f64,
    /// `encode_frame` self time.
    pub encode: f64,
    /// The evaluator inside `ingest_batch` and `finish`.
    pub engine: f64,
    /// Observability inside `ingest_batch` and `finish`.
    pub obs: f64,
    /// Checkpoint work: snapshots and log records inside the core, and
    /// the store saves.
    pub checkpoint: f64,
    /// The rest of `ingest_batch` and `finish`: the core's own code.
    pub core_self: f64,
    /// `subscribe_with_policy` (set-up; not part of the saturating run).
    pub subscribe: f64,
    /// `finish` span.
    pub finish: f64,
    /// `ingest_batch` spans.
    pub ingest: f64,
}

impl Waterfall {
    /// Attributes a traced pass. The time spent inside `ingest_batch` and
    /// `finish` is split in the proportions of the reference passes: the
    /// bare evaluator, the core without observability, with it, and with
    /// checkpoints.
    pub fn of(pass: &Pass, r: &References) -> Waterfall {
        let t = &pass.tracer;
        let layer = |name| t.layer_ns(name) as f64;
        let ingest = layer("core.ingest_batch");
        let finish = layer("core.finish");
        let inside = ingest + finish;
        let whole = if r.durable > 0.0 { r.durable } else { r.on };
        let part = |ns: f64| {
            if whole > 0.0 {
                inside * ns / whole
            } else {
                0.0
            }
        };
        let in_core_checkpoint = if r.durable > 0.0 {
            r.durable - r.on
        } else {
            0.0
        };
        Waterfall {
            decode: layer("frame.decode"),
            encode: layer("frame.encode"),
            engine: part(r.bare),
            obs: part(r.on - r.off),
            checkpoint: layer("checkpoint.save") + part(in_core_checkpoint),
            core_self: part(r.off - r.bare),
            subscribe: layer("core.subscribe"),
            finish,
            ingest,
        }
    }

    /// The layers on the engine thread, by name, ns: in a saturating run
    /// they are the critical path.
    pub fn engine_thread(&self) -> [(&'static str, f64); 5] {
        [
            ("frame.encode", self.encode),
            ("engine", self.engine),
            ("obs", self.obs),
            ("checkpoint", self.checkpoint),
            ("core", self.core_self),
        ]
    }

    /// The engine thread's layers, summed.
    pub fn engine_thread_total(&self) -> f64 {
        self.engine_thread().iter().map(|(_, t)| t).sum()
    }
}

/// Checkpoint save statistics of a durable pass.
pub struct Saves {
    /// Median save, ms.
    pub p50_ms: f64,
    /// 99th-percentile save, ms.
    pub p99_ms: f64,
    /// Saves per thousand events.
    pub per_1k_events: f64,
    /// Bytes written per event.
    pub bytes_per_event: f64,
    /// Save time per event over the last fifth of engine batches ÷ the
    /// first fifth.
    pub tail_slowdown: f64,
}

/// Summarises the saves of a pass over `events` events.
pub fn saves(pass: &Pass, events: usize) -> Saves {
    let batches = pass.batches;
    let ms: Vec<f64> = pass
        .saves
        .iter()
        .map(|(_, ns, _)| *ns as f64 / 1e6)
        .collect();
    let written: u64 = pass.saves.iter().map(|(_, _, b)| b).sum();
    let fifth = (batches / 5).max(1) as u32;
    let first: u64 = pass
        .saves
        .iter()
        .filter(|(b, _, _)| *b < fifth)
        .map(|(_, ns, _)| ns)
        .sum();
    let last: u64 = pass
        .saves
        .iter()
        .filter(|(b, _, _)| *b >= batches as u32 - fifth && (*b as usize) < batches)
        .map(|(_, ns, _)| ns)
        .sum();
    Saves {
        p50_ms: median(&ms),
        p99_ms: quantile(&ms, 0.99),
        per_1k_events: pct(pass.saves.len() as f64, events as f64) * 10.0,
        bytes_per_event: written as f64 / events as f64,
        tail_slowdown: if first == 0 {
            0.0
        } else {
            last as f64 / first as f64
        },
    }
}
