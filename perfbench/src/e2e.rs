//! The end-to-end pass: every run goes to a fresh `sequin serve` over
//! loopback TCP, and every OUTPUT frame is checked against the oracle.
//!
//! A full pass alternates five saturating blocks with four open-loop runs,
//! so a noisy stretch of the machine (they last seconds) spoils a few
//! samples of a statistic rather than all of them; the traced pass is
//! accompanied by a short one, `saturating block, open loop`. The
//! open-loop runs last as long as their schedule; the saturating blocks
//! share the rest of the pass's `--seconds`:
//!
//! * a **saturating block** repeats saturating runs until its share of the
//!   time is spent, [`MIN_BLOCK_RUNS`] at least. A saturating run is a
//!   closed loop: the whole stream as fast as TCP backpressure lets it
//!   through. It gives throughput, server CPU per event and peak RSS (the
//!   medians over the runs are reported). Then the server is SIGKILLed and
//!   restarted on the same store [`RESTARTS`] times, which gives
//!   `resume_s`.
//! * an **open-loop** run sends its stream in [`SEGMENTS`] segments at the
//!   workload's `low` and `high` rates, alternating (the second such run
//!   starts with `high`). Each insert's latency runs from the due time of
//!   its last-sent event to the receipt of its OUTPUT frame.
//! * saturating runs and open-loop segments during which the hypervisor
//!   stole more than [`crate::stats::STEAL_LIMIT_PCT`] of the machine's CPU
//!   time are left out of the throughput, CPU and median-latency figures,
//!   as long as at least half of them are left (see [`unstolen`]); the
//!   hypervisor's other guests, not this program, set those samples.
//! * every server contributes a set-up sample, and cheap set-ups are
//!   repeated until there are [`MIN_SETUPS`].

use std::path::{Path, PathBuf};
use std::time::Instant;

use sequin_server::ServerStats;
use sequin_types::StreamItem;

use crate::oracle::{compare, Divergence, Oracle};
use crate::served::{
    send_open_loop, send_saturating, Launch, PhaseWire, Schedule, ServerHandle, Session,
};
use crate::stats::{median, pct, quantile, unstolen, CpuTicks};
use crate::workload::{Frames, Workload};

/// The steps of a full pass, in order: a saturating block (`None`) or an
/// open-loop run (`Some(low first)`).
pub const FULL: [Option<bool>; 9] = [
    None,
    Some(true),
    None,
    Some(false),
    None,
    Some(true),
    None,
    Some(false),
    None,
];
/// The steps of the short pass that accompanies the traced pass.
pub const SHORT: [Option<bool>; 2] = [None, Some(true)];
/// Saturating runs a block makes however long they take.
pub const MIN_BLOCK_RUNS: usize = 2;
/// Kill-and-restart cycles after each saturating run (median reported).
pub const RESTARTS: usize = 5;
/// Segments of an open-loop run, alternating between the two rates.
pub const SEGMENTS: usize = 8;
/// Fewest latency samples a rate needs to count.
pub const MIN_SAMPLES: usize = 1000;
/// Attempts at an open-loop run before its rates are reported invalid.
pub const RATE_ATTEMPTS: usize = 3;
/// Set-up samples a pass takes at least, while they are cheap.
pub const MIN_SETUPS: usize = 21;
/// A set-up this fast (s) is cheap enough to repeat for more samples.
const CHEAP_SETUP_S: f64 = 0.1;
/// Generator lateness may grow this much (ms) from the first to the last
/// fifth of a segment before the run counts as not sustained.
const LATENESS_GROWTH_MS: f64 = 2.0;

/// The pass to run: [`SHORT`] beside the traced pass, [`FULL`] otherwise.
pub fn steps(trace: bool) -> &'static [Option<bool>] {
    if trace {
        &SHORT
    } else {
        &FULL
    }
}

/// What one pass measures over.
#[derive(Clone)]
pub struct Params {
    /// Events in a saturating run's stream.
    pub saturating_events: usize,
    /// Events in an open-loop run's stream.
    pub open_loop_events: usize,
    /// The `low` fixed rate, events per second.
    pub low_eps: f64,
    /// The `high` fixed rate, events per second.
    pub high_eps: f64,
    /// The p99 latency a sustained rate stays under, ms.
    pub p99_limit_ms: f64,
    /// How long a pass should take, s.
    pub seconds: f64,
    /// How the server is started.
    pub launch: Launch,
    /// Directory for durable stores.
    pub scratch: PathBuf,
    /// Self-test hook: drop this received OUTPUT frame of the first
    /// saturating run before the oracle check.
    pub drop_output: Option<usize>,
}

/// Latency at one fixed rate, over all its segments.
#[derive(Debug, Clone, Default)]
pub struct RateResult {
    /// Insert latency samples.
    pub samples: usize,
    /// Median over the segments of each segment's median latency, ms.
    pub p50_ms: f64,
    /// 99th percentile of every sample, ms.
    pub p99_ms: f64,
    /// 99th-percentile generator lateness, ms.
    pub late_p99_ms: f64,
    /// Share of the segments' time the sender spent inside socket writes, %.
    pub send_blocked_pct: f64,
    /// Why the rate does not count, if it does not.
    pub invalid: Option<String>,
    /// Segments left out of `p50_ms` for stolen CPU time, of all segments.
    pub stolen_segments: (usize, usize),
    /// Open-loop runs made, retries included.
    pub runs: usize,
}

/// Everything the end-to-end pass measured.
#[derive(Debug, Clone, Default)]
pub struct E2e {
    /// Set-up samples, s.
    pub setup_s: Vec<f64>,
    /// Saturating-run wall times, s.
    pub saturating_s: Vec<f64>,
    /// CPU time stolen during each saturating run, %.
    pub saturating_steal_pct: Vec<f64>,
    /// Server CPU per event over each saturating run, µs.
    pub cpu_us_per_event: Vec<f64>,
    /// Server `VmHWM` after each saturating run, MiB.
    pub peak_rss_mb: Vec<f64>,
    /// Restart-to-HELLO_ACK samples, s.
    pub resume_s: Vec<f64>,
    /// HELLO_ACK resume cursors that differed from the expected one.
    pub resume_mismatches: u64,
    /// Latency at the `low` rate.
    pub low: RateResult,
    /// Latency at the `high` rate.
    pub high: RateResult,
    /// Events sent in all runs.
    pub events: u64,
    /// Oracle outputs over all runs.
    pub oracle_outputs: u64,
    /// Events the server did not ingest.
    pub refused_events: u64,
    /// Output divergences over all runs.
    pub divergence: Divergence,
    /// ERROR frames over all runs.
    pub error_frames: u64,
    /// INSERT frames received.
    pub inserts: u64,
    /// RETRACT frames received.
    pub retracts: u64,
    /// Server counters of the median saturating run.
    pub server: ServerStats,
}

impl E2e {
    /// Median saturating throughput, events per second.
    pub fn throughput_eps(&self, events: usize) -> f64 {
        events as f64 / self.saturating_wall_s()
    }

    /// Median wall time of the saturating runs, s.
    pub fn saturating_wall_s(&self) -> f64 {
        median(&unstolen(&self.saturating_s, &self.saturating_steal_pct))
    }

    /// Median server CPU per event over the saturating runs, µs.
    pub fn cpu_us_per_event(&self) -> f64 {
        median(&unstolen(
            &self.cpu_us_per_event,
            &self.saturating_steal_pct,
        ))
    }

    /// Saturating runs left out for stolen CPU time.
    pub fn stolen_runs(&self) -> usize {
        self.saturating_s.len() - unstolen(&self.saturating_s, &self.saturating_steal_pct).len()
    }

    /// Failed share: refused events, divergent outputs and ERROR frames
    /// over events plus oracle outputs, %.
    pub fn failed_pct(&self) -> f64 {
        pct(self.failed() as f64, self.attempted() as f64)
    }

    /// The failure count behind [`E2e::failed_pct`].
    pub fn failed(&self) -> u64 {
        self.refused_events + self.divergence.total() + self.error_frames
    }

    /// Events plus oracle outputs.
    pub fn attempted(&self) -> u64 {
        self.events + self.oracle_outputs
    }

    /// RETRACT frames per 100 INSERT frames.
    pub fn retract_pct(&self) -> f64 {
        pct(self.retracts as f64, self.inserts as f64)
    }
}

/// A started, subscribed server and the time set-up took.
struct Ready {
    server: ServerHandle,
    session: Session,
    setup_s: f64,
}

/// Spawn → listening → HELLO_ACK → every SUB_ACK.
fn set_up(p: &Params, w: &Workload, store: Option<&Path>) -> Result<Ready, String> {
    let t0 = Instant::now();
    let server = ServerHandle::start(&p.launch, w, store)?;
    let mut session = Session::hello(server.addr, w)?;
    if session.resume_from != 0 {
        return Err(format!(
            "fresh server reported resume_from {}",
            session.resume_from
        ));
    }
    session.subscribe_all(w)?;
    Ok(Ready {
        server,
        session,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

/// A fresh store path for a durable workload (`None` when volatile).
fn store_path(p: &Params, w: &Workload, tag: &str) -> Option<PathBuf> {
    w.durable.then(|| {
        let path = p
            .scratch
            .join(format!("{}-{}-{tag}.store", w.name, std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    })
}

fn remove(store: Option<PathBuf>) {
    if let Some(s) = store {
        let _ = std::fs::remove_file(s);
    }
}

/// A stream ready to send, and what the oracle made of it.
pub struct Input {
    /// The pre-encoded frames.
    pub frames: Frames,
    /// The oracle's outputs.
    pub oracle: Oracle,
}

impl Input {
    /// Generates `events` events for `seed`, encodes them and runs the
    /// oracle.
    pub fn new(w: &Workload, events: usize, seed: u64) -> Input {
        let stream: Vec<StreamItem> = w.stream(events, seed);
        let frames = Frames::encode(&stream);
        let oracle = Oracle::run(w, &stream, &frames.position_of_id);
        Input { frames, oracle }
    }

    /// Events in the stream.
    pub fn events(&self) -> usize {
        self.frames.events
    }
}

/// Runs the end-to-end pass made of `runs` (see [`FULL`]): saturating
/// runs send `sat`, open-loop runs send `open`. The saturating blocks share
/// equally what the open-loop schedules leave of `p.seconds`.
pub fn run(
    p: &Params,
    w: &Workload,
    runs: &[Option<bool>],
    sat: &Input,
    open: &Input,
) -> Result<E2e, String> {
    let mut e = E2e::default();
    let mut low = RateSamples::default();
    let mut high = RateSamples::default();
    let mut saturated = Vec::new();
    let blocks = runs.iter().filter(|r| r.is_none()).count();
    let open_s = Schedule::new(open.events(), &segment_rates(p.low_eps, p.high_eps)).total_s()
        * (runs.len() - blocks) as f64;
    let block_s = (p.seconds - open_s).max(0.0) / blocks.max(1) as f64;
    for (step, run) in runs.iter().enumerate() {
        match *run {
            None => {
                let t0 = Instant::now();
                let mut k = 0;
                while k < MIN_BLOCK_RUNS || t0.elapsed().as_secs_f64() < block_s {
                    let drop_output = p.drop_output.filter(|_| step == 0 && k == 0);
                    saturated.push(saturating(p, w, sat, &mut e, drop_output)?);
                    k += 1;
                }
            }
            Some(first_low) => open_loop(p, w, open, first_low, &mut e, &mut low, &mut high)?,
        }
        if median(&e.setup_s) < CHEAP_SETUP_S {
            // spread the extra samples over the pass
            let extra = MIN_SETUPS
                .saturating_sub(e.setup_s.len())
                .div_ceil(runs.len() - step);
            for _ in 0..extra {
                let store = store_path(p, w, "setup");
                let ready = set_up(p, w, store.as_deref())?;
                e.setup_s.push(ready.setup_s);
                ready.session.bye();
                drop(ready.server);
                remove(store);
            }
        }
    }
    e.low = low.summarize(p);
    e.high = high.summarize(p);
    saturated.sort_by(|a, b| a.0.total_cmp(&b.0));
    e.server = saturated[saturated.len() / 2].1;
    Ok(e)
}

/// One saturating run on a fresh server, then its restarts; returns the
/// run's wall time and server counters.
fn saturating(
    p: &Params,
    w: &Workload,
    input: &Input,
    e: &mut E2e,
    drop_output: Option<usize>,
) -> Result<(f64, ServerStats), String> {
    let (frames, oracle, events) = (&input.frames, &input.oracle, input.events());
    let store = store_path(p, w, "sat");
    let mut ready = set_up(p, w, store.as_deref())?;
    e.setup_s.push(ready.setup_s);
    let origin = Instant::now();
    let cpu0 = ready.server.cpu_seconds();
    let ticks0 = CpuTicks::now();
    let mut wire = ready
        .session
        .run(origin, |s| send_saturating(s, frames, origin))?;
    let ticks1 = CpuTicks::now();
    let cpu1 = ready.server.cpu_seconds();
    let wall = (wire.drain_ack_ns - wire.sent.first_send_ns) as f64 / 1e9;
    e.saturating_s.push(wall);
    e.saturating_steal_pct.push(ticks1.steal_pct_since(&ticks0));
    if let (Some(a), Some(b)) = (cpu0, cpu1) {
        e.cpu_us_per_event.push((b - a) * 1e6 / events as f64);
    }
    if let Some(rss) = ready.server.peak_rss_mb() {
        e.peak_rss_mb.push(rss);
    }
    if let Some(ix) = drop_output.filter(|ix| *ix < wire.outputs.len()) {
        wire.outputs.remove(ix);
    }
    account(e, oracle, &wire, ready.session.errors, events);
    ready.session.bye();
    restarts(w, e, ready.server, store.as_deref(), events)?;
    remove(store);
    Ok((wall, wire.server))
}

/// SIGKILLs the server, restarts it on the same store and times the
/// restart to HELLO_ACK, [`RESTARTS`] times. A durable server must resume
/// at the number of items it ingested, a volatile one at 0.
fn restarts(
    w: &Workload,
    e: &mut E2e,
    server: ServerHandle,
    store: Option<&Path>,
    ingested: usize,
) -> Result<(), String> {
    let expect = if w.durable { ingested as u64 } else { 0 };
    let launch = server.launch.clone();
    let mut server = Some(server);
    for _ in 0..RESTARTS {
        if let Some(s) = server.take() {
            s.kill();
        }
        let t0 = Instant::now();
        let started = ServerHandle::start(&launch, w, store)?;
        let session = Session::hello(started.addr, w)?;
        e.resume_s.push(t0.elapsed().as_secs_f64());
        server = Some(started);
        if session.resume_from != expect {
            eprintln!(
                "perfbench: restarted server resumed at {} (expected {expect})",
                session.resume_from
            );
            e.resume_mismatches += 1;
        }
        session.bye();
    }
    Ok(())
}

/// Folds one run's wire result into the pass totals; returns, for each
/// received frame, the oracle frame it matched.
fn account(
    e: &mut E2e,
    oracle: &Oracle,
    wire: &PhaseWire,
    errors: u64,
    events: usize,
) -> Vec<Option<usize>> {
    let received: Vec<&[u8]> = wire.outputs.iter().map(|r| r.sealed.as_slice()).collect();
    let (d, matched) = compare(oracle, &received);
    e.divergence.missing += d.missing;
    e.divergence.extra += d.extra;
    e.divergence.misordered += d.misordered;
    e.error_frames += errors;
    e.events += events as u64;
    e.oracle_outputs += oracle.frames.len() as u64;
    e.refused_events += (events as u64).saturating_sub(wire.server.events_ingested);
    for ix in matched.iter().flatten() {
        if oracle.insert[*ix] {
            e.inserts += 1;
        } else {
            e.retracts += 1;
        }
    }
    matched
}

/// Latency samples and generator lateness of one rate, over open-loop runs.
#[derive(Default)]
struct RateSamples {
    /// Latency samples (ms) per segment at this rate.
    segments: Vec<Vec<f64>>,
    /// CPU time stolen during each segment, %.
    steal_pct: Vec<f64>,
    late_ms: Vec<f64>,
    blocked_ns: u64,
    sending_ns: u64,
    late_growth: Option<String>,
    runs: usize,
}

impl RateSamples {
    fn p99_ms(&self) -> f64 {
        quantile(&self.segments.concat(), 0.99)
    }

    /// Why these samples do not show a sustained rate, if they do not.
    fn unsustained(&self, p: &Params) -> Option<String> {
        let p99 = self.p99_ms();
        self.late_growth.clone().or_else(|| {
            (p99 > p.p99_limit_ms)
                .then(|| format!("p99 {p99:.3} ms over the {} ms limit", p.p99_limit_ms))
        })
    }

    fn absorb(&mut self, other: RateSamples) {
        self.segments.extend(other.segments);
        self.steal_pct.extend(other.steal_pct);
        self.late_ms.extend(other.late_ms);
        self.blocked_ns += other.blocked_ns;
        self.sending_ns += other.sending_ns;
        self.late_growth = self.late_growth.take().or(other.late_growth);
    }

    /// The reported latency of this rate.
    fn summarize(self, p: &Params) -> RateResult {
        let samples: usize = self.segments.iter().map(Vec::len).sum();
        let invalid = if samples < MIN_SAMPLES {
            Some(format!("{samples} latency samples < {MIN_SAMPLES}"))
        } else {
            self.unsustained(p)
        };
        let p50s: Vec<f64> = self.segments.iter().map(|v| median(v)).collect();
        let kept = unstolen(&p50s, &self.steal_pct);
        RateResult {
            samples,
            p50_ms: median(&kept),
            stolen_segments: (p50s.len() - kept.len(), p50s.len()),
            p99_ms: self.p99_ms(),
            late_p99_ms: quantile(&self.late_ms, 0.99),
            send_blocked_pct: pct(self.blocked_ns as f64, self.sending_ns as f64),
            invalid,
            runs: self.runs,
        }
    }
}

/// One open-loop run: [`SEGMENTS`] segments alternating between the two
/// rates, `low` first when `first_low`. Retried while a segment's
/// generator fell behind or a p99 went over the limit.
fn open_loop(
    p: &Params,
    w: &Workload,
    input: &Input,
    first_low: bool,
    e: &mut E2e,
    low: &mut RateSamples,
    high: &mut RateSamples,
) -> Result<(), String> {
    let (a, b) = if first_low {
        (p.low_eps, p.high_eps)
    } else {
        (p.high_eps, p.low_eps)
    };
    let (frames, oracle, events) = (&input.frames, &input.oracle, input.events());
    let schedule = Schedule::new(events, &segment_rates(a, b));
    let mut last = None;
    for attempt in 1..=RATE_ATTEMPTS {
        let store = store_path(p, w, "rate");
        let mut ready = set_up(p, w, store.as_deref())?;
        e.setup_s.push(ready.setup_s);
        let origin = Instant::now();
        // a short lead so the first frame is not already late
        let start_ns = origin.elapsed().as_nanos() as u64 + 1_000_000;
        let wire = ready.session.run(origin, |s| {
            send_open_loop(s, frames, origin, start_ns, &schedule)
        })?;
        let matched = account(e, oracle, &wire, ready.session.errors, events);
        ready.session.bye();
        drop(ready.server);
        remove(store);
        let split = by_rate(oracle, &schedule, &wire, &matched, start_ns);
        let trouble = split.iter().find_map(|s| s.unsustained(p));
        last = Some(split);
        low.runs += 1;
        high.runs += 1;
        match trouble {
            None => break,
            Some(why) => eprintln!(
                "perfbench: {} open-loop run not sustained ({why}), attempt {attempt}",
                w.name
            ),
        }
    }
    let [at_a, at_b] = last.expect("at least one attempt");
    let (at_low, at_high) = if first_low {
        (at_a, at_b)
    } else {
        (at_b, at_a)
    };
    low.absorb(at_low);
    high.absorb(at_high);
    Ok(())
}

/// The rates of an open-loop run's [`SEGMENTS`] segments: `a`, `b`, `a`, ..
fn segment_rates(a: f64, b: f64) -> Vec<f64> {
    (0..SEGMENTS)
        .map(|k| if k % 2 == 0 { a } else { b })
        .collect()
}

/// Splits one open-loop run's latency samples and generator lateness by
/// segment: even segments ran at the schedule's first rate, odd ones at
/// its second.
fn by_rate(
    oracle: &Oracle,
    schedule: &Schedule,
    wire: &PhaseWire,
    matched: &[Option<usize>],
    start_ns: u64,
) -> [RateSamples; 2] {
    let n = schedule.rates.len();
    let mut latency: Vec<Vec<f64>> = vec![Vec::new(); n];
    for (r, ix) in wire.outputs.iter().zip(matched) {
        let Some(ix) = *ix else { continue };
        if !oracle.insert[ix] || ix >= oracle.before_drain {
            continue;
        }
        let position = oracle.last_position[ix] as usize;
        let due = start_ns + schedule.due_ns(position);
        latency[schedule.segment(position)].push(r.at_ns.saturating_sub(due) as f64 / 1e6);
    }
    let mut late: Vec<Vec<f64>> = vec![Vec::new(); n];
    for (b, ns) in wire.sent.late_ns.iter().enumerate() {
        late[schedule.segment_of_frame(b)].push(*ns as f64 / 1e6);
    }
    let mut out: [RateSamples; 2] = Default::default();
    for (k, (samples, late)) in latency.into_iter().zip(late).enumerate() {
        let target = &mut out[k % 2];
        if let Some([start, end]) = wire.sent.segment_ticks.get(k..k + 2) {
            target.steal_pct.push(end.steal_pct_since(start));
        }
        let fifth = (late.len() / 5).max(1).min(late.len());
        let first = median(&late[..fifth]);
        let last = median(&late[late.len() - fifth..]);
        if last > first + LATENESS_GROWTH_MS && target.late_growth.is_none() {
            target.late_growth = Some(format!(
                "generator lateness grew from {first:.3} to {last:.3} ms at {} events/s",
                schedule.rates[k]
            ));
        }
        target.segments.push(samples);
        target.late_ms.extend(late);
        target.sending_ns += schedule.duration_ns(k);
    }
    for (b, ns) in wire.sent.write_ns.iter().enumerate() {
        out[schedule.segment_of_frame(b) % 2].blocked_ns += ns;
    }
    out
}
