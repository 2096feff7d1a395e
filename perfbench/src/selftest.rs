//! The benchmark's own checks: the oracle catches a lost output, and the
//! waterfall moves only the layer that got slower.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use crate::e2e::{self, Input, Params};
use crate::oracle::{compare, Oracle};
use crate::served::Launch;
use crate::traced::{self, Injected, Tracer, ROOT};
use crate::workload::{Frames, Workload};

/// The tests time things, so they run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn params(events: usize, drop_output: Option<usize>) -> Params {
    let scratch = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    Params {
        saturating_events: events,
        open_loop_events: events,
        low_eps: 20_000.0,
        high_eps: 50_000.0,
        p99_limit_ms: 1e9,
        // each saturating block makes its minimum of runs
        seconds: 0.0,
        launch: Launch::InProcess,
        scratch,
        drop_output,
    }
}

#[test]
fn a_dropped_output_frame_counts_as_failed() {
    let _serial = serial();
    let w = Workload::build("light").unwrap();
    let input = Input::new(&w, 40_000, 7);
    assert!(
        input.oracle.frames.len() > 100,
        "the stream must produce outputs"
    );
    let clean = e2e::run(&params(40_000, None), &w, &e2e::FULL, &input, &input).unwrap();
    assert_eq!(clean.failed(), 0);
    assert_eq!(clean.failed_pct(), 0.0);

    let dropped = e2e::run(&params(40_000, Some(5)), &w, &e2e::FULL, &input, &input).unwrap();
    assert_eq!(dropped.divergence.missing, 1);
    assert!(dropped.failed_pct() > 0.0);
}

#[test]
fn durable_restart_resumes_at_the_ingested_count() {
    let _serial = serial();
    let w = Workload::build("durable").unwrap();
    let input = Input::new(&w, 20_000, 3);
    let e = e2e::run(&params(20_000, None), &w, &e2e::FULL, &input, &input).unwrap();
    assert_eq!(e.resume_mismatches, 0);
    // `seconds: 0` leaves each block at its minimum of saturating runs
    let saturating = e2e::FULL.iter().filter(|r| r.is_none()).count() * e2e::MIN_BLOCK_RUNS;
    assert_eq!(e.resume_s.len(), saturating * e2e::RESTARTS);
    assert_eq!(e.failed(), 0);
}

#[test]
fn compare_counts_missing_extra_and_misordered_frames() {
    let _serial = serial();
    let w = Workload::build("light").unwrap();
    let stream = w.stream(20_000, 1);
    let frames = Frames::encode(&stream);
    let oracle = Oracle::run(&w, &stream, &frames.position_of_id);
    let all: Vec<&[u8]> = oracle.frames.iter().map(Vec::as_slice).collect();
    assert_eq!(compare(&oracle, &all).0.total(), 0);

    let mut lost = all.clone();
    lost.remove(3);
    let d = compare(&oracle, &lost).0;
    assert_eq!((d.missing, d.extra, d.misordered), (1, 0, 0));

    let mut swapped = all.clone();
    swapped.swap(3, 4);
    assert_eq!(compare(&oracle, &swapped).0.misordered, 1);

    let mut extra = all.clone();
    let junk = vec![0u8; 8];
    extra.push(&junk);
    assert_eq!(compare(&oracle, &extra).0.extra, 1);
}

#[test]
fn self_time_subtracts_child_spans() {
    let mut t = Tracer::new(true);
    let outer = t.begin("outer", ROOT, 0);
    let inner = t.begin("inner", outer, 0);
    std::thread::sleep(Duration::from_millis(5));
    t.end(inner);
    t.end(outer);
    let inner_ns = t.layer_ns("inner");
    let outer_ns = t.layer_ns("outer");
    assert!(inner_ns >= 5_000_000);
    assert!(outer_ns < inner_ns / 10, "outer self {outer_ns} ns");
}

/// Self time per layer of one traced pass.
fn layer_times(w: &Workload, frames: &Frames, inject: Option<Injected>) -> Vec<f64> {
    let pass = traced::pipeline(w, frames, 1, true, inject, None).unwrap();
    LAYERS
        .iter()
        .map(|name| pass.tracer.layer_ns(name) as f64)
        .collect()
}

const LAYERS: [&str; 4] = [
    "frame.decode",
    "core.ingest_batch",
    "frame.encode",
    "core.finish",
];

#[test]
fn an_injected_delay_moves_only_its_own_layer() {
    let _serial = serial();
    let w = Workload::build("output_heavy").unwrap();
    let stream = w.stream(20_000, 5);
    let frames = Frames::encode(&stream);
    let delay = Duration::from_micros(300);
    let injected = delay.as_nanos() as f64 * frames.spans.len() as f64;
    // interleave the two configurations so drift hits both alike
    let mut base = Vec::new();
    let mut slow = Vec::new();
    for _ in 0..5 {
        base.push(layer_times(&w, &frames, None));
        slow.push(layer_times(
            &w,
            &frames,
            Some(Injected {
                layer: "frame.decode",
                delay,
            }),
        ));
    }
    // the fastest of five passes: a pass the machine interrupted is slower
    let fastest =
        |runs: &[Vec<f64>], i: usize| runs.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min);
    // shares of one fixed denominator, so a layer's share moves exactly
    // when its own time does
    let denominator: f64 = (0..LAYERS.len()).map(|i| fastest(&base, i)).sum::<f64>() + injected;
    let share = |ns: f64| 100.0 * ns / denominator;
    let rise = share(fastest(&slow, 0)) - share(fastest(&base, 0));
    let expected = share(injected);
    assert!(
        (rise - expected).abs() < 0.2 * expected,
        "frame.decode share rose {rise:.2} points, expected about {expected:.2}"
    );
    for (i, name) in LAYERS.iter().enumerate().skip(1) {
        let moved = share(fastest(&slow, i)) - share(fastest(&base, i));
        assert!(
            moved.abs() < 0.2 * expected,
            "{name} share moved {moved:.2} points (injected {expected:.2} into frame.decode)"
        );
    }
}
