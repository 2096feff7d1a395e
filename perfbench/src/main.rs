//! `perfbench`: the served-path benchmark.
//!
//! ```text
//! perfbench --workload light --seed 1 --seconds 32 --trace 0 \
//!     --sequin target/release/sequin --saturating-events 1000000 \
//!     --low-eps 20000 --high-eps 50000 --p99-limit-ms 50
//! ```
//!
//! With `--trace 0` it runs the end-to-end pass (see [`e2e`]) and prints
//! the end-to-end metrics; with `--trace 1` it also runs the traced
//! in-process pass (see [`traced`]) and prints the per-layer metrics. The
//! last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `perfbench/run.py` builds everything and passes the workload's
//! settings from `perfbench/workloads.json`.

mod e2e;
mod oracle;
#[cfg(test)]
mod selftest;
mod served;
mod stats;
mod traced;
mod workload;

use std::collections::HashMap;
use std::path::PathBuf;

use e2e::{E2e, Input, Params};
use served::Launch;
use stats::{median, pct, quantile, STEAL_LIMIT_PCT};
use traced::{Pass, References, Waterfall};
use workload::Workload;

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    params: Params,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: HashMap<&str, &str> = HashMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| -> Result<&str, String> {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let num = |name: &str| -> Result<f64, String> {
        get(name)?
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or_else(|| format!("--{name} expects a positive number"))
    };
    let seconds = num("seconds")?;
    let low_eps = num("low-eps")?;
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    // a run spends half its events' time at `low`, and the open-loop runs
    // of a pass together spend a third of `--seconds` there
    let open_runs = e2e::steps(trace).iter().filter(|r| r.is_some()).count();
    let params = Params {
        saturating_events: num("saturating-events")? as usize,
        open_loop_events: ((2.0 * low_eps * seconds / 3.0 / open_runs as f64) as usize)
            .max(workload::BATCH),
        seconds,
        low_eps,
        high_eps: num("high-eps")?,
        p99_limit_ms: num("p99-limit-ms")?,
        launch: Launch::Binary(PathBuf::from(get("sequin")?)),
        scratch: PathBuf::from(flags.get("scratch").copied().unwrap_or(".perfbench_out")),
        drop_output: None,
    };
    Ok(Args {
        workload: get("workload")?.to_owned(),
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed expects a whole number".to_owned())?,
        seconds,
        trace,
        params,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = Workload::build(&args.workload)?;
    let p = &args.params;
    std::fs::create_dir_all(&p.scratch).map_err(|e| e.to_string())?;
    println!(
        "workload {} | seed {} | {} queries | saturating runs of {} events | open-loop runs of {} \
         events at low {} / high {} events/s | {} s",
        w.name,
        args.seed,
        w.queries.len(),
        p.saturating_events,
        p.open_loop_events,
        p.low_eps,
        p.high_eps,
        args.seconds
    );
    let sat = Input::new(&w, p.saturating_events, args.seed);
    let open = (p.open_loop_events != p.saturating_events)
        .then(|| Input::new(&w, p.open_loop_events, args.seed));
    let e = e2e::run(
        p,
        &w,
        e2e::steps(args.trace),
        &sat,
        open.as_ref().unwrap_or(&sat),
    )?;
    let (inserts, retracts) = sat.oracle.kinds();
    println!(
        "oracle: {} outputs ({inserts} inserts, {retracts} retractions), {:.3} per 100 events",
        sat.oracle.frames.len(),
        pct(sat.oracle.frames.len() as f64, sat.events() as f64)
    );
    let e2e_metrics = end_to_end(sat.events(), &e);
    print_table("end to end", &e2e_metrics);
    for (name, r) in [("low", &e.low), ("high", &e.high)] {
        println!(
            "  {:<36} {:>16.4} ms  ({} samples, {} open-loop run(s), limit {} ms)",
            format!("{name}.p99_ms"),
            r.p99_ms,
            r.samples,
            r.runs,
            p.p99_limit_ms
        );
    }
    println!(
        "  ({} saturating runs, {} set-ups, {} restarts; left out for CPU time stolen \
         over {STEAL_LIMIT_PCT}%: {} saturating runs, {} of {} low and {} of {} high segments)",
        e.saturating_s.len(),
        e.setup_s.len(),
        e.resume_s.len(),
        e.stolen_runs(),
        e.low.stolen_segments.0,
        e.low.stolen_segments.1,
        e.high.stolen_segments.0,
        e.high.stolen_segments.1,
    );
    println!("  {:<36} {:>16.4} s", "resume_s", median(&e.resume_s));
    println!("  {:<36} {:>16.4} %", "retract_pct", e.retract_pct());
    println!(
        "  {:<36} {:>16.4} %   ({} missing, {} extra, {} misordered outputs, \
         {} ERROR frames, {} refused events)",
        "failed_pct",
        e.failed_pct(),
        e.divergence.missing,
        e.divergence.extra,
        e.divergence.misordered,
        e.error_frames,
        e.refused_events
    );
    for (name, r) in [("low", &e.low), ("high", &e.high)] {
        if let Some(why) = &r.invalid {
            println!("  INVALID {name} run: {why}");
        }
    }
    if e.resume_mismatches > 0 {
        println!("  resume cursor mismatches: {}", e.resume_mismatches);
    }

    let metrics = if args.trace {
        let layer = per_layer(p, &w, &sat, &e)?;
        print_table("per layer", &layer);
        layer
    } else {
        e2e_metrics
    };
    let correct = e.failed() == 0 && e.resume_mismatches == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_number(x.value),
                x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        e.attempted(),
        e.failed() + e.resume_mismatches,
        body.join(", ")
    );
    Ok(())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for x in metrics {
        println!("  {:<36} {:>16.4} {}", x.name, x.value, x.unit);
    }
}

fn end_to_end(saturating_events: usize, e: &E2e) -> Vec<Metric> {
    vec![
        m("setup_s", median(&e.setup_s), "s"),
        m(
            "throughput_eps",
            e.throughput_eps(saturating_events),
            "events/s",
        ),
        m("low.p50_ms", e.low.p50_ms, "ms"),
        m("high.p50_ms", e.high.p50_ms, "ms"),
        m("cpu_us_per_event", e.cpu_us_per_event(), "us"),
        m("peak_rss_mb", median(&e.peak_rss_mb), "MB"),
    ]
}

/// Repeats of each reference pass.
const REFERENCE_REPS: usize = 2;

fn per_layer(p: &Params, w: &Workload, sat: &Input, e: &E2e) -> Result<Vec<Metric>, String> {
    let (frames, oracle) = (&sat.frames, &sat.oracle);
    let events = sat.events() as f64;
    let store = w.durable.then(|| {
        p.scratch
            .join(format!("{}-{}-traced.store", w.name, std::process::id()))
    });
    // frames per engine batch in the served saturating run, so the passes
    // ingest and persist as often as the server did
    let group = (e.server.events_ingested as f64
        / e.server.engine_batches.max(1) as f64
        / workload::BATCH as f64)
        .round()
        .max(1.0) as usize;
    let run_pass = |traced: bool| -> Result<Pass, String> {
        if let Some(s) = &store {
            let _ = std::fs::remove_file(s);
        }
        traced::pipeline(w, frames, group, traced, None, store.as_deref())
    };
    // untraced, traced, untraced: the traced pass sits between the two
    // passes it is compared with
    let untraced_a = run_pass(false)?.wall_ns as f64;
    let pass = run_pass(true)?;
    let untraced_b = run_pass(false)?.wall_ns as f64;
    let (store_bytes, load_ms) = match &store {
        Some(s) => {
            let bytes = std::fs::metadata(s).map(|m| m.len()).unwrap_or(0) as f64;
            let mut loads = Vec::new();
            for _ in 0..3 {
                let t0 = std::time::Instant::now();
                sequin_engine::CheckpointStore::load(s)
                    .map_err(|e| format!("cannot load {}: {e}", s.display()))?;
                loads.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            let _ = std::fs::remove_file(s);
            (bytes, median(&loads))
        }
        None => (0.0, 0.0),
    };
    let batches = traced::decoded_batches(frames, group);
    let r: References = traced::references(w, &batches, REFERENCE_REPS);
    for (tracer, file) in [(&pass.tracer, "spans"), (&r.spans, "spans-engine")] {
        let path = p.scratch.join(format!("{file}-{}.jsonl", w.name));
        tracer.write(&path).map_err(|e| e.to_string())?;
        println!("{} spans written to {}", tracer.spans.len(), path.display());
    }
    let wf = Waterfall::of(&pass, &r);
    let wall = e.saturating_wall_s() * 1e9;
    let cpu = e.cpu_us_per_event() * 1e3 * events;
    let share = |ns: f64| pct(ns, wall);
    let saves = traced::saves(&pass, sat.events());
    let stats = pass.core.stats();
    let plan = pass.core.plan_metrics().unwrap_or_default();
    let outputs = pass.outputs as f64;
    let per_output = |v: f64| if outputs > 0.0 { v / outputs } else { 0.0 };
    let deferral: Vec<f64> = (0..oracle.before_drain)
        .filter(|ix| oracle.insert[*ix])
        .map(|ix| oracle.deferral_ticks[ix] as f64)
        .collect();
    let untraced = (untraced_a + untraced_b) / 2.0;
    let server_events = e.server.events_ingested as f64;
    let edge = wall - wf.engine_thread_total();

    println!(
        "waterfall (share of the {:.1} ms saturating run; the server used {:.1} ms of CPU):",
        wall / 1e6,
        cpu / 1e6
    );
    for (name, ns) in wf.engine_thread() {
        println!("  {:<14} {:>10.3} ms {:>8.2} %", name, ns / 1e6, share(ns));
    }
    println!(
        "  {:<14} {:>10.3} ms {:>8.2} %",
        "server edge",
        edge / 1e6,
        share(edge)
    );
    println!(
        "  {:<14} {:>10.3} ms {:>8.2} %  (session reader thread, beside the above)",
        "frame.decode",
        wf.decode / 1e6,
        share(wf.decode)
    );

    Ok(vec![
        m("frame.decode_ns_per_event", wf.decode / events, "ns"),
        m(
            "frame.bytes_per_event",
            frames.wire.len() as f64 / events,
            "bytes",
        ),
        m("frame.encode_ns_per_output", per_output(wf.encode), "ns"),
        m(
            "frame.bytes_per_output",
            per_output(pass.output_bytes as f64),
            "bytes",
        ),
        m("frame.decode_share_pct", share(wf.decode), "%"),
        m("frame.encode_share_pct", share(wf.encode), "%"),
        m(
            "server.events_per_engine_batch",
            server_events / (e.server.engine_batches.max(1) as f64),
            "events",
        ),
        m(
            "server.backpressure_stalls_per_1k",
            1000.0 * e.server.backpressure_stalls as f64 / events,
            "count",
        ),
        m(
            "server.busy_frames",
            e.server.busy_frames_sent as f64,
            "count",
        ),
        m("server.edge_share_pct", share(edge), "%"),
        m("server.saturating_wall_ms", wall / 1e6, "ms"),
        m("server.saturating_cpu_ms", cpu / 1e6, "ms"),
        m("core.ingest_ns_per_event", wf.ingest / events, "ns"),
        m("core.self_share_pct", share(wf.core_self), "%"),
        m("core.finish_ms", wf.finish / 1e6, "ms"),
        m("core.subscribe_ms", wf.subscribe / 1e6, "ms"),
        m("obs.overhead_pct", pct(r.on - r.off, r.off), "%"),
        m(
            "obs.provenance_pct",
            pct(r.on - r.no_provenance, r.no_provenance),
            "%",
        ),
        m("obs.share_pct", share(wf.obs), "%"),
        m("plan.register_ms", r.register / 1e6, "ms"),
        m("plan.pooled_stacks", plan.pooled_stacks as f64, "count"),
        m("plan.stack_refs", plan.stack_refs as f64, "count"),
        m("plan.prefix_groups", plan.prefix_groups as f64, "count"),
        m("plan.epochs", plan.epochs as f64, "count"),
        m("plan.shared_partials", plan.shared_partials as f64, "count"),
        m("plan.fanout_outputs", plan.fanout_outputs as f64, "count"),
        m("engine.ingest_ns_per_event", r.bare / events, "ns"),
        m("engine.share_pct", share(r.bare), "%"),
        m("engine.peak_state_events", r.peak_state as f64, "events"),
        m(
            "runtime.dfs_steps_per_event",
            stats.dfs_steps as f64 / events,
            "count",
        ),
        m(
            "runtime.matches_per_dfs_step",
            if stats.dfs_steps == 0 {
                0.0
            } else {
                stats.matches_constructed as f64 / stats.dfs_steps as f64
            },
            "ratio",
        ),
        m(
            "runtime.predicate_evals_per_event",
            stats.predicate_evals as f64 / events,
            "count",
        ),
        m(
            "runtime.negated_matches",
            stats.negated_matches as f64,
            "count",
        ),
        m(
            "runtime.insertions_per_event",
            stats.insertions as f64 / events,
            "count",
        ),
        m(
            "runtime.ooo_insertions_per_event",
            stats.ooo_insertions as f64 / events,
            "count",
        ),
        m(
            "runtime.purged_per_event",
            stats.purged as f64 / events,
            "count",
        ),
        m("runtime.late_drops", stats.late_drops as f64, "count"),
        m("watermark.deferral_ticks_p50", median(&deferral), "ticks"),
        m(
            "watermark.deferral_ticks_p99",
            quantile(&deferral, 0.99),
            "ticks",
        ),
        m("checkpoint.save_ms_p50", saves.p50_ms, "ms"),
        m("checkpoint.save_ms_p99", saves.p99_ms, "ms"),
        m(
            "checkpoint.saves_per_1k_events",
            saves.per_1k_events,
            "count",
        ),
        m(
            "checkpoint.bytes_written_per_event",
            saves.bytes_per_event,
            "bytes",
        ),
        m("checkpoint.share_pct", share(wf.checkpoint), "%"),
        m("checkpoint.tail_slowdown", saves.tail_slowdown, "ratio"),
        m("checkpoint.store_bytes", store_bytes, "bytes"),
        m("checkpoint.load_ms", load_ms, "ms"),
        m(
            "loadgen.late_p99_ms",
            e.high.late_p99_ms.max(e.low.late_p99_ms),
            "ms",
        ),
        m(
            "loadgen.latency_samples",
            e.low.samples.min(e.high.samples) as f64,
            "count",
        ),
        m(
            "loadgen.send_blocked_pct",
            e.high.send_blocked_pct.max(e.low.send_blocked_pct),
            "%",
        ),
        m(
            "trace.overhead_pct",
            pct(pass.wall_ns as f64 - untraced, untraced),
            "%",
        ),
        m("resume_s", median(&e.resume_s), "s"),
        m("low.p99_ms", e.low.p99_ms, "ms"),
        m("high.p99_ms", e.high.p99_ms, "ms"),
        m("retract_pct", e.retract_pct(), "%"),
        m("failed_pct", e.failed_pct(), "%"),
    ])
}
