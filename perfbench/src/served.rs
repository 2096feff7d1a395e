//! The served path: a `sequin serve` child process driven over loopback
//! TCP by one connection with two threads (sender, receiver).

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use sequin_server::frame::{decode_frame, encode_frame, read_frame, write_frame, Frame};
use sequin_server::ServerStats;

use crate::stats::CpuTicks;
use crate::workload::{Frames, Workload, BATCH, CHECKPOINT_EVERY, K};

/// How to start the server.
#[derive(Clone)]
pub enum Launch {
    /// Spawn this `sequin` binary as `sequin serve`.
    Binary(PathBuf),
    /// Run an in-process [`sequin_server::Server`] (the self-tests).
    #[cfg_attr(not(test), allow(dead_code))]
    InProcess,
}

/// A running server: a child process or an in-process instance.
pub struct ServerHandle {
    /// How it was started (a restart starts it the same way).
    pub launch: Launch,
    child: Option<(Child, ChildStdout)>,
    in_process: Option<sequin_server::Server>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl ServerHandle {
    /// Starts a server for `w` and waits until it listens. `store` is the
    /// checkpoint store of a durable workload.
    pub fn start(launch: &Launch, w: &Workload, store: Option<&Path>) -> Result<Self, String> {
        match launch {
            Launch::Binary(bin) => {
                let mut cmd = Command::new(bin);
                cmd.args(["serve", "--addr", "127.0.0.1:0", "--types"])
                    .arg(w.schema())
                    .args(["--k", &K.to_string()]);
                if let Some(store) = store {
                    cmd.args(["--checkpoint-every", &CHECKPOINT_EVERY.to_string()])
                        .arg("--store")
                        .arg(store);
                }
                let mut child = cmd
                    .stdin(Stdio::null())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit())
                    .spawn()
                    .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
                let stdout = child.stdout.take().expect("piped stdout");
                let mut handle = ServerHandle {
                    launch: launch.clone(),
                    child: None,
                    in_process: None,
                    addr: SocketAddr::from(([127, 0, 0, 1], 0)),
                };
                let mut lines = BufReader::new(stdout);
                let mut line = String::new();
                let addr = loop {
                    line.clear();
                    let n = lines.read_line(&mut line).unwrap_or(0);
                    if n == 0 {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err("sequin serve exited before listening".into());
                    }
                    if let Some(rest) = line.strip_prefix("listening") {
                        let text = rest.trim_start_matches([' ', ':']).trim();
                        match text.parse::<SocketAddr>() {
                            Ok(a) => break a,
                            Err(_) => {
                                let _ = child.kill();
                                let _ = child.wait();
                                return Err(format!("unreadable listen line `{}`", line.trim()));
                            }
                        }
                    }
                };
                handle.addr = addr;
                handle.child = Some((child, lines.into_inner()));
                Ok(handle)
            }
            Launch::InProcess => {
                let mut core = sequin_server::CoreConfig::new(
                    std::sync::Arc::clone(&w.registry),
                    sequin_engine::Strategy::Native,
                    w.engine_config(),
                );
                if store.is_some() {
                    core.checkpoint_every = Some(CHECKPOINT_EVERY);
                }
                let mut cfg = sequin_server::ServerConfig::new(core);
                cfg.store_path = store.map(Path::to_path_buf);
                let mut server = sequin_server::Server::start(cfg)?;
                let addr = server.listen("127.0.0.1:0").map_err(|e| e.to_string())?;
                Ok(ServerHandle {
                    launch: launch.clone(),
                    child: None,
                    in_process: Some(server),
                    addr,
                })
            }
        }
    }

    /// CPU seconds the server process's live threads have run, when it is
    /// a child process (summed from each thread's `schedstat`, which counts
    /// nanoseconds, where `stat` counts 10 ms ticks).
    pub fn cpu_seconds(&self) -> Option<f64> {
        let (child, _) = self.child.as_ref()?;
        let tasks = std::fs::read_dir(format!("/proc/{}/task", child.id())).ok()?;
        let mut ns = 0u64;
        for task in tasks.flatten() {
            let text = std::fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
            ns += text
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
        }
        Some(ns as f64 / 1e9)
    }

    /// Peak resident set (`VmHWM`) in MiB, when the server is a child
    /// process.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let (child, _) = self.child.as_ref()?;
        let status = std::fs::read_to_string(format!("/proc/{}/status", child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// Kills the server without letting it persist anything: SIGKILL for a
    /// child, the fault-injection crash for an in-process server.
    pub fn kill(mut self) {
        self.stop(true);
    }

    fn stop(&mut self, crash: bool) {
        if let Some((mut child, _)) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(mut server) = self.in_process.take() {
            if crash {
                server.crash();
            } else {
                server.shutdown();
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop(false);
    }
}

/// A frame that arrived, with its receipt time.
pub struct Received {
    /// Nanoseconds since the phase's time origin.
    pub at_ns: u64,
    /// The sealed envelope as it came off the wire.
    pub sealed: Vec<u8>,
}

/// One connection's session after setup.
pub struct Session {
    stream: TcpStream,
    /// ERROR frames seen so far.
    pub errors: u64,
    /// HELLO_ACK's resume cursor.
    pub resume_from: u64,
}

/// Envelope bytes before the payload: magic, version, length.
const ENVELOPE_HEADER: usize = 4 + 2 + 8;
/// The OUTPUT frame's tag.
const OUTPUT_TAG: u8 = 7;

fn io(e: std::io::Error) -> String {
    e.to_string()
}

fn read_one(stream: &mut TcpStream) -> Result<Frame, String> {
    let sealed = read_frame(stream)
        .map_err(io)?
        .ok_or("server closed the connection")?;
    decode_frame(&sealed).map_err(|e| e.to_string())
}

impl Session {
    /// Connects and completes HELLO.
    pub fn hello(addr: SocketAddr, w: &Workload) -> Result<Session, String> {
        let mut stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        let hello = encode_frame(&Frame::Hello {
            fingerprint: w.registry.fingerprint(),
            client: "perfbench".into(),
        });
        write_frame(&mut stream, &hello).map_err(io)?;
        match read_one(&mut stream)? {
            Frame::HelloAck { resume_from, .. } => Ok(Session {
                stream,
                errors: 0,
                resume_from,
            }),
            other => Err(format!("expected HELLO_ACK, got {other:?}")),
        }
    }

    /// Sends every SUBSCRIBE, then collects the SUB_ACKs. A SUB_ACK with
    /// another policy than the one asked for counts as an error; a refused
    /// query fails the run.
    pub fn subscribe_all(&mut self, w: &Workload) -> Result<(), String> {
        let mut out = BufWriter::new(&self.stream);
        for (query, policy) in &w.queries {
            let f = encode_frame(&Frame::Subscribe {
                query: query.clone(),
                policy: *policy,
            });
            out.write_all(&(f.len() as u32).to_le_bytes()).map_err(io)?;
            out.write_all(&f).map_err(io)?;
        }
        out.flush().map_err(io)?;
        drop(out);
        for (query, policy) in &w.queries {
            match read_one(&mut self.stream)? {
                Frame::SubAck {
                    policy: effective, ..
                } => {
                    if effective != policy.unwrap_or(w.engine_config().policy) {
                        self.errors += 1;
                    }
                }
                Frame::Error { code, message } => {
                    return Err(format!("SUBSCRIBE `{query}` refused: {code}: {message}"));
                }
                other => return Err(format!("expected SUB_ACK, got {other:?}")),
            }
        }
        Ok(())
    }

    /// Runs the measured part of a phase: a receiver thread collects every
    /// frame up to DRAIN_ACK while `send` writes the stream on this thread;
    /// then DRAIN. Returns what came back and STATS.
    pub fn run<F>(&mut self, origin: Instant, send: F) -> Result<PhaseWire, String>
    where
        F: FnOnce(&mut TcpStream) -> Result<SendLog, String>,
    {
        let mut reader = self.stream.try_clone().map_err(io)?;
        let receiver = thread::Builder::new()
            .name("perfbench-recv".into())
            .spawn(move || -> Result<(Vec<Received>, u64, u64), String> {
                let mut buffered = BufReader::with_capacity(1 << 16, &mut reader);
                let mut outputs = Vec::new();
                let mut errors = 0u64;
                loop {
                    let sealed = read_frame(&mut buffered)
                        .map_err(io)?
                        .ok_or("server closed the connection before DRAIN_ACK")?;
                    let at_ns = origin.elapsed().as_nanos() as u64;
                    // OUTPUT frames are kept undecoded (the oracle check
                    // compares their bytes); the frame tag is the first
                    // payload byte, after the 14-byte envelope header
                    if sealed.get(ENVELOPE_HEADER) == Some(&OUTPUT_TAG) {
                        outputs.push(Received { at_ns, sealed });
                        continue;
                    }
                    match decode_frame(&sealed).map_err(|e| e.to_string())? {
                        Frame::DrainAck => return Ok((outputs, errors, at_ns)),
                        Frame::Busy { .. } => {}
                        Frame::Error { code, message } => {
                            eprintln!("perfbench: server ERROR {code}: {message}");
                            errors += 1;
                        }
                        other => return Err(format!("unexpected frame {other:?}")),
                    }
                }
            })
            .map_err(io)?;
        let sent = send(&mut self.stream);
        let drained =
            sent.is_ok() && write_frame(&mut self.stream, &encode_frame(&Frame::Drain)).is_ok();
        if !drained {
            // unblock the receiver before reporting the failure
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
        }
        let received = receiver
            .join()
            .map_err(|_| "receiver thread panicked".to_string())?;
        let sent = sent?;
        let (outputs, errors, drain_ack_ns) = received?;
        self.errors += errors;
        write_frame(&mut self.stream, &encode_frame(&Frame::StatsReq)).map_err(io)?;
        let server = match read_one(&mut self.stream)? {
            Frame::StatsReply { server, .. } => server,
            other => return Err(format!("expected STATS_REPLY, got {other:?}")),
        };
        Ok(PhaseWire {
            outputs,
            drain_ack_ns,
            sent,
            server,
        })
    }

    /// Says goodbye.
    pub fn bye(mut self) {
        let _ = write_frame(&mut self.stream, &encode_frame(&Frame::Bye));
    }
}

/// What the sender did.
#[derive(Default)]
pub struct SendLog {
    /// Nanoseconds since the origin when the first byte was written.
    pub first_send_ns: u64,
    /// Open loop, per frame: how late its send started past its due
    /// time, ns.
    pub late_ns: Vec<u64>,
    /// Open loop, per frame: time inside the socket write, ns.
    pub write_ns: Vec<u64>,
    /// Open loop: the CPU time counters as each segment began, then at the
    /// end.
    pub segment_ticks: Vec<CpuTicks>,
}

/// One phase's wire-level result.
pub struct PhaseWire {
    /// OUTPUT frames in arrival order.
    pub outputs: Vec<Received>,
    /// DRAIN_ACK receipt time.
    pub drain_ack_ns: u64,
    /// The sender's log.
    pub sent: SendLog,
    /// Server counters after the drain.
    pub server: ServerStats,
}

/// Closed loop: writes every frame as fast as TCP backpressure allows.
pub fn send_saturating(
    stream: &mut TcpStream,
    frames: &Frames,
    origin: Instant,
) -> Result<SendLog, String> {
    let log = SendLog {
        first_send_ns: origin.elapsed().as_nanos() as u64,
        ..SendLog::default()
    };
    for chunk in frames.wire.chunks(1 << 16) {
        stream.write_all(chunk).map_err(io)?;
    }
    Ok(log)
}

/// When each event of an open-loop run is due: the stream is cut into
/// segments of whole frames, each sent at its own fixed rate.
pub struct Schedule {
    /// First stream position of each segment, then the stream length.
    bounds: Vec<usize>,
    /// Each segment's rate, events per second.
    pub rates: Vec<f64>,
    /// When each segment starts, ns after the run's start.
    starts_ns: Vec<u64>,
}

impl Schedule {
    /// `events` events in `rates.len()` segments of equal size.
    pub fn new(events: usize, rates: &[f64]) -> Schedule {
        let frames = events.div_ceil(BATCH);
        let per = frames.div_ceil(rates.len());
        let mut bounds: Vec<usize> = (0..rates.len())
            .map(|k| (k * per * BATCH).min(events))
            .collect();
        bounds.push(events);
        let mut schedule = Schedule {
            bounds,
            rates: rates.to_vec(),
            starts_ns: Vec::with_capacity(rates.len()),
        };
        let mut t = 0u64;
        for k in 0..rates.len() {
            schedule.starts_ns.push(t);
            t += schedule.duration_ns(k);
        }
        schedule
    }

    /// The segment holding stream position `position`.
    pub fn segment(&self, position: usize) -> usize {
        self.bounds[1..]
            .partition_point(|end| *end <= position)
            .min(self.rates.len() - 1)
    }

    /// How long segment `k` lasts, ns.
    pub fn duration_ns(&self, k: usize) -> u64 {
        ((self.bounds[k + 1] - self.bounds[k]) as f64 * 1e9 / self.rates[k]) as u64
    }

    /// How long the whole schedule lasts, s.
    pub fn total_s(&self) -> f64 {
        (0..self.rates.len())
            .map(|k| self.duration_ns(k) as f64 / 1e9)
            .sum()
    }

    /// The segment frame `b` belongs to (the one of its last event).
    pub fn segment_of_frame(&self, b: usize) -> usize {
        let events = *self.bounds.last().expect("at least one bound");
        self.segment(((b + 1) * BATCH).min(events) - 1)
    }

    /// When event `position` is due, ns after the run's start.
    pub fn due_ns(&self, position: usize) -> u64 {
        let k = self.segment(position);
        self.starts_ns[k] + ((position - self.bounds[k]) as f64 * 1e9 / self.rates[k]) as u64
    }
}

/// How long before a frame is due the sender stops sleeping and spins.
const SPIN_NS: u64 = 300_000;

/// Open loop: each frame goes out when its last event is due, however late
/// the previous one was.
pub fn send_open_loop(
    stream: &mut TcpStream,
    frames: &Frames,
    origin: Instant,
    start_ns: u64,
    schedule: &Schedule,
) -> Result<SendLog, String> {
    let mut log = SendLog {
        first_send_ns: start_ns,
        late_ns: Vec::with_capacity(frames.spans.len()),
        write_ns: Vec::with_capacity(frames.spans.len()),
        segment_ticks: Vec::with_capacity(schedule.rates.len() + 1),
    };
    let events = *schedule.bounds.last().expect("at least one bound");
    for (b, &(start, end)) in frames.spans.iter().enumerate() {
        // read before waiting, so the read does not delay the frame
        if log.segment_ticks.len() == schedule.segment_of_frame(b) {
            log.segment_ticks.push(CpuTicks::now());
        }
        let last_event = ((b + 1) * BATCH).min(events) - 1;
        let due = start_ns + schedule.due_ns(last_event);
        let now = origin.elapsed().as_nanos() as u64;
        if due > now + SPIN_NS {
            thread::sleep(Duration::from_nanos(due - now - SPIN_NS));
        }
        while (origin.elapsed().as_nanos() as u64) < due {
            std::hint::spin_loop();
        }
        let before = origin.elapsed().as_nanos() as u64;
        stream.write_all(&frames.wire[start..end]).map_err(io)?;
        let after = origin.elapsed().as_nanos() as u64;
        log.late_ns.push(before.saturating_sub(due));
        log.write_ns.push(after - before);
    }
    log.segment_ticks.push(CpuTicks::now());
    Ok(log)
}
