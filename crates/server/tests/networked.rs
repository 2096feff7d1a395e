//! End-to-end protocol tests: real sockets, faulty links, crashed servers.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use sequin_engine::{DisorderPolicy, EngineConfig, Strategy};
use sequin_netsim::{delay_shuffle, punctuate, FramePlan};
use sequin_server::{
    loopback_run, mem_pair, Client, ClientError, CoreConfig, EngineCore, ErrorCode, FrameSink,
    MemTransport, OutputFrame, Server, ServerConfig, Transport,
};
use sequin_types::{Duration, StreamItem, TypeRegistry};
use sequin_workload::{Synthetic, SyntheticConfig};

const Q01: &str = "PATTERN SEQ(T0 a, T1 b) WITHIN 20";
const Q12: &str = "PATTERN SEQ(T1 a, T2 b) WITHIN 20";

fn workload(n: usize, seed: u64) -> (Arc<TypeRegistry>, Vec<StreamItem>) {
    let synth = Synthetic::new(SyntheticConfig::default());
    let history = synth.generate(n, seed);
    let stream = delay_shuffle(&history, 0.3, 20, seed ^ 0x5eed);
    (synth.registry().clone(), stream)
}

fn core_config(reg: &Arc<TypeRegistry>, policy: DisorderPolicy) -> CoreConfig {
    let mut engine = EngineConfig::with_k(Duration::new(40));
    engine.policy = policy;
    CoreConfig::new(reg.clone(), Strategy::Native, engine)
}

/// Sorted multiset view of outputs for order-insensitive equivalence.
fn net(outputs: &[sequin_server::OutputFrame]) -> Vec<(u64, bool, Vec<u64>)> {
    let mut v: Vec<(u64, bool, Vec<u64>)> = outputs
        .iter()
        .map(|o| {
            (
                o.query_id,
                o.kind == sequin_engine::OutputKind::Insert,
                o.events.iter().map(|e| e.id().get()).collect(),
            )
        })
        .collect();
    v.sort();
    v
}

fn oracle_net(
    core: CoreConfig,
    queries: &[&str],
    stream: &[StreamItem],
) -> Vec<(u64, bool, Vec<u64>)> {
    let mut oracle = EngineCore::new(CoreConfig {
        checkpoint_every: None,
        ..core
    });
    for q in queries {
        oracle.subscribe(q).unwrap();
    }
    let mut out = Vec::new();
    for item in stream {
        out.extend(oracle.ingest(item));
    }
    out.extend(oracle.finish());
    let mut v: Vec<(u64, bool, Vec<u64>)> = out
        .into_iter()
        .map(|(qid, o)| {
            (
                qid.index() as u64,
                o.kind == sequin_engine::OutputKind::Insert,
                o.m.events().iter().map(|e| e.id().get()).collect(),
            )
        })
        .collect();
    v.sort();
    v
}

fn temp_store(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sequin-test-{tag}-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn tcp_loopback_is_byte_identical_under_every_disorder_policy() {
    for policy in [
        DisorderPolicy::Conservative,
        DisorderPolicy::Speculative,
        DisorderPolicy::Lazy,
        DisorderPolicy::AdaptiveSlack { accuracy: 90 },
    ] {
        let (reg, stream) = workload(400, 11);
        let stream = punctuate(&stream, 50);
        let queries = vec![Q01.to_owned(), Q12.to_owned()];
        let report = loopback_run(core_config(&reg, policy), &queries, &stream, 16)
            .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        assert!(
            report.outputs > 0,
            "{policy:?}: workload produced no matches — vacuous comparison"
        );
        assert_eq!(report.server.connections_opened, 1);
        assert!(report.server.events_ingested >= 400);
        assert!(report.server.batches_ingested > 0);
        assert_eq!(report.server.drains, 1);
    }
}

#[test]
fn schema_mismatch_and_missing_hello_close_the_session_cleanly() {
    let (reg, _) = workload(1, 1);
    let mut server = Server::start(ServerConfig::new(core_config(
        &reg,
        DisorderPolicy::Conservative,
    )))
    .unwrap();
    let addr = server.listen("127.0.0.1:0").unwrap().to_string();

    // wrong fingerprint: ERROR(schema-mismatch), then the session is dead
    let mut client = Client::connect(&addr).unwrap();
    match client.hello(0xBAD_F00D, "mismatched") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::SchemaMismatch),
        other => panic!("expected schema-mismatch refusal, got {other:?}"),
    }
    assert!(
        client.hello(reg.fingerprint(), "retry").is_err(),
        "session must be closed after the refusal"
    );
    drop(client);

    // any frame before HELLO: ERROR(bad-hello), session closed
    let mut client = Client::connect(&addr).unwrap();
    match client.subscribe(Q01) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadHello),
        other => panic!("expected bad-hello refusal, got {other:?}"),
    }
    drop(client);

    // a well-formed session still works afterwards
    let mut client = Client::connect(&addr).unwrap();
    let (resume_from, _) = client.hello(reg.fingerprint(), "ok").unwrap();
    assert_eq!(resume_from, 0);
    client.bye();

    let deadline = Instant::now() + StdDuration::from_secs(5);
    loop {
        let s = server.stats();
        if s.connections_closed >= 3 {
            assert!(s.rejected_frames >= 2);
            break;
        }
        assert!(Instant::now() < deadline, "sessions never closed: {s:?}");
        std::thread::sleep(StdDuration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn corrupted_frame_is_rejected_and_kills_only_that_session() {
    let (reg, stream) = workload(50, 7);
    let server = Server::start(ServerConfig::new(core_config(
        &reg,
        DisorderPolicy::Conservative,
    )))
    .unwrap();

    // frame 2 (first event after HELLO + SUBSCRIBE) gets a flipped bit
    let (client_side, server_side) =
        mem_pair(FramePlan::clean().flip_frame(2, 13), FramePlan::clean());
    server.attach(Box::new(server_side));

    let mut client = Client::over(Box::new(client_side));
    client.hello(reg.fingerprint(), "faulty-link").unwrap();
    client.subscribe(Q01).unwrap();

    // keep sending until the teardown propagates back to us
    let mut saw_failure = false;
    for item in stream.iter().cycle().take(10_000) {
        match client.send_item(item) {
            Ok(()) => {}
            Err(_) => {
                saw_failure = true;
                break;
            }
        }
        if client.stats().is_err() {
            saw_failure = true;
            break;
        }
    }
    assert!(saw_failure, "corrupted frame must terminate the session");
    drop(client);

    let stats = {
        let deadline = Instant::now() + StdDuration::from_secs(5);
        loop {
            let s = server.stats();
            if s.connections_closed >= 1 {
                break s;
            }
            assert!(Instant::now() < deadline, "session never closed: {s:?}");
            std::thread::sleep(StdDuration::from_millis(10));
        }
    };
    assert!(stats.rejected_frames >= 1, "corruption must be counted");

    // the server survives: a fresh clean session is accepted and works
    let (client_side, server_side) = mem_pair(FramePlan::clean(), FramePlan::clean());
    server.attach(Box::new(server_side));
    let mut client = Client::over(Box::new(client_side));
    client.hello(reg.fingerprint(), "clean").unwrap();
    client.subscribe(Q01).unwrap();
    for item in &stream {
        client.send_item(item).unwrap();
    }
    client.drain().unwrap();
}

#[test]
fn link_reordering_is_absorbed_like_any_other_disorder() {
    let (reg, stream) = workload(200, 23);
    // delay several early frames past their successors on the ingest path
    let plan = FramePlan::clean()
        .delay_frame(3, 5)
        .delay_frame(10, 9)
        .delay_frame(40, 3);
    let core = core_config(&reg, DisorderPolicy::Conservative);
    let expected = oracle_net(core.clone(), &[Q01], &stream);

    let server = Server::start(ServerConfig::new(core)).unwrap();
    let (client_side, server_side) = mem_pair(plan, FramePlan::clean());
    server.attach(Box::new(server_side));
    let mut client = Client::over(Box::new(client_side));
    client.hello(reg.fingerprint(), "reorder").unwrap();
    client.subscribe(Q01).unwrap();
    for item in &stream {
        client.send_item(item).unwrap();
    }
    client.drain().unwrap();
    let outputs = client.take_outputs();

    // the link shifted arrival order by < K, so the match set is the
    // oracle's; emission bookkeeping may differ, hence set comparison
    assert_eq!(net(&outputs), expected);
    assert!(!outputs.is_empty());
}

#[test]
fn busy_advisory_fires_at_the_high_water_mark() {
    let (reg, stream) = workload(300, 31);
    let core = core_config(&reg, DisorderPolicy::Conservative);
    let expected = oracle_net(core.clone(), &[Q01], &stream);

    let mut cfg = ServerConfig::new(core);
    // depth is ≥ 1 the instant a reader enqueues, so the advisory is
    // deterministic; capacity 4 also exercises the blocking-send path
    cfg.queue_capacity = 4;
    cfg.busy_high_water = 1;
    let mut server = Server::start(cfg).unwrap();
    let addr = server.listen("127.0.0.1:0").unwrap().to_string();

    let mut client = Client::connect(&addr).unwrap();
    client.hello(reg.fingerprint(), "flood").unwrap();
    client.subscribe(Q01).unwrap();
    for item in &stream {
        client.send_item(item).unwrap();
    }
    client.drain().unwrap();
    let outputs = client.take_outputs();
    assert!(client.busy_seen() >= 1, "BUSY advisory expected");
    assert_eq!(net(&outputs), expected, "backpressure must not drop events");
    client.bye();
    server.shutdown();
    assert!(server.stats().busy_frames_sent >= 1);
}

#[test]
fn crash_restart_resumes_exactly_once_over_tcp() {
    let (reg, stream) = workload(300, 47);
    let store = temp_store("crash-restart");
    let mk_core = || CoreConfig {
        checkpoint_every: Some(25),
        ..core_config(&reg, DisorderPolicy::Conservative)
    };
    let mk_config = || {
        let mut c = ServerConfig::new(mk_core());
        c.queries = vec![Q01.to_owned()];
        c.store_path = Some(store.clone());
        c
    };
    let expected = oracle_net(mk_core(), &[Q01], &stream);

    // incarnation 1: ingest 160 items (checkpoint lands at 150, the last
    // 10 are covered only by the emission log), then die without warning
    let mut server = Server::start(mk_config()).unwrap();
    let addr = server.listen("127.0.0.1:0").unwrap().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let (resume_from, queries) = client.hello(reg.fingerprint(), "phase-1").unwrap();
    assert_eq!((resume_from, queries), (0, 1));
    client.subscribe(Q01).unwrap();
    for item in &stream[..160] {
        client.send_item(item).unwrap();
    }
    // a stats round-trip flushes the FIFO: all 160 are processed after it
    client.stats().unwrap();
    let mut delivered = client.take_outputs();
    drop(client);
    server.crash();

    // incarnation 2: resume from the persisted store; the client replays
    // from the acknowledged position and re-subscribes by text
    let mut server = Server::start(mk_config()).unwrap();
    let addr = server.listen("127.0.0.1:0").unwrap().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let (resume_from, queries) = client.hello(reg.fingerprint(), "phase-2").unwrap();
    assert_eq!(queries, 1, "query rebuilt from the snapshot");
    assert_eq!(resume_from, 150, "replay cursor = last durable checkpoint");
    let qid = client.subscribe(Q01).unwrap();
    assert_eq!(qid, 0, "re-subscribing by text reattaches, not duplicates");
    for item in &stream[resume_from as usize..] {
        client.send_item(item).unwrap();
    }
    client.drain().unwrap();
    delivered.extend(client.take_outputs());
    let (_, engine_stats) = client.stats().unwrap();
    assert!(
        engine_stats.replayed_suppressed > 0,
        "the replayed overlap (items 150..160) must be deduplicated"
    );
    client.bye();
    server.shutdown();
    let _ = std::fs::remove_file(&store);

    assert_eq!(
        net(&delivered),
        expected,
        "union of both incarnations' outputs must be the exactly-once set"
    );
}

#[test]
fn failed_store_write_is_retried_at_shutdown() {
    let (reg, stream) = workload(200, 61);
    let dir = {
        let mut p = std::env::temp_dir();
        p.push(format!("sequin-test-missing-dir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    };
    let store = dir.join("store.ckpt");
    let mk_config = || {
        let mut c = ServerConfig::new(CoreConfig {
            checkpoint_every: Some(25),
            ..core_config(&reg, DisorderPolicy::Conservative)
        });
        c.queries = vec![Q01.to_owned()];
        c.store_path = Some(store.clone());
        c
    };

    // every persist fails while the store's directory is missing
    let mut server = Server::start(mk_config()).unwrap();
    let addr = server.listen("127.0.0.1:0").unwrap().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client.hello(reg.fingerprint(), "missing-dir").unwrap();
    client.subscribe(Q01).unwrap();
    for item in &stream {
        client.send_item(item).unwrap();
    }
    client.drain().unwrap();
    client.bye();
    assert!(!store.exists());

    // the directory appears; the graceful shutdown must write the store
    std::fs::create_dir_all(&dir).unwrap();
    server.shutdown();
    sequin_engine::CheckpointStore::load(&store).expect("shutdown persists the store");

    let mut server = Server::start(mk_config()).unwrap();
    let addr = server.listen("127.0.0.1:0").unwrap().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let (resume_from, _) = client.hello(reg.fingerprint(), "after-retry").unwrap();
    assert_eq!(
        resume_from,
        stream.len() as u64,
        "resumes at the full position"
    );
    client.bye();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_fallback_drops_a_postmortem_bundle() {
    let (reg, stream) = workload(300, 53);
    let store = temp_store("recovery-bundle");
    let bundle_dir = {
        let mut p = std::env::temp_dir();
        p.push(format!("sequin-test-bundles-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    };
    let mk_config = || {
        let mut c = ServerConfig::new(CoreConfig {
            checkpoint_every: Some(25),
            ..core_config(&reg, DisorderPolicy::Conservative)
        });
        c.queries = vec![Q01.to_owned()];
        c.store_path = Some(store.clone());
        c.bundle_dir = Some(bundle_dir.clone());
        c
    };

    // incarnation 1: ingest enough to persist checkpoints, then die
    let mut server = Server::start(mk_config()).unwrap();
    let addr = server.listen("127.0.0.1:0").unwrap().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client.hello(reg.fingerprint(), "bundle-phase-1").unwrap();
    client.subscribe(Q01).unwrap();
    for item in &stream[..160] {
        client.send_item(item).unwrap();
    }
    client.stats().unwrap(); // flush the FIFO so checkpoints land
    drop(client);
    server.crash();

    // flip one byte inside the newest checkpoint (store container stays
    // valid): resume must take the fallback ladder, not fail startup
    let mut saved = sequin_engine::CheckpointStore::load(&store).unwrap();
    saved.checkpoint_mut(0).unwrap()[25] ^= 0x10;
    saved.save(&store).unwrap();

    let mut server = Server::start(mk_config()).unwrap();
    let bundle_path = bundle_dir.join("recovery-fallback.sqpm");
    let bytes = std::fs::read(&bundle_path).expect("fallback must freeze a bundle");
    let bundle = sequin_obs::Bundle::decode(&bytes).unwrap();
    assert_eq!(bundle.reason, "recovery-fallback");
    assert!(
        bundle.param("checkpoints_rejected").unwrap_or(0) >= 1,
        "the rejected-checkpoint count is the bundle's headline param"
    );
    server.shutdown();
    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_dir_all(&bundle_dir);
}

#[test]
fn mixed_per_query_policies_negotiate_and_verify_over_loopback() {
    let (reg, stream) = workload(400, 59);
    let stream = punctuate(&stream, 50);
    let queries = vec![
        (Q01.to_owned(), Some(DisorderPolicy::Speculative)),
        (Q12.to_owned(), None), // server default (conservative)
        (
            "PATTERN SEQ(T0 a, T2 b) WITHIN 20".to_owned(),
            Some(DisorderPolicy::AdaptiveSlack { accuracy: 90 }),
        ),
    ];
    let report = sequin_server::loopback_run_with_policies(
        core_config(&reg, DisorderPolicy::Conservative),
        &queries,
        &stream,
        16,
    )
    .unwrap();
    assert!(report.outputs > 0, "vacuous comparison");
}

#[test]
fn resubscribing_a_query_keeps_its_original_policy() {
    let (reg, _) = workload(1, 1);
    let server = Server::start(ServerConfig::new(core_config(
        &reg,
        DisorderPolicy::Conservative,
    )))
    .unwrap();
    let (client_side, server_side) = mem_pair(FramePlan::clean(), FramePlan::clean());
    server.attach(Box::new(server_side));
    let mut client = Client::over(Box::new(client_side));
    client.hello(reg.fingerprint(), "negotiate").unwrap();

    let (qid, effective) = client
        .subscribe_with_policy(Q01, Some(DisorderPolicy::Lazy))
        .unwrap();
    assert_eq!(effective, DisorderPolicy::Lazy, "first subscriber binds");

    // a second request for the same text cannot flip the policy: the
    // existing query's policy wins and the ack says so
    let (qid2, effective) = client
        .subscribe_with_policy(Q01, Some(DisorderPolicy::Speculative))
        .unwrap();
    assert_eq!(qid2, qid, "same text reattaches");
    assert_eq!(effective, DisorderPolicy::Lazy, "existing policy wins");

    // and a default-policy request on a fresh text binds the server's
    let (_, effective) = client.subscribe_with_policy(Q12, None).unwrap();
    assert_eq!(effective, DisorderPolicy::Conservative);
}

/// The server side of a connection whose send half can be broken on
/// demand while its receive half stays open, so the engine, not the
/// session reader, is the first to see the failure.
struct BreakableSink {
    inner: Arc<dyn FrameSink>,
    broken: Arc<AtomicBool>,
    failed_sends: Arc<AtomicU64>,
    closed: Arc<AtomicBool>,
}

impl FrameSink for BreakableSink {
    fn send_frame(&self, sealed: &[u8]) -> std::io::Result<()> {
        if self.broken.load(Ordering::SeqCst) {
            self.failed_sends.fetch_add(1, Ordering::SeqCst);
            return Err(std::io::ErrorKind::BrokenPipe.into());
        }
        self.inner.send_frame(sealed)
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.inner.close();
    }
}

struct BreakableTransport {
    inner: MemTransport,
    sink: Arc<BreakableSink>,
}

impl Transport for BreakableTransport {
    fn recv_frame(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        self.inner.recv_frame()
    }

    fn sink(&self) -> Arc<dyn FrameSink> {
        self.sink.clone()
    }
}

#[test]
fn failed_output_write_detaches_only_that_subscriber() {
    let (reg, stream) = workload(400, 71);
    let core = core_config(&reg, DisorderPolicy::Conservative);
    let mut oracle = EngineCore::new(core.clone());
    oracle.subscribe(Q01).unwrap();
    let mut expected = Vec::new();
    for item in &stream {
        expected.extend(oracle.ingest(item));
    }
    expected.extend(oracle.finish());
    let expected: Vec<OutputFrame> = expected
        .iter()
        .map(|(qid, o)| OutputFrame {
            query_id: qid.index() as u64,
            kind: o.kind,
            events: o.m.events().to_vec(),
            emit_seq: o.emit_seq,
            emit_clock: o.emit_clock,
        })
        .collect();

    let mut server = Server::start(ServerConfig::new(core)).unwrap();
    let (a_client, a_server) = mem_pair(FramePlan::clean(), FramePlan::clean());
    let broken = Arc::new(AtomicBool::new(false));
    let failed_sends = Arc::new(AtomicU64::new(0));
    let closed = Arc::new(AtomicBool::new(false));
    let sink = Arc::new(BreakableSink {
        inner: a_server.sink(),
        broken: broken.clone(),
        failed_sends: failed_sends.clone(),
        closed: closed.clone(),
    });
    server.attach(Box::new(BreakableTransport {
        inner: a_server,
        sink,
    }));
    let mut a = Client::over(Box::new(a_client));
    a.hello(reg.fingerprint(), "breaks").unwrap();
    a.subscribe(Q01).unwrap();

    let (b_client, b_server) = mem_pair(FramePlan::clean(), FramePlan::clean());
    server.attach(Box::new(b_server));
    let mut b = Client::over(Box::new(b_client));
    b.hello(reg.fingerprint(), "survives").unwrap();
    b.subscribe(Q01).unwrap();

    let (first, second) = stream.split_at(stream.len() / 2);
    for item in first {
        b.send_item(item).unwrap();
    }
    // STATS is answered after every earlier message of the same session
    b.stats().unwrap();
    assert!(
        !a.take_outputs().is_empty(),
        "A was served before the break"
    );
    broken.store(true, Ordering::SeqCst);
    for item in second {
        b.send_item(item).unwrap();
    }
    b.drain().unwrap();

    assert_eq!(
        failed_sends.load(Ordering::SeqCst),
        1,
        "the engine stops writing to a sink after its first failure"
    );
    assert!(closed.load(Ordering::SeqCst), "the failed sink is closed");
    assert_eq!(b.take_outputs(), expected, "B's stream is exact");
    server.shutdown();
}
