//! OUTPUT delivery over real sockets with overlapping subscriptions.
//!
//! The server encodes each output once and writes each subscriber's share
//! of an engine batch in one send. Whatever the fan-out, every connection
//! must still receive exactly its in-process oracle stream: the same
//! bytes, in engine order, with DRAIN_ACK after the last output.

use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration as StdDuration;

use sequin::engine::{EngineConfig, Strategy};
use sequin::netsim::delay_shuffle;
use sequin::server::frame::{read_frame, write_frame};
use sequin::server::{
    decode_frame, encode_frame, CoreConfig, EngineCore, Frame, OutputFrame, Server, ServerConfig,
};
use sequin::types::{Duration, StreamItem, TypeRegistry};
use sequin::workload::{Synthetic, SyntheticConfig};

/// Output-heavy: about 0.8 matches per event.
const Q0: &str =
    "PATTERN SEQ(T0 a, T1 b, T2 c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 1000";
const Q1: &str = "PATTERN SEQ(T1 a, T2 b) WHERE a.tag == b.tag WITHIN 1000";
/// Large enough that the drain releases well over one 64 KiB flush of
/// outputs.
const K: u64 = 2000;

fn workload() -> (Arc<TypeRegistry>, Vec<StreamItem>) {
    let synth = Synthetic::new(SyntheticConfig::default());
    let history = synth.generate(3000, 5);
    let stream = delay_shuffle(&history, 0.3, 100, 5 ^ 0x5eed);
    (synth.registry().clone(), stream)
}

fn core_config(reg: &Arc<TypeRegistry>) -> CoreConfig {
    CoreConfig::new(
        reg.clone(),
        Strategy::Native,
        EngineConfig::with_k(Duration::new(K)),
    )
}

/// The sealed OUTPUT envelopes an in-process core emits for `queries`
/// (subscribed in this order), per query id, in emission order.
fn oracle(reg: &Arc<TypeRegistry>, queries: &[&str], stream: &[StreamItem]) -> Vec<(u64, Vec<u8>)> {
    let mut core = EngineCore::new(core_config(reg));
    for q in queries {
        core.subscribe(q).unwrap();
    }
    let mut outputs = Vec::new();
    for item in stream {
        outputs.extend(core.ingest(item));
    }
    outputs.extend(core.finish());
    outputs
        .iter()
        .map(|(qid, o)| {
            let frame = OutputFrame {
                query_id: qid.index() as u64,
                kind: o.kind,
                events: o.m.events().to_vec(),
                emit_seq: o.emit_seq,
                emit_clock: o.emit_clock,
            };
            (frame.query_id, encode_frame(&Frame::Output(frame)))
        })
        .collect()
}

/// A raw protocol connection: frames are written by the test thread and
/// read, still sealed, by a reader thread, so the server never blocks on
/// a full socket while the test is busy sending.
struct Conn {
    stream: TcpStream,
    frames: Receiver<Vec<u8>>,
    reader: Option<JoinHandle<()>>,
}

impl Conn {
    fn open(addr: &str, fingerprint: u64) -> Conn {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut read_half = stream.try_clone().unwrap();
        let (tx, frames) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            while let Ok(Some(sealed)) = read_frame(&mut read_half) {
                if tx.send(sealed).is_err() {
                    break;
                }
            }
        });
        let mut conn = Conn {
            stream,
            frames,
            reader: Some(reader),
        };
        conn.send(&Frame::Hello {
            fingerprint,
            client: "served-delivery".into(),
        });
        assert!(matches!(conn.next(), Some(Frame::HelloAck { .. })));
        conn
    }

    fn send(&mut self, frame: &Frame) {
        write_frame(&mut self.stream, &encode_frame(frame)).unwrap();
    }

    fn next_sealed(&self) -> Option<Vec<u8>> {
        self.frames.recv_timeout(StdDuration::from_secs(60)).ok()
    }

    fn next(&self) -> Option<Frame> {
        self.next_sealed().map(|s| decode_frame(&s).unwrap())
    }

    fn subscribe(&mut self, query: &str) -> u64 {
        self.send(&Frame::Subscribe {
            query: query.into(),
            policy: None,
        });
        match self.next() {
            Some(Frame::SubAck { query_id, .. }) => query_id,
            other => panic!("expected SUB_ACK, got {other:?}"),
        }
    }

    /// Streams `items` as EVENT_BATCH frames of up to 64 events, with
    /// punctuations in place.
    fn ingest(&mut self, items: &[StreamItem]) {
        let mut batch = Vec::new();
        for item in items {
            match item {
                StreamItem::Event(e) => {
                    batch.push(e.clone());
                    if batch.len() == 64 {
                        self.send(&Frame::EventBatch(std::mem::take(&mut batch)));
                    }
                }
                StreamItem::Punctuation(ts) => {
                    if !batch.is_empty() {
                        self.send(&Frame::EventBatch(std::mem::take(&mut batch)));
                    }
                    self.send(&Frame::Punctuation(*ts));
                }
            }
        }
        if !batch.is_empty() {
            self.send(&Frame::EventBatch(batch));
        }
    }

    /// Every sealed frame up to and including the first that is not an
    /// OUTPUT, which is returned decoded.
    fn outputs_until_reply(&self) -> (Vec<Vec<u8>>, Frame) {
        let mut outputs = Vec::new();
        loop {
            let sealed = self.next_sealed().expect("connection ended before a reply");
            match decode_frame(&sealed).unwrap() {
                Frame::Output(_) => outputs.push(sealed),
                reply => return (outputs, reply),
            }
        }
    }

    /// Everything still arriving until the server closes the connection.
    fn close(mut self) -> Vec<Vec<u8>> {
        self.send(&Frame::Bye);
        self.reader.take().unwrap().join().unwrap();
        self.frames.try_iter().collect()
    }

    /// Drops the connection without BYE; returns any frames still
    /// unread.
    fn abort(mut self) -> Vec<Vec<u8>> {
        let _ = self.stream.shutdown(Shutdown::Both);
        self.reader.take().unwrap().join().unwrap();
        self.frames.try_iter().collect()
    }
}

fn start(reg: &Arc<TypeRegistry>) -> (Server, String) {
    let mut cfg = ServerConfig::new(core_config(reg));
    // keep BUSY advisories out of the byte-for-byte comparison
    cfg.busy_high_water = usize::MAX;
    let mut server = Server::start(cfg).unwrap();
    let addr = server.listen("127.0.0.1:0").unwrap().to_string();
    (server, addr)
}

fn query_of(sealed: &[u8]) -> u64 {
    match decode_frame(sealed).unwrap() {
        Frame::Output(o) => o.query_id,
        other => panic!("not an OUTPUT: {other:?}"),
    }
}

fn only(oracle: &[(u64, Vec<u8>)], queries: &[u64]) -> Vec<Vec<u8>> {
    oracle
        .iter()
        .filter(|(q, _)| queries.contains(q))
        .map(|(_, sealed)| sealed.clone())
        .collect()
}

/// Subscribes A to Q0 and B to Q0 and Q1, in that order, so Q0 is query 0.
fn subscribe_both(addr: &str, fingerprint: u64) -> (Conn, Conn) {
    let mut a = Conn::open(addr, fingerprint);
    let mut b = Conn::open(addr, fingerprint);
    assert_eq!(a.subscribe(Q0), 0);
    assert_eq!(b.subscribe(Q0), 0, "same text reattaches");
    assert_eq!(b.subscribe(Q1), 1);
    (a, b)
}

#[test]
fn overlapping_subscribers_each_receive_their_exact_oracle_stream() {
    let (reg, stream) = workload();
    let oracle = oracle(&reg, &[Q0, Q1], &stream);
    let (want_a, want_b) = (only(&oracle, &[0]), only(&oracle, &[0, 1]));
    assert!(
        want_a.len() > 1000,
        "output-heavy: {} outputs",
        want_a.len()
    );
    assert!(want_b.len() > want_a.len(), "Q1 must add outputs for B");

    let (mut server, addr) = start(&reg);
    let (mut a, mut b) = subscribe_both(&addr, reg.fingerprint());
    b.ingest(&stream);
    b.send(&Frame::Drain);
    let (got_b, reply) = b.outputs_until_reply();
    assert_eq!(reply, Frame::DrainAck);
    assert!(got_b == want_b, "B's stream differs from the oracle");
    assert!(b.close().is_empty(), "nothing may follow DRAIN_ACK");

    // A's STATS reply is written after everything the drain released
    a.send(&Frame::StatsReq);
    let (got_a, reply) = a.outputs_until_reply();
    assert!(matches!(reply, Frame::StatsReply { .. }), "{reply:?}");
    assert!(got_a == want_a, "A's stream differs from the oracle");
    assert!(a.close().is_empty());

    server.shutdown();
    let stats = server.stats();
    // two handshakes, three SUB_ACKs, one DRAIN_ACK, one STATS_REPLY
    let replies = 2 + 3 + 1 + 1;
    assert_eq!(
        stats.frames_sent,
        (want_a.len() + want_b.len() + replies) as u64
    );
}

#[test]
fn a_subscriber_dropping_mid_stream_leaves_the_other_exact() {
    let (reg, stream) = workload();
    let oracle = oracle(&reg, &[Q0, Q1], &stream);
    let (want_a, want_b) = (only(&oracle, &[0]), only(&oracle, &[0, 1]));

    let (mut server, addr) = start(&reg);
    let (a, mut b) = subscribe_both(&addr, reg.fingerprint());
    let (first, rest) = stream.split_at(stream.len() / 3);
    b.ingest(first);
    // fence: B's STATS reply follows every output of its first third
    b.send(&Frame::StatsReq);
    let (mut got_b, reply) = b.outputs_until_reply();
    assert!(matches!(reply, Frame::StatsReply { .. }), "{reply:?}");

    // A was written its share of that third, then drops without BYE
    let served = got_b.iter().filter(|s| query_of(s) == 0).count();
    assert!(served > 0);
    let got_a: Vec<Vec<u8>> = (0..served).map(|_| a.next_sealed().unwrap()).collect();
    assert!(
        got_a[..] == want_a[..served],
        "A's prefix differs from the oracle"
    );
    assert!(a.abort().is_empty());

    b.ingest(rest);
    b.send(&Frame::Drain);
    let (tail, reply) = b.outputs_until_reply();
    assert_eq!(reply, Frame::DrainAck);
    got_b.extend(tail);
    assert!(got_b == want_b, "B's stream differs from the oracle");
    assert!(b.close().is_empty(), "nothing may follow DRAIN_ACK");
    server.shutdown();
}
