//! The server's v2 reply memo: one LRU per server, shared by the
//! workers and the reactors, and the run-to-completion path it enables —
//! a burst of memo hits is answered by the reactor that read it, without
//! waiting for a worker.
//!
//! The metrics registry is process-global, so the tests serialize on one
//! lock and reset it first.

use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hdpm_core::{CharacterizationConfig, EngineOptions, ShardingConfig};
use hdpm_netlist::{ModuleKind, ModuleSpec};
use hdpm_server::client::{Client, Proto, Request, Response};
use hdpm_server::{Server, ServerConfig};
use hdpm_telemetry as telemetry;

/// The reply memo's bound.
const MEMO_CAPACITY: u64 = 4096;

static GLOBAL_STATE: Mutex<()> = Mutex::new(());

fn fresh_state() -> std::sync::MutexGuard<'static, ()> {
    let guard = GLOBAL_STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    telemetry::reset();
    guard
}

fn engine(max_patterns: usize) -> EngineOptions {
    EngineOptions {
        config: CharacterizationConfig::builder()
            .max_patterns(max_patterns)
            .build()
            .unwrap(),
        sharding: Some(ShardingConfig {
            shards: 4,
            threads: 1,
        }),
        disk_root: None,
        capacity: 64,
    }
}

fn one_worker(max_patterns: usize) -> Server {
    Server::start(
        ServerConfig::builder()
            .workers(1)
            .no_deadline()
            .engine(engine(max_patterns))
            .build()
            .unwrap(),
    )
    .expect("start")
}

fn v2(server: &Server) -> Client {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    Client::from_stream(stream, Proto::V2).expect("v2")
}

fn counter(name: &str) -> u64 {
    telemetry::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// A full-fidelity estimate of a warm 4-bit adder on a short stream.
fn estimate(seed: u64) -> Request {
    Request::Estimate {
        spec: ModuleSpec::new(ModuleKind::RippleAdder, 4usize),
        data: hdpm_server::protocol::data_type("random").expect("known type"),
        cycles: 16,
        seed,
        floor: None,
    }
}

fn source(response: &Response) -> &str {
    match response {
        Response::Estimate(e) => &e.source,
        other => panic!("expected an estimate, got {other:?}"),
    }
}

/// Poll until `ready` holds, failing after 60 s.
fn wait_until(what: &str, ready: impl Fn() -> bool) {
    let patience = Instant::now() + Duration::from_secs(60);
    while !ready() {
        assert!(Instant::now() < patience, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A memo hit does not wait for a worker: with the only worker inside a
/// slow characterization, a repeated v2 estimate on another connection
/// is answered while that characterization is still in flight.
#[test]
fn memo_hits_are_answered_while_the_only_worker_is_busy() {
    let _state = fresh_state();
    let server = one_worker(12_000);
    server
        .engine()
        .warm(&[ModuleSpec::new(ModuleKind::RippleAdder, 4usize)], 0)
        .expect("warm");
    let mut client = v2(&server);
    // The first ask memoizes the reply (on the worker).
    let first = client.call(&estimate(1), None).expect("estimate");
    assert_eq!(source(&first.response), "memory");
    let jobs_before = queue_waits();

    // Occupy the only worker with a cold characterization, and confirm
    // it from the registry (the worker popped the job) and the engine
    // (the characterization is running).
    let mut holder = v2(&server);
    holder
        .send(
            &Request::Characterize {
                spec: ModuleSpec::new(ModuleKind::CsaMultiplier, 8usize),
            },
            None,
        )
        .expect("send");
    holder.flush().expect("flush");
    wait_until("the worker to pick up the characterization", || {
        queue_waits() == jobs_before + 1
    });
    wait_until("the characterization to start", || {
        server.engine().stats().inflight == 1
    });

    let inline_before = counter("server.request.inline");
    let hit = client.call(&estimate(1), None).expect("estimate");
    assert_eq!(
        server.engine().stats().inflight,
        1,
        "the memo hit must not wait for the busy worker"
    );
    assert_eq!(source(&hit.response), "memo");
    assert_eq!(counter("server.request.inline"), inline_before + 1);
    // The inline answer never entered the queue.
    assert_eq!(queue_waits(), jobs_before + 1);

    let characterized = holder.recv().expect("characterize reply");
    assert!(
        matches!(characterized.response, Response::Characterize(_)),
        "{characterized:?}"
    );
    let report = server.shutdown();
    assert_eq!(report.ok, 3);
}

/// Jobs the workers have popped so far.
fn queue_waits() -> u64 {
    telemetry::snapshot()
        .histograms
        .get("server.queue.wait_ns")
        .map_or(0, |h| h.count)
}

/// A full memo evicts its least recently used entry, not the warm set: a
/// payload asked for throughout keeps hitting after more distinct
/// full-fidelity payloads than the memo holds have gone through it.
#[test]
fn a_warm_payload_survives_lru_eviction() {
    let _state = fresh_state();
    let server = one_worker(1500);
    server
        .engine()
        .warm(&[ModuleSpec::new(ModuleKind::RippleAdder, 4usize)], 0)
        .expect("warm");
    let mut client = v2(&server);
    let warm = estimate(0);
    assert_eq!(
        source(&client.call(&warm, None).expect("estimate").response),
        "memory"
    );

    // MEMO_CAPACITY distinct payloads in pipelined bursts, each burst
    // led by the warm payload. The memo then holds the warm payload plus
    // MEMO_CAPACITY others: exactly one eviction.
    const BURST: u64 = 64;
    for burst in 0..MEMO_CAPACITY / BURST {
        let warm_id = client.send(&warm, None).expect("send");
        for seed in 1..=BURST {
            client
                .send(&estimate(burst * BURST + seed), None)
                .expect("send");
        }
        client.flush().expect("flush");
        for _ in 0..=BURST {
            let reply = client.recv().expect("reply");
            let expected = if reply.id == warm_id {
                "memo"
            } else {
                "memory"
            };
            assert_eq!(source(&reply.response), expected, "burst {burst}");
        }
    }
    assert_eq!(counter("server.memo.miss"), 1 + MEMO_CAPACITY);
    assert_eq!(counter("server.memo.evict"), 1, "one entry, not a wipe");

    // The warm payload survived…
    assert_eq!(
        source(&client.call(&warm, None).expect("estimate").response),
        "memo"
    );
    // …and the victim was the least recently used payload (seed 1).
    assert_eq!(
        source(&client.call(&estimate(1), None).expect("estimate").response),
        "memory"
    );
    server.shutdown();
}
