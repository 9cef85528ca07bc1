//! Queue-pressure metrics vs the wire: every structured `overloaded` or
//! `timeout` reply a client receives must be matched by exactly one
//! increment of the corresponding `server.queue.*` counter — the
//! dashboards and the clients must never disagree about how much load
//! was refused.
//!
//! The metrics registry is process-global, so both tests serialize on
//! one lock and reset it first.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hdpm_core::{CharacterizationConfig, EngineOptions, ShardingConfig};
use hdpm_netlist::{ModuleKind, ModuleSpec};
use hdpm_server::client::{Client as TypedClient, Proto, Request, Response};
use hdpm_server::{Server, ServerConfig};
use hdpm_telemetry as telemetry;

static GLOBAL_STATE: Mutex<()> = Mutex::new(());

fn fresh_state() -> std::sync::MutexGuard<'static, ()> {
    let guard = GLOBAL_STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    telemetry::reset();
    guard
}

/// A characterization slow enough (12k patterns) to occupy the single
/// worker while the tests pile requests up behind it.
const SLOW_CHARACTERIZE: &str =
    "{\"op\":\"characterize\",\"module\":\"csa_multiplier\",\"width\":8}";
const STATS: &str = "{\"op\":\"stats\"}";

fn slow_engine() -> EngineOptions {
    EngineOptions {
        config: CharacterizationConfig::builder()
            .max_patterns(12_000)
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

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("send");
        self.stream.write_all(b"\n").expect("send");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("reply");
        line.trim_end().to_string()
    }
}

fn counter(name: &str) -> u64 {
    telemetry::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// Poll the metrics registry until `ready` holds (the server's own
/// record of where its queue stands), failing after 30 s.
fn wait_until(what: &str, ready: impl Fn(&telemetry::MetricsSnapshot) -> bool) {
    let patience = Instant::now() + Duration::from_secs(30);
    while !ready(&telemetry::snapshot()) {
        assert!(Instant::now() < patience, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn shed_counter_matches_overloaded_replies_on_the_wire() {
    let _state = fresh_state();
    let config = || {
        ServerConfig::builder()
            .workers(1)
            .queue_depth(1)
            .no_deadline()
            .engine(slow_engine())
            .build()
            .unwrap()
    };
    let server = Server::start(config()).expect("start");
    let mut client = Client::connect(&server);
    client.send(SLOW_CHARACTERIZE);
    const FLOOD: usize = 40;
    for _ in 0..FLOOD {
        client.send(STATS);
    }
    let replies: Vec<String> = (0..=FLOOD).map(|_| client.recv()).collect();
    let overloaded = replies
        .iter()
        .filter(|r| r.contains("\"kind\":\"overloaded\""))
        .count() as u64;
    assert!(overloaded > 0, "a saturated queue must shed: {replies:?}");
    assert_eq!(
        counter("server.queue.shed_full"),
        overloaded,
        "one shed_full increment per overloaded reply"
    );
    assert_eq!(counter("server.queue.timeout"), 0);
    let report = server.shutdown();
    assert_eq!(report.shed, overloaded);

    // v2: a read burst of frames is queued (or refused) as one job, and
    // a refused burst owes one shed per frame, not one per burst.
    telemetry::reset();
    let server = Server::start(config()).expect("start");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut client = TypedClient::from_stream(stream, Proto::V2).expect("v2");
    let mut burst = |frames: usize, request: &Request| {
        for _ in 0..frames {
            client.send(request, None).expect("send");
        }
        client.flush().expect("flush");
    };
    // Occupy the worker, then fill the one queue slot behind it...
    let slow = Request::Characterize {
        spec: ModuleSpec::new(ModuleKind::CsaMultiplier, 8usize),
    };
    burst(1, &slow);
    wait_until("the worker to pick up the characterization", |m| {
        m.histograms
            .get("server.queue.wait_ns")
            .is_some_and(|h| h.count == 1)
    });
    burst(1, &Request::Stats);
    wait_until("the queue to fill", |m| {
        m.gauges.get("server.queue.depth") == Some(&1.0)
    });
    // ...so that a whole multi-frame burst is refused.
    const BURST: usize = 8;
    burst(BURST, &Request::Stats);
    let replies: Vec<_> = (0..BURST + 2)
        .map(|_| client.recv().expect("v2 reply"))
        .collect();
    let overloaded = replies
        .iter()
        .filter(|r| matches!(&r.response, Response::Error { kind, .. } if kind == "overloaded"))
        .count() as u64;
    assert_eq!(
        overloaded, BURST as u64,
        "the burst is refused: {replies:?}"
    );
    assert_eq!(
        counter("server.queue.shed_full"),
        overloaded,
        "one shed_full increment per overloaded frame"
    );
    let report = server.shutdown();
    assert_eq!(report.shed, overloaded);
}

#[test]
fn timeout_counter_matches_timeout_replies_on_the_wire() {
    let _state = fresh_state();
    let server = Server::start(
        ServerConfig::builder()
            .workers(1)
            .deadline(Duration::from_millis(5))
            .engine(slow_engine())
            .build()
            .unwrap(),
    )
    .expect("start");
    let mut client = Client::connect(&server);
    client.send(SLOW_CHARACTERIZE);
    const QUEUED: usize = 4;
    for _ in 0..QUEUED {
        client.send(STATS);
    }
    let replies: Vec<String> = (0..=QUEUED).map(|_| client.recv()).collect();
    assert!(
        replies[0].contains("\"ok\":true"),
        "the in-flight request completes: {}",
        replies[0]
    );
    let timeouts = replies
        .iter()
        .filter(|r| r.contains("\"kind\":\"timeout\""))
        .count() as u64;
    assert_eq!(
        timeouts, QUEUED as u64,
        "everything queued behind the slow request expires: {replies:?}"
    );
    assert_eq!(
        counter("server.queue.timeout"),
        timeouts,
        "one timeout increment per timeout reply"
    );
    assert_eq!(counter("server.queue.shed_full"), 0);
    // Queue-wait time was recorded for every popped job, expired or not.
    let waits = telemetry::snapshot()
        .histograms
        .get("server.queue.wait_ns")
        .map_or(0, |h| h.count);
    assert_eq!(waits, 1 + QUEUED as u64);
    let report = server.shutdown();
    assert_eq!(report.timeouts, timeouts);
}
