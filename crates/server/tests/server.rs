//! Loopback integration tests of the TCP server: single-flight under
//! concurrency, queue-full shedding, deadlines, slow-client teardown,
//! idle reaping, ordering, connection limits and graceful drain.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use hdpm_core::{CharacterizationConfig, EngineOptions, ShardingConfig};
use hdpm_netlist::{ModuleKind, ModuleSpec, ModuleWidth};
use hdpm_server::client::{Client as TypedClient, Proto, Request, Response};
use hdpm_server::{Server, ServerConfigBuilder};

/// A blocking line-oriented test client.
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
        self.try_send(line).expect("send");
    }

    /// Like [`Client::send`] but surfaces the error — for tests where the
    /// server has already torn the connection down.
    fn try_send(&mut self, line: &str) -> std::io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")
    }

    /// Next reply line, or `None` at EOF / teardown.
    fn recv(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end().to_string()),
            Err(_) => None,
        }
    }

    fn round_trip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv().expect("reply")
    }
}

fn quick_engine() -> EngineOptions {
    EngineOptions {
        config: CharacterizationConfig::builder()
            .max_patterns(1500)
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

/// Config tuned for fast tests; deadline off unless a test sets one.
fn quick_config() -> ServerConfigBuilder {
    hdpm_server::ServerConfig::builder()
        .workers(4)
        .no_deadline()
        .engine(quick_engine())
}

/// A request whose characterization is slow enough (hundreds of ms with
/// the 12k-pattern config below) to occupy a worker while a test floods.
const SLOW_CHARACTERIZE: &str =
    "{\"op\":\"characterize\",\"module\":\"csa_multiplier\",\"width\":8}";
const STATS: &str = "{\"op\":\"stats\"}";

fn slow_engine() -> EngineOptions {
    EngineOptions {
        config: CharacterizationConfig::builder()
            .max_patterns(12_000)
            .build()
            .unwrap(),
        ..quick_engine()
    }
}

#[test]
fn concurrent_clients_on_one_uncached_spec_characterize_once() {
    let server = Server::start(quick_config().build().unwrap()).expect("start");
    let request =
        "{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":6,\"data\":\"counter\",\"cycles\":128}";
    let replies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(&server);
                    client.round_trip(request)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for reply in &replies {
        assert!(reply.contains("\"ok\":true"), "reply: {reply}");
        assert!(reply.contains("charge_per_cycle"), "reply: {reply}");
    }
    let fresh = replies
        .iter()
        .filter(|r| r.contains("\"source\":\"fresh\""))
        .count();
    assert_eq!(fresh, 1, "exactly one request characterized: {replies:?}");
    let stats = Client::connect(&server).round_trip(STATS);
    assert!(
        stats.contains("\"characterizations\":1"),
        "engine ran one characterization: {stats}"
    );
    let report = server.shutdown();
    assert_eq!(report.ok, 9);
    assert_eq!(report.shed, 0);
}

#[test]
fn saturated_queue_sheds_with_structured_overloaded_replies() {
    let server = Server::start(
        quick_config()
            .workers(1)
            .queue_depth(1)
            .engine(slow_engine())
            .build()
            .unwrap(),
    )
    .expect("start");
    let mut client = Client::connect(&server);
    client.send(SLOW_CHARACTERIZE);
    // Flood while the single worker is busy: the queue admits one
    // request, everything else must shed — immediately, not by hanging.
    const FLOOD: usize = 50;
    for _ in 0..FLOOD {
        client.send(STATS);
    }
    let replies: Vec<String> = (0..=FLOOD).map(|_| client.recv().expect("reply")).collect();
    assert!(
        replies[0].contains("\"ok\":true") && replies[0].contains("\"op\":\"characterize\""),
        "slow request completes: {}",
        replies[0]
    );
    let shed = replies
        .iter()
        .filter(|r| r.contains("\"kind\":\"overloaded\""))
        .count();
    let ok = replies.iter().filter(|r| r.contains("\"ok\":true")).count();
    assert!(shed > 0, "a saturated queue must shed: {replies:?}");
    assert_eq!(ok + shed, FLOOD + 1, "every request answered: {replies:?}");
    // The connection survives shedding.
    let after = client.round_trip(STATS);
    assert!(after.contains("\"ok\":true"), "after: {after}");
    let report = server.shutdown();
    assert_eq!(report.shed as usize, shed);
}

#[test]
fn queued_requests_past_their_deadline_reply_timeout() {
    let server = Server::start(
        quick_config()
            .workers(1)
            .deadline(Duration::from_millis(5))
            .engine(slow_engine())
            .build()
            .unwrap(),
    )
    .expect("start");
    let mut client = Client::connect(&server);
    client.send(SLOW_CHARACTERIZE);
    for _ in 0..3 {
        client.send(STATS);
    }
    let first = client.recv().expect("slow reply");
    assert!(first.contains("\"ok\":true"), "popped fresh, runs: {first}");
    let rest: Vec<String> = (0..3).map(|_| client.recv().expect("reply")).collect();
    for reply in &rest {
        assert!(
            reply.contains("\"kind\":\"timeout\"") && reply.contains("deadline exceeded"),
            "queued past deadline: {reply}"
        );
    }
    let report = server.shutdown();
    assert_eq!(report.timeouts, 3);
}

#[test]
fn per_request_deadline_field_tightens_the_server_deadline() {
    let server = Server::start(
        quick_config()
            .workers(1)
            .engine(slow_engine())
            .build()
            .unwrap(),
    )
    .expect("start");
    let mut client = Client::connect(&server);
    client.send(SLOW_CHARACTERIZE);
    client.send("{\"op\":\"stats\",\"deadline_ms\":1}");
    let first = client.recv().expect("slow reply");
    assert!(first.contains("\"ok\":true"), "{first}");
    let second = client.recv().expect("reply");
    assert!(
        second.contains("\"kind\":\"timeout\""),
        "request-level deadline honoured with no server deadline: {second}"
    );
    server.shutdown();
}

#[test]
fn slow_client_is_disconnected_by_write_timeout_and_server_survives() {
    let server = Server::start(
        quick_config()
            .queue_depth(100_000)
            .write_timeout(Duration::from_millis(200))
            .build()
            .unwrap(),
    )
    .expect("start");
    // Each reply echoes the unknown op, so a 4 KiB op makes ~4 KiB
    // replies. The client keeps writing and never reads: once the reply
    // path outgrows the socket buffers the server's write times out, it
    // tears the connection down, its reader exits, and our own writes
    // back up until they fail.
    let request = format!("{{\"op\":\"{}\"}}\n", "x".repeat(4096));
    let mut client = Client::connect(&server);
    client
        .stream
        .set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    const CAP: usize = 50_000;
    let mut submitted = 0usize;
    for _ in 0..CAP {
        if client.stream.write_all(request.as_bytes()).is_err() {
            break; // server stopped reading after tearing us down
        }
        submitted += 1;
    }
    assert!(
        submitted < CAP,
        "writes must eventually fail once the server disconnects us"
    );
    client
        .stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut received = 0usize;
    while client.recv().is_some() {
        received += 1;
    }
    assert!(
        received < submitted,
        "teardown must drop replies ({received} of {submitted} delivered)"
    );
    // The server is still healthy for other clients.
    let ok = Client::connect(&server).round_trip(STATS);
    assert!(ok.contains("\"ok\":true"), "{ok}");
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped() {
    let server = Server::start(
        quick_config()
            .idle_timeout(Duration::from_millis(100))
            .build()
            .unwrap(),
    )
    .expect("start");
    let mut client = Client::connect(&server);
    let reply = client.round_trip(STATS);
    assert!(reply.contains("\"ok\":true"));
    std::thread::sleep(Duration::from_millis(600));
    // The server shut the socket down; we observe EOF without sending.
    assert_eq!(client.recv(), None, "reaped connection is closed");
    server.shutdown();
}

/// Estimates whose operand streams cannot be generated (width outside
/// 2..=32) or would be unboundedly large (cycles over the cap) are
/// refused with `bad_request` on both protocols — and the one worker
/// that read them is still alive to answer a fresh connection.
#[test]
fn out_of_range_estimates_are_refused_and_the_worker_survives() {
    let server = Server::start(quick_config().workers(1).build().unwrap()).expect("start");
    for line in [
        "{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":40}",
        "{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":8,\"cycles\":1000001}",
        // More input bits than characterization can simulate (80, 68).
        "{\"op\":\"characterize\",\"module\":\"ripple_adder\",\"width\":40}",
        "{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":8,\"width2\":60}",
    ] {
        let reply = Client::connect(&server).round_trip(line);
        assert!(
            reply.contains("\"kind\":\"bad_request\""),
            "{line}: {reply}"
        );
        let stats = Client::connect(&server).round_trip(STATS);
        assert!(stats.contains("\"ok\":true"), "after {line}: {stats}");
    }
    let typed = |spec: ModuleSpec, cycles: u32| Request::Estimate {
        spec,
        data: hdpm_server::protocol::data_type("random").expect("known type"),
        cycles,
        seed: 7,
        floor: None,
    };
    for request in [
        typed(ModuleSpec::new(ModuleKind::RippleAdder, 40usize), 2000),
        typed(ModuleSpec::new(ModuleKind::RippleAdder, 8usize), 1_000_001),
        Request::Characterize {
            spec: ModuleSpec::new(ModuleKind::RippleAdder, 40usize),
        },
        typed(
            ModuleSpec::new(ModuleKind::RippleAdder, ModuleWidth::Rect(8, 60)),
            2000,
        ),
    ] {
        let v2 = || {
            let stream = TcpStream::connect(server.local_addr()).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            TypedClient::from_stream(stream, Proto::V2).expect("v2")
        };
        let reply = v2().call(&request, None).expect("v2 reply");
        assert!(
            matches!(&reply.response, Response::Error { kind, .. } if kind == "bad_request"),
            "{request:?}: {reply:?}"
        );
        let stats = v2().call(&Request::Stats, None).expect("v2 stats");
        assert!(matches!(stats.response, Response::Stats(_)), "{stats:?}");
    }
    server.shutdown();
}

#[test]
fn malformed_and_invalid_utf8_lines_do_not_kill_the_connection() {
    let server = Server::start(quick_config().build().unwrap()).expect("start");
    let mut client = Client::connect(&server);
    client.stream.write_all(b"not json\n").unwrap();
    client.stream.write_all(&[0xFF, 0xFE, 0x80, b'\n']).unwrap();
    client.send(STATS);
    let first = client.recv().expect("reply");
    assert!(first.contains("\"kind\":\"malformed\""), "{first}");
    let second = client.recv().expect("reply");
    assert!(second.contains("\"kind\":\"invalid_utf8\""), "{second}");
    let third = client.recv().expect("reply");
    assert!(third.contains("\"ok\":true"), "{third}");
    server.shutdown();
}

#[test]
fn replies_arrive_in_request_order_despite_the_worker_pool() {
    let server = Server::start(quick_config().build().unwrap()).expect("start");
    // Warm the spec so estimates are fast but still slower than stats.
    server
        .engine()
        .warm(&[ModuleSpec::new(ModuleKind::RippleAdder, 4usize)], 0)
        .expect("warm");
    let estimate =
        "{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":4,\"data\":\"counter\",\"cycles\":64}";
    let mut client = Client::connect(&server);
    const PAIRS: usize = 100;
    for _ in 0..PAIRS {
        client.send(estimate);
        client.send(STATS);
    }
    for i in 0..PAIRS {
        let first = client.recv().expect("reply");
        let second = client.recv().expect("reply");
        assert!(
            first.contains("\"op\":\"estimate\""),
            "pair {i}: expected estimate, got {first}"
        );
        assert!(
            second.contains("\"op\":\"stats\""),
            "pair {i}: expected stats, got {second}"
        );
    }
    server.shutdown();
}

#[test]
fn connection_limit_rejects_with_overloaded() {
    let server = Server::start(quick_config().max_connections(1).build().unwrap()).expect("start");
    let mut first = Client::connect(&server);
    assert!(first.round_trip(STATS).contains("\"ok\":true"));
    let mut second = Client::connect(&server);
    let reply = second.recv().expect("rejection reply");
    assert!(
        reply.contains("\"kind\":\"overloaded\"") && reply.contains("connection limit"),
        "{reply}"
    );
    assert_eq!(second.recv(), None, "rejected connection is closed");
    // The admitted connection still works.
    assert!(first.round_trip(STATS).contains("\"ok\":true"));
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let server = Server::start(
        quick_config()
            .workers(2)
            .engine(slow_engine())
            .build()
            .unwrap(),
    )
    .expect("start");
    let mut client = Client::connect(&server);
    client.send(SLOW_CHARACTERIZE);
    // Let the worker pick the job up, then drain while it runs.
    std::thread::sleep(Duration::from_millis(50));
    let report = server.shutdown();
    assert_eq!(report.ok, 1, "in-flight request completed during drain");
    let reply = client.recv().expect("reply flushed before drain finished");
    assert!(
        reply.contains("\"ok\":true") && reply.contains("\"op\":\"characterize\""),
        "{reply}"
    );
    assert_eq!(client.recv(), None, "connection closed after drain");
}

#[test]
fn server_cold_starts_and_serves_from_a_dirty_model_store() {
    let root = std::env::temp_dir().join(format!("hdpm_server_dirty_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir(&root).expect("scratch root");
    let engine_options = || EngineOptions {
        disk_root: Some(root.clone()),
        ..quick_engine()
    };
    // A torn artifact planted at the exact key the engine will ask for.
    let spec = ModuleSpec::new(ModuleKind::RippleAdder, 5usize);
    let key = hdpm_core::ModelKey::new(spec, &engine_options().config, 4);
    std::fs::write(root.join(key.artifact_file_name()), "{torn artifact").expect("plant");

    let server = Server::start(quick_config().engine(engine_options()).build().unwrap())
        .expect("cold start survives a dirty store");
    let request =
        "{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":5,\"data\":\"counter\",\"cycles\":64}";
    let reply = Client::connect(&server).round_trip(request);
    assert!(
        reply.contains("\"ok\":true") && reply.contains("\"source\":\"fresh\""),
        "corrupt artifact is quarantined and re-characterized, not fatal: {reply}"
    );
    assert!(
        root.join(hdpm_core::QUARANTINE_DIR)
            .join(key.artifact_file_name())
            .exists(),
        "the torn artifact was moved aside"
    );
    server.shutdown();

    // A second server over the repaired root serves straight from disk.
    let server =
        Server::start(quick_config().engine(engine_options()).build().unwrap()).expect("restart");
    let reply = Client::connect(&server).round_trip(request);
    assert!(
        reply.contains("\"ok\":true") && reply.contains("\"source\":\"disk\""),
        "repaired store is a warm disk tier: {reply}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn draining_server_sheds_requests_that_arrive_too_late() {
    let server = Server::start(quick_config().build().unwrap()).expect("start");
    let mut client = Client::connect(&server);
    assert!(client.round_trip(STATS).contains("\"ok\":true"));
    server.shutdown();
    // After drain the socket is closed; the write may fail outright (EPIPE)
    // or the read observes EOF — never a hang, never a torn loop. A request
    // that squeaks in mid-drain earns a structured draining reply instead.
    if client.try_send(STATS).is_ok() {
        match client.recv() {
            None => {}
            Some(reply) => assert!(reply.contains("\"kind\":\"overloaded\""), "{reply}"),
        }
    }
}
