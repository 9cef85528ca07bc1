//! Cross-version compatibility matrix: one server, both protocols.
//!
//! The golden byte-for-byte v1 fixture replay lives in `golden.rs`
//! (fresh server, serialized execution — the fixtures embed stateful
//! cache counters). This file covers what golden replay cannot: v1 and
//! v2 negotiated side by side on one listener, answer agreement across
//! the op × protocol matrix (errors included, with the stdio loop as a
//! third transport), and v1 ordering guarantees holding while v2
//! traffic shares the worker pool.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use hdpm_core::{CharacterizationConfig, EngineOptions, Fidelity, ShardingConfig};
use hdpm_netlist::{ModuleKind, ModuleSpec, ModuleWidth};
use hdpm_server::client::{Client, Proto, Request, Response};
use hdpm_server::{wire, Server, ServerConfig};

fn quick_config() -> ServerConfig {
    ServerConfig::builder()
        .workers(4)
        .no_deadline()
        .engine(EngineOptions {
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
        })
        .build()
        .unwrap()
}

/// The op × protocol matrix: every request shape answered on both
/// protocols by one server, with identical numbers. Estimates and
/// characterizations are deterministic, so the answers must agree
/// bit-for-bit (modulo the v2 reply memo relabeling the source).
#[test]
fn every_op_agrees_across_protocol_versions() {
    let server = Server::start(quick_config()).expect("start");
    let mut v1 = Client::connect(server.local_addr(), Proto::V1).expect("v1");
    let mut v2 = Client::connect(server.local_addr(), Proto::V2).expect("v2");
    let specs = [
        ModuleSpec::new(ModuleKind::RippleAdder, 6usize),
        ModuleSpec::new(ModuleKind::CsaMultiplier, ModuleWidth::Rect(4, 6)),
        ModuleSpec::new(ModuleKind::Subtractor, 8usize),
    ];
    for spec in specs {
        // Characterize first on v1 (populates the cache), re-characterize
        // on v2 (hits it): sources differ by design, payloads must not.
        let c1 = match v1
            .call(&Request::Characterize { spec }, None)
            .expect("v1 characterize")
            .response
        {
            Response::Characterize(c) => c,
            other => panic!("v1: {other:?}"),
        };
        let c2 = match v2
            .call(&Request::Characterize { spec }, None)
            .expect("v2 characterize")
            .response
        {
            Response::Characterize(c) => c,
            other => panic!("v2: {other:?}"),
        };
        assert_eq!(c1.input_bits, c2.input_bits, "{spec}");
        assert_eq!(c1.transitions, c2.transitions, "{spec}");
        assert_eq!(c1.converged_after, c2.converged_after, "{spec}");
        assert_eq!(c1.source, "fresh", "{spec}");
        assert_eq!(c2.source, "memory", "{spec}");

        // Estimates need the analytic input distribution, which (on both
        // protocols alike) fits m1-wide operands only — rectangular
        // specs are characterize-only on the wire today.
        let (m1, m2) = spec.width.operand_widths();
        if m1 != m2 {
            continue;
        }
        for data in ["counter", "speech"] {
            let request = Request::Estimate {
                spec,
                data: hdpm_server::protocol::data_type(data).expect("known type"),
                cycles: 256,
                seed: 11,
                floor: None,
            };
            let e1 = match v1.call(&request, None).expect("v1 estimate").response {
                Response::Estimate(e) => e,
                other => panic!("v1: {other:?}"),
            };
            let e2 = match v2.call(&request, None).expect("v2 estimate").response {
                Response::Estimate(e) => e,
                other => panic!("v2: {other:?}"),
            };
            assert_eq!(e1.charge_per_cycle, e2.charge_per_cycle, "{spec} {data}");
            assert_eq!(e1.via_average, e2.via_average, "{spec} {data}");
            assert_eq!(e1.average_hd, e2.average_hd, "{spec} {data}");
        }
    }
    // Stats agree on the engine-lifetime counters (snapshot drift aside:
    // the two calls are adjacent, nothing else is running).
    let s1 = match v1.call(&Request::Stats, None).expect("v1 stats").response {
        Response::Stats(s) => s,
        other => panic!("v1: {other:?}"),
    };
    let s2 = match v2.call(&Request::Stats, None).expect("v2 stats").response {
        Response::Stats(s) => s,
        other => panic!("v2: {other:?}"),
    };
    assert_eq!(s1.characterizations, s2.characterizations);
    assert_eq!(s1.entries, s2.entries);
    server.shutdown();
}

/// Raw v1 bytes on the wire are untouched by the v2 path sharing the
/// listener: a JSON-lines exchange next to a framing v2 client gets
/// byte-identical replies to the same exchange on a v1-only server.
#[test]
fn v1_wire_bytes_are_unchanged_next_to_v2_traffic() {
    let exchange = |server: &Server, with_v2_neighbour: bool| -> Vec<String> {
        let neighbour = with_v2_neighbour.then(|| {
            let mut c = Client::connect(server.local_addr(), Proto::V2).expect("v2");
            c.call(&Request::Ping, None).expect("ping");
            c
        });
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let requests = [
            "{\"op\":\"characterize\",\"module\":\"ripple_adder\",\"width\":4}",
            "{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":4,\"data\":\"counter\",\"cycles\":64}",
            "{\"op\":\"bogus\"}",
        ];
        for request in requests {
            stream.write_all(request.as_bytes()).expect("send");
            stream.write_all(b"\n").expect("send");
        }
        let mut reader = BufReader::new(stream);
        let replies = (0..requests.len())
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).expect("reply");
                line
            })
            .collect();
        drop(neighbour);
        replies
    };
    // Tracing off: trace ids are per-request nonces and would differ.
    let solo_config = || {
        ServerConfig::builder()
            .workers(1)
            .no_deadline()
            .tracing(false)
            .engine(EngineOptions {
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
            })
            .build()
            .unwrap()
    };
    let solo = Server::start(solo_config()).expect("start");
    let baseline = exchange(&solo, false);
    solo.shutdown();
    let mixed = Server::start(solo_config()).expect("start");
    let beside_v2 = exchange(&mixed, true);
    mixed.shutdown();
    assert_eq!(
        baseline, beside_v2,
        "v1 bytes drift when v2 shares the listener"
    );
}

/// v1 ordering holds while v2 clients hammer the same worker pool: the
/// sequencer orders one connection's replies, not the global queue. One
/// reactor serves every connection, so the v2 memo hits it answers
/// itself interleave with the v1 lines it queues for the workers.
#[test]
fn v1_ordering_survives_concurrent_v2_load() {
    let server = Server::start(
        ServerConfig::builder()
            .reactors(1)
            .workers(4)
            .no_deadline()
            .engine(quick_config().engine)
            .build()
            .unwrap(),
    )
    .expect("start");
    server
        .engine()
        .warm(&[ModuleSpec::new(ModuleKind::RippleAdder, 4usize)], 0)
        .expect("warm");
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Two v2 hammers in the background.
        for _ in 0..2 {
            scope.spawn(|| {
                let mut client = Client::connect(server.local_addr(), Proto::V2).expect("v2");
                let request = Request::Estimate {
                    spec: ModuleSpec::new(ModuleKind::RippleAdder, 4usize),
                    data: hdpm_server::protocol::data_type("counter").expect("known"),
                    cycles: 64,
                    seed: 7,
                    floor: None,
                };
                client.call(&request, None).expect("v2 estimate");
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let reply = client.call(&request, None).expect("v2 estimate");
                    match reply.response {
                        Response::Estimate(e) => assert_eq!(e.source, "memo"),
                        other => panic!("v2: {other:?}"),
                    }
                }
            });
        }
        // Foreground: strict v1 reply ordering over interleaved ops.
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let estimate =
            "{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":4,\"data\":\"counter\",\"cycles\":64}";
        const PAIRS: usize = 50;
        for _ in 0..PAIRS {
            stream.write_all(estimate.as_bytes()).expect("send");
            stream.write_all(b"\n").expect("send");
            stream.write_all(b"{\"op\":\"stats\"}\n").expect("send");
        }
        let mut reader = BufReader::new(stream);
        for i in 0..PAIRS {
            let mut first = String::new();
            reader.read_line(&mut first).expect("reply");
            let mut second = String::new();
            reader.read_line(&mut second).expect("reply");
            assert!(
                first.contains("\"op\":\"estimate\""),
                "pair {i}: expected estimate, got {first}"
            );
            assert!(
                second.contains("\"op\":\"stats\""),
                "pair {i}: expected stats, got {second}"
            );
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    server.shutdown();
}

/// A v2 connection speaking raw frames, so replies can be compared
/// byte for byte and a burst's frames leave in one write.
struct RawV2 {
    stream: TcpStream,
}

impl RawV2 {
    fn connect(server: &Server) -> RawV2 {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(120)))
            .unwrap();
        stream.write_all(&wire::MAGIC).expect("preamble");
        RawV2 { stream }
    }

    /// Send `(id, payload)` estimate frames in one write and read one
    /// raw reply frame per request, in arrival order.
    fn burst(&mut self, frames: &[(u64, &[u8])]) -> Vec<Vec<u8>> {
        let mut bytes = Vec::new();
        for (id, payload) in frames {
            wire::encode_frame(&mut bytes, *id, wire::Opcode::Estimate as u8, 0, payload);
        }
        self.stream.write_all(&bytes).expect("send");
        (0..frames.len())
            .map(|_| {
                let mut header = [0u8; wire::HEADER_LEN];
                self.stream.read_exact(&mut header).expect("reply header");
                let len = wire::decode_header(&header).len as usize;
                let mut frame = header.to_vec();
                frame.resize(wire::HEADER_LEN + len, 0);
                self.stream
                    .read_exact(&mut frame[wire::HEADER_LEN..])
                    .expect("reply payload");
                frame
            })
            .collect()
    }
}

/// The reply memo answers the same bytes on both of its paths: a burst
/// of memo hits is answered by the reactor that read it, and a burst
/// mixing a hit with a miss is answered whole by a worker — hit included.
/// With the only worker held by a slow characterization, the first kind
/// comes back at once and the second only after the characterization.
#[test]
fn inline_memo_hits_match_the_worker_path() {
    let server = Server::start(
        ServerConfig::builder()
            .workers(1)
            .no_deadline()
            .engine(EngineOptions {
                config: CharacterizationConfig::builder()
                    .max_patterns(12_000)
                    .build()
                    .unwrap(),
                ..quick_config().engine
            })
            .build()
            .unwrap(),
    )
    .expect("start");
    let spec = ModuleSpec::new(ModuleKind::RippleAdder, 4usize);
    server.engine().warm(&[spec], 0).expect("warm");
    let payload = |seed: u64| {
        wire::encode_estimate_request(&wire::EstimateParams {
            spec,
            data: hdpm_server::protocol::data_type("counter").expect("known type"),
            cycles: 64,
            seed,
            floor: None,
        })
    };
    let (hit, miss, other_miss) = (payload(1), payload(2), payload(3));
    let mut raw = RawV2::connect(&server);
    raw.burst(&[(1, &hit)]); // memoizes `hit`
    let from_worker = raw.burst(&[(2, &hit), (3, &miss)]);

    let mut holder = Client::connect(server.local_addr(), Proto::V2).expect("v2");
    holder
        .send(
            &Request::Characterize {
                spec: ModuleSpec::new(ModuleKind::CsaMultiplier, 8usize),
            },
            None,
        )
        .expect("send");
    holder.flush().expect("flush");
    let patience = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while server.engine().stats().inflight != 1 {
        assert!(std::time::Instant::now() < patience, "never characterized");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    let inline = raw.burst(&[(2, &hit)]);
    assert_eq!(
        server.engine().stats().inflight,
        1,
        "a burst of memo hits is answered without the worker"
    );
    assert_eq!(inline[0], from_worker[0], "inline vs worker memo hit bytes");
    let reply = &inline[0][wire::HEADER_LEN..];
    assert_eq!(reply.len(), wire::ESTIMATE_REPLY_LEN);
    assert_eq!(reply[wire::ESTIMATE_REPLY_SOURCE_OFFSET], wire::SOURCE_MEMO);

    let mixed = raw.burst(&[(4, &hit), (5, &other_miss)]);
    assert_eq!(
        server.engine().stats().inflight,
        0,
        "a burst with a miss waits for the worker, hit included"
    );
    assert_eq!(mixed[0][wire::HEADER_LEN..], *reply);
    assert!(matches!(
        holder.recv().expect("characterize").response,
        Response::Characterize(_)
    ));
    server.shutdown();
}

/// The error kind and message of a reply that must be an error.
fn error_of(response: Response) -> (String, String) {
    match response {
        Response::Error { kind, message } => (kind, message),
        other => panic!("expected an error reply, got {other:?}"),
    }
}

/// The error kind and message of a raw v1 error line.
fn v1_error(line: &str) -> (String, String) {
    let value: serde_json::Value = serde_json::from_str(line).expect("JSON reply");
    let field = |key: &str| {
        value
            .get("error")
            .and_then(|error| error.get(key))
            .and_then(serde_json::Value::as_str)
            .unwrap_or_else(|| panic!("no error.{key} in {line}"))
            .to_string()
    };
    (field("kind"), field("message"))
}

/// The error column of the op × protocol matrix: requests every
/// transport must refuse with the same kind and the same message — v1
/// and v2 over TCP, and the stdio loop of `hdpm serve`. Each case is the
/// typed request plus the v1 line the typed client would send for it.
#[test]
fn errors_agree_across_v1_v2_and_stdio() {
    let random = hdpm_server::protocol::data_type("random").expect("known type");
    let estimate = |spec: ModuleSpec, cycles: u32| Request::Estimate {
        spec,
        data: random,
        cycles,
        seed: 7,
        floor: None,
    };
    let cases = [
        // Netlist construction fails inside the engine.
        (
            Request::Characterize {
                spec: ModuleSpec::new(ModuleKind::CsaMultiplier, 1usize),
            },
            "{\"op\":\"characterize\",\"module\":\"csa_multiplier\",\"width\":1}",
            "engine",
        ),
        // Operand streams cannot be generated at this width.
        (
            estimate(ModuleSpec::new(ModuleKind::RippleAdder, 40usize), 2000),
            "{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":40,\"data\":\"random\",\"cycles\":2000,\"seed\":7}",
            "bad_request",
        ),
        // One past the stream-length cap.
        (
            estimate(ModuleSpec::new(ModuleKind::RippleAdder, 8usize), 1_000_001),
            "{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":8,\"data\":\"random\",\"cycles\":1000001,\"seed\":7}",
            "bad_request",
        ),
        // More input bits (80) than characterization can simulate.
        (
            Request::Characterize {
                spec: ModuleSpec::new(ModuleKind::RippleAdder, 40usize),
            },
            "{\"op\":\"characterize\",\"module\":\"ripple_adder\",\"width\":40}",
            "bad_request",
        ),
        // Streamable operands, but 68 input bits at the `full` floor.
        (
            estimate(
                ModuleSpec::new(ModuleKind::RippleAdder, ModuleWidth::Rect(8, 60)),
                2000,
            ),
            "{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":8,\"width2\":60,\"data\":\"random\",\"cycles\":2000,\"seed\":7}",
            "bad_request",
        ),
    ];

    let engine = std::sync::Arc::new(hdpm_core::PowerEngine::new(quick_config().engine));
    let mut script: String = cases
        .iter()
        .map(|(_, line, _)| format!("{line}\n"))
        .collect();
    // Past u32: v1 alone can say it; the message must not change.
    script.push_str(
        "{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":8,\"cycles\":10000000000}\n",
    );
    script.push_str("{\"op\":\"ping\"}\n");
    let mut out = Vec::new();
    hdpm_server::protocol::serve_lines(&engine, Fidelity::Full, script.as_bytes(), &mut out)
        .expect("serve_lines");
    let stdio: Vec<(String, String)> = String::from_utf8(out)
        .expect("utf-8 replies")
        .lines()
        .map(v1_error)
        .collect();
    assert_eq!(stdio.len(), cases.len() + 2);

    let server = Server::start(quick_config()).expect("start");
    let mut v1 = Client::connect(server.local_addr(), Proto::V1).expect("v1");
    let mut v2 = Client::connect(server.local_addr(), Proto::V2).expect("v2");
    for ((request, line, kind), stdio) in cases.iter().zip(&stdio) {
        let over_v1 = error_of(v1.call(request, None).expect("v1 reply").response);
        let over_v2 = error_of(v2.call(request, None).expect("v2 reply").response);
        assert_eq!(over_v1.0, *kind, "{line}: {over_v1:?}");
        assert_eq!(over_v1, over_v2, "v1 vs v2: {line}");
        assert_eq!(&over_v1, stdio, "tcp vs stdio: {line}");
    }
    assert!(stdio[1].1.contains("operand width 40"), "{:?}", stdio[1]);
    assert!(stdio[2].1.contains("1000000"), "{:?}", stdio[2]);
    for over in &stdio[3..5] {
        assert!(over.1.contains("more than 64 input bits"), "{over:?}");
    }
    let past_u32 = &stdio[cases.len()];
    assert_eq!(past_u32, &stdio[2], "cycles past u32 on v1");

    // v1 has no ping op, on either v1 transport.
    let ping = (
        "bad_request".to_string(),
        "unknown op `ping` (expected estimate, characterize or stats)".to_string(),
    );
    assert_eq!(stdio[cases.len() + 1], ping);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(b"{\"op\":\"ping\"}\n").expect("send");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("reply");
    assert_eq!(v1_error(reply.trim_end()), ping);
    server.shutdown();
}
