//! Driving the server: setup, closed-loop and pipelined phases, and the
//! admin-plane counter scrape.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use hdpm_core::{EngineStats, Fidelity};
use hdpm_netlist::ModuleSpec;
use hdpm_server::client::{Client, Proto, Response};
use hdpm_server::{Server, ServerConfig};

use crate::spans::Recorder;
use crate::workload::{Answer, Payload, PASS};

/// Requests per closed-loop block before the protocol alternates: three
/// whole deck passes.
pub const BLOCK: usize = 3 * PASS;
/// Outstanding requests per pipelined window.
pub const WINDOW: usize = 64;
/// Requests per pipelined burst between closed-loop pairs: four whole
/// deck passes (five windows), so the v2 deck stays pass-aligned.
const BURST: usize = 4 * PASS;

/// A server at its shipped defaults (plus a loopback admin plane, the
/// only way to read its counters) with the warm catalogue characterized.
pub struct Running {
    pub server: Server,
    pub addr: SocketAddr,
    pub admin: SocketAddr,
    /// When the server started (before the warm catalogue).
    pub started: Instant,
    /// Server start plus warm-catalogue characterization, in seconds.
    pub setup_s: f64,
    pub stats_after_setup: EngineStats,
}

pub fn start(catalogue: &[ModuleSpec]) -> Result<Running, String> {
    let started = Instant::now();
    let config = ServerConfig::builder()
        .admin_addr(SocketAddr::from(([127, 0, 0, 1], 0)))
        .build()
        .map_err(|e| e.to_string())?;
    let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
    server
        .engine()
        .warm(catalogue, 1)
        .map_err(|e| format!("warm catalogue: {e}"))?;
    let setup_s = started.elapsed().as_secs_f64();
    let addr = server.local_addr();
    let admin = server.admin_addr().ok_or("admin plane did not start")?;
    let stats_after_setup = server.engine().stats();
    Ok(Running {
        server,
        addr,
        admin,
        started,
        setup_s,
        stats_after_setup,
    })
}

/// The counters of the admin plane's `/metrics` exposition.
pub fn scrape(admin: SocketAddr) -> Result<HashMap<String, f64>, String> {
    let mut stream = TcpStream::connect(admin).map_err(|e| format!("admin connect: {e}"))?;
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .map_err(|e| format!("admin write: {e}"))?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| format!("admin read: {e}"))?;
    let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    Ok(body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// Counter increase between two scrapes.
pub fn delta(before: &HashMap<String, f64>, after: &HashMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// One served (or failed) request, kept for the answer check; `count`
/// identical requests that got bit-identical answers share one entry.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub payload: Payload,
    pub proto: Proto,
    pub answer: Option<Answer>,
    pub count: u64,
}

type ServedKey = (Payload, bool, Option<([u64; 3], u8, bool)>);

impl Served {
    fn key(&self) -> ServedKey {
        let answer = self.answer.map(|a| {
            (
                [a.charge.to_bits(), a.via.to_bits(), a.hd.to_bits()],
                a.fidelity.code(),
                a.memo,
            )
        });
        (self.payload, self.proto == Proto::V1, answer)
    }
}

/// Everything a phase of traffic produced.
#[derive(Default)]
pub struct Traffic {
    /// Closed-loop round-trip latencies (ns) per protocol.
    pub v1_ns: Vec<f64>,
    pub v2_ns: Vec<f64>,
    /// Latencies of closed-loop requests recorded while client spans
    /// were off (traced runs alternate, to measure the spans' cost).
    pub v2_untraced_ns: Vec<f64>,
    /// Closed-loop throughput (req/s) of each block (one connection) or
    /// each v1+v2 pair of blocks (alternating), and of each pipelined
    /// burst.
    pub block_rates: Vec<f64>,
    pub burst_rates: Vec<f64>,
    /// Served requests in first-seen order, deduplicated when absorbed.
    pub served: Vec<Served>,
    /// Transport or protocol failures, first few kept verbatim.
    pub failures: Vec<String>,
    pub failed: u64,
}

impl Traffic {
    pub fn absorb(&mut self, other: Traffic) {
        self.v1_ns.extend(other.v1_ns);
        self.v2_ns.extend(other.v2_ns);
        self.v2_untraced_ns.extend(other.v2_untraced_ns);
        self.block_rates.extend(other.block_rates);
        self.burst_rates.extend(other.burst_rates);
        self.absorb_served(other.served);
        self.failed += other.failed;
        for f in other.failures {
            self.fail_note(f);
        }
    }

    /// Merge `served` in, counting repeats of an entry already held, so
    /// memory stays bounded by the distinct (request, answer) pairs rather
    /// than the request count.
    fn absorb_served(&mut self, served: Vec<Served>) {
        let mut index: HashMap<ServedKey, usize> = self
            .served
            .iter()
            .enumerate()
            .map(|(i, s)| (s.key(), i))
            .collect();
        for s in served {
            match index.get(&s.key()) {
                Some(&i) => self.served[i].count += s.count,
                None => {
                    index.insert(s.key(), self.served.len());
                    self.served.push(s);
                }
            }
        }
    }

    /// Requests recorded, failed ones included.
    pub fn attempted(&self) -> u64 {
        self.served.iter().map(|s| s.count).sum()
    }

    fn fail_note(&mut self, message: String) {
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        self.fail_note(message);
    }

    /// File a closed-loop latency; `counted` is false for the untraced
    /// blocks of a traced run, which only serve the overhead estimate.
    fn latency(&mut self, proto: Proto, counted: bool, ns: u64) {
        match (proto, counted) {
            (Proto::V1, _) => self.v1_ns.push(ns as f64),
            (Proto::V2, true) => self.v2_ns.push(ns as f64),
            (Proto::V2, false) => self.v2_untraced_ns.push(ns as f64),
        }
    }

    /// Record one reply (or the error that replaced it).
    fn record(&mut self, payload: Payload, proto: Proto, reply: Result<Response, String>) {
        let answer = match reply {
            Ok(Response::Estimate(a)) => Some(Answer::from(&a)),
            Ok(Response::Error { kind, message }) => {
                self.fail(format!(
                    "{} {}: {kind}: {message}",
                    proto.as_str(),
                    payload.spec
                ));
                None
            }
            Ok(other) => {
                self.fail(format!("{}: unexpected reply {other:?}", proto.as_str()));
                None
            }
            Err(e) => {
                self.fail(format!("{} {}: {e}", proto.as_str(), payload.spec));
                None
            }
        };
        self.served.push(Served {
            payload,
            proto,
            answer,
            count: 1,
        });
    }
}

/// One closed-loop request: send, wait, record latency and answer.
pub fn call(
    client: &mut Client,
    payload: Payload,
    floor: Option<Fidelity>,
    traffic: &mut Traffic,
    spans: Option<&mut Recorder>,
) -> (u64, Option<Answer>) {
    let proto = client.proto();
    let open = spans.as_ref().map(|r| {
        r.begin(
            if proto == Proto::V1 {
                "client.v1"
            } else {
                "client.v2"
            },
            0,
            0,
        )
    });
    let started = Instant::now();
    let reply = client.call(&payload.request(floor), None);
    let ns = started.elapsed().as_nanos() as u64;
    if let (Some(r), Some(open)) = (spans, open) {
        r.end(open);
    }
    traffic.record(
        payload,
        proto,
        reply.map(|r| r.response).map_err(|e| e.to_string()),
    );
    (ns, traffic.served.last().and_then(|s| s.answer))
}

/// Closed-loop blocks on one connection at a time, alternating v1 and
/// v2 (reconnecting at each switch, so at most one request is in flight),
/// until `stop` says so. Each protocol draws from its own generator, so
/// its samples are whole passes of its deck. With `bursts`, every v1+v2
/// pair is followed by a short v2 pipelined burst. With `spans`, every
/// other pair records a client span per request, counting pairs from
/// `round`: the first pair after a server start runs slower, so rounds
/// take turns giving it spans.
pub fn closed_blocks(
    addr: SocketAddr,
    next_v1: &mut dyn FnMut() -> Payload,
    next_v2: &mut dyn FnMut() -> Payload,
    stop: &dyn Fn() -> bool,
    bursts: bool,
    round: usize,
    mut spans: Option<&mut Recorder>,
) -> Traffic {
    let mut t = Traffic::default();
    let mut pair = round;
    while !stop() {
        let traced = spans.is_some() && pair.is_multiple_of(2);
        let mut busy = 0.0;
        for proto in [Proto::V1, Proto::V2] {
            let mut client = match Client::connect(addr, proto) {
                Ok(c) => c,
                Err(e) => {
                    t.fail(format!("connect: {e}"));
                    return t;
                }
            };
            let next: &mut dyn FnMut() -> Payload = match proto {
                Proto::V1 => &mut *next_v1,
                Proto::V2 => &mut *next_v2,
            };
            let started = Instant::now();
            for _ in 0..BLOCK {
                let rec = if traced { spans.as_deref_mut() } else { None };
                let (ns, _) = call(&mut client, next(), None, &mut t, rec);
                t.latency(proto, traced || spans.is_none(), ns);
            }
            busy += started.elapsed().as_secs_f64();
        }
        t.block_rates.push(2.0 * BLOCK as f64 / busy);
        if bursts {
            pipelined(addr, next_v2, BURST, &mut t);
        }
        pair += 1;
    }
    t
}

/// v2 pipelined windows of [`WINDOW`] on one connection, `total`
/// requests in all.
pub fn pipelined(
    addr: SocketAddr,
    next: &mut dyn FnMut() -> Payload,
    total: usize,
    t: &mut Traffic,
) {
    let mut client = match Client::connect(addr, Proto::V2) {
        Ok(c) => c,
        Err(e) => return t.fail(format!("connect: {e}")),
    };
    let started = Instant::now();
    let mut done = 0;
    while done < total {
        let mut sent: HashMap<u64, Payload> = HashMap::with_capacity(WINDOW);
        for _ in 0..WINDOW {
            let p = next();
            match client.send(&p.request(None), None) {
                Ok(id) => {
                    sent.insert(id, p);
                }
                Err(e) => return t.fail(format!("pipelined send: {e}")),
            }
        }
        if let Err(e) = client.flush() {
            return t.fail(format!("pipelined flush: {e}"));
        }
        for _ in 0..WINDOW {
            match client.recv() {
                Ok(reply) => match sent.get(&reply.id) {
                    Some(&p) => t.record(p, Proto::V2, Ok(reply.response)),
                    None => t.fail(format!("reply for unsent id {}", reply.id)),
                },
                Err(e) => return t.fail(format!("pipelined recv: {e}")),
            }
        }
        done += WINDOW;
    }
    t.burst_rates
        .push(done as f64 / started.elapsed().as_secs_f64());
}

/// Pipelined windows until `until`.
pub fn pipelined_until(
    addr: SocketAddr,
    next: &mut dyn FnMut() -> Payload,
    until: Instant,
) -> Traffic {
    let mut t = Traffic::default();
    while Instant::now() < until && t.failed == 0 {
        pipelined(addr, next, 2 * BURST, &mut t);
    }
    t
}

/// First touch of each spec: one v2 request per spec at `floor`, then
/// re-ask (every millisecond) the specs that have not yet answered at
/// full fidelity. Returns each spec's first-request latency (ns) and the
/// seconds from `origin` until every spec has answered `full`.
pub fn first_touch(
    client: &mut Client,
    payloads: &[Payload],
    floor: Option<Fidelity>,
    origin: Instant,
    traffic: &mut Traffic,
) -> (Vec<f64>, f64) {
    let started = Instant::now();
    let mut first = Vec::with_capacity(payloads.len());
    let mut pending: Vec<Payload> = Vec::new();
    let mut full_at = 0.0f64;
    for p in payloads {
        let (ns, answer) = call(client, *p, floor, traffic, None);
        first.push(ns as f64);
        match answer {
            Some(a) if a.fidelity == Fidelity::Full => {
                full_at = origin.elapsed().as_secs_f64();
            }
            Some(_) => pending.push(*p),
            None => {}
        }
    }
    let give_up = started + Duration::from_secs(60);
    while !pending.is_empty() && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(1));
        let mut still = Vec::with_capacity(pending.len());
        for p in pending {
            match call(client, p, floor, traffic, None).1 {
                Some(a) if a.fidelity == Fidelity::Full => {
                    full_at = origin.elapsed().as_secs_f64();
                }
                Some(_) => still.push(p),
                None => {}
            }
        }
        pending = still;
    }
    if !pending.is_empty() {
        traffic.fail(format!(
            "{} specs never reached full fidelity",
            pending.len()
        ));
    }
    (first, full_at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdpm_netlist::ModuleKind;
    use hdpm_streams::DataType;

    #[test]
    fn absorbing_merges_identical_answers_and_keeps_first_seen_order() {
        let payload = |seed| Payload {
            spec: ModuleSpec::new(ModuleKind::RippleAdder, 4usize),
            data: DataType::Random,
            seed,
        };
        let served = |seed, charge: f64| Served {
            payload: payload(seed),
            proto: Proto::V2,
            answer: Some(Answer {
                charge,
                via: 1.0,
                hd: 2.0,
                fidelity: Fidelity::Full,
                memo: true,
            }),
            count: 1,
        };
        let mut all = Traffic::default();
        all.absorb(Traffic {
            served: vec![
                served(2, 5.0),
                served(1, 5.0),
                served(2, 5.0),
                served(2, 6.0),
            ],
            ..Traffic::default()
        });
        all.absorb(Traffic {
            served: vec![served(1, 5.0)],
            ..Traffic::default()
        });
        let summary: Vec<(u64, f64, u64)> = all
            .served
            .iter()
            .map(|s| (s.payload.seed, s.answer.unwrap().charge, s.count))
            .collect();
        assert_eq!(summary, vec![(2, 5.0, 2), (1, 5.0, 2), (2, 6.0, 1)]);
        assert_eq!(all.attempted(), 5);
    }
}
