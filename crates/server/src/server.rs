//! The TCP service: reactor pool → bounded queue → worker pool, wrapped
//! around one shared [`PowerEngine`].
//!
//! Threading model (fixed thread count, independent of connection
//! count):
//!
//! * one **accept** thread admits connections (up to
//!   [`ServerConfig::max_connections`]; beyond that, an `overloaded`
//!   reply and an immediate close) and assigns them round-robin to the
//!   reactors;
//! * a **fixed reactor pool** ([`crate::reactor`]) multiplexes every
//!   connection over epoll: protocol negotiation (v1 JSON lines / v2
//!   binary frames), framing into the bounded queue, write-side
//!   drainage, idle reaping and write timeouts. An idle connection
//!   costs one registered fd, not a thread;
//! * a **fixed worker pool** drains the queue and executes requests
//!   against the shared engine, so concurrent misses on one model still
//!   coalesce through the engine's single-flight path.
//!
//! Workers run both protocols through the same executor (`crate::exec`,
//! owned by [`Shared`] as its core): a v1 job decodes its line, checks
//! the deadline and hands the resolved request over
//! ([`protocol::respond`]); a v2 frame decodes its payload, checks the
//! deadline and executes ([`exec_client_op`]). Only the v2 path keeps a
//! per-thread reply memo in front of the executor, keyed by the raw
//! estimate payload; the peer-only cluster opcodes (fetch-model,
//! have-model, warm-keys) have no v1 spelling and are answered here
//! directly.
//!
//! v1 replies on one connection are written in request order even
//! though workers complete out of order (the per-connection sequencer
//! lives in [`crate::reactor::ConnOut`]); v2 replies carry request ids
//! and complete **out of order** — one slow characterization no longer
//! stalls the pipelined requests behind it.
//!
//! Robustness: per-request deadlines (v1: queue wait; v2: in-band,
//! covering decode → write, with late completions labeled
//! [`crate::wire::FLAG_LATE`]), idle reaping, write timeouts that cut
//! slow readers instead of blocking a worker, and tolerance of
//! malformed input. [`Server::shutdown`] drains gracefully: stop
//! accepting, stop reading, finish every queued request, flush, join
//! every pool, report totals.
//!
//! # Observability
//!
//! When [`ServerConfig::tracing`] is on (the default), every v1 request
//! (and every v2 batch) gets a [`TraceCtx`] riding the [`Job`] through
//! the pipeline, accumulating per-stage timings. v1 replies echo the
//! trace id as `"trace":"t…"`; completed traces land in the flight
//! recorder (`/tracez`, dumped on drain) and the
//! `server.stage_ns{stage=…}` histograms; requests slower than
//! [`ServerConfig::slow_threshold`] emit one `{"type":"slow_request",…}`
//! line on stderr. The optional admin plane
//! ([`ServerConfig::admin_addr`], `crate::admin`) serves `/metrics`,
//! `/healthz`, `/readyz` and `/tracez`. v2 traces are **per batch** (a
//! read burst of frames shares one trace): ids are already in band, and
//! per-frame contexts would cost more than the requests they measure.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hdpm_core::persist::{self, EnvelopeMeta};
use hdpm_core::{resolve_threads, Characterization, Fidelity, PowerEngine};
use hdpm_telemetry as telemetry;
use hdpm_telemetry::{trace as trace_mod, Stage, TraceCtx};
use poller::Poller;
use serde::{Serialize, Value};

use crate::admin::AdminServer;
use crate::cluster::{self, ClusterRuntime};
use crate::config::ServerConfig;
use crate::exec::{self, Answer, Core};
use crate::protocol::{self, ErrorKind, RequestError};
use crate::queue::{Bounded, PushError};
use crate::reactor::{self, ConnOut, Mail, ReactorHandle};
use crate::wire;

/// Totals accumulated over a server's lifetime, returned by
/// [`Server::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct DrainReport {
    /// Connections accepted.
    pub connections: u64,
    /// Requests answered ok (v1 `ok:true` lines and v2 ok frames).
    pub ok: u64,
    /// Requests answered with a structured error (malformed, bad
    /// request, engine failure).
    pub errors: u64,
    /// Requests shed with `overloaded` (queue full, draining, or the
    /// connection limit).
    pub shed: u64,
    /// Requests answered with `timeout` (v1: expired in the queue; v2:
    /// in-band deadline expired before execution).
    pub timeouts: u64,
}

#[derive(Default)]
struct Totals {
    connections: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    timeouts: AtomicU64,
}

impl Totals {
    fn report(&self) -> DrainReport {
        DrainReport {
            connections: self.connections.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
        }
    }
}

/// One reference into a [`V2Batch`]'s data: a single frame.
pub(crate) struct FrameRef {
    /// Request id, echoed in the reply.
    pub(crate) id: u64,
    /// Raw opcode byte (validated at execution).
    pub(crate) op: u8,
    /// In-band deadline in ms (0 = none).
    pub(crate) deadline_ms: u32,
    /// Payload byte range within the batch data.
    pub(crate) payload: (usize, usize),
}

/// One framed v1 request line awaiting a worker.
pub(crate) struct V1Job {
    seq: u64,
    raw: Vec<u8>,
    out: Arc<ConnOut>,
    enqueued: Instant,
    trace: TraceCtx,
}

/// One read burst of v2 frames awaiting a worker. Batching amortizes
/// the queue handoff and the reply write across every frame the socket
/// delivered together — the main lever behind the v2 throughput bar.
pub(crate) struct V2Batch {
    data: Vec<u8>,
    frames: Vec<FrameRef>,
    out: Arc<ConnOut>,
    enqueued: Instant,
    trace: TraceCtx,
}

/// A unit of queued work.
pub(crate) enum Job {
    V1(V1Job),
    V2(V2Batch),
}

/// Everything needed to close out a request's trace once its reply is
/// on the wire (or abandoned): the completed context, what the request
/// was, and how it ended. Created by the worker, consumed by the writer
/// side so the socket-write stage covers sequencer hold + the actual
/// write.
pub(crate) struct TraceFinish {
    pub(crate) trace: TraceCtx,
    pub(crate) op: String,
    pub(crate) detail: String,
    pub(crate) status: String,
    pub(crate) slow_threshold: Duration,
    /// [`telemetry::clock::now_ns`] when the worker handed the reply to
    /// the write side.
    pub(crate) submitted_ns: u64,
}

/// Canonical metric keys of the `server.stage_ns{stage=…}` series,
/// pre-rendered (and verified against [`telemetry::metric_key`] by a
/// test) so the per-request stage flush allocates nothing.
const STAGE_KEYS: [&str; trace_mod::STAGE_COUNT] = [
    "server.stage_ns{stage=\"decode\"}",
    "server.stage_ns{stage=\"queue_wait\"}",
    "server.stage_ns{stage=\"cache_lookup\"}",
    "server.stage_ns{stage=\"single_flight_wait\"}",
    "server.stage_ns{stage=\"characterize\"}",
    "server.stage_ns{stage=\"estimate\"}",
    "server.stage_ns{stage=\"serialize\"}",
    "server.stage_ns{stage=\"socket_write\"}",
];

impl TraceFinish {
    /// Record the socket-write stage, file the trace with the flight
    /// recorder and the stage histograms, and emit the slow-request log
    /// line if the end-to-end time crossed the threshold.
    pub(crate) fn complete(mut self, wrote: bool) {
        if wrote {
            self.trace.add(
                Stage::SocketWrite,
                telemetry::clock::now_ns().saturating_sub(self.submitted_ns),
            );
        }
        let record = self.trace.finish_owned(self.op, self.detail, self.status);
        // Flush every nonzero stage under one registry lock, with keys
        // resolved at compile time: the warm path allocates nothing here.
        let mut pairs = [("", 0u64); trace_mod::STAGE_COUNT];
        let mut nonzero = 0;
        for stage in trace_mod::STAGES {
            let ns = record.stages[stage as usize];
            if ns > 0 {
                pairs[nonzero] = (STAGE_KEYS[stage as usize], ns);
                nonzero += 1;
            }
        }
        telemetry::record_durations_ns(&pairs[..nonzero]);
        let slow =
            record.total_ns > u64::try_from(self.slow_threshold.as_nanos()).unwrap_or(u64::MAX);
        if slow {
            telemetry::counter_add("server.request.slow", 1);
            // One self-contained JSON line on stderr, greppable by trace
            // id, regardless of the telemetry output mode.
            let record_json = record.to_json();
            eprintln!("{{\"type\":\"slow_request\",{}", &record_json[1..]);
        }
        trace_mod::recorder().push(record);
    }
}

/// A v1 reply line plus the trace bookkeeping owed once it is written.
pub(crate) struct Reply {
    pub(crate) line: String,
    pub(crate) finish: Option<Box<TraceFinish>>,
}

pub(crate) struct Shared {
    /// What requests execute against: the engine, the default fidelity
    /// floor ([`ServerConfig::fidelity_floor`]), the store root and, in
    /// cluster mode, the ring, peer health, counters and ensure gate.
    core: Core,
    queue: Bounded<Job>,
    draining: AtomicBool,
    /// Workers joined; reactors flush what remains and exit.
    finished: AtomicBool,
    /// Reactors that muted their read interests for the drain.
    drain_acks: AtomicUsize,
    connections: AtomicUsize,
    totals: Totals,
    deadline: Option<Duration>,
    idle_timeout: Duration,
    write_timeout: Duration,
    max_connections: usize,
    tracing: bool,
    slow_threshold: Duration,
}

impl Shared {
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    pub(crate) fn finished(&self) -> bool {
        self.finished.load(Ordering::Relaxed)
    }

    pub(crate) fn ack_drain(&self) {
        self.drain_acks.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn idle_timeout(&self) -> Duration {
        self.idle_timeout
    }

    pub(crate) fn write_timeout(&self) -> Duration {
        self.write_timeout
    }

    pub(crate) fn release_connection(&self) {
        self.connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// The deadline a request runs under: the tighter of the server's
    /// and the request's own (which may tighten, never extend, it).
    fn limit(&self, requested: Option<Duration>) -> Option<Duration> {
        match (self.deadline, requested) {
            (Some(server), Some(request)) => Some(server.min(request)),
            (server, request) => server.or(request),
        }
    }

    /// A fresh trace context when tracing is on, an inert one otherwise.
    fn new_trace(&self) -> TraceCtx {
        if self.tracing {
            TraceCtx::new()
        } else {
            TraceCtx::disabled()
        }
    }

    /// The bookkeeping that closes out `trace` once the reply handed to
    /// the write side now is written (or abandoned).
    fn trace_finish(
        &self,
        trace: TraceCtx,
        op: String,
        detail: String,
        status: &str,
    ) -> TraceFinish {
        TraceFinish {
            trace,
            op,
            detail,
            status: status.to_string(),
            slow_threshold: self.slow_threshold,
            submitted_ns: telemetry::clock::now_ns(),
        }
    }

    /// Attach the trace id to a pre-rendered error line and build its
    /// [`Reply`] (with trace bookkeeping when tracing is on).
    fn error_reply(
        &self,
        trace: TraceCtx,
        kind: ErrorKind,
        message: &str,
        detail: String,
    ) -> Reply {
        let mut value = protocol::error_value(kind, message);
        let finish = trace.is_enabled().then(|| {
            protocol::attach_trace(&mut value, &trace.id_string());
            Box::new(self.trace_finish(trace, String::new(), detail, kind.as_str()))
        });
        Reply {
            line: protocol::render(&value),
            finish,
        }
    }

    /// Frame one raw v1 line into the queue, shedding with a structured
    /// reply when the queue refuses it. Blank lines are skipped without
    /// consuming a sequence number (no reply is owed for them).
    pub(crate) fn enqueue_v1(&self, out: &Arc<ConnOut>, next_seq: &mut u64, raw: Vec<u8>) {
        if protocol::trim_line(&raw)
            .iter()
            .all(u8::is_ascii_whitespace)
        {
            return;
        }
        let seq = *next_seq;
        *next_seq += 1;
        out.begin_job();
        let job = V1Job {
            seq,
            raw,
            out: Arc::clone(out),
            enqueued: Instant::now(),
            trace: self.new_trace(),
        };
        match self.queue.try_push(Job::V1(job)) {
            Ok(depth) => telemetry::gauge_set("server.queue.depth", depth as f64),
            Err(PushError::Full(Job::V1(job))) => {
                self.totals.shed.fetch_add(1, Ordering::Relaxed);
                telemetry::counter_add("server.queue.shed_full", 1);
                let reply = self.error_reply(
                    job.trace,
                    ErrorKind::Overloaded,
                    &format!(
                        "queue full ({} requests queued): request shed",
                        self.queue.capacity()
                    ),
                    String::new(),
                );
                job.out.submit_v1(job.seq, Some(reply));
                job.out.finish_job();
            }
            Err(PushError::Closed(Job::V1(job))) => {
                self.totals.shed.fetch_add(1, Ordering::Relaxed);
                telemetry::counter_add("server.queue.shed_draining", 1);
                let reply = self.error_reply(
                    job.trace,
                    ErrorKind::Overloaded,
                    "server draining: request shed",
                    String::new(),
                );
                job.out.submit_v1(job.seq, Some(reply));
                job.out.finish_job();
            }
            Err(_) => unreachable!("push errors return the pushed job"),
        }
    }

    /// Frame one batch of v2 frames into the queue, answering every
    /// frame with an `overloaded` error frame when the queue refuses
    /// the batch.
    pub(crate) fn enqueue_v2(&self, out: &Arc<ConnOut>, data: Vec<u8>, frames: Vec<FrameRef>) {
        out.begin_job();
        let batch = V2Batch {
            data,
            frames,
            out: Arc::clone(out),
            enqueued: Instant::now(),
            trace: self.new_trace(),
        };
        match self.queue.try_push(Job::V2(batch)) {
            Ok(depth) => telemetry::gauge_set("server.queue.depth", depth as f64),
            Err(PushError::Full(Job::V2(batch))) => {
                telemetry::counter_add("server.queue.shed_full", 1);
                self.shed_batch(
                    &batch,
                    &format!(
                        "queue full ({} batches queued): request shed",
                        self.queue.capacity()
                    ),
                );
            }
            Err(PushError::Closed(Job::V2(batch))) => {
                telemetry::counter_add("server.queue.shed_draining", 1);
                self.shed_batch(&batch, "server draining: request shed");
            }
            Err(_) => unreachable!("push errors return the pushed job"),
        }
    }

    fn shed_batch(&self, batch: &V2Batch, message: &str) {
        self.totals
            .shed
            .fetch_add(batch.frames.len() as u64, Ordering::Relaxed);
        let mut replies =
            Vec::with_capacity(batch.frames.len() * (wire::HEADER_LEN + message.len()));
        for frame in &batch.frames {
            wire::encode_frame(
                &mut replies,
                frame.id,
                wire::status_of(ErrorKind::Overloaded),
                0,
                message.as_bytes(),
            );
        }
        batch.out.send(&replies);
        batch.out.finish_job();
    }

    /// Execute one v1 job: decode, enforce the deadline, resolve and
    /// execute ([`protocol::respond`]), render the reply (trace id
    /// attached when tracing). Returns `None` when no output is owed
    /// (blank line). Per-stage timings accumulate into the job's trace;
    /// `server.request_ns` keeps measuring processing time only (decode
    /// → render), as before.
    fn process_v1(&self, job: &mut V1Job, waited: Duration) -> Option<Reply> {
        let started = Instant::now();
        let trace = &mut job.trace;
        let decoded = trace.time(Stage::Decode, || {
            protocol::decode(protocol::trim_line(&job.raw))
        });
        let (op, detail, result) = match decoded {
            Ok(None) => return None,
            Err(e) => (String::new(), String::new(), Err(e)),
            Ok(Some(request)) => {
                let limit = self.limit(request.deadline_ms.map(Duration::from_millis));
                let result = match limit {
                    Some(limit) if waited > limit => {
                        self.totals.timeouts.fetch_add(1, Ordering::Relaxed);
                        telemetry::counter_add("server.queue.timeout", 1);
                        Err((
                            ErrorKind::Timeout,
                            format!(
                                "deadline exceeded: queued {} ms, limit {} ms",
                                waited.as_millis(),
                                limit.as_millis()
                            ),
                        ))
                    }
                    _ => protocol::respond(&self.core, &request, trace),
                };
                let detail = protocol::request_detail(&request);
                (request.op, detail, result)
            }
        };
        let (value, status) = match result {
            Ok(reply) => {
                self.totals.ok.fetch_add(1, Ordering::Relaxed);
                telemetry::counter_add("server.request.ok", 1);
                (reply, "ok")
            }
            Err((kind, message)) => {
                // Timeouts are counted above, apart from errors.
                if kind != ErrorKind::Timeout {
                    self.totals.errors.fetch_add(1, Ordering::Relaxed);
                    telemetry::counter_add("server.request.error", 1);
                }
                (protocol::error_value(kind, &message), kind.as_str())
            }
        };
        let trace_id = trace.is_enabled().then(|| trace.id());
        let line = trace.time(Stage::Serialize, || {
            let mut line = protocol::render(&value);
            if let Some(id) = trace_id {
                protocol::append_trace_id(&mut line, id);
            }
            line
        });
        telemetry::record_duration_ns("server.request_ns", started.elapsed().as_nanos() as u64);
        Some(Reply {
            line,
            finish: trace
                .is_enabled()
                .then(|| Box::new(self.trace_finish(trace.clone(), op, detail, status))),
        })
    }

    // --- admin-plane probes (crate::admin) ------------------------------

    /// Whether the server should report ready: not draining, the
    /// engine's disk tier (when configured) still present, and — in
    /// cluster mode — the gossip pre-warm either complete or out of
    /// budget. The engine stats probe doubles as a health check of the
    /// engine lock.
    pub(crate) fn readiness(&self) -> Result<(), String> {
        if self.draining() {
            return Err("draining".to_string());
        }
        if let Some(root) = &self.core.store_root {
            if !root.is_dir() {
                return Err(format!("store root missing: {}", root.display()));
            }
        }
        if let Some(rt) = &self.core.cluster {
            let state = &rt.state;
            if !state.warm().ready(state.config().warm_timeout) {
                return Err(format!(
                    "warming: gossip pre-warm in progress ({} models pre-warmed)",
                    state.warm().prewarmed()
                ));
            }
        }
        let _ = self.core.engine.stats();
        Ok(())
    }

    /// The `/clusterz` body: one JSON object with this node's ring view,
    /// warm-gate status, cluster counters and per-peer health. `None`
    /// when the server is not in cluster mode.
    pub(crate) fn clusterz_text(&self) -> Option<String> {
        let rt = self.core.cluster.as_ref()?;
        let state = &rt.state;
        let config = state.config();
        let stats = state.stats().snapshot();
        let ring = Value::Object(vec![
            (
                "members".into(),
                Value::Array(
                    state
                        .ring()
                        .members()
                        .iter()
                        .map(|m| Value::Str(m.clone()))
                        .collect(),
                ),
            ),
            ("replicas".into(), Value::Int(config.replicas as i64)),
        ]);
        let warm = Value::Object(vec![
            ("complete".into(), Value::Bool(state.warm().is_complete())),
            (
                "ready".into(),
                Value::Bool(state.warm().ready(config.warm_timeout)),
            ),
            (
                "prewarmed".into(),
                Value::Int(state.warm().prewarmed() as i64),
            ),
        ]);
        let counters = Value::Object(vec![
            ("fetch_hits".into(), Value::Int(stats.fetch_hits as i64)),
            ("fetch_misses".into(), Value::Int(stats.fetch_misses as i64)),
            ("fetch_errors".into(), Value::Int(stats.fetch_errors as i64)),
            ("forwards".into(), Value::Int(stats.forwards as i64)),
            (
                "forward_fallbacks".into(),
                Value::Int(stats.forward_fallbacks as i64),
            ),
            (
                "gossip_rounds".into(),
                Value::Int(stats.gossip_rounds as i64),
            ),
            (
                "warm_keys_sent".into(),
                Value::Int(stats.warm_keys_sent as i64),
            ),
            (
                "warm_keys_learned".into(),
                Value::Int(stats.warm_keys_learned as i64),
            ),
            ("quarantined".into(), Value::Int(stats.quarantined as i64)),
        ]);
        let peers = Value::Array(
            state
                .health()
                .snapshot()
                .into_iter()
                .map(|(id, status)| {
                    Value::Object(vec![
                        ("id".into(), Value::Str(id)),
                        ("reachable".into(), Value::Bool(status.reachable)),
                        ("ok".into(), Value::Int(status.ok as i64)),
                        ("errors".into(), Value::Int(status.errors as i64)),
                        (
                            "last_error".into(),
                            status.last_error.map_or(Value::Null, Value::Str),
                        ),
                    ])
                })
                .collect(),
        );
        let body = Value::Object(vec![
            ("node_id".into(), Value::Str(config.node_id.clone())),
            ("ring".into(), ring),
            ("warm".into(), warm),
            ("counters".into(), counters),
            ("peers".into(), peers),
        ]);
        let mut text = protocol::render(&body);
        text.push('\n');
        Some(text)
    }

    /// The `/metrics` exposition: live engine/server gauges rendered
    /// directly (names chosen not to collide with registry series),
    /// followed by the full metrics registry in Prometheus text format.
    pub(crate) fn metrics_text(&self) -> String {
        let stats = self.core.engine.stats();
        let mut out = String::with_capacity(8192);
        for (name, value) in [
            ("engine_cache_entries", stats.entries as f64),
            ("engine_cache_capacity", stats.capacity as f64),
            ("engine_inflight", stats.inflight as f64),
            (
                "server_connections_active",
                self.connections.load(Ordering::Relaxed) as f64,
            ),
            ("server_queue_len", self.queue.len() as f64),
            ("server_draining", f64::from(u8::from(self.draining()))),
            (
                "server_traces_recorded",
                trace_mod::recorder().pushed() as f64,
            ),
        ] {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        out.push_str(&telemetry::prometheus::render(&telemetry::snapshot()));
        out
    }
}

/// A running TCP power-estimation service. Construct with
/// [`Server::start`], stop with [`Server::shutdown`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    reactors: Vec<JoinHandle<()>>,
    reactor_handles: Vec<Arc<ReactorHandle>>,
    admin: Option<AdminServer>,
    gossip: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the accept loop, the reactor pool, the worker pool
    /// and (when configured) the admin-plane listener, and return the
    /// running server. Turns on background metric recording
    /// ([`telemetry::set_recording`]) so the admin plane scrapes live
    /// data regardless of the output mode.
    ///
    /// # Errors
    ///
    /// Binding or thread spawning failures (either listener), or an
    /// unsupported platform (the reactor needs epoll; Linux only).
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        telemetry::set_recording(true);
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;
        let worker_count = resolve_threads(config.workers);
        let reactor_count = if config.reactors == 0 {
            resolve_threads(0).clamp(1, 4)
        } else {
            config.reactors
        };
        let store_root = config.engine.disk_root.clone();
        let cluster = config
            .cluster
            .clone()
            .map(ClusterRuntime::new)
            .transpose()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let shared = Arc::new(Shared {
            core: Core {
                engine: Arc::new(PowerEngine::new(config.engine)),
                default_floor: config.fidelity_floor,
                store_root,
                cluster,
            },
            queue: Bounded::new(config.queue_depth),
            draining: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            drain_acks: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
            totals: Totals::default(),
            deadline: config.deadline,
            idle_timeout: config.idle_timeout,
            write_timeout: config.write_timeout,
            max_connections: config.max_connections,
            tracing: config.tracing,
            slow_threshold: config.slow_threshold.max(Duration::from_nanos(1)),
        });
        if shared.core.cluster.is_some() {
            // Background fidelity upgrades must respect cluster
            // ownership: route through ensure_model (peer fetch /
            // forward to the owner) and only then make the model
            // locally resident. `Weak` so the hook never keeps a
            // dropped server's Shared alive through the engine.
            let weak = Arc::downgrade(&shared);
            shared.core.engine.set_upgrade_hook(move |engine, spec| {
                if let Some(shared) = weak.upgrade() {
                    shared.core.ensure(spec);
                }
                let _ = engine.fetch(spec);
            });
        }
        let gossip = if shared.core.cluster.is_some() {
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("hdpm-gossip".into())
                    .spawn(move || {
                        let core = &shared.core;
                        let rt = core.cluster.as_ref().expect("cluster configured");
                        let root = core
                            .store_root
                            .as_ref()
                            .expect("cluster mode requires a disk store");
                        cluster::run_gossip(&rt.state, &core.engine, root, &|| shared.draining());
                    })?,
            )
        } else {
            None
        };
        let admin = config
            .admin_addr
            .map(|admin_addr| AdminServer::start(admin_addr, Arc::clone(&shared)))
            .transpose()?;
        let mut reactor_handles = Vec::with_capacity(reactor_count);
        let mut reactors = Vec::with_capacity(reactor_count);
        for i in 0..reactor_count {
            let poller = Poller::new()?;
            let handle = Arc::new(ReactorHandle::new(&poller)?);
            reactor_handles.push(Arc::clone(&handle));
            let shared = Arc::clone(&shared);
            reactors.push(
                std::thread::Builder::new()
                    .name(format!("hdpm-reactor-{i}"))
                    .spawn(move || reactor::run_reactor(&shared, &handle, &poller))?,
            );
        }
        let accept = {
            let shared = Arc::clone(&shared);
            let handles = reactor_handles.clone();
            std::thread::Builder::new()
                .name("hdpm-accept".into())
                .spawn(move || run_accept(&shared, &listener, &handles))?
        };
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hdpm-worker-{i}"))
                    .spawn(move || run_worker(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        telemetry::event(
            telemetry::Level::Info,
            "server.listening",
            &[
                ("addr", addr.to_string().into()),
                (
                    "admin_addr",
                    admin
                        .as_ref()
                        .map_or_else(|| "off".to_string(), |a| a.local_addr().to_string())
                        .into(),
                ),
                ("workers", workers.len().into()),
                ("reactors", reactors.len().into()),
                ("queue_depth", shared.queue.capacity().into()),
                ("tracing", shared.tracing.into()),
            ],
        );
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            workers,
            reactors,
            reactor_handles,
            admin,
            gossip,
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound admin-plane address, when one was configured.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin.as_ref().map(AdminServer::local_addr)
    }

    /// The engine shared by the worker pool (e.g. for pre-warming).
    pub fn engine(&self) -> &PowerEngine {
        &self.shared.core.engine
    }

    /// Gracefully drain: stop accepting, stop reading, answer
    /// everything already queued, flush, join every pool, and report
    /// lifetime totals. In-flight characterizations run to completion —
    /// their replies are on the wire before this returns. The admin
    /// plane keeps serving through the drain (`/readyz` reports 503)
    /// and stops last.
    pub fn shutdown(mut self) -> DrainReport {
        self.begin_drain();
        // Reactors ack the drain (reads muted) within one poll tick;
        // only then may the queue close, or late-parsed requests would
        // shed instead of being answered.
        let patience = Instant::now() + Duration::from_secs(5);
        while self.shared.drain_acks.load(Ordering::SeqCst) < self.reactor_handles.len()
            && Instant::now() < patience
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.shared.queue.close();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // The gossip loop observes `draining` within one sleep slice.
        if let Some(gossip) = self.gossip.take() {
            let _ = gossip.join();
        }
        // Workers are done writing; let the reactors flush the last
        // buffered bytes (bounded by the write timeout) and exit.
        self.shared.finished.store(true, Ordering::SeqCst);
        for handle in &self.reactor_handles {
            handle.wake();
        }
        for reactor in self.reactors.drain(..) {
            let _ = reactor.join();
        }
        if let Some(admin) = self.admin.take() {
            admin.stop();
        }
        let report = self.shared.totals.report();
        telemetry::event(
            telemetry::Level::Info,
            "server.drained",
            &[
                ("connections", report.connections.into()),
                ("ok", report.ok.into()),
                ("errors", report.errors.into()),
                ("shed", report.shed.into()),
                ("timeouts", report.timeouts.into()),
            ],
        );
        report
    }

    fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        for handle in &self.reactor_handles {
            handle.wake();
        }
    }
}

impl Drop for Server {
    /// A dropped (not shut down) server still releases its threads:
    /// accept, reactors, workers and the admin plane are told to exit,
    /// but nothing is joined and no drain guarantee is made — call
    /// [`Server::shutdown`] for that.
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.begin_drain();
            self.shared.queue.close();
            self.shared.finished.store(true, Ordering::SeqCst);
            for handle in &self.reactor_handles {
                handle.wake();
            }
        }
        if let Some(admin) = self.admin.take() {
            admin.stop();
        }
    }
}

/// Global connection-token allocator (tokens are epoll registration
/// keys; `u64::MAX` is reserved for the reactor wakers).
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(0);

fn run_accept(shared: &Arc<Shared>, listener: &TcpListener, reactors: &[Arc<ReactorHandle>]) {
    let mut next_reactor = 0usize;
    for incoming in listener.incoming() {
        if shared.draining() {
            break;
        }
        let Ok(stream) = incoming else { continue };
        if shared.connections.load(Ordering::Relaxed) >= shared.max_connections {
            telemetry::counter_add("server.conn.rejected", 1);
            shared.totals.shed.fetch_add(1, Ordering::Relaxed);
            // The reject races protocol negotiation, so it is always the
            // v1 JSON line; v2 clients recognize the non-NUL first byte
            // as a pre-negotiation rejection (docs/protocol.md).
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(shared.write_timeout));
            let reject = protocol::error_line(
                ErrorKind::Overloaded,
                &format!(
                    "connection limit reached ({} active)",
                    shared.max_connections
                ),
            );
            let _ = stream.write_all(reject.as_bytes());
            let _ = stream.write_all(b"\n");
            continue; // dropped: closed
        }
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        shared.connections.fetch_add(1, Ordering::Relaxed);
        shared.totals.connections.fetch_add(1, Ordering::Relaxed);
        telemetry::counter_add("server.conn.accepted", 1);
        let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        let stream = Arc::new(stream);
        let handle = Arc::clone(&reactors[next_reactor % reactors.len()]);
        next_reactor = next_reactor.wrapping_add(1);
        let out = Arc::new(ConnOut::new(
            token,
            Arc::clone(&stream),
            Arc::clone(&handle),
        ));
        handle.post(Mail::Register { stream, out });
    }
}

fn run_worker(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        telemetry::gauge_set("server.queue.depth", shared.queue.len() as f64);
        match job {
            Job::V1(mut job) => {
                let waited = job.enqueued.elapsed();
                let waited_ns = waited.as_nanos() as u64;
                telemetry::record_duration_ns("server.queue.wait_ns", waited_ns);
                job.trace.add(Stage::QueueWait, waited_ns);
                if job.out.is_alive() {
                    let reply = shared.process_v1(&mut job, waited);
                    job.out.submit_v1(job.seq, reply);
                } else {
                    // Dead connection: advance the sequencer, write
                    // nothing, but still file the trace so the flight
                    // recorder sees the drop.
                    if job.trace.is_enabled() {
                        shared
                            .trace_finish(
                                job.trace.clone(),
                                String::new(),
                                String::new(),
                                "dropped",
                            )
                            .complete(false);
                    }
                    job.out.submit_v1(job.seq, None);
                }
                job.out.finish_job();
            }
            Job::V2(mut batch) => {
                run_batch(shared, &mut batch);
                batch.out.finish_job();
            }
        }
    }
}

/// Execute one v2 batch: every frame in arrival order, replies encoded
/// into one buffer and written with one send. Frames across batches
/// (and connections) complete out of order; the ids sort it out client
/// side.
fn run_batch(shared: &Arc<Shared>, batch: &mut V2Batch) {
    let waited = batch.enqueued.elapsed();
    let waited_ns = waited.as_nanos() as u64;
    telemetry::record_duration_ns("server.queue.wait_ns", waited_ns);
    batch.trace.add(Stage::QueueWait, waited_ns);
    if !batch.out.is_alive() {
        if batch.trace.is_enabled() {
            let detail = format!("frames/{}", batch.frames.len());
            shared
                .trace_finish(batch.trace.clone(), "batch".into(), detail, "dropped")
                .complete(false);
        }
        return;
    }
    let started = Instant::now();
    let mut replies: Vec<u8> =
        Vec::with_capacity(batch.frames.len() * (wire::HEADER_LEN + wire::ESTIMATE_REPLY_LEN));
    for frame in &batch.frames {
        execute_frame(
            shared,
            frame,
            &batch.data,
            batch.enqueued,
            &mut batch.trace,
            &mut replies,
        );
    }
    telemetry::record_duration_ns("server.request_ns", started.elapsed().as_nanos() as u64);
    let submitted_ns = telemetry::clock::now_ns();
    batch.out.send(&replies);
    if batch.trace.is_enabled() {
        TraceFinish {
            trace: batch.trace.clone(),
            op: "batch".to_string(),
            detail: format!("frames/{}", batch.frames.len()),
            status: "ok".to_string(),
            slow_threshold: shared.slow_threshold,
            submitted_ns,
        }
        .complete(true);
    }
}

/// Execute one v2 frame and append its reply frame to `replies`.
///
/// Deadline semantics (documented in docs/protocol.md): the effective
/// limit is the tighter of the in-band `deadline_ms` and the server
/// deadline, measured from the moment the frame was read off the
/// socket. A frame already past its limit is answered with a `timeout`
/// status without executing; a frame whose limit expires **during**
/// execution is still answered in full, late-but-labeled with
/// [`wire::FLAG_LATE`] — the work is done, discarding it helps nobody,
/// and the flag lets the client decide.
fn execute_frame(
    shared: &Arc<Shared>,
    frame: &FrameRef,
    data: &[u8],
    enqueued: Instant,
    trace: &mut TraceCtx,
    replies: &mut Vec<u8>,
) {
    let payload = &data[frame.payload.0..frame.payload.1];
    let limit = shared.limit(
        (frame.deadline_ms > 0).then(|| Duration::from_millis(u64::from(frame.deadline_ms))),
    );
    if let Some(limit) = limit {
        let waited = enqueued.elapsed();
        if waited > limit {
            shared.totals.timeouts.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add("server.queue.timeout", 1);
            let message = format!(
                "deadline exceeded: {} ms since arrival, limit {} ms",
                waited.as_millis(),
                limit.as_millis()
            );
            wire::encode_frame(
                replies,
                frame.id,
                wire::status_of(ErrorKind::Timeout),
                0,
                message.as_bytes(),
            );
            return;
        }
    }
    let result = match wire::Opcode::from_u8(frame.op) {
        Some(wire::Opcode::FetchModel) => exec_fetch_model(&shared.core, payload),
        Some(wire::Opcode::HaveModel) => exec_have_model(&shared.core, payload),
        Some(wire::Opcode::WarmKeys) => exec_warm_keys(&shared.core, payload),
        Some(op) => exec_client_op(&shared.core, op, payload, trace),
        None => Err((
            ErrorKind::BadRequest,
            format!("unknown opcode {}", frame.op),
        )),
    };
    // Late-but-labeled: re-check the limit after execution and set the
    // flag instead of discarding finished work.
    let flags = match limit {
        Some(limit) if enqueued.elapsed() > limit => wire::FLAG_LATE,
        _ => 0,
    };
    match result {
        Ok(payload) => {
            shared.totals.ok.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add("server.request.ok", 1);
            wire::encode_frame(replies, frame.id, wire::STATUS_OK, flags, &payload);
        }
        Err((kind, message)) => {
            shared.totals.errors.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add("server.request.error", 1);
            wire::encode_frame(
                replies,
                frame.id,
                wire::status_of(kind),
                flags,
                message.as_bytes(),
            );
        }
    }
}

/// Run one client opcode (estimate, characterize, stats, ping): decode
/// the payload, execute, encode the answer.
///
/// Estimates go through a per-thread reply memo first: a warm v2
/// estimate is dominated by re-rendering an identical answer, so
/// identical request payloads (the monitoring / design-sweep steady
/// state) short-circuit to the cached reply bytes with the source
/// rewritten to `memo`. Safe because estimates are pure functions of the
/// request payload — characterization is deterministic, so even a
/// re-characterized model yields the same numbers. v1 never sees the
/// memo: its replies keep the engine's own source label.
fn exec_client_op(
    core: &Core,
    op: wire::Opcode,
    payload: &[u8],
    trace: &mut TraceCtx,
) -> Result<Vec<u8>, RequestError> {
    thread_local! {
        static MEMO: RefCell<HashMap<[u8; wire::ESTIMATE_REQ_LEN], Vec<u8>>> =
            RefCell::new(HashMap::new());
    }
    // Legacy 18-byte payloads key as their 19-byte form with floor 0
    // ("server default") — the memo must not fork on encoding.
    let key: Option<[u8; wire::ESTIMATE_REQ_LEN]> = match (op, payload.len()) {
        (wire::Opcode::Estimate, wire::ESTIMATE_REQ_LEN) => payload.try_into().ok(),
        (wire::Opcode::Estimate, wire::LEGACY_ESTIMATE_REQ_LEN) => {
            let mut padded = [0u8; wire::ESTIMATE_REQ_LEN];
            padded[..wire::LEGACY_ESTIMATE_REQ_LEN].copy_from_slice(payload);
            Some(padded)
        }
        _ => None,
    };
    if let Some(key) = key {
        if let Some(hit) = MEMO.with(|memo| memo.borrow().get(&key).cloned()) {
            telemetry::counter_add("server.memo.hit", 1);
            return Ok(hit);
        }
    }
    let request = wire::decode_request(op, payload).map_err(|m| (ErrorKind::BadRequest, m))?;
    let answer = exec::execute(core, request, trace)?;
    let reply = wire::encode_answer(&answer);
    if let Answer::Estimate { estimate, .. } = &answer {
        telemetry::counter_add("server.memo.miss", 1);
        // Only full-fidelity replies are memoizable: a tier-A/B answer
        // for this key is expected to improve once the background
        // upgrade lands, and a memo hit would pin the stale tier forever.
        if let (Some(key), Fidelity::Full) = (key, estimate.fidelity) {
            MEMO.with(|memo| {
                let mut memo = memo.borrow_mut();
                // Blunt bound, like the distribution memo: distinct
                // estimate payloads are rare (catalogue × widths × data
                // types).
                if memo.len() >= 4096 {
                    memo.clear();
                }
                let mut memoized = reply.clone();
                memoized[wire::ESTIMATE_REPLY_SOURCE_OFFSET] = wire::SOURCE_MEMO;
                memo.insert(key, memoized);
            });
        }
    }
    Ok(reply)
}

/// Serve a peer's fetch-model request: stream the stored artifact's
/// envelope bytes verbatim, so the peer can re-verify the checksum
/// independently. An empty ok payload means "not on disk" — envelope
/// files are never empty, so the encoding is unambiguous.
fn exec_fetch_model(core: &Core, payload: &[u8]) -> Result<Vec<u8>, RequestError> {
    let spec = wire::decode_spec_request(payload).map_err(|m| (ErrorKind::BadRequest, m))?;
    let Some(root) = &core.store_root else {
        return Err((
            ErrorKind::BadRequest,
            "this node has no disk store to fetch from".to_string(),
        ));
    };
    let key = core.engine.key_for(spec);
    let path = root.join(key.artifact_file_name());
    if !path.exists() {
        return Ok(Vec::new());
    }
    match persist::read_envelope_bytes::<Characterization>(&path, &EnvelopeMeta::for_key(&key)) {
        Ok(bytes) if bytes.len() > wire::MAX_PAYLOAD as usize => Err((
            ErrorKind::Engine,
            format!(
                "artifact {} is {} bytes, over the {} byte frame cap",
                path.display(),
                bytes.len(),
                wire::MAX_PAYLOAD
            ),
        )),
        Ok(bytes) => Ok(bytes),
        // A racing delete between the exists() probe and the read is the
        // same "not on disk" answer.
        Err(hdpm_core::ModelError::Io(e)) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err((ErrorKind::Engine, e.to_string())),
    }
}

/// Serve a peer's have-model probe: one byte, present in either tier or
/// absent.
fn exec_have_model(core: &Core, payload: &[u8]) -> Result<Vec<u8>, RequestError> {
    let spec = wire::decode_spec_request(payload).map_err(|m| (ErrorKind::BadRequest, m))?;
    let reply = if core.engine.has_model(spec) {
        wire::HaveModelReply::Present
    } else {
        wire::HaveModelReply::Absent
    };
    Ok(wire::encode_have_model_reply(reply).to_vec())
}

/// Serve a peer's warm-keys exchange: validate the advertised list (the
/// sender's side of the gossip does the learning), reply with this
/// node's hottest keys.
fn exec_warm_keys(core: &Core, payload: &[u8]) -> Result<Vec<u8>, RequestError> {
    let _theirs = wire::decode_warm_keys(payload).map_err(|m| (ErrorKind::BadRequest, m))?;
    let specs: Vec<hdpm_netlist::ModuleSpec> = core
        .engine
        .hottest_keys(wire::WARM_KEYS_MAX)
        .iter()
        .map(|key| key.spec)
        .collect();
    if let Some(rt) = &core.cluster {
        rt.state.stats().record_warm_keys_sent(specs.len() as u64);
    }
    Ok(wire::encode_warm_keys(&specs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_keys_match_the_canonical_metric_key() {
        for stage in trace_mod::STAGES {
            assert_eq!(
                STAGE_KEYS[stage as usize],
                telemetry::metric_key("server.stage_ns", &[("stage", stage.as_str())]),
            );
        }
    }
}
