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
//! Both protocols queue the same job type, `Job`: its `Work` is one v1
//! line or one read burst of v2 frames. Every job takes one path from
//! the queue to its reply. [`Shared::enqueue`] admits it or refuses it
//! (`Shared::shed`, one `overloaded` reply per refused request); the
//! worker records its queue wait and drops it if the connection died;
//! and only then does the codec split: a line is decoded and handed to
//! the executor (`crate::exec`, through [`protocol::respond`]), each
//! frame is decoded and executed (`exec_client_op`). Both check their
//! deadline through `Shared::admit` and count their outcome through
//! `Shared::tally`. Only frames keep a per-server reply memo
//! (`ReplyMemo`) in front of the executor, keyed by the raw estimate
//! payload; the peer-only cluster opcodes (fetch-model, have-model,
//! warm-keys) have no v1 spelling and are answered here directly.
//!
//! One kind of burst never reaches the queue: when every frame of a
//! read burst is an estimate whose reply is memoized, the reactor that
//! read it answers it on the spot ([`Shared::run_inline`]) — same memo,
//! same reply assembly, same accounting as a worker, minus the queue
//! handoff and the wakeup. Any other burst is queued whole.
//!
//! v1 replies on one connection are written in request order even
//! though workers complete out of order (the per-connection sequencer
//! lives in [`crate::reactor::ConnOut`]); v2 replies carry request ids
//! and complete **out of order** — one slow characterization no longer
//! stalls the pipelined requests behind it.
//!
//! Robustness: per-request deadlines measured from arrival (a v2 frame
//! whose limit expires during execution is answered late-but-labeled,
//! [`crate::wire::FLAG_LATE`]), idle reaping, write timeouts that cut
//! slow readers instead of blocking a worker, and tolerance of
//! malformed input. [`Server::shutdown`] drains gracefully: stop
//! accepting, stop reading, finish every queued request, flush, join
//! every pool, report totals.
//!
//! # Observability
//!
//! When [`ServerConfig::tracing`] is on (the default), every job gets a
//! [`TraceCtx`] riding it through the pipeline, accumulating per-stage
//! timings. v1 replies echo the trace id as `"trace":"t…"`; completed
//! traces land in the flight recorder (`/tracez`, dumped on drain) and
//! the `server.stage_ns{stage=…}` histograms; requests slower than
//! [`ServerConfig::slow_threshold`] emit one `{"type":"slow_request",…}`
//! line on stderr. The optional admin plane
//! ([`ServerConfig::admin_addr`], `crate::admin`) serves `/metrics`,
//! `/healthz`, `/readyz` and `/tracez`. v2 traces are **per burst** (the
//! frames of one job share one trace): ids are already in band, and
//! per-frame contexts would cost more than the requests they measure.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hdpm_core::persist::{self, EnvelopeMeta};
use hdpm_core::{resolve_threads, Characterization, Fidelity, LruCache, PowerEngine};
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
    /// Requests answered with `timeout`: their deadline, counted from
    /// arrival, expired before execution.
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

/// One frame of a [`Work::Frames`] burst.
pub(crate) struct FrameRef {
    /// Request id, echoed in the reply.
    pub(crate) id: u64,
    /// Raw opcode byte (validated at execution).
    pub(crate) op: u8,
    /// In-band deadline in ms (0 = none).
    pub(crate) deadline_ms: u32,
    /// Payload byte range within the burst data.
    pub(crate) payload: (usize, usize),
}

impl FrameRef {
    /// This frame's payload within its burst's `data`.
    fn payload<'a>(&self, data: &'a [u8]) -> &'a [u8] {
        &data[self.payload.0..self.payload.1]
    }

    /// The frame's own deadline, if it set one.
    fn requested_deadline(&self) -> Option<Duration> {
        (self.deadline_ms > 0).then(|| Duration::from_millis(u64::from(self.deadline_ms)))
    }
}

/// Distinct estimate payloads the reply memo keeps: the catalogue ×
/// widths × data types of a monitoring or design-sweep steady state.
const REPLY_MEMO_CAPACITY: usize = 4096;

/// A reply-memo key: an estimate request payload in its 19-byte form.
type MemoKey = [u8; wire::ESTIMATE_REQ_LEN];

/// Memoized estimate reply payloads by request payload.
type MemoMap = LruCache<MemoKey, [u8; wire::ESTIMATE_REPLY_LEN]>;

/// The server's v2 reply memo: full-fidelity estimate reply payloads,
/// source rewritten to `memo`, keyed by the raw request payload.
///
/// A warm v2 estimate is dominated by re-rendering an identical answer,
/// so identical request payloads short-circuit to the cached bytes. Safe
/// because estimates are pure functions of the request payload —
/// characterization is deterministic, so even a re-characterized model
/// yields the same numbers. Owned by the server (never a process-wide
/// static), shared by every worker and reactor, and bounded as an LRU,
/// so a full memo evicts its coldest entry instead of the warm set.
struct ReplyMemo(Mutex<MemoMap>);

impl ReplyMemo {
    fn new() -> ReplyMemo {
        ReplyMemo(Mutex::new(LruCache::new(REPLY_MEMO_CAPACITY)))
    }

    /// The memo key of a frame, when it is an estimate. Legacy 18-byte
    /// payloads key as their 19-byte form with floor 0 ("server
    /// default") — the memo must not fork on encoding.
    fn key(op: u8, payload: &[u8]) -> Option<MemoKey> {
        if wire::Opcode::from_u8(op) != Some(wire::Opcode::Estimate) {
            return None;
        }
        match payload.len() {
            wire::ESTIMATE_REQ_LEN => payload.try_into().ok(),
            wire::LEGACY_ESTIMATE_REQ_LEN => {
                let mut padded = [0u8; wire::ESTIMATE_REQ_LEN];
                padded[..wire::LEGACY_ESTIMATE_REQ_LEN].copy_from_slice(payload);
                Some(padded)
            }
            _ => None,
        }
    }

    fn lock(&self) -> MutexGuard<'_, MemoMap> {
        self.0.lock().expect("reply memo lock")
    }
}

/// What a queued job asks for, in its protocol's framing.
pub(crate) enum Work {
    /// One v1 request line; `seq` places its reply in the connection's
    /// reply order.
    Line { seq: u64, raw: Vec<u8> },
    /// One read burst of v2 frames. Batching amortizes the queue handoff
    /// and the reply write across every frame the socket delivered
    /// together — the main lever behind the v2 throughput bar.
    Frames {
        data: Vec<u8>,
        frames: Vec<FrameRef>,
    },
}

/// A unit of queued work: what to run, where the reply goes, when it
/// arrived, and the trace it accumulates.
pub(crate) struct Job {
    out: Arc<ConnOut>,
    enqueued: Instant,
    trace: TraceCtx,
    work: Work,
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
    memo: ReplyMemo,
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

    /// Queue one job for the worker pool, or refuse it with `overloaded`
    /// replies when the queue is full or closed for the drain.
    pub(crate) fn enqueue(&self, out: &Arc<ConnOut>, work: Work) {
        out.begin_job();
        let job = Job {
            out: Arc::clone(out),
            enqueued: Instant::now(),
            trace: self.new_trace(),
            work,
        };
        match self.queue.try_push(job) {
            Ok(depth) => telemetry::gauge_set("server.queue.depth", depth as f64),
            Err(PushError::Full(job)) => self.shed(
                job,
                "server.queue.shed_full",
                &format!(
                    "queue full ({} queued): request shed",
                    self.queue.capacity()
                ),
            ),
            Err(PushError::Closed(job)) => {
                self.shed(
                    job,
                    "server.queue.shed_draining",
                    "server draining: request shed",
                );
            }
        }
    }

    /// Refuse a job the queue would not take: count every request it
    /// carries (one line, or each frame of a burst) under `counter` and
    /// the drain report, and answer each with an `overloaded` reply.
    fn shed(&self, job: Job, counter: &str, message: &str) {
        let refused = match &job.work {
            Work::Line { .. } => 1,
            Work::Frames { frames, .. } => frames.len() as u64,
        };
        self.totals.shed.fetch_add(refused, Ordering::Relaxed);
        telemetry::counter_add(counter, refused);
        match job.work {
            Work::Line { seq, .. } => {
                let mut line = protocol::error_line(ErrorKind::Overloaded, message);
                let trace = job.trace;
                let finish = trace.is_enabled().then(|| {
                    protocol::append_trace_id(&mut line, trace.id());
                    let status = ErrorKind::Overloaded.as_str();
                    Box::new(self.trace_finish(trace, String::new(), String::new(), status))
                });
                job.out.submit_v1(seq, Some(Reply { line, finish }));
            }
            Work::Frames { frames, .. } => {
                let mut replies =
                    Vec::with_capacity(frames.len() * (wire::HEADER_LEN + message.len()));
                for frame in &frames {
                    wire::encode_frame(
                        &mut replies,
                        frame.id,
                        wire::status_of(ErrorKind::Overloaded),
                        0,
                        message.as_bytes(),
                    );
                }
                job.out.send(&replies);
            }
        }
        job.out.finish_job();
    }

    /// Admit a request to execution. Its limit is the tighter of the
    /// server's deadline and its own (which may tighten, never extend,
    /// it), counted from arrival. Returns the limit, for a late-answer
    /// check after execution, or the `timeout` error when the limit has
    /// already passed.
    fn admit(
        &self,
        requested: Option<Duration>,
        enqueued: Instant,
    ) -> Result<Option<Duration>, RequestError> {
        let limit = match (self.deadline, requested) {
            (Some(server), Some(request)) => Some(server.min(request)),
            (server, request) => server.or(request),
        };
        if let Some(limit) = limit {
            let waited = enqueued.elapsed();
            if waited > limit {
                return Err((
                    ErrorKind::Timeout,
                    format!(
                        "deadline exceeded: {} ms since arrival, limit {} ms",
                        waited.as_millis(),
                        limit.as_millis()
                    ),
                ));
            }
        }
        Ok(limit)
    }

    /// Count how a request ended — ok, refused by [`Shared::admit`], or
    /// any other error — in the drain report and in the matching counter
    /// at once, so the two cannot diverge.
    fn tally<T>(&self, result: &Result<T, RequestError>) {
        let (total, counter) = match result {
            Ok(_) => (&self.totals.ok, "server.request.ok"),
            Err((ErrorKind::Timeout, _)) => (&self.totals.timeouts, "server.queue.timeout"),
            Err(_) => (&self.totals.errors, "server.request.error"),
        };
        total.fetch_add(1, Ordering::Relaxed);
        telemetry::counter_add(counter, 1);
    }

    /// Execute one v1 line: decode, admit (once, before execution),
    /// resolve and execute ([`protocol::respond`]), and render the reply
    /// with the trace id attached when tracing. Returns `None` when no
    /// output is owed (a blank line). `server.request_ns` measures the
    /// processing time only (decode → render).
    fn run_line(&self, raw: &[u8], enqueued: Instant, trace: &mut TraceCtx) -> Option<Reply> {
        let started = Instant::now();
        let decoded = trace.time(Stage::Decode, || protocol::decode(protocol::trim_line(raw)));
        let (op, detail, result) = match decoded {
            Ok(None) => return None,
            Err(e) => (String::new(), String::new(), Err(e)),
            Ok(Some(request)) => {
                let result = self
                    .admit(request.deadline_ms.map(Duration::from_millis), enqueued)
                    .and_then(|_| protocol::respond(&self.core, &request, trace));
                let detail = protocol::request_detail(&request);
                (request.op, detail, result)
            }
        };
        self.tally(&result);
        let (value, status) = match result {
            Ok(reply) => (reply, "ok"),
            Err((kind, message)) => (protocol::error_value(kind, &message), kind.as_str()),
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

    /// Execute one v2 burst on a worker: every frame decoded and run
    /// through the reply memo and the executor (`exec_frame`).
    fn run_frames(
        &self,
        out: &ConnOut,
        data: &[u8],
        frames: &[FrameRef],
        enqueued: Instant,
        trace: &mut TraceCtx,
    ) {
        self.reply_burst(out, frames, enqueued, trace, |_, frame, trace| {
            self.exec_frame(frame.op, frame.payload(data), trace)
        });
    }

    /// Answer a v2 burst on the reactor thread that read it, without a
    /// queue handoff, when every frame is an estimate whose reply is
    /// memoized. The memo is probed for the whole burst under one lock
    /// first, so a burst is answered whole, here or by a worker: returns
    /// `false`, having answered and counted nothing, at the first frame
    /// that does not qualify. Deadlines are left to `reply_burst`, as on
    /// the worker path: they count from `arrived`, which is now.
    pub(crate) fn run_inline(
        &self,
        out: &ConnOut,
        data: &[u8],
        frames: &[FrameRef],
        arrived: Instant,
    ) -> bool {
        let keys = || {
            frames
                .iter()
                .map(|frame| ReplyMemo::key(frame.op, frame.payload(data)))
        };
        let hits: Vec<_> = {
            let mut memo = self.memo.lock();
            // Peek first, so a burst that goes to the workers allocates
            // nothing and leaves recency alone.
            if !keys().all(|key| key.is_some_and(|key| memo.peek(&key).is_some())) {
                return false;
            }
            keys()
                .flatten()
                .filter_map(|key| memo.get(&key).copied())
                .collect()
        };
        telemetry::counter_add("server.request.inline", frames.len() as u64);
        let mut trace = self.new_trace();
        self.reply_burst(out, frames, arrived, &mut trace, |at, _, _| {
            telemetry::counter_add("server.memo.hit", 1);
            Ok(hits[at])
        });
        true
    }

    /// Answer every frame of a burst in arrival order, each through
    /// `exec` (given the frame's position in the burst): admit, execute,
    /// flag late, tally, and encode the reply frames into one buffer
    /// written with one send; then file the burst's trace. Workers and
    /// reactors share it, so both paths answer byte-identically. Frames
    /// across bursts (and connections) complete out of order; the ids
    /// sort it out client side.
    ///
    /// Deadline semantics (documented in docs/protocol.md): a frame
    /// already past its limit is answered with a `timeout` status
    /// without executing; a frame whose limit expires **during**
    /// execution is still answered in full, late-but-labeled with
    /// [`wire::FLAG_LATE`] — the work is done, discarding it helps
    /// nobody, and the flag lets the client decide.
    fn reply_burst<P: AsRef<[u8]>>(
        &self,
        out: &ConnOut,
        frames: &[FrameRef],
        enqueued: Instant,
        trace: &mut TraceCtx,
        mut exec: impl FnMut(usize, &FrameRef, &mut TraceCtx) -> Result<P, RequestError>,
    ) {
        let started = Instant::now();
        let mut replies: Vec<u8> =
            Vec::with_capacity(frames.len() * (wire::HEADER_LEN + wire::ESTIMATE_REPLY_LEN));
        for (at, frame) in frames.iter().enumerate() {
            let mut flags = 0;
            let result = self
                .admit(frame.requested_deadline(), enqueued)
                .and_then(|limit| {
                    let result = exec(at, frame, trace);
                    // Late-but-labeled: re-check the limit after
                    // execution and flag the reply instead of discarding
                    // finished work.
                    if limit.is_some_and(|limit| enqueued.elapsed() > limit) {
                        flags = wire::FLAG_LATE;
                    }
                    result
                });
            self.tally(&result);
            match result {
                Ok(payload) => wire::encode_frame(
                    &mut replies,
                    frame.id,
                    wire::STATUS_OK,
                    flags,
                    payload.as_ref(),
                ),
                Err((kind, message)) => wire::encode_frame(
                    &mut replies,
                    frame.id,
                    wire::status_of(kind),
                    flags,
                    message.as_bytes(),
                ),
            }
        }
        telemetry::record_duration_ns("server.request_ns", started.elapsed().as_nanos() as u64);
        let finish = trace.is_enabled().then(|| {
            let detail = format!("frames/{}", frames.len());
            self.trace_finish(trace.clone(), "batch".into(), detail, "ok")
        });
        out.send(&replies);
        if let Some(finish) = finish {
            finish.complete(true);
        }
    }

    /// Execute one v2 frame's opcode against its payload.
    fn exec_frame(
        &self,
        op: u8,
        payload: &[u8],
        trace: &mut TraceCtx,
    ) -> Result<Vec<u8>, RequestError> {
        match wire::Opcode::from_u8(op) {
            Some(wire::Opcode::FetchModel) => exec_fetch_model(&self.core, payload),
            Some(wire::Opcode::HaveModel) => exec_have_model(&self.core, payload),
            Some(wire::Opcode::WarmKeys) => exec_warm_keys(&self.core, payload),
            Some(op) => self.exec_client_op(op, payload, trace),
            None => Err((ErrorKind::BadRequest, format!("unknown opcode {op}"))),
        }
    }

    /// Run one client opcode (estimate, characterize, stats, ping):
    /// decode the payload, execute, encode the answer. Estimates go
    /// through the reply memo first; a full-fidelity answer enters it.
    /// v1 never sees the memo: its replies keep the engine's own source
    /// label.
    fn exec_client_op(
        &self,
        op: wire::Opcode,
        payload: &[u8],
        trace: &mut TraceCtx,
    ) -> Result<Vec<u8>, RequestError> {
        let key = ReplyMemo::key(op as u8, payload);
        if let Some(key) = key {
            if let Some(hit) = self.memo.lock().get(&key).copied() {
                telemetry::counter_add("server.memo.hit", 1);
                return Ok(hit.to_vec());
            }
        }
        let request = wire::decode_request(op, payload).map_err(|m| (ErrorKind::BadRequest, m))?;
        let answer = exec::execute(&self.core, request, trace)?;
        if let Answer::Estimate { estimate, .. } = &answer {
            telemetry::counter_add("server.memo.miss", 1);
            // Only full-fidelity replies are memoizable: a tier-A/B
            // answer for this key is expected to improve once the
            // background upgrade lands, and a memo hit would pin the
            // stale tier forever.
            if let (Some(key), Fidelity::Full) = (key, estimate.fidelity) {
                let memoized = wire::encode_estimate_reply(estimate, wire::SOURCE_MEMO);
                if self.memo.lock().insert(key, memoized).is_some() {
                    telemetry::counter_add("server.memo.evict", 1);
                }
            }
        }
        Ok(wire::encode_answer(&answer))
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
            memo: ReplyMemo::new(),
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
    while let Some(mut job) = shared.queue.pop() {
        telemetry::gauge_set("server.queue.depth", shared.queue.len() as f64);
        let waited_ns = job.enqueued.elapsed().as_nanos() as u64;
        telemetry::record_duration_ns("server.queue.wait_ns", waited_ns);
        job.trace.add(Stage::QueueWait, waited_ns);
        if !job.out.is_alive() {
            // Dead connection: write nothing, but still file the trace so
            // the flight recorder sees the drop.
            if job.trace.is_enabled() {
                let (op, detail) = match &job.work {
                    Work::Line { .. } => (String::new(), String::new()),
                    Work::Frames { frames, .. } => {
                        ("batch".to_string(), format!("frames/{}", frames.len()))
                    }
                };
                shared
                    .trace_finish(job.trace, op, detail, "dropped")
                    .complete(false);
            }
            if let Work::Line { seq, .. } = job.work {
                job.out.submit_v1(seq, None);
            }
        } else {
            match &job.work {
                Work::Line { seq, raw } => {
                    let reply = shared.run_line(raw, job.enqueued, &mut job.trace);
                    job.out.submit_v1(*seq, reply);
                }
                Work::Frames { data, frames } => {
                    shared.run_frames(&job.out, data, frames, job.enqueued, &mut job.trace);
                }
            }
        }
        job.out.finish_job();
    }
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
