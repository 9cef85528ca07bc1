//! The v1 JSON-lines codec, spoken by `hdpm serve` (stdin) and by
//! `hdpm server` (TCP) on connections that do not negotiate v2.
//!
//! One request per line, one reply per line. Three operations:
//!
//! * `{"op":"estimate","module":...,"width":...,"data":...}` — analytic
//!   power estimate through the engine cache;
//! * `{"op":"characterize","module":...,"width":...}` — force a model
//!   into the cache and report where it came from;
//! * `{"op":"stats"}` — the engine's counter snapshot.
//!
//! This module only translates: a line decodes to a [`Request`],
//! resolves to a typed [`client::Request`], runs through the shared
//! executor (`crate::exec`, the same one the v2 frames reach), and the
//! typed answer renders back to a line. Every failure produces a
//! structured reply
//! `{"ok":false,"error":{"kind":"<kind>","message":"<detail>"}}` and never
//! tears the transport down; [`ErrorKind`] enumerates the kinds. Blank
//! lines are skipped. The transcript in `docs/engine.md` is a golden
//! fixture: both transports must replay it byte-identically
//! (`crates/server/tests/golden.rs`).

use std::io::{BufRead, Write};
use std::sync::Arc;

use hdpm_core::{Fidelity, PowerEngine};
use hdpm_netlist::{ModuleKind, ModuleSpec, ModuleWidth};
use hdpm_streams::{DataType, ALL_DATA_TYPES};
use hdpm_telemetry::TraceCtx;
use serde::{Deserialize, Value};

use crate::client;
use crate::exec::{self, Answer, Core};

/// Every module kind the protocol accepts, in `hdpm list` order.
pub const ALL_MODULE_KINDS: [ModuleKind; 14] = ModuleKind::ALL;

/// Resolve a module kind by its wire id.
///
/// # Errors
///
/// Returns a message naming the unknown kind.
pub fn module_kind(name: &str) -> Result<ModuleKind, String> {
    ModuleKind::from_id(name).ok_or_else(|| format!("unknown module kind `{name}`"))
}

/// Resolve a data type by name or paper roman numeral.
///
/// # Errors
///
/// Returns a message naming the unknown type.
pub fn data_type(name: &str) -> Result<DataType, String> {
    ALL_DATA_TYPES
        .iter()
        .copied()
        .find(|d| d.name() == name || d.roman() == name)
        .ok_or_else(|| format!("unknown data type `{name}`"))
}

/// One parsed request line. Unknown keys are ignored; absent optional
/// keys fall back to the same defaults as the batch subcommands.
#[derive(Debug, Deserialize)]
pub struct Request {
    /// Operation: `estimate`, `characterize` or `stats`.
    pub op: String,
    /// Module kind id (required by `estimate`/`characterize`).
    pub module: Option<String>,
    /// First operand width (required by `estimate`/`characterize`).
    pub width: Option<usize>,
    /// Second operand width for rectangular modules.
    pub width2: Option<usize>,
    /// Data type of the operand streams (default `random`).
    pub data: Option<String>,
    /// Stream length in cycles (default 2000).
    pub cycles: Option<usize>,
    /// Stream generator seed (default 7).
    pub seed: Option<u64>,
    /// Per-request deadline in milliseconds, honoured by the TCP server
    /// (capped by the server's own deadline); ignored on stdin.
    pub deadline_ms: Option<u64>,
    /// Minimum acceptable fidelity tier for `estimate` (`analytic`,
    /// `regressed` or `full`); absent = the transport's default floor
    /// (the `--fidelity-floor` flag of `hdpm serve` / `hdpm server`).
    pub fidelity_floor: Option<String>,
}

/// Classification of a failed request, carried on the wire as
/// `error.kind`. The full failure-semantics table is in `docs/server.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line was not valid JSON.
    Malformed,
    /// The line was not valid UTF-8.
    InvalidUtf8,
    /// Valid JSON that is not a valid request (unknown op, missing or
    /// unresolvable fields).
    BadRequest,
    /// The engine failed to serve the request (netlist construction,
    /// characterization, width mismatch, corrupt artifact ...).
    Engine,
    /// The server shed the request: queue full, connection limit, or
    /// draining. Never emitted by the stdin transport.
    Overloaded,
    /// The request's deadline, counted from its arrival, expired before
    /// it could execute. Never emitted by the stdin transport.
    Timeout,
}

impl ErrorKind {
    /// The lower-case wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Malformed => "malformed",
            ErrorKind::InvalidUtf8 => "invalid_utf8",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Engine => "engine",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Timeout => "timeout",
        }
    }
}

/// A failed request: kind plus human-readable detail.
pub type RequestError = (ErrorKind, String);

/// Build the structured error reply value for a failed request.
pub fn error_value(kind: ErrorKind, message: &str) -> Value {
    Value::Object(vec![
        ("ok".into(), Value::Bool(false)),
        (
            "error".into(),
            Value::Object(vec![
                ("kind".into(), Value::Str(kind.as_str().into())),
                ("message".into(), Value::Str(message.into())),
            ]),
        ),
    ])
}

/// Serialize a reply value to its wire line (without the newline).
pub fn render(reply: &Value) -> String {
    serde_json::to_string(reply).expect("reply values always serialize")
}

/// [`error_value`] pre-rendered to its wire line.
pub fn error_line(kind: ErrorKind, message: &str) -> String {
    render(&error_value(kind, message))
}

/// Append the trace id to a reply value (`"trace":"t…"`), so clients can
/// join a reply against the server's flight recorder and slow-request
/// log. The TCP server attaches this to every reply when tracing is on;
/// the stdin transport never does (its golden transcript is id-free).
pub fn attach_trace(reply: &mut Value, trace_id: &str) {
    if let Value::Object(fields) = reply {
        fields.push(("trace".into(), Value::Str(trace_id.into())));
    }
}

/// [`attach_trace`] applied to an already-rendered reply line: splices
/// `,"trace":"t…"` in before the closing brace. Byte-identical to
/// attaching before rendering (trace ids never need escaping), without
/// re-walking the value — the server's warm path uses this.
pub fn append_trace(line: &mut String, trace_id: &str) {
    debug_assert!(line.ends_with('}'), "replies are JSON objects: {line}");
    line.truncate(line.len() - 1);
    line.reserve(trace_id.len() + 12);
    line.push_str(",\"trace\":\"");
    line.push_str(trace_id);
    line.push_str("\"}");
}

/// [`append_trace`] from the raw 64-bit id: renders the `t…` form
/// straight into the line, skipping the intermediate id string.
pub fn append_trace_id(line: &mut String, id: u64) {
    debug_assert!(line.ends_with('}'), "replies are JSON objects: {line}");
    line.truncate(line.len() - 1);
    line.reserve(29);
    line.push_str(",\"trace\":\"");
    hdpm_telemetry::trace::write_trace_id(line, id);
    line.push_str("\"}");
}

/// Decode one raw line into a [`Request`], classifying failures. Returns
/// `Ok(None)` for blank lines (no reply is owed).
///
/// # Errors
///
/// [`ErrorKind::InvalidUtf8`] for non-UTF-8 bytes, [`ErrorKind::Malformed`]
/// for invalid JSON or a shape mismatch.
pub fn decode(raw: &[u8]) -> Result<Option<Request>, RequestError> {
    let text = std::str::from_utf8(raw).map_err(|_| {
        (
            ErrorKind::InvalidUtf8,
            "request line is not valid UTF-8".to_string(),
        )
    })?;
    if text.trim().is_empty() {
        return Ok(None);
    }
    serde_json::from_str::<Request>(text)
        .map(Some)
        .map_err(|e| (ErrorKind::Malformed, format!("malformed request: {e}")))
}

/// Execute a decoded request against the engine at a `full` default
/// floor, with no cluster and no tracing.
///
/// # Errors
///
/// [`ErrorKind::BadRequest`] for unresolvable request fields,
/// [`ErrorKind::Engine`] for engine failures.
pub fn handle(engine: &Arc<PowerEngine>, request: &Request) -> Result<Value, RequestError> {
    respond(
        &Core::local(Arc::clone(engine), Fidelity::Full),
        request,
        &mut TraceCtx::disabled(),
    )
}

/// Resolve a decoded request, run it through the executor, and render
/// the answer: everything a v1 transport does after decoding (and, over
/// TCP, after the deadline check).
pub(crate) fn respond(
    core: &Core,
    request: &Request,
    trace: &mut TraceCtx,
) -> Result<Value, RequestError> {
    let request = resolve(request)?;
    exec::execute(core, request, trace).map(|answer| answer_value(&answer))
}

/// A short human-readable handle on what a request asked for, used in
/// trace records and the slow-request log: `module/width` (or
/// `module/w1xw2`) when present, empty otherwise.
pub fn request_detail(request: &Request) -> String {
    let Some(module) = request.module.as_deref() else {
        return String::new();
    };
    match (request.width, request.width2) {
        (Some(w1), Some(w2)) => format!("{module}/{w1}x{w2}"),
        (Some(w1), None) => format!("{module}/{w1}"),
        _ => module.to_string(),
    }
}

/// The request/reply loop over byte streams: `hdpm serve`'s engine room,
/// also driven in-memory by tests and the golden-transcript replay.
/// Estimates that name no `fidelity_floor` are served at
/// `default_floor` (`full` keeps the golden transcript). Reads raw bytes
/// (not [`BufRead::lines`]) so invalid UTF-8 yields a structured reply
/// instead of an `io::Error` that would end the loop.
///
/// # Errors
///
/// Only transport failures (reading input, writing output) end the loop.
pub fn serve_lines<R: BufRead, W: Write>(
    engine: &Arc<PowerEngine>,
    default_floor: Fidelity,
    mut input: R,
    mut output: W,
) -> std::io::Result<()> {
    let _span = hdpm_telemetry::span("serve.loop");
    let core = Core::local(Arc::clone(engine), default_floor);
    let mut raw = Vec::new();
    loop {
        raw.clear();
        if input.read_until(b'\n', &mut raw)? == 0 {
            return Ok(());
        }
        let reply = match decode(trim_line(&raw)) {
            Ok(None) => continue,
            Ok(Some(request)) => respond(&core, &request, &mut TraceCtx::disabled()),
            Err(e) => Err(e),
        };
        let reply = reply.unwrap_or_else(|(kind, message)| error_value(kind, &message));
        output.write_all(render(&reply).as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
    }
}

/// Strip one trailing `\n` or `\r\n` from a raw line.
pub fn trim_line(raw: &[u8]) -> &[u8] {
    let raw = raw.strip_suffix(b"\n").unwrap_or(raw);
    raw.strip_suffix(b"\r").unwrap_or(raw)
}

/// Resolve a decoded line into the typed request the executor runs.
/// Field errors surface in a fixed order — module, width, fidelity
/// floor, data type — so a request with several bad fields gets the
/// same reply it always has.
fn resolve(request: &Request) -> Result<client::Request, RequestError> {
    let bad = |message: String| (ErrorKind::BadRequest, message);
    match request.op.as_str() {
        "estimate" => {
            let spec = spec_of(request)?;
            let floor = match request.fidelity_floor.as_deref() {
                None => None,
                Some(text) => Some(Fidelity::parse(text).ok_or_else(|| {
                    bad(format!(
                        "unknown fidelity floor `{text}` (expected analytic, regressed or full)"
                    ))
                })?),
            };
            let data = data_type(request.data.as_deref().unwrap_or("random")).map_err(bad)?;
            Ok(client::Request::Estimate {
                spec,
                data,
                // Saturating: anything past u32 is over the executor's
                // cycles cap anyway, and is rejected there.
                cycles: request
                    .cycles
                    .map_or(2000, |c| u32::try_from(c).unwrap_or(u32::MAX)),
                seed: request.seed.unwrap_or(7),
                floor,
            })
        }
        "characterize" => Ok(client::Request::Characterize {
            spec: spec_of(request)?,
        }),
        "stats" => Ok(client::Request::Stats),
        other => Err(bad(format!(
            "unknown op `{other}` (expected estimate, characterize or stats)"
        ))),
    }
}

fn spec_of(request: &Request) -> Result<ModuleSpec, RequestError> {
    let bad = |message: String| (ErrorKind::BadRequest, message);
    let name = request
        .module
        .as_deref()
        .ok_or_else(|| bad("missing field `module`".into()))?;
    let kind = module_kind(name).map_err(bad)?;
    let width = request
        .width
        .ok_or_else(|| bad("missing field `width`".into()))?;
    let width = match request.width2 {
        Some(w2) => ModuleWidth::Rect(width, w2),
        None => ModuleWidth::Uniform(width),
    };
    Ok(ModuleSpec::new(kind, width))
}

/// Render an executor answer as its v1 reply value.
fn answer_value(answer: &Answer) -> Value {
    let text = |s: &str| Value::Str(s.into());
    let int = |n: u64| Value::Int(n as i64);
    // Sized for the widest reply (stats: 14 fields).
    let mut fields: Vec<(String, Value)> = Vec::with_capacity(14);
    let mut add = |key: &str, value: Value| fields.push((key.into(), value));
    add("ok", Value::Bool(true));
    match answer {
        Answer::Estimate {
            spec,
            data,
            estimate: e,
        } => {
            add("op", text("estimate"));
            add("module", Value::Str(spec.to_string()));
            add("data", Value::Str(data.to_string()));
            add("charge_per_cycle", Value::Float(e.charge_per_cycle));
            add("via_average", Value::Float(e.via_average));
            add("average_hd", Value::Float(e.average_hd));
            add("source", text(e.source.as_str()));
            add("fidelity", text(e.fidelity.as_str()));
            add("confidence", Value::Float(e.confidence));
        }
        Answer::Characterize {
            spec,
            characterization: c,
            source,
        } => {
            add("op", text("characterize"));
            add("module", Value::Str(spec.to_string()));
            add("input_bits", int(c.model.input_bits() as u64));
            add("transitions", int(c.transitions as u64));
            let converged = c.converged_after.map(|p| int(p as u64));
            add("converged_after", converged.unwrap_or(Value::Null));
            add("source", text(source.as_str()));
            add("fidelity", text(Fidelity::Full.as_str()));
        }
        Answer::Stats(stats) => {
            add("op", text("stats"));
            add("entries", int(stats.entries as u64));
            add("capacity", int(stats.capacity as u64));
            add("hits", int(stats.hits));
            add("misses", int(stats.misses));
            add("evictions", int(stats.evictions));
            add("disk_hits", int(stats.disk_hits));
            add("characterizations", int(stats.characterizations));
            add("coalesced", int(stats.coalesced));
            add("inflight", int(stats.inflight as u64));
            add("analytic_served", int(stats.analytic_served));
            add("regressed_served", int(stats.regressed_served));
            add("upgrades_done", int(stats.upgrades_done));
        }
        Answer::Pong => add("op", text("ping")),
    }
    Value::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdpm_core::{CharacterizationConfig, EngineOptions, ShardingConfig};

    #[test]
    fn append_trace_matches_attach_then_render() {
        let id = "t00c0ffee00c0ffee";
        for value in [
            error_value(ErrorKind::Timeout, "deadline exceeded: queued 9 ms"),
            Value::Object(vec![
                ("ok".into(), Value::Bool(true)),
                ("op".into(), Value::Str("stats".into())),
                ("entries".into(), Value::UInt(3)),
            ]),
        ] {
            let mut attached = value.clone();
            attach_trace(&mut attached, id);
            let mut spliced = render(&value);
            append_trace(&mut spliced, id);
            assert_eq!(spliced, render(&attached));
        }
    }

    fn quick_engine() -> Arc<PowerEngine> {
        Arc::new(PowerEngine::new(EngineOptions {
            config: CharacterizationConfig::builder()
                .max_patterns(1500)
                .build()
                .unwrap(),
            sharding: Some(ShardingConfig {
                shards: 4,
                threads: 1,
            }),
            disk_root: None,
            capacity: 8,
        }))
    }

    fn run(engine: &Arc<PowerEngine>, script: &[u8]) -> Vec<String> {
        let mut out = Vec::new();
        serve_lines(engine, Fidelity::Full, script, &mut out).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(String::from)
            .collect()
    }

    #[test]
    fn estimate_then_stats_round_trip() {
        let engine = quick_engine();
        let replies = run(
            &engine,
            b"{\"op\":\"characterize\",\"module\":\"ripple_adder\",\"width\":4}\n\
              {\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":4,\"data\":\"counter\"}\n\
              {\"op\":\"stats\"}\n",
        );
        assert_eq!(replies.len(), 3);
        assert!(replies[0].contains("\"ok\":true"));
        assert!(replies[0].contains("\"source\":\"fresh\""));
        assert!(replies[1].contains("\"source\":\"memory\""));
        assert!(replies[1].contains("charge_per_cycle"));
        assert!(replies[2].contains("\"characterizations\":1"));
        assert!(replies[2].contains("\"inflight\":0"));
    }

    #[test]
    fn failures_are_structured_and_do_not_stop_the_loop() {
        let engine = quick_engine();
        let replies = run(
            &engine,
            b"not json\n\
              {\"op\":\"transmogrify\"}\n\
              {\"op\":\"estimate\",\"module\":\"warp_core\",\"width\":4}\n\
              {\"op\":\"estimate\",\"module\":\"ripple_adder\"}\n\
              \n\
              {\"op\":\"stats\"}\n",
        );
        assert_eq!(replies.len(), 5, "blank lines skipped, errors replied");
        assert!(replies[0].contains("\"ok\":false"));
        assert!(replies[0].contains("\"kind\":\"malformed\""));
        assert!(replies[0].contains("malformed request"));
        assert!(replies[1].contains("\"kind\":\"bad_request\""));
        assert!(replies[1].contains("unknown op `transmogrify`"));
        assert!(replies[2].contains("unknown module kind `warp_core`"));
        assert!(replies[3].contains("missing field `width`"));
        assert!(replies[4].contains("\"ok\":true"));
    }

    #[test]
    fn invalid_utf8_lines_reply_and_continue() {
        let engine = quick_engine();
        let mut script: Vec<u8> = Vec::new();
        script.extend_from_slice(b"{\"op\":\"stats\"}\n");
        script.extend_from_slice(&[0xFF, 0xFE, b'{', 0x80, b'\n']);
        script.extend_from_slice(b"{\"op\":\"stats\"}\n");
        let replies = run(&engine, &script);
        assert_eq!(replies.len(), 3, "the bad line answered, the loop alive");
        assert!(replies[0].contains("\"ok\":true"));
        assert!(replies[1].contains("\"kind\":\"invalid_utf8\""));
        assert!(replies[1].contains("not valid UTF-8"));
        assert!(replies[2].contains("\"ok\":true"));
    }

    #[test]
    fn engine_failures_are_distinguished_from_bad_requests() {
        let engine = quick_engine();
        // Width 1 csa_multiplier fails netlist construction inside the
        // engine — a well-formed request the engine cannot serve.
        let replies = run(
            &engine,
            b"{\"op\":\"characterize\",\"module\":\"csa_multiplier\",\"width\":1}\n",
        );
        assert!(replies[0].contains("\"kind\":\"engine\""), "{}", replies[0]);
    }

    #[test]
    fn crlf_lines_are_tolerated() {
        let engine = quick_engine();
        let replies = run(&engine, b"{\"op\":\"stats\"}\r\n");
        assert!(replies[0].contains("\"ok\":true"));
    }

    #[test]
    fn replies_are_deterministic_for_a_fresh_engine() {
        let script: &[u8] =
            b"{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":4,\"data\":\"speech\"}\n\
              {\"op\":\"stats\"}\n";
        assert_eq!(run(&quick_engine(), script), run(&quick_engine(), script));
    }

    #[test]
    fn default_floor_replies_are_labeled_full() {
        let engine = quick_engine();
        let replies = run(
            &engine,
            b"{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":4}\n",
        );
        assert!(
            replies[0].contains("\"fidelity\":\"full\""),
            "{}",
            replies[0]
        );
        assert!(replies[0].contains("\"confidence\":1"), "{}", replies[0]);
    }

    #[test]
    fn per_request_floor_serves_an_instant_analytic_answer() {
        let engine = quick_engine();
        let replies = run(
            &engine,
            b"{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":4,\"fidelity_floor\":\"analytic\"}\n",
        );
        assert!(
            replies[0].contains("\"fidelity\":\"analytic\""),
            "{}",
            replies[0]
        );
        assert!(
            replies[0].contains("\"source\":\"analytic\""),
            "{}",
            replies[0]
        );
    }

    #[test]
    fn unknown_floor_spellings_are_bad_requests() {
        let engine = quick_engine();
        let replies = run(
            &engine,
            b"{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":4,\"fidelity_floor\":\"fast\"}\n",
        );
        assert!(
            replies[0].contains("\"kind\":\"bad_request\""),
            "{}",
            replies[0]
        );
        assert!(
            replies[0].contains("unknown fidelity floor `fast`"),
            "{}",
            replies[0]
        );
    }

    #[test]
    fn characterize_replies_are_labeled_full_fidelity() {
        let engine = quick_engine();
        let replies = run(
            &engine,
            b"{\"op\":\"characterize\",\"module\":\"ripple_adder\",\"width\":4}\n",
        );
        assert!(
            replies[0].contains("\"fidelity\":\"full\""),
            "{}",
            replies[0]
        );
    }

    #[test]
    fn stats_reports_the_fidelity_counters() {
        let engine = quick_engine();
        let replies = run(&engine, b"{\"op\":\"stats\"}\n");
        for field in ["analytic_served", "regressed_served", "upgrades_done"] {
            assert!(replies[0].contains(field), "{}", replies[0]);
        }
    }
}
