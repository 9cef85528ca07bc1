//! The layer ladder of the traced run: the same estimate timed at each
//! boundary, from the benchmark's own calls into each layer's public
//! functions, with spans nested the way the server nests the work.
//!
//! * engine — `PowerEngine::estimate_with_floor` on a warm key;
//! * codec — v2 `wire::decode_estimate_request` → engine →
//!   `encode_estimate_reply` + `encode_frame`, and v1 `protocol::decode`
//!   → `handle` → `render`;
//! * queue — a `hdpm_server::Bounded` push on this thread, pop plus codec
//!   on a second thread, and the reply handed back;
//! * the server residual (reactor, wakeups, syscalls) is the client's
//!   round trip minus the queue rung, computed by the caller.
//!
//! The §6.3 fit is timed on its own, on the workload's payloads, and so
//! are the cold path's layers: netlist construction, the tier-A analytic
//! model, both simulators and sharded characterization.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;

use hdpm_core::{
    analytic_model, characterize_sharded, CharacterizationConfig, Fidelity, PowerEngine,
    ShardingConfig,
};
use hdpm_datamodel::HdDistribution;
use hdpm_netlist::ModuleSpec;
use hdpm_server::{protocol, wire, Bounded};
use hdpm_sim::{patterns_from_words, BitplaneSimulator, DelayModel, Simulator};
use hdpm_telemetry::{Stage, TraceCtx};

use crate::spans::Recorder;
use crate::workload::{Payload, CYCLES};

/// Requests timed per rung.
const SAMPLES: usize = 2000;
/// Telemetry operations per `telemetry.record` span.
pub const TELEMETRY_BATCH: u64 = 100;

/// The workload's repeated payloads with their distributions memoized,
/// as the server's per-worker distribution memo holds them: the
/// request-path rungs time what surrounds the fit, which is timed on its
/// own by [`fits`].
pub struct Memo<'a> {
    payloads: &'a [Payload],
    dists: HashMap<Payload, HdDistribution>,
}

impl<'a> Memo<'a> {
    pub fn new(payloads: &'a [Payload]) -> Memo<'a> {
        Memo {
            payloads,
            dists: payloads.iter().map(|p| (*p, p.fit())).collect(),
        }
    }
}

fn estimate(
    engine: &Arc<PowerEngine>,
    p: &Payload,
    dist: &HdDistribution,
    rec: &mut Recorder,
    parent: u64,
    request: u64,
) -> Result<hdpm_core::Estimate, String> {
    rec.time("engine.estimate", parent, request, |_| {
        engine.estimate_with_floor(p.spec, dist, Fidelity::Full)
    })
    .map_err(|e| format!("engine on {}: {e}", p.spec))
}

/// The v2 worker path for one request, as `codec.v2` with the engine as
/// a child span.
fn codec_v2(
    engine: &Arc<PowerEngine>,
    memo: &Memo,
    p: &Payload,
    rec: &mut Recorder,
    parent: u64,
    request: u64,
) -> Result<Vec<u8>, String> {
    let payload = wire::encode_estimate_request(&wire::EstimateParams {
        spec: p.spec,
        data: p.data,
        cycles: CYCLES,
        seed: p.seed,
        floor: None,
    });
    let open = rec.begin("codec.v2", parent, request);
    let params = wire::decode_estimate_request(&payload)?;
    let dist = memo.dists[p].clone();
    let est = estimate(engine, p, &dist, rec, open.id, open.request)?;
    let reply = wire::encode_estimate_reply(&est, wire::source_code(est.source));
    let mut frame = Vec::with_capacity(wire::HEADER_LEN + reply.len());
    wire::encode_frame(&mut frame, params.seed, wire::STATUS_OK, 0, &reply);
    rec.end(open);
    Ok(frame)
}

/// The v1 worker path for one request, as one `codec.v1` span (the engine
/// call and the distribution-memo lookup sit inside `protocol::handle`,
/// out of the benchmark's reach).
fn codec_v1(
    engine: &Arc<PowerEngine>,
    p: &Payload,
    rec: &mut Recorder,
    parent: u64,
    request: u64,
) -> Result<String, String> {
    let line = p.v1_line();
    rec.time("codec.v1", parent, request, |_| {
        let req = protocol::decode(line.as_bytes())
            .map_err(|(_, m)| m)?
            .ok_or("blank line")?;
        let value = protocol::handle(engine, &req).map_err(|(_, m)| m)?;
        Ok(protocol::render(&value))
    })
}

enum Job {
    V1(Payload, u64, u64),
    V2(Payload, u64, u64),
}

/// Run the request-path rungs (engine, codec, queue) on `memo`.
pub fn request_path(
    engine: &Arc<PowerEngine>,
    memo: &Memo,
    rec: &mut Recorder,
) -> Result<(), String> {
    let payloads: Vec<Payload> = (0..SAMPLES)
        .map(|i| memo.payloads[i % memo.payloads.len()])
        .collect();
    for p in &payloads {
        estimate(engine, p, &memo.dists[p], rec, 0, 0)?;
    }
    for p in &payloads {
        black_box(codec_v2(engine, memo, p, rec, 0, 0)?);
        black_box(codec_v1(engine, p, rec, 0, 0)?);
    }
    let jobs: Bounded<Job> = Bounded::new(1);
    let replies: Bounded<Result<usize, String>> = Bounded::new(1);
    let worker_rec = std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let mut wrec = Recorder::default();
            while let Some(job) = jobs.pop() {
                let done = match job {
                    Job::V2(p, parent, request) => {
                        codec_v2(engine, memo, &p, &mut wrec, parent, request).map(|f| f.len())
                    }
                    Job::V1(p, parent, request) => {
                        codec_v1(engine, &p, &mut wrec, parent, request).map(|l| l.len())
                    }
                };
                if replies.try_push(done).is_err() {
                    break;
                }
            }
            wrec
        });
        let mut outcome = Ok(());
        'rungs: for p in &payloads {
            for v2 in [true, false] {
                let open = rec.begin(if v2 { "queue.v2" } else { "queue.v1" }, 0, 0);
                let job = if v2 {
                    Job::V2(*p, open.id, open.request)
                } else {
                    Job::V1(*p, open.id, open.request)
                };
                if jobs.try_push(job).is_err() {
                    outcome = Err("queue rung: push refused".to_string());
                    break 'rungs;
                }
                let reply = replies.pop();
                rec.end(open);
                if let Some(Err(e)) = reply {
                    outcome = Err(e);
                    break 'rungs;
                }
            }
        }
        jobs.close();
        let wrec = worker.join().expect("queue rung worker panicked");
        outcome.map(|()| wrec)
    })?;
    rec.absorb(worker_rec);
    Ok(())
}

/// Time the §6.3 fit on `payloads` (cycled; never-repeated payloads on
/// the fresh workload).
pub fn fits(payloads: &[Payload], rec: &mut Recorder) {
    for i in 0..SAMPLES / 4 {
        let p = payloads[i % payloads.len()];
        black_box(rec.time("datamodel.fit", 0, 0, |_| p.fit()));
    }
}

/// Time the telemetry primitives the server runs per request: a
/// `TraceCtx` with one stage timing and one histogram record.
pub fn telemetry(rec: &mut Recorder) {
    for _ in 0..200 {
        rec.time("telemetry.record", 0, 0, |_| {
            for i in 0..TELEMETRY_BATCH {
                let mut trace = TraceCtx::new();
                trace.time(Stage::Estimate, || black_box(i));
                hdpm_telemetry::record_duration_ns(
                    "perfbench.probe_ns",
                    trace.stage_ns(Stage::Estimate),
                );
            }
        });
    }
}

/// Transitions simulated per spec, and the netlists' build/simulate
/// spans. Returns `(bitplane transitions, event transitions)`.
pub fn offline(
    specs: &[ModuleSpec],
    payloads: &[Payload],
    rec: &mut Recorder,
) -> Result<(u64, u64), String> {
    let (mut bit_tr, mut ev_tr) = (0u64, 0u64);
    for spec in specs {
        let mut netlist = None;
        for _ in 0..5 {
            netlist = Some(rec.time("netlist.build", 0, 0, |_| {
                spec.build()
                    .and_then(|n| n.validate())
                    .map_err(|e| format!("{spec}: {e}"))
            })?);
        }
        let netlist = netlist.expect("built at least once");
        let probe = payloads
            .iter()
            .find(|p| p.spec == *spec)
            .copied()
            .unwrap_or(Payload {
                spec: *spec,
                data: hdpm_streams::DataType::Random,
                seed: 1,
            });
        let dist = probe.fit();
        for _ in 0..5 {
            rec.time("fidelity.analytic", 0, 0, |_| -> Result<f64, String> {
                let model = analytic_model(*spec).map_err(|e| e.to_string())?;
                let charge = model
                    .estimate_distribution(&dist)
                    .map_err(|e| e.to_string())?;
                Ok(charge + model.estimate_interpolated(dist.mean()))
            })?;
        }
        let patterns = patterns_from_words(netlist.netlist(), &probe.streams());
        let transitions = patterns.len().saturating_sub(1) as u64;
        if BitplaneSimulator::supports(&netlist) {
            rec.time("sim.bitplane", 0, 0, |_| {
                let mut sim = BitplaneSimulator::new(&netlist, DelayModel::Unit);
                black_box(sim.apply_block(&patterns));
            });
            bit_tr += transitions;
        }
        rec.time("sim.event", 0, 0, |_| {
            let mut sim = Simulator::new(&netlist);
            for p in &patterns {
                black_box(sim.apply(*p));
            }
        });
        ev_tr += transitions;
        rec.time("characterize", 0, 0, |_| {
            characterize_sharded(
                &netlist,
                &CharacterizationConfig::default(),
                &ShardingConfig::default(),
            )
            .map(|c| black_box(c.transitions))
            .map_err(|e| format!("characterize {spec}: {e}"))
        })?;
    }
    Ok((bit_tr, ev_tr))
}
