//! The request executor: the one place client operations run.
//!
//! Every transport reduces its bytes to a typed [`Request`] and hands it
//! to [`execute`], which returns a typed [`Answer`]; the transport then
//! renders the answer back into its own bytes. The v1 JSON-lines codec
//! (`crate::protocol`, over TCP and stdio) and the v2 frame codec
//! (`crate::wire`) therefore differ only in framing, never in what a
//! request does: input validation, the fidelity floor, the cluster
//! ensure policy and the engine call all live here.

use std::path::PathBuf;
use std::sync::Arc;

use hdpm_core::{CacheSource, Characterization, EngineStats, Estimate, Fidelity, PowerEngine};
use hdpm_datamodel::{region_model, HdDistribution, WordModel};
use hdpm_netlist::ModuleSpec;
use hdpm_streams::DataType;
use hdpm_telemetry::{self as telemetry, Stage, TraceCtx};

use crate::client::Request;
use crate::cluster::{self, ClusterRuntime};
use crate::protocol::{ErrorKind, RequestError};

/// Operand widths the stream generators accept (`DataType::generate`).
const STREAM_WIDTHS: std::ops::RangeInclusive<usize> = 2..=32;

/// Longest operand stream an estimate may ask for. Each stream costs
/// operands × cycles × 8 bytes to generate; every shipped default,
/// fixture and benchmark stays at or below 2000 cycles.
const MAX_CYCLES: u32 = 1_000_000;

/// What the executor runs against: the engine, the fidelity floor for
/// estimates that name none, and, on a cluster node, the runtime plus
/// the store root artifacts move through.
pub(crate) struct Core {
    pub(crate) engine: Arc<PowerEngine>,
    pub(crate) default_floor: Fidelity,
    /// The engine's disk tier root (probed by `/readyz`, read by peer
    /// fetches; required in cluster mode).
    pub(crate) store_root: Option<PathBuf>,
    pub(crate) cluster: Option<ClusterRuntime>,
}

impl Core {
    /// A standalone core: no cluster, no store root of its own.
    pub(crate) fn local(engine: Arc<PowerEngine>, default_floor: Fidelity) -> Core {
        Core {
            engine,
            default_floor,
            store_root: None,
            cluster: None,
        }
    }

    /// In cluster mode, make `spec`'s model local before the engine is
    /// asked for it (peer fetch, or forwarding to the owner).
    pub(crate) fn ensure(&self, spec: ModuleSpec) {
        if let (Some(rt), Some(root)) = (&self.cluster, &self.store_root) {
            cluster::ensure_model(rt, &self.engine, root, spec);
        }
    }
}

/// A successful operation, before any transport renders it.
pub(crate) enum Answer {
    /// An estimate of `spec` under the `data` input class.
    Estimate {
        spec: ModuleSpec,
        data: DataType,
        estimate: Estimate,
    },
    /// A model made resident, and the tier it came from.
    Characterize {
        spec: ModuleSpec,
        characterization: Arc<Characterization>,
        source: CacheSource,
    },
    /// The engine's counter snapshot.
    Stats(EngineStats),
    /// The liveness no-op.
    Pong,
}

/// Run one request.
///
/// Cluster policy: a characterize always ensures the model first; an
/// estimate ensures only at an effective `full` floor, because
/// below-full floors answer from the local fidelity ladder at once and
/// the background upgrade hook routes ownership afterwards.
///
/// # Errors
///
/// [`ErrorKind::BadRequest`] for an estimate whose operand width or
/// stream length the generators cannot serve, [`ErrorKind::Engine`] for
/// engine failures.
pub(crate) fn execute(
    core: &Core,
    request: Request,
    trace: &mut TraceCtx,
) -> Result<Answer, RequestError> {
    match request {
        Request::Estimate {
            spec,
            data,
            cycles,
            seed,
            floor,
        } => {
            let (m1, _) = spec.width.operand_widths();
            check_streams(m1, cycles)?;
            let floor = floor.unwrap_or(core.default_floor);
            if floor == Fidelity::Full {
                core.ensure(spec);
            }
            // The distribution fit is estimation math, so its time (≈100
            // µs on a per-thread memo miss) lands in the estimate stage.
            let dist = trace.time(Stage::Estimate, || {
                input_distribution(data, spec.kind.operand_count(), m1, cycles as usize, seed)
            });
            let estimate = core
                .engine
                .estimate_with_floor_traced(spec, &dist, floor, trace)
                .map_err(engine_error)?;
            Ok(Answer::Estimate {
                spec,
                data,
                estimate,
            })
        }
        Request::Characterize { spec } => {
            core.ensure(spec);
            let (characterization, source) = core
                .engine
                .fetch_traced(spec, trace)
                .map_err(engine_error)?;
            Ok(Answer::Characterize {
                spec,
                characterization,
                source,
            })
        }
        Request::Stats => Ok(Answer::Stats(core.engine.stats())),
        Request::Ping => Ok(Answer::Pong),
    }
}

/// Reject operand streams the generators cannot produce (they assert on
/// the width) or that would allocate without bound.
fn check_streams(width: usize, cycles: u32) -> Result<(), RequestError> {
    if !STREAM_WIDTHS.contains(&width) {
        return Err((
            ErrorKind::BadRequest,
            format!(
                "operand width {width} out of range {}..={} for estimate",
                STREAM_WIDTHS.start(),
                STREAM_WIDTHS.end()
            ),
        ));
    }
    if cycles > MAX_CYCLES {
        return Err((
            ErrorKind::BadRequest,
            format!("cycles must be at most {MAX_CYCLES} for estimate"),
        ));
    }
    Ok(())
}

fn engine_error(e: impl std::fmt::Display) -> RequestError {
    (ErrorKind::Engine, e.to_string())
}

/// The analytic §6.3 input distribution: generate the named operand
/// streams, fit per-operand region models, convolve. A pure function of
/// its arguments, and ~100 µs of numeric fitting per call — so each
/// serving thread memoizes it. Identical warm `estimate` requests (the
/// common monitoring workload) then cost a lookup instead of a refit,
/// which is what lets the TCP server clear its requests/sec bar.
fn input_distribution(
    dt: DataType,
    operands: usize,
    m1: usize,
    cycles: usize,
    seed: u64,
) -> HdDistribution {
    type DistKey = (&'static str, usize, usize, usize, u64);
    struct DistCache {
        tick: u64,
        map: std::collections::HashMap<DistKey, (u64, HdDistribution)>,
    }
    thread_local! {
        static DISTRIBUTIONS: std::cell::RefCell<DistCache> = std::cell::RefCell::new(DistCache {
            tick: 0,
            map: std::collections::HashMap::new(),
        });
    }
    let key = (dt.name(), operands, m1, cycles, seed);
    DISTRIBUTIONS.with(|cache| {
        let mut cache = cache.borrow_mut();
        cache.tick += 1;
        let tick = cache.tick;
        if let Some((last_used, dist)) = cache.map.get_mut(&key) {
            *last_used = tick;
            telemetry::counter_add("protocol.dist_cache.hit", 1);
            return dist.clone();
        }
        telemetry::counter_add("protocol.dist_cache.miss", 1);
        let streams = dt.generate_operands(operands, m1, cycles, seed);
        let dists: Vec<HdDistribution> = streams
            .iter()
            .map(|w| HdDistribution::from_regions(&region_model(&WordModel::from_words(w, m1))))
            .collect();
        let dist = HdDistribution::convolve_all(&dists);
        // Bounded, one cold entry at a time: evicting the least recently
        // used key keeps the warm working set intact when the 129th
        // distinct key lands, instead of dropping the whole memo and
        // refitting ~100 µs per entry on the next pass over it.
        if cache.map.len() >= 128 {
            if let Some(victim) = cache
                .map
                .iter()
                .min_by_key(|(_, (last_used, _))| *last_used)
                .map(|(k, _)| *k)
            {
                cache.map.remove(&victim);
                telemetry::counter_add("protocol.dist_cache.evict", 1);
            }
        }
        cache.map.insert(key, (tick, dist.clone()));
        dist
    })
}
