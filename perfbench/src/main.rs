//! hdpm benchmark: three traffic mixes against an in-process
//! `hdpm_server::Server` at its shipped defaults, every answer checked
//! against an in-process reference, and (with `--trace 1`) a layer
//! ladder timed from the benchmark's own spans.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm_lookup --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it name every
//! metric with its unit, the workload's shape and the host. The exit
//! code is non-zero when any answer is wrong or any request fails.
//! Workloads and metrics are described in `perfbench/README.md`.

mod affinity;
mod calibrate;
mod ladder;
mod spans;
mod stats;
mod traffic;
mod workload;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hdpm_core::{EngineStats, Fidelity};
use hdpm_server::client::{Client, Proto};

use affinity::CpuSet;
use spans::Recorder;
use traffic::{Served, Traffic};
use workload::{
    cold_sweep, model_error_pct, warm_catalogue, warm_payloads, FreshPayloads, Payload, Reference,
    Rng,
};

/// Servers started (each with its own setup) by the warm workloads: the
/// set-up time of one varies by a quarter within a run, so its median
/// needs many.
const WARM_ROUNDS: u32 = 30;
/// Fewest cold-sweep rounds, however short `--seconds` is.
const MIN_COLD_ROUNDS: u32 = 3;
/// Share of a warm round spent in closed loop; the rest is pipelined.
const CLOSED_SHARE: f64 = 0.75;

/// One reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    WarmLookup,
    FreshInputs,
    ColdSweep,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "warm_lookup" => Some(Workload::WarmLookup),
            "fresh_inputs" => Some(Workload::FreshInputs),
            "cold_sweep" => Some(Workload::ColdSweep),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::WarmLookup => "warm_lookup",
            Workload::FreshInputs => "fresh_inputs",
            Workload::ColdSweep => "cold_sweep",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload `{value}` (warm_lookup, fresh_inputs, cold_sweep)")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Everything one run measured.
#[derive(Default)]
struct Run {
    /// Calibration kernel time (ns) at the start and the end of each
    /// round.
    calib_ns: Vec<f64>,
    setup_s: Vec<f64>,
    first_ns: Vec<f64>,
    full_s: Vec<f64>,
    /// Per-round closed-loop and pipelined throughput (req/s).
    rps: Vec<f64>,
    pipelined_rps: Vec<f64>,
    /// Measured traffic (latencies count).
    measured: Traffic,
    /// Set-up, first-touch, warm-up and final-answer traffic (checked,
    /// not timed).
    side: Traffic,
    /// Payloads whose served full answers are scored against simulation.
    scored: Vec<Payload>,
    /// Counter deltas over the measured windows.
    memo_hit: f64,
    memo_miss: f64,
    dist_hit: f64,
    dist_miss: f64,
    /// Engine activity per round after setup.
    engine: Vec<EngineStats>,
    /// Characterizations the cold sweep triggered, per round.
    sweep_characterizations: Vec<u64>,
    /// Failed checks beyond the traffic's own failures.
    failed: u64,
    notes: Vec<String>,
    spans: Recorder,
}

impl Run {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Add the memo counters' increase since `before` to the run.
    fn close_window(
        &mut self,
        running: &traffic::Running,
        before: &std::collections::HashMap<String, f64>,
    ) -> Result<(), String> {
        let after = traffic::scrape(running.admin)?;
        self.memo_hit += traffic::delta(before, &after, "server_memo_hit");
        self.memo_miss += traffic::delta(before, &after, "server_memo_miss");
        self.dist_hit += traffic::delta(before, &after, "protocol_dist_cache_hit");
        self.dist_miss += traffic::delta(before, &after, "protocol_dist_cache_miss");
        Ok(())
    }

    /// Close out one round's server: engine activity, drain, and a
    /// calibration point.
    fn finish_round(&mut self, running: traffic::Running) {
        let now = running.server.engine().stats();
        let base = running.stats_after_setup;
        self.engine.push(EngineStats {
            hits: now.hits - base.hits,
            misses: now.misses - base.misses,
            characterizations: now.characterizations - base.characterizations,
            analytic_served: now.analytic_served - base.analytic_served,
            regressed_served: now.regressed_served - base.regressed_served,
            upgrades_done: now.upgrades_done - base.upgrades_done,
            ..now
        });
        let report = running.server.shutdown();
        if report.shed + report.timeouts + report.errors > 0 {
            self.fail(format!(
                "server drain: {} shed, {} timeouts, {} errors",
                report.shed, report.timeouts, report.errors
            ));
        }
        self.calib_ns.push(calibrate::kernel_ns());
    }
}

/// Warm-up: both protocols over every payload, repeated until a v2 pass
/// is served entirely from the reply memo (at least four passes, so each
/// worker has seen each payload with high probability).
fn warm_up(
    addr: std::net::SocketAddr,
    payloads: &[Payload],
    side: &mut Traffic,
) -> Result<(), String> {
    let mut v1 = Client::connect(addr, Proto::V1).map_err(|e| format!("connect: {e}"))?;
    let mut v2 = Client::connect(addr, Proto::V2).map_err(|e| format!("connect: {e}"))?;
    for pass in 0..20 {
        let mut all_memo = true;
        for p in payloads {
            traffic::call(&mut v1, *p, None, side, None);
            let (_, answer) = traffic::call(&mut v2, *p, None, side, None);
            all_memo &= answer.is_some_and(|a| a.memo);
        }
        if pass >= 3 && all_memo {
            break;
        }
    }
    Ok(())
}

/// The first-touch pass; `full_fidelity_s` counts from `origin`.
fn first_touch(
    run: &mut Run,
    addr: std::net::SocketAddr,
    payloads: &[Payload],
    floor: Option<Fidelity>,
    origin: Instant,
) -> Result<(), String> {
    let mut client = Client::connect(addr, Proto::V2).map_err(|e| format!("connect: {e}"))?;
    let (first, full) = traffic::first_touch(&mut client, payloads, floor, origin, &mut run.side);
    run.first_ns.extend(first);
    run.full_s.push(full);
    Ok(())
}

fn warm_lookup(args: &Args, run: &mut Run) -> Result<(), String> {
    let catalogue = warm_catalogue();
    let payloads = warm_payloads(args.seed);
    let mut rng = Rng::new(args.seed);
    let round_s = args.seconds as f64 / f64::from(WARM_ROUNDS);
    for round in 0..WARM_ROUNDS as usize {
        run.calib_ns.push(calibrate::kernel_ns());
        let running = traffic::start(&catalogue)?;
        run.setup_s.push(running.setup_s);
        let touch = workload::first_touch(&payloads, &mut rng);
        first_touch(run, running.addr, &touch, None, running.started)?;
        warm_up(running.addr, &payloads, &mut run.side)?;
        let before = traffic::scrape(running.admin)?;
        let started = Instant::now();
        let closed_until = started + Duration::from_secs_f64(round_s * CLOSED_SHARE);
        let mut v1 = workload::Deck::new(payloads.clone(), rng.next_u64());
        let mut v2 = workload::Deck::new(payloads.clone(), rng.next_u64());
        let spans = args.trace.then_some(&mut run.spans);
        let closed = traffic::closed_blocks(
            running.addr,
            &mut || v1.next(),
            &mut || v2.next(),
            &|| Instant::now() >= closed_until,
            false,
            round,
            spans,
        );
        let piped = traffic::pipelined_until(
            running.addr,
            &mut || v2.next(),
            started + Duration::from_secs_f64(round_s),
        );
        run.rps.extend(&closed.block_rates);
        run.pipelined_rps.extend(&piped.burst_rates);
        run.measured.absorb(closed);
        run.measured.absorb(piped);
        run.close_window(&running, &before)?;
        run.finish_round(running);
    }
    run.scored = payloads;
    Ok(())
}

fn fresh_inputs(args: &Args, run: &mut Run) -> Result<(), String> {
    let catalogue = warm_catalogue();
    let mut rng = Rng::new(args.seed);
    let round_s = args.seconds as f64 / f64::from(WARM_ROUNDS);
    for round in 0..u64::from(WARM_ROUNDS) {
        run.calib_ns.push(calibrate::kernel_ns());
        let running = traffic::start(&catalogue)?;
        run.setup_s.push(running.setup_s);
        let fresh = workload::payloads_for(&catalogue, rng.next_u64());
        let touch = workload::first_touch(&fresh, &mut rng);
        first_touch(run, running.addr, &touch, None, running.started)?;
        let before = traffic::scrape(running.admin)?;
        let started = Instant::now();
        let closed_until = started + Duration::from_secs_f64(round_s * CLOSED_SHARE);
        let mut v1 = FreshPayloads::new(args.seed, 4 * round + 1);
        let mut v2 = FreshPayloads::new(args.seed, 4 * round + 2);
        let closed = traffic::closed_blocks(
            running.addr,
            &mut || v1.next(),
            &mut || v2.next(),
            &|| Instant::now() >= closed_until,
            false,
            round as usize,
            args.trace.then_some(&mut run.spans),
        );
        run.rps.extend(&closed.block_rates);
        run.measured.absorb(closed);
        let mut gen = FreshPayloads::new(args.seed, 4 * round + 3);
        let piped = traffic::pipelined_until(
            running.addr,
            &mut || gen.next(),
            started + Duration::from_secs_f64(round_s),
        );
        run.pipelined_rps.extend(&piped.burst_rates);
        run.measured.absorb(piped);
        run.close_window(&running, &before)?;
        run.finish_round(running);
    }
    // The first v1 and v2 blocks are 30 deals of the deck: every
    // catalogue spec 30 times, each with its own fresh stream. So many,
    // because on `random` streams each payload's error is sampling noise
    // around 0.5 %, and a median over 80 of them still moved by a quarter
    // from one set of seeds to the next.
    run.scored = run
        .measured
        .served
        .iter()
        .take(2 * traffic::BLOCK)
        .map(|s| s.payload)
        .collect();
    Ok(())
}

fn cold_sweep_run(args: &Args, run: &mut Run) -> Result<(), String> {
    let catalogue = warm_catalogue();
    let sweep = cold_sweep();
    let warm = warm_payloads(args.seed);
    let mut rng = Rng::new(args.seed);
    let finals = workload::payloads_for(&sweep, args.seed ^ 0x434F_4C44);
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_COLD_ROUNDS || started.elapsed().as_secs() < args.seconds {
        rounds += 1;
        run.calib_ns.push(calibrate::kernel_ns());
        let running = traffic::start(&catalogue)?;
        run.setup_s.push(running.setup_s);
        warm_up(running.addr, &warm, &mut run.side)?;
        let before = traffic::scrape(running.admin)?;
        let stop = AtomicBool::new(false);
        let addr = running.addr;
        let trace = args.trace;
        let cold = workload::first_touch(&finals, &mut rng);
        let mut v1 = workload::Deck::new(warm.clone(), rng.next_u64());
        let mut v2 = workload::Deck::new(warm.clone(), rng.next_u64());
        let (warm_traffic, rec, cold_result) = std::thread::scope(|scope| {
            let warm_conn = scope.spawn(|| {
                let mut rec = Recorder::default();
                let t = traffic::closed_blocks(
                    addr,
                    &mut || v1.next(),
                    &mut || v2.next(),
                    &|| stop.load(Ordering::Relaxed),
                    true,
                    rounds as usize,
                    trace.then_some(&mut rec),
                );
                (t, rec)
            });
            let cold_result =
                first_touch(run, addr, &cold, Some(Fidelity::Analytic), Instant::now());
            stop.store(true, Ordering::Relaxed);
            let (t, rec) = warm_conn.join().expect("warm connection panicked");
            (t, rec, cold_result)
        });
        cold_result?;
        run.close_window(&running, &before)?;
        run.rps.extend(&warm_traffic.block_rates);
        run.pipelined_rps.extend(&warm_traffic.burst_rates);
        run.measured.absorb(warm_traffic);
        run.spans.absorb(rec);
        let characterized = running.server.engine().stats().characterizations
            - running.stats_after_setup.characterizations;
        run.sweep_characterizations.push(characterized);
        if characterized != sweep.len() as u64 {
            run.fail(format!(
                "cold sweep characterized {characterized} specs, expected exactly {}",
                sweep.len()
            ));
        }
        let mut client =
            Client::connect(running.addr, Proto::V2).map_err(|e| format!("connect: {e}"))?;
        for p in &finals {
            let (_, answer) = traffic::call(&mut client, *p, None, &mut run.side, None);
            if answer.is_some_and(|a| a.fidelity != Fidelity::Full) {
                run.fail(format!("{}: final answer below full fidelity", p.spec));
            }
        }
        drop(client);
        run.finish_round(running);
    }
    run.scored = finals;
    Ok(())
}

/// Check every served answer against the reference, on two threads.
fn verify(reference: &Reference, served: &[Served]) -> (u64, Vec<String>) {
    let half = served.len().div_ceil(2).max(1);
    std::thread::scope(|scope| {
        let parts: Vec<_> = served
            .chunks(half)
            .map(|chunk| {
                scope.spawn(move || {
                    let mut failed = 0;
                    let mut notes = Vec::new();
                    for s in chunk {
                        if let Some(a) = &s.answer {
                            if let Err(e) = reference.check(&s.payload, a) {
                                failed += s.count;
                                if notes.len() < 4 {
                                    notes.push(format!("{}: {e}", s.proto.as_str()));
                                }
                            }
                        }
                    }
                    (failed, notes)
                })
            })
            .collect();
        parts
            .into_iter()
            .map(|h| h.join().expect("verifier panicked"))
            .fold((0, Vec::new()), |(f, mut n), (f2, n2)| {
                n.extend(n2);
                (f + f2, n)
            })
    })
}

/// Median §4.2 ε over the scored payloads' served full answers (the
/// median, because narrow modules under strongly correlated streams
/// miss by several hundred percent and would swamp a mean; the mean and
/// the worst payload are reported alongside). The gate-level simulations
/// run on two threads.
fn model_error(run: &mut Run) -> Option<f64> {
    let mut full: std::collections::HashMap<Payload, f64> = std::collections::HashMap::new();
    for s in run.measured.served.iter().chain(&run.side.served) {
        if let Some(a) = s.answer.filter(|a| a.fidelity == Fidelity::Full) {
            full.entry(s.payload).or_insert(a.charge);
        }
    }
    let scored = std::mem::take(&mut run.scored);
    let half = scored.len().div_ceil(2).max(1);
    let scores: Vec<Option<Result<f64, String>>> = std::thread::scope(|scope| {
        let parts: Vec<_> = scored
            .chunks(half)
            .map(|chunk| {
                let full = &full;
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|p| full.get(p).map(|&charge| model_error_pct(p, charge)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("scorer panicked"))
            .collect()
    });
    let mut errors = Vec::new();
    for (p, score) in scored.iter().zip(scores) {
        match score {
            Some(Ok(e)) => errors.push(e),
            Some(Err(e)) => run.fail(e),
            None => run.fail(format!("{}: no full-fidelity answer to score", p.spec)),
        }
    }
    let worst = errors.iter().copied().fold(0.0, f64::max);
    let mean = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    run.notes.push(format!(
        "model error over {} payloads: median {:.2}% mean {mean:.2}% worst {worst:.2}%",
        errors.len(),
        stats::median(&errors).unwrap_or(f64::NAN)
    ));
    stats::median(&errors)
}

fn ratio(hit: f64, miss: f64) -> f64 {
    if hit + miss > 0.0 {
        hit / (hit + miss)
    } else {
        0.0
    }
}

/// Aggregate CPU time counters of `/proc/stat` (user, nice, system,
/// idle, iowait, irq, softirq, steal, …), when readable.
fn cpu_times() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    line.split_whitespace().map(|v| v.parse().ok()).collect()
}

/// Share of CPU time the hypervisor gave to other guests between two
/// `/proc/stat` readings: runs with a large share were measured on a
/// busy host.
fn steal_share(before: Option<Vec<u64>>, after: Option<Vec<u64>>) -> Option<f64> {
    let (b, a) = (before?, after?);
    let d: Vec<u64> = a
        .iter()
        .zip(&b)
        .map(|(x, y)| x.saturating_sub(*y))
        .collect();
    let total: u64 = d.iter().sum();
    (total > 0 && d.len() > 7).then(|| d[7] as f64 / total as f64)
}

/// Host stamp: cores (`nproc`, read before pinning), the CPU the run was
/// pinned to, CPU model, kernel and commit (`unknown` outside a git
/// checkout).
fn host_line(nproc: usize, pinned: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "host nproc={nproc} pinned_cpu={pinned} cpu=\"{cpu}\" kernel={kernel} commit={}",
        git_commit()
    )
}

fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(sha) = std::fs::read_to_string(PathBuf::from(".git").join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn us(ns: Option<f64>) -> f64 {
    ns.map_or(f64::NAN, |v| v / 1e3)
}

/// The traced run's per-layer metrics, from the ladder's spans and the
/// traffic's counters.
fn layer_metrics(args: &Args, run: &mut Run, reference: &Reference) -> Result<Vec<Metric>, String> {
    // The request path is timed on the warm payloads every workload's
    // closed loop uses (the fresh workload's distributions are fitted per
    // request, which `datamodel.fit` times on fresh payloads); the cold
    // path's layers on the specs and payloads of the workload.
    let warm = warm_payloads(args.seed);
    let (specs, payloads): (Vec<_>, Vec<Payload>) = match args.workload {
        Workload::ColdSweep => (cold_sweep(), run.scored.clone()),
        Workload::FreshInputs => {
            let mut gen = FreshPayloads::new(args.seed, 1 << 7);
            (warm_catalogue(), (0..500).map(|_| gen.next()).collect())
        }
        Workload::WarmLookup => (warm_catalogue(), warm.clone()),
    };
    for spec_set in [&warm_catalogue(), &specs] {
        reference
            .engine
            .warm(spec_set, 1)
            .map_err(|e| format!("reference warm: {e}"))?;
    }
    let mut rec = Recorder::default();
    ladder::request_path(&reference.engine, &ladder::Memo::new(&warm), &mut rec)?;
    ladder::fits(&payloads, &mut rec);
    ladder::telemetry(&mut rec);
    let (bit_tr, ev_tr) = ladder::offline(&specs, &payloads, &mut rec)?;
    let med = |v: Vec<f64>| stats::median(&v).unwrap_or(f64::NAN);
    let fresh = args.workload == Workload::FreshInputs;
    let engine_ns = med(rec.durations("engine.estimate"));
    let fit_ns = med(rec.durations("datamodel.fit"));
    let codec_v2_ns = med(rec.self_times("codec.v2"));
    // v1's engine call sits inside `protocol::handle`: subtract its
    // median, the ladder way.
    let codec_v1_ns = med(rec.durations("codec.v1")) - engine_ns;
    let queue_ns = med(rec.self_times("queue.v2"));
    // Every fresh request pays a fit the warm rungs do not.
    let fit_share = if fresh { fit_ns } else { 0.0 };
    let client_v1 = stats::median(&run.measured.v1_ns).unwrap_or(f64::NAN);
    let client_v2 = stats::median(&run.measured.v2_ns).unwrap_or(f64::NAN);
    let untraced_v2 = stats::median(&run.measured.v2_untraced_ns).unwrap_or(f64::NAN);
    let residual_v1 = client_v1 - med(rec.durations("queue.v1")) - fit_share;
    let residual_v2 = client_v2 - med(rec.durations("queue.v2")) - fit_share;
    let ladder_v2 = engine_ns + fit_share + codec_v2_ns + queue_ns + residual_v2;
    let total = |name: &str| rec.durations(name).iter().sum::<f64>();
    let telemetry_ns = med(rec.durations("telemetry.record")) / ladder::TELEMETRY_BATCH as f64;
    run.notes.push(format!(
        "ladder v2 (µs): engine {:.2}{} + codec {:.2} + queue {:.2} + server residual {:.2} = {:.2}; \
         client p50 with client spans {:.2}, without {:.2}; tracing overhead {:.2}",
        engine_ns / 1e3,
        if fresh { format!(" + fit {:.2}", fit_ns / 1e3) } else { String::new() },
        codec_v2_ns / 1e3,
        queue_ns / 1e3,
        residual_v2 / 1e3,
        ladder_v2 / 1e3,
        client_v2 / 1e3,
        untraced_v2 / 1e3,
        (client_v2 - untraced_v2) / 1e3,
    ));
    let n = run.engine.len().max(1) as f64;
    let sum = |f: fn(&EngineStats) -> u64| run.engine.iter().map(f).sum::<u64>() as f64;
    let per_round = |f: fn(&EngineStats) -> u64| sum(f) / n;
    let metrics = vec![
        ("datamodel.fit_us", fit_ns / 1e3, "us"),
        ("engine.estimate_ns", engine_ns, "ns"),
        ("codec.v1_ns", codec_v1_ns, "ns"),
        ("codec.v2_ns", codec_v2_ns, "ns"),
        ("queue.handoff_ns", queue_ns, "ns"),
        ("server.residual_v1_us", residual_v1 / 1e3, "us"),
        ("server.residual_v2_us", residual_v2 / 1e3, "us"),
        ("ladder.v2_sum_us", ladder_v2 / 1e3, "us"),
        ("tracing.overhead_us", (client_v2 - untraced_v2) / 1e3, "us"),
        ("telemetry.record_ns", telemetry_ns, "ns"),
        (
            "netlist.build_us",
            med(rec.durations("netlist.build")) / 1e3,
            "us",
        ),
        (
            "fidelity.analytic_us",
            med(rec.durations("fidelity.analytic")) / 1e3,
            "us",
        ),
        (
            "sim.bitplane_ns_per_transition",
            total("sim.bitplane") / bit_tr.max(1) as f64,
            "ns",
        ),
        (
            "sim.event_ns_per_transition",
            total("sim.event") / ev_tr.max(1) as f64,
            "ns",
        ),
        (
            "characterize.ms",
            med(rec.durations("characterize")) / 1e6,
            "ms",
        ),
        (
            "engine.hit_ratio",
            ratio(sum(|s| s.hits), sum(|s| s.misses)),
            "ratio",
        ),
        (
            "engine.characterizations",
            per_round(|s| s.characterizations),
            "count",
        ),
        (
            "engine.analytic_served",
            per_round(|s| s.analytic_served),
            "count",
        ),
        (
            "engine.regressed_served",
            per_round(|s| s.regressed_served),
            "count",
        ),
        (
            "engine.upgrades_done",
            per_round(|s| s.upgrades_done),
            "count",
        ),
        (
            "server.memo_hit_ratio",
            ratio(run.memo_hit, run.memo_miss),
            "ratio",
        ),
        (
            "protocol.dist_cache_hit_ratio",
            ratio(run.dist_hit, run.dist_miss),
            "ratio",
        ),
    ];
    run.spans.absorb(rec);
    Ok(metrics)
}

/// The run's host speed relative to the reference: kernel time over
/// [`calibrate::REFERENCE_NS`] (above 1 on a slower host), summarized
/// like the metrics it scales.
fn slowdown(run: &Run) -> f64 {
    stats::interquartile_mean(&run.calib_ns).unwrap_or(f64::NAN) / calibrate::REFERENCE_NS
}

/// End-to-end metrics as measured, before scaling to the reference
/// speed; `error` is [`model_error`]'s.
fn raw_end_to_end(run: &Run, error: f64) -> Vec<Metric> {
    let v1 = &run.measured.v1_ns;
    let v2 = &run.measured.v2_ns;
    vec![
        (
            "setup_s",
            stats::median(&run.setup_s).unwrap_or(f64::NAN),
            "s",
        ),
        ("v1_p50_us", us(stats::windowed(v1, 50.0)), "us"),
        ("v2_p50_us", us(stats::windowed(v2, 50.0)), "us"),
        (
            "v2_pipelined_rps",
            stats::interquartile_mean(&run.pipelined_rps).unwrap_or(f64::NAN),
            "1/s",
        ),
        (
            "rps",
            stats::interquartile_mean(&run.rps).unwrap_or(f64::NAN),
            "1/s",
        ),
        (
            "first_answer_p50_us",
            us(stats::median(&run.first_ns)),
            "us",
        ),
        (
            "full_fidelity_s",
            stats::interquartile_mean(&run.full_s).unwrap_or(f64::NAN),
            "s",
        ),
        ("model_error_pct", error, "%"),
    ]
}

/// Scale raw times to the reference speed: times are divided by the
/// run's slowdown and rates multiplied; the model error is left alone.
fn at_reference_speed(raw: &[Metric], slowdown: f64) -> Vec<Metric> {
    raw.iter()
        .map(|&(name, value, unit)| {
            let scaled = match unit {
                "s" | "us" => value / slowdown,
                "1/s" => value * slowdown,
                _ => value,
            };
            (name, scaled, unit)
        })
        .collect()
}

/// Within-run spread: quartiles over rounds, and the tail percentile
/// each latency sample supports.
fn spread_line(run: &Run) -> String {
    let q = |v: &[f64]| {
        stats::quartiles(v).map_or("n/a".to_string(), |[a, b, c]| {
            format!("{a:.6}/{b:.6}/{c:.6}")
        })
    };
    let tail = |n: usize| stats::supported_tail(n).map_or("none".to_string(), |p| format!("p{p}"));
    format!(
        "rounds={} calib_ns q1/q2/q3={} setup_s q1/q2/q3={} rps q1/q2/q3={} pipelined_rps q1/q2/q3={} full_fidelity_s q1/q2/q3={} \
         v1 n={} supports {} v2 n={} supports {} first_answer_ns n={} q1/q2/q3={}",
        run.setup_s.len(),
        q(&run.calib_ns),
        q(&run.setup_s),
        q(&run.rps),
        q(&run.pipelined_rps),
        q(&run.full_s),
        run.measured.v1_ns.len(),
        tail(run.measured.v1_ns.len()),
        run.measured.v2_ns.len(),
        tail(run.measured.v2_ns.len()),
        run.first_ns.len(),
        q(&run.first_ns),
    )
}

/// The closed-loop tails, windowed like the medians. Printed, not among
/// the gated metrics: on a shared virtual machine the hypervisor's stolen
/// time moves them several-fold between runs (see the README).
fn tail_line(run: &Run) -> String {
    let v1 = &run.measured.v1_ns;
    let v2 = &run.measured.v2_ns;
    format!(
        "tail v1_p99_us={:.3} v2_p99_us={:.3} (interquartile mean over windows of {} samples)",
        us(stats::windowed(v1, 99.0)),
        us(stats::windowed(v2, 99.0)),
        stats::WINDOW
    )
}

fn shape_line(run: &Run) -> String {
    let mut tiers = [0u64; 3];
    for s in run.measured.served.iter().chain(&run.side.served) {
        if let Some(a) = s.answer {
            tiers[match a.fidelity {
                Fidelity::Analytic => 0,
                Fidelity::Regressed => 1,
                Fidelity::Full => 2,
            }] += s.count;
        }
    }
    let total = tiers.iter().sum::<u64>().max(1) as f64;
    format!(
        "shape v2_memo_hit_share={:.4} dist_cache_hit_share={:.4} tiers A/B/C={:.4}/{:.4}/{:.4} \
         requests={} sweep_characterizations={:?}",
        ratio(run.memo_hit, run.memo_miss),
        ratio(run.dist_hit, run.dist_miss),
        tiers[0] as f64 / total,
        tiers[1] as f64 / total,
        tiers[2] as f64 / total,
        run.measured.attempted() + run.side.attempted(),
        run.sweep_characterizations,
    )
}

/// The process's CPUs: all it may use, and the one it measures on.
struct Cpus {
    all: CpuSet,
    one: CpuSet,
}

/// Traffic and the ladder run on one CPU (see `affinity`); the answer
/// check and the model-error scoring, which time nothing, use them all.
fn execute(args: &Args, cpus: &Cpus) -> Result<(Run, Vec<Metric>), String> {
    let mut run = Run::default();
    match args.workload {
        Workload::WarmLookup => warm_lookup(args, &mut run)?,
        Workload::FreshInputs => fresh_inputs(args, &mut run)?,
        Workload::ColdSweep => cold_sweep_run(args, &mut run)?,
    }
    cpus.all.apply()?;
    let reference = Reference::new();
    for traffic in [&run.measured, &run.side] {
        let (failed, notes) = verify(&reference, &traffic.served);
        run.failed += failed;
        run.notes.extend(notes);
    }
    let error = if args.trace {
        None
    } else {
        model_error(&mut run)
    };
    cpus.one.apply()?;
    let metrics = if args.trace {
        layer_metrics(args, &mut run, &reference)?
    } else {
        let raw = raw_end_to_end(&run, error.unwrap_or(f64::NAN));
        let slowdown = slowdown(&run);
        let listed: Vec<String> = raw.iter().map(|(n, v, _)| format!("{n}={v}")).collect();
        run.notes.push(format!(
            "as measured, before scaling by slowdown {slowdown:.4}: {}",
            listed.join(" ")
        ));
        at_reference_speed(&raw, slowdown)
    };
    Ok((run, metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <warm_lookup|fresh_inputs|cold_sweep> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = CpuSet::current()
        .and_then(|all| all.first().map(|(cpu, one)| (cpu, Cpus { all, one })))
        .ok_or_else(|| "cannot read this process's CPU affinity".to_string())
        .and_then(|(cpu, cpus)| cpus.one.apply().map(|()| (cpu, cpus)));
    let (cpu, cpus) = match pinned {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot pin to one CPU: {e}");
            std::process::exit(1);
        }
    };
    let cpu_before = cpu_times();
    let (run, metrics) = match execute(&args, &cpus) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{} steal={}",
        host_line(nproc, cpu),
        steal_share(cpu_before, cpu_times()).map_or("unknown".into(), |s| format!("{:.3}", s))
    );
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", shape_line(&run));
    println!("{}", spread_line(&run));
    println!("{}", tail_line(&run));
    let attempted = run.measured.attempted() + run.side.attempted();
    let failed = run.measured.failed + run.side.failed + run.failed;
    for note in run
        .measured
        .failures
        .iter()
        .chain(&run.side.failures)
        .chain(&run.notes)
    {
        println!("note {note}");
    }
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    if args.trace {
        let path = PathBuf::from("target/perfbench").join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match run.spans.write_jsonl(&path) {
            Ok(()) => println!(
                "spans {} written to {}",
                run.spans.spans().len(),
                path.display()
            ),
            Err(e) => println!("note could not write spans: {e}"),
        }
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = failed == 0 && attempted > 0 && finite;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_speed_divides_times_and_multiplies_rates() {
        let raw = [
            ("setup_s", 0.75, "s"),
            ("v2_p50_us", 30.0, "us"),
            ("rps", 1000.0, "1/s"),
            ("model_error_pct", 20.0, "%"),
        ];
        let scaled: Vec<f64> = at_reference_speed(&raw, 1.5).iter().map(|m| m.1).collect();
        assert_eq!(scaled, vec![0.5, 20.0, 1500.0, 20.0]);
    }
}
