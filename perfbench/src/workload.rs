//! Workload inputs: the spec catalogues, estimate payloads drawn from the
//! seed, and the in-process reference every served answer is checked
//! against.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use hdpm_core::{
    accuracy, analytic_model, EngineOptions, Estimate, Fidelity, HdModel, PowerEngine,
};
use hdpm_datamodel::{region_model, HdDistribution, WordModel};
use hdpm_netlist::{ModuleKind, ModuleSpec};
use hdpm_server::client::{EstimateAnswer, Request};
use hdpm_sim::{run_words, DelayModel};
use hdpm_streams::{DataType, ALL_DATA_TYPES};

/// Stream length of every estimate request (the protocol default).
pub const CYCLES: u32 = 2000;

/// Items in one pass of the warm [`Deck`]: the 16 catalogue specs under
/// the 5 data types (the fresh deck's 16 specs divide it). Blocks, bursts
/// and latency windows are whole passes, so each holds every item of
/// either deck equally often.
pub const PASS: usize = 80;

/// The warm catalogue: 16 specs over six combinational families and
/// widths 4, 8 and 12, characterized during setup.
pub fn warm_catalogue() -> Vec<ModuleSpec> {
    let families = [
        ModuleKind::RippleAdder,
        ModuleKind::ClaAdder,
        ModuleKind::AbsVal,
        ModuleKind::CsaMultiplier,
        ModuleKind::Subtractor,
        ModuleKind::Comparator,
    ];
    let mut specs: Vec<ModuleSpec> = families
        .iter()
        .flat_map(|&kind| [4usize, 8, 12].map(|w| ModuleSpec::new(kind, w)))
        .collect();
    // 18 → 16: the two widest cheap adders add nothing the others lack.
    specs.retain(|s| {
        *s != ModuleSpec::new(ModuleKind::Subtractor, 12usize)
            && *s != ModuleSpec::new(ModuleKind::Comparator, 12usize)
    });
    specs
}

/// The cold sweep: five families the warm catalogue never touches at six
/// widths each, plus one register module (`mac`), whose characterization
/// takes the event-driven fallback instead of the bit-plane simulator.
pub fn cold_sweep() -> Vec<ModuleSpec> {
    let families = [
        ModuleKind::BoothWallaceMultiplier,
        ModuleKind::Incrementer,
        ModuleKind::CarrySelectAdder,
        ModuleKind::CarrySkipAdder,
        ModuleKind::GfMultiplier,
    ];
    let mut specs: Vec<ModuleSpec> = families
        .iter()
        .flat_map(|&kind| [4usize, 6, 8, 10, 12, 16].map(|w| ModuleSpec::new(kind, w)))
        .collect();
    specs.push(ModuleSpec::new(ModuleKind::Mac, 4usize));
    specs
}

/// splitmix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A copy of `items` in a seed-determined order.
    pub fn shuffled<T: Clone>(&mut self, items: &[T]) -> Vec<T> {
        let mut out = items.to_vec();
        for i in (1..out.len()).rev() {
            out.swap(i, self.below(i + 1));
        }
        out
    }
}

/// One estimate request's content: what the server is asked and what the
/// reference recomputes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Payload {
    pub spec: ModuleSpec,
    pub data: DataType,
    pub seed: u64,
}

impl Payload {
    pub fn request(&self, floor: Option<Fidelity>) -> Request {
        Request::Estimate {
            spec: self.spec,
            data: self.data,
            cycles: CYCLES,
            seed: self.seed,
            floor,
        }
    }

    /// The v1 JSON line the client would send for this payload.
    pub fn v1_line(&self) -> String {
        let (m1, _) = self.spec.width.operand_widths();
        format!(
            "{{\"op\":\"estimate\",\"module\":\"{}\",\"width\":{m1},\"data\":\"{}\",\"cycles\":{CYCLES},\"seed\":{}}}",
            self.spec.kind,
            self.data.name(),
            self.seed
        )
    }

    /// The operand word streams the request describes.
    pub fn streams(&self) -> Vec<Vec<i64>> {
        let (m1, _) = self.spec.width.operand_widths();
        self.data.generate_operands(
            self.spec.kind.operand_count(),
            m1,
            CYCLES as usize,
            self.seed,
        )
    }

    /// The §6.3 input distribution of the request: per-operand region
    /// models convolved, exactly as the server derives it.
    pub fn fit(&self) -> HdDistribution {
        let (m1, _) = self.spec.width.operand_widths();
        let dists: Vec<HdDistribution> = self
            .streams()
            .iter()
            .map(|w| HdDistribution::from_regions(&region_model(&WordModel::from_words(w, m1))))
            .collect();
        HdDistribution::convolve_all(&dists)
    }
}

/// Every spec of `specs` under every data type, each payload with its
/// own stream seed drawn from `seed` (distinct seeds keep modules of one
/// width from sharing operand streams, so their errors stay independent).
pub fn payloads_for(specs: &[ModuleSpec], seed: u64) -> Vec<Payload> {
    let mut rng = Rng::new(seed);
    specs
        .iter()
        .flat_map(|&spec| ALL_DATA_TYPES.map(|data| (spec, data)))
        .map(|(spec, data)| Payload {
            spec,
            data,
            seed: rng.next_u64() >> 16,
        })
        .collect()
}

/// The fixed warm payload set: 16 catalogue specs × 5 data types = 80
/// distinct payloads.
pub fn warm_payloads(seed: u64) -> Vec<Payload> {
    payloads_for(&warm_catalogue(), seed ^ 0x5745_524D)
}

/// The first request of each spec: its `random`-data payload (the
/// paper's data type I, the characterization stream class), specs in a
/// seed-shuffled order. One data type, because the fit's cost depends
/// mostly on the data type (the music generator costs about eight times
/// the counter's), so a median over mixed types would sit on the gap
/// between their clusters and jump from run to run.
pub fn first_touch(payloads: &[Payload], rng: &mut Rng) -> Vec<Payload> {
    let firsts: Vec<Payload> = payloads
        .iter()
        .filter(|p| p.data == DataType::Random)
        .copied()
        .collect();
    rng.shuffled(&firsts)
}

/// Draws from a fixed set in seed-shuffled passes: every `len`
/// consecutive draws hold each item once, so any window of requests has
/// the same mix (stratified, where independent draws would let the share
/// of cheap and costly requests drift from window to window).
pub struct Deck<T> {
    items: Vec<T>,
    rng: Rng,
    pos: usize,
}

impl<T: Copy> Deck<T> {
    pub fn new(items: Vec<T>, seed: u64) -> Deck<T> {
        Deck {
            items,
            rng: Rng::new(seed),
            pos: 0,
        }
    }

    pub fn next(&mut self) -> T {
        if self.pos == 0 {
            self.items = self.rng.shuffled(&self.items);
        }
        let item = self.items[self.pos];
        self.pos = (self.pos + 1) % self.items.len();
        item
    }
}

/// Fresh payloads: catalogue specs dealt from a [`Deck`] under the
/// `random` data type, each with a stream seed no other request of the
/// run carries (`lane` keeps generators apart). One data type, for the
/// reason [`first_touch`] gives: with all five, the fit's cost spans 75 to
/// 700 µs in clusters, the median request falls in the gap between two
/// of them, and the reported p50 jumps by a quarter from run to run.
pub struct FreshPayloads {
    deck: Deck<ModuleSpec>,
    next_seed: u64,
}

impl FreshPayloads {
    pub fn new(seed: u64, lane: u64) -> FreshPayloads {
        FreshPayloads {
            deck: Deck::new(warm_catalogue(), seed ^ (lane << 56) ^ 0x4652_4553),
            next_seed: (lane << 48) | ((seed & 0xFFFF) << 32),
        }
    }

    pub fn next(&mut self) -> Payload {
        self.next_seed += 1;
        Payload {
            spec: self.deck.next(),
            data: DataType::Random,
            seed: self.next_seed,
        }
    }
}

/// The parts of a served estimate the check compares.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    pub charge: f64,
    pub via: f64,
    pub hd: f64,
    pub fidelity: Fidelity,
    pub memo: bool,
}

impl From<&EstimateAnswer> for Answer {
    fn from(a: &EstimateAnswer) -> Answer {
        Answer {
            charge: a.charge_per_cycle,
            via: a.via_average,
            hd: a.average_hd,
            fidelity: a.fidelity,
            memo: a.source == "memo",
        }
    }
}

/// Recomputes answers in process: a memory-only [`PowerEngine`] of the
/// server's default configuration fed with the benchmark's own fit of the
/// same operand streams. Characterization is deterministic, so a correct
/// server answers bit for bit what this engine answers.
pub struct Reference {
    pub engine: Arc<PowerEngine>,
    full: Mutex<HashMap<Payload, Estimate>>,
    analytic: Mutex<HashMap<ModuleSpec, Arc<HdModel>>>,
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            engine: Arc::new(PowerEngine::new(EngineOptions::default())),
            full: Mutex::new(HashMap::new()),
            analytic: Mutex::new(HashMap::new()),
        }
    }

    /// The full-fidelity answer for `p` (memoized per payload).
    pub fn full(&self, p: &Payload) -> Result<Estimate, String> {
        if let Some(e) = self.full.lock().expect("reference lock").get(p) {
            return Ok(*e);
        }
        let estimate = self
            .engine
            .estimate(p.spec, &p.fit())
            .map_err(|e| format!("reference engine failed on {}: {e}", p.spec))?;
        self.full
            .lock()
            .expect("reference lock")
            .insert(*p, estimate);
        Ok(estimate)
    }

    /// The tier-A analytic answer for `p`: charge, average-Hd charge and
    /// average Hd.
    pub fn analytic(&self, p: &Payload) -> Result<[f64; 3], String> {
        let cached = self
            .analytic
            .lock()
            .expect("reference lock")
            .get(&p.spec)
            .cloned();
        let model = match cached {
            Some(m) => m,
            None => {
                let m = Arc::new(analytic_model(p.spec).map_err(|e| e.to_string())?);
                self.analytic
                    .lock()
                    .expect("reference lock")
                    .insert(p.spec, Arc::clone(&m));
                m
            }
        };
        let dist = p.fit();
        let charge = model
            .estimate_distribution(&dist)
            .map_err(|e| e.to_string())?;
        Ok([
            charge,
            model.estimate_interpolated(dist.mean()),
            dist.mean(),
        ])
    }

    /// Check one served answer: full-fidelity and analytic answers must
    /// equal the reference bit for bit; a regressed answer (which depends
    /// on which siblings were characterized at that instant) must be a
    /// finite positive charge with a confidence label.
    pub fn check(&self, p: &Payload, a: &Answer) -> Result<(), String> {
        let expected = match a.fidelity {
            Fidelity::Full => {
                let e = self.full(p)?;
                [e.charge_per_cycle, e.via_average, e.average_hd]
            }
            Fidelity::Analytic => self.analytic(p)?,
            Fidelity::Regressed => {
                return if a.charge.is_finite() && a.charge > 0.0 {
                    Ok(())
                } else {
                    Err(format!("{}: regressed charge {}", p.spec, a.charge))
                };
            }
        };
        let got = [a.charge, a.via, a.hd];
        if got
            .iter()
            .zip(&expected)
            .all(|(g, e)| g.to_bits() == e.to_bits())
        {
            Ok(())
        } else {
            Err(format!(
                "{} {} seed {} ({}): served {got:?}, reference {expected:?}",
                p.spec,
                p.data.name(),
                p.seed,
                a.fidelity
            ))
        }
    }
}

/// The paper's §4.2 average error ε (percent, absolute value) of a
/// constant per-cycle charge estimate against gate-level simulation of
/// the payload's own operand streams.
pub fn model_error_pct(p: &Payload, charge_per_cycle: f64) -> Result<f64, String> {
    let netlist = p
        .spec
        .build()
        .and_then(|n| n.validate())
        .map_err(|e| format!("{}: {e}", p.spec))?;
    let trace = run_words(&netlist, &p.streams(), DelayModel::Unit);
    let references: Vec<f64> = trace.samples.iter().map(|s| s.charge).collect();
    let estimates = vec![charge_per_cycle; references.len()];
    Ok(accuracy(&estimates, &references).average_error_pct.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogues_have_the_promised_shape() {
        let warm = warm_catalogue();
        assert_eq!(warm.len(), 16);
        let families: std::collections::HashSet<_> = warm.iter().map(|s| s.kind).collect();
        assert!(families.len() >= 6);
        let cold = cold_sweep();
        assert!(cold.len() >= 30);
        assert!(cold.iter().all(|c| !families.contains(&c.kind)));
        assert_eq!(warm_payloads(1).len(), PASS);
        assert_eq!(PASS % warm.len(), 0, "fresh passes must divide warm ones");
    }

    #[test]
    fn fresh_payload_seeds_never_repeat_across_lanes() {
        let mut seen = std::collections::HashSet::new();
        for lane in 0..3 {
            let mut gen = FreshPayloads::new(42, lane);
            for _ in 0..1000 {
                assert!(seen.insert(gen.next().seed));
            }
        }
    }

    #[test]
    fn a_deck_deals_every_item_once_per_pass() {
        let mut deck = Deck::new((0..10).collect(), 3);
        for _ in 0..3 {
            let mut pass: Vec<i32> = (0..10).map(|_| deck.next()).collect();
            pass.sort_unstable();
            assert_eq!(pass, (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(warm_payloads(9), warm_payloads(9));
        let (mut a, mut b) = (FreshPayloads::new(9, 1), FreshPayloads::new(9, 1));
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
        assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
    }
}
