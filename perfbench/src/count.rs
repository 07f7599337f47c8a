//! `count_cnf`: single-threaded ApproxMC (galloping search, CDCL
//! `SatOracle`, Toeplitz XOR rows) over a seeded sequence of random 3-CNFs,
//! counted in order until the run's time is up.

use crate::layers::TimedOracle;
use crate::metrics::{cpu_s, peak_rss_mb, process_cpu_s, reset_peak_rss, Pass};
use crate::trace::{self, Name, Tracer};
use crate::{Scale, SETUP_GAP, SETUP_REPS};
use mcf0_counting::{approx_mc_on_oracle, CountOutcome, CountingConfig, FormulaInput, LevelSearch};
use mcf0_formula::exact::count_cnf_dpll;
use mcf0_formula::generators::random_k_cnf;
use mcf0_formula::CnfFormula;
use mcf0_hashing::{ToeplitzHash, Xoshiro256StarStar};
use mcf0_sat::{ChronoOracle, SatOracle, SolutionOracle};
use std::time::{Duration, Instant};

/// The generated formulas, each with the seed of its hash draws.
pub struct CountSpec {
    /// Variables per formula.
    pub vars: usize,
    /// ApproxMC shape.
    pub config: CountingConfig,
    /// Formulas in counting order, with their hash seeds.
    pub formulas: Vec<(CnfFormula, u64)>,
}

/// Formulas generated per second of the timed phase: over twice the rate
/// counted today, so a faster counter still finds fresh ones, while set-up
/// builds few oracles that no run reaches.
const FORMULAS_PER_S: f64 = 80.0;

/// `vars` variables and 2·vars clauses per formula, enough formulas for a
/// timed phase of `seconds`.
pub fn count_spec(seed: u64, scale: Scale, seconds: f64) -> CountSpec {
    let (vars, count) = match scale {
        Scale::Full => (22, ((seconds * FORMULAS_PER_S).ceil() as usize).max(40)),
        Scale::Tiny => (12, 40),
    };
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0xC0C0_A0A0_5EED_0001);
    let formulas = (0..count)
        .map(|_| (random_k_cnf(&mut rng, vars, 2 * vars, 3), rng.next_u64()))
        .collect();
    CountSpec {
        vars,
        config: CountingConfig::explicit(0.8, 0.2, 40, 9),
        formulas,
    }
}

fn count_on(
    spec: &CountSpec,
    formula: &CnfFormula,
    hash_seed: u64,
    oracle: &mut dyn SolutionOracle,
    tracer: Option<&Tracer>,
) -> CountOutcome {
    let n = spec.vars;
    let input = FormulaInput::Cnf(formula.clone());
    let mut rng = Xoshiro256StarStar::seed_from_u64(hash_seed);
    match tracer {
        None => approx_mc_on_oracle(
            &input,
            &spec.config,
            LevelSearch::Galloping,
            &mut rng,
            |rng| ToeplitzHash::sample(rng, n, n),
            Some(oracle),
        ),
        Some(t) => {
            let mut timed = TimedOracle::new(oracle, t);
            approx_mc_on_oracle(
                &input,
                &spec.config,
                LevelSearch::Galloping,
                &mut rng,
                |rng| t.time(Name::Draw, 1, || ToeplitzHash::sample(rng, n, n)),
                Some(&mut timed as &mut dyn SolutionOracle),
            )
        }
    }
}

/// The counts a pass produced, for the gate.
pub struct CountRun {
    outcomes: Vec<CountOutcome>,
}

/// One pass: set-up (oracle construction for every formula, repeated), then
/// count formulas in order until `seconds` have passed.
pub fn run_pass(
    spec: &CountSpec,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<(Pass, CountRun), String> {
    let mut pass = Pass::default();
    let mut oracles = Vec::new();
    for i in 0..SETUP_REPS {
        if i > 0 {
            std::thread::sleep(SETUP_GAP);
        }
        // The previous repetition's oracles go first, outside the timing,
        // so two sets are never resident together.
        oracles.clear();
        let (c0, t0) = (process_cpu_s(), Instant::now());
        oracles.extend(spec.formulas.iter().map(|(f, _)| SatOracle::new(f.clone())));
        pass.setup_wall_s.push(t0.elapsed().as_secs_f64());
        pass.setup_s.push(process_cpu_s() - c0);
        if let Some(t) = tracer {
            t.push(trace::Span {
                id: t.next_id(),
                parent: 0,
                req: 0,
                name: Name::Setup,
                start: t.at(t0),
                end: t.now(),
                n: oracles.len() as u64,
            });
        }
    }
    reset_peak_rss();
    let cpu_begin = cpu_s();
    let begin = Instant::now();
    let deadline = begin + Duration::from_secs_f64(seconds);
    let phase = tracer.map(|t| (t.next_id(), t.at(begin)));
    let mut outcomes = Vec::new();
    let (mut conflicts, mut propagations) = (0u64, 0u64);
    // Each oracle is dropped once used, so memory does not grow with the
    // number of formulas a faster counter gets through.
    for ((formula, hash_seed), mut oracle) in spec.formulas.iter().zip(oracles) {
        let t0 = Instant::now();
        let outcome = match tracer {
            None => count_on(spec, formula, *hash_seed, &mut oracle, None),
            Some(t) => trace::with_current(phase.map_or(0, |p| p.0), || {
                t.time(Name::Count, 1, || {
                    count_on(spec, formula, *hash_seed, &mut oracle, Some(t))
                })
            }),
        };
        let now = Instant::now();
        pass.count_ns.push((now - t0).as_nanos() as u64);
        let stats = oracle.solver_stats();
        conflicts += stats.conflicts;
        propagations += stats.propagations;
        outcomes.push(outcome);
        if now >= deadline {
            break;
        }
    }
    let end = Instant::now();
    pass.cpu_s = cpu_s() - cpu_begin;
    pass.ops = outcomes.len() as u64;
    pass.cpu_ops = pass.ops;
    pass.elapsed_s = (end - begin).as_secs_f64();
    pass.peak_rss_mb = peak_rss_mb();
    if let (Some(t), Some((id, start))) = (tracer, phase) {
        t.push(trace::Span {
            id,
            parent: 0,
            req: 0,
            name: Name::Phase,
            start,
            end: t.at(end),
            n: pass.ops,
        });
        t.counter("sat.conflicts", conflicts as f64);
        t.counter("sat.propagations", propagations as f64);
    }
    Ok((pass, CountRun { outcomes }))
}

/// The gate. Every estimate is compared with the exact DPLL count: outside
/// (1+ε) it is a failed operation, since ApproxMC's guarantee is
/// probabilistic. The first formula is also recounted on the chronological
/// reference oracle: the estimate depends only on the formula and the hash
/// seed, so any difference is a wrong answer (`Err`).
pub fn check(spec: &CountSpec, run: &CountRun) -> Result<(u64, u64), String> {
    let eps = spec.config.epsilon;
    let mut failed = 0;
    for ((formula, _), outcome) in spec.formulas.iter().zip(&run.outcomes) {
        let exact = count_cnf_dpll(formula) as f64;
        let est = outcome.estimate;
        if est > exact * (1.0 + eps) || est < exact / (1.0 + eps) {
            failed += 1;
        }
    }
    let (formula, hash_seed) = &spec.formulas[0];
    let mut reference = ChronoOracle::new(formula.clone());
    let want = count_on(spec, formula, *hash_seed, &mut reference, None);
    let got = &run.outcomes[0];
    if want.estimate.to_bits() != got.estimate.to_bits() || want.per_iteration != got.per_iteration
    {
        return Err(format!(
            "formula 0: estimate {} (cells {:?}) differs from the reference oracle's {} ({:?})",
            got.estimate, got.per_iteration, want.estimate, want.per_iteration
        ));
    }
    Ok((run.outcomes.len() as u64, failed))
}

impl CountRun {
    /// Corrupts the first estimate (self-tests).
    pub fn corrupt_first(&mut self) {
        self.outcomes[0].estimate += 1.0;
    }
}
