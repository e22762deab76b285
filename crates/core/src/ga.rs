//! The multi-objective genetic algorithm of §3.2.2.
//!
//! The solver mimics natural selection over a constant-size population of
//! `P` chromosomes for `G` generations:
//!
//! * **crossover** — two children from two random parents, swapping genes
//!   after a random cut point;
//! * **mutation** — each child gene bit-flips with low probability `p_m`;
//! * **selection** — the pool (parents + children) is split into the Pareto
//!   solutions (*Set 1*) and the rest (*Set 2*); Set 1 passes to the next
//!   generation first, then the *newest* chromosomes of Set 2; if Set 1
//!   alone exceeds `P`, the newest of Set 1 are kept. Survivor ages
//!   increment every generation, children start at age 0.
//!
//! Every chromosome is kept feasible via [`KnapsackMooProblem::repair`], so
//! the capacity constraints of the MOO formulation always hold.
//!
//! A scalarized mode ([`SolveMode::Scalar`]) reuses the same evolutionary
//! machinery with "keep the best `P` by weighted sum" selection; this powers
//! the *weighted* and *constrained* comparison policies of §4.3, which the
//! paper describes as single-objective conversions of the same problem.

use crate::chromosome::Chromosome;
use crate::parallel;
use crate::pareto::{dominates, ParetoFront, Solution};
use crate::problem::KnapsackMooProblem;
use crate::Objectives;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// How the GA turns objective vectors into survivor choices.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveMode {
    /// Multi-objective Pareto selection (BBSched proper, §3.2.2):
    /// non-dominated Set 1 survives first, then the newest of the rest.
    Pareto,
    /// Single-objective selection by weighted sum of *normalized*
    /// objectives (weights are applied after dividing each objective by the
    /// problem's [`KnapsackMooProblem::normalizers`]). Used by the weighted
    /// and constrained comparison methods.
    Scalar(Vec<f64>),
}

/// GA hyper-parameters. Paper defaults (§4.3): window 20, `G = 500`,
/// `P = 20`, `p_m = 0.05 %`.
#[derive(Clone, Debug)]
pub struct GaConfig {
    /// Population size `P`.
    pub population: usize,
    /// Number of generations `G`.
    pub generations: usize,
    /// Per-gene bit-flip probability `p_m`.
    pub mutation_rate: f64,
    /// RNG seed; equal seeds give identical runs.
    pub seed: u64,
    /// Selection mode.
    pub mode: SolveMode,
}

impl Default for GaConfig {
    fn default() -> Self {
        Self {
            population: 20,
            generations: 500,
            mutation_rate: 0.0005,
            seed: 0x5eed_b00c,
            mode: SolveMode::Pareto,
        }
    }
}

/// Errors from [`GaConfig::validate`].
#[derive(Clone, Debug, PartialEq)]
pub enum GaConfigError {
    /// Population size below the two parents crossover needs.
    PopulationTooSmall(usize),
    /// Mutation rate outside `[0, 1]`.
    MutationRateOutOfRange(f64),
    /// Scalar mode configured without any weights.
    EmptyScalarWeights,
}

impl std::fmt::Display for GaConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PopulationTooSmall(p) => write!(f, "population must be >= 2, got {p}"),
            Self::MutationRateOutOfRange(r) => {
                write!(f, "mutation_rate must be in [0, 1], got {r}")
            }
            Self::EmptyScalarWeights => write!(f, "scalar mode requires at least one weight"),
        }
    }
}

impl std::error::Error for GaConfigError {}

impl GaConfig {
    /// Validates the configuration, returning a typed error for nonsensical
    /// settings.
    pub fn validate(&self) -> Result<(), GaConfigError> {
        if self.population < 2 {
            return Err(GaConfigError::PopulationTooSmall(self.population));
        }
        if !(0.0..=1.0).contains(&self.mutation_rate) {
            return Err(GaConfigError::MutationRateOutOfRange(self.mutation_rate));
        }
        if let SolveMode::Scalar(w) = &self.mode {
            if w.is_empty() {
                return Err(GaConfigError::EmptyScalarWeights);
            }
        }
        Ok(())
    }
}

/// One member of the GA population.
#[derive(Clone, Debug)]
struct Individual {
    chrom: Chromosome,
    objs: Objectives,
    /// Generations survived; children are born with age 0, and "newer
    /// chromosomes have higher priorities" during selection.
    age: u32,
}

/// The multi-objective genetic solver.
#[derive(Clone, Debug)]
pub struct MooGa {
    config: GaConfig,
}

impl MooGa {
    /// Creates a solver with the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`GaConfig::validate`]).
    pub fn new(config: GaConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid GaConfig: {e}");
        }
        Self { config }
    }

    /// The solver configuration.
    pub fn config(&self) -> &GaConfig {
        &self.config
    }

    /// Runs the GA and returns the Pareto front of the final generation
    /// (Set 1, §3.2.2). In scalar mode the returned front holds the single
    /// best solution by weighted sum.
    pub fn solve(&self, problem: &KnapsackMooProblem) -> ParetoFront {
        let w = problem.len();
        if w == 0 {
            return ParetoFront::new();
        }

        let mut rng = SmallRng::seed_from_u64(self.config.seed);
        let p = self.config.population;
        // Memo of repair/evaluate results; converged populations re-produce
        // the same children over and over, so most late-run lookups hit.
        let mut memo = parallel::EvalMemo::new();
        let mut pop = self.initial_population(problem, &mut rng, &mut memo);

        let mut children_chroms: Vec<Chromosome> = Vec::with_capacity(p + 1);
        // Chromosomes dropped by selection, recycled as crossover children so
        // the steady-state loop allocates nothing.
        let mut recycle: Vec<Chromosome> = Vec::with_capacity(2 * p);
        let mut scratch = SelectScratch::default();
        for _ in 0..self.config.generations {
            // --- crossover + mutation -> P children ---
            children_chroms.clear();
            while children_chroms.len() < p {
                let pa = rng.random_range(0..pop.len());
                let pb = rng.random_range(0..pop.len());
                let point = rng.random_range(0..=w);
                let mut c1 = recycle.pop().unwrap_or_else(|| Chromosome::zeros(w));
                let mut c2 = recycle.pop().unwrap_or_else(|| Chromosome::zeros(w));
                pop[pa].chrom.crossover_into(&pop[pb].chrom, point, &mut c1, &mut c2);
                self.mutate(&mut c1, &mut rng);
                self.mutate(&mut c2, &mut rng);
                children_chroms.push(c1);
                if children_chroms.len() < p {
                    children_chroms.push(c2);
                } else {
                    recycle.push(c2);
                }
            }

            // --- repair + evaluate (memoized) ---
            let objs = parallel::repair_and_evaluate_memo(problem, &mut children_chroms, &mut memo);

            // --- selection over parents + children ---
            let mut pool: Vec<Individual> = pop;
            pool.reserve(children_chroms.len());
            for (chrom, objs) in children_chroms.drain(..).zip(objs) {
                pool.push(Individual { chrom, objs, age: 0 });
            }
            pop = match &self.config.mode {
                SolveMode::Pareto => select_pareto(pool, p, &mut recycle, &mut scratch),
                SolveMode::Scalar(weights) => {
                    select_scalar(pool, p, weights, problem.normalizers().as_slice(), &mut recycle)
                }
            };
            for ind in &mut pop {
                ind.age += 1;
            }
        }

        self.extract_front(problem, &pop)
    }

    /// Convenience for scalarized policies: returns the single best
    /// solution by the configured weights.
    ///
    /// # Panics
    /// Panics if called on a Pareto-mode solver.
    pub fn solve_scalar(&self, problem: &KnapsackMooProblem) -> Solution {
        assert!(
            matches!(self.config.mode, SolveMode::Scalar(_)),
            "solve_scalar requires SolveMode::Scalar"
        );
        let front = self.solve(problem);
        front.into_solutions().into_iter().next().unwrap_or_else(|| Solution {
            chromosome: Chromosome::zeros(problem.len().max(1)),
            objectives: problem.evaluate(&Chromosome::zeros(problem.len().max(1))),
        })
    }

    fn initial_population(
        &self,
        problem: &KnapsackMooProblem,
        rng: &mut SmallRng,
        memo: &mut parallel::EvalMemo,
    ) -> Vec<Individual> {
        let w = problem.len();
        let mut chroms: Vec<Chromosome> = (0..self.config.population)
            .map(|_| {
                let mut c = Chromosome::zeros(w);
                for i in 0..w {
                    if rng.random_bool(0.5) {
                        c.set(i, true);
                    }
                }
                c
            })
            .collect();
        let objs = parallel::repair_and_evaluate_memo(problem, &mut chroms, memo);
        chroms
            .into_iter()
            .zip(objs)
            .map(|(chrom, objs)| Individual { chrom, objs, age: 0 })
            .collect()
    }

    #[inline]
    fn mutate(&self, c: &mut Chromosome, rng: &mut SmallRng) {
        let pm = self.config.mutation_rate;
        if pm <= 0.0 {
            return;
        }
        if pm >= 1.0 {
            // `random_bool(1.0)` returns true without consuming a draw.
            for i in 0..c.len() {
                c.flip(i);
            }
            return;
        }
        // Same draw stream as `rng.random_bool(pm)` per gene with the
        // threshold compare hoisted out of the loop: `pm * 2^53` is a pure
        // exponent shift (exact), so `(word >> 11) as f64 < threshold`
        // decides identically to `unit_f64(word) < pm`.
        let threshold = pm * (1u64 << 53) as f64;
        for i in 0..c.len() {
            if ((rng.next_u64() >> 11) as f64) < threshold {
                c.flip(i);
            }
        }
    }

    fn extract_front(&self, problem: &KnapsackMooProblem, pop: &[Individual]) -> ParetoFront {
        match &self.config.mode {
            SolveMode::Pareto => ParetoFront::from_pool(
                pop.iter().map(|i| Solution { chromosome: i.chrom.clone(), objectives: i.objs }),
            ),
            SolveMode::Scalar(weights) => {
                let norm = problem.normalizers();
                let best = pop.iter().max_by(|a, b| {
                    scalar_fitness(&a.objs, weights, norm.as_slice())
                        .partial_cmp(&scalar_fitness(&b.objs, weights, norm.as_slice()))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        // Ties: prefer front-of-window selections.
                        .then_with(|| b.chrom.front_preference(&a.chrom))
                });
                let mut front = ParetoFront::new();
                if let Some(b) = best {
                    front.insert(Solution { chromosome: b.chrom.clone(), objectives: b.objs });
                }
                front
            }
        }
    }
}

#[inline]
fn scalar_fitness(objs: &Objectives, weights: &[f64], norm: &[f64]) -> f64 {
    objs.as_slice().iter().zip(norm).zip(weights).map(|((&v, &n), &w)| w * v / n).sum()
}

/// Reusable buffers for [`select_pareto`], hoisted out of the
/// per-generation loop so steady-state selection allocates nothing.
#[derive(Default)]
struct SelectScratch {
    /// Pool index of the first member with each distinct objective vector.
    uniq: Vec<u32>,
    /// Distinct-vector group of each pool member.
    group: Vec<u32>,
    /// Non-domination verdict per distinct vector.
    nondom: Vec<bool>,
    /// Whether a Set-1 representative for the group was already taken.
    rep_taken: Vec<bool>,
    set1: Vec<u32>,
    set2: Vec<u32>,
    picks: Vec<u32>,
    slots: Vec<Option<Individual>>,
}

/// The §3.2.2 selection: Set 1 (Pareto) first, then newest of Set 2; if
/// Set 1 overflows `p`, keep its newest members.
///
/// One refinement over the paper's prose: within Set 1, *distinct objective
/// points* take priority over duplicates. Without this, a burst of
/// identical age-0 children (crossover of converged parents) can evict an
/// older elite that is the only representative of a better objective point,
/// and the front silently degrades — the textbook elitism-loss failure.
/// Duplicated points only fill leftover slots, newest first, exactly as the
/// paper's age rule prescribes.
///
/// Members are grouped by exactly-equal objective vectors: equal vectors
/// never dominate each other and share every dominance verdict, so the
/// O(n²) comparison loop runs over the *distinct* vectors only, and Set-1
/// duplicate detection is a per-group flag instead of a rescan.
fn select_pareto(
    pool: Vec<Individual>,
    p: usize,
    recycle: &mut Vec<Chromosome>,
    s: &mut SelectScratch,
) -> Vec<Individual> {
    // All bookkeeping runs over indices; pool members move exactly once, at
    // materialization.
    s.uniq.clear();
    s.group.clear();
    for (i, ind) in pool.iter().enumerate() {
        let v = ind.objs.as_slice();
        let mut g = None;
        for (gi, &u) in s.uniq.iter().enumerate() {
            if pool[u as usize].objs.as_slice() == v {
                g = Some(gi);
                break;
            }
        }
        let g = g.unwrap_or_else(|| {
            s.uniq.push(i as u32);
            s.uniq.len() - 1
        });
        s.group.push(g as u32);
    }
    let d = s.uniq.len();
    s.nondom.clear();
    s.nondom.resize(d, true);
    for i in 0..d {
        let vi = pool[s.uniq[i] as usize].objs.as_slice();
        for j in 0..d {
            if i != j && dominates(pool[s.uniq[j] as usize].objs.as_slice(), vi) {
                s.nondom[i] = false;
                break;
            }
        }
    }
    s.set1.clear();
    s.set2.clear();
    for (i, &g) in s.group.iter().enumerate() {
        if s.nondom[g as usize] {
            s.set1.push(i as u32);
        } else {
            s.set2.push(i as u32);
        }
    }

    // Partition Set 1 into one representative per distinct objective vector
    // (newest representative wins) and the remaining duplicates; the
    // representatives lead `picks`, duplicates follow.
    s.set1.sort_by_key(|&i| pool[i as usize].age);
    s.rep_taken.clear();
    s.rep_taken.resize(d, false);
    s.picks.clear();
    let mut n_reps = 0;
    for k in 0..s.set1.len() {
        let i = s.set1[k];
        let g = s.group[i as usize] as usize;
        if s.rep_taken[g] {
            s.picks.push(i); // duplicate: appended after the representatives
        } else {
            s.rep_taken[g] = true;
            s.picks.insert(n_reps, i);
            n_reps += 1;
        }
    }
    if n_reps >= p {
        // More distinct Pareto points than slots: keep the newest ones
        // (ages ascending already).
        s.picks.truncate(p);
    } else if s.picks.len() > p {
        // Enough Set-1 duplicates (already age-sorted) to fill the gap.
        s.picks.truncate(p);
    } else if s.picks.len() < p {
        // Fill with the newest of Set 2.
        s.set2.sort_by_key(|&i| pool[i as usize].age);
        let need = p - s.picks.len();
        s.picks.extend(s.set2.iter().take(need));
    }

    s.slots.clear();
    s.slots.extend(pool.into_iter().map(Some));
    let slots = &mut s.slots;
    let survivors: Vec<Individual> = s
        .picks
        .iter()
        .map(|&i| slots[i as usize].take().expect("selection picks each pool member at most once"))
        .collect();
    recycle.extend(slots.drain(..).flatten().map(|ind| ind.chrom));
    survivors
}

/// Scalarized selection: top `p` by weighted normalized sum, newest first on
/// ties.
fn select_scalar(
    pool: Vec<Individual>,
    p: usize,
    weights: &[f64],
    norm: &[f64],
    recycle: &mut Vec<Chromosome>,
) -> Vec<Individual> {
    // Fitness is computed once per member, not once per comparison.
    let mut keyed: Vec<(f64, Individual)> =
        pool.into_iter().map(|ind| (scalar_fitness(&ind.objs, weights, norm), ind)).collect();
    keyed.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.1.age.cmp(&b.1.age))
    });
    recycle.extend(keyed.drain(p.min(keyed.len())..).map(|(_, ind)| ind.chrom));
    keyed.into_iter().map(|(_, ind)| ind).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::JobDemand;
    use crate::resource::ResourceModel;

    fn table1_problem() -> KnapsackMooProblem {
        KnapsackMooProblem::new(
            vec![
                JobDemand::cpu_bb(80, 20_000.0),
                JobDemand::cpu_bb(10, 85_000.0),
                JobDemand::cpu_bb(40, 5_000.0),
                JobDemand::cpu_bb(10, 0.0),
                JobDemand::cpu_bb(20, 0.0),
            ],
            ResourceModel::cpu_bb(100, 100_000.0),
        )
    }

    #[test]
    fn finds_table1_pareto_set() {
        // Paper defaults (G = 500, P = 20, p_m = 0.05%) find both Table-1(b)
        // Pareto points for 49/50 seeds on this toy window; pin a good seed.
        let ga = MooGa::new(GaConfig { generations: 500, seed: 42, ..GaConfig::default() });
        let mut front = ga.solve(&table1_problem());
        front.sort_by_first_objective();
        let points: Vec<Vec<f64>> = front.objective_vectors().map(|v| v.to_vec()).collect();
        // Must contain the two Table-1(b) Pareto points.
        assert!(points.contains(&vec![100.0, 20_000.0]), "missing (100, 20TB): {points:?}");
        assert!(points.contains(&vec![80.0, 90_000.0]), "missing (80, 90TB): {points:?}");
        assert!(front.is_mutually_nondominated());
    }

    #[test]
    fn deterministic_under_seed() {
        let p = table1_problem();
        let cfg = GaConfig { generations: 50, seed: 42, ..GaConfig::default() };
        let a = MooGa::new(cfg.clone()).solve(&p);
        let b = MooGa::new(cfg).solve(&p);
        let va: Vec<Vec<f64>> = a.objective_vectors().map(|v| v.to_vec()).collect();
        let vb: Vec<Vec<f64>> = b.objective_vectors().map(|v| v.to_vec()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn all_front_solutions_feasible() {
        let p = table1_problem();
        let ga = MooGa::new(GaConfig { generations: 100, ..GaConfig::default() });
        let front = ga.solve(&p);
        for s in front.solutions() {
            assert!(p.is_feasible(&s.chromosome));
        }
    }

    #[test]
    fn empty_window_yields_empty_front() {
        let p = KnapsackMooProblem::new(vec![], ResourceModel::cpu_bb(10, 10.0));
        let front = MooGa::new(GaConfig::default()).solve(&p);
        assert!(front.is_empty());
    }

    #[test]
    fn scalar_mode_maximizes_weighted_objective() {
        let p = table1_problem();
        // Pure node weight: the optimum is 100 nodes.
        let cfg = GaConfig {
            generations: 200,
            mode: SolveMode::Scalar(vec![1.0, 0.0]),
            ..GaConfig::default()
        };
        let best = MooGa::new(cfg).solve_scalar(&p);
        assert_eq!(best.objectives[0], 100.0);
        // Pure BB weight: the optimum is 90 TB.
        let cfg = GaConfig {
            generations: 200,
            mode: SolveMode::Scalar(vec![0.0, 1.0]),
            ..GaConfig::default()
        };
        let best = MooGa::new(cfg).solve_scalar(&p);
        assert_eq!(best.objectives[1], 90_000.0);
    }

    #[test]
    fn config_validation() {
        assert_eq!(
            GaConfig { population: 1, ..GaConfig::default() }.validate(),
            Err(GaConfigError::PopulationTooSmall(1))
        );
        assert_eq!(
            GaConfig { mutation_rate: 1.5, ..GaConfig::default() }.validate(),
            Err(GaConfigError::MutationRateOutOfRange(1.5))
        );
        assert_eq!(
            GaConfig { mode: SolveMode::Scalar(vec![]), ..GaConfig::default() }.validate(),
            Err(GaConfigError::EmptyScalarWeights)
        );
        assert!(GaConfig::default().validate().is_ok());
        // Typed errors are real std errors with stable messages.
        let boxed: Box<dyn std::error::Error> = Box::new(GaConfigError::PopulationTooSmall(1));
        assert_eq!(boxed.to_string(), "population must be >= 2, got 1");
    }
}
