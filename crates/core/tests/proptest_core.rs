//! Property-based tests of the optimization core's algebraic invariants.

use bbsched_core::chromosome::Chromosome;
use bbsched_core::decision::{choose_preferred, DecisionRule};
use bbsched_core::pareto::{dominates, ParetoFront, Solution};
use bbsched_core::problem::{JobDemand, KnapsackMooProblem, RepairStyle};
use bbsched_core::quality::{generational_distance, hypervolume_2d};
use bbsched_core::resource::{DemandSlot, ResourceModel, ResourceSpec};
use bbsched_core::{GaConfig, MooGa, Objectives};
use proptest::prelude::*;

fn vec2() -> impl Strategy<Value = [f64; 2]> {
    [0.0f64..1000.0, 0.0f64..1000.0]
}

proptest! {
    /// Dominance is irreflexive and antisymmetric.
    #[test]
    fn dominance_axioms(a in vec2(), b in vec2()) {
        prop_assert!(!dominates(&a, &a));
        if dominates(&a, &b) {
            prop_assert!(!dominates(&b, &a));
        }
    }

    /// Dominance is transitive.
    #[test]
    fn dominance_transitive(a in vec2(), b in vec2(), c in vec2()) {
        if dominates(&a, &b) && dominates(&b, &c) {
            prop_assert!(dominates(&a, &c));
        }
    }

    /// Front extraction is idempotent: re-inserting a front into a new
    /// front changes nothing.
    #[test]
    fn front_extraction_idempotent(points in proptest::collection::vec(vec2(), 1..40)) {
        let sols = points.iter().enumerate().map(|(i, p)| {
            let mut c = Chromosome::zeros(40);
            c.set(i, true);
            Solution { chromosome: c, objectives: Objectives::from_slice(p) }
        });
        let front = ParetoFront::from_pool(sols);
        prop_assert!(front.is_mutually_nondominated());
        let again = ParetoFront::from_pool(front.solutions().iter().cloned());
        prop_assert_eq!(front.len(), again.len());
    }

    /// Chromosome from_bits/bits round-trips and count matches.
    #[test]
    fn chromosome_roundtrip(bits in proptest::collection::vec(any::<bool>(), 1..200)) {
        let c = Chromosome::from_bits(&bits);
        let back: Vec<bool> = c.bits().collect();
        prop_assert_eq!(&back, &bits);
        prop_assert_eq!(c.count_ones(), bits.iter().filter(|&&b| b).count());
        let selected: Vec<usize> = c.selected().collect();
        let expected: Vec<usize> =
            bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        prop_assert_eq!(selected, expected);
    }

    /// Each child gene comes from one of the parents at the same locus,
    /// and the two children are complementary.
    #[test]
    fn crossover_gene_provenance(
        a in proptest::collection::vec(any::<bool>(), 2..100),
        point_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let n = a.len();
        // Derive a second parent deterministically from the seed.
        let b: Vec<bool> = (0..n).map(|i| (seed >> (i % 64)) & 1 == 1).collect();
        let ca = Chromosome::from_bits(&a);
        let cb = Chromosome::from_bits(&b);
        let point = ((n as f64) * point_frac) as usize;
        let (x, y) = ca.crossover(&cb, point);
        for i in 0..n {
            let (xi, yi) = (x.get(i), y.get(i));
            prop_assert!(xi == a[i] || xi == b[i]);
            // Complementarity: {x[i], y[i]} == {a[i], b[i]} as multisets.
            prop_assert_eq!(xi as u8 + yi as u8, a[i] as u8 + b[i] as u8);
        }
    }

    /// Hypervolume never decreases when a point is added to the front
    /// input pool (dominated points contribute nothing, dominating ones
    /// only grow it).
    #[test]
    fn hypervolume_monotone(points in proptest::collection::vec(vec2(), 1..20), extra in vec2()) {
        let build = |pts: &[[f64; 2]]| {
            let sols = pts.iter().enumerate().map(|(i, p)| {
                let mut c = Chromosome::zeros(24);
                c.set(i % 24, true);
                Solution { chromosome: c, objectives: Objectives::from_slice(p) }
            });
            ParetoFront::from_pool(sols)
        };
        let hv1 = hypervolume_2d(&build(&points), 0.0, 0.0);
        let mut bigger = points.clone();
        bigger.push(extra);
        let hv2 = hypervolume_2d(&build(&bigger), 0.0, 0.0);
        prop_assert!(hv2 >= hv1 - 1e-9, "hv shrank: {hv1} -> {hv2}");
    }

    /// GD of a front against itself is zero.
    #[test]
    fn gd_self_is_zero(points in proptest::collection::vec(vec2(), 1..20)) {
        let sols = points.iter().enumerate().map(|(i, p)| {
            let mut c = Chromosome::zeros(24);
            c.set(i % 24, true);
            Solution { chromosome: c, objectives: Objectives::from_slice(p) }
        });
        let front = ParetoFront::from_pool(sols);
        prop_assert!(generational_distance(&front, &front).abs() < 1e-12);
    }

    /// The decision maker always returns a member of the front, and with
    /// an enormous trade-off factor it returns the max-node solution.
    #[test]
    fn decision_maker_selects_from_front(points in proptest::collection::vec(vec2(), 1..20)) {
        let sols = points.iter().enumerate().map(|(i, p)| {
            let mut c = Chromosome::zeros(24);
            c.set(i % 24, true);
            Solution { chromosome: c, objectives: Objectives::from_slice(p) }
        });
        let front = ParetoFront::from_pool(sols);
        let norm = [1000.0, 1000.0];
        let chosen = choose_preferred(&front, &norm, DecisionRule::cpu_bb()).unwrap();
        prop_assert!(front
            .solutions()
            .iter()
            .any(|s| s.objectives.as_slice() == chosen.objectives.as_slice()));

        let never = choose_preferred(
            &front,
            &norm,
            DecisionRule::with_factor(1e12),
        )
        .unwrap();
        let max_nodes = front
            .objective_vectors()
            .map(|v| v[0])
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(never.objectives[0], max_nodes);
    }

    /// Evaluate is additive: the objectives of a selection equal the sum
    /// of the selected jobs' demands.
    #[test]
    fn evaluation_is_additive(
        demands in proptest::collection::vec((1u32..50, 0.0f64..500.0), 1..30),
        mask in any::<u64>(),
    ) {
        let window: Vec<JobDemand> =
            demands.iter().map(|&(n, b)| JobDemand::cpu_bb(n, b)).collect();
        let w = window.len();
        let problem = KnapsackMooProblem::new(window.clone(), ResourceModel::cpu_bb(u32::MAX, f64::INFINITY));
        let c = Chromosome::from_mask(mask, w.min(64));
        let c = if w <= 64 { c } else { Chromosome::from_mask(mask, 64) };
        let obj = problem.evaluate(&c);
        let nodes: f64 = c.selected().map(|i| f64::from(window[i].nodes)).sum();
        let bb: f64 = c.selected().map(|i| window[i].bb_gb).sum();
        prop_assert!((obj[0] - nodes).abs() < 1e-9);
        prop_assert!((obj[1] - bb).abs() < 1e-9);
    }
}

// --- generic N-resource properties -----------------------------------------
//
// The demand slots available to non-node resources, in canonical order.
const POOLED_SLOTS: [DemandSlot; 3] =
    [DemandSlot::BbGb, DemandSlot::Extra(0), DemandSlot::Extra(1)];

/// A pooled model over nodes plus the non-node resources listed in `order`
/// (indices into [`POOLED_SLOTS`] / `amounts`). Resource 0 is always nodes;
/// permuting `order` permutes the model's resource order without touching
/// the job demands (slots route demands by identity, not position).
fn pooled_model(avail_nodes: u32, amounts: &[f64; 3], order: &[usize]) -> ResourceModel {
    let mut specs = vec![ResourceSpec::pooled("nodes", f64::from(avail_nodes), DemandSlot::Nodes)];
    for &k in order {
        specs.push(ResourceSpec::pooled(format!("r{k}"), amounts[k], POOLED_SLOTS[k]));
    }
    ResourceModel::new(specs).expect("pooled tables are always valid")
}

/// The `idx`-th permutation of `0..n` (factorial number system; any `idx`
/// maps to a valid permutation).
fn permutation(n: usize, mut idx: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    let mut out = Vec::with_capacity(n);
    for k in (1..=n).rev() {
        out.push(pool.remove(idx % k));
        idx /= k;
    }
    out
}

/// A demand routing `amounts` through the three pooled non-node slots.
fn pooled_demand(nodes: u32, amounts: &[f64; 3]) -> JobDemand {
    JobDemand { nodes, bb_gb: amounts[0], ssd_gb_per_node: 0.0, extra: [amounts[1], amounts[2]] }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Repair always lands on a feasible selection — and only ever
    /// deselects — for R ∈ {2, 3, 4} pooled resources, under both repair
    /// rules.
    #[test]
    fn repair_feasible_for_r_2_3_4(
        r in 2usize..=4,
        avail_nodes in 1u32..60,
        amounts in [0.0f64..500.0, 0.0f64..500.0, 0.0f64..500.0],
        jobs in collection::vec((0u32..30, [0.0f64..200.0, 0.0f64..200.0, 0.0f64..200.0]), 1..16),
        mask in any::<u64>(),
        drop_all in any::<bool>(),
    ) {
        let order: Vec<usize> = (0..r - 1).collect();
        let window: Vec<JobDemand> =
            jobs.iter().map(|&(n, ref a)| pooled_demand(n, a)).collect();
        let style =
            if drop_all { RepairStyle::DropUnconditionally } else { RepairStyle::DropIfRelieves };
        let problem = KnapsackMooProblem::new(window, pooled_model(avail_nodes, &amounts, &order))
            .with_repair_style(style);
        let before = Chromosome::from_mask(mask, jobs.len());
        let mut after = before.clone();
        problem.repair(&mut after);
        prop_assert!(problem.is_feasible(&after), "repair left an infeasible selection");
        for i in 0..jobs.len() {
            prop_assert!(!after.get(i) || before.get(i), "repair selected gene {}", i);
        }
    }

    /// The fused `repair_evaluate`, which reuses repair's aggregate when
    /// nothing was dropped, agrees with repair-then-evaluate bit for bit
    /// on a random selection (a mask overwritten by random gene writes),
    /// for R ∈ {2, 3, 4} and both repair rules.
    #[test]
    fn repair_evaluate_matches_two_step(
        r in 2usize..=4,
        avail_nodes in 1u32..60,
        amounts_i in [0u32..500, 0u32..500, 0u32..500],
        jobs in collection::vec((0u32..30, [0u32..200, 0u32..200, 0u32..200]), 1..16),
        mask in any::<u64>(),
        flips in collection::vec((0usize..64, any::<bool>()), 1..64),
    ) {
        // Derive the repair rule from the mask so both rules get coverage
        // without a seventh strategy parameter.
        let drop_all = mask.count_ones() % 2 == 1;
        let order: Vec<usize> = (0..r - 1).collect();
        let amounts = [f64::from(amounts_i[0]), f64::from(amounts_i[1]), f64::from(amounts_i[2])];
        let window: Vec<JobDemand> = jobs
            .iter()
            .map(|&(n, ref a)| {
                pooled_demand(n, &[f64::from(a[0]), f64::from(a[1]), f64::from(a[2])])
            })
            .collect();
        let style =
            if drop_all { RepairStyle::DropUnconditionally } else { RepairStyle::DropIfRelieves };
        let problem = KnapsackMooProblem::new(window, pooled_model(avail_nodes, &amounts, &order))
            .with_repair_style(style);
        let w = jobs.len();
        let mut x = Chromosome::from_mask(mask, w);
        for &(i, v) in &flips {
            x.set(i % w, v);
        }
        let mut fused_c = x.clone();
        let mut two_step_c = x;
        let fused = problem.repair_evaluate(&mut fused_c);
        problem.repair(&mut two_step_c);
        let two_step = problem.evaluate(&two_step_c);
        prop_assert_eq!(
            fused_c.bits().collect::<Vec<_>>(),
            two_step_c.bits().collect::<Vec<_>>()
        );
        prop_assert_eq!(fused.as_slice(), two_step.as_slice());
    }

    /// Repair feasibility also holds with a flavoured per-node resource in
    /// the table (the §5 two-tier SSD shape), under both repair rules.
    #[test]
    fn repair_feasible_with_per_node_flavours(
        n128 in 0u32..20,
        n256 in 0u32..20,
        bb in 0.0f64..500.0,
        jobs in collection::vec((0u32..10, 0.0f64..200.0, 0.0f64..300.0), 1..16),
        mask in any::<u64>(),
    ) {
        let window: Vec<JobDemand> =
            jobs.iter().map(|&(n, b, s)| JobDemand::cpu_bb_ssd(n, b, s)).collect();
        let model = ResourceModel::cpu_bb_ssd(n128, n256, bb);
        for style in [RepairStyle::DropIfRelieves, RepairStyle::DropUnconditionally] {
            let p = KnapsackMooProblem::new(window.clone(), model.clone())
                .with_repair_style(style);
            let mut c = Chromosome::from_mask(mask, jobs.len());
            p.repair(&mut c);
            prop_assert!(p.is_feasible(&c), "repair ({:?}) left an infeasible selection", style);
        }
    }

    /// Reordering the non-node resources permutes the objective vector
    /// component-for-component and leaves Pareto dominance and feasibility
    /// invariant: the model order is presentation, not semantics.
    #[test]
    fn dominance_invariant_under_resource_permutation(
        r in 3usize..=4,
        avail_nodes in 1u32..60,
        amounts in [0.0f64..500.0, 0.0f64..500.0, 0.0f64..500.0],
        jobs in collection::vec((0u32..30, [0.0f64..200.0, 0.0f64..200.0, 0.0f64..200.0]), 1..16),
        masks in [any::<u64>(), any::<u64>()],
        perm_idx in 0usize..6,
    ) {
        let n = r - 1;
        let base: Vec<usize> = (0..n).collect();
        let perm = permutation(n, perm_idx);
        let window: Vec<JobDemand> =
            jobs.iter().map(|&(nd, ref a)| pooled_demand(nd, a)).collect();
        let p0 = KnapsackMooProblem::new(window.clone(), pooled_model(avail_nodes, &amounts, &base));
        let p1 = KnapsackMooProblem::new(window, pooled_model(avail_nodes, &amounts, &perm));
        let a = Chromosome::from_mask(masks[0], jobs.len());
        let b = Chromosome::from_mask(masks[1], jobs.len());
        // The permuted problem's objectives are exactly the original's,
        // reordered: permuted objective 1+j reads original resource 1+perm[j].
        for c in [&a, &b] {
            let o0 = p0.evaluate(c);
            let o1 = p1.evaluate(c);
            prop_assert_eq!(o0[0], o1[0]);
            for (j, &k) in perm.iter().enumerate() {
                prop_assert_eq!(o1[1 + j], o0[1 + k]);
            }
        }
        // Dominance between any two selections is order-independent.
        let (oa0, ob0) = (p0.evaluate(&a), p0.evaluate(&b));
        let (oa1, ob1) = (p1.evaluate(&a), p1.evaluate(&b));
        prop_assert_eq!(
            dominates(oa0.as_slice(), ob0.as_slice()),
            dominates(oa1.as_slice(), ob1.as_slice())
        );
        prop_assert_eq!(
            dominates(ob0.as_slice(), oa0.as_slice()),
            dominates(ob1.as_slice(), oa1.as_slice())
        );
        // So is feasibility.
        prop_assert_eq!(p0.is_feasible(&a), p1.is_feasible(&a));
        prop_assert_eq!(p0.is_feasible(&b), p1.is_feasible(&b));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The GA front stays feasible when the resource order is permuted, and
    /// each front is feasible under the *other* order's problem: feasibility
    /// of evolved solutions does not depend on how the table was written.
    #[test]
    fn ga_front_feasibility_invariant_under_permutation(
        avail_nodes in 1u32..40,
        amounts in [0.0f64..400.0, 0.0f64..400.0, 0.0f64..400.0],
        jobs in collection::vec((0u32..20, [0.0f64..150.0, 0.0f64..150.0, 0.0f64..150.0]), 1..11),
        perm_idx in 0usize..6,
        seed in any::<u64>(),
    ) {
        let base: Vec<usize> = vec![0, 1, 2];
        let perm = permutation(3, perm_idx);
        let window: Vec<JobDemand> =
            jobs.iter().map(|&(n, ref a)| pooled_demand(n, a)).collect();
        let p0 = KnapsackMooProblem::new(window.clone(), pooled_model(avail_nodes, &amounts, &base));
        let p1 = KnapsackMooProblem::new(window, pooled_model(avail_nodes, &amounts, &perm));
        let cfg = GaConfig { population: 10, generations: 25, seed, ..GaConfig::default() };
        let f0 = MooGa::new(cfg.clone()).solve(&p0);
        let f1 = MooGa::new(cfg).solve(&p1);
        prop_assert!(f0.is_mutually_nondominated());
        prop_assert!(f1.is_mutually_nondominated());
        for s in f0.solutions() {
            prop_assert!(p0.is_feasible(&s.chromosome));
            prop_assert!(p1.is_feasible(&s.chromosome));
        }
        for s in f1.solutions() {
            prop_assert!(p1.is_feasible(&s.chromosome));
            prop_assert!(p0.is_feasible(&s.chromosome));
        }
    }
}
