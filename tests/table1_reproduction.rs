//! Integration test: the paper's Table 1 example reproduced end to end
//! through the public API — generators excepted, this touches every layer
//! used by a scheduling decision (problems, solvers, policies, decision
//! rule).

use bbsched::core::pools::PoolState;
use bbsched::core::problem::{JobDemand, KnapsackMooProblem};
use bbsched::core::resource::ResourceModel;
use bbsched::core::{exhaustive, pareto};
use bbsched::policies::{GaParams, PolicyKind};

fn table1_window() -> Vec<JobDemand> {
    vec![
        JobDemand::cpu_bb(80, 20_000.0),
        JobDemand::cpu_bb(10, 85_000.0),
        JobDemand::cpu_bb(40, 5_000.0),
        JobDemand::cpu_bb(10, 0.0),
        JobDemand::cpu_bb(20, 0.0),
    ]
}

fn ga() -> GaParams {
    GaParams { generations: 500, base_seed: 4, ..GaParams::default() }
}

fn selection_stats(sel: &[usize]) -> (u32, f64) {
    let w = table1_window();
    (sel.iter().map(|&i| w[i].nodes).sum(), sel.iter().map(|&i| w[i].bb_gb).sum())
}

#[test]
fn exhaustive_pareto_set_matches_footnote_1() {
    let problem = KnapsackMooProblem::new(table1_window(), ResourceModel::cpu_bb(100, 100_000.0));
    let front = exhaustive::solve(&problem).unwrap();
    let pts: Vec<Vec<f64>> = front.objective_vectors().map(|v| v.to_vec()).collect();
    // "the Pareto set contains Solution 2 and 3"
    assert!(pts.contains(&vec![100.0, 20_000.0]));
    assert!(pts.contains(&vec![80.0, 90_000.0]));
    assert!(front.is_mutually_nondominated());
}

#[test]
fn naive_method_selects_j1_per_table_1b() {
    let avail = PoolState::cpu_bb(100, 100_000.0);
    let sel = PolicyKind::Baseline.build(ga()).select(&table1_window(), &avail, 0);
    let (nodes, bb) = selection_stats(&sel);
    // The naive method's own pick is J1 (80/20TB); J4 arrives via EASY
    // backfilling in the simulator, completing the paper's "J1, J4" row.
    assert_eq!(sel, vec![0]);
    assert_eq!((nodes, bb), (80, 20_000.0));
}

#[test]
fn single_objective_methods_reach_solution_2() {
    let avail = PoolState::cpu_bb(100, 100_000.0);
    for kind in [PolicyKind::ConstrainedCpu, PolicyKind::WeightedCpu, PolicyKind::BinPacking] {
        let sel = kind.build(ga()).select(&table1_window(), &avail, 0);
        let (nodes, bb) = selection_stats(&sel);
        assert_eq!(nodes, 100, "{}: {:?}", kind.name(), sel);
        assert_eq!(bb, 20_000.0, "{}: {:?}", kind.name(), sel);
    }
}

#[test]
fn bbsched_picks_solution_3() {
    let avail = PoolState::cpu_bb(100, 100_000.0);
    let sel = PolicyKind::BbSched.build(ga()).select(&table1_window(), &avail, 0);
    assert_eq!(sel, vec![1, 2, 3, 4], "BBSched must pick J2..J5");
    let (nodes, bb) = selection_stats(&sel);
    assert_eq!((nodes, bb), (80, 90_000.0));
}

/// Bit-exact golden fronts, captured from the solver immediately before
/// the incremental-aggregate kernel landed. A fingerprint encodes every
/// selection bit and the IEEE-754 bits of every objective of the sorted
/// front, so any change to the GA's arithmetic, RNG stream, repair order,
/// or selection ordering diffs here directly instead of shifting
/// downstream schedules silently.
mod golden_fronts {
    use super::*;
    use bbsched::core::decision::{choose_preferred, DecisionRule};
    use bbsched::core::problem::RepairStyle;
    use bbsched::core::{GaConfig, MooGa, ParetoFront, SolveMode};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn fingerprint(front: &ParetoFront) -> String {
        let mut f = front.clone();
        f.sort_by_first_objective();
        let mut out = String::new();
        for s in f.solutions() {
            let bits: String = s.chromosome.bits().map(|b| if b { '1' } else { '0' }).collect();
            let objs: Vec<String> =
                s.objectives.as_slice().iter().map(|v| format!("{:016x}", v.to_bits())).collect();
            out.push_str(&format!("{}|{};", bits, objs.join(",")));
        }
        out
    }

    fn random_window(w: usize, seed: u64) -> Vec<JobDemand> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..w)
            .map(|_| {
                JobDemand::cpu_bb(
                    rng.random_range(8..200),
                    if rng.random_bool(0.75) { rng.random_range(100.0..30_000.0) } else { 0.0 },
                )
            })
            .collect()
    }

    #[test]
    fn table1_front_is_bit_stable_across_seeds() {
        for seed in [42u64, 7, 12345] {
            let p = KnapsackMooProblem::new(table1_window(), ResourceModel::cpu_bb(100, 100_000.0));
            let front = MooGa::new(GaConfig { seed, ..GaConfig::default() }).solve(&p);
            assert_eq!(
                fingerprint(&front),
                "10001|4059000000000000,40d3880000000000;01111|4054000000000000,40f5f90000000000;",
                "table1 front diverged at seed {seed}"
            );
        }
    }

    #[test]
    fn random_window_fronts_are_bit_stable() {
        let expected = [
            ("01000001110111100100|4089000000000000,40e86dcf99598272;01000000110001101000|4088e00000000000,40ecc2231ac5349c;01001000100001101101|4088000000000000,40ecd13c02639ce2;01000001100001101101|4087700000000000,40ece8a28f6868fc;00000011100001101100|4086180000000000,40ecff3804b9c080;00000001101111100100|4085500000000000,40ed390b9cc00097;00000001101101000101|4082200000000000,40ed4193b2e415f0;", 3u64, 1u64),
            ("01001110000000001010|4088e80000000000,40ed4068becd3a0c;00001110000101101001|4087280000000000,40ed4bed54d989f2;", 3, 2),
            ("01010100100000011110|4088d80000000000,40e68c5f1147c596;11010000000010000111|4088900000000000,40ec9c267784c533;01010000110000011110|4087b00000000000,40ed4431861a3519;", 9, 1),
            ("11100110000000011000|4088f80000000000,40e7e9ef8aa0ba19;00100110000011001100|4088980000000000,40ecc4465a812842;00000111000011000000|4084f80000000000,40ece6fdedd57e04;", 9, 2),
        ];
        for (want, window_seed, seed) in expected {
            let p = KnapsackMooProblem::new(
                random_window(20, window_seed),
                ResourceModel::cpu_bb(800, 60_000.0),
            );
            let cfg = GaConfig { generations: 200, seed, ..GaConfig::default() };
            let front = MooGa::new(cfg).solve(&p);
            assert_eq!(
                fingerprint(&front),
                want,
                "front diverged: window seed {window_seed}, GA seed {seed}"
            );
        }
    }

    #[test]
    fn ssd_fronts_are_bit_stable() {
        fn random_ssd_window(w: usize, seed: u64) -> Vec<JobDemand> {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..w)
                .map(|_| {
                    JobDemand::cpu_bb_ssd(
                        rng.random_range(1..20),
                        if rng.random_bool(0.5) { rng.random_range(0.0..3_000.0) } else { 0.0 },
                        if rng.random_bool(0.6) { rng.random_range(0.0..256.0) } else { 0.0 },
                    )
                })
                .collect()
        }
        let expected = [
            (5u64, "10010110100100|404e000000000000,40b11e4b61ed34aa,40ba125620aefdc0,c0b2eda9df510240;00010110100001|404b800000000000,40b4841feb762cde,40a8d3f4886f47f9,c0bb9605bbc85c04;10010110100000|404a800000000000,40a8de34aa958c47,40b6d811a6fbcfcd,c0b2a7ee59043033;10010000100001|4049800000000000,40b2d727cabe83f9,40a9145f8cde4243,c0b775d03990dede;10000100100100|4045800000000000,40aee2a6826b1788,40b194b4e789c21a,c0a8d69630ec7bcc;00010110100100|4045800000000000,40b11e4b61ed34aa,40af487d7bd5a3e0,c0a8b782842a5c20;00000010100001|4045800000000000,40b4841feb762cde,409aebd2afbe53a4,c0b5450b54106b17;00010000100101|4044800000000000,40b78658d760f27f,4095597375788d0f,c0b4a9a322a1dcbc;10010100100000|4044000000000000,40a5844469263a7c,40b049d2e646e22d,c0a86c5a33723ba6;10010000100100|4043800000000000,40aee2a6826b1788,40af88e880449e2a,c0a877177fbb61d6;00000000100101|4042800000000000,40b78658d760f27f,408b37d3276ea9e6,c0b299059b122ac3;10000000100100|4041800000000000,40aee2a6826b1788,40abaa238f64021c,c0a855dc709bfde4;00010000100001|4041000000000000,40b2d727cabe83f9,4080e0c31d57aa84,c0b0e3e79c550ab0;00000000100001|403e000000000000,40b2d727cabe83f9,40465af59d53a4b8,c0ada694298ab16d;00000100100100|403a000000000000,40aee2a6826b1788,409c9a7613165925,c0976589ece9a6db;00010100100000|4037000000000000,40a5844469263a7c,40976eee0e0ad974,c0969111f1f5268c;00010000100100|4036000000000000,40aee2a6826b1788,4095597375788d0f,c096a68c8a8772f1;00000000100100|4032000000000000,40aee2a6826b1788,408b37d3276ea9e6,c09664166c48ab0d;00010000100000|402e000000000000,40a5844469263a7c,4080e0c31d57aa84,c0958f9e71542abe;00000000100000|4026000000000000,40a5844469263a7c,40465af59d53a4b8,c0954d28531562da;"),
            (6, "10010000100101|404d000000000000,40b78658d760f27f,40af88e880449e2a,c0bb3b8bbfddb0eb;10000000100101|404b000000000000,40b78658d760f27f,40abaa238f64021c,c0b92aee384dfef2;00010010100101|404b000000000000,40b93350f8189b65,40a7c9373c2621c6,c0bb1b6461ecef1d;10010010000001|404a800000000000,40a383fb6dc61f41,40b2ebb89be96778,c0b6944764169888;10010010100100|404a000000000000,40b11e4b61ed34aa,40b652b300d73cb4,c0b2ad4cff28c34c;10010000100001|4049800000000000,40b2d727cabe83f9,40a9145f8cde4243,c0b775d03990dede;00000010100101|4049000000000000,40b93350f8189b65,40a3ea724b4585b8,c0b90ac6da5d3d24;10110000100100|4047800000000000,40aee2a6826b1788,40b1d6011e465e1a,c0ac53fdc37343cc;00010010100001|4047800000000000,40b4841feb762cde,40a154ae48bfc5e0,c0b755a8dba01d10;10010010100000|4046800000000000,40a8de34aa958c47,40b3186e87240ec1,c0b2679178dbf13f;10010000100100|4043800000000000,40aee2a6826b1788,40af88e880449e2a,c0a877177fbb61d6;10000000100100|4041800000000000,40aee2a6826b1788,40abaa238f64021c,c0a855dc709bfde4;00010010100100|4041800000000000,40b11e4b61ed34aa,40a7c9373c2621c6,c0a836c8c3d9de3a;10010000100000|4040000000000000,40a5844469263a7c,40a9145f8cde4243,c0a7eba07321bdbd;00000010100100|403f000000000000,40b11e4b61ed34aa,40a3ea724b4585b8,c0a8158db4ba7a48;10000000100000|403c000000000000,40a5844469263a7c,40a5359a9bfda635,c0a7ca65640259cb;00010010100000|403c000000000000,40a8de34aa958c47,40a154ae48bfc5e0,c0a7ab51b7403a20;00000010100000|4038000000000000,40a8de34aa958c47,409aebd2afbe53a4,c0a78a16a820d62e;00010000100000|402e000000000000,40a5844469263a7c,4080e0c31d57aa84,c0958f9e71542abe;00000000100000|4026000000000000,40a5844469263a7c,40465af59d53a4b8,c0954d28531562da;"),
        ];
        for (seed, want) in expected {
            let p = KnapsackMooProblem::new(
                random_ssd_window(14, 17),
                ResourceModel::cpu_bb_ssd(30, 30, 20_000.0),
            )
            .with_repair_style(RepairStyle::DropUnconditionally);
            let cfg = GaConfig { generations: 200, seed, ..GaConfig::default() };
            let front = MooGa::new(cfg).solve(&p);
            assert_eq!(fingerprint(&front), want, "SSD front diverged at seed {seed}");
        }
    }

    #[test]
    fn scalar_mode_fronts_are_bit_stable() {
        let expected = [
            (11u64, "00100001101101000100|4088f00000000000,40ecafd599e1f184;"),
            (13, "10110000001010000001|4088c00000000000,40ec9d197fc5e406;"),
        ];
        for (seed, want) in expected {
            let p =
                KnapsackMooProblem::new(random_window(20, 4), ResourceModel::cpu_bb(800, 60_000.0));
            let cfg = GaConfig {
                generations: 200,
                seed,
                mode: SolveMode::Scalar(vec![0.5, 0.5]),
                ..GaConfig::default()
            };
            let front = MooGa::new(cfg).solve(&p);
            assert_eq!(fingerprint(&front), want, "scalar front diverged at seed {seed}");
        }
    }

    #[test]
    fn decision_pick_is_bit_stable() {
        let p = KnapsackMooProblem::new(random_window(30, 8), ResourceModel::cpu_bb(800, 60_000.0));
        let front =
            MooGa::new(GaConfig { generations: 300, seed: 21, ..GaConfig::default() }).solve(&p);
        let norm = p.normalizers();
        let pick = choose_preferred(&front, norm.as_slice(), DecisionRule::cpu_bb()).unwrap();
        let sel: Vec<usize> = pick.chromosome.selected().collect();
        assert_eq!(sel, vec![1, 2, 6, 8, 11, 12]);
    }
}

#[test]
fn no_feasible_selection_dominates_the_true_front() {
    let problem = KnapsackMooProblem::new(table1_window(), ResourceModel::cpu_bb(100, 100_000.0));
    let front = exhaustive::solve(&problem).unwrap();
    for mask in 0u64..(1 << 5) {
        let c = bbsched::core::Chromosome::from_mask(mask, 5);
        if problem.is_feasible(&c) {
            let o = problem.evaluate(&c);
            for fp in front.objective_vectors() {
                assert!(!pareto::dominates(o.as_slice(), fp));
            }
        }
    }
}
