//! The constrained methods (§4.3, §5).
//!
//! "Constrained_CPU ... aims to maximize node utilization under the
//! constraints of burst buffers"; Constrained_BB and (§5) Constrained_SSD
//! swap the first-class objective. Since every resource capacity is already
//! a hard constraint of the MOO formulation, the constrained conversion is
//! the scalarization with a one-hot weight vector — solved with the same
//! GA machinery.

use crate::{GaParams, SelectionPolicy};
use bbsched_core::pools::PoolState;
use bbsched_core::problem::JobDemand;
use bbsched_core::{MooGa, SolveMode};

/// Which resource the constrained method treats as its first-class
/// objective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConstrainedResource {
    /// Maximize node utilization (Constrained_CPU).
    Cpu,
    /// Maximize burst-buffer utilization (Constrained_BB).
    BurstBuffer,
    /// Maximize local-SSD utilization (Constrained_SSD, §5 only).
    LocalSsd,
}

impl ConstrainedResource {
    /// The objective index this resource occupies in the paper's two
    /// resource tables (utilization objectives come first, in registration
    /// order: nodes, burst buffer, local SSD).
    fn objective_index(self) -> usize {
        match self {
            ConstrainedResource::Cpu => 0,
            ConstrainedResource::BurstBuffer => 1,
            ConstrainedResource::LocalSsd => 2,
        }
    }
}

/// Single-objective optimization of one resource, other resources acting
/// purely as constraints.
#[derive(Clone, Debug)]
pub struct ConstrainedPolicy {
    /// Index of the first-class objective (= resource registration index).
    objective: usize,
    name: String,
    ga: GaParams,
}

impl ConstrainedPolicy {
    /// Creates the policy optimizing the objective at resource index `r`
    /// (registration order in the system's resource table: 0 = nodes).
    /// Works for any registered resource — the paper's three variants are
    /// `for_resource(0..=2)` with their historical names.
    pub fn for_resource(r: usize, ga: GaParams) -> Self {
        let name = match r {
            0 => "Constrained_CPU".to_string(),
            1 => "Constrained_BB".to_string(),
            2 => "Constrained_SSD".to_string(),
            _ => format!("Constrained_R{r}"),
        };
        Self { objective: r, name, ga }
    }

    /// Creates the policy for one of the paper's named resources.
    pub fn new(resource: ConstrainedResource, ga: GaParams) -> Self {
        Self::for_resource(resource.objective_index(), ga)
    }

    /// Overrides the display name (useful for custom resources).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Index of the optimized objective.
    pub fn objective_index(&self) -> usize {
        self.objective
    }

    /// The optimized resource, when it is one of the paper's three.
    pub fn resource(&self) -> Option<ConstrainedResource> {
        match self.objective {
            0 => Some(ConstrainedResource::Cpu),
            1 => Some(ConstrainedResource::BurstBuffer),
            2 => Some(ConstrainedResource::LocalSsd),
            _ => None,
        }
    }
}

impl SelectionPolicy for ConstrainedPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn select(&mut self, window: &[JobDemand], avail: &PoolState, invocation: u64) -> Vec<usize> {
        if window.is_empty() {
            return Vec::new();
        }
        let problem = crate::build_problem(window, avail);
        let n_obj = problem.normalizers().len();
        assert!(
            self.objective < n_obj,
            "{} requires a system registering resource {} ({} objectives available)",
            self.name,
            self.objective,
            n_obj
        );
        let mut weights = vec![0.0; n_obj];
        weights[self.objective] = 1.0;
        let cfg = self.ga.config(SolveMode::Scalar(weights), invocation);
        MooGa::new(cfg)
            .solve(&problem)
            .into_solutions()
            .into_iter()
            .next()
            .map(|s| s.chromosome.selected().collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection_is_feasible;

    fn table1_window() -> Vec<JobDemand> {
        vec![
            JobDemand::cpu_bb(80, 20_000.0),
            JobDemand::cpu_bb(10, 85_000.0),
            JobDemand::cpu_bb(40, 5_000.0),
            JobDemand::cpu_bb(10, 0.0),
            JobDemand::cpu_bb(20, 0.0),
        ]
    }

    fn fast_ga() -> GaParams {
        GaParams { generations: 300, base_seed: 17, ..GaParams::default() }
    }

    /// Table 1(b): the constrained method "may optimize node utilization
    /// under the constraint of the burst buffers ... select J1 and J5",
    /// achieving 100 % node utilization.
    #[test]
    fn table1_constrained_cpu_reaches_full_nodes() {
        let mut p = ConstrainedPolicy::new(ConstrainedResource::Cpu, fast_ga());
        let avail = PoolState::cpu_bb(100, 100_000.0);
        let window = table1_window();
        let sel = p.select(&window, &avail, 0);
        let nodes: u32 = sel.iter().map(|&i| window[i].nodes).sum();
        assert_eq!(nodes, 100, "selection {sel:?}");
    }

    #[test]
    fn constrained_bb_maximizes_burst_buffer() {
        let mut p = ConstrainedPolicy::new(ConstrainedResource::BurstBuffer, fast_ga());
        let avail = PoolState::cpu_bb(100, 100_000.0);
        let window = table1_window();
        let sel = p.select(&window, &avail, 0);
        let bb: f64 = sel.iter().map(|&i| window[i].bb_gb).sum();
        assert_eq!(bb, 90_000.0, "selection {sel:?}");
        assert!(selection_is_feasible(&window, &avail, &sel));
    }

    #[test]
    #[should_panic]
    fn constrained_ssd_requires_ssd_system() {
        let mut p = ConstrainedPolicy::new(ConstrainedResource::LocalSsd, fast_ga());
        let avail = PoolState::cpu_bb(100, 100.0);
        let _ = p.select(&table1_window(), &avail, 0);
    }

    #[test]
    fn constrained_ssd_on_ssd_system() {
        let mut p = ConstrainedPolicy::new(ConstrainedResource::LocalSsd, fast_ga());
        let avail = PoolState::with_ssd(50, 50, 100_000.0);
        let window =
            vec![JobDemand::cpu_bb_ssd(10, 0.0, 200.0), JobDemand::cpu_bb_ssd(10, 0.0, 32.0)];
        let sel = p.select(&window, &avail, 0);
        // Everything fits; SSD maximization selects both.
        assert_eq!(sel, vec![0, 1]);
    }

    #[test]
    fn names_match_paper() {
        let ga = GaParams::default();
        assert_eq!(ConstrainedPolicy::new(ConstrainedResource::Cpu, ga).name(), "Constrained_CPU");
        assert_eq!(
            ConstrainedPolicy::new(ConstrainedResource::BurstBuffer, ga).name(),
            "Constrained_BB"
        );
        assert_eq!(
            ConstrainedPolicy::new(ConstrainedResource::LocalSsd, ga).name(),
            "Constrained_SSD"
        );
    }
}
