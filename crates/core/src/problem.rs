//! MOO problem formulations.
//!
//! §3.2.1 of the paper formulates window-based multi-resource scheduling as
//! a bi-objective knapsack: maximize `f1 = Σ n_i·x_i` (node utilization) and
//! `f2 = Σ b_i·x_i` (burst-buffer utilization) subject to the available
//! node and burst-buffer capacities. §5 extends it with two local-SSD
//! objectives (`f3` utilization, `f4` minus wasted capacity) on a cluster
//! whose nodes carry heterogeneous 128 GB / 256 GB SSDs.
//!
//! Both instantiations are now presets of one generic formulation,
//! [`KnapsackMooProblem`], which works over any [`ResourceModel`] of up to
//! [`crate::resource::MAX_RESOURCES`] pooled or per-node
//! resources — the paper's stated extensibility goal ("BBSched can be
//! easily extended to schedule other schedulable resources") realized as
//! data instead of code.

use crate::chromosome::Chromosome;
use crate::resource::{ResourceModel, ResourceVector, MAX_EXTRA, MAX_FLAVORS, MAX_RESOURCES};
use crate::{Objectives, MAX_OBJECTIVES};
use serde::{Deserialize, Serialize};

/// Per-job resource demand as seen by the optimizer: one entry per window
/// slot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct JobDemand {
    /// Requested compute nodes (`n_i`).
    pub nodes: u32,
    /// Requested shared burst buffer in GB (`b_i`).
    pub bb_gb: f64,
    /// Requested local SSD per node in GB (`s_i`); 0 when the job (or the
    /// experiment) does not use local SSDs.
    pub ssd_gb_per_node: f64,
    /// Demands for resources registered beyond the paper's three (see
    /// [`DemandSlot::Extra`](crate::resource::DemandSlot::Extra)); unused
    /// slots stay 0.
    #[serde(default)]
    pub extra: [f64; MAX_EXTRA],
}

impl JobDemand {
    /// A demand over nodes and shared burst buffer only (§3.2.1 problems).
    pub fn cpu_bb(nodes: u32, bb_gb: f64) -> Self {
        Self { nodes, bb_gb, ..Self::default() }
    }

    /// A demand over nodes, shared burst buffer, and local SSD (§5).
    pub fn cpu_bb_ssd(nodes: u32, bb_gb: f64, ssd_gb_per_node: f64) -> Self {
        Self { nodes, bb_gb, ssd_gb_per_node, ..Self::default() }
    }

    /// Sets the demand for an extra registered resource (builder style).
    ///
    /// # Panics
    /// Panics if `slot >= MAX_EXTRA`.
    pub fn with_extra(mut self, slot: usize, amount: f64) -> Self {
        self.extra[slot] = amount;
        self
    }
}

/// Resources available at one scheduling invocation (i.e., `N - N_used`,
/// `B - B_used`, and the free node counts per SSD flavour).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Available {
    /// Free compute nodes.
    pub nodes: u32,
    /// Free shared burst buffer in GB.
    pub bb_gb: f64,
    /// Free nodes equipped with [`SSD_SMALL_GB`] local SSDs.
    pub nodes_128: u32,
    /// Free nodes equipped with [`SSD_LARGE_GB`] local SSDs.
    pub nodes_256: u32,
}

/// Capacity of the smaller local-SSD flavour (GB), per §5.
pub const SSD_SMALL_GB: f64 = 128.0;
/// Capacity of the larger local-SSD flavour (GB), per §5.
pub const SSD_LARGE_GB: f64 = 256.0;

impl Available {
    /// Availability for a CPU + burst-buffer system with no local SSDs.
    pub fn cpu_bb(nodes: u32, bb_gb: f64) -> Self {
        Self { nodes, bb_gb, nodes_128: 0, nodes_256: 0 }
    }

    /// Availability with heterogeneous local SSD pools. `nodes` must equal
    /// `nodes_128 + nodes_256` for SSD-aware problems.
    pub fn with_ssd(nodes_128: u32, nodes_256: u32, bb_gb: f64) -> Self {
        Self { nodes: nodes_128 + nodes_256, bb_gb, nodes_128, nodes_256 }
    }
}

/// Floating-point slack for burst-buffer feasibility: requests are sums of
/// values ≥ 1 GB, so a relative epsilon avoids rejecting selections that are
/// feasible up to rounding.
const BB_EPS: f64 = 1e-9;

/// How [`KnapsackMooProblem::repair`] decides which set genes to drop while
/// walking the cyclic order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RepairStyle {
    /// Drop a gene only if it has positive demand on a currently violated
    /// constraint (the §3.2.1 implementation's rule, generalized to N
    /// resources). Never removes jobs that cannot help, so it preserves
    /// more of the candidate selection.
    #[default]
    DropIfRelieves,
    /// Drop every set gene encountered until the selection is feasible —
    /// the rule the original §5 SSD implementation used. Kept so the
    /// historical CPU+BB+SSD solver stream is reproducible bit-for-bit.
    DropUnconditionally,
}

/// Per-item hot-path data, precomputed once at problem construction so the
/// GA inner loop touches no `ResourceModel` indirection.
#[derive(Clone, Copy, Debug)]
struct Item {
    /// Requested nodes (exact integer arithmetic for resource 0).
    nodes: u32,
    /// Flavour class of the per-node resource (0 when none is registered).
    class: u8,
    /// Total demand per resource: pooled amount, or `per_node × nodes` for
    /// the per-node resource.
    totals: ResourceVector,
}

/// Aggregated demand of a selection.
#[derive(Clone, Copy, Debug)]
struct Aggregate {
    nodes: u64,
    /// Per-resource totals (`sums[0]` mirrors `nodes` and is unused).
    sums: [f64; MAX_RESOURCES],
    /// Selected node-slots per flavour class of the per-node resource.
    class_nodes: [u64; MAX_FLAVORS],
}

impl Aggregate {
    fn zero() -> Self {
        Self { nodes: 0, sums: [0.0; MAX_RESOURCES], class_nodes: [0; MAX_FLAVORS] }
    }
}

/// The generic window knapsack over an arbitrary [`ResourceModel`].
///
/// Objectives, in order: the utilization of each registered resource
/// (`Σ demand_i·x_i`; per-node resources use `Σ s_i·n_i·x_i`), followed by
/// **minus** wasted capacity for every resource with a waste objective.
/// With [`ResourceModel::cpu_bb`] this is exactly the §3.2.1 bi-objective
/// problem; with [`ResourceModel::cpu_bb_ssd`] it is exactly the §5
/// four-objective problem, including the greedy smallest-flavour-first
/// node assignment ("jobs requesting no more than 128 GB local SSD per
/// node \[prefer 128 GB nodes\] in order to mitigate wastage").
#[derive(Clone, Debug)]
pub struct KnapsackMooProblem {
    window: Vec<JobDemand>,
    items: Vec<Item>,
    model: ResourceModel,
    avail: ResourceVector,
    avail_nodes: u64,
    /// `(resource index, waste tracked)` of the per-node resource, if any;
    /// its flavour table is cached in `flavors`.
    per_node: Option<(usize, bool)>,
    flavors: crate::resource::FlavorSet,
    n_res: usize,
    n_obj: usize,
    norm: Objectives,
    repair_style: RepairStyle,
}

impl KnapsackMooProblem {
    /// Builds the problem for a window of jobs against a resource model
    /// whose `available` amounts describe the free capacity right now.
    ///
    /// # Panics
    /// Panics if the model registers a per-node resource whose flavour node
    /// counts do not sum to the available node count (the pools partition
    /// the machine).
    pub fn new(window: Vec<JobDemand>, model: ResourceModel) -> Self {
        let n_res = model.len();
        let per_node_full = model.per_node_resource();
        if let Some((_, flavors, _)) = per_node_full {
            assert_eq!(
                u64::from(model.avail_nodes()),
                u64::from(flavors.total_count()),
                "per-node flavour counts must sum to the available node count"
            );
        }
        let flavors = per_node_full
            .map(|(_, f, _)| *f)
            .unwrap_or_else(|| crate::resource::FlavorSet::homogeneous(0.0, 0));
        let per_node = per_node_full.map(|(r, _, w)| (r, w));
        let items = window
            .iter()
            .map(|d| {
                let mut totals = ResourceVector::zeros(n_res);
                let mut class = 0u8;
                for r in 0..n_res {
                    let raw = model.demand_of(d, r);
                    let total = match per_node {
                        Some((pr, _)) if pr == r => {
                            class = flavors.class_of(raw) as u8;
                            raw * f64::from(d.nodes)
                        }
                        _ => raw,
                    };
                    totals.set(r, total);
                }
                Item { nodes: d.nodes, class, totals }
            })
            .collect();
        let avail = model.available();
        let avail_nodes = u64::from(model.avail_nodes());
        let n_obj = model.num_objectives();
        let norm = model.default_normalizers();
        Self {
            window,
            items,
            model,
            avail,
            avail_nodes,
            per_node,
            flavors,
            n_res,
            n_obj,
            norm,
            repair_style: RepairStyle::default(),
        }
    }

    /// Overrides the normalization baselines, one per objective (e.g. total
    /// system capacity instead of currently-free capacity); values are
    /// floored at 1.
    ///
    /// # Panics
    /// Panics if `norm.len()` differs from the number of objectives.
    pub fn with_normalizers(mut self, norm: &[f64]) -> Self {
        assert_eq!(norm.len(), self.n_obj, "one normalizer per objective");
        let floored: Vec<f64> = norm.iter().map(|v| v.max(1.0)).collect();
        self.norm = Objectives::from_slice(&floored);
        self
    }

    /// Selects the repair rule (builder style); see [`RepairStyle`].
    pub fn with_repair_style(mut self, style: RepairStyle) -> Self {
        self.repair_style = style;
        self
    }

    /// The job demands in the window.
    pub fn window(&self) -> &[JobDemand] {
        &self.window
    }

    /// The resource model this problem was built against.
    pub fn model(&self) -> &ResourceModel {
        &self.model
    }

    /// The configured repair rule.
    pub fn repair_style(&self) -> RepairStyle {
        self.repair_style
    }

    /// Window size `w` (number of genes).
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// `true` when the window holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Number of objectives (2 for §3.2.1, 4 for §5).
    pub fn num_objectives(&self) -> usize {
        self.n_obj
    }

    /// Computes the objective vector of a (feasible) selection. A pure
    /// function of the chromosome, which the GA's memo relies on.
    pub fn evaluate(&self, x: &Chromosome) -> Objectives {
        self.objectives_from_agg(&self.aggregate(x))
    }

    /// Whether the selection satisfies every capacity constraint.
    pub fn is_feasible(&self, x: &Chromosome) -> bool {
        self.feasible_agg(&self.aggregate(x))
    }

    /// Makes `x` feasible by deselecting jobs, never by selecting new ones.
    ///
    /// BBSched's repair drops set genes in a pseudo-random cyclic order
    /// derived from the chromosome itself (pure, parallel-safe, and free of
    /// positional bias — a rear-first rule was found to systematically
    /// starve rear-window genes and collapse GA diversity; see DESIGN.md
    /// §6). The paper leaves constraint handling unspecified; which genes
    /// are dropped is set by the [`RepairStyle`].
    pub fn repair(&self, x: &mut Chromosome) {
        let _ = self.repair_impl(x);
    }

    /// Per-objective normalization factors that convert raw objective values
    /// (node counts, GB) into system-relative utilization fractions. Used by
    /// the decision maker and by scalarizing policies so that weights are
    /// comparable across resources.
    pub fn normalizers(&self) -> Objectives {
        self.norm
    }

    /// Repairs `x` and returns its objective vector — exactly
    /// `repair(x); evaluate(x)`, bit for bit.
    ///
    /// Repair aggregates the selection's demand anyway; when it dropped
    /// nothing (the common case once the GA population is mostly feasible)
    /// that aggregate is reused for evaluation, saving one full window
    /// rescan per chromosome.
    pub fn repair_evaluate(&self, x: &mut Chromosome) -> Objectives {
        let (agg, changed) = self.repair_impl(x);
        if changed {
            // Drops updated `agg` by deltas; objectives must come from the
            // same ascending full rescan `evaluate` performs so they are
            // bit-identical to the unfused path.
            self.evaluate(x)
        } else {
            // `agg` *is* the full rescan of the untouched selection.
            self.objectives_from_agg(&agg)
        }
    }

    fn aggregate(&self, x: &Chromosome) -> Aggregate {
        let mut agg = Aggregate::zero();
        let track_classes = self.per_node.is_some();
        for i in x.selected() {
            let it = &self.items[i];
            agg.nodes += u64::from(it.nodes);
            for r in 1..self.n_res {
                agg.sums[r] += it.totals.get(r);
            }
            if track_classes {
                agg.class_nodes[usize::from(it.class)] += u64::from(it.nodes);
            }
        }
        agg
    }

    /// Total capacity the greedy node→flavour assignment commits for the
    /// selected node-slots: class-`k` slots fill flavours `k, k+1, …`
    /// smallest-first; slots that fit nowhere are billed at the largest
    /// flavour (matching the §5 closed form for two tiers, where flexible
    /// overflow is always charged 256 GB).
    fn assigned_capacity(&self, class_nodes: &[u64; MAX_FLAVORS]) -> f64 {
        let nf = self.flavors.len();
        let mut free = [0u64; MAX_FLAVORS];
        for (j, slot) in free.iter_mut().enumerate().take(nf) {
            *slot = u64::from(self.flavors.get(j).count);
        }
        let largest = self.flavors.get(nf - 1).capacity;
        let mut assigned = 0.0;
        for (k, &slots) in class_nodes.iter().enumerate().take(nf) {
            let mut need = slots;
            for (j, slot) in free.iter_mut().enumerate().take(nf).skip(k) {
                if need == 0 {
                    break;
                }
                let take = need.min(*slot);
                *slot -= take;
                need -= take;
                assigned += take as f64 * self.flavors.get(j).capacity;
            }
            if need > 0 {
                assigned += need as f64 * largest;
            }
        }
        assigned
    }

    /// The per-node resource's flavour constraint: for every class `k`, the
    /// selected node-slots of class ≥ `k` must fit on the nodes of flavour
    /// ≥ `k` (for two tiers this is exactly `need_256 ≤ nodes_256`).
    fn flavor_feasible(&self, class_nodes: &[u64; MAX_FLAVORS]) -> bool {
        if self.per_node.is_none() {
            return true;
        }
        let nf = self.flavors.len();
        let mut cum_need = 0u64;
        let mut cum_cap = 0u64;
        for k in (0..nf).rev() {
            cum_need += class_nodes[k];
            cum_cap += u64::from(self.flavors.get(k).count);
            if cum_need > cum_cap {
                return false;
            }
        }
        true
    }

    /// Feasibility with relative + absolute slack on pooled resources (the
    /// public contract, matching both historical problems).
    fn feasible_agg(&self, agg: &Aggregate) -> bool {
        if agg.nodes > self.avail_nodes {
            return false;
        }
        for r in 1..self.n_res {
            if self.is_per_node(r) {
                continue; // constrained via the flavour table, not a pool sum
            }
            if agg.sums[r] > self.avail.get(r) * (1.0 + BB_EPS) + BB_EPS {
                return false;
            }
        }
        self.flavor_feasible(&agg.class_nodes)
    }

    /// Feasibility with absolute slack only, used *inside* repair (the
    /// historical §3.2.1 repair loop tested `b ≤ avail + ε`).
    fn repair_feasible(&self, agg: &Aggregate) -> bool {
        if agg.nodes > self.avail_nodes {
            return false;
        }
        for r in 1..self.n_res {
            if self.is_per_node(r) {
                continue;
            }
            if agg.sums[r] > self.avail.get(r) + BB_EPS {
                return false;
            }
        }
        self.flavor_feasible(&agg.class_nodes)
    }

    #[inline]
    fn is_per_node(&self, r: usize) -> bool {
        matches!(self.per_node, Some((pr, _)) if pr == r)
    }

    /// Removes one dropped item's demand from a running aggregate — the
    /// O(R) delta behind both repair loops.
    #[inline]
    fn remove_item(&self, agg: &mut Aggregate, it: &Item) {
        agg.nodes -= u64::from(it.nodes);
        for r in 1..self.n_res {
            agg.sums[r] -= it.totals.get(r);
        }
        if self.per_node.is_some() {
            agg.class_nodes[usize::from(it.class)] -= u64::from(it.nodes);
        }
    }

    /// Objective vector of a selection whose aggregate demand is `agg`.
    fn objectives_from_agg(&self, agg: &Aggregate) -> Objectives {
        let mut vals = [0.0; MAX_OBJECTIVES];
        vals[0] = agg.nodes as f64;
        vals[1..self.n_res].copy_from_slice(&agg.sums[1..self.n_res]);
        let mut n = self.n_res;
        if let Some((r, true)) = self.per_node {
            let waste = (self.assigned_capacity(&agg.class_nodes) - agg.sums[r]).max(0.0);
            vals[n] = -waste;
            n += 1;
        }
        debug_assert_eq!(n, self.n_obj);
        Objectives::from_slice(&vals[..n])
    }

    /// Shared repair engine: drops genes per the configured style, keeping
    /// the aggregate current by O(R) deltas, and reports the final aggregate
    /// plus whether any gene was actually dropped.
    fn repair_impl(&self, x: &mut Chromosome) -> (Aggregate, bool) {
        let mut agg = self.aggregate(x);
        let mut changed = false;
        match self.repair_style {
            RepairStyle::DropUnconditionally => {
                // One full aggregate up front, then O(R) deltas per drop —
                // the historical per-drop `is_feasible` rescan made this
                // loop O(w²).
                if self.feasible_agg(&agg) {
                    return (agg, false);
                }
                let w = self.window.len();
                let start = (x.content_hash() % w as u64) as usize;
                for k in 0..w {
                    let i = (start + k) % w;
                    if x.get(i) {
                        x.set(i, false);
                        self.remove_item(&mut agg, &self.items[i]);
                        changed = true;
                        if self.feasible_agg(&agg) {
                            break;
                        }
                    }
                }
                debug_assert!(self.is_feasible(x));
            }
            RepairStyle::DropIfRelieves => {
                if self.repair_feasible(&agg) {
                    return (agg, false);
                }
                let w = self.window.len();
                let start = (x.content_hash() % w as u64) as usize;
                for k in 0..w {
                    if self.repair_feasible(&agg) {
                        break;
                    }
                    let i = (start + k) % w;
                    if x.get(i) {
                        let it = &self.items[i];
                        if self.relieves(&agg, it) {
                            x.set(i, false);
                            self.remove_item(&mut agg, it);
                            changed = true;
                        }
                    }
                }
                debug_assert!(self.is_feasible(x));
            }
        }
        (agg, changed)
    }

    /// Whether dropping `item` would shrink a currently violated constraint.
    fn relieves(&self, agg: &Aggregate, item: &Item) -> bool {
        if agg.nodes > self.avail_nodes && item.nodes > 0 {
            return true;
        }
        for r in 1..self.n_res {
            if self.is_per_node(r) {
                continue;
            }
            if agg.sums[r] > self.avail.get(r) + BB_EPS && item.totals.get(r) > 0.0 {
                return true;
            }
        }
        if self.per_node.is_some() && item.nodes > 0 {
            // A violated suffix [k..] is relieved by any selected slot of
            // class >= k.
            let nf = self.flavors.len();
            let mut cum_need = 0u64;
            let mut cum_cap = 0u64;
            for k in (0..nf).rev() {
                cum_need += agg.class_nodes[k];
                cum_cap += u64::from(self.flavors.get(k).count);
                if cum_need > cum_cap && usize::from(item.class) >= k {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::{DemandSlot, ResourceSpec};

    fn table1_window() -> Vec<JobDemand> {
        vec![
            JobDemand::cpu_bb(80, 20_000.0),
            JobDemand::cpu_bb(10, 85_000.0),
            JobDemand::cpu_bb(40, 5_000.0),
            JobDemand::cpu_bb(10, 0.0),
            JobDemand::cpu_bb(20, 0.0),
        ]
    }

    fn cpu_bb_table1() -> KnapsackMooProblem {
        KnapsackMooProblem::new(table1_window(), ResourceModel::cpu_bb(100, 100_000.0))
    }

    #[test]
    fn cpu_bb_evaluates_table1_solutions() {
        let p = cpu_bb_table1();
        // Solution 2 of Table 1(b): {J1, J5} -> 100 nodes, 20 TB.
        let s2 = Chromosome::from_bits(&[true, false, false, false, true]);
        assert!(p.is_feasible(&s2));
        let o = p.evaluate(&s2);
        assert_eq!(o.as_slice(), &[100.0, 20_000.0]);
        // Solution 3: {J2..J5} -> 80 nodes, 90 TB.
        let s3 = Chromosome::from_bits(&[false, true, true, true, true]);
        assert!(p.is_feasible(&s3));
        let o = p.evaluate(&s3);
        assert_eq!(o.as_slice(), &[80.0, 90_000.0]);
    }

    #[test]
    fn cpu_bb_detects_infeasible() {
        let p = cpu_bb_table1();
        // All five jobs: 160 nodes > 100.
        let all = Chromosome::from_bits(&[true; 5]);
        assert!(!p.is_feasible(&all));
        // J1 + J2: 105 TB > 100 TB.
        let bb_over = Chromosome::from_bits(&[true, true, false, false, false]);
        assert!(!p.is_feasible(&bb_over));
    }

    #[test]
    fn cpu_bb_repair_only_deselects() {
        let p = cpu_bb_table1();
        let before = Chromosome::from_bits(&[true; 5]);
        let mut after = before.clone();
        p.repair(&mut after);
        assert!(p.is_feasible(&after));
        // Repair never selects a job that was not already selected.
        for i in 0..5 {
            assert!(!after.get(i) || before.get(i));
        }
        // And it does not over-prune: at least one job must survive, since
        // single-job selections are feasible here.
        assert!(after.count_ones() >= 1);
    }

    #[test]
    fn cpu_bb_repair_keeps_feasible_untouched() {
        let p = cpu_bb_table1();
        let mut s = Chromosome::from_bits(&[true, false, false, true, false]);
        let before = s.clone();
        p.repair(&mut s);
        assert_eq!(s, before);
    }

    #[test]
    fn normalizers_default_to_available() {
        let p = cpu_bb_table1();
        assert_eq!(p.normalizers().as_slice(), &[100.0, 100_000.0]);
        let p = p.with_normalizers(&[200.0, 400_000.0]);
        assert_eq!(p.normalizers().as_slice(), &[200.0, 400_000.0]);
    }

    fn ssd_window() -> Vec<JobDemand> {
        vec![
            JobDemand::cpu_bb_ssd(4, 100.0, 200.0), // must use 256-GB nodes
            JobDemand::cpu_bb_ssd(2, 0.0, 64.0),    // prefers 128-GB nodes
            JobDemand::cpu_bb_ssd(2, 50.0, 0.0),    // no SSD demand
        ]
    }

    /// The §5 preset with the historical repair rule (drop whatever the
    /// cyclic order reaches first).
    fn ssd_problem(nodes_128: u32, nodes_256: u32, bb_gb: f64) -> KnapsackMooProblem {
        KnapsackMooProblem::new(
            ssd_window(),
            ResourceModel::cpu_bb_ssd(nodes_128, nodes_256, bb_gb),
        )
        .with_repair_style(RepairStyle::DropUnconditionally)
    }

    #[test]
    fn ssd_waste_uses_greedy_assignment() {
        // 4 x 128-GB nodes, 4 x 256-GB nodes.
        let p = ssd_problem(4, 4, 1_000.0);
        let all = Chromosome::from_bits(&[true, true, true]);
        assert!(p.is_feasible(&all));
        let o = p.evaluate(&all);
        // f1 = 8 nodes, f2 = 150 GB bb, f3 = 4*200 + 2*64 = 928 GB.
        assert_eq!(o[0], 8.0);
        assert_eq!(o[1], 150.0);
        assert_eq!(o[2], 928.0);
        // Big job: 4 nodes on 256 -> waste 4*(256-200)=224.
        // Flexible 4 node-slots all fit on the 4 free 128s:
        // waste 2*(128-64) + 2*(128-0) = 128 + 256 = 384. Total 608.
        assert_eq!(o[3], -608.0);
    }

    #[test]
    fn ssd_infeasible_when_256_pool_exhausted() {
        let p = ssd_problem(6, 2, 1_000.0);
        // The 200-GB/node job needs 4 nodes from a 2-node 256 pool.
        let big = Chromosome::from_bits(&[true, false, false]);
        assert!(!p.is_feasible(&big));
        let mut r = big;
        p.repair(&mut r);
        assert!(p.is_feasible(&r));
        assert_eq!(r.count_ones(), 0);
    }

    #[test]
    fn ssd_overflow_to_256_increases_waste() {
        // Only 1 free 128-GB node: one flexible slot overflows to 256.
        let p = ssd_problem(1, 7, 1_000.0);
        let small = Chromosome::from_bits(&[false, true, false]);
        let o = p.evaluate(&small);
        // One slot on 128 (waste 64), one on 256 (waste 192).
        assert_eq!(o[3], -(64.0 + 192.0));
    }

    #[test]
    fn ssd_pools_must_sum() {
        // The node pool is derived from the two SSD flavours, so it always
        // equals their sum and the per-node table covers every node.
        let p = ssd_problem(4, 3, 1_000.0);
        assert_eq!(p.model().avail_nodes(), 7);
        assert_eq!(p.num_objectives(), 4);
        assert_eq!(p.normalizers()[0], 7.0);
    }

    // ---- generic-path tests -------------------------------------------

    #[test]
    fn gated_repair_preserves_innocent_genes_on_ssd_problem() {
        // BB is over capacity; job 1 (no BB demand) cannot relieve it. The
        // gated rule must keep job 1 while the historical rule drops
        // whatever the cyclic order reaches first.
        let window = vec![
            JobDemand::cpu_bb_ssd(2, 900.0, 0.0),
            JobDemand::cpu_bb_ssd(2, 0.0, 64.0),
            JobDemand::cpu_bb_ssd(2, 800.0, 0.0),
        ];
        let p = KnapsackMooProblem::new(window, ResourceModel::cpu_bb_ssd(4, 4, 1_000.0));
        assert_eq!(p.repair_style(), RepairStyle::DropIfRelieves);
        let mut c = Chromosome::from_bits(&[true, true, true]);
        p.repair(&mut c);
        assert!(p.is_feasible(&c));
        assert!(c.get(1), "gated repair must not drop a gene that relieves nothing");
    }

    #[test]
    fn three_pooled_resources_round_trip() {
        // Nodes + BB + a pooled GPU bank: 3 objectives, no per-node table.
        let model = ResourceModel::new(vec![
            ResourceSpec::pooled("nodes", 10.0, DemandSlot::Nodes),
            ResourceSpec::pooled("bb_gb", 100.0, DemandSlot::BbGb),
            ResourceSpec::pooled("gpus", 8.0, DemandSlot::Extra(0)),
        ])
        .unwrap();
        let window = vec![
            JobDemand::cpu_bb(4, 60.0).with_extra(0, 6.0),
            JobDemand::cpu_bb(4, 30.0).with_extra(0, 4.0),
            JobDemand::cpu_bb(2, 20.0),
        ];
        let p = KnapsackMooProblem::new(window, model);
        assert_eq!(p.num_objectives(), 3);
        let all = Chromosome::from_bits(&[true, true, true]);
        // 10 GPUs > 8 available: infeasible, and repair must fix exactly that.
        assert!(!p.is_feasible(&all));
        let mut r = all;
        p.repair(&mut r);
        assert!(p.is_feasible(&r));
        let o = p.evaluate(&r);
        assert!(o[2] <= 8.0);
        // A selection inside every pool is feasible and additive.
        let two = Chromosome::from_bits(&[true, false, true]);
        assert!(p.is_feasible(&two));
        assert_eq!(p.evaluate(&two).as_slice(), &[6.0, 80.0, 6.0]);
        assert_eq!(p.normalizers().as_slice(), &[10.0, 100.0, 8.0]);
    }

    #[test]
    fn per_node_gpu_resource_tracks_waste() {
        // Homogeneous 4-GPU nodes, waste objective on: a 1-GPU-per-node job
        // wastes 3 GPUs per node it occupies.
        let model = ResourceModel::new(vec![
            ResourceSpec::pooled("nodes", 4.0, DemandSlot::Nodes),
            ResourceSpec::pooled("bb_gb", 100.0, DemandSlot::BbGb),
            ResourceSpec::per_node(
                "gpus",
                crate::resource::FlavorSet::homogeneous(4.0, 4),
                DemandSlot::Extra(0),
            )
            .with_waste_objective(),
        ])
        .unwrap();
        let window = vec![JobDemand::cpu_bb(2, 0.0).with_extra(0, 1.0)];
        let p = KnapsackMooProblem::new(window, model);
        assert_eq!(p.num_objectives(), 4);
        let one = Chromosome::from_bits(&[true]);
        let o = p.evaluate(&one);
        assert_eq!(o[0], 2.0);
        assert_eq!(o[2], 2.0); // 1 GPU/node x 2 nodes used
        assert_eq!(o[3], -6.0); // 2 nodes x (4 - 1) GPUs wasted
    }

    #[test]
    fn extra_demand_slots_default_to_zero_and_serde_round_trip() {
        let d = JobDemand::cpu_bb(4, 10.0);
        assert_eq!(d.extra, [0.0; MAX_EXTRA]);
        let d = d.with_extra(1, 3.5);
        let s = serde_json::to_string(&d).unwrap();
        let back: JobDemand = serde_json::from_str(&s).unwrap();
        assert_eq!(d, back);
    }
}
