//! Resource pool bookkeeping shared by policies and the simulator.
//!
//! Tracks the free amount of every registered resource — compute nodes,
//! shared burst buffer, and the per-node flavour pools of §5 (or anything
//! else a [`ResourceModel`] registers) — and performs the paper's greedy
//! node→flavour assignment: jobs classify to the smallest sufficient
//! flavour and fill flavours smallest-first, "in order to mitigate wastage
//! in local SSD".
//!
//! [`PoolState`] is `Copy` (fixed-capacity vectors, no heap) so the
//! simulator can snapshot it freely into availability profiles and shadow
//! states.

use crate::problem::{Available, JobDemand};
use crate::resource::{
    DemandSlot, FlavorSet, ResourceModel, ResourceSpec, ResourceVector, MAX_FLAVORS, MAX_RESOURCES,
};
use serde::{Deserialize, Serialize};

/// Absolute slack granted to pooled-resource fit checks
/// ([`PoolState::free_fits`]): a demand fits when it exceeds the free
/// amount by at most this much, absorbing accumulated float error from
/// repeated alloc/free round trips. Public so alternative fit evaluators
/// (e.g. the scheduler's vectorized profile scan) can reproduce the
/// comparison bit-for-bit.
pub const FIT_EPS: f64 = 1e-9;

/// Node counts a started job drew from each flavour of the per-node
/// resource (index = flavour, ascending capacity). On systems without a
/// per-node resource all nodes are recorded under the last flavour slot,
/// mirroring the historical "everything counts as a 256 GB node" encoding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeAssignment {
    /// Nodes taken per flavour.
    pub per_flavor: [u32; MAX_FLAVORS],
}

impl NodeAssignment {
    /// A two-tier assignment (the paper's 128 GB / 256 GB split).
    pub fn two_tier(n128: u32, n256: u32) -> Self {
        let mut per_flavor = [0u32; MAX_FLAVORS];
        per_flavor[0] = n128;
        per_flavor[1] = n256;
        Self { per_flavor }
    }

    /// Nodes taken from the 128 GB pool (flavour 0) on two-tier systems.
    pub fn n128(&self) -> u32 {
        self.per_flavor[0]
    }

    /// Nodes taken from the 256 GB pool (flavour 1) on two-tier systems.
    pub fn n256(&self) -> u32 {
        self.per_flavor[1]
    }

    /// Total nodes assigned.
    pub fn total(&self) -> u32 {
        self.per_flavor.iter().sum()
    }

    /// Wasted capacity (GB) of the per-node resource for a job requesting
    /// `per_node_demand` on each node, given the flavour table the
    /// assignment was made against.
    pub fn wasted_capacity(&self, per_node_demand: f64, flavors: &FlavorSet) -> f64 {
        let cap: f64 = (0..flavors.len())
            .map(|k| f64::from(self.per_flavor[k]) * flavors.get(k).capacity)
            .sum();
        (cap - per_node_demand * f64::from(self.total())).max(0.0)
    }

    /// Wasted local SSD (GB) for a job requesting `ssd_gb_per_node`, on the
    /// paper's two-tier 128/256 GB flavour table.
    pub fn wasted_ssd_gb(&self, ssd_gb_per_node: f64) -> f64 {
        use crate::problem::{SSD_LARGE_GB, SSD_SMALL_GB};
        let cap = f64::from(self.n128()) * SSD_SMALL_GB + f64::from(self.n256()) * SSD_LARGE_GB;
        (cap - ssd_gb_per_node * f64::from(self.total())).max(0.0)
    }
}

/// The `Copy` numeric topology of a pool: which demand slot feeds each
/// resource and where the per-node flavour table sits. Names and waste
/// flags live in [`ResourceModel`]; the pool only needs the arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
struct PoolTopology {
    len: usize,
    slots: [DemandSlot; MAX_RESOURCES],
    /// Resource index of the per-node resource, if any.
    per_node: Option<u8>,
    /// Whether that resource tracks a waste objective.
    track_waste: bool,
    flavors: FlavorSet,
}

/// The mutable slice of a [`PoolState`]: per-resource free amounts and
/// per-flavour free node counts, without the topology and capacity tables
/// that are identical for every state describing the same machine.
///
/// Availability profiles store their segments as per-resource columns
/// and materialize a segment's slice with [`PoolState::free_state_from`];
/// fit arithmetic on a slice is interpreted against an owning state via
/// [`PoolState::free_fits`], which [`PoolState::fits`] delegates to — the
/// two representations cannot drift.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FreeState {
    free: ResourceVector,
    flavor_free: [u32; MAX_FLAVORS],
}

/// Mutable free-resource state at one scheduling invocation.
///
/// Construct with [`PoolState::cpu_bb`] / [`PoolState::with_ssd`] for the
/// paper's two systems, or [`PoolState::from_model`] for any resource
/// table. Constructors record the initial amounts as the system capacities;
/// `alloc`/`free` never change them.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PoolState {
    topo: PoolTopology,
    /// Free amount per resource (index 0 = nodes).
    free: ResourceVector,
    /// Free node count per flavour of the per-node resource.
    flavor_free: [u32; MAX_FLAVORS],
    /// System capacities (constant through alloc/free).
    cap: ResourceVector,
    flavor_cap: [u32; MAX_FLAVORS],
}

impl PoolState {
    /// State for a system described by `model` (availability = machine
    /// capacity), initially all free.
    ///
    /// # Panics
    /// Panics if a registered per-node resource's flavour counts do not sum
    /// to the node count.
    pub fn from_model(model: &ResourceModel) -> Self {
        let len = model.len();
        let mut slots = [DemandSlot::Nodes; MAX_RESOURCES];
        for (r, s) in model.specs().iter().enumerate() {
            slots[r] = s.slot;
        }
        let (per_node, track_waste, flavors) = match model.per_node_resource() {
            Some((r, f, w)) => {
                assert_eq!(
                    f.total_count(),
                    model.avail_nodes(),
                    "per-node flavour counts must sum to the node count"
                );
                (Some(r as u8), w, *f)
            }
            None => (None, false, FlavorSet::homogeneous(0.0, 0)),
        };
        let mut flavor_cap = [0u32; MAX_FLAVORS];
        for (k, cap) in flavor_cap.iter_mut().enumerate().take(flavors.len()) {
            *cap = flavors.get(k).count;
        }
        let free = model.available();
        Self {
            topo: PoolTopology { len, slots, per_node, track_waste, flavors },
            free,
            flavor_free: flavor_cap,
            cap: free,
            flavor_cap,
        }
    }

    /// State for a CPU + burst-buffer system, initially all free.
    pub fn cpu_bb(nodes: u32, bb_gb: f64) -> Self {
        Self::from_model(&ResourceModel::cpu_bb(nodes, bb_gb))
    }

    /// State for a system with heterogeneous local SSDs, initially all
    /// free.
    pub fn with_ssd(nodes_128: u32, nodes_256: u32, bb_gb: f64) -> Self {
        Self::from_model(&ResourceModel::cpu_bb_ssd(nodes_128, nodes_256, bb_gb))
    }

    /// Number of registered resources.
    pub fn num_resources(&self) -> usize {
        self.topo.len
    }

    /// Free amount of resource `r`.
    pub fn free_of(&self, r: usize) -> f64 {
        self.free.get(r)
    }

    /// System capacity of resource `r`.
    pub fn capacity_of(&self, r: usize) -> f64 {
        self.cap.get(r)
    }

    /// Free compute nodes.
    pub fn nodes(&self) -> u32 {
        self.free.get(0) as u32
    }

    /// Free shared burst buffer (GB); 0 if no burst buffer is registered.
    pub fn bb_gb(&self) -> f64 {
        self.pooled_by_slot(DemandSlot::BbGb).map_or(0.0, |r| self.free.get(r))
    }

    /// Free nodes of flavour `k` of the per-node resource.
    pub fn flavor_free(&self, k: usize) -> u32 {
        self.flavor_free[k]
    }

    /// Free 128 GB-SSD nodes (flavour 0; 0 when SSDs are not modelled).
    pub fn nodes_128(&self) -> u32 {
        if self.ssd_aware() {
            self.flavor_free[0]
        } else {
            0
        }
    }

    /// Free 256 GB-SSD nodes (flavour 1; 0 when SSDs are not modelled).
    pub fn nodes_256(&self) -> u32 {
        if self.ssd_aware() {
            self.flavor_free[1]
        } else {
            0
        }
    }

    /// Whether a per-node resource (local SSDs in the paper) is modelled;
    /// changes fit semantics.
    pub fn ssd_aware(&self) -> bool {
        self.topo.per_node.is_some()
    }

    /// Total compute nodes.
    pub fn total_nodes(&self) -> u32 {
        self.cap.get(0) as u32
    }

    /// Total usable shared burst buffer (GB).
    pub fn total_bb_gb(&self) -> f64 {
        self.pooled_by_slot(DemandSlot::BbGb).map_or(0.0, |r| self.cap.get(r))
    }

    /// Total capacity of the per-node resource (`Σ count × capacity`); 0
    /// when none is modelled.
    pub fn total_ssd_capacity_gb(&self) -> f64 {
        if self.ssd_aware() {
            (0..self.topo.flavors.len())
                .map(|k| f64::from(self.flavor_cap[k]) * self.topo.flavors.get(k).capacity)
                .sum()
        } else {
            0.0
        }
    }

    /// The flavour table of the per-node resource, if one is modelled.
    pub fn flavors(&self) -> Option<&FlavorSet> {
        self.topo.per_node.map(|_| &self.topo.flavors)
    }

    /// Overrides the free node count (testing/what-if; capacities are
    /// untouched). Not meaningful on flavoured systems, where node
    /// availability follows the flavour pools.
    pub fn set_free_nodes(&mut self, nodes: u32) {
        self.free.set(0, f64::from(nodes));
    }

    /// Overrides the free burst buffer (testing/what-if).
    ///
    /// # Panics
    /// Panics if no burst-buffer resource is registered.
    pub fn set_free_bb_gb(&mut self, bb_gb: f64) {
        let r = self.pooled_by_slot(DemandSlot::BbGb).expect("no burst-buffer resource");
        self.free.set(r, bb_gb);
    }

    fn pooled_by_slot(&self, slot: DemandSlot) -> Option<usize> {
        (0..self.topo.len).find(|&r| self.topo.slots[r] == slot)
    }

    /// Index of the per-node resource, if one is modelled.
    pub fn per_node_index(&self) -> Option<usize> {
        self.topo.per_node.map(usize::from)
    }

    /// Remaining free capacity of resource `r` in its natural unit: the
    /// free pool for pooled resources, `Σ free nodes × flavour capacity`
    /// for the per-node resource.
    pub fn remaining_capacity_of(&self, r: usize) -> f64 {
        if self.topo.per_node == Some(r as u8) {
            (0..self.topo.flavors.len())
                .map(|k| f64::from(self.flavor_free[k]) * self.topo.flavors.get(k).capacity)
                .sum()
        } else {
            self.free.get(r)
        }
    }

    /// A job's demand on resource `r` (per-node amount for the per-node
    /// resource, total for pooled ones).
    pub fn demand_of(&self, d: &JobDemand, r: usize) -> f64 {
        match self.topo.slots[r] {
            DemandSlot::Nodes => f64::from(d.nodes),
            DemandSlot::BbGb => d.bb_gb,
            DemandSlot::SsdPerNode => d.ssd_gb_per_node,
            DemandSlot::Extra(i) => d.extra[usize::from(i)],
        }
    }

    /// Rebuilds the free-capacity [`ResourceModel`] for problem
    /// construction (canonical slot-derived names; reporting names live in
    /// the workload layer).
    pub fn resource_model(&self) -> ResourceModel {
        let specs: Vec<ResourceSpec> = (0..self.topo.len)
            .map(|r| {
                let name = match self.topo.slots[r] {
                    DemandSlot::Nodes => "nodes".to_string(),
                    DemandSlot::BbGb => "bb_gb".to_string(),
                    DemandSlot::SsdPerNode => "ssd".to_string(),
                    DemandSlot::Extra(i) => format!("extra{i}"),
                };
                if self.topo.per_node == Some(r as u8) {
                    let mut flavors = Vec::with_capacity(self.topo.flavors.len());
                    for k in 0..self.topo.flavors.len() {
                        flavors.push(crate::resource::Flavor {
                            capacity: self.topo.flavors.get(k).capacity,
                            count: self.flavor_free[k],
                        });
                    }
                    let spec =
                        ResourceSpec::per_node(name, FlavorSet::new(&flavors), self.topo.slots[r]);
                    if self.topo.track_waste {
                        spec.with_waste_objective()
                    } else {
                        spec
                    }
                } else {
                    ResourceSpec::pooled(name, self.free.get(r), self.topo.slots[r])
                }
            })
            .collect();
        ResourceModel::new(specs).expect("pool topology is always a valid model")
    }

    /// Objective normalizers against *machine* capacity (the paper's
    /// utilizations are system-relative): one entry per resource, plus the
    /// per-node capacity again for a waste objective.
    pub fn machine_normalizers(&self) -> Vec<f64> {
        let mut norms: Vec<f64> = (0..self.topo.len)
            .map(|r| {
                if self.topo.per_node == Some(r as u8) {
                    self.total_ssd_capacity_gb()
                } else {
                    self.cap.get(r)
                }
            })
            .collect();
        if self.ssd_aware() && self.topo.track_waste {
            norms.push(self.total_ssd_capacity_gb());
        }
        norms
    }

    /// Snapshot as an [`Available`] for legacy problem construction.
    pub fn as_available(&self) -> Available {
        Available {
            nodes: self.nodes(),
            bb_gb: self.bb_gb(),
            nodes_128: self.nodes_128(),
            nodes_256: self.nodes_256(),
        }
    }

    /// Whether `d` fits in the current free state.
    pub fn fits(&self, d: &JobDemand) -> bool {
        let f = FreeState { free: self.free, flavor_free: self.flavor_free };
        self.free_fits(&f, d)
    }

    /// This state's mutable slice (free amounts and flavour pools).
    pub fn free_state(&self) -> FreeState {
        FreeState { free: self.free, flavor_free: self.flavor_free }
    }

    /// Number of modelled resources (the demand components
    /// [`PoolState::fits`] checks).
    pub fn resource_len(&self) -> usize {
        self.topo.len
    }

    /// This state's free slice with the `j`-th modelled pooled resource's
    /// free amount replaced by `free(j)` (pooled resources counted in
    /// resource order, the per-node one skipped) and, on a machine with a
    /// per-node resource, flavour `k`'s free node count replaced by
    /// `flavor_free(k)` — every value [`PoolState::free_fits`] compares
    /// against. The per-node resource's own slot, unmodelled slots and
    /// unused flavour slots keep this state's values.
    pub fn free_state_from(
        &self,
        free: impl Fn(usize) -> f64,
        flavor_free: impl Fn(usize) -> u32,
    ) -> FreeState {
        let mut f = self.free_state();
        let mut j = 0;
        for r in 0..self.topo.len {
            if self.topo.per_node != Some(r as u8) {
                f.free.set(r, free(j));
                j += 1;
            }
        }
        if self.topo.per_node.is_some() {
            for (k, n) in f.flavor_free.iter_mut().enumerate().take(self.topo.flavors.len()) {
                *n = flavor_free(k);
            }
        }
        f
    }

    /// A full state with this state's topology and capacities but `f`'s
    /// free amounts (the inverse of [`PoolState::free_state`]).
    pub fn with_free(&self, f: &FreeState) -> PoolState {
        let mut out = *self;
        out.free = f.free;
        out.flavor_free = f.flavor_free;
        out
    }

    /// Whether this state and `other` describe the same machine: equal
    /// topologies and capacity tables (free amounts may differ).
    pub fn same_machine(&self, other: &PoolState) -> bool {
        self.topo == other.topo && self.cap == other.cap && self.flavor_cap == other.flavor_cap
    }

    /// Whether `d` fits in the free slice `f`, interpreted against this
    /// state's topology. `self.fits(d)` delegates here, so the answer for
    /// `self.free_state()` is exactly `self.fits(d)`.
    pub fn free_fits(&self, f: &FreeState, d: &JobDemand) -> bool {
        if f64::from(d.nodes) > f.free.get(0) {
            return false;
        }
        for r in 1..self.topo.len {
            let demand = self.demand_of(d, r);
            if self.topo.per_node == Some(r as u8) {
                // Enough nodes of a sufficient flavour: suffix-count check.
                let class = self.topo.flavors.class_of(demand);
                let suffix: u64 =
                    (class..self.topo.flavors.len()).map(|k| u64::from(f.flavor_free[k])).sum();
                if u64::from(d.nodes) > suffix {
                    return false;
                }
            } else if demand > f.free.get(r) + FIT_EPS {
                return false;
            }
        }
        true
    }

    /// Allocates `d`, returning the per-flavour node split.
    ///
    /// # Panics
    /// Panics if the demand does not fit (call [`PoolState::fits`] first).
    pub fn alloc(&mut self, d: &JobDemand) -> NodeAssignment {
        assert!(self.fits(d), "alloc called with non-fitting demand {d:?} on {self:?}");
        let mut f = FreeState { free: self.free, flavor_free: self.flavor_free };
        let asn = self.free_alloc_unchecked(&mut f, d);
        self.free = f.free;
        self.flavor_free = f.flavor_free;
        asn
    }

    fn free_alloc_unchecked(&self, f: &mut FreeState, d: &JobDemand) -> NodeAssignment {
        for r in 1..self.topo.len {
            if self.topo.per_node != Some(r as u8) {
                let v = f.free.get(r) - self.demand_of(d, r);
                f.free.set(r, v);
            }
        }
        f.free.set(0, f.free.get(0) - f64::from(d.nodes));
        let Some(pr) = self.topo.per_node else {
            // No per-node resource: record everything in the last flavour
            // slot of a two-tier table (the historical n256 encoding).
            return NodeAssignment::two_tier(0, d.nodes);
        };
        // Greedy: smallest sufficient flavour first, overflow upward.
        let class = self.topo.flavors.class_of(self.demand_of(d, usize::from(pr)));
        let mut asn = NodeAssignment::default();
        let mut need = d.nodes;
        for k in class..self.topo.flavors.len() {
            let take = need.min(f.flavor_free[k]);
            asn.per_flavor[k] = take;
            f.flavor_free[k] -= take;
            need -= take;
            if need == 0 {
                break;
            }
        }
        debug_assert_eq!(need, 0, "fits() guaranteed a flavour assignment");
        asn
    }

    /// Component-wise minimum of two states of the same topology: the
    /// largest availability that is guaranteed under *both* (used to
    /// constrain selection so it cannot delay a reservation).
    ///
    /// # Panics
    /// Panics if the topologies differ (both states must describe the same
    /// machine).
    pub fn component_min(&self, other: &PoolState) -> PoolState {
        assert_eq!(self.topo, other.topo, "component_min requires matching pool topologies");
        let mut out = *self;
        out.free = self.free.component_min(&other.free);
        if self.topo.per_node.is_some() {
            let mut sum = 0u32;
            for k in 0..self.topo.flavors.len() {
                out.flavor_free[k] = self.flavor_free[k].min(other.flavor_free[k]);
                sum += out.flavor_free[k];
            }
            // Flavoured states maintain nodes == Σ flavour pools; taking
            // per-pool minima independently can only tighten that sum, so
            // the node count must follow it.
            out.free.set(0, f64::from(sum));
        }
        out
    }

    /// Releases an allocation made by [`PoolState::alloc`].
    pub fn free(&mut self, d: &JobDemand, asn: NodeAssignment) {
        for r in 1..self.topo.len {
            if self.topo.per_node != Some(r as u8) {
                let v = self.free.get(r) + self.demand_of(d, r);
                self.free.set(r, v);
            }
        }
        self.free.set(0, self.free.get(0) + f64::from(d.nodes));
        if self.topo.per_node.is_some() {
            for k in 0..self.topo.flavors.len() {
                self.flavor_free[k] += asn.per_flavor[k];
            }
        }
        debug_assert_eq!(asn.total(), d.nodes);
    }

    /// Wasted per-node capacity (GB) of an assignment for demand `d`; 0 on
    /// systems without a per-node resource.
    pub fn wasted_capacity_gb(&self, d: &JobDemand, asn: &NodeAssignment) -> f64 {
        match self.topo.per_node {
            Some(pr) => asn.wasted_capacity(self.demand_of(d, usize::from(pr)), &self.topo.flavors),
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::Flavor;

    #[test]
    fn cpu_bb_fit_and_alloc() {
        let mut p = PoolState::cpu_bb(100, 1_000.0);
        let d = JobDemand::cpu_bb(40, 400.0);
        assert!(p.fits(&d));
        let a = p.alloc(&d);
        assert_eq!(p.nodes(), 60);
        assert_eq!(p.bb_gb(), 600.0);
        p.free(&d, a);
        assert_eq!(p.nodes(), 100);
        assert_eq!(p.bb_gb(), 1_000.0);
    }

    #[test]
    fn rejects_oversized() {
        let p = PoolState::cpu_bb(10, 10.0);
        assert!(!p.fits(&JobDemand::cpu_bb(11, 0.0)));
        assert!(!p.fits(&JobDemand::cpu_bb(1, 20.0)));
        assert!(p.fits(&JobDemand::cpu_bb(10, 10.0)));
    }

    #[test]
    fn ssd_large_requests_need_256_pool() {
        let p = PoolState::with_ssd(8, 2, 100.0);
        assert!(!p.fits(&JobDemand::cpu_bb_ssd(3, 0.0, 200.0)));
        assert!(p.fits(&JobDemand::cpu_bb_ssd(2, 0.0, 200.0)));
    }

    #[test]
    fn ssd_small_requests_prefer_128_pool() {
        let mut p = PoolState::with_ssd(2, 4, 100.0);
        let d = JobDemand::cpu_bb_ssd(3, 0.0, 64.0);
        let a = p.alloc(&d);
        assert_eq!(a, NodeAssignment::two_tier(2, 1));
        assert_eq!(p.nodes_128(), 0);
        assert_eq!(p.nodes_256(), 3);
        // Waste: 2 x (128-64) + 1 x (256-64) = 320.
        assert_eq!(a.wasted_ssd_gb(64.0), 320.0);
        assert_eq!(p.wasted_capacity_gb(&d, &a), 320.0);
        p.free(&d, a);
        assert_eq!(p.nodes_128(), 2);
        assert_eq!(p.nodes_256(), 4);
    }

    #[test]
    fn non_ssd_alloc_has_no_waste_tracking() {
        let mut p = PoolState::cpu_bb(10, 0.0);
        let d = JobDemand::cpu_bb(4, 0.0);
        let a = p.alloc(&d);
        assert_eq!(a.total(), 4);
        assert_eq!(p.wasted_capacity_gb(&d, &a), 0.0);
    }

    #[test]
    #[should_panic]
    fn alloc_panics_when_not_fitting() {
        let mut p = PoolState::cpu_bb(1, 0.0);
        let _ = p.alloc(&JobDemand::cpu_bb(2, 0.0));
    }

    #[test]
    fn component_min_is_conservative() {
        let mut a = PoolState::with_ssd(4, 5, 100.0);
        let mut b = PoolState::with_ssd(4, 5, 100.0);
        // Drain the two states differently.
        let da = JobDemand::cpu_bb_ssd(1, 0.0, 64.0); // takes a 128 node from a
        let db = JobDemand::cpu_bb_ssd(3, 60.0, 200.0); // takes 256 nodes from b
        let _ = a.alloc(&da);
        let _ = b.alloc(&db);
        let m = a.component_min(&b);
        // Flavoured min keeps nodes == sum of flavour pools.
        assert_eq!(m.nodes_128(), 3);
        assert_eq!(m.nodes_256(), 2);
        assert_eq!(m.nodes(), 5);
        assert_eq!(m.bb_gb(), 40.0);
        assert!(m.ssd_aware());
        // Anything fitting the min fits both.
        let d = JobDemand::cpu_bb_ssd(2, 30.0, 200.0);
        assert!(m.fits(&d) && a.fits(&d) && b.fits(&d));
    }

    #[test]
    fn component_min_plain_states() {
        let mut a = PoolState::cpu_bb(10, 80.0);
        let mut b = PoolState::cpu_bb(10, 80.0);
        let _ = a.alloc(&JobDemand::cpu_bb(0, 30.0));
        let _ = b.alloc(&JobDemand::cpu_bb(3, 0.0));
        let m = a.component_min(&b);
        assert_eq!(m.nodes(), 7);
        assert_eq!(m.bb_gb(), 50.0);
        assert!(!m.ssd_aware());
    }

    #[test]
    fn as_available_roundtrip() {
        let p = PoolState::with_ssd(3, 5, 42.0);
        let a = p.as_available();
        assert_eq!(a.nodes, 8);
        assert_eq!(a.nodes_128, 3);
        assert_eq!(a.nodes_256, 5);
        assert_eq!(a.bb_gb, 42.0);
    }

    #[test]
    fn totals_survive_alloc() {
        let mut p = PoolState::with_ssd(3, 5, 42.0);
        let _ = p.alloc(&JobDemand::cpu_bb_ssd(2, 10.0, 64.0));
        assert_eq!(p.total_nodes(), 8);
        assert_eq!(p.total_bb_gb(), 42.0);
        assert_eq!(p.total_ssd_capacity_gb(), 3.0 * 128.0 + 5.0 * 256.0);
        assert_eq!(p.machine_normalizers(), vec![8.0, 42.0, 1664.0, 1664.0]);
    }

    #[test]
    fn generic_three_flavor_pool() {
        // 64 / 128 / 256 GB tiers.
        let flavors = FlavorSet::new(&[
            Flavor { capacity: 64.0, count: 2 },
            Flavor { capacity: 128.0, count: 2 },
            Flavor { capacity: 256.0, count: 2 },
        ]);
        let model = ResourceModel::new(vec![
            ResourceSpec::pooled("nodes", 6.0, DemandSlot::Nodes),
            ResourceSpec::pooled("bb_gb", 100.0, DemandSlot::BbGb),
            ResourceSpec::per_node("ssd", flavors, DemandSlot::SsdPerNode).with_waste_objective(),
        ])
        .unwrap();
        let mut p = PoolState::from_model(&model);
        // A 100 GB/node job classifies to the 128 tier, overflows to 256.
        let d = JobDemand::cpu_bb_ssd(3, 0.0, 100.0);
        assert!(p.fits(&d));
        let a = p.alloc(&d);
        assert_eq!(a.per_flavor[..3], [0, 2, 1]);
        // 2x(128-100) + 1x(256-100) = 212 GB wasted.
        assert_eq!(p.wasted_capacity_gb(&d, &a), 212.0);
        // The 64-tier nodes are untouched.
        assert_eq!(p.flavor_free(0), 2);
        p.free(&d, a);
        assert_eq!(p.nodes(), 6);
    }

    #[test]
    fn mutators_for_what_if_states() {
        let mut p = PoolState::cpu_bb(100, 1_000.0);
        p.set_free_nodes(10);
        p.set_free_bb_gb(5.0);
        assert_eq!(p.nodes(), 10);
        assert_eq!(p.bb_gb(), 5.0);
        assert_eq!(p.total_nodes(), 100);
        assert_eq!(p.total_bb_gb(), 1_000.0);
    }

    #[test]
    fn resource_model_snapshot_reflects_free_state() {
        let mut p = PoolState::with_ssd(2, 4, 100.0);
        let _ = p.alloc(&JobDemand::cpu_bb_ssd(1, 30.0, 200.0));
        let m = p.resource_model();
        assert_eq!(m.avail_nodes(), 5);
        assert_eq!(m.available().get(1), 70.0);
        let (_, flavors, waste) = m.per_node_resource().unwrap();
        assert!(waste);
        assert_eq!(flavors.get(0).count, 2);
        assert_eq!(flavors.get(1).count, 3);
    }
}
