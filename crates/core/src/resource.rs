//! The generic N-resource model underlying every MOO formulation.
//!
//! The paper instantiates its window-knapsack twice — CPU + burst buffer
//! (§3.2.1, two objectives) and CPU + burst buffer + heterogeneous local SSD
//! (§5, four objectives) — and stresses that "BBSched can be easily extended
//! to schedule other schedulable resources". This module is that extension
//! point: a scheduling problem is described by an ordered table of
//! [`ResourceSpec`]s (resource 0 is always compute nodes), and the solver,
//! pools, and simulator all operate on fixed-capacity [`ResourceVector`]s so
//! the GA inner loop stays free of heap allocation regardless of how many
//! resources are registered.
//!
//! Two kinds of resource are modelled:
//!
//! * **Pooled** — a shared pool drawn from in arbitrary amounts (compute
//!   nodes, shared burst buffer, a pooled GPU bank, licenses, …).
//! * **Per-node** — an amount consumed *on every node* a job runs on, where
//!   the node pool is partitioned into capacity *flavours* (the paper's
//!   128 GB / 256 GB local-SSD nodes). A per-node resource may additionally
//!   track a *waste* objective (`-Σ wasted capacity`, maximized), which is
//!   how the §5 "minus wasted SSD" objective direction is expressed.

use serde::{Deserialize, Serialize};

/// Maximum number of resource dimensions supported by the fixed-capacity
/// vectors on the GA hot path. The paper uses 2 (§3.2.1) and 3 (§5).
pub const MAX_RESOURCES: usize = 5;

/// Maximum number of per-node capacity flavours. The paper uses 2
/// (128 GB and 256 GB local SSDs).
pub const MAX_FLAVORS: usize = 4;

/// Extra per-job demand slots available beyond the named paper resources
/// (see [`DemandSlot::Extra`]).
pub const MAX_EXTRA: usize = 2;

/// A fixed-capacity per-resource quantity vector: `values[..len]` are
/// meaningful, one entry per registered resource, index 0 = compute nodes.
///
/// Like `Objectives`, this is a stack array rather than a `Vec<f64>` so the
/// GA's repair/evaluate inner loops never allocate.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResourceVector {
    values: [f64; MAX_RESOURCES],
    len: usize,
}

impl ResourceVector {
    /// A zeroed vector over `len` resources.
    ///
    /// # Panics
    /// Panics if `len == 0` or `len > MAX_RESOURCES`.
    #[inline]
    pub fn zeros(len: usize) -> Self {
        assert!(len > 0 && len <= MAX_RESOURCES, "1..={MAX_RESOURCES} resources supported");
        Self { values: [0.0; MAX_RESOURCES], len }
    }

    /// Builds a vector from a slice.
    ///
    /// # Panics
    /// Panics if the slice is empty or longer than [`MAX_RESOURCES`].
    #[inline]
    pub fn from_slice(slice: &[f64]) -> Self {
        let mut v = Self::zeros(slice.len());
        v.values[..slice.len()].copy_from_slice(slice);
        v
    }

    /// The amount for resource `r`.
    ///
    /// # Panics
    /// Panics if `r >= len`.
    #[inline]
    pub fn get(&self, r: usize) -> f64 {
        assert!(r < self.len);
        self.values[r]
    }

    /// Sets the amount for resource `r`.
    ///
    /// # Panics
    /// Panics if `r >= len`.
    #[inline]
    pub fn set(&mut self, r: usize, v: f64) {
        assert!(r < self.len);
        self.values[r] = v;
    }

    /// The active amounts.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.values[..self.len]
    }

    /// Number of registered resources.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no registered resources (never true for a
    /// constructed vector; present for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Component-wise `self + other`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[inline]
    pub fn saturating_add(&self, other: &Self) -> Self {
        assert_eq!(self.len, other.len);
        let mut out = *self;
        for r in 0..self.len {
            out.values[r] += other.values[r];
        }
        out
    }

    /// Component-wise minimum.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[inline]
    pub fn component_min(&self, other: &Self) -> Self {
        assert_eq!(self.len, other.len);
        let mut out = *self;
        for r in 0..self.len {
            out.values[r] = out.values[r].min(other.values[r]);
        }
        out
    }
}

/// One capacity flavour of a per-node resource: `count` nodes each carrying
/// `capacity` units (e.g. 2,944 nodes with 128 GB SSDs).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Flavor {
    /// Per-node capacity of this flavour.
    pub capacity: f64,
    /// Number of nodes of this flavour.
    pub count: u32,
}

/// The flavour table of a per-node resource, sorted by ascending capacity.
///
/// The greedy assignment of §5 generalizes to any number of flavours: a
/// job's demand classifies it to the *smallest* sufficient flavour
/// ([`FlavorSet::class_of`]), and node-slots fill flavours smallest-first,
/// "in order to mitigate wastage".
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlavorSet {
    flavors: [Flavor; MAX_FLAVORS],
    len: usize,
}

impl FlavorSet {
    /// Builds a flavour table.
    ///
    /// # Panics
    /// Panics if `flavors` is empty, holds more than [`MAX_FLAVORS`]
    /// entries, or is not sorted by strictly ascending capacity.
    pub fn new(flavors: &[Flavor]) -> Self {
        assert!(
            !flavors.is_empty() && flavors.len() <= MAX_FLAVORS,
            "1..={MAX_FLAVORS} flavours supported"
        );
        assert!(
            flavors.windows(2).all(|w| w[0].capacity < w[1].capacity),
            "flavours must have strictly ascending capacities"
        );
        let mut table = [Flavor { capacity: 0.0, count: 0 }; MAX_FLAVORS];
        table[..flavors.len()].copy_from_slice(flavors);
        Self { flavors: table, len: flavors.len() }
    }

    /// The paper's two-tier local-SSD split: `n_small` nodes at
    /// `small_cap` GB and `n_large` nodes at `large_cap` GB.
    pub fn two_tier(small_cap: f64, n_small: u32, large_cap: f64, n_large: u32) -> Self {
        Self::new(&[
            Flavor { capacity: small_cap, count: n_small },
            Flavor { capacity: large_cap, count: n_large },
        ])
    }

    /// A single-flavour (homogeneous) per-node resource.
    pub fn homogeneous(capacity: f64, count: u32) -> Self {
        Self::new(&[Flavor { capacity, count }])
    }

    /// Number of flavours.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty (never true for a constructed set).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `k`-th flavour (ascending capacity).
    ///
    /// # Panics
    /// Panics if `k >= len`.
    #[inline]
    pub fn get(&self, k: usize) -> Flavor {
        assert!(k < self.len);
        self.flavors[k]
    }

    /// The active flavours.
    #[inline]
    pub fn as_slice(&self) -> &[Flavor] {
        &self.flavors[..self.len]
    }

    /// The smallest flavour whose capacity covers a per-node demand, or the
    /// largest flavour if none does (over-demands are clamped upstream, as
    /// the seed simulator clamps SSD requests to 256 GB).
    ///
    /// Matches §5 exactly for two tiers: demand ≤ 128 GB → class 0
    /// (flexible), demand > 128 GB → class 1 (needs a 256 GB node).
    #[inline]
    pub fn class_of(&self, per_node_demand: f64) -> usize {
        for k in 0..self.len {
            if per_node_demand <= self.flavors[k].capacity {
                return k;
            }
        }
        self.len - 1
    }

    /// Total nodes across all flavours.
    pub fn total_count(&self) -> u32 {
        self.as_slice().iter().map(|f| f.count).sum()
    }

    /// Total capacity across all flavours (`Σ count × capacity`).
    pub fn total_capacity(&self) -> f64 {
        self.as_slice().iter().map(|f| f64::from(f.count) * f.capacity).sum()
    }
}

/// Pooled vs. per-node consumption semantics of a resource.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ResourceKind {
    /// A shared pool drawn from in arbitrary amounts (nodes, burst buffer).
    Pooled,
    /// An amount consumed on every node the job runs on; the node pool is
    /// partitioned into capacity flavours.
    PerNode {
        /// Flavour table (ascending capacity).
        flavors: FlavorSet,
    },
}

/// Which field of a `JobDemand` supplies the per-job demand for a resource.
///
/// The demand struct keeps the paper's named fields (for API continuity)
/// plus [`MAX_EXTRA`] anonymous slots for resources beyond the paper's
/// three, so registering a new resource needs no change to the core types.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DemandSlot {
    /// `JobDemand::nodes` (resource 0 only).
    Nodes,
    /// `JobDemand::bb_gb` — a total, pooled amount.
    BbGb,
    /// `JobDemand::ssd_gb_per_node` — a per-node amount.
    SsdPerNode,
    /// `JobDemand::extra[i]` — demand for a registered extra resource.
    Extra(u8),
}

/// Full description of one schedulable resource dimension.
///
/// `available` is the amount the problem is constrained by (free at this
/// invocation, not necessarily the machine total); objective normalization
/// against machine totals is layered on via `with_normalizers`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResourceSpec {
    /// Human-readable name ("nodes", "bb_gb", "ssd", "gpus", …).
    pub name: String,
    /// Consumption semantics.
    pub kind: ResourceKind,
    /// Available amount: pool size for [`ResourceKind::Pooled`], total
    /// capacity (`Σ count × capacity`) for [`ResourceKind::PerNode`].
    pub available: f64,
    /// Where a job's demand for this resource comes from.
    pub slot: DemandSlot,
    /// Whether to add a `-waste` objective for this resource (per-node
    /// resources only): maximizing `-Σ unused assigned capacity` is the §5
    /// "minus wasted SSD" objective direction.
    pub track_waste: bool,
}

impl ResourceSpec {
    /// A pooled resource with the given free amount.
    pub fn pooled(name: impl Into<String>, available: f64, slot: DemandSlot) -> Self {
        Self { name: name.into(), kind: ResourceKind::Pooled, available, slot, track_waste: false }
    }

    /// A per-node resource over the given flavour table.
    pub fn per_node(name: impl Into<String>, flavors: FlavorSet, slot: DemandSlot) -> Self {
        Self {
            name: name.into(),
            kind: ResourceKind::PerNode { flavors },
            available: flavors.total_capacity(),
            slot,
            track_waste: false,
        }
    }

    /// Enables the waste objective (builder style).
    ///
    /// # Panics
    /// Panics for pooled resources — waste is only defined for per-node
    /// capacity assignment.
    pub fn with_waste_objective(mut self) -> Self {
        assert!(
            matches!(self.kind, ResourceKind::PerNode { .. }),
            "waste objective requires a per-node resource"
        );
        self.track_waste = true;
        self
    }
}

/// Errors from [`ResourceModel::new`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResourceModelError {
    /// The spec table was empty.
    Empty,
    /// More than [`MAX_RESOURCES`] specs.
    TooManyResources(usize),
    /// Resource 0 must be pooled compute nodes with [`DemandSlot::Nodes`].
    FirstResourceNotNodes,
    /// [`DemandSlot::Nodes`] used for a resource other than resource 0.
    NodesSlotReused(usize),
    /// More than one per-node resource registered (the node pool can only
    /// be partitioned one way).
    MultiplePerNode,
    /// An availability or flavour capacity was negative or NaN (pooled
    /// availabilities may be `+inf`, modelling an unconstrained pool).
    InvalidAmount(usize),
    /// More objectives than the solver's fixed-size vectors support.
    TooManyObjectives(usize),
    /// An [`DemandSlot::Extra`] index beyond [`MAX_EXTRA`].
    ExtraSlotOutOfRange(usize),
}

impl std::fmt::Display for ResourceModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Empty => write!(f, "resource table is empty"),
            Self::TooManyResources(n) => {
                write!(f, "{n} resources exceed the supported maximum of {MAX_RESOURCES}")
            }
            Self::FirstResourceNotNodes => {
                write!(f, "resource 0 must be pooled compute nodes with DemandSlot::Nodes")
            }
            Self::NodesSlotReused(r) => {
                write!(f, "resource {r} reuses DemandSlot::Nodes (reserved for resource 0)")
            }
            Self::MultiplePerNode => {
                write!(f, "at most one per-node resource is supported")
            }
            Self::InvalidAmount(r) => {
                write!(f, "resource {r} has a negative or non-finite amount")
            }
            Self::TooManyObjectives(n) => {
                write!(f, "{n} objectives exceed the solver maximum of {}", crate::MAX_OBJECTIVES)
            }
            Self::ExtraSlotOutOfRange(r) => {
                write!(f, "resource {r} uses an extra demand slot >= {MAX_EXTRA}")
            }
        }
    }
}

impl std::error::Error for ResourceModelError {}

/// An ordered resource table describing one scheduling problem instance.
///
/// Invariants (checked at construction): resource 0 is pooled compute
/// nodes keyed by [`DemandSlot::Nodes`]; at most one resource is per-node;
/// `resources + waste objectives <= MAX_OBJECTIVES`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResourceModel {
    specs: Vec<ResourceSpec>,
}

impl ResourceModel {
    /// Validates and builds a model from an ordered spec table.
    pub fn new(specs: Vec<ResourceSpec>) -> Result<Self, ResourceModelError> {
        if specs.is_empty() {
            return Err(ResourceModelError::Empty);
        }
        if specs.len() > MAX_RESOURCES {
            return Err(ResourceModelError::TooManyResources(specs.len()));
        }
        let first_ok = matches!(specs[0].kind, ResourceKind::Pooled)
            && specs[0].slot == DemandSlot::Nodes
            && !specs[0].track_waste;
        if !first_ok {
            return Err(ResourceModelError::FirstResourceNotNodes);
        }
        let mut per_node_seen = false;
        for (r, s) in specs.iter().enumerate() {
            if r > 0 && s.slot == DemandSlot::Nodes {
                return Err(ResourceModelError::NodesSlotReused(r));
            }
            if let DemandSlot::Extra(i) = s.slot {
                if usize::from(i) >= MAX_EXTRA {
                    return Err(ResourceModelError::ExtraSlotOutOfRange(r));
                }
            }
            // `+inf` is allowed: it models an unconstrained pool.
            if s.available.is_nan() || s.available < 0.0 {
                return Err(ResourceModelError::InvalidAmount(r));
            }
            if let ResourceKind::PerNode { flavors } = &s.kind {
                if per_node_seen {
                    return Err(ResourceModelError::MultiplePerNode);
                }
                per_node_seen = true;
                if flavors.as_slice().iter().any(|f| !(f.capacity.is_finite() && f.capacity >= 0.0))
                {
                    return Err(ResourceModelError::InvalidAmount(r));
                }
            }
        }
        let n_obj = specs.len() + specs.iter().filter(|s| s.track_waste).count();
        if n_obj > crate::MAX_OBJECTIVES {
            return Err(ResourceModelError::TooManyObjectives(n_obj));
        }
        Ok(Self { specs })
    }

    /// The §3.2.1 preset: pooled compute nodes + pooled shared burst buffer.
    pub fn cpu_bb(avail_nodes: u32, avail_bb_gb: f64) -> Self {
        Self::new(vec![
            ResourceSpec::pooled("nodes", f64::from(avail_nodes), DemandSlot::Nodes),
            ResourceSpec::pooled("bb_gb", avail_bb_gb, DemandSlot::BbGb),
        ])
        .expect("cpu_bb preset is always valid")
    }

    /// The §5 preset: nodes + burst buffer + two-tier per-node local SSD
    /// with a waste objective.
    pub fn cpu_bb_ssd(avail_nodes_128: u32, avail_nodes_256: u32, avail_bb_gb: f64) -> Self {
        use crate::problem::{SSD_LARGE_GB, SSD_SMALL_GB};
        let flavors =
            FlavorSet::two_tier(SSD_SMALL_GB, avail_nodes_128, SSD_LARGE_GB, avail_nodes_256);
        Self::new(vec![
            ResourceSpec::pooled(
                "nodes",
                f64::from(avail_nodes_128 + avail_nodes_256),
                DemandSlot::Nodes,
            ),
            ResourceSpec::pooled("bb_gb", avail_bb_gb, DemandSlot::BbGb),
            ResourceSpec::per_node("ssd", flavors, DemandSlot::SsdPerNode).with_waste_objective(),
        ])
        .expect("cpu_bb_ssd preset is always valid")
    }

    /// The ordered spec table.
    #[inline]
    pub fn specs(&self) -> &[ResourceSpec] {
        &self.specs
    }

    /// Number of resource dimensions.
    #[inline]
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the table is empty (never true for a constructed model).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Number of objectives: one per resource plus one per waste tracker.
    pub fn num_objectives(&self) -> usize {
        self.specs.len() + self.specs.iter().filter(|s| s.track_waste).count()
    }

    /// The per-node resource, if any: `(resource index, flavour table,
    /// waste tracked)`.
    pub fn per_node_resource(&self) -> Option<(usize, &FlavorSet, bool)> {
        self.specs.iter().enumerate().find_map(|(r, s)| match &s.kind {
            ResourceKind::PerNode { flavors } => Some((r, flavors, s.track_waste)),
            ResourceKind::Pooled => None,
        })
    }

    /// Available compute nodes (resource 0's pool, exact integer).
    pub fn avail_nodes(&self) -> u32 {
        self.specs[0].available as u32
    }

    /// Available amounts as a vector.
    pub fn available(&self) -> ResourceVector {
        ResourceVector::from_slice(&self.specs.iter().map(|s| s.available).collect::<Vec<_>>())
    }

    /// Default objective normalizers: each resource's availability (floored
    /// at 1 so empty pools do not divide by zero), and each waste
    /// objective's total flavour capacity.
    pub fn default_normalizers(&self) -> crate::Objectives {
        let mut norms = Vec::with_capacity(self.num_objectives());
        for s in &self.specs {
            norms.push(s.available.max(1.0));
        }
        for s in &self.specs {
            if s.track_waste {
                norms.push(s.available.max(1.0));
            }
        }
        crate::Objectives::from_slice(&norms)
    }

    /// A job's demand for resource `r` (per-node amount for per-node
    /// resources, total amount for pooled ones).
    #[inline]
    pub fn demand_of(&self, d: &crate::problem::JobDemand, r: usize) -> f64 {
        match self.specs[r].slot {
            DemandSlot::Nodes => f64::from(d.nodes),
            DemandSlot::BbGb => d.bb_gb,
            DemandSlot::SsdPerNode => d.ssd_gb_per_node,
            DemandSlot::Extra(i) => d.extra[usize::from(i)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::JobDemand;

    #[test]
    fn vector_roundtrip_and_ops() {
        let a = ResourceVector::from_slice(&[1.0, 2.0, 3.0]);
        let b = ResourceVector::from_slice(&[4.0, 1.0, 5.0]);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(2), 3.0);
        assert_eq!(a.saturating_add(&b).as_slice(), &[5.0, 3.0, 8.0]);
        assert_eq!(a.component_min(&b).as_slice(), &[1.0, 1.0, 3.0]);
        let mut c = a;
        c.set(0, 9.0);
        assert_eq!(c.as_slice(), &[9.0, 2.0, 3.0]);
        assert!(!a.is_empty());
    }

    #[test]
    #[should_panic]
    fn vector_rejects_too_many() {
        let _ = ResourceVector::zeros(MAX_RESOURCES + 1);
    }

    #[test]
    fn flavor_classification_matches_paper() {
        let f = FlavorSet::two_tier(128.0, 10, 256.0, 4);
        assert_eq!(f.class_of(0.0), 0);
        assert_eq!(f.class_of(64.0), 0);
        assert_eq!(f.class_of(128.0), 0); // exactly 128 GB fits a small node
        assert_eq!(f.class_of(128.1), 1);
        assert_eq!(f.class_of(256.0), 1);
        assert_eq!(f.class_of(999.0), 1); // clamped to the largest flavour
        assert_eq!(f.total_count(), 14);
        assert_eq!(f.total_capacity(), 10.0 * 128.0 + 4.0 * 256.0);
    }

    #[test]
    #[should_panic]
    fn flavors_must_ascend() {
        let _ = FlavorSet::new(&[
            Flavor { capacity: 256.0, count: 1 },
            Flavor { capacity: 128.0, count: 1 },
        ]);
    }

    #[test]
    fn presets_are_valid() {
        let m = ResourceModel::cpu_bb(100, 100_000.0);
        assert_eq!(m.len(), 2);
        assert_eq!(m.num_objectives(), 2);
        assert!(m.per_node_resource().is_none());
        assert_eq!(m.avail_nodes(), 100);
        assert_eq!(m.default_normalizers().as_slice(), &[100.0, 100_000.0]);

        let m = ResourceModel::cpu_bb_ssd(6, 4, 50_000.0);
        assert_eq!(m.len(), 3);
        assert_eq!(m.num_objectives(), 4);
        let (r, flavors, waste) = m.per_node_resource().unwrap();
        assert_eq!(r, 2);
        assert!(waste);
        assert_eq!(flavors.len(), 2);
        let cap = 6.0 * 128.0 + 4.0 * 256.0;
        assert_eq!(m.default_normalizers().as_slice(), &[10.0, 50_000.0, cap, cap]);
    }

    #[test]
    fn model_validation_rejects_bad_tables() {
        assert_eq!(ResourceModel::new(vec![]).unwrap_err(), ResourceModelError::Empty);
        // First resource must be nodes.
        let bad = vec![ResourceSpec::pooled("bb", 10.0, DemandSlot::BbGb)];
        assert_eq!(ResourceModel::new(bad).unwrap_err(), ResourceModelError::FirstResourceNotNodes);
        // Nodes slot reuse.
        let bad = vec![
            ResourceSpec::pooled("nodes", 10.0, DemandSlot::Nodes),
            ResourceSpec::pooled("nodes2", 10.0, DemandSlot::Nodes),
        ];
        assert_eq!(ResourceModel::new(bad).unwrap_err(), ResourceModelError::NodesSlotReused(1));
        // Two per-node resources.
        let bad = vec![
            ResourceSpec::pooled("nodes", 10.0, DemandSlot::Nodes),
            ResourceSpec::per_node("a", FlavorSet::homogeneous(1.0, 10), DemandSlot::SsdPerNode),
            ResourceSpec::per_node("b", FlavorSet::homogeneous(1.0, 10), DemandSlot::Extra(0)),
        ];
        assert_eq!(ResourceModel::new(bad).unwrap_err(), ResourceModelError::MultiplePerNode);
        // Extra slot out of range.
        let bad = vec![
            ResourceSpec::pooled("nodes", 10.0, DemandSlot::Nodes),
            ResourceSpec::pooled("x", 1.0, DemandSlot::Extra(MAX_EXTRA as u8)),
        ];
        assert_eq!(
            ResourceModel::new(bad).unwrap_err(),
            ResourceModelError::ExtraSlotOutOfRange(1)
        );
        // Negative availability.
        let bad = vec![
            ResourceSpec::pooled("nodes", 10.0, DemandSlot::Nodes),
            ResourceSpec::pooled("x", -1.0, DemandSlot::Extra(0)),
        ];
        assert_eq!(ResourceModel::new(bad).unwrap_err(), ResourceModelError::InvalidAmount(1));
        // Error type is a real std error.
        let e: Box<dyn std::error::Error> = Box::new(ResourceModelError::Empty);
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn demand_slots_route_to_fields() {
        let m = ResourceModel::new(vec![
            ResourceSpec::pooled("nodes", 10.0, DemandSlot::Nodes),
            ResourceSpec::pooled("bb", 10.0, DemandSlot::BbGb),
            ResourceSpec::pooled("gpus", 16.0, DemandSlot::Extra(0)),
        ])
        .unwrap();
        let d = JobDemand::cpu_bb(4, 7.0).with_extra(0, 2.0);
        assert_eq!(m.demand_of(&d, 0), 4.0);
        assert_eq!(m.demand_of(&d, 1), 7.0);
        assert_eq!(m.demand_of(&d, 2), 2.0);
    }
}
