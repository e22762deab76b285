//! Capacity clamping of job demands.
//!
//! A job whose demand can never fit the machine makes the queue head
//! unschedulable and would deadlock any non-backfilling path. Every
//! driver therefore runs submissions through [`clamp_demand`] before
//! handing them to the core: the simulator clamps a whole trace up front
//! (counting the clamped jobs in its result), and the online replay
//! driver clamps each submit event as it streams in. Keeping the rule in
//! one place is what makes the two drivers produce identical schedules.

use bbsched_core::problem::JobDemand;
use bbsched_core::resource::MAX_EXTRA;
use bbsched_workloads::{Job, SystemConfig};

/// Derives the demand the core will allocate for `job` on `system`,
/// clamped to total machine capacity. Returns the demand and whether any
/// component had to be clamped.
pub fn clamp_demand(system: &SystemConfig, job: &Job) -> (JobDemand, bool) {
    let usable_bb = system.bb_usable_gb();
    let mut d = JobDemand {
        nodes: job.nodes,
        bb_gb: job.bb_gb,
        ssd_gb_per_node: if system.has_local_ssd() { job.ssd_gb_per_node } else { 0.0 },
        ..JobDemand::default()
    };
    let mut clamped = false;
    if d.nodes > system.nodes {
        d.nodes = system.nodes;
        clamped = true;
    }
    if d.bb_gb > usable_bb {
        d.bb_gb = usable_bb;
        clamped = true;
    }
    if d.ssd_gb_per_node > 256.0 {
        d.ssd_gb_per_node = 256.0;
        clamped = true;
    }
    if d.ssd_gb_per_node > 128.0 && d.nodes > system.nodes_256 {
        // More >128 GB/node-SSD nodes requested than 256 GB nodes
        // exist: downgrade the request so the job stays schedulable.
        d.ssd_gb_per_node = 128.0;
        clamped = true;
    }
    for (i, extra) in system.extra_resources.iter().take(MAX_EXTRA).enumerate() {
        d.extra[i] = job.extra_demand(i);
        if d.extra[i] > extra.amount {
            d.extra[i] = extra.amount;
            clamped = true;
        }
    }
    (d, clamped)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system(nodes: u32, bb_gb: f64) -> SystemConfig {
        SystemConfig {
            name: "t".into(),
            nodes,
            bb_gb,
            bb_reserved_gb: 0.0,
            nodes_128: 0,
            nodes_256: 0,
            extra_resources: Vec::new(),
        }
    }

    #[test]
    fn fitting_job_is_untouched() {
        let sys = system(10, 1_000.0);
        let job = Job::new(0, 0.0, 4, 10.0, 20.0).with_bb(500.0);
        let (d, clamped) = clamp_demand(&sys, &job);
        assert!(!clamped);
        assert_eq!(d.nodes, 4);
        assert_eq!(d.bb_gb, 500.0);
    }

    #[test]
    fn oversized_demands_are_clamped() {
        let sys = system(10, 1_000.0);
        let job = Job::new(0, 0.0, 100, 10.0, 20.0).with_bb(9_999.0);
        let (d, clamped) = clamp_demand(&sys, &job);
        assert!(clamped);
        assert_eq!(d.nodes, 10);
        assert_eq!(d.bb_gb, 1_000.0);
    }

    #[test]
    fn ssd_requests_ignore_non_ssd_systems_and_downgrade() {
        let sys = system(10, 1_000.0);
        let job = Job::new(0, 0.0, 2, 10.0, 20.0).with_ssd(200.0);
        let (d, clamped) = clamp_demand(&sys, &job);
        assert_eq!(d.ssd_gb_per_node, 0.0, "non-SSD system drops the request");
        assert!(!clamped);

        let ssd_sys = SystemConfig { nodes_128: 8, nodes_256: 2, ..system(10, 1_000.0) };
        let wide = Job::new(1, 0.0, 4, 10.0, 20.0).with_ssd(300.0);
        let (d, clamped) = clamp_demand(&ssd_sys, &wide);
        // 300 → 256 (cap), then → 128 (only two 256 GB nodes exist).
        assert_eq!(d.ssd_gb_per_node, 128.0);
        assert!(clamped);
    }
}
