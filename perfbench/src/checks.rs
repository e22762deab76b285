//! Output checks on a finished schedule.

use crate::trace::Counters;
use bbsched_core::problem::SSD_SMALL_GB;
use bbsched_sched::SimResult;
use bbsched_workloads::Trace;

/// Every job starts and finishes exactly once, and the nodes, burst
/// buffer and per-flavour SSD nodes in use, recomputed from the records,
/// never exceed the machine.
pub fn schedule(result: &SimResult, trace: &Trace, counters: &Counters) -> Result<(), String> {
    let n = trace.len() as u64;
    if counters.starts != n || counters.finished != n {
        return Err(format!(
            "{} jobs: {} start decisions, {} finishes",
            n, counters.starts, counters.finished
        ));
    }
    let mut ids: Vec<u64> = result.records.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    let mut want: Vec<u64> = trace.jobs().iter().map(|j| j.id).collect();
    want.sort_unstable();
    if ids != want {
        return Err(format!("records do not name every job exactly once ({} records)", ids.len()));
    }

    let system = &result.system;
    let ssd = system.has_local_ssd();
    // (time, +1 start / -1 end, record index); ends sort before starts
    // at the same instant, since a finishing job frees its resources
    // before the invocation at that instant runs.
    let mut events: Vec<(f64, i8, usize)> = Vec::with_capacity(2 * result.records.len());
    for (i, r) in result.records.iter().enumerate() {
        if !(r.start >= r.submit && r.start.is_finite()) || r.end != r.start + r.runtime {
            return Err(format!(
                "job {}: start {} submit {} end {}",
                r.id, r.start, r.submit, r.end
            ));
        }
        if ssd {
            let [n128, n256] = [r.assignment.per_flavor[0], r.assignment.per_flavor[1]];
            if n128 + n256 != r.nodes || (r.ssd_gb_per_node > SSD_SMALL_GB && n128 > 0) {
                return Err(format!("job {}: flavour split {n128}+{n256} of {}", r.id, r.nodes));
            }
        }
        events.push((r.start, 1, i));
        events.push((r.end, -1, i));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let bb_cap = system.bb_usable_gb() * (1.0 + 1e-9) + 1e-6;
    let (mut nodes, mut bb, mut n128, mut n256) = (0i64, 0.0f64, 0i64, 0i64);
    for (t, sign, i) in events {
        let r = &result.records[i];
        let s = i64::from(sign);
        nodes += s * i64::from(r.nodes);
        bb += f64::from(sign) * r.bb_gb;
        n128 += s * i64::from(r.assignment.per_flavor[0]);
        n256 += s * i64::from(r.assignment.per_flavor[1]);
        let over_ssd =
            ssd && (n128 > i64::from(system.nodes_128) || n256 > i64::from(system.nodes_256));
        if nodes > i64::from(system.nodes) || bb > bb_cap || over_ssd {
            return Err(format!(
                "capacity exceeded at t={t}: nodes {nodes}/{}, bb {bb:.1}/{:.1}, ssd nodes \
                 {n128}/{} + {n256}/{}",
                system.nodes,
                system.bb_usable_gb(),
                system.nodes_128,
                system.nodes_256
            ));
        }
    }
    Ok(())
}
