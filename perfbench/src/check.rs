//! Per-run correctness checks and the simulation digest.

use crate::workload::LINK_GBPS;
use ecnsharp_net::{FlowCmd, FlowOutcome, FlowRecord, PerfCounters};
use ecnsharp_sim::SimTime;

/// How the scheduled flows ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Flows scheduled.
    pub scheduled: u64,
    /// Flows that completed.
    pub completed: u64,
    /// Flows their sender aborted.
    pub failed: u64,
}

/// Check a finished run: every scheduled flow has exactly one record,
/// `Completed` or `Failed`, and no completed flow beat its size at line
/// rate. Flow ids must be `1..=flows.len()`, as the generators produce.
/// A flow that never finished has no record and fails the check.
pub fn check_records(
    flows: &[(SimTime, FlowCmd)],
    records: &[FlowRecord],
) -> Result<Outcome, String> {
    let n = flows.len();
    let mut seen = vec![false; n];
    let mut completed = 0u64;
    let mut failed = 0u64;
    for r in records {
        let idx = (r.flow.0 as usize)
            .checked_sub(1)
            .filter(|&i| i < n)
            .ok_or_else(|| format!("record for unscheduled flow {}", r.flow.0))?;
        if std::mem::replace(&mut seen[idx], true) {
            return Err(format!("flow {} has more than one record", r.flow.0));
        }
        let cmd = &flows[idx].1;
        if r.size != cmd.size || r.src != cmd.src || r.dst != cmd.dst {
            return Err(format!(
                "record of flow {} does not match its command",
                r.flow.0
            ));
        }
        match r.outcome {
            FlowOutcome::Completed => {
                completed += 1;
                // 10 Gbps moves 10 bits per ns: `size · 8 / 10` ns is the
                // payload alone at line rate, with no header, propagation
                // or queueing.
                let floor_ns = r.size * 8 / LINK_GBPS;
                if r.fct().as_nanos() < floor_ns {
                    return Err(format!(
                        "flow {} finished in {} ns, below its {} ns at line rate",
                        r.flow.0,
                        r.fct().as_nanos(),
                        floor_ns
                    ));
                }
            }
            FlowOutcome::Failed => failed += 1,
        }
    }
    if let Some(idx) = seen.iter().position(|s| !s) {
        return Err(format!("flow {} never finished", idx + 1));
    }
    Ok(Outcome {
        scheduled: n as u64,
        completed,
        failed,
    })
}

/// FNV-1a 64-bit, folded over little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// The FNV-1a offset basis.
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Fold one word in.
    pub fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// `sim_digest`: the flow records (in flow-id order) and the simulated
/// counters every engine reproduces exactly. The event-queue counters
/// (pushed, popped, peak pending, timer and spill counts) are left out:
/// the sharded engine re-pushes pending events when it splits the queue,
/// so they differ between serial and sharded runs of one scenario by
/// design. `steps` (events processed) is engine-independent and stands in
/// for them.
pub fn sim_digest(records: &[FlowRecord], steps: u64, perf: &PerfCounters) -> u64 {
    let mut sorted: Vec<&FlowRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.flow.0);
    let mut d = Digest::new();
    for r in sorted {
        d.word(r.flow.0);
        d.word(r.src.0 as u64);
        d.word(r.dst.0 as u64);
        d.word(r.size);
        d.word(r.start.as_nanos());
        d.word(r.finish.as_nanos());
        d.word(u64::from(r.class));
        d.word(u64::from(r.timeouts));
        d.word(u64::from(r.outcome == FlowOutcome::Completed));
    }
    for x in [
        steps,
        perf.packets_forwarded,
        perf.ce_marks,
        perf.drops,
        perf.flows_failed,
        perf.no_route_drops,
        perf.fault_drops,
        perf.corrupt_drops,
        perf.burst_drops,
    ] {
        d.word(x);
    }
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecnsharp_net::{FlowId, NodeId};
    use ecnsharp_sim::Duration;

    fn cmd(id: u64, size: u64) -> (SimTime, FlowCmd) {
        (
            SimTime::ZERO,
            FlowCmd {
                flow: FlowId(id),
                src: NodeId(0),
                dst: NodeId(1),
                size,
                class: 0,
                extra_delay: Duration::ZERO,
            },
        )
    }

    fn rec(id: u64, size: u64, fct_ns: u64, outcome: FlowOutcome) -> FlowRecord {
        FlowRecord {
            flow: FlowId(id),
            src: NodeId(0),
            dst: NodeId(1),
            size,
            start: SimTime::ZERO,
            finish: SimTime::from_nanos(fct_ns),
            class: 0,
            timeouts: 0,
            outcome,
        }
    }

    #[test]
    fn accepts_complete_runs_and_counts_failures() {
        let flows = [cmd(1, 1_000), cmd(2, 1_000)];
        let recs = [
            rec(2, 1_000, 5_000, FlowOutcome::Completed),
            rec(1, 1_000, 9_000, FlowOutcome::Failed),
        ];
        let o = check_records(&flows, &recs).unwrap();
        assert_eq!((o.scheduled, o.completed, o.failed), (2, 1, 1));
    }

    #[test]
    fn rejects_duplicates_strangers_and_impossible_fcts() {
        let flows = [cmd(1, 1_000)];
        let ok = rec(1, 1_000, 800, FlowOutcome::Completed);
        assert!(check_records(&flows, &[ok.clone(), ok.clone()]).is_err());
        assert!(check_records(&flows, &[rec(7, 1_000, 900, FlowOutcome::Completed)]).is_err());
        // 1000 B at 10 Gbps takes 800 ns; 799 ns is impossible.
        assert!(check_records(&flows, &[rec(1, 1_000, 799, FlowOutcome::Completed)]).is_err());
        assert!(check_records(&flows, &[ok]).is_ok());
    }

    #[test]
    fn rejects_flows_that_never_finished() {
        let flows = [cmd(1, 10), cmd(2, 10)];
        let err = check_records(&flows, &[rec(1, 10, 100, FlowOutcome::Completed)]).unwrap_err();
        assert!(err.contains("flow 2 never finished"), "{err}");
    }

    #[test]
    fn digest_ignores_record_order_but_not_content() {
        let a = rec(1, 10, 100, FlowOutcome::Completed);
        let b = rec(2, 10, 200, FlowOutcome::Completed);
        let p = PerfCounters::default();
        let d1 = sim_digest(&[a.clone(), b.clone()], 5, &p);
        assert_eq!(d1, sim_digest(&[b.clone(), a.clone()], 5, &p));
        assert_ne!(d1, sim_digest(&[a.clone(), b.clone()], 6, &p));
        let mut b2 = b;
        b2.finish = SimTime::from_nanos(201);
        assert_ne!(d1, sim_digest(&[a, b2], 5, &p));
    }
}
