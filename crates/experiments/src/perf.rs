//! Engine performance accounting for the figure binaries.
//!
//! Every run returns its own [`PerfCounters`] and end time; a figure
//! merges the counters of its own runs into one [`Totals`] (every field
//! summed, `peak_pending` the largest), and the binaries wrap the figure
//! in [`timed`] to print an engine-rate line: events processed, ns/event,
//! and simulated seconds per wall-clock second.
//!
//! There is no process-global accumulator: counters travel with the run
//! that produced them, so two figures computed concurrently cannot see
//! each other's events. Reading (or not reading) them cannot change
//! simulation results — `tests/determinism.rs` in this crate pins that.

// Host-side instrumentation: wall-clock here measures the harness itself
// and never feeds the simulation.
#![allow(clippy::disallowed_methods)]

use ecnsharp_net::PerfCounters;
use ecnsharp_sim::SimTime;
use std::time::Instant;

/// Engine counters merged over one or more runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// The runs' counters: every field summed, except `peak_pending`,
    /// the largest peak of any single run.
    pub counters: PerfCounters,
    /// Simulated nanoseconds, summed over runs.
    pub sim_nanos: u64,
    /// Number of merged runs.
    pub runs: u64,
}

impl Totals {
    /// The totals of one finished run: its counters and its end time.
    pub fn run(counters: PerfCounters, end: SimTime) -> Totals {
        Totals {
            counters,
            sim_nanos: end.as_nanos(),
            runs: 1,
        }
    }

    /// Fold `other` into `self`. Sum and max are commutative, so the
    /// merge order of parallel workers cannot change the result.
    pub fn merge(&mut self, other: &Totals) {
        // Destructured so a new counter cannot be silently left out.
        let PerfCounters {
            events_pushed,
            events_popped,
            peak_pending,
            packets_forwarded,
            ce_marks,
            drops,
            timers_armed,
            timers_cancelled,
            timers_fired,
            timers_stale_suppressed,
            heap_spills,
            flows_failed,
            no_route_drops,
            fault_drops,
            corrupt_drops,
            burst_drops,
        } = other.counters;
        let c = &mut self.counters;
        c.events_pushed += events_pushed;
        c.events_popped += events_popped;
        c.peak_pending = c.peak_pending.max(peak_pending);
        c.packets_forwarded += packets_forwarded;
        c.ce_marks += ce_marks;
        c.drops += drops;
        c.timers_armed += timers_armed;
        c.timers_cancelled += timers_cancelled;
        c.timers_fired += timers_fired;
        c.timers_stale_suppressed += timers_stale_suppressed;
        c.heap_spills += heap_spills;
        c.flows_failed += flows_failed;
        c.no_route_drops += no_route_drops;
        c.fault_drops += fault_drops;
        c.corrupt_drops += corrupt_drops;
        c.burst_drops += burst_drops;
        self.sim_nanos += other.sim_nanos;
        self.runs += other.runs;
    }
}

impl std::iter::Sum for Totals {
    fn sum<I: Iterator<Item = Totals>>(iter: I) -> Totals {
        iter.fold(Totals::default(), |mut acc, t| {
            acc.merge(&t);
            acc
        })
    }
}

/// Outcome of a [`timed`] section: the callee's result plus the rate
/// report.
pub struct Timed<R> {
    /// What the wrapped closure returned.
    pub result: R,
    /// Wall-clock seconds spent.
    pub wall_secs: f64,
    /// Engine counters of the runs the section returned.
    pub perf: Totals,
}

impl<R> Timed<R> {
    /// Events processed per wall-clock second (0 when nothing ran).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.perf.counters.events_popped as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Simulated seconds per wall-clock second, the headline engine rate.
    pub fn sim_secs_per_wall_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.perf.sim_nanos as f64 / 1e9 / self.wall_secs
        } else {
            0.0
        }
    }

    /// The [`Timed::report`] line as one JSON object (no trailing newline),
    /// for the `ECNSHARP_PERF_JSON` sink and machine consumers.
    pub fn to_json(&self, name: &str) -> String {
        let (p, c) = (&self.perf, &self.perf.counters);
        format!(
            "{{\"name\":{:?},\"wall_secs\":{:.6},\"events_pushed\":{},\"events_popped\":{},\
             \"peak_pending\":{},\"packets_forwarded\":{},\"ce_marks\":{},\"drops\":{},\
             \"sim_nanos\":{},\"runs\":{},\"timers_armed\":{},\"timers_cancelled\":{},\
             \"timers_fired\":{},\"timers_stale_suppressed\":{},\"heap_spills\":{},\
             \"flows_failed\":{},\
             \"no_route_drops\":{},\"events_per_sec\":{:.1},\"sim_secs_per_wall_sec\":{:.4}}}",
            name,
            self.wall_secs,
            c.events_pushed,
            c.events_popped,
            c.peak_pending,
            c.packets_forwarded,
            c.ce_marks,
            c.drops,
            p.sim_nanos,
            p.runs,
            c.timers_armed,
            c.timers_cancelled,
            c.timers_fired,
            c.timers_stale_suppressed,
            c.heap_spills,
            c.flows_failed,
            c.no_route_drops,
            self.events_per_sec(),
            self.sim_secs_per_wall_sec(),
        )
    }

    /// One-line human-readable rate report for a figure binary.
    ///
    /// When `ECNSHARP_PERF_JSON=<path>` is set, the same report is also
    /// appended to `<path>` as one JSON line (see [`Timed::to_json`]).
    /// The knob is strict: an empty value, or a path that cannot be
    /// written, prints an error and exits 2 — a perf log that silently
    /// went nowhere is worse than no run.
    pub fn report(&self, name: &str) -> String {
        if let Some(path) = crate::telemetry::perf_json_path_or_exit() {
            if let Err(e) = crate::telemetry::append_line(&path, &self.to_json(name)) {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
        let (p, c) = (&self.perf, &self.perf.counters);
        let ns_per_event = if c.events_popped > 0 {
            self.wall_secs * 1e9 / c.events_popped as f64
        } else {
            0.0
        };
        format!(
            "[perf] {name}: wall {:.2}s | {} events ({:.1}M ev/s, {:.0} ns/ev) | \
             sim {:.3}s over {} runs ({:.2} sim-s/wall-s) | {} pkts fwd, {} CE marks, {} drops | \
             timers: {} armed, {} cancelled, {} fired, {} stale-suppressed | \
             {} heap spills | faults: {} failed flows, {} no-route drops",
            self.wall_secs,
            c.events_popped,
            self.events_per_sec() / 1e6,
            ns_per_event,
            p.sim_nanos as f64 / 1e9,
            p.runs,
            self.sim_secs_per_wall_sec(),
            c.packets_forwarded,
            c.ce_marks,
            c.drops,
            c.timers_armed,
            c.timers_cancelled,
            c.timers_fired,
            c.timers_stale_suppressed,
            c.heap_spills,
            c.flows_failed,
            c.no_route_drops,
        )
    }
}

/// Run `f`, which returns a result and the merged counters of the runs
/// it made, and return both with the wall time. The figure binaries use
/// this so every invocation reports sim-seconds-per-wall-second.
pub fn timed<R>(f: impl FnOnce() -> (R, Totals)) -> Timed<R> {
    let t0 = Instant::now();
    let (result, perf) = f();
    let wall_secs = t0.elapsed().as_secs_f64();
    Timed {
        result,
        wall_secs,
        perf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_incast_micro, IncastTimeline, Scheme};
    use ecnsharp_net::NoopSubscriber;

    fn incast() -> Totals {
        let (r, _) = run_incast_micro(
            Scheme::DctcpRedTail,
            4,
            1,
            IncastTimeline::Compressed,
            NoopSubscriber,
        );
        Totals::run(r.perf, r.end)
    }

    #[test]
    fn timed_reports_engine_rate() {
        // A tiny real run: the quick incast micro scenario.
        let t = timed(|| ((), incast()));
        let c = &t.perf.counters;
        assert_eq!(t.perf.runs, 1);
        assert!(c.events_popped > 0);
        assert!(c.events_pushed >= c.events_popped);
        assert!(t.perf.sim_nanos > 0);
        assert!(c.packets_forwarded > 0);
        let line = t.report("test");
        assert!(line.contains("sim-s/wall-s"), "{line}");
        assert!(line.contains("[perf] test:"), "{line}");
        let json = t.to_json("test");
        assert!(json.starts_with("{\"name\":\"test\""), "{json}");
        assert!(json.ends_with('}'), "{json}");
        assert!(json.contains("\"events_popped\":"), "{json}");
        assert!(json.contains("\"sim_secs_per_wall_sec\":"), "{json}");
    }

    #[test]
    fn merge_sums_every_counter_but_maxes_the_peak() {
        let one = incast();
        let mut other = one;
        other.counters.peak_pending += 5;
        let both: Totals = [one, other].into_iter().sum();
        assert_eq!(both.runs, 2);
        assert_eq!(both.sim_nanos, 2 * one.sim_nanos);
        assert_eq!(both.counters.events_popped, 2 * one.counters.events_popped);
        assert_eq!(both.counters.drops, 2 * one.counters.drops);
        assert_eq!(both.counters.peak_pending, one.counters.peak_pending + 5);
        let reversed: Totals = [other, one].into_iter().sum();
        assert_eq!(both, reversed);
    }
}
