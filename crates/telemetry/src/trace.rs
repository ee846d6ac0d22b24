//! Controller span tracing.
//!
//! A deploy or repair transaction decomposes into phases — route,
//! compile, admit, stage, commit, finalize — and the PR-4 transaction
//! ledger already accounts the modelled control-plane nanoseconds per
//! switch. [`DeployTrace`] turns both into a per-phase latency
//! breakdown. Control-plane spans use the *modelled* clock (op,
//! timeout and backoff costs from the retry policy), so traces are
//! deterministic under a seed; route and compile spans are the
//! controller's real wall-clock and are flagged as such.

use std::fmt::Write as _;

/// One phase of a deploy/repair transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeployPhase {
    /// Algorithm 1 routing.
    Route,
    /// Per-switch rule compilation.
    Compile,
    /// Admission: resource check of the staged pipeline. Rides the
    /// stage RPC, so its span carries verdict counts, not time.
    Admit,
    /// Phase one of the transaction: shadow-side staging.
    Stage,
    /// Phase two: atomically swap in the staged programs.
    Commit,
    /// Retire displaced programs once the transaction is safe.
    Finalize,
}

impl DeployPhase {
    pub fn label(&self) -> &'static str {
        match self {
            DeployPhase::Route => "route",
            DeployPhase::Compile => "compile",
            DeployPhase::Admit => "admit",
            DeployPhase::Stage => "stage",
            DeployPhase::Commit => "commit",
            DeployPhase::Finalize => "finalize",
        }
    }
}

/// A contiguous phase span. `start_ns` is the offset from transaction
/// start on the span's own clock: modelled control time for
/// stage/commit/finalize, wall-clock for route/compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    pub phase: DeployPhase,
    pub start_ns: u64,
    pub duration_ns: u64,
    /// `true` when `duration_ns` is modelled (deterministic) time.
    pub modelled: bool,
}

/// The per-switch slice of the stage/commit phases, lifted from the
/// transaction ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchSpan {
    pub switch: usize,
    /// Modelled control time spent staging (ops, timeouts, backoff).
    pub stage_ns: u64,
    /// Modelled control time spent committing.
    pub commit_ns: u64,
    pub attempts: u32,
    pub retries: u32,
    pub committed: bool,
    pub rolled_back: bool,
}

/// The life of one subscription request through the controller
/// service: accepted into a batch window, compiled, and finally
/// deployed (traffic-affecting). All stamps are on the service's
/// modelled clock, so spans are reproducible under a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpan {
    /// Service-assigned request id.
    pub request: u64,
    /// The subscribing (or unsubscribing) host.
    pub host: usize,
    /// When the request entered intake.
    pub arrival_ns: u64,
    /// When its batch window closed.
    pub batched_ns: u64,
    /// When its transaction's compile finished.
    pub compiled_ns: u64,
    /// When its transaction's install committed — the moment the
    /// request affects traffic.
    pub deployed_ns: u64,
}

impl RequestSpan {
    /// Request → first packet deliverable: the service experiment's
    /// p99 metric.
    pub fn time_to_traffic_ns(&self) -> u64 {
        self.deployed_ns.saturating_sub(self.arrival_ns)
    }
}

/// A rendered deploy/repair transaction: phase spans plus the
/// per-switch ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeployTrace {
    pub spans: Vec<PhaseSpan>,
    pub switches: Vec<SwitchSpan>,
}

impl DeployTrace {
    /// Assemble a trace from the controller's measured route/compile
    /// wall times and the ledger-derived per-switch spans. The
    /// controller drives switches sequentially over the control
    /// channel, so phase durations are sums of per-switch times.
    pub fn build(route_ns: u64, compile_ns: u64, switches: Vec<SwitchSpan>) -> Self {
        let stage_ns: u64 = switches.iter().map(|s| s.stage_ns).sum();
        let commit_ns: u64 = switches.iter().map(|s| s.commit_ns).sum();
        let spans = vec![
            PhaseSpan {
                phase: DeployPhase::Route,
                start_ns: 0,
                duration_ns: route_ns,
                modelled: false,
            },
            PhaseSpan {
                phase: DeployPhase::Compile,
                start_ns: route_ns,
                duration_ns: compile_ns,
                modelled: false,
            },
            // Admission is decided inside the stage RPC; the span
            // exists so the phase sequence is complete, its time is
            // accounted under Stage.
            PhaseSpan { phase: DeployPhase::Admit, start_ns: 0, duration_ns: 0, modelled: true },
            PhaseSpan {
                phase: DeployPhase::Stage,
                start_ns: 0,
                duration_ns: stage_ns,
                modelled: true,
            },
            PhaseSpan {
                phase: DeployPhase::Commit,
                start_ns: stage_ns,
                duration_ns: commit_ns,
                modelled: true,
            },
            PhaseSpan {
                phase: DeployPhase::Finalize,
                start_ns: stage_ns + commit_ns,
                duration_ns: 0,
                modelled: true,
            },
        ];
        DeployTrace { spans, switches }
    }

    /// Total modelled control-plane time (stage + commit + finalize).
    pub fn modelled_control_ns(&self) -> u64 {
        self.spans.iter().filter(|s| s.modelled).map(|s| s.duration_ns).sum()
    }

    /// Switches that needed at least one retry.
    pub(crate) fn retried_switches(&self) -> usize {
        self.switches.iter().filter(|s| s.retries > 0).count()
    }

    /// Render the per-phase latency breakdown as a small text table.
    pub fn render(&self) -> String {
        let mut out = String::from("phase      clock     duration_ns\n");
        for s in &self.spans {
            let clock = if s.modelled { "modelled" } else { "wall" };
            let _ = writeln!(out, "{:<10} {:<9} {}", s.phase.label(), clock, s.duration_ns);
        }
        let _ = writeln!(
            out,
            "-- {} switches, {} committed, {} retried --",
            self.switches.len(),
            self.switches.iter().filter(|s| s.committed).count(),
            self.retried_switches()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_builds_phase_breakdown_from_ledger() {
        let switches = vec![
            SwitchSpan {
                switch: 0,
                stage_ns: 20_000,
                commit_ns: 20_000,
                attempts: 2,
                retries: 0,
                committed: true,
                rolled_back: false,
            },
            SwitchSpan {
                switch: 1,
                stage_ns: 170_000,
                commit_ns: 20_000,
                attempts: 3,
                retries: 1,
                committed: true,
                rolled_back: false,
            },
        ];
        let t = DeployTrace::build(1_000, 2_000, switches);
        let phase_ns = |p| t.spans.iter().find(|s| s.phase == p).unwrap().duration_ns;
        assert_eq!(phase_ns(DeployPhase::Route), 1_000);
        assert_eq!(phase_ns(DeployPhase::Compile), 2_000);
        assert_eq!(phase_ns(DeployPhase::Stage), 190_000);
        assert_eq!(phase_ns(DeployPhase::Commit), 40_000);
        assert_eq!(t.modelled_control_ns(), 230_000);
        assert_eq!(t.retried_switches(), 1);
        let text = t.render();
        assert!(text.contains("stage"));
        assert!(text.contains("modelled"));
        assert!(text.contains("2 committed"));
    }

    #[test]
    fn time_to_traffic_saturates() {
        let span = RequestSpan {
            request: 7,
            host: 3,
            arrival_ns: 100,
            batched_ns: 300,
            compiled_ns: 900,
            deployed_ns: 1_500,
        };
        assert_eq!(span.time_to_traffic_ns(), 1_400);
        // A clock-skewed stamp must not panic the metric.
        let skew = RequestSpan { deployed_ns: 50, ..span };
        assert_eq!(skew.time_to_traffic_ns(), 0);
    }
}
