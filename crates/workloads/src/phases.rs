//! Time-varying (phased) workloads — Figure 10.
//!
//! The paper's "varying workload" experiment breaks a run into phases of
//! 0.5–1 s each; in each phase the number of active threads is drawn from
//! 1–24 and the critical-section length changes, while 30 background threads
//! occupy the processor. The same lock object(s) persist across phases, so
//! an adaptive lock must keep re-deciding its mode.

use std::sync::Arc;
use std::time::Duration;

use gls_runtime::SystemLoadMonitor;

use crate::bench_lock::BenchLock;
use crate::microbench::{self, LockSelection, MicrobenchConfig};
use crate::multiprog::BackgroundSpinners;

/// One phase of a varying workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// Number of worker threads active during this phase.
    pub threads: usize,
    /// Critical-section length in cycles.
    pub cs_cycles: u64,
    /// Phase duration.
    pub duration: Duration,
}

/// Throughput measured for one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseResult {
    /// The phase that was executed.
    pub phase: Phase,
    /// Completed critical sections.
    pub total_ops: u64,
    /// Throughput in Mops/s.
    pub mops: f64,
}

/// The exact phase parameters printed on top of the paper's Figure 10
/// (threads, critical-section cycles), phases 0–13.
pub fn paper_figure10_phases(duration: Duration) -> Vec<Phase> {
    const THREADS: [usize; 14] = [16, 7, 19, 2, 7, 21, 7, 19, 8, 11, 24, 19, 16, 8];
    const CS: [u64; 14] = [
        971, 706, 658, 765, 525, 665, 388, 1004, 310, 678, 733, 589, 479, 675,
    ];
    THREADS
        .iter()
        .zip(CS.iter())
        .map(|(&threads, &cs_cycles)| Phase {
            threads,
            cs_cycles,
            duration,
        })
        .collect()
}

/// Runs every phase in order against the same lock objects, with
/// `background_spinners` extra busy threads for the whole run.
pub fn run_phases(
    locks: &[Arc<dyn BenchLock>],
    phases: &[Phase],
    background_spinners: usize,
    monitor: Option<Arc<SystemLoadMonitor>>,
) -> Vec<PhaseResult> {
    let _spinners = BackgroundSpinners::start(background_spinners, monitor.clone());
    phases
        .iter()
        .map(|phase| {
            let result = microbench::run(
                locks,
                &MicrobenchConfig {
                    threads: phase.threads,
                    cs_cycles: phase.cs_cycles,
                    delay_cycles: 100,
                    duration: phase.duration,
                    selection: LockSelection::Uniform,
                    background_spinners: 0,
                    monitor: monitor.clone(),
                    seed: 0xF16,
                },
            );
            PhaseResult {
                phase: *phase,
                total_ops: result.total_ops,
                mops: result.mops(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_lock::{make_locks, LockSetup};
    use gls_locks::LockKind;

    #[test]
    fn paper_phases_match_the_figure_annotations() {
        let phases = paper_figure10_phases(Duration::from_millis(100));
        assert_eq!(phases.len(), 14);
        assert_eq!(phases[0].threads, 16);
        assert_eq!(phases[0].cs_cycles, 971);
        assert_eq!(phases[3].threads, 2);
        assert_eq!(phases[10].threads, 24);
    }

    #[test]
    fn run_phases_produces_one_result_per_phase() {
        let locks = make_locks(&LockSetup::Direct(LockKind::Glk), 1);
        let phases = vec![
            Phase {
                threads: 1,
                cs_cycles: 100,
                duration: Duration::from_millis(50),
            },
            Phase {
                threads: 3,
                cs_cycles: 400,
                duration: Duration::from_millis(50),
            },
        ];
        let results = run_phases(&locks, &phases, 0, None);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(r.total_ops > 0);
            assert!(r.mops > 0.0);
        }
    }
}
