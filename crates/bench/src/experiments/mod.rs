//! One module per reproduced table/figure. Each exposes
//! `run(scale) -> Vec<Table>`: `Scale::Quick` shrinks workload sizes
//! for CI; `Scale::Full` matches the paper's parameters. `run` writes
//! nothing — the `experiments` binary emits what it returns.

pub mod chaos;
pub mod churn;
pub mod faults;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig8;
pub mod fig9;
pub mod recovery;
pub mod scale;
pub mod service;
pub mod tab1;
pub mod telemetry;
pub mod throughput;

/// Workload sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale runs for tests and smoke checks.
    Quick,
    /// The paper's parameters (minutes-scale).
    Full,
}

impl Scale {
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}
