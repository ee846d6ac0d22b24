//! Aggregation across a whole fault schedule.

use crate::scenario::EventReport;

/// Everything a fault run produced, one entry per injected fault.
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    pub events: Vec<EventReport>,
}

impl FaultReport {
    pub fn total_misdelivered(&self) -> usize {
        self.events.iter().map(|e| e.audit.misdelivered).sum()
    }

    pub fn all_recovered(&self) -> bool {
        self.events.iter().all(|e| e.recovered)
    }
}
