//! Run-level timing: what the `figs` summary line and the benchmark's
//! busy-time share are computed from.

/// Timing record of one executed sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Point index within the sweep.
    pub index: usize,
    /// Wall-clock seconds the point took.
    pub secs: f64,
}

/// Everything a [`crate::SweepRunner`] executed: thread count and the
/// per-point records in point order.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Configured worker-thread count.
    pub threads: usize,
    /// Per-point timing records.
    pub records: Vec<PointRecord>,
}

impl RunReport {
    /// Total compute time summed over points (≈ wall time · threads when
    /// the sweep parallelises well).
    pub fn busy_secs(&self) -> f64 {
        self.records.iter().map(|r| r.secs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_time_sums_points() {
        let report = RunReport {
            threads: 2,
            records: vec![
                PointRecord {
                    index: 0,
                    secs: 0.5,
                },
                PointRecord {
                    index: 1,
                    secs: 1.0,
                },
            ],
        };
        assert!((report.busy_secs() - 1.5).abs() < 1e-12);
    }
}
