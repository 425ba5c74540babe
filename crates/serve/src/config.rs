//! Serving configuration: the admission policy's three knobs and the
//! per-cluster simnet configuration.

use distconv_simnet::MachineConfig;
use std::time::Duration;

/// Tunables of the serving layer. Defaults favor small deterministic
/// test runs over throughput.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Flush a partial batch once the oldest waiting request has
    /// queued this long.
    pub latency_budget: Duration,
    /// Bounded per-model queue: admitted-but-unbatched requests beyond
    /// this are rejected (backpressure).
    pub queue_capacity: usize,
    /// Number of cluster worker threads executing batches. Each runs
    /// its own simulated machine; the PR 4 thread-budget arbiter
    /// divides cores among whatever ranks they register.
    pub clusters: usize,
    /// Simnet configuration for every cluster (backend, faults, trace
    /// — chaos tests inject [`distconv_simnet::FaultPlan`]s here).
    pub machine: MachineConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            latency_budget: Duration::from_millis(25),
            queue_capacity: 64,
            clusters: 1,
            machine: MachineConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = ServeConfig::default();
        assert!(cfg.latency_budget > Duration::ZERO);
        assert!(cfg.queue_capacity > 0);
        assert_eq!(cfg.clusters, 1);
    }
}
