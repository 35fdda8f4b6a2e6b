//! Maintenance policy: the paper's §4.1 and §6 optimizations (switchable
//! for the ablation benchmarks) and the durable engine's fsync policy.
//! Static plan verification is not a knob: every compiled plan is verified
//! (see [`crate::compile`]). The secondary-delta strategy is not a
//! knob: each indirect term uses the view (§5.2) when the view outputs the
//! columns it needs and base tables (§5.3) otherwise.

use ojv_durability::FsyncPolicy;

/// Policy for one maintenance run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintenancePolicy {
    /// Exploit foreign keys (§6): `SimplifyTree` on the primary delta and
    /// the Theorem 3 reduced maintenance graph.
    pub use_fk: bool,
    /// Convert the primary delta to a left-deep tree (§4.1).
    pub left_deep: bool,
    /// True when this insert/delete pair is the decomposition of an SQL
    /// `UPDATE` — the §6 caveat list forbids the FK optimizations then
    /// (the "deleted" keys may be re-inserted by the paired statement).
    pub update_decomposition: bool,
    /// When the database is opened durably ([`crate::DurableDatabase`]),
    /// how often WAL appends are flushed to stable storage. Ignored by the
    /// purely in-memory [`crate::Database`].
    pub fsync: FsyncPolicy,
}

impl Default for MaintenancePolicy {
    fn default() -> Self {
        MaintenancePolicy {
            use_fk: true,
            left_deep: true,
            update_decomposition: false,
            fsync: FsyncPolicy::Always,
        }
    }
}

impl MaintenancePolicy {
    /// The full paper configuration (all optimizations on).
    pub fn paper() -> Self {
        Self::default()
    }

    /// All optimizations off — the naive two-step procedure.
    pub fn naive() -> Self {
        MaintenancePolicy {
            use_fk: false,
            left_deep: false,
            ..Default::default()
        }
    }

    /// Whether FK optimizations apply to this run (§6 caveats).
    pub fn fk_enabled(&self) -> bool {
        self.use_fk && !self.update_decomposition
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_everything() {
        let p = MaintenancePolicy::default();
        assert!(p.use_fk && p.left_deep);
        assert!(p.fk_enabled());
    }

    #[test]
    fn update_decomposition_disables_fk() {
        let p = MaintenancePolicy {
            update_decomposition: true,
            ..Default::default()
        };
        assert!(!p.fk_enabled());
    }

    #[test]
    fn naive_policy() {
        let p = MaintenancePolicy::naive();
        assert!(!p.use_fk && !p.left_deep);
    }
}
