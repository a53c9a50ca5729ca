//! Run plumbing: executing a workload under a policy on a machine, and
//! aggregation helpers.

use ladm_core::policies::Policy;
use ladm_sim::{GpuSystem, KernelStats, SimConfig};
use ladm_workloads::Workload;

/// Runs every kernel of `workload` back to back on a fresh machine built
/// from `cfg`, under `policy`. Returns the accumulated statistics. The
/// engine thread count is inherited from `LADM_SIM_THREADS` (serial by
/// default); statistics are bit-identical for any count.
pub fn run_workload(cfg: &SimConfig, workload: &Workload, policy: &dyn Policy) -> KernelStats {
    let mut sys = GpuSystem::new(cfg.clone());
    let mut total = KernelStats::default();
    for kernel in &workload.kernels {
        let stats = sys.run(&**kernel, policy);
        total.accumulate(&stats);
    }
    total
}

/// Geometric mean of strictly positive values; 0.0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladm_core::policies::Lasp;
    use ladm_workloads::{by_name, Scale};

    #[test]
    fn run_workload_accumulates_kernels() {
        let w = by_name("VecAdd", Scale::Test).expect("vecadd exists");
        let cfg = SimConfig::paper_multi_gpu();
        let stats = run_workload(&cfg, &w, &Lasp::ladm());
        assert!(stats.cycles > 0.0);
        assert_eq!(stats.threadblocks, w.launched_tbs());
    }

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        geomean(&[1.0, 0.0]);
    }
}
