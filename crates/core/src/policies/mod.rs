//! NUMA management policies: LASP/LADM and the state-of-the-art baselines
//! it is evaluated against (paper Table I).
//!
//! | Policy | Page placement | TB scheduling | Source |
//! |---|---|---|---|
//! | [`BaselineRr`] | page round-robin | TB round-robin | Vijayaraghavan et al. |
//! | [`BatchFt`] | first-touch | static batched round-robin | Arunkumar et al. (MCM-GPU) |
//! | [`KernelWide`] | N contiguous chunks | N contiguous chunks | Milic et al. |
//! | [`Coda`] | page round-robin | alignment-aware batches | Kim et al. (CODA / H-CODA) |
//! | [`Lasp`] | locality-driven (Table II) | locality-driven (Table II) | this paper |
//! | [`Swizzle`] | first-touch / RR / LASP's | space-filling [`curve`] rasterization | CUTLASS-style CTA swizzling |
//!
//! All policies implement [`Policy`]: a pure function from a
//! [`LaunchInfo`] and [`Topology`] to a [`KernelPlan`]. The shipped
//! lineup is enumerated by [`registry`]; experiment code and the
//! fuzzer's generator resolve policies through it so they cannot drift.

mod baseline;
mod batchft;
mod coda;
pub mod curve;
mod kernelwide;
mod lasp;
mod manual;
pub mod registry;
mod swizzle;

pub use baseline::BaselineRr;
pub use batchft::BatchFt;
pub use coda::Coda;
pub use kernelwide::KernelWide;
pub use lasp::{CacheMode, Lasp};
pub use manual::Manual;
pub use registry::{fig4_lineup, fig9_lineup, swizzle_lineup, PolicyEntry};
pub use swizzle::{Swizzle, SwizzlePlacement, DEFAULT_GROUP, DEFAULT_TWO_LEVEL_BATCH};

use crate::launch::LaunchInfo;
use crate::plan::KernelPlan;
use crate::topology::Topology;
use ladm_obs::{Event, TraceSink};
use std::fmt;

/// Explanation of one argument's role in a policy's planning decision:
/// how it classified, what scheduler it voted for, and whether it won
/// the input-size-aware tie-break. Consumed by the observability layer
/// (`ladm-obs`) when a trace sink is attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgDecision {
    /// Argument index in declaration order.
    pub arg: usize,
    /// Argument name from the kernel signature.
    pub name: &'static str,
    /// Display form of the Table II access classification.
    pub class: String,
    /// Scheduler this structure voted for (`row-binding`,
    /// `col-binding`, `rr-batch` or `kernel-wide`).
    pub preference: &'static str,
    /// Allocation size in bytes (the tie-break weight).
    pub bytes: u64,
    /// Whether this structure won the tie-break and dictated the
    /// kernel-wide schedule.
    pub winner: bool,
}

/// Narrates a planned launch to `sink`: one [`Event::KernelBegin`]
/// naming `policy` and the plan's schedule, then one
/// [`Event::ArgDecision`] per decision carrying the placement the plan
/// chose for that argument. The one producer of both events, shared by
/// the runtime's launch path and every simulator launch.
pub fn narrate_launch(
    sink: &dyn TraceSink,
    launch: &LaunchInfo,
    policy: &str,
    plan: &KernelPlan,
    decisions: &[ArgDecision],
) {
    let kernel = launch.kernel.name;
    sink.record(Event::KernelBegin {
        kernel: kernel.to_string(),
        policy: policy.to_string(),
        grid: launch.grid,
        schedule: plan.schedule.to_string(),
    });
    for d in decisions {
        let arg = &plan.args[d.arg];
        sink.record(Event::ArgDecision {
            kernel: kernel.to_string(),
            arg: d.arg,
            name: d.name.to_string(),
            class: d.class.clone(),
            preference: d.preference.to_string(),
            bytes: d.bytes,
            winner: d.winner,
            page_map: arg.pages.to_string(),
            remote_insert: arg.remote_insert.to_string(),
        });
    }
}

/// A NUMA page-placement + threadblock-scheduling + cache-insertion policy.
///
/// Implementations must be pure: the same launch and topology always yield
/// the same plan (first-touch placement defers the page→node choice to the
/// machine, but the *plan* is still deterministic).
pub trait Policy: fmt::Debug + Send + Sync {
    /// Short stable name used in experiment output (e.g. `"LADM"`).
    fn name(&self) -> &'static str;

    /// Computes the placement/scheduling/caching plan for one launch.
    fn plan(&self, launch: &LaunchInfo, topo: &Topology) -> KernelPlan;

    /// As [`Policy::plan`], additionally explaining the per-argument
    /// decision chain for tracing. The default returns no explanations;
    /// policies with an interesting decision process (LASP) override it.
    /// Must return exactly the plan [`Policy::plan`] would.
    fn plan_explained(
        &self,
        launch: &LaunchInfo,
        topo: &Topology,
    ) -> (KernelPlan, Vec<ArgDecision>) {
        (self.plan(launch, topo), Vec::new())
    }
}

/// Equation 1: round-robin interleaving granularity in pages for a strided
/// access: `ceil(stride_bytes / num_nodes) / page_bytes`, clamped to at
/// least one page.
pub fn eq1_interleave_gran_pages(stride_bytes: u64, num_nodes: u32, page_bytes: u64) -> u64 {
    let per_node = stride_bytes.div_ceil(u64::from(num_nodes.max(1)));
    (per_node / page_bytes).max(1)
}

/// Equation 2: minimum threadblock batch size that keeps batches
/// page-aligned: `page_bytes / datablock_bytes`, clamped to at least one.
pub fn eq2_min_tb_batch(page_bytes: u64, datablock_bytes: u64) -> u64 {
    if datablock_bytes == 0 {
        return 1;
    }
    (page_bytes / datablock_bytes).max(1)
}

/// Kernel-wide chunk size in pages for an allocation.
pub fn kernel_wide_pages_per_node(arg_pages: u64, num_nodes: u32) -> u64 {
    arg_pages.div_ceil(u64::from(num_nodes.max(1))).max(1)
}

/// Kernel-wide chunk size in threadblocks for a launch.
pub fn kernel_wide_tbs_per_node(total_tbs: u64, num_nodes: u32) -> u64 {
    total_tbs.div_ceil(u64::from(num_nodes.max(1))).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_examples() {
        // stride 512 KiB over 16 nodes with 4 KiB pages -> 8 pages.
        assert_eq!(eq1_interleave_gran_pages(512 << 10, 16, 4096), 8);
        // tiny stride clamps to one page.
        assert_eq!(eq1_interleave_gran_pages(64, 16, 4096), 1);
        // zero nodes guarded.
        assert_eq!(eq1_interleave_gran_pages(4096, 0, 4096), 1);
    }

    #[test]
    fn eq2_examples() {
        // 4 KiB page, 512 B datablock (128 floats) -> 8 TBs per batch.
        assert_eq!(eq2_min_tb_batch(4096, 512), 8);
        // datablock larger than a page -> batch of one.
        assert_eq!(eq2_min_tb_batch(4096, 8192), 1);
        // degenerate datablock guarded.
        assert_eq!(eq2_min_tb_batch(4096, 0), 1);
    }

    #[test]
    fn kernel_wide_helpers_round_up() {
        assert_eq!(kernel_wide_pages_per_node(100, 16), 7);
        assert_eq!(kernel_wide_tbs_per_node(1024, 16), 64);
        assert_eq!(kernel_wide_tbs_per_node(1, 16), 1);
    }
}
