//! # ladm
//!
//! Facade crate for the LADM reproduction — *Locality-Centric Data and
//! Threadblock Management for Massive GPUs* (MICRO 2020). Re-exports the
//! three workspace layers:
//!
//! * [`core`] (`ladm-core`) — index analysis, LASP placement/scheduling,
//!   CRB cache policy and the baseline policies,
//! * [`sim`] (`ladm-sim`) — the hierarchical NUMA multi-GPU simulator,
//! * [`workloads`] (`ladm-workloads`) — the 27-benchmark evaluation suite,
//! * [`analyzer`] (`ladm-analyzer`) — the locality linter (`ladm-lint`),
//! * [`obs`] (`ladm-obs`) — tracing sinks, Chrome-trace/heatmap
//!   exporters and the counter registry.
//!
//! See the repository `examples/` directory for runnable end-to-end
//! scenarios, starting with `quickstart.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ladm_analyzer as analyzer;
pub use ladm_core as core;
pub use ladm_obs as obs;
pub use ladm_sim as sim;
pub use ladm_workloads as workloads;

/// Convenience prelude re-exporting the types almost every user needs.
pub mod prelude {
    pub use ladm_core::analysis::{AccessClass, GridShape};
    pub use ladm_core::launch::{ArgStatic, KernelStatic, LaunchInfo};
    pub use ladm_core::policies::{
        BaselineRr, BatchFt, CacheMode, Coda, KernelWide, Lasp, Manual, Policy,
    };
    pub use ladm_core::topology::{NodeId, Topology};
    pub use ladm_sim::{GpuSystem, KernelExec, KernelStats, SimConfig};
    pub use ladm_workloads::{Workload, WorkloadKind};
}
