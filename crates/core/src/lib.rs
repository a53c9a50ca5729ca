//! # ladm-core
//!
//! Core algorithms of **LADM** — *Locality-Centric Data and Threadblock
//! Management for Massive GPUs* (Khairy, Nikiforov, Nellans, Rogers,
//! MICRO 2020): the threadblock-centric static index analysis, the LASP
//! runtime that turns classifications into page-placement and
//! threadblock-scheduling plans, and the CRB cache-insertion decision.
//!
//! The crate is machine-agnostic: plans are pure data
//! ([`plan::KernelPlan`]) consumed by the `ladm-sim` simulator substrate or,
//! in principle, a real driver.
//!
//! ## Pipeline
//!
//! ```text
//! CUDA index expressions           launch dims + sizes        machine
//!        │                                │                      │
//!   [expr::Expr] ──► [analysis::classify] ─► [policies::Lasp] ─► [plan::KernelPlan]
//!        │             (Table II rows)        (LASP + CRB)         │
//!   [table::LocalityTable]  ◄── compiler+runtime handshake ──►  simulator
//! ```
//!
//! ## Example
//!
//! ```
//! use ladm_core::expr::{Expr, Var};
//! use ladm_core::analysis::GridShape;
//! use ladm_core::launch::{ArgStatic, KernelStatic, LaunchInfo};
//! use ladm_core::policies::{Lasp, Policy};
//! use ladm_core::topology::Topology;
//!
//! // vecadd: C[bx*bDim.x + tx] = A[..] + B[..]
//! let idx = (Expr::var(Var::Bx) * Expr::var(Var::Bdx) + Expr::var(Var::Tx)).to_poly();
//! let kernel = KernelStatic {
//!     name: "vecadd",
//!     grid_shape: GridShape::OneD,
//!     args: vec![
//!         ArgStatic::read("a", 4, idx.clone()),
//!         ArgStatic::read("b", 4, idx.clone()),
//!         ArgStatic::write("c", 4, idx),
//!     ],
//! };
//! let launch = LaunchInfo::new(kernel, (10240, 1), (128, 1), vec![1 << 20; 3]);
//! let plan = Lasp::ladm().plan(&launch, &Topology::paper_multi_gpu());
//! println!("{plan}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod expr;
pub mod interval;
pub mod launch;
pub mod par;
pub mod plan;
pub mod policies;
pub mod rng;
pub mod runtime;
pub mod sequence;
pub mod session;
pub mod table;
pub mod topology;

pub use analysis::{AccessClass, ClassifyTrace, GridShape, Motion, Sharing};
pub use launch::{ArgStatic, KernelStatic, LaunchInfo};
pub use par::{parallel_map, parallel_map_labeled};
pub use plan::{ArgPlan, KernelPlan, PageMap, RemoteInsert, RrOrder, TbMap};
pub use policies::{
    ArgDecision, BaselineRr, BatchFt, CacheMode, Coda, KernelWide, Lasp, Manual, Policy,
};
pub use runtime::{LadmRuntime, LaunchError};
pub use sequence::{LaunchSequence, SeqAlloc};
pub use session::{PlacementSession, PlanProvenance, SessionPlan};
pub use table::{LocalityTable, MallocPc};
pub use topology::{GpuId, NodeId, Topology};
