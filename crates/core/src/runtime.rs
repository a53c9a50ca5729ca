//! The end-to-end LADM runtime (paper Fig. 5): glue between the compiler
//! (locality table embedded in the executable), the allocator
//! (`cudaMallocManaged` interposition) and the kernel launch path (LASP).
//!
//! ```text
//! compile(kernel, malloc_pcs)      — once per kernel, at "compile time"
//! malloc_managed(pc, bytes)        — once per allocation, at run time
//! launch(name, grid, block, …)     — every launch: locality table + sizes
//!                                    → KernelPlan for the machine
//! ```

use crate::launch::{KernelStatic, LaunchInfo};
use crate::plan::KernelPlan;
use crate::policies::{narrate_launch, CacheMode, Lasp, Policy};
use crate::session::PlacementSession;
use crate::table::{LocalityTable, MallocPc};
use crate::topology::Topology;
use ladm_obs::TraceSink;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Errors produced by the runtime's launch path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// No kernel with this name was compiled into the runtime.
    UnknownKernel(String),
    /// A kernel argument's allocation site has not allocated yet.
    UnboundAllocation {
        /// The kernel being launched.
        kernel: String,
        /// Argument position missing its allocation.
        arg_index: usize,
        /// The allocation site the argument is bound to.
        malloc_pc: MallocPc,
    },
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::UnknownKernel(name) => {
                write!(
                    f,
                    "kernel '{name}' was not compiled into the locality table"
                )
            }
            LaunchError::UnboundAllocation {
                kernel,
                arg_index,
                malloc_pc,
            } => write!(
                f,
                "kernel '{kernel}' argument {arg_index} bound to 0x{:x} has no allocation",
                malloc_pc.0
            ),
        }
    }
}

impl Error for LaunchError {}

/// One tracked managed allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManagedAlloc {
    /// Assigned (virtual) base address.
    pub addr: u64,
    /// Length in bytes.
    pub bytes: u64,
}

/// The LADM runtime: owns the locality table, tracks allocations, and
/// plans every kernel launch with LASP.
///
/// # Examples
///
/// ```
/// use ladm_core::analysis::GridShape;
/// use ladm_core::expr::{Expr, Var};
/// use ladm_core::launch::{ArgStatic, KernelStatic};
/// use ladm_core::runtime::LadmRuntime;
/// use ladm_core::table::MallocPc;
/// use ladm_core::topology::Topology;
///
/// # fn main() -> Result<(), ladm_core::runtime::LaunchError> {
/// let idx = (Expr::var(Var::Bx) * Expr::var(Var::Bdx) + Expr::var(Var::Tx)).to_poly();
/// let kernel = KernelStatic {
///     name: "copy",
///     grid_shape: GridShape::OneD,
///     args: vec![ArgStatic::read("src", 4, idx.clone()), ArgStatic::write("dst", 4, idx)],
/// };
/// let mut rt = LadmRuntime::new(Topology::paper_multi_gpu());
/// rt.compile(kernel, vec![MallocPc(0x400), MallocPc(0x404)]);
/// rt.malloc_managed(MallocPc(0x400), 1 << 20);
/// rt.malloc_managed(MallocPc(0x404), 1 << 20);
/// let (_launch, plan) = rt.launch("copy", (2048, 1), (128, 1), &[])?;
/// println!("{plan}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LadmRuntime {
    topo: Topology,
    lasp: Lasp,
    page_bytes: u64,
    table: LocalityTable,
    kernels: Vec<(KernelStatic, Vec<MallocPc>)>,
    allocs: HashMap<MallocPc, ManagedAlloc>,
    next_addr: u64,
    sink: Option<Arc<dyn TraceSink>>,
}

impl LadmRuntime {
    /// Creates a runtime for `topo` with the full LADM configuration
    /// (LASP + CRB) and 4 KiB pages.
    pub fn new(topo: Topology) -> Self {
        LadmRuntime {
            topo,
            lasp: Lasp::ladm(),
            page_bytes: 4096,
            table: LocalityTable::new(),
            kernels: Vec::new(),
            allocs: HashMap::new(),
            next_addr: 4096,
            sink: None,
        }
    }

    /// Attaches a trace sink: every subsequent [`LadmRuntime::launch`]
    /// reports its classification outcome, per-structure scheduler
    /// preference, tie-break winner and chosen placement to it. Pass a
    /// sink whose `enabled()` is `false` (or call
    /// [`LadmRuntime::clear_sink`]) to turn tracing off again; the
    /// disabled path allocates nothing.
    pub fn set_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Detaches any attached trace sink.
    pub fn clear_sink(&mut self) {
        self.sink = None;
    }

    /// Selects a different cache-insertion mode (for the LASP+RTWICE /
    /// LASP+RONCE ablations).
    pub fn with_cache_mode(mut self, mode: CacheMode) -> Self {
        self.lasp = Lasp::new(mode);
        self
    }

    /// Overrides the page size.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two.
    pub fn with_page_bytes(mut self, page_bytes: u64) -> Self {
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        self.page_bytes = page_bytes;
        self
    }

    /// The "compiler" entry point: registers a kernel and the allocation
    /// site each argument aliases to (from pointer-alias analysis), and
    /// fills the static half of the locality table.
    ///
    /// # Panics
    ///
    /// Panics if `malloc_pcs.len()` differs from the kernel's argument
    /// count (a compiler-side invariant).
    pub fn compile(&mut self, kernel: KernelStatic, malloc_pcs: Vec<MallocPc>) {
        self.table.compile_kernel(&kernel, &malloc_pcs);
        self.kernels.push((kernel, malloc_pcs));
    }

    /// The `cudaMallocManaged` interposition: records the allocation made
    /// at call site `pc` and completes the table's dynamic half. Returns
    /// the assigned device address.
    pub fn malloc_managed(&mut self, pc: MallocPc, bytes: u64) -> u64 {
        let bytes = bytes.max(1);
        let addr = self.next_addr;
        self.next_addr += bytes.div_ceil(self.page_bytes).max(1) * self.page_bytes;
        self.allocs.insert(pc, ManagedAlloc { addr, bytes });
        let pages = bytes.div_ceil(self.page_bytes).max(1);
        self.table.bind_allocation(pc, addr, pages);
        addr
    }

    /// The kernel-launch path: assembles the launch descriptor from the
    /// locality table and the recorded allocations, and returns LASP's
    /// plan.
    ///
    /// # Errors
    ///
    /// Returns [`LaunchError::UnknownKernel`] if the kernel was never
    /// compiled, or [`LaunchError::UnboundAllocation`] if an argument's
    /// allocation site has not allocated yet.
    pub fn launch(
        &self,
        kernel_name: &str,
        grid: (u32, u32),
        block: (u32, u32),
        params: &[(&'static str, i64)],
    ) -> Result<(LaunchInfo, KernelPlan), LaunchError> {
        let _prof_launch = ladm_obs::prof::span("launch");
        let (kernel, pcs) = self
            .kernels
            .iter()
            .find(|(k, _)| k.name == kernel_name)
            .ok_or_else(|| LaunchError::UnknownKernel(kernel_name.to_string()))?;

        let mut arg_lens = Vec::with_capacity(kernel.args.len());
        for (arg_index, (&pc, arg)) in pcs.iter().zip(&kernel.args).enumerate() {
            let alloc = self.allocs.get(&pc).ok_or(LaunchError::UnboundAllocation {
                kernel: kernel_name.to_string(),
                arg_index,
                malloc_pc: pc,
            })?;
            arg_lens.push(alloc.bytes / u64::from(arg.elem_bytes.max(1)));
        }

        let mut launch =
            LaunchInfo::new(kernel.clone(), grid, block, arg_lens).with_page_bytes(self.page_bytes);
        for &(name, value) in params {
            launch = launch.with_param(name, value);
        }
        let _prof_plan = ladm_obs::prof::span("plan");
        // The one-shot path is a trivial single-launch session: every
        // argument registers without a commitment, so the decision
        // table degenerates to "plan fresh" and the output is
        // bit-identical to the stateless planner. Callers that want
        // placement memory carried across launches build a long-lived
        // session via [`LadmRuntime::session`] instead.
        let mut session = self.session();
        let binding: Vec<usize> = launch
            .kernel
            .args
            .iter()
            .enumerate()
            .map(|(i, arg)| session.alloc(arg.name, launch.arg_bytes(i).max(1), arg.elem_bytes))
            .collect();
        let (sp, decisions) = session.plan_launch_explained(&launch, &binding);
        if let Some(sink) = self.sink.as_deref().filter(|s| s.enabled()) {
            narrate_launch(sink, &launch, self.lasp.name(), &sp.plan, &decisions);
        }
        Ok((launch, sp.plan))
    }

    /// A fresh [`PlacementSession`] sharing this runtime's topology and
    /// policy — the entry point for cross-kernel placement memory.
    pub fn session(&self) -> PlacementSession {
        PlacementSession::new(self.topo, self.lasp)
    }

    /// The completed locality table (for inspection / display).
    pub fn table(&self) -> &LocalityTable {
        &self.table
    }

    /// Looks up a tracked allocation by its call site.
    pub fn allocation(&self, pc: MallocPc) -> Option<ManagedAlloc> {
        self.allocs.get(&pc).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::GridShape;
    use crate::expr::{Expr, Var};
    use crate::launch::ArgStatic;
    use crate::plan::TbMap;

    fn vecadd() -> KernelStatic {
        let idx = (Expr::var(Var::Bx) * Expr::var(Var::Bdx) + Expr::var(Var::Tx)).to_poly();
        KernelStatic {
            name: "vecadd",
            grid_shape: GridShape::OneD,
            args: vec![
                ArgStatic::read("a", 4, idx.clone()),
                ArgStatic::write("c", 4, idx),
            ],
        }
    }

    #[test]
    fn end_to_end_flow() {
        let mut rt = LadmRuntime::new(Topology::paper_multi_gpu());
        rt.compile(vecadd(), vec![MallocPc(0x400), MallocPc(0x404)]);
        let a = rt.malloc_managed(MallocPc(0x400), 1 << 20);
        let c = rt.malloc_managed(MallocPc(0x404), 1 << 20);
        assert_ne!(a, c);
        assert!(rt.table().entries().iter().all(|e| e.is_bound()));

        let (launch, plan) = rt
            .launch("vecadd", (2048, 1), (128, 1), &[])
            .expect("launch succeeds");
        assert_eq!(launch.arg_lens, vec![1 << 18, 1 << 18]);
        assert!(matches!(plan.schedule, TbMap::RoundRobinBatch { .. }));
    }

    #[test]
    fn unknown_kernel_is_an_error() {
        let rt = LadmRuntime::new(Topology::paper_multi_gpu());
        let err = rt.launch("nope", (1, 1), (32, 1), &[]).unwrap_err();
        assert_eq!(err, LaunchError::UnknownKernel("nope".into()));
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn unbound_allocation_is_an_error() {
        let mut rt = LadmRuntime::new(Topology::paper_multi_gpu());
        rt.compile(vecadd(), vec![MallocPc(1), MallocPc(2)]);
        rt.malloc_managed(MallocPc(1), 4096);
        let err = rt.launch("vecadd", (1, 1), (32, 1), &[]).unwrap_err();
        assert_eq!(
            err,
            LaunchError::UnboundAllocation {
                kernel: "vecadd".into(),
                arg_index: 1,
                malloc_pc: MallocPc(2),
            }
        );
    }

    #[test]
    fn allocations_are_page_aligned_and_tracked() {
        let mut rt = LadmRuntime::new(Topology::paper_multi_gpu());
        let a = rt.malloc_managed(MallocPc(7), 100);
        let b = rt.malloc_managed(MallocPc(8), 100);
        assert_eq!(a % 4096, 0);
        assert_eq!(b, a + 4096);
        assert_eq!(
            rt.allocation(MallocPc(7)),
            Some(ManagedAlloc {
                addr: a,
                bytes: 100
            })
        );
        assert_eq!(rt.allocation(MallocPc(9)), None);
    }

    #[test]
    fn traced_launch_reports_decisions_and_matches_untraced_plan() {
        use ladm_obs::{Event, RecordingSink};
        use std::sync::Arc;

        let mut rt = LadmRuntime::new(Topology::paper_multi_gpu());
        rt.compile(vecadd(), vec![MallocPc(0x400), MallocPc(0x404)]);
        rt.malloc_managed(MallocPc(0x400), 1 << 20);
        rt.malloc_managed(MallocPc(0x404), 1 << 20);
        let (_, untraced) = rt.launch("vecadd", (2048, 1), (128, 1), &[]).unwrap();

        let sink = Arc::new(RecordingSink::new());
        rt.set_sink(sink.clone());
        let (_, traced) = rt.launch("vecadd", (2048, 1), (128, 1), &[]).unwrap();
        assert_eq!(traced, untraced, "tracing must not change the plan");

        let events = sink.take_events();
        assert_eq!(events.len(), 3, "one begin + one decision per arg");
        assert_eq!(events[0].name(), "kernel_begin");
        match &events[1] {
            Event::ArgDecision {
                name,
                preference,
                winner,
                ..
            } => {
                assert_eq!(name, "a");
                assert_eq!(preference, "rr-batch");
                assert!(winner, "equal sizes tie-break to the first argument");
            }
            other => panic!("expected ArgDecision, got {other:?}"),
        }

        rt.clear_sink();
        rt.launch("vecadd", (2048, 1), (128, 1), &[]).unwrap();
        assert!(sink.is_empty(), "cleared sink must see nothing");
    }

    #[test]
    fn cache_mode_is_configurable() {
        let rt = LadmRuntime::new(Topology::paper_multi_gpu())
            .with_cache_mode(CacheMode::Ronce)
            .with_page_bytes(65536);
        let err = rt.launch("x", (1, 1), (1, 1), &[]).unwrap_err();
        assert!(matches!(err, LaunchError::UnknownKernel(_)));
    }
}
