//! Seeded trial generation: random affine kernels, launch geometries,
//! machine configurations and policies, all reproducible from a single
//! `(seed, trial)` pair.
//!
//! A [`TrialSpec`] is deliberately a bag of small integers rather than
//! the built objects themselves: it serializes to a few lines of JSON
//! ([`crate::corpus`]), every field is independently mutable by the
//! shrinker ([`crate::shrink`]), and [`TrialSpec::build_kernel`] /
//! [`ConfigSpec::build`] / [`PolicySpec::build`] expand it
//! deterministically.

use ladm_core::analysis::GridShape;
use ladm_core::expr::{Poly, Var};
use ladm_core::launch::{ArgStatic, KernelStatic, LaunchInfo};
use ladm_core::plan::{RemoteInsert, RrOrder, TbMap};
use ladm_core::policies::curve::Curve;
use ladm_core::policies::{
    BaselineRr, BatchFt, CacheMode, Coda, KernelWide, Lasp, Manual, Policy, Swizzle,
    SwizzlePlacement,
};
use ladm_core::rng::SplitMix64;
use ladm_core::topology::Topology;
use ladm_sim::oracle::random_map;
use ladm_sim::{CacheConfig, SimConfig};
use ladm_workloads::AffineKernel;

/// Most arguments a generated kernel may have (bounded by the static
/// name table used for [`ArgStatic`]).
pub const MAX_ARGS: usize = 8;

const ARG_NAMES: [&str; MAX_ARGS] = ["a", "b", "c", "d", "e", "f", "g", "h"];

/// One kernel argument: element width, allocation length and whether
/// its access sites store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgSpec {
    /// Element size in bytes (4 or 8).
    pub elem_bytes: u32,
    /// Allocation length in elements.
    pub len: u64,
    /// Whether accesses to this argument are stores.
    pub written: bool,
}

/// One global-memory access site, described by the coefficients of its
/// affine index polynomial plus the executor modifiers.
///
/// The index is
/// `c_const + c_tx·tx + c_ty·ty + c_bx·bx + c_by·by + c_ind·m`
/// plus optional canonical groups: `tid_term` adds `bx·bDimx + tx`,
/// `ind_width` adds `m·bDimx·gDimx` (a grid-stride loop), `row_major`
/// adds the full 2-D row-major address
/// `(by·bDimy + ty)·bDimx·gDimx + bx·bDimx + tx`, and `c_data` adds an
/// opaque data-dependent component. Thread-variable coefficients are
/// plain constants, which keeps every generated polynomial inside the
/// launch-constant contract [`AffineKernel::new`] enforces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteSpec {
    /// Index of the argument this site accesses.
    pub arg: u32,
    /// Constant offset.
    pub c_const: i64,
    /// Coefficient of `threadIdx.x`.
    pub c_tx: i64,
    /// Coefficient of `threadIdx.y`.
    pub c_ty: i64,
    /// Coefficient of `blockIdx.x`.
    pub c_bx: i64,
    /// Coefficient of `blockIdx.y`.
    pub c_by: i64,
    /// Coefficient of the outer induction variable `m`.
    pub c_ind: i64,
    /// Adds the canonical `bx·bDimx + tx` global-thread-id group.
    pub tid_term: bool,
    /// Adds `m·bDimx·gDimx` (grid-stride loop walk).
    pub ind_width: bool,
    /// Adds the full 2-D row-major address group.
    pub row_major: bool,
    /// Coefficient of the opaque [`Var::Data`] component (−1, 0 or 1).
    pub c_data: i64,
    /// Re-randomize the data component every loop iteration.
    pub data_per_iter: bool,
    /// Execute only on the final loop iteration.
    pub epilogue: bool,
    /// One access per `lane_group` lanes (1 = every lane).
    pub lane_group: u32,
}

impl SiteSpec {
    /// The site's index polynomial in elements.
    pub fn index_poly(&self) -> Poly {
        let mut p = Poly::constant(self.c_const);
        for (c, v) in [
            (self.c_tx, Var::Tx),
            (self.c_ty, Var::Ty),
            (self.c_bx, Var::Bx),
            (self.c_by, Var::By),
            (self.c_ind, Var::Ind(0)),
        ] {
            if c != 0 {
                p = p + Poly::constant(c) * Poly::var(v);
            }
        }
        if self.tid_term {
            p = p + Poly::var(Var::Bx) * Poly::var(Var::Bdx) + Poly::var(Var::Tx);
        }
        if self.ind_width {
            p = p + Poly::var(Var::Ind(0)) * Poly::var(Var::Bdx) * Poly::var(Var::Gdx);
        }
        if self.row_major {
            let width = Poly::var(Var::Bdx) * Poly::var(Var::Gdx);
            p = p
                + (Poly::var(Var::By) * Poly::var(Var::Bdy) + Poly::var(Var::Ty)) * width
                + Poly::var(Var::Bx) * Poly::var(Var::Bdx)
                + Poly::var(Var::Tx);
        }
        if self.c_data != 0 {
            p = p + Poly::constant(self.c_data) * Poly::var(Var::Data);
        }
        p
    }

    /// Exact inclusive bounds on the index this site can produce
    /// anywhere in the launch, ignoring the data-dependent component
    /// and before any wrapping into the argument's length.
    pub fn index_bounds(&self, grid: (u32, u32), block: (u32, u32), trips: u32) -> (i128, i128) {
        let (gdx, gdy) = (i128::from(grid.0), i128::from(grid.1));
        let (bdx, bdy) = (i128::from(block.0), i128::from(block.1));
        let trips = i128::from(trips);
        let c = i128::from(self.c_const);
        let (mut lo, mut hi) = (c, c);
        let mut term = |c: i128, vmax: i128| {
            if c >= 0 {
                hi += c * vmax;
            } else {
                lo += c * vmax;
            }
        };
        term(self.c_tx.into(), bdx - 1);
        term(self.c_ty.into(), bdy - 1);
        term(self.c_bx.into(), gdx - 1);
        term(self.c_by.into(), gdy - 1);
        term(self.c_ind.into(), trips - 1);
        if self.tid_term {
            hi += gdx * bdx - 1;
        }
        if self.ind_width {
            hi += (trips - 1) * bdx * gdx;
        }
        if self.row_major {
            hi += (gdy * bdy - 1) * bdx * gdx + gdx * bdx - 1;
        }
        (lo, hi)
    }

    /// Upper bound, in elements, on the spread between the smallest and
    /// largest index this site can produce anywhere in the launch,
    /// before wrapping into the argument's length. Data-dependent sites
    /// can reach the whole allocation.
    pub fn span_elems(&self, grid: (u32, u32), block: (u32, u32), trips: u32) -> u128 {
        if self.c_data != 0 {
            return u128::MAX;
        }
        let (lo, hi) = self.index_bounds(grid, block, trips);
        (hi - lo) as u128
    }
}

/// Machine shape and timing, stored as exact integers so the spec
/// round-trips losslessly through JSON. Cache geometry is expressed as
/// `(sets, assoc)` with the fixed 128 B line / 32 B sector layout, which
/// makes every sampled cache pass [`CacheConfig::num_sets`] validation
/// by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigSpec {
    /// Discrete GPUs behind the switch.
    pub gpus: u32,
    /// Chiplets per GPU.
    pub chiplets: u32,
    /// SMs per chiplet.
    pub sms_per_chiplet: u32,
    /// Resident warps per SM.
    pub warps_per_sm: u32,
    /// Resident threadblocks per SM.
    pub max_tbs_per_sm: u32,
    /// Warp instructions issued per cycle per SM.
    pub issue: u32,
    /// L1 sets (power of two).
    pub l1_sets: u32,
    /// L1 associativity.
    pub l1_assoc: u32,
    /// L1 hit latency, cycles.
    pub l1_latency: u64,
    /// L2 sets (power of two).
    pub l2_sets: u32,
    /// L2 associativity.
    pub l2_assoc: u32,
    /// L2 hit latency, cycles.
    pub l2_latency: u64,
    /// HBM latency, cycles.
    pub dram_latency: u64,
    /// HBM bandwidth, bytes/cycle.
    pub dram_bw: u32,
    /// SM↔L2 crossbar bandwidth, bytes/cycle.
    pub intra_bw: u32,
    /// SM↔L2 crossbar latency, cycles.
    pub intra_latency: u64,
    /// Inter-chiplet ring bandwidth, bytes/cycle.
    pub ring_bw: u32,
    /// Ring hop latency, cycles.
    pub ring_latency: u64,
    /// Inter-GPU switch bandwidth, bytes/cycle.
    pub switch_bw: u32,
    /// Switch latency, cycles.
    pub switch_latency: u64,
    /// Dynamically-shared L2 remote caching.
    pub remote_caching: bool,
    /// Reactive migration threshold (0 = off).
    pub migration_threshold: u32,
    /// Virtual page size in bytes.
    pub page_bytes: u64,
    /// First-touch fault latency, cycles.
    pub page_fault_cycles: u64,
    /// Base compute cycles per loop iteration per warp.
    pub base_compute_cycles: u64,
}

impl ConfigSpec {
    /// Expands into a validated [`SimConfig`].
    pub fn build(&self) -> SimConfig {
        const LINE: u32 = 128;
        const SECTOR: u32 = 32;
        let cache = |sets: u32, assoc: u32, latency: u64| CacheConfig {
            bytes: u64::from(sets) * u64::from(assoc) * u64::from(LINE),
            assoc,
            line_bytes: LINE,
            sector_bytes: SECTOR,
            latency,
        };
        SimConfig {
            topology: Topology::new(self.gpus, self.chiplets),
            sms_per_chiplet: self.sms_per_chiplet,
            warp_size: 32,
            warps_per_sm: self.warps_per_sm,
            max_tbs_per_sm: self.max_tbs_per_sm,
            issue_per_cycle: f64::from(self.issue),
            l1: cache(self.l1_sets, self.l1_assoc, self.l1_latency),
            l2: cache(self.l2_sets, self.l2_assoc, self.l2_latency),
            dram_latency: self.dram_latency,
            dram_bw: f64::from(self.dram_bw),
            intra_chiplet_bw: f64::from(self.intra_bw),
            intra_chiplet_latency: self.intra_latency,
            ring_bw: f64::from(self.ring_bw),
            ring_latency: self.ring_latency,
            switch_bw: f64::from(self.switch_bw),
            switch_latency: self.switch_latency,
            remote_caching: self.remote_caching,
            migration_threshold: self.migration_threshold,
            page_bytes: self.page_bytes,
            page_fault_cycles: self.page_fault_cycles,
            base_compute_cycles: self.base_compute_cycles,
        }
    }
}

/// Which NUMA policy drives the trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicySpec {
    /// Baseline round-robin scheduling, first-touch placement.
    BaselineRr,
    /// Batched scheduling with first-touch placement.
    BatchFt,
    /// Kernel-wide proportional data/grid split.
    KernelWide,
    /// Flat (hierarchy-oblivious) CODA.
    CodaFlat,
    /// Hierarchy-aware CODA.
    CodaHier,
    /// LASP with cache-remote-twice.
    LaspRtwice,
    /// LASP with cache-remote-once.
    LaspRonce,
    /// The full LADM configuration (LASP + CRB).
    LaspLadm,
    /// A swizzle-scheduler family member: curve × placement half ×
    /// flat/two-level assignment. Fields are small integers (not enums)
    /// so corpus JSON stays trivially exact and future curves extend
    /// the selector without a schema bump.
    Swizzle {
        /// Curve selector: 0 = block-group, 1 = Morton, 2 = Hilbert,
        /// 3 = row-major (identity control). Taken modulo 4.
        curve: u32,
        /// Block-group band height (curve 0 only; clamped ≥ 1).
        group: u32,
        /// Placement half: 0 = first-touch, 1 = round-robin, 2 = LASP
        /// (the stacked variant). Taken modulo 3.
        placement: u32,
        /// Hierarchical GPU-then-chiplet assignment instead of flat.
        two_level: bool,
        /// Two-level chiplet batch (clamped ≥ 1).
        batch: u32,
    },
    /// A `Manual` policy with per-arg page maps and a threadblock map
    /// drawn from `seed` (covering every [`ladm_core::plan::PageMap`]
    /// and [`TbMap`] variant, including combinations no shipped policy
    /// emits).
    Manual {
        /// Seed of the plan-drawing stream (kept below 2^53 so it stays
        /// exact as a JSON number).
        seed: u64,
    },
}

impl PolicySpec {
    /// Builds the policy object for `launch` on `topo`.
    pub fn build(&self, launch: &LaunchInfo, topo: &Topology) -> Box<dyn Policy> {
        match self {
            PolicySpec::BaselineRr => Box::new(BaselineRr::new()),
            PolicySpec::BatchFt => Box::new(BatchFt::new()),
            PolicySpec::KernelWide => Box::new(KernelWide::new()),
            PolicySpec::CodaFlat => Box::new(Coda::flat()),
            PolicySpec::CodaHier => Box::new(Coda::hierarchical()),
            PolicySpec::LaspRtwice => Box::new(Lasp::new(CacheMode::Rtwice)),
            PolicySpec::LaspRonce => Box::new(Lasp::new(CacheMode::Ronce)),
            PolicySpec::LaspLadm => Box::new(Lasp::ladm()),
            PolicySpec::Swizzle {
                curve,
                group,
                placement,
                two_level,
                batch,
            } => {
                let curve = match curve % 4 {
                    0 => Curve::BlockGroup {
                        group: (*group).max(1),
                    },
                    1 => Curve::Morton,
                    2 => Curve::Hilbert,
                    _ => Curve::RowMajor,
                };
                let mut policy = Swizzle::with_curve(curve);
                policy = match placement % 3 {
                    0 => policy,
                    1 => policy.with_placement(SwizzlePlacement::RoundRobin),
                    _ => policy.with_placement(SwizzlePlacement::Lasp),
                };
                if *two_level {
                    policy = policy.with_two_level(u64::from((*batch).max(1)));
                }
                Box::new(policy)
            }
            PolicySpec::Manual { seed } => {
                let mut rng = SplitMix64::new(*seed);
                let mut manual = Manual::new(random_tb_map(&mut rng, launch));
                for i in 0..launch.kernel.args.len() {
                    let map = random_map(&mut rng, topo, launch.arg_pages(i));
                    let insert = if rng.chance(1, 2) {
                        RemoteInsert::Twice
                    } else {
                        RemoteInsert::Once
                    };
                    manual = manual.with_arg(map, insert);
                }
                Box::new(manual)
            }
        }
    }
}

fn random_tb_map(rng: &mut SplitMix64, launch: &LaunchInfo) -> TbMap {
    let total = launch.total_tbs().max(1);
    let order = if rng.chance(1, 2) {
        RrOrder::Hierarchical
    } else {
        RrOrder::GpuMajor
    };
    match rng.below(5) {
        0 => TbMap::RoundRobinBatch {
            batch: u64::from(rng.range_u32(1, 8)),
            order,
        },
        1 => TbMap::Chunk {
            per_node: u64::from(rng.range_u32(1, 64)).min(total),
        },
        2 => TbMap::Spread { total },
        3 => TbMap::RowBinding {
            rows_per_node: u64::from(rng.range_u32(1, launch.grid.1.max(1))),
        },
        _ => TbMap::ColBinding {
            cols_per_node: u64::from(rng.range_u32(1, launch.grid.0.max(1))),
        },
    }
}

/// One complete fuzz trial: kernel, launch geometry, machine and policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialSpec {
    /// `gridDim = (x, y)`.
    pub grid: (u32, u32),
    /// `blockDim = (x, y)`.
    pub block: (u32, u32),
    /// Outer-loop iterations.
    pub trips: u32,
    /// Compute intensity multiplier.
    pub intensity: u32,
    /// 2-D grid contract (drives Table II classification).
    pub two_d: bool,
    /// Kernel arguments in call order.
    pub args: Vec<ArgSpec>,
    /// Access sites (each referencing an argument).
    pub sites: Vec<SiteSpec>,
    /// Machine description.
    pub config: ConfigSpec,
    /// NUMA policy under test.
    pub policy: PolicySpec,
}

impl TrialSpec {
    /// Expands the spec into a runnable [`AffineKernel`], with the
    /// launch page size synchronized to the machine's.
    ///
    /// # Panics
    ///
    /// Panics if the spec references an out-of-range argument or has
    /// more than [`MAX_ARGS`] arguments (corpus files are validated at
    /// parse time; the generator and shrinker keep specs in range).
    pub fn build_kernel(&self) -> AffineKernel {
        assert!(
            self.args.len() <= MAX_ARGS && !self.args.is_empty(),
            "between 1 and {MAX_ARGS} arguments"
        );
        assert!(
            self.sites
                .iter()
                .all(|s| (s.arg as usize) < self.args.len()),
            "site references an argument out of range"
        );
        let args: Vec<ArgStatic> = self
            .args
            .iter()
            .enumerate()
            .map(|(i, a)| ArgStatic {
                name: ARG_NAMES[i],
                elem_bytes: a.elem_bytes,
                accesses: self
                    .sites
                    .iter()
                    .filter(|s| s.arg as usize == i)
                    .map(SiteSpec::index_poly)
                    .collect(),
                is_written: a.written,
            })
            .collect();
        let kernel = KernelStatic {
            name: "fuzz",
            grid_shape: if self.two_d {
                GridShape::TwoD
            } else {
                GridShape::OneD
            },
            args,
        };
        let lens: Vec<u64> = self.args.iter().map(|a| a.len).collect();
        let launch = LaunchInfo::new(kernel, self.grid, self.block, lens)
            .with_page_bytes(self.config.page_bytes);
        let mut exec = AffineKernel::new(launch, self.trips, self.intensity);
        // Executor modifiers address compiled site indices: arguments in
        // order, each argument's sites in spec order.
        let mut site = 0usize;
        for i in 0..self.args.len() {
            for s in self.sites.iter().filter(|s| s.arg as usize == i) {
                if s.lane_group > 1 {
                    exec = exec.with_lane_group(site, s.lane_group);
                }
                if s.epilogue {
                    exec = exec.with_epilogue(site);
                }
                if s.data_per_iter && s.c_data != 0 {
                    exec = exec.with_data_per_iter(site);
                }
                site += 1;
            }
        }
        exec
    }
}

/// Most launches a session trial may chain (bounded by the static
/// kernel-name table).
pub const MAX_LAUNCHES: usize = 4;

const SESSION_KERNEL_NAMES: [&str; MAX_LAUNCHES] = ["fz0", "fz1", "fz2", "fz3"];

/// One launch of a session trial: geometry plus access sites over the
/// launch's *view* of the shared pool ([`SiteSpec::arg`] indexes into
/// [`LaunchSpec::arg_idx`], not the pool directly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchSpec {
    /// `gridDim = (x, y)`.
    pub grid: (u32, u32),
    /// `blockDim = (x, y)`.
    pub block: (u32, u32),
    /// Outer-loop iterations.
    pub trips: u32,
    /// Compute intensity multiplier.
    pub intensity: u32,
    /// 2-D grid contract.
    pub two_d: bool,
    /// Pool indices of the launch's arguments, in call order (distinct,
    /// in range of the pool).
    pub arg_idx: Vec<u32>,
    /// Access sites over local argument positions.
    pub sites: Vec<SiteSpec>,
}

/// A multi-launch placement-session trial: 2–4 launches drawn over one
/// shared allocation pool on one machine. Pool entries keep one name,
/// size and element width across every launch that references them, so
/// the [`ladm_core::session::PlacementSession`] aliases them by name
/// exactly as the attention decode sequence does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    /// The shared argument pool.
    pub args: Vec<ArgSpec>,
    /// Launches in session order.
    pub launches: Vec<LaunchSpec>,
    /// Machine description.
    pub config: ConfigSpec,
}

impl SessionSpec {
    /// Expands the spec into one runnable kernel per launch, each with
    /// the launch page size synchronized to the machine's. Arguments
    /// referencing the same pool slot get the same name (and length)
    /// in every kernel, which is what makes the session share them.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range pool references, duplicate references
    /// within one launch, or more than [`MAX_LAUNCHES`] launches
    /// (corpus files are validated at parse time).
    pub fn build_kernels(&self) -> Vec<AffineKernel> {
        assert!(
            (2..=MAX_LAUNCHES).contains(&self.launches.len()),
            "between 2 and {MAX_LAUNCHES} launches"
        );
        assert!(
            self.args.len() <= MAX_ARGS && !self.args.is_empty(),
            "between 1 and {MAX_ARGS} pool arguments"
        );
        self.launches
            .iter()
            .enumerate()
            .map(|(j, l)| {
                assert!(!l.arg_idx.is_empty(), "launch {j} references no arguments");
                let mut seen = [false; MAX_ARGS];
                for &pi in &l.arg_idx {
                    let pi = pi as usize;
                    assert!(pi < self.args.len(), "launch {j} references pool slot {pi}");
                    assert!(!seen[pi], "launch {j} references pool slot {pi} twice");
                    seen[pi] = true;
                }
                assert!(
                    l.sites.iter().all(|s| (s.arg as usize) < l.arg_idx.len()),
                    "launch {j} site references an argument out of range"
                );
                let args: Vec<ArgStatic> = l
                    .arg_idx
                    .iter()
                    .enumerate()
                    .map(|(local, &pi)| {
                        let a = &self.args[pi as usize];
                        ArgStatic {
                            name: ARG_NAMES[pi as usize],
                            elem_bytes: a.elem_bytes,
                            accesses: l
                                .sites
                                .iter()
                                .filter(|s| s.arg as usize == local)
                                .map(SiteSpec::index_poly)
                                .collect(),
                            is_written: a.written,
                        }
                    })
                    .collect();
                let kernel = KernelStatic {
                    name: SESSION_KERNEL_NAMES[j],
                    grid_shape: if l.two_d {
                        GridShape::TwoD
                    } else {
                        GridShape::OneD
                    },
                    args,
                };
                let lens: Vec<u64> = l
                    .arg_idx
                    .iter()
                    .map(|&pi| self.args[pi as usize].len)
                    .collect();
                let launch = LaunchInfo::new(kernel, l.grid, l.block, lens)
                    .with_page_bytes(self.config.page_bytes);
                let mut exec = AffineKernel::new(launch, l.trips, l.intensity);
                let mut site = 0usize;
                for local in 0..l.arg_idx.len() {
                    for s in l.sites.iter().filter(|s| s.arg as usize == local) {
                        if s.lane_group > 1 {
                            exec = exec.with_lane_group(site, s.lane_group);
                        }
                        if s.epilogue {
                            exec = exec.with_epilogue(site);
                        }
                        if s.data_per_iter && s.c_data != 0 {
                            exec = exec.with_data_per_iter(site);
                        }
                        site += 1;
                    }
                }
                exec
            })
            .collect()
    }
}

/// The spec for trial number `trial` of master seed `seed`.
pub fn trial_spec(seed: u64, trial: u64) -> TrialSpec {
    let mut rng = SplitMix64::new(seed ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    sample(&mut rng)
}

/// The session spec for trial number `trial` of master seed `seed`
/// (a distinct stream from [`trial_spec`]).
pub fn session_spec(seed: u64, trial: u64) -> SessionSpec {
    let mut rng = SplitMix64::new(!seed ^ trial.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    sample_session(&mut rng)
}

/// Samples a complete session trial from `rng`.
pub fn sample_session(rng: &mut SplitMix64) -> SessionSpec {
    let num_args = rng.range_u32(2, 4) as usize;
    let args: Vec<ArgSpec> = (0..num_args)
        .map(|_| ArgSpec {
            elem_bytes: if rng.chance(1, 4) { 8 } else { 4 },
            len: rng.range_i64(64, 20_000) as u64,
            written: rng.chance(1, 3),
        })
        .collect();
    let num_launches = rng.range_u32(2, MAX_LAUNCHES as u32) as usize;
    let launches = (0..num_launches)
        .map(|_| sample_launch(rng, num_args))
        .collect();
    SessionSpec {
        args,
        launches,
        config: sample_config(rng),
    }
}

fn sample_launch(rng: &mut SplitMix64, num_args: usize) -> LaunchSpec {
    let two_d = rng.chance(1, 2);
    let bdx = [8u32, 16, 32, 64, 128, 256][rng.below(6) as usize];
    let bdy = if two_d && bdx <= 64 {
        rng.range_u32(1, 4)
    } else {
        1
    };
    let grid = (
        rng.range_u32(1, 48),
        if two_d { rng.range_u32(1, 6) } else { 1 },
    );
    let trips = if rng.chance(1, 2) {
        1
    } else {
        rng.range_u32(2, 4)
    };
    // Every launch references pool slot 0, so the session always has a
    // buffer shared by all launches (the KV-cache shape); the remaining
    // slots join each launch independently.
    let mut arg_idx = vec![0u32];
    for pi in 1..num_args {
        if rng.chance(2, 3) {
            arg_idx.push(pi as u32);
        }
    }
    let num_sites = rng.range_u32(1, 5) as usize;
    let sites = (0..num_sites)
        .map(|_| sample_site(rng, arg_idx.len() as u64, two_d, trips))
        .collect();
    LaunchSpec {
        grid,
        block: (bdx, bdy),
        trips,
        intensity: rng.range_u32(1, 4),
        two_d,
        arg_idx,
        sites,
    }
}

/// Samples a complete trial from `rng`.
pub fn sample(rng: &mut SplitMix64) -> TrialSpec {
    let two_d = rng.chance(1, 2);
    let bdx = [8u32, 16, 32, 64, 128, 256][rng.below(6) as usize];
    let bdy = if two_d && bdx <= 64 {
        rng.range_u32(1, 4)
    } else {
        1
    };
    let grid = (
        rng.range_u32(1, 48),
        if two_d { rng.range_u32(1, 6) } else { 1 },
    );
    let trips = if rng.chance(1, 2) {
        1
    } else {
        rng.range_u32(2, 4)
    };
    let num_args = rng.range_u32(1, 4) as usize;
    let args: Vec<ArgSpec> = (0..num_args)
        .map(|_| ArgSpec {
            elem_bytes: if rng.chance(1, 4) { 8 } else { 4 },
            len: rng.range_i64(64, 20_000) as u64,
            written: rng.chance(1, 3),
        })
        .collect();
    let num_sites = rng.range_u32(1, 6) as usize;
    let mut sites: Vec<SiteSpec> = (0..num_sites)
        .map(|_| sample_site(rng, num_args as u64, two_d, trips))
        .collect();
    // Dense cross-shard gather bias (1 in 8 trials): every site draws a
    // fresh data-dependent address each loop iteration, so nearly every
    // warp step carries remote sectors and no generated list can be
    // reused across trips: the threaded engine's prefetch pipeline
    // requests and installs a list on every iteration, with
    // cross-shard effects in each.
    if rng.chance(1, 8) {
        for s in &mut sites {
            s.c_data = 1;
            s.data_per_iter = true;
        }
    }
    TrialSpec {
        grid,
        block: (bdx, bdy),
        trips,
        intensity: rng.range_u32(1, 4),
        two_d,
        args,
        sites,
        config: sample_config(rng),
        policy: sample_policy(rng),
    }
}

fn sample_site(rng: &mut SplitMix64, num_args: u64, two_d: bool, trips: u32) -> SiteSpec {
    let mut s = SiteSpec {
        arg: rng.below(num_args) as u32,
        c_const: 0,
        c_tx: 0,
        c_ty: 0,
        c_bx: 0,
        c_by: 0,
        c_ind: 0,
        tid_term: false,
        ind_width: false,
        row_major: false,
        c_data: 0,
        data_per_iter: false,
        epilogue: false,
        lane_group: 1,
    };
    match rng.below(6) {
        // Streaming: the canonical global-thread-id access.
        0 => s.tid_term = true,
        // Tiled 2-D row-major (falls back to streaming on 1-D grids).
        1 => {
            if two_d {
                s.row_major = true;
            } else {
                s.tid_term = true;
            }
        }
        // Strided per-block walk.
        2 => {
            s.c_tx = rng.range_i64(1, 8);
            s.c_bx = rng.range_i64(1, 64);
            if two_d {
                s.c_by = rng.range_i64(0, 32);
            }
        }
        // Grid-stride loop.
        3 => {
            s.tid_term = true;
            s.ind_width = true;
        }
        // Data-dependent gather/scatter.
        4 => {
            s.tid_term = true;
            s.c_data = if rng.chance(1, 2) { 1 } else { -1 };
        }
        // Unstructured coefficient soup (exercises row-7 classification).
        _ => {
            s.c_const = rng.range_i64(-64, 64);
            if rng.chance(1, 2) {
                s.c_tx = rng.range_i64(0, 8);
            }
            if two_d && rng.chance(1, 2) {
                s.c_ty = rng.range_i64(0, 8);
            }
            if rng.chance(1, 2) {
                s.c_bx = rng.range_i64(0, 64);
            }
            if two_d && rng.chance(1, 2) {
                s.c_by = rng.range_i64(0, 64);
            }
            if trips > 1 && rng.chance(1, 2) {
                s.c_ind = rng.range_i64(0, 32);
            }
        }
    }
    if rng.chance(1, 8) {
        s.lane_group = [2u32, 4, 32][rng.below(3) as usize];
    }
    if trips > 1 && rng.chance(1, 8) {
        s.epilogue = true;
    }
    if s.c_data != 0 && rng.chance(1, 2) {
        s.data_per_iter = true;
    }
    s
}

fn sample_config(rng: &mut SplitMix64) -> ConfigSpec {
    ConfigSpec {
        gpus: rng.range_u32(1, 4),
        chiplets: rng.range_u32(1, 4),
        sms_per_chiplet: rng.range_u32(1, 4),
        warps_per_sm: [4u32, 8, 16][rng.below(3) as usize],
        max_tbs_per_sm: rng.range_u32(1, 4),
        issue: [1u32, 2, 4][rng.below(3) as usize],
        l1_sets: [4u32, 8, 16, 32][rng.below(4) as usize],
        l1_assoc: if rng.chance(1, 2) { 2 } else { 4 },
        l1_latency: u64::from(rng.range_u32(1, 40)),
        l2_sets: [16u32, 32, 64, 128][rng.below(4) as usize],
        l2_assoc: [4u32, 8, 16][rng.below(3) as usize],
        l2_latency: u64::from(rng.range_u32(20, 200)),
        dram_latency: u64::from(rng.range_u32(50, 400)),
        dram_bw: rng.range_u32(16, 1024),
        intra_bw: rng.range_u32(32, 2048),
        intra_latency: u64::from(rng.range_u32(1, 80)),
        ring_bw: rng.range_u32(16, 1024),
        // Latency-1 links (1 in 6 each): a ring or switch hop as cheap
        // as an L1 hit packs cross-shard completions into near-ties, the
        // regime where a threaded-driver ordering slip would reorder
        // remote effects. The draws stay as they are so seeded trial
        // streams and the corpus fixtures replay unchanged.
        ring_latency: if rng.chance(1, 6) {
            1
        } else {
            u64::from(rng.range_u32(10, 150))
        },
        switch_bw: rng.range_u32(8, 512),
        switch_latency: if rng.chance(1, 6) {
            1
        } else {
            u64::from(rng.range_u32(50, 400))
        },
        remote_caching: rng.chance(2, 3),
        migration_threshold: if rng.chance(1, 5) {
            rng.range_u32(2, 4)
        } else {
            0
        },
        page_bytes: [1024u64, 4096, 16384][rng.below(3) as usize],
        page_fault_cycles: if rng.chance(1, 4) {
            u64::from(rng.range_u32(200, 800))
        } else {
            0
        },
        base_compute_cycles: u64::from(rng.range_u32(1, 40)),
    }
}

fn sample_policy(rng: &mut SplitMix64) -> PolicySpec {
    match rng.below(13) {
        0 => PolicySpec::BaselineRr,
        1 => PolicySpec::BatchFt,
        2 => PolicySpec::KernelWide,
        3 => PolicySpec::CodaFlat,
        4 => PolicySpec::CodaHier,
        5 => PolicySpec::LaspRtwice,
        6 => PolicySpec::LaspRonce,
        7 | 8 => PolicySpec::LaspLadm,
        // Three slots of swizzle: random curve (incl. the row-major
        // identity control), random band widths, every placement half,
        // flat and two-level combos.
        9..=11 => PolicySpec::Swizzle {
            curve: rng.below(4) as u32,
            group: rng.range_u32(1, 16),
            placement: rng.below(3) as u32,
            two_level: rng.chance(1, 2),
            batch: rng.range_u32(1, 16),
        },
        // Mask to 52 bits: JSON numbers are f64 and must stay exact.
        _ => PolicySpec::Manual {
            seed: rng.next_u64() >> 12,
        },
    }
}

/// One canonical [`PolicySpec`] per entry of the core policy registry,
/// in registry order. Pins the generator to the shipped lineup: if a
/// policy is added to [`ladm_core::policies::registry`] without a spec
/// the generator can draw, `policy_generator_covers_the_registry`
/// fails.
pub fn registry_policy_specs() -> Vec<PolicySpec> {
    let blk = |placement: u32| PolicySpec::Swizzle {
        curve: 0,
        group: ladm_core::policies::DEFAULT_GROUP,
        placement,
        two_level: false,
        batch: 8,
    };
    let hilbert = |placement: u32, two_level: bool| PolicySpec::Swizzle {
        curve: 2,
        group: 1,
        placement,
        two_level,
        batch: ladm_core::policies::DEFAULT_TWO_LEVEL_BATCH as u32,
    };
    vec![
        PolicySpec::BaselineRr,
        PolicySpec::BatchFt,
        PolicySpec::KernelWide,
        PolicySpec::CodaFlat,
        PolicySpec::CodaHier,
        PolicySpec::LaspRtwice,
        PolicySpec::LaspRonce,
        PolicySpec::LaspLadm,
        blk(0), // Swizzle-Blk
        PolicySpec::Swizzle {
            curve: 1,
            group: 1,
            placement: 0,
            two_level: false,
            batch: 8,
        }, // Swizzle-Morton
        hilbert(0, false), // Swizzle-Hilbert
        hilbert(0, true), // Swizzle-Hilbert-2L
        hilbert(1, false), // Swizzle-Hilbert+RR
        hilbert(2, false), // LASP+Swizzle-Hilbert
        blk(2), // LASP+Swizzle-Blk
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladm_sim::KernelExec;

    #[test]
    fn trials_are_reproducible() {
        assert_eq!(trial_spec(0, 7), trial_spec(0, 7));
        assert_ne!(trial_spec(0, 7), trial_spec(0, 8));
    }

    #[test]
    fn sampled_specs_build() {
        for trial in 0..50 {
            let spec = trial_spec(42, trial);
            let kernel = spec.build_kernel();
            let cfg = spec.config.build();
            cfg.validate();
            let policy = spec.policy.build(kernel.launch(), &cfg.topology);
            let plan = policy.plan(kernel.launch(), &cfg.topology);
            assert_eq!(plan.args.len(), spec.args.len(), "trial {trial}");
        }
    }

    #[test]
    fn policy_generator_covers_the_registry() {
        // Strong anti-drift pin: one canonical spec per registry entry,
        // in registry order, building to exactly the registered names.
        let spec = trial_spec(0, 0);
        let kernel = spec.build_kernel();
        let cfg = spec.config.build();
        let names: Vec<&'static str> = registry_policy_specs()
            .iter()
            .map(|p| p.build(kernel.launch(), &cfg.topology).name())
            .collect();
        let registry: Vec<&'static str> = ladm_core::policies::registry::entries()
            .iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(
            names, registry,
            "fuzz policy generator and the core policy registry drifted"
        );
    }

    #[test]
    fn sampled_swizzle_specs_build_total_plans() {
        // Drive the sampler until it has produced every curve selector
        // and both assignment shapes, building each policy as it goes.
        let mut rng = SplitMix64::new(0xC0FFEE);
        let spec = trial_spec(0, 0);
        let kernel = spec.build_kernel();
        let cfg = spec.config.build();
        let mut curves_seen = [false; 4];
        let mut levels_seen = [false; 2];
        for _ in 0..500 {
            if let PolicySpec::Swizzle {
                curve, two_level, ..
            } = sample_policy(&mut rng)
            {
                curves_seen[(curve % 4) as usize] = true;
                levels_seen[usize::from(two_level)] = true;
                let policy = PolicySpec::Swizzle {
                    curve,
                    group: 3,
                    placement: curve % 3,
                    two_level,
                    batch: 2,
                }
                .build(kernel.launch(), &cfg.topology);
                let plan = policy.plan(kernel.launch(), &cfg.topology);
                assert_eq!(plan.args.len(), spec.args.len());
            }
        }
        assert!(curves_seen.iter().all(|&c| c), "sampler missed a curve");
        assert!(levels_seen.iter().all(|&l| l), "sampler missed a level");
    }

    #[test]
    fn session_specs_build_and_share_the_pool() {
        for trial in 0..30 {
            let spec = session_spec(5, trial);
            let kernels = spec.build_kernels();
            assert!((2..=MAX_LAUNCHES).contains(&kernels.len()), "trial {trial}");
            spec.config.build().validate();
            // Pool slot 0 appears in every launch under one name.
            for k in &kernels {
                assert!(
                    k.launch()
                        .kernel
                        .args
                        .iter()
                        .any(|a| a.name == ARG_NAMES[0]),
                    "trial {trial}: a launch dropped the shared slot"
                );
            }
        }
    }

    #[test]
    fn session_specs_are_reproducible() {
        assert_eq!(session_spec(3, 11), session_spec(3, 11));
        assert_ne!(session_spec(3, 11), session_spec(3, 12));
    }

    #[test]
    fn site_modifiers_land_on_compiled_sites() {
        let mut spec = trial_spec(1, 0);
        spec.trips = 2;
        for s in &mut spec.sites {
            s.epilogue = true;
        }
        let kernel = spec.build_kernel();
        assert_eq!(kernel.num_sites(), spec.sites.len());
        assert!(!kernel.iter_invariant(), "epilogue sites vary per trip");
    }
}
