//! Session-mode simulation driver: wires a
//! [`PlacementSession`](ladm_core::session::PlacementSession) (the
//! stateful cross-kernel planner, `ladm-core`) to a [`GpuSystem`]
//! executing its launches with page-home state carried across kernels.
//!
//! The stateless [`GpuSystem::run`] is a one-launch session: it
//! re-seeds the address space per kernel — correct for isolated
//! workloads, but it silently grants every launch a free re-placement
//! of all its pages. [`SessionSim`] models what real hardware does
//! instead: pages stay where the previous kernel left them, a launch
//! that *adopts* a committed layout touches nothing, and a launch that
//! replans pays the re-placement (reported per launch as
//! [`SessionRunStats::replaced_bytes`]). Both go through the engine's
//! one launch routine, so session launches are traced like any other,
//! and [`crate::OracleSystem`] replays the same sessions for the
//! fuzzer's engine-vs-oracle differential.
//!
//! The driver assumes the allocation pool is append-only with fixed
//! sizes (a decode loop re-uses the same named buffers every step);
//! sequences that introduce new names grow the pool in place.

use crate::config::SimConfig;
use crate::exec::KernelExec;
use crate::system::{GpuSystem, SessionRunStats};
use ladm_core::policies::Lasp;
use ladm_core::sequence::LaunchSequence;
use ladm_core::session::{PlacementSession, PlanProvenance, SessionPlan};

/// A [`GpuSystem`] paired with the [`PlacementSession`] that plans its
/// launches. See the module docs.
#[derive(Debug)]
pub struct SessionSim {
    sys: GpuSystem,
    session: PlacementSession,
    /// Session allocations already seeded into the machine.
    seeded: usize,
}

impl SessionSim {
    /// Builds the machine and its session. `pinning = false` gives the
    /// replan-every-launch baseline the experiments compare against.
    pub fn new(cfg: SimConfig, lasp: Lasp, pinning: bool) -> Self {
        let topo = cfg.topology;
        let session = if pinning {
            PlacementSession::new(topo, lasp)
        } else {
            PlacementSession::new(topo, lasp).without_pinning()
        };
        SessionSim {
            sys: GpuSystem::new(cfg),
            session,
            seeded: 0,
        }
    }

    /// Sets the engine worker-thread count (bit-identical results for
    /// any value, as for [`GpuSystem::set_threads`]).
    pub fn set_threads(&mut self, threads: usize) {
        self.sys.set_threads(threads);
    }

    /// The session allocation index of the buffer named `name`, once a
    /// step has registered it.
    pub fn alloc_index(&self, name: &str) -> Option<usize> {
        self.session
            .allocations()
            .iter()
            .position(|(n, _, _)| *n == name)
    }

    /// Plans and executes one multi-kernel step (e.g. one attention
    /// decode iteration). Buffers alias by argument name across the
    /// step *and* across steps, so the second identical step adopts
    /// everything the first one placed. Returns one result per kernel.
    ///
    /// # Panics
    ///
    /// Panics if a step resizes an already-seeded allocation — the
    /// simulated address space cannot grow an allocation in place.
    pub fn run_step(&mut self, kernels: &[Box<dyn KernelExec>]) -> Vec<SessionRunStats> {
        let seq = LaunchSequence::new(kernels.iter().map(|k| k.launch().clone()).collect());
        let plans = self.session.plan_sequence(&seq);
        self.seed_new_allocations();
        kernels
            .iter()
            .zip(&plans)
            .map(|(kernel, plan)| self.sys.run_session(&**kernel, plan))
            .collect()
    }

    /// Appends session allocations the machine has not seen yet, and
    /// checks the already-seeded prefix still matches.
    fn seed_new_allocations(&mut self) {
        let pool = self.session.allocations();
        if self.seeded == 0 {
            let shape: Vec<(u64, u32)> = pool.iter().map(|&(_, b, e)| (b, e)).collect();
            self.sys.begin_session(&shape);
        } else {
            for &(name, bytes, _) in &pool[..self.seeded] {
                let a = &self.sys.mem.allocations()[self.alloc_index(name).unwrap()];
                assert_eq!(
                    a.len_bytes, bytes,
                    "session allocation `{name}` was resized; the simulated \
                     address space cannot grow an allocation in place"
                );
            }
            for &(_, bytes, elem_bytes) in &pool[self.seeded..] {
                self.sys.mem.alloc(bytes.max(1), elem_bytes);
            }
        }
        self.seeded = pool.len();
    }
}

/// Replays `plans` through *independent* launches: each kernel runs on
/// a freshly seeded machine with every argument's map applied anew —
/// the stateless behaviour the metamorphic fuzz property compares a
/// fully-adopting session against. Uses the same allocation pool, so
/// device addresses (and hence interleave phases) are identical to the
/// session run.
pub fn replay_independent(
    cfg: &SimConfig,
    threads: usize,
    pool: &[(u64, u32)],
    kernels: &[&dyn KernelExec],
    plans: &[SessionPlan],
) -> Vec<SessionRunStats> {
    assert_eq!(kernels.len(), plans.len());
    kernels
        .iter()
        .zip(plans)
        .map(|(kernel, plan)| {
            let mut sys = GpuSystem::new(cfg.clone());
            sys.set_threads(threads);
            sys.begin_session(pool);
            let fresh = SessionPlan {
                plan: plan.plan.clone(),
                provenance: vec![PlanProvenance::Fresh; plan.binding.len()],
                binding: plan.binding.clone(),
            };
            sys.run_session(*kernel, &fresh)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ThreadAccess;
    use crate::oracle::OracleSystem;
    use crate::stats::KernelStats;
    use ladm_core::analysis::GridShape;
    use ladm_core::expr::{Expr, Var};
    use ladm_core::launch::{ArgStatic, KernelStatic, LaunchInfo};

    /// A minimal streaming KernelExec over one argument: thread `tx` of
    /// block `bx` reads (or writes) element `bx·bdx + tx`.
    #[derive(Debug)]
    struct Stream {
        launch: LaunchInfo,
        write: bool,
    }

    impl KernelExec for Stream {
        fn launch(&self) -> &LaunchInfo {
            &self.launch
        }
        fn trips(&self) -> u32 {
            1
        }
        fn warp_accesses(
            &self,
            tb: (u32, u32),
            warp: u32,
            _iter: u32,
            out: &mut Vec<ThreadAccess>,
        ) {
            let bdx = self.launch.block.0;
            for lane in 0..32u32 {
                let t = warp * 32 + lane;
                if t >= bdx {
                    break;
                }
                let idx = u64::from(tb.0) * u64::from(bdx) + u64::from(t);
                out.push(if self.write {
                    ThreadAccess::store(0, idx)
                } else {
                    ThreadAccess::load(0, idx)
                });
            }
        }
        fn iter_invariant(&self) -> bool {
            true
        }
    }

    fn stream(name: &'static str) -> Box<dyn KernelExec> {
        stream_of(name, false, 64, 64)
    }

    fn stream_of(name: &'static str, write: bool, blocks: u32, bdx: u32) -> Box<dyn KernelExec> {
        let idx = (Expr::var(Var::Bx) * Expr::var(Var::Bdx) + Expr::var(Var::Tx)).to_poly();
        let arg = if write {
            ArgStatic::write("a", 4, idx)
        } else {
            ArgStatic::read("a", 4, idx)
        };
        let kernel = KernelStatic {
            name,
            grid_shape: GridShape::OneD,
            args: vec![arg],
        };
        let elems = u64::from(blocks) * u64::from(bdx);
        Box::new(Stream {
            launch: LaunchInfo::new(kernel, (blocks, 1), (bdx, 1), vec![elems]),
            write,
        })
    }

    /// A row-shared reader: on trip `m`, thread `(tx, ty)` of block
    /// `(bx, by)` reads `a[(by·bdy + ty)·lda + m·bdx + tx]`, so every
    /// block of a grid row reads the same rows and LASP bands `a` by row.
    #[derive(Debug)]
    struct RowReader {
        launch: LaunchInfo,
        lda: u32,
    }

    impl RowReader {
        fn boxed(name: &'static str, grid: (u32, u32), block: (u32, u32), lda: u32) -> Box<Self> {
            let row = Expr::var(Var::By) * Expr::var(Var::Bdy) + Expr::var(Var::Ty);
            let col = Expr::var(Var::Ind(0)) * Expr::var(Var::Bdx) + Expr::var(Var::Tx);
            let kernel = KernelStatic {
                name,
                grid_shape: GridShape::TwoD,
                args: vec![ArgStatic::read(
                    "a",
                    4,
                    (row * Expr::param("lda") + col).to_poly(),
                )],
            };
            let elems = u64::from(grid.1 * block.1) * u64::from(lda);
            let launch =
                LaunchInfo::new(kernel, grid, block, vec![elems]).with_param("lda", i64::from(lda));
            Box::new(RowReader { launch, lda })
        }
    }

    impl KernelExec for RowReader {
        fn launch(&self) -> &LaunchInfo {
            &self.launch
        }
        fn trips(&self) -> u32 {
            self.lda / self.launch.block.0
        }
        fn warp_accesses(&self, tb: (u32, u32), warp: u32, iter: u32, out: &mut Vec<ThreadAccess>) {
            let (bdx, bdy) = self.launch.block;
            for lane in 0..32u32 {
                let t = warp * 32 + lane;
                if t >= bdx * bdy {
                    break;
                }
                let row = u64::from(tb.1 * bdy + t / bdx);
                let col = u64::from(iter * bdx + t % bdx);
                out.push(ThreadAccess::load(0, row * u64::from(self.lda) + col));
            }
        }
    }

    fn cfg() -> SimConfig {
        SimConfig::paper_multi_gpu()
    }

    #[test]
    fn adopting_steps_pay_no_replacement() {
        let kernels = vec![stream("s1"), stream("s2")];
        let mut sim = SessionSim::new(cfg(), Lasp::ladm(), true);
        let step1 = sim.run_step(&kernels);
        // First toucher places the pages; the second launch adopts.
        assert!(
            step1[0].replaced_pages == 0,
            "fresh placement over unbound pages is free"
        );
        assert_eq!(step1[1].replaced_pages, 0);
        let step2 = sim.run_step(&kernels);
        assert!(step2.iter().all(|s| s.replaced_pages == 0));
        // Identical launches on identical page state: identical stats.
        assert_eq!(step1[1].stats, step2[1].stats);
    }

    #[test]
    fn replanning_baseline_pays_replacement_when_maps_move() {
        // A streaming writer, then a row-shared reader of the same
        // buffer (the L009 pair). With pinning off the reader replans
        // the writer's layout into its own row bands, so pages the
        // writer already placed must move.
        let kernels: Vec<Box<dyn KernelExec>> = vec![
            stream_of("writer", true, 512, 256),
            RowReader::boxed("reader", (8, 16), (128, 2), 4096),
        ];
        let mut sim = SessionSim::new(cfg(), Lasp::ladm(), false);
        let runs = sim.run_step(&kernels);
        assert_eq!(runs[0].replaced_pages, 0, "placing unbound pages is free");
        assert!(runs[1].replaced_pages > 0, "the replan must move pages");
        assert_eq!(
            runs[1].replaced_bytes,
            runs[1].replaced_pages * cfg().page_bytes
        );

        // The oracle, replaying the same replanning session, charges the
        // same movement and agrees on every statistic.
        let seq = LaunchSequence::new(kernels.iter().map(|k| k.launch().clone()).collect());
        let mut session = PlacementSession::new(cfg().topology, Lasp::ladm()).without_pinning();
        let plans = session.plan_sequence(&seq);
        assert!(matches!(
            plans[1].provenance[0],
            PlanProvenance::Replanned { .. }
        ));
        let pool: Vec<(u64, u32)> = session
            .allocations()
            .iter()
            .map(|&(_, b, e)| (b, e))
            .collect();
        let mut oracle = OracleSystem::new(cfg());
        oracle.begin_session(&pool);
        for (kernel, (plan, run)) in kernels.iter().zip(plans.iter().zip(&runs)) {
            let want = oracle.run_session(&**kernel, plan);
            assert_eq!(format!("{run:?}"), format!("{want:?}"));
        }
    }

    #[test]
    fn fully_adopting_session_matches_independent_replay() {
        let kernels = [stream("s1"), stream("s2")];
        let launches: Vec<LaunchInfo> = kernels.iter().map(|k| k.launch().clone()).collect();
        let seq = LaunchSequence::new(launches);
        let mut session = PlacementSession::new(cfg().topology, Lasp::ladm());
        let plans = session.plan_sequence(&seq);
        let pool: Vec<(u64, u32)> = session
            .allocations()
            .iter()
            .map(|&(_, b, e)| (b, e))
            .collect();

        let mut sys = GpuSystem::new(cfg());
        sys.begin_session(&pool);
        let session_stats: Vec<KernelStats> = kernels
            .iter()
            .zip(&plans)
            .map(|(k, p)| sys.run_session(&**k, p).stats)
            .collect();

        let refs: Vec<&dyn KernelExec> = kernels.iter().map(|k| &**k).collect();
        let replayed = replay_independent(&cfg(), 1, &pool, &refs, &plans);
        for (s, r) in session_stats.iter().zip(&replayed) {
            assert_eq!(s.offnode_by_arg, r.stats.offnode_by_arg);
            assert_eq!(s.sectors_offnode, r.stats.sectors_offnode);
        }
    }

    #[test]
    fn single_launch_session_matches_stateless_run() {
        // The bit-identity argument behind routing `LadmRuntime::launch`
        // through a trivial session: one launch, fresh plan, same
        // machine state as `GpuSystem::run`.
        let kernel = stream("solo");
        let policy = Lasp::ladm();
        let mut sys = GpuSystem::new(cfg());
        let want = sys.run(&*kernel, &policy);

        let mut sim = SessionSim::new(cfg(), policy, true);
        let got = sim.run_step(std::slice::from_ref(&kernel));
        assert_eq!(got[0].stats, want);
    }
}
