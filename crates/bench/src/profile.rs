//! Self-profiled workload runs for `repro --profile`: a `ladm_obs::prof`
//! span tree captured around an engine run, rendered as a coverage line,
//! the phase attribution table and the prefetch workers' utilization.
//!
//! The profiler observes the *simulator's* wall time (where the driver
//! spends its cycles), not simulated time — see `ladm_obs::prof`. A
//! profiled run sits between `prof::reset`/`enable` and `disable`/`take`,
//! so everything the engine records (plan, setup, drain, inline or
//! worker-side generation, stats merge, plus per-worker busy counters)
//! lands in one deterministic-shape [`Profile`].

use ladm_obs::prof::Profile;
use ladm_sim::KernelStats;
use std::fmt::Write as _;

/// A completed profiled run: the merged span tree, the run's simulated
/// statistics and the measured wall time around the whole run.
#[derive(Debug, Clone)]
pub struct ProfiledRun {
    /// Merged span tree + profiler counters.
    pub profile: Profile,
    /// The run's accumulated simulated statistics (bit-identical to an
    /// unprofiled run — pinned by `tests/prof_golden.rs`).
    pub stats: KernelStats,
    /// Wall nanoseconds measured around the run (the coverage
    /// denominator).
    pub wall_ns: u64,
}

impl ProfiledRun {
    /// Fraction of the measured wall time the phase table accounts for.
    ///
    /// Only caller-thread roots count: worker-side `gen_worker` roots
    /// measure *parallel* busy time that overlaps the caller's `drain`
    /// and would double-count wall time; they feed the utilization block
    /// instead.
    pub fn coverage(&self) -> f64 {
        let attributed_ns: u64 = self
            .profile
            .roots
            .iter()
            .filter(|r| r.name != "gen_worker")
            .map(|r| r.total_ns)
            .sum();
        if self.wall_ns == 0 {
            0.0
        } else {
            attributed_ns as f64 / self.wall_ns as f64
        }
    }
}

/// Utilization of the threaded engine's prefetch workers.
#[derive(Debug)]
struct Utilization {
    /// Prefetch workers that ran (0 for serial runs).
    workers: usize,
    /// Σ worker generation busy nanoseconds (worker-side clocks).
    busy_ns: u64,
    /// `workers × drain wall` — what the workers could have done while
    /// the caller drained.
    capacity_ns: u64,
    /// Per-worker `(worker index, gen busy ns, gen tasks)` rows.
    per_worker: Vec<(usize, u64, u64)>,
}

impl Utilization {
    /// Busy fraction of the workers (1 − idle), in [0, 1].
    fn busy_frac(&self) -> f64 {
        if self.capacity_ns == 0 {
            0.0
        } else {
            (self.busy_ns as f64 / self.capacity_ns as f64).min(1.0)
        }
    }
}

/// Computes the prefetch workers' utilization block: busy = Σ
/// `workerNN.gen_ns` counters (worker-side generation clocks), capacity
/// = workers × the caller's `drain` wall, the time the workers could
/// have been generating. The difference is time the workers waited for
/// requests. Serial runs have no workers and an all-zero block.
fn utilization_from(profile: &Profile) -> Utilization {
    let mut per_worker: Vec<(usize, u64, u64)> = Vec::new();
    for (name, &ns) in &profile.counters {
        if let Some(idx) = name
            .strip_prefix("worker")
            .and_then(|s| s.strip_suffix(".gen_ns"))
            .and_then(|s| s.parse::<usize>().ok())
        {
            let tasks = profile
                .counters
                .get(&format!("worker{idx:02}.gen_tasks"))
                .copied()
                .unwrap_or(0);
            per_worker.push((idx, ns, tasks));
        }
    }
    per_worker.sort_unstable();
    let busy_ns: u64 = per_worker.iter().map(|&(_, ns, _)| ns).sum();
    let drain_ns = profile
        .find("kernel;execute;drain")
        .map(|n| n.total_ns)
        .unwrap_or(0);
    let workers = per_worker.len();
    Utilization {
        workers,
        busy_ns,
        capacity_ns: drain_ns * workers as u64,
        per_worker,
    }
}

/// Renders the human-facing profile report: coverage line, the phase
/// attribution table, and the utilization block.
pub fn render_profile_text(workload: &str, threads: usize, run: &ProfiledRun) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile: {workload} (threads {threads}, wall {:.3} ms, coverage {:.1}%)",
        run.wall_ns as f64 / 1e6,
        run.coverage() * 100.0
    );
    let _ = writeln!(out);
    out.push_str(&run.profile.render_table());
    let u = utilization_from(&run.profile);
    if u.capacity_ns > 0 {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "prefetch workers: {}, busy {:.1}% of drain capacity \
             (gen {:.3} ms / capacity {:.3} ms; the rest is waiting for requests)",
            u.workers,
            u.busy_frac() * 100.0,
            u.busy_ns as f64 / 1e6,
            u.capacity_ns as f64 / 1e6
        );
        for &(worker, ns, tasks) in &u.per_worker {
            let _ = writeln!(
                out,
                "  worker {worker:>2}: gen {:>10.3} ms  {tasks:>8} tasks",
                ns as f64 / 1e6
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladm_core::policies::Lasp;
    use ladm_obs::prof;
    use ladm_sim::{GpuSystem, SimConfig};
    use ladm_workloads::{by_name, Scale};
    use std::sync::Mutex;
    use std::time::Instant;

    /// The profiler is process-global; bench-crate tests that enable it
    /// serialize on this.
    static PROF_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        PROF_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Profiles VecAdd under LADM at `threads` engine workers. The wall
    /// clock spans machine construction too, so the uncovered slice is
    /// `GpuSystem::new` plus this glue.
    fn profile_vecadd(threads: usize) -> ProfiledRun {
        let w = by_name("VecAdd", Scale::Test).expect("vecadd exists");
        prof::reset();
        prof::enable();
        let t0 = Instant::now();
        let mut sys = GpuSystem::new(SimConfig::paper_multi_gpu());
        sys.set_threads(threads);
        let mut stats = KernelStats::default();
        for kernel in &w.kernels {
            stats.accumulate(&sys.run(&**kernel, &Lasp::ladm()));
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        prof::disable();
        ProfiledRun {
            profile: prof::take(),
            stats,
            wall_ns,
        }
    }

    #[test]
    fn profiled_run_attributes_most_of_the_wall_time() {
        let _t = locked();
        let run = profile_vecadd(1);
        assert!(run.stats.cycles > 0.0);
        assert!(!run.profile.is_empty());
        // Acceptance criterion: the phase table accounts for >= 95% of
        // measured wall time.
        assert!(
            run.coverage() >= 0.95,
            "coverage {:.3} too low:\n{}",
            run.coverage(),
            run.profile.render_table()
        );
        assert!(run.coverage() <= 1.02, "coverage {}", run.coverage());
        // The serial engine's signature phases are present.
        assert!(run.profile.find("kernel;plan").is_some());
        assert!(run.profile.find("kernel;execute;drain_serial").is_some());
        assert!(run
            .profile
            .find("kernel;execute;drain_serial;gen_inline")
            .is_some());
        // Hot counters fired.
        assert!(run.profile.counters.contains_key("engine.heap_pop"));
        assert!(run.profile.counters.contains_key("shard.l1_probes"));
    }

    #[test]
    fn threaded_profile_reports_workers_and_utilization() {
        let _t = locked();
        let run = profile_vecadd(4);
        // Worker roots overlap the caller's drain and are left out, so
        // the caller's phases still cover the wall time.
        assert!(
            (0.95..=1.02).contains(&run.coverage()),
            "coverage {:.3}:\n{}",
            run.coverage(),
            run.profile.render_table()
        );
        let drain = run
            .profile
            .find("kernel;execute;drain")
            .expect("threaded run drains under 'drain'");
        assert!(drain.count > 0);
        assert!(run.profile.find("gen_worker").is_some());
        assert!(run
            .profile
            .find("kernel;execute;drain;gen_inline")
            .is_none());
        let util = utilization_from(&run.profile);
        assert_eq!(util.workers, 3, "threads - 1 workers");
        assert_eq!(util.per_worker.len(), 3);
        assert!(util.busy_ns > 0, "worker busy clocks recorded");
        assert_eq!(util.capacity_ns, drain.total_ns * 3);
        let text = render_profile_text("VecAdd", 4, &run);
        assert!(text.contains("prefetch workers: 3"), "{text}");
        assert!(text.contains("gen_worker"), "{text}");

        // The workers generate exactly the lists the serial loop
        // generates inline: none twice, none missing.
        let serial = profile_vecadd(1);
        let inline = serial
            .profile
            .find("kernel;execute;drain_serial;gen_inline")
            .expect("serial run generates inline");
        let tasks: u64 = util.per_worker.iter().map(|&(_, _, t)| t).sum();
        assert_eq!(tasks, inline.count);
        assert_eq!(utilization_from(&serial.profile).workers, 0);
    }
}
