//! Self-profiled workload runs: capture a `ladm_obs::prof` span tree
//! around an engine run and fold it into the report/table/flamegraph
//! surfaces.
//!
//! The profiler observes the *simulator's* wall time (where the driver
//! spends its cycles), not simulated time — see `ladm_obs::prof`. A
//! profiled run wraps [`crate::harness::run_workload_threaded`] between
//! `prof::reset`/`enable` and `disable`/`take`, so everything the
//! engine records (plan, setup, drain, inline or worker-side
//! generation, stats merge, plus per-worker busy counters) lands in one
//! deterministic-shape [`Profile`].

use crate::harness::run_workload_threaded;
use crate::report::{PhaseRow, ProfileSection, UtilizationSection};
use ladm_core::policies::Policy;
use ladm_obs::prof::{self, Profile};
use ladm_sim::{KernelStats, SimConfig};
use ladm_workloads::Workload;
use std::fmt::Write as _;
use std::time::Instant;

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

/// Runs `workload` under `policy` at `threads` engine workers with the
/// self-profiler enabled, and returns the captured profile.
///
/// Profiler state is process-global: concurrent profiled runs would
/// merge into each other, so callers (the bench binaries, tests)
/// profile one run at a time.
pub fn profile_workload(
    cfg: &SimConfig,
    workload: &Workload,
    policy: &dyn Policy,
    threads: usize,
) -> ProfiledRun {
    prof::reset();
    prof::enable();
    let t0 = Instant::now();
    let stats = run_workload_threaded(cfg, workload, policy, threads);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    prof::disable();
    let profile = prof::take();
    ProfiledRun {
        profile,
        stats,
        wall_ns,
    }
}

/// Folds a profiled run into the additive BENCH.json `profile` section.
///
/// `attributed_ns` counts only the caller-thread roots (the `kernel`
/// spans) — worker-side `gen_worker` roots measure *parallel* busy time
/// that overlaps the caller's `drain` and would double-count wall time;
/// they feed the utilization block instead.
pub fn section_from(workload: &str, threads: usize, run: &ProfiledRun) -> ProfileSection {
    let attributed_ns: u64 = run
        .profile
        .roots
        .iter()
        .filter(|r| r.name != "gen_worker")
        .map(|r| r.total_ns)
        .sum();
    let phases: Vec<PhaseRow> = run
        .profile
        .flatten()
        .into_iter()
        .map(|(path, node)| PhaseRow {
            path,
            total_ns: node.total_ns,
            self_ns: node.self_ns(),
            calls: node.count,
        })
        .collect();
    let counters: Vec<(String, u64)> = run
        .profile
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    ProfileSection {
        workload: workload.to_string(),
        sim_threads: threads,
        wall_ns: run.wall_ns,
        attributed_ns,
        phases,
        utilization: utilization_from(&run.profile),
        counters,
    }
}

/// Computes the prefetch workers' utilization block: busy = Σ
/// `workerNN.gen_ns` counters (worker-side generation clocks), capacity
/// = workers × the caller's `drain` wall, the time the workers could
/// have been generating. The difference is time the workers waited for
/// requests. Serial runs have no workers and an all-zero block.
pub fn utilization_from(profile: &Profile) -> UtilizationSection {
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
    UtilizationSection {
        workers,
        busy_ns,
        capacity_ns: drain_ns * workers as u64,
        per_worker,
    }
}

/// Renders the human-facing profile report: coverage line, the phase
/// attribution table, and the utilization block.
pub fn render_profile_text(workload: &str, threads: usize, run: &ProfiledRun) -> String {
    let section = section_from(workload, threads, run);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile: {workload} (threads {threads}, wall {:.3} ms, coverage {:.1}%)",
        run.wall_ns as f64 / 1e6,
        section.coverage() * 100.0
    );
    let _ = writeln!(out);
    out.push_str(&run.profile.render_table());
    let u = &section.utilization;
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
    use ladm_workloads::{by_name, Scale};
    use std::sync::Mutex;

    /// The profiler is process-global; bench-crate tests that enable it
    /// serialize on this.
    static PROF_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        PROF_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn profiled_run_attributes_most_of_the_wall_time() {
        let _t = locked();
        let w = by_name("VecAdd", Scale::Test).expect("vecadd exists");
        let cfg = SimConfig::paper_multi_gpu();
        let run = profile_workload(&cfg, &w, &Lasp::ladm(), 1);
        assert!(run.stats.cycles > 0.0);
        assert!(!run.profile.is_empty());
        let section = section_from("VecAdd", 1, &run);
        // Acceptance criterion: the phase table accounts for >= 95% of
        // measured wall time (the uncovered slice is GpuSystem::new +
        // harness glue).
        assert!(
            section.coverage() >= 0.95,
            "coverage {:.3} too low:\n{}",
            section.coverage(),
            run.profile.render_table()
        );
        assert!(
            section.coverage() <= 1.02,
            "coverage {}",
            section.coverage()
        );
        // The serial engine's signature phases are present.
        assert!(run.profile.find("kernel;plan").is_some());
        assert!(run.profile.find("kernel;execute;drain_serial").is_some());
        assert!(run
            .profile
            .find("kernel;execute;drain_serial;gen_inline")
            .is_some());
        // Hot counters fired.
        assert!(section.counters.iter().any(|(k, _)| k == "engine.heap_pop"));
        assert!(section.counters.iter().any(|(k, _)| k == "shard.l1_probes"));
    }

    #[test]
    fn threaded_profile_reports_workers_and_utilization() {
        let _t = locked();
        let w = by_name("VecAdd", Scale::Test).expect("vecadd exists");
        let cfg = SimConfig::paper_multi_gpu();
        let run = profile_workload(&cfg, &w, &Lasp::ladm(), 4);
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
        let serial = profile_workload(&cfg, &w, &Lasp::ladm(), 1);
        let inline = serial
            .profile
            .find("kernel;execute;drain_serial;gen_inline")
            .expect("serial run generates inline");
        let tasks: u64 = util.per_worker.iter().map(|&(_, _, t)| t).sum();
        assert_eq!(tasks, inline.count);
        assert_eq!(utilization_from(&serial.profile).workers, 0);
    }

    #[test]
    fn profiling_does_not_change_simulated_stats() {
        let _t = locked();
        let w = by_name("VecAdd", Scale::Test).expect("vecadd exists");
        let cfg = SimConfig::paper_multi_gpu();
        let plain = crate::harness::run_workload_threaded(&cfg, &w, &Lasp::ladm(), 2);
        let profiled = profile_workload(&cfg, &w, &Lasp::ladm(), 2);
        assert_eq!(
            format!("{plain:?}"),
            format!("{:?}", profiled.stats),
            "profiling must be invisible to the simulation"
        );
    }
}
