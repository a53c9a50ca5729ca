//! Self-profiled workload runs: capture a `ladm_obs::prof` span tree
//! around an engine run and fold it into the report/table/flamegraph
//! surfaces.
//!
//! The profiler observes the *simulator's* wall time (where the driver
//! spends its cycles), not simulated time — see `ladm_obs::prof`. A
//! profiled run wraps [`crate::harness::run_workload_threaded`] between
//! `prof::reset`/`enable` and `disable`/`take`, so everything the
//! engine records (plan, setup, gen fan-out, barrier wait, serial
//! drain, stats merge, plus worker-side busy counters) lands in one
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
/// `attributed_ns` counts only the coordinator-thread roots (the
/// `kernel` spans) — worker-side `gen_worker` roots measure *parallel*
/// busy time that overlaps the coordinator's `gen_fanout` wait and
/// would double-count wall time; they feed the utilization block
/// instead.
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
        utilization: utilization_from(&run.profile, threads),
        counters,
    }
}

/// Computes the worker-pool utilization block: busy = Σ per-shard
/// `shardNN.gen_ns` counters (worker-side clocks), capacity = effective
/// workers × the coordinator's `gen_fanout` wall. The difference is
/// barrier idle — workers that finished their shard early and waited
/// for the epoch barrier.
pub fn utilization_from(profile: &Profile, threads: usize) -> UtilizationSection {
    let mut shards: Vec<(usize, u64, u64)> = Vec::new();
    for (name, &ns) in &profile.counters {
        if let Some(idx) = name
            .strip_prefix("shard")
            .and_then(|s| s.strip_suffix(".gen_ns"))
            .and_then(|s| s.parse::<usize>().ok())
        {
            let tasks = profile
                .counters
                .get(&format!("shard{idx:02}.gen_tasks"))
                .copied()
                .unwrap_or(0);
            shards.push((idx, ns, tasks));
        }
    }
    shards.sort_unstable();
    let busy_ns: u64 = shards.iter().map(|&(_, ns, _)| ns).sum();
    let fanout_ns = profile
        .find("kernel;execute;gen_fanout")
        .map(|n| n.total_ns)
        .unwrap_or(0);
    let workers = threads.min(shards.len().max(1));
    UtilizationSection {
        workers,
        busy_ns,
        capacity_ns: fanout_ns * workers as u64,
        shards,
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
            "worker pool: {} workers, busy {:.1}% of fan-out capacity \
             (gen {:.3} ms / capacity {:.3} ms; the rest is barrier idle)",
            u.workers,
            u.busy_frac() * 100.0,
            u.busy_ns as f64 / 1e6,
            u.capacity_ns as f64 / 1e6
        );
        for &(shard, ns, tasks) in &u.shards {
            let _ = writeln!(
                out,
                "  shard {shard:>2}: gen {:>10.3} ms  {tasks:>8} tasks",
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
    fn threaded_profile_reports_fanout_and_utilization() {
        let _t = locked();
        let w = by_name("VecAdd", Scale::Test).expect("vecadd exists");
        let cfg = SimConfig::paper_multi_gpu();
        let run = profile_workload(&cfg, &w, &Lasp::ladm(), 2);
        let fanout = run
            .profile
            .find("kernel;execute;gen_fanout")
            .expect("threaded run has a fan-out phase");
        assert!(fanout.count > 0);
        assert!(run.profile.find("kernel;execute;drain").is_some());
        let util = utilization_from(&run.profile, 2);
        assert!(util.workers >= 1);
        assert!(util.busy_ns > 0, "worker busy clocks recorded");
        assert!(util.capacity_ns >= util.busy_ns / 2, "capacity plausible");
        let text = render_profile_text("VecAdd", 2, &run);
        assert!(text.contains("worker pool:"), "{text}");
        assert!(text.contains("gen_fanout"), "{text}");
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
