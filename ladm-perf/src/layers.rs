//! Per-layer metrics of one traced pass, read from the span tree and
//! counters of `ladm_obs::prof` plus the pass's simulated totals.
//!
//! Host layers, coordinator thread: `workloads.build` and `sim.new` (this
//! benchmark's spans around input building and machine construction),
//! `plan`, `setup_mem`, `execute;setup`, the session planner
//! (`run_step` self time), warp generation (`gen_inline`), the event
//! drain (`drain_serial`/`drain` self time), the threaded drivers'
//! phases (`snapshot`, `gen_fanout` wait, `join`, `classify`,
//! `drain_par`), `stats_merge` and golden verification (`verify`).
//! Generation on the engine's worker thread (`gen_worker`, a root span of
//! that thread) adds to `gen.ms` but not to the coverage, which counts
//! coordinator time only.

use ladm_obs::Profile;
use ladm_sim::KernelStats;

/// What a traced pass measured besides its profile.
pub struct TracedPass<'a> {
    pub profile: &'a Profile,
    /// Wall time of the whole traced pass, set-up and verification too.
    pub wall_s: f64,
    /// Time inside the simulator calls of the traced pass.
    pub run_s: f64,
    /// Median time inside the simulator calls of the untraced passes.
    pub untraced_run_s: f64,
    /// Engine threads the pass ran with.
    pub threads: usize,
    /// Simulated totals of the pass.
    pub totals: &'a KernelStats,
    /// Session re-placement bytes of the pass.
    pub replaced_bytes: u64,
}

const MIB: f64 = (1u64 << 20) as f64;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, in `PER_LAYER` order.
pub fn per_layer(t: &TracedPass) -> Vec<(&'static str, f64)> {
    let mut ns = Spans::default();
    for (_, n) in t.profile.flatten() {
        match n.name.as_str() {
            "workloads.build" => ns.build += n.total_ns,
            "sim.new" => ns.new += n.total_ns,
            "plan" => {
                ns.plan += n.total_ns;
                ns.plan_calls += n.count;
            }
            "setup_mem" => ns.setup_mem += n.total_ns,
            "setup" => ns.exec_setup += n.total_ns,
            "run_step" => ns.session += n.self_ns(),
            "gen_inline" => {
                ns.gen_inline += n.total_ns;
                ns.gen_inline_calls += n.count;
            }
            "gen_worker" => ns.gen_worker += n.total_ns,
            "drain_serial" | "drain" => ns.drain_self += n.self_ns(),
            "gen_fanout" => {
                ns.fanout += n.total_ns;
                ns.fanout_self += n.self_ns();
            }
            "join" => ns.join += n.total_ns,
            "snapshot" => ns.snapshot += n.total_ns,
            "classify" => ns.classify += n.total_ns,
            "drain_par" => ns.drain_par += n.total_ns,
            "stats_merge" => ns.merge += n.total_ns,
            "verify" => ns.verify += n.total_ns,
            _ => {}
        }
    }
    let counters = &t.profile.counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    let per_shard = |suffix: &str| -> u64 {
        counters
            .iter()
            .filter(|(k, _)| k.starts_with("shard") && k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    };
    let ms = |v: u64| v as f64 / 1e6;
    let s = t.totals;
    let sectors = (s.l1_hits + s.l1_misses) as f64;
    let gen_ns = ns.gen_inline + ns.gen_worker;
    let worker_busy = per_shard(".gen_ns") + per_shard(".drain_ns");
    let fanned_ns = (ns.fanout + ns.drain_par) * t.threads as u64;
    let mut l2 = s.l2_local_local;
    l2 += s.l2_local_remote;
    l2 += s.l2_remote_local;
    let coordinator_ns = ns.build
        + ns.new
        + ns.plan
        + ns.setup_mem
        + ns.exec_setup
        + ns.session
        + ns.gen_inline
        + ns.drain_self
        + ns.fanout_self
        + ns.join
        + ns.snapshot
        + ns.classify
        + ns.drain_par
        + ns.merge
        + ns.verify;
    vec![
        ("workloads.build_ms", ms(ns.build)),
        ("sim.new_ms", ms(ns.new)),
        ("plan.ms", ms(ns.plan)),
        ("plan.calls", ns.plan_calls as f64),
        ("setup_mem.ms", ms(ns.setup_mem)),
        ("exec.setup_ms", ms(ns.exec_setup)),
        ("session.ms", ms(ns.session)),
        ("gen.ms", ms(gen_ns)),
        (
            "gen.calls",
            (ns.gen_inline_calls + per_shard(".gen_tasks")) as f64,
        ),
        ("gen.ns_per_sector", ratio(gen_ns as f64, sectors)),
        ("drain.self_ms", ms(ns.drain_self)),
        ("drain.ns_per_sector", ratio(ns.drain_self as f64, sectors)),
        ("engine.heap_pop", counter("engine.heap_pop") as f64),
        ("shard.l1_probes", counter("shard.l1_probes") as f64),
        ("shard.l2_probes", counter("shard.l2_probes") as f64),
        ("shard.remote_serves", counter("shard.remote_serves") as f64),
        ("bw.claims", counter("bw.claims") as f64),
        ("bw.stalls", counter("bw.stalls") as f64),
        ("par.gen_fanout_ms", ms(ns.fanout_self)),
        ("par.join_ms", ms(ns.join)),
        ("par.snapshot_ms", ms(ns.snapshot)),
        ("par.classify_ms", ms(ns.classify)),
        ("par.drain_par_ms", ms(ns.drain_par)),
        ("par.busy_frac", ratio(worker_busy as f64, fanned_ns as f64)),
        (
            "drain.parallel_frac",
            ratio(
                counter("drain.parallel_events") as f64,
                counter("drain.window_events") as f64,
            ),
        ),
        ("drain.rounds", counter("drain.rounds") as f64),
        ("drain.demotions", counter("drain.demotions") as f64),
        ("exec.stats_merge_ms", ms(ns.merge)),
        ("verify.ms", ms(ns.verify)),
        ("sim.l1_hit_rate", ratio(s.l1_hits as f64, sectors)),
        ("sim.l2_hit_rate", l2.hit_rate()),
        ("sim.dram_sectors", s.dram_sectors as f64),
        ("sim.inter_chiplet_mb", s.inter_chiplet_bytes as f64 / MIB),
        ("sim.inter_gpu_mb", s.inter_gpu_bytes as f64 / MIB),
        ("sim.bw_stall_cycles", counter("bw.stall_cycles") as f64),
        ("sim.ipc", s.ipc()),
        ("sim.page_faults", s.page_faults as f64),
        ("session.replaced_mb", t.replaced_bytes as f64 / MIB),
        ("trace.coverage", ratio(ms(coordinator_ns), t.wall_s * 1e3)),
        (
            "trace.overhead_frac",
            ratio(t.run_s, t.untraced_run_s) - 1.0,
        ),
    ]
}

/// Nanosecond (and call) sums per layer.
#[derive(Default)]
struct Spans {
    build: u64,
    new: u64,
    plan: u64,
    plan_calls: u64,
    setup_mem: u64,
    exec_setup: u64,
    session: u64,
    gen_inline: u64,
    gen_inline_calls: u64,
    gen_worker: u64,
    drain_self: u64,
    fanout: u64,
    fanout_self: u64,
    join: u64,
    snapshot: u64,
    classify: u64,
    drain_par: u64,
    merge: u64,
    verify: u64,
}
