//! Profiler non-interference and determinism suite.
//!
//! The self-profiler (`ladm::obs::prof`) measures where the *simulator*
//! spends wall time; it must never leak into the simulated machine. Two
//! invariants are pinned here:
//!
//! 1. **Stats invariance** — with profiling enabled, `KernelStats` stay
//!    bit-identical to an unprofiled run at every engine thread count.
//! 2. **Shape determinism** — the merged span tree's *shape* (names and
//!    nesting, not times) is a function of the code path, not of thread
//!    scheduling: identical across repeats and across worker counts in
//!    the threaded engine.
//!
//! The profiler is process-global, so every test that enables it
//! serializes on one lock.

use ladm::core::policies::{Lasp, Policy};
use ladm::obs::prof;
use ladm::sim::{GpuSystem, KernelStats, SimConfig};
use ladm::workloads::{by_name, Scale};
use std::sync::Mutex;

static PROF_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    PROF_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs VecAdd + PageRank at `threads` workers and returns the stats
/// digest (full `Debug` rendering — any counter or cycle drift changes
/// it).
fn digest(threads: usize) -> String {
    let cfg = SimConfig::paper_multi_gpu();
    let policy = Lasp::ladm();
    let mut lines = Vec::new();
    for name in ["VecAdd", "PageRank"] {
        let w = by_name(name, Scale::Test).expect("Table IV name");
        let mut sys = GpuSystem::new(cfg.clone());
        sys.set_threads(threads);
        let mut total = KernelStats::default();
        for kernel in &w.kernels {
            total.accumulate(&sys.run(&**kernel, &policy as &dyn Policy));
        }
        lines.push(format!("{name} {total:?}"));
    }
    lines.join("\n")
}

/// As [`digest`], but with the profiler live around the runs; also
/// returns the merged profile for shape checks.
fn digest_profiled(threads: usize) -> (String, prof::Profile) {
    prof::reset();
    prof::enable();
    let d = digest(threads);
    prof::disable();
    (d, prof::take())
}

#[test]
fn profiling_leaves_stats_bit_identical_at_every_thread_count() {
    let _t = locked();
    for threads in [1, 2, 8] {
        let plain = digest(threads);
        let (profiled, profile) = digest_profiled(threads);
        assert_eq!(
            plain, profiled,
            "profiling changed simulated stats at {threads} thread(s)"
        );
        assert!(
            !profile.is_empty(),
            "profiler captured nothing at {threads} thread(s)"
        );
    }
}

#[test]
fn span_tree_shape_is_deterministic_across_repeats() {
    let _t = locked();
    let (_, first) = digest_profiled(1);
    let (_, second) = digest_profiled(1);
    assert_eq!(
        first.shape(),
        second.shape(),
        "serial span-tree shape must be run-to-run deterministic"
    );
}

#[test]
fn span_tree_shape_is_stable_across_worker_counts() {
    let _t = locked();
    // The threaded engine (>= 2 threads) takes one code path; its merged
    // shape must not depend on how many workers raced through it.
    // (threads = 1 takes the serial path and legitimately differs:
    // drain_serial/gen_inline instead of drain/gen_worker.)
    let (_, two) = digest_profiled(2);
    let (_, four) = digest_profiled(4);
    let (_, eight) = digest_profiled(8);
    assert_eq!(
        two.shape(),
        four.shape(),
        "span shape drifted between 2 and 4 workers"
    );
    assert_eq!(
        four.shape(),
        eight.shape(),
        "span shape drifted between 4 and 8 workers"
    );
    // The threaded signature phases are present in the merged shape, and
    // the caller never generates inline nor runs the deleted epoch
    // driver's phases.
    let shape = two.shape();
    for phase in ["drain", "gen_worker", "stats_merge"] {
        assert!(
            shape.contains(phase),
            "expected phase '{phase}' in threaded shape:\n{shape}"
        );
    }
    for phase in ["gen_inline", "gen_fanout", "snapshot", "join"] {
        assert!(
            !shape.contains(phase),
            "unexpected phase '{phase}' in threaded shape:\n{shape}"
        );
    }
}

#[test]
fn disabled_profiler_captures_nothing() {
    let _t = locked();
    prof::reset();
    assert!(!prof::profiling());
    let _ = digest(2);
    let p = prof::take();
    assert!(
        p.is_empty(),
        "disabled profiler must record no spans, got: {}",
        p.render_table()
    );
}
