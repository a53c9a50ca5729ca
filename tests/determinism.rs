//! Thread-count determinism suite: the threaded engine must be a pure
//! wall-clock optimization. The full 27-workload suite at
//! `Scale::Test`, run under LADM and the baseline round-robin policy,
//! must produce bit-identical [`KernelStats`] at 1, 2, 4 and 8 worker
//! threads — and that digest must equal the serial-engine golden fixture
//! (`tests/fixtures/stats_digest.txt`), so threading cannot drift even
//! in lockstep with itself.
//!
//! Every thread count above one runs the epoch-prefetch driver
//! (DESIGN.md §10), which parallelizes only the *pure* per-warp
//! access-generation phase; every stateful transition is resolved by
//! the coordinator in exact global `(time, seq)` event order.

use ladm::core::policies::{registry, BaselineRr, Lasp, Policy};
use ladm::sim::{GpuSystem, KernelStats, SessionSim, SimConfig};
use ladm::workloads::{attn_decode, suite, Scale};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/stats_digest.txt"
);

const SESSION_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/session_decode_digest.txt"
);

/// Same digest as `tests/stats_golden.rs`, with the engine pinned to
/// `threads` workers: one line per (workload, policy) cell holding the
/// full `Debug` rendering of the accumulated stats.
fn digest_lines(threads: usize) -> Vec<String> {
    let cfg = SimConfig::paper_multi_gpu();
    let policies: [&dyn Policy; 2] = [&Lasp::ladm(), &BaselineRr::new()];
    let mut lines = Vec::new();
    for policy in policies {
        for w in suite(Scale::Test) {
            let mut sys = GpuSystem::new(cfg.clone());
            sys.set_threads(threads);
            let mut total = KernelStats::default();
            for kernel in &w.kernels {
                total.accumulate(&sys.run(&**kernel, policy));
            }
            lines.push(format!("{} {} {:?}", w.name, policy.name(), total));
        }
    }
    lines
}

#[test]
fn full_suite_is_bit_identical_across_thread_counts() {
    let serial = digest_lines(1);
    for threads in [2, 4, 8] {
        let threaded = digest_lines(threads);
        assert_eq!(
            serial.len(),
            threaded.len(),
            "cell count changed at {threads} threads"
        );
        for (s, t) in serial.iter().zip(&threaded) {
            assert!(
                s == t,
                "digest diverged at {threads} threads.\nserial:   {s}\nthreaded: {t}"
            );
        }
    }

    // And the serial digest itself must still match the golden fixture:
    // threading must not have perturbed the baseline it is compared to.
    let want = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — run stats_golden with LADM_UPDATE_GOLDEN=1 to create it");
    let got = serial.join("\n") + "\n";
    assert!(
        got == want,
        "serial digest no longer matches tests/fixtures/stats_digest.txt; \
         the threaded-engine refactor must not change the model"
    );
}

/// The swizzle-scheduler policies registered in
/// `ladm::core::policies::registry` — every policy whose `TbMap` is the
/// rank-table-backed `Swizzled` variant, so the dispatch order the
/// engine drains is a genuine permutation of row-major.
const SWIZZLE_POLICIES: &[&str] = &[
    "Swizzle-Blk",
    "Swizzle-Morton",
    "Swizzle-Hilbert",
    "Swizzle-Hilbert-2L",
    "Swizzle-Hilbert+RR",
    "LASP+Swizzle-Hilbert",
    "LASP+Swizzle-Blk",
];

const SWIZZLE_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/swizzle_digest.txt"
);

/// As [`digest_lines`], for the swizzle-policy family: one line per
/// (workload, policy) cell over the full Table IV suite.
fn swizzle_digest_lines(threads: usize) -> Vec<String> {
    let cfg = SimConfig::paper_multi_gpu();
    let mut lines = Vec::new();
    for name in SWIZZLE_POLICIES {
        let policy = registry::build(name).expect("registered swizzle policy");
        for w in suite(Scale::Test) {
            let mut sys = GpuSystem::new(cfg.clone());
            sys.set_threads(threads);
            let mut total = KernelStats::default();
            for kernel in &w.kernels {
                total.accumulate(&sys.run(&**kernel, &*policy));
            }
            lines.push(format!("{} {} {:?}", w.name, policy.name(), total));
        }
    }
    lines
}

#[test]
fn swizzle_lineup_is_bit_identical_across_thread_counts() {
    let serial = swizzle_digest_lines(1);
    for threads in [2, 4, 8] {
        let threaded = swizzle_digest_lines(threads);
        assert_eq!(
            serial.len(),
            threaded.len(),
            "cell count changed at {threads} threads"
        );
        for (s, t) in serial.iter().zip(&threaded) {
            assert!(
                s == t,
                "swizzle digest diverged at {threads} threads.\nserial:   {s}\nthreaded: {t}"
            );
        }
    }

    let got = serial.join("\n") + "\n";
    if std::env::var_os("LADM_UPDATE_GOLDEN").is_some() {
        std::fs::write(SWIZZLE_FIXTURE, &got).expect("fixture written");
        return;
    }
    let want = std::fs::read_to_string(SWIZZLE_FIXTURE)
        .expect("fixture missing — run with LADM_UPDATE_GOLDEN=1 to create it");
    assert!(
        got == want,
        "swizzle digest no longer matches tests/fixtures/swizzle_digest.txt; \
         if the model change is intentional, regenerate with \
         LADM_UPDATE_GOLDEN=1 cargo test --test determinism"
    );
}

/// Session-mode digest: three attention decode steps through a
/// [`SessionSim`] (pinning on and off), one line per (mode, step,
/// kernel) holding the full `Debug` rendering of the
/// [`ladm::sim::SessionRunStats`] — page-home state carried across
/// launches, replaced-page movement and all.
fn session_digest_lines(threads: usize) -> Vec<String> {
    let mut lines = Vec::new();
    for pinning in [true, false] {
        let w = attn_decode(Scale::Test);
        let mut sim = SessionSim::new(SimConfig::paper_multi_gpu(), Lasp::ladm(), pinning);
        sim.set_threads(threads);
        let mode = if pinning { "pinned" } else { "replanned" };
        for step in 0..3 {
            for (kernel, run) in w.kernels.iter().zip(sim.run_step(&w.kernels)) {
                lines.push(format!(
                    "{mode} step{step} {} {run:?}",
                    kernel.launch().kernel.name
                ));
            }
        }
    }
    lines
}

#[test]
fn session_decode_is_bit_identical_across_thread_counts() {
    let serial = session_digest_lines(1);
    for threads in [2, 8] {
        let threaded = session_digest_lines(threads);
        assert_eq!(
            serial, threaded,
            "session digest diverged at {threads} threads"
        );
    }

    let got = serial.join("\n") + "\n";
    if std::env::var_os("LADM_UPDATE_GOLDEN").is_some() {
        std::fs::write(SESSION_FIXTURE, &got).expect("fixture written");
        return;
    }
    let want = std::fs::read_to_string(SESSION_FIXTURE)
        .expect("fixture missing — run with LADM_UPDATE_GOLDEN=1 to create it");
    assert!(
        got == want,
        "session decode digest no longer matches \
         tests/fixtures/session_decode_digest.txt; if intentional, regenerate with \
         LADM_UPDATE_GOLDEN=1 cargo test --test determinism"
    );
}
