//! Minimal labeled fork-join pool: [`parallel_map`] /
//! [`parallel_map_labeled`] fan a job range out over scoped OS threads
//! with deterministic result order and labeled panic propagation.
//!
//! Used by the bench harness for per-workload experiment fan-out, which
//! needs two guarantees: results come back in index order regardless of
//! which worker ran which job, and a panic inside any job is re-raised
//! on the caller with the job's label attached instead of aborting the
//! process from a worker thread. The crate stays dependency-free (std
//! scoped threads only).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `0..n` on `threads` OS threads, preserving order.
/// `f` must be cheap to call concurrently (each job builds its own
/// state). A panic inside any job is re-raised on the caller tagged
/// with the job index.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_labeled(n, threads, |i| format!("job {i}"), f)
}

/// As [`parallel_map`], but `label(i)` names each job (typically the
/// workload it simulates). When jobs panic, the panic propagated to the
/// caller carries every failing job's label and panic message instead
/// of an opaque `Any` payload from a worker thread — with 27 workloads
/// in flight, "SQ-GEMM panicked: index out of bounds" beats a bare
/// scoped-thread abort.
pub fn parallel_map_labeled<T, F, L>(n: usize, threads: usize, label: L, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    L: Fn(usize) -> String + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    let next = AtomicUsize::new(0);
    // Each worker accumulates `(index, outcome)` pairs in a private Vec
    // handed back through its join handle — no shared lock on the result
    // path (one mutex round-trip per job serializes short jobs).
    let mut outcomes: Vec<(usize, Result<T, String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, Result<T, String>)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i)))
                            .map_err(|payload| {
                                // `&*payload`, not `&payload`: a
                                // `&Box<dyn Any>` would itself coerce to
                                // `&dyn Any` and the downcasts below
                                // would always miss.
                                let msg = panic_message(&*payload);
                                format!("{} panicked: {msg}", label(i))
                            });
                        local.push((i, out));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("workers only panic inside catch_unwind"))
            .collect()
    });
    outcomes.sort_by_key(|&(i, _)| i);
    let mut results = Vec::with_capacity(n);
    let mut failed: Vec<String> = Vec::new();
    for (_, out) in outcomes {
        match out {
            Ok(value) => results.push(value),
            Err(msg) => failed.push(msg),
        }
    }
    if !failed.is_empty() {
        panic!(
            "parallel_map: {} of {n} job(s) panicked:\n  {}",
            failed.len(),
            failed.join("\n  ")
        );
    }
    assert_eq!(results.len(), n, "every job index was executed");
    results
}

/// Best-effort extraction of a panic payload's message (`&str` and
/// `String` payloads cover `panic!`, `assert!` and index/unwrap
/// failures).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(100, 8, |i| i * i);
        assert_eq!(out.len(), 100);
        assert_eq!(out[7], 49);
        assert_eq!(out[99], 9801);
    }

    #[test]
    fn parallel_map_handles_zero_jobs() {
        let out: Vec<usize> = parallel_map(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_propagates_panics_with_labels() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map_labeled(
                4,
                2,
                |i| format!("workload-{i}"),
                |i| {
                    if i == 2 {
                        panic!("boom at {i}");
                    }
                    i
                },
            )
        });
        let payload = caught.expect_err("the job panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .expect("aggregated panic is a String");
        assert!(msg.contains("1 of 4 job(s) panicked"), "{msg}");
        assert!(msg.contains("workload-2 panicked: boom at 2"), "{msg}");
    }

    #[test]
    fn parallel_map_tags_unlabeled_jobs_with_index() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(3, 3, |i| {
                assert!(i != 1, "bad job");
                i
            })
        });
        let payload = caught.expect_err("the job panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("String payload");
        assert!(msg.contains("job 1 panicked"), "{msg}");
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let serial = parallel_map(64, 1, |i| i * 3 + 1);
        for threads in [2, 4, 8] {
            assert_eq!(parallel_map(64, threads, |i| i * 3 + 1), serial);
        }
    }
}
