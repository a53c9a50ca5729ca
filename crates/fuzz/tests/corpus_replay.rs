//! Replays every checked-in corpus entry through the full differential
//! harness. A corpus entry is a shrunk reproducer of a past failure or
//! a hand-picked generator output covering a feature combination
//! (policy family, topology shape, migration, faults, 2-D tiling);
//! each must run clean against the current engine and oracle.
//! Entries are dispatched on their schema tag: `ladm-fuzz-v1` runs the
//! single-launch differential harness, `ladm-fuzz-session-v1` the
//! multi-launch session harness (engine vs oracle with pinning on and
//! off, plus adoption transparency).

use ladm_fuzz::corpus::{self, AnySpec};
use ladm_fuzz::{run_session_trial, run_trial};

fn corpus_dir() -> &'static str {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/fuzz_corpus"
    )
}

#[test]
fn corpus_replays_clean() {
    let mut paths: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("corpus directory exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("json"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 8,
        "expected at least 8 corpus entries, found {}",
        paths.len()
    );
    let mut sessions = 0usize;
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("corpus entry readable");
        let spec = corpus::parse_any(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let result = match &spec {
            AnySpec::Trial(t) => run_trial(t).map(|_| ()),
            AnySpec::Session(s) => {
                sessions += 1;
                run_session_trial(s).map(|_| ())
            }
        };
        if let Err(failure) = result {
            panic!("{}: {failure}", path.display());
        }
    }
    assert!(
        sessions >= 2,
        "expected at least 2 session corpus entries, found {sessions}"
    );
}
