//! Golden-file test for the Chrome trace exporter: a fixed VecAdd run
//! must keep producing the same event sequence. The fixture stores one
//! `ph name pid` line per trace event in document order; regenerate it
//! after an intentional exporter change with
//! `LADM_UPDATE_GOLDEN=1 cargo test --test trace_golden`.
//!
//! Session launches are traced like stateless ones: the attention
//! decode step, run through `begin_session` + `run_session`, must bracket
//! every launch with `kernel_begin`/`kernel_end` so the exporter lays the
//! launches end to end on one timeline.

use ladm::core::policies::Lasp;
use ladm::core::sequence::LaunchSequence;
use ladm::core::session::PlacementSession;
use ladm::obs::{chrome_trace, registry_from_events, Event, Json, RecordingSink};
use ladm::sim::{GpuSystem, SessionRunStats, SimConfig};
use ladm::workloads::{attn_decode, by_name, Scale};
use std::sync::Arc;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/trace_vecadd_events.txt"
);

/// Runs VecAdd (Test scale, deterministic) once with a recording sink
/// and returns the rendered Chrome trace JSON plus the run's stats.
fn traced_vecadd() -> (String, ladm::sim::KernelStats) {
    let cfg = SimConfig::paper_multi_gpu();
    let w = by_name("VecAdd", Scale::Test).expect("vecadd exists");
    let sink = Arc::new(RecordingSink::new());
    let mut sys = GpuSystem::new(cfg);
    sys.set_sink(sink.clone());
    let mut total = ladm::sim::KernelStats::default();
    for kernel in &w.kernels {
        total.accumulate(&sys.run(&**kernel, &Lasp::ladm()));
    }
    (ladm::obs::chrome_trace(&sink.take_events()), total)
}

/// Reduces a Chrome trace document to the golden line format.
fn event_lines(text: &str) -> Vec<String> {
    let doc = Json::parse(text).expect("chrome trace must parse");
    doc.get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array")
        .iter()
        .map(|ev| {
            format!(
                "{} {} {}",
                ev.get("ph").and_then(Json::as_str).expect("ph"),
                ev.get("name").and_then(Json::as_str).expect("name"),
                ev.get("pid").and_then(Json::as_f64).expect("pid")
            )
        })
        .collect()
}

#[test]
fn chrome_trace_matches_golden_fixture() {
    let (text, _) = traced_vecadd();
    let got = event_lines(&text).join("\n") + "\n";
    if std::env::var_os("LADM_UPDATE_GOLDEN").is_some() {
        std::fs::write(FIXTURE, &got).expect("fixture must be writable");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — run with LADM_UPDATE_GOLDEN=1 to create it");
    assert!(
        got == want,
        "chrome trace event sequence changed ({} events, fixture has {});\n\
         if intentional, regenerate with LADM_UPDATE_GOLDEN=1 cargo test --test trace_golden",
        got.lines().count(),
        want.lines().count()
    );
}

#[test]
fn chrome_trace_is_deterministic() {
    let (a, _) = traced_vecadd();
    let (b, _) = traced_vecadd();
    assert_eq!(a, b, "two identical runs must render byte-identical JSON");
}

#[test]
fn tracing_leaves_kernel_stats_unchanged() {
    let cfg = SimConfig::paper_multi_gpu();
    let w = by_name("VecAdd", Scale::Test).expect("vecadd exists");
    let policy = Lasp::ladm();

    let mut plain = GpuSystem::new(cfg.clone());
    let mut untraced = ladm::sim::KernelStats::default();
    for kernel in &w.kernels {
        untraced.accumulate(&plain.run(&**kernel, &policy));
    }

    let (_, traced) = traced_vecadd();
    assert_eq!(
        format!("{traced:?}"),
        format!("{untraced:?}"),
        "attaching a sink must not perturb simulation results"
    );
}

/// Plans the four-launch attention decode step (Test scale) as one
/// pinning session and runs it with `begin_session` + `run_session` at
/// `threads` engine threads, recording events when `traced`. Returns the
/// events and each launch's results.
fn decode_session(threads: usize, traced: bool) -> (Vec<Event>, Vec<SessionRunStats>) {
    let cfg = SimConfig::paper_multi_gpu();
    let w = attn_decode(Scale::Test);
    let seq = LaunchSequence::new(w.kernels.iter().map(|k| k.launch().clone()).collect());
    let mut session = PlacementSession::new(cfg.topology, Lasp::ladm());
    let plans = session.plan_sequence(&seq);
    let pool: Vec<(u64, u32)> = session
        .allocations()
        .iter()
        .map(|&(_, bytes, elem_bytes)| (bytes, elem_bytes))
        .collect();
    let sink = Arc::new(RecordingSink::new());
    let mut sys = GpuSystem::new(cfg);
    sys.set_threads(threads);
    if traced {
        sys.set_sink(sink.clone());
    }
    sys.begin_session(&pool);
    let runs = w
        .kernels
        .iter()
        .zip(&plans)
        .map(|(kernel, plan)| sys.run_session(&**kernel, plan))
        .collect();
    (sink.take_events(), runs)
}

#[test]
fn session_trace_brackets_each_launch_and_lays_launches_end_to_end() {
    let (events, traced) = decode_session(1, true);
    let (_, plain) = decode_session(1, false);
    assert_eq!(
        format!("{traced:?}"),
        format!("{plain:?}"),
        "attaching a sink must not perturb session results"
    );
    let launches = plain.len();

    // One kernel_begin/kernel_end pair per launch, in launch order.
    let brackets: Vec<&str> = events
        .iter()
        .map(Event::name)
        .filter(|n| matches!(*n, "kernel_begin" | "kernel_end"))
        .collect();
    assert_eq!(brackets, ["kernel_begin", "kernel_end"].repeat(launches));
    assert!(events.iter().all(|e| match e {
        Event::KernelBegin { policy, .. } => policy == "session",
        _ => true,
    }));
    assert_eq!(
        registry_from_events(&events).get("ladm_kernels_total", &[]),
        launches as u64
    );

    // In the Chrome trace, each launch's threadblock spans start at or
    // after the previous launch's kernel_end (and by its own).
    let doc = Json::parse(&chrome_trace(&events)).expect("chrome trace must parse");
    let trace = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    let starts = |name: &str, ph: &str| -> Vec<f64> {
        trace
            .iter()
            .filter(|ev| {
                ev.get("name").and_then(Json::as_str) == Some(name)
                    && ev.get("ph").and_then(Json::as_str) == Some(ph)
            })
            .map(|ev| ev.get("ts").and_then(Json::as_f64).expect("ts"))
            .collect()
    };
    let ends = starts("kernel_end", "i");
    let tbs = starts("tb", "X");
    let total: u64 = plain.iter().map(|r| r.stats.threadblocks).sum();
    assert_eq!(ends.len(), launches);
    assert_eq!(tbs.len() as u64, total);
    let mut prev_end = 0.0;
    for (i, (&end, run)) in ends.iter().zip(&plain).enumerate() {
        let inside = tbs.iter().filter(|&&t| t >= prev_end && t <= end).count();
        assert_eq!(
            inside as u64, run.stats.threadblocks,
            "launch {i}: its TB spans must start between the previous kernel_end ({prev_end}) and its own ({end})"
        );
        prev_end = end;
    }

    // The threaded engine narrates the same session identically.
    let (threaded, _) = decode_session(2, true);
    assert!(
        threaded == events,
        "the 2-thread session trace must equal the serial one"
    );
}
