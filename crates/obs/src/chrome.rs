//! Chrome trace-event JSON exporter.
//!
//! The output loads directly into `chrome://tracing` / Perfetto:
//!
//! * **pid 0** is the runtime lane — launch decisions and per-argument
//!   classification appear as instant events.
//! * **pid N+1** is chiplet (NUMA node) N; within it, each SM is a
//!   `tid` carrying complete (`"X"`) events for threadblock lifetimes.
//! * Counter (`"C"`) events sample sector routes and link occupancy per
//!   fixed-size cycle epoch, one counter series per chiplet.
//!
//! Multi-kernel workloads restart the simulator clock at zero for each
//! kernel; the exporter re-bases every kernel onto a monotonically
//! advancing timeline so lanes never fold back on themselves.
//!
//! When a self-profile is supplied
//! ([`chrome_trace_with_profile`]), a synthetic **driver** process
//! ([`DRIVER_PID`]) renders the merged span tree as a flame chart over
//! *wall* time (microseconds — a different clock domain from the
//! simulated-cycle lanes, noted in the lane name).

use crate::event::{Event, LinkLevel, SectorRoute};
use crate::json::{escape, number};
use crate::prof::{ProfNode, Profile};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Cycle width of one counter-sampling epoch.
const EPOCH_CYCLES: f64 = 1024.0;

/// pid of the synthetic driver lane (the self-profile) — far from any
/// chiplet pid so the lane sorts last in viewers.
pub const DRIVER_PID: u32 = 9999;

/// One pending Chrome event, pre-rendered except for ordering.
struct Raw {
    ts: f64,
    /// Tie-break so same-timestamp events keep emission order.
    seq: usize,
    json: String,
}

/// Collects per-epoch per-chiplet counter samples.
#[derive(Default)]
struct EpochBins {
    /// `(epoch, node, series) -> value`
    bins: BTreeMap<(u64, u16, String), u64>,
}

impl EpochBins {
    fn add(&mut self, time: f64, node: u16, series: &str, delta: u64) {
        let epoch = (time / EPOCH_CYCLES) as u64;
        *self
            .bins
            .entry((epoch, node, series.to_string()))
            .or_insert(0) += delta;
    }
}

/// Renders a recorded event stream as a Chrome trace-event JSON
/// document (`{"traceEvents": [...], "otherData": {...}}`).
pub fn chrome_trace(events: &[Event]) -> String {
    chrome_trace_with_profile(events, None)
}

/// [`chrome_trace`] plus, when `profile` is given, the driver lane: the
/// merged span tree laid out as a wall-time flame chart on
/// [`DRIVER_PID`].
pub fn chrome_trace_with_profile(events: &[Event], profile: Option<&Profile>) -> String {
    let mut raws: Vec<Raw> = Vec::new();
    let mut seq = 0usize;
    let mut push = |raws: &mut Vec<Raw>, ts: f64, json: String| {
        raws.push(Raw { ts, seq, json });
        seq += 1;
    };

    // Kernel-relative clock re-basing: `base` is added to every local
    // timestamp; advanced past the watermark at each KernelEnd.
    let mut base = 0.0f64;
    let mut watermark = 0.0f64;
    let abs = |local: f64, watermark: &mut f64, base: f64| {
        let t = base + local.max(0.0);
        if t > *watermark {
            *watermark = t;
        }
        t
    };

    // Open TBs keyed by (node, sm, bx, by) -> absolute dispatch time.
    let mut open_tbs: BTreeMap<(u16, u32, u32, u32), Vec<f64>> = BTreeMap::new();
    let mut nodes_seen: BTreeMap<u16, ()> = BTreeMap::new();
    let mut route_bins = EpochBins::default();
    let mut link_bins = EpochBins::default();
    let mut kernels = 0u64;

    for ev in events {
        match ev {
            Event::KernelBegin {
                kernel,
                policy,
                grid,
                schedule,
            } => {
                kernels += 1;
                let ts = abs(0.0, &mut watermark, base);
                let json = format!(
                    "{{\"name\":\"kernel_begin\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":0,\"s\":\"g\",\"args\":{{\"kernel\":\"{}\",\"policy\":\"{}\",\"grid\":\"{}x{}\",\"schedule\":\"{}\"}}}}",
                    number(ts),
                    escape(kernel),
                    escape(policy),
                    grid.0,
                    grid.1,
                    escape(schedule)
                );
                push(&mut raws, ts, json);
            }
            Event::ArgDecision {
                kernel,
                arg,
                name,
                class,
                preference,
                bytes,
                winner,
                page_map,
                remote_insert,
            } => {
                let ts = abs(0.0, &mut watermark, base);
                let json = format!(
                    "{{\"name\":\"arg_decision\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":0,\"s\":\"p\",\"args\":{{\"kernel\":\"{}\",\"arg\":{},\"arg_name\":\"{}\",\"class\":\"{}\",\"preference\":\"{}\",\"bytes\":{},\"winner\":{},\"page_map\":\"{}\",\"remote_insert\":\"{}\"}}}}",
                    number(ts),
                    escape(kernel),
                    arg,
                    escape(name),
                    escape(class),
                    escape(preference),
                    bytes,
                    winner,
                    escape(page_map),
                    escape(remote_insert)
                );
                push(&mut raws, ts, json);
            }
            Event::TbDispatch {
                time,
                bx,
                by,
                node,
                sm,
            } => {
                nodes_seen.insert(*node, ());
                let ts = abs(*time, &mut watermark, base);
                open_tbs.entry((*node, *sm, *bx, *by)).or_default().push(ts);
            }
            Event::TbRetire {
                time,
                bx,
                by,
                node,
                sm,
            } => {
                let ts = abs(*time, &mut watermark, base);
                if let Some(t0) = open_tbs.get_mut(&(*node, *sm, *bx, *by)).and_then(Vec::pop) {
                    let json = format!(
                        "{{\"name\":\"tb\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"bx\":{},\"by\":{}}}}}",
                        number(t0),
                        number((ts - t0).max(0.0)),
                        node + 1,
                        sm,
                        bx,
                        by
                    );
                    push(&mut raws, t0, json);
                }
            }
            Event::Sector {
                time, node, route, ..
            } => {
                nodes_seen.insert(*node, ());
                let ts = abs(*time, &mut watermark, base);
                route_bins.add(ts, *node, route.label(), 1);
            }
            Event::LinkTransfer {
                time,
                level,
                index,
                bytes,
            } => {
                let ts = abs(*time, &mut watermark, base);
                link_bins.add(ts, *index, level.label(), u64::from(*bytes));
            }
            Event::FirstTouch { time, page, node } => {
                nodes_seen.insert(*node, ());
                let ts = abs(*time, &mut watermark, base);
                let json = format!(
                    "{{\"name\":\"first_touch\",\"ph\":\"i\",\"ts\":{},\"pid\":{},\"tid\":0,\"s\":\"t\",\"args\":{{\"page\":{}}}}}",
                    number(ts),
                    node + 1,
                    page
                );
                push(&mut raws, ts, json);
            }
            Event::KernelEnd { kernel, time } => {
                let ts = abs(*time, &mut watermark, base);
                let json = format!(
                    "{{\"name\":\"kernel_end\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":0,\"s\":\"g\",\"args\":{{\"kernel\":\"{}\"}}}}",
                    number(ts),
                    escape(kernel)
                );
                push(&mut raws, ts, json);
                // Next kernel starts strictly after everything seen so
                // far, on an epoch boundary for tidy counter lanes.
                base = (watermark / EPOCH_CYCLES + 1.0).floor() * EPOCH_CYCLES;
            }
            Event::PlanAdopted {
                kernel,
                arg,
                name,
                pinned_by,
                reuse,
            } => {
                let ts = abs(0.0, &mut watermark, base);
                let json = format!(
                    "{{\"name\":\"plan_adopted\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":0,\"s\":\"p\",\"args\":{{\"kernel\":\"{}\",\"arg\":{},\"arg_name\":\"{}\",\"pinned_by\":\"{}\",\"reuse\":{}}}}}",
                    number(ts),
                    escape(kernel),
                    arg,
                    escape(name),
                    escape(pinned_by),
                    reuse
                );
                push(&mut raws, ts, json);
            }
            Event::PlanReplanned {
                kernel,
                arg,
                name,
                page_map,
            } => {
                let ts = abs(0.0, &mut watermark, base);
                let json = format!(
                    "{{\"name\":\"plan_replanned\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":0,\"s\":\"p\",\"args\":{{\"kernel\":\"{}\",\"arg\":{},\"arg_name\":\"{}\",\"page_map\":\"{}\"}}}}",
                    number(ts),
                    escape(kernel),
                    arg,
                    escape(name),
                    escape(page_map)
                );
                push(&mut raws, ts, json);
            }
            Event::PlanInvalidated {
                alloc,
                name,
                reason,
            } => {
                let ts = abs(0.0, &mut watermark, base);
                let json = format!(
                    "{{\"name\":\"plan_invalidated\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":0,\"s\":\"p\",\"args\":{{\"alloc\":{},\"arg_name\":\"{}\",\"reason\":\"{}\"}}}}",
                    number(ts),
                    alloc,
                    escape(name),
                    escape(reason)
                );
                push(&mut raws, ts, json);
            }
        }
    }

    // Counter events: one "C" sample per (epoch, node) carrying every
    // series observed in that bin.
    let flush_bins = |raws: &mut Vec<Raw>, bins: &EpochBins, name: &str| {
        let mut grouped: BTreeMap<(u64, u16), Vec<(&String, u64)>> = BTreeMap::new();
        for ((epoch, node, series), value) in &bins.bins {
            grouped
                .entry((*epoch, *node))
                .or_default()
                .push((series, *value));
        }
        for ((epoch, node), series) in grouped {
            let ts = epoch as f64 * EPOCH_CYCLES;
            let mut args = String::new();
            for (i, (k, v)) in series.iter().enumerate() {
                if i > 0 {
                    args.push(',');
                }
                let _ = write!(args, "\"{}\":{}", escape(k), v);
            }
            let json = format!(
                "{{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":{},\"pid\":{},\"tid\":0,\"args\":{{{args}}}}}",
                number(ts),
                node + 1
            );
            raws.push(Raw {
                ts,
                seq: usize::MAX,
                json,
            });
        }
    };
    flush_bins(&mut raws, &route_bins, "sector_routes");
    flush_bins(&mut raws, &link_bins, "link_bytes");

    // Driver lane tid 0: the merged self-profile as a flame chart. The
    // merged tree has durations but no timeline, so spans are laid out
    // at cumulative offsets — siblings in sequence inside their
    // parent's interval, self time filling the remainder. Wall
    // nanoseconds render as Chrome microseconds.
    let mut profiled = false;
    if let Some(p) = profile {
        fn layout(node: &ProfNode, offset_ns: u64, raws: &mut Vec<Raw>) {
            let ts = offset_ns as f64 / 1000.0;
            let json = format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{DRIVER_PID},\"tid\":0,\"args\":{{\"calls\":{},\"self_ns\":{}}}}}",
                escape(&node.name),
                number(ts),
                number(node.total_ns as f64 / 1000.0),
                node.count,
                node.self_ns()
            );
            raws.push(Raw {
                ts,
                seq: usize::MAX,
                json,
            });
            let mut child_off = offset_ns;
            for c in &node.children {
                layout(c, child_off, raws);
                child_off += c.total_ns;
            }
        }
        let mut off = 0u64;
        for r in &p.roots {
            layout(r, off, &mut raws);
            off += r.total_ns;
        }
        profiled = !p.roots.is_empty();
    }

    // Metadata: lane names. Emitted first regardless of sort.
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |out: &mut String, json: &str| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
        out.push_str(json);
    };
    emit(
        &mut out,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"runtime (policy decisions)\"}}",
    );
    for node in nodes_seen.keys() {
        emit(
            &mut out,
            &format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"chiplet {node}\"}}}}",
                node + 1
            ),
        );
    }
    if profiled {
        emit(
            &mut out,
            &format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{DRIVER_PID},\"tid\":0,\"args\":{{\"name\":\"driver (self-profile)\"}}}}"
            ),
        );
        emit(
            &mut out,
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{DRIVER_PID},\"tid\":0,\"args\":{{\"name\":\"phases (wall \\u00b5s)\"}}}}"
            ),
        );
    }

    raws.sort_by(|a, b| {
        a.ts.partial_cmp(&b.ts)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.seq.cmp(&b.seq))
    });
    for raw in &raws {
        emit(&mut out, &raw.json);
    }

    let _ = write!(
        out,
        "\n],\"otherData\":{{\"exporter\":\"ladm-obs\",\"clock\":\"sim-cycles\",\"epoch_cycles\":{},\"kernels\":{}}}}}",
        number(EPOCH_CYCLES),
        kernels
    );
    out
}

/// The fixed route labels, exported for validation tooling.
pub fn route_series() -> Vec<&'static str> {
    SectorRoute::all().iter().map(|r| r.label()).collect()
}

/// The fixed link-level labels, exported for validation tooling.
pub fn link_series() -> Vec<&'static str> {
    LinkLevel::all().iter().map(|l| l.label()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::KernelBegin {
                kernel: "k".into(),
                policy: "lasp".into(),
                grid: (4, 1),
                schedule: "spread".into(),
            },
            Event::ArgDecision {
                kernel: "k".into(),
                arg: 0,
                name: "a".into(),
                class: "NL-H".into(),
                preference: "rr-batch".into(),
                bytes: 4096,
                winner: true,
                page_map: "chunk".into(),
                remote_insert: "twice".into(),
            },
            Event::TbDispatch {
                time: 0.0,
                bx: 0,
                by: 0,
                node: 0,
                sm: 0,
            },
            Event::Sector {
                time: 10.0,
                node: 0,
                home: 1,
                route: SectorRoute::DramRemote,
                write: false,
                page: 3,
                bytes: 32,
            },
            Event::LinkTransfer {
                time: 10.0,
                level: LinkLevel::Ring,
                index: 0,
                bytes: 32,
            },
            Event::FirstTouch {
                time: 10.0,
                page: 3,
                node: 1,
            },
            Event::TbRetire {
                time: 50.0,
                bx: 0,
                by: 0,
                node: 0,
                sm: 0,
            },
            Event::KernelEnd {
                kernel: "k".into(),
                time: 60.0,
            },
        ]
    }

    #[test]
    fn emits_parseable_chrome_json() {
        let text = chrome_trace(&sample_events());
        let doc = Json::parse(&text).expect("exporter output must parse");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert!(doc.get("otherData").is_some());
        // Every event has the mandatory fields.
        for ev in events {
            assert!(ev.get("ph").is_some(), "missing ph in {ev:?}");
            assert!(ev.get("name").is_some(), "missing name in {ev:?}");
            assert!(ev.get("pid").is_some(), "missing pid in {ev:?}");
        }
        // The TB appears as a complete event with a duration.
        let tb = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("tb"))
            .expect("tb event");
        assert_eq!(tb.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(tb.get("dur").and_then(Json::as_f64), Some(50.0));
        // Counter lanes exist for routes and links.
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("sector_routes")));
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("link_bytes")));
    }

    #[test]
    fn second_kernel_is_rebased_after_first() {
        let mut ev = sample_events();
        let mut second = sample_events();
        ev.append(&mut second);
        let text = chrome_trace(&ev);
        let doc = Json::parse(&text).unwrap();
        let begins: Vec<f64> = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("kernel_begin"))
            .map(|e| e.get("ts").and_then(Json::as_f64).unwrap())
            .collect();
        assert_eq!(begins.len(), 2);
        assert!(begins[1] > 60.0, "second kernel must start after first");
    }

    #[test]
    fn profile_renders_as_flame_chart_lane() {
        use crate::prof::ProfNode;
        let profile = Profile {
            roots: vec![ProfNode {
                name: "kernel".into(),
                total_ns: 10_000,
                count: 1,
                children: vec![
                    ProfNode {
                        name: "drain".into(),
                        total_ns: 6_000,
                        count: 3,
                        children: vec![],
                    },
                    ProfNode {
                        name: "gen".into(),
                        total_ns: 3_000,
                        count: 3,
                        children: vec![],
                    },
                ],
            }],
            counters: Default::default(),
        };
        let text = chrome_trace_with_profile(&sample_events(), Some(&profile));
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let driver: Vec<_> = events
            .iter()
            .filter(|e| {
                e.get("pid").and_then(Json::as_f64) == Some(DRIVER_PID as f64)
                    && e.get("ph").and_then(Json::as_str) == Some("X")
            })
            .collect();
        assert_eq!(driver.len(), 3, "kernel + two children");
        let by_name = |n: &str| {
            driver
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(n))
                .unwrap_or_else(|| panic!("missing span {n}"))
        };
        // Children nest inside the parent interval at cumulative
        // offsets, in (sorted) child order: drain then gen.
        assert_eq!(
            by_name("kernel").get("ts").and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            by_name("kernel").get("dur").and_then(Json::as_f64),
            Some(10.0)
        );
        assert_eq!(by_name("drain").get("ts").and_then(Json::as_f64), Some(0.0));
        assert_eq!(by_name("gen").get("ts").and_then(Json::as_f64), Some(6.0));
        // Without a profile the driver flame lane is absent.
        let plain = chrome_trace(&sample_events());
        assert!(!plain.contains("driver (self-profile)"));
    }
}
