//! `repro` — regenerates every table and figure of the LADM paper.
//!
//! ```text
//! repro [--bench] [--threads N] [--sim-threads N] <experiment>
//!   experiments: fig4 fig9 fig10 fig11 tab1 tab2 tab3 tab4 lint dgx1 decode
//!                swizzle swizzle-smoke ablations summary all
//! repro --trace <workload>...
//! repro --profile <workload>...
//! ```
//!
//! By default runs at `Scale::Test` (small inputs, seconds); `--bench`
//! uses the larger benchmark inputs (the numbers recorded in
//! EXPERIMENTS.md).
//!
//! `--threads` controls the experiment fan-out (how many `(workload,
//! policy)` cells run concurrently); `--sim-threads` controls the engine
//! worker threads *inside* each simulation (equivalent to setting
//! `LADM_SIM_THREADS`). Statistics are bit-identical for any
//! `--sim-threads` value; only wall time changes.
//!
//! With `--trace`, the positional arguments are Table IV workload names
//! instead of experiments: each is run once under LADM with the
//! observability sink attached, a Chrome trace (`trace-<name>.json`) is
//! written next to the working directory, and the NUMA traffic matrix
//! plus the counter exposition are printed. See `ladm-trace` for policy
//! selection and validation.
//!
//! With `--profile`, each named workload is run once under LADM with
//! both the recording sink and the [`ladm_obs::prof`] self-profiler
//! attached: the phase-attribution table is printed, the folded
//! collapsed-stack output (`profile-<name>.folded`, flamegraph input)
//! is written, and the Chrome trace (`profile-<name>-trace.json`) gains
//! a driver lane showing where the *simulator* spent its wall time.

use ladm_bench::experiments::{
    ablations, decode, default_threads, dgx1, fig11, fig4, fig9_10, fmt_decode, fmt_fig11,
    fmt_lint, fmt_table1, fmt_table4, lint, swizzle, table1, table4, Fig10,
};
use ladm_core::analysis::{classify, GridShape};
use ladm_core::expr::{Expr, Poly, Var};
use ladm_sim::SimConfig;
use ladm_workloads::Scale;
use std::time::Instant;

/// Decode iterations for the `decode` session experiment — enough that
/// the steady state (steps 2+) dominates the first placing step.
const DECODE_STEPS: usize = 8;

/// Workloads the `swizzle-smoke` CI step runs — the first entries of
/// `SWIZZLE_WORKLOADS` (one GEMM, two FC layers), enough to exercise
/// every policy in the lineup without the full suite's wall time.
const SWIZZLE_SMOKE_WORKLOADS: usize = 3;

/// The experiments `all` runs, in order.
const ALL: &str =
    "tab2 tab3 lint tab1 tab4 fig4 fig9 fig10 fig11 dgx1 decode swizzle ablations summary";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Test;
    let mut threads = default_threads();
    let mut trace = false;
    let mut profile = false;
    let mut what: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => scale = Scale::Bench,
            "--test" => scale = Scale::Test,
            "--trace" => trace = true,
            "--profile" => profile = true,
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--threads needs a number"));
            }
            "--sim-threads" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .unwrap_or_else(|| usage("--sim-threads needs a positive integer"));
                // Experiments build their GpuSystems internally; the
                // engine inherits its worker count from this variable.
                std::env::set_var("LADM_SIM_THREADS", n.to_string());
            }
            "-h" | "--help" => usage(""),
            other => what.push(other.to_string()),
        }
    }
    if what.is_empty() {
        usage(if trace {
            "--trace needs at least one workload name"
        } else if profile {
            "--profile needs at least one workload name"
        } else {
            "no experiment given"
        });
    }
    if trace {
        run_traces(scale, &what);
        return;
    }
    if profile {
        run_profiles(scale, &what);
        return;
    }
    let list: Vec<&str> = if what.iter().any(|w| w == "all") {
        ALL.split_whitespace().collect()
    } else {
        what.iter().map(|s| s.as_str()).collect()
    };

    // fig9/fig10/summary share runs; compute lazily once.
    let mut fig9_cache = None;
    for item in list {
        let t0 = Instant::now();
        match item {
            "fig4" => println!("{}", fig4(scale, threads)),
            "fig9" => {
                let f = fig9_cache.get_or_insert_with(|| fig9_10(scale, threads));
                println!("{f}");
            }
            "fig10" => {
                let f = fig9_cache.get_or_insert_with(|| fig9_10(scale, threads));
                println!("{}", Fig10(f));
            }
            "fig11" => println!("{}", fmt_fig11(&fig11(scale, threads))),
            "tab1" => {
                let (policies, rows) = table1(scale, threads);
                println!("{}", fmt_table1(&policies, &rows));
            }
            "tab2" => print_table2(),
            "tab3" => print_table3(),
            "tab4" => println!("{}", fmt_table4(&table4(scale, threads))),
            "lint" => println!("{}", fmt_lint(&lint(scale, threads))),
            "dgx1" => println!("{}", dgx1(scale, threads)),
            "decode" => println!("{}", fmt_decode(&decode(scale, DECODE_STEPS, threads))),
            "swizzle" => println!("{}", swizzle(scale, threads, None)),
            "swizzle-smoke" => {
                println!("{}", swizzle(scale, threads, Some(SWIZZLE_SMOKE_WORKLOADS)))
            }
            "ablations" => println!("{}", ablations(scale)),
            "summary" => {
                let f = fig9_cache.get_or_insert_with(|| fig9_10(scale, threads));
                println!("{}", f.summary());
            }
            other => usage(&format!("unknown experiment '{other}'")),
        }
        eprintln!("[{item} done in {:.1?}]\n", t0.elapsed());
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: repro [--bench] [--threads N] [--sim-threads N] <fig4|fig9|fig10|fig11|tab1|tab2|tab3|tab4|lint|dgx1|decode|swizzle|swizzle-smoke|ablations|summary|all>\n\
         \u{20}      repro [--bench] --trace <workload>...\n\
         \u{20}      repro [--bench] --profile <workload>...\n\
         \n\
         --threads N      experiment cells run concurrently (default: CPU count)\n\
         --sim-threads N  engine worker threads per simulation (default: 1;\n\
                          statistics are bit-identical for any N)\n\
         --profile        self-profile the named workloads: phase table,\n\
                          profile-<name>.folded (flamegraph input) and a\n\
                          Chrome trace with a driver wall-time lane"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

/// `--trace` mode: runs each named workload once under LADM with the
/// recording sink, writes `trace-<name>.json`, and prints the traffic
/// matrix plus the counter exposition.
fn run_traces(scale: Scale, names: &[String]) {
    let cfg = SimConfig::paper_multi_gpu();
    let policy = ladm_core::policies::Lasp::ladm();
    for name in names {
        let t0 = Instant::now();
        let run =
            ladm_bench::trace::trace_by_name(name, scale, &cfg, &policy).unwrap_or_else(|| {
                usage(&format!(
                    "unknown workload '{name}' (try ladm-trace --list)"
                ))
            });
        let out = format!("trace-{}.json", run.name.to_lowercase());
        if let Err(e) = std::fs::write(&out, run.chrome_json()) {
            eprintln!("error: cannot write {out}: {e}");
            std::process::exit(1);
        }
        println!(
            "{} under {}: {} events, {:.0} cycles, {} threadblocks",
            run.name,
            run.policy,
            run.events.len(),
            run.stats.cycles,
            run.stats.threadblocks
        );
        println!("chrome trace written to {out}\n");
        println!("{}\n", run.traffic_matrix().render_text());
        print!("{}", run.counters().expose());
        eprintln!("[trace {} done in {:.1?}]\n", run.name, t0.elapsed());
    }
}

/// `--profile` mode: runs each named workload once under LADM with both
/// the recording sink and the self-profiler attached, prints the phase
/// attribution table, and writes the folded flamegraph input plus a
/// Chrome trace carrying the driver wall-time lane.
fn run_profiles(scale: Scale, names: &[String]) {
    use ladm_bench::profile::render_profile_text;
    use ladm_bench::profile::ProfiledRun;
    use ladm_obs::{chrome_trace_with_profile, prof};

    let cfg = SimConfig::paper_multi_gpu();
    let policy = ladm_core::policies::Lasp::ladm();
    let sim_threads = std::env::var("LADM_SIM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1);
    for name in names {
        prof::reset();
        prof::enable();
        let t0 = Instant::now();
        let traced =
            ladm_bench::trace::trace_by_name(name, scale, &cfg, &policy).unwrap_or_else(|| {
                prof::disable();
                usage(&format!(
                    "unknown workload '{name}' (try ladm-trace --list)"
                ))
            });
        let wall_ns = t0.elapsed().as_nanos() as u64;
        prof::disable();
        let run = ProfiledRun {
            profile: prof::take(),
            stats: traced.stats,
            wall_ns,
        };

        print!("{}", render_profile_text(&traced.name, sim_threads, &run));

        let stem = traced.name.to_lowercase();
        let folded = format!("profile-{stem}.folded");
        if let Err(e) = std::fs::write(&folded, run.profile.render_folded()) {
            eprintln!("error: cannot write {folded}: {e}");
            std::process::exit(1);
        }
        let trace_out = format!("profile-{stem}-trace.json");
        let doc = chrome_trace_with_profile(&traced.events, Some(&run.profile));
        if let Err(e) = std::fs::write(&trace_out, doc) {
            eprintln!("error: cannot write {trace_out}: {e}");
            std::process::exit(1);
        }
        println!("flamegraph input written to {folded}");
        println!("chrome trace (with driver lane) written to {trace_out}\n");
    }
}

/// Table II: the classifier demonstrated on the canonical index
/// equations (matrix multiply of Fig. 6 plus the other rows).
fn print_table2() {
    fn v(x: Var) -> Expr {
        Expr::var(x)
    }
    let width = || v(Var::Bdx) * v(Var::Gdx);
    let m = || v(Var::Ind(0));
    let cases: Vec<(&str, Poly, GridShape)> = vec![
        (
            "vecadd: bx*bdx + tx",
            (v(Var::Bx) * v(Var::Bdx) + v(Var::Tx)).to_poly(),
            GridShape::OneD,
        ),
        (
            "grid-stride: tid + m*bdx*gdx",
            (v(Var::Bx) * v(Var::Bdx) + v(Var::Tx) + m() * width()).to_poly(),
            GridShape::OneD,
        ),
        (
            "gemm A: (by*16+ty)*W + m*16 + tx",
            ((v(Var::By) * 16 + v(Var::Ty)) * width() + m() * 16 + v(Var::Tx)).to_poly(),
            GridShape::TwoD,
        ),
        (
            "col-h: bx*bdx + tx + m*16",
            (v(Var::Bx) * v(Var::Bdx) + v(Var::Tx) + m() * 16).to_poly(),
            GridShape::TwoD,
        ),
        (
            "row-v: by*bdy + ty + m*W",
            (v(Var::By) * v(Var::Bdy) + v(Var::Ty) + m() * width()).to_poly(),
            GridShape::TwoD,
        ),
        (
            "gemm B: (m*16+ty)*W + bx*16 + tx",
            ((m() * 16 + v(Var::Ty)) * width() + v(Var::Bx) * 16 + v(Var::Tx)).to_poly(),
            GridShape::TwoD,
        ),
        (
            "csr walk: row_ptr[tid] + m",
            (v(Var::Data) + m()).to_poly(),
            GridShape::OneD,
        ),
        ("gather: X[Y[tid]]", v(Var::Data).to_poly(), GridShape::OneD),
    ];
    println!("Table II: index classification (locality type, scheduling, placement, cache)");
    println!(
        "{:<38} {:>4} {:<18} {:<14} {:<12} {:<8}",
        "index equation", "row", "class", "scheduling", "placement", "cache"
    );
    for (label, poly, shape) in cases {
        let class = classify(&poly, shape, 0);
        let row = class.table_row();
        let (sched, place, cache) = match row {
            1 => ("align-aware", "stride-aware", "RTWICE"),
            2 => ("row-binding", "row-based", "RTWICE"),
            3 => ("col-binding", "row-based", "RTWICE"),
            4 => ("row-binding", "col-based", "RTWICE"),
            5 => ("col-binding", "col-based", "RTWICE"),
            6 => ("kernel-wide", "kernel-wide", "RONCE"),
            _ => ("kernel-wide", "kernel-wide", "RTWICE"),
        };
        println!(
            "{:<38} {:>4} {:<18} {:<14} {:<12} {:<8}",
            label,
            row,
            class.to_string(),
            sched,
            place,
            cache
        );
    }
    println!();
}

/// Table III: the simulated machine configuration.
fn print_table3() {
    let c = SimConfig::paper_multi_gpu();
    let m = SimConfig::monolithic();
    println!("Table III: multi-GPU configuration");
    println!(
        "  #GPUs                 {} GPUs, {} chiplets per GPU",
        c.topology.num_gpus, c.topology.chiplets_per_gpu
    );
    println!(
        "  #SMs                  {} ({} per chiplet), {} warps/SM, warp {}",
        c.total_sms(),
        c.sms_per_chiplet,
        c.warps_per_sm,
        c.warp_size
    );
    println!(
        "  L1 / SM               {} KiB, {}-way, {} B lines / {} B sectors",
        c.l1.bytes >> 10,
        c.l1.assoc,
        c.l1.line_bytes,
        c.l1.sector_bytes
    );
    println!(
        "  L2                    {} MiB total ({} MiB per chiplet), {}-way",
        (c.l2.bytes * u64::from(c.topology.num_nodes())) >> 20,
        c.l2.bytes >> 20,
        c.l2.assoc
    );
    println!(
        "  Intra-chiplet xbar    {:.0} GB/s, {} cyc",
        c.intra_chiplet_bw * 1.4,
        c.intra_chiplet_latency
    );
    println!(
        "  Inter-chiplet ring    {:.0} GB/s per GPU, {} cyc",
        c.ring_bw * 1.4,
        c.ring_latency
    );
    println!(
        "  Inter-GPU switch      {:.0} GB/s per link, {} cyc",
        c.switch_bw * 1.4,
        c.switch_latency
    );
    println!(
        "  HBM                   {:.0} GB/s per chiplet ({:.0} GB/s per GPU), {} cyc",
        c.dram_bw * 1.4,
        c.dram_bw * 1.4 * f64::from(c.topology.chiplets_per_gpu),
        c.dram_latency
    );
    println!(
        "  Monolithic reference  {} SMs, {} MiB L2, {:.1} TB/s xbar",
        m.total_sms(),
        m.l2.bytes >> 20,
        m.intra_chiplet_bw * 1.4 / 1000.0
    );
    println!("  Page size             {} B", c.page_bytes);
    println!();
}
