//! `ladm-perf`: the host-speed benchmark of the LADM simulator.
//!
//! ```text
//! ladm-perf --workload <suite-ladm|suite-hcoda|suite-ladm-t2|decode-session|all>
//!           [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//!           [--scale bench|test] [--golden FILE]
//! ladm-perf --regen-golden [--scale bench|test] [--golden FILE]
//! ```
//!
//! A run builds the workload's inputs, runs timed passes on fresh
//! machines of the paper's multi-GPU configuration until `--seconds` is
//! spent, checks every simulated result against the golden digest, and
//! prints every metric by name and unit. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics, or with `--trace 1` the per-layer metrics of
//! one extra traced pass. Exit status: 0 when every op matched, 1 when an
//! op failed or a file could not be read or written, 2 on a usage error.
//! README.md describes the workloads, the metrics and the baseline.

mod cells;
mod digest;
mod layers;

use digest::Golden;
use ladm_core::policies::{registry, Lasp, Policy};
use ladm_obs::{json, prof};
use ladm_sim::{GpuSystem, KernelStats, OracleSystem, SessionSim, SimConfig};
use ladm_workloads::Scale;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// End-to-end metrics (untraced runs), name and unit.
const END_TO_END: [(&str, &str); 7] = [
    ("msectors_per_s", "Msector/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_cycles", "cycles"),
    ("offchip_frac", "fraction"),
];

/// Per-layer metrics (traced runs), name and unit, in the order
/// [`layers::per_layer`] returns them.
const PER_LAYER: [(&str, &str); 40] = [
    ("workloads.build_ms", "ms"),
    ("sim.new_ms", "ms"),
    ("plan.ms", "ms"),
    ("plan.calls", "count"),
    ("setup_mem.ms", "ms"),
    ("exec.setup_ms", "ms"),
    ("session.ms", "ms"),
    ("gen.ms", "ms"),
    ("gen.calls", "count"),
    ("gen.ns_per_sector", "ns"),
    ("drain.self_ms", "ms"),
    ("drain.ns_per_sector", "ns"),
    ("engine.heap_pop", "count"),
    ("shard.l1_probes", "count"),
    ("shard.l2_probes", "count"),
    ("shard.remote_serves", "count"),
    ("bw.claims", "count"),
    ("bw.stalls", "count"),
    ("par.gen_fanout_ms", "ms"),
    ("par.join_ms", "ms"),
    ("par.snapshot_ms", "ms"),
    ("par.classify_ms", "ms"),
    ("par.drain_par_ms", "ms"),
    ("par.busy_frac", "fraction"),
    ("drain.parallel_frac", "fraction"),
    ("drain.rounds", "count"),
    ("drain.demotions", "count"),
    ("exec.stats_merge_ms", "ms"),
    ("verify.ms", "ms"),
    ("sim.l1_hit_rate", "fraction"),
    ("sim.l2_hit_rate", "fraction"),
    ("sim.dram_sectors", "count"),
    ("sim.inter_chiplet_mb", "MiB"),
    ("sim.inter_gpu_mb", "MiB"),
    ("sim.bw_stall_cycles", "cycles"),
    ("sim.ipc", "instr/cycle"),
    ("sim.page_faults", "count"),
    ("session.replaced_mb", "MiB"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// Set-up is repeated at least this often per run; `setup_s` is the median.
const SETUP_SAMPLES: usize = 9;
/// Default measuring time of one run.
const DEFAULT_SECONDS: f64 = 25.0;

/// The four workloads. Each run executes one of them in its own process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bench {
    /// The 27 Table IV workloads under LADM, serial engine.
    SuiteLadm,
    /// The same cells under H-CODA: most sectors go off-chip.
    SuiteHcoda,
    /// `SuiteLadm` at two engine threads: the threaded drivers.
    SuiteLadmT2,
    /// 500 pinned + 500 replanned attention decode steps via `SessionSim`.
    DecodeSession,
}

impl Bench {
    const ALL: [Bench; 4] = [
        Bench::SuiteLadm,
        Bench::SuiteHcoda,
        Bench::SuiteLadmT2,
        Bench::DecodeSession,
    ];

    fn name(self) -> &'static str {
        match self {
            Bench::SuiteLadm => "suite-ladm",
            Bench::SuiteHcoda => "suite-hcoda",
            Bench::SuiteLadmT2 => "suite-ladm-t2",
            Bench::DecodeSession => "decode-session",
        }
    }

    fn from_name(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Registry policy name and engine threads of a suite workload.
    fn suite(self) -> Option<(&'static str, usize)> {
        match self {
            Bench::SuiteLadm => Some(("LADM", 1)),
            Bench::SuiteHcoda => Some(("H-CODA", 1)),
            Bench::SuiteLadmT2 => Some(("LADM", 2)),
            Bench::DecodeSession => None,
        }
    }
}

/// The two policies whose suite cells the golden digest covers.
const GOLDEN_POLICIES: [&str; 2] = ["LADM", "H-CODA"];

/// Decode steps per session (pinned, then replanned) in one pass.
fn decode_steps(scale: Scale) -> usize {
    match scale {
        Scale::Bench => 500,
        Scale::Test => 4,
    }
}

fn machine() -> SimConfig {
    SimConfig::paper_multi_gpu()
}

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    scale: Scale,
    golden: Option<PathBuf>,
    regen: bool,
}

const USAGE: &str =
    "usage: ladm-perf --workload <suite-ladm|suite-hcoda|suite-ladm-t2|decode-session|all> \
[--seed N] [--seconds S] [--trace [0|1]] [--out FILE] [--scale bench|test] [--golden FILE]\n       \
ladm-perf --regen-golden [--scale bench|test] [--golden FILE]";

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        scale: Scale::Bench,
        golden: None,
        regen: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if name != "all" && Bench::from_name(&name).is_none() {
                    return Err(format!("unknown workload {name:?}"));
                }
                cli.workload = Some(name);
            }
            "--seed" => {
                let v = value("a number")?;
                cli.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                cli.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                cli.trace = true;
                if let Some(v) = it.next_if(|v| *v == "0" || *v == "1") {
                    cli.trace = v == "1";
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value("a file")?)),
            "--golden" => cli.golden = Some(PathBuf::from(value("a file")?)),
            "--scale" => {
                cli.scale = match value("bench or test")?.as_str() {
                    "bench" => Scale::Bench,
                    "test" => Scale::Test,
                    other => return Err(format!("bad --scale {other:?}")),
                }
            }
            "--regen-golden" => cli.regen = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.regen == cli.workload.is_some() {
        return Err("give exactly one of --workload and --regen-golden".to_string());
    }
    Ok(cli)
}

impl Cli {
    fn golden_path(&self) -> PathBuf {
        self.golden.clone().unwrap_or_else(|| {
            let file = match self.scale {
                Scale::Bench => "bench.txt",
                Scale::Test => "test.txt",
            };
            [env!("CARGO_MANIFEST_DIR"), "golden", file]
                .iter()
                .collect()
        })
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("ladm-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if cli.regen {
        regen_golden(&cli)
    } else if cli.workload.as_deref() == Some("all") {
        run_all(&cli)
    } else {
        let bench = Bench::from_name(cli.workload.as_deref().unwrap_or_default())
            .expect("parse_args checked the name");
        run_one(&cli, bench)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ladm-perf: {e}");
            ExitCode::from(1)
        }
    }
}

/// Op counts of one run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one op; true when its digest matched.
    fn check(&mut self, what: &str, got: u64, want: Option<u64>) -> bool {
        self.attempted += 1;
        match want {
            Some(w) if w == got => return true,
            Some(w) => self.fail(format!("{what}: digest {got:016x}, golden {w:016x}")),
            None => self.fail(format!("{what}: no golden digest")),
        }
        false
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("FAILED {msg}");
        }
    }
}

/// What the passes of a run measured. A unit is a suite cell, or one
/// decode session (pinned, replanned) whose samples are its steps.
#[derive(Default)]
struct Measured {
    /// Host ms of every execution of each unit.
    unit_ms: Vec<Vec<f64>>,
    /// Peak resident MiB while each unit ran, once per execution of a
    /// cell or per decode session.
    unit_mib: Vec<Vec<f64>>,
    /// Executions of each unit in one pass: 1 for a cell, the step count
    /// for a decode session.
    execs_per_pass: usize,
    /// Simulated totals of the first pass, over the ops that matched.
    totals: KernelStats,
    replaced_bytes: u64,
}

impl Measured {
    fn new(units: usize, execs_per_pass: usize) -> Self {
        Measured {
            unit_ms: vec![Vec::new(); units],
            unit_mib: vec![Vec::new(); units],
            execs_per_pass,
            ..Measured::default()
        }
    }

    /// Host ms of one pass assembled unit by unit from each unit's
    /// `q`-quantile, so a burst of host contention during one execution
    /// moves only that unit's sample.
    fn pass_ms(&self, q: f64) -> f64 {
        let per_unit: f64 = self.unit_ms.iter().map(|ms| percentile(ms, q)).sum();
        per_unit * self.execs_per_pass as f64
    }
}

/// A workload ready to run passes: its expected digests are resolved.
struct Runner {
    scale: Scale,
    seed: u64,
    /// A suite workload's policy and engine threads; `None` for the
    /// decode sessions.
    suite: Option<(Box<dyn Policy>, usize)>,
    /// Expected digest per suite cell name, or per decode launch key.
    expected: Golden,
}

impl Runner {
    fn new(cli: &Cli, bench: Bench) -> Result<Runner, String> {
        let golden = Golden::load(&cli.golden_path())?;
        let Some((policy, threads)) = bench.suite() else {
            return Ok(Runner {
                scale: cli.scale,
                seed: cli.seed,
                suite: None,
                expected: golden,
            });
        };
        let policy = registry::build(policy).expect("registered policy");
        let mut expected = Golden::default();
        for cell in cells::suite_cells(cli.scale, cli.seed) {
            let want = if cli.seed != 0 && cells::is_graph(cell.name) {
                // Held-out graphs have no golden line: the oracle is the
                // reference, run once outside the timed passes.
                let t = Instant::now();
                let mut oracle = OracleSystem::new(machine());
                let stats: Vec<KernelStats> = cell
                    .kernels
                    .iter()
                    .map(|k| oracle.run(&**k, &*policy))
                    .collect();
                eprintln!(
                    "oracle {} {}: {:.1} s",
                    policy.name(),
                    cell.name,
                    t.elapsed().as_secs_f64()
                );
                Some(digest::cell_digest(&stats))
            } else {
                golden.get(&digest::cell_key(policy.name(), cell.name))
            };
            if let Some(w) = want {
                expected.insert(cell.name.to_string(), w);
            }
        }
        Ok(Runner {
            scale: cli.scale,
            seed: cli.seed,
            suite: Some((policy, threads)),
            expected,
        })
    }

    /// Runs passes — fresh inputs, then every cell (or decode step) on
    /// fresh machines, each result checked against its expected digest.
    /// Suites keep cycling through their cells until the next one would
    /// end past `deadline`, after at least one whole pass; without a
    /// deadline, and always for the decode sessions, one pass runs.
    fn measure(&self, deadline: Option<Instant>, tally: &mut Tally) -> Result<Measured, String> {
        match &self.suite {
            Some((policy, threads)) => self.suite_passes(&**policy, *threads, deadline, tally),
            None => self.decode_pass(tally),
        }
    }

    fn suite_passes(
        &self,
        policy: &dyn Policy,
        threads: usize,
        deadline: Option<Instant>,
        tally: &mut Tally,
    ) -> Result<Measured, String> {
        let mut m = Measured::default();
        // Whether cell `c`, as long as its last execution took, still ends
        // before the deadline.
        let fits = |m: &Measured, c: usize| {
            let last = m.unit_ms[c].last().copied().unwrap_or(0.0);
            deadline.is_some_and(|d| Instant::now() + Duration::from_secs_f64(last / 1e3) <= d)
        };
        for pass in 0.. {
            if pass > 0 && !fits(&m, 0) {
                break;
            }
            let cells = {
                let _s = prof::span("workloads.build");
                cells::suite_cells(self.scale, self.seed)
            };
            if pass == 0 {
                m = Measured::new(cells.len(), 1);
            }
            for (c, cell) in cells.iter().enumerate() {
                if pass > 0 && !fits(&m, c) {
                    return Ok(m);
                }
                let mut sys = {
                    let _s = prof::span("sim.new");
                    GpuSystem::new(machine())
                };
                sys.set_threads(threads);
                reset_peak_rss()?;
                let t = Instant::now();
                let out = catch_unwind(AssertUnwindSafe(|| {
                    let _s = prof::span("run");
                    cell.kernels
                        .iter()
                        .map(|k| sys.run(&**k, policy))
                        .collect::<Vec<_>>()
                }));
                m.unit_ms[c].push(t.elapsed().as_secs_f64() * 1e3);
                m.unit_mib[c].push(peak_rss_mib()?);

                let _s = prof::span("verify");
                let what = format!("{} {}", policy.name(), cell.name);
                match out {
                    Ok(stats) => {
                        let got = digest::cell_digest(&stats);
                        if tally.check(&what, got, self.expected.get(cell.name)) && pass == 0 {
                            stats.iter().for_each(|s| m.totals.accumulate(s));
                        }
                    }
                    Err(_) => {
                        tally.attempted += 1;
                        tally.fail(format!("{what}: panicked"));
                    }
                }
            }
        }
        Ok(m)
    }

    fn decode_pass(&self, tally: &mut Tally) -> Result<Measured, String> {
        let step = {
            let _s = prof::span("workloads.build");
            cells::decode_step()
        };
        let mut sessions = [true, false].map(|pinned| {
            let _s = prof::span("sim.new");
            let mut sim = SessionSim::new(machine(), Lasp::ladm(), pinned);
            sim.set_threads(1);
            (pinned, sim)
        });
        let steps = decode_steps(self.scale);
        let mut m = Measured::new(sessions.len(), steps);
        let names: Vec<&str> = step
            .kernels
            .iter()
            .map(|k| k.launch().kernel.name)
            .collect();
        for (u, (pinned, sim)) in sessions.iter_mut().enumerate() {
            reset_peak_rss()?;
            for i in 0..steps {
                let t = Instant::now();
                let out = catch_unwind(AssertUnwindSafe(|| {
                    let _s = prof::span("run_step");
                    sim.run_step(&step.kernels)
                }));
                m.unit_ms[u].push(t.elapsed().as_secs_f64() * 1e3);

                let _s = prof::span("verify");
                let Ok(launches) = out else {
                    // The session's state is unknown after a panic: its
                    // remaining launches count as failed too.
                    let lost = ((steps - i) * names.len()) as u64;
                    tally.attempted += lost;
                    tally.failed += lost - 1;
                    tally.fail(format!("decode step {i}: panicked"));
                    break;
                };
                for (name, r) in names.iter().zip(&launches) {
                    let key = digest::launch_key(*pinned, name, i);
                    if tally.check(&key, digest::launch_digest(r), self.expected.get(&key)) {
                        m.totals.accumulate(&r.stats);
                        m.replaced_bytes += r.replaced_bytes;
                    }
                }
            }
            m.unit_mib[u].push(peak_rss_mib()?);
        }
        Ok(m)
    }

    /// One set-up: the inputs and fresh machines a pass starts from,
    /// built and dropped.
    fn setup(&self) -> f64 {
        let t = Instant::now();
        match &self.suite {
            Some((_, threads)) => {
                for _ in cells::suite_cells(self.scale, self.seed) {
                    let mut sys = GpuSystem::new(machine());
                    sys.set_threads(*threads);
                    drop(std::hint::black_box(sys));
                }
            }
            None => {
                let step = cells::decode_step();
                for pinned in [true, false] {
                    let sim = SessionSim::new(machine(), Lasp::ladm(), pinned);
                    drop(std::hint::black_box(sim));
                }
                drop(std::hint::black_box(step));
            }
        }
        t.elapsed().as_secs_f64()
    }
}

/// Runs one workload and prints its metrics; `Ok(false)` when an op failed.
fn run_one(cli: &Cli, bench: Bench) -> Result<bool, String> {
    let runner = Runner::new(cli, bench)?;
    let mut tally = Tally::default();
    let setups: Vec<f64> = (0..SETUP_SAMPLES).map(|_| runner.setup()).collect();
    let deadline = Instant::now() + Duration::from_secs_f64(cli.seconds);
    let m = runner.measure(Some(deadline), &mut tally)?;

    let sectors = (m.totals.l1_hits + m.totals.l1_misses) as f64;
    let all_steps: Vec<f64> = m.unit_ms.concat();
    let (p50, p99) = match bench.suite() {
        // A suite step is one pass over the cells, assembled cell by cell.
        Some(_) => (m.pass_ms(0.50), m.pass_ms(0.99)),
        None => (percentile(&all_steps, 0.50), percentile(&all_steps, 0.99)),
    };
    let peak_mib = m.unit_mib.iter().map(|v| median(v)).fold(0.0, f64::max);
    let end_to_end = [
        ("msectors_per_s", sectors / m.pass_ms(0.50) / 1e3),
        ("step_ms_p50", p50),
        ("step_ms_p99", p99),
        ("setup_s", median(&setups)),
        ("peak_rss_mb", peak_mib),
        ("sim_cycles", m.totals.cycles),
        ("offchip_frac", m.totals.offchip_fraction()),
    ];

    let mut per_layer = Vec::new();
    if cli.trace {
        prof::reset();
        prof::enable();
        let t = Instant::now();
        let pass = runner.measure(None, &mut tally);
        let wall_s = t.elapsed().as_secs_f64();
        prof::disable();
        let profile = prof::take();
        let pass = pass?;
        per_layer = layers::per_layer(&layers::TracedPass {
            profile: &profile,
            wall_s,
            run_s: pass.pass_ms(0.50) / 1e3,
            untraced_run_s: m.pass_ms(0.50) / 1e3,
            threads: bench.suite().map_or(1, |(_, threads)| threads),
            totals: &pass.totals,
            replaced_bytes: pass.replaced_bytes,
        });
    }

    println!(
        "ladm-perf {} seed={} scale={:?} executions={} ops={} ops_failed={}",
        bench.name(),
        cli.seed,
        cli.scale,
        all_steps.len(),
        tally.attempted,
        tally.failed
    );
    print_table(&END_TO_END, &end_to_end);
    print_table(&PER_LAYER, &per_layer);
    let line = if cli.trace {
        result_json(tally.attempted, tally.failed, &PER_LAYER, &per_layer)
    } else {
        result_json(tally.attempted, tally.failed, &END_TO_END, &end_to_end)
    };
    emit(cli, &line)?;
    Ok(tally.failed == 0)
}

/// Runs every workload in a child process of its own, one after another,
/// then prints one JSON line over all of them (metrics `<workload>.<name>`).
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate ladm-perf: {e}"))?;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for bench in Bench::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", bench.name()])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }])
            .args([
                "--scale",
                if cli.scale == Scale::Test {
                    "test"
                } else {
                    "bench"
                },
            ]);
        if let Some(g) = &cli.golden {
            cmd.arg("--golden").arg(g);
        }
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", bench.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let result = stdout
            .lines()
            .last()
            .and_then(|l| json::Json::parse(l).ok())
            .ok_or_else(|| format!("{} printed no result ({})", bench.name(), out.status))?;
        let count = |key: &str| result.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        attempted += count("attempted");
        failed += count("failed");
        if !out.status.success() && count("failed") == 0 {
            failed += 1;
        }
        if let Some(json::Json::Object(m)) = result.get("metrics") {
            for (name, v) in m {
                let value = v.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
                let unit = v.get("unit").and_then(|u| u.as_str()).unwrap_or("");
                metrics.push((format!("{}.{name}", bench.name()), value, unit.to_string()));
            }
        }
    }
    let table: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(n, _, u)| (n.as_str(), u.as_str()))
        .collect();
    let values: Vec<(&str, f64)> = metrics.iter().map(|(n, v, _)| (n.as_str(), *v)).collect();
    emit(cli, &result_json(attempted, failed, &table, &values))?;
    Ok(failed == 0)
}

fn print_table(table: &[(&str, &str)], values: &[(&str, f64)]) {
    for ((name, value), (declared, unit)) in values.iter().zip(table) {
        debug_assert_eq!(name, declared, "metric order");
        println!("  {name:<24} {value:>18.6} {unit}");
    }
}

/// The result object: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &[(&str, f64)],
) -> String {
    let metrics: Vec<String> = values
        .iter()
        .zip(table)
        .map(|((name, value), (_, unit))| {
            // JSON has no NaN or infinity; a metric that could not be
            // formed reads 0.
            let v = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json::escape(name),
                json::number(v),
                json::escape(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(", ")
    )
}

/// Prints the result line last on standard output, and to `--out`.
fn emit(cli: &Cli, line: &str) -> Result<(), String> {
    if let Some(path) = &cli.out {
        std::fs::write(path, format!("{line}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{line}");
    Ok(())
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linear interpolation between closest ranks; 0 for no samples.
fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Resets the process's peak resident set to its current one (Linux 4.0+).
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS via /proc/self/clear_refs: {e}"))
}

/// The process's peak resident set (`VmHWM`) since the last reset, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Rewrites the golden digest for `--scale`. Every suite cell is first run
/// on the engine and on `OracleSystem`, which must agree; the decode
/// launches come from the serial engine and must repeat at two threads.
fn regen_golden(cli: &Cli) -> Result<bool, String> {
    let mut golden = Golden::default();
    let mut agree = true;
    let cells = cells::suite_cells(cli.scale, 0);
    for policy in GOLDEN_POLICIES {
        let policy = registry::build(policy).expect("registered policy");
        let t = Instant::now();
        for cell in &cells {
            let mut sys = GpuSystem::new(machine());
            sys.set_threads(1);
            let mut oracle = OracleSystem::new(machine());
            let mut stats = Vec::new();
            for k in &cell.kernels {
                let engine = sys.run(&**k, &*policy);
                if oracle.run(&**k, &*policy) != engine {
                    eprintln!(
                        "MISMATCH {} {} kernel {}: engine != oracle",
                        policy.name(),
                        cell.name,
                        k.launch().kernel.name
                    );
                    agree = false;
                }
                stats.push(engine);
            }
            golden.insert(
                digest::cell_key(policy.name(), cell.name),
                digest::cell_digest(&stats),
            );
        }
        eprintln!(
            "{}: engine == OracleSystem on {} cells: {} ({:.1} s)",
            policy.name(),
            cells.len(),
            agree,
            t.elapsed().as_secs_f64()
        );
    }
    let step = cells::decode_step();
    let steps = digest::STEADY_FROM + 2;
    for pinned in [true, false] {
        let mut serial = SessionSim::new(machine(), Lasp::ladm(), pinned);
        serial.set_threads(1);
        let mut threaded = SessionSim::new(machine(), Lasp::ladm(), pinned);
        threaded.set_threads(2);
        for i in 0..steps {
            let one = serial.run_step(&step.kernels);
            let two = threaded.run_step(&step.kernels);
            for ((k, a), b) in step.kernels.iter().zip(&one).zip(&two) {
                let key = digest::launch_key(pinned, k.launch().kernel.name, i);
                let hash = digest::launch_digest(a);
                if digest::launch_digest(b) != hash {
                    eprintln!("MISMATCH {key}: threads 1 != threads 2");
                    agree = false;
                }
                if golden.insert(key.clone(), hash).is_some_and(|h| h != hash) {
                    eprintln!("MISMATCH {key}: steps from {} differ", digest::STEADY_FROM);
                    agree = false;
                }
            }
        }
    }
    if !agree {
        return Err("golden digest not written: the references disagree".to_string());
    }
    let path = cli.golden_path();
    let header = format!(
        "ladm-perf golden digest, scale {:?}: <policy> <workload> or <decode mode> <kernel@step>, FNV-1a of the simulated statistics",
        cli.scale
    );
    std::fs::write(&path, golden.render(&header))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let cli = parse_args(&args(
            "--workload suite-hcoda --seed 3 --seconds 12 --trace 0",
        ))
        .expect("valid");
        assert_eq!(cli.workload.as_deref(), Some("suite-hcoda"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (3, 12.0, false));
        assert!(
            parse_args(&args("--workload all --trace"))
                .expect("valid")
                .trace
        );
        assert!(
            parse_args(&args("--workload all --trace 1"))
                .expect("valid")
                .trace
        );
        for bad in [
            "",
            "--workload nope",
            "--workload all --regen-golden",
            "--workload all --seed -1",
            "--workload all --seconds",
            "--workload all --bogus",
            "--regen-golden --scale huge",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.99), 100.0);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_is_json_with_the_four_keys() {
        let line = result_json(
            3,
            1,
            &END_TO_END[..2],
            &[("msectors_per_s", 1.5), ("step_ms_p50", f64::NAN)],
        );
        let v = json::Json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&json::Json::Bool(false)));
        assert_eq!(v.get("attempted").and_then(|v| v.as_f64()), Some(3.0));
        let m = v.get("metrics").expect("metrics");
        let rate = m.get("msectors_per_s").expect("rate");
        assert_eq!(rate.get("unit").and_then(|u| u.as_str()), Some("Msector/s"));
        assert_eq!(
            m.get("step_ms_p50")
                .and_then(|s| s.get("value"))
                .and_then(|v| v.as_f64()),
            Some(0.0)
        );
    }

    #[test]
    fn digests_match_at_one_and_two_threads() {
        let cells = cells::suite_cells(Scale::Test, 0);
        let policy = registry::build("LADM").expect("registered");
        for name in ["VecAdd", "SQ-GEMM", "PageRank", "TRA"] {
            let cell = cells.iter().find(|c| c.name == name).expect("in suite");
            let digest_at = |threads: usize| {
                let mut sys = GpuSystem::new(machine());
                sys.set_threads(threads);
                let stats: Vec<KernelStats> = cell
                    .kernels
                    .iter()
                    .map(|k| sys.run(&**k, &*policy))
                    .collect();
                digest::cell_digest(&stats)
            };
            assert_eq!(digest_at(1), digest_at(2), "{name}");
        }
    }
}
