//! One function per paper table/figure, plus the design ablations. Each
//! returns a structured result (for the ablations, the rendered rows)
//! that prints the same rows/series the paper reports, so the `repro`
//! binary and the tests share one implementation.

use crate::harness::{geomean, run_workload};
use ladm_core::par::parallel_map_labeled;
use ladm_core::policies::{registry, BatchFt, CacheMode, Coda, KernelWide, Lasp, Policy};
use ladm_sim::{KernelStats, SimConfig};
use ladm_workloads::{by_name, dl_gemms, suite, Scale, WorkloadKind};
use std::fmt;

/// Number of worker threads for experiment fan-out (single-core safe).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn run_named(cfg: &SimConfig, name: &str, scale: Scale, policy: &dyn Policy) -> KernelStats {
    let w = by_name(name, scale).unwrap_or_else(|| panic!("unknown workload {name}"));
    run_workload(cfg, &w, policy)
}

/// Resolves a policy through the core registry, so experiment lineups
/// are name lists and cannot drift from the shipped policy set.
fn policy_by_name(name: &str) -> Box<dyn Policy> {
    registry::build(name).unwrap_or_else(|| panic!("unknown policy '{name}'"))
}

// ---------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------

/// Figure 4: bandwidth sensitivity of the prior techniques, normalized to
/// a monolithic GPU with the same SM count.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Interconnect configuration labels.
    pub configs: Vec<&'static str>,
    /// Policy names (columns).
    pub policies: Vec<&'static str>,
    /// `norm_perf[config][policy]`: geomean over the suite of
    /// `monolithic_cycles / policy_cycles` (1.0 = monolithic).
    pub norm_perf: Vec<Vec<f64>>,
}

/// Runs the Figure 4 sweep.
pub fn fig4(scale: Scale, threads: usize) -> Fig4 {
    let configs: Vec<(&'static str, SimConfig)> = vec![
        ("xbar-90GB/s", SimConfig::fig4_xbar(90)),
        ("xbar-180GB/s", SimConfig::fig4_xbar(180)),
        ("xbar-360GB/s", SimConfig::fig4_xbar(360)),
        ("ring-1.4TB/s", SimConfig::fig4_ring(1400)),
        ("ring-2.8TB/s", SimConfig::fig4_ring(2800)),
    ];
    let policy_names = ["Baseline-RR", "Batch+FT", "Kernel-Wide", "CODA"];
    let names: Vec<&'static str> = suite(scale).iter().map(|w| w.name).collect();

    // Monolithic baseline per workload.
    let mono_cfg = SimConfig::monolithic();
    let mono: Vec<f64> = parallel_map_labeled(
        names.len(),
        threads,
        |i| format!("{} (monolithic)", names[i]),
        |i| run_named(&mono_cfg, names[i], scale, &Lasp::ladm()).cycles,
    );

    let jobs = configs.len() * policy_names.len() * names.len();
    let split = |j: usize| {
        let c = j / (policy_names.len() * names.len());
        let rest = j % (policy_names.len() * names.len());
        (c, rest / names.len(), rest % names.len())
    };
    let cycles: Vec<f64> = parallel_map_labeled(
        jobs,
        threads,
        |j| {
            let (c, p, w) = split(j);
            format!("{} on {} (policy {})", names[w], configs[c].0, p)
        },
        |j| {
            let (c, p, w) = split(j);
            let policy = policy_by_name(policy_names[p]);
            run_named(&configs[c].1, names[w], scale, &*policy).cycles
        },
    );

    let mut norm_perf = Vec::new();
    for c in 0..configs.len() {
        let mut per_policy = Vec::new();
        for p in 0..policy_names.len() {
            let ratios: Vec<f64> = (0..names.len())
                .map(|w| {
                    let idx = c * policy_names.len() * names.len() + p * names.len() + w;
                    (mono[w] / cycles[idx]).min(4.0)
                })
                .collect();
            per_policy.push(geomean(&ratios));
        }
        norm_perf.push(per_policy);
    }
    Fig4 {
        configs: configs.iter().map(|(n, _)| *n).collect(),
        policies: vec!["Baseline-RR", "Batch+FT-opt", "Kernel-Wide", "CODA"],
        norm_perf,
    }
}

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 4: bandwidth sensitivity (perf normalized to monolithic, geomean)"
        )?;
        write!(f, "{:<16}", "config")?;
        for p in &self.policies {
            write!(f, "{p:>14}")?;
        }
        writeln!(f)?;
        for (c, label) in self.configs.iter().enumerate() {
            write!(f, "{label:<16}")?;
            for v in &self.norm_perf[c] {
                write!(f, "{v:>14.3}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Figures 9 and 10 (shared runs)
// ---------------------------------------------------------------------

/// One workload's results across the Figure 9/10 policy lineup.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Workload name.
    pub name: &'static str,
    /// Locality group (x-axis cluster).
    pub kind: WorkloadKind,
    /// Cycles per policy, in lineup order, then the monolithic reference.
    pub cycles: Vec<f64>,
    /// Off-chip traffic fraction per policy (no monolithic entry).
    pub offchip: Vec<f64>,
    /// Inter-GPU bytes per policy.
    pub inter_gpu_bytes: Vec<u64>,
}

/// Figures 9 + 10: the full-suite comparison of H-CODA, LASP+RTWICE,
/// LASP+RONCE and LADM on the Table III machine, plus the monolithic
/// reference.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// Policy names (H-CODA first, "Monolithic" last).
    pub policies: Vec<&'static str>,
    /// Per-workload rows in Table IV order.
    pub rows: Vec<Fig9Row>,
}

/// Runs the Figure 9/10 experiment.
pub fn fig9_10(scale: Scale, threads: usize) -> Fig9 {
    let policy_names = ["H-CODA", "LASP+RTWICE", "LASP+RONCE", "LADM"];
    let names: Vec<(&'static str, WorkloadKind)> =
        suite(scale).iter().map(|w| (w.name, w.kind)).collect();
    let cfg = SimConfig::paper_multi_gpu();
    let mono_cfg = SimConfig::monolithic();

    let jobs = names.len() * (policy_names.len() + 1);
    let stats: Vec<KernelStats> = parallel_map_labeled(
        jobs,
        threads,
        |j| {
            let w = j / (policy_names.len() + 1);
            let p = j % (policy_names.len() + 1);
            format!("{} (policy slot {p})", names[w].0)
        },
        |j| {
            let w = j / (policy_names.len() + 1);
            let p = j % (policy_names.len() + 1);
            if p == policy_names.len() {
                run_named(&mono_cfg, names[w].0, scale, &Lasp::ladm())
            } else {
                let policy = policy_by_name(policy_names[p]);
                run_named(&cfg, names[w].0, scale, &*policy)
            }
        },
    );

    let rows = names
        .iter()
        .enumerate()
        .map(|(w, &(name, kind))| {
            let base = w * (policy_names.len() + 1);
            let slice = &stats[base..base + policy_names.len() + 1];
            Fig9Row {
                name,
                kind,
                cycles: slice.iter().map(|s| s.cycles).collect(),
                offchip: slice[..policy_names.len()]
                    .iter()
                    .map(|s| s.offchip_fraction())
                    .collect(),
                inter_gpu_bytes: slice[..policy_names.len()]
                    .iter()
                    .map(|s| s.inter_gpu_bytes)
                    .collect(),
            }
        })
        .collect();

    Fig9 {
        policies: vec!["H-CODA", "LASP+RTWICE", "LASP+RONCE", "LADM", "Monolithic"],
        rows,
    }
}

impl Fig9 {
    /// Speedup of policy `p` over H-CODA for `row`.
    pub fn speedup_vs_hcoda(&self, row: &Fig9Row, p: usize) -> f64 {
        row.cycles[0] / row.cycles[p]
    }

    /// Geomean speedup of policy `p` over H-CODA across all rows.
    pub fn geomean_speedup(&self, p: usize) -> f64 {
        let v: Vec<f64> = self
            .rows
            .iter()
            .map(|r| self.speedup_vs_hcoda(r, p))
            .collect();
        geomean(&v)
    }

    /// The headline summary numbers (§V-A).
    pub fn summary(&self) -> Summary {
        let ladm = 3usize;
        let mono = 4usize;
        let ladm_vs_hcoda = self.geomean_speedup(ladm);
        let capture: Vec<f64> = self
            .rows
            .iter()
            .map(|r| (r.cycles[mono] / r.cycles[ladm]).min(2.0))
            .collect();
        let traffic_ratio: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.inter_gpu_bytes[3] > 0 && r.inter_gpu_bytes[0] > 0)
            .map(|r| r.inter_gpu_bytes[0] as f64 / r.inter_gpu_bytes[3] as f64)
            .collect();
        Summary {
            ladm_vs_hcoda,
            monolithic_capture: geomean(&capture).min(1.0),
            inter_gpu_traffic_reduction: if traffic_ratio.is_empty() {
                1.0
            } else {
                geomean(&traffic_ratio)
            },
        }
    }
}

/// §V-A headline numbers.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// LADM performance vs H-CODA (paper: ≈1.8×).
    pub ladm_vs_hcoda: f64,
    /// Fraction of monolithic performance LADM captures (paper: ≈82%).
    pub monolithic_capture: f64,
    /// H-CODA inter-GPU traffic / LADM inter-GPU traffic (paper: ≈4×).
    pub inter_gpu_traffic_reduction: f64,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Headline summary (§V-A):")?;
        writeln!(
            f,
            "  LADM vs H-CODA speedup (geomean):      {:.2}x  (paper: 1.8x)",
            self.ladm_vs_hcoda
        )?;
        writeln!(
            f,
            "  Monolithic performance captured:       {:.0}%   (paper: 82%)",
            self.monolithic_capture * 100.0
        )?;
        writeln!(
            f,
            "  Inter-GPU traffic reduction vs H-CODA: {:.1}x  (paper: 4x)",
            self.inter_gpu_traffic_reduction
        )
    }
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 9: performance normalized to H-CODA (higher is better)"
        )?;
        write!(f, "{:<14} {:<6}", "workload", "group")?;
        for p in &self.policies {
            write!(f, "{p:>13}")?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(f, "{:<14} {:<6}", row.name, row.kind.to_string())?;
            for p in 0..self.policies.len() {
                write!(f, "{:>13.2}", self.speedup_vs_hcoda(row, p))?;
            }
            writeln!(f)?;
        }
        write!(f, "{:<21}", "GEOMEAN")?;
        for p in 0..self.policies.len() {
            write!(f, "{:>13.2}", self.geomean_speedup(p))?;
        }
        writeln!(f)
    }
}

/// Figure 10 view over the same runs: off-chip traffic percentages.
#[derive(Debug, Clone)]
pub struct Fig10<'a>(pub &'a Fig9);

impl fmt::Display for Fig10<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 10: % of memory traffic that goes off-node (lower is better)"
        )?;
        write!(f, "{:<14} {:<6}", "workload", "group")?;
        for p in &self.0.policies[..4] {
            write!(f, "{p:>13}")?;
        }
        writeln!(f)?;
        for row in &self.0.rows {
            write!(f, "{:<14} {:<6}", row.name, row.kind.to_string())?;
            for v in &row.offchip {
                write!(f, "{:>12.1}%", v * 100.0)?;
            }
            writeln!(f)?;
        }
        write!(f, "{:<21}", "MEAN")?;
        for p in 0..4 {
            let m =
                crate::harness::mean(&self.0.rows.iter().map(|r| r.offchip[p]).collect::<Vec<_>>());
            write!(f, "{:>12.1}%", m * 100.0)?;
        }
        writeln!(f)
    }
}

// ---------------------------------------------------------------------
// Figure 11
// ---------------------------------------------------------------------

/// Traffic-class breakdown for one workload under one insertion policy.
#[derive(Debug, Clone)]
pub struct Fig11Case {
    /// Workload name.
    pub workload: &'static str,
    /// Insertion policy name (`RTWICE`/`RONCE`).
    pub policy: &'static str,
    /// Share of L2 traffic per class `[LL, LR, RL]`, each in [0, 1].
    pub traffic_share: [f64; 3],
    /// Hit rate per class `[LL, LR, RL]`.
    pub hit_rate: [f64; 3],
    /// Lookup count per class `[LL, LR, RL]` — 0 means the hit rate is
    /// meaningless and is rendered `n/a`.
    pub accesses: [u64; 3],
    /// Aggregate L2 hit rate.
    pub total_hit_rate: f64,
}

/// Figure 11: RONCE vs RTWICE case studies on `Random-loc` (helped) and
/// `SQ-GEMM` (hurt).
pub fn fig11(scale: Scale, threads: usize) -> Vec<Fig11Case> {
    let cfg = SimConfig::paper_multi_gpu();
    let jobs: Vec<(&'static str, &'static str, CacheMode)> = vec![
        ("Random-loc", "RTWICE", CacheMode::Rtwice),
        ("Random-loc", "RONCE", CacheMode::Ronce),
        ("SQ-GEMM", "RTWICE", CacheMode::Rtwice),
        ("SQ-GEMM", "RONCE", CacheMode::Ronce),
    ];
    parallel_map_labeled(
        jobs.len(),
        threads,
        |i| format!("{} ({})", jobs[i].0, jobs[i].1),
        |i| {
            let (workload, policy, mode) = jobs[i];
            let stats = run_named(&cfg, workload, scale, &Lasp::new(mode));
            let classes = [
                stats.l2_local_local,
                stats.l2_local_remote,
                stats.l2_remote_local,
            ];
            let total: u64 = classes.iter().map(|c| c.accesses).sum();
            let share = |c: ladm_sim::ClassStats| {
                if total == 0 {
                    0.0
                } else {
                    c.accesses as f64 / total as f64
                }
            };
            Fig11Case {
                workload,
                policy,
                traffic_share: [share(classes[0]), share(classes[1]), share(classes[2])],
                hit_rate: [
                    classes[0].hit_rate(),
                    classes[1].hit_rate(),
                    classes[2].hit_rate(),
                ],
                accesses: [
                    classes[0].accesses,
                    classes[1].accesses,
                    classes[2].accesses,
                ],
                total_hit_rate: stats.l2_hit_rate(),
            }
        },
    )
}

/// Formats the Figure 11 cases.
pub fn fmt_fig11(cases: &[Fig11Case]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(
        s,
        "Figure 11: L2 traffic classes and hit rates, RTWICE vs RONCE"
    )
    .unwrap();
    writeln!(
        s,
        "{:<12} {:<8} {:>8} {:>8} {:>8}   {:>8} {:>8} {:>8} {:>8}   accesses",
        "workload", "policy", "LL%", "LR%", "RL%", "LLhit", "LRhit", "RLhit", "L2hit"
    )
    .unwrap();
    // A never-accessed class renders `n/a`, not 0.00: both a dead class
    // and a 0 %-hit class would otherwise print the same cell.
    let hit = |rate: f64, accesses: u64| {
        if accesses == 0 {
            "n/a".to_string()
        } else {
            format!("{rate:.2}")
        }
    };
    for c in cases {
        writeln!(
            s,
            "{:<12} {:<8} {:>7.1}% {:>7.1}% {:>7.1}%   {:>8} {:>8} {:>8} {:>8.2}   {}/{}/{}",
            c.workload,
            c.policy,
            c.traffic_share[0] * 100.0,
            c.traffic_share[1] * 100.0,
            c.traffic_share[2] * 100.0,
            hit(c.hit_rate[0], c.accesses[0]),
            hit(c.hit_rate[1], c.accesses[1]),
            hit(c.hit_rate[2], c.accesses[2]),
            c.total_hit_rate,
            c.accesses[0],
            c.accesses[1],
            c.accesses[2],
        )
        .unwrap();
    }
    s
}

// ---------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------

/// Off-chip traffic of each policy on one microbenchmark pattern.
#[derive(Debug, Clone)]
pub struct Tab1Row {
    /// Pattern name (Table I row).
    pub pattern: &'static str,
    /// Representative workload.
    pub workload: &'static str,
    /// Off-chip fraction per policy.
    pub offchip: Vec<f64>,
}

/// Off-chip fraction below which a pattern counts as captured in the
/// Table I reproduction.
pub const TAB1_CAPTURE_THRESHOLD: f64 = 0.25;

/// Table I: which technique captures which locality pattern. A pattern
/// counts as *captured* when the policy keeps off-chip traffic below
/// [`TAB1_CAPTURE_THRESHOLD`].
pub fn table1(scale: Scale, threads: usize) -> (Vec<&'static str>, Vec<Tab1Row>) {
    let cfg = SimConfig::paper_multi_gpu();
    let policy_names = vec!["Baseline-RR", "Batch+FT", "Kernel-Wide", "CODA", "LADM"];
    let patterns: Vec<(&'static str, &'static str)> = vec![
        ("Page alignment", "VecAdd"),
        ("Threadblock-stride", "ScalarProd"),
        ("Row sharing", "CONV"),
        ("Col sharing", "FWT-k2"),
        ("Adjacent (stencil)", "SRAD"),
        ("Intra-thread loc", "SpMV-jds"),
    ];
    let jobs = patterns.len() * policy_names.len();
    let offchip: Vec<f64> = parallel_map_labeled(
        jobs,
        threads,
        |j| {
            format!(
                "{} (policy slot {})",
                patterns[j / policy_names.len()].1,
                j % policy_names.len()
            )
        },
        |j| {
            let pat = j / policy_names.len();
            let pol = j % policy_names.len();
            let policy = policy_by_name(policy_names[pol]);
            run_named(&cfg, patterns[pat].1, scale, &*policy).offchip_fraction()
        },
    );
    let rows = patterns
        .iter()
        .enumerate()
        .map(|(i, &(pattern, workload))| Tab1Row {
            pattern,
            workload,
            offchip: offchip[i * policy_names.len()..(i + 1) * policy_names.len()].to_vec(),
        })
        .collect();
    (policy_names, rows)
}

/// Formats the Table I capability matrix.
pub fn fmt_table1(policies: &[&'static str], rows: &[Tab1Row]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(
        s,
        "Table I: locality patterns captured (off-chip %; [x] = captured, <{:.0}%)",
        TAB1_CAPTURE_THRESHOLD * 100.0
    )
    .unwrap();
    write!(s, "{:<20} {:<12}", "pattern", "workload").unwrap();
    for p in policies {
        write!(s, "{p:>15}").unwrap();
    }
    writeln!(s).unwrap();
    for row in rows {
        write!(s, "{:<20} {:<12}", row.pattern, row.workload).unwrap();
        for &v in &row.offchip {
            let mark = if v < TAB1_CAPTURE_THRESHOLD {
                "[x]"
            } else {
                "   "
            };
            write!(s, "{:>11.1}%{mark}", v * 100.0).unwrap();
        }
        writeln!(s).unwrap();
    }
    s
}

// ---------------------------------------------------------------------
// Table IV
// ---------------------------------------------------------------------

/// One Table IV characterization row.
#[derive(Debug, Clone)]
pub struct Tab4Row {
    /// Workload name.
    pub name: &'static str,
    /// Locality group.
    pub kind: WorkloadKind,
    /// LASP's scheduler decision for the dominant kernel.
    pub scheduler: String,
    /// Threadblock dimensions.
    pub tb_dim: (u32, u32),
    /// Input footprint in MiB.
    pub input_mib: f64,
    /// Launched threadblocks.
    pub launched_tbs: u64,
    /// Measured L2 sector MPKI under LADM.
    pub l2_mpki: f64,
}

/// Table IV: workload characterization under LADM.
pub fn table4(scale: Scale, threads: usize) -> Vec<Tab4Row> {
    let cfg = SimConfig::paper_multi_gpu();
    let meta: Vec<(&'static str, WorkloadKind)> =
        suite(scale).iter().map(|w| (w.name, w.kind)).collect();
    parallel_map_labeled(
        meta.len(),
        threads,
        |i| meta[i].0.to_string(),
        |i| {
            let (name, kind) = meta[i];
            let w = by_name(name, scale).expect("suite workload");
            let plan = Lasp::ladm().plan(w.kernels[0].launch(), &cfg.topology);
            let stats = run_workload(&cfg, &w, &Lasp::ladm());
            Tab4Row {
                name,
                kind,
                scheduler: plan.schedule.to_string(),
                tb_dim: w.tb_dim(),
                input_mib: w.input_bytes() as f64 / (1024.0 * 1024.0),
                launched_tbs: w.launched_tbs(),
                l2_mpki: stats.l2_mpki(),
            }
        },
    )
}

/// Formats Table IV.
pub fn fmt_table4(rows: &[Tab4Row]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(
        s,
        "Table IV: workloads (scaled inputs), LASP decisions, measured MPKI"
    )
    .unwrap();
    writeln!(
        s,
        "{:<14} {:<6} {:<28} {:<9} {:>9} {:>9} {:>9}",
        "workload", "group", "LASP scheduler", "TB dim", "input", "TBs", "L2 MPKI"
    )
    .unwrap();
    for r in rows {
        writeln!(
            s,
            "{:<14} {:<6} {:<28} {:<9} {:>7.1}MB {:>9} {:>9.1}",
            r.name,
            r.kind.to_string(),
            r.scheduler,
            format!("({},{})", r.tb_dim.0, r.tb_dim.1),
            r.input_mib,
            r.launched_tbs,
            r.l2_mpki,
        )
        .unwrap();
    }
    s
}

// ---------------------------------------------------------------------
// §IV-C DGX-1 validation
// ---------------------------------------------------------------------

/// DGX-1 hand-applied LASP result (§IV-C).
#[derive(Debug, Clone)]
pub struct Dgx1 {
    /// Per-workload `(name, lasp, coda, kernel_wide)` cycles.
    pub rows: Vec<(&'static str, f64, f64, f64)>,
}

impl Dgx1 {
    /// Geomean speedup of LASP over CODA (paper: 1.9×).
    pub fn speedup_vs_coda(&self) -> f64 {
        geomean(
            &self
                .rows
                .iter()
                .map(|&(_, l, c, _)| c / l)
                .collect::<Vec<_>>(),
        )
    }

    /// Geomean speedup of LASP over kernel-wide (paper: 1.4×).
    pub fn speedup_vs_kernel_wide(&self) -> f64 {
        geomean(
            &self
                .rows
                .iter()
                .map(|&(_, l, _, k)| k / l)
                .collect::<Vec<_>>(),
        )
    }
}

/// Runs the DGX-1 validation: the DL GEMMs on a 4-GPU NVLink box.
pub fn dgx1(scale: Scale, threads: usize) -> Dgx1 {
    let cfg = SimConfig::dgx1();
    let names: Vec<&'static str> = dl_gemms(scale).iter().map(|w| w.name).collect();
    let rows = parallel_map_labeled(
        names.len(),
        threads,
        |i| names[i].to_string(),
        |i| {
            let lasp = run_named(&cfg, names[i], scale, &Lasp::ladm()).cycles;
            let coda = run_named(&cfg, names[i], scale, &Coda::flat()).cycles;
            let kw = run_named(&cfg, names[i], scale, &KernelWide::new()).cycles;
            (names[i], lasp, coda, kw)
        },
    );
    Dgx1 { rows }
}

impl fmt::Display for Dgx1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DGX-1 validation (§IV-C): DL GEMMs on 4 GPUs, NVLink-class links"
        )?;
        writeln!(
            f,
            "{:<14} {:>12} {:>12} {:>12} {:>10} {:>10}",
            "workload", "LASP cyc", "CODA cyc", "KW cyc", "vs CODA", "vs KW"
        )?;
        for &(name, l, c, k) in &self.rows {
            writeln!(
                f,
                "{name:<14} {l:>12.0} {c:>12.0} {k:>12.0} {:>9.2}x {:>9.2}x",
                c / l,
                k / l
            )?;
        }
        writeln!(
            f,
            "GEOMEAN speedup: {:.2}x vs CODA (paper 1.9x), {:.2}x vs kernel-wide (paper 1.4x)",
            self.speedup_vs_coda(),
            self.speedup_vs_kernel_wide()
        )
    }
}

// ---------------------------------------------------------------------
// Locality-lint report
// ---------------------------------------------------------------------

/// One workload's lint summary (the `repro lint` experiment).
#[derive(Debug, Clone)]
pub struct LintRow {
    /// Workload name.
    pub name: &'static str,
    /// Error-severity findings.
    pub errors: usize,
    /// Warning-severity findings.
    pub warnings: usize,
    /// Note-severity findings (acknowledged conditions).
    pub notes: usize,
    /// Access sites audited by the classification pass.
    pub sites: usize,
    /// Concrete sample evaluations taken by the dynamic pass.
    pub samples: usize,
}

/// Runs the locality linter over the whole suite and summarizes per
/// workload. A healthy suite reports zero errors and zero warnings.
pub fn lint(scale: Scale, threads: usize) -> Vec<LintRow> {
    use ladm_analyzer::Severity;
    let names: Vec<&'static str> = suite(scale).iter().map(|w| w.name).collect();
    parallel_map_labeled(
        names.len(),
        threads,
        |i| names[i].to_string(),
        |i| {
            let w = by_name(names[i], scale).expect("suite workload");
            let report = ladm_analyzer::lint_workload(&w);
            LintRow {
                name: names[i],
                errors: report.count(Severity::Error),
                warnings: report.count(Severity::Warning),
                notes: report.count(Severity::Note),
                sites: report.sites_checked,
                samples: report.samples_checked,
            }
        },
    )
}

/// Formats the lint summary table.
pub fn fmt_lint(rows: &[LintRow]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(
        s,
        "Locality lint: spec health across the suite (ladm-lint summary)"
    )
    .unwrap();
    writeln!(
        s,
        "{:<14} {:>7} {:>9} {:>7} {:>7} {:>9}",
        "workload", "errors", "warnings", "notes", "sites", "samples"
    )
    .unwrap();
    for r in rows {
        writeln!(
            s,
            "{:<14} {:>7} {:>9} {:>7} {:>7} {:>9}",
            r.name, r.errors, r.warnings, r.notes, r.sites, r.samples
        )
        .unwrap();
    }
    let errors: usize = rows.iter().map(|r| r.errors).sum();
    let warnings: usize = rows.iter().map(|r| r.warnings).sum();
    writeln!(
        s,
        "TOTAL          {errors:>7} {warnings:>9} {:>7} {:>7} {:>9}",
        rows.iter().map(|r| r.notes).sum::<usize>(),
        rows.iter().map(|r| r.sites).sum::<usize>(),
        rows.iter().map(|r| r.samples).sum::<usize>(),
    )
    .unwrap();
    s
}

// ---------------------------------------------------------------------
// Attention decode: session placement memory
// ---------------------------------------------------------------------

/// One decode step's traffic under one planning mode.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecodeStep {
    /// Off-node sectors attributed to the KV cache (`kv_k` + `kv_v`)
    /// across the step's four kernels.
    pub kv_offnode: u64,
    /// Off-node sectors across all arguments of the step.
    pub total_offnode: u64,
    /// Pages whose home moved *between* launches of the step — the
    /// re-placement a replanning launch pays that an adopting one
    /// does not.
    pub replaced_pages: u64,
    /// `replaced_pages` × page size.
    pub replaced_bytes: u64,
}

/// The session-memory experiment: attention decode with placement
/// pinning on vs off ([`ladm_sim::SessionSim`]).
#[derive(Debug, Clone)]
pub struct DecodeExp {
    /// Decode steps per mode.
    pub steps: usize,
    /// Off-node sector size in bytes (converts demand sectors to bytes
    /// for the net comparison against page movement).
    pub sector_bytes: u64,
    /// Per-step traffic under the pinned session (commitments adopted).
    pub pinned: Vec<DecodeStep>,
    /// Per-step traffic under the replanning baseline (pinning off:
    /// every launch recommits its own optimal maps).
    pub replanned: Vec<DecodeStep>,
}

/// Runs `steps` decode iterations of the `AttnDecode` sequence through
/// one [`ladm_sim::SessionSim`] and attributes traffic per step.
fn run_decode_mode(scale: Scale, steps: usize, pinning: bool) -> Vec<DecodeStep> {
    let w = ladm_workloads::attn_decode(scale);
    let mut sim = ladm_sim::SessionSim::new(SimConfig::paper_multi_gpu(), Lasp::ladm(), pinning);
    (0..steps)
        .map(|_| {
            let runs = sim.run_step(&w.kernels);
            // Session attribution is per pool allocation, not per
            // kernel argument: resolve the KV buffers' pool slots.
            let kv_slots: Vec<usize> = ["kv_k", "kv_v"]
                .iter()
                .filter_map(|n| sim.alloc_index(n))
                .collect();
            let mut step = DecodeStep::default();
            for run in &runs {
                for &slot in &kv_slots {
                    step.kv_offnode += run.stats.offnode_by_arg.get(slot).copied().unwrap_or(0);
                }
                step.total_offnode += run.stats.sectors_offnode;
                step.replaced_pages += run.replaced_pages;
                step.replaced_bytes += run.replaced_bytes;
            }
            step
        })
        .collect()
}

/// The headline session experiment: runs the attention decode sequence
/// for `steps` iterations under a pinned session and under the
/// replan-every-launch baseline, on identical machines.
pub fn decode(scale: Scale, steps: usize, threads: usize) -> DecodeExp {
    let mut modes = parallel_map_labeled(
        2,
        threads,
        |i| {
            format!(
                "AttnDecode ({})",
                if i == 0 { "pinned" } else { "replanned" }
            )
        },
        |i| run_decode_mode(scale, steps, i == 0),
    );
    let replanned = modes.pop().expect("two modes ran");
    let pinned = modes.pop().expect("two modes ran");
    DecodeExp {
        steps,
        sector_bytes: u64::from(SimConfig::paper_multi_gpu().l2.sector_bytes),
        pinned,
        replanned,
    }
}

impl DecodeExp {
    /// Total bytes of inter-launch page movement saved by pinning over
    /// the whole run (replanned − pinned).
    pub fn moved_bytes_saved(&self) -> u64 {
        let total = |steps: &[DecodeStep]| steps.iter().map(|s| s.replaced_bytes).sum::<u64>();
        total(&self.replanned).saturating_sub(total(&self.pinned))
    }

    /// Total cross-chiplet bytes of one mode: off-node demand sectors
    /// converted to bytes, plus inter-launch page movement (each moved
    /// page counted once — conservative, a real migration crosses the
    /// interconnect at least once).
    pub fn cross_chiplet_bytes(&self, steps: &[DecodeStep]) -> u64 {
        steps
            .iter()
            .map(|s| s.total_offnode * self.sector_bytes + s.replaced_bytes)
            .sum()
    }
}

/// Formats the per-step pinned-vs-replanned comparison.
pub fn fmt_decode(e: &DecodeExp) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(
        s,
        "Attention decode: per-step KV-cache traffic, session pinning on vs off"
    )
    .unwrap();
    writeln!(
        s,
        "{:<6} {:>12} {:>12} {:>11}   {:>12} {:>12} {:>11}",
        "", "pinned", "pinned", "pinned", "replanned", "replanned", "replanned"
    )
    .unwrap();
    writeln!(
        s,
        "{:<6} {:>12} {:>12} {:>11}   {:>12} {:>12} {:>11}",
        "step",
        "KV off-node",
        "all off-node",
        "moved KiB",
        "KV off-node",
        "all off-node",
        "moved KiB"
    )
    .unwrap();
    for (i, (p, r)) in e.pinned.iter().zip(&e.replanned).enumerate() {
        writeln!(
            s,
            "{:<6} {:>12} {:>12} {:>11}   {:>12} {:>12} {:>11}",
            i + 1,
            p.kv_offnode,
            p.total_offnode,
            p.replaced_bytes / 1024,
            r.kv_offnode,
            r.total_offnode,
            r.replaced_bytes / 1024,
        )
        .unwrap();
    }
    let sum = |steps: &[DecodeStep]| {
        steps.iter().fold(DecodeStep::default(), |mut a, s| {
            a.kv_offnode += s.kv_offnode;
            a.total_offnode += s.total_offnode;
            a.replaced_pages += s.replaced_pages;
            a.replaced_bytes += s.replaced_bytes;
            a
        })
    };
    let (p, r) = (sum(&e.pinned), sum(&e.replanned));
    writeln!(
        s,
        "{:<6} {:>12} {:>12} {:>11}   {:>12} {:>12} {:>11}",
        "TOTAL",
        p.kv_offnode,
        p.total_offnode,
        p.replaced_bytes / 1024,
        r.kv_offnode,
        r.total_offnode,
        r.replaced_bytes / 1024,
    )
    .unwrap();
    writeln!(
        s,
        "pinning saves {} KiB of inter-launch page movement over {} steps",
        e.moved_bytes_saved() / 1024,
        e.steps
    )
    .unwrap();
    let (pb, rb) = (
        e.cross_chiplet_bytes(&e.pinned),
        e.cross_chiplet_bytes(&e.replanned),
    );
    writeln!(
        s,
        "net cross-chiplet bytes (demand + movement): pinned {} KiB, replanned {} KiB ({:+.1}%)",
        pb / 1024,
        rb / 1024,
        (pb as f64 / rb as f64 - 1.0) * 100.0,
    )
    .unwrap();
    s
}

// ---------------------------------------------------------------------
// Swizzle-scheduler comparison
// ---------------------------------------------------------------------

/// Workloads for the swizzle comparison: the GEMM family plus the 2-D
/// stencils — the shapes where CTA rasterization order actually changes
/// reuse distance. 1-D streaming kernels are omitted because every curve
/// degenerates to row-major on a 1×N grid.
pub const SWIZZLE_WORKLOADS: &[&str] = &[
    "SQ-GEMM",
    "Alexnet-FC-2",
    "VGGnet-FC-2",
    "LSTM-1",
    "TRA",
    "SRAD",
    "HS",
    "Hotspot3D",
    "CONV",
];

/// One workload row of the swizzle comparison.
#[derive(Debug, Clone)]
pub struct SwizzleRow {
    /// Workload name.
    pub name: &'static str,
    /// Cycles per policy, in [`registry::SWIZZLE_LINEUP`] order.
    pub cycles: Vec<f64>,
    /// Off-chip traffic fraction per policy.
    pub offchip: Vec<f64>,
    /// Intra-GPU cross-chiplet bytes per policy.
    pub inter_chiplet_bytes: Vec<u64>,
    /// Inter-GPU bytes per policy.
    pub inter_gpu_bytes: Vec<u64>,
}

/// The swizzle-scheduler family vs first-touch, LASP/LADM and H-CODA:
/// can a smarter CTA rasterization order alone recover the win LASP gets
/// from placement, and do the two compose?
#[derive(Debug, Clone)]
pub struct SwizzleExp {
    /// Policy column headers, [`registry::SWIZZLE_LINEUP`] order.
    pub policies: Vec<&'static str>,
    /// Per-workload rows in [`SWIZZLE_WORKLOADS`] order.
    pub rows: Vec<SwizzleRow>,
}

/// Runs the swizzle comparison. `limit` truncates the workload list (the
/// CI smoke runs the first 3); `None` runs all of [`SWIZZLE_WORKLOADS`].
pub fn swizzle(scale: Scale, threads: usize, limit: Option<usize>) -> SwizzleExp {
    let policy_names = registry::SWIZZLE_LINEUP;
    let mut names: Vec<&'static str> = SWIZZLE_WORKLOADS.to_vec();
    if let Some(n) = limit {
        names.truncate(n);
    }
    let cfg = SimConfig::paper_multi_gpu();

    let jobs = names.len() * policy_names.len();
    let stats: Vec<KernelStats> = parallel_map_labeled(
        jobs,
        threads,
        |j| {
            format!(
                "{} / {}",
                names[j / policy_names.len()],
                policy_names[j % policy_names.len()]
            )
        },
        |j| {
            let policy = policy_by_name(policy_names[j % policy_names.len()]);
            run_named(&cfg, names[j / policy_names.len()], scale, &*policy)
        },
    );

    let rows = names
        .iter()
        .enumerate()
        .map(|(w, &name)| {
            let slice = &stats[w * policy_names.len()..(w + 1) * policy_names.len()];
            SwizzleRow {
                name,
                cycles: slice.iter().map(|s| s.cycles).collect(),
                offchip: slice.iter().map(|s| s.offchip_fraction()).collect(),
                inter_chiplet_bytes: slice.iter().map(|s| s.inter_chiplet_bytes).collect(),
                inter_gpu_bytes: slice.iter().map(|s| s.inter_gpu_bytes).collect(),
            }
        })
        .collect();

    SwizzleExp {
        policies: policy_names.to_vec(),
        rows,
    }
}

/// The experiment's headline answers, computed from a [`SwizzleExp`].
#[derive(Debug, Clone, Copy)]
pub struct SwizzleVerdict {
    /// Geomean speedup over Batch+FT of the best scheduling-only curve.
    pub best_curve_speedup: f64,
    /// Name of that curve.
    pub best_curve: &'static str,
    /// Geomean speedup over Batch+FT of LADM (placement, row-major order).
    pub ladm_speedup: f64,
    /// Geomean speedup over Batch+FT of the best LASP+swizzle stack.
    pub best_stacked_speedup: f64,
    /// Name of that stacked policy.
    pub best_stacked: &'static str,
    /// Cross-chiplet bytes of the best curve / cross-chiplet bytes of
    /// Batch+FT (geomean over workloads where both are nonzero).
    pub curve_chiplet_traffic_ratio: f64,
    /// Same ratio for LADM.
    pub ladm_chiplet_traffic_ratio: f64,
}

impl SwizzleExp {
    fn col(&self, name: &str) -> usize {
        self.policies
            .iter()
            .position(|&p| p == name)
            .unwrap_or_else(|| panic!("policy '{name}' not in lineup"))
    }

    /// Geomean speedup of policy column `p` over column `base`.
    pub fn geomean_speedup(&self, p: usize, base: usize) -> f64 {
        let v: Vec<f64> = self
            .rows
            .iter()
            .map(|r| r.cycles[base] / r.cycles[p])
            .collect();
        geomean(&v)
    }

    /// Geomean cross-chiplet traffic ratio of column `p` vs column
    /// `base`, over workloads where both are nonzero.
    pub fn chiplet_traffic_ratio(&self, p: usize, base: usize) -> f64 {
        let v: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.inter_chiplet_bytes[p] > 0 && r.inter_chiplet_bytes[base] > 0)
            .map(|r| r.inter_chiplet_bytes[p] as f64 / r.inter_chiplet_bytes[base] as f64)
            .collect();
        if v.is_empty() {
            1.0
        } else {
            geomean(&v)
        }
    }

    /// Answers the headline questions: does a rasterization curve alone
    /// recover LASP's placement win, and do the two stack?
    pub fn verdict(&self) -> SwizzleVerdict {
        let base = self.col("Batch+FT");
        let pick_best = |candidates: &[&'static str]| {
            candidates
                .iter()
                .filter(|n| self.policies.contains(*n))
                .map(|&n| (n, self.geomean_speedup(self.col(n), base)))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("lineup carries at least one candidate")
        };
        let (best_curve, best_curve_speedup) = pick_best(&[
            "Swizzle-Blk",
            "Swizzle-Morton",
            "Swizzle-Hilbert",
            "Swizzle-Hilbert-2L",
        ]);
        let (best_stacked, best_stacked_speedup) =
            pick_best(&["LASP+Swizzle-Hilbert", "LASP+Swizzle-Blk"]);
        let ladm = self.col("LADM");
        SwizzleVerdict {
            best_curve_speedup,
            best_curve,
            ladm_speedup: self.geomean_speedup(ladm, base),
            best_stacked_speedup,
            best_stacked,
            curve_chiplet_traffic_ratio: self.chiplet_traffic_ratio(self.col(best_curve), base),
            ladm_chiplet_traffic_ratio: self.chiplet_traffic_ratio(ladm, base),
        }
    }
}

impl fmt::Display for SwizzleExp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let base = self.col("Batch+FT");
        writeln!(
            f,
            "Swizzle comparison: speedup over Batch+FT (row-major, first-touch)"
        )?;
        write!(f, "{:<14}", "workload")?;
        for p in &self.policies {
            write!(f, " {p:>19}")?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(f, "{:<14}", row.name)?;
            for p in 0..self.policies.len() {
                write!(f, " {:>19.2}", row.cycles[base] / row.cycles[p])?;
            }
            writeln!(f)?;
        }
        write!(f, "{:<14}", "GEOMEAN")?;
        for p in 0..self.policies.len() {
            write!(f, " {:>19.2}", self.geomean_speedup(p, base))?;
        }
        writeln!(f)?;
        write!(f, "{:<14}", "xchiplet B")?;
        for p in 0..self.policies.len() {
            write!(f, " {:>18.2}x", self.chiplet_traffic_ratio(p, base))?;
        }
        writeln!(f)?;
        write!(f, "{:<14}", "offchip %")?;
        for p in 0..self.policies.len() {
            let v: Vec<f64> = self.rows.iter().map(|r| r.offchip[p]).collect();
            write!(
                f,
                " {:>18.1}%",
                100.0 * v.iter().sum::<f64>() / v.len().max(1) as f64
            )?;
        }
        writeln!(f)?;

        let v = self.verdict();
        writeln!(f)?;
        writeln!(
            f,
            "best scheduling-only curve: {} at {:.2}x over Batch+FT \
             (cross-chiplet traffic {:.2}x)",
            v.best_curve, v.best_curve_speedup, v.curve_chiplet_traffic_ratio
        )?;
        writeln!(
            f,
            "LADM placement (row-major order): {:.2}x over Batch+FT \
             (cross-chiplet traffic {:.2}x)",
            v.ladm_speedup, v.ladm_chiplet_traffic_ratio
        )?;
        writeln!(
            f,
            "best stacked (LASP placement + curve): {} at {:.2}x",
            v.best_stacked, v.best_stacked_speedup
        )?;
        writeln!(
            f,
            "verdict: swizzling alone {} LADM's placement win; stacking {} over LADM alone",
            if v.best_curve_speedup >= v.ladm_speedup * 0.99 {
                "RECOVERS"
            } else {
                "does NOT recover"
            },
            if v.best_stacked_speedup > v.ladm_speedup * 1.005 {
                "GAINS"
            } else {
                "does not gain"
            },
        )
    }
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// Runs the ablation studies for the design choices DESIGN.md calls out
/// and renders them, one `Ablation:` block per knob:
///
/// * page-size sensitivity of alignment-aware batching (Eq. 2),
/// * first-touch fault cost (Batch+FT vs Batch+FT-optimal, §II-B),
/// * hierarchy awareness (CODA vs H-CODA),
/// * remote caching on/off (the §IV-A "GEMM 4.8×" observation),
/// * page vs sub-page interleaving,
/// * scheduler tie-break direction (row- vs column-binding on an
///   asymmetric GEMM — input-size awareness).
pub fn ablations(scale: Scale) -> String {
    use std::fmt::Write;
    let cfg = SimConfig::paper_multi_gpu();
    let load = |name: &str| by_name(name, scale).expect("suite workload");
    let mut s = String::new();

    // Page size sweep: Eq. 2 batches adapt, so LADM should hold up.
    writeln!(s, "Ablation: page size (LADM on VecAdd)").unwrap();
    for page in [4096u64, 16384, 65536] {
        let mut w = load("VecAdd");
        for k in &mut w.kernels {
            k.set_page_bytes(page);
        }
        let mut c = cfg.clone();
        c.page_bytes = page;
        let st = run_workload(&c, &w, &Lasp::ladm());
        writeln!(
            s,
            "  page={page:>6}B  cycles={:>10.0}  off-chip={:>5.1}%",
            st.cycles,
            st.offchip_fraction() * 100.0
        )
        .unwrap();
    }

    // First-touch fault cost: the paper's 20–50 us UVM stall.
    writeln!(s, "Ablation: first-touch fault cost (Batch+FT on SRAD)").unwrap();
    for (label, cycles) in [("optimal (0)", 0u64), ("25us", 35_000), ("50us", 70_000)] {
        let mut c = cfg.clone();
        c.page_fault_cycles = cycles;
        let st = run_workload(&c, &load("SRAD"), &BatchFt::new());
        writeln!(
            s,
            "  fault={label:<12} cycles={:>12.0} faults={}",
            st.cycles, st.page_faults
        )
        .unwrap();
    }

    // Hierarchy awareness: CODA vs H-CODA inter-GPU traffic.
    writeln!(s, "Ablation: hierarchy awareness (CONV)").unwrap();
    for p in [&Coda::flat() as &dyn Policy, &Coda::hierarchical()] {
        let st = run_workload(&cfg, &load("CONV"), p);
        writeln!(
            s,
            "  {:<8} cycles={:>11.0} inter-gpu={:>9}B inter-chiplet={:>9}B",
            p.name(),
            st.cycles,
            st.inter_gpu_bytes,
            st.inter_chiplet_bytes
        )
        .unwrap();
    }

    // Remote caching on/off (§IV-A: enabling it improves GEMM ~4.8x).
    writeln!(
        s,
        "Ablation: dynamically-shared L2 remote caching (SQ-GEMM, H-CODA)"
    )
    .unwrap();
    for (label, rc) in [("on", true), ("off", false)] {
        let mut c = cfg.clone();
        c.remote_caching = rc;
        let st = run_workload(&c, &load("SQ-GEMM"), &Coda::hierarchical());
        writeln!(
            s,
            "  remote-caching={label:<4} cycles={:>11.0} off-chip={:>5.1}%",
            st.cycles,
            st.offchip_fraction() * 100.0
        )
        .unwrap();
    }

    // Sub-page interleaving: CODA's hardware-assisted address mapping
    // targets sub-page column stripes (Histo-main's 1 KiB pitch).
    writeln!(s, "Ablation: page vs sub-page interleaving (Histo-main)").unwrap();
    for p in [&Coda::hierarchical() as &dyn Policy, &Coda::sub_page(true)] {
        let st = run_workload(&cfg, &load("Histo-main"), p);
        writeln!(
            s,
            "  {:<16} cycles={:>11.0} off-chip={:>5.1}%",
            p.name(),
            st.cycles,
            st.offchip_fraction() * 100.0
        )
        .unwrap();
    }

    // Input-size-aware tie break on an asymmetric DL GEMM.
    writeln!(s, "Ablation: scheduler tie break (Alexnet-FC-2)").unwrap();
    let w = load("Alexnet-FC-2");
    let plan = Lasp::ladm().plan(w.kernels[0].launch(), &cfg.topology);
    writeln!(s, "  LASP decision: {}", plan.schedule).unwrap();
    for p in [&Lasp::ladm() as &dyn Policy, &Coda::hierarchical()] {
        let st = run_workload(&cfg, &w, p);
        writeln!(
            s,
            "  {:<6} cycles={:>11.0} off-chip={:>5.1}%",
            p.name(),
            st.cycles,
            st.offchip_fraction() * 100.0
        )
        .unwrap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_structure_and_ordering() {
        let f = fig9_10(Scale::Test, default_threads());
        assert_eq!(f.rows.len(), 27);
        assert_eq!(f.policies.len(), 5);
        for row in &f.rows {
            assert_eq!(row.cycles.len(), 5, "{}", row.name);
            assert_eq!(row.offchip.len(), 4, "{}", row.name);
            assert!(row.cycles.iter().all(|&c| c > 0.0), "{}", row.name);
        }
        // H-CODA normalizes to itself.
        for row in &f.rows {
            assert!((f.speedup_vs_hcoda(row, 0) - 1.0).abs() < 1e-12);
        }
        // LADM must beat H-CODA overall and reduce inter-GPU traffic.
        let s = f.summary();
        assert!(s.ladm_vs_hcoda > 1.1, "speedup {}", s.ladm_vs_hcoda);
        assert!(
            s.inter_gpu_traffic_reduction > 1.5,
            "traffic {}",
            s.inter_gpu_traffic_reduction
        );
        assert!(s.monolithic_capture > 0.2 && s.monolithic_capture <= 1.0);
        // The rendered figure carries every workload.
        let text = f.to_string();
        for row in &f.rows {
            assert!(text.contains(row.name), "missing {}", row.name);
        }
        assert!(Fig10(&f).to_string().contains("off-node"));
    }

    #[test]
    fn fig11_shapes() {
        let cases = fig11(Scale::Test, default_threads());
        assert_eq!(cases.len(), 4);
        for c in &cases {
            let total: f64 = c.traffic_share.iter().sum();
            assert!((total - 1.0).abs() < 1e-6 || total == 0.0, "{total}");
        }
        let s = fmt_fig11(&cases);
        assert!(s.contains("Random-loc"));
        assert!(s.contains("SQ-GEMM"));
    }

    #[test]
    fn fig11_renders_na_for_dead_classes() {
        let case = Fig11Case {
            workload: "Synthetic",
            policy: "RONCE",
            traffic_share: [1.0, 0.0, 0.0],
            hit_rate: [0.0, 0.0, 0.0],
            accesses: [64, 0, 0],
            total_hit_rate: 0.0,
        };
        let s = fmt_fig11(&[case]);
        // LL was accessed and missed everything: 0.00. LR/RL were never
        // accessed: n/a, with the counts spelled out.
        assert!(s.contains("0.00"), "{s}");
        assert!(s.contains("n/a"), "{s}");
        assert!(s.contains("64/0/0"), "{s}");
    }

    #[test]
    fn dgx1_lasp_beats_baselines() {
        let d = dgx1(Scale::Test, default_threads());
        assert!(d.speedup_vs_coda() > 1.0, "vs CODA {}", d.speedup_vs_coda());
        assert!(
            d.speedup_vs_kernel_wide() > 0.9,
            "vs KW {}",
            d.speedup_vs_kernel_wide()
        );
        assert!(!d.to_string().is_empty());
    }

    #[test]
    fn decode_pinning_beats_replanning_on_page_movement() {
        let e = decode(Scale::Test, 3, default_threads());
        assert_eq!(e.pinned.len(), 3);
        assert_eq!(e.replanned.len(), 3);
        // Steady state: an adopting session never moves a page after the
        // first step, while the replanning baseline keeps flip-flopping
        // the shared buffers between each kernel's preferred map.
        for step in &e.pinned[1..] {
            assert_eq!(step.replaced_pages, 0, "adopted layouts must not move");
        }
        assert!(
            e.replanned.iter().skip(1).any(|s| s.replaced_pages > 0),
            "the replanning baseline should pay inter-launch page movement"
        );
        assert!(e.moved_bytes_saved() > 0);
        let text = fmt_decode(&e);
        assert!(text.contains("TOTAL"), "{text}");
        assert!(text.contains("pinning saves"), "{text}");
    }

    #[test]
    fn swizzle_structure_and_verdict() {
        // The CI smoke shape: first three workloads, full lineup.
        let e = swizzle(Scale::Test, default_threads(), Some(3));
        assert_eq!(e.rows.len(), 3);
        assert_eq!(e.policies, registry::SWIZZLE_LINEUP);
        for row in &e.rows {
            assert_eq!(row.cycles.len(), e.policies.len(), "{}", row.name);
            assert!(row.cycles.iter().all(|&c| c > 0.0), "{}", row.name);
            assert_eq!(row.inter_chiplet_bytes.len(), e.policies.len());
        }
        // Batch+FT normalizes to itself.
        let base = e.policies.iter().position(|&p| p == "Batch+FT").unwrap();
        assert!((e.geomean_speedup(base, base) - 1.0).abs() < 1e-12);
        let v = e.verdict();
        assert!(v.best_curve_speedup > 0.0 && v.ladm_speedup > 0.0);
        let text = e.to_string();
        for row in &e.rows {
            assert!(text.contains(row.name), "missing {}", row.name);
        }
        assert!(text.contains("verdict:"), "{text}");
    }

    #[test]
    fn swizzle_workloads_resolve_at_all_scales() {
        for scale in [Scale::Test, Scale::Bench] {
            for name in SWIZZLE_WORKLOADS {
                assert!(by_name(name, scale).is_some(), "unknown workload {name}");
            }
        }
    }

    #[test]
    fn table1_ladm_captures_all_patterns() {
        let (policies, rows) = table1(Scale::Test, default_threads());
        let ladm = policies.iter().position(|&p| p == "LADM").unwrap();
        for row in &rows {
            assert!(
                row.offchip[ladm] < TAB1_CAPTURE_THRESHOLD,
                "LADM missed pattern {}: {:.1}%",
                row.pattern,
                row.offchip[ladm] * 100.0
            );
        }
        assert!(!fmt_table1(&policies, &rows).is_empty());
    }
}
