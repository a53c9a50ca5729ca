//! The inputs the benchmark runs: the 27 Table IV workloads, with the four
//! graph workloads rebuilt from a held-out seed on request, and the
//! attention decode step.

use ladm_workloads::irregular::CsrKernel;
use ladm_workloads::{Csr, Scale, Workload, WorkloadKind};

/// One suite graph workload's shape. The values mirror
/// `ladm_workloads::irregular`; `graph_shapes_mirror_the_suite` fails if
/// the two drift apart.
struct GraphShape {
    name: &'static str,
    kernel: &'static str,
    full_nodes: u32,
    avg_degree: u32,
    bdx: u32,
    intensity: u32,
    has_vals: bool,
    /// The suite's own graph seed.
    seed: u64,
}

const GRAPHS: [GraphShape; 4] = [
    GraphShape {
        name: "PageRank",
        kernel: "pagerank",
        full_nodes: 98_304,
        avg_degree: 10,
        bdx: 128,
        intensity: 1,
        has_vals: false,
        seed: 11,
    },
    GraphShape {
        name: "BFS-relax",
        kernel: "bfs_relax",
        full_nodes: 131_072,
        avg_degree: 8,
        bdx: 256,
        intensity: 1,
        has_vals: false,
        seed: 22,
    },
    GraphShape {
        name: "SSSP",
        kernel: "sssp",
        full_nodes: 65_536,
        avg_degree: 12,
        bdx: 64,
        intensity: 1,
        has_vals: true,
        seed: 33,
    },
    GraphShape {
        name: "SpMV-jds",
        kernel: "spmv_jds",
        full_nodes: 65_536,
        avg_degree: 24,
        bdx: 32,
        intensity: 1,
        has_vals: true,
        seed: 44,
    },
];

/// The suite's per-graph degree cap and maximum degree.
const DEGREE_CAP: u32 = 32;
const MAX_DEGREE: u32 = 64;
/// The suite keeps at least this many nodes at every scale.
const MIN_NODES: u32 = 16_384;

impl GraphShape {
    /// The graph seed for benchmark seed `seed`; seed 0 gives the suite's.
    fn graph_seed(&self, seed: u64) -> u64 {
        self.seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    fn build(&self, scale: Scale, seed: u64) -> Workload {
        let nodes = (self.full_nodes / scale.divisor().max(1)).max(MIN_NODES);
        let graph = Csr::synthetic(nodes, self.avg_degree, MAX_DEGREE, self.graph_seed(seed));
        let kernel = CsrKernel::new(
            self.kernel,
            graph,
            self.bdx,
            DEGREE_CAP,
            self.intensity,
            self.has_vals,
        );
        Workload::new(self.name, WorkloadKind::IntraThread, vec![Box::new(kernel)])
    }
}

/// Whether `name` is one of the graph workloads a held-out seed rebuilds.
pub fn is_graph(name: &str) -> bool {
    GRAPHS.iter().any(|g| g.name == name)
}

/// The 27 suite workloads in Table IV order. Seed 0 keeps the suite's own
/// graphs; any other seed replaces the four graph workloads with graphs of
/// the same shape drawn from a seed derived from it.
pub fn suite_cells(scale: Scale, seed: u64) -> Vec<Workload> {
    let mut cells = ladm_workloads::suite(scale);
    if seed != 0 {
        for cell in &mut cells {
            if let Some(g) = GRAPHS.iter().find(|g| g.name == cell.name) {
                *cell = g.build(scale, seed);
            }
        }
    }
    cells
}

/// The four-kernel attention decode step. It is always the test-scale
/// shape: kilobyte working sets and many short launches.
pub fn decode_step() -> Workload {
    ladm_workloads::attn_decode(Scale::Test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladm_core::policies::Lasp;
    use ladm_sim::{GpuSystem, SimConfig};

    #[test]
    fn graph_shapes_mirror_the_suite() {
        let suite = ladm_workloads::suite(Scale::Test);
        for g in &GRAPHS {
            let want = suite.iter().find(|w| w.name == g.name).expect("in suite");
            let got = g.build(Scale::Test, 0);
            let (a, b) = (want.kernels[0].launch(), got.kernels[0].launch());
            assert_eq!(a.kernel.name, b.kernel.name, "{}", g.name);
            assert_eq!((a.grid, a.block), (b.grid, b.block), "{}", g.name);
            assert_eq!(a.arg_lens, b.arg_lens, "{}", g.name);
            assert_eq!(want.kernels[0].trips(), got.kernels[0].trips());
            let mut sys = GpuSystem::new(SimConfig::paper_multi_gpu());
            let s1 = sys.run(&*want.kernels[0], &Lasp::ladm());
            let s2 = sys.run(&*got.kernels[0], &Lasp::ladm());
            assert_eq!(s1, s2, "{} simulates differently", g.name);
        }
    }

    #[test]
    fn held_out_seeds_change_only_the_graphs() {
        let base = suite_cells(Scale::Test, 0);
        let held = suite_cells(Scale::Test, 7);
        assert_eq!(base.len(), 27);
        for (a, b) in base.iter().zip(&held) {
            assert_eq!(a.name, b.name);
            let (la, lb) = (a.kernels[0].launch(), b.kernels[0].launch());
            if is_graph(a.name) {
                assert_ne!(la.arg_lens, lb.arg_lens, "{} kept its graph", a.name);
            } else {
                assert_eq!(la.arg_lens, lb.arg_lens, "{} changed", a.name);
            }
        }
    }
}
