//! Golden digests of simulated output: one 64-bit hash per suite cell and
//! per decode launch, kept in a text file beside the benchmark.
//!
//! The hash covers the named `KernelStats` fields rather than its `Debug`
//! text, so a field added to the statistics later does not invalidate
//! the goldens.

use ladm_sim::{KernelStats, SessionRunStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn stats(&mut self, s: &KernelStats) {
        self.word(s.cycles.to_bits());
        for v in [
            s.warp_instructions,
            s.threadblocks,
            s.l1_hits,
            s.l1_misses,
            s.sectors_offnode,
            s.sectors_offgpu,
            s.l2_local_local.accesses,
            s.l2_local_local.hits,
            s.l2_local_remote.accesses,
            s.l2_local_remote.hits,
            s.l2_remote_local.accesses,
            s.l2_remote_local.hits,
            s.dram_sectors,
            s.inter_chiplet_bytes,
            s.inter_gpu_bytes,
            s.page_faults,
            s.page_migrations,
            s.offnode_by_arg.len() as u64,
        ] {
            self.word(v);
        }
        for &v in &s.offnode_by_arg {
            self.word(v);
        }
    }
}

/// Digest of one suite cell: every kernel's statistics, in launch order.
pub fn cell_digest(kernels: &[KernelStats]) -> u64 {
    let mut h = Fnv::new();
    for s in kernels {
        h.stats(s);
    }
    h.0
}

/// Digest of one session launch, including its re-placement cost.
pub fn launch_digest(r: &SessionRunStats) -> u64 {
    let mut h = Fnv::new();
    h.stats(&r.stats);
    h.word(r.replaced_pages);
    h.word(r.replaced_bytes);
    h.0
}

/// Golden key of a suite cell.
pub fn cell_key(policy: &str, workload: &str) -> String {
    format!("{policy} {workload}")
}

/// Decode steps from this index on repeat the same launches, so they
/// share one golden line per kernel.
pub const STEADY_FROM: usize = 1;

/// Golden key of decode launch `kernel` at `step` of a session.
pub fn launch_key(pinned: bool, kernel: &str, step: usize) -> String {
    let mode = if pinned {
        "decode-pinned"
    } else {
        "decode-replan"
    };
    if step < STEADY_FROM {
        format!("{mode} {kernel}@{step}")
    } else {
        format!("{mode} {kernel}@steady")
    }
}

/// A golden digest file: `<group> <name> <16 hex digits>` per line, `#`
/// comments and blank lines ignored.
#[derive(Debug, Default, PartialEq)]
pub struct Golden {
    entries: BTreeMap<String, u64>,
}

impl Golden {
    /// Parses a golden file's text; errors name the offending line.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut entries = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [group, name, hash] = fields[..] else {
                return Err(format!("line {}: expected `<group> <name> <hash>`", i + 1));
            };
            let hash = u64::from_str_radix(hash, 16)
                .map_err(|e| format!("line {}: bad hash {hash:?}: {e}", i + 1))?;
            let key = format!("{group} {name}");
            if entries.insert(key, hash).is_some() {
                return Err(format!("line {}: duplicate entry {group} {name}", i + 1));
            }
        }
        Ok(Golden { entries })
    }

    /// Reads and parses a golden file.
    pub fn load(path: &Path) -> Result<Golden, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read golden digest {}: {e}", path.display()))?;
        Golden::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The digest recorded under `key`.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.entries.get(key).copied()
    }

    /// Records `hash` under `key`, returning the digest already recorded
    /// there, if any.
    pub fn insert(&mut self, key: String, hash: u64) -> Option<u64> {
        self.entries.insert(key, hash)
    }

    /// The file text, under a one-line header.
    pub fn render(&self, header: &str) -> String {
        let mut out = format!("# {header}\n");
        for (key, hash) in &self.entries {
            let _ = writeln!(out, "{key} {hash:016x}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_hashed_field() {
        let base = KernelStats {
            cycles: 10.0,
            offnode_by_arg: vec![1, 2],
            ..KernelStats::default()
        };
        let d = cell_digest(std::slice::from_ref(&base));
        let mut moved = base.clone();
        moved.cycles = 10.5;
        assert_ne!(cell_digest(&[moved]), d);
        let mut moved = base.clone();
        moved.l2_remote_local.hits = 1;
        assert_ne!(cell_digest(&[moved]), d);
        let mut moved = base.clone();
        moved.offnode_by_arg.push(0);
        assert_ne!(cell_digest(&[moved]), d);
        assert_ne!(cell_digest(&[base.clone(), base]), d, "kernel count");
    }

    #[test]
    fn golden_round_trips_and_rejects_malformed_lines() {
        let mut g = Golden::default();
        g.insert(cell_key("LADM", "VecAdd"), 0xdead_beef);
        g.insert(launch_key(true, "attn_qk", 5), 7);
        let text = g.render("test");
        assert_eq!(Golden::parse(&text), Ok(g));
        assert!(text.contains("decode-pinned attn_qk@steady 0000000000000007"));
        for bad in ["LADM VecAdd", "LADM VecAdd zz", "a b 1\na b 2", "a b c 1"] {
            assert!(Golden::parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
