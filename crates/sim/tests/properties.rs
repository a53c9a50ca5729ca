//! Property-style tests for the simulator substrates: the bandwidth
//! ledger, the sectored cache and the address space. Inputs come from a
//! seeded local PRNG so runs are deterministic and offline.

use ladm_core::plan::{ArgPlan, PageMap, RrOrder};
use ladm_core::rng::SplitMix64;
use ladm_core::topology::{NodeId, Topology};
use ladm_sim::bw::TokenBucket;
use ladm_sim::cache::{Lookup, SectoredCache};
use ladm_sim::mem::AddressSpace;
use ladm_sim::CacheConfig;

const CASES: u64 = 128;

// ---------------------------------------------------------------------
// TokenBucket
// ---------------------------------------------------------------------

/// A transfer never departs before its arrival plus service time.
#[test]
fn bucket_departure_lower_bound() {
    let mut r = SplitMix64::new(0xbc4e7);
    for _ in 0..CASES {
        let rate = r.below(499) + 1;
        let claims: Vec<(u64, u64)> = (0..r.below(199) + 1)
            .map(|_| (r.below(100_000), r.below(4095) + 1))
            .collect();
        let mut b = TokenBucket::new(rate as f64);
        for (now, bytes) in claims {
            let depart = b.claim(now as f64, bytes);
            assert!(
                depart + 1e-6 >= now as f64 + bytes as f64 / rate as f64,
                "depart {depart} < arrival {now} + service"
            );
        }
    }
}

/// Aggregate throughput never exceeds the configured rate: the last
/// departure of a same-instant burst is at least total_bytes/rate after
/// the burst start.
#[test]
fn bucket_respects_aggregate_rate() {
    let mut r = SplitMix64::new(0xa99);
    for _ in 0..CASES {
        let rate = r.below(499) + 1;
        let sizes: Vec<u64> = (0..r.below(99) + 1).map(|_| r.below(4095) + 1).collect();
        let mut b = TokenBucket::new(rate as f64);
        let total: u64 = sizes.iter().sum();
        let mut last: f64 = 0.0;
        for bytes in sizes {
            last = last.max(b.claim(0.0, bytes));
        }
        // Allow one accounting bin of slack.
        assert!(last + 64.0 >= total as f64 / rate as f64);
    }
}

/// Byte accounting is exact.
#[test]
fn bucket_counts_bytes() {
    let mut r = SplitMix64::new(0xb17e5);
    for _ in 0..CASES {
        let sizes: Vec<u64> = (0..r.below(50)).map(|_| r.below(999) + 1).collect();
        let mut b = TokenBucket::new(10.0);
        for &s in &sizes {
            b.claim(0.0, s);
        }
        assert_eq!(b.bytes_total(), sizes.iter().sum::<u64>());
    }
}

// ---------------------------------------------------------------------
// SectoredCache vs a reference model
// ---------------------------------------------------------------------

fn tiny_cache() -> SectoredCache {
    SectoredCache::new(&CacheConfig {
        bytes: 2048, // 4 sets x 4 ways
        assoc: 4,
        line_bytes: 128,
        sector_bytes: 32,
        latency: 1,
    })
}

/// Accounting identity: hits + misses == accesses, and an access
/// immediately followed by another access of the same address hits.
#[test]
fn cache_accounting_and_idempotence() {
    let mut r = SplitMix64::new(0xcac4e);
    for _ in 0..CASES {
        let addrs: Vec<u64> = (0..r.below(299) + 1).map(|_| r.below(1 << 14)).collect();
        let mut c = tiny_cache();
        for &a in &addrs {
            c.access(a);
            assert_eq!(c.access(a), Lookup::Hit, "immediate re-access must hit");
        }
        assert_eq!(c.hits() + c.misses(), c.accesses());
        assert_eq!(c.accesses(), addrs.len() as u64 * 2);
    }
}

/// A flush invalidates everything: the next access to any previously
/// cached address is a line miss.
#[test]
fn cache_flush_forgets() {
    let mut r = SplitMix64::new(0xf1a5);
    for _ in 0..CASES {
        let addrs: Vec<u64> = (0..r.below(49) + 1).map(|_| r.below(1 << 12)).collect();
        let mut c = tiny_cache();
        for &a in &addrs {
            c.access(a);
        }
        c.flush();
        for &a in &addrs {
            assert_eq!(c.probe(a), Lookup::LineMiss);
        }
    }
}

/// The working set bound: accessing at most `assoc` distinct lines of
/// one set in a loop always hits after the first pass (true LRU never
/// evicts within-capacity working sets).
#[test]
fn cache_lru_retains_within_capacity() {
    let mut r = SplitMix64::new(0x197);
    for _ in 0..CASES {
        let start = r.below(1024);
        let rounds = r.below(4) + 1;
        let mut c = tiny_cache();
        // 4 lines that all map to the same set: stride = sets*line = 512.
        let lines: Vec<u64> = (0..4).map(|i| (start & !127) + i * 512).collect();
        for &a in &lines {
            c.access(a);
        }
        for _ in 0..rounds {
            for &a in &lines {
                assert_eq!(c.access(a), Lookup::Hit);
            }
        }
    }
}

// ---------------------------------------------------------------------
// AddressSpace
// ---------------------------------------------------------------------

/// Every address inside every allocation resolves to a valid home and
/// resolution is deterministic (plans are pure).
#[test]
fn address_space_resolution() {
    let mut r = SplitMix64::new(0xadd9);
    for _ in 0..CASES {
        let lens: Vec<u64> = (0..r.below(5) + 1).map(|_| r.below(99_999) + 1).collect();
        let gran = r.below(15) + 1;
        let probe = r.below(100_000);
        let topo = Topology::paper_multi_gpu();
        let mut mem = AddressSpace::new(4096);
        for &len in &lens {
            mem.alloc(len, 4);
        }
        let arg = ArgPlan::new(PageMap::Interleave {
            gran_pages: gran,
            order: RrOrder::Hierarchical,
        });
        for i in 0..lens.len() {
            mem.apply_arg_plan(i, &arg, &topo);
        }
        for (i, &len) in lens.iter().enumerate() {
            let addr = mem.addr_of(i, probe % (len / 4).max(1));
            let h1 = mem.home_of(addr, NodeId(3), &topo);
            let h2 = mem.home_of(addr, NodeId(9), &topo);
            assert_eq!(h1.node, h2.node, "resolution must not depend on toucher");
            assert!(h1.node.0 < topo.num_nodes());
            assert!(!h2.faulted);
        }
    }
}

/// First-touch pins every page exactly once, to its first toucher.
#[test]
fn first_touch_pins_once() {
    let mut r = SplitMix64::new(0xf7c4);
    for _ in 0..CASES {
        let touches: Vec<(u64, u32)> = (0..r.below(199) + 1)
            .map(|_| (r.below(64), r.range_u32(0, 15)))
            .collect();
        let topo = Topology::paper_multi_gpu();
        let mut mem = AddressSpace::new(4096);
        mem.alloc(64 * 4096, 4);
        let base = mem.allocations()[0].base;
        let mut pinned: std::collections::HashMap<u64, NodeId> = Default::default();
        for (page, toucher) in touches {
            let addr = base + page * 4096;
            let h = mem.home_of(addr, NodeId(toucher), &topo);
            match pinned.get(&page) {
                None => {
                    assert!(h.faulted);
                    assert_eq!(h.node, NodeId(toucher));
                    pinned.insert(page, h.node);
                }
                Some(&node) => {
                    assert!(!h.faulted);
                    assert_eq!(h.node, node);
                }
            }
        }
        assert_eq!(mem.page_faults(), pinned.len() as u64);
    }
}
