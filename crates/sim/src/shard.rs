//! Per-chiplet engine shard: the machine's NUMA structure as code
//! structure.
//!
//! A [`ChipletShard`] owns everything private to one chiplet — its SMs'
//! execution state, the SM-private L1s, the chiplet's L2 slice, its HBM
//! channel, its SM↔L2 crossbar and the threadblock dispatch queue — plus
//! the per-shard [`KernelStats`] those components feed. Nothing a shard
//! owns is touched by any other shard.
//!
//! Everything a shard *cannot* decide alone crosses the boundary as an
//! explicit message or a coordinator-owned resource:
//!
//! * a remote-homed access arrives at its home shard as a
//!   [`RemoteRequest`] and is answered with a [`RemoteReply`]
//!   (remote-L2 probe under RTWICE/RONCE + home-DRAM claim),
//! * inter-chiplet / inter-GPU hops claim the coordinator's
//!   `Fabric` buckets between the two shard touches,
//! * first-touch page binding goes through the coordinator's shared
//!   `AddressSpace` page-home table.
//!
//! The coordinator resolves these in canonical global event order, so
//! the sharded engine is bit-identical to the former monolithic one —
//! and the *pure* part of each warp step (access generation +
//! coalescing) can run ahead on worker threads without perturbing any
//! result (see `GpuSystem::run_prefetched`).

use crate::bw::TokenBucket;
use crate::cache::{Lookup, SectoredCache};
use crate::config::SimConfig;
use crate::stats::KernelStats;
use ladm_core::plan::RemoteInsert;
use ladm_core::topology::NodeId;
use ladm_obs::{prof, Event as TraceEvent, LinkLevel, SectorRoute, TraceSink};
use std::collections::VecDeque;

/// Execution state of one SM: free threadblock/warp slots and the issue
/// port's next-available cycle.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SmState {
    pub free_tb_slots: u32,
    pub free_warps: u32,
    pub next_issue: f64,
}

/// Shared per-sector event context threaded through shard methods so
/// trace emission stays identical to the monolithic engine (one
/// `Sector` event per L1 probe, stamped with the *issue* time).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SectorCtx {
    /// The sector's issue time (all `Sector` events carry it).
    pub issue_t: f64,
    /// Requesting chiplet.
    pub requester: NodeId,
    /// Page index of the sector.
    pub page: u64,
    /// Sector payload bytes.
    pub bytes: u32,
    /// Whether the access is a store.
    pub write: bool,
}

impl SectorCtx {
    /// Reports the sector's terminal service point.
    pub(crate) fn emit(&self, sink: Option<&dyn TraceSink>, route: SectorRoute, home: NodeId) {
        if let Some(s) = sink {
            s.record(TraceEvent::Sector {
                time: self.issue_t,
                node: self.requester.0 as u16,
                home: home.0 as u16,
                route,
                write: self.write,
                page: self.page,
                bytes: self.bytes,
            });
        }
    }
}

/// Reports a DRAM-channel claim at chiplet `at`.
fn emit_dram(sink: Option<&dyn TraceSink>, at: NodeId, time: f64, bytes: u32) {
    if let Some(s) = sink {
        s.record(TraceEvent::LinkTransfer {
            time,
            level: LinkLevel::Dram,
            index: at.0 as u16,
            bytes,
        });
    }
}

/// A cross-shard memory request: a sector whose home chiplet is not the
/// requester's, delivered to the home shard after the coordinator
/// charged the fabric hops. The home shard serves it against its own L2
/// slice and DRAM channel ([`ChipletShard::serve_remote`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemoteRequest {
    /// Sector address.
    pub addr: u64,
    /// Store (posted write) vs load.
    pub write: bool,
    /// Arrival time at the home shard (after fabric hops).
    pub t: f64,
    /// The owning allocation's home-L2 insertion policy (RTWICE/RONCE).
    pub insert: RemoteInsert,
}

/// The home shard's answer to a [`RemoteRequest`]: when the data (or
/// write acknowledgement point) was ready at the home service point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemoteReply {
    /// Completion time at the home shard (L2 hit or DRAM fill; posted
    /// writes complete at the bandwidth-claim point).
    pub t: f64,
    /// Whether the home L2 slice had the sector.
    pub l2_hit: bool,
}

/// One chiplet's private slice of the machine: SMs, L1s, L2 partition,
/// HBM channel, SM↔L2 crossbar, threadblock queue and statistics.
///
/// Within one simulated kernel, only this shard mutates any of it; the
/// coordinator (`GpuSystem`) reaches in strictly between events of the
/// canonical global order, so shards never race even under the threaded
/// prefetch pipeline, whose workers only generate sector lists.
#[derive(Debug)]
pub struct ChipletShard {
    node: NodeId,
    /// SM-private L1s, indexed by SM-local index (`sm % sms_per_chiplet`).
    l1: Vec<SectoredCache>,
    /// This chiplet's L2 slice.
    l2: SectoredCache,
    /// This chiplet's HBM channel.
    dram: TokenBucket,
    /// This chiplet's SM↔L2 crossbar.
    xbar: TokenBucket,
    l1_latency: f64,
    l2_latency: f64,
    dram_latency: f64,
    xbar_latency: f64,
    sector_bytes: u64,
    pub(crate) sms: Vec<SmState>,
    /// Threadblocks scheduled to this chiplet, in dispatch order.
    pub(crate) queue: VecDeque<(u32, u32)>,
    /// This shard's slice of the kernel statistics; merged across
    /// shards in id order by the coordinator (`KernelStats::merge_shard`).
    pub(crate) stats: KernelStats,
    /// `1 + highest` argument index that saw off-node traffic from this
    /// shard (the coordinator truncates `offnode_by_arg` to the max).
    pub(crate) remote_args: usize,
}

impl ChipletShard {
    /// Builds the shard for chiplet `node` of `cfg`'s machine.
    pub(crate) fn new(cfg: &SimConfig, node: NodeId) -> Self {
        ChipletShard {
            node,
            l1: (0..cfg.sms_per_chiplet)
                .map(|_| SectoredCache::new(&cfg.l1))
                .collect(),
            l2: SectoredCache::new(&cfg.l2),
            dram: TokenBucket::new(cfg.dram_bw),
            xbar: TokenBucket::new(cfg.intra_chiplet_bw),
            l1_latency: cfg.l1.latency as f64,
            l2_latency: cfg.l2.latency as f64,
            dram_latency: cfg.dram_latency as f64,
            xbar_latency: cfg.intra_chiplet_latency as f64,
            sector_bytes: u64::from(cfg.l1.sector_bytes),
            sms: vec![SmState::default(); cfg.sms_per_chiplet as usize],
            queue: VecDeque::new(),
            stats: KernelStats::default(),
            remote_args: 0,
        }
    }

    /// The chiplet this shard models.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This shard's slice of the current kernel's statistics.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// Flushes caches and bandwidth ledgers (kernel boundary).
    pub(crate) fn flush(&mut self) {
        for c in &mut self.l1 {
            c.flush();
        }
        self.l2.flush();
        self.dram.reset();
        self.xbar.reset();
    }

    /// Resets execution state for a new kernel: fresh stats (with the
    /// off-node attribution vector pre-sized to `args`) and full
    /// threadblock/warp slot budgets on every SM.
    pub(crate) fn begin_kernel(&mut self, args: usize, tb_slots_per_sm: u32, warp_budget: u32) {
        self.stats = KernelStats {
            offnode_by_arg: vec![0; args],
            ..KernelStats::default()
        };
        self.remote_args = 0;
        for s in &mut self.sms {
            *s = SmState {
                free_tb_slots: tb_slots_per_sm,
                free_warps: warp_budget,
                next_issue: 0.0,
            };
        }
        self.queue.clear();
    }

    /// L1 lookup for the SM-local cache `sm_local`: write-through /
    /// no-write-allocate. Returns `true` on a read hit (the sector is
    /// done — the caller adds the L1 latency).
    pub(crate) fn l1_access(
        &mut self,
        sm_local: usize,
        addr: u64,
        write: bool,
        sink: Option<&dyn TraceSink>,
        ctx: &SectorCtx,
    ) -> bool {
        prof::count("shard.l1_probes", 1);
        if write {
            self.l1[sm_local].invalidate(addr);
            self.stats.l1_misses += 1;
            return false;
        }
        match self.l1[sm_local].access(addr) {
            Lookup::Hit => {
                self.stats.l1_hits += 1;
                ctx.emit(sink, SectorRoute::L1Hit, self.node);
                true
            }
            _ => {
                self.stats.l1_misses += 1;
                false
            }
        }
    }

    /// Claims one sector on this chiplet's SM↔L2 crossbar; returns the
    /// arrival time at the L2 slice.
    pub(crate) fn xbar_hop(&mut self, now: f64, sink: Option<&dyn TraceSink>) -> f64 {
        if let Some(s) = sink {
            s.record(TraceEvent::LinkTransfer {
                time: now,
                level: LinkLevel::Xbar,
                index: self.node.0 as u16,
                bytes: self.sector_bytes as u32,
            });
        }
        self.xbar.claim(now, self.sector_bytes) + self.xbar_latency
    }

    /// LOCAL-LOCAL service: the sector's home is this chiplet. L2 slice
    /// lookup, DRAM fill on miss (posted writes hide the fill latency).
    pub(crate) fn local_access(
        &mut self,
        t: f64,
        addr: u64,
        write: bool,
        sink: Option<&dyn TraceSink>,
        ctx: &SectorCtx,
    ) -> f64 {
        prof::count("shard.l2_probes", 1);
        self.stats.l2_local_local.accesses += 1;
        match self.l2.access(addr) {
            Lookup::Hit => {
                self.stats.l2_local_local.hits += 1;
                ctx.emit(sink, SectorRoute::L2LocalHit, self.node);
                t + self.l2_latency
            }
            _ => {
                self.stats.dram_sectors += 1;
                ctx.emit(sink, SectorRoute::DramLocal, self.node);
                emit_dram(sink, self.node, t + self.l2_latency, ctx.bytes);
                let dram_done = self.dram.claim(t + self.l2_latency, self.sector_bytes);
                if write {
                    // Posted write: bandwidth charged, latency hidden.
                    t + self.l2_latency
                } else {
                    dram_done + self.dram_latency
                }
            }
        }
    }

    /// Remote-caching probe of this (requester) shard's own L2 for a
    /// *remote-homed* sector — the dynamically-shared L2 checks the
    /// local partition before going off-chiplet. `Some(done)` on a hit.
    pub(crate) fn probe_remote_cached(
        &mut self,
        t: f64,
        addr: u64,
        home: NodeId,
        sink: Option<&dyn TraceSink>,
        ctx: &SectorCtx,
    ) -> Option<f64> {
        prof::count("shard.l2_probes", 1);
        self.stats.l2_local_remote.accesses += 1;
        if self.l2.probe(addr) == Lookup::Hit {
            self.stats.l2_local_remote.hits += 1;
            ctx.emit(sink, SectorRoute::L2RemoteCachedHit, home);
            Some(t + self.l2_latency)
        } else {
            None
        }
    }

    /// Raises the off-node attribution watermark to cover `arg`
    /// (migrated sectors raise it without counting as off-node traffic,
    /// matching the reference engine).
    pub(crate) fn raise_arg_watermark(&mut self, arg: usize) {
        self.remote_args = self.remote_args.max(arg + 1);
    }

    /// Counts one off-node sector leaving this shard.
    pub(crate) fn note_offnode(&mut self, arg: usize, offgpu: bool) {
        self.stats.sectors_offnode += 1;
        self.stats.offnode_by_arg[arg] += 1;
        if offgpu {
            self.stats.sectors_offgpu += 1;
        }
    }

    /// Invalidates a sector in this shard's L2 slice (remote write:
    /// the stale local copy, if any, dies).
    pub(crate) fn invalidate_l2(&mut self, addr: u64) {
        self.l2.invalidate(addr);
    }

    /// Completes a reactive page migration that just arrived over the
    /// fabric at `t`: the triggering sector fills from the (now local)
    /// DRAM and is installed in this shard's L2/L1.
    pub(crate) fn migrate_in(
        &mut self,
        t: f64,
        sm_local: usize,
        addr: u64,
        write: bool,
        sink: Option<&dyn TraceSink>,
        ctx: &SectorCtx,
    ) -> f64 {
        emit_dram(sink, self.node, t, ctx.bytes);
        let t = self.dram.claim(t, self.sector_bytes) + self.dram_latency;
        self.l2.fill(addr);
        if !write {
            self.l1[sm_local].fill(addr);
        }
        t
    }

    /// REMOTE-LOCAL service at the *home* shard: a [`RemoteRequest`]
    /// probes this shard's L2 slice and, on a miss, fills from this
    /// shard's DRAM channel. Writes are posted (bandwidth charged,
    /// latency hidden) and always leave the sector cached at home;
    /// read misses insert into the home L2 only under RTWICE.
    pub(crate) fn serve_remote(
        &mut self,
        req: &RemoteRequest,
        sink: Option<&dyn TraceSink>,
        ctx: &SectorCtx,
    ) -> RemoteReply {
        prof::count("shard.l2_probes", 1);
        prof::count("shard.remote_serves", 1);
        self.stats.l2_remote_local.accesses += 1;
        if req.write {
            if self.l2.probe(req.addr) == Lookup::Hit {
                self.stats.l2_remote_local.hits += 1;
                self.l2.fill(req.addr);
                ctx.emit(sink, SectorRoute::L2HomeHit, self.node);
                RemoteReply {
                    t: req.t + self.l2_latency,
                    l2_hit: true,
                }
            } else {
                self.l2.fill(req.addr);
                self.stats.dram_sectors += 1;
                ctx.emit(sink, SectorRoute::DramRemote, self.node);
                emit_dram(sink, self.node, req.t + self.l2_latency, ctx.bytes);
                RemoteReply {
                    t: self.dram.claim(req.t + self.l2_latency, self.sector_bytes),
                    l2_hit: false,
                }
            }
        } else {
            match self.l2.probe(req.addr) {
                Lookup::Hit => {
                    self.stats.l2_remote_local.hits += 1;
                    ctx.emit(sink, SectorRoute::L2HomeHit, self.node);
                    RemoteReply {
                        t: req.t + self.l2_latency,
                        l2_hit: true,
                    }
                }
                _ => {
                    self.stats.dram_sectors += 1;
                    ctx.emit(sink, SectorRoute::DramRemote, self.node);
                    emit_dram(sink, self.node, req.t + self.l2_latency, ctx.bytes);
                    let t = self.dram.claim(req.t + self.l2_latency, self.sector_bytes)
                        + self.dram_latency;
                    if req.insert == RemoteInsert::Twice {
                        self.l2.fill(req.addr);
                    }
                    RemoteReply { t, l2_hit: false }
                }
            }
        }
    }

    /// Installs a remote read reply that just arrived back at this
    /// (requester) shard: cached in the local L2 partition under remote
    /// caching, and always in the requesting SM's L1.
    pub(crate) fn accept_reply(&mut self, sm_local: usize, addr: u64, remote_caching: bool) {
        if remote_caching {
            self.l2.fill(addr);
        }
        self.l1[sm_local].fill(addr);
    }

    /// The L1 hit latency (the only shard latency callers need).
    pub(crate) fn l1_latency(&self) -> f64 {
        self.l1_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard() -> ChipletShard {
        ChipletShard::new(&SimConfig::paper_multi_gpu(), NodeId(2))
    }

    fn ctx(write: bool) -> SectorCtx {
        SectorCtx {
            issue_t: 0.0,
            requester: NodeId(0),
            page: 0,
            bytes: 32,
            write,
        }
    }

    #[test]
    fn xbar_hop_applies_latency_and_queues_under_load() {
        let mut s = shard();
        let free = s.xbar_hop(0.0, None);
        assert!(free >= s.xbar_latency, "latency always applies: {free}");
        // Saturate the crossbar; a later hop must queue behind it.
        s.xbar.claim(0.0, 10_000_000);
        let queued = s.xbar_hop(0.0, None);
        assert!(queued > free + 1000.0, "queued = {queued}");
    }

    #[test]
    fn l1_is_write_through_no_write_allocate() {
        let mut s = shard();
        let c = ctx(true);
        assert!(!s.l1_access(0, 0x100, true, None, &c), "writes never hit");
        assert_eq!(s.stats.l1_misses, 1);
        // The write did not allocate: a read still misses, then fills.
        assert!(!s.l1_access(0, 0x100, false, None, &ctx(false)));
        assert!(s.l1_access(0, 0x100, false, None, &ctx(false)));
        assert_eq!(s.stats.l1_hits, 1);
    }

    #[test]
    fn serve_remote_read_respects_insertion_policy() {
        let mut s = shard();
        let c = ctx(false);
        let once = RemoteRequest {
            addr: 0x2000,
            write: false,
            t: 0.0,
            insert: RemoteInsert::Once,
        };
        let r = s.serve_remote(&once, None, &c);
        assert!(!r.l2_hit);
        // RONCE: the miss did not install, so a second probe misses too.
        assert!(!s.serve_remote(&once, None, &c).l2_hit);
        let twice = RemoteRequest {
            addr: 0x4000,
            write: false,
            t: 0.0,
            insert: RemoteInsert::Twice,
        };
        assert!(!s.serve_remote(&twice, None, &c).l2_hit);
        // RTWICE: the first miss installed; the second probe hits.
        assert!(s.serve_remote(&twice, None, &c).l2_hit);
        assert_eq!(s.stats.l2_remote_local.accesses, 4);
        assert_eq!(s.stats.l2_remote_local.hits, 1);
        assert_eq!(s.stats.dram_sectors, 3);
    }

    #[test]
    fn serve_remote_posted_write_hides_dram_latency() {
        let mut s = shard();
        let req = RemoteRequest {
            addr: 0x8000,
            write: true,
            t: 100.0,
            insert: RemoteInsert::Once,
        };
        let r = s.serve_remote(&req, None, &ctx(true));
        // Completion is the bandwidth-claim point (+L2 latency), well
        // under the DRAM access latency that a read would pay.
        assert!(r.t < 100.0 + s.l2_latency + s.dram_latency);
        // Writes always leave the sector cached at home.
        assert!(
            s.serve_remote(
                &RemoteRequest {
                    write: false,
                    ..req
                },
                None,
                &ctx(false)
            )
            .l2_hit
        );
    }

    #[test]
    fn begin_kernel_resets_slots_and_stats() {
        let mut s = shard();
        s.stats.l1_hits = 99;
        s.remote_args = 3;
        s.queue.push_back((1, 1));
        s.begin_kernel(4, 2, 48);
        assert_eq!(s.stats.l1_hits, 0);
        assert_eq!(s.stats.offnode_by_arg, vec![0; 4]);
        assert_eq!(s.remote_args, 0);
        assert!(s.queue.is_empty());
        assert!(s
            .sms
            .iter()
            .all(|m| m.free_tb_slots == 2 && m.free_warps == 48));
    }
}
