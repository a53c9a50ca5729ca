//! Cross-kernel placement memory: the stateful [`PlacementSession`].
//!
//! LADM's runtime decides placement + scheduling once per kernel launch
//! (paper §4); on real hardware, though, the pages it places *stay
//! where they are* when the next kernel launches. A sequence of
//! launches sharing an allocation (the attention decode loop re-reading
//! its KV cache every step is the canonical case) therefore wants
//! placement decisions with memory: plan an allocation once, then keep
//! *adopting* that layout for as long as it stays valid, instead of
//! re-deriving a possibly different layout per launch and paying the
//! page movement.
//!
//! A session tracks, per allocation:
//!
//! * the **committed** [`ArgPlan`] (page-home layout + cache policy),
//! * which launch pinned it and how often it has been re-used,
//! * the allocation size the commitment was made for.
//!
//! Each launch then resolves every argument through the decision table
//! (see `tests::decision_table`):
//!
//! | commitment | pinning | outcome |
//! |------------|---------|-------------------------------------------|
//! | none       | any     | **fresh**: plan and commit                |
//! | valid      | on      | **adopt**: reuse the committed layout     |
//! | valid      | off     | **replan**: supersede the committed layout|
//! | resized    | any     | commitment invalidated → next plans fresh |
//!
//! Planning itself is [`Lasp::plan_adopting`]: adopted arguments keep
//! their committed `ArgPlan` verbatim and win scheduler tie-breaks
//! against equally-sized fresh structures, everything else is placed by
//! the stateless rules. A session whose every argument plans fresh is
//! therefore bit-identical to the stateless per-launch planner — which
//! is exactly how [`crate::runtime::LadmRuntime`] now implements its
//! one-shot path.
//!
//! [`PlacementSession::plan_sequence`] adds the cross-launch lookahead:
//! for each allocation shared by several launches it pre-commits the
//! layout its *dominant consumer* (largest shared-class view, i.e. the
//! launch that actually cares where the pages live) would choose, so a
//! streaming producer earlier in the sequence adopts the consumer's
//! banding instead of pinning an interleaved layout the consumer then
//! fights — the resolution of the L009 cross-kernel hazard.

use std::sync::Arc;

use crate::analysis::classify;
use crate::launch::LaunchInfo;
use crate::plan::{ArgPlan, KernelPlan};
use crate::policies::{ArgDecision, Lasp, Policy};
use crate::sequence::LaunchSequence;
use crate::topology::Topology;
use ladm_obs::{Event, TraceSink};

/// How one argument's placement in a [`SessionPlan`] came to be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanProvenance {
    /// No commitment existed: planned by the stateless rules and
    /// committed by this launch.
    Fresh,
    /// An existing commitment was adopted verbatim.
    Adopted {
        /// Kernel name of the launch that committed the layout.
        pinned_by: &'static str,
        /// Times the commitment has been adopted, including this one.
        reuse: u32,
        /// The commitment came from sequence lookahead and has never
        /// been written into a page-home table: this launch must
        /// materialize it once.
        first: bool,
    },
    /// An existing commitment was superseded (pinning disabled); the
    /// previously placed pages must move.
    Replanned {
        /// Kernel name of the launch whose layout was discarded.
        was_pinned_by: &'static str,
        /// Adoptions the discarded commitment had accumulated.
        reuse_lost: u32,
    },
}

impl PlanProvenance {
    /// Whether the page-home table must be (re)written for this
    /// argument — `false` exactly for adoptions of a layout that is
    /// already materialized. The first adoption of a looked-ahead
    /// commitment still writes the homes once; later adoptions keep
    /// them untouched.
    pub fn needs_apply(&self) -> bool {
        !matches!(self, PlanProvenance::Adopted { first: false, .. })
    }
}

/// A [`KernelPlan`] plus the session context it was planned in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionPlan {
    /// The plan, directly executable by the simulator.
    pub plan: KernelPlan,
    /// Per-argument provenance, in argument order.
    pub provenance: Vec<PlanProvenance>,
    /// Per-argument session allocation index, in argument order.
    pub binding: Vec<usize>,
}

/// One allocation's placement memory.
#[derive(Debug, Clone)]
struct Committed {
    plan: ArgPlan,
    pinned_by: &'static str,
    reuse: u32,
    /// Allocation size the layout was committed for; a resize
    /// invalidates the commitment.
    bytes: u64,
    /// Whether the layout has been written into a page-home table.
    /// Lookahead pre-commitments start `false`; the first adopting
    /// launch materializes them (its provenance says `first: true`).
    materialized: bool,
}

/// One session-managed allocation.
#[derive(Debug, Clone)]
struct SessionAlloc {
    name: &'static str,
    bytes: u64,
    elem_bytes: u32,
    committed: Option<Committed>,
}

/// The stateful cross-kernel planner. See the module docs.
pub struct PlacementSession {
    topo: Topology,
    lasp: Lasp,
    pinning: bool,
    allocs: Vec<SessionAlloc>,
    sink: Option<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for PlacementSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlacementSession")
            .field("pinning", &self.pinning)
            .field("allocs", &self.allocs)
            .finish_non_exhaustive()
    }
}

impl PlacementSession {
    /// A session with placement memory enabled (launches adopt valid
    /// commitments).
    pub fn new(topo: Topology, lasp: Lasp) -> Self {
        PlacementSession {
            topo,
            lasp,
            pinning: true,
            allocs: Vec::new(),
            sink: None,
        }
    }

    /// Disables pinning: every launch replans every argument, the
    /// stateless-per-launch baseline the experiments compare against.
    pub fn without_pinning(mut self) -> Self {
        self.pinning = false;
        self
    }

    /// Attaches a trace sink; subsequent planning reports
    /// [`Event::PlanAdopted`] / [`Event::PlanReplanned`] /
    /// [`Event::PlanInvalidated`]. Fresh plans emit nothing, so a
    /// single-launch session is silent.
    pub fn set_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Registers an allocation and returns its session index.
    pub fn alloc(&mut self, name: &'static str, bytes: u64, elem_bytes: u32) -> usize {
        self.allocs.push(SessionAlloc {
            name,
            bytes: bytes.max(1),
            elem_bytes,
            committed: None,
        });
        self.allocs.len() - 1
    }

    /// The registered allocations as `(name, bytes, elem_bytes)`, in
    /// index order — the shape the simulator seeds its address space
    /// from.
    pub fn allocations(&self) -> Vec<(&'static str, u64, u32)> {
        self.allocs
            .iter()
            .map(|a| (a.name, a.bytes, a.elem_bytes))
            .collect()
    }

    /// Resizes allocation `id`. A size change invalidates any committed
    /// layout (the map no longer covers the allocation), reported as
    /// [`Event::PlanInvalidated`]; the next launch plans it fresh.
    pub fn resize(&mut self, id: usize, bytes: u64) {
        let bytes = bytes.max(1);
        let alloc = &mut self.allocs[id];
        if alloc.bytes != bytes && alloc.committed.take().is_some() {
            if let Some(sink) = self.sink.as_ref().filter(|s| s.enabled()) {
                sink.record(Event::PlanInvalidated {
                    alloc: id,
                    name: alloc.name.to_string(),
                    reason: format!("resized {} -> {bytes} bytes", alloc.bytes),
                });
            }
        }
        alloc.bytes = bytes;
    }

    /// Whether allocation `id` currently has a committed layout.
    pub fn is_committed(&self, id: usize) -> bool {
        self.allocs[id].committed.is_some()
    }

    /// Plans one launch whose argument `i` is backed by session
    /// allocation `binding[i]`, resolving every argument through the
    /// adopt / replan / fresh decision table.
    ///
    /// # Panics
    ///
    /// Panics if `binding` does not name one allocation per kernel
    /// argument, or a launch views more bytes than its allocation holds.
    pub fn plan_launch(&mut self, launch: &LaunchInfo, binding: &[usize]) -> SessionPlan {
        self.plan_launch_explained(launch, binding).0
    }

    /// [`PlacementSession::plan_launch`] plus the per-argument
    /// [`ArgDecision`] chain (classification, tie-break winner), for
    /// callers that narrate the decision to a trace sink. With no
    /// adoptions the decisions are identical to
    /// [`Policy::plan_explained`].
    pub fn plan_launch_explained(
        &mut self,
        launch: &LaunchInfo,
        binding: &[usize],
    ) -> (SessionPlan, Vec<ArgDecision>) {
        assert_eq!(
            binding.len(),
            launch.kernel.args.len(),
            "one session allocation per kernel argument"
        );
        for (i, &slot) in binding.iter().enumerate() {
            assert!(
                launch.arg_bytes(i) <= self.allocs[slot].bytes,
                "launch `{}` views {} bytes of `{}` but the allocation holds {}",
                launch.kernel.name,
                launch.arg_bytes(i),
                self.allocs[slot].name,
                self.allocs[slot].bytes
            );
        }

        // Resolve the decision table first, so the planner knows which
        // arguments are adopted before it picks the schedule.
        let mut provenance = Vec::with_capacity(binding.len());
        for &slot in binding {
            let alloc = &self.allocs[slot];
            provenance.push(match &alloc.committed {
                // Defensive: `resize` clears stale commitments, so a
                // size mismatch here means external mutation — treat
                // the layout as gone rather than adopt a map that no
                // longer covers the allocation.
                Some(c) if c.bytes != alloc.bytes => PlanProvenance::Fresh,
                Some(c) if self.pinning => PlanProvenance::Adopted {
                    pinned_by: c.pinned_by,
                    reuse: c.reuse + 1,
                    first: !c.materialized,
                },
                Some(c) => PlanProvenance::Replanned {
                    was_pinned_by: c.pinned_by,
                    reuse_lost: c.reuse,
                },
                None => PlanProvenance::Fresh,
            });
        }
        let committed: Vec<Option<ArgPlan>> = binding
            .iter()
            .zip(&provenance)
            .map(|(&slot, prov)| match prov {
                PlanProvenance::Adopted { .. } => {
                    self.allocs[slot].committed.as_ref().map(|c| c.plan.clone())
                }
                _ => None,
            })
            .collect();
        let adopted: Vec<Option<&ArgPlan>> = committed.iter().map(Option::as_ref).collect();
        let (plan, decisions) = self
            .lasp
            .plan_adopting_explained(launch, &self.topo, &adopted);

        // Commit fresh/replanned layouts, bump adoption counts, and
        // narrate to the sink.
        let sink = self.sink.clone().filter(|s| s.enabled());
        for (i, (&slot, prov)) in binding.iter().zip(&provenance).enumerate() {
            match prov {
                PlanProvenance::Adopted {
                    pinned_by, reuse, ..
                } => {
                    if let Some(c) = self.allocs[slot].committed.as_mut() {
                        c.reuse = *reuse;
                        c.materialized = true;
                    }
                    if let Some(s) = &sink {
                        s.record(Event::PlanAdopted {
                            kernel: launch.kernel.name.to_string(),
                            arg: i,
                            name: self.allocs[slot].name.to_string(),
                            pinned_by: pinned_by.to_string(),
                            reuse: *reuse,
                        });
                    }
                }
                PlanProvenance::Replanned { .. } | PlanProvenance::Fresh => {
                    let bytes = self.allocs[slot].bytes;
                    self.allocs[slot].committed = Some(Committed {
                        plan: plan.args[i].clone(),
                        pinned_by: launch.kernel.name,
                        reuse: 0,
                        bytes,
                        materialized: true,
                    });
                    if matches!(prov, PlanProvenance::Replanned { .. }) {
                        if let Some(s) = &sink {
                            s.record(Event::PlanReplanned {
                                kernel: launch.kernel.name.to_string(),
                                arg: i,
                                name: self.allocs[slot].name.to_string(),
                                page_map: plan.args[i].pages.to_string(),
                            });
                        }
                    }
                }
            }
        }

        (
            SessionPlan {
                plan,
                provenance,
                binding: binding.to_vec(),
            },
            decisions,
        )
    }

    /// Plans a whole [`LaunchSequence`]: registers its name-aliased
    /// allocations (re-using same-named allocations from earlier
    /// sequences, so a decode loop keeps its memory across steps),
    /// pre-commits the dominant consumer's layout for every shared
    /// allocation, then plans each launch in order. Returns one
    /// [`SessionPlan`] per launch.
    pub fn plan_sequence(&mut self, seq: &LaunchSequence) -> Vec<SessionPlan> {
        // Map sequence allocations onto session allocations by name.
        let slots: Vec<usize> = seq
            .allocs()
            .iter()
            .map(|a| {
                match self.allocs.iter().position(|s| s.name == a.name) {
                    Some(slot) => {
                        // Growth (a KV cache extended between steps)
                        // invalidates like an explicit resize.
                        if self.allocs[slot].bytes < a.bytes {
                            self.resize(slot, a.bytes);
                        }
                        slot
                    }
                    None => self.alloc(a.name, a.bytes, a.elem_bytes),
                }
            })
            .collect();

        // Lookahead: commit the dominant consumer's layout for every
        // shared, not-yet-committed allocation so earlier launches
        // adopt it instead of pinning their own.
        if self.pinning {
            for (si, &slot) in slots.iter().enumerate() {
                if !seq.is_shared(si) || self.allocs[slot].committed.is_some() {
                    continue;
                }
                let Some((li, ai)) = dominant_consumer(seq, si) else {
                    continue;
                };
                let launch = &seq.launches()[li];
                let plan = self.lasp.plan(launch, &self.topo);
                self.allocs[slot].committed = Some(Committed {
                    plan: plan.args[ai].clone(),
                    pinned_by: launch.kernel.name,
                    reuse: 0,
                    bytes: self.allocs[slot].bytes,
                    // No page homes carry this layout yet; the first
                    // adopting launch materializes it.
                    materialized: false,
                });
            }
        }

        (0..seq.launches().len())
            .map(|li| {
                let binding: Vec<usize> = seq.binding(li).iter().map(|&si| slots[si]).collect();
                self.plan_launch(&seq.launches()[li], &binding)
            })
            .collect()
    }
}

/// The use `(launch, arg)` whose layout a shared allocation should
/// commit to: the largest shared-class (row/column locality) view —
/// the launch that actually cares where the pages live — falling back
/// to the largest view of any class.
fn dominant_consumer(seq: &LaunchSequence, si: usize) -> Option<(usize, usize)> {
    let uses = &seq.allocs()[si].uses;
    let view_of = |&(li, ai): &(usize, usize)| {
        let launch = &seq.launches()[li];
        let arg = &launch.kernel.args[ai];
        let shared = arg
            .accesses
            .iter()
            .any(|index| classify(index, launch.kernel.grid_shape, 0).is_shared());
        (shared, launch.arg_bytes(ai))
    };
    let mut best: Option<((usize, usize), (bool, u64))> = None;
    for u in uses {
        let v = view_of(u);
        let wins = match &best {
            None => true,
            // Shared beats unshared; within a tier, strictly more bytes
            // beats fewer (earliest use wins ties).
            Some((_, b)) => (v.0 && !b.0) || (v.0 == b.0 && v.1 > b.1),
        };
        if wins {
            best = Some((*u, v));
        }
    }
    best.map(|(u, _)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::GridShape;
    use crate::expr::{Expr, Var};
    use crate::launch::{ArgStatic, KernelStatic};
    use ladm_obs::RecordingSink;

    fn tid() -> Expr {
        Expr::var(Var::Bx) * Expr::var(Var::Bdx) + Expr::var(Var::Tx)
    }

    fn stream(name: &'static str, written: bool) -> LaunchInfo {
        let arg = if written {
            ArgStatic::write("a", 4, tid().to_poly())
        } else {
            ArgStatic::read("a", 4, tid().to_poly())
        };
        let k = KernelStatic {
            name,
            grid_shape: GridShape::OneD,
            args: vec![arg],
        };
        LaunchInfo::new(k, (512, 1), (256, 1), vec![512 * 256])
    }

    fn session() -> PlacementSession {
        PlacementSession::new(Topology::paper_multi_gpu(), Lasp::ladm())
    }

    #[test]
    fn decision_table() {
        let mut s = session();
        let launch = stream("k", true);
        let a = s.alloc("a", launch.arg_bytes(0), 4);

        // No commitment: fresh, and the plan matches the stateless one.
        let p1 = s.plan_launch(&launch, &[a]);
        assert_eq!(p1.provenance, vec![PlanProvenance::Fresh]);
        assert_eq!(
            p1.plan,
            Lasp::ladm().plan(&launch, &Topology::paper_multi_gpu())
        );

        // Valid commitment + pinning: adopted, reuse counts up.
        let p2 = s.plan_launch(&launch, &[a]);
        assert_eq!(
            p2.provenance,
            vec![PlanProvenance::Adopted {
                pinned_by: "k",
                reuse: 1,
                first: false
            }]
        );
        assert_eq!(p2.plan, p1.plan, "adoption must reproduce the layout");
        let p3 = s.plan_launch(&launch, &[a]);
        assert_eq!(
            p3.provenance,
            vec![PlanProvenance::Adopted {
                pinned_by: "k",
                reuse: 2,
                first: false
            }]
        );

        // Pinning off: the commitment is superseded.
        let mut s2 = session().without_pinning();
        let b = s2.alloc("a", launch.arg_bytes(0), 4);
        let q1 = s2.plan_launch(&launch, &[b]);
        assert_eq!(q1.provenance, vec![PlanProvenance::Fresh]);
        let q2 = s2.plan_launch(&launch, &[b]);
        assert_eq!(
            q2.provenance,
            vec![PlanProvenance::Replanned {
                was_pinned_by: "k",
                reuse_lost: 0
            }]
        );
    }

    #[test]
    fn resize_invalidates_the_commitment() {
        let mut s = session();
        let launch = stream("k", true);
        let a = s.alloc("a", launch.arg_bytes(0), 4);
        let sink = Arc::new(RecordingSink::new());
        s.set_sink(sink.clone());

        s.plan_launch(&launch, &[a]);
        assert!(s.is_committed(a));

        // Same size: still committed, nothing recorded.
        s.resize(a, launch.arg_bytes(0));
        assert!(s.is_committed(a));
        assert!(sink.events().is_empty());

        // Grown: invalidated with an event; the next launch is fresh.
        s.resize(a, launch.arg_bytes(0) * 2);
        assert!(!s.is_committed(a));
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], Event::PlanInvalidated { alloc, .. } if alloc == a));
        let p = s.plan_launch(&launch, &[a]);
        assert_eq!(p.provenance, vec![PlanProvenance::Fresh]);
    }

    #[test]
    fn adoption_and_replan_are_narrated() {
        let launch = stream("k", true);

        let mut s = session();
        let a = s.alloc("a", launch.arg_bytes(0), 4);
        let sink = Arc::new(RecordingSink::new());
        s.set_sink(sink.clone());
        s.plan_launch(&launch, &[a]); // fresh: silent
        s.plan_launch(&launch, &[a]); // adopted
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            &events[0],
            Event::PlanAdopted { kernel, reuse: 1, .. } if kernel == "k"
        ));

        let mut s = session().without_pinning();
        let a = s.alloc("a", launch.arg_bytes(0), 4);
        let sink = Arc::new(RecordingSink::new());
        s.set_sink(sink.clone());
        s.plan_launch(&launch, &[a]);
        s.plan_launch(&launch, &[a]);
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert!(matches!(&events[0], Event::PlanReplanned { .. }));
    }

    #[test]
    fn sequence_lookahead_precommits_the_dominant_consumer() {
        // Streaming writer then a row-shared reader of the same buffer:
        // statelessly the writer pins an interleaved layout and the
        // reader wants banding (the L009 hazard). The session must
        // commit the *reader's* layout and have both launches adopt it.
        let producer = stream("producer", true);
        let lda = Expr::param("lda");
        let m = Expr::var(Var::Ind(0));
        let consumer_k = KernelStatic {
            name: "consumer",
            grid_shape: GridShape::TwoD,
            args: vec![ArgStatic::read(
                "a",
                4,
                ((Expr::var(Var::By) * Expr::var(Var::Bdy) + Expr::var(Var::Ty)) * lda
                    + m * Expr::var(Var::Bdx)
                    + Expr::var(Var::Tx))
                .to_poly(),
            )],
        };
        let consumer =
            LaunchInfo::new(consumer_k, (8, 16), (128, 2), vec![512 * 256]).with_param("lda", 2048);
        let seq = LaunchSequence::pair(producer.clone(), consumer.clone());

        let mut s = session();
        let plans = s.plan_sequence(&seq);
        assert_eq!(plans.len(), 2);
        // Both launches adopt the consumer-pinned layout...
        for p in &plans {
            assert!(matches!(
                p.provenance[0],
                PlanProvenance::Adopted {
                    pinned_by: "consumer",
                    ..
                }
            ));
        }
        // ...and exactly the first adoption materializes the
        // looked-ahead layout into page homes.
        assert!(matches!(
            plans[0].provenance[0],
            PlanProvenance::Adopted { first: true, .. }
        ));
        assert!(plans[0].provenance[0].needs_apply());
        assert!(matches!(
            plans[1].provenance[0],
            PlanProvenance::Adopted { first: false, .. }
        ));
        assert!(!plans[1].provenance[0].needs_apply());
        // ...so their page maps agree, and match the consumer's own
        // stateless choice.
        let stateless = Lasp::ladm().plan(&consumer, &Topology::paper_multi_gpu());
        assert_eq!(plans[0].plan.args[0], stateless.args[0]);
        assert_eq!(plans[1].plan.args[0], stateless.args[0]);

        // A later identical sequence (the next decode step) adopts the
        // same memory instead of re-pinning.
        let plans2 = s.plan_sequence(&seq);
        assert!(matches!(
            plans2[1].provenance[0],
            PlanProvenance::Adopted { reuse, .. } if reuse >= 3
        ));
    }

    #[test]
    fn fresh_only_session_matches_the_stateless_planner_exactly() {
        // The trivial single-launch session the runtime uses: plans and
        // decisions must be bit-identical to `plan_explained`.
        let launch = stream("k", false);
        let mut s = session();
        let a = s.alloc("a", launch.arg_bytes(0), 4);
        let (sp, decisions) = s.plan_launch_explained(&launch, &[a]);
        let (plan, want) = Lasp::ladm().plan_explained(&launch, &Topology::paper_multi_gpu());
        assert_eq!(sp.plan, plan);
        assert_eq!(decisions.len(), want.len());
        for (d, w) in decisions.iter().zip(&want) {
            assert_eq!((d.arg, d.winner, &d.class), (w.arg, w.winner, &w.class));
        }
    }
}
