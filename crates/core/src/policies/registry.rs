//! The single source of truth for the shipped policy lineup.
//!
//! The experiment binaries (`repro`, `ladm-trace`), the `ladm-perf`
//! benchmark, the fuzzer's policy generator and the determinism suite
//! all need "the set of known policies". Before this registry each kept
//! its own hardcoded list (`policy_by_index`, `sample_policy`, the fig
//! lineups) and they could silently drift; now every lineup is a list of
//! names resolved through [`build`], and the fuzz crate pins its
//! generator to [`entries`] by test.

use super::swizzle::{Swizzle, SwizzlePlacement, DEFAULT_GROUP, DEFAULT_TWO_LEVEL_BATCH};
use super::{BaselineRr, BatchFt, CacheMode, Coda, KernelWide, Lasp, Policy};

/// One shipped policy: its stable display name and a constructor.
#[derive(Debug, Clone, Copy)]
pub struct PolicyEntry {
    /// The name [`Policy::name`] returns — stable across releases, used
    /// in experiment tables, goldens and corpus fixtures.
    pub name: &'static str,
    /// Builds a fresh boxed instance.
    pub build: fn() -> Box<dyn Policy>,
}

/// Every shipped policy, in presentation order: the paper's Table I
/// lineup first, then the swizzle-scheduler family.
pub fn entries() -> Vec<PolicyEntry> {
    fn e(name: &'static str, build: fn() -> Box<dyn Policy>) -> PolicyEntry {
        PolicyEntry { name, build }
    }
    vec![
        e("Baseline-RR", || Box::new(BaselineRr::new())),
        e("Batch+FT", || Box::new(BatchFt::new())),
        e("Kernel-Wide", || Box::new(KernelWide::new())),
        e("CODA", || Box::new(Coda::flat())),
        e("H-CODA", || Box::new(Coda::hierarchical())),
        e("LASP+RTWICE", || Box::new(Lasp::new(CacheMode::Rtwice))),
        e("LASP+RONCE", || Box::new(Lasp::new(CacheMode::Ronce))),
        e("LADM", || Box::new(Lasp::ladm())),
        e("Swizzle-Blk", || Box::new(Swizzle::block(DEFAULT_GROUP))),
        e("Swizzle-Morton", || Box::new(Swizzle::morton())),
        e("Swizzle-Hilbert", || Box::new(Swizzle::hilbert())),
        e("Swizzle-Hilbert-2L", || {
            Box::new(Swizzle::hilbert().with_two_level(DEFAULT_TWO_LEVEL_BATCH))
        }),
        e("Swizzle-Hilbert+RR", || {
            Box::new(Swizzle::hilbert().with_placement(SwizzlePlacement::RoundRobin))
        }),
        e("LASP+Swizzle-Hilbert", || Box::new(Swizzle::stacked())),
        e("LASP+Swizzle-Blk", || {
            Box::new(Swizzle::block(DEFAULT_GROUP).with_placement(SwizzlePlacement::Lasp))
        }),
    ]
}

/// Builds the policy registered under `name`, or `None` if unknown.
pub fn build(name: &str) -> Option<Box<dyn Policy>> {
    entries()
        .into_iter()
        .find(|e| e.name == name)
        .map(|e| (e.build)())
}

/// Builds a lineup from names.
///
/// # Panics
///
/// On a name not present in [`entries`] — lineups are compiled-in
/// lists, so an unknown name is a programming error.
pub fn lineup(names: &[&str]) -> Vec<Box<dyn Policy>> {
    names
        .iter()
        .map(|n| build(n).unwrap_or_else(|| panic!("unknown policy '{n}' in lineup")))
        .collect()
}

/// The lineup of policies evaluated in Figure 4, in the paper's order.
pub fn fig4_lineup() -> Vec<Box<dyn Policy>> {
    lineup(&["Baseline-RR", "Batch+FT", "Kernel-Wide", "CODA"])
}

/// The lineup of policies evaluated in Figures 9 and 10, in the paper's
/// order (the monolithic reference is a topology, not a policy).
pub fn fig9_lineup() -> Vec<Box<dyn Policy>> {
    lineup(&["H-CODA", "LASP+RTWICE", "LASP+RONCE", "LADM"])
}

/// The swizzle-family comparison lineup: the first-touch control, the
/// scheduling-only curves, LASP, and the stacked variants.
pub fn swizzle_lineup() -> Vec<Box<dyn Policy>> {
    lineup(SWIZZLE_LINEUP)
}

/// Names of [`swizzle_lineup`], usable as experiment column headers.
pub const SWIZZLE_LINEUP: &[&str] = &[
    "Batch+FT",
    "Swizzle-Blk",
    "Swizzle-Morton",
    "Swizzle-Hilbert",
    "Swizzle-Hilbert-2L",
    "Swizzle-Hilbert+RR",
    "LADM",
    "LASP+Swizzle-Hilbert",
    "LASP+Swizzle-Blk",
    "H-CODA",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::curve::Curve;
    use std::collections::HashSet;

    #[test]
    fn registered_names_match_policy_names() {
        // The registry key must be exactly what the policy reports, or
        // experiment tables and goldens would disagree with traces.
        for entry in entries() {
            assert_eq!((entry.build)().name(), entry.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<&str> = entries().iter().map(|e| e.name).collect();
        let set: HashSet<&str> = names.iter().copied().collect();
        assert_eq!(set.len(), names.len(), "duplicate registry name");
    }

    #[test]
    fn build_resolves_known_and_rejects_unknown() {
        assert!(build("LADM").is_some());
        assert!(build("Swizzle-Hilbert-2L").is_some());
        assert!(build("No-Such-Policy").is_none());
    }

    #[test]
    fn lineups_have_expected_names() {
        let names: Vec<&str> = fig4_lineup().iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec!["Baseline-RR", "Batch+FT", "Kernel-Wide", "CODA"]
        );
        let names: Vec<&str> = fig9_lineup().iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["H-CODA", "LASP+RTWICE", "LASP+RONCE", "LADM"]);
        let names: Vec<&str> = swizzle_lineup().iter().map(|p| p.name()).collect();
        assert_eq!(names, SWIZZLE_LINEUP);
    }

    #[test]
    fn swizzle_lineup_names_are_registered() {
        for name in SWIZZLE_LINEUP {
            assert!(build(name).is_some(), "{name} missing from registry");
        }
    }

    #[test]
    fn default_group_sanity() {
        // The registry's block swizzle uses the documented default.
        let p = Swizzle::block(DEFAULT_GROUP);
        assert_eq!(
            p.curve(),
            Curve::BlockGroup {
                group: DEFAULT_GROUP
            }
        );
    }
}
