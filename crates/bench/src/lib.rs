//! # ladm-bench
//!
//! Experiment harness regenerating every table and figure of the LADM
//! paper's evaluation (§II, §IV, §V) on the `ladm-sim` substrate, plus
//! the design ablations. The `repro` binary prints the same rows/series
//! the paper reports; `ladm-trace` exports one workload's observability
//! artifacts. The simulator's own host speed is measured by the separate
//! `ladm-perf` package (`ladm-perf/README.md`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod harness;
pub mod profile;
pub mod trace;
