//! # ladm-analyzer
//!
//! The **locality linter**: a diagnostics-grade static analyzer for LADM
//! kernel specs with dynamic footprint cross-validation.
//!
//! The LADM compiler pass (Table II / Algorithm 1 in the paper) silently
//! decides how every allocation is placed and every threadblock is
//! scheduled across a multi-GPU system. A spec transcription mistake —
//! a wrong coefficient, a missing parameter, an allocation one tile too
//! small — does not crash anything; it quietly degrades locality. This
//! crate turns those silent decisions into rustc-style diagnostics:
//!
//! * [`classification`] — audits every access site's Table II row
//!   against the spec's annotations, with the full Algorithm 1 trace
//!   attached to each disagreement (`L001`, `L004`, `L006`, `L007`);
//! * [`scheduler`] — surfaces the LASP largest-structure tie-break and
//!   flags order-dependent coin flips (`L002`);
//! * [`bounds`] — corner-evaluates each multilinear index span against
//!   its allocation (`L005`);
//! * [`footprint`] — samples concrete `(block, thread, iteration)`
//!   points and convicts locality claims the numbers contradict
//!   (`L003`).
//!
//! Reports render as text ([`Report::render_text`]) or JSON
//! ([`Report::render_json`]); the `ladm-lint` binary drives the whole
//! suite and exits non-zero on errors (or warnings under
//! `--deny warnings`).
//!
//! ## Example
//!
//! ```
//! use ladm_analyzer::{lint_workload, Severity};
//! use ladm_workloads::{by_name, Scale};
//!
//! let w = by_name("VecAdd", Scale::Test).unwrap();
//! let report = lint_workload(&w);
//! assert!(report.worst() <= Some(Severity::Note)); // lint-clean
//! assert!(report.sites_checked > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bounds;
pub mod classification;
pub mod crosskernel;
pub mod diag;
pub mod footprint;
pub mod linter;
pub mod scheduler;
pub mod traffic;

pub use crosskernel::{check_sequence, check_session, check_session_replans};
pub use diag::{Diagnostic, LintCode, Report, Severity};
pub use linter::{classification_report, lint_suite, lint_workload};
pub use traffic::{
    predict, traffic_suite, traffic_workloads, KernelTraffic, TrafficKnobs, TrafficTable,
};
