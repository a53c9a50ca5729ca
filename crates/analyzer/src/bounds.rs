//! Pass 3 — symbolic span and bounds derivation.
//!
//! For every access site, the free prime variables (`tx`, `ty`, `bx`,
//! `by`, loop counters) range over boxes fixed by the launch geometry and
//! the trip count. Index skeletons are multilinear in those variables, so
//! the extreme index values occur at corners of the box: evaluating all
//! `2^k` corners yields the exact `[min, max]` span, which is compared
//! against the allocation length. Out-of-range spans fire `L005 oob-span`
//! (a note when an `allow_halo` waiver documents the overrun, e.g. stencil
//! halos clamped by a guard the index skeleton cannot express).

use crate::diag::{Diagnostic, LintCode, Report, Severity};
use ladm_core::expr::{Poly, Var};
use ladm_core::interval::{poly_range, Itv};
use ladm_core::launch::LaunchInfo;
use ladm_workloads::Workload;

/// The inclusive range a free variable can take at this launch.
fn var_range(v: Var, launch: &LaunchInfo, trips: u32) -> Option<Itv> {
    let upto = |n: u32| Some(Itv::new(0, i128::from(n.max(1)) - 1));
    match v {
        Var::Tx => upto(launch.block.0),
        Var::Ty => upto(launch.block.1),
        Var::Bx => upto(launch.grid.0),
        Var::By => upto(launch.grid.1),
        Var::Ind(_) => upto(trips),
        _ => None,
    }
}

/// Exact `[min, max]` of a multilinear index over the launch box, or
/// `None` when the index cannot be bounded statically (data-dependent
/// terms, unbound parameters, or a free variable at power >= 2).
///
/// Bound parameters are points of the box and free variables span their
/// launch ranges; [`poly_range`] evaluates the corners.
pub fn index_span(index: &Poly, launch: &LaunchInfo, trips: u32) -> Option<(i64, i64)> {
    let env = launch.env();
    // Corner evaluation is exact only for multilinear polynomials. On a
    // higher power of a free variable `poly_range` falls back to a loose
    // monomial bound, on which L005 must not fire. Terms are sorted
    // variable multisets, so a repeated variable is adjacent.
    let repeated_free = index.iter().any(|(vars, _)| {
        vars.windows(2)
            .any(|w| w[0] == w[1] && env.try_get(w[0]).is_none())
    });
    if repeated_free {
        return None;
    }
    let span = poly_range(index, &mut |v| match env.try_get(v) {
        Some(x) => Some(Itv::point(i128::from(x))),
        None => var_range(v, launch, trips),
    })?;
    Some((i64::try_from(span.lo).ok()?, i64::try_from(span.hi).ok()?))
}

/// Checks every access site of one kernel launch against its allocation.
pub fn check(w: &Workload, launch: &LaunchInfo, trips: u32, report: &mut Report) {
    let kernel = launch.kernel.name;
    for (i, arg) in launch.kernel.args.iter().enumerate() {
        let len = launch.arg_lens[i] as i64;
        let halo = w.halo_waiver(kernel, i);
        let mut arg_oob = false;
        for (site, index) in arg.accesses.iter().enumerate() {
            let Some((min, max)) = index_span(index, launch, trips) else {
                continue;
            };
            let oob = min < 0 || max >= len;
            if !oob {
                continue;
            }
            arg_oob = true;
            let detail = format!(
                "index span [{min}, {max}] vs allocation [0, {}] ({} elements)",
                len - 1,
                len
            );
            let diag = |severity, message| Diagnostic {
                code: LintCode::OobSpan,
                severity,
                workload: w.name,
                kernel,
                arg: Some(arg.name),
                site: Some(site),
                message,
                notes: vec![detail.clone(), format!("index: {index}")],
            };
            match halo {
                Some(reason) => report.diagnostics.push(diag(
                    Severity::Note,
                    format!("acknowledged halo overrun: {reason}"),
                )),
                None => report.diagnostics.push(diag(
                    Severity::Warning,
                    "derived index span exceeds the allocation".to_string(),
                )),
            }
        }
        if halo.is_some() && !arg_oob {
            report.diagnostics.push(Diagnostic {
                code: LintCode::OobSpan,
                severity: Severity::Warning,
                workload: w.name,
                kernel,
                arg: Some(arg.name),
                site: None,
                message: "stale allow_halo: no access site of this argument leaves \
                          the allocation"
                    .to_string(),
                notes: Vec::new(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladm_core::analysis::GridShape;
    use ladm_core::launch::{ArgStatic, KernelStatic};

    #[test]
    fn span_is_exact_when_multilinear_in_free_vars_and_none_otherwise() {
        let v = Poly::var;
        let kernel = KernelStatic {
            name: "k",
            grid_shape: GridShape::OneD,
            args: vec![ArgStatic::read("a", 4, v(Var::Tx))],
        };
        // 4 blocks of 32 threads; 3 loop trips.
        let launch = LaunchInfo::new(kernel, (4, 1), (32, 1), vec![128]);
        let tid = v(Var::Bx) * v(Var::Bdx) + v(Var::Tx);
        assert_eq!(index_span(&tid, &launch, 3), Some((0, 127)));
        let back = tid - v(Var::Ind(0)) * Poly::constant(128);
        assert_eq!(index_span(&back, &launch, 3), Some((-256, 127)));
        // A bound parameter is a point of the box, so its square is exact.
        let sq_param = v(Var::Bdx) * v(Var::Bdx) + v(Var::Tx);
        assert_eq!(index_span(&sq_param, &launch, 3), Some((1024, 1055)));
        // A free variable's square would only get a loose monomial bound.
        assert_eq!(index_span(&(v(Var::Tx) * v(Var::Tx)), &launch, 3), None);
        // Runtime data has no range.
        assert_eq!(index_span(&(v(Var::Data) + v(Var::Tx)), &launch, 3), None);
    }
}
