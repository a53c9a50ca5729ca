//! Interval arithmetic over the affine index polynomials — the numeric
//! core of the analyzer's symbolic footprint engine.
//!
//! Given a [`Poly`] and a *box* (an interval per variable), [`poly_range`]
//! returns an interval guaranteed to contain every value the polynomial
//! takes over the box:
//!
//! * polynomials **multilinear** in the boxed variables (every index
//!   expression the Table II analysis classifies is) are evaluated
//!   exactly by corner enumeration — a multilinear function over a box
//!   attains its extrema at the corners;
//! * higher powers fall back to monomial-by-monomial interval products,
//!   which may over-approximate (e.g. `x²` over `[-2, 1]` yields
//!   `[-2, 4]` ⊇ `[0, 4]`) but never under-approximate.
//!
//! All arithmetic is checked `i128`: any overflow makes the query return
//! `None` ("unanalyzable") rather than a wrong bound, so downstream
//! consumers can degrade to a coarser — but still sound — estimate.
//!
//! ```
//! use ladm_core::expr::{Poly, Var};
//! use ladm_core::interval::{poly_range, Itv};
//!
//! // idx = 4·tx − 1 over tx ∈ [0, 31]
//! let p = Poly::var(Var::Tx) * Poly::constant(4) - Poly::constant(1);
//! let r = poly_range(&p, &mut |v| match v {
//!     Var::Tx => Some(Itv::new(0, 31)),
//!     _ => None,
//! })
//! .unwrap();
//! assert_eq!((r.lo, r.hi), (-1, 123));
//! ```

use crate::expr::{Poly, Var};

/// A closed integer interval `[lo, hi]` (`lo ≤ hi` always holds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Itv {
    /// Inclusive lower end.
    pub lo: i128,
    /// Inclusive upper end.
    pub hi: i128,
}

impl Itv {
    /// Creates `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: i128, hi: i128) -> Self {
        assert!(lo <= hi, "interval endpoints out of order: [{lo}, {hi}]");
        Itv { lo, hi }
    }

    /// The degenerate interval `[v, v]`.
    pub fn point(v: i128) -> Self {
        Itv { lo: v, hi: v }
    }

    /// The smallest interval containing both endpoints, in either order
    /// (convenient for negative strides).
    pub fn hull(a: i128, b: i128) -> Self {
        Itv {
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    /// Whether the interval is a single point.
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Whether `v` lies inside the interval.
    pub fn contains(&self, v: i128) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Interval sum; `None` on `i128` overflow.
    pub fn checked_add(self, o: Itv) -> Option<Itv> {
        Some(Itv {
            lo: self.lo.checked_add(o.lo)?,
            hi: self.hi.checked_add(o.hi)?,
        })
    }

    /// Interval product (min/max over the four endpoint products);
    /// `None` on `i128` overflow.
    pub fn checked_mul(self, o: Itv) -> Option<Itv> {
        let c = [
            self.lo.checked_mul(o.lo)?,
            self.lo.checked_mul(o.hi)?,
            self.hi.checked_mul(o.lo)?,
            self.hi.checked_mul(o.hi)?,
        ];
        Some(Itv {
            lo: *c.iter().min().unwrap(),
            hi: *c.iter().max().unwrap(),
        })
    }

    /// The smallest interval containing both operands.
    pub fn join(self, o: Itv) -> Itv {
        Itv {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }
}

/// Corner enumeration stays exact but exponential; above this many boxed
/// (non-point) variables we fall back to monomial interval products. The
/// analyzer boxes at most `tx`, `ty`, `bx`, `by` and the suite's one
/// induction variable.
const MAX_CORNER_VARS: usize = 6;

/// Sound range of `p` over the box described by `range_of`.
///
/// `range_of` maps each variable to its interval; returning `None` for
/// any variable `p` mentions (a symbolic trip count, an unbound
/// parameter, runtime data) makes the whole query return `None`. The
/// result is exact when `p` is multilinear in the non-point variables of
/// the box, and a superset of the true range otherwise.
pub fn poly_range<F>(p: &Poly, range_of: &mut F) -> Option<Itv>
where
    F: FnMut(Var) -> Option<Itv>,
{
    // Resolve every variable once, noting which are genuine intervals.
    let mut vars: Vec<(Var, Itv)> = Vec::new();
    for (powers, _) in p.iter() {
        for &v in powers.iter() {
            if !vars.iter().any(|(w, _)| *w == v) {
                vars.push((v, range_of(v)?));
            }
        }
    }
    let boxed: Vec<(Var, Itv)> = vars
        .iter()
        .filter(|(_, r)| !r.is_point())
        .cloned()
        .collect();

    let multilinear = p.iter().all(|(powers, _)| {
        boxed
            .iter()
            .all(|(v, _)| powers.iter().filter(|&&w| w == *v).count() <= 1)
    });

    if multilinear && boxed.len() <= MAX_CORNER_VARS {
        corner_range(p, &vars, &boxed)
    } else {
        monomial_range(p, &vars)
    }
}

/// Exact range of a multilinear polynomial: evaluate every corner of the
/// box and take the envelope.
fn corner_range(p: &Poly, vars: &[(Var, Itv)], boxed: &[(Var, Itv)]) -> Option<Itv> {
    let mut out: Option<Itv> = None;
    for mask in 0u32..(1u32 << boxed.len()) {
        let value_of = |v: Var| -> i128 {
            if let Some(i) = boxed.iter().position(|(w, _)| *w == v) {
                let r = boxed[i].1;
                if mask & (1 << i) != 0 {
                    r.hi
                } else {
                    r.lo
                }
            } else {
                // Point variables evaluate to their single value.
                vars.iter()
                    .find(|(w, _)| *w == v)
                    .map(|(_, r)| r.lo)
                    .unwrap()
            }
        };
        let mut sum = 0i128;
        for (powers, coeff) in p.iter() {
            let mut term = i128::from(coeff);
            for &v in powers.iter() {
                term = term.checked_mul(value_of(v))?;
            }
            sum = sum.checked_add(term)?;
        }
        let pt = Itv::point(sum);
        out = Some(match out {
            Some(acc) => acc.join(pt),
            None => pt,
        });
    }
    out
}

/// Sound (possibly loose) range via monomial-by-monomial interval
/// products — handles powers ≥ 2 and large corner counts.
fn monomial_range(p: &Poly, vars: &[(Var, Itv)]) -> Option<Itv> {
    let mut acc = Itv::point(0);
    for (powers, coeff) in p.iter() {
        let mut term = Itv::point(i128::from(coeff));
        for &v in powers.iter() {
            let r = vars.iter().find(|(w, _)| *w == v).map(|(_, r)| *r).unwrap();
            term = term.checked_mul(r)?;
        }
        acc = acc.checked_add(term)?;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Env;

    fn tx() -> Poly {
        Poly::var(Var::Tx)
    }

    fn boxes(pairs: &[(Var, Itv)]) -> impl FnMut(Var) -> Option<Itv> + '_ {
        move |v| pairs.iter().find(|(w, _)| *w == v).map(|(_, r)| *r)
    }

    #[test]
    fn negative_stride_reverses_the_interval() {
        let p = tx() * Poly::constant(-4);
        let r = poly_range(&p, &mut boxes(&[(Var::Tx, Itv::new(0, 31))])).unwrap();
        assert_eq!(r, Itv::new(-124, 0));
    }

    #[test]
    fn constant_poly_is_a_point() {
        let p = Poly::constant(17);
        let r = poly_range(&p, &mut |_| None).unwrap();
        assert_eq!(r, Itv::point(17));
        assert!(r.is_point());
    }

    #[test]
    fn zero_poly_over_empty_box_is_zero() {
        let r = poly_range(&Poly::zero(), &mut |_| None).unwrap();
        assert_eq!(r, Itv::point(0));
    }

    #[test]
    fn corner_eval_beats_monomial_on_shared_vars() {
        // tx·8 − tx = 7·tx after canonicalization would be exact either
        // way, so force distinct monomials sharing tx: tx·ty − tx.
        let p = tx() * Poly::var(Var::Ty) - tx();
        let b = [(Var::Tx, Itv::new(0, 3)), (Var::Ty, Itv::new(0, 2))];
        let r = poly_range(&p, &mut boxes(&b)).unwrap();
        // Exact range: min at (tx=3, ty=0) → −3; max at (3, 2) → 3.
        assert_eq!(r, Itv::new(-3, 3));
    }

    #[test]
    fn square_falls_back_to_a_sound_superset() {
        let p = tx() * tx();
        let r = poly_range(&p, &mut boxes(&[(Var::Tx, Itv::new(-2, 1))])).unwrap();
        // True range is [0, 4]; the monomial product gives [-2, 4].
        assert!(r.lo <= 0 && r.hi >= 4);
        assert_eq!(r, Itv::new(-2, 4));
    }

    #[test]
    fn unbound_variable_is_unanalyzable() {
        // A grid-stride loop whose trip count is symbolic: the induction
        // variable has no known range.
        let p = tx() + Poly::var(Var::Ind(0)) * Poly::constant(256);
        let r = poly_range(&p, &mut boxes(&[(Var::Tx, Itv::new(0, 31))]));
        assert!(r.is_none());
    }

    #[test]
    fn zero_trip_loop_collapses_to_a_point() {
        let p = tx() + Poly::var(Var::Ind(0)) * Poly::constant(256);
        let b = [(Var::Tx, Itv::point(5)), (Var::Ind(0), Itv::point(0))];
        let r = poly_range(&p, &mut boxes(&b)).unwrap();
        assert_eq!(r, Itv::point(5));
    }

    #[test]
    fn point_box_matches_concrete_evaluation() {
        // (by·bdy + ty)·W + bx·bdx + tx at a concrete thread.
        let w = Poly::constant(64);
        let p = (Poly::var(Var::By) * Poly::var(Var::Bdy) + Poly::var(Var::Ty)) * w
            + Poly::var(Var::Bx) * Poly::var(Var::Bdx)
            + tx();
        let env = Env::new()
            .with_dims(16, 4, 4, 4)
            .with_block(2, 3)
            .with_thread(5, 1);
        let want = p.eval(&env);
        let r = poly_range(&p, &mut |v| {
            env.try_get(v).map(|x| Itv::point(i128::from(x)))
        })
        .unwrap();
        assert_eq!(r, Itv::point(i128::from(want)));
    }

    #[test]
    fn overflow_returns_none_instead_of_wrapping() {
        let big = Itv::new(0, i128::from(i64::MAX));
        let p = tx() * tx() * tx() * Poly::constant(i64::MAX);
        let r = poly_range(&p, &mut boxes(&[(Var::Tx, big)]));
        assert!(r.is_none());
    }

    #[test]
    fn hull_orders_endpoints() {
        assert_eq!(Itv::hull(9, -3), Itv::new(-3, 9));
        assert!(Itv::hull(1, 1).is_point());
        assert!(Itv::new(-2, 5).contains(0));
        assert!(!Itv::new(-2, 5).contains(6));
    }
}
