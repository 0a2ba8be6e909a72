//! The simplex's dense row passes, compiled twice from one body.
//!
//! Each pass is a scalar loop marked `#[inline(always)]`. The baseline
//! target runs it as written (SSE2 on x86_64); on x86_64 the same body is
//! also inlined into a `#[target_feature(enable = "avx2")]` function, where
//! LLVM vectorizes it four lanes wide. No intrinsics are written and `fma`
//! is not enabled, so each element still gets one rounded multiply and then
//! one rounded subtract, in the same order, under the same MXCSR rounding
//! and denormal modes: both compilations produce the same bits. An [`Isa`]
//! picks the compilation; only [`Isa::detect`] can pick AVX2.
//!
//! Nothing here allocates.

/// Which compilation of the row passes a solve runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Isa {
    /// Set only by [`Isa::detect`], once the CPU has reported AVX2.
    avx2: bool,
}

impl Isa {
    /// The baseline target's passes, which every CPU runs.
    #[cfg(test)]
    pub(crate) const SCALAR: Isa = Isa { avx2: false };

    /// The widest passes this CPU runs. Std caches the CPUID probe, so a
    /// call costs a load and a test.
    pub(crate) fn detect() -> Isa {
        Isa {
            #[cfg(target_arch = "x86_64")]
            avx2: is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            avx2: false,
        }
    }

    /// `row[j] -= factor * pivot[j]` for every `j` (over the shorter of
    /// the two slices).
    #[inline]
    pub(crate) fn eliminate(self, row: &mut [f64], pivot: &[f64], factor: f64) {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: `avx2` is set only by `detect`, after the CPU
            // reported AVX2.
            return unsafe { avx2::eliminate(row, pivot, factor) };
        }
        eliminate(row, pivot, factor);
    }

    /// `row[j] *= inv` for every `j`.
    #[inline]
    pub(crate) fn scale(self, row: &mut [f64], inv: f64) {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: as in `eliminate`.
            return unsafe { avx2::scale(row, inv) };
        }
        scale(row, inv);
    }
}

/// The body of [`Isa::eliminate`].
#[inline(always)]
fn eliminate(row: &mut [f64], pivot: &[f64], factor: f64) {
    for (x, &p) in row.iter_mut().zip(pivot) {
        *x -= factor * p;
    }
}

/// The body of [`Isa::scale`].
#[inline(always)]
fn scale(row: &mut [f64], inv: f64) {
    for x in row {
        *x *= inv;
    }
}

/// The passes compiled with AVX2 enabled. Calling them on a CPU without
/// AVX2 is undefined behaviour, hence the `unsafe` at each call.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    #[target_feature(enable = "avx2")]
    pub(super) fn eliminate(row: &mut [f64], pivot: &[f64], factor: f64) {
        super::eliminate(row, pivot, factor);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn scale(row: &mut [f64], inv: f64) {
        super::scale(row, inv);
    }
}

// The test LPs `tests/differential_simplex.rs` uses.
#[cfg(test)]
#[path = "../tests/support/lps.rs"]
mod lps;

#[cfg(test)]
mod tests {
    use super::{lps, Isa};
    use crate::{validate, SimplexWorkspace};
    use proptest::prelude::*;

    /// Every compilation this CPU runs.
    fn variants() -> Vec<Isa> {
        let mut v = vec![Isa::SCALAR];
        if Isa::detect() != Isa::SCALAR {
            v.push(Isa::detect());
        }
        v
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Signed zeros, subnormals, very large and very small magnitudes, and
    /// ordinary values.
    fn value() -> impl Strategy<Value = f64> {
        (0u32..10, -4.0f64..4.0, 1u64..1 << 52, -300i32..=300).prop_map(|(k, v, mantissa, exp)| {
            match k {
                0 => 0.0,
                1 => -0.0,
                2 => f64::from_bits(mantissa),
                3 => -f64::from_bits(mantissa),
                4 | 5 => v * 10f64.powi(exp),
                6 => f64::MAX * v.signum(),
                _ => v,
            }
        })
    }

    /// A row and a pivot row of one length in `0..=67`, which covers every
    /// vector tail, and a factor.
    fn rows() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, f64)> {
        (0usize..68).prop_flat_map(|n| {
            (
                proptest::collection::vec(value(), n),
                proptest::collection::vec(value(), n),
                value(),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::default())]

        #[test]
        fn every_variant_eliminates_like_the_scalar_body(case in rows()) {
            let (row, pivot, factor) = case;
            let mut expected = row.clone();
            super::eliminate(&mut expected, &pivot, factor);
            for isa in variants() {
                let mut got = row.clone();
                isa.eliminate(&mut got, &pivot, factor);
                prop_assert_eq!(bits(&got), bits(&expected), "{:?}", isa);
            }
        }

        #[test]
        fn every_variant_scales_like_the_scalar_body(case in rows()) {
            let (row, _, inv) = case;
            let mut expected = row.clone();
            super::scale(&mut expected, inv);
            for isa in variants() {
                let mut got = row.clone();
                isa.scale(&mut got, inv);
                prop_assert_eq!(bits(&got), bits(&expected), "{:?}", isa);
            }
        }
    }

    /// Checks that `isa` solves the sweep of `objectives` over `rows` to the
    /// scalar passes' bits.
    fn same_sweeps(rows: &lps::Rows, objectives: &[Vec<f64>], isa: Isa) -> Result<(), String> {
        let run = |isa| {
            rows.problem(&[])
                .solve_objectives_on(objectives, &mut SimplexWorkspace::new(), isa)
        };
        let (scalar, other) = (run(Isa::SCALAR), run(isa));
        for (i, (a, b)) in scalar.iter().zip(&other).enumerate() {
            let same = match (a, b) {
                (Ok(a), Ok(b)) => {
                    a.objective.to_bits() == b.objective.to_bits()
                        && bits(&a.primal) == bits(&b.primal)
                        && a.iterations == b.iterations
                }
                (Err(a), Err(b)) => a == b,
                _ => false,
            };
            if !same {
                return Err(format!("objective {i}: scalar {a:?} vs {isa:?} {b:?}"));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::default())]

        #[test]
        fn random_lps_solve_alike_on_every_variant(
            rows in lps::lp_strategy(),
            costs in lps::objective_strategy(32),
        ) {
            let isa = Isa::detect();
            let p = rows.problem(&costs[..rows.n]);
            let scalar = p.solve_on(&mut SimplexWorkspace::new(), Isa::SCALAR);
            let other = p.solve_on(&mut SimplexWorkspace::new(), isa);
            let same = validate::check_same_bits(&scalar, &other);
            prop_assert!(same.is_ok(), "{:?}", same);
            let sweep = same_sweeps(&rows, &[costs[..rows.n].to_vec()], isa);
            prop_assert!(sweep.is_ok(), "{:?}", sweep);
        }
    }

    /// The CIP sweep and every seventh LPIP threshold LP of a test-scale
    /// catalog, solved on the scalar passes and on `Isa::detect()`'s:
    /// objective, primal, dual and pivot count agree bit for bit. (On a CPU
    /// without AVX2 both runs take the scalar passes.)
    fn check_catalog(skewed_queries: bool) {
        let h = lps::catalog(skewed_queries, 60);
        let isa = Isa::detect();

        let (rows, objectives) = lps::cip_sweep(&h);
        same_sweeps(&rows, &objectives, isa).unwrap();

        let mut thresholds: Vec<f64> = h.edges().iter().map(|e| e.valuation).collect();
        thresholds.sort_by(|a, b| b.total_cmp(a));
        thresholds.dedup();
        let mut solved = 0;
        for &t in thresholds.iter().step_by(7) {
            let p = lps::lpip_lp(&h, t);
            let scalar = p.solve_on(&mut SimplexWorkspace::new(), Isa::SCALAR);
            let other = p.solve_on(&mut SimplexWorkspace::new(), isa);
            validate::check_same_bits(&scalar, &other).unwrap();
            solved += usize::from(scalar.is_ok());
        }
        assert!(solved > 1);
    }

    #[test]
    fn skewed_catalog_lps_solve_alike_on_every_variant() {
        check_catalog(true);
    }

    #[test]
    fn uniform_catalog_lps_solve_alike_on_every_variant() {
        check_catalog(false);
    }
}
