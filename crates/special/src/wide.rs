//! Portable lane-parallel (SIMD-style) kernels for the sweep hot loops.
//!
//! The VB2 component sweep spends its time in long runs of
//! *independent* per-element evaluations: one fixed point per
//! candidate `N`. The sweep batches [`WIDE_LANES`] such elements into plain `[f64; L]`
//! blocks and evaluate them elementwise through the per-lane kernels
//! here ([`exp_lane`], [`ln_gamma_q_step_lane`]), which modern
//! compilers lower to vector instructions (and which pipeline well even
//! without them — four independent divisions or polynomial chains
//! overlap in the out-of-order core where one serial chain cannot).
//!
//! # Determinism
//!
//! There is one lane width, [`WIDE_LANES`], and no dispatch switch:
//! whether a sweep runs on the lanes follows from the fit alone (the
//! VB2 eligibility gate in `nhpp-vb`), never from the environment or a
//! CPU-feature probe. A fit's results are therefore a pure function of
//! its data and options on any machine, and the width a sweep ran at
//! is recorded as provenance (`Vb2Posterior::lane_width` /
//! `FitReport::lane_width` in `nhpp-vb`).
//!
//! The lane kernels may differ from their scalar counterparts by a few
//! ulps (the lane exponential is a polynomial kernel, not libm), but
//! each is deterministic: same inputs, same bits, independent of
//! thread count and of the block width.

/// Lane count of the 4-wide kernels.
pub const WIDE_LANES: usize = 4;

/// `exp(x)` through a branch-free polynomial kernel, accurate to a
/// couple of ulps. Every lane of a block and every ragged-tail element
/// goes through this one function, so results are bitwise independent
/// of the block width.
pub fn exp_lane(x: f64) -> f64 {
    exp_fixup(x, exp_core(x))
}

// Argument beyond which exp overflows f64.
const EXP_OVERFLOW: f64 = 709.782712893384;
// Argument below which exp underflows to zero (past the last subnormal).
const EXP_UNDERFLOW: f64 = -745.2;
// 1.5 · 2^52: adding and subtracting rounds to the nearest integer.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;
const LOG2_E: f64 = std::f64::consts::LOG2_E;
// ln 2 split hi/lo so `x − k·ln2` is exact in the leading term.
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;

/// Branch-free core of the polynomial exponential: clamp, reduce by
/// `k = round(x / ln 2)`, evaluate the degree-13 Taylor polynomial of
/// `exp(r)` on `|r| ≤ ln2/2` (truncation ≈ 4e−18 relative), scale by
/// `2^k` through two exponent-bit factors so subnormal results stay
/// exact. Specials are repaired afterwards by [`exp_fixup`].
#[inline(always)]
fn exp_core(x: f64) -> f64 {
    let xc = x.clamp(EXP_UNDERFLOW, EXP_OVERFLOW);
    let kf = (xc * LOG2_E + ROUND_MAGIC) - ROUND_MAGIC;
    let r = (xc - kf * LN2_HI) - kf * LN2_LO;
    // Horner over 1/k! for k = 13 down to 0, in plain mul/add on
    // purpose: `f64::mul_add` on a build without compiled-in FMA (the
    // baseline x86-64 target) lowers to a libm *call* per step, which
    // made this kernel slower than libm's own `exp`. The separate
    // roundings cost ≈1 extra ulp over |r| ≤ ln2/2 — inside this
    // kernel's couple-of-ulps contract — and `k·LN2_HI` stays exact
    // regardless (LN2_HI carries enough trailing zero bits).
    let mut p: f64 = 1.605_904_383_682_161_3e-10; // 1/13!
    p = p * r + 2.087_675_698_786_81e-9; // 1/12!
    p = p * r + 2.505_210_838_544_172e-8; // 1/11!
    p = p * r + 2.755_731_922_398_589e-7; // 1/10!
    p = p * r + 2.755_731_922_398_589_3e-6; // 1/9!
    p = p * r + 2.480_158_730_158_73e-5; // 1/8!
    p = p * r + 1.984_126_984_126_984e-4; // 1/7!
    p = p * r + 1.388_888_888_888_889e-3; // 1/6!
    p = p * r + 8.333_333_333_333_333e-3; // 1/5!
    p = p * r + 4.166_666_666_666_666_4e-2; // 1/4!
    p = p * r + 1.666_666_666_666_666_6e-1; // 1/3!
    p = p * r + 0.5;
    p = p * r + 1.0;
    p = p * r + 1.0;
    // 2^k as two factors, each with an in-range exponent, so k down to
    // −1074 (subnormal results) and up to +1024 (overflow to ∞) work.
    let k = kf as i64;
    let k_hi = k / 2;
    let k_lo = k - k_hi;
    p * pow2(k_hi) * pow2(k_lo)
}

/// `2^k` by exponent-bit construction; `k` must lie in `[−1022, 1023]`.
#[inline(always)]
fn pow2(k: i64) -> f64 {
    f64::from_bits(((1023 + k) as u64) << 52)
}

/// Repairs the special cases the branch-free core clamped away.
#[inline(always)]
fn exp_fixup(x: f64, core: f64) -> f64 {
    if x.is_nan() {
        f64::NAN
    } else if x > EXP_OVERFLOW {
        f64::INFINITY
    } else if x < EXP_UNDERFLOW {
        0.0
    } else {
        core
    }
}

/// One Q-recurrence step on the lane kernels: `ln Q(a+1, x)` from
/// `ln Q(a, x)` (see the scalar [`crate::ln_gamma_q_step`]). The sum
/// `Q + increment` never cancels, so the step is safe to evaluate on
/// the lane kernels — a scalar `mul_add` increment and an
/// [`exp_lane`]-based pairwise log-sum-exp, which costs a couple of ulps
/// against the scalar step. Width-generic sweeps evaluate any block size
/// and ragged tails through it with bitwise-identical per-lane results.
pub fn ln_gamma_q_step_lane(a: f64, x: f64, ln_x: f64, ln_q_a: f64, ln_gamma_a1: f64) -> f64 {
    let inc = a.mul_add(ln_x, 0.0 - x) - ln_gamma_a1;
    if !(a > 0.0) || !(x >= 0.0) || ln_q_a.is_nan() {
        f64::NAN
    } else if x == 0.0 {
        0.0
    } else if x == f64::INFINITY {
        f64::NEG_INFINITY
    } else {
        log_sum_exp_pair_lane(ln_q_a, inc)
    }
}

/// `ln(exp(a) + exp(b))` on the lane kernels ([`exp_lane`] + `ln_1p`).
fn log_sum_exp_pair_lane(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    if hi == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    hi + exp_lane(lo - hi).ln_1p()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::ln_gamma;
    use crate::incgamma::ln_gamma_q;

    #[test]
    fn exp_lane_matches_libm_to_couple_ulps() {
        for k in -3000..=3000 {
            let x = k as f64 * 0.237;
            let got = exp_lane(x);
            let want = x.exp();
            if want == 0.0 || want.is_infinite() {
                assert_eq!(got, want, "x={x}");
            } else {
                // A couple of ulps in the bulk; the two-factor 2^k
                // scaling near the underflow boundary costs a few more.
                let bound = if x.abs() > 700.0 { 1e-14 } else { 4.0 * f64::EPSILON };
                let rel = ((got - want) / want).abs();
                assert!(rel <= bound, "x={x}: got={got}, want={want}");
            }
        }
    }

    #[test]
    fn exp_lane_specials_and_extremes() {
        assert!(exp_lane(f64::NAN).is_nan());
        assert_eq!(exp_lane(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp_lane(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp_lane(0.0), 1.0);
        assert_eq!(exp_lane(800.0), f64::INFINITY);
        assert_eq!(exp_lane(-800.0), 0.0);
        // Subnormal results stay proportionally accurate.
        let x = -730.0;
        let got = exp_lane(x);
        let want = x.exp();
        assert!(got > 0.0 && (got / want - 1.0).abs() < 1e-9, "{got} vs {want}");
    }

    #[test]
    fn q_step_x4_agrees_with_scalar_step() {
        // Four lanes spanning small to huge shapes, lower tail to upper.
        let a = [0.5, 2.0, 500.0, 5000.0];
        let frac = [0.05, 0.5, 1.8, 3.0];
        for i in 0..4 {
            let x = a[i] * frac[i];
            let ln_q = ln_gamma_q(a[i], x);
            let gln1 = ln_gamma(a[i] + 1.0);
            let lane = ln_gamma_q_step_lane(a[i], x, x.ln(), ln_q, gln1);
            let direct = ln_gamma_q(a[i] + 1.0, x);
            let tol = 1e-12 * direct.abs().max(1.0)
                + 32.0 * f64::EPSILON * (a[i] * x.ln().abs() + x + gln1.abs());
            assert!((lane - direct).abs() <= tol, "lane {i}: lane={lane}, direct={direct}");
        }
    }

    #[test]
    fn q_step_x4_edge_lanes() {
        let gln1 = ln_gamma(3.0);
        assert_eq!(ln_gamma_q_step_lane(2.0, 0.0, f64::NEG_INFINITY, 0.0, gln1), 0.0);
        assert_eq!(
            ln_gamma_q_step_lane(2.0, f64::INFINITY, f64::INFINITY, f64::NEG_INFINITY, gln1),
            f64::NEG_INFINITY
        );
        assert!(ln_gamma_q_step_lane(-1.0, 1.0, 0.0, 0.0, gln1).is_nan());
        assert!(ln_gamma_q_step_lane(2.0, 1.0, 0.0, f64::NAN, gln1).is_nan());
    }
}
