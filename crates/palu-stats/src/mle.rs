//! Clauset–Shalizi–Newman (CSN) single power-law MLE baseline.
//!
//! The paper's introduction contrasts the hybrid PALU model against the
//! classical practice of "characterizing a network by a single
//! power-law exponent" fit to webcrawl data. This module implements
//! that baseline exactly as Clauset, Shalizi & Newman (SIAM Review
//! 2009) prescribe for discrete data — the same method behind the
//! python `powerlaw` and R `poweRlaw` packages:
//!
//! 1. For a candidate tail cutoff `x_min`, the exponent is the exact
//!    discrete MLE `α̂ = argmax −n·ln ζ(α, x_min) − α·Σ ln d_i`.
//! 2. `x_min` is chosen to minimize the KS distance between the
//!    empirical tail and the fitted model tail.
//!
//! The continuous-approximation estimator
//! `α̂ ≈ 1 + n / Σ ln(d_i / (x_min − ½))` is also provided for
//! comparison (it is the common shortcut and is visibly biased for
//! small `x_min`).

use crate::boot::{refit_in_order, refit_threads};
use crate::error::StatsError;
use crate::histogram::DegreeHistogram;
use crate::ks::ks_distance_tail;
use crate::optimize::golden_section;
use crate::regression::ols;
use crate::restart::{perturbation, Laddered, RestartPolicy, Rung};
use crate::rng::Rng;
use crate::special::hurwitz_zeta;
use crate::Result;

/// Bounds on the exponent search. The paper's observed range is
/// `1 < α < 3`; we search a wider interval for robustness.
const ALPHA_LO: f64 = 1.000_001;
const ALPHA_HI: f64 = 8.0;

/// A fitted single power law `p(d) ∝ d^{-α}` for `d ≥ x_min`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// MLE exponent.
    pub alpha: f64,
    /// Tail cutoff the fit is conditioned on.
    pub x_min: u64,
    /// KS distance between empirical and fitted tails.
    pub ks: f64,
    /// Number of observations in the tail.
    pub n_tail: u64,
    /// Asymptotic standard error of the exponent,
    /// `(α̂ − 1)/√n` (continuous-theory approximation).
    pub alpha_std_err: f64,
}

impl PowerLawFit {
    /// Model tail CDF `P(X ≤ d | X ≥ x_min)` for this fit.
    pub fn tail_cdf(&self, d: u64) -> f64 {
        if d < self.x_min {
            return 0.0;
        }
        // The fit brackets guarantee `alpha > 1`, so the zeta domain
        // error is unreachable from a fitted value; a hand-constructed
        // fit with a bad exponent degrades to the empty-tail CDF
        // rather than panicking.
        match (
            hurwitz_zeta(self.alpha, self.x_min as f64),
            hurwitz_zeta(self.alpha, d as f64 + 1.0),
        ) {
            (Ok(z_all), Ok(z_beyond)) => 1.0 - z_beyond / z_all,
            _ => 0.0,
        }
    }
}

/// Sufficient statistics of a histogram tail: count and `Σ c·ln d`.
fn tail_stats(h: &DegreeHistogram, x_min: u64) -> (u64, f64) {
    let mut n = 0u64;
    let mut sum_ln = 0.0f64;
    for (d, c) in h.iter().filter(|&(d, _)| d >= x_min) {
        n += c;
        sum_ln += c as f64 * (d as f64).ln(); // d >= x_min >= 1. lint:allow(R3)
    }
    (n, sum_ln)
}

/// Exact discrete MLE of the exponent for a *fixed* `x_min`.
///
/// Maximizes the tail log-likelihood
/// `ℓ(α) = −n·ln ζ(α, x_min) − α·Σ ln d_i` by golden-section search
/// (the likelihood is strictly unimodal in `α`).
///
/// # Errors
///
/// * [`StatsError::EmptyInput`] if fewer than two observations lie in
///   the tail.
/// * [`StatsError::Domain`] if all tail observations equal `x_min`
///   (the likelihood then diverges towards `α → ∞`).
pub fn fit_alpha_discrete(h: &DegreeHistogram, x_min: u64) -> Result<PowerLawFit> {
    fit_alpha_discrete_bracket(h, x_min, ALPHA_LO, ALPHA_HI)
}

/// [`fit_alpha_discrete`] with an explicit exponent search bracket —
/// the knob the restart ladder perturbs when the default bracket fails.
fn fit_alpha_discrete_bracket(
    h: &DegreeHistogram,
    x_min: u64,
    alpha_lo: f64,
    alpha_hi: f64,
) -> Result<PowerLawFit> {
    let x_min = x_min.max(1);
    let (n, sum_ln) = tail_stats(h, x_min);
    if n < 2 {
        return Err(StatsError::EmptyInput {
            routine: "fit_alpha_discrete",
        });
    }
    // If every observation is exactly x_min the MLE runs away.
    let distinct_tail = h.iter().filter(|&(d, c)| d >= x_min && c > 0).count();
    if distinct_tail < 2 {
        return Err(StatsError::domain(
            "fit_alpha_discrete",
            "tail is concentrated on a single degree; exponent unidentifiable",
        ));
    }
    let neg_ll = |alpha: f64| -> f64 {
        match hurwitz_zeta(alpha, x_min as f64) {
            // Hurwitz zeta at x_min >= 1 is >= its first term > 0. lint:allow(R3)
            Ok(z) => n as f64 * z.ln() + alpha * sum_ln,
            Err(_) => f64::INFINITY,
        }
    };
    let m = golden_section(neg_ll, alpha_lo, alpha_hi, 1e-10, 300)?;
    if !m.converged {
        return Err(StatsError::NoConvergence {
            routine: "fit_alpha_discrete",
            iterations: m.evals,
            residual: alpha_hi - alpha_lo,
        });
    }
    let alpha = m.x;
    let fit = PowerLawFit {
        alpha,
        x_min,
        ks: 0.0,
        n_tail: n,
        alpha_std_err: (alpha - 1.0) / (n as f64).sqrt(), // n >= 1 tail count. lint:allow(R3)
    };
    let ks = ks_distance_tail(h, x_min, |d| fit.tail_cdf(d));
    Ok(PowerLawFit { ks, ..fit })
}

/// OLS log–log regression estimate of the exponent — the bottom
/// ([`Rung::Fallback`]) rung of the restart ladder. Fits
/// `ln n(d) = −α·ln d + const` over the tail counts by least squares,
/// clamps the slope into the MLE search range, and reports the usual
/// KS/std-err diagnostics for the resulting [`PowerLawFit`].
///
/// # Errors
///
/// [`StatsError::EmptyInput`] when fewer than two distinct tail
/// degrees exist; OLS errors propagate.
fn fallback_alpha_ols(h: &DegreeHistogram, x_min: u64) -> Result<PowerLawFit> {
    let x_min = x_min.max(1);
    let tail: Vec<(u64, u64)> = h.iter().filter(|&(d, c)| d >= x_min && c > 0).collect();
    if tail.len() < 2 {
        return Err(StatsError::EmptyInput {
            routine: "fallback_alpha_ols",
        });
    }
    let n: u64 = tail.iter().map(|&(_, c)| c).sum();
    // d >= x_min >= 1 and c > 0 by the filter above. lint:allow(R3)
    let xs: Vec<f64> = tail.iter().map(|&(d, _)| (d as f64).ln()).collect();
    // c > 0 by the filter above. lint:allow(R3)
    let ys: Vec<f64> = tail.iter().map(|&(_, c)| (c as f64).ln()).collect();
    let reg = ols(&xs, &ys)?;
    let alpha = (-reg.slope).clamp(ALPHA_LO, ALPHA_HI);
    let fit = PowerLawFit {
        alpha,
        x_min,
        ks: 0.0,
        n_tail: n,
        alpha_std_err: (alpha - 1.0) / (n as f64).sqrt(), // n >= 2 tail count. lint:allow(R3)
    };
    let ks = ks_distance_tail(h, x_min, |d| fit.tail_cdf(d));
    Ok(PowerLawFit { ks, ..fit })
}

/// [`fit_alpha_discrete`] with the deterministic restart ladder: on
/// failure the exponent bracket is perturbed (squeezed inward by a
/// seeded factor, restoring finiteness when a boundary evaluation
/// diverges), and as a last resort the exponent is estimated by OLS
/// log–log regression ([`fallback_alpha_ols`]). The result is tagged
/// with the [`Rung`] that succeeded.
///
/// # Errors
///
/// Returns the *primary* rung's error when every rung fails — data so
/// degenerate that no method can identify an exponent.
pub fn fit_alpha_discrete_with_restarts(
    h: &DegreeHistogram,
    x_min: u64,
    policy: &RestartPolicy,
) -> Result<Laddered<PowerLawFit>> {
    let primary_err = match fit_alpha_discrete(h, x_min) {
        Ok(fit) => {
            return Ok(Laddered {
                value: fit,
                rung: Rung::Primary,
                attempts: 1,
            })
        }
        Err(e) => e,
    };
    let mut attempts = 1u32;
    for k in 1..=policy.max_perturbations {
        attempts += 1;
        let u = perturbation(policy.seed, k);
        let lo = ALPHA_LO + 0.25 * u;
        let hi = ALPHA_HI - 2.0 * u;
        if let Ok(fit) = fit_alpha_discrete_bracket(h, x_min, lo, hi) {
            return Ok(Laddered {
                value: fit,
                rung: Rung::Perturbed,
                attempts,
            });
        }
    }
    attempts += 1;
    match fallback_alpha_ols(h, x_min) {
        Ok(fit) => Ok(Laddered {
            value: fit,
            rung: Rung::Fallback,
            attempts,
        }),
        Err(_) => Err(primary_err),
    }
}

/// Continuous-approximation (Hill-style) estimator for comparison:
/// `α̂ = 1 + n / Σ ln(d_i / (x_min − ½))`.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] when fewer than two tail
/// observations exist, or [`StatsError::Domain`] when the log-sum is
/// non-positive.
pub fn fit_alpha_continuous(h: &DegreeHistogram, x_min: u64) -> Result<f64> {
    let x_min = x_min.max(1);
    let mut n = 0u64;
    let mut s = 0.0f64;
    let shift = x_min as f64 - 0.5;
    for (d, c) in h.iter().filter(|&(d, _)| d >= x_min) {
        n += c;
        s += c as f64 * (d as f64 / shift).ln(); // d >= x_min > shift > 0. lint:allow(R3)
    }
    if n < 2 {
        return Err(StatsError::EmptyInput {
            routine: "fit_alpha_continuous",
        });
    }
    if s <= 0.0 {
        return Err(StatsError::domain(
            "fit_alpha_continuous",
            "non-positive log-sum; tail is degenerate",
        ));
    }
    Ok(1.0 + n as f64 / s)
}

/// Options controlling the full CSN fit.
#[derive(Debug, Clone, Copy)]
pub struct CsnOptions {
    /// Largest `x_min` candidate considered (inclusive). Candidates are
    /// the distinct observed degrees up to this cap.
    pub x_min_cap: u64,
    /// Minimum number of tail observations required for a candidate to
    /// be considered.
    pub min_tail: u64,
}

impl Default for CsnOptions {
    fn default() -> Self {
        CsnOptions {
            x_min_cap: 1 << 12,
            min_tail: 50,
        }
    }
}

/// Full CSN fit: scan `x_min` over the observed degrees, fit `α` by
/// exact discrete MLE at each, and keep the `(α, x_min)` minimizing the
/// tail KS distance.
///
/// # Examples
///
/// ```
/// use palu_stats::distributions::{DiscreteDistribution, Zeta};
/// use palu_stats::histogram::DegreeHistogram;
/// use palu_stats::mle::{fit_csn, CsnOptions};
/// use palu_stats::rng::Xoshiro256pp;
/// let zeta = Zeta::new(2.3).unwrap();
/// let mut rng = Xoshiro256pp::seed_from_u64(7);
/// let h: DegreeHistogram = zeta.sample_many(&mut rng, 50_000).into_iter().collect();
/// let fit = fit_csn(&h, &CsnOptions::default()).unwrap();
/// assert!((fit.alpha - 2.3).abs() < 0.1);
/// assert!(fit.ks < 0.02);
/// ```
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] if no candidate cutoff admits a
/// valid fit.
pub fn fit_csn(h: &DegreeHistogram, opts: &CsnOptions) -> Result<PowerLawFit> {
    let mut best: Option<PowerLawFit> = None;
    for (x_min, _) in h.iter().filter(|&(d, _)| d <= opts.x_min_cap) {
        let Ok(fit) = fit_alpha_discrete(h, x_min) else {
            continue;
        };
        if fit.n_tail < opts.min_tail {
            continue;
        }
        if best.as_ref().is_none_or(|b| fit.ks < b.ks) {
            best = Some(fit);
        }
    }
    best.ok_or(StatsError::EmptyInput { routine: "fit_csn" })
}

/// [`fit_csn`] with the deterministic restart ladder:
///
/// 1. **Primary** — the full CSN scan with the given options.
/// 2. **Perturbed** — the scan rerun with the tail-size requirement
///    halved per attempt (degraded data often leaves fewer than
///    `min_tail` observations past the contamination).
/// 3. **Profile** — skip the `x_min` scan entirely and run the 1-D
///    exponent MLE at the smallest observed degree.
/// 4. **Fallback** — OLS log–log regression over the whole histogram.
///
/// # Errors
///
/// Returns the primary rung's error when every rung fails.
pub fn fit_csn_with_restarts(
    h: &DegreeHistogram,
    opts: &CsnOptions,
    policy: &RestartPolicy,
) -> Result<Laddered<PowerLawFit>> {
    let primary_err = match fit_csn(h, opts) {
        Ok(fit) => {
            return Ok(Laddered {
                value: fit,
                rung: Rung::Primary,
                attempts: 1,
            })
        }
        Err(e) => e,
    };
    let mut attempts = 1u32;
    for k in 1..=policy.max_perturbations {
        attempts += 1;
        let relaxed = CsnOptions {
            min_tail: (opts.min_tail >> k).max(2),
            ..*opts
        };
        if relaxed.min_tail >= opts.min_tail {
            continue; // relaxation saturated; nothing new to try
        }
        if let Ok(fit) = fit_csn(h, &relaxed) {
            return Ok(Laddered {
                value: fit,
                rung: Rung::Perturbed,
                attempts,
            });
        }
    }
    attempts += 1;
    if let Some(d0) = h.iter().map(|(d, _)| d).next() {
        if let Ok(fit) = fit_alpha_discrete(h, d0.max(1)) {
            return Ok(Laddered {
                value: fit,
                rung: Rung::Profile,
                attempts,
            });
        }
    }
    attempts += 1;
    match fallback_alpha_ols(h, 1) {
        Ok(fit) => Ok(Laddered {
            value: fit,
            rung: Rung::Fallback,
            attempts,
        }),
        Err(_) => Err(primary_err),
    }
}

/// Draw one sample from the discrete power-law tail
/// `p(d) = d^{−α}/ζ(α, x_min)` for `d ≥ x_min`, by inverse-CDF
/// bisection on the Hurwitz tail (exact; `O(log)` zeta evaluations).
///
/// # Errors
///
/// [`StatsError::Domain`] if `α ≤ 1` (the tail law has no
/// normalizable zeta there).
pub fn sample_tail_zeta<R: Rng + ?Sized>(alpha: f64, x_min: u64, rng: &mut R) -> Result<u64> {
    let z_all = hurwitz_zeta(alpha, x_min as f64)?;
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    // Find smallest d ≥ x_min with P(X ≤ d) ≥ u, i.e.
    // ζ(α, d + 1) ≤ (1 − u)·ζ(α, x_min).
    let target = (1.0 - u) * z_all;
    // Exponential search for an upper bracket.
    let mut hi = x_min.max(1);
    while hurwitz_zeta(alpha, hi as f64 + 1.0)? > target {
        hi = hi.saturating_mul(2);
        if hi > 1 << 40 {
            break; // astronomically deep tail; cap
        }
    }
    let mut lo = (hi / 2).max(x_min);
    if lo >= hi {
        return Ok(x_min);
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if hurwitz_zeta(alpha, mid as f64 + 1.0)? <= target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(lo)
}

/// Result of the CSN semiparametric goodness-of-fit bootstrap.
#[derive(Debug, Clone, PartialEq)]
pub struct GoodnessOfFit {
    /// Fraction of synthetic replicates whose KS distance exceeds the
    /// observed one. CSN's rule of thumb: the power-law hypothesis is
    /// *ruled out* when `p ≤ 0.1`.
    pub p_value: f64,
    /// KS distance of the real data against the fitted model.
    pub observed_ks: f64,
    /// Replicate KS distances (sorted ascending).
    pub replicate_ks: Vec<f64>,
}

/// CSN semiparametric goodness-of-fit test for a fitted power law.
///
/// Each replicate draws `n` observations: with probability
/// `n_tail/n` from the fitted tail law (exact inverse-CDF zeta
/// sampling), otherwise uniformly from the empirical body
/// (`d < x_min`). Each replicate is then *refit* (x_min rescan + MLE)
/// and its tail KS recorded, exactly as Clauset–Shalizi–Newman
/// prescribe, so the p-value accounts for the flexibility of the
/// fitting procedure itself.
///
/// The synthetic replicates are drawn on the calling thread, in order,
/// so `rng` is consumed exactly as a serial draw-and-refit loop
/// consumes it; only the refits run in parallel ([`crate::boot`]). The
/// p-value and replicate distances do not depend on the core count.
///
/// # Errors
///
/// Propagates fitting errors on the original data; replicates that
/// fail to fit are skipped (and reduce the effective replicate count).
pub fn goodness_of_fit<R: Rng + ?Sized>(
    h: &DegreeHistogram,
    opts: &CsnOptions,
    n_boot: usize,
    rng: &mut R,
) -> Result<GoodnessOfFit> {
    let fit = fit_csn(h, opts)?;
    let n = h.total();

    // Empirical body (d < x_min) as a cumulative table for resampling.
    let body: Vec<(u64, u64)> = h.iter().filter(|&(d, _)| d < fit.x_min).collect();
    let body_total: u64 = body.iter().map(|&(_, c)| c).sum();
    let mut body_cum = Vec::with_capacity(body.len());
    let mut acc = 0u64;
    for &(_, c) in &body {
        acc += c;
        body_cum.push(acc);
    }
    let tail_prob = fit.n_tail as f64 / n as f64;

    let draw = |_| {
        let mut boot = DegreeHistogram::new();
        for _ in 0..n {
            let d = if body_total == 0 || rng.gen::<f64>() < tail_prob {
                sample_tail_zeta(fit.alpha, fit.x_min, rng)?
            } else {
                let x = rng.gen_range(0..body_total);
                let idx = body_cum.partition_point(|&c| c <= x);
                body[idx].0
            };
            boot.increment(d, 1);
        }
        Ok(boot)
    };
    let refits = refit_in_order(n_boot, refit_threads(n_boot), draw, |boot| {
        fit_csn(&boot, opts).ok().map(|refit| refit.ks)
    })?;
    let mut replicate_ks: Vec<f64> = refits.into_iter().flatten().collect();
    if replicate_ks.is_empty() {
        return Err(StatsError::EmptyInput {
            routine: "goodness_of_fit",
        });
    }
    let exceed = replicate_ks.iter().filter(|&&k| k >= fit.ks).count();
    let p_value = exceed as f64 / replicate_ks.len() as f64;
    replicate_ks.sort_by(f64::total_cmp);
    Ok(GoodnessOfFit {
        p_value,
        observed_ks: fit.ks,
        replicate_ks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::{DiscreteDistribution, Zeta};
    use crate::rng::Xoshiro256pp;

    fn zeta_sample(alpha: f64, n: usize, seed: u64) -> DegreeHistogram {
        let z = Zeta::new(alpha).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        (0..n).map(|_| z.sample(&mut rng)).collect()
    }

    #[test]
    fn discrete_mle_recovers_exponent_from_x_min_one() {
        for &alpha in &[1.8, 2.2, 2.8] {
            let h = zeta_sample(alpha, 100_000, 1000 + (alpha * 10.0) as u64);
            let fit = fit_alpha_discrete(&h, 1).unwrap();
            assert!(
                (fit.alpha - alpha).abs() < 0.03,
                "alpha {alpha}: fitted {}",
                fit.alpha
            );
            assert!(fit.ks < 0.01);
            assert_eq!(fit.x_min, 1);
            assert!(fit.alpha_std_err > 0.0);
        }
    }

    #[test]
    fn discrete_mle_with_tail_cutoff() {
        // Contaminate small degrees heavily; the tail fit must still
        // recover the exponent when conditioned past the contamination.
        let alpha = 2.5;
        let mut h = zeta_sample(alpha, 200_000, 42);
        h.increment(1, 500_000); // inject a huge d=1 spike (leaf noise)
        let fit = fit_alpha_discrete(&h, 4).unwrap();
        assert!(
            (fit.alpha - alpha).abs() < 0.08,
            "fitted {} (tail n {})",
            fit.alpha,
            fit.n_tail
        );
    }

    #[test]
    fn degenerate_tails_are_rejected() {
        let h = DegreeHistogram::from_counts([(5, 100)]);
        assert!(fit_alpha_discrete(&h, 5).is_err());
        let h = DegreeHistogram::from_counts([(5, 1), (6, 1)]);
        // Two observations is the minimum; should succeed or at least
        // not panic.
        let _ = fit_alpha_discrete(&h, 5);
        let empty = DegreeHistogram::new();
        assert!(fit_alpha_discrete(&empty, 1).is_err());
    }

    #[test]
    fn continuous_estimator_close_but_biased_at_small_xmin() {
        let alpha = 2.5;
        let h = zeta_sample(alpha, 100_000, 7);
        let discrete = fit_alpha_discrete(&h, 1).unwrap().alpha;
        let continuous = fit_alpha_continuous(&h, 1).unwrap();
        // Discrete should be closer to truth than the continuous
        // shortcut at x_min = 1 (CSN Table 3 shows the shortcut's bias).
        assert!(
            (discrete - alpha).abs() <= (continuous - alpha).abs() + 1e-9,
            "discrete {discrete}, continuous {continuous}"
        );
        // At larger x_min the continuous version becomes accurate.
        let cont_tail = fit_alpha_continuous(&h, 10).unwrap();
        assert!((cont_tail - alpha).abs() < 0.15, "cont_tail {cont_tail}");
    }

    #[test]
    fn continuous_estimator_input_validation() {
        let empty = DegreeHistogram::new();
        assert!(fit_alpha_continuous(&empty, 1).is_err());
    }

    #[test]
    fn csn_scan_selects_sensible_cutoff() {
        // Pure zeta data: the scan should pick a small x_min and the
        // true exponent.
        let alpha = 2.2;
        let h = zeta_sample(alpha, 100_000, 99);
        let fit = fit_csn(&h, &CsnOptions::default()).unwrap();
        assert!(fit.x_min <= 4, "x_min {}", fit.x_min);
        assert!((fit.alpha - alpha).abs() < 0.05, "alpha {}", fit.alpha);
    }

    #[test]
    fn csn_scan_skips_past_contamination() {
        // Zeta tail plus a large non-power-law bump at d ∈ {1, 2}:
        // the chosen x_min must move past the bump.
        let alpha = 2.5;
        let mut h = zeta_sample(alpha, 150_000, 123);
        h.increment(1, 400_000);
        h.increment(2, 300_000);
        let fit = fit_csn(
            &h,
            &CsnOptions {
                min_tail: 100,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(fit.x_min >= 3, "x_min {}", fit.x_min);
        assert!((fit.alpha - alpha).abs() < 0.1, "alpha {}", fit.alpha);
    }

    #[test]
    fn csn_errors_on_unusable_data() {
        let h = DegreeHistogram::from_counts([(3, 10)]);
        assert!(fit_csn(&h, &CsnOptions::default()).is_err());
    }

    #[test]
    fn csn_ladder_rungs_on_all_ones_histogram() {
        // Ten degrees with one observation each: far below the default
        // min_tail of 50, so the primary scan fails and the ladder must
        // rescue the fit on a lower rung.
        let h = DegreeHistogram::from_counts((1..=10).map(|d| (d, 1)));
        assert!(fit_csn(&h, &CsnOptions::default()).is_err());
        let ladder =
            fit_csn_with_restarts(&h, &CsnOptions::default(), &RestartPolicy::default()).unwrap();
        assert_ne!(ladder.rung, Rung::Primary);
        assert!(ladder.attempts > 1, "attempts {}", ladder.attempts);
        assert!(ladder.value.alpha.is_finite());
        assert!(ladder.value.alpha >= 1.0);
        // The ladder is deterministic: reruns agree exactly.
        let again =
            fit_csn_with_restarts(&h, &CsnOptions::default(), &RestartPolicy::default()).unwrap();
        assert_eq!(ladder, again);
        // A clean sample stays on the primary rung.
        let clean = zeta_sample(2.2, 50_000, 7);
        let l2 = fit_csn_with_restarts(&clean, &CsnOptions::default(), &RestartPolicy::default())
            .unwrap();
        assert_eq!(l2.rung, Rung::Primary);
        assert_eq!(l2.attempts, 1);
    }

    #[test]
    fn alpha_ladder_primary_and_degenerate_paths() {
        // Ten distinct degrees: the primary MLE works outright.
        let h = DegreeHistogram::from_counts((1..=10).map(|d| (d, 1)));
        let a = fit_alpha_discrete_with_restarts(&h, 1, &RestartPolicy::default()).unwrap();
        assert_eq!(a.rung, Rung::Primary);
        assert_eq!(a.attempts, 1);
        // A tail concentrated on one degree defeats every rung; the
        // primary error surfaces.
        let single = DegreeHistogram::from_counts([(5, 100)]);
        let err = fit_alpha_discrete_with_restarts(&single, 5, &RestartPolicy::default());
        assert!(err.is_err());
    }

    #[test]
    fn goodness_of_fit_errors_on_empty_tail() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let empty = DegreeHistogram::new();
        assert!(goodness_of_fit(&empty, &CsnOptions::default(), 10, &mut rng).is_err());
        // A tail concentrated on one degree is equally unusable.
        let single = DegreeHistogram::from_counts([(7, 500)]);
        assert!(goodness_of_fit(&single, &CsnOptions::default(), 10, &mut rng).is_err());
    }

    #[test]
    fn tail_zeta_sampler_matches_pmf() {
        let alpha = 2.3;
        let x_min = 5u64;
        let mut rng = Xoshiro256pp::seed_from_u64(2024);
        let n = 100_000usize;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            let d = sample_tail_zeta(alpha, x_min, &mut rng).unwrap();
            assert!(d >= x_min);
            *counts.entry(d).or_insert(0u64) += 1;
        }
        let z = hurwitz_zeta(alpha, x_min as f64).unwrap();
        for d in x_min..x_min + 5 {
            let p = (d as f64).powf(-alpha) / z;
            let expected = p * n as f64;
            let se = (n as f64 * p * (1.0 - p)).sqrt();
            let obs = *counts.get(&d).unwrap_or(&0) as f64;
            assert!(
                (obs - expected).abs() < 5.0 * se,
                "d={d}: obs {obs} expected {expected}"
            );
        }
    }

    #[test]
    fn goodness_of_fit_accepts_true_power_law() {
        // Data truly drawn from a zeta law: p-value should be large.
        let h = zeta_sample(2.2, 30_000, 37);
        let mut rng = Xoshiro256pp::seed_from_u64(38);
        let gof = goodness_of_fit(&h, &CsnOptions::default(), 50, &mut rng).unwrap();
        // Under H0 the p-value is ~uniform, so any single run can land
        // low by chance; what must NOT happen is a *strong* rejection
        // (contrast with the Poisson test below, where p ≈ 0).
        assert!(
            gof.p_value > 0.02,
            "true power law strongly rejected: p = {} (observed KS {})",
            gof.p_value,
            gof.observed_ks
        );
        assert!(!gof.replicate_ks.is_empty());
    }

    #[test]
    fn goodness_of_fit_rejects_poisson_data() {
        // Poisson(8) data is emphatically not a power law anywhere.
        use crate::distributions::Poisson;
        let pois = Poisson::new(8.0).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(33);
        let h: DegreeHistogram = (0..30_000).map(|_| pois.sample(&mut rng).max(1)).collect();
        let gof = goodness_of_fit(
            &h,
            &CsnOptions {
                min_tail: 100,
                ..Default::default()
            },
            30,
            &mut rng,
        )
        .unwrap();
        assert!(
            gof.p_value <= 0.1,
            "Poisson data accepted as power law: p = {}",
            gof.p_value
        );
    }

    #[test]
    fn tail_cdf_is_a_distribution() {
        let h = zeta_sample(2.0, 50_000, 5);
        let fit = fit_alpha_discrete(&h, 2).unwrap();
        assert_eq!(fit.tail_cdf(1), 0.0);
        let mut prev = 0.0;
        for d in 2..200 {
            let c = fit.tail_cdf(d);
            assert!(c >= prev - 1e-12);
            assert!(c <= 1.0 + 1e-12);
            prev = c;
        }
        assert!(fit.tail_cdf(1_000_000) > 0.999);
    }
}
