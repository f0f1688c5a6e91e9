//! The Section IV-B parameter-estimation pipeline.
//!
//! From an observed degree distribution the paper fits the simplified
//! constants in four steps:
//!
//! (a) **Tail regression** — Equation (4): a log-log plot of the
//!     degree frequencies at large `d` is linear with slope `−α` and
//!     intercept `log c`.
//! (b) **Poisson scale** — subtract `c·d^{−α}` and form the moment
//!     ratio of the residuals; numerically solve
//!     `R = x + x²/(eˣ − x − 1)` for `x = λp` (the paper's more
//!     robust alternative to point-wise estimates).
//! (c) **Star amplitude** — the residual sum equals
//!     `u·(eˣ − 1 − x)`.
//! (d) **Leaf mass** — solve Equation (2) at `d = 1` exactly.
//!
//! With the window `p` known, [`SimplifiedParams::to_underlying`]
//! completes the recovery of the window-invariant `(C, L, U, λ, α)`.

use crate::simplified::SimplifiedParams;
use palu_stats::boot::{refit_in_order, refit_threads};
use palu_stats::error::StatsError;
use palu_stats::histogram::DegreeHistogram;
use palu_stats::regression::weighted_ols;
use palu_stats::rng::Rng;
use palu_stats::solve::brent;

/// How step (b) estimates the Poisson scale `x = λp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LambdaMethod {
    /// The paper's recommended moment-ratio estimator (lower
    /// variance).
    Ratio,
    /// Point-wise estimates from consecutive residual ratios
    /// `x ≈ (d+1)·r(d+1)/r(d)`, averaged (the paper's strawman).
    Pointwise,
}

/// Options for the estimator.
#[derive(Debug, Clone, Copy)]
pub struct EstimateOptions {
    /// Smallest degree included in the tail regression (paper: the
    /// `d ≥ 10` regime of Equation 4).
    pub tail_min_degree: u64,
    /// Largest degree included in the tail regression (degrees beyond
    /// this are supernode territory with count ~1 and huge variance).
    pub tail_max_degree: u64,
    /// Minimum observation count for a log bin to enter the tail
    /// regression (bins with fewer carry too much log-variance).
    pub min_count: u64,
    /// Largest degree included in the residual (Poisson) sums.
    pub residual_max_degree: u64,
    /// Step (b) estimator.
    pub lambda_method: LambdaMethod,
    /// Residual mass below which the star population is declared
    /// absent (absorbs histogram-rounding noise on pure power laws).
    pub min_residual_mass: f64,
}

impl Default for EstimateOptions {
    fn default() -> Self {
        EstimateOptions {
            tail_min_degree: 10,
            tail_max_degree: 4096,
            min_count: 3,
            residual_max_degree: 64,
            lambda_method: LambdaMethod::Ratio,
            min_residual_mass: 1e-6,
        }
    }
}

/// Result of the estimation pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamEstimate {
    /// The fitted simplified constants.
    pub simplified: SimplifiedParams,
    /// `R²` of the tail regression (step a).
    pub tail_r_squared: f64,
    /// Number of degree points used in the tail regression.
    pub tail_points: usize,
    /// Total residual mass attributed to the star population (step c
    /// numerator).
    pub residual_mass: f64,
}

/// The Section IV-B estimator.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaluEstimator {
    /// Tuning options.
    pub options: EstimateOptions,
}

impl PaluEstimator {
    /// Estimator with explicit options.
    pub fn new(options: EstimateOptions) -> Self {
        PaluEstimator { options }
    }

    /// Run the pipeline on an observed degree histogram.
    ///
    /// # Examples
    ///
    /// ```
    /// use palu::estimate::PaluEstimator;
    /// use palu::params::PaluParams;
    /// use palu::analytic::ObservedPrediction;
    /// use palu_stats::histogram::DegreeHistogram;
    /// // Noise-free data straight from the model's degree law.
    /// let params = PaluParams::from_core_leaf_fractions(0.5, 0.2, 3.0, 2.0, 0.5).unwrap();
    /// let pred = ObservedPrediction::new(&params).unwrap();
    /// let mut h = DegreeHistogram::new();
    /// for d in 1..=(1u64 << 13) {
    ///     let count = (pred.degree_fraction(d) * 1e8).round() as u64;
    ///     h.increment(d, count);
    /// }
    /// let est = PaluEstimator::default().estimate(&h).unwrap();
    /// assert!((est.simplified.alpha - 2.0).abs() < 0.1);
    /// assert!((est.simplified.lambda_p() - 1.5).abs() < 0.2); // λp = 3·0.5
    /// ```
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptyInput`] if the histogram has no usable tail
    /// (fewer than 3 regression points).
    pub fn estimate(&self, h: &DegreeHistogram) -> Result<ParamEstimate, StatsError> {
        let total = h.total() as f64;
        if h.is_empty() {
            return Err(StatsError::EmptyInput {
                routine: "PaluEstimator::estimate",
            });
        }
        let o = &self.options;

        // The tail regression and the star-residual extraction are
        // mutually coupled: Poisson mass leaking into the lower tail
        // biases (α, c), and a biased (α, c) distorts the residuals.
        // Three alternating passes decouple them — pass 1 fits the raw
        // tail, later passes refit after subtracting the current star
        // estimate.
        const REFINEMENT_PASSES: usize = 3;
        let mut alpha = 0.0f64;
        let mut c = 0.0f64;
        let mut x = 0.0f64;
        let mut u = 0.0f64;
        let mut reg_r_squared = 0.0f64;
        let mut tail_points = 0usize;
        let mut s0 = 0.0f64;

        for _pass in 0..REFINEMENT_PASSES {
            // ---- (a) tail regression: log f'(d) = −α log d + log c,
            // where f' subtracts the current star-term estimate ----
            let star = |d: u64| -> f64 {
                if u > 0.0 && x > 0.0 {
                    // x > 0.0 by the branch guard above. lint:allow(R3)
                    u * (d as f64 * x.ln() - palu_stats::special::ln_factorial(d)).exp()
                } else {
                    0.0
                }
            };
            // Regress on LOG-BINNED tail densities rather than
            // per-degree frequencies. Per-degree points need a
            // min-count filter (count-1 far-tail degrees carry huge
            // log-variance), but any such filter selects
            // upward-fluctuated bins and flattens the fitted slope —
            // an effect that compounds catastrophically under
            // bootstrap resampling. Binary log bins are fixed in
            // advance, aggregate hundreds of observations each, and
            // estimate the density c·d^{−α} at the bin's geometric
            // midpoint without any data-dependent selection.
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            let mut ws = Vec::new();
            let first_bin = palu_stats::logbin::LogBins::bin_index(o.tail_min_degree);
            let last_bin = palu_stats::logbin::LogBins::bin_index(o.tail_max_degree);
            for i in first_bin..=last_bin {
                let lo = palu_stats::logbin::LogBins::lower_bound_exclusive(i) + 1;
                let hi = palu_stats::logbin::LogBins::upper_bound(i);
                // Trim the bin to the configured tail window.
                let lo = lo.max(o.tail_min_degree);
                let hi = hi.min(o.tail_max_degree);
                if lo > hi {
                    continue;
                }
                let mut count = 0u64;
                let mut star_mass = 0.0f64;
                for (d, c) in h.iter() {
                    if d < lo || d > hi {
                        continue;
                    }
                    count += c;
                    star_mass += star(d);
                }
                if count < o.min_count {
                    continue;
                }
                let width = (hi - lo + 1) as f64;
                let density = (count as f64 / total - star_mass) / width;
                if density <= 0.0 {
                    continue;
                }
                // The bin-average density of c·d^{−α} equals the
                // density at the *effective* abscissa
                // m = (Σ d^{−α}/width)^{−1/α}, not at the geometric
                // midpoint (Jensen bias ≈ 2% per octave bin, which
                // shifts the fitted c systematically). Pass 1 has no
                // α yet and uses the geometric midpoint; later passes
                // use the current α.
                let midpoint = if alpha > 1.0 {
                    let hsum: f64 = (lo..=hi).map(|d| (d as f64).powf(-alpha)).sum();
                    (hsum / width).powf(-1.0 / alpha)
                } else {
                    // Bin edges are degrees, lo >= 1. lint:allow(R3)
                    ((lo as f64) * (hi as f64)).sqrt()
                };
                // Midpoint is a mean of degrees >= 1; density > 0 for
                // occupied bins (zero-count bins were skipped). lint:allow(R3)
                xs.push(midpoint.ln());
                ys.push(density.ln()); // see above. lint:allow(R3)
                ws.push(count as f64);
            }
            if xs.len() < 3 {
                return Err(StatsError::EmptyInput {
                    routine: "PaluEstimator::estimate (tail)",
                });
            }
            let reg = weighted_ols(&xs, &ys, &ws)?;
            alpha = -reg.slope;
            c = reg.intercept.exp();
            reg_r_squared = reg.r_squared;
            tail_points = xs.len();

            // ---- (b) Poisson scale from residual moments ----
            s0 = 0.0;
            let mut s1 = 0.0f64;
            let mut residuals: Vec<(u64, f64)> = Vec::new();
            // Adaptive residual window: once a Poisson scale estimate
            // exists, sum only over the bump's support
            // (x + 5√x + 3 covers it to ~1e-6); degrees beyond carry
            // no star signal, only core-misfit leakage and noise.
            let res_max = if x > 0.0 {
                o.residual_max_degree
                    // x > 0.0 by the branch guard above. lint:allow(R3)
                    .min(((x + 5.0 * x.sqrt() + 3.0).ceil() as u64).max(8))
            } else {
                o.residual_max_degree
            };
            for (d, cnt) in h.iter() {
                if d < 2 || d > res_max {
                    continue;
                }
                let f = cnt as f64 / total;
                // UNCLAMPED residuals: rectifying per-degree noise with
                // .max(0) would bias the d-weighted moment upward
                // (positive-only fluctuations at large d carry large
                // weight); signed residuals let the noise cancel.
                let r = f - c * (d as f64).powf(-alpha);
                s0 += r;
                s1 += d as f64 * r;
                if r > 0.0 {
                    residuals.push((d, r));
                }
            }

            if s0 <= o.min_residual_mass || residuals.len() < 2 {
                // No detectable star population; nothing to refine.
                x = 0.0;
                u = 0.0;
                break;
            }
            x = match o.lambda_method {
                LambdaMethod::Ratio => {
                    let ratio = s1 / s0;
                    // R(x) ∈ (2, ∞); ratio ≤ 2 means x → 0 within noise.
                    if ratio <= 2.0 + 1e-9 {
                        0.0
                    } else {
                        brent(
                            |x| SimplifiedParams::moment_ratio(x) - ratio,
                            1e-6,
                            60.0,
                            1e-10,
                            300,
                        )?
                    }
                }
                LambdaMethod::Pointwise => {
                    // x ≈ (d+1)·r(d+1)/r(d) for consecutive residuals.
                    // Pairs where either residual is within noise of
                    // zero produce wild ratios — keep only pairs well
                    // above the floor (this is exactly the fragility
                    // the paper's ratio estimator was designed to
                    // avoid).
                    let floor = residuals.iter().map(|&(_, r)| r).fold(0.0f64, f64::max) * 1e-3;
                    let mut estimates = Vec::new();
                    for w in residuals.windows(2) {
                        let (d0, r0) = w[0];
                        let (d1, r1) = w[1];
                        if d1 == d0 + 1 && r0 > floor && r1 > floor {
                            estimates.push(d1 as f64 * r1 / r0);
                        }
                    }
                    if estimates.is_empty() {
                        0.0
                    } else {
                        estimates.iter().sum::<f64>() / estimates.len() as f64
                    }
                }
            };
            // A near-zero x means the bump is indistinguishable from
            // core-misfit leakage: u = s0/(eˣ−1−x) diverges as x → 0,
            // so report "no detectable star population" instead of an
            // absurd amplitude.
            if x < 0.05 {
                x = 0.0;
            }
            u = if x > 0.0 {
                s0 / (x.exp() - 1.0 - x)
            } else {
                0.0
            };
        }

        // ---- (d) leaf mass from Equation (2) ----
        let f1 = h.probability(1);
        let unattached_d1 = u * x * (1.0 + x.exp());
        let l = (f1 - c - unattached_d1).max(0.0);

        Ok(ParamEstimate {
            simplified: SimplifiedParams::from_raw(c, l, u, std::f64::consts::E * x, alpha),
            tail_r_squared: reg_r_squared,
            tail_points,
            residual_mass: s0,
        })
    }

    /// Run the pipeline and, knowing the window `p`, recover the
    /// window-invariant underlying parameters.
    ///
    /// Uses the paper's formulas end-to-end (amplitude convention
    /// `Paper`). For data produced by *actual* edge sampling — real
    /// traffic or simulation — prefer
    /// [`PaluEstimator::estimate_exact`], which replaces the paper's
    /// leading-order core terms with the exact Binomial-thinning pmf.
    ///
    /// # Errors
    ///
    /// Propagates [`PaluEstimator::estimate`] and
    /// [`SimplifiedParams::to_underlying`] errors — the latter fires
    /// when the fitted constants leave the model's valid region (a
    /// diagnostic that the data is not PALU-like).
    pub fn estimate_underlying(
        &self,
        h: &DegreeHistogram,
        p: f64,
    ) -> Result<(ParamEstimate, crate::params::PaluParams), StatsError> {
        let est = self.estimate(h)?;
        let underlying = est.simplified.to_underlying(p)?;
        Ok((est, underlying))
    }

    /// Exact-thinning variant of the pipeline for simulated or real
    /// edge-sampled data with known window `p`.
    ///
    /// Differences from the paper pipeline:
    ///
    /// 1. the tail amplitude is inverted with the `Thinned` convention
    ///    `c = (C/V)·p^{α−1}/ζ(α)` (see
    ///    [`crate::simplified::AmplitudeConvention`]);
    /// 2. the core contribution subtracted from the small-`d`
    ///    residuals — and from the `d = 1` equation — is the exact
    ///    [`crate::analytic::thinned_core_pmf`], not `c·d^{−α}`;
    ///    thinning piles substantial extra core mass onto small
    ///    degrees, which the paper's form misattributes to leaves.
    ///
    /// # Errors
    ///
    /// As [`PaluEstimator::estimate_underlying`].
    pub fn estimate_exact(
        &self,
        h: &DegreeHistogram,
        p: f64,
    ) -> Result<(ParamEstimate, crate::params::PaluParams), StatsError> {
        use crate::analytic::thinned_core_pmf;
        use crate::simplified::AmplitudeConvention;
        use palu_stats::special::riemann_zeta;

        if !(0.0 < p && p <= 1.0) {
            return Err(StatsError::domain(
                "PaluEstimator::estimate_exact",
                format!("p must be in (0, 1], got {p}"),
            ));
        }
        // Stage 1: the paper pipeline supplies (α, c) from the tail
        // (the tail is where its form is asymptotically exact).
        let est = self.estimate(h)?;
        let alpha = est.simplified.alpha;
        let c = est.simplified.c;
        let zeta_alpha = riemann_zeta(alpha)?;
        // Thinned inversion of the amplitude.
        let c_over_v = c * zeta_alpha / p.powf(alpha - 1.0);

        // Stage 2: redo the residual extraction with the exact core.
        // Two passes: the first uses the configured window; the second
        // narrows to the detected Poisson bump's support (see the
        // matching comment in `estimate`).
        let total = h.total() as f64;
        let o = &self.options;
        let mut x = 0.0f64;
        let mut u = 0.0f64;
        let mut s0 = 0.0f64;
        for _pass in 0..2 {
            let res_max = if x > 0.0 {
                // Floor of 16 so an underestimated first-pass x cannot
                // trap the window below the true bump's support.
                o.residual_max_degree
                    // x > 0.0 by the branch guard above. lint:allow(R3)
                    .min(((x + 5.0 * x.sqrt() + 3.0).ceil() as u64).max(16))
            } else {
                // First pass: short window (see `estimate`).
                o.residual_max_degree.min(16)
            };
            s0 = 0.0;
            let mut s1 = 0.0f64;
            for (d, cnt) in h.iter() {
                if d < 2 || d > res_max {
                    continue;
                }
                let f = cnt as f64 / total;
                let core = c_over_v * thinned_core_pmf(alpha, p, d)?;
                // Signed residuals — clamping would rectify tail noise
                // into a large upward bias on the moment ratio.
                s0 += f - core;
                s1 += d as f64 * (f - core);
            }
            if s0 <= o.min_residual_mass {
                x = 0.0;
                u = 0.0;
                break;
            }
            let ratio = s1 / s0;
            x = if ratio <= 2.0 + 1e-9 {
                0.0
            } else {
                brent(
                    |x| SimplifiedParams::moment_ratio(x) - ratio,
                    1e-6,
                    60.0,
                    1e-10,
                    300,
                )?
            };
            // A near-zero x means the bump is indistinguishable from
            // core-misfit leakage: u = s0/(eˣ−1−x) diverges as x → 0,
            // so report "no detectable star population" instead of an
            // absurd amplitude.
            if x < 0.05 {
                x = 0.0;
            }
            u = if x > 0.0 {
                s0 / (x.exp() - 1.0 - x)
            } else {
                0.0
            };
        }

        // Stage 3: exact d = 1 equation.
        let f1 = h.probability(1);
        let core_d1 = c_over_v * thinned_core_pmf(alpha, p, 1)?;
        let unattached_d1 = u * x * (1.0 + x.exp());
        let l = (f1 - core_d1 - unattached_d1).max(0.0);

        let simplified = SimplifiedParams::from_raw(c, l, u, std::f64::consts::E * x, alpha);
        let underlying = simplified.to_underlying_with(p, AmplitudeConvention::Thinned)?;
        Ok((
            ParamEstimate {
                simplified,
                residual_mass: s0,
                ..est
            },
            underlying,
        ))
    }
}

/// Percentile bootstrap confidence intervals for the Section IV-B
/// estimates: the sampling variability of `(α, λp, c, u, l)` under
/// multinomial resampling of the observed histogram. The paper reports
/// point estimates only; a production tool needs to say how firm they
/// are (the star-side parameters carry substantially more variance
/// than α — see E-A3).
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateBootstrap {
    /// Point estimate on the original data.
    pub point: ParamEstimate,
    /// `(lo, hi)` percentile interval for `α`.
    pub alpha_ci: (f64, f64),
    /// `(lo, hi)` percentile interval for `λp`.
    pub lambda_p_ci: (f64, f64),
    /// `(lo, hi)` percentile interval for the leaf mass `l`.
    pub l_ci: (f64, f64),
    /// Number of successfully refit replicates.
    pub replicates: usize,
}

impl PaluEstimator {
    /// Bootstrap the pipeline: `n_boot` multinomial resamples, refit
    /// each, percentile intervals at confidence `level` (e.g. 0.9).
    ///
    /// The resamples are drawn on the calling thread, in order, so
    /// `rng` is consumed exactly as a serial resample-and-refit loop
    /// consumes it; only the refits run in parallel
    /// ([`palu_stats::boot`]). The output does not depend on the core
    /// count.
    ///
    /// # Errors
    ///
    /// Propagates the point estimate's errors; [`StatsError::Domain`]
    /// for an invalid level or `n_boot < 10`;
    /// [`StatsError::NoConvergence`] if more than half the replicates
    /// fail to fit.
    pub fn estimate_bootstrap<R: Rng + ?Sized>(
        &self,
        h: &DegreeHistogram,
        n_boot: usize,
        level: f64,
        rng: &mut R,
    ) -> Result<EstimateBootstrap, StatsError> {
        if !(0.5..1.0).contains(&level) {
            return Err(StatsError::domain(
                "PaluEstimator::estimate_bootstrap",
                format!("confidence level must be in [0.5, 1), got {level}"),
            ));
        }
        if n_boot < 10 {
            return Err(StatsError::domain(
                "PaluEstimator::estimate_bootstrap",
                "need at least 10 bootstrap replicates",
            ));
        }
        let point = self.estimate(h)?;
        let estimates = refit_in_order(
            n_boot,
            refit_threads(n_boot),
            |_| Ok::<_, StatsError>(h.resample(rng)),
            |boot| self.estimate(&boot).ok().map(|est| est.simplified),
        )?;
        let mut alphas = Vec::with_capacity(n_boot);
        let mut lambda_ps = Vec::with_capacity(n_boot);
        let mut ls = Vec::with_capacity(n_boot);
        for s in estimates.into_iter().flatten() {
            alphas.push(s.alpha);
            lambda_ps.push(s.lambda_p());
            ls.push(s.l);
        }
        if alphas.len() < n_boot / 2 {
            return Err(StatsError::NoConvergence {
                routine: "PaluEstimator::estimate_bootstrap",
                iterations: n_boot,
                residual: alphas.len() as f64,
            });
        }
        let tail = (1.0 - level) / 2.0;
        let ci = |values: &mut Vec<f64>| {
            values.sort_by(f64::total_cmp);
            let q = |p: f64| values[((values.len() - 1) as f64 * p).round() as usize];
            (q(tail), q(1.0 - tail))
        };
        Ok(EstimateBootstrap {
            point,
            alpha_ci: ci(&mut alphas),
            lambda_p_ci: ci(&mut lambda_ps),
            l_ci: ci(&mut ls),
            replicates: lambda_ps.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::ObservedPrediction;
    use crate::params::PaluParams;
    use palu_stats::rng::Xoshiro256pp;

    /// Build a synthetic "observed histogram" directly from the
    /// analytic model (noise-free): the estimator must recover the
    /// constants almost exactly.
    fn analytic_histogram(params: &PaluParams, n: u64, d_max: u64) -> DegreeHistogram {
        let pred = ObservedPrediction::new(params).unwrap();
        let mut h = DegreeHistogram::new();
        for d in 1..=d_max {
            let count = (pred.degree_fraction(d) * n as f64).round() as u64;
            if count > 0 {
                h.increment(d, count);
            }
        }
        h
    }

    fn test_params() -> PaluParams {
        PaluParams::from_core_leaf_fractions(0.5, 0.2, 3.0, 2.0, 0.5).unwrap()
    }

    #[test]
    fn recovers_constants_from_noise_free_data() {
        let params = test_params();
        let h = analytic_histogram(&params, 100_000_000, 1 << 14);
        let truth = SimplifiedParams::from_params(&params).unwrap();
        let est = PaluEstimator::default().estimate(&h).unwrap();
        let s = est.simplified;
        assert!(
            (s.alpha - truth.alpha).abs() < 0.05,
            "α: {} vs {}",
            s.alpha,
            truth.alpha
        );
        assert!(
            ((s.c - truth.c) / truth.c).abs() < 0.1,
            "c: {} vs {}",
            s.c,
            truth.c
        );
        assert!(
            ((s.lambda_p() - truth.lambda_p()) / truth.lambda_p()).abs() < 0.1,
            "λp: {} vs {}",
            s.lambda_p(),
            truth.lambda_p()
        );
        assert!(
            ((s.u - truth.u) / truth.u).abs() < 0.25,
            "u: {} vs {}",
            s.u,
            truth.u
        );
        assert!(
            ((s.l - truth.l) / truth.l).abs() < 0.15,
            "l: {} vs {}",
            s.l,
            truth.l
        );
        assert!(est.tail_r_squared > 0.999);
        assert!(est.tail_points >= 6, "bins used: {}", est.tail_points);
    }

    #[test]
    fn recovers_underlying_parameters() {
        let params = test_params();
        let h = analytic_histogram(&params, 100_000_000, 1 << 14);
        let (_, rec) = PaluEstimator::default()
            .estimate_underlying(&h, params.p)
            .unwrap();
        assert!((rec.core - params.core).abs() < 0.05, "C {}", rec.core);
        assert!(
            (rec.leaves - params.leaves).abs() < 0.05,
            "L {}",
            rec.leaves
        );
        assert!(
            (rec.unattached - params.unattached).abs() < 0.05,
            "U {}",
            rec.unattached
        );
        assert!((rec.lambda - params.lambda).abs() < 0.4, "λ {}", rec.lambda);
    }

    #[test]
    fn pointwise_method_works_but_ratio_is_preferred() {
        let params = test_params();
        let h = analytic_histogram(&params, 100_000_000, 1 << 14);
        let truth_x = params.lambda * params.p;
        let ratio = PaluEstimator::default().estimate(&h).unwrap();
        let pointwise = PaluEstimator::new(EstimateOptions {
            lambda_method: LambdaMethod::Pointwise,
            ..Default::default()
        })
        .estimate(&h)
        .unwrap();
        // Both land near the truth on clean data.
        assert!((ratio.simplified.lambda_p() - truth_x).abs() < 0.2);
        assert!((pointwise.simplified.lambda_p() - truth_x).abs() < 0.5);
    }

    #[test]
    fn pure_power_law_yields_zero_star_mass() {
        // A histogram with no Poisson bump: u and Λ must come out 0.
        let mut h = DegreeHistogram::new();
        let alpha = 2.0f64;
        for d in 1..=5000u64 {
            let count = (1e8 * (d as f64).powf(-alpha)).round() as u64;
            if count > 0 {
                h.increment(d, count);
            }
        }
        let est = PaluEstimator::default().estimate(&h).unwrap();
        assert!((est.simplified.alpha - alpha).abs() < 0.05);
        assert!(est.simplified.u < 1e-6, "u = {}", est.simplified.u);
        // Rounding noise may produce a meaningless Λ, but the star
        // *mass* it explains must be negligible.
        assert!(
            est.residual_mass < 1e-4,
            "residual mass {}",
            est.residual_mass
        );
        // And l absorbs nothing (f(1) ≈ c).
        assert!(est.simplified.l < 0.05);
    }

    #[test]
    fn empty_and_thin_histograms_error() {
        assert!(PaluEstimator::default()
            .estimate(&DegreeHistogram::new())
            .is_err());
        // Only two tail points: not enough.
        let h = DegreeHistogram::from_counts([(10, 100), (20, 25), (1, 1000)]);
        assert!(PaluEstimator::default().estimate(&h).is_err());
    }

    #[test]
    fn estimate_from_simulated_network() {
        // End-to-end: generate a PALU network, observe it, estimate.
        use palu_graph::sample::ObservedNetwork;
        use palu_stats::rng::Xoshiro256pp;
        let params = PaluParams::from_core_leaf_fractions(0.55, 0.15, 4.0, 2.0, 0.6).unwrap();
        let gen = params.generator(300_000).unwrap();
        let net = gen.generate(&mut Xoshiro256pp::seed_from_u64(7));
        let obs = ObservedNetwork::observe(&net, params.p, &mut Xoshiro256pp::seed_from_u64(8));
        let h = obs.degree_histogram();
        let est = PaluEstimator::default().estimate(&h).unwrap();
        // The realized (erased-configuration) core steepens α a bit;
        // accept a generous band and check λp more tightly, since the
        // star section is generated exactly.
        assert!(
            (est.simplified.alpha - 2.0).abs() < 0.35,
            "α {}",
            est.simplified.alpha
        );
        let truth_x = params.lambda * params.p;
        assert!(
            (est.simplified.lambda_p() - truth_x).abs() < 0.7,
            "λp {} vs {truth_x}",
            est.simplified.lambda_p()
        );
    }

    #[test]
    fn exact_pipeline_recovers_simulated_invariants() {
        // The exact-thinning pipeline must recover the underlying
        // parameters from a genuinely edge-sampled network — including
        // the leaf proportion the paper pipeline misattributes.
        use palu_graph::sample::ObservedNetwork;
        use palu_stats::rng::Xoshiro256pp;
        let params = PaluParams::from_core_leaf_fractions(0.5, 0.2, 3.0, 2.0, 0.6).unwrap();
        let gen = params.generator(400_000).unwrap();
        let net = gen.generate(&mut Xoshiro256pp::seed_from_u64(17));
        let obs = ObservedNetwork::observe(&net, params.p, &mut Xoshiro256pp::seed_from_u64(18));
        let h = obs.degree_histogram();
        let (_, rec) = PaluEstimator::default()
            .estimate_exact(&h, params.p)
            .unwrap();
        assert!((rec.lambda - 3.0).abs() < 0.6, "λ {}", rec.lambda);
        assert!((rec.alpha - 2.0).abs() < 0.3, "α {}", rec.alpha);
        assert!((rec.core - 0.5).abs() < 0.15, "C {}", rec.core);
        assert!((rec.leaves - 0.2).abs() < 0.1, "L {}", rec.leaves);
        assert!(
            (rec.unattached - params.unattached).abs() < 0.05,
            "U {} vs {}",
            rec.unattached,
            params.unattached
        );
    }

    #[test]
    fn bootstrap_intervals_cover_and_order() {
        use palu_graph::sample::ObservedNetwork;
        use palu_stats::rng::Xoshiro256pp;
        let params = PaluParams::from_core_leaf_fractions(0.5, 0.2, 3.0, 2.0, 0.5).unwrap();
        let net = params
            .generator(150_000)
            .unwrap()
            .generate(&mut Xoshiro256pp::seed_from_u64(3));
        let obs = ObservedNetwork::observe(&net, params.p, &mut Xoshiro256pp::seed_from_u64(4));
        let h = obs.degree_histogram();
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let boot = PaluEstimator::default()
            .estimate_bootstrap(&h, 20, 0.9, &mut rng)
            .unwrap();
        // Intervals are ordered and sit near the point estimate. (A
        // percentile bootstrap need not *contain* the point estimate:
        // resampling Poisson-thins borderline tail bins out of the
        // min_count filter, which shifts the replicate fits slightly.)
        assert!(boot.alpha_ci.0 <= boot.alpha_ci.1);
        assert!(
            boot.alpha_ci.0 - 0.15 <= boot.point.simplified.alpha
                && boot.point.simplified.alpha <= boot.alpha_ci.1 + 0.15,
            "α CI {:?} far from point {}",
            boot.alpha_ci,
            boot.point.simplified.alpha
        );
        assert!(boot.lambda_p_ci.0 <= boot.lambda_p_ci.1);
        assert!(boot.l_ci.0 <= boot.l_ci.1);
        assert!(boot.replicates >= 10);
        // λp variance dominates α variance, relatively (the E-A3
        // observation).
        let rel = |ci: (f64, f64), v: f64| (ci.1 - ci.0) / v.max(1e-9);
        assert!(
            rel(boot.lambda_p_ci, boot.point.simplified.lambda_p())
                > rel(boot.alpha_ci, boot.point.simplified.alpha)
        );
    }

    #[test]
    fn bootstrap_validates_inputs() {
        let h = DegreeHistogram::from_counts([(1, 100), (10, 30), (20, 10), (40, 3)]);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        assert!(PaluEstimator::default()
            .estimate_bootstrap(&h, 5, 0.9, &mut rng)
            .is_err());
        assert!(PaluEstimator::default()
            .estimate_bootstrap(&h, 20, 0.2, &mut rng)
            .is_err());
    }

    #[test]
    fn estimate_exact_validates_p() {
        let h = DegreeHistogram::from_counts([(1, 100), (10, 30), (20, 10), (40, 3)]);
        assert!(PaluEstimator::default().estimate_exact(&h, 0.0).is_err());
        assert!(PaluEstimator::default().estimate_exact(&h, 1.5).is_err());
    }
}
