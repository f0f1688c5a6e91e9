//! Fitting the modified Zipf–Mandelbrot model to pooled observations.
//!
//! The paper selects `(α, δ)` by "minimizing the differences between
//! the observed differential cumulative distributions" — a least-
//! squares match in the pooled `D(d_i)` representation. The fitter
//! runs a coarse global grid over `(α, δ)` followed by Nelder–Mead
//! refinement with an infinity barrier outside the valid region.
//! Ablation objectives (weighted, log-space, pooled-KS) quantify how
//! much the objective choice matters (design-choice #3 in DESIGN.md).

use crate::zm::ZipfMandelbrot;
use palu_stats::boot::{refit_in_order, refit_threads};
use palu_stats::error::StatsError;
use palu_stats::logbin::DifferentialCumulative;
use palu_stats::optimize::{grid_search_2d, nelder_mead, NelderMeadOptions};
use palu_stats::rng::Rng;

/// Objective used to compare model and observation in pooled space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitObjective {
    /// Sum of squared per-bin differences (the paper's choice).
    LeastSquares,
    /// Squared differences weighted per-bin (e.g. inverse variance of
    /// the multi-window `σ(d_i)`).
    WeightedLeastSquares,
    /// Squared differences of log-bin-values (emphasizes the tail the
    /// way a log-log plot does).
    LogSpace,
    /// Maximum absolute per-bin difference.
    PooledKs,
}

/// A completed Zipf–Mandelbrot fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZmFit {
    /// Fitted exponent.
    pub alpha: f64,
    /// Fitted offset.
    pub delta: f64,
    /// Final objective value.
    pub objective: f64,
    /// Support bound used for normalization.
    pub d_max: u64,
    /// Objective evaluations consumed.
    pub evals: usize,
}

impl ZmFit {
    /// Instantiate the fitted model.
    ///
    /// # Errors
    ///
    /// Propagates [`ZipfMandelbrot::new`] validation (cannot fail for
    /// values produced by the fitter).
    pub fn model(&self) -> Result<ZipfMandelbrot, StatsError> {
        ZipfMandelbrot::new(self.alpha, self.delta, self.d_max)
    }
}

/// Configuration for the fitter.
#[derive(Debug, Clone, Copy)]
pub struct ZmFitter {
    /// Objective to minimize.
    pub objective: FitObjective,
    /// Search box for `α`.
    pub alpha_range: (f64, f64),
    /// Search box for `δ`.
    pub delta_range: (f64, f64),
    /// Grid resolution per axis for the global stage.
    pub grid: usize,
    /// Nelder–Mead budget for the refinement stage.
    pub nm_options: NelderMeadOptions,
}

impl Default for ZmFitter {
    fn default() -> Self {
        ZmFitter {
            objective: FitObjective::LeastSquares,
            alpha_range: (1.05, 6.0),
            delta_range: (-0.95, 20.0),
            grid: 25,
            nm_options: NelderMeadOptions {
                max_evals: 1500,
                ..Default::default()
            },
        }
    }
}

impl ZmFitter {
    /// A fitter minimizing the given objective with default ranges.
    pub fn with_objective(objective: FitObjective) -> Self {
        ZmFitter {
            objective,
            ..Default::default()
        }
    }

    fn evaluate(
        &self,
        observed: &DifferentialCumulative,
        weights: Option<&[f64]>,
        d_max: u64,
        alpha: f64,
        delta: f64,
    ) -> f64 {
        let Ok(model) = ZipfMandelbrot::new(alpha, delta, d_max) else {
            return f64::INFINITY;
        };
        let pooled = model.pooled();
        match self.objective {
            FitObjective::LeastSquares => observed.l2_distance_sq(&pooled),
            FitObjective::WeightedLeastSquares => match weights {
                Some(w) => observed.weighted_distance_sq(&pooled, w),
                // `fit` refuses this combination with a typed Domain
                // error at entry; soft-fail like an invalid model.
                None => f64::INFINITY,
            },
            FitObjective::LogSpace => observed.log_distance_sq(&pooled),
            FitObjective::PooledKs => observed.linf_distance(&pooled),
        }
    }

    /// Fit `(α, δ)` to a pooled observation.
    ///
    /// `d_max` is taken from the observation's last nonzero bin
    /// (`2^i`), per the paper's Equation (1).
    ///
    /// # Examples
    ///
    /// ```
    /// use palu::zm::ZipfMandelbrot;
    /// use palu::zm_fit::ZmFitter;
    /// // Fit the pooled form of a known model: parameters recovered.
    /// let truth = ZipfMandelbrot::new(2.2, 0.5, 1 << 12).unwrap();
    /// let fit = ZmFitter::default().fit(&truth.pooled(), None).unwrap();
    /// assert!((fit.alpha - 2.2).abs() < 0.05);
    /// assert!((fit.delta - 0.5).abs() < 0.2);
    /// ```
    ///
    /// # Errors
    ///
    /// * [`StatsError::EmptyInput`] for an empty observation.
    /// * [`StatsError::Domain`] if the weighted objective is selected
    ///   without weights.
    pub fn fit(
        &self,
        observed: &DifferentialCumulative,
        weights: Option<&[f64]>,
    ) -> Result<ZmFit, StatsError> {
        let Some(last_bin) = observed.last_nonzero_bin() else {
            return Err(StatsError::EmptyInput {
                routine: "ZmFitter::fit",
            });
        };
        if self.objective == FitObjective::WeightedLeastSquares && weights.is_none() {
            return Err(StatsError::domain(
                "ZmFitter::fit",
                "WeightedLeastSquares requires per-bin weights",
            ));
        }
        let d_max = palu_stats::logbin::LogBins::upper_bound(last_bin as u32);

        // Global stage: coarse grid.
        let (a0, d0, _) = grid_search_2d(
            |a, d| self.evaluate(observed, weights, d_max, a, d),
            self.alpha_range,
            self.delta_range,
            self.grid,
            self.grid,
        );

        // Local stage: Nelder–Mead with barrier.
        let (alo, ahi) = self.alpha_range;
        let (dlo, dhi) = self.delta_range;
        let result = nelder_mead(
            |v| {
                let (a, d) = (v[0], v[1]);
                if a < alo || a > ahi || d < dlo || d > dhi {
                    return f64::INFINITY;
                }
                self.evaluate(observed, weights, d_max, a, d)
            },
            &[a0, d0],
            &self.nm_options,
        )?;

        Ok(ZmFit {
            alpha: result.x[0],
            delta: result.x[1],
            objective: result.f,
            d_max,
            evals: result.evals + self.grid * self.grid,
        })
    }
}

/// Bootstrap confidence intervals for a Zipf–Mandelbrot fit.
///
/// The paper reports point estimates only; for a production fitting
/// tool the sampling variability of `(α, δ)` matters (the Figure 3
/// error bars are per-bin, not per-parameter). This resamples the
/// observed histogram multinomially, refits each replicate, and
/// returns percentile intervals.
#[derive(Debug, Clone, PartialEq)]
pub struct ZmBootstrap {
    /// Point fit on the original data.
    pub point: ZmFit,
    /// `(lo, hi)` percentile interval for `α`.
    pub alpha_ci: (f64, f64),
    /// `(lo, hi)` percentile interval for `δ`.
    pub delta_ci: (f64, f64),
    /// All replicate fits (sorted by α), for diagnostics.
    pub replicates: Vec<ZmFit>,
}

impl ZmFitter {
    /// Fit with `n_boot` multinomial bootstrap replicates and return
    /// `level`-percentile confidence intervals (e.g. `level = 0.95`).
    ///
    /// The resamples are drawn on the calling thread, in order, so
    /// `rng` is consumed exactly as a serial resample-and-refit loop
    /// consumes it; only the refits run in parallel
    /// ([`palu_stats::boot`]). The output does not depend on the core
    /// count.
    ///
    /// # Errors
    ///
    /// * Propagates [`ZmFitter::fit`] errors on the original data.
    /// * [`StatsError::Domain`] for an invalid confidence level or
    ///   `n_boot < 10`.
    pub fn fit_bootstrap<R: Rng + ?Sized>(
        &self,
        h: &palu_stats::histogram::DegreeHistogram,
        n_boot: usize,
        level: f64,
        rng: &mut R,
    ) -> Result<ZmBootstrap, StatsError> {
        if !(0.5..1.0).contains(&level) {
            return Err(StatsError::domain(
                "ZmFitter::fit_bootstrap",
                format!("confidence level must be in [0.5, 1), got {level}"),
            ));
        }
        if n_boot < 10 {
            return Err(StatsError::domain(
                "ZmFitter::fit_bootstrap",
                "need at least 10 bootstrap replicates",
            ));
        }
        let observed = DifferentialCumulative::from_histogram(h);
        let point = self.fit(&observed, None)?;

        let fits = refit_in_order(
            n_boot,
            refit_threads(n_boot),
            |_| Ok::<_, StatsError>(DifferentialCumulative::from_histogram(&h.resample(rng))),
            |pooled| self.fit(&pooled, None).ok(),
        )?;
        let mut replicates: Vec<ZmFit> = fits.into_iter().flatten().collect();
        if replicates.len() < n_boot / 2 {
            return Err(StatsError::NoConvergence {
                routine: "ZmFitter::fit_bootstrap",
                iterations: n_boot,
                residual: replicates.len() as f64,
            });
        }

        let percentile = |sorted: &[f64], q: f64| -> f64 {
            let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
            sorted[idx]
        };
        let tail = (1.0 - level) / 2.0;
        let mut alphas: Vec<f64> = replicates.iter().map(|f| f.alpha).collect();
        alphas.sort_by(f64::total_cmp);
        let mut deltas: Vec<f64> = replicates.iter().map(|f| f.delta).collect();
        deltas.sort_by(f64::total_cmp);
        let alpha_ci = (percentile(&alphas, tail), percentile(&alphas, 1.0 - tail));
        let delta_ci = (percentile(&deltas, tail), percentile(&deltas, 1.0 - tail));
        replicates.sort_by(|a, b| a.alpha.total_cmp(&b.alpha));
        Ok(ZmBootstrap {
            point,
            alpha_ci,
            delta_ci,
            replicates,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palu_stats::histogram::DegreeHistogram;
    use palu_stats::rng::Xoshiro256pp;

    /// Fit the pooled form of a known ZM model: must recover (α, δ).
    #[test]
    fn recovers_exact_model() {
        for &(alpha, delta) in &[(2.0, 0.5), (1.8, 3.0), (2.6, -0.5)] {
            let truth = ZipfMandelbrot::new(alpha, delta, 1 << 14).unwrap();
            let observed = truth.pooled();
            let fit = ZmFitter::default().fit(&observed, None).unwrap();
            assert!(
                (fit.alpha - alpha).abs() < 0.02,
                "α: fitted {} vs {alpha}",
                fit.alpha
            );
            assert!(
                (fit.delta - delta).abs() < 0.1,
                "δ: fitted {} vs {delta}",
                fit.delta
            );
            assert!(fit.objective < 1e-8);
        }
    }

    #[test]
    fn recovers_from_sampled_data() {
        let truth = ZipfMandelbrot::new(2.2, 1.0, 1 << 12).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        let h: DegreeHistogram = truth.sample_many(&mut rng, 300_000).into_iter().collect();
        let observed = DifferentialCumulative::from_histogram(&h);
        let fit = ZmFitter::default().fit(&observed, None).unwrap();
        assert!((fit.alpha - 2.2).abs() < 0.15, "α {}", fit.alpha);
        assert!((fit.delta - 1.0).abs() < 0.5, "δ {}", fit.delta);
    }

    #[test]
    fn empty_observation_errors() {
        let empty = DifferentialCumulative::default();
        assert!(ZmFitter::default().fit(&empty, None).is_err());
    }

    #[test]
    fn weighted_requires_weights() {
        let truth = ZipfMandelbrot::new(2.0, 1.0, 256).unwrap();
        let fitter = ZmFitter::with_objective(FitObjective::WeightedLeastSquares);
        assert!(fitter.fit(&truth.pooled(), None).is_err());
        let w = vec![1.0; truth.pooled().n_bins()];
        assert!(fitter.fit(&truth.pooled(), Some(&w)).is_ok());
    }

    #[test]
    fn all_objectives_recover_clean_data() {
        let truth = ZipfMandelbrot::new(2.0, 0.8, 1 << 12).unwrap();
        let observed = truth.pooled();
        let w = vec![1.0; observed.n_bins()];
        for obj in [
            FitObjective::LeastSquares,
            FitObjective::WeightedLeastSquares,
            FitObjective::LogSpace,
            FitObjective::PooledKs,
        ] {
            let fitter = ZmFitter::with_objective(obj);
            let weights = if obj == FitObjective::WeightedLeastSquares {
                Some(w.as_slice())
            } else {
                None
            };
            let fit = fitter.fit(&observed, weights).unwrap();
            assert!((fit.alpha - 2.0).abs() < 0.1, "{obj:?}: α {}", fit.alpha);
        }
    }

    #[test]
    fn log_space_objective_prioritizes_tail() {
        // Perturb the head (bin 0) of a clean ZM pooled distribution;
        // the L2 fit chases the head, the log-space fit preserves the
        // tail exponent better.
        let truth = ZipfMandelbrot::new(2.0, 0.2, 1 << 14).unwrap();
        let mut values = truth.pooled().values().to_vec();
        values[0] *= 1.6; // corrupt d=1 mass
        let corrupted = DifferentialCumulative::from_values(values);
        let l2 = ZmFitter::default().fit(&corrupted, None).unwrap();
        let log = ZmFitter::with_objective(FitObjective::LogSpace)
            .fit(&corrupted, None)
            .unwrap();
        let tail_err = |fit: &ZmFit| {
            let m = fit.model().unwrap().pooled();
            let t = truth.pooled();
            ((m.value(12).ln() - t.value(12).ln()).powi(2)
                + (m.value(13).ln() - t.value(13).ln()).powi(2))
            .sqrt()
        };
        assert!(
            tail_err(&log) <= tail_err(&l2) + 1e-9,
            "log fit should track the tail at least as well"
        );
    }

    #[test]
    fn bootstrap_ci_covers_truth_and_shrinks_point() {
        let truth = ZipfMandelbrot::new(2.2, 0.5, 1 << 10).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let h: DegreeHistogram = truth.sample_many(&mut rng, 60_000).into_iter().collect();
        let boot = ZmFitter::default()
            .fit_bootstrap(&h, 20, 0.9, &mut rng)
            .unwrap();
        // The interval brackets the point estimate; the truth is
        // within the interval up to the pooled-fit discretization
        // bias (the percentile bootstrap quantifies *variance*, not
        // that small bias).
        assert!(boot.alpha_ci.0 <= boot.point.alpha && boot.point.alpha <= boot.alpha_ci.1);
        assert!(
            boot.alpha_ci.0 - 0.05 <= 2.2 && 2.2 <= boot.alpha_ci.1 + 0.05,
            "α CI {:?} misses truth by more than the known bias",
            boot.alpha_ci
        );
        assert!(boot.alpha_ci.1 - boot.alpha_ci.0 < 0.5, "CI too wide");
        assert!(boot.delta_ci.0 <= boot.delta_ci.1);
        assert!(boot.replicates.len() >= 10);
    }

    #[test]
    fn bootstrap_validates_inputs() {
        let truth = ZipfMandelbrot::new(2.0, 0.0, 256).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let h: DegreeHistogram = truth.sample_many(&mut rng, 5_000).into_iter().collect();
        let fitter = ZmFitter::default();
        assert!(fitter.fit_bootstrap(&h, 5, 0.9, &mut rng).is_err());
        assert!(fitter.fit_bootstrap(&h, 20, 0.3, &mut rng).is_err());
        assert!(fitter.fit_bootstrap(&h, 20, 1.0, &mut rng).is_err());
    }

    #[test]
    fn fit_reports_d_max_from_observation() {
        let truth = ZipfMandelbrot::new(2.0, 0.0, 700).unwrap();
        let fit = ZmFitter::default().fit(&truth.pooled(), None).unwrap();
        // 700 lies in bin 10 (513..1024) → d_max reported as 1024.
        assert_eq!(fit.d_max, 1024);
    }
}
