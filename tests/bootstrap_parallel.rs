//! Parallel bootstrap refits with unchanged output.
//!
//! Every bootstrap draws its replicates in order on the caller's RNG
//! and spreads only the refits across cores, through
//! `palu_stats::boot::refit_in_order`. These tests pin that contract:
//! the helper equals a serial `map` bit for bit at any thread count,
//! stops drawing at the first draw error and re-raises a refit panic;
//! and each of the three bootstraps (`ZmFitter::fit_bootstrap`,
//! `goodness_of_fit`, `PaluEstimator::estimate_bootstrap`) equals a
//! serial replay written here from public calls.

use palu::estimate::PaluEstimator;
use palu::params::PaluParams;
use palu::zm::ZipfMandelbrot;
use palu::zm_fit::{ZmFit, ZmFitter};
use palu_graph::sample::ObservedNetwork;
use palu_stats::boot::refit_in_order;
use palu_stats::histogram::DegreeHistogram;
use palu_stats::logbin::DifferentialCumulative;
use palu_stats::mle::{fit_csn, goodness_of_fit, sample_tail_zeta, CsnOptions};
use palu_stats::rng::{Rng, Xoshiro256pp};
use std::panic;

/// A ZM-shaped histogram small enough for debug-build refits.
fn zm_histogram(seed: u64) -> DegreeHistogram {
    let truth = ZipfMandelbrot::new(2.2, 1.0, 1 << 8).unwrap();
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    truth.sample_many(&mut rng, 20_000).into_iter().collect()
}

/// An observed PALU degree histogram.
fn palu_histogram() -> DegreeHistogram {
    let params = PaluParams::from_core_leaf_fractions(0.5, 0.2, 3.0, 2.0, 0.5).unwrap();
    let net = params
        .generator(20_000)
        .unwrap()
        .generate(&mut Xoshiro256pp::seed_from_u64(3));
    ObservedNetwork::observe(&net, params.p, &mut Xoshiro256pp::seed_from_u64(4)).degree_histogram()
}

/// Bits of a fit, so equality is exact even for NaN.
fn fit_bits(f: &ZmFit) -> [u64; 3] {
    [f.alpha.to_bits(), f.delta.to_bits(), f.objective.to_bits()]
}

/// The percentile rule every bootstrap here uses.
fn percentile_ci(values: &mut [f64], level: f64) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let tail = (1.0 - level) / 2.0;
    let q = |p: f64| values[((values.len() - 1) as f64 * p).round() as usize];
    (q(tail), q(1.0 - tail))
}

#[test]
fn helper_equals_the_serial_map_at_1_2_3_8_threads() {
    let h = zm_histogram(1);
    let fitter = ZmFitter::default();
    let n = 12;
    let serial: Vec<Option<[u64; 3]>> = {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        (0..n)
            .map(|_| {
                let pooled = DifferentialCumulative::from_histogram(&h.resample(&mut rng));
                fitter.fit(&pooled, None).ok().map(|f| fit_bits(&f))
            })
            .collect()
    };
    for threads in [1, 2, 3, 8] {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let out = refit_in_order(
            n,
            threads,
            |_| {
                Ok::<_, ()>(DifferentialCumulative::from_histogram(
                    &h.resample(&mut rng),
                ))
            },
            |pooled| fitter.fit(&pooled, None).ok().map(|f| fit_bits(&f)),
        )
        .unwrap();
        assert_eq!(out, serial, "threads = {threads}");
    }
}

#[test]
fn draw_error_is_returned_and_drawing_stops_at_its_index() {
    for threads in [1, 2, 3, 8] {
        for k in [0, 1, 5, 9] {
            let mut drawn = Vec::new();
            let out = refit_in_order(
                10,
                threads,
                |i| {
                    drawn.push(i);
                    if i == k {
                        Err(i)
                    } else {
                        Ok(i)
                    }
                },
                |i| i * 2,
            );
            assert_eq!(out, Err(k), "threads = {threads}, k = {k}");
            assert_eq!(drawn, (0..=k).collect::<Vec<_>>(), "threads = {threads}");
        }
    }
}

#[test]
fn refit_panic_reaches_the_caller() {
    for threads in [1, 2, 3, 8] {
        let caught = panic::catch_unwind(|| {
            refit_in_order(8, threads, Ok::<usize, ()>, |i| {
                if i == 5 {
                    panic!("replicate {i} diverged");
                }
                i
            })
        });
        let payload = caught.expect_err("a refit panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "replicate 5 diverged", "threads = {threads}");
    }
}

#[test]
fn empty_run_and_more_threads_than_replicates() {
    let mut drawn = 0;
    let out = refit_in_order(
        0,
        4,
        |_| {
            drawn += 1;
            Ok::<u64, ()>(0)
        },
        |x| x,
    );
    assert_eq!(out, Ok(Vec::new()));
    assert_eq!(drawn, 0);
    let out = refit_in_order(2, 8, |i| Ok::<u64, ()>(i as u64 + 7), |x| x * 3);
    assert_eq!(out, Ok(vec![21, 24]));
}

#[test]
fn fit_bootstrap_equals_its_serial_replay() {
    let h = zm_histogram(5);
    let fitter = ZmFitter::default();
    let (n_boot, level) = (12, 0.9);
    let boot = fitter
        .fit_bootstrap(&h, n_boot, level, &mut Xoshiro256pp::seed_from_u64(6))
        .unwrap();

    // Replay: resample, log-bin, refit, in order on the same RNG.
    let mut rng = Xoshiro256pp::seed_from_u64(6);
    let mut fits: Vec<ZmFit> = (0..n_boot)
        .filter_map(|_| {
            let pooled = DifferentialCumulative::from_histogram(&h.resample(&mut rng));
            fitter.fit(&pooled, None).ok()
        })
        .collect();
    let point = fitter
        .fit(&DifferentialCumulative::from_histogram(&h), None)
        .unwrap();
    let mut alphas: Vec<f64> = fits.iter().map(|f| f.alpha).collect();
    let mut deltas: Vec<f64> = fits.iter().map(|f| f.delta).collect();
    fits.sort_by(|a, b| a.alpha.total_cmp(&b.alpha));

    assert_eq!(fit_bits(&boot.point), fit_bits(&point));
    assert_eq!(
        boot.replicates.iter().map(fit_bits).collect::<Vec<_>>(),
        fits.iter().map(fit_bits).collect::<Vec<_>>()
    );
    let bits = |(lo, hi): (f64, f64)| (lo.to_bits(), hi.to_bits());
    assert_eq!(bits(boot.alpha_ci), bits(percentile_ci(&mut alphas, level)));
    assert_eq!(bits(boot.delta_ci), bits(percentile_ci(&mut deltas, level)));
}

#[test]
fn goodness_of_fit_equals_its_serial_replay() {
    let h = palu_histogram();
    let opts = CsnOptions::default();
    let n_boot = 30;
    let gof = goodness_of_fit(&h, &opts, n_boot, &mut Xoshiro256pp::seed_from_u64(9)).unwrap();

    // Replay: the CSN semiparametric draw (tail from the fitted zeta
    // law, body from the empirical d < x_min), then refit, in order.
    let fit = fit_csn(&h, &opts).unwrap();
    let n = h.total();
    let body: Vec<(u64, u64)> = h.iter().filter(|&(d, _)| d < fit.x_min).collect();
    let body_cum: Vec<u64> = body
        .iter()
        .scan(0, |acc, &(_, c)| {
            *acc += c;
            Some(*acc)
        })
        .collect();
    let body_total = body_cum.last().copied().unwrap_or(0);
    let tail_prob = fit.n_tail as f64 / n as f64;
    let mut rng = Xoshiro256pp::seed_from_u64(9);
    let mut ks: Vec<f64> = Vec::new();
    for _ in 0..n_boot {
        let mut boot = DegreeHistogram::new();
        for _ in 0..n {
            let d = if body_total == 0 || rng.gen::<f64>() < tail_prob {
                sample_tail_zeta(fit.alpha, fit.x_min, &mut rng).unwrap()
            } else {
                let x = rng.gen_range(0..body_total);
                body[body_cum.partition_point(|&c| c <= x)].0
            };
            boot.increment(d, 1);
        }
        if let Ok(refit) = fit_csn(&boot, &opts) {
            ks.push(refit.ks);
        }
    }
    let p_value = ks.iter().filter(|&&k| k >= fit.ks).count() as f64 / ks.len() as f64;
    ks.sort_by(f64::total_cmp);

    assert_eq!(gof.observed_ks.to_bits(), fit.ks.to_bits());
    assert_eq!(gof.p_value.to_bits(), p_value.to_bits());
    assert_eq!(
        gof.replicate_ks
            .iter()
            .map(|k| k.to_bits())
            .collect::<Vec<_>>(),
        ks.iter().map(|k| k.to_bits()).collect::<Vec<_>>()
    );
}

#[test]
fn estimate_bootstrap_equals_its_serial_replay() {
    let h = palu_histogram();
    let estimator = PaluEstimator::default();
    let (n_boot, level) = (16, 0.9);
    let boot = estimator
        .estimate_bootstrap(&h, n_boot, level, &mut Xoshiro256pp::seed_from_u64(12))
        .unwrap();

    let mut rng = Xoshiro256pp::seed_from_u64(12);
    let fits: Vec<_> = (0..n_boot)
        .filter_map(|_| estimator.estimate(&h.resample(&mut rng)).ok())
        .map(|est| est.simplified)
        .collect();
    let mut alphas: Vec<f64> = fits.iter().map(|s| s.alpha).collect();
    let mut lambda_ps: Vec<f64> = fits.iter().map(|s| s.lambda_p()).collect();
    let mut ls: Vec<f64> = fits.iter().map(|s| s.l).collect();

    let bits = |(lo, hi): (f64, f64)| (lo.to_bits(), hi.to_bits());
    assert_eq!(boot.point, estimator.estimate(&h).unwrap());
    assert_eq!(boot.replicates, fits.len());
    assert_eq!(bits(boot.alpha_ci), bits(percentile_ci(&mut alphas, level)));
    assert_eq!(
        bits(boot.lambda_p_ci),
        bits(percentile_ci(&mut lambda_ps, level))
    );
    assert_eq!(bits(boot.l_ci), bits(percentile_ci(&mut ls, level)));
}
