//! The `fit-bootstrap` workload: no capture at all. A 50k-node α = 2
//! network is edge-subsampled at p = 0.5 to a degree histogram, which
//! is fitted (ZM, CSN, PALU estimate) and bootstrapped (ZM refits,
//! CSN goodness-of-fit refits) on one serial RNG each.

use crate::common::{conditioned_seed, generator, metric, rng_ns_per_draw, Rep};
use crate::measure::{digest, peak_rss_mb};
use crate::trace::{overhead_runs, Tracer};
use crate::Traced;
use palu::estimate::{PaluEstimator, ParamEstimate};
use palu::zm_fit::{ZmBootstrap, ZmFit, ZmFitter};
use palu_graph::sample::ObservedNetwork;
use palu_stats::histogram::DegreeHistogram;
use palu_stats::logbin::DifferentialCumulative;
use palu_stats::mle::{fit_csn, goodness_of_fit, CsnOptions, GoodnessOfFit, PowerLawFit};
use palu_stats::rng::{streams, SeedSequence, Xoshiro256pp};
use std::time::Instant;

const NODES: u64 = 50_000;
const ALPHA: f64 = 2.0;
const P: f64 = 0.5;
/// ZM bootstrap replicates.
const ZM_BOOT: usize = 20;
/// CSN goodness-of-fit replicates.
const GOF_BOOT: usize = 100;
const LEVEL: f64 = 0.9;
/// Largest observed degree the input is conditioned on, to within
/// [`D_MAX_TOL`]: the ZM fit's cost grows with it, and unconditioned it
/// ranges over 2.6k–9.9k from seed to seed.
const D_MAX: f64 = 4400.0;
/// Relative tolerance on the input's largest degree.
const D_MAX_TOL: f64 = 0.02;

/// The input seed for workload seed `seed`: the first candidate whose
/// histogram's largest degree is [`D_MAX`] to within [`D_MAX_TOL`].
pub fn input_seed(seed: u64) -> u64 {
    let (lo, hi) = (D_MAX * (1.0 - D_MAX_TOL), D_MAX * (1.0 + D_MAX_TOL));
    conditioned_seed(seed, |s| {
        let (h, _) = input(&mut Tracer::disabled(), s);
        h.d_max().is_some_and(|d| (lo..=hi).contains(&(d as f64)))
    })
}

/// The fitted input and the network edge count behind it.
fn input(tr: &mut Tracer, seed: u64) -> (DegreeHistogram, usize) {
    let seq = SeedSequence::new(seed);
    let gen = generator(NODES, ALPHA);
    let net = tr.span("palu_gen.generate", 0, |_| {
        gen.generate(&mut seq.rng(streams::CORE))
    });
    let observed = tr.span("sample.edges", 0, |_| {
        ObservedNetwork::observe(&net, P, &mut seq.rng(streams::SAMPLING))
    });
    let h = tr.span("graph.degree_histogram", 0, |_| observed.degree_histogram());
    (h, net.graph.n_edges())
}

/// The two bootstraps' RNG streams.
fn boot_rngs(seed: u64) -> (Xoshiro256pp, Xoshiro256pp) {
    let seq = SeedSequence::new(SeedSequence::new(seed).child_seed(streams::FITTING));
    (seq.rng(0), seq.rng(1))
}

struct PointFits {
    zm: ZmFit,
    csn: PowerLawFit,
    estimate: ParamEstimate,
}

fn point_fits(tr: &mut Tracer, h: &DegreeHistogram) -> PointFits {
    let observed = DifferentialCumulative::from_histogram(h);
    PointFits {
        zm: tr
            .span("zm_fit.point", 0, |_| {
                ZmFitter::default().fit(&observed, None)
            })
            .expect("the ZM point fit converges"),
        csn: tr
            .span("mle.csn_fit", 0, |_| fit_csn(h, &CsnOptions::default()))
            .expect("the CSN fit finds a tail"),
        estimate: tr
            .span("estimate", 0, |_| PaluEstimator::default().estimate(h))
            .expect("the PALU estimate succeeds"),
    }
}

/// Failed checks on the fitted output: the point fits are finite, the
/// bootstraps refit the same point, and every interval is finite and
/// contains its point estimate.
fn check(p: &PointFits, zm: &ZmBootstrap, gof: &GoodnessOfFit) -> u64 {
    let contains =
        |(lo, hi): (f64, f64), x: f64| lo.is_finite() && hi.is_finite() && lo <= x && x <= hi;
    let z = 1.959_963_984_540_054 * p.csn.alpha_std_err;
    let s = &p.estimate.simplified;
    let checks = [
        zm.point == p.zm,
        contains(zm.alpha_ci, p.zm.alpha),
        contains(zm.delta_ci, p.zm.delta),
        contains((p.csn.alpha - z, p.csn.alpha + z), p.csn.alpha),
        gof.observed_ks.to_bits() == p.csn.ks.to_bits(),
        (0.0..=1.0).contains(&gof.p_value),
        [s.c, s.l, s.u, s.capital_lambda, s.alpha]
            .iter()
            .all(|v| v.is_finite()),
    ];
    checks.iter().filter(|ok| !**ok).count() as u64
}

fn fits_digest(p: &PointFits, zm: &ZmBootstrap, gof: &GoodnessOfFit) -> u64 {
    let s = &p.estimate.simplified;
    digest(
        [
            p.zm.alpha,
            p.zm.delta,
            p.csn.alpha,
            p.csn.ks,
            s.c,
            s.l,
            s.u,
            s.capital_lambda,
            zm.alpha_ci.0,
            zm.alpha_ci.1,
            zm.delta_ci.0,
            zm.delta_ci.1,
            gof.p_value,
        ]
        .iter()
        .map(|v| v.to_bits())
        .chain([p.csn.x_min]),
    )
}

/// One untraced repetition.
pub fn rep(seed: u64) -> Rep {
    let mut off = Tracer::disabled();
    let t0 = Instant::now();
    let (h, _) = input(&mut off, seed);
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let points = point_fits(&mut off, &h);
    let fit_s = t1.elapsed().as_secs_f64();
    let (mut zm_rng, mut gof_rng) = boot_rngs(seed);
    let t2 = Instant::now();
    let zm = ZmFitter::default()
        .fit_bootstrap(&h, ZM_BOOT, LEVEL, &mut zm_rng)
        .expect("the ZM bootstrap converges");
    let gof = goodness_of_fit(&h, &CsnOptions::default(), GOF_BOOT, &mut gof_rng)
        .expect("the CSN goodness-of-fit bootstrap runs");
    let boot_s = t2.elapsed().as_secs_f64();
    let failed_replicates = (ZM_BOOT - zm.replicates.len()) + (GOF_BOOT - gof.replicate_ks.len());
    let failed = failed_replicates as u64 + check(&points, &zm, &gof);
    let wall_s = t0.elapsed().as_secs_f64();
    let mut rep = Rep {
        digest: fits_digest(&points, &zm, &gof),
        ..Rep::default()
    };
    rep.set("setup_s", setup_s);
    rep.set("fit_s", fit_s);
    rep.set("boot_s", boot_s);
    rep.set("replicates", (ZM_BOOT + GOF_BOOT) as f64);
    rep.set("wall_s", wall_s);
    rep.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    rep.set("attempted", (3 + ZM_BOOT + GOF_BOOT + 7) as f64);
    rep.set("failed", failed as f64);
    rep
}

/// The ZM bootstrap replayed from its public calls: resample the
/// histogram, log-bin it, refit — in `fit_bootstrap`'s order and on
/// its RNG, so the replicates are the same fits.
fn zm_replay(tr: &mut Tracer, h: &DegreeHistogram, rng: &mut Xoshiro256pp) -> Vec<ZmFit> {
    let fitter = ZmFitter::default();
    let mut fits: Vec<ZmFit> = (0..ZM_BOOT as u64)
        .filter_map(|i| {
            tr.span("zm_fit.replicate", i, |tr| {
                let boot = tr.span("histogram.resample", i, |_| h.resample(rng));
                let binned = tr.span("logbin.bin", i, |_| {
                    DifferentialCumulative::from_histogram(&boot)
                });
                tr.span("zm_fit.fit", i, |_| fitter.fit(&binned, None)).ok()
            })
        })
        .collect();
    fits.sort_by(|a, b| a.alpha.total_cmp(&b.alpha));
    fits
}

/// The traced run: input, point fits and both bootstraps under spans;
/// the ZM bootstrap is replayed traced and untraced twice each, and
/// every replay must equal `fit_bootstrap`'s replicates bit for bit.
pub fn traced(seed: u64) -> Traced {
    let mut tr = Tracer::new();
    let (h, edges) = input(&mut tr, seed);
    let points = point_fits(&mut tr, &h);
    let (mut zm_rng, mut gof_rng) = boot_rngs(seed);
    let zm = tr
        .span("zm_fit.bootstrap", 0, |_| {
            ZmFitter::default().fit_bootstrap(&h, ZM_BOOT, LEVEL, &mut zm_rng)
        })
        .expect("the ZM bootstrap converges");
    let gof = tr
        .span("mle.gof", 0, |_| {
            goodness_of_fit(&h, &CsnOptions::default(), GOF_BOOT, &mut gof_rng)
        })
        .expect("the CSN goodness-of-fit bootstrap runs");
    let (replays, traced_s, untraced_s) = overhead_runs(&mut tr, |tr| {
        tr.span("zm_fit.replay", 0, |tr| {
            zm_replay(tr, &h, &mut boot_rngs(seed).0)
        })
    });
    let ns_per_draw = rng_ns_per_draw(&mut tr, seed);

    let mut failed = check(&points, &zm, &gof);
    for replay in &replays {
        if *replay != zm.replicates {
            failed += ZM_BOOT as u64;
        }
    }
    let span_s = |name: &str| {
        tr.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum::<f64>()
    };
    let csn_s = span_s("mle.csn_fit");
    let metrics = vec![
        metric("palu_gen.generate_s", span_s("palu_gen.generate"), "s"),
        metric("palu_gen.edges", edges as f64, "count"),
        metric("rng.ns_per_draw", ns_per_draw, "ns"),
        metric("zm_fit.point_s", span_s("zm_fit.point"), "s"),
        metric(
            "zm_fit.boot_ms_per_replicate",
            span_s("zm_fit.replicate") * 1e3 / ZM_BOOT as f64,
            "ms",
        ),
        metric("mle.csn_fit_s", csn_s, "s"),
        // goodness_of_fit refits the CSN point once before its
        // replicates.
        metric(
            "mle.gof_ms_per_replicate",
            (span_s("mle.gof") - csn_s) * 1e3 / GOF_BOOT as f64,
            "ms",
        ),
        metric("estimate.s", span_s("estimate"), "s"),
    ];
    Traced {
        metrics,
        attempted: (3 + 5 * ZM_BOOT + GOF_BOOT + 7) as u64,
        failed,
        traced_s,
        untraced_s,
        tracer: tr,
    }
}
