//! E-BOOT — parallel bootstrap refits: per-replicate cost and scaling.
//!
//! Every bootstrap draws its replicates in order on the caller's RNG and
//! spreads only the refits across cores (`palu_stats::boot`). This
//! binary measures, on one observed PALU degree histogram:
//!
//! * ms per replicate of `ZmFitter::fit_bootstrap`, and of a serial
//!   replay of it built from public calls (resample, log-bin, refit);
//! * ms per replicate of the CSN `goodness_of_fit` bootstrap;
//! * ns per observation drawn by `DegreeHistogram::resample`;
//!
//! and records them in `results/BENCH_bootstrap.json`. It asserts that
//! the replay's replicates equal `fit_bootstrap`'s bit for bit.
//!
//! With `--gate` it also enforces the scaling floor: the serial replay's
//! wall over `fit_bootstrap`'s, both timed in this run (best of two
//! each), must reach `0.75 × min(2, effective cores)`.

use palu::params::PaluParams;
use palu::zm_fit::{ZmFit, ZmFitter};
use palu_bench::record_json;
use palu_cli::json::JsonValue;
use palu_graph::sample::ObservedNetwork;
use palu_stats::histogram::DegreeHistogram;
use palu_stats::logbin::DifferentialCumulative;
use palu_stats::mle::{goodness_of_fit, CsnOptions};
use palu_stats::rng::Xoshiro256pp;
use std::time::Instant;

const NODES: u64 = 50_000;
const SEED: u64 = 20261017;
/// ZM replicates: a multiple of 2, 4 and 8, so the refits divide evenly
/// over the workers.
const ZM_BOOT: usize = 16;
/// CSN goodness-of-fit replicates.
const GOF_BOOT: usize = 100;
/// Resamples timed for the per-draw cost.
const RESAMPLES: usize = 20;
const LEVEL: f64 = 0.9;
/// Required parallel efficiency: the speedup must reach this fraction
/// of the ideal `min(GATE_CORES, effective cores)`.
const GATE_EFFICIENCY: f64 = 0.75;
/// Core count the gate's ideal speedup is capped at.
const GATE_CORES: usize = 2;

/// Cores the scheduler will actually give this process.
fn effective_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The observed degree histogram of a 50k-node PALU network.
fn input() -> DegreeHistogram {
    let params = PaluParams::from_core_leaf_fractions(0.5, 0.2, 3.0, 2.0, 0.5)
        .expect("benchmark parameters are valid");
    let net = params
        .generator(NODES)
        .expect("benchmark generator builds")
        .generate(&mut Xoshiro256pp::seed_from_u64(SEED));
    ObservedNetwork::observe(&net, params.p, &mut Xoshiro256pp::seed_from_u64(SEED + 1))
        .degree_histogram()
}

/// `fit_bootstrap` replayed serially from public calls: the point fit,
/// then resample, log-bin and refit in order on the same RNG.
fn serial_replay(h: &DegreeHistogram) -> Vec<ZmFit> {
    let fitter = ZmFitter::default();
    let mut rng = Xoshiro256pp::seed_from_u64(SEED + 2);
    fitter
        .fit(&DifferentialCumulative::from_histogram(h), None)
        .expect("the ZM point fit converges");
    let mut fits: Vec<ZmFit> = (0..ZM_BOOT)
        .filter_map(|_| {
            let pooled = DifferentialCumulative::from_histogram(&h.resample(&mut rng));
            fitter.fit(&pooled, None).ok()
        })
        .collect();
    fits.sort_by(|a, b| a.alpha.total_cmp(&b.alpha));
    fits
}

fn parallel(h: &DegreeHistogram) -> Vec<ZmFit> {
    ZmFitter::default()
        .fit_bootstrap(
            h,
            ZM_BOOT,
            LEVEL,
            &mut Xoshiro256pp::seed_from_u64(SEED + 2),
        )
        .expect("the ZM bootstrap converges")
        .replicates
}

/// Best wall of two runs of `f`, and its last output.
fn best_of_two<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let t0 = Instant::now();
    f();
    let first = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let out = f();
    (first.min(t1.elapsed().as_secs_f64()), out)
}

fn bits(fits: &[ZmFit]) -> Vec<[u64; 3]> {
    fits.iter()
        .map(|f| [f.alpha.to_bits(), f.delta.to_bits(), f.objective.to_bits()])
        .collect()
}

fn main() {
    let gate = std::env::args().any(|a| a == "--gate");
    let cores = effective_cores();
    let h = input();
    println!("E-BOOT — parallel bootstrap refits");
    println!(
        "  input: {NODES}-node PALU network, {} observations, d_max {}, effective cores: {cores}",
        h.total(),
        h.d_max().unwrap_or(0)
    );

    let mut rng = Xoshiro256pp::seed_from_u64(SEED + 3);
    let t0 = Instant::now();
    for _ in 0..RESAMPLES {
        std::hint::black_box(h.resample(&mut rng));
    }
    let resample_ns = t0.elapsed().as_secs_f64() * 1e9 / (RESAMPLES as f64 * h.total() as f64);

    let (serial_s, replay) = best_of_two(|| serial_replay(&h));
    let (parallel_s, replicates) = best_of_two(|| parallel(&h));
    let identical = bits(&replay) == bits(&replicates);
    assert!(
        identical,
        "fit_bootstrap's replicates differ from the serial replay"
    );
    let speedup = serial_s / parallel_s.max(1e-9);
    let threshold = GATE_EFFICIENCY * GATE_CORES.min(cores) as f64;
    let gate_pass = speedup >= threshold;

    let t0 = Instant::now();
    let gof = goodness_of_fit(
        &h,
        &CsnOptions::default(),
        GOF_BOOT,
        &mut Xoshiro256pp::seed_from_u64(SEED + 4),
    )
    .expect("the goodness-of-fit bootstrap runs");
    let gof_s = t0.elapsed().as_secs_f64();

    let ms_per = |wall_s: f64, n: usize| wall_s * 1e3 / n as f64;
    println!("  resample: {resample_ns:.1} ns per observation drawn");
    println!(
        "  zm bootstrap ({ZM_BOOT} replicates + point fit): serial replay {:.1} ms/replicate, \
         fit_bootstrap {:.1} ms/replicate, speedup {speedup:.2}x, replicates bit-identical",
        ms_per(serial_s, ZM_BOOT),
        ms_per(parallel_s, ZM_BOOT)
    );
    println!(
        "  goodness of fit ({GOF_BOOT} replicates + point fit): {:.2} ms/replicate, p = {:.3}",
        ms_per(gof_s, GOF_BOOT),
        gof.p_value
    );

    let snapshot = JsonValue::obj([
        ("nodes", NODES.into()),
        ("observations", h.total().into()),
        ("d_max", h.d_max().unwrap_or(0).into()),
        ("effective_cores", cores.into()),
        ("resample_ns_per_draw", resample_ns.into()),
        (
            "zm",
            JsonValue::obj([
                ("replicates", ZM_BOOT.into()),
                ("serial_replay_wall_s", serial_s.into()),
                ("fit_bootstrap_wall_s", parallel_s.into()),
                ("serial_ms_per_replicate", ms_per(serial_s, ZM_BOOT).into()),
                ("ms_per_replicate", ms_per(parallel_s, ZM_BOOT).into()),
                ("replicates_identical", identical.into()),
            ]),
        ),
        (
            "gof",
            JsonValue::obj([
                ("replicates", GOF_BOOT.into()),
                ("wall_s", gof_s.into()),
                ("ms_per_replicate", ms_per(gof_s, GOF_BOOT).into()),
            ]),
        ),
        (
            "scaling_gate",
            JsonValue::obj([
                ("speedup", speedup.into()),
                ("threshold", threshold.into()),
                ("pass", gate_pass.into()),
            ]),
        ),
    ]);
    record_json("BENCH_bootstrap", &snapshot);

    if gate {
        println!(
            "scaling gate: fit_bootstrap speedup {speedup:.2}x vs floor {threshold:.2}x \
             ({cores} core(s))"
        );
        if !gate_pass {
            eprintln!(
                "scaling gate FAILED: fit_bootstrap is {speedup:.2}x the serial replay, \
                 below the {threshold:.2}x floor — the refits are no longer spread \
                 across cores"
            );
            std::process::exit(1);
        }
    }
}
