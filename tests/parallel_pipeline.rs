//! Tier-1 contract for the sharded multi-window pipeline.
//!
//! Two guarantees the rest of the suite leans on:
//!
//! 1. **Determinism** — `Pipeline::pool_observatory_parallel` is
//!    bit-identical to the serial fold for any thread count, because
//!    per-window RNG streams are derived splittably by window index
//!    and single-window shards merge in window order through the
//!    `Welford::merge` n = 1 fast path (a literal replay of the
//!    serial push sequence).
//! 2. **Weights regression** — `PooledDistribution::weights` returns
//!    uniform 1.0 in the degenerate all-σ-zero case (e.g. a single
//!    window), so the weighted ZM fit coincides with the unweighted
//!    one instead of dividing by zero; with several windows the
//!    inverse-variance weighting is preserved.

use palu_suite::prelude::*;
use palu_traffic::observatory::ObservatoryConfig;
use palu_traffic::packets::EdgeIntensity;
use palu_traffic::pipeline::Measurement;

fn observatory(seed: u64, n_v: u64) -> Observatory {
    let gen = PaluParams::from_core_leaf_fractions(0.5, 0.2, 3.0, 2.0, 0.5)
        .unwrap()
        .generator(30_000)
        .unwrap();
    Observatory::new(
        ObservatoryConfig {
            name: "parallel-pipeline test".to_string(),
            date: String::new(),
            n_v,
        },
        &gen,
        EdgeIntensity::Uniform,
        seed,
    )
}

#[test]
fn parallel_pipeline_is_bit_identical_to_serial_at_1_2_8_threads() {
    const WINDOWS: usize = 64;
    let serial = {
        let obs = observatory(42, 5_000);
        let windows: Vec<PacketWindow> = (0..WINDOWS as u64).map(|t| obs.window_at(t)).collect();
        Pipeline::pool(Measurement::UndirectedDegree, &windows)
    };
    // Odd thread counts exercise non-dividing work splits; 96 > 64
    // windows exercises the oversubscribed queue (idle workers must
    // exit cleanly without claiming anything).
    for threads in [1usize, 2, 3, 5, 7, 8, 96] {
        let mut obs = observatory(42, 5_000);
        let parallel = Pipeline::pool_observatory_parallel(
            Measurement::UndirectedDegree,
            &mut obs,
            WINDOWS,
            threads,
            None,
        )
        .expect("capture");
        assert_eq!(parallel.windows, serial.windows, "threads = {threads}");
        assert_eq!(parallel.d_max, serial.d_max, "threads = {threads}");
        assert_eq!(
            parallel.mean.n_bins(),
            serial.mean.n_bins(),
            "threads = {threads}"
        );
        for (i, ((_, got), (_, want))) in parallel.mean.iter().zip(serial.mean.iter()).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "mean bin {i} differs at {threads} threads"
            );
        }
        for (i, (got, want)) in parallel.sigma.iter().zip(serial.sigma.iter()).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "sigma bin {i} differs at {threads} threads"
            );
        }
    }
}

#[test]
fn metrics_snapshot_counts_the_parallel_workload() {
    let metrics = Metrics::new();
    let mut obs = observatory(7, 2_000);
    let pooled = Pipeline::pool_observatory_parallel(
        Measurement::UndirectedDegree,
        &mut obs,
        8,
        2,
        Some(&metrics),
    )
    .expect("capture");
    assert_eq!(pooled.windows, 8);
    let snap: MetricsSnapshot = metrics.snapshot();
    assert_eq!(snap.windows, 8);
    assert_eq!(snap.packets, 8 * 2_000);
    assert_eq!(snap.threads, 2);
    // Every per-window stage saw work; only the merge runs on the main
    // thread and may be too fast to register on a coarse clock.
    assert!(snap.synthesize_ns > 0);
    assert!(snap.histogram_ns > 0);

    // `threads` counts the workers actually spawned, not the request:
    // a 64-thread request is capped at the host's effective
    // parallelism (floor 2).
    let metrics = Metrics::new();
    let mut obs = observatory(7, 2_000);
    let pooled = Pipeline::pool_observatory_parallel(
        Measurement::UndirectedDegree,
        &mut obs,
        64,
        64,
        Some(&metrics),
    )
    .expect("capture");
    assert_eq!(pooled.windows, 64);
    let snap = metrics.snapshot();
    let cores = std::thread::available_parallelism().map_or(2, |p| p.get().max(2));
    assert!(
        snap.threads <= cores as u64,
        "{} workers recorded on a host with {cores} effective cores",
        snap.threads
    );
}

#[test]
fn single_window_weighted_fit_coincides_with_unweighted() {
    // One window ⇒ every σ is 0 ⇒ the old inverse-variance weights
    // were all-infinite/NaN. The regression contract: weights are
    // uniform 1.0 and the weighted ZM fit equals the plain
    // least-squares fit on the same observation.
    let mut obs = observatory(11, 20_000);
    let pooled =
        Pipeline::pool_observatory_parallel(Measurement::UndirectedDegree, &mut obs, 1, 1, None)
            .expect("capture");
    let w = pooled.weights(100.0);
    assert!(!w.is_empty());
    assert!(w.iter().all(|&x| x == 1.0), "weights {w:?}");

    let weighted = ZmFitter::with_objective(FitObjective::WeightedLeastSquares)
        .fit(&pooled.mean, Some(&w))
        .unwrap();
    let plain = ZmFitter::with_objective(FitObjective::LeastSquares)
        .fit(&pooled.mean, None)
        .unwrap();
    assert_eq!(weighted.alpha.to_bits(), plain.alpha.to_bits());
    assert_eq!(weighted.delta.to_bits(), plain.delta.to_bits());
    assert_eq!(weighted.objective.to_bits(), plain.objective.to_bits());
}

#[test]
fn multi_window_weights_remain_inverse_variance() {
    // With several windows the σ's vary and the weights must still be
    // 1/σ² (capped at the constant-bin default), i.e. *not* flattened
    // by the degenerate-case guard.
    let mut obs = observatory(13, 5_000);
    let pooled =
        Pipeline::pool_observatory_parallel(Measurement::UndirectedDegree, &mut obs, 12, 4, None)
            .expect("capture");
    let w = pooled.weights(100.0);
    let varying: Vec<(usize, f64)> = pooled
        .sigma
        .iter()
        .enumerate()
        .filter(|&(_, &s)| s > 0.0)
        .map(|(i, &s)| (i, s))
        .collect();
    assert!(
        varying.len() >= 2,
        "fixture should produce varying bins, got σ = {:?}",
        pooled.sigma
    );
    for (i, s) in varying {
        let expected = 1.0 / (s * s);
        assert!(
            (w[i] - expected).abs() <= 1e-12 * expected,
            "bin {i}: weight {} vs 1/σ² {expected}",
            w[i]
        );
    }
    // And a multi-window pool is genuinely different from uniform.
    assert!(w.iter().any(|&x| x != 1.0));
}

// A deliberately serial reference for the determinism test above:
// pooling via the one-window-at-a-time streaming API must agree with
// both, closing the loop between the three pooling entry points.
#[test]
fn streaming_pool_agrees_with_parallel_pool() {
    const WINDOWS: usize = 16;
    let obs = observatory(99, 3_000);
    let packets: Vec<palu_traffic::packets::Packet> = (0..WINDOWS as u64)
        .flat_map(|t| obs.packets_at(t).unwrap())
        .collect();
    let streamed = palu_traffic::stream::StreamStats::new(Measurement::UndirectedDegree)
        .consume(packets.into_iter(), 3_000);
    let mut obs2 = observatory(99, 3_000);
    let parallel = Pipeline::pool_observatory_parallel(
        Measurement::UndirectedDegree,
        &mut obs2,
        WINDOWS,
        8,
        None,
    )
    .expect("capture");
    assert_eq!(streamed.mean, parallel.mean);
    assert_eq!(streamed.sigma, parallel.sigma);
    assert_eq!(streamed.d_max, parallel.d_max);
}
