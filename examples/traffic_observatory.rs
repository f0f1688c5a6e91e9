//! A synthetic trunk-line observatory, end to end.
//!
//! Stands in for a MAWI/CAIDA vantage point: synthesizes packet
//! streams from a PALU underlying network, cuts them into windows of
//! exactly `N_V` valid packets, aggregates each window into a sparse
//! matrix, computes the five Figure 1 quantities, and pools
//! `D(d_i) ± σ(d_i)` across consecutive windows — the full Section II
//! measurement methodology.
//!
//! ```text
//! cargo run --release --example traffic_observatory
//! ```

use palu_sparse::quantities::NetworkQuantity;
use palu_suite::prelude::*;
use palu_traffic::observatory::ObservatoryConfig;
use palu_traffic::packets::EdgeIntensity;
use palu_traffic::pipeline::Measurement;

fn main() {
    let params =
        PaluParams::from_core_leaf_fractions(0.55, 0.2, 2.0, 2.0, 0.5).expect("valid parameters");
    let generator = params.generator(120_000).expect("valid generator");

    let mut observatory = Observatory::new(
        ObservatoryConfig {
            name: "Synthetic-Tokyo".into(),
            date: "2026-07-06".into(),
            n_v: 200_000,
        },
        &generator,
        EdgeIntensity::Pareto { shape: 1.5 },
        42,
    );
    println!(
        "observatory '{}': N_V = {} packets/window, effective p ≈ {:.3}",
        observatory.config().name,
        observatory.config().n_v,
        observatory.effective_p()
    );

    // Capture 12 consecutive windows.
    let windows = observatory.windows(12);

    // Per-window Table I aggregates for the first few windows.
    println!("\nper-window aggregates (Table I):");
    println!(
        "{:>4} {:>10} {:>10} {:>10} {:>10}",
        "t", "N_V", "links", "sources", "dests"
    );
    for w in windows.iter().take(4) {
        let a = w.aggregates();
        println!(
            "{:>4} {:>10} {:>10} {:>10} {:>10}",
            w.t(),
            a.valid_packets,
            a.unique_links,
            a.unique_sources,
            a.unique_destinations
        );
    }

    // Pool every Figure 1 quantity (plus the undirected degree) over
    // all windows.
    let measurements = [
        Measurement::UndirectedDegree,
        Measurement::NodeVolume,
        Measurement::Quantity(NetworkQuantity::SourcePackets),
        Measurement::Quantity(NetworkQuantity::SourceFanOut),
        Measurement::Quantity(NetworkQuantity::LinkPackets),
        Measurement::Quantity(NetworkQuantity::DestinationFanIn),
        Measurement::Quantity(NetworkQuantity::DestinationPackets),
    ];
    let pooled: Vec<_> = measurements
        .iter()
        .map(|&m| Pipeline::pool(m, &windows))
        .collect();

    println!("\npooled D(d_i) ± σ over {} windows:", windows.len());
    for (m, dist) in measurements.iter().zip(&pooled) {
        let name = match m {
            Measurement::UndirectedDegree => "undirected degree",
            Measurement::NodeVolume => "node volume (weighted)",
            Measurement::Quantity(q) => q.name(),
        };
        let d1 = dist.mean.value(0);
        let fit = ZmFitter::default()
            .fit(&dist.mean, Some(&dist.weights(1.0)))
            .expect("fit succeeds");
        println!(
            "  {name:<22} D(1) = {d1:.3}  d_max = {:<8} ZM fit: α = {:.2}, δ = {:+.2}",
            dist.d_max, fit.alpha, fit.delta
        );
    }

    println!(
        "\nevery quantity shows the paper's signature: dominant d = 1 mass with a power-law tail."
    );
}
