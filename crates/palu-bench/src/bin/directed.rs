//! E-EXT3 — directedness has a small impact (paper §III).
//!
//! "In reality these edge connections are directed … however for the
//! sake of the model we will consider this undirected. Using a
//! directed model has a small impact on overall the degree
//! distribution analysis." This experiment quantifies that claim on
//! synthetic traffic: fit the modified Zipf–Mandelbrot model to the
//! fan-out (out-degree), fan-in (in-degree), and undirected-degree
//! distributions of the same windows and compare the fitted (α, δ).

use palu::zm_fit::ZmFitter;
use palu_bench::{record_json, rule};
use palu_cli::json::JsonValue;
use palu_sparse::quantities::NetworkQuantity;
use palu_traffic::pipeline::{Measurement, Pipeline};

struct DirectedRow {
    scenario: String,
    alpha_out: f64,
    delta_out: f64,
    alpha_in: f64,
    delta_in: f64,
    alpha_undirected: f64,
    delta_undirected: f64,
    max_alpha_spread: f64,
}

fn main() {
    println!("E-EXT3 — directed vs undirected degree analysis");
    println!("(ZM fits to fan-out, fan-in, and undirected degree of the same traffic)");
    println!();
    println!(
        "{:<56} {:>16} {:>16} {:>16} {:>8}",
        "scenario", "out (α, δ)", "in (α, δ)", "undirected (α, δ)", "Δα"
    );
    println!("{}", rule(118));

    let measurements = [
        Measurement::Quantity(NetworkQuantity::SourceFanOut),
        Measurement::Quantity(NetworkQuantity::DestinationFanIn),
        Measurement::UndirectedDegree,
    ];
    let mut rows = Vec::new();
    for (i, s) in palu_bench::fig3_scenarios().iter().enumerate() {
        let mut obs = s.observatory(77_000 + i as u64);
        let windows = obs.windows(s.windows.min(8));
        let pooled: Vec<_> = measurements
            .iter()
            .map(|&m| Pipeline::pool(m, &windows))
            .collect();
        let fits: Vec<_> = pooled
            .iter()
            .map(|p| {
                ZmFitter::default()
                    .fit(&p.mean, None)
                    .expect("fit succeeds")
            })
            .collect();
        let alphas = [fits[0].alpha, fits[1].alpha, fits[2].alpha];
        let spread = alphas.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - alphas.iter().cloned().fold(f64::INFINITY, f64::min);
        println!(
            "{:<56} ({:>5.2},{:>6.2}) ({:>5.2},{:>6.2}) ({:>5.2},{:>6.2}) {:>8.3}",
            s.name,
            fits[0].alpha,
            fits[0].delta,
            fits[1].alpha,
            fits[1].delta,
            fits[2].alpha,
            fits[2].delta,
            spread
        );
        rows.push(DirectedRow {
            scenario: s.name.to_string(),
            alpha_out: fits[0].alpha,
            delta_out: fits[0].delta,
            alpha_in: fits[1].alpha,
            delta_in: fits[1].delta,
            alpha_undirected: fits[2].alpha,
            delta_undirected: fits[2].delta,
            max_alpha_spread: spread,
        });
    }

    println!();
    // The paper's claim, quantified in two parts:
    // (a) the two directed views are interchangeable — in- and
    //     out-degree fits agree to ~0.01 in α on every scenario
    //     (packets are oriented uniformly per conversation, so the
    //     laws coincide up to Binomial splitting);
    // (b) the undirected view agrees with the directed ones on every
    //     clean panel. The botnet-heavy panel is the documented
    //     exception: its undirected fit diverges because ZM is the
    //     wrong family for that traffic in ANY orientation (E-F3) —
    //     a misfit artifact, not a directedness effect.
    for r in &rows {
        assert!(
            (r.alpha_out - r.alpha_in).abs() < 0.05,
            "{}: in/out asymmetry {:.3}",
            r.scenario,
            (r.alpha_out - r.alpha_in).abs()
        );
        if !r.scenario.contains("botnet") {
            assert!(
                r.max_alpha_spread < 0.35,
                "{}: direction changes α by {:.3}",
                r.scenario,
                r.max_alpha_spread
            );
        }
    }
    let worst_clean = rows
        .iter()
        .filter(|r| !r.scenario.contains("botnet"))
        .map(|r| r.max_alpha_spread)
        .fold(0.0f64, f64::max);
    println!(
        "directedness gates passed: in/out α agree to < 0.05 everywhere; clean-panel \
         spread ≤ {worst_clean:.3} — 'a small impact on overall the degree \
         distribution analysis'. OK"
    );
    let snapshot = JsonValue::array(rows.iter().map(|r| {
        JsonValue::obj([
            ("scenario", r.scenario.as_str().into()),
            ("alpha_out", r.alpha_out.into()),
            ("delta_out", r.delta_out.into()),
            ("alpha_in", r.alpha_in.into()),
            ("delta_in", r.delta_in.into()),
            ("alpha_undirected", r.alpha_undirected.into()),
            ("delta_undirected", r.delta_undirected.into()),
            ("max_alpha_spread", r.max_alpha_spread.into()),
        ])
    }));
    record_json("directed", &snapshot);
}
