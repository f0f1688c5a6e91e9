//! Pieces shared by the workloads: the repetition record a child
//! process prints, the PALU network parameters, pooled-output checks
//! and the RNG microloop.

use crate::measure::digest;
use crate::trace::Tracer;
use palu_graph::palu_gen::PaluGenerator;
use palu_stats::rng::{Rng, SeedSequence, Xoshiro256pp};
use palu_traffic::pipeline::{FaultTolerantPool, PooledDistribution};
use std::collections::BTreeMap;

/// Core, leaf and star-size parameters shared by every workload's
/// network (the Figure 3 regime): C = 0.5, L = 0.2, λ = 3.
pub const CORE: f64 = 0.5;
/// Leaf fraction `L`.
pub const LEAVES: f64 = 0.2;
/// Star-size Poisson mean `λ`.
pub const LAMBDA: f64 = 3.0;

/// The PALU generator for a `nodes`-node network with core exponent
/// `alpha`, built the way `palu-cli simulate` builds it.
pub fn generator(nodes: u64, alpha: f64) -> PaluGenerator {
    palu::PaluParams::from_core_leaf_fractions(CORE, LEAVES, LAMBDA, alpha, 0.5)
        .and_then(|p| p.generator(nodes))
        .expect("workload parameters are a valid PALU model")
}

/// Candidate input seeds tried by [`conditioned_seed`] before it gives
/// up.
const MAX_DRAWS: u64 = 100_000;

/// The input seed of a workload: the first child seed of the workload
/// seed whose input `accept`s. Workloads condition their input on its
/// size this way, so that different workload seeds give inputs of the
/// same cost; without it a heavy-tailed network's edge count alone
/// varies several-fold from seed to seed.
pub fn conditioned_seed(seed: u64, mut accept: impl FnMut(u64) -> bool) -> u64 {
    let seq = SeedSequence::new(seed);
    (0..MAX_DRAWS)
        .map(|k| seq.child_seed(k))
        .find(|&s| accept(s))
        .expect("some candidate input meets the workload's size condition")
}

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `1/s`, `count`.
    pub unit: &'static str,
}

/// Build a [`Metric`].
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What one repetition of a workload measured. A child process prints
/// it as one `perfbench-rep key=value …` line; list values are
/// comma-separated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rep {
    /// Scalar measurements by name (always `setup_s`, `wall_s`,
    /// `peak_rss_mb`, `attempted`, `failed`).
    pub values: BTreeMap<String, f64>,
    /// Sample lists by name (e.g. per-query latencies).
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Fingerprint of the output's exact bits.
    pub digest: u64,
}

const REP_TAG: &str = "perfbench-rep";

impl Rep {
    /// Record a scalar.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// A recorded scalar, or NaN when absent.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(f64::NAN)
    }

    /// The one-line form a child process prints.
    pub fn to_line(&self) -> String {
        let mut line = format!("{REP_TAG} digest={:016x}", self.digest);
        for (k, v) in &self.values {
            line.push_str(&format!(" {k}={v:e}"));
        }
        for (k, vs) in &self.samples {
            let joined: Vec<String> = vs.iter().map(|v| format!("{v:e}")).collect();
            line.push_str(&format!(" {k}={}", joined.join(",")));
        }
        line
    }

    /// Parse the line printed by [`Rep::to_line`]; `sample_keys` names
    /// the list-valued keys.
    pub fn parse(line: &str, sample_keys: &[&str]) -> Option<Rep> {
        let mut fields = line.split_whitespace();
        if fields.next()? != REP_TAG {
            return None;
        }
        let mut rep = Rep::default();
        for field in fields {
            let (k, v) = field.split_once('=')?;
            if k == "digest" {
                rep.digest = u64::from_str_radix(v, 16).ok()?;
            } else if sample_keys.contains(&k) {
                let vs: Option<Vec<f64>> = v
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().ok())
                    .collect();
                rep.samples.insert(k.to_string(), vs?);
            } else {
                rep.values.insert(k.to_string(), v.parse().ok()?);
            }
        }
        Some(rep)
    }
}

/// Fingerprint of a pooled distribution's exact bits.
pub fn pooled_digest(p: &PooledDistribution) -> u64 {
    let bins = p
        .mean
        .iter()
        .zip(&p.sigma)
        .flat_map(|((d, m), s)| [d, m.to_bits(), s.to_bits()]);
    digest(bins.chain([p.windows, p.d_max]))
}

/// True when two pooled distributions agree bit for bit.
pub fn pooled_identical(a: &PooledDistribution, b: &PooledDistribution) -> bool {
    pooled_digest(a) == pooled_digest(b)
        && a.mean.values().len() == b.mean.values().len()
        && a.windows == b.windows
}

/// Windows of a capture that did not come out clean: every window
/// when the pooled distribution itself is malformed (wrong window
/// count, a non-finite or negative bin, mass not 1).
pub fn capture_failures(ft: &FaultTolerantPool, windows: usize) -> u64 {
    let p = &ft.pooled;
    let bins_ok = p
        .mean
        .values()
        .iter()
        .chain(&p.sigma)
        .all(|v| v.is_finite() && *v >= 0.0);
    let well_formed = bins_ok
        && p.windows == windows as u64
        && p.d_max > 0
        && (p.mean.total_mass() - 1.0).abs() < 1e-9;
    if !well_formed {
        return windows as u64;
    }
    (windows as u64).saturating_sub(ft.report.survivors) + ft.report.records.len() as u64
}

/// Draws timed by the RNG microloop.
const RNG_DRAWS: u64 = 20_000_000;

/// Time the xoshiro256++ uniform draw that packet synthesis makes
/// twice per packet; returns ns per draw.
pub fn rng_ns_per_draw(tr: &mut Tracer, seed: u64) -> f64 {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let ns = tr.span("rng.draw", 0, |tr| {
        let t0 = tr.wall_ns();
        let mut acc = 0.0f64;
        for _ in 0..RNG_DRAWS {
            acc += rng.gen::<f64>();
        }
        std::hint::black_box(acc);
        tr.wall_ns() - t0
    });
    ns as f64 / RNG_DRAWS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_line_round_trips() {
        let mut rep = Rep {
            digest: 0xdead_beef_0123_4567,
            ..Rep::default()
        };
        rep.set("wall_s", 1.25);
        rep.set("failed", 0.0);
        rep.samples
            .insert("query_ms".to_string(), vec![0.5, 1.0 / 3.0]);
        let line = rep.to_line();
        assert_eq!(Rep::parse(&line, &["query_ms"]), Some(rep));
        assert_eq!(Rep::parse("something else", &[]), None);
    }
}
