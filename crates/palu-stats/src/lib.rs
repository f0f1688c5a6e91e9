//! Numerical and statistical substrate for the PALU network-traffic model.
//!
//! This crate implements, from scratch, every piece of numerical machinery
//! the paper *Hybrid Power-Law Models of Network Traffic* (Devlin, Kepner,
//! Luo, Meger, 2021) relies on:
//!
//! * [`special`] — the Riemann zeta function `ζ(α)` (the paper uses
//!   MATLAB's `zeta(x)`), the Hurwitz zeta function used by the modified
//!   Zipf–Mandelbrot normalization, and log-gamma/log-factorial helpers
//!   for Poisson terms such as `(λp)^d / d!`.
//! * [`distributions`] — exact discrete distributions used by the model's
//!   derivation (Section V): Poisson (star sizes), Binomial (edge
//!   thinning), Geometric (the Section VI approximation), and the discrete
//!   power law (zeta distribution) describing the preferential-attachment
//!   core.
//! * [`histogram`] and [`logbin`] — degree histograms and the binary
//!   logarithmic pooling (`d_i = 2^i`) producing the differential
//!   cumulative probabilities `D(d_i)` that every figure in the paper
//!   plots.
//! * [`summary`] — numerically stable mean/variance accumulation for the
//!   per-bin `D(d_i) ± σ(d_i)` statistics over consecutive windows.
//! * [`solve`], [`optimize`], [`regression`] — root finders, a
//!   Nelder–Mead simplex, golden-section search, and (weighted) linear
//!   regression used by the Section IV-B estimation pipeline and the
//!   Zipf–Mandelbrot fitter.
//! * [`ks`] — Kolmogorov–Smirnov distances for discrete data.
//! * [`mle`] — a Clauset–Shalizi–Newman single-exponent power-law MLE
//!   with KS-based `x_min` selection: the classical "webcrawl" baseline
//!   the paper contrasts its hybrid model against.
//! * [`rng`] — deterministic seeding utilities so every experiment in the
//!   reproduction is replayable.
//! * [`boot`] — the bootstrap driver: draws stay in order on the
//!   caller's RNG, refits spread across cores.
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

/// Bootstrap driver: serial draws, parallel refits, index-ordered output.
pub mod boot;
/// Exact samplers for the distributions the PALU model composes.
pub mod distributions;
/// The shared error type for statistical routines.
pub mod error;
/// Dense integer histograms with tail accumulation.
pub mod histogram;
/// Kolmogorov–Smirnov statistics and bootstrapped p-values.
pub mod ks;
/// Logarithmic pooling of degree histograms (the paper's binning).
pub mod logbin;
/// Maximum-likelihood estimation for discrete power laws.
pub mod mle;
/// Likelihood-ratio and information-criterion model comparison.
pub mod model_select;
/// Derivative-free scalar/bivariate minimizers for fit objectives.
pub mod optimize;
/// Least-squares regression in log space.
pub mod regression;
/// Deterministic fit-restart ladder (perturb → profile → OLS fallback).
pub mod restart;
/// Deterministic from-scratch RNG (SplitMix64 + xoshiro256++).
pub mod rng;
/// Bracketing root solvers for implicit parameter equations.
pub mod solve;
/// Special functions (zeta, polygamma-free Hurwitz sums) used by the fits.
pub mod special;
/// Streaming summary statistics (moments, quantiles).
pub mod summary;

pub use error::StatsError;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StatsError>;
