//! A simulated trunk-line observatory.
//!
//! Figure 3 of the paper shows "measured differential cumulative
//! probabilities spanning different locations, dates, and packet
//! windows". An [`Observatory`] is one such vantage point: an
//! underlying PALU network, a traffic model, and a packet budget per
//! window. Consecutive calls to [`Observatory::next_window`] replay the
//! role of consecutive capture intervals `t`.

use crate::fault::WindowFault;
use crate::packets::{EdgeIntensity, PacketSynthesizer};
use crate::window::PacketWindow;
use palu_graph::palu_gen::{PaluGenerator, UnderlyingNetwork};
use palu_stats::rng::SeedSequence;

/// Descriptive metadata for an observatory (mirrors the panel labels
/// of Figure 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservatoryConfig {
    /// Vantage-point name, e.g. "Synthetic-Tokyo".
    pub name: String,
    /// Nominal capture date label.
    pub date: String,
    /// Packets per window (`N_V`).
    pub n_v: u64,
}

/// A synthetic vantage point producing consecutive packet windows.
///
/// Window `t` is generated from its own derived RNG stream, so windows
/// are *randomly accessible*: `window_at(t)` returns the same window
/// whether it is generated first, last, or in parallel with others.
pub struct Observatory {
    config: ObservatoryConfig,
    underlying: UnderlyingNetwork,
    synthesizer: PacketSynthesizer,
    packet_seq: SeedSequence,
    next_t: u64,
}

impl Observatory {
    /// Stand up an observatory over a freshly generated underlying
    /// network.
    ///
    /// `seed` drives three independent streams (network generation,
    /// per-edge intensities, packet arrivals) via [`SeedSequence`], so
    /// two observatories with the same arguments are bit-identical.
    pub fn new(
        config: ObservatoryConfig,
        generator: &PaluGenerator,
        intensity: EdgeIntensity,
        seed: u64,
    ) -> Self {
        let seq = SeedSequence::new(seed);
        let underlying = generator.generate(&mut seq.rng(palu_stats::rng::streams::CORE));
        let synthesizer = PacketSynthesizer::new(
            &underlying.graph,
            intensity,
            &mut seq.rng(palu_stats::rng::streams::FITTING),
        );
        Observatory {
            config,
            underlying,
            synthesizer,
            packet_seq: SeedSequence::new(seq.child_seed(palu_stats::rng::streams::PACKETS)),
            next_t: 0,
        }
    }

    /// The observatory's metadata.
    pub fn config(&self) -> &ObservatoryConfig {
        &self.config
    }

    /// The underlying network being observed.
    pub fn underlying(&self) -> &UnderlyingNetwork {
        &self.underlying
    }

    /// The packet synthesizer (for effective-`p` queries).
    pub fn synthesizer(&self) -> &PacketSynthesizer {
        &self.synthesizer
    }

    /// Effective edge-retention probability `p` of one window under
    /// uniform intensity.
    pub fn effective_p(&self) -> f64 {
        self.synthesizer.effective_p_uniform(self.config.n_v)
    }

    /// Synthesize the raw packets of window `t` — the synthesize stage
    /// of the pipeline, split out so parallel workers (and stage
    /// instrumentation) can run it separately from window assembly.
    /// Deterministic random access: window `t` draws from its own
    /// splittable RNG stream ([`SeedSequence::window_rng`]), so the
    /// result is independent of which other windows were generated,
    /// in what order, or on which thread.
    pub fn packets_at(&self, t: u64) -> Result<Vec<crate::packets::Packet>, WindowFault> {
        self.packets_at_retry(t, 0)
    }

    /// Synthesize window `t` from its `attempt`-th RNG sub-stream.
    ///
    /// Attempt `0` is exactly [`Observatory::packets_at`]. Attempt
    /// `k ≥ 1` draws from stream `k` of the `t`-th child of the
    /// dedicated retry stream
    /// ([`palu_stats::rng::streams::RETRY`]), so retry `k` of window
    /// `t` always consumes the same derived seed — the fault-tolerant
    /// pipeline's recovery is replayable regardless of which thread
    /// retries, in what order, or how many other windows faulted.
    ///
    /// # Errors
    ///
    /// Propagates the synthesizer's [`WindowFault`], and reports
    /// [`WindowFault::BudgetUnrepresentable`] when `N_V` exceeds this
    /// platform's `usize`.
    pub fn packets_at_retry(
        &self,
        t: u64,
        attempt: u32,
    ) -> Result<Vec<crate::packets::Packet>, WindowFault> {
        let mut out = Vec::new();
        self.packets_at_retry_into(t, attempt, &mut out)?;
        Ok(out)
    }

    /// [`Observatory::packets_at_retry`] into a caller-provided buffer
    /// (cleared first). The RNG stream derivation and draw order are
    /// identical, so a worker reusing one buffer across windows and
    /// retries preserves the bit-identity contract. After an `Err` the
    /// buffer's contents are unspecified.
    ///
    /// # Errors
    ///
    /// Same as [`Observatory::packets_at_retry`].
    pub fn packets_at_retry_into(
        &self,
        t: u64,
        attempt: u32,
        out: &mut Vec<crate::packets::Packet>,
    ) -> Result<(), WindowFault> {
        let mut rng = if attempt == 0 {
            self.packet_seq.window_rng(t)
        } else {
            let retry_seq =
                SeedSequence::new(self.packet_seq.child_seed(palu_stats::rng::streams::RETRY));
            SeedSequence::new(retry_seq.child_seed(t)).rng(attempt as u64)
        };
        let n_v =
            usize::try_from(self.config.n_v).map_err(|_| WindowFault::BudgetUnrepresentable {
                n_v: self.config.n_v,
            })?;
        self.synthesizer.draw_many_into(&mut rng, n_v, out)
    }

    /// The window at index `t` — deterministic random access: the same
    /// `(observatory seed, t)` always gives the same window.
    ///
    /// # Panics
    ///
    /// Panics on a synthesizer fault — an edgeless underlying network
    /// has no conversations to draw from; use
    /// [`Observatory::packets_at`] plus [`PacketWindow::from_packets`]
    /// (or the pipeline's capture engine) for the fault-classified
    /// path.
    pub fn window_at(&self, t: u64) -> PacketWindow {
        let packets = self
            .packets_at(t)
            .unwrap_or_else(|e| panic!("window {t}: {e}"));
        PacketWindow::from_packets(t, &packets)
    }

    /// Reserve the next `n` consecutive window indices, returning the
    /// first. The observatory's window counter advances exactly as if
    /// the windows had been captured; callers (the parallel pipeline)
    /// generate the reserved windows themselves via
    /// [`Observatory::window_at`] / [`Observatory::packets_at`].
    pub fn advance(&mut self, n: usize) -> u64 {
        let start = self.next_t;
        self.next_t += n as u64;
        start
    }

    /// Reposition the window counter at index `t`. Window streams are
    /// splittable by index, so seeking is free — a journal resume (or
    /// the kill-point sweep test) rewinds one observatory instead of
    /// rebuilding the synthesizer per replay.
    pub fn seek(&mut self, t: u64) {
        self.next_t = t;
    }

    /// Capture the next consecutive window of `N_V` packets.
    pub fn next_window(&mut self) -> PacketWindow {
        let t = self.next_t;
        self.next_t += 1;
        self.window_at(t)
    }

    /// Capture `n` consecutive windows.
    pub fn windows(&mut self, n: usize) -> Vec<PacketWindow> {
        (0..n).map(|_| self.next_window()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_generator() -> PaluGenerator {
        PaluGenerator::new(2_000, 500, 300, 2.0, 1.5).unwrap()
    }

    fn make(seed: u64, n_v: u64) -> Observatory {
        Observatory::new(
            ObservatoryConfig {
                name: "test".into(),
                date: "2026-07-06".into(),
                n_v,
            },
            &small_generator(),
            EdgeIntensity::Uniform,
            seed,
        )
    }

    #[test]
    fn windows_have_exact_packet_budget() {
        let mut obs = make(1, 5_000);
        let w = obs.next_window();
        assert_eq!(w.n_v(), 5_000);
        assert_eq!(w.aggregates().valid_packets, 5_000);
        assert_eq!(w.t(), 0);
        let w2 = obs.next_window();
        assert_eq!(w2.t(), 1);
    }

    #[test]
    fn consecutive_windows_differ_but_share_structure() {
        let mut obs = make(2, 5_000);
        let ws = obs.windows(3);
        assert_eq!(ws.len(), 3);
        // Different packets per window…
        assert_ne!(ws[0].matrix(), ws[1].matrix());
        // …but similar aggregate scale (same underlying network).
        let l0 = ws[0].aggregates().unique_links as f64;
        let l1 = ws[1].aggregates().unique_links as f64;
        assert!((l0 - l1).abs() / l0 < 0.1, "links {l0} vs {l1}");
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = make(3, 2_000);
        let mut b = make(3, 2_000);
        assert_eq!(a.next_window().matrix(), b.next_window().matrix());
        let mut c = make(4, 2_000);
        assert_ne!(a.next_window().matrix(), c.next_window().matrix());
    }

    #[test]
    fn window_at_is_random_access() {
        let obs = make(10, 2_000);
        let w5_first = obs.window_at(5);
        let w0 = obs.window_at(0);
        let w5_again = obs.window_at(5);
        assert_eq!(w5_first.matrix(), w5_again.matrix());
        assert_ne!(w0.matrix(), w5_first.matrix());
        assert_eq!(w5_first.t(), 5);
    }

    #[test]
    fn packets_at_is_the_synthesize_stage_of_window_at() {
        let obs = make(12, 2_000);
        let packets = obs.packets_at(3).unwrap();
        assert_eq!(packets.len(), 2_000);
        let assembled = PacketWindow::from_packets(3, &packets);
        assert_eq!(assembled.matrix(), obs.window_at(3).matrix());
    }

    #[test]
    fn retry_streams_are_deterministic_and_distinct() {
        let obs = make(15, 2_000);
        // Attempt 0 is exactly packets_at.
        assert_eq!(
            obs.packets_at_retry(4, 0).unwrap(),
            obs.packets_at(4).unwrap()
        );
        // Retry k of window t is replayable…
        let r1 = obs.packets_at_retry(4, 1).unwrap();
        assert_eq!(r1, obs.packets_at_retry(4, 1).unwrap());
        assert_eq!(r1.len(), 2_000);
        // …distinct from the primary draw and from other attempts…
        assert_ne!(r1, obs.packets_at(4).unwrap());
        assert_ne!(r1, obs.packets_at_retry(4, 2).unwrap());
        // …and distinct across windows.
        assert_ne!(r1, obs.packets_at_retry(5, 1).unwrap());
    }

    #[test]
    fn packets_at_retry_into_matches_allocating_path() {
        let obs = make(15, 2_000);
        let mut buf = Vec::new();
        // Reuse one buffer across windows and retries; every fill must
        // match the allocating variant bit-for-bit.
        for (t, attempt) in [(0, 0), (4, 1), (4, 2), (5, 1), (0, 0)] {
            obs.packets_at_retry_into(t, attempt, &mut buf).unwrap();
            assert_eq!(
                buf,
                obs.packets_at_retry(t, attempt).unwrap(),
                "({t},{attempt})"
            );
        }
    }

    #[test]
    fn advance_reserves_consecutive_indices() {
        let mut obs = make(13, 1_000);
        assert_eq!(obs.advance(4), 0);
        assert_eq!(obs.advance(0), 4);
        assert_eq!(obs.advance(2), 4);
        // The next captured window lands after the reservation.
        assert_eq!(obs.next_window().t(), 6);
    }

    #[test]
    fn effective_p_grows_with_window_size() {
        let small = make(5, 1_000);
        let large = make(5, 50_000);
        assert!(small.effective_p() < large.effective_p());
        assert!(large.effective_p() <= 1.0);
        assert!(small.effective_p() > 0.0);
    }

    #[test]
    fn observed_hosts_are_real_hosts() {
        let mut obs = make(6, 3_000);
        let w = obs.next_window();
        let n = obs.underlying().graph.n_nodes();
        assert!(w.matrix().n_rows() <= n);
        assert!(w.matrix().n_cols() <= n);
    }
}
