//! Packet synthesis from an underlying network.
//!
//! Each edge of the underlying network is a *conversation*: a pair of
//! hosts that in general "feel like talking" (Section I). A packet is
//! one observed datagram on one conversation, in one direction. The
//! synthesizer draws packets by sampling conversations from an
//! intensity distribution; a window of `N_V` packets then contains a
//! conversation with probability `1 − (1 − w_e)^{N_V}` — which is how
//! the model's abstract edge-retention probability `p` emerges from a
//! concrete packet budget.

use crate::fault::WindowFault;
use palu_graph::graph::Graph;
use palu_stats::rng::Rng;

/// One observed packet: a directed source → destination datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Source host id.
    pub src: u32,
    /// Destination host id.
    pub dst: u32,
}

/// Per-conversation traffic intensity model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeIntensity {
    /// Every conversation equally likely per packet. The cleanest
    /// realization of the paper's unweighted model.
    Uniform,
    /// Heavy-tailed per-conversation rates: `w_e ∝ Pareto(shape)`.
    /// Produces the heavy-tailed *link packets* distribution of
    /// Figure 1 (per-link packet counts are themselves power-law in
    /// real traffic).
    Pareto {
        /// Pareto shape (smaller = heavier tail); must be > 0.
        shape: f64,
    },
}

/// Draws packets from a network's conversations.
#[derive(Debug, Clone)]
pub struct PacketSynthesizer {
    /// Conversation endpoints (one per underlying edge).
    conversations: Vec<(u32, u32)>,
    /// Cumulative intensity table for weighted sampling; empty under
    /// [`EdgeIntensity::Uniform`], whose index is computed directly
    /// ([`uniform_index`]).
    cumulative: Vec<f64>,
    intensity: EdgeIntensity,
}

/// The conversation a uniform draw `x = u·E` (`u ∈ [0, 1)`) lands on,
/// among `e` equally likely conversations.
///
/// This is `partition_point(|c| c < x)` on the uniform cumulative table
/// `[1, 2, …, e]`, clamped to `e − 1`, without the table: entry `k`
/// holds exactly `k + 1` (every integer up to 2⁵³ is an `f64`), so the
/// number of entries below `x` is `⌈x⌉ − 1`, or 0 at `x = 0`. One
/// memory access per packet instead of `log₂ e` (DESIGN.md §4n).
#[inline]
pub fn uniform_index(x: f64, e: usize) -> usize {
    (x.ceil() as usize)
        .saturating_sub(1)
        .min(e.saturating_sub(1))
}

impl PacketSynthesizer {
    /// Build a synthesizer over `g`'s edges.
    ///
    /// For [`EdgeIntensity::Pareto`], per-edge weights are drawn once
    /// here (they are a property of the underlying network, constant
    /// across windows — the paper's premise that the underlying network
    /// is fixed while windows vary). [`EdgeIntensity::Uniform`] draws
    /// nothing and keeps no table.
    ///
    /// An edgeless `g` gives an empty synthesizer whose draws fail
    /// with [`WindowFault::EmptySynthesizer`].
    ///
    /// # Panics
    ///
    /// Panics if the Pareto shape is not positive.
    pub fn new<R: Rng + ?Sized>(g: &Graph, intensity: EdgeIntensity, rng: &mut R) -> Self {
        let conversations: Vec<(u32, u32)> = g.edges().to_vec();
        let cumulative = match intensity {
            EdgeIntensity::Uniform => Vec::new(),
            EdgeIntensity::Pareto { shape } => {
                assert!(shape > 0.0, "Pareto shape must be positive");
                let mut cumulative =
                    Vec::with_capacity(palu_sparse::admitted_capacity(conversations.len()));
                let mut acc = 0.0;
                for _ in 0..conversations.len() {
                    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                    acc += u.powf(-1.0 / shape); // Pareto(scale=1, shape)
                    cumulative.push(acc);
                }
                cumulative
            }
        };
        PacketSynthesizer {
            conversations,
            cumulative,
            intensity,
        }
    }

    /// Number of conversations (underlying edges).
    pub fn n_conversations(&self) -> usize {
        self.conversations.len()
    }

    /// The intensity model in use.
    pub fn intensity(&self) -> EdgeIntensity {
        self.intensity
    }

    /// Draw one packet: pick a conversation by intensity, orient it
    /// uniformly (internet links carry traffic both ways; the paper's
    /// model is undirected so direction is symmetric noise).
    ///
    /// Each packet consumes one `f64` (the conversation) then one
    /// `bool` (the direction).
    ///
    /// # Errors
    ///
    /// [`WindowFault::EmptySynthesizer`] when there are no
    /// conversations to draw from — a typed fault the pipeline's
    /// quarantine machinery can classify, rather than a panic.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Packet, WindowFault> {
        let total = self.total()?;
        let e = self.conversations.len();
        Ok(match self.intensity {
            EdgeIntensity::Uniform => self.draw_with(rng, total, |x| uniform_index(x, e)),
            EdgeIntensity::Pareto { .. } => self.draw_with(rng, total, |x| self.weighted_index(x)),
        })
    }

    /// Draw `n` packets into a vector.
    ///
    /// # Errors
    ///
    /// Propagates [`PacketSynthesizer::draw`]'s fault.
    pub fn draw_many<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n: usize,
    ) -> Result<Vec<Packet>, WindowFault> {
        let mut out = Vec::new();
        self.draw_many_into(rng, n, &mut out)?;
        Ok(out)
    }

    /// Draw `n` packets into a caller-provided buffer, clearing it
    /// first. Consumes the RNG in exactly the same order as `n` calls
    /// of [`PacketSynthesizer::draw`], so a worker that reuses one
    /// buffer across windows produces bit-identical packets to one
    /// that allocates fresh vectors. The intensity is resolved once
    /// per call, not per packet. On a fault the buffer is empty.
    ///
    /// # Errors
    ///
    /// Propagates [`PacketSynthesizer::draw`]'s fault.
    // lint:hot
    pub fn draw_many_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n: usize,
        out: &mut Vec<Packet>,
    ) -> Result<(), WindowFault> {
        out.clear();
        if n == 0 {
            return Ok(());
        }
        let total = self.total()?;
        let e = self.conversations.len();
        out.reserve(palu_sparse::admitted_capacity(n));
        match self.intensity {
            EdgeIntensity::Uniform => {
                for _ in 0..n {
                    out.push(self.draw_with(rng, total, |x| uniform_index(x, e)));
                }
            }
            EdgeIntensity::Pareto { .. } => {
                for _ in 0..n {
                    out.push(self.draw_with(rng, total, |x| self.weighted_index(x)));
                }
            }
        }
        Ok(())
    }

    /// What a draw's `u ∈ [0, 1)` is scaled by: `E` under
    /// [`EdgeIntensity::Uniform`] (exactly the last entry of the
    /// `[1, …, E]` table it stands for), the summed weight under
    /// [`EdgeIntensity::Pareto`].
    fn total(&self) -> Result<f64, WindowFault> {
        let total = match self.intensity {
            EdgeIntensity::Uniform => {
                (!self.conversations.is_empty()).then_some(self.conversations.len() as f64)
            }
            EdgeIntensity::Pareto { .. } => self.cumulative.last().copied(),
        };
        total.ok_or(WindowFault::EmptySynthesizer)
    }

    /// One packet: the conversation `index(u·total)`, then its
    /// direction.
    #[inline]
    fn draw_with<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        total: f64,
        index: impl Fn(f64) -> usize,
    ) -> Packet {
        let (u, v) = self.conversations[index(rng.gen::<f64>() * total)];
        if rng.gen::<bool>() {
            Packet { src: u, dst: v }
        } else {
            Packet { src: v, dst: u }
        }
    }

    /// The weighted conversation for `x ∈ [0, total]`: the first
    /// cumulative entry not below `x`.
    #[inline]
    fn weighted_index(&self, x: f64) -> usize {
        self.cumulative
            .partition_point(|&c| c < x)
            .min(self.conversations.len() - 1)
    }

    /// The effective edge-retention probability `p` a window of `n_v`
    /// packets realizes under *uniform* intensity:
    /// `p = 1 − (1 − 1/E)^{N_V} ≈ 1 − e^{−N_V/E}`.
    ///
    /// This is the bridge between the packet-budget view of Section II
    /// and the `p`-parameter view of Sections III–V.
    pub fn effective_p_uniform(&self, n_v: u64) -> f64 {
        let e = self.n_conversations() as f64;
        1.0 - (-(n_v as f64) / e).exp()
    }

    /// Number of packets needed for a target retention probability `p`
    /// under uniform intensity: `N_V = −E·ln(1 − p)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn packets_for_p(&self, p: f64) -> u64 {
        assert!((0.0..1.0).contains(&p), "p must be in [0,1), got {p}");
        let e = self.n_conversations() as f64;
        (-e * (1.0 - p).ln()).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palu_graph::graph::Graph;
    use palu_stats::rng::Xoshiro256pp;

    fn ring(n: u32) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        g
    }

    #[test]
    fn edgeless_network_draws_a_typed_fault() {
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        for intensity in [EdgeIntensity::Uniform, EdgeIntensity::Pareto { shape: 1.2 }] {
            let syn = PacketSynthesizer::new(&Graph::with_nodes(5), intensity, &mut rng);
            assert_eq!(syn.n_conversations(), 0);
            assert_eq!(syn.draw(&mut rng), Err(WindowFault::EmptySynthesizer));
            let mut out = vec![Packet { src: 1, dst: 2 }; 3];
            assert_eq!(
                syn.draw_many_into(&mut rng, 10, &mut out),
                Err(WindowFault::EmptySynthesizer)
            );
            assert!(out.is_empty(), "{intensity:?}: no stale packets");
            // Zero packets are drawable from nothing.
            assert_eq!(syn.draw_many(&mut rng, 0), Ok(Vec::new()));
        }
    }

    #[test]
    fn packets_use_real_conversations() {
        let g = ring(10);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let syn = PacketSynthesizer::new(&g, EdgeIntensity::Uniform, &mut rng);
        assert_eq!(syn.n_conversations(), 10);
        let edges: std::collections::HashSet<(u32, u32)> = g
            .edges()
            .iter()
            .flat_map(|&(u, v)| [(u, v), (v, u)])
            .collect();
        for _ in 0..1000 {
            let p = syn.draw(&mut rng).unwrap();
            assert!(edges.contains(&(p.src, p.dst)), "{p:?} not an edge");
        }
    }

    #[test]
    fn uniform_intensity_is_uniform() {
        let g = ring(8);
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let syn = PacketSynthesizer::new(&g, EdgeIntensity::Uniform, &mut rng);
        let n = 80_000;
        let mut counts = [0u32; 8];
        for p in syn.draw_many(&mut rng, n).unwrap() {
            // Identify the ring edge by its lower endpoint (mod wrap).
            let key = if (p.src + 1) % 8 == p.dst {
                p.src
            } else {
                p.dst
            };
            counts[key as usize] += 1;
        }
        let expected = n as f64 / 8.0;
        for (i, &c) in counts.iter().enumerate() {
            let se = (expected * (1.0 - 1.0 / 8.0)).sqrt();
            assert!(
                (c as f64 - expected).abs() < 5.0 * se,
                "edge {i}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn draw_many_into_matches_draw_many_and_clears() {
        let g = ring(16);
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let syn = PacketSynthesizer::new(&g, EdgeIntensity::Uniform, &mut rng);
        let mut a = Xoshiro256pp::seed_from_u64(10);
        let mut b = Xoshiro256pp::seed_from_u64(10);
        let fresh = syn.draw_many(&mut a, 500).unwrap();
        let mut reused = vec![Packet { src: 0, dst: 0 }; 7];
        syn.draw_many_into(&mut b, 500, &mut reused).unwrap();
        assert_eq!(fresh, reused);
        // Reuse across calls stays seed-determined, stale contents
        // never leak through.
        let mut c = Xoshiro256pp::seed_from_u64(10);
        syn.draw_many_into(&mut c, 500, &mut reused).unwrap();
        assert_eq!(fresh, reused);
    }

    #[test]
    fn both_directions_occur() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(0, 1);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let syn = PacketSynthesizer::new(&g, EdgeIntensity::Uniform, &mut rng);
        let packets = syn.draw_many(&mut rng, 1000).unwrap();
        let forward = packets.iter().filter(|p| p.src == 0).count();
        assert!(forward > 400 && forward < 600, "forward {forward}");
    }

    #[test]
    fn pareto_intensity_skews_link_counts() {
        let g = ring(1000);
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let uni = PacketSynthesizer::new(&g, EdgeIntensity::Uniform, &mut rng);
        let par = PacketSynthesizer::new(&g, EdgeIntensity::Pareto { shape: 1.2 }, &mut rng);
        let count_max = |syn: &PacketSynthesizer, rng: &mut Xoshiro256pp| {
            let mut counts = std::collections::HashMap::new();
            for p in syn.draw_many(rng, 50_000).unwrap() {
                *counts
                    .entry((p.src.min(p.dst), p.src.max(p.dst)))
                    .or_insert(0u32) += 1;
            }
            counts.values().copied().max().unwrap()
        };
        let m_uni = count_max(&uni, &mut rng);
        let m_par = count_max(&par, &mut rng);
        assert!(
            m_par > 3 * m_uni,
            "pareto max link count {m_par} should dwarf uniform {m_uni}"
        );
    }

    #[test]
    #[should_panic(expected = "Pareto shape")]
    fn pareto_shape_validated() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        PacketSynthesizer::new(&ring(4), EdgeIntensity::Pareto { shape: 0.0 }, &mut rng);
    }

    #[test]
    fn effective_p_round_trips_packet_budget() {
        let g = ring(5000);
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let syn = PacketSynthesizer::new(&g, EdgeIntensity::Uniform, &mut rng);
        for &p in &[0.1, 0.5, 0.9] {
            let n_v = syn.packets_for_p(p);
            let realized = syn.effective_p_uniform(n_v);
            assert!((realized - p).abs() < 0.01, "p {p}: realized {realized}");
        }
    }

    #[test]
    fn effective_p_matches_empirical_coverage() {
        // Draw a window and check the fraction of distinct
        // conversations seen matches 1 − e^{−N_V/E}.
        let g = ring(2000);
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let syn = PacketSynthesizer::new(&g, EdgeIntensity::Uniform, &mut rng);
        let n_v = 3000u64;
        let packets = syn.draw_many(&mut rng, n_v as usize).unwrap();
        let distinct: std::collections::HashSet<_> = packets
            .iter()
            .map(|p| (p.src.min(p.dst), p.src.max(p.dst)))
            .collect();
        let coverage = distinct.len() as f64 / 2000.0;
        let predicted = syn.effective_p_uniform(n_v);
        assert!(
            (coverage - predicted).abs() < 0.03,
            "coverage {coverage} vs predicted {predicted}"
        );
    }

    #[test]
    #[should_panic(expected = "p must be in")]
    fn packets_for_p_validates() {
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let syn = PacketSynthesizer::new(&ring(4), EdgeIntensity::Uniform, &mut rng);
        syn.packets_for_p(1.0);
    }
}
