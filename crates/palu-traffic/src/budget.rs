//! Resource-budget governor for bounded-memory captures
//! (DESIGN.md §4d).
//!
//! A large `(n_v, windows, threads)` configuration allocates unchecked
//! — COO/CSR builds, per-window histograms, journal replay buffers —
//! until the OS kills the process, losing the very audit trail the
//! fault machinery exists to keep. This module gives the pipeline the
//! discipline of a production collector running under a hard per-node
//! memory envelope, in three layers:
//!
//! 1. **Admission control.** Before any window is synthesized, a
//!    [`CostModel`] projects the peak accounted footprint from the
//!    window geometry. An infeasible configuration is refused with a
//!    typed [`BudgetFault::AdmissionRefused`] carrying the estimate
//!    and, where one exists, a [`SuggestedConfig`] that fits.
//! 2. **Backpressure.** A [`ResourceBudget`] tracks accounted bytes;
//!    the capture engine charges each window's projected footprint
//!    when it enters the in-flight range and releases it when the
//!    window folds, and a window the hard watermark refuses waits for
//!    an earlier one to fold. Every ledger call happens at a fold, in
//!    window order — reruns at a fixed budget reproduce the same
//!    schedule, and the pooled output is bit-identical to an
//!    unbudgeted run (the merge stays strictly window-ordered).
//! 3. **Graceful degradation.** An ordered [`DegradationRung`] ladder
//!    — coarsen log-binning, halve the in-flight range, cut it to one
//!    window — engages one rung per breached checkpoint, each recorded
//!    as a typed [`DegradationEvent`] in the
//!    [`FaultReport`](crate::fault::FaultReport). The hard watermark
//!    produces a clean typed abort, never an OOM kill.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use palu_stats::histogram::DegreeHistogram;

// The sanctioned capacity clamp lives in palu-sparse (the bottom of
// the dependency stack) so the sparse builders can use it too;
// re-export it as part of the budget vocabulary.
pub use palu_sparse::{admitted_capacity, MAX_UNACCOUNTED_RESERVE};

/// Bytes of one synthesized packet pair (`(NodeId, NodeId)`).
const PAIR_BYTES: u64 = 8;
/// Bytes of one COO triplet (row + col + value).
const COO_TRIPLET_BYTES: u64 = 16;
/// Modelled bytes per B-tree histogram entry (key + value + amortized
/// node overhead) — matches `DegreeHistogram::approx_bytes`.
const BTREE_ENTRY_BYTES: u64 = 48;
/// Encoded size of one Welford accumulator.
const WELFORD_BYTES: u64 = 24;
/// Upper bound on log-bin count: degrees are `u64`, so at most 64
/// power-of-two bins; the vector's capacity may double past the
/// length, hence the 2× in the fixed slot term below.
const MAX_BINS: u64 = 64;
/// Fixed overhead a completed window holds until it folds: the
/// `BinStats` vector at doubled capacity, struct headers, and the
/// optional fault record.
const SLOT_FIXED_BYTES: u64 = 2 * MAX_BINS * WELFORD_BYTES + 1024;
/// Fixed overhead of the merge-side state (pooled `BinStats`,
/// histogram and report headers).
const MERGE_FIXED_BYTES: u64 = 2 * MAX_BINS * WELFORD_BYTES + 1024;
/// Windows the capture engine's in-flight range holds beyond one per
/// requested thread, so a worker that finishes ahead of the window at
/// the fold cursor starts the next one instead of waiting for it. On
/// `capture-steady` no slack cost 16% of the wall time and one window
/// measured as fast as two or more (DESIGN.md §4d).
pub(crate) const RANGE_SLACK: usize = 1;
/// Extra multiples of `window_bytes` a ballast-injected window
/// accounts for, simulating memory pressure without allocating.
pub const BALLAST_WINDOW_MULTIPLIER: u64 = 3;

/// Accounted-bytes ledger with optional soft and hard watermarks.
///
/// The capture engine acquires projected footprints *before*
/// allocating and releases them as state is freed; only the
/// coordinating thread touches the ledger (at folds), so
/// the accounting — and every decision keyed to it — is deterministic
/// for a fixed budget. Atomics make the ledger `Sync` for the metrics
/// reader, not for contended updates.
#[derive(Debug)]
pub struct ResourceBudget {
    soft: Option<u64>,
    hard: Option<u64>,
    accounted: AtomicU64,
    peak: AtomicU64,
}

impl ResourceBudget {
    /// A budget with no watermarks: accounting runs, nothing trips.
    pub fn unbounded() -> Self {
        Self::with_watermarks(None, None)
    }

    /// A budget with a hard limit and the soft watermark defaulted to
    /// 3/4 of it — backpressure engages before the cliff.
    pub fn with_limit(hard: u64) -> Self {
        Self::with_watermarks(Some(hard / 4 * 3), Some(hard))
    }

    /// A budget with explicit watermarks. `soft` should be ≤ `hard`;
    /// breaching `soft` engages the degradation ladder, breaching
    /// `hard` fails the acquisition with a typed fault.
    pub fn with_watermarks(soft: Option<u64>, hard: Option<u64>) -> Self {
        ResourceBudget {
            soft,
            hard,
            accounted: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Account `bytes` more, failing with
    /// [`BudgetFault::HardWatermark`] (and rolling the ledger back) if
    /// the hard watermark would be breached. `window` tags the fault
    /// with the capture position for the audit trail. Returns the new
    /// accounted total.
    pub fn try_acquire(&self, bytes: u64, window: u64) -> Result<u64, BudgetFault> {
        let new = self
            .accounted
            .fetch_add(bytes, Ordering::Relaxed)
            .saturating_add(bytes);
        if let Some(limit) = self.hard {
            if new > limit {
                self.release(bytes);
                return Err(BudgetFault::HardWatermark {
                    accounted: new,
                    limit,
                    window,
                });
            }
        }
        self.peak.fetch_max(new, Ordering::Relaxed);
        Ok(new)
    }

    /// Return `bytes` to the ledger (saturating at zero).
    pub fn release(&self, bytes: u64) {
        // fetch_update with a total closure always succeeds.
        let _ = self
            .accounted
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes))
            });
    }

    /// Currently accounted bytes.
    pub fn accounted(&self) -> u64 {
        self.accounted.load(Ordering::Relaxed)
    }

    /// High-water mark of accounted bytes.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// The soft watermark, if any.
    pub fn soft(&self) -> Option<u64> {
        self.soft
    }

    /// The hard watermark, if any.
    pub fn hard(&self) -> Option<u64> {
        self.hard
    }

    /// True when accounted bytes currently exceed the soft watermark.
    pub fn soft_breached(&self) -> bool {
        self.soft.is_some_and(|s| self.accounted() > s)
    }
}

/// How the capture engine treats a configured budget.
#[derive(Debug, Clone, Copy)]
pub struct Governor<'a> {
    /// The ledger every acquisition goes through.
    pub budget: &'a ResourceBudget,
    /// When true (CLI `--admission`), refuse configurations whose
    /// *undegraded* projected peak exceeds the hard watermark. The
    /// floor check — "not even a fully degraded run fits" — always
    /// runs regardless.
    pub strict_admission: bool,
}

/// Typed budget failures. These surface as
/// [`PipelineError::Budget`](crate::fault::PipelineError) — a capture
/// under a budget ends in a clean typed error, never an OOM kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetFault {
    /// Admission control projected an infeasible peak footprint and
    /// refused the capture before any window was synthesized.
    AdmissionRefused {
        /// Projected peak accounted bytes at the requested geometry.
        estimated: u64,
        /// Projected peak with every degradation rung engaged — the
        /// least memory any schedule of this capture can run in.
        floor: u64,
        /// The hard watermark the projection was tested against.
        limit: u64,
        /// A feasible variant of the configuration, when one exists.
        suggestion: Option<SuggestedConfig>,
    },
    /// An acquisition breached the hard watermark mid-capture (after
    /// draining everything drainable).
    HardWatermark {
        /// Accounted bytes the acquisition would have reached.
        accounted: u64,
        /// The hard watermark.
        limit: u64,
        /// Window index the capture had reached.
        window: u64,
    },
}

impl fmt::Display for BudgetFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetFault::AdmissionRefused {
                estimated,
                floor,
                limit,
                suggestion,
            } => {
                write!(
                    f,
                    "admission refused: projected peak {estimated} B (degraded floor \
                     {floor} B) exceeds the memory budget of {limit} B"
                )?;
                if let Some(s) = suggestion {
                    write!(f, "; feasible: --threads {} with n_v {}", s.threads, s.n_v)?;
                }
                Ok(())
            }
            BudgetFault::HardWatermark {
                accounted,
                limit,
                window,
            } => write!(
                f,
                "hard watermark breached at window {window}: {accounted} B accounted \
                 against a budget of {limit} B"
            ),
        }
    }
}

impl Error for BudgetFault {}

/// A configuration variant admission control believes would fit the
/// budget, attached to [`BudgetFault::AdmissionRefused`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuggestedConfig {
    /// Suggested worker count.
    pub threads: u64,
    /// Suggested packets per window.
    pub n_v: u64,
}

/// Per-stage cost model projecting the peak accounted footprint of a
/// capture from its window geometry. All arithmetic saturates — an
/// overflowing projection reads as "infeasible", never wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Packets aggregated per window.
    pub n_v: u64,
    /// Node count of the underlying network (bounds matrix rows and
    /// histogram support).
    pub n_nodes: u64,
    /// Number of windows in the capture.
    pub windows: u64,
    /// Requested worker count; the in-flight range is one window
    /// wider.
    pub threads: u64,
}

/// Integer square root (Newton's method) — used for the
/// distinct-value bound on histogram support without touching floats.
fn isqrt(v: u64) -> u64 {
    if v < 2 {
        return v;
    }
    // Seed with v/2 ≥ √v (true for every v ≥ 2), then descend.
    let mut x = v;
    let mut y = v / 2;
    while y < x {
        x = y;
        y = (x + v / x) / 2;
    }
    x
}

/// Multiply by 5/4 (the safety factor on transient footprints),
/// saturating instead of shrinking when the product would overflow.
fn with_margin(base: u64) -> u64 {
    if base > u64::MAX / 5 {
        u64::MAX
    } else {
        base * 5 / 4
    }
}

impl CostModel {
    /// Upper bound on one histogram's support (distinct keys): the
    /// keys are distinct per-node values summing to at most `2·n_v`,
    /// so `k(k+1)/2 ≤ 2·n_v` bounds the support near `2·√n_v`; the
    /// node count and `2·n_v` bound it independently.
    pub fn hist_support(&self) -> u64 {
        let sqrt_bound = 2 * isqrt(self.n_v) + 2;
        sqrt_bound
            .min(self.n_nodes)
            .min(self.n_v.saturating_mul(2).max(1))
    }

    /// Bytes one window is charged from entering the in-flight range
    /// until it folds: packet pairs, the COO build, the CSR matrix,
    /// the per-window histogram and bin stats awaiting the fold, with
    /// a 25% safety margin.
    pub fn window_bytes(&self) -> u64 {
        let csr = palu_sparse::csr_footprint_bytes(self.n_nodes, self.n_v).unwrap_or(u64::MAX);
        let base = self
            .n_v
            .saturating_mul(PAIR_BYTES)
            .saturating_add(self.n_v.saturating_mul(COO_TRIPLET_BYTES))
            .saturating_add(csr)
            .saturating_add(self.hist_support().saturating_mul(BTREE_ENTRY_BYTES))
            .saturating_add(SLOT_FIXED_BYTES);
        with_margin(base)
    }

    /// Bytes of the merge-side state: the pooled stats plus the merged
    /// histogram, whose support is bounded by the per-window supports
    /// and by the `2·n_v` key range.
    pub fn merge_bytes(&self) -> u64 {
        let support = self
            .windows
            .saturating_mul(self.hist_support())
            .min(self.n_v.saturating_mul(2).max(1));
        support
            .saturating_mul(BTREE_ENTRY_BYTES)
            .saturating_add(MERGE_FIXED_BYTES)
    }

    /// Projected peak accounted bytes at `threads` requested workers
    /// (the undegraded schedule): each of the `threads + 1` windows of
    /// the in-flight range is charged
    /// [`CostModel::window_bytes`] until it folds, plus the merge-side
    /// state. Completed windows fold as soon as they are contiguous,
    /// so the peak does not grow with the capture's length.
    pub fn peak_bytes(&self, threads: u64) -> u64 {
        threads
            .saturating_add(RANGE_SLACK as u64)
            .saturating_mul(self.window_bytes())
            .saturating_add(self.merge_bytes())
    }

    /// Projected peak with every degradation rung engaged: a range of
    /// one window plus the merge-side state. No schedule of this
    /// capture can run in less; a hard watermark below this is refused
    /// at admission unconditionally.
    pub fn floor_bytes(&self) -> u64 {
        self.window_bytes().saturating_add(self.merge_bytes())
    }

    /// Admission check: returns the undegraded peak estimate, or the
    /// typed refusal. The floor check always runs when a hard
    /// watermark is set; `strict` additionally refuses configurations
    /// that would only fit by degrading.
    pub fn admit(&self, budget: &ResourceBudget, strict: bool) -> Result<u64, BudgetFault> {
        let estimated = self.peak_bytes(self.threads);
        let Some(limit) = budget.hard() else {
            return Ok(estimated);
        };
        let floor = self.floor_bytes();
        if floor > limit || (strict && estimated > limit) {
            return Err(BudgetFault::AdmissionRefused {
                estimated,
                floor,
                limit,
                suggestion: self.suggest(limit),
            });
        }
        Ok(estimated)
    }

    /// Search for a feasible variant of this configuration under
    /// `limit`: first fewer threads at the same geometry, then a
    /// smaller `n_v` at one thread. `None` when even one packet per
    /// window cannot fit.
    pub fn suggest(&self, limit: u64) -> Option<SuggestedConfig> {
        for t in (1..=self.threads.min(64)).rev() {
            let m = CostModel {
                threads: t,
                ..*self
            };
            if m.peak_bytes(t) <= limit && m.floor_bytes() <= limit {
                return Some(SuggestedConfig {
                    threads: t,
                    n_v: self.n_v,
                });
            }
        }
        let (mut lo, mut hi) = (0u64, self.n_v);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            let m = CostModel {
                n_v: mid,
                threads: 1,
                ..*self
            };
            if m.peak_bytes(1) <= limit && m.floor_bytes() <= limit {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        if lo == 0 {
            None
        } else {
            Some(SuggestedConfig {
                threads: 1,
                n_v: lo,
            })
        }
    }
}

/// One rung of the graceful-degradation ladder, in engagement order.
/// Mirrors the fit-restart ladder: each rung trades fidelity or
/// throughput for memory, and engagements are recorded as typed
/// events so a degraded capture is auditable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationRung {
    /// Coarsen the merged degree histogram to power-of-two bin
    /// representatives (the pooled `BinStats` is untouched, so the
    /// pooled distribution stays bit-identical to an ungoverned run).
    CoarsenBins,
    /// Halve the in-flight range's bound: half as many windows are
    /// charged, computing, or waiting to fold at once.
    ShrinkWorkers,
    /// Cut the in-flight range to one window, so each window folds
    /// before the next is charged.
    SpillPooled,
}

impl DegradationRung {
    /// Every rung, in engagement order.
    pub const ALL: [DegradationRung; 3] = [
        DegradationRung::CoarsenBins,
        DegradationRung::ShrinkWorkers,
        DegradationRung::SpillPooled,
    ];

    /// Stable kebab-case name for reports and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            DegradationRung::CoarsenBins => "coarsen_bins",
            DegradationRung::ShrinkWorkers => "shrink_workers",
            DegradationRung::SpillPooled => "spill_pooled",
        }
    }

    /// Stable wire code (append-only).
    pub fn code(&self) -> u8 {
        match self {
            DegradationRung::CoarsenBins => 0,
            DegradationRung::ShrinkWorkers => 1,
            DegradationRung::SpillPooled => 2,
        }
    }

    /// Inverse of [`DegradationRung::code`].
    pub fn from_code(code: u8) -> Option<DegradationRung> {
        DegradationRung::ALL
            .iter()
            .copied()
            .find(|r| r.code() == code)
    }
}

/// One recorded engagement of a degradation rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationEvent {
    /// Which rung engaged.
    pub rung: DegradationRung,
    /// Window index the capture had reached at the checkpoint.
    pub window: u64,
    /// Accounted bytes at the moment of engagement.
    pub accounted_bytes: u64,
}

/// Collapse a degree to its log-bin representative — the smallest
/// power of two ≥ `d` — so a coarsened histogram has at most 65 keys.
/// Idempotent: coarsening a coarsened key is the identity. Degree 0
/// (an invisible isolated node) keeps its own bin.
pub fn coarsen_degree(d: u64) -> u64 {
    if d == 0 {
        return 0;
    }
    d.checked_next_power_of_two().unwrap_or(u64::MAX)
}

/// Rebuild a histogram with every key collapsed through
/// [`coarsen_degree`] (counts are preserved: `total()` is unchanged).
pub fn coarsen_histogram(h: &DegreeHistogram) -> DegreeHistogram {
    let mut out = DegreeHistogram::new();
    for (d, c) in h.iter() {
        out.increment(coarsen_degree(d), c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_tracks_acquire_release_and_peak() {
        let b = ResourceBudget::unbounded();
        assert_eq!(b.try_acquire(100, 0), Ok(100));
        assert_eq!(b.try_acquire(50, 1), Ok(150));
        b.release(120);
        assert_eq!(b.accounted(), 30);
        assert_eq!(b.peak(), 150);
        b.release(1_000);
        assert_eq!(b.accounted(), 0, "release saturates at zero");
        assert!(!b.soft_breached(), "no soft watermark configured");
    }

    #[test]
    fn hard_watermark_rolls_back_and_reports() {
        let b = ResourceBudget::with_watermarks(Some(80), Some(100));
        assert!(b.try_acquire(90, 3).is_ok());
        assert!(b.soft_breached());
        let err = b.try_acquire(20, 7).unwrap_err();
        assert_eq!(
            err,
            BudgetFault::HardWatermark {
                accounted: 110,
                limit: 100,
                window: 7
            }
        );
        assert_eq!(b.accounted(), 90, "failed acquire rolled back");
        assert_eq!(b.peak(), 90, "failed acquire does not move the peak");
    }

    #[test]
    fn with_limit_defaults_soft_to_three_quarters() {
        let b = ResourceBudget::with_limit(1000);
        assert_eq!(b.soft(), Some(750));
        assert_eq!(b.hard(), Some(1000));
    }

    #[test]
    fn isqrt_exact_on_squares_and_neighbors() {
        for v in [0u64, 1, 2, 3, 4, 15, 16, 17, 99, 100, 101, 1 << 40] {
            let r = isqrt(v);
            assert!(r * r <= v, "v={v}");
            assert!((r + 1) * (r + 1) > v, "v={v}");
        }
    }

    #[test]
    fn cost_model_is_monotone_in_geometry() {
        let base = CostModel {
            n_v: 10_000,
            n_nodes: 20_000,
            windows: 8,
            threads: 4,
        };
        let bigger = CostModel {
            n_v: 100_000,
            ..base
        };
        assert!(bigger.window_bytes() > base.window_bytes());
        assert!(bigger.peak_bytes(4) > base.peak_bytes(4));
        assert!(base.peak_bytes(8) > base.peak_bytes(1));
        assert!(base.floor_bytes() <= base.peak_bytes(base.threads));
        // Saturating, never wrapping, on absurd geometry.
        let huge = CostModel {
            n_v: u64::MAX,
            n_nodes: u64::MAX,
            windows: u64::MAX,
            threads: 16,
        };
        assert_eq!(huge.peak_bytes(16), u64::MAX);
    }

    #[test]
    fn admission_refuses_infeasible_and_suggests() {
        let model = CostModel {
            n_v: 100_000,
            n_nodes: 20_000,
            windows: 10,
            threads: 8,
        };
        // Ample budget: admitted, estimate returned.
        let ample = ResourceBudget::with_limit(u64::MAX);
        assert_eq!(
            model.admit(&ample, true),
            Ok(model.peak_bytes(8)),
            "ample budget admits"
        );
        // No hard watermark: always admitted.
        assert!(model.admit(&ResourceBudget::unbounded(), true).is_ok());
        // Below the floor: refused even without strict admission.
        let tiny = ResourceBudget::with_limit(1024);
        let err = model.admit(&tiny, false).unwrap_err();
        match err {
            BudgetFault::AdmissionRefused {
                estimated,
                floor,
                limit,
                ..
            } => {
                assert_eq!(limit, 1024);
                assert!(floor > limit);
                assert!(estimated >= floor);
            }
            other => panic!("expected AdmissionRefused, got {other:?}"),
        }
        // Strict admission refuses a peak that only fits by degrading,
        // and the suggestion it carries is itself feasible.
        let squeeze = ResourceBudget::with_limit(model.floor_bytes() + model.window_bytes());
        let err = model.admit(&squeeze, true).unwrap_err();
        let BudgetFault::AdmissionRefused {
            suggestion: Some(s),
            limit,
            ..
        } = err
        else {
            panic!("expected a refusal with a suggestion, got {err:?}");
        };
        let feasible = CostModel {
            n_v: s.n_v,
            threads: s.threads,
            ..model
        };
        assert!(feasible.peak_bytes(s.threads) <= limit);
        // Non-strict admission admits the same squeeze budget.
        assert!(model.admit(&squeeze, false).is_ok());
    }

    #[test]
    fn suggest_is_none_when_nothing_fits() {
        let model = CostModel {
            n_v: 1_000,
            n_nodes: 1_000,
            windows: 4,
            threads: 2,
        };
        assert_eq!(model.suggest(16), None);
    }

    #[test]
    fn coarsen_degree_is_ceil_pow2_and_idempotent() {
        let cases = [(0, 0), (1, 1), (2, 2), (3, 4), (5, 8), (8, 8), (1000, 1024)];
        for (d, want) in cases {
            assert_eq!(coarsen_degree(d), want, "d={d}");
            assert_eq!(coarsen_degree(coarsen_degree(d)), coarsen_degree(d));
        }
        assert_eq!(coarsen_degree(u64::MAX), u64::MAX);
        assert_eq!(coarsen_degree((1 << 63) + 1), u64::MAX);
    }

    #[test]
    fn coarsen_histogram_preserves_total_and_shrinks_support() {
        let h = DegreeHistogram::from_counts((1..=1000u64).map(|d| (d, d % 5 + 1)));
        let c = coarsen_histogram(&h);
        assert_eq!(c.total(), h.total());
        assert!(c.support_size() <= 11, "≤ log2(1000)+2 keys");
        assert_eq!(c.d_max(), Some(1024));
        // Coarsening after summation equals summing coarsened parts.
        let mut parts = DegreeHistogram::new();
        for (d, cnt) in h.iter() {
            parts.increment(coarsen_degree(d), cnt);
        }
        assert_eq!(coarsen_histogram(&h), parts);
    }

    #[test]
    fn rung_codes_round_trip() {
        for rung in DegradationRung::ALL {
            assert_eq!(DegradationRung::from_code(rung.code()), Some(rung));
        }
        assert_eq!(DegradationRung::from_code(99), None);
        assert_eq!(DegradationRung::ALL[0].name(), "coarsen_bins");
        assert_eq!(DegradationRung::ALL[1].name(), "shrink_workers");
        assert_eq!(DegradationRung::ALL[2].name(), "spill_pooled");
    }

    #[test]
    fn faults_display_their_numbers() {
        let refusal = BudgetFault::AdmissionRefused {
            estimated: 5000,
            floor: 2000,
            limit: 1000,
            suggestion: Some(SuggestedConfig {
                threads: 1,
                n_v: 100,
            }),
        };
        let msg = refusal.to_string();
        assert!(msg.contains("admission refused"), "{msg}");
        assert!(msg.contains("5000"), "{msg}");
        assert!(msg.contains("--threads 1"), "{msg}");
        let hw = BudgetFault::HardWatermark {
            accounted: 300,
            limit: 200,
            window: 9,
        };
        let msg = hw.to_string();
        assert!(msg.contains("hard watermark"), "{msg}");
        assert!(msg.contains("window 9"), "{msg}");
    }
}
