//! Cached half-precision operands.
//!
//! RGSQRF, CAQR, re-orthogonalization, and QR-SVD repeatedly apply the
//! *same* Q panel across trailing updates. The engine used to re-round that
//! panel through the half format on every GEMM; a [`HalfMat`] lets a call
//! site round it **once per factorization** and hand the cached result to
//! [`crate::GpuSim::gemm_f32_cached`] instead.
//!
//! Rounding is elementwise and deterministic, so a cached operand is
//! bit-identical to re-rounding on every call — only the redundant work (and
//! its allocations) disappears. The [`halfsim::RoundStats`] of the one real
//! rounding pass are recorded against the engine's counters and trace at
//! cache-creation time; GEMMs that consume the cache report only the
//! rounding they actually perform (i.e. none for cached operands).
//!
//! A `HalfMat` is tagged with the id and reset-generation of the engine
//! that created it: using a cache across [`crate::GpuSim::reset`] or on a
//! different engine (whose half format may differ) is a bug, and the engine
//! panics rather than silently mixing formats.

use densemat::{Mat, MatRef};
use halfsim::RoundStats;

use crate::engine::HalfKind;

/// A matrix rounded once through an engine's half format, with the
/// statistics of that rounding. Created whole by
/// [`crate::GpuSim::cache_operand`], or allocated empty by
/// [`crate::GpuSim::cache_shell`] and filled one finalized column block at
/// a time with [`crate::GpuSim::cache_cols`] (how RGSQRF rounds each Q
/// panel once per factorization rather than once per trailing update).
#[derive(Clone, Debug)]
pub struct HalfMat {
    /// Rounded payload: every value exactly representable in `kind`,
    /// widened back to f32 (the storage the simulated tensor cores ingest).
    /// Under the error-corrected mode this is the *hi* half of the
    /// Ootomo–Yokota split (identical to plain rounding).
    pub(crate) data: Mat<f32>,
    /// Residual payload for the error-corrected mode: the *lo* halves of
    /// the hi/lo split (`x ≈ data + lo · 2^-11`, see [`halfsim::split_f16`]),
    /// cached alongside `data` so the rounded-once invariant holds for both
    /// parts. `None` outside error-corrected mode.
    pub(crate) lo: Option<Mat<f32>>,
    /// Accumulated events of every rounding pass into this cache.
    pub(crate) stats: RoundStats,
    /// The format the payload was rounded through.
    pub(crate) kind: HalfKind,
    /// Id of the [`crate::GpuSim`] that created this cache.
    pub(crate) engine_id: u64,
    /// The engine's reset-generation at creation time.
    pub(crate) generation: u64,
}

impl HalfMat {
    /// View of the rounded payload.
    pub fn as_ref(&self) -> MatRef<'_, f32> {
        self.data.as_ref()
    }

    /// Statistics of the single rounding pass that built this cache.
    pub fn stats(&self) -> RoundStats {
        self.stats
    }

    /// View of the residual (*lo*) payload, present only for caches built
    /// under [`crate::PrecisionOverride::ErrorCorrected`].
    pub fn lo(&self) -> Option<MatRef<'_, f32>> {
        self.lo.as_ref().map(Mat::as_ref)
    }

    /// The half format the payload is representable in.
    pub fn kind(&self) -> HalfKind {
        self.kind
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.data.nrows()
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.data.ncols()
    }
}

/// A borrowed window into a [`HalfMat`]: the rounded values the engine will
/// multiply, plus the owning cache for provenance validation.
#[derive(Clone, Copy)]
pub(crate) struct HalfView<'a> {
    /// Rounded payload window (same shape as the operand's raw view).
    pub(crate) view: MatRef<'a, f32>,
    /// Matching residual window, when the cache carries a *lo* payload
    /// (error-corrected mode). Always the same window as `view`.
    pub(crate) lo: Option<MatRef<'a, f32>>,
    /// The cache the window borrows from (carries kind / engine / generation).
    pub(crate) tag: &'a HalfMat,
}

/// One GEMM operand: the raw f32 data plus, optionally, its cached rounded
/// form. Cheap to copy (a few pointers).
///
/// - On a TensorCore path the engine uses the cache when present and
///   otherwise rounds `raw` into a buffer of the per-thread scratch pool
///   ([`densemat::par::Scratch`]).
/// - On an FP32 path the engine multiplies `raw` directly, so a
///   `CachedOperand` built with [`CachedOperand::new`] is bit-identical to
///   the uncached [`crate::GpuSim::gemm_f32`] whether or not TensorCore is
///   enabled for the phase.
#[derive(Clone, Copy)]
pub struct CachedOperand<'a> {
    pub(crate) raw: MatRef<'a, f32>,
    pub(crate) half: Option<HalfView<'a>>,
}

impl<'a> CachedOperand<'a> {
    /// An operand with no cache: the engine rounds it per call (into a
    /// [`densemat::par::Scratch`] buffer) when TensorCore applies.
    pub fn fresh(raw: MatRef<'a, f32>) -> Self {
        CachedOperand { raw, half: None }
    }

    /// An operand with an optional cache, as returned by
    /// [`crate::GpuSim::cache_operand`] (which yields `None` when the phase
    /// does not use TensorCore). Panics if the cache's shape does not match
    /// `raw`.
    pub fn new(raw: MatRef<'a, f32>, half: Option<&'a HalfMat>) -> Self {
        let half = half.map(|h| {
            assert_eq!(
                (h.nrows(), h.ncols()),
                (raw.nrows(), raw.ncols()),
                "CachedOperand: cached shape differs from raw operand"
            );
            HalfView {
                view: h.as_ref(),
                lo: h.lo(),
                tag: h,
            }
        });
        CachedOperand { raw, half }
    }

    /// An operand whose rounded form lives in columns `j0..j0 + raw.ncols()`
    /// of an incrementally filled cache (see [`crate::GpuSim::cache_shell`]
    /// and [`crate::GpuSim::cache_cols`]). Those columns must already have
    /// been filled with the rounded image of `raw`. Panics if the window
    /// falls outside the cache or the row counts differ.
    pub fn cols(raw: MatRef<'a, f32>, half: &'a HalfMat, j0: usize) -> Self {
        assert_eq!(
            half.nrows(),
            raw.nrows(),
            "CachedOperand::cols: row count differs from cache"
        );
        assert!(
            j0 + raw.ncols() <= half.ncols(),
            "CachedOperand::cols: column window {}..{} outside cache of {} columns",
            j0,
            j0 + raw.ncols(),
            half.ncols()
        );
        let view = half
            .data
            .as_ref()
            .submatrix(0, j0, raw.nrows(), raw.ncols());
        let lo = half
            .lo
            .as_ref()
            .map(|l| l.as_ref().submatrix(0, j0, raw.nrows(), raw.ncols()));
        CachedOperand {
            raw,
            half: Some(HalfView { view, lo, tag: half }),
        }
    }
}
