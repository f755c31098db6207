//! Storage precision of the memoised factors.
//!
//! The CSR+ factors (`U`, `Z`, both `n × r`) dominate the model
//! footprint.  Computation is always `f64` — every kernel accumulates in
//! double precision — but the *storage* of those two factors can be
//! halved to `f32`: the mixed kernels in `csrplus-linalg` widen each
//! element before multiplying, so the only loss is the one-time rounding
//! of the stored values.  The random-projection CoSimRank literature
//! shows the measure tolerates far more approximation than that; the
//! `simd_kernels` bench measures the actual AvgDiff rather than assuming
//! it.
//!
//! The precision is part of the model: [`crate::CsrPlusConfig::precision`]
//! selects it when [`crate::model::CsrPlusModel::from_svd`] demotes the
//! factors, and a loaded model takes it from its artifact's section
//! dtypes.

/// Storage precision of the dense factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Full double-precision storage (the default).
    F64,
    /// Single-precision storage with double-precision accumulation.
    F32,
}

impl Precision {
    /// Human-readable name (`"f64"` / `"f32"`).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
        }
    }
}

/// The storage precision of a default-configured model:
/// `CsrPlusConfig::default().precision`.  Kept for environment reports
/// (the perfbench `env` block) that record the precision a default build
/// uses; every build takes its precision from its own config.
pub fn storage_precision() -> Precision {
    crate::CsrPlusConfig::default().precision
}
