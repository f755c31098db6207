//! Property tests for the binary model format: round-trips are exact for
//! *arbitrary* models (not just precomputed ones), and every corruption —
//! truncation at any offset, any single bit flip — is reported as the
//! right [`PersistError`] variant, never as a panic.  Covers both the
//! current v2 artifact layout and the legacy v1 stream (which must keep
//! loading until everyone has repacked).

use csrplus_core::persist::{read_model, write_model, write_model_v1, PersistError};
use csrplus_core::{CsrPlusConfig, CsrPlusModel};
use csrplus_linalg::DenseMatrix;
use proptest::prelude::*;

/// An arbitrary-but-valid model assembled straight from parts, covering
/// shapes and values `precompute` would never produce.
fn arb_model() -> impl Strategy<Value = CsrPlusModel> {
    (1usize..10, 0.05f64..0.95, 1e-8f64..0.5).prop_flat_map(|(n, damping, epsilon)| {
        (1usize..=n, Just(n), Just(damping), Just(epsilon)).prop_flat_map(
            |(r, n, damping, epsilon)| {
                let entries = proptest::collection::vec(-2.0f64..2.0, n * r);
                let square = proptest::collection::vec(-2.0f64..2.0, r * r);
                let sigmas = proptest::collection::vec(0.0f64..3.0, r);
                (entries.clone(), entries, square.clone(), square, sigmas).prop_map(
                    move |(u, z, p, h0, mut sigma)| {
                        // σ must be sorted descending to be a plausible spectrum.
                        sigma.sort_by(|a, b| b.partial_cmp(a).unwrap());
                        let config =
                            CsrPlusConfig { rank: r, damping, epsilon, ..Default::default() };
                        CsrPlusModel::from_parts(
                            config,
                            n,
                            DenseMatrix::from_vec(n, r, u).unwrap(),
                            DenseMatrix::from_vec(n, r, z).unwrap(),
                            sigma,
                            DenseMatrix::from_vec(r, r, p).unwrap(),
                            DenseMatrix::from_vec(r, r, h0).unwrap(),
                        )
                        .unwrap()
                    },
                )
            },
        )
    })
}

fn encode(model: &CsrPlusModel) -> Vec<u8> {
    let mut buf = Vec::new();
    write_model(model, &mut buf).unwrap();
    buf
}

fn assert_same_model(loaded: &CsrPlusModel, model: &CsrPlusModel) {
    assert_eq!(loaded.n(), model.n());
    assert_eq!(loaded.rank(), model.rank());
    assert_eq!(loaded.config(), model.config());
    assert_eq!(loaded.sigma(), model.sigma());
    assert_eq!(loaded.u().as_slice(), model.u().as_slice());
    assert_eq!(loaded.z().as_slice(), model.z().as_slice());
    assert_eq!(loaded.p().as_slice(), model.p().as_slice());
    assert_eq!(loaded.h0().as_slice(), model.h0().as_slice());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Write → read reproduces every field bit-for-bit.
    #[test]
    fn round_trip_is_bitwise_exact(model in arb_model()) {
        let loaded = read_model(encode(&model).as_slice()).unwrap();
        assert_same_model(&loaded, &model);
    }

    /// Legacy v1 files keep loading (through the slow path) and agree
    /// bit-for-bit with the model they encoded.
    #[test]
    fn v1_round_trip_is_bitwise_exact(model in arb_model()) {
        let mut buf = Vec::new();
        write_model_v1(&model, &mut buf).unwrap();
        let loaded = read_model(buf.as_slice()).unwrap();
        assert_same_model(&loaded, &model);
    }

    /// Truncating the file at ANY offset yields an error, never a panic
    /// and never a silently short model.
    #[test]
    fn truncation_at_any_offset_errors(model in arb_model(), frac in 0.0f64..1.0) {
        let buf = encode(&model);
        let cut = ((buf.len() - 1) as f64 * frac) as usize;
        let err = read_model(&buf[..cut]).unwrap_err();
        // Cutting inside the magic surfaces as unexpected EOF; anywhere
        // later, the structural validation (missing or displaced footer,
        // short sections) or the table checksum reports it.
        prop_assert!(
            matches!(
                err,
                PersistError::Io(_)
                    | PersistError::Malformed(_)
                    | PersistError::ChecksumMismatch { .. }
            ),
            "cut at {cut}/{} gave {err}", buf.len()
        );
    }

    /// Flipping ANY single bit is reported as the right error class for
    /// the region hit — and never as a panic.
    #[test]
    fn single_bit_flip_is_detected(model in arb_model(), pos in 0usize..16384, bit in 0u8..8) {
        let mut buf = encode(&model);
        let pos = pos % buf.len();
        buf[pos] ^= 1 << bit;
        let err = read_model(buf.as_slice()).unwrap_err();
        match pos {
            0..=3 => prop_assert!(matches!(err, PersistError::BadMagic), "{err}"),
            // No single bit flip of version 2 produces version 1, so the
            // version field always reports UnsupportedVersion.
            4..=7 => prop_assert!(matches!(err, PersistError::UnsupportedVersion(_)), "{err}"),
            // The rest of the 64-byte header is reserved-must-be-zero.
            8..=63 => prop_assert!(matches!(err, PersistError::Malformed(_)), "{err}"),
            // Payload, padding, table, or footer: caught by a section or
            // table checksum, or by the structural validation (padding
            // must stay zero, the layout canonical, the footer intact).
            _ => prop_assert!(
                matches!(
                    err,
                    PersistError::ChecksumMismatch { .. } | PersistError::Malformed(_)
                ),
                "{err}"
            ),
        }
    }

    /// The same corruption guarantees hold for legacy v1 streams.
    #[test]
    fn v1_single_bit_flip_is_detected(model in arb_model(), pos in 0usize..4096, bit in 0u8..8) {
        let mut buf = Vec::new();
        write_model_v1(&model, &mut buf).unwrap();
        let pos = pos % buf.len();
        buf[pos] ^= 1 << bit;
        let err = read_model(buf.as_slice()).unwrap_err();
        match pos {
            0..=3 => prop_assert!(matches!(err, PersistError::BadMagic), "{err}"),
            4..=7 => prop_assert!(matches!(err, PersistError::UnsupportedVersion(_)), "{err}"),
            8..=23 => prop_assert!(
                matches!(
                    err,
                    PersistError::Malformed(_)
                        | PersistError::Io(_)
                        | PersistError::ChecksumMismatch { .. }
                ),
                "{err}"
            ),
            _ => prop_assert!(
                matches!(
                    err,
                    PersistError::ChecksumMismatch { .. } | PersistError::Malformed(_)
                ),
                "{err}"
            ),
        }
    }
}
