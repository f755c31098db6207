//! The shard wire protocol's score codec: lossless f64 encoding shared
//! by the coordinator and the shard-mode server.  (HTTP framing lives in
//! [`crate::http`], JSON syntax in [`crate::json`].)
//!
//! Scores cross the wire as **bit-exact hex** (16 lowercase hex digits
//! of `f64::to_bits` per value, concatenated) rather than decimal: the
//! coordinator's merged answers must be byte-identical to a
//! single-process server's, and decimal round-trips are where that
//! guarantee would quietly die.

use std::io::Write;

/// Encodes a slice of f64 as concatenated 16-digit hex bit patterns.
pub fn encode_f64s(values: &[f64]) -> String {
    let mut out = Vec::with_capacity(values.len() * 16);
    for &v in values {
        encode_f64_into(v, &mut out);
    }
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Appends one f64 as 16 hex digits.
pub fn encode_f64_into(v: f64, out: &mut Vec<u8>) {
    let _ = write!(out, "{:016x}", v.to_bits());
}

/// Decodes a string produced by [`encode_f64s`].
pub fn decode_f64s(hex: &str) -> Result<Vec<f64>, String> {
    if !hex.len().is_multiple_of(16) {
        return Err(format!("hex payload length {} is not a multiple of 16", hex.len()));
    }
    hex.as_bytes()
        .chunks(16)
        .map(|c| {
            // Digits only: `from_str_radix` alone would take a leading `+`.
            if !c.iter().all(u8::is_ascii_hexdigit) {
                return Err(format!("invalid hex value {:?}", String::from_utf8_lossy(c)));
            }
            let digits = std::str::from_utf8(c).expect("hex digits are ASCII");
            Ok(f64::from_bits(u64::from_str_radix(digits, 16).expect("16 hex digits fit a u64")))
        })
        .collect()
}

/// Decodes a single 16-digit hex f64.
pub fn decode_f64(hex: &str) -> Result<f64, String> {
    let values = decode_f64s(hex)?;
    match values.as_slice() {
        &[v] => Ok(v),
        _ => Err(format!("expected one value, got {}", values.len())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip_is_bit_exact() {
        let values =
            [0.0, -0.0, 1.0, -1.5, f64::MIN_POSITIVE, 1e308, f64::INFINITY, 0.1 + 0.2, f64::NAN];
        let decoded = decode_f64s(&encode_f64s(&values)).unwrap();
        for (a, b) in values.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(decode_f64(&encode_f64s(&[0.25])).unwrap(), 0.25);
    }

    #[test]
    fn malformed_hex_rejected() {
        assert!(decode_f64s("abc").is_err());
        assert!(decode_f64s("zzzzzzzzzzzzzzzz").is_err());
        assert!(decode_f64s("+3ff000000000000").is_err());
        assert!(decode_f64s("3ff00000000000é").is_err());
        assert!(decode_f64("3ff00000000000003ff0000000000000").is_err());
    }
}
