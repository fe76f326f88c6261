//! Payload encoding for typed messages.
//!
//! The paper's experiments move buffers of integers; the library ships
//! them as little-endian bytes. Encodings are exact inverses and
//! total-length checked on decode.

/// Encode a `u32` slice (the model's "words") as little-endian bytes.
pub fn encode_u32s(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Encode a `u32` slice directly into `out` (exactly `4 * values.len()`
/// bytes) — the allocation-free variant for
/// [`hbsp_core::SpmdContext::send_with`] payload fills.
///
/// # Panics
/// Panics if `out` is not exactly the encoded length.
pub fn write_u32s(values: &[u32], out: &mut [u8]) {
    assert_eq!(out.len(), values.len() * 4, "destination length mismatch");
    for (v, chunk) in values.iter().zip(out.chunks_exact_mut(4)) {
        chunk.copy_from_slice(&v.to_le_bytes());
    }
}

/// Decode little-endian bytes into `u32`s.
///
/// # Panics
/// Panics if the length is not a multiple of 4 — a malformed payload is
/// a program bug, not a recoverable condition.
pub fn decode_u32s(bytes: &[u8]) -> Vec<u32> {
    assert!(
        bytes.len().is_multiple_of(4),
        "payload length {} is not a whole number of u32s",
        bytes.len()
    );
    bytes
        .as_chunks::<4>()
        .0
        .iter()
        .map(|&c| u32::from_le_bytes(c))
        .collect()
}

/// Encode a `u64` slice as little-endian bytes.
pub fn encode_u64s(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Encode a `u64` slice directly into `out` (exactly `8 * values.len()`
/// bytes); see [`write_u32s`].
///
/// # Panics
/// Panics if `out` is not exactly the encoded length.
pub fn write_u64s(values: &[u64], out: &mut [u8]) {
    assert_eq!(out.len(), values.len() * 8, "destination length mismatch");
    for (v, chunk) in values.iter().zip(out.chunks_exact_mut(8)) {
        chunk.copy_from_slice(&v.to_le_bytes());
    }
}

/// Decode little-endian bytes into `u64`s.
///
/// # Panics
/// Panics if the length is not a multiple of 8.
pub fn decode_u64s(bytes: &[u8]) -> Vec<u64> {
    assert!(
        bytes.len().is_multiple_of(8),
        "payload length {} is not a whole number of u64s",
        bytes.len()
    );
    bytes
        .as_chunks::<8>()
        .0
        .iter()
        .map(|&c| u64::from_le_bytes(c))
        .collect()
}

/// Encode an `f64` slice as little-endian bytes.
pub fn encode_f64s(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Encode an `f64` slice directly into `out` (exactly `8 * values.len()`
/// bytes); see [`write_u32s`].
///
/// # Panics
/// Panics if `out` is not exactly the encoded length.
pub fn write_f64s(values: &[f64], out: &mut [u8]) {
    assert_eq!(out.len(), values.len() * 8, "destination length mismatch");
    for (v, chunk) in values.iter().zip(out.chunks_exact_mut(8)) {
        chunk.copy_from_slice(&v.to_le_bytes());
    }
}

/// Decode little-endian bytes into `f64`s.
///
/// # Panics
/// Panics if the length is not a multiple of 8.
pub fn decode_f64s(bytes: &[u8]) -> Vec<f64> {
    assert!(
        bytes.len().is_multiple_of(8),
        "payload length {} is not a whole number of f64s",
        bytes.len()
    );
    bytes
        .as_chunks::<8>()
        .0
        .iter()
        .map(|&c| f64::from_le_bytes(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_round_trip() {
        let v = vec![0, 1, u32::MAX, 0xDEAD_BEEF];
        assert_eq!(decode_u32s(&encode_u32s(&v)), v);
        assert!(decode_u32s(&[]).is_empty());
    }

    #[test]
    fn in_place_writers_match_the_allocating_encoders() {
        let u32s = [0u32, 1, u32::MAX, 0xDEAD_BEEF];
        let mut buf = vec![0u8; u32s.len() * 4];
        write_u32s(&u32s, &mut buf);
        assert_eq!(buf, encode_u32s(&u32s));

        let u64s = [0u64, u64::MAX, 42];
        let mut buf = vec![0u8; u64s.len() * 8];
        write_u64s(&u64s, &mut buf);
        assert_eq!(buf, encode_u64s(&u64s));

        let f64s = [0.0f64, -0.0, f64::INFINITY, std::f64::consts::PI];
        let mut buf = vec![0u8; f64s.len() * 8];
        write_f64s(&f64s, &mut buf);
        assert_eq!(buf, encode_f64s(&f64s));
    }

    #[test]
    #[should_panic(expected = "destination length mismatch")]
    fn in_place_writer_rejects_wrong_length() {
        write_u32s(&[1, 2], &mut [0u8; 7]);
    }

    #[test]
    fn u64_round_trip() {
        let v = vec![0, u64::MAX, 42];
        assert_eq!(decode_u64s(&encode_u64s(&v)), v);
    }

    #[test]
    fn f64_round_trip_preserves_bits() {
        let v = vec![0.0, -0.0, f64::INFINITY, 1.5e-300, std::f64::consts::PI];
        let out = decode_f64s(&encode_f64s(&v));
        for (a, b) in v.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "whole number of u32s")]
    fn truncated_u32_payload_panics() {
        decode_u32s(&[1, 2, 3]);
    }

    #[test]
    fn word_count_matches_model_charging() {
        // 10 u32s encode to 40 bytes = 10 model words.
        let payload = encode_u32s(&[7; 10]);
        let m = hbsp_core::Message::new(hbsp_core::ProcId(0), hbsp_core::ProcId(1), 0, payload);
        assert_eq!(m.words(), 10);
    }
}
