//! Payload encoding for typed messages.
//!
//! The paper's experiments move buffers of integers; the library ships
//! them as little-endian bytes. A sender appends its values to the
//! outbox arena through [`hbsp_core::WireWriter`] (the `fill` of
//! [`hbsp_core::SpmdContext::send_with`]); a receiver reads them where
//! they lie with [`read_u32s`] / [`read_f64s`]. Encodings are exact
//! inverses and total-length checked on decode.

use hbsp_core::WireWriter;

/// Encode a `u32` slice (the model's "words") as little-endian bytes,
/// in one pass.
pub fn encode_u32s(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    WireWriter::new(&mut out).u32s(values);
    out
}

/// The little-endian `u32`s of `bytes`, read in place.
///
/// # Panics
/// Panics if the length is not a multiple of 4 — a malformed payload is
/// a program bug, not a recoverable condition.
pub fn read_u32s(bytes: &[u8]) -> impl ExactSizeIterator<Item = u32> + '_ {
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
}

/// Decode little-endian bytes into `u32`s, in one pass.
///
/// # Panics
/// Panics if the length is not a multiple of 4 (see [`read_u32s`]).
pub fn decode_u32s(bytes: &[u8]) -> Vec<u32> {
    read_u32s(bytes).collect()
}

/// The little-endian `f64`s of `bytes`, read in place.
///
/// # Panics
/// Panics if the length is not a multiple of 8.
pub fn read_f64s(bytes: &[u8]) -> impl ExactSizeIterator<Item = f64> + '_ {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_round_trip() {
        let v = vec![0, 1, u32::MAX, 0xDEAD_BEEF];
        assert_eq!(decode_u32s(&encode_u32s(&v)), v);
        assert_eq!(read_u32s(&encode_u32s(&v)).len(), v.len());
        assert!(decode_u32s(&[]).is_empty());
    }

    #[test]
    fn in_place_writers_match_the_allocating_encoders() {
        let u32s = [0u32, 1, u32::MAX, 0xDEAD_BEEF];
        let mut buf = Vec::new();
        WireWriter::new(&mut buf).u32s(&u32s);
        assert_eq!(buf, encode_u32s(&u32s));
        let mut words = Vec::new();
        let mut w = WireWriter::new(&mut words);
        for &v in &u32s {
            w.word(v);
        }
        assert_eq!(words, buf);
    }

    /// A fill that writes other than the length it promised is refused
    /// where it posts.
    #[test]
    #[should_panic(expected = "send_with promised 7 payload bytes but fill wrote 8")]
    fn in_place_writer_rejects_wrong_length() {
        let mut batch = hbsp_core::MsgBatch::new();
        let (src, dst) = (hbsp_core::ProcId(0), hbsp_core::ProcId(1));
        if let Err(broken) = batch.push_with(src, dst, 0, 7, &mut |w| w.u32s(&[1, 2])) {
            panic!("{broken}");
        }
    }

    #[test]
    fn f64_round_trip_preserves_bits() {
        let v = [0.0, -0.0, f64::INFINITY, 1.5e-300, std::f64::consts::PI];
        let mut bytes = Vec::new();
        WireWriter::new(&mut bytes).f64s(&v);
        let out: Vec<f64> = read_f64s(&bytes).collect();
        assert_eq!(out.len(), v.len());
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
    #[should_panic(expected = "whole number of f64s")]
    fn truncated_f64_payload_panics() {
        let _ = read_f64s(&[0; 12]);
    }

    #[test]
    fn word_count_matches_model_charging() {
        // 10 u32s encode to 40 bytes = 10 model words.
        let payload = encode_u32s(&[7; 10]);
        let m = hbsp_core::Message::new(hbsp_core::ProcId(0), hbsp_core::ProcId(1), 0, payload);
        assert_eq!(m.words(), 10);
    }
}
