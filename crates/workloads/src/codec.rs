//! Binary matrix file format.
//!
//! The paper's tasks read/write matrices as files; this codec is the wire
//! and disk representation used across the simulated filesystems and HTTP
//! payloads: magic `SWFM`, u32 rows, u32 cols, little-endian i64 entries.
//! [`put_cells`] and [`cells`] write and read those 8-byte entries a slice
//! at a time; `swf-apps`' record formats use the same two.

#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

use bytes::{Buf, BufMut, Bytes};

use crate::matrix::Matrix;

/// Magic prefix of encoded matrices.
pub const MAGIC: &[u8; 4] = b"SWFM";

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Payload too short or missing magic.
    BadHeader,
    /// Payload length disagrees with the header shape.
    Truncated {
        /// Bytes expected from the header.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadHeader => write!(f, "bad matrix header"),
            CodecError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated matrix payload: expected {expected}B, got {actual}B"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Append 8-byte cells in one pass over a buffer sized once.
pub fn put_cells(buf: &mut Vec<u8>, cells: impl ExactSizeIterator<Item = [u8; 8]>) {
    let start = buf.len();
    buf.resize(start + cells.len() * 8, 0);
    for (dst, cell) in buf[start..].as_chunks_mut::<8>().0.iter_mut().zip(cells) {
        *dst = cell;
    }
}

/// The 8-byte cells of a region whose length the caller validated (a
/// trailing partial cell is not read).
pub fn cells(region: &[u8]) -> impl Iterator<Item = [u8; 8]> + '_ {
    region.as_chunks::<8>().0.iter().copied()
}

/// Encode a matrix.
pub fn encode(m: &Matrix) -> Bytes {
    let mut buf = Vec::with_capacity(m.as_slice().len().saturating_mul(8).saturating_add(12));
    buf.put_slice(MAGIC);
    // A dimension past u32 saturates instead of wrapping into a different
    // shape; `decode`'s length check then refuses the payload.
    buf.put_u32_le(u32::try_from(m.rows()).unwrap_or(u32::MAX));
    buf.put_u32_le(u32::try_from(m.cols()).unwrap_or(u32::MAX));
    put_cells(&mut buf, m.as_slice().iter().map(|v| v.to_le_bytes()));
    Bytes::from(buf)
}

/// Decode a matrix.
pub fn decode(mut data: Bytes) -> Result<Matrix, CodecError> {
    if data.len() < 12 || &data[..4] != MAGIC {
        return Err(CodecError::BadHeader);
    }
    data.advance(4);
    let rows = data.get_u32_le() as usize;
    let cols = data.get_u32_le() as usize;
    // A crafted header can claim up to (2³²−1)² cells; the byte count must
    // be computed checked or a hostile payload panics the decoder.
    let expected = rows
        .checked_mul(cols)
        .and_then(|cells| cells.checked_mul(8))
        .ok_or(CodecError::BadHeader)?;
    if data.len() != expected {
        return Err(CodecError::Truncated {
            expected,
            actual: data.len(),
        });
    }
    let v = cells(&data).map(i64::from_le_bytes).collect();
    Ok(Matrix::from_vec(rows, cols, v))
}

/// Size in bytes of an encoded `r × c` matrix (for data-movement models).
pub const fn encoded_size(r: usize, c: usize) -> usize {
    12 + r * c * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use proptest::prelude::*;
    use swf_simcore::DetRng;

    #[test]
    fn roundtrip() {
        let mut rng = DetRng::new(5, "codec");
        let m = Matrix::random(13, 7, &mut rng, -100, 100);
        let enc = encode(&m);
        assert_eq!(enc.len(), encoded_size(13, 7));
        assert_eq!(decode(enc).unwrap(), m);
    }

    #[test]
    fn wire_format_is_pinned() {
        // Round trips cannot see a layout change that encode and decode
        // make together; these bytes can.
        let m = Matrix::from_vec(1, 3, vec![-2, i64::MIN, 0x0102]);
        #[rustfmt::skip]
        let wire: &[u8] = &[
            b'S', b'W', b'F', b'M',
            1, 0, 0, 0,
            3, 0, 0, 0,
            0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
            0, 0, 0, 0, 0, 0, 0, 0x80,
            2, 1, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(&encode(&m)[..], wire);
        assert_eq!(decode(Bytes::from_static(wire)).unwrap(), m);
    }

    #[test]
    fn paper_matrix_size_is_under_a_megabyte() {
        // 350×350 × 8B ≈ 980 KB — the pass-by-value payload of one input.
        let sz = encoded_size(350, 350);
        assert_eq!(sz, 12 + 350 * 350 * 8);
        assert!(sz < 1_000_000);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert_eq!(
            decode(Bytes::from_static(b"XX")),
            Err(CodecError::BadHeader)
        );
        assert_eq!(
            decode(Bytes::from_static(b"NOPE12345678")),
            Err(CodecError::BadHeader)
        );
        let m = Matrix::identity(3);
        let enc = encode(&m);
        let cut = enc.slice(0..enc.len() - 4);
        assert!(matches!(decode(cut), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn degenerate_shapes_roundtrip() {
        for (r, c) in [(0, 0), (0, 5), (5, 0), (1, 1)] {
            let m = Matrix::from_vec(r, c, vec![7; r * c]);
            let dec = decode(encode(&m)).unwrap();
            assert_eq!(dec.rows(), r);
            assert_eq!(dec.cols(), c);
            assert_eq!(dec, m);
        }
    }

    #[test]
    fn huge_claimed_shape_is_an_error_not_a_panic() {
        // Header claims u32::MAX × u32::MAX cells: expected-byte arithmetic
        // would overflow usize without checked math.
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(u32::MAX);
        buf.put_u32_le(u32::MAX);
        buf.put_i64_le(1);
        assert_eq!(decode(buf.freeze()), Err(CodecError::BadHeader));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn roundtrip_prop(seed in 0u64..500, r in 1usize..20, c in 1usize..20) {
            let mut rng = DetRng::new(seed, "rt");
            let m = Matrix::random(r, c, &mut rng, i64::MIN / 4, i64::MAX / 4);
            prop_assert_eq!(decode(encode(&m)).unwrap(), m);
        }

        #[test]
        fn nonsquare_roundtrip_prop(seed in 0u64..500, r in 0usize..24, c in 0usize..24) {
            // Includes empty and 1×1 shapes; rows ≠ cols most of the time.
            let mut rng = DetRng::new(seed, "rt-nsq");
            let m = Matrix::random(r, c, &mut rng, -1000, 1000);
            let enc = encode(&m);
            prop_assert_eq!(enc.len(), encoded_size(r, c));
            prop_assert_eq!(decode(enc).unwrap(), m);
        }

        #[test]
        fn truncation_never_panics(seed in 0u64..500, r in 0usize..12, c in 0usize..12, cut in 1usize..64) {
            // Every proper prefix of a valid encoding decodes to an error,
            // never a panic or a bogus matrix.
            let mut rng = DetRng::new(seed, "rt-cut");
            let m = Matrix::random(r, c, &mut rng, -10, 10);
            let enc = encode(&m);
            let keep = enc.len().saturating_sub(cut);
            prop_assert!(decode(enc.slice(0..keep)).is_err());
        }

        #[test]
        fn random_bytes_never_panic(seed in 0u64..500, len in 0usize..96) {
            let mut rng = DetRng::new(seed, "rt-junk");
            let junk: Vec<u8> = (0..len).map(|_| rng.uniform_u64(0, 255) as u8).collect();
            // Any result is fine — the decoder just must not panic.
            let _ = decode(Bytes::from(junk));
        }
    }
}
