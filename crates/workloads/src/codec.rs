//! Binary matrix file format.
//!
//! The paper's tasks read/write matrices as files; this codec is the wire
//! and disk representation used across the simulated filesystems and HTTP
//! payloads: magic `SWFM`, u32 rows, u32 cols, little-endian i64 entries.
//! [`put_cells`] and [`cells`] write and read those 8-byte entries a slice
//! at a time; `swf-apps`' record formats use the same two. The task's
//! kernel reads an encoding's cells where they lie and writes its product
//! straight into a new encoding (`crate::multiply_encoded`); [`decode`] is
//! for callers that want a [`Matrix`], and [`random`] draws a seed matrix
//! straight into its file.

#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

use bytes::{BufMut, Bytes};
use swf_simcore::DetRng;

use crate::matmul::Operand;
use crate::matrix::Matrix;
use crate::pool::{self, Buffer};

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

/// Append 8-byte cells into capacity reserved once: each byte is written
/// once, never zero-filled first.
pub fn put_cells(buf: &mut Vec<u8>, cells: impl ExactSizeIterator<Item = [u8; 8]>) {
    buf.reserve(cells.len().saturating_mul(8));
    let (spare, _) = buf.spare_capacity_mut().as_chunks_mut::<8>();
    let mut written = 0;
    for (dst, cell) in spare.iter_mut().zip(cells) {
        dst.write_copy_of_slice(&cell);
        written += 8;
    }
    // SAFETY: the `written` bytes after the old length were initialised
    // just above, and lie within the capacity (`spare` ends there).
    unsafe { buf.set_len(buf.len() + written) };
}

/// The 8-byte cells of a region whose length the caller validated (a
/// trailing partial cell is not read).
pub fn cells(region: &[u8]) -> impl Iterator<Item = [u8; 8]> + '_ {
    region.as_chunks::<8>().0.iter().copied()
}

/// An empty encoding of a `rows × cols` matrix: its header, with capacity
/// reserved for every cell. This is where every encoding is allocated: a
/// large one takes a recycled buffer (`crate::pool`), and its
/// [`Buffer::freeze`] gives the buffer back when the last handle drops.
pub(crate) fn with_header(rows: usize, cols: usize) -> Buffer {
    let mut buf = pool::take(
        rows.saturating_mul(cols)
            .saturating_mul(8)
            .saturating_add(12),
    );
    buf.put_slice(MAGIC);
    // A dimension past u32 saturates instead of wrapping into a different
    // shape; `decode`'s length check then refuses the payload.
    buf.put_u32_le(u32::try_from(rows).unwrap_or(u32::MAX));
    buf.put_u32_le(u32::try_from(cols).unwrap_or(u32::MAX));
    buf
}

/// Encode a matrix.
pub fn encode(m: &Matrix) -> Bytes {
    let mut buf = with_header(m.rows(), m.cols());
    put_cells(&mut buf, m.as_slice().iter().map(|v| v.to_le_bytes()));
    buf.freeze()
}

/// A random `rows × cols` matrix with entries in `[lo, hi]`, drawn straight
/// into its encoding: the bytes of `encode(&Matrix::random(rows, cols,
/// rng, lo, hi))`, from the same draws, without the `Matrix`.
pub fn random(rows: usize, cols: usize, rng: &mut DetRng, lo: i64, hi: i64) -> Bytes {
    let mut buf = with_header(rows, cols);
    let mut draws = rng.uniform_i64_inclusive_batch(lo, hi);
    put_cells(
        &mut buf,
        (0..rows * cols).map(|_| draws.draw().to_le_bytes()),
    );
    buf.freeze()
}

/// An encoding as a kernel operand: the header checked against the
/// length, the body read in place as 8-byte cells.
pub(crate) fn operand(data: &[u8]) -> Result<Operand<'_, [u8; 8]>, CodecError> {
    let Some((head, body)) = data.split_first_chunk::<12>() else {
        return Err(CodecError::BadHeader);
    };
    let (magic, shape) = head.split_at(4);
    if magic != MAGIC {
        return Err(CodecError::BadHeader);
    }
    let dim = |at: usize| {
        let mut le = [0; 4];
        le.copy_from_slice(&shape[at..at + 4]);
        u32::from_le_bytes(le) as usize
    };
    let (rows, cols) = (dim(0), dim(4));
    // A crafted header can claim up to (2³²−1)² cells; the byte count must
    // be computed checked or a hostile payload panics the decoder.
    let expected = rows
        .checked_mul(cols)
        .and_then(|cells| cells.checked_mul(8))
        .ok_or(CodecError::BadHeader)?;
    if body.len() != expected {
        return Err(CodecError::Truncated {
            expected,
            actual: body.len(),
        });
    }
    Ok(Operand {
        rows,
        cols,
        cells: body.as_chunks::<8>().0,
    })
}

/// An operand's cells copied into an owned [`Matrix`].
pub(crate) fn to_matrix(op: Operand<'_, [u8; 8]>) -> Matrix {
    Matrix::from_vec(
        op.rows,
        op.cols,
        op.cells.iter().map(|&c| i64::from_le_bytes(c)).collect(),
    )
}

/// Decode a matrix into an owned copy of its cells.
pub fn decode(data: Bytes) -> Result<Matrix, CodecError> {
    operand(&data).map(to_matrix)
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

    /// Drawn into the file or into a `Matrix` and encoded: the same bytes,
    /// over the paper's range, the widest ranges and an empty one.
    #[test]
    fn random_is_the_encoded_random_matrix() {
        for (r, c, lo, hi) in [
            (7, 5, -100, 100),
            (3, 4, i64::MIN, i64::MAX),
            (2, 9, i64::MIN, i64::MAX - 1),
            (0, 3, -1, 1),
            (2, 2, 4, 3),
        ] {
            let want = encode(&Matrix::random(r, c, &mut DetRng::new(3, "rnd"), lo, hi));
            assert_eq!(random(r, c, &mut DetRng::new(3, "rnd"), lo, hi), want);
        }
    }

    /// `put_cells` appends after what is there, growing the buffer as it
    /// must, and writes nothing for no cells.
    #[test]
    fn put_cells_appends() {
        let mut buf = vec![9u8];
        put_cells(&mut buf, [1i64, -1].iter().map(|v| v.to_le_bytes()));
        put_cells(&mut buf, std::iter::empty::<[u8; 8]>());
        let mut want = vec![9u8, 1, 0, 0, 0, 0, 0, 0, 0];
        want.extend([0xff; 8]);
        assert_eq!(buf, want);
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
