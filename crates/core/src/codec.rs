//! The one byte layer of the workspace: every encoding — the `qp-store` WAL
//! and snapshots, the `qp-telemetry` flight dump and the `qp-server` wire
//! protocol — is built from the pieces here, so each domain type has one
//! encoder whichever boundary it crosses:
//!
//! * little-endian `put_*` appenders and a bounds-checked [`ByteReader`]
//!   cursor (floats travel as raw bit patterns — the durability contract is
//!   *bit-identical* revenue after recovery, and every buyer must see the
//!   same prices, so no float ever goes through a decimal round-trip;
//!   strings are a `u32` byte length and strict UTF-8);
//! * [`crc32`], the CRC-32/ISO-HDLC checksum (the IEEE 802.3 polynomial,
//!   reflected, init/xorout `0xFFFF_FFFF`) used to frame every record;
//! * [`CodecError`], the one error type decoding can produce — corruption
//!   is data, not a panic.
//!
//! The checksum is table-driven (256-entry table built in a `const fn` at
//! compile time): no runtime initialisation, no dependency, and ~1 B/cycle
//! throughput — far faster than the record encode it guards.
//!
//! The appenders and the reader's methods are `#[inline]`: the wire
//! encodes and decodes every frame through them from another crate, and
//! without it each field costs a call.

use std::fmt;

/// CRC-32/ISO-HDLC lookup table, one entry per byte value, built at compile
/// time from the reflected IEEE 802.3 polynomial `0xEDB8_8320`.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32/ISO-HDLC ("the" CRC-32: zlib, PNG, Ethernet) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// Why a decode failed. Corrupt bytes are an expected input for a recovery
/// path, so every failure mode is a value, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the field that was being read.
    Truncated,
    /// Bytes remained after the decoder consumed a complete value.
    Trailing,
    /// A tag byte named no known variant.
    BadTag(u8),
    /// A length or count field exceeded the decoder's sanity bound.
    BadLength(u64),
    /// A string field is not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "record truncated mid-field"),
            CodecError::Trailing => write!(f, "trailing bytes after record"),
            CodecError::BadTag(t) => write!(f, "unknown record tag {t:#04x}"),
            CodecError::BadLength(n) => write!(f, "implausible length field {n}"),
            CodecError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends `v` to `buf` little-endian.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` to `buf` little-endian.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends the raw bit pattern of `v` — the exact `f64` round-trips.
#[inline]
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends `s` as a `u32` byte length followed by its UTF-8 bytes.
#[inline]
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian cursor over an immutable byte slice.
#[derive(Debug, Clone, Copy)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let bytes = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a bit pattern written by [`put_f64`].
    #[inline]
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a flag byte, which must be 0 or 1.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::BadTag(other)),
        }
    }

    /// Reads a string written by [`put_str`]. A length past the end of the
    /// buffer is [`CodecError::Truncated`] before anything is allocated.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| CodecError::BadUtf8)
    }

    /// Reads a count field and sanity-checks it against the bytes actually
    /// left, assuming each element needs at least `min_elem_bytes`: a
    /// corrupt length can claim 2^60 elements, and the check turns that
    /// into a [`CodecError::BadLength`] instead of an OOM `Vec` reserve.
    #[inline]
    pub fn checked_count(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u64()?;
        let bound = (self.remaining() / min_elem_bytes.max(1)) as u64;
        if n > bound {
            return Err(CodecError::BadLength(n));
        }
        Ok(n as usize)
    }

    /// Asserts the record was consumed exactly.
    #[inline]
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::Trailing);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical CRC-32/ISO-HDLC check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 7);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::NAN);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        // float-eq: bit-pattern comparison is the round-trip contract
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        r.finish().unwrap();
    }

    #[test]
    fn reader_reports_truncation_and_trailing() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u64(), Err(CodecError::Truncated));
        assert_eq!(r.u32().unwrap(), 7);
        let mut r = ByteReader::new(&[1, 2, 3]);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(CodecError::Trailing));
    }

    #[test]
    fn strings_round_trip_and_reject_bad_utf8() {
        let mut buf = Vec::new();
        put_str(&mut buf, "");
        put_str(&mut buf, "prix é");
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.str().unwrap(), "");
        assert_eq!(r.str().unwrap(), "prix é");
        r.finish().unwrap();
        let mut bad = Vec::new();
        put_u32(&mut bad, 2);
        bad.extend_from_slice(&[0xC3, 0x28]);
        assert_eq!(ByteReader::new(&bad).str(), Err(CodecError::BadUtf8));
        let mut long = Vec::new();
        put_u32(&mut long, u32::MAX);
        assert_eq!(ByteReader::new(&long).str(), Err(CodecError::Truncated));
    }

    #[test]
    fn checked_count_rejects_implausible_lengths() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX / 2);
        let mut r = ByteReader::new(&buf);
        assert!(matches!(r.checked_count(8), Err(CodecError::BadLength(_))));
    }
}
