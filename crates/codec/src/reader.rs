//! Cursor-style decoder for the wire format.

use crate::{CodecError, MAX_LENGTH};

/// A borrowing cursor that decodes wire-format values from a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current cursor position.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// The next byte, left unconsumed: lets a decoder refuse a tag unentered.
    pub fn peek_u8(&self) -> Result<u8, CodecError> {
        Reader { ..*self }.read_u8()
    }

    /// Reads an LEB128 varint.
    pub(crate) fn read_varint(&mut self) -> Result<u64, CodecError> {
        let mut result: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8()?;
            if shift == 63 && byte > 1 {
                return Err(CodecError::VarintOverflow);
            }
            result |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::VarintOverflow);
            }
        }
    }

    /// Reads a zigzag-encoded signed varint.
    pub(crate) fn read_zigzag(&mut self) -> Result<i64, CodecError> {
        let v = self.read_varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Reads an 8-byte little-endian IEEE-754 double.
    pub fn read_f64(&mut self) -> Result<f64, CodecError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(f64::from_bits(u64::from_le_bytes(arr)))
    }

    /// Reads a 4-byte little-endian IEEE-754 float.
    pub(crate) fn read_f32(&mut self) -> Result<f32, CodecError> {
        let b = self.take(4)?;
        let mut arr = [0u8; 4];
        arr.copy_from_slice(b);
        Ok(f32::from_bits(u32::from_le_bytes(arr)))
    }

    /// Reads a length prefix, validating it against [`MAX_LENGTH`].
    pub fn read_length(&mut self) -> Result<usize, CodecError> {
        let v = self.read_varint()?;
        if v > MAX_LENGTH {
            return Err(CodecError::LengthTooLarge(v));
        }
        usize::try_from(v).map_err(|_| CodecError::LengthTooLarge(v))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn read_string(&mut self) -> Result<String, CodecError> {
        let n = self.read_length()?;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes)
            .map(|s| s.to_owned())
            .map_err(|_| CodecError::InvalidUtf8)
    }

    /// The bytes not yet consumed, left unconsumed: lets a field codec
    /// validate a self-delimiting value in place, then
    /// [`read_raw`](Self::read_raw) past it.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Reads `n` raw bytes with no length prefix.
    pub fn read_raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Writer;

    #[test]
    fn varint_round_trip_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            255,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut w = Writer::new();
            w.put_varint(v);
            let buf = w.finish();
            let mut r = Reader::new(&buf);
            assert_eq!(r.read_varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn zigzag_round_trip_boundaries() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            i32::MAX as i64,
            i32::MIN as i64,
            i64::MAX,
            i64::MIN,
        ] {
            let mut w = Writer::new();
            w.put_zigzag(v);
            let buf = w.finish();
            let mut r = Reader::new(&buf);
            assert_eq!(r.read_zigzag().unwrap(), v);
        }
    }

    #[test]
    fn varint_overflow_detected() {
        // 11 continuation bytes is always invalid.
        let buf = [0xFFu8; 11];
        let mut r = Reader::new(&buf);
        assert_eq!(r.read_varint(), Err(CodecError::VarintOverflow));
        // 10 bytes encoding a value over u64::MAX is invalid too.
        let over = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        let mut r2 = Reader::new(&over);
        assert_eq!(r2.read_varint(), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn eof_reports_counts() {
        let mut r = Reader::new(&[1, 2]);
        let err = r.read_f64().unwrap_err();
        assert_eq!(
            err,
            CodecError::UnexpectedEof {
                needed: 8,
                remaining: 2
            }
        );
    }

    #[test]
    fn length_cap_enforced() {
        let mut w = Writer::new();
        w.put_varint(MAX_LENGTH + 1);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(
            r.read_length(),
            Err(CodecError::LengthTooLarge(MAX_LENGTH + 1))
        );
    }

    #[test]
    fn raw_reads_exact() {
        let mut r = Reader::new(&[1, 2, 3, 4]);
        assert_eq!(r.read_raw(2).unwrap(), &[1, 2]);
        assert_eq!(r.position(), 2);
        assert_eq!(r.rest(), &[3, 4]);
        assert_eq!(r.read_raw(2).unwrap(), &[3, 4]);
        assert!(r.read_raw(1).is_err());
    }
}
