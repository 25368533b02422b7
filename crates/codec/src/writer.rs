//! Append-only encoder for the wire format.

use bytes::{BufMut, Bytes, BytesMut};

/// An append-only byte writer producing wire-format encodings.
///
/// # Examples
///
/// ```
/// use openflame_codec::Writer;
///
/// let mut w = Writer::new();
/// w.put_varint(300);
/// w.put_str("hi");
/// let buf = w.finish();
/// assert_eq!(buf.len(), 2 + 1 + 2);
/// ```
#[derive(Debug, Default)]
pub struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self {
            buf: BytesMut::with_capacity(128),
        }
    }

    /// Creates a writer with a capacity hint.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Freezes the writer into an immutable buffer.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Appends a raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends an LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.put_u8(byte);
                return;
            }
            self.buf.put_u8(byte | 0x80);
        }
    }

    /// Appends a zigzag-encoded signed varint.
    pub(crate) fn put_zigzag(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Appends an 8-byte little-endian IEEE-754 double.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_u64_le(v.to_bits());
    }

    /// Appends a 4-byte little-endian IEEE-754 float.
    pub(crate) fn put_f32(&mut self, v: f32) {
        self.buf.put_u32_le(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_varint(s.len() as u64);
        self.buf.put_slice(s.as_bytes());
    }

    /// Appends raw bytes with no length prefix (for framing layers that
    /// carry the length elsewhere).
    pub fn put_raw(&mut self, b: &[u8]) {
        self.buf.put_slice(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_boundary_lengths() {
        let cases: &[(u64, usize)] = &[
            (0, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u64::MAX, 10),
        ];
        for &(v, len) in cases {
            let mut w = Writer::new();
            w.put_varint(v);
            assert_eq!(w.len(), len, "varint({v})");
        }
    }

    #[test]
    fn zigzag_small_magnitudes_one_byte() {
        for v in [-64i64, -1, 0, 1, 63] {
            let mut w = Writer::new();
            w.put_zigzag(v);
            assert_eq!(w.len(), 1, "zigzag({v})");
        }
    }

    #[test]
    fn str_is_length_prefixed() {
        let mut w = Writer::new();
        w.put_str("abc");
        let b = w.finish();
        assert_eq!(&b[..], &[3, b'a', b'b', b'c']);
    }

    #[test]
    fn raw_has_no_prefix() {
        let mut w = Writer::new();
        w.put_raw(&[1, 2, 3]);
        assert_eq!(&w.finish()[..], &[1, 2, 3]);
    }
}
