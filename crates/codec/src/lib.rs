//! Compact binary wire format for OpenFLAME RPC messages.
//!
//! Every byte that crosses the simulated network is produced by this
//! crate, which keeps the byte accounting in experiments honest: message
//! sizes reflect a realistic varint-packed encoding rather than the size
//! of in-memory structs.
//!
//! The format is deliberately simple — a protobuf-flavored scheme without
//! schema evolution:
//!
//! - unsigned integers as LEB128 varints,
//! - signed integers zigzag-encoded then varint-packed,
//! - floats as fixed 8-byte IEEE-754 little-endian bits,
//! - strings as varint length + payload,
//! - sequences as varint count + elements,
//! - options as a presence byte + payload.
//!
//! Types opt in by implementing [`Wire`]; [`to_bytes`] / [`from_bytes`]
//! are the entry points, and `from_bytes` rejects trailing garbage.
//!
//! A message type does not write that impl by hand: it is declared
//! once, as a row of fields in a [`table`] ([`wire_struct!`] /
//! [`wire_enum!`]), which generates both directions, the unknown-tag
//! error and the tag list. A [`FieldCodec`] is how a table field
//! crosses the wire when its type's own `Wire` impl is not the answer:
//! the type's crate cannot implement `Wire`, or the field wants another
//! encoding (a tile's self-delimiting pixel runs, checked in place
//! through [`Reader::rest`]). Hand-written `impl Wire` is for
//! the primitives below and for the irregular messages each protocol
//! module lists as its exceptions.

mod fnv;
pub mod framing;
pub mod packet;
pub mod reader;
pub mod table;
pub mod writer;

pub use fnv::Fnv1a;
pub use framing::{read_frame, write_frame, Frame, FRAME_HEADER_LEN, FRAME_VERSION};
pub use packet::{decode_packet, encode_packet, Packet, PacketType, PAYLOAD_MTU};
pub use reader::Reader;
pub use table::{FieldCodec, Opt, Own, Pair, Seq};
pub use writer::Writer;

use bytes::Bytes;

/// Errors produced while decoding wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended in the middle of a value.
    UnexpectedEof {
        /// How many more bytes were needed.
        needed: usize,
        /// How many bytes remained.
        remaining: usize,
    },
    /// A varint ran past 10 bytes (would overflow 64 bits).
    VarintOverflow,
    /// A string payload was not valid UTF-8.
    InvalidUtf8,
    /// A length prefix exceeded the sanity limit.
    LengthTooLarge(u64),
    /// An enum discriminant or presence byte had an unknown value.
    InvalidTag {
        /// Context for the failed decode (type name).
        context: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// Decoding finished but bytes remained in the buffer.
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected EOF: needed {needed} bytes, {remaining} remain"
                )
            }
            CodecError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            CodecError::InvalidUtf8 => write!(f, "string payload is not valid UTF-8"),
            CodecError::LengthTooLarge(n) => write!(f, "length prefix {n} exceeds limit"),
            CodecError::InvalidTag { context, tag } => {
                write!(f, "invalid tag {tag} while decoding {context}")
            }
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Sanity cap on any single length prefix (64 MiB), preventing a corrupt
/// length byte from triggering a huge allocation.
pub const MAX_LENGTH: u64 = 64 * 1024 * 1024;

/// A type that can be encoded to and decoded from the wire format.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to the writer.
    fn encode(&self, w: &mut Writer);

    /// Decodes a value from the reader, consuming exactly its bytes.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Encodes a value to a standalone byte buffer.
pub fn to_bytes<T: Wire>(value: &T) -> Bytes {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.finish()
}

/// Decodes a value from a byte buffer, requiring the buffer to be fully
/// consumed.
pub fn from_bytes<T: Wire>(buf: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(buf);
    let v = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::TrailingBytes(r.remaining()));
    }
    Ok(v)
}

// ------------------------------------------------------------------
// Wire implementations for primitives and standard containers.
// ------------------------------------------------------------------

impl Wire for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::InvalidTag {
                context: "bool",
                tag: tag as u64,
            }),
        }
    }
}

impl Wire for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.read_u8()
    }
}

impl Wire for u16 {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(*self as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let v = r.read_varint()?;
        u16::try_from(v).map_err(|_| CodecError::InvalidTag {
            context: "u16",
            tag: v,
        })
    }
}

impl Wire for u32 {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(*self as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let v = r.read_varint()?;
        u32::try_from(v).map_err(|_| CodecError::InvalidTag {
            context: "u32",
            tag: v,
        })
    }
}

impl Wire for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.read_varint()
    }
}

impl Wire for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(*self as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let v = r.read_varint()?;
        usize::try_from(v).map_err(|_| CodecError::LengthTooLarge(v))
    }
}

impl Wire for i32 {
    fn encode(&self, w: &mut Writer) {
        w.put_zigzag(*self as i64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let v = r.read_zigzag()?;
        i32::try_from(v).map_err(|_| CodecError::InvalidTag {
            context: "i32",
            tag: v as u64,
        })
    }
}

impl Wire for i64 {
    fn encode(&self, w: &mut Writer) {
        w.put_zigzag(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.read_zigzag()
    }
}

impl Wire for f64 {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.read_f64()
    }
}

impl Wire for f32 {
    fn encode(&self, w: &mut Writer) {
        w.put_f32(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.read_f32()
    }
}

impl Wire for String {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.read_string()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        Seq::<Own>::put(w, self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Seq::<Own>::get(r)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut Writer) {
        Opt::<Own>::put(w, self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Opt::<Own>::get(r)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, w: &mut Writer) {
        Pair::<Own, Own>::put(w, self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Pair::<Own, Own>::get(r)
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert!(from_bytes::<bool>(&to_bytes(&true)).unwrap());
        assert_eq!(from_bytes::<u8>(&to_bytes(&200u8)).unwrap(), 200);
        assert_eq!(
            from_bytes::<u32>(&to_bytes(&7_000_000u32)).unwrap(),
            7_000_000
        );
        assert_eq!(from_bytes::<u64>(&to_bytes(&u64::MAX)).unwrap(), u64::MAX);
        assert_eq!(from_bytes::<i64>(&to_bytes(&-42i64)).unwrap(), -42);
        assert_eq!(from_bytes::<i32>(&to_bytes(&i32::MIN)).unwrap(), i32::MIN);
        assert_eq!(from_bytes::<f64>(&to_bytes(&-1.5f64)).unwrap(), -1.5);
        assert_eq!(
            from_bytes::<String>(&to_bytes(&"grüß dich".to_string())).unwrap(),
            "grüß dich"
        );
    }

    #[test]
    fn small_values_encode_small() {
        assert_eq!(to_bytes(&5u64).len(), 1);
        assert_eq!(to_bytes(&300u64).len(), 2);
        assert_eq!(
            to_bytes(&(-3i64)).len(),
            1,
            "zigzag keeps small negatives small"
        );
        assert_eq!(to_bytes(&String::new()).len(), 1);
    }

    #[test]
    fn vec_and_option_round_trip() {
        let v: Vec<u32> = vec![1, 2, 3, 1000, u32::MAX];
        assert_eq!(from_bytes::<Vec<u32>>(&to_bytes(&v)).unwrap(), v);
        let o: Option<String> = Some("hello".into());
        assert_eq!(from_bytes::<Option<String>>(&to_bytes(&o)).unwrap(), o);
        let n: Option<String> = None;
        assert_eq!(from_bytes::<Option<String>>(&to_bytes(&n)).unwrap(), n);
        let t = (5u32, "x".to_string(), -9i64);
        assert_eq!(from_bytes::<(u32, String, i64)>(&to_bytes(&t)).unwrap(), t);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = to_bytes(&7u32).to_vec();
        buf.push(0xFF);
        assert_eq!(from_bytes::<u32>(&buf), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn truncated_input_rejected() {
        let buf = to_bytes(&"hello world".to_string());
        let err = from_bytes::<String>(&buf[..4]).unwrap_err();
        assert!(matches!(err, CodecError::UnexpectedEof { .. }), "{err:?}");
    }

    #[test]
    fn invalid_bool_tag_rejected() {
        assert!(matches!(
            from_bytes::<bool>(&[7]),
            Err(CodecError::InvalidTag {
                context: "bool",
                tag: 7
            })
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        // Length 2, then invalid UTF-8 bytes.
        let buf = [2u8, 0xC0, 0xAF];
        assert_eq!(from_bytes::<String>(&buf), Err(CodecError::InvalidUtf8));
    }

    #[test]
    fn narrowing_decode_rejects_out_of_range() {
        let wide = to_bytes(&(u32::MAX as u64 + 1));
        assert!(from_bytes::<u32>(&wide).is_err());
        let wide16 = to_bytes(&70_000u64);
        assert!(from_bytes::<u16>(&wide16).is_err());
    }

    #[test]
    fn corrupt_vec_count_does_not_overallocate() {
        // A count of ~2^60 with a tiny buffer must error, not OOM.
        let mut w = Writer::new();
        w.put_varint(1u64 << 60);
        let buf = w.finish();
        assert!(from_bytes::<Vec<u64>>(&buf).is_err());
    }

    #[test]
    fn nan_round_trips_bitwise() {
        let nan = f64::from_bits(0x7FF8_0000_0000_0001);
        let back = from_bytes::<f64>(&to_bytes(&nan)).unwrap();
        assert_eq!(back.to_bits(), nan.to_bits());
    }
}
