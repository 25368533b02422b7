//! Datagram packet header for the QuicLite transport.
//!
//! Stream transports get message boundaries from the length-prefixed
//! [`crate::framing`] codec; a datagram transport gets them from the
//! network but loses ordering and delivery guarantees instead. QuicLite
//! rebuilds those on top of UDP with the load-bearing QUIC ideas —
//! connection ids, packet numbers, acknowledgements, fragmentation —
//! and this module defines the one packet header all of them ride in
//! (version 1):
//!
//! ```text
//! +---------+----------+-------------+---------------+---------------+---------------+------------+---------+
//! | ver: u8 | type: u8 | conn_id: u64| packet_no: u64| frag_ix: u16  | frag_cnt: u16 | len: u16   | payload |
//! +---------+----------+-------------+---------------+---------------+---------------+------------+---------+
//! ```
//!
//! - `conn_id` names the connection. It is chosen by the client,
//!   registered at the server by the `Init` handshake, and reusable for
//!   0-RTT resumption: a client that already completed a handshake with
//!   a server may send `Data` under the same conn id again without a
//!   new `Init` round.
//! - `packet_no` is a per-connection, per-direction monotonic packet
//!   number. Unlike real QUIC, a retransmission reuses the **same**
//!   packet number (the number identifies the packet, not the
//!   transmission), which is what lets receivers deduplicate
//!   retransmitted data with a plain seen-set.
//! - `frag_ix` / `frag_cnt` fragment one framed message
//!   ([`crate::framing`] v2 frame bytes) across packets when it exceeds
//!   [`PAYLOAD_MTU`]. Fragments of one frame occupy **consecutive**
//!   packet numbers, so the reassembly key is
//!   `packet_no - frag_ix` — no extra message id is needed.
//! - `len` counts only the payload and must match the datagram length
//!   exactly; a mismatch marks the datagram corrupt.
//!
//! All integers are little-endian. The full datagram binding
//! (handshake, acknowledgement, retransmission and resumption rules) is
//! specified in `docs/wire-protocol.md` spec §6.

use std::io;

/// The packet format version this codec speaks.
pub(crate) const PACKET_VERSION: u8 = 1;

/// Bytes of packet-header overhead per datagram
/// (`u8` version + `u8` type + `u64` conn id + `u64` packet number +
/// `u16` fragment index + `u16` fragment count + `u16` length).
pub(crate) const PACKET_HEADER_LEN: usize = 24;

/// Largest datagram QuicLite emits (a conservative, QUIC-flavored MTU
/// that stays well under typical path MTUs).
pub(crate) const DATAGRAM_MTU: usize = 1200;

/// Largest frame fragment one packet carries.
pub const PAYLOAD_MTU: usize = DATAGRAM_MTU - PACKET_HEADER_LEN;

/// What a packet is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketType {
    /// Client → server connection open: registers the conn id. Carries
    /// no payload; acknowledged by an [`PacketType::InitAck`] echoing
    /// its packet number.
    Init,
    /// Server → client handshake completion: echoes the `Init`'s packet
    /// number, acting as its acknowledgement.
    InitAck,
    /// One fragment of a framed message. Ack-eliciting: the receiver
    /// answers with an [`PacketType::Ack`] echoing the packet number.
    Data,
    /// Acknowledges one `Data` packet (the echoed number sits in
    /// `packet_no`). Not itself acknowledged or retransmitted.
    Ack,
}

impl PacketType {
    fn to_byte(self) -> u8 {
        match self {
            PacketType::Init => 0,
            PacketType::InitAck => 1,
            PacketType::Data => 2,
            PacketType::Ack => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(PacketType::Init),
            1 => Some(PacketType::InitAck),
            2 => Some(PacketType::Data),
            3 => Some(PacketType::Ack),
            _ => None,
        }
    }
}

/// One decoded datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// What the packet is for.
    pub ptype: PacketType,
    /// Connection the packet belongs to.
    pub conn_id: u64,
    /// Per-connection monotonic packet number (stable across
    /// retransmissions); for [`PacketType::Ack`] and
    /// [`PacketType::InitAck`], the number being acknowledged.
    pub packet_no: u64,
    /// Index of this fragment within its frame.
    pub frag_index: u16,
    /// Total fragments of the frame (`1` for unfragmented).
    pub frag_count: u16,
    /// The fragment bytes (empty for handshake and ack packets).
    pub payload: Vec<u8>,
}

/// Encodes one datagram.
///
/// # Panics
///
/// Panics if `payload` exceeds [`PAYLOAD_MTU`] — fragmenting is the
/// caller's job and a violation is a transport bug, not wire input.
pub fn encode_packet(
    ptype: PacketType,
    conn_id: u64,
    packet_no: u64,
    frag_index: u16,
    frag_count: u16,
    payload: &[u8],
) -> Vec<u8> {
    assert!(
        payload.len() <= PAYLOAD_MTU,
        "packet payload of {} bytes exceeds the {PAYLOAD_MTU}-byte MTU",
        payload.len()
    );
    let mut buf = Vec::with_capacity(PACKET_HEADER_LEN + payload.len());
    buf.push(PACKET_VERSION);
    buf.push(ptype.to_byte());
    buf.extend_from_slice(&conn_id.to_le_bytes());
    buf.extend_from_slice(&packet_no.to_le_bytes());
    buf.extend_from_slice(&frag_index.to_le_bytes());
    buf.extend_from_slice(&frag_count.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u16).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Decodes one datagram.
///
/// Errors with [`io::ErrorKind::InvalidData`] on a short datagram, an
/// unknown version or type byte, a length field that disagrees with the
/// datagram size, or inconsistent fragment fields. Datagram transports
/// drop corrupt packets (the sender retransmits); they never
/// desynchronize the way a corrupt stream would.
pub fn decode_packet(buf: &[u8]) -> io::Result<Packet> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    if buf.len() < PACKET_HEADER_LEN {
        return Err(bad(format!("datagram of {} bytes is too short", buf.len())));
    }
    if buf[0] != PACKET_VERSION {
        return Err(bad(format!("unsupported packet version {}", buf[0])));
    }
    let ptype = PacketType::from_byte(buf[1])
        .ok_or_else(|| bad(format!("unknown packet type {}", buf[1])))?;
    let conn_id = u64::from_le_bytes(buf[2..10].try_into().expect("8 bytes"));
    let packet_no = u64::from_le_bytes(buf[10..18].try_into().expect("8 bytes"));
    let frag_index = u16::from_le_bytes(buf[18..20].try_into().expect("2 bytes"));
    let frag_count = u16::from_le_bytes(buf[20..22].try_into().expect("2 bytes"));
    let len = u16::from_le_bytes(buf[22..24].try_into().expect("2 bytes")) as usize;
    if buf.len() != PACKET_HEADER_LEN + len {
        return Err(bad(format!(
            "length field {len} disagrees with datagram size {}",
            buf.len()
        )));
    }
    if frag_count == 0 || frag_index >= frag_count {
        return Err(bad(format!(
            "fragment {frag_index}/{frag_count} is inconsistent"
        )));
    }
    if (packet_no as u128) < frag_index as u128 {
        return Err(bad(format!(
            "fragment index {frag_index} precedes packet number {packet_no}"
        )));
    }
    Ok(Packet {
        ptype,
        conn_id,
        packet_no,
        frag_index,
        frag_count,
        payload: buf[PACKET_HEADER_LEN..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_type() {
        for (ptype, payload) in [
            (PacketType::Init, Vec::new()),
            (PacketType::InitAck, Vec::new()),
            (PacketType::Data, vec![1, 2, 3]),
            (PacketType::Ack, Vec::new()),
        ] {
            let buf = encode_packet(ptype, 42, 7, 0, 1, &payload);
            let pkt = decode_packet(&buf).unwrap();
            assert_eq!(pkt.ptype, ptype);
            assert_eq!(pkt.conn_id, 42);
            assert_eq!(pkt.packet_no, 7);
            assert_eq!(pkt.frag_index, 0);
            assert_eq!(pkt.frag_count, 1);
            assert_eq!(pkt.payload, payload);
        }
    }

    #[test]
    fn header_len_matches_layout() {
        let buf = encode_packet(PacketType::Data, 1, 2, 0, 1, b"xyz");
        assert_eq!(buf.len(), PACKET_HEADER_LEN + 3);
        assert_eq!(buf[0], PACKET_VERSION);
        assert_eq!(PAYLOAD_MTU + PACKET_HEADER_LEN, DATAGRAM_MTU);
    }

    #[test]
    fn fragment_fields_round_trip() {
        let buf = encode_packet(PacketType::Data, 9, 105, 5, 8, b"chunk");
        let pkt = decode_packet(&buf).unwrap();
        assert_eq!(pkt.frag_index, 5);
        assert_eq!(pkt.frag_count, 8);
        // Reassembly key: consecutive packet numbers per frame.
        assert_eq!(pkt.packet_no - pkt.frag_index as u64, 100);
    }

    #[test]
    fn corrupt_datagrams_rejected() {
        let good = encode_packet(PacketType::Data, 1, 2, 0, 1, b"ok");
        // Truncated.
        assert!(decode_packet(&good[..PACKET_HEADER_LEN - 1]).is_err());
        // Bad version.
        let mut bad = good.clone();
        bad[0] = 9;
        assert!(decode_packet(&bad).is_err());
        // Unknown type.
        let mut bad = good.clone();
        bad[1] = 200;
        assert!(decode_packet(&bad).is_err());
        // Length field disagrees with the datagram size.
        let mut bad = good.clone();
        bad.push(0);
        assert!(decode_packet(&bad).is_err());
        // Inconsistent fragment fields.
        let mut bad = good.clone();
        bad[20..22].copy_from_slice(&0u16.to_le_bytes());
        assert!(decode_packet(&bad).is_err());
        // Fragment index past the fragment count.
        let mut bad = good;
        bad[18..20].copy_from_slice(&3u16.to_le_bytes());
        assert!(decode_packet(&bad).is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_payload_is_a_caller_bug() {
        let payload = vec![0u8; PAYLOAD_MTU + 1];
        let _ = encode_packet(PacketType::Data, 1, 2, 0, 1, &payload);
    }
}
