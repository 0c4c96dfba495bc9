//! Binary encoding of packets.
//!
//! The encoding is a compact, varint-based format in the spirit of the
//! Minecraft protocol. Its purpose in Meterstick is to give every packet a
//! concrete wire size so network I/O metrics (Table 5) and the byte-share
//! column of Table 8 can be measured. Each layout is written once, as a
//! function over any [`BufMut`]: `encode_*` runs it into a [`BytesMut`], the
//! `*_wire_size` functions run it into a sink that only counts, so sizing a
//! packet — what the tick path does — allocates and copies nothing.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use mlg_entity::{EntityId, Vec3};
use mlg_world::{Block, BlockKind, BlockPos, ChunkPos};

use crate::packet::{ClientboundPacket, ServerboundPacket};

/// Errors produced while decoding a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the packet was complete.
    UnexpectedEnd,
    /// The packet id byte is not a known packet type.
    UnknownPacketId(u8),
    /// A varint was longer than the maximum allowed width.
    VarintTooLong,
    /// A string field was not valid UTF-8.
    InvalidString,
    /// A block kind id did not map to a known kind.
    UnknownBlockKind(u16),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "unexpected end of packet data"),
            DecodeError::UnknownPacketId(id) => write!(f, "unknown packet id {id:#04x}"),
            DecodeError::VarintTooLong => write!(f, "varint exceeds maximum width"),
            DecodeError::InvalidString => write!(f, "string field is not valid UTF-8"),
            DecodeError::UnknownBlockKind(id) => write!(f, "unknown block kind id {id}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn put_varint(buf: &mut impl BufMut, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn get_varint(buf: &mut Bytes) -> Result<u64, DecodeError> {
    let mut value: u64 = 0;
    for shift in 0..10 {
        if !buf.has_remaining() {
            return Err(DecodeError::UnexpectedEnd);
        }
        let byte = buf.get_u8();
        value |= u64::from(byte & 0x7F) << (shift * 7);
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(DecodeError::VarintTooLong)
}

fn put_string(buf: &mut impl BufMut, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

fn get_string(buf: &mut Bytes) -> Result<String, DecodeError> {
    let len = get_varint(buf)? as usize;
    if buf.remaining() < len {
        return Err(DecodeError::UnexpectedEnd);
    }
    let raw = buf.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::InvalidString)
}

fn put_block_pos(buf: &mut impl BufMut, pos: BlockPos) {
    buf.put_i32(pos.x);
    buf.put_i32(pos.y);
    buf.put_i32(pos.z);
}

fn get_block_pos(buf: &mut Bytes) -> Result<BlockPos, DecodeError> {
    if buf.remaining() < 12 {
        return Err(DecodeError::UnexpectedEnd);
    }
    Ok(BlockPos::new(buf.get_i32(), buf.get_i32(), buf.get_i32()))
}

fn put_vec3(buf: &mut impl BufMut, v: Vec3) {
    buf.put_f64(v.x);
    buf.put_f64(v.y);
    buf.put_f64(v.z);
}

fn get_vec3(buf: &mut Bytes) -> Result<Vec3, DecodeError> {
    if buf.remaining() < 24 {
        return Err(DecodeError::UnexpectedEnd);
    }
    Ok(Vec3::new(buf.get_f64(), buf.get_f64(), buf.get_f64()))
}

fn put_block(buf: &mut impl BufMut, block: Block) {
    buf.put_u16(block.kind().protocol_id());
    buf.put_u8(block.state());
}

fn get_block(buf: &mut Bytes) -> Result<Block, DecodeError> {
    if buf.remaining() < 3 {
        return Err(DecodeError::UnexpectedEnd);
    }
    let kind_id = buf.get_u16();
    let state = buf.get_u8();
    let kind =
        BlockKind::from_protocol_id(kind_id).ok_or(DecodeError::UnknownBlockKind(kind_id))?;
    Ok(Block::with_state(kind, state))
}

/// The [`BufMut`] the `*_wire_size` functions write a layout into: it keeps
/// the number of bytes and none of their values.
struct ByteCount(usize);

impl BufMut for ByteCount {
    fn put_slice(&mut self, src: &[u8]) {
        self.0 += src.len();
    }
}

/// The wire layout of a serverbound packet.
fn write_serverbound(buf: &mut impl BufMut, packet: &ServerboundPacket) {
    buf.put_u8(packet.packet_id());
    match packet {
        ServerboundPacket::Login { username } => put_string(buf, username),
        ServerboundPacket::PlayerMove { pos, on_ground } => {
            put_vec3(buf, *pos);
            buf.put_u8(u8::from(*on_ground));
        }
        ServerboundPacket::BlockPlace { pos, block } => {
            put_block_pos(buf, *pos);
            put_block(buf, *block);
        }
        ServerboundPacket::BlockDig { pos } => put_block_pos(buf, *pos),
        ServerboundPacket::Chat {
            message,
            sent_at_ms,
        } => {
            put_string(buf, message);
            buf.put_f64(*sent_at_ms);
        }
        ServerboundPacket::KeepAlive { id } => put_varint(buf, *id),
        ServerboundPacket::Disconnect => {}
    }
}

/// Encodes a serverbound packet into bytes.
#[must_use]
// detlint: allow(pub-without-caller) -- tests/property_tests.rs checks serverbound_wire_size against this encoder
pub fn encode_serverbound(packet: &ServerboundPacket) -> Bytes {
    let size = serverbound_wire_size(packet);
    let mut buf = BytesMut::with_capacity(size);
    write_serverbound(&mut buf, packet);
    debug_assert_eq!(buf.len(), size);
    buf.freeze()
}

/// Decodes a serverbound packet from bytes.
///
/// # Errors
///
/// Returns a [`DecodeError`] when the data is truncated or malformed.
// detlint: allow(pub-without-caller) -- tests/property_tests.rs round-trips and fuzzes the encoding with it
pub fn decode_serverbound(mut data: Bytes) -> Result<ServerboundPacket, DecodeError> {
    if !data.has_remaining() {
        return Err(DecodeError::UnexpectedEnd);
    }
    let id = data.get_u8();
    match id {
        0x00 => Ok(ServerboundPacket::Login {
            username: get_string(&mut data)?,
        }),
        0x01 => Ok(ServerboundPacket::PlayerMove {
            pos: get_vec3(&mut data)?,
            on_ground: {
                if !data.has_remaining() {
                    return Err(DecodeError::UnexpectedEnd);
                }
                data.get_u8() != 0
            },
        }),
        0x02 => Ok(ServerboundPacket::BlockPlace {
            pos: get_block_pos(&mut data)?,
            block: get_block(&mut data)?,
        }),
        0x03 => Ok(ServerboundPacket::BlockDig {
            pos: get_block_pos(&mut data)?,
        }),
        0x04 => Ok(ServerboundPacket::Chat {
            message: get_string(&mut data)?,
            sent_at_ms: {
                if data.remaining() < 8 {
                    return Err(DecodeError::UnexpectedEnd);
                }
                data.get_f64()
            },
        }),
        0x05 => Ok(ServerboundPacket::KeepAlive {
            id: get_varint(&mut data)?,
        }),
        0x06 => Ok(ServerboundPacket::Disconnect),
        other => Err(DecodeError::UnknownPacketId(other)),
    }
}

/// The wire layout of a clientbound packet.
fn write_clientbound(buf: &mut impl BufMut, packet: &ClientboundPacket) {
    buf.put_u8(packet.packet_id());
    match packet {
        ClientboundPacket::LoginAccepted { player_id, spawn } => {
            put_varint(buf, player_id.0);
            put_vec3(buf, *spawn);
        }
        ClientboundPacket::ChunkData { pos, payload_bytes } => {
            buf.put_i32(pos.x);
            buf.put_i32(pos.z);
            buf.put_u32(*payload_bytes);
            // The payload itself is represented by its size: the benchmark
            // accounts for the bytes without materializing them.
        }
        ClientboundPacket::BlockChange { pos, block } => {
            put_block_pos(buf, *pos);
            put_block(buf, *block);
        }
        ClientboundPacket::EntitySpawn { id, kind_id, pos } => {
            put_varint(buf, id.0);
            buf.put_u16(*kind_id);
            put_vec3(buf, *pos);
        }
        ClientboundPacket::EntityMove { id, pos } => {
            put_varint(buf, id.0);
            put_vec3(buf, *pos);
        }
        ClientboundPacket::EntityDestroy { id } => put_varint(buf, id.0),
        ClientboundPacket::Chat {
            message,
            echo_of_ms,
        } => {
            put_string(buf, message);
            buf.put_f64(*echo_of_ms);
        }
        ClientboundPacket::KeepAlive { id } => put_varint(buf, *id),
        ClientboundPacket::TimeUpdate { world_age_ticks } => put_varint(buf, *world_age_ticks),
        ClientboundPacket::Disconnect { reason } => put_string(buf, reason),
    }
}

/// Number of bytes [`encode_clientbound`] produces for `packet`.
fn clientbound_encoded_len(packet: &ClientboundPacket) -> usize {
    let mut count = ByteCount(0);
    write_clientbound(&mut count, packet);
    count.0
}

/// Encodes a clientbound packet into bytes.
#[must_use]
pub fn encode_clientbound(packet: &ClientboundPacket) -> Bytes {
    let size = clientbound_encoded_len(packet);
    let mut buf = BytesMut::with_capacity(size);
    write_clientbound(&mut buf, packet);
    debug_assert_eq!(buf.len(), size);
    buf.freeze()
}

/// Decodes a clientbound packet from bytes.
///
/// # Errors
///
/// Returns a [`DecodeError`] when the data is truncated or malformed.
pub fn decode_clientbound(mut data: Bytes) -> Result<ClientboundPacket, DecodeError> {
    if !data.has_remaining() {
        return Err(DecodeError::UnexpectedEnd);
    }
    let id = data.get_u8();
    match id {
        0x80 => Ok(ClientboundPacket::LoginAccepted {
            player_id: EntityId(get_varint(&mut data)?),
            spawn: get_vec3(&mut data)?,
        }),
        0x81 => {
            if data.remaining() < 12 {
                return Err(DecodeError::UnexpectedEnd);
            }
            Ok(ClientboundPacket::ChunkData {
                pos: ChunkPos::new(data.get_i32(), data.get_i32()),
                payload_bytes: data.get_u32(),
            })
        }
        0x82 => Ok(ClientboundPacket::BlockChange {
            pos: get_block_pos(&mut data)?,
            block: get_block(&mut data)?,
        }),
        0x83 => Ok(ClientboundPacket::EntitySpawn {
            id: EntityId(get_varint(&mut data)?),
            kind_id: {
                if data.remaining() < 2 {
                    return Err(DecodeError::UnexpectedEnd);
                }
                data.get_u16()
            },
            pos: get_vec3(&mut data)?,
        }),
        0x84 => Ok(ClientboundPacket::EntityMove {
            id: EntityId(get_varint(&mut data)?),
            pos: get_vec3(&mut data)?,
        }),
        0x85 => Ok(ClientboundPacket::EntityDestroy {
            id: EntityId(get_varint(&mut data)?),
        }),
        0x86 => Ok(ClientboundPacket::Chat {
            message: get_string(&mut data)?,
            echo_of_ms: {
                if data.remaining() < 8 {
                    return Err(DecodeError::UnexpectedEnd);
                }
                data.get_f64()
            },
        }),
        0x87 => Ok(ClientboundPacket::KeepAlive {
            id: get_varint(&mut data)?,
        }),
        0x88 => Ok(ClientboundPacket::TimeUpdate {
            world_age_ticks: get_varint(&mut data)?,
        }),
        0x89 => Ok(ClientboundPacket::Disconnect {
            reason: get_string(&mut data)?,
        }),
        other => Err(DecodeError::UnknownPacketId(other)),
    }
}

/// Returns the wire size in bytes that a clientbound packet occupies,
/// including the notional chunk payload for [`ClientboundPacket::ChunkData`].
#[must_use]
pub fn clientbound_wire_size(packet: &ClientboundPacket) -> usize {
    let header = clientbound_encoded_len(packet);
    match packet {
        ClientboundPacket::ChunkData { payload_bytes, .. } => header + *payload_bytes as usize,
        _ => header,
    }
}

/// Returns the wire size in bytes of a serverbound packet.
#[must_use]
pub fn serverbound_wire_size(packet: &ServerboundPacket) -> usize {
    let mut count = ByteCount(0);
    write_serverbound(&mut count, packet);
    count.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_serverbound() -> Vec<ServerboundPacket> {
        vec![
            ServerboundPacket::Login {
                username: "meterstick-bot-01".into(),
            },
            ServerboundPacket::PlayerMove {
                pos: Vec3::new(12.5, 64.0, -3.25),
                on_ground: true,
            },
            ServerboundPacket::BlockPlace {
                pos: BlockPos::new(-10, 64, 200),
                block: Block::with_state(BlockKind::RedstoneDust, 12),
            },
            ServerboundPacket::BlockDig {
                pos: BlockPos::new(1, 2, 3),
            },
            ServerboundPacket::Chat {
                message: "ping".into(),
                sent_at_ms: 1234.5,
            },
            ServerboundPacket::KeepAlive { id: 987_654_321 },
            ServerboundPacket::Disconnect,
        ]
    }

    fn all_clientbound() -> Vec<ClientboundPacket> {
        vec![
            ClientboundPacket::LoginAccepted {
                player_id: EntityId(42),
                spawn: Vec3::new(0.5, 61.0, 0.5),
            },
            ClientboundPacket::ChunkData {
                pos: ChunkPos::new(-2, 7),
                payload_bytes: 4_000,
            },
            ClientboundPacket::BlockChange {
                pos: BlockPos::new(5, 61, 5),
                block: Block::simple(BlockKind::Tnt),
            },
            ClientboundPacket::EntitySpawn {
                id: EntityId(100),
                kind_id: 3,
                pos: Vec3::new(1.0, 2.0, 3.0),
            },
            ClientboundPacket::EntityMove {
                id: EntityId(100),
                pos: Vec3::new(1.5, 2.0, 3.0),
            },
            ClientboundPacket::EntityDestroy { id: EntityId(100) },
            ClientboundPacket::Chat {
                message: "ping".into(),
                echo_of_ms: 1234.5,
            },
            ClientboundPacket::KeepAlive { id: 7 },
            ClientboundPacket::TimeUpdate {
                world_age_ticks: 123_456,
            },
            ClientboundPacket::Disconnect {
                reason: "timed out".into(),
            },
        ]
    }

    #[test]
    fn serverbound_roundtrip() {
        for packet in all_serverbound() {
            let encoded = encode_serverbound(&packet);
            let decoded = decode_serverbound(encoded).expect("decode");
            assert_eq!(decoded, packet);
        }
    }

    #[test]
    fn clientbound_roundtrip() {
        for packet in all_clientbound() {
            let encoded = encode_clientbound(&packet);
            let decoded = decode_clientbound(encoded).expect("decode");
            assert_eq!(decoded, packet);
        }
    }

    #[test]
    fn empty_buffer_is_an_error() {
        assert_eq!(
            decode_serverbound(Bytes::new()),
            Err(DecodeError::UnexpectedEnd)
        );
        assert_eq!(
            decode_clientbound(Bytes::new()),
            Err(DecodeError::UnexpectedEnd)
        );
    }

    #[test]
    fn unknown_packet_id_is_an_error() {
        let data = Bytes::from_static(&[0x7F, 0, 0]);
        assert_eq!(
            decode_serverbound(data.clone()),
            Err(DecodeError::UnknownPacketId(0x7F))
        );
        assert_eq!(
            decode_clientbound(Bytes::from_static(&[0x10])),
            Err(DecodeError::UnknownPacketId(0x10))
        );
    }

    #[test]
    fn truncated_packet_is_an_error() {
        let full = encode_clientbound(&ClientboundPacket::EntityMove {
            id: EntityId(9),
            pos: Vec3::new(1.0, 2.0, 3.0),
        });
        let truncated = full.slice(0..full.len() - 5);
        assert_eq!(
            decode_clientbound(truncated),
            Err(DecodeError::UnexpectedEnd)
        );
    }

    #[test]
    fn chunk_data_wire_size_includes_payload() {
        let packet = ClientboundPacket::ChunkData {
            pos: ChunkPos::new(0, 0),
            payload_bytes: 10_000,
        };
        assert!(clientbound_wire_size(&packet) > 10_000);
        let small = ClientboundPacket::KeepAlive { id: 1 };
        assert!(clientbound_wire_size(&small) < 16);
    }

    #[test]
    fn entity_move_is_smaller_than_chunk_data() {
        let mv = ClientboundPacket::EntityMove {
            id: EntityId(1),
            pos: Vec3::ZERO,
        };
        let chunk = ClientboundPacket::ChunkData {
            pos: ChunkPos::new(0, 0),
            payload_bytes: 4_096,
        };
        assert!(clientbound_wire_size(&mv) < clientbound_wire_size(&chunk));
    }

    #[test]
    fn varint_roundtrip_extremes() {
        for value in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, value);
            let mut bytes = buf.freeze();
            assert_eq!(get_varint(&mut bytes).unwrap(), value);
        }
    }

    #[test]
    fn unknown_block_kind_is_an_error() {
        // Hand-craft a BlockChange with an out-of-range block kind id.
        let mut buf = BytesMut::new();
        buf.put_u8(0x82);
        buf.put_i32(0);
        buf.put_i32(0);
        buf.put_i32(0);
        buf.put_u16(999);
        buf.put_u8(0);
        assert_eq!(
            decode_clientbound(buf.freeze()),
            Err(DecodeError::UnknownBlockKind(999))
        );
    }
}
