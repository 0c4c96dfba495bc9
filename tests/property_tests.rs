//! Property-based tests (proptest) on the core data structures and
//! invariants: the ISR metric, coordinate conversions, the protocol codec,
//! start-time labels, region geometry, summary statistics and campaign
//! planning.

use proptest::prelude::*;

use cloud_sim::environment::Environment;
use cloud_sim::temporal::{StartTime, MINUTES_PER_WEEK};
use meterstick::campaign::{Axis, Campaign};
use meterstick_metrics::isr::{analytical_isr, instability_ratio, IsrParams};
use meterstick_metrics::stats::{percentile, BoxplotSummary, Percentiles};
use meterstick_workloads::{WorkloadKind, WorkloadSpec};
use mlg_entity::{EntityId, Vec3};
use mlg_protocol::codec::{
    clientbound_wire_size, decode_clientbound, decode_serverbound, encode_clientbound,
    encode_serverbound, serverbound_wire_size, DecodeError,
};
use mlg_protocol::{ClientboundPacket, ServerboundPacket};
use mlg_server::ServerFlavor;
use mlg_world::{Block, BlockKind, BlockPos, Chunk, ChunkPos, Region};

/// A varint operand: every width boundary the codec crosses, the
/// `0x4000_0000 | id` entity ids the server gives players, or any `u64`.
fn varint_operand(word: u64) -> u64 {
    const EDGES: [u64; 7] = [0, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX];
    match word % 9 {
        edge @ 0..=6 => EDGES[edge as usize],
        7 => 0x4000_0000 | ((word >> 8) % 4_096),
        _ => word,
    }
}

/// Empty, ASCII or multi-byte text of at most 300 bytes.
fn packet_text(ascii: &str, word: u64) -> String {
    match word % 3 {
        0 => String::new(),
        1 => ascii.to_owned(),
        _ => ascii
            .bytes()
            .take(75)
            .map(|b| ['é', '→', '𝄞', 'a'][usize::from(b) % 4])
            .collect(),
    }
}

fn packet_vec3(word: u64) -> Vec3 {
    let axis = |shift: u32| f64::from((word >> shift) as i32) / 8.0;
    Vec3::new(axis(0), axis(16), axis(32))
}

fn packet_block_pos(word: u64) -> BlockPos {
    BlockPos::new(word as i32, (word >> 24) as i32, (word >> 32) as i32)
}

fn packet_block(word: u64) -> Block {
    Block::with_state(BlockKind::all()[(word % 36) as usize], (word >> 8) as u8)
}

/// The clientbound packet of variant `variant` (of 10) with fields drawn
/// from `word` and `text`.
fn clientbound_case(variant: usize, word: u64, text: String) -> ClientboundPacket {
    let id = EntityId(varint_operand(word));
    let pos = packet_vec3(word.rotate_left(17));
    match variant {
        0 => ClientboundPacket::LoginAccepted {
            player_id: id,
            spawn: pos,
        },
        1 => ClientboundPacket::ChunkData {
            pos: ChunkPos::new(word as i32, (word >> 32) as i32),
            payload_bytes: [0, u32::MAX, (word >> 7) as u32][(word % 3) as usize],
        },
        2 => ClientboundPacket::BlockChange {
            pos: packet_block_pos(word),
            block: packet_block(word),
        },
        3 => ClientboundPacket::EntitySpawn {
            id,
            kind_id: (word >> 48) as u16,
            pos,
        },
        4 => ClientboundPacket::EntityMove { id, pos },
        5 => ClientboundPacket::EntityDestroy { id },
        6 => ClientboundPacket::Chat {
            message: text,
            echo_of_ms: pos.x,
        },
        7 => ClientboundPacket::KeepAlive { id: id.0 },
        8 => ClientboundPacket::TimeUpdate {
            world_age_ticks: id.0,
        },
        _ => ClientboundPacket::Disconnect { reason: text },
    }
}

/// The serverbound packet of variant `variant` (of 7), drawn like
/// [`clientbound_case`].
fn serverbound_case(variant: usize, word: u64, text: String) -> ServerboundPacket {
    match variant {
        0 => ServerboundPacket::Login { username: text },
        1 => ServerboundPacket::PlayerMove {
            pos: packet_vec3(word),
            on_ground: word & 1 == 1,
        },
        2 => ServerboundPacket::BlockPlace {
            pos: packet_block_pos(word),
            block: packet_block(word),
        },
        3 => ServerboundPacket::BlockDig {
            pos: packet_block_pos(word),
        },
        4 => ServerboundPacket::Chat {
            message: text,
            sent_at_ms: packet_vec3(word).x,
        },
        5 => ServerboundPacket::KeepAlive {
            id: varint_operand(word),
        },
        _ => ServerboundPacket::Disconnect,
    }
}

/// A number field below `limit`, or one of the ways such a field goes
/// wrong: out of range, signed, zero-padded past two digits, too large for
/// a `u32`, padded with a space, empty or not a number.
fn number_field(word: u64, limit: u64) -> String {
    let n = (word >> 4) % limit;
    match word % 8 {
        0 => n.to_string(),
        1 => format!("{n:02}"),
        2 => (limit + (word >> 4) % 100).to_string(),
        3 => format!("+{n}"),
        4 => format!("-{n}"),
        5 => format!("{n:0>7}"),
        6 => format!("{}0000000000", word >> 4),
        _ => ["", " 1", "1 ", "x", "١"][((word >> 4) % 5) as usize].to_owned(),
    }
}

/// A start-time label that is right or nearly right: a day name or a
/// near-miss of one, then hour and minute [`number_field`]s, with the
/// separators sometimes swapped or doubled.
fn start_time_label(word: u64) -> String {
    const DAYS: [&str; 10] = [
        "mon", "tue", "wed", "thu", "fri", "sat", "sun", "Mon", "monday", "",
    ];
    const SEPARATORS: [(&str, &str); 6] = [
        ("-", ":"),
        ("-", ":"),
        ("-", ":"),
        (":", "-"),
        ("--", ":"),
        ("-", "::"),
    ];
    let day = DAYS[(word % 10) as usize];
    let (dash, colon) = SEPARATORS[((word >> 4) % 6) as usize];
    let hour = number_field(word >> 8, 24);
    let minute = number_field(word.rotate_right(28), 60);
    format!("{day}{dash}{hour}{colon}{minute}")
}

/// `encoded` is `size` bytes, decodes to `packet`, and no strict prefix of
/// it decodes to anything.
fn check_encoding<P: PartialEq + std::fmt::Debug>(
    packet: &P,
    size: usize,
    encoded: bytes::Bytes,
    decode: fn(bytes::Bytes) -> Result<P, DecodeError>,
) {
    assert_eq!(size, encoded.len(), "{packet:?}");
    for cut in 0..encoded.len() {
        let prefix = decode(encoded.slice(0..cut));
        assert_eq!(
            prefix,
            Err(DecodeError::UnexpectedEnd),
            "{packet:?} cut at {cut}"
        );
    }
    assert_eq!(decode(encoded).as_ref(), Ok(packet));
}

proptest! {
    // ------------------------------------------------------------------ ISR
    #[test]
    fn isr_is_always_in_unit_range(
        durations in prop::collection::vec(0.1f64..5_000.0, 0..400),
    ) {
        let isr = instability_ratio(&durations, IsrParams::default());
        prop_assert!((0.0..=1.0).contains(&isr));
    }

    #[test]
    fn isr_of_constant_traces_is_zero(value in 0.1f64..2_000.0, len in 2usize..200) {
        let trace = vec![value; len];
        prop_assert_eq!(instability_ratio(&trace, IsrParams::default()), 0.0);
    }

    #[test]
    fn isr_is_invariant_to_sub_budget_noise(
        noise in prop::collection::vec(0.1f64..49.9, 10..200),
    ) {
        // Every tick below the budget runs at the budget period, so traces of
        // sub-budget ticks always have ISR 0 regardless of their shape.
        let isr = instability_ratio(&noise, IsrParams::default());
        prop_assert_eq!(isr, 0.0);
    }

    #[test]
    fn analytical_isr_matches_its_closed_form_bounds(s in 1.0f64..100.0, lambda in 1.0f64..500.0) {
        let isr = analytical_isr(s, lambda);
        prop_assert!((0.0..=1.0).contains(&isr));
        // Monotone in s, antitone in lambda.
        prop_assert!(analytical_isr(s + 1.0, lambda) >= isr);
        prop_assert!(analytical_isr(s, lambda + 1.0) <= isr);
    }

    // ----------------------------------------------------------- statistics
    #[test]
    fn percentiles_are_bounded_by_extremes(
        values in prop::collection::vec(-1_000.0f64..1_000.0, 1..200),
        p in 0.0f64..100.0,
    ) {
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let v = percentile(&values, p);
        prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
    }

    #[test]
    fn boxplot_invariants_hold(values in prop::collection::vec(0.0f64..10_000.0, 2..300)) {
        let p = Percentiles::of(&values);
        let b = BoxplotSummary::of(&values);
        prop_assert!(b.q1 <= b.median && b.median <= b.q3);
        prop_assert!(b.whisker_low >= b.min - 1e-9);
        prop_assert!(b.whisker_high <= b.max + 1e-9);
        prop_assert!(p.mean >= p.min && p.mean <= p.max);
    }

    // ---------------------------------------------------------- coordinates
    #[test]
    fn block_pos_chunk_and_local_are_consistent(
        x in -100_000i32..100_000,
        y in 0i32..127,
        z in -100_000i32..100_000,
    ) {
        let pos = BlockPos::new(x, y, z);
        let chunk = pos.chunk();
        let (lx, ly, lz) = pos.local();
        let origin = chunk.origin_block();
        prop_assert_eq!(origin.x + lx as i32, x);
        prop_assert_eq!(origin.z + lz as i32, z);
        prop_assert_eq!(ly, y);
        prop_assert!(lx < 16 && lz < 16);
    }

    #[test]
    fn vec3_to_block_pos_floors(
        x in -10_000.0f64..10_000.0,
        y in 0.0f64..127.0,
        z in -10_000.0f64..10_000.0,
    ) {
        let v = Vec3::new(x, y, z);
        let b = v.block_pos();
        prop_assert!(f64::from(b.x) <= x && x < f64::from(b.x) + 1.0);
        prop_assert!(f64::from(b.z) <= z && z < f64::from(b.z) + 1.0);
    }

    // --------------------------------------------------------------- regions
    #[test]
    fn region_volume_matches_iteration(
        ax in -20i32..20, ay in 0i32..20, az in -20i32..20,
        bx in -20i32..20, by in 0i32..20, bz in -20i32..20,
    ) {
        let region = Region::new(BlockPos::new(ax, ay, az), BlockPos::new(bx, by, bz));
        prop_assert_eq!(region.iter().count() as u64, region.volume());
        for pos in region.iter() {
            prop_assert!(region.contains(pos));
        }
    }

    // ------------------------------------------------------- palette storage
    #[test]
    fn palette_chunk_matches_dense_reference(
        writes in prop::collection::vec(any::<u32>(), 1..300),
    ) {
        // The palette-compressed chunk body must be observationally identical
        // to a dense Vec<Block> under arbitrary write sequences — including
        // the old-value return of set_block, mid-sequence gc compaction
        // (which re-narrows the bit width), snapshots (clones), the by-kind
        // iterator and each column's (base, top) summary and gap (the pair
        // when base < top), held against a scan of the dense copy after
        // every write. Each u32 packs one write: x(4) z(4) y(7) kind(6,
        // mod 36) state(2) compact(1) op(2) len(6). Ops 0 and 1 set one
        // block anywhere; op 2 fills a run of a column in the 4×4 corner
        // from `y − 64` (foundations from the clamped bottom, runs past the
        // ceiling); op 3 sets the corner column's block at y = 0 or 127.
        let mut chunk = Chunk::empty(ChunkPos::new(0, 0));
        let mut dense = vec![Block::AIR; 16 * 16 * 128];
        let index = |x: usize, y: i32, z: usize| (y as usize * 16 + z) * 16 + x;
        let scan = |dense: &[Block], x: usize, z: usize| {
            let blocking = |y: i32| {
                let block = dense[index(x, y, z)];
                block.is_solid() || block.kind().is_fluid()
            };
            let base = (0..128).find(|&y| !blocking(y)).unwrap_or(128) - 1;
            let top = (0..128).rev().find(|&y| !dense[index(x, y, z)].is_air());
            (base, top.unwrap_or(-1))
        };
        // A column's gap: its scanned `(base, top)` when `base < top`.
        let gap = |dense: &[Block], x: usize, z: usize| {
            let (base, top) = scan(dense, x, z);
            (base < top).then_some((base, top))
        };
        for (step, word) in writes.iter().copied().enumerate() {
            let mut x = (word & 15) as usize;
            let mut z = ((word >> 4) & 15) as usize;
            let y = ((word >> 8) & 127) as i32;
            let kind_idx = ((word >> 15) & 63) as usize % 36;
            let state = ((word >> 21) & 3) as u8;
            let compact = (word >> 23) & 1 == 1;
            let len = (word >> 26) as i32;
            let block = Block::with_state(BlockKind::all()[kind_idx], state);
            match (word >> 24) & 3 {
                2 => {
                    (x, z) = (x & 3, z & 3);
                    let (y_lo, y_hi) = (y - 64, y - 64 + 2 * len);
                    chunk.fill_column(x, z, y_lo, y_hi, block);
                    for y in y_lo.max(0)..=y_hi.min(127) {
                        dense[index(x, y, z)] = block;
                    }
                }
                op => {
                    let y = if op == 3 {
                        (x, z) = (x & 3, z & 3);
                        if len % 2 == 0 { 0 } else { 127 }
                    } else {
                        y
                    };
                    let old = chunk.set_block(x, y, z, block);
                    prop_assert_eq!(old, dense[index(x, y, z)]);
                    dense[index(x, y, z)] = block;
                }
            }
            prop_assert_eq!(chunk.column_summary(x, z), scan(&dense, x, z), "step {}", step);
            prop_assert_eq!(chunk.column_gap(x, z), gap(&dense, x, z), "step {}", step);
            if compact && step % 16 == 0 {
                chunk.compact_storage();
            }
        }
        for x in 0..16 {
            for z in 0..16 {
                prop_assert_eq!(chunk.column_summary(x, z), scan(&dense, x, z));
                prop_assert_eq!(chunk.column_gap(x, z), gap(&dense, x, z));
                prop_assert_eq!(chunk.height_at(x, z), Some(scan(&dense, x, z).1).filter(|&t| t >= 0));
            }
        }
        let snapshot = chunk.clone();
        let mut non_air = 0usize;
        for y in 0..128i32 {
            for z in 0..16 {
                for x in 0..16 {
                    let expected = dense[index(x, y, z)];
                    prop_assert_eq!(chunk.block(x, y, z), expected);
                    prop_assert_eq!(snapshot.block(x, y, z), expected);
                    non_air += usize::from(!expected.is_air());
                }
            }
        }
        prop_assert_eq!(chunk.non_air_blocks() as usize, non_air);
        let mut by_kind = 0usize;
        for &kind in BlockKind::all().iter().filter(|k| **k != BlockKind::Air) {
            for (x, y, z, block) in chunk.iter_kind(kind) {
                prop_assert_eq!(block.kind(), kind);
                prop_assert_eq!(block, dense[index(x, y, z)]);
                by_kind += 1;
            }
        }
        prop_assert_eq!(by_kind, non_air);
    }

    // -------------------------------------------------------------- protocol
    #[test]
    fn serverbound_chat_roundtrips(message in ".{0,80}", ts in 0.0f64..1e9) {
        let packet = ServerboundPacket::Chat { message, sent_at_ms: ts };
        let decoded = decode_serverbound(encode_serverbound(&packet)).unwrap();
        prop_assert_eq!(decoded, packet);
    }

    #[test]
    fn clientbound_block_change_roundtrips(
        x in -1_000_000i32..1_000_000,
        y in 0i32..127,
        z in -1_000_000i32..1_000_000,
        kind_idx in 0usize..36,
        state in 0u8..=255,
    ) {
        let kind = BlockKind::all()[kind_idx];
        let packet = ClientboundPacket::BlockChange {
            pos: BlockPos::new(x, y, z),
            block: Block::with_state(kind, state),
        };
        let decoded = decode_clientbound(encode_clientbound(&packet)).unwrap();
        prop_assert_eq!(decoded, packet);
    }

    #[test]
    fn clientbound_entity_move_roundtrips(
        id in 0u64..u64::MAX,
        x in -1e6f64..1e6, y in -256.0f64..256.0, z in -1e6f64..1e6,
    ) {
        let packet = ClientboundPacket::EntityMove {
            id: EntityId(id),
            pos: Vec3::new(x, y, z),
        };
        let decoded = decode_clientbound(encode_clientbound(&packet)).unwrap();
        prop_assert_eq!(decoded, packet);
    }

    #[test]
    fn wire_size_is_the_encoded_length_and_every_packet_roundtrips(
        word in any::<u64>(),
        ascii in ".{0,300}",
    ) {
        // Sizing runs the layout into a counting sink, encoding runs the same
        // layout into a buffer: the two must agree on every variant, and a
        // chunk's notional payload is counted on top of its header. No strict
        // prefix of an encoding is a packet.
        let text = packet_text(&ascii, word >> 3);
        for variant in 0..10 {
            let packet = clientbound_case(variant, word, text.clone());
            let payload = match packet {
                ClientboundPacket::ChunkData { payload_bytes, .. } => payload_bytes as usize,
                _ => 0,
            };
            let header = clientbound_wire_size(&packet) - payload;
            check_encoding(&packet, header, encode_clientbound(&packet), decode_clientbound);
        }
        for variant in 0..7 {
            let packet = serverbound_case(variant, word, text.clone());
            let size = serverbound_wire_size(&packet);
            check_encoding(&packet, size, encode_serverbound(&packet), decode_serverbound);
        }
    }

    #[test]
    fn decoding_arbitrary_bytes_never_panics(
        id in any::<u8>(),
        body in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // Whatever arrives, the decoders answer `Ok` or `Err`. Two cases in
        // three start with a known packet id, so the field parsers see the
        // garbage instead of the id check rejecting it.
        let first = [id % 7, 0x80 | (id % 10), id][usize::from(id) % 3];
        let data: Vec<u8> = std::iter::once(first).chain(body).collect();
        let _ = decode_clientbound(data.clone().into());
        let _ = decode_serverbound(data.into());
    }

    // ----------------------------------------------------------- start time
    #[test]
    fn start_time_parse_never_panics_and_reparses_what_it_accepts(
        word in any::<u64>(),
        ascii in ".{0,24}",
    ) {
        for label in [start_time_label(word), ascii.clone(), packet_text(&ascii, word)] {
            if let Some(start) = StartTime::parse(&label) {
                prop_assert_eq!(
                    StartTime::parse(&start.to_string()),
                    Some(start),
                    "accepted {:?}",
                    label
                );
            }
        }
    }

    #[test]
    fn truncated_packets_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // Decoding arbitrary bytes must return an error or a packet, never panic.
        let _ = decode_clientbound(bytes::Bytes::from(bytes.clone()));
        let _ = decode_serverbound(bytes::Bytes::from(bytes));
    }

    // ------------------------------------------------------------ Campaign
    #[test]
    fn plans_visit_every_coordinate_once_in_axis_order(
        lens in prop::collection::vec(1usize..=3, Axis::ALL.len()),
        iterations in 1u32..=2,
        base_seed in any::<u64>(),
    ) {
        // Level `i` of every axis is a value that names `i`.
        let workload = |i: usize| WorkloadKind::extended()[i];
        let environment = |i: usize| Environment::das5(2 + i as u32);
        let flavor = |i: usize| ServerFlavor::all()[i];
        let switch = |i: usize| i == 1;
        let start = |i: usize| StartTime::from_minutes(90 * i as u32);
        let plan = Campaign::new()
            .workloads((0..lens[0]).map(workload))
            .environments((0..lens[1]).map(environment))
            .flavors((0..lens[2]).map(flavor))
            .tick_threads((0..lens[3]).map(|i| i as u32 + 1))
            .shard_rebalance((0..lens[4]).map(switch))
            .eager_lighting((0..lens[5]).map(switch))
            .start_times((0..lens[6]).map(start))
            .iterations(iterations)
            .seed(base_seed)
            .plan()
            .expect("every axis has at least one level");

        // In range, strictly ascending and the right number of them: every
        // (coordinate, iteration) exactly once, in `Axis::ALL` order.
        let positions: Vec<([usize; 7], u32)> = plan
            .jobs()
            .iter()
            .map(|job| (Axis::ALL.map(|axis| job.coord[axis]), job.iteration))
            .collect();
        prop_assert_eq!(positions.len(), lens.iter().product::<usize>() * iterations as usize);
        prop_assert!(positions.windows(2).all(|pair| pair[0] < pair[1]));

        for (position, job) in plan.jobs().iter().enumerate() {
            let at = Axis::ALL.map(|axis| job.coord[axis]);
            prop_assert_eq!(job.index, position);
            prop_assert!(at.iter().zip(&lens).all(|(at, len)| at < len) && job.iteration < iterations);
            // The job holds the values its coordinate names.
            prop_assert_eq!(job.config.workload, WorkloadSpec::new(workload(at[0])));
            prop_assert_eq!(&job.config.environment, &environment(at[1]));
            prop_assert_eq!(job.flavor, flavor(at[2]));
            prop_assert_eq!(job.config.tick_threads, at[3] as u32 + 1);
            prop_assert_eq!(job.config.shard_rebalance, Some(switch(at[4])));
            prop_assert_eq!(job.config.eager_lighting, Some(switch(at[5])));
            prop_assert_eq!(job.config.start_time, start(at[6]));
            prop_assert_eq!(job.config.base_seed, base_seed);
            // The one seed formula: workload, environment, flavor and
            // iteration only.
            let seed = base_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(at[0] as u64 * 15_485_863)
                .wrapping_add(at[1] as u64 * 32_452_843)
                .wrapping_add(at[2] as u64 * 1_000_003)
                .wrapping_add(u64::from(job.iteration) * 7_919);
            prop_assert_eq!(job.seed, seed);
        }
    }
}

#[test]
fn every_minute_of_the_week_round_trips_through_its_label() {
    for minute in 0..MINUTES_PER_WEEK {
        let start = StartTime::from_minutes(minute);
        assert_eq!(start.minute_of_week(), minute);
        assert_eq!(
            StartTime::parse(&start.to_string()),
            Some(start),
            "minute {minute}"
        );
    }
}
