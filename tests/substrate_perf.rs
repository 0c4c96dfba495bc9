//! Substrate storage regression tests for the palette-compressed chunk body.
//!
//! The dense layout spent `DENSE_BODY_BYTES` (64 KiB) per loaded chunk
//! regardless of content. The palette store's footprint scales with the
//! number of distinct blocks actually present, and on the paper's workload
//! worlds — generated terrain plus each workload's construct — that must be
//! a ≥ 4× aggregate reduction. The per-workload floor is looser because a
//! construct-dense world (many block kinds per chunk) legitimately needs a
//! wider palette than flat grassland.

use meterstick_workloads::{WorkloadKind, WorkloadSpec};
use mlg_world::DENSE_BODY_BYTES;

#[test]
fn paper_workload_worlds_compress_at_least_4x() {
    let mut total_dense: u64 = 0;
    let mut total_palette: u64 = 0;
    for kind in WorkloadKind::all() {
        let mut built = WorkloadSpec::new(kind).build(392_114_485);
        // Post-build compaction mirrors the server, which re-narrows chunk
        // palettes at simulated major-GC ticks.
        built.world.compact_chunk_storage();
        let chunks = built.world.loaded_chunk_count() as u64;
        assert!(chunks > 0, "{kind}: workload world has no loaded chunks");
        let dense = chunks * DENSE_BODY_BYTES as u64;
        let palette = built.world.chunk_storage_bytes() as u64;
        let ratio = dense as f64 / palette as f64;
        println!("{kind}: {chunks} chunks, dense {dense} B, palette {palette} B, {ratio:.2}x");
        assert!(
            ratio >= 2.0,
            "{kind}: palette ratio {ratio:.2}x collapsed below the 2x sanity floor"
        );
        total_dense += dense;
        total_palette += palette;
    }
    let aggregate = total_dense as f64 / total_palette as f64;
    assert!(
        aggregate >= 4.0,
        "aggregate palette ratio {aggregate:.2}x is below the pinned 4x regression floor"
    );
}

#[test]
fn built_workload_worlds_keep_their_packed_footprint() {
    // Generated chunks are packed once, straight at the compacted width. A
    // builder that packed wider, or kept a palette entry nothing references,
    // would read back block-for-block the same yet move these byte counts.
    let pinned = [
        (WorkloadKind::Control, 1_026_336),
        (WorkloadKind::Farm, 1_037_652),
        (WorkloadKind::Tnt, 1_013_970),
        (WorkloadKind::Lag, 1_014_150),
        (WorkloadKind::Players, 1_026_336),
        (WorkloadKind::Crowd, 1_026_336),
        (WorkloadKind::Horde, 1_026_336),
    ];
    assert_eq!(pinned.map(|(kind, _)| kind), WorkloadKind::extended());
    for (kind, bytes) in pinned {
        let built = WorkloadSpec::new(kind).build(392_114_485);
        assert_eq!(built.world.chunk_storage_bytes(), bytes, "{kind}");
    }
}
