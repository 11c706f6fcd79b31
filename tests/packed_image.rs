//! `GSWDPK01` parsing: malformed packed images fail with an error from
//! `CompressedGraph::from_bytes`, never a panic, before any query touches
//! them.

use gsword::graph::compressed::{pack_to_vec, CompressedGraph};
use gsword::graph::mmap::Bytes;

/// Header layout (DESIGN.md §13): magic, endianness probe, n, m, label
/// count, the two Elias-Fano low widths, then one `(offset, len)` pair of
/// u64s per section starting at byte 48.
const VERTICES_AT: usize = 16;
const EDGES_AT: usize = 24;
const SECTION_TABLE_AT: usize = 48;
const DEG_LOWS: usize = 3;
const DEG_HIGHS: usize = 4;
const OFF_LOWS: usize = 5;
const OFF_HIGHS: usize = 6;

fn read_u64(img: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(img[at..at + 8].try_into().unwrap())
}

fn parse(img: Vec<u8>) -> Result<CompressedGraph, String> {
    CompressedGraph::from_bytes(Bytes::from_vec(img)).map_err(|e| e.to_string())
}

/// `img` with section `s` declared empty.
fn empty_section(img: &[u8], s: usize) -> Vec<u8> {
    let mut bad = img.to_vec();
    let at = SECTION_TABLE_AT + s * 16 + 8;
    bad[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
    bad
}

/// `img` with the middle word of section `s` zeroed (the word must hold
/// set bits, so the section loses ones).
fn zeroed_word(img: &[u8], s: usize) -> Vec<u8> {
    let off = read_u64(img, SECTION_TABLE_AT + s * 16) as usize;
    let len = read_u64(img, SECTION_TABLE_AT + s * 16 + 8) as usize;
    let at = off + (len / 16) * 8;
    assert_ne!(read_u64(img, at), 0, "section {s} middle word holds ones");
    let mut bad = img.to_vec();
    bad[at..at + 8].fill(0);
    bad
}

#[test]
fn corrupt_images_are_rejected() {
    let g = gsword::datasets::dataset("yeast");
    let img = pack_to_vec(&g);
    parse(img.clone()).expect("the intact image parses");

    assert!(parse(b"short".to_vec()).is_err());
    let mut bad_magic = img.clone();
    bad_magic[0] = b'X';
    assert!(parse(bad_magic).is_err());
    let mut bad_endian = img.clone();
    bad_endian[8..16].reverse();
    assert!(parse(bad_endian).is_err());
    // A vertex count past the 32-bit id space.
    let mut bad_vertices = img.clone();
    bad_vertices[VERTICES_AT..VERTICES_AT + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(parse(bad_vertices).is_err());
    // Lie about |E|: the degree-index cross-check must trip.
    let mut bad_edges = img.clone();
    bad_edges[EDGES_AT..EDGES_AT + 8].copy_from_slice(&(g.num_edges() as u64 + 1).to_le_bytes());
    assert!(parse(bad_edges).is_err());

    // Elias-Fano sections too short for the n + 1 indexed entries: the
    // low bits must cover (n + 1)·l bits, the high bits hold n + 1 ones.
    for s in [DEG_LOWS, OFF_LOWS] {
        let err = parse(empty_section(&img, s)).expect_err("empty low-bits section");
        assert!(err.contains("low bits"), "section {s}: {err}");
    }
    for s in [DEG_HIGHS, OFF_HIGHS] {
        let err = parse(zeroed_word(&img, s)).expect_err("high-bits section lost ones");
        assert!(err.contains("high bits"), "section {s}: {err}");
    }
}
