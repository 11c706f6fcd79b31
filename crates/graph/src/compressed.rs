//! Succinct graph storage: Rice-coded gap adjacency with Elias-Fano
//! indexing, packed into a single mmap-able image.
//!
//! The representation follows the WebGraph/BvGraph recipe adapted to this
//! workspace's access patterns (DESIGN.md §13):
//!
//! * Each vertex's strictly ascending neighbor list is split into blocks
//!   of [`BLOCK`] entries. A block starts with its first neighbor as an
//!   absolute LEB128 varint, then a one-byte Rice parameter `k` chosen
//!   per block to minimize total bits, then the remaining entries as
//!   Rice-coded `gap − 1` values (gaps are ≥ 1 in a strict list):
//!   quotient in unary, `k` low bits binary, LSB-first, padded to a byte
//!   boundary at block end. Per-block Rice beats plain LEB128 varints by
//!   ~20% on the power-law suites (a 580-mean gap costs ~11 bits instead
//!   of 16). Multi-block vertices carry a restart table of `u32` byte
//!   offsets so membership probes binary-search *blocks* and decode at
//!   most one of them.
//! * Two Elias-Fano monotone sequences index the stream: cumulative
//!   degrees (universe `2|E|`) and cumulative byte offsets of each
//!   vertex's adjacency region. A select index built at load time (word
//!   ranks plus the word of every 64th one) makes each lookup a few word
//!   reads; the image format does not change.
//! * Labels, the label→vertices index, and its offsets are stored raw so
//!   [`GraphStorage::vertices_with_label`] stays zero-copy.
//!
//! The on-disk image *is* the in-memory representation: [`pack_to_vec`]
//! produces the file bytes, and [`CompressedGraph::load`] maps them with
//! no per-vertex materialization. All sections are 8-byte aligned and
//! little-endian; a header magic/version/endianness probe rejects foreign
//! images instead of misreading them.
//!
//! Repeated access is served by **one decoded adjacency per graph**
//! (DESIGN.md §15). When a per-graph byte budget
//! ([`CompressedGraph::with_decode_cache`], default
//! [`DECODE_CACHE_DEFAULT_BYTES`]) holds the whole adjacency as CSR arrays
//! — `n + 1` offsets and `2|E|` ids — the first adjacency read decodes it
//! once, and every thread and clone reads that copy. When it does not,
//! every access streams the Rice decoder: a partial cache measured slower
//! than streaming. The copy is invisible to the memory model, which prices
//! candidate-graph accesses only, and `mem_bytes` counts its bytes.

use std::path::Path;
use std::sync::{Arc, OnceLock};

use crate::mmap::Bytes;
use crate::storage::{GraphStorage, NeighborsRef};
use crate::{Graph, GraphBuilder, GraphError, Label, VertexId};

/// Entries per adjacency block (one restart point each).
pub const BLOCK: usize = 64;

/// Image magic: "GSWDPK" + 2-digit format version.
pub const MAGIC: [u8; 8] = *b"GSWDPK01";

const ENDIAN_PROBE: u64 = 0x0102_0304_0506_0708;

/// Header size in bytes: magic, probe, n, m, label_count, two EF low-bit
/// widths, then 8 `(offset, len)` section entries.
const HEADER_LEN: usize = 48 + SECTIONS * 16;
const SECTIONS: usize = 8;

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

fn write_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> u32 {
    let mut v = 0u32;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u32::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

// ---------------------------------------------------------------------------
// Rice-coded bit stream (LSB-first within each byte)
// ---------------------------------------------------------------------------

/// Bit-granular writer appending to a byte vector.
struct BitWriter {
    cur: u8,
    fill: u32,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter { cur: 0, fill: 0 }
    }

    #[inline]
    fn push_bit(&mut self, out: &mut Vec<u8>, bit: u32) {
        self.cur |= ((bit & 1) as u8) << self.fill;
        self.fill += 1;
        if self.fill == 8 {
            out.push(self.cur);
            self.cur = 0;
            self.fill = 0;
        }
    }

    /// Rice code of `v` with parameter `k`: `v >> k` one-bits, a zero
    /// terminator, then the `k` low bits.
    fn write_rice(&mut self, out: &mut Vec<u8>, v: u32, k: u32) {
        for _ in 0..(v >> k) {
            self.push_bit(out, 1);
        }
        self.push_bit(out, 0);
        for i in 0..k {
            self.push_bit(out, v >> i);
        }
    }

    /// Flush the partial byte (zero-padded) — the per-block alignment.
    fn finish(&mut self, out: &mut Vec<u8>) {
        if self.fill > 0 {
            out.push(self.cur);
            self.cur = 0;
            self.fill = 0;
        }
    }
}

/// The Rice parameter minimizing the exact encoded size of `gaps`.
fn rice_param(gaps: &[u32]) -> u32 {
    let mut best_k = 0u32;
    let mut best_cost = u64::MAX;
    for k in 0..32u32 {
        let cost: u64 = gaps
            .iter()
            .map(|&v| u64::from(v >> k) + 1 + u64::from(k))
            .sum();
        if cost < best_cost {
            best_cost = cost;
            best_k = k;
        }
    }
    best_k
}

/// Little-endian 64-bit window of `bytes` at byte `pos`, zero-padded past
/// the end of the slice.
#[inline]
fn window(bytes: &[u8], pos: usize) -> u64 {
    match bytes.get(pos..).and_then(<[u8]>::first_chunk::<8>) {
        Some(w) => u64::from_le_bytes(*w),
        None => {
            let mut buf = [0u8; 8];
            let tail = bytes.get(pos..).unwrap_or_default();
            buf[..tail.len()].copy_from_slice(tail);
            u64::from_le_bytes(buf)
        }
    }
}

/// Bit-granular cursor over one adjacency region: byte position plus bit
/// offset within that byte. Block starts are byte-aligned (absolute-first
/// varint and the `k` parameter byte), gap entries are Rice-coded bits.
#[derive(Debug, Clone, Copy)]
struct BlockCursor {
    pos: usize,
    bit: u32,
    k: u32,
}

impl BlockCursor {
    fn at(pos: usize) -> Self {
        BlockCursor { pos, bit: 0, k: 0 }
    }

    #[inline]
    fn align(&mut self) {
        if self.bit != 0 {
            self.pos += 1;
            self.bit = 0;
        }
    }

    /// Unary quotient: count one-bits up to the zero terminator,
    /// byte-chunked (a sentinel bit above the valid range stops
    /// `trailing_ones` from running into undefined bits).
    #[inline]
    fn read_unary(&mut self, bytes: &[u8]) -> u32 {
        let mut q = 0u32;
        loop {
            let avail = 8 - self.bit;
            let chunk = (u32::from(bytes[self.pos]) >> self.bit) | (1u32 << avail);
            let ones = chunk.trailing_ones().min(avail);
            q += ones;
            if ones == avail {
                self.pos += 1;
                self.bit = 0;
            } else {
                self.bit += ones + 1;
                if self.bit == 8 {
                    self.pos += 1;
                    self.bit = 0;
                }
                return q;
            }
        }
    }

    /// `width` bits, LSB-first, byte-chunked.
    #[inline]
    fn read_bits(&mut self, bytes: &[u8], width: u32) -> u32 {
        let mut v = 0u32;
        let mut got = 0u32;
        while got < width {
            let avail = (8 - self.bit).min(width - got);
            let chunk = (u32::from(bytes[self.pos]) >> self.bit) & ((1u32 << avail) - 1);
            v |= chunk << got;
            got += avail;
            self.bit += avail;
            if self.bit == 8 {
                self.pos += 1;
                self.bit = 0;
            }
        }
        v
    }

    /// The next Rice-coded gap value under the current block's `k`. One
    /// 64-bit window at the cursor byte holds at least 56 bits of the
    /// stream: the unary quotient is its `trailing_ones`, the `k` low bits a
    /// mask. A code that does not fit the window (a unary run of ~56+ ones)
    /// takes the byte-wise reader.
    #[inline]
    fn read_gap(&mut self, bytes: &[u8]) -> u32 {
        let w = window(bytes, self.pos) >> self.bit;
        let q = w.trailing_ones();
        let end = self.bit + q + 1 + self.k;
        if end <= 64 {
            // q ≤ 63 here, and the terminator sits at bit q.
            let low = ((w >> q) >> 1) & ((1u64 << self.k) - 1);
            self.pos += (end / 8) as usize;
            self.bit = end % 8;
            return (q << self.k) | low as u32;
        }
        let q = self.read_unary(bytes);
        let low = self.read_bits(bytes, self.k);
        (q << self.k) | low
    }
}

/// Decode the next list entry at `idx`: block starts re-align and read the
/// absolute varint plus the block's Rice parameter; later entries are
/// `prev + 1 + gap`.
#[inline]
fn decode_next(
    cur: &mut BlockCursor,
    bytes: &[u8],
    idx: usize,
    deg: usize,
    prev: VertexId,
) -> VertexId {
    if idx.is_multiple_of(BLOCK) {
        cur.align();
        let v = read_varint(bytes, &mut cur.pos);
        if (deg - idx - 1).min(BLOCK - 1) > 0 {
            cur.k = u32::from(bytes[cur.pos]);
            cur.pos += 1;
        }
        v
    } else {
        prev + 1 + cur.read_gap(bytes)
    }
}

// ---------------------------------------------------------------------------
// Elias-Fano
// ---------------------------------------------------------------------------

/// Owned Elias-Fano encoding of a monotone non-decreasing `u64` sequence —
/// the build-side representation; the load side reads the same words
/// zero-copy through [`EfView`].
#[derive(Debug, Clone)]
struct EliasFano {
    l: u32,
    lows: Vec<u64>,
    highs: Vec<u64>,
}

fn ef_low_width(n: usize, universe: u64) -> u32 {
    if n == 0 || universe < n as u64 {
        0
    } else {
        (universe / n as u64).ilog2()
    }
}

fn set_bits(words: &mut [u64], bitpos: usize, value: u64, width: u32) {
    if width == 0 {
        return;
    }
    let w = bitpos / 64;
    let o = (bitpos % 64) as u32;
    words[w] |= value << o;
    if o + width > 64 {
        words[w + 1] |= value >> (64 - o);
    }
}

fn get_bits(words: &[u64], bitpos: usize, width: u32) -> u64 {
    if width == 0 {
        return 0;
    }
    let w = bitpos / 64;
    let o = (bitpos % 64) as u32;
    let mut v = words[w] >> o;
    if o + width > 64 {
        v |= words[w + 1] << (64 - o);
    }
    v & ((1u64 << width) - 1)
}

impl EliasFano {
    /// Encode `values` (monotone non-decreasing).
    fn encode(values: &[u64]) -> Self {
        let n = values.len();
        let universe = values.last().copied().unwrap_or(0);
        let l = ef_low_width(n, universe);
        let mut lows = vec![0u64; (n * l as usize).div_ceil(64)];
        let high_bits = (universe >> l) as usize + n + 1;
        let mut highs = vec![0u64; high_bits.div_ceil(64)];
        for (i, &v) in values.iter().enumerate() {
            set_bits(&mut lows, i * l as usize, v & ((1u64 << l) - 1), l);
            let high = (v >> l) as usize + i;
            highs[high / 64] |= 1u64 << (high % 64);
        }
        EliasFano { l, lows, highs }
    }
}

/// Ones between consecutive entries of a [`SelectIndex`] sample table.
const SELECT_STRIDE: usize = 64;

/// `SELECT_IN_BYTE[b][r]`: bit position of the `r`-th one in byte `b`.
static SELECT_IN_BYTE: [[u8; 8]; 256] = {
    let mut table = [[0u8; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let (mut bit, mut r) = (0, 0);
        while bit < 8 {
            if (b >> bit) & 1 == 1 {
                table[b][r] = bit as u8;
                r += 1;
            }
            bit += 1;
        }
        b += 1;
    }
    table
};

/// Bit position of the `r`-th one (0-based) in `word`, which holds more
/// than `r` ones. Broadword: byte popcounts summed by one multiply locate
/// the byte, a table the bit within it.
#[inline]
fn select_in_word(word: u64, r: u32) -> u32 {
    const L8: u64 = 0x0101_0101_0101_0101;
    const H8: u64 = 0x8080_8080_8080_8080;
    let mut s = word - ((word >> 1) & 0x5555_5555_5555_5555);
    s = (s & 0x3333_3333_3333_3333) + ((s >> 2) & 0x3333_3333_3333_3333);
    s = (s + (s >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    // Byte j of `incl` counts the ones in bytes 0..=j (at most 64, so the
    // high bit of every byte stays clear).
    let incl = s.wrapping_mul(L8);
    // Bit 7 of byte j is set iff incl_j ≤ r: byte j lies wholly before the
    // target. Counting those bytes gives the target byte's index.
    let before = ((((u64::from(r) * L8) | H8) - incl) & H8) >> 7;
    let byte = (before.wrapping_mul(L8) >> 56) as u32;
    let skipped = ((incl << 8) >> (8 * byte)) & 0xFF;
    let b = (word >> (8 * byte)) & 0xFF;
    8 * byte + u32::from(SELECT_IN_BYTE[b as usize][(u64::from(r) - skipped) as usize])
}

/// Load-time select accelerator for one Elias-Fano high-bits vector: the
/// cumulative rank of every word plus a sample of the word holding every
/// [`SELECT_STRIDE`]-th one. A select jumps to its sample, binary-searches
/// the few words up to the next sample, and selects within one word.
#[derive(Debug, Clone)]
struct SelectIndex {
    /// Exclusive cumulative popcount per word of `highs`.
    rank: Vec<u32>,
    /// `samples[j]`: the word holding the one of rank `j · SELECT_STRIDE`.
    samples: Vec<u32>,
}

impl SelectIndex {
    /// Index `highs`; also returns how many ones it holds, which the
    /// caller validates before the first select.
    fn new(highs: &[u64]) -> (Self, usize) {
        let mut rank = Vec::with_capacity(highs.len());
        let mut samples = Vec::new();
        let mut ones = 0usize;
        for (w, &word) in highs.iter().enumerate() {
            rank.push(ones as u32);
            let c = word.count_ones() as usize;
            // A word holds at most 64 ones, so at most one sampled rank.
            if ones.next_multiple_of(SELECT_STRIDE) < ones + c {
                samples.push(w as u32);
            }
            ones += c;
        }
        samples.shrink_to_fit();
        (SelectIndex { rank, samples }, ones)
    }

    /// Bit position of the `i`-th one of `highs`.
    #[inline]
    fn select(&self, highs: &[u64], i: usize) -> usize {
        let j = i / SELECT_STRIDE;
        let lo = self.samples[j] as usize;
        let hi = self
            .samples
            .get(j + 1)
            .map_or(self.rank.len(), |&w| w as usize + 1);
        // rank[lo] ≤ i, so the search keeps at least one word.
        let w = lo + self.rank[lo..hi].partition_point(|&r| r as usize <= i) - 1;
        w * 64 + select_in_word(highs[w], (i - self.rank[w] as usize) as u32) as usize
    }

    /// Resident bytes of the two tables.
    fn mem_bytes(&self) -> usize {
        (self.rank.capacity() + self.samples.capacity()) * 4
    }
}

/// Zero-copy Elias-Fano reader over externally stored words plus the
/// [`SelectIndex`] built at load time.
#[derive(Debug, Clone, Copy)]
struct EfView<'a> {
    l: u32,
    lows: &'a [u64],
    highs: &'a [u64],
    select: &'a SelectIndex,
}

impl EfView<'_> {
    /// The value whose high-bits one sits at bit `pos`, at index `i`.
    #[inline]
    fn value(&self, i: usize, pos: usize) -> u64 {
        (((pos - i) as u64) << self.l) | get_bits(self.lows, i * self.l as usize, self.l)
    }

    /// The `i`-th encoded value.
    fn get(&self, i: usize) -> u64 {
        self.value(i, self.select.select(self.highs, i))
    }

    /// Values `i` and `i + 1`: one select, then the next one-bit in the
    /// same word (a second select only when that word has no later one).
    #[inline]
    fn get_pair(&self, i: usize) -> (u64, u64) {
        let p = self.select.select(self.highs, i);
        let later = self.highs[p / 64] & (!1u64 << (p % 64));
        let q = if later != 0 {
            p / 64 * 64 + later.trailing_zeros() as usize
        } else {
            self.select.select(self.highs, i + 1)
        };
        (self.value(i, p), self.value(i + 1, q))
    }
}

// ---------------------------------------------------------------------------
// Adjacency block coding
// ---------------------------------------------------------------------------

fn encode_adjacency(nbrs: &[VertexId], out: &mut Vec<u8>) {
    let d = nbrs.len();
    if d == 0 {
        return;
    }
    let nblocks = d.div_ceil(BLOCK);
    let table_pos = out.len();
    if nblocks > 1 {
        out.resize(out.len() + nblocks * 4, 0);
    }
    let data_start = out.len();
    for (b, chunk) in nbrs.chunks(BLOCK).enumerate() {
        if nblocks > 1 {
            let off = (out.len() - data_start) as u32;
            out[table_pos + b * 4..table_pos + b * 4 + 4].copy_from_slice(&off.to_le_bytes());
        }
        write_varint(out, chunk[0]);
        if chunk.len() > 1 {
            let gaps: Vec<u32> = chunk.windows(2).map(|w| w[1] - w[0] - 1).collect();
            let k = rice_param(&gaps);
            out.push(k as u8);
            let mut bw = BitWriter::new();
            for &gap in &gaps {
                bw.write_rice(out, gap, k);
            }
            bw.finish(out);
        }
    }
}

/// One vertex's adjacency region: restart table (multi-block vertices
/// only) followed by the gap-coded blocks. Decoding is streaming; seeks
/// are block-skippable.
#[derive(Debug, Clone, Copy)]
pub struct CompressedNeighbors<'a> {
    /// The adjacency section from this vertex's region to the section end.
    /// Decoding stops after `deg` entries, so the bytes past the region are
    /// never consumed; they only fill the 64-bit read windows, leaving the
    /// zero-padded tail to the section's last few bytes.
    stream: &'a [u8],
    deg: usize,
}

impl<'a> CompressedNeighbors<'a> {
    /// Number of neighbors.
    #[inline]
    pub fn len(&self) -> usize {
        self.deg
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.deg == 0
    }

    #[inline]
    fn nblocks(&self) -> usize {
        self.deg.div_ceil(BLOCK)
    }

    #[inline]
    fn data_start(&self) -> usize {
        let nb = self.nblocks();
        if nb > 1 {
            nb * 4
        } else {
            0
        }
    }

    #[inline]
    fn block_off(&self, b: usize) -> usize {
        if self.nblocks() > 1 {
            let p = b * 4;
            u32::from_le_bytes(self.stream[p..p + 4].try_into().unwrap()) as usize
        } else {
            0
        }
    }

    /// First neighbor of block `b` (decoded from the block's absolute
    /// varint restart).
    fn block_first(&self, b: usize) -> VertexId {
        let mut pos = self.data_start() + self.block_off(b);
        read_varint(self.stream, &mut pos)
    }

    /// Streaming decoder over the list (ascending).
    pub fn iter(&self) -> Decoder<'a> {
        Decoder {
            bytes: self.stream,
            cur: BlockCursor::at(self.data_start()),
            idx: 0,
            deg: self.deg,
            prev: 0,
        }
    }

    /// Append the decoded list to `out`.
    pub fn decode_into(&self, out: &mut Vec<VertexId>) {
        out.reserve(self.deg);
        out.extend(self.iter());
    }

    /// Membership probe: binary-search the restart table, decode at most
    /// one block. `O(log #blocks + BLOCK)`.
    pub fn contains(&self, x: VertexId) -> bool {
        if self.deg == 0 {
            return false;
        }
        let nb = self.nblocks();
        // Locate the last block with first ≤ x.
        let mut block = 0usize;
        if nb > 1 {
            let (mut lo, mut hi) = (0usize, nb);
            while lo + 1 < hi {
                let mid = lo + (hi - lo) / 2;
                if self.block_first(mid) <= x {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            block = lo;
        }
        // Linear decode within the block.
        let mut cur = BlockCursor::at(self.data_start() + self.block_off(block));
        let mut idx = block * BLOCK;
        let end = ((block + 1) * BLOCK).min(self.deg);
        let mut prev = 0;
        while idx < end {
            let v = decode_next(
                &mut cur,
                self.stream,
                idx % BLOCK,
                end - (idx - idx % BLOCK),
                prev,
            );
            if v >= x {
                return v == x;
            }
            prev = v;
            idx += 1;
        }
        false
    }
}

impl<'a> IntoIterator for CompressedNeighbors<'a> {
    type Item = VertexId;
    type IntoIter = Decoder<'a>;

    fn into_iter(self) -> Decoder<'a> {
        self.iter()
    }
}

/// Streaming gap decoder for one adjacency region.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    cur: BlockCursor,
    idx: usize,
    deg: usize,
    prev: VertexId,
}

impl Iterator for Decoder<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        if self.idx >= self.deg {
            return None;
        }
        let v = decode_next(&mut self.cur, self.bytes, self.idx, self.deg, self.prev);
        self.prev = v;
        self.idx += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.deg - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Decoder<'_> {}

// ---------------------------------------------------------------------------
// The packed image
// ---------------------------------------------------------------------------

fn pad8(out: &mut Vec<u8>) {
    while !out.len().is_multiple_of(8) {
        out.push(0);
    }
}

fn push_words(out: &mut Vec<u8>, words: &[u64]) -> (u64, u64) {
    pad8(out);
    let off = out.len() as u64;
    for &w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    (off, (words.len() * 8) as u64)
}

/// Serialize `g` into the packed image ([`MAGIC`] format). The returned
/// bytes are exactly what [`CompressedGraph::load`] maps from disk.
pub fn pack_to_vec(g: &Graph) -> Vec<u8> {
    let n = g.num_vertices();

    // Adjacency stream + the two monotone index sequences.
    let mut adj = Vec::new();
    let mut cum_deg = Vec::with_capacity(n + 1);
    let mut cum_off = Vec::with_capacity(n + 1);
    cum_deg.push(0u64);
    cum_off.push(0u64);
    for v in 0..n as VertexId {
        encode_adjacency(g.neighbors(v), &mut adj);
        cum_deg.push(cum_deg.last().unwrap() + g.degree(v) as u64);
        cum_off.push(adj.len() as u64);
    }
    let deg_ef = EliasFano::encode(&cum_deg);
    let off_ef = EliasFano::encode(&cum_off);

    let mut out = vec![0u8; HEADER_LEN];
    // labels: u16 per vertex.
    pad8(&mut out);
    let labels_off = out.len() as u64;
    for &l in g.labels() {
        out.extend_from_slice(&l.to_le_bytes());
    }
    let labels_len = (n * 2) as u64;

    // label_offsets: u64 × (label_count + 1); label_index: u32 × n.
    pad8(&mut out);
    let loff_off = out.len() as u64;
    let mut acc = 0u64;
    out.extend_from_slice(&acc.to_le_bytes());
    for l in 0..g.label_count() {
        acc += g.vertices_with_label(l as Label).len() as u64;
        out.extend_from_slice(&acc.to_le_bytes());
    }
    let loff_len = ((g.label_count() + 1) * 8) as u64;

    pad8(&mut out);
    let lidx_off = out.len() as u64;
    for l in 0..g.label_count() {
        for &v in g.vertices_with_label(l as Label) {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    let lidx_len = (n * 4) as u64;

    let (dl_off, dl_len) = push_words(&mut out, &deg_ef.lows);
    let (dh_off, dh_len) = push_words(&mut out, &deg_ef.highs);
    let (ol_off, ol_len) = push_words(&mut out, &off_ef.lows);
    let (oh_off, oh_len) = push_words(&mut out, &off_ef.highs);

    pad8(&mut out);
    let adj_off = out.len() as u64;
    out.extend_from_slice(&adj);
    let adj_len = adj.len() as u64;
    pad8(&mut out);

    // Header last, once every offset is known.
    out[0..8].copy_from_slice(&MAGIC);
    out[8..16].copy_from_slice(&ENDIAN_PROBE.to_le_bytes());
    out[16..24].copy_from_slice(&(n as u64).to_le_bytes());
    out[24..32].copy_from_slice(&(g.num_edges() as u64).to_le_bytes());
    out[32..40].copy_from_slice(&(g.label_count() as u64).to_le_bytes());
    out[40..44].copy_from_slice(&deg_ef.l.to_le_bytes());
    out[44..48].copy_from_slice(&off_ef.l.to_le_bytes());
    let table = [
        (labels_off, labels_len),
        (loff_off, loff_len),
        (lidx_off, lidx_len),
        (dl_off, dl_len),
        (dh_off, dh_len),
        (ol_off, ol_len),
        (oh_off, oh_len),
        (adj_off, adj_len),
    ];
    for (i, (off, len)) in table.iter().enumerate() {
        let p = 48 + i * 16;
        out[p..p + 8].copy_from_slice(&off.to_le_bytes());
        out[p + 8..p + 16].copy_from_slice(&len.to_le_bytes());
    }
    out
}

type Range = std::ops::Range<usize>;

// ---------------------------------------------------------------------------
// The decoded adjacency
// ---------------------------------------------------------------------------

/// Default decoded-adjacency budget per graph, in bytes (16 MiB). It holds
/// the decoded adjacency of every suite dataset whole: orkut's, the
/// largest, takes 4.67 MiB.
pub const DECODE_CACHE_DEFAULT_BYTES: usize = 1 << 24;

/// A packed graph's whole adjacency decoded into CSR arrays: `n + 1`
/// offsets into `2|E|` neighbor ids.
#[derive(Debug)]
struct Decoded {
    offsets: Vec<usize>,
    neighbors: Vec<VertexId>,
}

impl Decoded {
    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Resident bytes of the two arrays.
    fn mem_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.neighbors.capacity() * std::mem::size_of::<VertexId>()
    }
}

/// The succinct, mmap-backed graph backend.
///
/// Holds the packed image (owned or mapped) plus two small select
/// indexes built at load time. When the decode budget holds the whole
/// decoded adjacency, the first adjacency read decodes it once into CSR
/// arrays that every thread and clone shares; otherwise every access
/// streams the Rice decoder.
#[derive(Debug, Clone)]
pub struct CompressedGraph {
    bytes: Bytes,
    n: usize,
    m: usize,
    label_count: usize,
    deg_l: u32,
    off_l: u32,
    labels: Range,
    label_offsets: Range,
    label_index: Range,
    deg_lows: Range,
    deg_highs: Range,
    off_lows: Range,
    off_highs: Range,
    adj: Range,
    deg_select: SelectIndex,
    off_select: SelectIndex,
    /// Decoded-adjacency budget in bytes: the adjacency is decoded only
    /// when its CSR arrays fit.
    cache_capacity: usize,
    /// The decoded adjacency, built on the first adjacency read when it
    /// fits the budget. Clones share it; `with_decode_cache` starts a
    /// fresh cell.
    decoded: Arc<OnceLock<Decoded>>,
}

fn parse_err(message: impl Into<String>) -> GraphError {
    GraphError::Parse {
        line: 0,
        message: message.into(),
    }
}

fn read_u64(b: &[u8], p: usize) -> u64 {
    u64::from_le_bytes(b[p..p + 8].try_into().unwrap())
}

impl CompressedGraph {
    /// Compress an in-memory CSR graph (pack + reparse: the result is
    /// bit-identical to a disk round trip by construction).
    pub fn from_graph(g: &Graph) -> Self {
        Self::from_bytes(Bytes::from_vec(pack_to_vec(g)))
            .expect("freshly packed image always parses")
    }

    /// Map a packed image from disk (zero-copy on unix).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, GraphError> {
        Self::from_bytes(Bytes::map_file(path.as_ref())?)
    }

    /// Write the packed image to disk (the in-memory bytes *are* the file
    /// format).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), GraphError> {
        std::fs::write(path, self.bytes.as_slice())?;
        Ok(())
    }

    /// The raw packed image — what `save` writes and `load` maps.
    pub fn as_bytes(&self) -> &[u8] {
        self.bytes.as_slice()
    }

    /// Parse a packed image.
    pub fn from_bytes(bytes: Bytes) -> Result<Self, GraphError> {
        let b = bytes.as_slice();
        if b.len() < HEADER_LEN {
            return Err(parse_err("packed graph: truncated header"));
        }
        if b[0..8] != MAGIC {
            return Err(parse_err(format!(
                "packed graph: bad magic {:?} (expected {:?})",
                &b[0..8],
                MAGIC
            )));
        }
        if read_u64(b, 8) != ENDIAN_PROBE {
            return Err(parse_err(
                "packed graph: endianness mismatch (image written on a foreign byte order)",
            ));
        }
        let n = read_u64(b, 16) as usize;
        let m = read_u64(b, 24) as usize;
        let label_count = read_u64(b, 32) as usize;
        if n > VertexId::MAX as usize || label_count > Label::MAX as usize + 1 {
            return Err(parse_err(
                "packed graph: vertex or label count out of range",
            ));
        }
        let deg_l = u32::from_le_bytes(b[40..44].try_into().unwrap());
        let off_l = u32::from_le_bytes(b[44..48].try_into().unwrap());
        let mut sections: [Range; SECTIONS] = std::array::from_fn(|_| 0..0);
        for (i, s) in sections.iter_mut().enumerate() {
            let p = 48 + i * 16;
            let off = read_u64(b, p) as usize;
            let len = read_u64(b, p + 8) as usize;
            let end = off
                .checked_add(len)
                .ok_or_else(|| parse_err(format!("packed graph: section {i} overflows")))?;
            if !off.is_multiple_of(8) || end > b.len() {
                return Err(parse_err(format!(
                    "packed graph: section {i} out of bounds ({off}..{end} of {})",
                    b.len()
                )));
            }
            *s = off..end;
        }
        let [labels, label_offsets, label_index, deg_lows, deg_highs, off_lows, off_highs, adj] =
            sections;
        if labels.len() != n * 2
            || label_offsets.len() != (label_count + 1) * 8
            || label_index.len() != n * 4
        {
            return Err(parse_err(
                "packed graph: label section sizes disagree with header",
            ));
        }
        if deg_l >= 64 || off_l >= 64 {
            return Err(parse_err("packed graph: Elias-Fano low width out of range"));
        }
        // Every select reads a sample of the high bits and every lookup a
        // low-bits field: both sections must hold all n + 1 entries.
        let entries = n + 1;
        for (name, lows, l) in [("degree", &deg_lows, deg_l), ("offset", &off_lows, off_l)] {
            if lows.len() * 8 < entries * l as usize {
                return Err(parse_err(format!(
                    "packed graph: {name} index low bits cover {} of {} bits",
                    lows.len() * 8,
                    entries * l as usize
                )));
            }
        }
        let (deg_select, deg_ones) = SelectIndex::new(words_u64(&bytes, &deg_highs));
        let (off_select, off_ones) = SelectIndex::new(words_u64(&bytes, &off_highs));
        for (name, ones) in [("degree", deg_ones), ("offset", off_ones)] {
            if ones != entries {
                return Err(parse_err(format!(
                    "packed graph: {name} index high bits hold {ones} ones, expected {entries}"
                )));
            }
        }
        let g = CompressedGraph {
            deg_select,
            off_select,
            cache_capacity: DECODE_CACHE_DEFAULT_BYTES,
            decoded: Arc::default(),
            bytes,
            n,
            m,
            label_count,
            deg_l,
            off_l,
            labels,
            label_offsets,
            label_index,
            deg_lows,
            deg_highs,
            off_lows,
            off_highs,
            adj,
        };
        // Index sanity: the final cumulative degree must be 2|E| and the
        // final cumulative offset the adjacency length.
        if (g.m as u64).checked_mul(2) != Some(g.deg_ef().get(g.n)) {
            return Err(parse_err("packed graph: degree index disagrees with |E|"));
        }
        if g.off_ef().get(g.n) != g.adj.len() as u64 {
            return Err(parse_err(
                "packed graph: offset index disagrees with adjacency length",
            ));
        }
        Ok(g)
    }

    fn deg_ef(&self) -> EfView<'_> {
        EfView {
            l: self.deg_l,
            lows: words_u64(&self.bytes, &self.deg_lows),
            highs: words_u64(&self.bytes, &self.deg_highs),
            select: &self.deg_select,
        }
    }

    fn off_ef(&self) -> EfView<'_> {
        EfView {
            l: self.off_l,
            lows: words_u64(&self.bytes, &self.off_lows),
            highs: words_u64(&self.bytes, &self.off_highs),
            select: &self.off_select,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of undirected edges (each counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Number of distinct label values the graph can hold.
    #[inline]
    pub fn label_count(&self) -> usize {
        self.label_count
    }

    /// The label of vertex `v`.
    #[inline]
    pub fn label(&self, v: VertexId) -> Label {
        let p = self.labels.start + v as usize * 2;
        u16::from_le_bytes(self.bytes.as_slice()[p..p + 2].try_into().unwrap())
    }

    /// Degree of vertex `v`: two offsets of the decoded adjacency once it
    /// is built, else one paired Elias-Fano lookup. Degrees alone never
    /// build the copy, so a degree scan (`GraphStats`) decodes nothing and
    /// leaves `mem_bytes` at the image's footprint.
    pub fn degree(&self, v: VertexId) -> usize {
        match self.decoded.get() {
            Some(d) => d.neighbors(v).len(),
            None => self.stream_degree(v),
        }
    }

    fn stream_degree(&self, v: VertexId) -> usize {
        let (lo, hi) = self.deg_ef().get_pair(v as usize);
        (hi - lo) as usize
    }

    /// The compressed adjacency region of `v` — decode or probe without
    /// materializing. Two selects: the region start and the degree pair.
    /// Reads only the image, never the decoded adjacency, which is built
    /// from it.
    pub fn neighbors(&self, v: VertexId) -> CompressedNeighbors<'_> {
        let start = self.off_ef().get(v as usize) as usize;
        CompressedNeighbors {
            stream: &self.bytes.as_slice()[self.adj.start + start..self.adj.end],
            deg: self.stream_degree(v),
        }
    }

    /// Whether the undirected edge `(u, v)` exists (probes the smaller
    /// side, like the CSR backend).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        match self.decoded() {
            Some(d) => d.neighbors(a).binary_search(&b).is_ok(),
            None => self.neighbors(a).contains(b),
        }
    }

    /// Override the decoded-adjacency budget, in bytes (default
    /// [`DECODE_CACHE_DEFAULT_BYTES`]). When the budget holds the whole
    /// decoded adjacency, the first adjacency read decodes it once for every
    /// thread and clone; otherwise every access streams the Rice decoder,
    /// so `0` always streams. The graph starts with no copy of its own: a
    /// copy built before stays with the clones that share it. Purely a
    /// wall-clock knob: every query result and every modeled counter is
    /// identical whichever way the graph is read.
    pub fn with_decode_cache(mut self, capacity_bytes: usize) -> Self {
        self.cache_capacity = capacity_bytes;
        self.decoded = Arc::default();
        self
    }

    /// The configured decoded-adjacency budget in bytes.
    pub fn decode_cache_capacity(&self) -> usize {
        self.cache_capacity
    }

    /// Bytes of the decoded adjacency: its capacity once built, and 0
    /// before that or when the graph streams.
    pub fn decode_cache_bytes(&self) -> usize {
        self.decoded.get().map_or(0, Decoded::mem_bytes)
    }

    /// The decoded adjacency, decoding it on the first call when its
    /// `(n + 1)` offsets and `2|E|` ids fit the budget; `None` when they
    /// do not, and the graph streams.
    #[inline]
    fn decoded(&self) -> Option<&Decoded> {
        if let Some(d) = self.decoded.get() {
            return Some(d);
        }
        let need = (self.n + 1)
            .saturating_mul(std::mem::size_of::<usize>())
            .saturating_add(self.m.saturating_mul(2 * std::mem::size_of::<VertexId>()));
        if need > self.cache_capacity {
            return None;
        }
        // The decode pass reads only the image (`neighbors` takes its
        // degree from the Elias-Fano index), never this cell, which is
        // not re-entrant.
        Some(self.decoded.get_or_init(|| {
            let mut offsets = Vec::with_capacity(self.n + 1);
            let mut neighbors = Vec::with_capacity(2 * self.m);
            offsets.push(0);
            for v in 0..self.n as VertexId {
                neighbors.extend(self.neighbors(v).iter());
                offsets.push(neighbors.len());
            }
            Decoded { offsets, neighbors }
        }))
    }

    /// Vertices carrying label `l`, sorted by id — zero-copy from the
    /// image.
    pub fn vertices_with_label(&self, l: Label) -> &[VertexId] {
        let l = l as usize;
        if l >= self.label_count {
            return &[];
        }
        let offs = words_u64(&self.bytes, &self.label_offsets);
        let idx = words_u32(&self.bytes, &self.label_index);
        &idx[offs[l] as usize..offs[l + 1] as usize]
    }

    /// Whether the image is a live file mapping (vs owned bytes).
    pub fn is_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }

    /// Resident footprint: the image (mapped extent or owned capacity),
    /// the load-time select indexes (rank tables and samples), and the
    /// decoded adjacency once built — its cost is never hidden from the
    /// compression accounting.
    pub fn mem_bytes(&self) -> usize {
        self.bytes.mem_bytes()
            + self.deg_select.mem_bytes()
            + self.off_select.mem_bytes()
            + self.decode_cache_bytes()
    }

    /// Decompress back into an in-memory CSR graph (the `unpack`
    /// direction of the round-trip property).
    pub fn to_csr(&self) -> Graph {
        let mut b = GraphBuilder::with_vertices(self.n);
        for v in 0..self.n as VertexId {
            b.set_label(v, self.label(v));
            for w in self.neighbors(v).iter() {
                if v < w {
                    b.add_edge(v, w);
                }
            }
        }
        b.build().expect("decoded adjacency is in range")
    }
}

/// View an 8-byte-aligned little-endian section as `&[u64]`.
fn words_u64<'a>(bytes: &'a Bytes, r: &Range) -> &'a [u64] {
    let s = &bytes.as_slice()[r.clone()];
    debug_assert_eq!(s.as_ptr() as usize % 8, 0);
    debug_assert_eq!(s.len() % 8, 0);
    // SAFETY: the section was written as little-endian u64 words at an
    // 8-byte-aligned offset of the 8-byte-aligned buffer (asserted above),
    // every bit pattern is a valid u64, and the view borrows `bytes`.
    unsafe { std::slice::from_raw_parts(s.as_ptr() as *const u64, s.len() / 8) }
}

/// View a 4-byte-aligned little-endian section as `&[u32]`.
fn words_u32<'a>(bytes: &'a Bytes, r: &Range) -> &'a [u32] {
    let s = &bytes.as_slice()[r.clone()];
    debug_assert_eq!(s.as_ptr() as usize % 4, 0);
    debug_assert_eq!(s.len() % 4, 0);
    // SAFETY: the section was written as little-endian u32 words at a
    // 4-byte-aligned offset (asserted above), every bit pattern is a valid
    // u32, and the view borrows `bytes`.
    unsafe { std::slice::from_raw_parts(s.as_ptr() as *const u32, s.len() / 4) }
}

impl GraphStorage for CompressedGraph {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn num_edges(&self) -> usize {
        self.m
    }

    fn label_count(&self) -> usize {
        self.label_count
    }

    fn label(&self, v: VertexId) -> Label {
        CompressedGraph::label(self, v)
    }

    fn degree(&self, v: VertexId) -> usize {
        CompressedGraph::degree(self, v)
    }

    fn neighbors_ref(&self, v: VertexId) -> NeighborsRef<'_> {
        match self.decoded() {
            Some(d) => NeighborsRef::Borrowed(d.neighbors(v)),
            None => NeighborsRef::Owned(self.neighbors(v).iter().collect()),
        }
    }

    fn neighbors_into(&self, v: VertexId, out: &mut Vec<VertexId>) {
        out.clear();
        match self.decoded() {
            Some(d) => out.extend_from_slice(d.neighbors(v)),
            None => self.neighbors(v).decode_into(out),
        }
    }

    fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId) -> bool) {
        match self.decoded() {
            Some(d) => {
                for &w in d.neighbors(v) {
                    if !f(w) {
                        break;
                    }
                }
            }
            None => {
                for w in self.neighbors(v).iter() {
                    if !f(w) {
                        break;
                    }
                }
            }
        }
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        CompressedGraph::has_edge(self, u, v)
    }

    fn vertices_with_label(&self, l: Label) -> &[VertexId] {
        CompressedGraph::vertices_with_label(self, l)
    }

    fn mem_bytes(&self) -> usize {
        CompressedGraph::mem_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;

    fn check_equiv(g: &Graph, c: &CompressedGraph) {
        assert_eq!(c.num_vertices(), g.num_vertices());
        assert_eq!(c.num_edges(), g.num_edges());
        assert_eq!(c.label_count(), g.label_count());
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(c.label(v), g.label(v), "label({v})");
            assert_eq!(c.degree(v), g.degree(v), "degree({v})");
            let decoded: Vec<VertexId> = c.neighbors(v).iter().collect();
            assert_eq!(decoded, g.neighbors(v), "neighbors({v})");
        }
        for l in 0..g.label_count() as Label {
            assert_eq!(
                c.vertices_with_label(l),
                g.vertices_with_label(l),
                "label {l}"
            );
        }
    }

    #[test]
    fn varint_round_trip() {
        let mut buf = Vec::new();
        let vals = [0u32, 1, 127, 128, 300, 16_383, 16_384, u32::MAX];
        for &v in &vals {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &vals {
            assert_eq!(read_varint(&buf, &mut pos), v);
        }
        assert_eq!(pos, buf.len());
    }

    /// Xorshift64 stream for deterministic test inputs.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn select_in_word_matches_a_bit_scan() {
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        let words = [1u64, 1 << 63, u64::MAX, 0x8000_0000_0000_0001, 0xFF00];
        for word in words.into_iter().chain((0..2000).map(|_| next())) {
            let ones: Vec<u32> = (0..64).filter(|b| word >> b & 1 == 1).collect();
            for (r, &bit) in ones.iter().enumerate() {
                assert_eq!(select_in_word(word, r as u32), bit, "word={word:#x} r={r}");
            }
        }
    }

    #[test]
    fn elias_fano_round_trip() {
        let mut inputs: Vec<Vec<u64>> = [(0usize, 0u64), (1, 0), (5, 3), (1000, 7), (1000, 0)]
            .iter()
            .map(|&(n, step)| (0..n as u64).map(|i| i * step + (i % 2)).collect())
            .map(|mut v: Vec<u64>| {
                v.sort_unstable();
                v
            })
            .collect();
        let mut next = xorshift(0x2545_F491_4F6C_DD1D);
        // Cumulative degrees, 20k entries: mostly small degrees, a few
        // hubs, and alternating runs of 500 zero-degree vertices (equal
        // values, so long one-runs that cross select samples and words).
        let mut acc = 0u64;
        let degrees: Vec<u64> = (0..20_000)
            .map(|i| {
                let r = next();
                acc += if (i / 500) % 2 == 1 {
                    0
                } else if r.is_multiple_of(50) {
                    r >> 50
                } else {
                    r % 8
                };
                acc
            })
            .collect();
        inputs.push(degrees);
        // A universe wide enough for ≥ 32 low bits.
        let mut acc = 0u64;
        let wide: Vec<u64> = (0..12_000)
            .map(|_| {
                acc += next() >> 24;
                acc
            })
            .collect();
        assert!(ef_low_width(wide.len(), *wide.last().unwrap()) >= 32);
        inputs.push(wide);

        for values in &inputs {
            let n = values.len();
            let ef = EliasFano::encode(values);
            let (select, ones) = SelectIndex::new(&ef.highs);
            assert_eq!(ones, n, "one high bit per value");
            let view = EfView {
                l: ef.l,
                lows: &ef.lows,
                highs: &ef.highs,
                select: &select,
            };
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(view.get(i), v, "i={i} n={n}");
                if i + 1 < n {
                    let pair = view.get_pair(i);
                    assert_eq!(pair, (v, values[i + 1]), "pair i={i} n={n}");
                    assert_eq!(pair, (view.get(i), view.get(i + 1)), "pair i={i} n={n}");
                }
            }
        }
    }

    #[test]
    fn yeast_round_trips_through_pack() {
        let g = datasets::dataset("yeast");
        let c = CompressedGraph::from_graph(&g);
        check_equiv(&g, &c);
        assert_eq!(c.to_csr(), g, "unpack reproduces the CSR bitwise");
    }

    #[test]
    fn multi_block_lists_and_probes() {
        // A hub with degree far past BLOCK, with irregular gaps.
        let n = 1000u32;
        let mut b = GraphBuilder::with_vertices(n as usize);
        for v in 1..n {
            if v % 3 != 0 {
                b.add_edge(0, v);
            }
        }
        let g = b.build().unwrap();
        let c = CompressedGraph::from_graph(&g);
        check_equiv(&g, &c);
        let nb = c.neighbors(0);
        assert!(nb.nblocks() > 1, "hub must span blocks");
        for v in 0..n + 2 {
            assert_eq!(
                nb.contains(v),
                g.neighbors(0).binary_search(&v).is_ok(),
                "v={v}"
            );
        }
    }

    /// A hub graph whose vertex 0 spans several blocks — the shape that
    /// exercises the restart-table binary search.
    fn hub_graph(n: u32) -> Graph {
        let mut b = GraphBuilder::with_vertices(n as usize);
        for v in 1..n {
            if v % 3 != 0 {
                b.add_edge(0, v);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn cached_and_streaming_membership_agree() {
        let g = hub_graph(1000);
        let cached = CompressedGraph::from_graph(&g);
        let streaming = cached.clone().with_decode_cache(0);
        assert!(cached.neighbors(0).nblocks() > 1);
        let decoded = cached
            .decoded()
            .expect("the default budget holds the hub graph");
        assert!(streaming.decoded().is_none(), "a zero budget streams");
        for v in [0u32, 1, 500] {
            assert_eq!(decoded.neighbors(v), g.neighbors(v), "v={v}");
            for x in 0..1002u32 {
                let want = streaming.neighbors(v).contains(x);
                assert_eq!(
                    want,
                    g.neighbors(v).binary_search(&x).is_ok(),
                    "v={v} x={x}"
                );
                let got = decoded.neighbors(v).binary_search(&x).is_ok();
                assert_eq!(got, want, "v={v} x={x}");
            }
        }
        assert_eq!(cached.decode_cache_bytes(), decoded.mem_bytes());
        assert_eq!(streaming.decode_cache_bytes(), 0);
    }

    #[test]
    fn cached_storage_methods_match_streaming_decode() {
        let g = hub_graph(1000);
        let c = CompressedGraph::from_graph(&g);
        // Twice: the first touch decodes the adjacency, the second reads
        // the copy.
        for round in 0..2 {
            for v in [0u32, 5, 999] {
                let list = c.neighbors_ref(v);
                assert!(matches!(list, NeighborsRef::Borrowed(_)), "round={round}");
                assert_eq!(&*list, g.neighbors(v), "round={round}");
                let mut buf = Vec::new();
                c.neighbors_into(v, &mut buf);
                assert_eq!(buf, g.neighbors(v));
                let mut seen = Vec::new();
                c.for_each_neighbor(v, |w| {
                    seen.push(w);
                    seen.len() < 70
                });
                assert_eq!(&seen[..], &g.neighbors(v)[..seen.len()]);
                for x in [0u32, 1, 4, 500, 998] {
                    assert_eq!(
                        GraphStorage::has_edge(&c, v, x),
                        g.neighbors(v).binary_search(&x).is_ok(),
                        "has_edge({v},{x}) round={round}"
                    );
                }
            }
        }
        assert!(c.decode_cache_bytes() > 0, "the first touch decoded");
    }

    #[test]
    fn disk_round_trip_via_mmap() {
        let g = datasets::dataset("yeast");
        let c = CompressedGraph::from_graph(&g);
        let path = std::env::temp_dir().join(format!("gsword-pack-{}.gsw", std::process::id()));
        c.save(&path).unwrap();
        let loaded = CompressedGraph::load(&path).unwrap();
        #[cfg(unix)]
        assert!(loaded.is_mapped(), "disk load maps the image");
        check_equiv(&g, &loaded);
        assert_eq!(loaded.to_csr(), g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_and_isolated_graphs() {
        let empty = GraphBuilder::new().build().unwrap();
        let c = CompressedGraph::from_graph(&empty);
        assert_eq!(c.num_vertices(), 0);
        assert_eq!(c.to_csr(), empty);
        let mut b = GraphBuilder::with_vertices(3);
        b.set_label(1, 7);
        let g = b.build().unwrap(); // no edges at all
        let c = CompressedGraph::from_graph(&g);
        check_equiv(&g, &c);
        assert!(c.neighbors(0).is_empty());
        assert!(!GraphStorage::has_edge(&c, 0, 1));
    }

    #[test]
    fn compression_beats_csr_on_power_law_suites() {
        let g = datasets::dataset("eu2005");
        let c = CompressedGraph::from_graph(&g);
        let ratio = c.mem_bytes() as f64 / g.mem_bytes() as f64;
        assert!(
            ratio < 0.5,
            "compressed/CSR = {ratio:.2} ({} / {} bytes)",
            c.mem_bytes(),
            g.mem_bytes()
        );
    }
}
