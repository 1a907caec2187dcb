//! Append-only binary trace store and replay — record a run's sink delivery
//! once, re-analyse it forever.
//!
//! Every analysis in NMO used to require a live [`crate::ProfileSession`]:
//! sinks only see samples while the simulated machine runs, so trying a new
//! sink, tiering policy, or report on an existing run cost a full
//! re-simulation. This module stores the sink delivery itself — the exact
//! per-shard sequence of window-stamped [`SampleBatch`]es and window-close
//! broadcasts, whether pipeline threads delivered it or a session without
//! them did at `finish` — in a compact indexed binary format, and replays it
//! through any [`AnalysisSink`] without touching a machine.
//!
//! # On-disk layout
//!
//! A trace is a directory: one segment file per pipeline shard plus a small
//! text manifest.
//!
//! ```text
//! trace-dir/
//! ├── trace.manifest          window width, stream geometry, segment list
//! ├── shard-000.seg           everything shard lane 0 delivered, in order
//! ├── shard-001.seg
//! └── ...
//!
//! segment   := header block* index trailer
//! header    := "NMOT" version:u16 shard:u16                  (8 bytes)
//!              version 6; other versions are refused
//! block     := "NMOB" payload_len:u32 mulrot64(payload):u64 payload
//! payload   := event*                                        (see below)
//! index     := "NMOX" count:u32 entry{count} mulrot64(entries):u64
//! entry     := offset payload_len checksum first_window last_window
//!              core_mask min_vaddr max_vaddr samples events closes
//!              (11 × u64-equivalent little-endian fields, 88 bytes)
//! trailer   := index_offset:u64 "NMOE"                       (12 bytes)
//! mulrot64  := the bytes' little-endian u64 words, round-robin through four
//!              lanes of `s = rotl((s ^ word) * K, 29)`; then length, lanes
//!              and the bytes past the last 32 folded through the same step
//! ```
//!
//! Blocks are flushed at every window-close broadcast and when the scratch
//! buffer passes a size target, and every window close goes into its own
//! one-event mini block. So a close always sits alone in its block, blocks
//! map cleanly onto time windows, and an indexed query can prune data blocks
//! by core/address yet still deliver every close in its time range. The
//! footer index is what makes a segment random-access: the reader loads the
//! fixed-width entry table from the end of the file once and seeks straight
//! to the blocks it needs — O(1) per block, never scanning the segment.
//!
//! # Encoding invariants (varint, delta, packed columns)
//!
//! Outside a run of samples, integers are LEB128 varints (7 bits per byte,
//! little-endian groups, at most 10 bytes); signed deltas are zigzag-mapped
//! (`0,-1,1,-2,…` → `0,1,2,3,…`) first. An event is its tag and, for a batch,
//! its header and items; a window close is its window:
//!
//! ```text
//! batch     := tag seq:varint window core backend:varint count:varint item{count}
//! window    := index:varint start_ns:varint width:varint
//! core      := 0:u8 | 1:u8 core:varint                     no core / a core
//! ```
//!
//! An SPE batch is one core's samples in one window (see
//! [`SampleBatch::core`]), so its core is stored once, in the header: an SPE
//! event without a core, or with a sample outside its window, is refused.
//! Its samples are stored in groups of up to 64, each group column by column
//! (a batch's `loss` is not stored: SPE loss is a run total, and a replayed
//! batch carries zero):
//!
//! ```text
//! group     := source{g} stores{ceil(g/8)} column{3}    g = min(64, samples left)
//! column    := width:u8 base:varint bits{ceil(g*width/8)}          width in 0..=64
//! ```
//!
//! * `source` is the 1-byte SPE data-source encoding
//!   ([`DataSource::encode`]), so the serving node id survives round-trips;
//!   bit `i` of `stores` (LSB-first) says sample `i` is a store;
//! * the three columns are, in order: sample timestamps as zigzag deltas
//!   from the previous sample, seeded with the batch window's `start_ns`;
//!   virtual addresses as zigzag deltas from the previous sample's, seeded
//!   with 0; latencies;
//! * value `i` of a column is `base` plus the `width` bits at
//!   `[i*width, (i+1)*width)` of `bits`, LSB-first. `base` is the group's
//!   smallest value and `width` the bits of its largest `value - base` — a
//!   frame of reference, so a constant stride in time is a column of two
//!   bytes and no bits.
//!
//! A value sits at `index × width`, wherever its neighbours end, so eight
//! values fill exactly `width` bytes. Both directions run one kernel per
//! width (`const W` in 1..=64, picked once per column by a macro-generated
//! match) over runs of eight: within a run every byte offset and shift is a
//! constant, a value is one 8-byte load (unpack) and a word of 64 bits one
//! 8-byte store (pack), with no branch and no dependency from value to value.
//! A kernel reaches at most 8 bytes past a column's last run. The decoder
//! checks bounds once per column and runs the kernel straight on the payload
//! where that reach lies inside it, else on a zero-padded copy of the column;
//! the encoder sets the values past a partial group to `base`, so its padding
//! bits come out zero. The deltas are summed afterwards, in a loop of their
//! own. (A varint per field made every read wait for the length of the one
//! before; a width read at run time made every shift a variable one.) Two
//! limits come with it. A group's width is that of its largest value, so one
//! outlier — a kernel address among user addresses, which the simulator never
//! produces — widens 64 samples. And a batch of one sample is three bytes
//! (its width bytes) larger than a varint per field would make it.
//!
//! Decoding is the exact inverse, every read is bounds-checked, and no bit
//! of a payload is ignored: a width above 64, a column or the source and
//! store bytes running past the payload, a value past `u64::MAX`, a latency
//! past `u16::MAX`, a core flag other than 0 or 1, a core id no `usize`
//! holds, an SPE batch without a core, a sample outside its batch's window,
//! a data-source code that names no source, a store bit at or beyond `g` and
//! a set padding bit behind a column's last value are each an error.
//! Arbitrary bytes never panic, and no length read from a file is trusted
//! with an allocation before it is checked against the file: a sample buffer
//! grows group by group, by what the bytes of each group have paid for.
//!
//! The checksum (`mulrot64`, one function for blocks and the index) reads a
//! word at a time, not a byte at a time, and keeps what byte-wise FNV-1a
//! gave. Its step is a bijection of the running state for a fixed word and
//! injective in the word for a fixed state, and everything after a step is
//! a bijection of that state — so bytes that differ from the stored ones
//! inside one word (any flipped bit) never verify. No word is a no-op: the
//! lanes start non-zero, so zeros move them, and the length is folded in,
//! so a cut or zero-extended payload differs in that too and, like a swap
//! of two words (order matters to a multiply-rotate), passes only as a
//! 2⁻⁶⁴ accident.
//!
//! # Reading: one reader
//!
//! Block frames are parsed in exactly one place, `SegmentReader`, behind
//! [`TraceReader::replay_query`] (and [`TraceReader::replay`], which is that
//! query over everything) and [`TraceReader::verify`]. Both read a trace one
//! worker thread per segment, through one helper, `per_segment`, so a
//! segment's blocks are decoded and delivered on the core that read them.
//! Opening checks the header (magic, version, and
//! that the file holds the shard the manifest lists it as), the trailer, and
//! the footer index (bounds, entry count against the file size, checksum).
//! Reading a block requires the frame to lie inside the block region and the
//! frame's own length and checksum to agree with the index entry's *before*
//! the payload is hashed and decoded — the index and the frames vouch for
//! each other. The manifest is validated the same way (segment count,
//! power-of-two page size, node count, window width). Any damage is an
//! [`NmoError::Trace`]; nothing is delivered from a block that fails. A
//! replay stops at the first such error; `verify` notes it and reads on.
//!
//! # Recording and replaying
//!
//! [`TraceWriterSink`] is an ordinary [`AnalysisSink`] + [`ShardableSink`]:
//! registered on a session it appends each shard lane's deliveries to that
//! shard's segment, with no cross-shard lock on the hot path (each
//! [`SinkShard`] owns its file and scratch buffer); it has no other way to
//! be fed, so every kind of run records the same kind of trace.
//!
//! Replay owns the reading side only and is a direct driver of the shard
//! fan-in the live consumers use (`sink.rs`) — not a backend behind the bus:
//! the recorded window closes are authoritative, and a bus hop would
//! re-derive them from host timing. One function, `feed`, delivers a
//! segment's indexed blocks through its shard's lane, so per-shard workers,
//! ascending-shard window merges and legacy-sink closes follow the live rule
//! by construction. A block is decoded whole, into sample buffers from the
//! segment reader's own [`BatchPool`], before any of it is delivered, and
//! `feed` hands each batch's buffer back once the lane has seen it: a replay
//! allocates for its largest block and reuses that for every other.
//! [`TraceReader::replay_query`] runs `feed` on one worker thread per
//! segment with the caller's [`TraceQuery`], reading only the blocks the
//! index cannot rule out; [`TraceReader::replay`] is the query over
//! everything. Shardable sinks merge in ascending shard order whatever the
//! thread timing, so a replay through a [`crate::LatencySink`] or
//! [`crate::tiering::HotPageTracker`] reproduces the recorded live run
//! bit-for-bit; a sink that is not shardable sees each segment's batches in
//! recorded order, interleaved across segments as the live pipeline
//! interleaves its lanes.

use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;

use parking_lot::Mutex;

use arch_sim::{BandwidthPoint, DataSource, Machine, MachineConfig, RssPoint, MAX_MEM_NODES};
use spe::SpeStatsSnapshot;

use crate::config::NmoConfig;
use crate::runtime::{AddressSample, Profile};
use crate::sink::{
    AnalysisRecord, AnalysisReport, AnalysisSink, FanIn, FanInLane, ShardState, ShardableSink,
    SinkShard, StreamContext,
};
use crate::stream::{BatchPayload, BatchPool, BusEvent, SampleBatch, Window};
use crate::NmoError;

/// Segment file header magic.
const SEGMENT_MAGIC: [u8; 4] = *b"NMOT";
/// Block frame magic.
const BLOCK_MAGIC: [u8; 4] = *b"NMOB";
/// Footer index magic.
const INDEX_MAGIC: [u8; 4] = *b"NMOX";
/// End-of-file trailer magic.
const TRAILER_MAGIC: [u8; 4] = *b"NMOE";
/// Current format version (6: a batch's core is a flag byte and a varint
/// in its header, and an SPE batch has no core column; 5: an SPE batch
/// stores no loss varints, otherwise byte for byte 4; 4: no counter-delta
/// events; 3: samples as packed columns; 2 stored a varint per field, 1 used
/// FNV-1a checksums). Every other version is refused.
const FORMAT_VERSION: u16 = 6;
/// Size of a block frame's header: magic, payload length, checksum.
const FRAME_HEADER_BYTES: usize = 16;
/// Flush a block once its payload passes this size (closes flush earlier).
const BLOCK_TARGET_BYTES: usize = 64 * 1024;
/// As many SPE batches as a block the writer flushed can hold (the emptiest
/// one is an 8-byte event): how many sample buffers a reader's pool keeps.
const MAX_BLOCK_BATCHES: usize = BLOCK_TARGET_BYTES / 8;
/// Upper bound on a declared block payload length (corruption guard).
const MAX_BLOCK_BYTES: usize = 1 << 28;
/// Size of one fixed-width footer index entry.
const INDEX_ENTRY_BYTES: usize = 88;
/// Manifest file name inside a trace directory.
const MANIFEST_NAME: &str = "trace.manifest";

/// Event tags inside a block payload.
const EV_SPE: u8 = 1;
const EV_CLOSE: u8 = 2;
const EV_RSS: u8 = 4;
const EV_BANDWIDTH: u8 = 5;

// ---------------------------------------------------------------------------
// Primitive codecs: varint, zigzag, the checksum.
// ---------------------------------------------------------------------------

/// Append a LEB128 varint (at most 10 bytes): event headers, per-point
/// fields and column bases — never a per-sample field.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read a LEB128 varint; `None` on truncation or overlong encoding.
fn get_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // would overflow u64
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Map a signed delta onto the unsigned varint domain (`0,-1,1,…` → `0,1,2,…`).
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Odd multiplier of every [`mulrot64`] step (2⁶⁴ / φ).
const MULROT_K: u64 = 0x9e37_79b9_7f4a_7c15;
/// Where the four lanes start: distinct, so equal words in different lanes
/// leave different states.
const MULROT_LANES: [u64; 4] =
    [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344, 0xa409_3822_299f_31d0, 0x082e_fa98_ec4e_6c89];

/// One [`mulrot64`] step. For a fixed `word` it is a bijection of `state`
/// (xor, odd multiply, rotate), and for a fixed `state` it is injective in
/// `word` — so a changed word changes the state, and nothing fed in later
/// can change it back.
#[inline]
fn mulrot_step(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(MULROT_K).rotate_left(29)
}

/// The block and index checksum: the payload's little-endian 64-bit words
/// go round-robin through four independent [`mulrot_step`] lanes (32 bytes
/// a stride, so the four multiplies overlap); then the length, the four
/// lanes and the bytes after the last whole stride are folded, in that
/// order, through the same step, and one xor-shift/multiply avalanche ends
/// it. See the module docs for what this guarantees.
fn mulrot64(data: &[u8]) -> u64 {
    let mut lanes = MULROT_LANES;
    let mut strides = data.chunks_exact(32);
    for stride in &mut strides {
        for (lane, word) in lanes.iter_mut().zip(stride.chunks_exact(8)) {
            #[allow(clippy::expect_used, reason = "`chunks_exact(8)` yields 8-byte slices")]
            let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
            *lane = mulrot_step(*lane, word);
        }
    }
    let mut h = lanes.iter().fold(data.len() as u64, |h, &lane| mulrot_step(h, lane));
    for &byte in strides.remainder() {
        h = mulrot_step(h, u64::from(byte));
    }
    h ^= h >> 32;
    h = h.wrapping_mul(MULROT_K);
    h ^ (h >> 29)
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(data: &[u8], pos: usize) -> Option<u32> {
    data.get(pos..pos + 4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn get_u64(data: &[u8], pos: usize) -> Option<u64> {
    data.get(pos..pos + 8)
        .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
}

// ---------------------------------------------------------------------------
// Event codec.
// ---------------------------------------------------------------------------

/// Map a backend name to its stored id. Unknown custom backends collapse to
/// a generic id (replayed as `"trace"`): [`SampleBatch::backend`] is a
/// `&'static str`, so only well-known names can be reconstructed.
fn backend_id(name: &str) -> u64 {
    match name {
        "spe" => 0,
        "machine" => 2,
        _ => 3,
    }
}

/// Inverse of [`backend_id`].
fn backend_name(id: u64) -> &'static str {
    match id {
        0 => "spe",
        2 => "machine",
        _ => "trace",
    }
}

/// Per-block summary accumulated by the writer and stored in the footer
/// index entry for that block.
#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    first_window: u64,
    last_window: u64,
    core_mask: u64,
    min_vaddr: u64,
    max_vaddr: u64,
    samples: u64,
    events: u64,
    closes: u64,
}

impl BlockMeta {
    fn empty() -> Self {
        BlockMeta {
            first_window: u64::MAX,
            last_window: 0,
            core_mask: 0,
            min_vaddr: u64::MAX,
            max_vaddr: 0,
            samples: 0,
            events: 0,
            closes: 0,
        }
    }

    fn see_window(&mut self, index: u64) {
        self.first_window = self.first_window.min(index);
        self.last_window = self.last_window.max(index);
    }
}

/// The bit a core contributes to a block's 64-bit core presence mask.
fn core_bit(core: usize) -> u64 {
    1u64 << (core % 64)
}

/// Append a batch's core: a flag byte, then the core when there is one —
/// every `Option<usize>`, `usize::MAX` included, round-trips.
fn put_core(out: &mut Vec<u8>, core: Option<usize>) {
    out.push(u8::from(core.is_some()));
    if let Some(core) = core {
        put_varint(out, core as u64);
    }
}

fn put_window(out: &mut Vec<u8>, w: Window) {
    put_varint(out, w.index);
    put_varint(out, w.start_ns);
    put_varint(out, w.end_ns.saturating_sub(w.start_ns));
}

/// Samples per packed group: a `u64` of store bits, and at most 512 bytes a
/// column.
const GROUP: usize = 64;

/// The bytes a width kernel reaches past its last eight values: it moves
/// each value with one 8-byte load or store at the value's first byte.
const KERNEL_SLACK: usize = 8;

/// Run `$kernel::<W>($args)` for the column width `W == $width`, in 1..=64:
/// one match per column picks the kernel compiled for that width.
macro_rules! with_width {
    ($width:expr, $kernel:ident $args:tt) => {
        with_width!(@ $width, $kernel $args;
            1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
            33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61
            62 63 64)
    };
    (@ $width:expr, $kernel:ident $args:tt; $($w:literal)*) => {
        match $width {
            $($w => $kernel::<$w> $args,)*
            width => unreachable!("column width {width} is not in 1..=64"),
        }
    };
}

/// Pack `chunks` runs of eight `values`, each `value - base` in `W` bits,
/// into `W` bytes a run from the start of `dst`, which holds
/// [`KERNEL_SLACK`] bytes more. Within a run every shift and store offset is
/// a constant: a word of 64 bits is stored whole as it fills, and the run's
/// last part-word with zeros above it, which the next run's first store
/// overwrites.
fn pack_runs<const W: usize>(values: &[u64; GROUP], base: u64, dst: &mut [u8], chunks: usize) {
    for (run, eight) in values.chunks_exact(8).take(chunks).enumerate() {
        let dst = &mut dst[run * W..run * W + W + KERNEL_SLACK];
        let (mut acc, mut fill, mut at) = (0u64, 0usize, 0usize);
        for &v in eight {
            let v = v - base;
            acc |= v << fill;
            fill += W;
            if fill >= 64 {
                dst[at..at + 8].copy_from_slice(&acc.to_le_bytes());
                at += 8;
                fill -= 64;
                acc = if fill == 0 { 0 } else { v >> (W - fill) };
            }
        }
        if fill > 0 {
            dst[at..at + 8].copy_from_slice(&acc.to_le_bytes());
        }
    }
}

/// Unpack `chunks` runs of eight `W`-bit values plus `base` from `W` bytes
/// a run at the start of `src`, which holds [`KERNEL_SLACK`] bytes more.
/// Value `j` of a run is one 8-byte load at the constant byte `j * W / 8`,
/// shifted and masked by constants (and, where its bits run past that word,
/// one more byte).
fn unpack_runs<const W: usize>(src: &[u8], base: u64, out: &mut [u64; GROUP], chunks: usize) {
    let mask = u64::MAX >> (64 - W);
    for (run, eight) in out.chunks_exact_mut(8).take(chunks).enumerate() {
        let src = &src[run * W..run * W + W + KERNEL_SLACK];
        for (j, v) in eight.iter_mut().enumerate() {
            let (byte, shift) = (j * W / 8, j * W % 8);
            let mut word = [0u8; 8];
            word.copy_from_slice(&src[byte..byte + 8]);
            let mut bits = u64::from_le_bytes(word) >> shift;
            if shift + W > 64 {
                bits |= u64::from(src[byte + 8]) << (64 - shift);
            }
            *v = base.wrapping_add(bits & mask);
        }
    }
}

/// Append one frame-of-reference column of the group's first `g` values:
/// `width:u8 base:varint` and every `value - base` in `width` bits,
/// LSB-first, the last byte zero-padded. `base` is the smallest value and
/// `width` the bits of the largest `value - base`, so a constant column is
/// two bytes. The values past `g` are set to `base`, so the kernel packs
/// them as zero bits.
fn pack_column(out: &mut Vec<u8>, values: &mut [u64; GROUP], g: usize) {
    // The largest value as the smallest complement: a running `max` over
    // `u64`s compiles to a branch, taken at every new maximum of values that
    // come in no order; `min` compiles to a conditional move.
    let (base, not_max) =
        values[..g].iter().fold((u64::MAX, u64::MAX), |(lo, hi), &v| (lo.min(v), hi.min(!v)));
    let width = (u64::BITS - (!not_max - base).leading_zeros()) as usize;
    out.push(width as u8);
    put_varint(out, base);
    if width == 0 {
        return;
    }
    values[g..].fill(base);
    let (at, chunks) = (out.len(), g.div_ceil(8));
    out.resize(at + chunks * width + KERNEL_SLACK, 0);
    with_width!(width, pack_runs(values, base, &mut out[at..], chunks));
    out.truncate(at + (g * width).div_ceil(8));
}

/// Encode one batch delivery. Returns the number of address samples written.
fn encode_batch_event(out: &mut Vec<u8>, batch: &SampleBatch, meta: &mut BlockMeta) -> u64 {
    let tag = match batch.payload() {
        BatchPayload::SpeSamples { .. } => EV_SPE,
        BatchPayload::Rss { .. } => EV_RSS,
        BatchPayload::Bandwidth { .. } => EV_BANDWIDTH,
    };
    out.push(tag);
    put_varint(out, batch.seq);
    put_window(out, batch.window);
    put_core(out, batch.core);
    put_varint(out, backend_id(batch.backend));
    meta.see_window(batch.window.index);
    meta.events += 1;
    match batch.core {
        Some(c) => meta.core_mask |= core_bit(c),
        // Core-less deliveries (machine probe ticks) must never be pruned
        // by a core-sliced query: claim every core bit.
        None => meta.core_mask = u64::MAX,
    }
    let mut samples_written = 0u64;
    match batch.payload() {
        BatchPayload::SpeSamples { samples, .. } => {
            put_varint(out, samples.len() as u64);
            let mut prev_time = batch.window.start_ns;
            let mut prev_vaddr = 0u64;
            let (mut min_vaddr, mut max_vaddr) = (meta.min_vaddr, meta.max_vaddr);
            let mut columns = [[0u64; GROUP]; 3];
            for group in samples.chunks(GROUP) {
                out.extend(group.iter().map(|s| s.source.encode()));
                let [times, vaddrs, latencies] = &mut columns;
                let mut stores = 0u64;
                for (i, s) in group.iter().enumerate() {
                    stores |= u64::from(s.is_store) << i;
                    times[i] = zigzag(s.time_ns.wrapping_sub(prev_time) as i64);
                    vaddrs[i] = zigzag(s.vaddr.wrapping_sub(prev_vaddr) as i64);
                    latencies[i] = u64::from(s.latency);
                    prev_time = s.time_ns;
                    prev_vaddr = s.vaddr;
                    min_vaddr = min_vaddr.min(s.vaddr);
                    max_vaddr = max_vaddr.max(s.vaddr);
                }
                out.extend_from_slice(&stores.to_le_bytes()[..group.len().div_ceil(8)]);
                for column in &mut columns {
                    pack_column(out, column, group.len());
                }
            }
            (meta.min_vaddr, meta.max_vaddr) = (min_vaddr, max_vaddr);
            samples_written = samples.len() as u64;
            meta.samples += samples_written;
        }
        BatchPayload::Rss { points } => {
            put_varint(out, points.len() as u64);
            let mut prev_time = batch.window.start_ns;
            for p in points {
                put_varint(out, zigzag(p.time_ns.wrapping_sub(prev_time) as i64));
                prev_time = p.time_ns;
                put_varint(out, p.rss_bytes);
                let nodes = nonzero_prefix(&p.rss_by_node);
                put_varint(out, nodes as u64);
                for &n in &p.rss_by_node[..nodes] {
                    put_varint(out, n);
                }
            }
        }
        BatchPayload::Bandwidth { points } => {
            put_varint(out, points.len() as u64);
            let mut prev_time = batch.window.start_ns;
            for p in points {
                put_varint(out, zigzag(p.time_ns.wrapping_sub(prev_time) as i64));
                prev_time = p.time_ns;
                put_varint(out, p.bytes);
                out.extend_from_slice(&p.gib_per_s.to_bits().to_le_bytes());
                let nodes = nonzero_prefix(&p.by_node);
                put_varint(out, nodes as u64);
                for &n in &p.by_node[..nodes] {
                    put_varint(out, n);
                }
            }
        }
    }
    samples_written
}

/// Length of the prefix of `arr` holding every non-zero element.
fn nonzero_prefix(arr: &[u64; MAX_MEM_NODES]) -> usize {
    arr.iter().rposition(|&v| v != 0).map_or(0, |i| i + 1)
}

/// Encode one window-close broadcast.
fn encode_close_event(out: &mut Vec<u8>, w: Window, meta: &mut BlockMeta) {
    out.push(EV_CLOSE);
    put_window(out, w);
    meta.see_window(w.index);
    meta.events += 1;
    meta.closes += 1;
}

// ---------------------------------------------------------------------------
// Event decoding (strictly bounds-checked — never panics on any input).
// ---------------------------------------------------------------------------

fn rv(data: &[u8], pos: &mut usize, what: &str) -> Result<u64, String> {
    get_varint(data, pos).ok_or_else(|| format!("truncated varint ({what}) at byte {pos}"))
}

fn read_window(data: &[u8], pos: &mut usize) -> Result<Window, String> {
    let index = rv(data, pos, "window index")?;
    let start_ns = rv(data, pos, "window start")?;
    let width = rv(data, pos, "window width")?;
    Ok(Window { index, start_ns, end_ns: start_ns.saturating_add(width) })
}

/// Guard a declared element count against the bytes actually remaining
/// (each element encodes to at least `min_bits`), so corrupt counts cannot
/// drive huge allocations.
fn checked_count(
    data: &[u8],
    pos: usize,
    count: u64,
    min_bits: usize,
    what: &str,
) -> Result<usize, String> {
    let remaining = data.len().saturating_sub(pos);
    let count = usize::try_from(count).map_err(|_| format!("absurd {what} count {count}"))?;
    if count.saturating_mul(min_bits) > remaining.saturating_mul(8) {
        return Err(format!("{what} count {count} exceeds remaining payload ({remaining} bytes)"));
    }
    Ok(count)
}

/// Read one column [`pack_column`] wrote, `g` (at most [`GROUP`]) values
/// long, into `out[..g]`. Refused: a width above 64, a column running past
/// the payload, set padding bits in its last byte, a value past `u64::MAX`.
fn unpack_column(
    payload: &[u8],
    pos: &mut usize,
    out: &mut [u64; GROUP],
    g: usize,
    what: &str,
) -> Result<(), String> {
    let width = usize::from(
        *payload.get(*pos).ok_or_else(|| format!("truncated {what} width at byte {pos}"))?,
    );
    *pos += 1;
    if width > 64 {
        return Err(format!("{what} width {width} exceeds 64 bits"));
    }
    let base = rv(payload, pos, what)?;
    let bits = g * width;
    let start = *pos;
    let packed = payload
        .get(start..start + bits.div_ceil(8))
        .ok_or_else(|| format!("truncated {what} column at byte {pos}"))?;
    *pos += packed.len();
    let padding = packed.len() * 8 - bits;
    if packed.last().is_some_and(|&last| u16::from(last) >> (8 - padding) != 0) {
        return Err(format!("{what} column ends in non-zero padding bits"));
    }
    if width == 0 {
        out[..g].fill(base);
        return Ok(());
    }
    // The kernel reads whole runs of eight plus its slack: straight from
    // the payload where that many bytes follow the column's start (the
    // bytes past the column land only in `out[g..]`), else from a copy with
    // zeros behind the column.
    let chunks = g.div_ceil(8);
    let reach = chunks * width + KERNEL_SLACK;
    if let Some(src) = payload.get(start..start + reach) {
        with_width!(width, unpack_runs(src, base, out, chunks));
    } else {
        let mut padded = [0u8; GROUP * 8 + KERNEL_SLACK];
        padded[..packed.len()].copy_from_slice(packed);
        with_width!(width, unpack_runs(&padded, base, out, chunks));
    }
    let mask = u64::MAX >> (64 - width);
    if base.checked_add(mask).is_none() && out[..g].iter().any(|&v| v < base) {
        return Err(format!("{what} column overflows u64"));
    }
    Ok(())
}

/// Decode every event in a (checksum-verified) block payload; the sample
/// buffers come from `pool`.
fn decode_events(payload: &[u8], pool: &BatchPool) -> Result<Vec<BusEvent>, String> {
    let mut pos = 0usize;
    let mut out = Vec::new();
    while pos < payload.len() {
        let tag = payload[pos];
        pos += 1;
        if tag == EV_CLOSE {
            let w = read_window(payload, &mut pos)?;
            out.push(BusEvent::CloseWindow(w));
            continue;
        }
        if !matches!(tag, EV_SPE | EV_RSS | EV_BANDWIDTH) {
            return Err(format!("unknown event tag {tag} at byte {pos}"));
        }
        let seq = rv(payload, &mut pos, "batch seq")?;
        let window = read_window(payload, &mut pos)?;
        let core = read_core(payload, &mut pos)?;
        let backend = backend_name(rv(payload, &mut pos, "backend id")?);
        let data = match tag {
            EV_SPE => {
                let core = core.ok_or("an SPE batch without a core")?;
                let n = rv(payload, &mut pos, "sample count")?;
                // A sample is at least its source byte and its store bit; the
                // buffer grows by what each group's bytes have paid for.
                let n = checked_count(payload, pos, n, 9, "sample")?;
                let mut samples = pool.samples();
                decode_samples(payload, &mut pos, n, window, core, &mut samples)?;
                BatchPayload::SpeSamples { samples, loss: SpeStatsSnapshot::default() }
            }
            EV_RSS => {
                let n = rv(payload, &mut pos, "rss point count")?;
                let n = checked_count(payload, pos, n, 24, "rss point")?;
                let mut points = Vec::with_capacity(n);
                let mut prev_time = window.start_ns;
                for _ in 0..n {
                    let dt = unzigzag(rv(payload, &mut pos, "rss time delta")?);
                    let time_ns = prev_time.wrapping_add(dt as u64);
                    prev_time = time_ns;
                    let rss_bytes = rv(payload, &mut pos, "rss bytes")?;
                    let rss_by_node = read_node_array(payload, &mut pos)?;
                    points.push(RssPoint { time_ns, rss_bytes, rss_by_node });
                }
                BatchPayload::Rss { points }
            }
            _ => {
                let n = rv(payload, &mut pos, "bandwidth point count")?;
                let n = checked_count(payload, pos, n, 88, "bandwidth point")?;
                let mut points = Vec::with_capacity(n);
                let mut prev_time = window.start_ns;
                for _ in 0..n {
                    let dt = unzigzag(rv(payload, &mut pos, "bandwidth time delta")?);
                    let time_ns = prev_time.wrapping_add(dt as u64);
                    prev_time = time_ns;
                    let bytes = rv(payload, &mut pos, "bandwidth bytes")?;
                    let bits = get_u64(payload, pos)
                        .ok_or_else(|| format!("truncated bandwidth rate at byte {pos}"))?;
                    pos += 8;
                    let by_node = read_node_array(payload, &mut pos)?;
                    points.push(BandwidthPoint {
                        time_ns,
                        bytes,
                        by_node,
                        gib_per_s: f64::from_bits(bits),
                    });
                }
                BatchPayload::Bandwidth { points }
            }
        };
        let mut batch = SampleBatch::new(backend, core, window, data);
        batch.seq = seq;
        out.push(BusEvent::Batch(batch));
    }
    Ok(out)
}

/// Decode the `n` samples of an SPE batch of `core`'s in `window`, group by
/// group, from `payload[*pos..]` onto `samples`. A function of its own
/// (inlined into `decode_events`, the running sums lived on the stack: a
/// store and a load per sample).
#[inline(never)]
fn decode_samples(
    payload: &[u8],
    pos: &mut usize,
    n: usize,
    window: Window,
    core: usize,
    samples: &mut Vec<AddressSample>,
) -> Result<(), String> {
    let mut prev_time = window.start_ns;
    let mut prev_vaddr = 0u64;
    let mut columns = [[0u64; GROUP]; 3];
    let mut left = n;
    while left > 0 {
        let g = left.min(GROUP);
        left -= g;
        let (codes, stored) = payload
            .get(*pos..*pos + g + g.div_ceil(8))
            .ok_or_else(|| format!("truncated sources and store bits at byte {pos}"))?
            .split_at(g);
        *pos += g + stored.len();
        let mut stores = [0u8; 8];
        stores[..stored.len()].copy_from_slice(stored);
        let stores = u64::from_le_bytes(stores);
        if stores.checked_shr(g as u32).is_some_and(|beyond| beyond != 0) {
            return Err(format!("store bits set beyond a group of {g}"));
        }
        for (column, what) in columns.iter_mut().zip(["time delta", "vaddr delta", "latency"]) {
            unpack_column(payload, pos, column, g, what)?;
        }
        let [times, vaddrs, latencies] = &mut columns;
        if latencies[..g].iter().fold(0, |all, &v| all | v) > u64::from(u16::MAX) {
            return Err("latency out of u16 range".to_string());
        }
        let mut sources = [DataSource::L1; GROUP];
        for (source, &code) in sources.iter_mut().zip(codes) {
            *source = DataSource::decode(code)
                .ok_or_else(|| format!("invalid data-source code {code:#x}"))?;
        }
        // The deltas are summed in place, in a loop of their own, so the
        // running sums need not survive the `extend` closure below. The
        // window holds every time iff it holds the earliest and the latest.
        let (mut earliest, mut latest) = (u64::MAX, 0);
        for (time, vaddr) in times[..g].iter_mut().zip(&mut vaddrs[..g]) {
            prev_time = prev_time.wrapping_add(unzigzag(*time) as u64);
            prev_vaddr = prev_vaddr.wrapping_add(unzigzag(*vaddr) as u64);
            (earliest, latest) = (earliest.min(prev_time), latest.max(prev_time));
            (*time, *vaddr) = (prev_time, prev_vaddr);
        }
        if !window.contains_ns(earliest) || !window.contains_ns(latest) {
            return Err(format!("a sample outside its batch's window {window:?}"));
        }
        // An exact-length `extend` writes the group's samples without a
        // capacity check each.
        let fields = times[..g].iter().zip(&vaddrs[..g]).zip(&latencies[..g]).zip(&sources[..g]);
        samples.extend(fields.enumerate().map(
            move |(i, (((&time_ns, &vaddr), &latency), &source))| AddressSample {
                time_ns,
                vaddr,
                core,
                is_store: stores >> i & 1 != 0,
                latency: latency as u16,
                source,
            },
        ));
    }
    Ok(())
}

/// Read what [`put_core`] wrote; a flag other than 0 or 1 is an error.
fn read_core(data: &[u8], pos: &mut usize) -> Result<Option<usize>, String> {
    let flag = *data.get(*pos).ok_or_else(|| format!("truncated batch core at byte {pos}"))?;
    *pos += 1;
    match flag {
        0 => Ok(None),
        1 => {
            let core = rv(data, pos, "batch core")?;
            usize::try_from(core).map(Some).map_err(|_| format!("absurd batch core {core}"))
        }
        _ => Err(format!("batch core flag {flag} is neither 0 nor 1")),
    }
}

fn read_node_array(payload: &[u8], pos: &mut usize) -> Result<[u64; MAX_MEM_NODES], String> {
    let nodes = rv(payload, pos, "node count")?;
    let nodes = usize::try_from(nodes).unwrap_or(usize::MAX);
    if nodes > MAX_MEM_NODES {
        return Err(format!("node count {nodes} exceeds MAX_MEM_NODES ({MAX_MEM_NODES})"));
    }
    let mut arr = [0u64; MAX_MEM_NODES];
    for slot in arr.iter_mut().take(nodes) {
        *slot = rv(payload, pos, "per-node value")?;
    }
    Ok(arr)
}

// ---------------------------------------------------------------------------
// Footer index.
// ---------------------------------------------------------------------------

/// One fixed-width footer index entry: where a block's frame lies, what its
/// frame header says, and the writer's summary of its payload.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    offset: u64,
    payload_len: u64,
    checksum: u64,
    meta: BlockMeta,
}

impl IndexEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        let m = &self.meta;
        for v in [
            self.offset,
            self.payload_len,
            self.checksum,
            m.first_window,
            m.last_window,
            m.core_mask,
            m.min_vaddr,
            m.max_vaddr,
            m.samples,
            m.events,
            m.closes,
        ] {
            put_u64(out, v);
        }
    }

    fn decode(data: &[u8], pos: usize) -> Option<IndexEntry> {
        let field = |i: usize| get_u64(data, pos + i * 8);
        Some(IndexEntry {
            offset: field(0)?,
            payload_len: field(1)?,
            checksum: field(2)?,
            meta: BlockMeta {
                first_window: field(3)?,
                last_window: field(4)?,
                core_mask: field(5)?,
                min_vaddr: field(6)?,
                max_vaddr: field(7)?,
                samples: field(8)?,
                events: field(9)?,
                closes: field(10)?,
            },
        })
    }
}

// ---------------------------------------------------------------------------
// Segment writer (the per-shard hot path).
// ---------------------------------------------------------------------------

/// Per-segment totals, returned as the shard state of a
/// [`TraceWriterSink`]'s shards and folded into the manifest.
#[derive(Debug, Clone, Default)]
struct SegmentSummary {
    shard: usize,
    file_name: String,
    window_ns: u64,
    samples: u64,
    events: u64,
    closes: u64,
    blocks: u64,
    bytes: u64,
    error: Option<String>,
}

/// Appends one shard lane's deliveries to its segment file. Owns its file
/// handle and scratch buffer, so the streaming hot path takes no lock.
/// Everything reaches the unbuffered file as one `write_all` of the scratch:
/// a block is one write, and an error is the caller's at once.
struct SegmentWriter {
    file: File,
    /// Current file offset (the header is already written at construction).
    offset: u64,
    /// The block being built, reused across blocks: room for its frame
    /// header, then the payload.
    buf: Vec<u8>,
    meta: BlockMeta,
    index: Vec<IndexEntry>,
    /// The totals so far (`window_ns` latched from the first event, 0 until
    /// then; `blocks` and `bytes` filled in by [`SegmentWriter::finish`]).
    summary: SegmentSummary,
}

impl SegmentWriter {
    /// File name of the segment for `shard`.
    fn segment_file_name(shard: usize) -> String {
        format!("shard-{shard:03}.seg")
    }

    fn create(dir: &Path, shard: usize) -> std::io::Result<SegmentWriter> {
        let file_name = Self::segment_file_name(shard);
        let mut file = File::create(dir.join(&file_name))?;
        let mut buf = Vec::with_capacity(FRAME_HEADER_BYTES + BLOCK_TARGET_BYTES);
        buf.extend_from_slice(&SEGMENT_MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&(shard as u16).to_le_bytes());
        file.write_all(&buf)?;
        buf.resize(FRAME_HEADER_BYTES, 0);
        Ok(SegmentWriter {
            file,
            offset: 8,
            buf,
            meta: BlockMeta::empty(),
            index: Vec::new(),
            summary: SegmentSummary { shard, file_name, ..SegmentSummary::default() },
        })
    }

    fn latch_window(&mut self, w: Window) {
        if self.summary.window_ns == 0 {
            self.summary.window_ns = w.width_ns();
        }
    }

    fn append_batch(&mut self, batch: &SampleBatch) -> std::io::Result<()> {
        self.latch_window(batch.window);
        self.summary.samples += encode_batch_event(&mut self.buf, batch, &mut self.meta);
        self.summary.events += 1;
        if self.buf.len() >= FRAME_HEADER_BYTES + BLOCK_TARGET_BYTES {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Record a window-close broadcast: flush the data accumulated so far,
    /// then write the close as its own one-event mini block, so index-driven
    /// queries can prune data blocks yet still seek every close in range.
    fn append_close(&mut self, w: Window) -> std::io::Result<()> {
        self.latch_window(w);
        self.flush_block()?;
        encode_close_event(&mut self.buf, w, &mut self.meta);
        self.summary.events += 1;
        self.summary.closes += 1;
        self.flush_block()
    }

    fn flush_block(&mut self) -> std::io::Result<()> {
        let (head, payload) = self.buf.split_at_mut(FRAME_HEADER_BYTES);
        if payload.is_empty() {
            return Ok(());
        }
        let (payload_len, checksum) = (payload.len() as u64, mulrot64(payload));
        head[..4].copy_from_slice(&BLOCK_MAGIC);
        head[4..8].copy_from_slice(&(payload_len as u32).to_le_bytes());
        head[8..].copy_from_slice(&checksum.to_le_bytes());
        self.file.write_all(&self.buf)?;
        let meta = std::mem::replace(&mut self.meta, BlockMeta::empty());
        self.index.push(IndexEntry { offset: self.offset, payload_len, checksum, meta });
        self.offset += self.buf.len() as u64;
        self.buf.truncate(FRAME_HEADER_BYTES);
        Ok(())
    }

    /// Flush outstanding data, write the footer index and trailer, and
    /// return the segment's totals.
    fn finish(mut self) -> std::io::Result<SegmentSummary> {
        self.flush_block()?;
        let index_offset = self.offset;
        let out = &mut self.buf;
        out.clear();
        out.extend_from_slice(&INDEX_MAGIC);
        out.extend_from_slice(&(self.index.len() as u32).to_le_bytes());
        for e in &self.index {
            e.encode(out);
        }
        let checksum = mulrot64(&out[8..]);
        put_u64(out, checksum);
        put_u64(out, index_offset);
        out.extend_from_slice(&TRAILER_MAGIC);
        self.file.write_all(out)?;
        self.summary.blocks = self.index.len() as u64;
        self.summary.bytes = index_offset + out.len() as u64;
        Ok(self.summary)
    }
}

// ---------------------------------------------------------------------------
// The recording sink.
// ---------------------------------------------------------------------------

/// Stream geometry persisted to the manifest so a replay can rebuild an
/// equivalent [`StreamContext`] without the original machine.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    capacity_bytes: u64,
    bucket_ns: u64,
    mem_nodes: usize,
    page_bytes: u64,
}

impl Default for Geometry {
    fn default() -> Self {
        Geometry { capacity_bytes: 0, bucket_ns: 1, mem_nodes: 1, page_bytes: 64 * 1024 }
    }
}

/// Records a run's sink delivery into an on-disk trace directory.
///
/// Register it on a session like any other sink: it is a [`ShardableSink`]
/// whose shards each append to their own segment file (no cross-shard lock
/// on the hot path), so an N-shard pipeline records N segments, and a
/// one-shard pipeline or a session without pipeline threads a
/// single-segment trace — SPE samples, RSS and bandwidth ticks and every
/// window close, in the session's own windows
/// ([`StreamOptions::window_ns`](crate::stream::StreamOptions::window_ns)).
/// [`AnalysisSink::analyze`] finalises the segments and writes the
/// manifest; the returned [`AnalysisReport::Text`] summarises what was
/// stored.
///
/// ```no_run
/// use nmo::trace::TraceWriterSink;
/// use nmo::{NmoConfig, ProfileSession};
///
/// # fn main() -> Result<(), nmo::NmoError> {
/// let session = ProfileSession::builder()
///     .config(NmoConfig::paper_default(500))
///     .threads(2)
///     .sink(TraceWriterSink::new("results/trace_demo"))
///     .build()?;
/// # Ok(())
/// # }
/// ```
pub struct TraceWriterSink {
    dir: PathBuf,
    geometry: Geometry,
    summaries: Vec<SegmentSummary>,
    error: Option<String>,
}

impl TraceWriterSink {
    /// A writer that stores the trace under `dir` (created on demand).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TraceWriterSink {
            dir: dir.into(),
            geometry: Geometry::default(),
            summaries: Vec::new(),
            error: None,
        }
    }

    /// The trace directory this sink writes to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn record_error(&mut self, e: impl std::fmt::Display) {
        if self.error.is_none() {
            self.error = Some(e.to_string());
        }
    }

    fn write_manifest(&self) -> Result<(), NmoError> {
        fs::create_dir_all(&self.dir)?;
        let window_ns = self.summaries.iter().map(|s| s.window_ns).max().unwrap_or(0);
        let samples: u64 = self.summaries.iter().map(|s| s.samples).sum();
        let mut out = String::new();
        out.push_str("nmo-trace-manifest v1\n");
        out.push_str(&format!("window_ns {window_ns}\n"));
        out.push_str(&format!("capacity_bytes {}\n", self.geometry.capacity_bytes));
        out.push_str(&format!("bucket_ns {}\n", self.geometry.bucket_ns));
        out.push_str(&format!("mem_nodes {}\n", self.geometry.mem_nodes));
        out.push_str(&format!("page_bytes {}\n", self.geometry.page_bytes));
        out.push_str(&format!("shards {}\n", self.summaries.len()));
        out.push_str(&format!("samples {samples}\n"));
        for s in &self.summaries {
            out.push_str(&format!("segment {}\n", s.file_name));
        }
        out.push_str("end\n");
        fs::write(self.dir.join(MANIFEST_NAME), out)?;
        Ok(())
    }

    fn summary_report(&self) -> AnalysisReport {
        let samples: u64 = self.summaries.iter().map(|s| s.samples).sum();
        let events: u64 = self.summaries.iter().map(|s| s.events).sum();
        let closes: u64 = self.summaries.iter().map(|s| s.closes).sum();
        let blocks: u64 = self.summaries.iter().map(|s| s.blocks).sum();
        let bytes: u64 = self.summaries.iter().map(|s| s.bytes).sum();
        AnalysisReport::Text(format!(
            "trace: {samples} samples / {events} events ({closes} closes) in {} segment(s), \
             {blocks} blocks, {bytes} bytes at {}",
            self.summaries.len(),
            self.dir.display()
        ))
    }
}

impl AnalysisSink for TraceWriterSink {
    fn name(&self) -> &'static str {
        "trace-writer"
    }

    /// Finalise what the shards delivered: surface the first write error,
    /// or write the manifest.
    fn analyze(
        &mut self,
        _machine: &Machine,
        _profile: &Profile,
    ) -> Result<AnalysisReport, NmoError> {
        let shard_errors: Vec<String> =
            self.summaries.iter().filter_map(|s| s.error.clone()).collect();
        for e in shard_errors {
            self.record_error(e);
        }
        if let Some(e) = &self.error {
            return Err(NmoError::sink("trace-writer", e.clone()));
        }
        self.summaries.sort_by_key(|s| s.shard);
        self.write_manifest()?;
        Ok(self.summary_report())
    }

    fn on_stream_start(&mut self, ctx: &StreamContext) {
        self.geometry = Geometry {
            capacity_bytes: ctx.capacity_bytes,
            bucket_ns: ctx.bucket_ns,
            mem_nodes: ctx.mem_nodes,
            page_bytes: ctx.page_bytes,
        };
        if let Err(e) = fs::create_dir_all(&self.dir) {
            self.record_error(format!("cannot create trace directory: {e}"));
        }
    }

    fn as_shardable(&mut self) -> Option<&mut dyn ShardableSink> {
        Some(self)
    }
}

impl ShardableSink for TraceWriterSink {
    fn make_shard(&mut self, shard: usize, _ctx: &StreamContext) -> Box<dyn SinkShard> {
        Box::new(TraceShard::open(&self.dir, shard))
    }

    fn merge_final(&mut self, states: Vec<ShardState>) {
        for state in states {
            if let Ok(summary) = state.downcast::<SegmentSummary>() {
                self.summaries.push(*summary);
            }
        }
        self.summaries.sort_by_key(|s| s.shard);
    }
}

/// One shard of the [`TraceWriterSink`]: owns its segment writer, records
/// exactly what its lane delivered, in delivery order.
struct TraceShard {
    shard: usize,
    /// The open segment, or the first error — after which nothing more is
    /// written and the sink's report is that error.
    writer: Result<SegmentWriter, String>,
}

impl TraceShard {
    fn open(dir: &Path, shard: usize) -> TraceShard {
        let writer = fs::create_dir_all(dir)
            .and_then(|()| SegmentWriter::create(dir, shard))
            .map_err(|e| format!("cannot open segment {shard}: {e}"));
        TraceShard { shard, writer }
    }

    fn write(&mut self, append: impl FnOnce(&mut SegmentWriter) -> std::io::Result<()>) {
        if let Err(e) = self.writer.as_mut().map_or(Ok(()), append) {
            self.writer = Err(format!("segment {} write failed: {e}", self.shard));
        }
    }
}

impl SinkShard for TraceShard {
    fn on_batch(&mut self, batch: &SampleBatch) {
        self.write(|w| w.append_batch(batch));
    }

    fn on_window_close(&mut self, window: Window) -> Option<ShardState> {
        self.write(|w| w.append_close(window));
        None
    }

    /// Finalise the segment (footer index + trailer) and describe it.
    fn finish(self: Box<Self>) -> ShardState {
        let shard = self.shard;
        let finished = self
            .writer
            .and_then(|w| w.finish().map_err(|e| format!("segment {shard} finalise failed: {e}")));
        Box::new(finished.unwrap_or_else(|e| SegmentSummary {
            shard,
            error: Some(e),
            ..SegmentSummary::default()
        }))
    }
}

// ---------------------------------------------------------------------------
// The reader: manifest, the strict segment reader, the lane feed.
// ---------------------------------------------------------------------------

/// Parsed `trace.manifest`.
#[derive(Debug, Clone, Default)]
struct Manifest {
    window_ns: u64,
    samples: u64,
    geometry: Geometry,
    segments: Vec<String>,
}

impl Manifest {
    fn parse(text: &str) -> Result<Manifest, NmoError> {
        let mut lines = text.lines();
        if lines.next() != Some("nmo-trace-manifest v1") {
            return Err(NmoError::trace("unrecognised manifest header"));
        }
        let mut m = Manifest::default();
        let mut shards = None;
        for line in lines {
            let Some((key, value)) = line.split_once(' ') else {
                if line == "end" {
                    break;
                }
                return Err(NmoError::trace(format!("malformed manifest line: {line:?}")));
            };
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|_| NmoError::trace(format!("bad manifest value for {key}: {value}")))
            };
            match key {
                "window_ns" => m.window_ns = num()?,
                "capacity_bytes" => m.geometry.capacity_bytes = num()?,
                "bucket_ns" => m.geometry.bucket_ns = num()?,
                "mem_nodes" => m.geometry.mem_nodes = num()? as usize,
                "page_bytes" => m.geometry.page_bytes = num()?,
                "samples" => m.samples = num()?,
                "shards" => shards = Some(num()? as usize),
                "segment" => {
                    if value.contains('/') || value.contains("..") {
                        return Err(NmoError::trace(format!("suspicious segment name: {value}")));
                    }
                    m.segments.push(value.to_string());
                }
                _ => {} // forward compatibility: ignore unknown keys
            }
        }
        // Replayed sinks compute with these values (page masks, per-node
        // arrays), and a cut-short segment list would replay part of the run
        // as if it were all of it — also when the damage that cut it made the
        // `shards` line an unknown key: refuse what no writer produces.
        let g = &m.geometry;
        if m.segments.is_empty()
            || shards != Some(m.segments.len())
            || !g.page_bytes.is_power_of_two()
            || !(1..=MAX_MEM_NODES).contains(&g.mem_nodes)
            || (m.window_ns == 0 && m.samples > 0)
        {
            return Err(NmoError::trace(format!(
                "manifest needs its {shards:?} segment(s), a power-of-two page_bytes, mem_nodes \
                 in 1..={MAX_MEM_NODES} and a window_ns when samples are stored; it says {m:?}"
            )));
        }
        Ok(m)
    }
}

/// What a stored trace contains, for reports and examples.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Number of per-shard segment files.
    pub shards: usize,
    /// Total address samples stored.
    pub samples: u64,
    /// Total stored bytes across segments (including indexes).
    pub bytes: u64,
    /// Streaming window width, nanoseconds.
    pub window_ns: u64,
}

/// Counters reported by a replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Address samples delivered to sinks.
    pub samples: u64,
    /// Batch deliveries replayed.
    pub batches: u64,
    /// Windows fully closed (all shards) during the replay.
    pub windows: u64,
    /// Blocks decoded.
    pub blocks: u64,
    /// Segment files visited.
    pub segments: usize,
}

/// The one strict reader of a finished segment: [`SegmentReader::open`]
/// checks the header and loads the footer index once, and
/// [`SegmentReader::read_block`] seeks to an indexed block and decodes it.
/// Any framing, checksum, or decode damage is an [`NmoError::Trace`].
struct SegmentReader {
    file: File,
    path: PathBuf,
    /// End of the block region (= the footer index's offset).
    blocks_end: u64,
    /// Frame scratch, reused across blocks.
    scratch: Vec<u8>,
    /// Where a block's sample buffers come from and where `feed` hands them
    /// back: replay allocates for its largest block and no more.
    pool: Arc<BatchPool>,
}

/// A segment's reader and its footer index (one entry per block, in file
/// order).
type OpenSegment = (SegmentReader, Vec<IndexEntry>);

impl SegmentReader {
    /// Open shard `shard`'s segment at `path`.
    fn open(shard: usize, path: PathBuf) -> Result<OpenSegment, NmoError> {
        let (file, file_len) = SegmentReader::open_file(&path)?;
        SegmentReader::check(shard, path, file, file_len)
    }

    /// Open the file at `path` and read its length: the only failures that
    /// are not about what the segment holds.
    fn open_file(path: &Path) -> Result<(File, u64), NmoError> {
        let cannot = |e| NmoError::trace(format!("cannot read {}: {e}", path.display()));
        let file = File::open(path).map_err(cannot)?;
        let len = file.metadata().map_err(cannot)?.len();
        Ok((file, len))
    }

    /// Check the header, trailer and footer index of the opened segment
    /// `file` (`len` bytes).
    fn check(shard: usize, path: PathBuf, file: File, len: u64) -> Result<OpenSegment, NmoError> {
        let pool = BatchPool::new(MAX_BLOCK_BATCHES);
        let mut r = SegmentReader { file, path, blocks_end: 0, scratch: Vec::new(), pool };
        let mut header = [0u8; 8];
        r.read_at(0, &mut header, "segment header")?;
        if header[..4] != SEGMENT_MAGIC {
            return Err(r.damage("not an NMO trace segment (bad magic)"));
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != FORMAT_VERSION {
            return Err(r.damage(format!("unsupported segment version {version}")));
        }
        let recorded = u16::from_le_bytes([header[6], header[7]]);
        if usize::from(recorded) != shard {
            return Err(r.damage(format!("holds shard {recorded}, listed as shard {shard}")));
        }
        let trailer_at =
            len.checked_sub(12).ok_or_else(|| r.damage("file too short for a trailer"))?;
        let mut trailer = [0u8; 12];
        r.read_at(trailer_at, &mut trailer, "trailer")?;
        let index_offset = get_u64(&trailer, 0).unwrap_or(u64::MAX);
        if trailer[8..] != TRAILER_MAGIC {
            return Err(r.damage("bad trailer magic (unfinalised or corrupt segment)"));
        }
        // index := magic count entries checksum, ending where the trailer
        // starts; the offset comes from the file, so no unchecked arithmetic.
        let index_bytes = index_offset
            .checked_add(8 + 8)
            .and_then(|fixed| trailer_at.checked_sub(fixed))
            .filter(|_| index_offset >= 8)
            .ok_or_else(|| r.damage(format!("index offset {index_offset} out of bounds")))?;
        let mut head = [0u8; 8];
        r.read_at(index_offset, &mut head, "index header")?;
        if head[..4] != INDEX_MAGIC {
            return Err(r.damage("bad index magic"));
        }
        let count = u64::from(get_u32(&head, 4).unwrap_or(u32::MAX));
        if count * INDEX_ENTRY_BYTES as u64 != index_bytes {
            return Err(r.damage(format!("index entry count {count} disagrees with the file size")));
        }
        let mut index = vec![0u8; index_bytes as usize + 8];
        r.read_at(index_offset + 8, &mut index, "index")?;
        let (entries, sum) = index.split_at(index_bytes as usize);
        if Some(mulrot64(entries)) != get_u64(sum, 0) {
            return Err(r.damage("index checksum mismatch"));
        }
        let entries = entries
            .chunks_exact(INDEX_ENTRY_BYTES)
            .map(|entry| IndexEntry::decode(entry, 0))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| r.damage("truncated index entry"))?;
        r.blocks_end = index_offset;
        Ok((r, entries))
    }

    fn damage(&self, what: impl std::fmt::Display) -> NmoError {
        NmoError::trace(format!("{}: {what}", self.path.display()))
    }

    /// Fill `buf` from `offset`, or report the `what` that was cut short.
    fn read_at(&mut self, offset: u64, buf: &mut [u8], what: &str) -> Result<(), NmoError> {
        self.file
            .seek(SeekFrom::Start(offset))
            .and_then(|_| self.file.read_exact(buf))
            .map_err(|e| self.damage(format!("truncated {what} at offset {offset}: {e}")))
    }

    /// Read, verify, and decode the block `entry` describes. The frame must
    /// lie inside the block region, and its own header must agree with the
    /// index entry on length and checksum before the payload is hashed and
    /// decoded — so the footer index and the frames vouch for each other.
    fn read_block(&mut self, entry: &IndexEntry) -> Result<Vec<BusEvent>, NmoError> {
        let (at, len) = (entry.offset, entry.payload_len);
        let end = at
            .checked_add(FRAME_HEADER_BYTES as u64)
            .and_then(|payload_at| payload_at.checked_add(len));
        if at < 8 || len > MAX_BLOCK_BYTES as u64 || end.is_none_or(|end| end > self.blocks_end) {
            return Err(self.damage(format!(
                "indexed block at offset {at} ({len} bytes) lies outside the block region"
            )));
        }
        let mut frame = std::mem::take(&mut self.scratch);
        frame.resize(FRAME_HEADER_BYTES + len as usize, 0);
        let read = self.read_at(at, &mut frame, "block");
        self.scratch = frame;
        read?;
        let (head, payload) = self.scratch.split_at(FRAME_HEADER_BYTES);
        if head[..4] != BLOCK_MAGIC {
            return Err(self.damage(format!("index points at a non-block offset {at}")));
        }
        if get_u32(head, 4).map(u64::from) != Some(len) || get_u64(head, 8) != Some(entry.checksum)
        {
            return Err(
                self.damage(format!("block frame at offset {at} and its index entry disagree"))
            );
        }
        if mulrot64(payload) != entry.checksum {
            return Err(self.damage(format!("block checksum mismatch at offset {at}")));
        }
        decode_events(payload, &self.pool).map_err(|e| self.damage(e))
    }
}

/// The shared half of a replay's sink fan-in (the caller keeps ownership of
/// the sinks).
type ReplayFanIn<'a> = FanIn<&'a mut [Box<dyn AnalysisSink>]>;

/// Run `work` on each segment's `items` entry, one scoped worker thread per
/// segment, and return what each returned, in shard order. A worker that
/// panicked is an [`NmoError::Trace`] naming its shard.
fn per_segment<I: Send, T: Send>(
    items: impl IntoIterator<Item = I>,
    work: impl Fn(I) -> Result<T, NmoError> + Sync,
) -> Vec<Result<T, NmoError>> {
    let work = &work;
    thread::scope(|scope| {
        let workers: Vec<_> =
            items.into_iter().map(|item| scope.spawn(move || work(item))).collect();
        (workers.into_iter().enumerate())
            .map(|(shard, worker)| {
                worker.join().unwrap_or_else(|_| {
                    Err(NmoError::trace(format!("segment {shard}'s worker panicked")))
                })
            })
            .collect()
    })
}

/// Deliver what `query` keeps of the blocks listed in `entries` through one
/// shard's lane, in file order — the one place a stored event reaches a
/// sink. Blocks the index rules out are never read. Every batch a block
/// decoded, delivered or filtered out, goes back to the reader's pool under
/// one hold, so the next block decodes into the same buffers.
fn feed(
    reader: &mut SegmentReader,
    entries: &[IndexEntry],
    query: &TraceQuery,
    lane: &mut FanInLane,
    fan_in: &Mutex<ReplayFanIn<'_>>,
) -> Result<ReplayStats, NmoError> {
    let mut stats = ReplayStats::default();
    let mut spent = Vec::new();
    for entry in entries.iter().filter(|e| query.matches_entry(e)) {
        stats.blocks += 1;
        for event in reader.read_block(entry)? {
            match event {
                BusEvent::Batch(batch) => {
                    let (batch, kept) = query.filter_batch(batch);
                    if kept {
                        stats.batches += 1;
                        if let BatchPayload::SpeSamples { samples, .. } = batch.payload() {
                            stats.samples += samples.len() as u64;
                        }
                        lane.on_batch(&batch, || fan_in.lock());
                    }
                    spent.push(batch);
                }
                BusEvent::CloseWindow(w) => {
                    if query.window_in_range(w.index) {
                        lane.on_window_close(w, || fan_in.lock());
                    }
                }
            }
        }
        reader.pool.recycle_batches(spent.drain(..));
    }
    Ok(stats)
}

/// A slice of a stored trace: time windows, cores, and/or an address range.
/// Unset dimensions match everything. Time and core slicing are
/// batch-granular — an SPE batch is one core's samples in one window — and
/// only the address range filters an SPE batch's samples one by one.
#[derive(Debug, Clone, Default)]
pub struct TraceQuery {
    /// Inclusive window-index range.
    pub windows: Option<(u64, u64)>,
    /// Cores to include, by each batch's core (core-less machine ticks
    /// always pass).
    pub cores: Option<Vec<usize>>,
    /// Inclusive virtual-address range (applied per sample).
    pub vaddr: Option<(u64, u64)>,
}

impl TraceQuery {
    /// A query matching the whole trace.
    pub fn all() -> Self {
        TraceQuery::default()
    }

    /// Restrict to an inclusive window-index range.
    pub fn with_windows(mut self, first: u64, last: u64) -> Self {
        self.windows = Some((first.min(last), first.max(last)));
        self
    }

    /// Restrict to the given cores.
    pub fn with_cores(mut self, cores: impl IntoIterator<Item = usize>) -> Self {
        self.cores = Some(cores.into_iter().collect());
        self
    }

    /// Restrict to an inclusive virtual-address range.
    pub fn with_vaddr(mut self, lo: u64, hi: u64) -> Self {
        self.vaddr = Some((lo.min(hi), lo.max(hi)));
        self
    }

    fn window_in_range(&self, index: u64) -> bool {
        self.windows.is_none_or(|(lo, hi)| (lo..=hi).contains(&index))
    }

    fn core_mask(&self) -> u64 {
        match &self.cores {
            None => u64::MAX,
            Some(cores) => cores.iter().fold(0, |m, &c| m | core_bit(c)),
        }
    }

    /// Whether a footer index entry can contain anything this query needs.
    /// Close mini blocks ride on the window range alone: every close in
    /// range must reach the sinks regardless of core/address slicing.
    fn matches_entry(&self, e: &IndexEntry) -> bool {
        let m = &e.meta;
        if let Some((lo, hi)) = self.windows {
            if m.first_window > hi || m.last_window < lo {
                return false;
            }
        }
        if m.closes > 0 {
            return true;
        }
        if m.core_mask & self.core_mask() == 0 {
            return false;
        }
        if let Some((lo, hi)) = self.vaddr {
            if m.samples > 0 && (m.min_vaddr > hi || m.max_vaddr < lo) {
                return false;
            }
        }
        true
    }

    /// What the query keeps of one stored batch: nothing outside the window
    /// range or the queried cores; of an SPE batch, the samples inside the
    /// address range. The batch comes back either way, so its buffer can be
    /// recycled, with whether anything of it is kept.
    fn filter_batch(&self, batch: SampleBatch) -> (SampleBatch, bool) {
        let in_cores = |c: usize| self.cores.as_ref().is_none_or(|cores| cores.contains(&c));
        if !self.window_in_range(batch.window.index) || !batch.core.is_none_or(in_cores) {
            return (batch, false);
        }
        let Some((lo, hi)) = self.vaddr else { return (batch, true) };
        let (seq, backend, core, window) = (batch.seq, batch.backend, batch.core, batch.window);
        let mut payload = batch.into_payload();
        let mut kept = true;
        if let BatchPayload::SpeSamples { samples, .. } = &mut payload {
            samples.retain(|s| (lo..=hi).contains(&s.vaddr));
            kept = !samples.is_empty();
        }
        let mut filtered = SampleBatch::new(backend, core, window, payload);
        filtered.seq = seq;
        (filtered, kept)
    }
}

/// Opens a stored trace directory and replays it through analysis sinks.
pub struct TraceReader {
    dir: PathBuf,
    manifest: Manifest,
}

impl TraceReader {
    /// Open a trace directory written by [`TraceWriterSink`].
    pub fn open(dir: impl Into<PathBuf>) -> Result<TraceReader, NmoError> {
        let dir = dir.into();
        let manifest_path = dir.join(MANIFEST_NAME);
        let text = fs::read_to_string(&manifest_path).map_err(|e| {
            NmoError::trace(format!("cannot read {}: {e}", manifest_path.display()))
        })?;
        let manifest = Manifest::parse(&text)?;
        Ok(TraceReader { dir, manifest })
    }

    /// Number of per-shard segments (the live run's shard count).
    pub fn shards(&self) -> usize {
        self.manifest.segments.len()
    }

    /// Streaming window width of the recorded run, nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.manifest.window_ns
    }

    /// Totals of the stored trace.
    pub fn summary(&self) -> TraceSummary {
        let bytes =
            self.segment_paths().filter_map(|p| fs::metadata(p).ok()).map(|m| m.len()).sum();
        TraceSummary {
            shards: self.shards(),
            samples: self.manifest.samples,
            bytes,
            window_ns: self.manifest.window_ns,
        }
    }

    /// A machine-less [`StreamContext`] rebuilt from the recorded stream
    /// geometry: the legitimate replay-side context ([`StreamContext::machine`]
    /// is `None`, so sinks aggregate but do not actuate).
    pub fn replay_context(&self) -> StreamContext {
        let g = &self.manifest.geometry;
        StreamContext::for_replay(g.capacity_bytes, g.bucket_ns, g.mem_nodes, g.page_bytes)
    }

    fn segment_paths(&self) -> impl Iterator<Item = PathBuf> + '_ {
        self.manifest.segments.iter().map(|name| self.dir.join(name))
    }

    /// Replay the whole trace through `sinks`: [`TraceReader::replay_query`]
    /// with [`TraceQuery::all`]. Shardable sinks reproduce the recorded run
    /// bit-for-bit.
    ///
    /// Call [`replay_finish`] (or the sinks' `finish` directly) afterwards
    /// to collect the reports.
    pub fn replay(&self, sinks: &mut [Box<dyn AnalysisSink>]) -> Result<ReplayStats, NmoError> {
        self.replay_query(&TraceQuery::all(), sinks)
    }

    /// Replay what `query` keeps through `sinks`, one worker thread per
    /// segment, never reading a block the footer index rules out. Each
    /// worker feeds its segment's blocks, in file order, through its
    /// shard's lane of the live pipeline's fan-in:
    ///
    /// * a [`ShardableSink`] gets one [`SinkShard`] per segment, and its
    ///   per-window states merge in ascending shard index when the last
    ///   segment closes the window — whatever the thread timing, so it
    ///   reports what the recorded live run reported, bit for bit;
    /// * any other sink is fed under the fan-in's lock: each segment's
    ///   batches in recorded order, interleaved across segments in no fixed
    ///   order, and each window close once, after every segment's on-time
    ///   batches for that window.
    ///
    /// Per-window states of a window that not every segment closed merge
    /// at the end, as on a live run. Every segment is opened and checked
    /// before a sink is started, so a damaged header or index leaves the
    /// sinks untouched.
    pub fn replay_query(
        &self,
        query: &TraceQuery,
        sinks: &mut [Box<dyn AnalysisSink>],
    ) -> Result<ReplayStats, NmoError> {
        let mut segments = (self.segment_paths().enumerate())
            .map(|(shard, path)| SegmentReader::open(shard, path))
            .collect::<Result<Vec<_>, _>>()?;
        let (fan_in, mut lanes) = FanIn::start(sinks, segments.len(), &self.replay_context());
        let fan_in = Mutex::named(fan_in, "trace.merger");
        let outcomes =
            per_segment(segments.iter_mut().zip(&mut lanes), |((reader, entries), lane)| {
                feed(reader, entries, query, lane, &fan_in)
            });
        let mut stats = ReplayStats { segments: segments.len(), ..ReplayStats::default() };
        for outcome in outcomes {
            let o = outcome?;
            stats.samples += o.samples;
            stats.batches += o.batches;
            stats.blocks += o.blocks;
        }
        Ok(finish(fan_in, lanes, stats))
    }

    /// Integrity check over every segment, one worker thread per segment:
    /// read every indexed block through the reader the replays use, noting
    /// damage instead of stopping at it. A block that does not verify is
    /// skipped and the next one read; a segment whose header, index or
    /// trailer does not verify is skipped whole. The findings come in shard
    /// order; a worker that panicked is one error naming its shard. A
    /// segment that cannot be opened or stat'ed is an `Err`; a read that
    /// fails after that is reported like damage, as a short read is how a
    /// truncated segment shows.
    pub fn verify(&self) -> Result<TraceVerify, NmoError> {
        let files = self
            .segment_paths()
            .map(|path| SegmentReader::open_file(&path).map(|(file, len)| (path, file, len)))
            .collect::<Result<Vec<_>, _>>()?;
        let parts = per_segment(files.into_iter().enumerate(), |(shard, (path, file, len))| {
            Ok(verify_segment(shard, path, file, len))
        });
        Ok(parts.into_iter().fold(TraceVerify::default(), TraceVerify::absorb))
    }
}

/// [`TraceReader::verify`]'s look at shard `shard`'s opened segment `file`
/// (`len` bytes): its header, trailer and footer index, then every block.
fn verify_segment(shard: usize, path: PathBuf, file: File, len: u64) -> TraceVerify {
    let mut v = TraceVerify::default();
    let (mut reader, entries) = match SegmentReader::check(shard, path, file, len) {
        Ok(opened) => opened,
        Err(e) => {
            v.skipped_bytes = len;
            v.errors.push(e.to_string());
            return v;
        }
    };
    for entry in &entries {
        match reader.read_block(entry) {
            Ok(events) => {
                v.blocks += 1;
                v.consumed_bytes += FRAME_HEADER_BYTES as u64 + entry.payload_len;
                reader.pool.recycle_batches(events.into_iter().filter_map(|event| match event {
                    BusEvent::Batch(batch) => Some(batch),
                    BusEvent::CloseWindow(_) => None,
                }));
            }
            Err(e) => v.errors.push(e.to_string()),
        }
    }
    v.skipped_bytes = (reader.blocks_end - 8).saturating_sub(v.consumed_bytes);
    v
}

/// End of a replay: merge what the lanes still hold and count the windows
/// every segment closed.
fn finish(
    fan_in: Mutex<ReplayFanIn<'_>>,
    lanes: Vec<FanInLane>,
    mut stats: ReplayStats,
) -> ReplayStats {
    let mut fan_in = fan_in.into_inner();
    fan_in.finish(lanes);
    stats.windows = fan_in.windows_closed();
    stats
}

/// Result of [`TraceReader::verify`].
#[derive(Debug, Default)]
pub struct TraceVerify {
    /// Blocks that verified across all segments.
    pub blocks: u64,
    /// Bytes covered by verified block frames.
    pub consumed_bytes: u64,
    /// The rest of each segment's block region; the whole file of a segment
    /// whose header, index or trailer did not verify.
    pub skipped_bytes: u64,
    /// One message per block or segment that did not verify.
    pub errors: Vec<String>,
}

impl TraceVerify {
    /// Add one segment's findings, or the error its worker ended in.
    fn absorb(mut self, part: Result<TraceVerify, NmoError>) -> TraceVerify {
        match part {
            Ok(part) => {
                self.blocks += part.blocks;
                self.consumed_bytes += part.consumed_bytes;
                self.skipped_bytes += part.skipped_bytes;
                self.errors.extend(part.errors);
            }
            Err(e) => self.errors.push(e.to_string()),
        }
        self
    }
}

/// Collect the sinks' reports after a replay, without a live machine: runs
/// each sink's [`AnalysisSink::finish`] against a minimal machine and a
/// profile that is empty but for the reports of the sinks before it
/// (streaming-fed sinks ignore both and report what they aggregated from the
/// replayed stream).
pub fn replay_finish(sinks: &mut [Box<dyn AnalysisSink>]) -> Result<Vec<AnalysisRecord>, NmoError> {
    let machine = Machine::new(MachineConfig::small_test());
    let mut profile = Profile::empty("replay", NmoConfig::paper_default(1000));
    crate::sink::run_sinks(&machine, &mut profile, sinks)?;
    Ok(profile.analyses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::WindowClock;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("nmo_trace_{tag}_{}", std::process::id()))
    }

    fn sample(t: u64, vaddr: u64, core: usize, latency: u16, source: DataSource) -> AddressSample {
        AddressSample { time_ns: t, vaddr, core, is_store: t.is_multiple_of(3), latency, source }
    }

    fn spe_batch(core: usize, window: Window, samples: Vec<AddressSample>) -> SampleBatch {
        let loss = SpeStatsSnapshot::default();
        let mut b =
            SampleBatch::new("spe", Some(core), window, BatchPayload::SpeSamples { samples, loss });
        b.seq = 41u64.wrapping_add(core as u64);
        b
    }

    fn assert_batches_eq(a: &SampleBatch, b: &SampleBatch) {
        assert_eq!(a.backend, b.backend);
        assert_eq!(a.core, b.core);
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.window, b.window);
        match (a.payload(), b.payload()) {
            (
                BatchPayload::SpeSamples { samples: sa, loss: la },
                BatchPayload::SpeSamples { samples: sb, loss: lb },
            ) => {
                assert_eq!(sa, sb);
                assert_eq!(la, lb);
            }
            (BatchPayload::Rss { points: pa }, BatchPayload::Rss { points: pb }) => {
                assert_eq!(pa, pb);
            }
            (BatchPayload::Bandwidth { points: pa }, BatchPayload::Bandwidth { points: pb }) => {
                assert_eq!(pa.len(), pb.len());
                for (x, y) in pa.iter().zip(pb) {
                    assert_eq!((x.time_ns, x.bytes, x.by_node), (y.time_ns, y.bytes, y.by_node));
                    assert!((x.gib_per_s - y.gib_per_s).abs() < f64::EPSILON);
                }
            }
            _ => panic!("payload kinds differ"),
        }
    }

    #[test]
    fn varint_round_trips_boundaries() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        for &v in &values {
            buf.clear();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overlong() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert_eq!(get_varint(&buf[..cut], &mut pos), None, "cut at {cut}");
        }
        // 11 continuation bytes can only encode overflow.
        let overlong = [0x80u8; 11];
        let mut pos = 0;
        assert_eq!(get_varint(&overlong, &mut pos), None);
    }

    /// What byte-wise FNV-1a caught, the word-wise checksum catches: any one
    /// flipped bit, any cut, 1–64 appended zero bytes, and two differing
    /// 8-byte words changing places (`swap` picks them, modulo the count).
    fn assert_checksum_sees_damage(payload: &[u8], swap: (usize, usize)) {
        let sum = mulrot64(payload);
        let mut bad = payload.to_vec();
        for bit in 0..payload.len() * 8 {
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(mulrot64(&bad), sum, "bit {bit} of {} bytes flipped", payload.len());
            bad[bit / 8] ^= 1 << (bit % 8);
        }
        for cut in 0..payload.len() {
            assert_ne!(mulrot64(&payload[..cut]), sum, "{} bytes cut to {cut}", payload.len());
        }
        for zeros in 1..=64 {
            bad.push(0);
            assert_ne!(mulrot64(&bad), sum, "{zeros} zero bytes after {}", payload.len());
        }
        bad.truncate(payload.len());
        let words = payload.len() / 8;
        if words > 0 {
            let (a, b) = (swap.0 % words * 8, swap.1 % words * 8);
            if payload[a..a + 8] != payload[b..b + 8] {
                bad.copy_within(a..a + 8, b);
                bad[a..a + 8].copy_from_slice(&payload[b..b + 8]);
                assert_ne!(
                    mulrot64(&bad),
                    sum,
                    "words at {a} and {b} of {} swapped",
                    payload.len()
                );
            }
        }
    }

    /// Every length around the 32-byte stride and its byte-wise remainder,
    /// patterned and all-zero (where a zero-extension changes only the
    /// length), every pair of words swapped.
    #[test]
    fn checksum_sees_damage_at_every_stride_and_remainder_edge() {
        for len in 0..=40usize {
            let patterned: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            for payload in [patterned, vec![0u8; len]] {
                for swap in (0..5).flat_map(|a| (0..a).map(move |b| (a, b))) {
                    assert_checksum_sees_damage(&payload, swap);
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn checksum_sees_damage_in_arbitrary_payloads(
            payload in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..=4096usize),
            a in 0..512usize,
            b in 0..512usize,
        ) {
            assert_checksum_sees_damage(&payload, (a, b));
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    fn mixed_events(window: Window) -> Vec<BusEvent> {
        let samples = vec![
            sample(window.start_ns + 10, 0x7f00_0000, 3, 120, DataSource::L1),
            sample(window.start_ns + 25, 0x7f00_0040, 3, 300, DataSource::Dram(0)),
            sample(window.start_ns + 26, 0x6000_0000, 3, 900, DataSource::RemoteDram(1)),
        ];
        // A core-stamped batch with no items and no timestamps.
        let empty =
            SampleBatch::new("machine", Some(1), window, BatchPayload::Rss { points: vec![] });
        let mut rss_by_node = [0u64; MAX_MEM_NODES];
        rss_by_node[0] = 4096;
        rss_by_node[1] = 8192;
        let rss = SampleBatch::new(
            "machine",
            None,
            window,
            BatchPayload::Rss {
                points: vec![RssPoint {
                    time_ns: window.start_ns + 5,
                    rss_bytes: 12_288,
                    rss_by_node,
                }],
            },
        );
        let bw = SampleBatch::new(
            "machine",
            None,
            window,
            BatchPayload::Bandwidth {
                points: vec![BandwidthPoint {
                    time_ns: window.start_ns + 6,
                    bytes: 64,
                    by_node: rss_by_node,
                    gib_per_s: 1.75,
                }],
            },
        );
        vec![
            BusEvent::Batch(spe_batch(3, window, samples)),
            BusEvent::Batch(empty),
            BusEvent::Batch(rss),
            BusEvent::Batch(bw),
            BusEvent::CloseWindow(window),
        ]
    }

    /// `events` as one block payload, with the block's summary and the offset
    /// at which each event ends.
    fn encode_stream(events: &[BusEvent]) -> (Vec<u8>, BlockMeta, Vec<usize>) {
        let (mut buf, mut meta, mut ends) = (Vec::new(), BlockMeta::empty(), Vec::new());
        for ev in events {
            match ev {
                BusEvent::Batch(b) => {
                    encode_batch_event(&mut buf, b, &mut meta);
                }
                BusEvent::CloseWindow(w) => encode_close_event(&mut buf, *w, &mut meta),
            }
            ends.push(buf.len());
        }
        (buf, meta, ends)
    }

    /// [`mixed_events`] and then [`wide_batch`]: every kind of event, and
    /// sample runs from a few narrow bits to whole words.
    fn mixed_and_wide_events(window: Window) -> Vec<BusEvent> {
        let mut events = mixed_events(window);
        events.push(BusEvent::Batch(wide_batch()));
        events
    }

    #[test]
    fn events_encode_decode_round_trip() {
        let window = Window { index: 4, start_ns: 4_000_000, end_ns: 5_000_000 };
        let events = mixed_events(window);
        let (buf, meta, _) = encode_stream(&events);
        assert_eq!(meta.samples, 3);
        assert_eq!(meta.closes, 1);
        assert_eq!(meta.first_window, 4);
        assert_eq!(meta.core_mask & core_bit(3), core_bit(3));
        // Core-less machine batches force the mask wide open.
        assert_eq!(meta.core_mask, u64::MAX);
        assert_eq!(meta.min_vaddr, 0x6000_0000);
        assert_eq!(meta.max_vaddr, 0x7f00_0040);

        let decoded = decode_events(&buf, &BatchPool::new(4)).expect("decode");
        assert_eq!(decoded.len(), events.len());
        for (orig, got) in events.iter().zip(&decoded) {
            match (orig, got) {
                (BusEvent::Batch(a), BusEvent::Batch(b)) => assert_batches_eq(a, b),
                (BusEvent::CloseWindow(a), BusEvent::CloseWindow(b)) => assert_eq!(a, b),
                _ => panic!("event kinds differ"),
            }
        }
    }

    #[test]
    fn decode_rejects_any_truncation() {
        let window = Window { index: 0, start_ns: 0, end_ns: 1_000_000 };
        let events = mixed_and_wide_events(window);
        let (buf, _, ends) = encode_stream(&events);
        match decode_events(&buf, &BatchPool::new(4)).expect("the whole stream").last() {
            Some(BusEvent::Batch(decoded)) => assert_batches_eq(decoded, &wide_batch()),
            other => panic!("the wide batch came back as {other:?}"),
        }
        // A cut at an exact event boundary is a legal (shorter) stream, so
        // expect success with fewer events there and a decode error
        // everywhere else — never a panic.
        for cut in 1..buf.len() {
            match decode_events(&buf[..cut], &BatchPool::new(4)) {
                Ok(decoded) => {
                    assert!(ends.contains(&cut), "cut {cut} inside an event decoded Ok");
                    assert!(decoded.len() < events.len());
                }
                Err(_) => assert!(!ends.contains(&cut), "cut {cut} at a boundary must decode"),
            }
        }
    }

    /// Three groups (64 + 64 + 1) whose columns are as wide as they get, in
    /// a window that spans all of time: time running backwards from
    /// `u64::MAX`, addresses at 0 and `u64::MAX`, the latency range end to
    /// end — and, in the second group, address deltas whose zigzag column
    /// has a `base + mask` past `u64::MAX` while no value is (`MAX - 2` and
    /// `MAX`: two bits above the base). Its core, `usize::MAX`, is stored
    /// once, in the header.
    fn wide_batch() -> SampleBatch {
        let window = Window { index: 7, start_ns: 0, end_ns: u64::MAX };
        let mut vaddr = 0u64;
        let samples = (0..129u64)
            .map(|i| {
                vaddr = match i {
                    0..64 => [u64::MAX, 0, 0][i as usize % 3],
                    _ => vaddr.wrapping_add((1 << 63) + i % 2),
                };
                AddressSample {
                    time_ns: if i % 2 == 0 { u64::MAX - i } else { i },
                    vaddr,
                    core: usize::MAX,
                    is_store: i % 5 == 0,
                    latency: [0, u16::MAX, 77][i as usize % 3],
                    source: [DataSource::Slc, DataSource::RemoteDram(15)][i as usize % 2],
                }
            })
            .collect();
        spe_batch(usize::MAX, window, samples)
    }

    /// Every core a batch can name, none included, comes back from the
    /// event header as it went in: `usize::MAX` as well (stored as `core +
    /// 1`, it used to overflow in the writer).
    #[test]
    fn every_batch_core_round_trips_through_the_header() {
        let window = Window { index: 2, start_ns: 2000, end_ns: 3000 };
        let rss =
            |core| SampleBatch::new("machine", core, window, BatchPayload::Rss { points: vec![] });
        let mut events = vec![BusEvent::Batch(rss(None))];
        for core in [0, 1, 127, 128, usize::MAX - 2, usize::MAX] {
            let samples = vec![sample(2500, 0x1000, core, 9, DataSource::L1)];
            events.push(BusEvent::Batch(spe_batch(core, window, samples)));
            events.push(BusEvent::Batch(rss(Some(core))));
        }
        let (buf, meta, _) = encode_stream(&events);
        assert_eq!(meta.core_mask, u64::MAX);
        let decoded = decode_events(&buf, &BatchPool::new(4)).expect("decode");
        assert_eq!(decoded.len(), events.len());
        for (orig, got) in events.iter().zip(&decoded) {
            match (orig, got) {
                (BusEvent::Batch(a), BusEvent::Batch(b)) => assert_batches_eq(a, b),
                _ => panic!("event kinds differ"),
            }
        }
    }

    /// The layout, byte for byte: a change to it must change this string,
    /// and then `FORMAT_VERSION`. Version 6 is version 5 with the core as a
    /// flag byte and a varint in the header (it was `core + 1`) and without
    /// the core column that followed the latencies.
    #[test]
    fn a_batch_event_is_exactly_these_bytes() {
        let window = Window { index: 4, start_ns: 4_000_000, end_ns: 5_000_000 };
        let s = |dt, vaddr, core, latency, source, is_store| AddressSample {
            time_ns: window.start_ns + dt,
            vaddr,
            core,
            is_store,
            latency,
            source,
        };
        let batch = spe_batch(
            3,
            window,
            vec![
                s(10, 0x7f00_0000, 3, 120, DataSource::L1, false),
                s(25, 0x7f00_0040, 3, 300, DataSource::Dram(0), false),
                s(26, 0x6000_0000, 3, 900, DataSource::RemoteDram(1), true),
            ],
        );
        #[rustfmt::skip]
        let expected: &[u8] = &[
            0x01,                   // EV_SPE
            0x2c,                   // seq 44
            0x04,                   // window: index 4,
            0x80, 0x92, 0xf4, 0x01, //   start 4 000 000,
            0xc0, 0x84, 0x3d,       //   width 1 000 000
            0x01, 0x03,             // a core: 3
            0x00,                   // backend "spe"
            0x03,                   // 3 samples: one group
            0x00, 0x0d, 0x1e,       // sources L1, Dram(0), RemoteDram(1)
            0x04,                   // store bits: sample 2
            // zigzag time deltas 20, 30, 2: base 2, 5 bits of 18, 28, 0
            0x05, 0x02, 0x92, 0x03,
            // zigzag vaddr deltas 0xfe00_0000, 0x80, 0x3e00_007f: base 0x80,
            // 32 bits of 0xfdff_ff80, 0, 0x3dff_ffff
            0x20, 0x80, 0x01,
            0x80, 0xff, 0xff, 0xfd, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0x3d,
            // latencies 120, 300, 900: base 120, 10 bits of 0, 180, 780
            0x0a, 0x78, 0x00, 0xd0, 0xc2, 0x30,
        ];
        let mut buf = Vec::new();
        encode_batch_event(&mut buf, &batch, &mut BlockMeta::empty());
        assert_eq!(buf, expected, "{buf:02x?}");
        match &decode_events(expected, &BatchPool::new(4)).expect("decode")[..] {
            [BusEvent::Batch(decoded)] => assert_batches_eq(decoded, &batch),
            other => panic!("decoded to {other:?}"),
        }
    }

    /// The per-value packing loop the width kernels replaced, kept as their
    /// oracle: `fill` bits wait in `acc`, 64 of them are a word to store.
    fn reference_pack_column(out: &mut Vec<u8>, values: &[u64]) {
        let (base, not_max) =
            values.iter().fold((u64::MAX, u64::MAX), |(lo, hi), &v| (lo.min(v), hi.min(!v)));
        let width = u64::BITS - (!not_max - base).leading_zeros();
        out.push(width as u8);
        put_varint(out, base);
        if width == 0 {
            return;
        }
        let at = out.len();
        let end = at + (values.len() * width as usize).div_ceil(8);
        out.resize(end + 8, 0);
        let dst = &mut out[at..];
        let (mut acc, mut fill, mut pos) = (0u64, 0u32, 0usize);
        for &v in values {
            let v = v - base;
            acc |= v << fill;
            fill += width;
            if fill >= 64 {
                dst[pos..pos + 8].copy_from_slice(&acc.to_le_bytes());
                pos += 8;
                fill -= 64;
                acc = if fill == 0 { 0 } else { v >> (width - fill) };
            }
        }
        dst[pos..pos + 8].copy_from_slice(&acc.to_le_bytes());
        out.truncate(end);
    }

    /// The per-value unpacking loop the width kernels replaced, kept as
    /// their oracle: one 16-byte load per value at its byte, from a copy
    /// with zeros behind the last byte; every check as [`unpack_column`].
    fn reference_unpack_column(
        payload: &[u8],
        pos: &mut usize,
        out: &mut [u64],
        what: &str,
    ) -> Result<(), String> {
        let width = usize::from(
            *payload.get(*pos).ok_or_else(|| format!("truncated {what} width at byte {pos}"))?,
        );
        *pos += 1;
        if width > 64 {
            return Err(format!("{what} width {width} exceeds 64 bits"));
        }
        let base = rv(payload, pos, what)?;
        let bits = out.len() * width;
        let packed = payload
            .get(*pos..*pos + bits.div_ceil(8))
            .ok_or_else(|| format!("truncated {what} column at byte {pos}"))?;
        *pos += packed.len();
        let padding = packed.len() * 8 - bits;
        if packed.last().is_some_and(|&last| u16::from(last) >> (8 - padding) != 0) {
            return Err(format!("{what} column ends in non-zero padding bits"));
        }
        if width == 0 {
            out.fill(base);
            return Ok(());
        }
        let mut window = [0u8; GROUP * 8 + 16];
        window[..packed.len()].copy_from_slice(packed);
        let mask = u64::MAX >> (u64::BITS - width as u32);
        for (i, v) in out.iter_mut().enumerate() {
            let bit = i * width;
            let word = u128::from_le_bytes(window[bit / 8..bit / 8 + 16].try_into().expect("16"));
            *v = base.wrapping_add((word >> (bit % 8)) as u64 & mask);
        }
        if base.checked_add(mask).is_none() && out.iter().any(|&v| v < base) {
            return Err(format!("{what} column overflows u64"));
        }
        Ok(())
    }

    /// The kernels against the per-value loops, at every width 1..=64 and
    /// every group size 1..=64: packing writes the reference's bytes, and
    /// unpacking those bytes — straight from a payload with bytes after the
    /// column, and through the padded copy at the payload's end — returns
    /// the reference's values, which are the values packed. The values
    /// span their width from a base of 0, are all ones above one base
    /// value, or sit on a base whose `base + mask` overflows `u64`.
    #[test]
    fn width_kernels_match_the_per_value_loops() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for width in 1..=64u32 {
            let mask = u64::MAX >> (64 - width);
            let top = 1u64 << (width - 1);
            for g in 1..=GROUP {
                let spans: [(u64, u64); 3] = [(0, mask), (0, mask), (u64::MAX - top, top)];
                for (kind, (base, span)) in spans.into_iter().enumerate() {
                    let mut values = [0u64; GROUP];
                    for (i, v) in values[..g].iter_mut().enumerate() {
                        *v = match (kind, i) {
                            (_, 0) => base,
                            (1, _) | (_, 1) => base + span,
                            _ => base + next() % span.saturating_add(1),
                        };
                    }
                    let stored = values;
                    let mut expected = Vec::new();
                    reference_pack_column(&mut expected, &stored[..g]);
                    let mut packed = Vec::new();
                    pack_column(&mut packed, &mut values, g);
                    assert_eq!(packed, expected, "width {width}, group {g}, kind {kind}");

                    let mut reference = [0u64; GROUP];
                    let mut pos = 0;
                    reference_unpack_column(&packed, &mut pos, &mut reference[..g], "oracle")
                        .expect("the reference reads its own column");
                    assert_eq!(reference[..g], stored[..g], "width {width}, group {g}");
                    let followed = [&packed[..], &[0xff; GROUP * 8 + KERNEL_SLACK]].concat();
                    for payload in [&packed[..], &followed] {
                        let (mut got, mut pos) = ([0u64; GROUP], 0);
                        unpack_column(payload, &mut pos, &mut got, g, "kernel").expect("unpack");
                        assert_eq!(pos, packed.len());
                        assert_eq!(got[..g], stored[..g], "width {width}, group {g}, kind {kind}");
                    }
                }
            }
        }
    }

    /// Every single flipped bit of a packed column, and every cut, reads
    /// the same through the kernels as through the per-value loop: the same
    /// values, or an error both report.
    #[test]
    fn damaged_columns_read_alike_through_the_kernels_and_the_loops() {
        for width in [1u32, 7, 8, 13, 31, 56, 57, 59, 63, 64] {
            let mask = u64::MAX >> (64 - width);
            for g in [1, 7, 9, 63, 64] {
                let mut values = [0u64; GROUP];
                for (i, v) in values[..g].iter_mut().enumerate() {
                    *v = u64::MAX - ((i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d) & mask);
                }
                let mut packed = Vec::new();
                pack_column(&mut packed, &mut values, g);
                let mut variants: Vec<Vec<u8>> = (0..packed.len() * 8)
                    .map(|bit| {
                        let mut damaged = packed.clone();
                        damaged[bit / 8] ^= 1 << (bit % 8);
                        damaged
                    })
                    .collect();
                variants.extend((0..packed.len()).map(|cut| packed[..cut].to_vec()));
                for damaged in variants {
                    let (mut want, mut want_pos) = ([0u64; GROUP], 0);
                    let want =
                        reference_unpack_column(&damaged, &mut want_pos, &mut want[..g], "column")
                            .map(|()| want);
                    let (mut got, mut got_pos) = ([0u64; GROUP], 0);
                    let got =
                        unpack_column(&damaged, &mut got_pos, &mut got, g, "column").map(|()| got);
                    match (want, got) {
                        (Ok(want), Ok(got)) => {
                            assert_eq!(got[..g], want[..g], "width {width}, group {g}");
                            assert_eq!(got_pos, want_pos);
                        }
                        (want, got) => assert_eq!(got.err(), want.err(), "width {width}, g {g}"),
                    }
                }
            }
        }
    }

    /// What the decoder refuses of a sample run, each with its own message:
    /// nothing below is a panic, and nothing decodes to samples.
    #[test]
    fn decode_refuses_every_malformed_sample_run() {
        let packed = |values: &[u64]| {
            let mut column = [0; GROUP];
            column[..values.len()].copy_from_slice(values);
            let mut out = Vec::new();
            pack_column(&mut out, &mut column, values.len());
            out
        };
        // An `EV_SPE` event of `n` samples in window 0 (100 ns wide) whose
        // core and sample run are these parts, verbatim.
        let event = |core: &[u8], n: u64, sources: &[u8], stores: &[u8], columns: [&[u8]; 3]| {
            let mut out = [&[EV_SPE, 0, 0, 0, 100][..], core, &[0]].concat();
            put_varint(&mut out, n);
            out.extend_from_slice(&[sources, stores, &columns.concat()].concat());
            decode_events(&out, &BatchPool::new(4)).map(|events| events.len())
        };
        let (stride, nines) = (packed(&[2, 4, 6]), packed(&[9; 3]));
        let valid = [&stride[..], &stride, &nines];
        assert_eq!(event(&[1, 0], 3, &[0; 3], &[0], valid), Ok(1));

        let too_wide = [&[65, 0][..], &[0; 25]].concat();
        let past_u64 = [&[64, 1][..], &[0xff; 8], &[0; 16]].concat();
        let slow = packed(&[70_000, 1, 2]);
        let late = packed(&[2, 4, 200]);
        let core_0 = &[1, 0][..];
        for (refused, why) in [
            (event(core_0, 3, &[0; 3], &[0], [&too_wide, &stride, &nines]), "width 65 exceeds"),
            (event(core_0, 3, &[0; 3], &[0], [&stride, &[1, 0, 0b1000], &nines]), "padding bits"),
            (event(core_0, 3, &[0; 3], &[0], [&stride, &past_u64, &nines]), "overflows u64"),
            (event(core_0, 3, &[0; 3], &[0], [&stride, &stride, &slow]), "latency out of u16"),
            (event(core_0, 3, &[0; 3], &[0b1000], valid), "store bits set beyond a group of 3"),
            (event(core_0, 3, &[0, 3, 0], &[0], valid), "invalid data-source code 0x3"),
            (event(core_0, 1 << 40, &[0; 3], &[0], valid), "exceeds remaining payload"),
            (
                event(core_0, 3, &[0; 3], &[0], [&late, &stride, &nines]),
                "outside its batch's window",
            ),
            (event(&[0], 3, &[0; 3], &[0], valid), "an SPE batch without a core"),
            (event(&[2, 0], 3, &[0; 3], &[0], valid), "core flag 2 is neither 0 nor 1"),
        ] {
            assert!(refused.as_ref().is_err_and(|e| e.contains(why)), "{why}: {refused:?}");
        }
    }

    proptest::proptest! {
        /// One flipped bit anywhere in a payload is an error or other events
        /// — no bit is ignored, so none can flip and leave the samples as
        /// they were — and any number of flipped bits is never a panic.
        #[test]
        fn flipped_payload_bits_never_panic_and_never_pass_unnoticed(
            flips in proptest::collection::vec(0..1usize << 20, 1..=4usize),
        ) {
            let window = Window { index: 0, start_ns: 0, end_ns: 1_000_000 };
            let (buf, _, _) = encode_stream(&mixed_and_wide_events(window));
            let pool = BatchPool::new(8);
            let pristine = format!("{:?}", decode_events(&buf, &pool).expect("pristine"));
            let mut bad = buf.clone();
            let bit = flips[0] % (buf.len() * 8);
            bad[bit / 8] ^= 1 << (bit % 8);
            if let Ok(events) = decode_events(&bad, &pool) {
                assert_ne!(format!("{events:?}"), pristine, "bit {bit} flipped");
            }
            for flip in &flips[1..] {
                let bit = flip % (buf.len() * 8);
                bad[bit / 8] ^= 1 << (bit % 8);
            }
            let _ = decode_events(&bad, &pool);
        }
    }

    fn write_segment(dir: &Path, shard: usize, windows: u64) -> SegmentSummary {
        let mut w = SegmentWriter::create(dir, shard).expect("create");
        let clock = WindowClock::new(1_000_000);
        for wi in 0..windows {
            let window = clock.window(wi);
            let samples = (0..50)
                .map(|i| {
                    sample(
                        window.start_ns + i * 10,
                        0x1000_0000 + wi * 0x1000 + i * 64,
                        shard,
                        (100 + i) as u16,
                        if i % 2 == 0 { DataSource::L1 } else { DataSource::Dram(0) },
                    )
                })
                .collect();
            w.append_batch(&spe_batch(shard, window, samples)).expect("append");
            w.append_close(window).expect("close");
        }
        w.finish().expect("finish")
    }

    #[test]
    fn segment_round_trips_through_the_indexed_reader() {
        let dir = tmp("segment_rt");
        fs::create_dir_all(&dir).expect("mkdir");
        let summary = write_segment(&dir, 0, 6);
        assert_eq!(summary.samples, 300);
        assert_eq!(summary.closes, 6);
        let path = dir.join(SegmentWriter::segment_file_name(0));

        // Every block is readable through its index entry, in file order,
        // and carries what the entry's metadata promises.
        let (mut reader, entries) = SegmentReader::open(0, path).expect("open");
        assert_eq!(entries.len() as u64, summary.blocks);
        let (mut events, mut closes) = (0u64, 0u64);
        for e in &entries {
            let block = reader.read_block(e).expect("block");
            assert_eq!(block.len() as u64, e.meta.events);
            let block_closes =
                block.iter().filter(|ev| matches!(ev, BusEvent::CloseWindow(_))).count() as u64;
            assert_eq!(block_closes, e.meta.closes);
            // What a sliced query rests on: a close block passes on its
            // window alone, whatever cores or addresses are queried.
            assert!(e.meta.closes == 0 || e.meta.events == 1, "a close is alone in its block");
            events += e.meta.events;
            closes += block_closes;
        }
        assert_eq!(events, summary.events);
        assert_eq!(closes, 6);
        fs::remove_dir_all(&dir).ok();
    }

    /// `verify` keeps going past a damaged block: whichever byte of the
    /// first block frame is flipped, that block alone is skipped, whole, and
    /// every byte of the block region is either consumed or skipped. Damage
    /// to the index skips the whole file.
    #[test]
    fn verify_accounts_for_every_byte_under_corruption() {
        let dir = tmp("verify_corrupt");
        let reader = trace_of(&dir, 1, 4);
        let seg = dir.join(SegmentWriter::segment_file_name(0));
        let pristine = fs::read(&seg).expect("read");
        let (opened, entries) = SegmentReader::open(0, seg.clone()).expect("open");
        let (blocks, region) = (entries.len() as u64, opened.blocks_end - 8);

        let clean = reader.verify().expect("verify");
        assert!(clean.errors.is_empty(), "{:?}", clean.errors);
        assert_eq!((clean.blocks, clean.consumed_bytes, clean.skipped_bytes), (blocks, region, 0));

        let first_len = FRAME_HEADER_BYTES as u64 + entries[0].payload_len;
        for at in 8..8 + first_len as usize {
            let mut bad = pristine.clone();
            bad[at] ^= 0xff;
            fs::write(&seg, &bad).expect("write");
            let v = reader.verify().expect("verify");
            assert_eq!(v.blocks, blocks - 1, "byte {at}");
            assert_eq!((v.consumed_bytes, v.skipped_bytes), (region - first_len, first_len));
            assert!(v.errors.len() == 1 && v.errors[0].contains("offset 8"), "{:?}", v.errors);
        }

        let mut bad = pristine.clone();
        bad[opened.blocks_end as usize + 10] ^= 0xff; // inside the index's entry count
        fs::write(&seg, &bad).expect("write");
        let v = reader.verify().expect("verify");
        assert_eq!((v.blocks, v.consumed_bytes), (0, 0));
        assert_eq!(v.skipped_bytes, pristine.len() as u64, "the whole file");
        assert!(v.errors.len() == 1 && v.errors[0].contains("index"), "{:?}", v.errors);
        fs::remove_dir_all(&dir).ok();
    }

    /// Replay decodes into buffers it already has: one reader allocates for
    /// its largest block and draws every other batch from what `feed` handed
    /// back — the batches a sliced query filters out as well as those it
    /// delivers.
    #[test]
    fn a_reader_allocates_for_its_largest_block_and_reuses_the_rest() {
        let dir = tmp("reuse");
        fs::create_dir_all(&dir).expect("mkdir");
        let mut w = SegmentWriter::create(&dir, 0).expect("create");
        let clock = WindowClock::new(1_000_000);
        // Batches per core per block, for cores 0 and 1; batch `b` of core
        // `c` lies on page `b << 8 | c`.
        let per_block = [2u64, 3, 1, 3];
        for (wi, &batches) in per_block.iter().enumerate() {
            let window = clock.window(wi as u64);
            for core in 0..2 {
                for b in 0..batches {
                    let page = b << 8 | core as u64;
                    let samples = (0..70).map(|i| {
                        sample(window.start_ns + i, page << 12 | i, core, 9, DataSource::L1)
                    });
                    w.append_batch(&spe_batch(core, window, samples.collect())).expect("append");
                }
            }
            w.append_close(window).expect("close");
        }
        w.finish().expect("finish");
        let (largest, total) = (2 * 3, 2 * per_block.iter().sum::<u64>());

        let path = dir.join(SegmentWriter::segment_file_name(0));
        let queries = [
            (TraceQuery::all(), total),
            (TraceQuery::all().with_cores([0]), total / 2),
            // Only each core's first batch of a block: the rest are emptied.
            (TraceQuery::all().with_vaddr(0, 0x1fff), 2 * per_block.len() as u64),
        ];
        for (query, delivered) in queries {
            let (mut reader, entries) = SegmentReader::open(0, path.clone()).expect("open");
            let mut sinks: Vec<Box<dyn AnalysisSink>> =
                vec![Box::new(crate::LatencySink::default())];
            let ctx = StreamContext::for_replay(1 << 20, 1000, 1, 4096);
            let (fan_in, mut lanes) = FanIn::start(&mut sinks[..], 1, &ctx);
            let fan_in = Mutex::named(fan_in, "trace.merger");
            let stats = feed(&mut reader, &entries, &query, &mut lanes[0], &fan_in).expect("feed");
            assert_eq!((stats.batches, stats.samples), (delivered, delivered * 70), "{query:?}");
            finish(fan_in, lanes, stats);
            let fed = reader.pool.stats();
            assert!(fed.allocated <= largest, "{query:?}: {fed:?}");
            assert_eq!(fed.reused, total - fed.allocated, "{query:?}: {fed:?}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strict_reader_surfaces_checksum_damage_as_trace_error() {
        let dir = tmp("strict_damage");
        fs::create_dir_all(&dir).expect("mkdir");
        write_segment(&dir, 0, 2);
        let path = dir.join(SegmentWriter::segment_file_name(0));
        let mut data = fs::read(&path).expect("read");
        data[8 + 4 + 4 + 2] ^= 0xff; // corrupt block 0's stored checksum
        fs::write(&path, &data).expect("write");
        let (mut reader, entries) = SegmentReader::open(0, path.clone()).expect("open");
        let err = reader.read_block(&entries[0]).expect_err("damage not detected");
        assert!(
            matches!(&err, NmoError::Trace(m) if m.contains("disagree")),
            "unexpected error: {err}"
        );
        // A segment of another format version is refused at `open`, before
        // either replay starts a sink: 3 stored counter deltas as events of
        // tag 3, which no longer decode, 4 nine loss varints after an SPE
        // batch's samples, which would be read as further events, and 5 a
        // core column after the latencies and `core + 1` in the header.
        data[8 + 4 + 4 + 2] ^= 0xff;
        for version in [2u16, 3, 4, 5] {
            data[4..6].copy_from_slice(&version.to_le_bytes());
            fs::write(&path, &data).expect("write");
            let err = SegmentReader::open(0, path.clone()).map(|_| ()).expect_err("opened");
            let want = format!("unsupported segment version {version}");
            assert!(matches!(&err, NmoError::Trace(m) if m.contains(&want)), "{err}");
        }
        let tag_3 = decode_events(&[3, 0, 0, 0, 100, 0, 1, 0], &BatchPool::new(1));
        assert!(tag_3.is_err_and(|e| e.contains("unknown event tag 3")));
        fs::remove_dir_all(&dir).ok();
    }

    /// Nothing sits between a block and the file, so the write that fails
    /// is the block's own: it poisons the shard there and then, later
    /// deliveries write nothing, and `analyze` reports it as a sink error.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_block_write_poisons_the_shard_and_fails_analyze() {
        let dir = tmp("write_fails");
        fs::create_dir_all(&dir).expect("mkdir");
        let mut writer = SegmentWriter::create(&dir, 0).expect("the header is written");
        writer.file = File::options().write(true).open("/dev/full").expect("/dev/full");
        let mut shard = Box::new(TraceShard { shard: 0, writer: Ok(writer) });
        let window = WindowClock::new(1_000_000).window(0);
        let batch = spe_batch(0, window, vec![sample(5, 0x1000, 0, 9, DataSource::L1)]);
        shard.on_batch(&batch);
        assert!(shard.writer.is_ok(), "a block is written when it is flushed");
        shard.on_window_close(window);
        let poisoned = shard.writer.as_ref().err().cloned().expect("the flush failed");
        assert!(poisoned.contains("segment 0 write failed"), "{poisoned}");
        shard.on_batch(&batch);
        assert_eq!(shard.writer.as_ref().err(), Some(&poisoned), "the first error is kept");

        let mut sink = TraceWriterSink::new(dir.clone());
        sink.merge_final(vec![shard.finish()]);
        let err =
            replay_finish(&mut [Box::new(sink)]).expect_err("the run must not report a trace");
        assert!(matches!(&err, NmoError::Sink { .. }), "{err}");
        assert!(!dir.join(MANIFEST_NAME).exists(), "no manifest for a failed recording");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_parses_and_rejects_path_escapes() {
        let text = "nmo-trace-manifest v1\nwindow_ns 250000\ncapacity_bytes 1024\nbucket_ns 7\nmem_nodes 2\npage_bytes 65536\nshards 2\nsamples 99\nsegment shard-000.seg\nsegment shard-001.seg\nend\n";
        let m = Manifest::parse(text).expect("parse");
        assert_eq!(m.window_ns, 250_000);
        assert_eq!(m.geometry.mem_nodes, 2);
        assert_eq!(m.segments.len(), 2);
        assert!(Manifest::parse("not a manifest\n").is_err());
        assert!(Manifest::parse("nmo-trace-manifest v1\nsegment ../../etc/passwd\nend\n").is_err());
        // Values a replayed sink would compute with (a page mask, per-node
        // arrays, window arithmetic) are refused here, not panicked on there.
        let manifest = |page: &str, nodes: &str, window: &str, segments: &str| {
            format!(
                "nmo-trace-manifest v1\nwindow_ns {window}\nmem_nodes {nodes}\n\
                 page_bytes {page}\nshards 1\nsamples 99\n{segments}end\n"
            )
        };
        let seg = "segment shard-000.seg\n";
        assert!(Manifest::parse(&manifest("4096", "2", "1000", seg)).is_ok());
        let too_many_nodes = (MAX_MEM_NODES + 1).to_string();
        for hostile in [
            manifest("0", "2", "1000", seg),
            manifest("4097", "2", "1000", seg),
            manifest("4096", "0", "1000", seg),
            manifest("4096", &too_many_nodes, "1000", seg),
            manifest("4096", "2", "0", seg),
            manifest("4096", "2", "1000", ""),
            manifest("4096", "2", "1000", seg).replace("shards", "shares"),
        ] {
            let parsed = Manifest::parse(&hostile);
            assert!(matches!(parsed, Err(NmoError::Trace(_))), "{hostile}: {parsed:?}");
        }
    }

    #[test]
    fn query_pruning_matches_entry_semantics() {
        let entry = IndexEntry {
            offset: 8,
            payload_len: 100,
            checksum: 0,
            meta: BlockMeta {
                first_window: 4,
                last_window: 6,
                core_mask: core_bit(2) | core_bit(66), // 2 and 66 alias mod 64
                min_vaddr: 0x1000,
                max_vaddr: 0x2000,
                samples: 10,
                events: 3,
                closes: 0,
            },
        };
        assert!(TraceQuery::all().matches_entry(&entry));
        assert!(TraceQuery::all().with_windows(6, 9).matches_entry(&entry));
        assert!(!TraceQuery::all().with_windows(7, 9).matches_entry(&entry));
        assert!(TraceQuery::all().with_cores([2]).matches_entry(&entry));
        assert!(!TraceQuery::all().with_cores([3]).matches_entry(&entry));
        // Aliased core bit keeps the block (pruning is conservative).
        assert!(TraceQuery::all().with_cores([66]).matches_entry(&entry));
        assert!(TraceQuery::all().with_vaddr(0x1800, 0x1900).matches_entry(&entry));
        assert!(!TraceQuery::all().with_vaddr(0x3000, 0x4000).matches_entry(&entry));
        // Close-carrying blocks are never pruned by core/vaddr.
        let close_entry = IndexEntry { meta: BlockMeta { closes: 1, ..entry.meta }, ..entry };
        assert!(TraceQuery::all().with_cores([3]).matches_entry(&close_entry));
    }

    /// Replay and the query share the live fan-in, so a window not every
    /// segment closed is merged at the end (ascending shard), like a live
    /// run's leftovers — it used to be dropped here. And `replay` is
    /// `replay_query(all)`: equal counters, equal reports from every
    /// built-in sink, at any shard count.
    #[test]
    fn replay_and_sliced_query_merge_incomplete_windows_at_the_end() {
        use crate::sink::testing::RecordingSink;
        use crate::tiering::{HotPageTracker, NoMigration};
        use crate::{BandwidthSink, CapacitySink, LatencySink, RegionSink};
        let ctx = StreamContext::for_replay(1 << 20, 1000, 2, 4096);
        let clock = WindowClock::new(1_000_000);
        for shards in [1usize, 2, 4] {
            let dir = tmp(&format!("leftovers_{shards}"));
            fs::remove_dir_all(&dir).ok();
            let mut writer = TraceWriterSink::new(dir.clone());
            writer.on_stream_start(&ctx);
            let mut lanes: Vec<_> = (0..shards).map(|s| writer.make_shard(s, &ctx)).collect();
            // Shard 0 closes two windows and carries the machine's RSS and
            // bandwidth ticks; every other shard closes one window.
            for (shard, lane) in lanes.iter_mut().enumerate() {
                for w in 0..if shard == 0 { 2 } else { 1 } {
                    let window = clock.window(w);
                    let samples = vec![sample(window.start_ns, 0x1000, shard, 9, DataSource::L1)];
                    lane.on_batch(&spe_batch(shard, window, samples));
                    for event in mixed_events(window) {
                        match event {
                            BusEvent::Batch(b) if shard == 0 && b.core.is_none() => {
                                lane.on_batch(&b)
                            }
                            _ => {}
                        }
                    }
                    lane.on_window_close(window);
                }
            }
            writer.merge_final(lanes.into_iter().map(|s| s.finish()).collect());
            replay_finish(&mut [Box::new(writer)]).expect("manifest written");

            let reader = TraceReader::open(&dir).expect("open");
            let all: Vec<usize> = (0..shards).collect();
            let expected = [
                "start".into(),
                format!("merge w0 {all:?}"),
                "merge w1 [0]".into(),
                format!("final {all:?}"),
            ];
            let mut outcomes = Vec::new();
            for indexed in [false, true] {
                let (sink, log) = RecordingSink::new(true);
                let mut sinks: Vec<Box<dyn AnalysisSink>> = vec![
                    Box::new(sink),
                    Box::new(LatencySink::default()),
                    Box::new(RegionSink::new()),
                    Box::new(CapacitySink::default()),
                    Box::new(BandwidthSink::default()),
                    Box::new(HotPageTracker::new(NoMigration)),
                ];
                let stats = if indexed {
                    reader.replay_query(&TraceQuery::all(), &mut sinks)
                } else {
                    reader.replay(&mut sinks)
                }
                .expect("replay");
                let complete = if shards == 1 { 2 } else { 1 };
                // One SPE batch per shard and window, plus shard 0's four ticks.
                let (samples, batches) = (shards as u64 + 1, shards as u64 + 5);
                assert_eq!(
                    (stats.samples, stats.batches, stats.windows),
                    (samples, batches, complete)
                );
                assert_eq!(*log.lock(), expected, "indexed={indexed} shards={shards}");
                let reports = replay_finish(&mut sinks).expect("reports");
                outcomes.push((stats, format!("{reports:?}")));
            }
            assert_eq!(outcomes[0], outcomes[1], "replay vs replay_query(all), {shards} shard(s)");
            fs::remove_dir_all(&dir).ok();
        }
    }

    /// A finished `shards`-segment trace at `dir` (created), each segment
    /// [`write_segment`]'s `windows` windows.
    fn trace_of(dir: &Path, shards: usize, windows: u64) -> TraceReader {
        fs::remove_dir_all(dir).ok();
        fs::create_dir_all(dir).expect("mkdir");
        let mut writer = TraceWriterSink::new(dir.to_path_buf());
        writer.summaries = (0..shards).map(|s| write_segment(dir, s, windows)).collect();
        writer.write_manifest().expect("manifest");
        TraceReader::open(dir).expect("open")
    }

    /// What `verify` reports of a three-segment trace with one damaged block
    /// in segment 0 and a damaged footer index in segment 2, to the byte:
    /// segment 0 loses that block, segment 1 is whole, segment 2 is skipped
    /// whole, and the errors come in shard order.
    #[test]
    fn verify_reports_damage_in_shard_order_to_the_byte() {
        let dir = tmp("verify_order");
        let reader = trace_of(&dir, 3, 4);
        let seg = |shard| dir.join(SegmentWriter::segment_file_name(shard));
        let damage = |shard, at: fn(usize) -> usize| {
            let mut bytes = fs::read(seg(shard)).expect("read");
            let at = at(bytes.len());
            bytes[at] ^= 0xff;
            fs::write(seg(shard), &bytes).expect("write");
        };
        // A payload byte of block 0; an entry byte of the footer index
        // (trailer 12, index checksum 8, then the last entry's last field).
        damage(0, |_| 8 + FRAME_HEADER_BYTES + 1);
        damage(2, |len| len - 12 - 8 - 1);
        let v = reader.verify().expect("verify");
        let errors: Vec<String> =
            v.errors.iter().map(|e| e.replace(&dir.display().to_string(), "<dir>")).collect();
        assert_eq!(
            errors,
            [
                "trace error: <dir>/shard-000.seg: block checksum mismatch at offset 8",
                "trace error: <dir>/shard-002.seg: index checksum mismatch",
            ]
        );
        // Each block region is 1 492 bytes, block 0 a 343-byte frame and
        // segment 2's file 2 232 bytes (since version 6, each of a segment's
        // four one-group SPE batches is a byte shorter: a core flag byte
        // more, a two-byte core column less): 7 + 8 blocks, 1 492 * 2 - 343
        // consumed, 343 + 2 232 skipped.
        assert_eq!((v.blocks, v.consumed_bytes, v.skipped_bytes), (15, 2641, 2575));
        fs::remove_dir_all(&dir).ok();
    }

    /// The footer index and the block frames vouch for each other: an index
    /// entry that verifies (the index checksum is re-sealed) but contradicts
    /// its frame's own header on length, then on checksum, fails `replay`
    /// and `replay_query` alike; so does a trailer offset no file can hold.
    #[test]
    fn index_that_contradicts_the_frames_fails_both_replays() {
        let dir = tmp("disagree");
        let reader = trace_of(&dir, 1, 2);
        let seg = dir.join(SegmentWriter::segment_file_name(0));
        let pristine = fs::read(&seg).expect("read");
        let trailer_at = pristine.len() - 12;
        let entries = get_u64(&pristine, trailer_at).expect("trailer") as usize + 8..trailer_at - 8;
        let replay_errors = |bytes: &[u8]| -> Vec<String> {
            fs::write(&seg, bytes).expect("write");
            [false, true]
                .map(|indexed| {
                    let mut sinks: Vec<Box<dyn AnalysisSink>> =
                        vec![Box::new(crate::LatencySink::default())];
                    let err = if indexed {
                        reader.replay_query(&TraceQuery::all(), &mut sinks)
                    } else {
                        reader.replay(&mut sinks)
                    }
                    .expect_err("a damaged segment must not replay");
                    assert!(matches!(err, NmoError::Trace(_)), "{err}");
                    err.to_string()
                })
                .to_vec()
        };
        for field in [1, 2] {
            let mut bytes = pristine.clone();
            bytes[entries.start + field * 8] ^= 1;
            let sum = mulrot64(&bytes[entries.clone()]);
            bytes[entries.end..trailer_at].copy_from_slice(&sum.to_le_bytes());
            for e in replay_errors(&bytes) {
                assert!(e.contains("index entry disagree"), "field {field}: {e}");
            }
        }
        let mut bytes = pristine.clone();
        bytes[trailer_at..trailer_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        for e in replay_errors(&bytes) {
            assert!(e.contains("out of bounds"), "{e}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// A sink that is not shardable is fed by the segments' workers under
    /// the live rule, by `replay` and by a window-sliced query alike: every
    /// kept batch once, each segment's batches in recorded order, and each
    /// window's close once, after every batch of that window or an earlier
    /// one. Window `w`'s two batches are all in segment `w % shards`, so a
    /// logged window names its segment.
    #[test]
    fn a_legacy_sink_is_fed_by_the_live_rule_from_every_segment_worker() {
        use crate::sink::testing::RecordingSink;
        let ctx = StreamContext::for_replay(1 << 20, 1000, 1, 4096);
        let clock = WindowClock::new(1_000_000);
        for shards in [2usize, 4] {
            let dir = tmp(&format!("legacy_{shards}"));
            fs::remove_dir_all(&dir).ok();
            let mut writer = TraceWriterSink::new(dir.clone());
            writer.on_stream_start(&ctx);
            let mut lanes: Vec<_> = (0..shards).map(|s| writer.make_shard(s, &ctx)).collect();
            for w in 0..12 {
                let window = clock.window(w);
                for seq in [2 * w, 2 * w + 1] {
                    let samples = vec![sample(window.start_ns + seq, 0x1000, 0, 9, DataSource::L1)];
                    let mut batch = spe_batch(0, window, samples);
                    batch.seq = seq;
                    lanes[w as usize % shards].on_batch(&batch);
                }
                for lane in &mut lanes {
                    lane.on_window_close(window);
                }
            }
            writer.merge_final(lanes.into_iter().map(|s| s.finish()).collect());
            replay_finish(&mut [Box::new(writer)]).expect("manifest written");

            let reader = TraceReader::open(&dir).expect("open");
            for (first, last) in [(0, 11), (3, 8)] {
                let (legacy, log) = RecordingSink::new(false);
                let mut sinks: Vec<Box<dyn AnalysisSink>> = vec![Box::new(legacy)];
                let stats = if first == 0 {
                    reader.replay(&mut sinks)
                } else {
                    reader.replay_query(&TraceQuery::all().with_windows(first, last), &mut sinks)
                }
                .expect("replay");
                let windows = last - first + 1;
                assert_eq!((stats.batches, stats.windows), (2 * windows, windows));
                let log = log.lock().clone();
                let at = |entry: &str| -> Vec<usize> {
                    (log.iter().enumerate()).filter(|(_, e)| *e == entry).map(|(i, _)| i).collect()
                };
                assert_eq!((log[0].as_str(), log.len() as u64), ("start", 1 + 3 * windows));
                let mut last_seen = vec![0; shards];
                for entry in &log[1..] {
                    let Some(w) = entry.strip_prefix("batch w") else { continue };
                    let w: u64 = w.parse().expect("a window index");
                    let previous = std::mem::replace(&mut last_seen[w as usize % shards], w);
                    assert!(previous <= w, "{shards}: segment order broken at {entry}: {log:?}");
                }
                for w in first..=last {
                    assert_eq!(at(&format!("batch w{w}")).len(), 2, "{shards}: {log:?}");
                    let close = at(&format!("close w{w}"));
                    assert_eq!(close.len(), 1, "{shards}: {log:?}");
                    for earlier in first..=w {
                        let batches = at(&format!("batch w{earlier}"));
                        assert!(batches.iter().all(|&b| b < close[0]), "{shards}: {log:?}");
                    }
                }
            }
            fs::remove_dir_all(&dir).ok();
        }
    }

    /// A shardable sink whose shard `panics_in` panics at its first batch.
    struct PanickingSink {
        panics_in: usize,
    }

    struct PanickingShard(bool);

    impl SinkShard for PanickingShard {
        fn on_batch(&mut self, _batch: &SampleBatch) {
            assert!(!self.0, "shard told to panic");
        }

        fn finish(self: Box<Self>) -> ShardState {
            Box::new(())
        }
    }

    impl AnalysisSink for PanickingSink {
        fn name(&self) -> &'static str {
            "panicking"
        }

        fn analyze(&mut self, _m: &Machine, _p: &Profile) -> Result<AnalysisReport, NmoError> {
            Ok(AnalysisReport::Text(String::new()))
        }

        fn as_shardable(&mut self) -> Option<&mut dyn ShardableSink> {
            Some(self)
        }
    }

    impl ShardableSink for PanickingSink {
        fn make_shard(&mut self, shard: usize, _ctx: &StreamContext) -> Box<dyn SinkShard> {
            Box::new(PanickingShard(shard == self.panics_in))
        }

        fn merge_final(&mut self, _states: Vec<ShardState>) {}
    }

    /// A worker that panics is an error naming its shard, never a default
    /// result: a replay fails with `NmoError::Trace`, and `verify`'s
    /// findings hold that one error in its shard's place beside the other
    /// segments' findings.
    #[test]
    fn a_panicking_worker_is_an_error_naming_its_shard() {
        let dir = tmp("panicking");
        let reader = trace_of(&dir, 3, 2);
        let mut sinks: Vec<Box<dyn AnalysisSink>> = vec![Box::new(PanickingSink { panics_in: 1 })];
        let err = reader.replay(&mut sinks).expect_err("a worker panicked");
        assert!(matches!(&err, NmoError::Trace(m) if m == "segment 1's worker panicked"), "{err}");

        let clean = reader.verify().expect("verify");
        let files = (0..3).map(|shard| {
            let path = dir.join(SegmentWriter::segment_file_name(shard));
            let (file, len) = SegmentReader::open_file(&path).expect("open");
            (shard, path, file, len)
        });
        let parts = per_segment(files, |(shard, path, file, len)| {
            assert_ne!(shard, 1, "worker told to panic");
            Ok(verify_segment(shard, path, file, len))
        });
        let v = parts.into_iter().fold(TraceVerify::default(), TraceVerify::absorb);
        assert_eq!(v.errors, ["trace error: segment 1's worker panicked"]);
        assert_eq!(
            (v.blocks * 3, v.consumed_bytes * 3),
            (clean.blocks * 2, clean.consumed_bytes * 2)
        );
        fs::remove_dir_all(&dir).ok();
    }
}
