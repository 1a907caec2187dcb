//! Property-based tests (proptest) on the core data structures and
//! invariants: SPE packet codec, perf ring/aux buffers, time conversion,
//! cache behaviour, Eq. (1) accuracy bounds, and chunk partitioning.

use proptest::prelude::*;

use nmo_repro::arch_sim::{
    AddressSpace, Cache, CacheLevelConfig, DataSource, NodeId, OpKind, PlacementPolicy, TimeConv,
};
use nmo_repro::nmo::accuracy;
use nmo_repro::perf_sub::records::{AuxRecord, LostRecord, Record};
use nmo_repro::perf_sub::{AuxBuffer, MetadataPage, PerfEvent, PerfEventAttr, RingBuffer};
use nmo_repro::spe::packet::{decode_nmo_fields, decode_records, SpeRecord, SPE_RECORD_BYTES};
use nmo_repro::workloads::chunk_range;

const PAGE: u64 = 4096;

/// Build a placed address space: one region of `pages` pages, all touched.
fn placed_space(nodes: usize, placement: PlacementPolicy, pages: usize) -> (AddressSpace, u64) {
    let mut vm = AddressSpace::with_placement(PAGE, nodes, placement);
    let region = vm.alloc("a", pages as u64 * PAGE).unwrap();
    for p in 0..pages as u64 {
        vm.place(region.start + p * PAGE).unwrap();
    }
    (vm, region.start)
}

/// The per-node RSS split must always sum to the total RSS.
fn assert_rss_consistent(vm: &AddressSpace, expect_pages: u64) {
    let (total, by_node) = (vm.rss_bytes(), vm.rss_bytes_by_node());
    assert_eq!(total, expect_pages * PAGE, "total residency");
    assert_eq!(by_node.iter().sum::<u64>(), total, "per-node split sums to total");
}

/// Build a data source from a class selector and a node id (the offline
/// proptest shim has no `prop_map`, so the mapping happens in the test body).
fn source_from(class: u8, node: u8) -> DataSource {
    match class % 5 {
        0 => DataSource::L1,
        1 => DataSource::L2,
        2 => DataSource::Slc,
        3 => DataSource::Dram(node),
        _ => DataSource::RemoteDram(node),
    }
}

fn arb_kind() -> impl Strategy<Value = OpKind> {
    prop_oneof![Just(OpKind::Load), Just(OpKind::Store)]
}

proptest! {
    #[test]
    fn spe_record_roundtrips_for_arbitrary_fields(
        pc in any::<u64>(),
        vaddr in 1u64..u64::MAX,
        ts in 1u64..u64::MAX,
        latency in 0u64..100_000,
        kind in arb_kind(),
        source_class in 0u8..5,
        node in 0u8..16,
    ) {
        let source = source_from(source_class, node);
        let rec = SpeRecord::new(pc, vaddr, ts, latency, kind, source);
        let bytes = rec.encode();
        prop_assert_eq!(bytes.len(), SPE_RECORD_BYTES);
        let back = SpeRecord::decode(&bytes).expect("decode");
        prop_assert_eq!(back, rec);
        let (va, t) = decode_nmo_fields(&bytes).expect("nmo decode");
        prop_assert_eq!(va, vaddr);
        prop_assert_eq!(t, ts);
    }

    #[test]
    fn corrupting_any_header_byte_never_panics_and_zero_fields_are_rejected(
        vaddr in 1u64..u64::MAX,
        ts in 1u64..u64::MAX,
        corrupt_at in 0usize..64,
        new_byte in any::<u8>(),
    ) {
        let rec = SpeRecord::new(0, vaddr, ts, 5, OpKind::Load, DataSource::L1);
        let mut bytes = rec.encode();
        bytes[corrupt_at] = new_byte;
        // Must never panic; may or may not decode depending on which byte
        // was hit.
        let _ = SpeRecord::decode(&bytes);
        let _ = decode_nmo_fields(&bytes);
        // Zero address / timestamp records are always rejected by the NMO decode.
        let zero = SpeRecord::new(0, 0, ts, 5, OpKind::Load, DataSource::L1);
        prop_assert!(decode_nmo_fields(&zero.encode()).is_none());
    }

    #[test]
    fn perf_records_roundtrip(offset in any::<u64>(), size in any::<u64>(), flags in 0u64..16, id in any::<u64>(), lost in any::<u64>()) {
        for rec in [
            Record::Aux(AuxRecord { aux_offset: offset, aux_size: size, flags }),
            Record::Lost(LostRecord { id, lost }),
        ] {
            let back = Record::from_bytes(&rec.to_bytes()).expect("roundtrip");
            prop_assert_eq!(back, rec);
        }
    }

    #[test]
    fn ring_buffer_fifo_order_and_no_loss_below_capacity(
        sizes in prop::collection::vec(1u64..10_000, 1..40)
    ) {
        let meta = MetadataPage::default();
        let ring = RingBuffer::new(8, 4096).unwrap();
        // Interleave writes and reads; everything written must come back in order.
        let mut expected = std::collections::VecDeque::new();
        for (i, size) in sizes.iter().enumerate() {
            let rec = Record::Aux(AuxRecord { aux_offset: i as u64 * 64, aux_size: *size, flags: 0 });
            prop_assert!(ring.write_record(&rec, &meta), "writes below capacity never fail");
            expected.push_back(rec);
            if i % 3 == 0 {
                if let Some(rec) = ring.read_record(&meta).unwrap() {
                    prop_assert_eq!(rec, expected.pop_front().unwrap());
                }
            }
        }
        while let Some(rec) = ring.read_record(&meta).unwrap() {
            prop_assert_eq!(rec, expected.pop_front().unwrap());
        }
        prop_assert!(expected.is_empty());
        prop_assert_eq!(ring.lost(), 0);
    }

    #[test]
    fn aux_buffer_head_tail_invariants_hold(
        writes in prop::collection::vec(1usize..512, 1..60),
        drain_every in 1usize..8,
    ) {
        let meta = MetadataPage::default();
        let aux = AuxBuffer::new(4, 1024).unwrap();
        for (i, len) in writes.iter().enumerate() {
            let data = vec![0xa5u8; *len];
            let _ = aux.write(&data, &meta);
            prop_assert!(aux.head() >= aux.tail());
            prop_assert!(aux.head() - aux.tail() <= aux.capacity());
            if i % drain_every == 0 {
                aux.advance_tail(aux.head(), &meta);
                prop_assert_eq!(aux.unconsumed(), 0);
            }
        }
    }

    #[test]
    fn event_drain_head_tail_and_lost_accounting(
        bursts in prop::collection::vec(1usize..12, 1..30),
    ) {
        // A deliberately tiny ring (one 256-byte page = eight 32-byte AUX
        // records) so bursts overflow it regularly; the monotonic head/tail
        // arithmetic and the lost counter must stay consistent through many
        // wrap-arounds of the drain API.
        let ev = PerfEvent::open(PerfEventAttr::arm_spe_loads_stores(4096), 0, 1, 256).unwrap();
        let mut published = 0u64;
        let mut accepted = 0u64;
        let mut consumed = 0u64;
        for burst in bursts {
            for _ in 0..burst {
                let rec = Record::Aux(AuxRecord {
                    aux_offset: accepted * 64,
                    aux_size: 64,
                    flags: 0,
                });
                if ev.publish(rec) {
                    accepted += 1;
                }
                published += 1;
                prop_assert!(ev.ring().head() >= ev.ring().tail());
                prop_assert!(ev.ring().head() - ev.ring().tail() <= ev.ring().capacity());
            }
            let mut drain = ev.drain();
            for rec in drain.by_ref() {
                // Accepted records come back in publish order, never
                // corrupted by the wrap.
                match rec {
                    Record::Aux(a) => prop_assert_eq!(a.aux_offset, consumed * 64),
                    other => prop_assert!(false, "unexpected record {:?}", other),
                }
                consumed += 1;
            }
            prop_assert!(drain.error().is_none());
            prop_assert_eq!(ev.ring().head(), ev.ring().tail());
        }
        prop_assert_eq!(consumed, accepted);
        prop_assert_eq!(ev.lost_records(), published - accepted);
    }

    #[test]
    fn aux_wraparound_reads_return_exactly_what_was_written(
        lens in prop::collection::vec(1u64..300, 1..50),
    ) {
        let meta = MetadataPage::default();
        let aux = AuxBuffer::new(1, 512).unwrap();
        let mut fill = 0u8;
        for len in lens {
            let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
            fill = fill.wrapping_add(17);
            match aux.write(&data, &meta) {
                Some(offset) => {
                    // Monotonic offsets map onto the circular storage; the
                    // read must reproduce the bytes across any wrap.
                    prop_assert_eq!(aux.read_at(offset, len), data);
                    aux.advance_tail(offset + len, &meta);
                    prop_assert_eq!(aux.unconsumed(), 0);
                }
                None => {
                    // Only oversized writes can fail here (the buffer is
                    // drained after every accepted write).
                    prop_assert!(len > aux.capacity());
                }
            }
            prop_assert!(aux.head() >= aux.tail());
            prop_assert!(aux.head() - aux.tail() <= aux.capacity());
        }
    }

    /// `AuxBuffer::write` copies in runs; a ring written one byte at a time
    /// with a modulo per byte is the reference. Any capacity, any mix of
    /// lengths and partial drains (so offsets land anywhere, wrap-around
    /// included): the unconsumed bytes read back equal the reference's, and
    /// a write that does not fit is dropped whole and counted as before.
    #[test]
    fn aux_writes_match_a_bytewise_reference_and_keep_truncation_accounting(
        pages_log2 in 0u32..3,
        page_bytes in 16u64..200,
        lens in prop::collection::vec(0usize..260, 1..80),
        drains in prop::collection::vec(any::<u8>(), 1..20),
    ) {
        let meta = MetadataPage::default();
        let aux = AuxBuffer::new(1 << pages_log2, page_bytes).unwrap();
        let cap = aux.capacity();
        let mut reference = vec![0u8; cap as usize];
        let (mut head, mut tail, mut truncated_bytes, mut truncation_events) = (0u64, 0u64, 0, 0);
        let mut fill = 0u8;
        for (len, drain) in lens.into_iter().zip(drains.iter().cycle()) {
            let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
            fill = fill.wrapping_add(29);
            let written = aux.write(&data, &meta);
            if len as u64 <= cap - (head - tail) {
                prop_assert_eq!(written, Some(head));
                for (i, byte) in data.iter().enumerate() {
                    reference[((head + i as u64) % cap) as usize] = *byte;
                }
                head += len as u64;
            } else {
                prop_assert_eq!(written, None);
                truncated_bytes += len as u64;
                truncation_events += 1;
            }
            prop_assert_eq!((aux.head(), aux.tail()), (head, tail));
            prop_assert_eq!(
                (aux.truncated_bytes(), aux.truncation_events()),
                (truncated_bytes, truncation_events)
            );
            let unconsumed: Vec<u8> =
                (tail..head).map(|offset| reference[(offset % cap) as usize]).collect();
            prop_assert_eq!(aux.read_at(tail, head - tail), unconsumed);
            // Release a random share of what is held.
            tail += (head - tail) * u64::from(*drain) / 255;
            aux.advance_tail(tail, &meta);
        }
    }

    #[test]
    fn time_conversion_via_mmap_triple_is_close_to_exact(
        cycles in 0u64..10_000_000_000,
        time_zero in 0u64..1_000_000,
    ) {
        let tc = TimeConv::altra().with_time_zero(time_zero);
        let ticks = tc.cycles_to_timer_ticks(cycles);
        let exact = tc.timer_ticks_to_ns(ticks);
        let (zero, shift, mult) = tc.perf_mmap_triple();
        let approx = TimeConv::apply_mmap_triple(ticks, zero, shift, mult);
        // Within 0.01% or 2us, whichever is larger.
        let tolerance = (exact / 10_000).max(2_000);
        prop_assert!(exact.abs_diff(approx) <= tolerance, "exact={exact} approx={approx}");
    }

    #[test]
    fn accuracy_is_always_a_valid_fraction(mem in 0u64..u64::MAX, samples in 0u64..1_000_000_000, period in 0u64..1_000_000) {
        let a = accuracy(mem, samples, period);
        prop_assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn accuracy_is_perfect_when_estimate_matches(samples in 1u64..1_000_000, period in 1u64..100_000) {
        let mem = samples * period;
        let a = accuracy(mem, samples, period);
        prop_assert!((a - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cache_probe_agrees_with_access_history(addresses in prop::collection::vec(0u64..(1<<16), 1..200)) {
        let cfg = CacheLevelConfig {
            size_bytes: 64 * 1024, // larger than the address range: no evictions
            line_bytes: 64,
            ways: 4,
            latency_cycles: 1,
            occupancy_cycles: 1,
        };
        let mut cache = Cache::new(&cfg);
        let mut touched_lines = std::collections::HashSet::new();
        for addr in &addresses {
            let was_touched = touched_lines.contains(&(addr >> 6));
            let res = cache.access(*addr, false);
            prop_assert_eq!(res.hit, was_touched, "addr {:#x}", addr);
            touched_lines.insert(addr >> 6);
        }
        for addr in &addresses {
            prop_assert!(cache.probe(*addr));
        }
    }

    #[test]
    fn interleave_spreads_pages_within_one_of_even(
        nodes in 2usize..=4,
        pages in 1usize..300,
    ) {
        let (vm, _) = placed_space(nodes, PlacementPolicy::Interleave, pages);
        let by_node = vm.rss_bytes_by_node();
        let counts: Vec<u64> = by_node[..nodes].iter().map(|b| b / PAGE).collect();
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        prop_assert!(max - min <= 1, "counts {counts:?} not within one of even");
        prop_assert_eq!(counts.iter().sum::<u64>(), pages as u64);
        assert_rss_consistent(&vm, pages as u64);
    }

    #[test]
    fn tier_split_respects_the_fraction_within_one_page(
        fraction in any::<f64>(),
        pages in 1usize..300,
    ) {
        let placement = PlacementPolicy::TierSplit { local_fraction: fraction };
        let (vm, _) = placed_space(2, placement, pages);
        let local_pages = (vm.rss_bytes_by_node()[0] / PAGE) as f64;
        let target = fraction.clamp(0.0, 1.0) * pages as f64;
        prop_assert!(
            (local_pages - target).abs() <= 1.0,
            "local {local_pages} vs target {target} (fraction {fraction}, {pages} pages)"
        );
        assert_rss_consistent(&vm, pages as u64);
    }

    #[test]
    fn rss_invariants_survive_arbitrary_migration_sequences(
        nodes in 2usize..=4,
        pages in 1usize..120,
        move_pages in prop::collection::vec(0usize..1_000, 0..60),
        move_nodes in prop::collection::vec(0u8..6, 0..60),
    ) {
        let (mut vm, start) = placed_space(nodes, PlacementPolicy::Interleave, pages);
        for (page_sel, dst) in move_pages.iter().zip(move_nodes.iter()) {
            let addr = start + (*page_sel as u64 % pages as u64) * PAGE;
            let before = vm.node_of(addr);
            match vm.migrate_page(addr, *dst) {
                Some(mig) => {
                    prop_assert!((*dst as usize) < nodes, "out-of-range target never applies");
                    prop_assert_eq!(Some(mig.from), before);
                    prop_assert_eq!(mig.to, *dst);
                    prop_assert_eq!(vm.node_of(addr), Some(*dst), "home follows the migration");
                }
                None => {
                    // Legal no-ops only: already home or invalid target.
                    prop_assert!(
                        before == Some(*dst) || *dst as usize >= nodes,
                        "unexpected no-op: page {page_sel} -> node {dst}"
                    );
                    prop_assert_eq!(vm.node_of(addr), before, "no-op changes nothing");
                }
            }
            assert_rss_consistent(&vm, pages as u64);
        }
    }

    #[test]
    fn placement_sequence_is_unaffected_by_interleaved_migrations(
        nodes in 2usize..=4,
        pages in 2usize..100,
        migrate_every in 1usize..8,
    ) {
        // First-touch placement (round-robin under Interleave) must not be
        // disturbed by migrations happening between touches.
        let mut vm = AddressSpace::with_placement(PAGE, nodes, PlacementPolicy::Interleave);
        let region = vm.alloc("a", pages as u64 * PAGE).unwrap();
        for p in 0..pages as u64 {
            let home = vm.place(region.start + p * PAGE).unwrap();
            prop_assert!(home.first_touch);
            prop_assert_eq!(home.node, (p % nodes as u64) as NodeId, "round-robin continues");
            if (p as usize).is_multiple_of(migrate_every) {
                // Shuffle an earlier page around between the touches.
                vm.migrate_page(region.start, ((p as usize + 1) % nodes) as NodeId);
            }
            let (total, by_node) = (vm.rss_bytes(), vm.rss_bytes_by_node());
            prop_assert_eq!(total, (p + 1) * PAGE);
            prop_assert_eq!(by_node.iter().sum::<u64>(), total);
        }
    }

    #[test]
    fn page_homes_an_engine_remembers_never_disagree_with_the_address_space(
        steps in prop::collection::vec(any::<u64>(), 1..600),
    ) {
        // Loads and stores over three regions (one of them not a whole number
        // of pages), migrations and frees, in any order, from the thread of
        // an engine that stays attached: whenever an access reaches a memory
        // node, it is the node the address space says the page lives on —
        // node 0 for an address it does not track.
        let machine = Machine::new(MachineConfig::small_test_tiered(PlacementPolicy::Interleave));
        let names = ["a", "b", "c"];
        let regions: Vec<_> = names
            .iter()
            .map(|name| machine.alloc(name, 12 * PAGE + 1000).unwrap())
            .collect();
        let mut engine = machine.attach(0).unwrap();
        for word in steps {
            let region = &regions[(word >> 8) as usize % 3];
            // Up to a page past the rounded end: the tail of the last page
            // and the guard page are addresses like any other.
            let vaddr = region.start + (word >> 16) % (14 * PAGE);
            match word % 32 {
                0 => {
                    engine.free(names[(word >> 8) as usize % 3]);
                }
                1..=4 => {
                    let dst = (word >> 12 & 1) as NodeId;
                    machine.migrate_page(vaddr, dst, engine.now_cycles()).unwrap();
                }
                action => {
                    let out = if action % 2 == 0 {
                        engine.load(vaddr, 8)
                    } else {
                        engine.store(vaddr, 8)
                    };
                    let home = machine.node_of(vaddr).unwrap_or(0);
                    match out.source {
                        DataSource::Dram(node) | DataSource::RemoteDram(node) => {
                            prop_assert_eq!(node, home, "{:#x} after {:?}", vaddr, out);
                        }
                        _ => prop_assert!(!out.first_touch),
                    }
                }
            }
        }
    }

    #[test]
    fn decode_records_never_panics_on_arbitrary_bytes(
        data in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let mut iter = decode_records(&data);
        let mut decoded = 0u64;
        for rec in iter.by_ref() {
            prop_assert!(rec.vaddr != 0 && rec.ticks != 0, "zero fields are always rejected");
            decoded += 1;
        }
        prop_assert_eq!(iter.decoded(), decoded);
        // Loss accounting covers every undecoded byte exactly.
        prop_assert_eq!(
            decoded * SPE_RECORD_BYTES as u64 + iter.skipped_bytes(),
            data.len() as u64
        );
        // And the record-level skip count covers every 64-byte slot plus
        // the trailing partial (if any).
        let full_slots = (data.len() / SPE_RECORD_BYTES) as u64;
        let partial = (data.len() % SPE_RECORD_BYTES != 0) as u64;
        prop_assert_eq!(decoded + iter.skipped(), full_slots + partial);
    }

    #[test]
    fn decode_records_on_corrupted_truncated_streams_accounts_exactly(
        n in 1usize..20,
        corrupt_at in prop::collection::vec(0usize..1280, 0..48),
        corrupt_with in prop::collection::vec(any::<u8>(), 0..48),
        cut in 0usize..1281,
    ) {
        // A valid stream of n records, then arbitrary byte corruption and
        // an arbitrary truncation point.
        let mut data = Vec::with_capacity(n * SPE_RECORD_BYTES);
        for i in 0..n as u64 {
            let rec = SpeRecord::new(
                0x40_0000 + i,
                0xffff_0000_0000 + (i + 1) * 64,
                1 + i * 1000,
                i % 800,
                if i % 2 == 0 { OpKind::Load } else { OpKind::Store },
                source_from((i % 5) as u8, (i % 4) as u8),
            );
            data.extend_from_slice(&rec.encode());
        }
        for (pos, byte) in corrupt_at.iter().zip(corrupt_with.iter()) {
            let at = pos % data.len();
            data[at] = *byte;
        }
        data.truncate(cut.min(data.len()));

        let mut iter = decode_records(&data);
        let decoded = iter.by_ref().count() as u64;
        prop_assert!(decoded <= n as u64, "cannot decode more records than were written");
        prop_assert_eq!(
            decoded * SPE_RECORD_BYTES as u64 + iter.skipped_bytes(),
            data.len() as u64,
            "skip/loss accounting must exactly cover the undecoded bytes"
        );
    }

    #[test]
    fn chunk_range_partitions_any_n(n in 0usize..10_000, parts in 1usize..64) {
        let mut total = 0usize;
        let mut prev_end = 0usize;
        for p in 0..parts {
            let r = chunk_range(n, parts, p);
            prop_assert!(r.start == prev_end, "ranges must be contiguous");
            prop_assert!(r.end >= r.start);
            total += r.len();
            prev_end = r.end;
        }
        prop_assert_eq!(total, n);
        prop_assert_eq!(prev_end, n);
    }
}

// ---------------------------------------------------------------------------
// Trace store (nmo::trace): codec fuzzing and shard-count round trips.
// ---------------------------------------------------------------------------

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use nmo_repro::nmo::{
    AddressSample, AnalysisReport, AnalysisSink, Annotations, BatchPayload, LatencySink, NmoError,
    SampleBatch, StreamContext, TraceQuery, TraceReader, TraceWriterSink, Window, WindowClock,
};
use nmo_repro::spe::SpeStatsSnapshot;

const TRACE_WINDOW_NS: u64 = 100_000;

/// The system allocator, remembering the largest single request any thread
/// of this test binary made — how the damaged-trace property checks that no
/// length read from a corrupt file is ever trusted with an allocation.
struct PeakAlloc;

static PEAK_ALLOC: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed atomic max.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        PEAK_ALLOC.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        PEAK_ALLOC.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `layout`/`new_size` are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// `trace.rs`'s `MAX_BLOCK_BYTES`: the most one stored block may claim.
const MAX_BLOCK_BYTES: usize = 1 << 28;

/// Unique per-process trace directories for the property runs.
fn trace_tmp(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("nmo_trace_prop_{tag}_{}_{n}", std::process::id()))
}

fn trace_ctx() -> StreamContext {
    StreamContext {
        annotations: Arc::new(Annotations::new()),
        capacity_bytes: 1 << 30,
        bucket_ns: 1000,
        mem_nodes: 2,
        page_bytes: 4096,
        machine: None,
    }
}

/// What the live sharded pipeline makes of `samples`: per window (none
/// skipped, so every window is closed) the per-core batches, cores ascending.
fn rounds_of(samples: &[AddressSample]) -> Vec<Round> {
    let clock = WindowClock::new(TRACE_WINDOW_NS);
    let mut by_window: BTreeMap<u64, BTreeMap<usize, Vec<AddressSample>>> = BTreeMap::new();
    for s in samples {
        by_window.entry(clock.index_of(s.time_ns)).or_default().entry(s.core).or_default().push(*s);
    }
    let last_window = by_window.keys().next_back().copied().unwrap_or(0);
    (0..=last_window)
        .map(|wi| {
            (clock.window(wi), by_window.remove(&wi).unwrap_or_default().into_iter().collect())
        })
        .collect()
}

/// Write `samples` to a trace at `dir` through `shards` writer shards, the
/// way the live sharded pipeline would: per-window per-core batches on the
/// core-hashed lane, closes delivered to every shard in window order.
fn write_sharded_trace(dir: &Path, shards: usize, samples: &[AddressSample]) {
    write_rounds(dir, shards, rounds_of(samples));
}

/// [`samples_on_pages`] recorded as [`write_sharded_trace`] would, then one
/// more window holding [`wide_batch`] — what the damage properties corrupt.
fn write_trace_to_damage(dir: &Path, shards: usize, pages: &[u64], shape: &[u64]) {
    let mut rounds = rounds_of(&samples_on_pages(pages));
    let window = Window { index: rounds.len() as u64, ..ALL_OF_TIME };
    rounds.push((window, vec![(5, wide_batch(shape, 5))]));
    write_rounds(dir, shards, rounds);
}

/// A window that holds every timestamp: where [`wide_batch`]'s samples lie.
const ALL_OF_TIME: Window = Window { index: 2, start_ns: 0, end_ns: u64::MAX };

/// One window's `(core, samples)` batches.
type Round = (Window, Vec<(usize, Vec<AddressSample>)>);

/// Write one round per window to a trace at `dir`: the window's `(core,
/// samples)` batches, each on the core's lane of `shards`, then the window's
/// close on every lane. A batch's samples are its core's, inside its window.
fn write_rounds(dir: &Path, shards: usize, rounds: Vec<Round>) {
    let ctx = trace_ctx();
    let mut sink = TraceWriterSink::new(dir.to_path_buf());
    sink.on_stream_start(&ctx);
    let writer = sink.as_shardable().expect("trace writer is shardable");
    let mut workers: Vec<_> = (0..shards).map(|s| writer.make_shard(s, &ctx)).collect();
    let mut seq = 0u64;
    for (window, batches) in rounds {
        for (core, samples) in batches {
            let loss = SpeStatsSnapshot::default();
            let mut batch = SampleBatch::new(
                "spe",
                Some(core),
                window,
                BatchPayload::SpeSamples { samples, loss },
            );
            batch.seq = seq;
            seq += 1;
            workers[core % shards].on_batch(&batch);
        }
        for w in workers.iter_mut() {
            w.on_window_close(window);
        }
    }
    let states = workers.into_iter().map(|w| w.finish()).collect();
    sink.as_shardable().expect("still shardable").merge_final(states);
    let mut sinks: Vec<Box<dyn AnalysisSink>> = vec![Box::new(sink)];
    nmo_repro::nmo::trace::replay_finish(&mut sinks).expect("manifest written");
}

/// Legacy (non-sharded) sink that collects every replayed sample through a
/// shared handle, so the test can inspect what a replay delivered.
struct CollectorSink {
    out: Arc<parking_lot::Mutex<Vec<AddressSample>>>,
}

impl AnalysisSink for CollectorSink {
    fn name(&self) -> &'static str {
        "collector"
    }
    fn analyze(
        &mut self,
        _machine: &nmo_repro::arch_sim::Machine,
        _profile: &nmo_repro::nmo::Profile,
    ) -> Result<AnalysisReport, NmoError> {
        Ok(AnalysisReport::Text(String::new()))
    }
    fn on_batch(&mut self, batch: &SampleBatch) {
        if let BatchPayload::SpeSamples { samples, .. } = batch.payload() {
            self.out.lock().extend_from_slice(samples);
        }
    }
}

/// One sample per entry of `pages` (1 µs apart, four cores, every data
/// source) — the stream the damage properties record before corrupting it.
fn samples_on_pages(pages: &[u64]) -> Vec<AddressSample> {
    pages
        .iter()
        .enumerate()
        .map(|(i, &p)| AddressSample {
            time_ns: i as u64 * 1000,
            vaddr: 0x2000_0000 + p * 4096,
            core: i % 4,
            is_store: i % 2 == 0,
            latency: (i % 900) as u16,
            source: source_from((i % 5) as u8, (i % 2) as u8),
        })
        .collect()
}

/// Batch sizes around the 8-sample store byte and the 64-sample group.
const GROUP_SIZES: [usize; 8] = [1, 7, 8, 9, 63, 64, 65, 129];
/// Column widths around the byte, the decoder's 8-byte word and `u64`.
const COLUMN_WIDTHS: [u32; 8] = [0, 1, 8, 55, 56, 57, 63, 64];

/// `n` values no larger than `max` that pack into a column `width` bits wide
/// (as far as `max` allows): the first is the smallest, the second the
/// largest, the rest `fill` folded in between.
fn column_of_width(n: usize, width: u32, max: u64, low: u64, fill: &[u64]) -> Vec<u64> {
    let span = u64::MAX.checked_shr(u64::BITS - width).unwrap_or(0).min(max);
    let low = low.min(max - span);
    (0..n)
        .map(|i| match i {
            0 => low,
            1 => low + span,
            _ => low + (fill[i % fill.len()] & span),
        })
        .collect()
}

/// One batch of `core`'s drawn from `shape` (at least 25 words): its size
/// one of [`GROUP_SIZES`], and each of its three stored columns — zigzag
/// time and address deltas, latency — one of [`COLUMN_WIDTHS`] wide. So
/// addresses reach 0 and `u64::MAX`, time runs backwards (inside
/// [`ALL_OF_TIME`]) and latencies span their type.
fn wide_batch(shape: &[u64], core: usize) -> Vec<AddressSample> {
    let (n, fill) = (GROUP_SIZES[shape[0] as usize % 8], &shape[9..]);
    let column = |c: usize, max: u64| {
        column_of_width(n, COLUMN_WIDTHS[shape[1 + c] as usize % 8], max, shape[5 + c], &fill[c..])
    };
    let unzigzag = |v: u64| ((v >> 1) as i64 ^ -((v & 1) as i64)) as u64;
    let (times, vaddrs) = (column(0, u64::MAX), column(1, u64::MAX));
    let latencies = column(2, u64::from(u16::MAX));
    let (mut time_ns, mut vaddr) = (0u64, 0u64);
    (0..n)
        .map(|i| {
            time_ns = time_ns.wrapping_add(unzigzag(times[i]));
            vaddr = vaddr.wrapping_add(unzigzag(vaddrs[i]));
            AddressSample {
                time_ns,
                vaddr,
                core,
                is_store: fill[i % fill.len()] % 3 == 0,
                latency: latencies[i] as u16,
                source: source_from((i % 5) as u8, (i % 16) as u8),
            }
        })
        .collect()
}

/// Canonical order for comparing sample multisets.
fn sample_sort_key(s: &AddressSample) -> (u64, u64, usize, u16, bool, u8) {
    (s.time_ns, s.vaddr, s.core, s.latency, s.is_store, s.source.encode())
}

proptest! {
    /// Window arithmetic holds over all of `u64` time: any width, any
    /// timestamp — no overflow, the window starts at or before the
    /// timestamp, contains it (the last window, clipped at `u64::MAX`,
    /// included), and carries the index `index_of` computes.
    #[test]
    fn window_clock_never_overflows_and_windows_contain_their_timestamp(
        width in any::<u64>(),
        t in any::<u64>(),
    ) {
        let clock = WindowClock::new(width);
        let w = clock.window_containing(t);
        prop_assert_eq!(w.index, clock.index_of(t));
        prop_assert!(w.start_ns <= t);
        prop_assert!(w.contains_ns(t));
    }

    /// Arbitrary sample streams written through 1, 2, and 8 writer shards
    /// replay to exactly the same sample multiset — the encode→decode round
    /// trip is lossless and shard-count-independent.
    #[test]
    fn trace_round_trips_arbitrary_streams_across_shard_counts(
        times in prop::collection::vec(0u64..1_000_000, 1..200),
        vaddr_pages in prop::collection::vec(0u64..1_000, 1..200),
        cores in prop::collection::vec(0usize..8, 1..200),
        latencies in prop::collection::vec(0u64..4096, 1..200),
        source_classes in prop::collection::vec(0u8..5, 1..200),
        nodes in prop::collection::vec(0u8..4, 1..200),
    ) {
        let n = times
            .len()
            .min(vaddr_pages.len())
            .min(cores.len())
            .min(latencies.len())
            .min(source_classes.len())
            .min(nodes.len());
        let samples: Vec<AddressSample> = (0..n)
            .map(|i| AddressSample {
                time_ns: times[i],
                vaddr: 0x1000_0000 + vaddr_pages[i] * 4096 + (i as u64 % 64) * 64,
                core: cores[i],
                is_store: i % 3 == 0,
                latency: latencies[i] as u16,
                source: source_from(source_classes[i], nodes[i]),
            })
            .collect();
        let mut expected = samples.clone();
        expected.sort_by_key(sample_sort_key);

        for shards in [1usize, 2, 8] {
            let dir = trace_tmp("rt");
            write_sharded_trace(&dir, shards, &samples);

            let reader = TraceReader::open(&dir).expect("open trace");
            prop_assert_eq!(reader.shards(), shards);
            let out = Arc::new(parking_lot::Mutex::named(Vec::new(), "test.collector"));
            let mut sinks: Vec<Box<dyn AnalysisSink>> =
                vec![Box::new(CollectorSink { out: Arc::clone(&out) })];
            let stats = reader.replay(&mut sinks).expect("replay");
            prop_assert_eq!(stats.samples, n as u64, "shards={}", shards);

            let mut got = std::mem::take(&mut *out.lock());
            got.sort_by_key(sample_sort_key);
            prop_assert_eq!(&got, &expected, "shards={}", shards);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A batch of every size around the store byte and the 64-sample group,
    /// with every column at every width around the byte, the decoder's word
    /// and `u64`, replays to exactly the samples recorded, in their order.
    #[test]
    fn trace_round_trips_every_group_size_and_column_width(
        shape in prop::collection::vec(any::<u64>(), 25..64),
    ) {
        let samples = wide_batch(&shape, usize::MAX);
        let dir = trace_tmp("widths");
        write_rounds(&dir, 1, vec![(ALL_OF_TIME, vec![(usize::MAX, samples.clone())])]);

        let out = Arc::new(parking_lot::Mutex::named(Vec::new(), "test.collector"));
        let mut sinks: Vec<Box<dyn AnalysisSink>> =
            vec![Box::new(CollectorSink { out: Arc::clone(&out) })];
        let stats = TraceReader::open(&dir).expect("open trace").replay(&mut sinks).expect("replay");
        prop_assert_eq!(stats.samples, samples.len() as u64);
        prop_assert_eq!(&*out.lock(), &samples, "shape {:?}", &shape[..9]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Arbitrary bit flips plus an arbitrary truncation anywhere in one file
    /// of a finished trace — a segment's header, block frames, footer index
    /// or trailer, or `trace.manifest` — make `TraceReader::open`, `replay`
    /// and `replay_query` fail with `NmoError::Trace` or deliver exactly what
    /// the undamaged trace delivers: never a panic, never other samples,
    /// never an allocation sized by a corrupt length. `verify` reads through
    /// the same reader, so it finds nothing where both replays are pristine
    /// and something where either fails.
    #[test]
    fn damaged_traces_fail_with_trace_errors_or_replay_unchanged(
        pages in prop::collection::vec(0u64..64, 1..100),
        shards in 1usize..=3,
        file_pick in 0usize..12,
        flip_at in prop::collection::vec(0usize..1_000_000, 0..4),
        flip_bit in prop::collection::vec(0u8..8, 0..4),
        cut_frac in 0u64..=1_500,
        shape in prop::collection::vec(any::<u64>(), 25..64),
    ) {
        let dir = trace_tmp("damaged");
        write_trace_to_damage(&dir, shards, &pages, &shape);

        // What a replay delivers, as counters plus the latency report (which
        // depends on the samples alone, not on the manifest's geometry).
        let outcome = |reader: &TraceReader, indexed: bool| {
            let mut sinks: Vec<Box<dyn AnalysisSink>> = vec![Box::new(LatencySink::default())];
            let stats = if indexed {
                reader.replay_query(&TraceQuery::all(), &mut sinks)
            } else {
                reader.replay(&mut sinks)
            }?;
            let reports = nmo_repro::nmo::trace::replay_finish(&mut sinks)?;
            Ok::<_, NmoError>(format!("{stats:?} {:?}", reports[0].report))
        };
        let reader = TraceReader::open(&dir).expect("open pristine trace");
        let pristine = [false, true].map(|indexed| outcome(&reader, indexed).expect("pristine replay"));
        prop_assert_eq!(&pristine[0], &pristine[1]);

        // Damage one file: index 0 is the manifest, the rest are segments.
        let file = match file_pick % (shards + 1) {
            0 => dir.join("trace.manifest"),
            n => dir.join(format!("shard-{:03}.seg", n - 1)),
        };
        let mut bytes = std::fs::read(&file).expect("file bytes");
        for (at, bit) in flip_at.iter().zip(&flip_bit) {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        if cut_frac < 1_000 {
            bytes.truncate((bytes.len() as u64 * cut_frac / 1_000) as usize);
        }
        std::fs::write(&file, &bytes).expect("write damaged file");

        PEAK_ALLOC.store(0, Ordering::Relaxed);
        match TraceReader::open(&dir) {
            Err(e) => prop_assert!(matches!(e, NmoError::Trace(_)), "open: {}", e),
            Ok(reader) => {
                let mut unchanged = true;
                for (indexed, pristine) in [false, true].into_iter().zip(&pristine) {
                    match outcome(&reader, indexed) {
                        Err(e) => {
                            prop_assert!(matches!(e, NmoError::Trace(_)), "replay: {}", e);
                            unchanged = false;
                        }
                        Ok(delivered) => prop_assert_eq!(&delivered, pristine, "indexed={}", indexed),
                    }
                }
                match reader.verify() {
                    Err(e) => {
                        prop_assert!(matches!(e, NmoError::Trace(_)), "verify: {}", e);
                        prop_assert!(!unchanged, "verify failed on a trace that replays");
                    }
                    Ok(v) if unchanged => {
                        prop_assert!(v.errors.is_empty(), "{:?}", v.errors);
                        prop_assert_eq!(v.skipped_bytes, 0);
                    }
                    Ok(v) => prop_assert!(!v.errors.is_empty(), "a replay failed: {:?}", v),
                }
            }
        }
        // Other tests of this binary allocate concurrently, but none this
        // much at once; a corrupt u32/u64 length taken at its word would.
        prop_assert!(PEAK_ALLOC.load(Ordering::Relaxed) <= MAX_BLOCK_BYTES);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `mulrot64`, the trace store's block and index checksum, as the module
/// docs of `nmo::trace` define it: the bytes' little-endian words round-robin
/// through four lanes of `s = rotl((s ^ word) * K, 29)`, then the length, the
/// lanes and the bytes past the last 32 folded through the same step, then
/// an xor-shift/multiply avalanche.
fn mulrot64(data: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |state: u64, word: u64| (state ^ word).wrapping_mul(K).rotate_left(29);
    let mut lanes = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    let mut strides = data.chunks_exact(32);
    for stride in &mut strides {
        for (lane, word) in lanes.iter_mut().zip(stride.chunks_exact(8)) {
            *lane = step(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
    }
    let mut h = lanes.iter().fold(data.len() as u64, |h, &lane| step(h, lane));
    for &byte in strides.remainder() {
        h = step(h, u64::from(byte));
    }
    h ^= h >> 32;
    h = h.wrapping_mul(K);
    h ^ (h >> 29)
}

fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Flip `flips` (bit positions, taken modulo the payload's bits) inside the
/// payload of the `pick`-th block holding samples of the segment `bytes`,
/// then store the payload's new checksum in the block frame, in its index
/// entry and, over the changed entries, in the index: every check before
/// the decoder passes, and only the decoder can notice the damage. False,
/// and nothing changed, if no block of the segment holds samples.
fn damage_one_payload(bytes: &mut [u8], pick: usize, flips: &[usize]) -> bool {
    const ENTRY: usize = 88;
    let trailer = bytes.len() - 12;
    let index = le_u64(bytes, trailer) as usize;
    let count = u32::from_le_bytes(bytes[index + 4..index + 8].try_into().expect("4")) as usize;
    let entries = index + 8;
    let with_samples: Vec<usize> =
        (0..count).filter(|&e| le_u64(bytes, entries + e * ENTRY + 64) > 0).collect();
    if with_samples.is_empty() {
        return false;
    }
    let entry = entries + with_samples[pick % with_samples.len()] * ENTRY;
    let (offset, len) = (le_u64(bytes, entry) as usize, le_u64(bytes, entry + 8) as usize);
    let payload = offset + 16;
    for &flip in flips {
        let bit = flip % (len * 8);
        bytes[payload + bit / 8] ^= 1 << (bit % 8);
    }
    let checksum = mulrot64(&bytes[payload..payload + len]).to_le_bytes();
    bytes[offset + 8..offset + 16].copy_from_slice(&checksum);
    bytes[entry + 16..entry + 24].copy_from_slice(&checksum);
    let index_checksum = mulrot64(&bytes[entries..entries + count * ENTRY]).to_le_bytes();
    bytes[entries + count * ENTRY..entries + count * ENTRY + 8].copy_from_slice(&index_checksum);
    true
}

proptest! {
    /// Bit flips inside one data block's payload, behind rewritten frame,
    /// index-entry and index checksums, reach the decoder and its column
    /// kernels. What a replay then delivers is decided by the payload alone:
    /// `open`, `replay`, `replay_query` and `verify` never panic and fail
    /// only with `NmoError::Trace`; both replays fail together or deliver
    /// the same report, and `verify` flags the block exactly when they
    /// fail. (A flipped bit may also leave a payload that decodes to other,
    /// valid values — a different latency or address — which no check
    /// below the checksum can tell from the recorded ones.) The payload is
    /// hashed by the same rule the reader checks, so the checks before the
    /// decoder pass: no corrupt length drives an allocation either.
    #[test]
    fn trace_payload_damage_behind_valid_checksums_is_an_error_or_a_consistent_replay(
        pages in prop::collection::vec(0u64..64, 1..100),
        shards in 1usize..=3,
        segment_pick in 0usize..3,
        block_pick in 0usize..64,
        flips in prop::collection::vec(any::<usize>(), 1..4),
        shape in prop::collection::vec(any::<u64>(), 25..64),
    ) {
        let dir = trace_tmp("payload");
        write_trace_to_damage(&dir, shards, &pages, &shape);
        let outcome = |reader: &TraceReader, indexed: bool| {
            let mut sinks: Vec<Box<dyn AnalysisSink>> = vec![Box::new(LatencySink::default())];
            let stats = if indexed {
                reader.replay_query(&TraceQuery::all(), &mut sinks)
            } else {
                reader.replay(&mut sinks)
            }?;
            let reports = nmo_repro::nmo::trace::replay_finish(&mut sinks)?;
            Ok::<_, NmoError>(format!("{stats:?} {:?}", reports[0].report))
        };

        // The first segment from the picked one on that holds samples (the
        // wide batch's always does).
        let damaged = (0..shards).map(|s| (segment_pick + s) % shards).find(|shard| {
            let file = dir.join(format!("shard-{shard:03}.seg"));
            let mut bytes = std::fs::read(&file).expect("segment bytes");
            damage_one_payload(&mut bytes, block_pick, &flips)
                && std::fs::write(&file, &bytes).is_ok()
        });
        prop_assert!(damaged.is_some(), "no segment holds samples");

        PEAK_ALLOC.store(0, Ordering::Relaxed);
        let reader = TraceReader::open(&dir).expect("the index and frames still agree");
        let [sequential, indexed] = [false, true].map(|indexed| outcome(&reader, indexed));
        for result in [&sequential, &indexed] {
            if let Err(e) = result {
                prop_assert!(matches!(e, NmoError::Trace(_)), "replay: {}", e);
            }
        }
        prop_assert_eq!(sequential.is_ok(), indexed.is_ok(), "{:?} / {:?}", sequential, indexed);
        let verified = reader.verify().expect("verify reads past a damaged block");
        match (&sequential, &indexed) {
            (Ok(sequential), Ok(indexed)) => {
                prop_assert_eq!(sequential, indexed);
                prop_assert!(verified.errors.is_empty(), "{:?}", verified.errors);
            }
            _ => prop_assert!(!verified.errors.is_empty(), "a replay failed: {:?}", verified),
        }
        prop_assert!(PEAK_ALLOC.load(Ordering::Relaxed) <= MAX_BLOCK_BYTES);
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// Latency sink (nmo::sink): the sharded fold against the reference scan.
// ---------------------------------------------------------------------------

use nmo_repro::nmo::LatencyProfile;

/// Where a batch of the latency property holds its one source with a node id
/// past the slot's 4 bits: nowhere, first, in the middle, or last.
fn wide_at(placement: u8, len: usize) -> Option<usize> {
    match placement {
        0 => None,
        1 => Some(0),
        2 => Some(len / 2),
        _ => Some(len - 1),
    }
}

proptest! {
    /// Arbitrary batches, some holding a `Dram(n)` / `RemoteDram(n)` with n
    /// ≥ 16 first, in the middle or last, and latencies 0, 1 and `u16::MAX`
    /// among the rest, fed to 1–4 `LatencySink` shards at random and merged
    /// in shard order, report exactly `LatencyProfile::from_samples` over
    /// the same samples: a node id the slot table would alias never lands on
    /// another node's histogram, and the histograms' extremes are exact.
    #[test]
    fn latency_shards_merge_to_from_samples_whatever_the_node_ids(
        lengths in prop::collection::vec(1usize..40, 1..12),
        placements in prop::collection::vec(0u8..4, 12),
        shard_picks in prop::collection::vec(0usize..4, 12),
        shards in 1usize..=4,
        classes in prop::collection::vec(0u8..5, 40),
        nodes in prop::collection::vec(any::<u8>(), 40),
        latencies in prop::collection::vec(any::<u16>(), 40),
    ) {
        let clock = WindowClock::new(TRACE_WINDOW_NS);
        let window = clock.window(0);
        let mut all = Vec::new();
        let batches: Vec<(usize, SampleBatch)> = lengths
            .iter()
            .enumerate()
            .map(|(b, &len)| {
                let wide = wide_at(placements[b], len);
                let samples: Vec<AddressSample> = (0..len)
                    .map(|i| {
                        let source = match Some(i) == wide {
                            true => source_from(3 + classes[i] % 2, nodes[i] | 0x10),
                            false => source_from(classes[i], nodes[i] & 0xf),
                        };
                        let latency = match (b + i) % 8 {
                            0 => 0,
                            3 => 1,
                            5 => u16::MAX,
                            _ => latencies[i],
                        };
                        let time_ns = (b * 40 + i) as u64;
                        AddressSample { time_ns, vaddr: 0x1000, core: b, is_store: false, latency, source }
                    })
                    .collect();
                all.extend_from_slice(&samples);
                let payload = BatchPayload::SpeSamples { samples, loss: SpeStatsSnapshot::default() };
                (shard_picks[b] % shards, SampleBatch::new("spe", Some(b), window, payload))
            })
            .collect();

        let ctx = trace_ctx();
        let mut sink = LatencySink::new();
        let shardable = sink.as_shardable().expect("LatencySink is shardable");
        let mut workers: Vec<_> = (0..shards).map(|s| shardable.make_shard(s, &ctx)).collect();
        for (shard, batch) in &batches {
            workers[*shard].on_batch(batch);
        }
        shardable.merge_final(workers.into_iter().map(|w| w.finish()).collect());
        let mut sinks: Vec<Box<dyn AnalysisSink>> = vec![Box::new(sink)];
        let records = nmo_repro::nmo::trace::replay_finish(&mut sinks).expect("report");
        match &records[0].report {
            AnalysisReport::Latency(merged) => {
                prop_assert_eq!(merged, &LatencyProfile::from_samples(&all), "{} shards", shards);
            }
            other => panic!("expected a latency report, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Event bus (nmo::stream): bulk enqueue/dequeue against the one-event forms.
// ---------------------------------------------------------------------------

use nmo_repro::nmo::stream::{BusEvent, BusIdle, BusRecv};
use nmo_repro::nmo::{BackpressurePolicy, EventBus};

/// The bus events of a scripted run: batch `i` carries `sizes[i]` samples
/// and is tagged with `seq = i`; every fourth event is followed by a
/// window-close signal (which bypasses lane capacity).
fn bus_script(sizes: &[usize]) -> Vec<BusEvent> {
    let clock = WindowClock::new(TRACE_WINDOW_NS);
    let mut events = Vec::new();
    for (i, &n) in sizes.iter().enumerate() {
        let sample = AddressSample {
            time_ns: clock.window(i as u64).start_ns,
            vaddr: 0x1000,
            core: 0,
            is_store: false,
            latency: 1,
            source: DataSource::L1,
        };
        let payload = BatchPayload::SpeSamples {
            samples: vec![sample; n],
            loss: SpeStatsSnapshot::default(),
        };
        let mut batch = SampleBatch::new("spe", Some(0), clock.window(i as u64), payload);
        batch.seq = i as u64;
        events.push(BusEvent::Batch(batch));
        if i % 4 == 3 {
            events.push(BusEvent::CloseWindow(clock.window(i as u64)));
        }
    }
    events
}

/// What identifies a delivered event: `(batch seq, samples)` or the closed
/// window's index.
fn bus_event_id(event: &BusEvent) -> Result<(u64, usize), u64> {
    match event {
        BusEvent::Batch(batch) => Ok((batch.seq, batch.len())),
        BusEvent::CloseWindow(window) => Err(window.index),
    }
}

proptest! {
    /// `publish_all`/`recv_chunk` are `publish`/`recv_timeout` taken several
    /// events at a time: on the same script of producer runs and consumer
    /// turns both deliver the same events in the same order and leave the
    /// same accounting, drops under `DropNewest` included.
    #[test]
    fn bulk_bus_transfers_match_one_event_at_a_time(
        capacity in 1usize..100,
        sizes in prop::collection::vec(0usize..20, 1..120),
        run_lens in prop::collection::vec(1usize..40, 1..20),
        consumer_turns in prop::collection::vec(any::<bool>(), 1..20),
    ) {
        let no_wait = std::time::Duration::ZERO;
        let bulk = EventBus::bounded(capacity, BackpressurePolicy::DropNewest);
        let single = EventBus::bounded(capacity, BackpressurePolicy::DropNewest);
        let (mut bulk_seen, mut single_seen) = (Vec::new(), Vec::new());
        let mut bulk_events = bus_script(&sizes).into_iter();
        let mut single_events = bus_script(&sizes).into_iter();
        for (&run, &consume) in run_lens.iter().cycle().zip(consumer_turns.iter().cycle()) {
            let events: Vec<BusEvent> = bulk_events.by_ref().take(run).collect();
            if events.is_empty() {
                break;
            }
            let accepted = bulk.publish_all(events);
            let accepted_singly =
                single_events.by_ref().take(run).map(|e| single.publish(e)).filter(|&ok| ok).count();
            prop_assert_eq!(accepted, accepted_singly);
            prop_assert_eq!(bulk.stats(), single.stats());
            if !consume {
                continue;
            }

            // One consumer turn: a chunk (part of the queue when it has
            // grown past a chunk), and as many single receives.
            let mut chunk = Vec::new();
            let taken = bulk.recv_chunk(&mut chunk, no_wait).unwrap_or(0);
            prop_assert_eq!(taken, chunk.len());
            bulk_seen.extend(chunk.iter().map(bus_event_id));
            for _ in 0..taken {
                match single.recv_timeout(no_wait) {
                    BusRecv::Event(event) => single_seen.push(bus_event_id(&event)),
                    other => panic!("the single bus holds what the bulk bus held: {other:?}"),
                }
            }
            prop_assert_eq!(bulk.stats(), single.stats());
        }
        prop_assert_eq!(bulk_seen, single_seen);
        prop_assert_eq!(bulk.stats().capacity, capacity as u64);
        prop_assert_eq!(
            bulk.recv_chunk(&mut Vec::new(), no_wait).is_err(),
            matches!(single.recv_timeout(no_wait), BusRecv::TimedOut)
        );
    }

    /// Under `Block` a consumer slower than the producer loses nothing, in
    /// either form: every event arrives, in order, and nothing is counted
    /// as dropped.
    #[test]
    fn blocking_bus_loses_nothing_to_a_slow_consumer(
        capacity in 1usize..8,
        sizes in prop::collection::vec(0usize..20, 1..80),
        run_len in 1usize..30,
        bulk in any::<bool>(),
    ) {
        let bus = EventBus::bounded(capacity, BackpressurePolicy::Block);
        let expected: Vec<_> = bus_script(&sizes).iter().map(bus_event_id).collect();
        let producer = {
            let bus = bus.clone();
            let mut events = bus_script(&sizes).into_iter();
            std::thread::spawn(move || {
                let mut accepted = 0;
                loop {
                    let run: Vec<BusEvent> = events.by_ref().take(run_len).collect();
                    if run.is_empty() {
                        break;
                    }
                    accepted += match bulk {
                        true => bus.publish_all(run),
                        false => run.into_iter().map(|e| bus.publish(e)).filter(|&ok| ok).count(),
                    };
                }
                bus.close();
                accepted
            })
        };
        let wait = std::time::Duration::from_secs(10);
        let mut seen = Vec::new();
        loop {
            // Slow: let the producer run into the full lane between turns.
            std::thread::yield_now();
            if bulk {
                let mut chunk = Vec::new();
                match bus.recv_chunk(&mut chunk, wait) {
                    Ok(_) => seen.extend(chunk.iter().map(bus_event_id)),
                    Err(BusIdle::Closed) => break,
                    Err(BusIdle::TimedOut) => panic!("producer stalled"),
                }
            } else {
                match bus.recv_timeout(wait) {
                    BusRecv::Event(event) => seen.push(bus_event_id(&event)),
                    BusRecv::Closed => break,
                    BusRecv::TimedOut => panic!("producer stalled"),
                }
            }
        }
        prop_assert_eq!(producer.join().expect("producer thread"), expected.len());
        prop_assert_eq!(seen, expected);
        let stats = bus.stats();
        prop_assert_eq!(
            (stats.published, stats.dropped_batches, stats.dropped_items, stats.capacity),
            (expected.len() as u64, 0, 0, capacity as u64)
        );
    }
}

// ---------------------------------------------------------------------------
// SPE read side (nmo::backend), the counterpart of the `AuxBuffer` write-side
// property above: the simulated drain hands aux space back in *simulated*
// time, so with a small buffer and a fast drain model a record's bytes are
// overwritten soon after it is published. Every published record must still
// be read exactly once, whoever delivers it.
// ---------------------------------------------------------------------------

use nmo_repro::arch_sim::{Machine, MachineConfig};
use nmo_repro::nmo::{NmoConfig, ProfileSession, SampleLogSink, StreamOptions};
use nmo_repro::spe::OverheadModel;

/// Profile `ops` loads of distinct addresses on each of two cores — without
/// pipeline threads (`shards: None`) or through a streaming pipeline that
/// many shards wide — and check that what was written into the aux buffers
/// is exactly what the sinks were fed and what the sample log holds.
fn assert_every_written_record_is_delivered_once(
    shards: Option<usize>,
    aux_pages: u64,
    period: u64,
    ops: u64,
    overhead: OverheadModel,
) {
    let case = format!("shards {shards:?}, {aux_pages} aux pages, period {period}, {ops} ops");
    let fed = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let session = ProfileSession::builder()
        .machine_config(MachineConfig::small_test())
        .config(NmoConfig {
            auxbuf_bytes: aux_pages * 4096,
            overhead,
            ..NmoConfig::paper_default(period)
        })
        .threads(2)
        .sink(CollectorSink { out: fed.clone() })
        .sink(SampleLogSink::new())
        .stream_options(StreamOptions {
            shards: shards.unwrap_or(0),
            backpressure: BackpressurePolicy::Block,
            ..StreamOptions::default()
        })
        .build()
        .expect("session builds");
    let body = |machine: &Machine, _: &Annotations, cores: &[usize]| {
        let region = machine.alloc("data", cores.len() as u64 * ops * 8)?;
        std::thread::scope(|s| {
            for (i, &core) in cores.iter().enumerate() {
                s.spawn(move || {
                    let mut engine = machine.attach(core).expect("core is free");
                    let base = region.start + i as u64 * ops * 8;
                    for k in 0..ops {
                        engine.load(base + k * 8, 8);
                    }
                });
            }
        });
        Ok(())
    };
    let profile = match shards {
        None => session.run_with(body),
        Some(_) => session.run_streaming_with(body),
    }
    .expect("profiled run");

    let identity = |s: &AddressSample| (s.core, s.time_ns, s.vaddr);
    let samples = profile.samples().expect("a SampleLogSink was registered");
    let distinct: std::collections::BTreeSet<_> = samples.iter().map(identity).collect();
    assert!(profile.spe.records_written > 0, "{case}");
    assert_eq!(distinct.len() as u64, profile.spe.records_written, "{case}");
    assert_eq!(samples.len() as u64, profile.spe.records_written, "{case}");
    assert_eq!(profile.processed_samples, profile.spe.records_written, "{case}");
    assert_eq!(profile.skipped_packets, 0, "{case}");

    // The sorted log cannot show feed order: the collector saw the same
    // samples, each core's in time order.
    let fed = fed.lock();
    assert_eq!(fed.iter().map(identity).collect::<std::collections::BTreeSet<_>>(), distinct);
    assert_eq!(fed.len(), samples.len(), "{case}");
    let mut newest = [0u64; 2];
    for s in fed.iter() {
        assert!(s.time_ns >= newest[s.core], "{case}: core {} went back in time", s.core);
        newest[s.core] = s.time_ns;
    }
}

/// Aux space is released ten cycles after it is published.
fn fast_drain() -> OverheadModel {
    OverheadModel {
        drain_service_latency_cycles: 10,
        drain_cycles_per_byte: 0.1,
        ..OverheadModel::default()
    }
}

/// The case that used to deliver a quarter of its samples (and three
/// quarters duplicates of later ones), then the whole grid around it.
#[test]
fn small_aux_buffers_with_a_fast_drain_deliver_every_record_exactly_once() {
    assert_every_written_record_is_delivered_once(None, 4, 2, 200_000, fast_drain());
    for shards in [None, Some(1), Some(2)] {
        for aux_pages in [4, 8, 16] {
            for period in 1..=8 {
                assert_every_written_record_is_delivered_once(
                    shards,
                    aux_pages,
                    period,
                    20_000,
                    fast_drain(),
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn aux_records_are_read_exactly_once_under_any_drain_model(
        shards in 0usize..3,
        aux_pages_log2 in 2u32..5,
        period in 1u64..9,
        ops in 500u64..6_000,
        drain_service_latency_cycles in 0u64..20_000,
        drain_centicycles_per_byte in 0u32..400,
    ) {
        let overhead = OverheadModel {
            drain_service_latency_cycles,
            drain_cycles_per_byte: f64::from(drain_centicycles_per_byte) / 100.0,
            ..OverheadModel::default()
        };
        assert_every_written_record_is_delivered_once(
            shards.checked_sub(1),
            1 << aux_pages_log2,
            period,
            ops,
            overhead,
        );
    }
}
