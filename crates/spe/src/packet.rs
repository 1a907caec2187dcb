//! SPE packet encoding and decoding.
//!
//! SPE emits each sample as a sequence of packets padded to a 64-byte aligned
//! record (paper Section IV-A). NMO decodes only two packets from each
//! record: the *virtual address* packet, whose 64-bit payload sits at byte
//! offset 31 and is prefaced by the header byte `0xb2`, and the *timestamp*
//! packet, whose payload sits at byte offset 56 prefaced by `0x71`. A record
//! is skipped if either header byte is wrong or either payload is zero —
//! which is how NMO tolerates records mangled by sample collisions.
//!
//! The encoder writes a fuller record (events, operation type, latency
//! counter, data source, PC) so richer tools can be built on top, but the
//! layout guarantees the two NMO offsets exactly.
//!
//! The data-source packet uses the [`DataSource`] encoding (modeled on the
//! Neoverse codes, with the serving memory node in the high nibble), so
//! tiered-memory tools can tell local-DDR from remote/CXL fills. The events
//! packet mirrors the hardware semantics: every level is distinguishable
//! from the events field alone — L1 hits set [`events::L1_HIT`], SLC hits
//! set [`events::SLC_HIT`], every DRAM-class fill (any node) sets
//! [`events::LLC_MISS`], and remote-node fills additionally set
//! [`events::REMOTE_ACCESS`] (the SPE `E[10]` remote-access event).

use arch_sim::{DataSource, OpKind};

/// Size of one encoded SPE record in bytes (64-byte aligned, as observed by
/// NMO on the Ampere testbed).
pub const SPE_RECORD_BYTES: usize = 64;

/// Header byte of the virtual-address packet.
pub const HDR_VADDR: u8 = 0xb2;
/// Header byte of the timestamp packet.
pub const HDR_TIMESTAMP: u8 = 0x71;
/// Header byte of the PC (instruction-address) packet.
pub const HDR_PC: u8 = 0xb0;
/// Header byte of the events packet.
pub const HDR_EVENTS: u8 = 0x52;
/// Header byte of the operation-type packet.
pub const HDR_OP_TYPE: u8 = 0x49;
/// Header byte of the latency counter packet.
pub const HDR_LATENCY: u8 = 0x99;
/// Header byte of the data-source packet.
pub const HDR_DATA_SOURCE: u8 = 0x43;

/// Byte offset of the vaddr payload within a record (per the paper).
pub const VADDR_OFFSET: usize = 31;
/// Byte offset of the timestamp payload within a record (per the paper).
pub const TIMESTAMP_OFFSET: usize = 56;

/// Events-packet bits (subset of the SPE events payload).
pub mod events {
    /// The sampled operation retired.
    pub const RETIRED: u16 = 1 << 1;
    /// The access hit in the L1 data cache.
    pub const L1_HIT: u16 = 1 << 2;
    /// The translation missed in the TLB (unused by the model, reserved).
    pub const TLB_MISS: u16 = 1 << 4;
    /// The access missed the last-level cache (served by a DRAM node —
    /// local or remote).
    pub const LLC_MISS: u16 = 1 << 5;
    /// The access hit in the shared system-level cache. Without this bit an
    /// SLC-served record would be indistinguishable from an L2 hit in the
    /// events field (neither `L1_HIT` nor `LLC_MISS`).
    pub const SLC_HIT: u16 = 1 << 6;
    /// The access crossed the socket/expander boundary (SPE `E[10]`): set
    /// for remote-node DRAM fills on tiered topologies.
    pub const REMOTE_ACCESS: u16 = 1 << 10;
}

/// A decoded SPE sample record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeRecord {
    /// Synthetic program counter of the sampled operation.
    pub pc: u64,
    /// Virtual data address of the sampled operation.
    pub vaddr: u64,
    /// Timestamp in generic-timer ticks.
    pub timestamp: u64,
    /// Total latency in cycles (saturated to 16 bits as in hardware counters).
    pub latency: u16,
    /// Whether the operation was a store (else a load/branch).
    pub is_store: bool,
    /// The memory-system source that served the access (carries the node id
    /// for DRAM-class fills).
    pub source: DataSource,
}

impl SpeRecord {
    /// Build a record from sampled-operation facts.
    pub fn new(
        pc: u64,
        vaddr: u64,
        timestamp: u64,
        latency_cycles: u64,
        kind: OpKind,
        source: DataSource,
    ) -> Self {
        SpeRecord {
            pc,
            vaddr,
            timestamp,
            latency: latency_cycles.min(u16::MAX as u64) as u16,
            is_store: kind == OpKind::Store,
            source,
        }
    }

    /// The events-packet payload implied by this record's source.
    pub fn events_payload(&self) -> u16 {
        let mut ev = events::RETIRED;
        match self.source {
            DataSource::L1 => ev |= events::L1_HIT,
            DataSource::L2 => {}
            DataSource::Slc => ev |= events::SLC_HIT,
            DataSource::Dram(_) => ev |= events::LLC_MISS,
            DataSource::RemoteDram(_) => ev |= events::LLC_MISS | events::REMOTE_ACCESS,
        }
        ev
    }

    /// Encode into the 64-byte record layout.
    pub fn encode(&self) -> [u8; SPE_RECORD_BYTES] {
        let mut out = [0u8; SPE_RECORD_BYTES];
        // Events packet: header + 2-byte payload.
        out[0] = HDR_EVENTS;
        out[1..3].copy_from_slice(&self.events_payload().to_le_bytes());
        // Operation type packet: header + 1-byte payload.
        out[3] = HDR_OP_TYPE;
        out[4] = if self.is_store { 0x01 } else { 0x00 };
        // Latency counter packet: header + 2-byte payload.
        out[5] = HDR_LATENCY;
        out[6..8].copy_from_slice(&self.latency.to_le_bytes());
        // Data source packet: header + 1-byte payload.
        out[8] = HDR_DATA_SOURCE;
        out[9] = self.source.encode();
        // PC packet: header + 8-byte payload.
        out[10] = HDR_PC;
        out[11..19].copy_from_slice(&self.pc.to_le_bytes());
        // bytes 19..30 are PAD (0x00).
        // Virtual address packet: header at 30, payload at 31..39.
        out[VADDR_OFFSET - 1] = HDR_VADDR;
        out[VADDR_OFFSET..VADDR_OFFSET + 8].copy_from_slice(&self.vaddr.to_le_bytes());
        // bytes 39..55 are PAD (0x00).
        // Timestamp packet: header at 55, payload at 56..64.
        out[TIMESTAMP_OFFSET - 1] = HDR_TIMESTAMP;
        out[TIMESTAMP_OFFSET..TIMESTAMP_OFFSET + 8].copy_from_slice(&self.timestamp.to_le_bytes());
        out
    }

    /// Decode a full record (all packets). Returns `None` for malformed data.
    #[inline]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < SPE_RECORD_BYTES {
            return None;
        }
        if bytes[0] != HDR_EVENTS
            || bytes[3] != HDR_OP_TYPE
            || bytes[5] != HDR_LATENCY
            || bytes[8] != HDR_DATA_SOURCE
            || bytes[10] != HDR_PC
        {
            return None;
        }
        let (vaddr, timestamp) = decode_nmo_fields(bytes)?;
        let latency = u16::from_le_bytes([bytes[6], bytes[7]]);
        let is_store = bytes[4] == 0x01;
        let source = DataSource::decode(bytes[9])?;
        let pc = u64::from_le_bytes(bytes[11..19].try_into().ok()?);
        Some(SpeRecord { pc, vaddr, timestamp, latency, is_store, source })
    }
}

/// The minimal decode NMO performs (paper Section IV-A): check the `0xb2` and
/// `0x71` header bytes, read the 64-bit virtual address at offset 31 and the
/// 64-bit timestamp at offset 56, and reject the record if either header is
/// wrong or either value is zero.
#[inline]
pub fn decode_nmo_fields(bytes: &[u8]) -> Option<(u64, u64)> {
    if bytes.len() < SPE_RECORD_BYTES {
        return None;
    }
    if bytes[VADDR_OFFSET - 1] != HDR_VADDR || bytes[TIMESTAMP_OFFSET - 1] != HDR_TIMESTAMP {
        return None;
    }
    let vaddr = u64::from_le_bytes(bytes[VADDR_OFFSET..VADDR_OFFSET + 8].try_into().ok()?);
    let timestamp =
        u64::from_le_bytes(bytes[TIMESTAMP_OFFSET..TIMESTAMP_OFFSET + 8].try_into().ok()?);
    if vaddr == 0 || timestamp == 0 {
        return None;
    }
    Some((vaddr, timestamp))
}

/// One record yielded by the incremental decoder: the two NMO fields plus
/// the opportunistic full decode for the richer packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedRecord {
    /// Sampled virtual data address (vaddr packet, offset 31).
    pub vaddr: u64,
    /// Timestamp in generic-timer ticks (timestamp packet, offset 56).
    pub ticks: u64,
    /// The full record, when every packet decoded cleanly. The NMO fields
    /// above are valid even when this is `None` (e.g. a record whose
    /// data-source packet was mangled by a collision).
    pub full: Option<SpeRecord>,
}

/// Incremental decoder over a drained aux-buffer chunk.
///
/// The profiler reads aux data in arbitrary-size chunks (one per
/// `PERF_RECORD_AUX`); this iterator walks the chunk in 64-byte steps,
/// yielding every record whose NMO fields validate and counting the rest in
/// [`SpeRecordIter::skipped`] — the decode loss a profiler adds up over its
/// run. A trailing partial record (fewer than 64 bytes) is also counted as
/// skipped.
#[derive(Debug)]
pub struct SpeRecordIter<'a> {
    data: &'a [u8],
    pos: usize,
    skipped: u64,
    skipped_bytes: u64,
    decoded: u64,
}

impl SpeRecordIter<'_> {
    /// Records rejected so far (bad headers, zero fields, trailing partial).
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Bytes covered by the rejections so far: 64 per skipped record plus
    /// the exact length of a trailing partial record. Together with the
    /// decoded records this accounts for every consumed byte:
    /// `decoded() * 64 + skipped_bytes()` equals the number of bytes walked
    /// — the loss-accounting invariant the fuzz tests pin.
    pub fn skipped_bytes(&self) -> u64 {
        self.skipped_bytes
    }

    /// Records successfully decoded so far.
    pub fn decoded(&self) -> u64 {
        self.decoded
    }

    /// Upper bound on the number of records remaining in the chunk.
    pub fn remaining_capacity(&self) -> usize {
        (self.data.len() - self.pos) / SPE_RECORD_BYTES
    }
}

impl Iterator for SpeRecordIter<'_> {
    type Item = DecodedRecord;

    #[inline]
    fn next(&mut self) -> Option<DecodedRecord> {
        while self.pos + SPE_RECORD_BYTES <= self.data.len() {
            let chunk = &self.data[self.pos..self.pos + SPE_RECORD_BYTES];
            self.pos += SPE_RECORD_BYTES;
            match decode_nmo_fields(chunk) {
                Some((vaddr, ticks)) => {
                    self.decoded += 1;
                    return Some(DecodedRecord { vaddr, ticks, full: SpeRecord::decode(chunk) });
                }
                None => {
                    self.skipped += 1;
                    self.skipped_bytes += SPE_RECORD_BYTES as u64;
                }
            }
        }
        if self.pos < self.data.len() {
            // Trailing partial record: count once, then stop for good.
            self.skipped += 1;
            self.skipped_bytes += (self.data.len() - self.pos) as u64;
            self.pos = self.data.len();
        }
        None
    }
}

/// Decode a drained aux chunk incrementally (see [`SpeRecordIter`]).
#[inline]
pub fn decode_records(data: &[u8]) -> SpeRecordIter<'_> {
    SpeRecordIter { data, pos: 0, skipped: 0, skipped_bytes: 0, decoded: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every data source the machine model can produce, across node ids.
    fn all_sources() -> Vec<DataSource> {
        let mut sources = vec![DataSource::L1, DataSource::L2, DataSource::Slc];
        for n in 0..4u8 {
            sources.push(DataSource::Dram(n));
            sources.push(DataSource::RemoteDram(n));
        }
        sources
    }

    fn sample() -> SpeRecord {
        SpeRecord::new(
            0x40_1000,
            0xffff_0000_1234,
            987_654,
            333,
            OpKind::Store,
            DataSource::Dram(0),
        )
    }

    #[test]
    fn encode_decode_roundtrip() {
        let rec = sample();
        let bytes = rec.encode();
        assert_eq!(bytes.len(), SPE_RECORD_BYTES);
        assert_eq!(SpeRecord::decode(&bytes), Some(rec));
    }

    #[test]
    fn encode_decode_roundtrip_over_all_sources() {
        for source in all_sources() {
            for kind in [OpKind::Load, OpKind::Store] {
                let rec = SpeRecord::new(0x40_2000, 0xffff_0000_4000, 55_555, 123, kind, source);
                let back = SpeRecord::decode(&rec.encode()).expect("decodes");
                assert_eq!(back, rec, "{source:?} {kind:?}");
                assert_eq!(back.source, source);
            }
        }
    }

    #[test]
    fn events_distinguish_every_level() {
        let ev_of = |source| {
            let rec = SpeRecord::new(1, 2, 3, 10, OpKind::Load, source);
            let bytes = rec.encode();
            u16::from_le_bytes([bytes[1], bytes[2]])
        };

        let l1 = ev_of(DataSource::L1);
        assert_ne!(l1 & events::L1_HIT, 0);
        assert_eq!(l1 & (events::LLC_MISS | events::SLC_HIT), 0);

        let l2 = ev_of(DataSource::L2);
        assert_eq!(l2 & (events::L1_HIT | events::SLC_HIT | events::LLC_MISS), 0);

        // SLC-served records carry their own bit: without it they would be
        // indistinguishable from L2 hits in the events field.
        let slc = ev_of(DataSource::Slc);
        assert_ne!(slc & events::SLC_HIT, 0);
        assert_eq!(slc & (events::L1_HIT | events::LLC_MISS), 0);
        assert_ne!(slc, l2, "SLC and L2 must differ in the events field");

        // Every DRAM-class source sets LLC_MISS, not just node 0.
        for source in [
            DataSource::Dram(0),
            DataSource::Dram(2),
            DataSource::RemoteDram(0),
            DataSource::RemoteDram(3),
        ] {
            let ev = ev_of(source);
            assert_ne!(ev & events::LLC_MISS, 0, "{source:?} must flag LLC_MISS");
            assert_eq!(ev & (events::L1_HIT | events::SLC_HIT), 0, "{source:?}");
            assert_eq!(
                ev & events::REMOTE_ACCESS != 0,
                source.is_remote(),
                "{source:?} remote-access bit"
            );
        }

        // All retired.
        for source in all_sources() {
            assert_ne!(ev_of(source) & events::RETIRED, 0);
        }
    }

    #[test]
    fn nmo_offsets_match_paper() {
        let rec = sample();
        let bytes = rec.encode();
        // Header bytes just before the payloads, exactly as the paper states.
        assert_eq!(bytes[30], 0xb2);
        assert_eq!(bytes[55], 0x71);
        let (vaddr, ts) = decode_nmo_fields(&bytes).unwrap();
        assert_eq!(vaddr, 0xffff_0000_1234);
        assert_eq!(ts, 987_654);
    }

    #[test]
    fn corrupted_header_is_skipped() {
        let rec = sample();
        let mut bytes = rec.encode();
        bytes[30] = 0x00;
        assert!(decode_nmo_fields(&bytes).is_none());
        assert!(SpeRecord::decode(&bytes).is_none());

        let mut bytes2 = rec.encode();
        bytes2[55] = 0xff;
        assert!(decode_nmo_fields(&bytes2).is_none());
    }

    #[test]
    fn invalid_data_source_code_rejected() {
        let mut bytes = sample().encode();
        bytes[9] = 0x3; // not a defined source code
        assert!(SpeRecord::decode(&bytes).is_none());
        // The NMO fields still decode: the data-source packet is one of the
        // "richer" packets NMO itself does not depend on.
        assert!(decode_nmo_fields(&bytes).is_some());
    }

    #[test]
    fn zero_vaddr_or_timestamp_rejected() {
        let mut rec = sample();
        rec.vaddr = 0;
        assert!(decode_nmo_fields(&rec.encode()).is_none());
        let mut rec = sample();
        rec.timestamp = 0;
        assert!(decode_nmo_fields(&rec.encode()).is_none());
    }

    #[test]
    fn latency_saturates() {
        let rec = SpeRecord::new(0, 1, 1, 1 << 40, OpKind::Load, DataSource::L2);
        assert_eq!(rec.latency, u16::MAX);
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(SpeRecord::decode(&[0u8; 10]).is_none());
        assert!(decode_nmo_fields(&[0u8; 63]).is_none());
    }

    #[test]
    fn incremental_decoder_yields_valid_records_and_counts_skips() {
        let good = sample();
        let mut corrupt = sample().encode();
        corrupt[30] = 0x00; // break the vaddr header
        let mut data = Vec::new();
        data.extend_from_slice(&good.encode());
        data.extend_from_slice(&corrupt);
        data.extend_from_slice(&good.encode());
        data.extend_from_slice(&[0xabu8; 17]); // trailing partial record

        let mut iter = decode_records(&data);
        assert_eq!(iter.remaining_capacity(), 3);
        let first = iter.next().unwrap();
        assert_eq!(first.vaddr, good.vaddr);
        assert_eq!(first.ticks, good.timestamp);
        assert_eq!(first.full, Some(good));
        let second = iter.next().unwrap();
        assert_eq!(second.vaddr, good.vaddr);
        assert!(iter.next().is_none());
        assert_eq!(iter.skipped(), 2, "one corrupt record and one trailing partial");
        assert_eq!(iter.decoded(), 2);
        assert_eq!(iter.skipped_bytes(), 64 + 17, "one full skip plus the 17-byte tail");
        assert_eq!(
            iter.decoded() * SPE_RECORD_BYTES as u64 + iter.skipped_bytes(),
            data.len() as u64,
            "accounting covers every byte"
        );
        assert!(iter.next().is_none(), "exhausted iterator stays exhausted");
        assert_eq!(iter.skipped(), 2, "skip count does not grow after exhaustion");
        assert_eq!(iter.skipped_bytes(), 64 + 17, "byte count does not grow after exhaustion");
    }

    #[test]
    fn incremental_decoder_on_empty_chunk() {
        let mut iter = decode_records(&[]);
        assert!(iter.next().is_none());
        assert_eq!(iter.skipped(), 0);
    }

    #[test]
    fn incremental_decoder_nmo_fields_survive_rich_packet_corruption() {
        // Mangle only the data-source packet: NMO's two fields still decode,
        // the full decode does not.
        let mut bytes = sample().encode();
        bytes[8] = 0x00;
        let rec = decode_records(&bytes).next().unwrap();
        assert_eq!(rec.vaddr, sample().vaddr);
        assert!(rec.full.is_none());
    }

    #[test]
    fn load_sources_encoded() {
        for source in all_sources() {
            let rec = SpeRecord::new(1, 2, 3, 10, OpKind::Load, source);
            let back = SpeRecord::decode(&rec.encode()).unwrap();
            assert_eq!(back.source, source);
            assert!(!back.is_store);
        }
    }
}
