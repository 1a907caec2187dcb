//! Perf record framing: the records NMO reads from the data ring buffer.
//!
//! For an ARM SPE event the kernel does not place samples in the ring buffer
//! directly; it places `PERF_RECORD_AUX` records whose `aux_offset` and
//! `aux_size` fields locate newly written SPE data inside the aux buffer, and
//! whose `flags` field reports truncation, partial data, and *collisions*
//! (the paper counts `PERF_AUX_FLAG_COLLISION` to quantify dropped records,
//! Section VII). `PERF_RECORD_LOST` reports dropped ring-buffer records and
//! `PERF_RECORD_ITRACE_START` marks the start of AUX tracing.
//!
//! Records are serialised in the perf byte layout: an 8-byte
//! `perf_event_header { type: u32, misc: u16, size: u16 }` followed by the
//! type-specific payload, all little-endian.

use crate::{PerfError, Result};

/// `PERF_RECORD_LOST`.
pub const PERF_RECORD_LOST: u32 = 2;
/// `PERF_RECORD_AUX`.
pub const PERF_RECORD_AUX: u32 = 11;
/// `PERF_RECORD_ITRACE_START`.
pub const PERF_RECORD_ITRACE_START: u32 = 12;

/// Aux data was truncated because the buffer was full.
pub const PERF_AUX_FLAG_TRUNCATED: u64 = 0x01;
/// Aux data is partial (snapshot mode).
pub const PERF_AUX_FLAG_PARTIAL: u64 = 0x04;
/// A sample collision occurred while the data was collected.
pub const PERF_AUX_FLAG_COLLISION: u64 = 0x08;

/// The common 8-byte record header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    /// Record type (`PERF_RECORD_*`).
    pub type_: u32,
    /// Miscellaneous flags (unused here).
    pub misc: u16,
    /// Total record size in bytes, header included.
    pub size: u16,
}

impl RecordHeader {
    /// Serialise to the 8-byte perf layout.
    pub fn to_bytes(&self) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[0..4].copy_from_slice(&self.type_.to_le_bytes());
        out[4..6].copy_from_slice(&self.misc.to_le_bytes());
        out[6..8].copy_from_slice(&self.size.to_le_bytes());
        out
    }

    /// Parse from bytes.
    pub fn from_bytes(b: &[u8]) -> Result<Self> {
        if b.len() < 8 {
            return Err(PerfError::CorruptRecord("short header".into()));
        }
        Ok(RecordHeader {
            type_: u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            misc: u16::from_le_bytes([b[4], b[5]]),
            size: u16::from_le_bytes([b[6], b[7]]),
        })
    }
}

/// `PERF_RECORD_AUX`: new data landed in the aux buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuxRecord {
    /// Monotonic byte offset of the new data within the aux buffer.
    pub aux_offset: u64,
    /// Length of the new data in bytes.
    pub aux_size: u64,
    /// `PERF_AUX_FLAG_*` bits.
    pub flags: u64,
}

impl AuxRecord {
    /// Whether the aux data was truncated.
    pub fn truncated(&self) -> bool {
        self.flags & PERF_AUX_FLAG_TRUNCATED != 0
    }

    /// Whether a sample collision was observed.
    pub fn collision(&self) -> bool {
        self.flags & PERF_AUX_FLAG_COLLISION != 0
    }
}

/// `PERF_RECORD_LOST`: the kernel dropped `lost` records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LostRecord {
    /// Event identifier.
    pub id: u64,
    /// Number of records lost.
    pub lost: u64,
}

/// `PERF_RECORD_ITRACE_START`: AUX tracing started for a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItraceStartRecord {
    /// Process id.
    pub pid: u32,
    /// Thread id.
    pub tid: u32,
}

/// Any record NMO can encounter in the data ring buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// New aux data available.
    Aux(AuxRecord),
    /// Records were lost.
    Lost(LostRecord),
    /// AUX tracing started.
    ItraceStart(ItraceStartRecord),
}

impl Record {
    /// The record's header (type + size).
    pub fn header(&self) -> RecordHeader {
        match self {
            Record::Aux(_) => RecordHeader { type_: PERF_RECORD_AUX, misc: 0, size: 32 },
            Record::Lost(_) => RecordHeader { type_: PERF_RECORD_LOST, misc: 0, size: 24 },
            Record::ItraceStart(_) => {
                RecordHeader { type_: PERF_RECORD_ITRACE_START, misc: 0, size: 16 }
            }
        }
    }

    /// Serialise into the perf byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let header = self.header();
        let mut out = Vec::with_capacity(header.size as usize);
        out.extend_from_slice(&header.to_bytes());
        match self {
            Record::Aux(a) => {
                out.extend_from_slice(&a.aux_offset.to_le_bytes());
                out.extend_from_slice(&a.aux_size.to_le_bytes());
                out.extend_from_slice(&a.flags.to_le_bytes());
            }
            Record::Lost(l) => {
                out.extend_from_slice(&l.id.to_le_bytes());
                out.extend_from_slice(&l.lost.to_le_bytes());
            }
            Record::ItraceStart(s) => {
                out.extend_from_slice(&s.pid.to_le_bytes());
                out.extend_from_slice(&s.tid.to_le_bytes());
            }
        }
        debug_assert_eq!(out.len(), header.size as usize);
        out
    }

    /// Parse a record from bytes (which must be exactly one record).
    pub fn from_bytes(b: &[u8]) -> Result<Self> {
        let header = RecordHeader::from_bytes(b)?;
        if b.len() < header.size as usize {
            return Err(PerfError::CorruptRecord("short record body".into()));
        }
        let body = &b[8..header.size as usize];
        let u64_at = |off: usize| -> Result<u64> {
            body.get(off..off + 8)
                .and_then(|s| s.try_into().ok())
                .map(u64::from_le_bytes)
                .ok_or_else(|| PerfError::CorruptRecord("short field".into()))
        };
        match header.type_ {
            PERF_RECORD_AUX => Ok(Record::Aux(AuxRecord {
                aux_offset: u64_at(0)?,
                aux_size: u64_at(8)?,
                flags: u64_at(16)?,
            })),
            PERF_RECORD_LOST => Ok(Record::Lost(LostRecord { id: u64_at(0)?, lost: u64_at(8)? })),
            PERF_RECORD_ITRACE_START => {
                if body.len() < 8 {
                    return Err(PerfError::CorruptRecord("short itrace body".into()));
                }
                Ok(Record::ItraceStart(ItraceStartRecord {
                    pid: u32::from_le_bytes([body[0], body[1], body[2], body[3]]),
                    tid: u32::from_le_bytes([body[4], body[5], body[6], body[7]]),
                }))
            }
            other => Err(PerfError::CorruptRecord(format!("unknown record type {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = RecordHeader { type_: PERF_RECORD_AUX, misc: 3, size: 32 };
        assert_eq!(RecordHeader::from_bytes(&h.to_bytes()).unwrap(), h);
        assert!(RecordHeader::from_bytes(&[0u8; 4]).is_err());
    }

    #[test]
    fn aux_record_roundtrip_and_flags() {
        let rec = Record::Aux(AuxRecord {
            aux_offset: 0xdead_beef,
            aux_size: 4096,
            flags: PERF_AUX_FLAG_TRUNCATED | PERF_AUX_FLAG_COLLISION,
        });
        let bytes = rec.to_bytes();
        assert_eq!(bytes.len(), 32);
        let back = Record::from_bytes(&bytes).unwrap();
        assert_eq!(back, rec);
        if let Record::Aux(a) = back {
            assert!(a.truncated());
            assert!(a.collision());
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn lost_and_itrace_roundtrip() {
        for rec in [
            Record::Lost(LostRecord { id: 7, lost: 199 }),
            Record::ItraceStart(ItraceStartRecord { pid: 1234, tid: 5678 }),
        ] {
            let back = Record::from_bytes(&rec.to_bytes()).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn unknown_type_rejected() {
        let mut bytes = Record::Aux(AuxRecord { aux_offset: 0, aux_size: 0, flags: 0 }).to_bytes();
        bytes[0] = 99;
        assert!(Record::from_bytes(&bytes).is_err());
    }

    #[test]
    fn flag_values_match_kernel_abi() {
        assert_eq!(PERF_AUX_FLAG_TRUNCATED, 0x01);
        assert_eq!(PERF_AUX_FLAG_PARTIAL, 0x04);
        assert_eq!(PERF_AUX_FLAG_COLLISION, 0x08);
        assert_eq!(PERF_RECORD_AUX, 11);
        assert_eq!(PERF_RECORD_LOST, 2);
    }
}
