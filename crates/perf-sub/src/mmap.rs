//! The mmap'd buffers of a perf event: metadata page, data ring buffer, and
//! aux buffer.
//!
//! Section IV-A of the paper describes the buffer mechanism NMO relies on:
//!
//! * the ring buffer is `(N+1)` pages — one `perf_event_mmap_page` metadata
//!   page followed by `N` data pages written by the kernel and read by the
//!   profiler in a producer/consumer fashion;
//! * for ARM SPE the detailed sample data (packets) lands in a separate *aux
//!   buffer*; the ring buffer only carries `PERF_RECORD_AUX` metadata records
//!   (`aux_offset`, `aux_size`, `flags`) pointing into it;
//! * `aux_watermark` controls how much new aux data accumulates before a
//!   metadata record is published (and pollers woken);
//! * the metadata page carries `time_zero`, `time_shift`, `time_mult` used to
//!   convert SPE timestamps to the perf clock.
//!
//! On the paper's testbed pages are 64 KiB, which is why buffer sizes in the
//! aux-buffer sensitivity study (Figure 9) are quoted in 64 KiB pages.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::records::Record;
use crate::{PerfError, Result};

/// Page size used for perf buffers on the paper's ARM testbed (64 KiB).
pub const PAGE_SIZE_64K: u64 = 64 * 1024;

/// The `perf_event_mmap_page` fields NMO reads.
#[derive(Debug, Default)]
pub struct MetadataPage {
    /// Offset added when converting device timestamps to perf-clock ns.
    pub time_zero: AtomicU64,
    /// Right-shift applied after multiplying by `time_mult`.
    pub time_shift: AtomicU64,
    /// Multiplier for device-timestamp conversion.
    pub time_mult: AtomicU64,
    /// Producer position in the data ring buffer (bytes, monotonic).
    pub data_head: AtomicU64,
    /// Consumer position in the data ring buffer (bytes, monotonic).
    pub data_tail: AtomicU64,
    /// Producer position in the aux buffer (bytes, monotonic).
    pub aux_head: AtomicU64,
    /// Consumer position in the aux buffer (bytes, monotonic).
    pub aux_tail: AtomicU64,
}

impl MetadataPage {
    /// Publish the clock-conversion triple (done by the "kernel" at event
    /// creation; read by NMO when decoding timestamps).
    pub fn set_clock(&self, time_zero: u64, time_shift: u16, time_mult: u32) {
        // relaxed-ok: written once at event creation, before any drainer
        // thread can hold a reference — publication happens via the
        // `Arc<PerfEvent>` handoff, not through these cells.
        self.time_zero.store(time_zero, Ordering::Relaxed);
        self.time_shift.store(time_shift as u64, Ordering::Relaxed); // relaxed-ok: as above
        self.time_mult.store(time_mult as u64, Ordering::Relaxed); // relaxed-ok: as above
    }

    /// Read the clock-conversion triple.
    pub fn clock(&self) -> (u64, u16, u32) {
        (
            // relaxed-ok: set once before the event handle is shared; see
            // `set_clock`.
            self.time_zero.load(Ordering::Relaxed),
            self.time_shift.load(Ordering::Relaxed) as u16, // relaxed-ok: as above
            self.time_mult.load(Ordering::Relaxed) as u32,  // relaxed-ok: as above
        )
    }
}

struct RingInner {
    buf: Vec<u8>,
    head: u64,
    tail: u64,
    lost: u64,
}

/// The data ring buffer: carries framed perf records (for SPE events, mostly
/// `PERF_RECORD_AUX`).
pub struct RingBuffer {
    inner: Mutex<RingInner>,
    capacity: u64,
}

impl std::fmt::Debug for RingBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingBuffer").field("capacity", &self.capacity).finish()
    }
}

impl RingBuffer {
    /// Create a ring buffer with `pages` data pages of `page_bytes` each.
    /// The page count must be a power of two (kernel requirement).
    pub fn new(pages: u64, page_bytes: u64) -> Result<Self> {
        if pages == 0 || !pages.is_power_of_two() {
            return Err(PerfError::InvalidBufferSize(format!(
                "ring buffer data pages must be a power of two, got {pages}"
            )));
        }
        let capacity = pages * page_bytes;
        Ok(RingBuffer {
            inner: Mutex::named(
                RingInner { buf: vec![0u8; capacity as usize], head: 0, tail: 0, lost: 0 },
                "perf.ring",
            ),
            capacity,
        })
    }

    /// Total data capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently unconsumed.
    pub fn unconsumed(&self) -> u64 {
        let inner = self.inner.lock();
        inner.head - inner.tail
    }

    /// Current producer position (monotonic bytes, never wraps).
    pub fn head(&self) -> u64 {
        self.inner.lock().head
    }

    /// Current consumer position (monotonic bytes, never wraps).
    pub fn tail(&self) -> u64 {
        self.inner.lock().tail
    }

    /// Number of records dropped because the buffer was full.
    pub fn lost(&self) -> u64 {
        self.inner.lock().lost
    }

    /// Producer side: append a record. Returns `false` (and counts a loss) if
    /// there is not enough free space, mirroring the kernel's behaviour of
    /// dropping records when user space does not keep up.
    pub fn write_record(&self, record: &Record, meta: &MetadataPage) -> bool {
        let bytes = record.to_bytes();
        let mut inner = self.inner.lock();
        let free = self.capacity - (inner.head - inner.tail);
        if (bytes.len() as u64) > free {
            inner.lost += 1;
            return false;
        }
        let cap = self.capacity as usize;
        let start = (inner.head % self.capacity) as usize;
        for (i, b) in bytes.iter().enumerate() {
            inner.buf[(start + i) % cap] = *b;
        }
        inner.head += bytes.len() as u64;
        meta.data_head.store(inner.head, Ordering::Release);
        true
    }

    /// Consumer side: read the next record, if any, advancing the tail.
    pub fn read_record(&self, meta: &MetadataPage) -> Result<Option<Record>> {
        let mut inner = self.inner.lock();
        if inner.head == inner.tail {
            return Ok(None);
        }
        let cap = self.capacity as usize;
        let start = (inner.tail % self.capacity) as usize;
        // Peek the 8-byte header to learn the record size.
        let mut header = [0u8; 8];
        for (i, h) in header.iter_mut().enumerate() {
            *h = inner.buf[(start + i) % cap];
        }
        let size = u16::from_le_bytes([header[6], header[7]]) as usize;
        if size < 8 || (size as u64) > inner.head - inner.tail {
            return Err(PerfError::CorruptRecord(format!(
                "record size {size} out of range (unconsumed {})",
                inner.head - inner.tail
            )));
        }
        let mut bytes = vec![0u8; size];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = inner.buf[(start + i) % cap];
        }
        let record = Record::from_bytes(&bytes)?;
        inner.tail += size as u64;
        meta.data_tail.store(inner.tail, Ordering::Release);
        Ok(Some(record))
    }
}

struct AuxInner {
    buf: Vec<u8>,
    /// Producer offset (monotonic bytes).
    head: u64,
    /// Consumer offset (monotonic bytes).
    tail: u64,
    /// Bytes dropped because the buffer was full (truncation).
    truncated_bytes: u64,
    /// Number of write attempts that hit a full buffer.
    truncation_events: u64,
}

/// The aux buffer: raw ARM SPE packet data written by the "hardware" and read
/// by the profiler at the offsets carried in `PERF_RECORD_AUX` records.
pub struct AuxBuffer {
    inner: Mutex<AuxInner>,
    capacity: u64,
    pages: u64,
}

impl std::fmt::Debug for AuxBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuxBuffer")
            .field("capacity", &self.capacity)
            .field("pages", &self.pages)
            .finish()
    }
}

impl AuxBuffer {
    /// Create an aux buffer of `pages` pages of `page_bytes` each (power of two).
    pub fn new(pages: u64, page_bytes: u64) -> Result<Self> {
        if pages == 0 || !pages.is_power_of_two() {
            return Err(PerfError::InvalidBufferSize(format!(
                "aux buffer pages must be a power of two, got {pages}"
            )));
        }
        let capacity = pages * page_bytes;
        Ok(AuxBuffer {
            inner: Mutex::named(
                AuxInner {
                    buf: vec![0u8; capacity as usize],
                    head: 0,
                    tail: 0,
                    truncated_bytes: 0,
                    truncation_events: 0,
                },
                "perf.aux",
            ),
            capacity,
            pages,
        })
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of pages.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Current producer offset (monotonic).
    pub fn head(&self) -> u64 {
        self.inner.lock().head
    }

    /// Current consumer offset (monotonic).
    pub fn tail(&self) -> u64 {
        self.inner.lock().tail
    }

    /// Bytes written but not yet consumed.
    pub fn unconsumed(&self) -> u64 {
        let inner = self.inner.lock();
        inner.head - inner.tail
    }

    /// Free space in bytes.
    pub fn free(&self) -> u64 {
        self.capacity - self.unconsumed()
    }

    /// Total bytes dropped due to a full buffer.
    pub fn truncated_bytes(&self) -> u64 {
        self.inner.lock().truncated_bytes
    }

    /// Number of writes that found the buffer full.
    pub fn truncation_events(&self) -> u64 {
        self.inner.lock().truncation_events
    }

    /// Producer side: write `data` at the head. Returns the monotonic offset
    /// at which the data begins, or `Err(())`-like `None` if there was not
    /// enough space (the data is dropped and counted as truncated, which is
    /// what SPE does when the aux buffer fills faster than it is drained).
    pub fn write(&self, data: &[u8], meta: &MetadataPage) -> Option<u64> {
        let mut inner = self.inner.lock();
        let free = self.capacity - (inner.head - inner.tail);
        if (data.len() as u64) > free {
            inner.truncated_bytes += data.len() as u64;
            inner.truncation_events += 1;
            return None;
        }
        let offset = inner.head;
        let start = (offset % self.capacity) as usize;
        // At most two runs: up to the end of the buffer, then from its start.
        let (before_wrap, wrapped) = data.split_at(data.len().min(self.capacity as usize - start));
        inner.buf[start..start + before_wrap.len()].copy_from_slice(before_wrap);
        inner.buf[..wrapped.len()].copy_from_slice(wrapped);
        inner.head += data.len() as u64;
        meta.aux_head.store(inner.head, Ordering::Release);
        Some(offset)
    }

    /// Consumer side: copy `len` bytes starting at monotonic offset `offset`.
    pub fn read_at(&self, offset: u64, len: u64) -> Vec<u8> {
        let mut out = Vec::new();
        self.read_into(offset, len, &mut out);
        out
    }

    /// Consumer side: copy `len` bytes starting at monotonic offset `offset`
    /// into `out` (cleared first). The zero-allocation read path: callers on
    /// the drain hot loop reuse one scratch buffer across reads instead of
    /// allocating per aux record.
    pub fn read_into(&self, offset: u64, len: u64, out: &mut Vec<u8>) {
        let inner = self.inner.lock();
        let cap = self.capacity as usize;
        let start = (offset % self.capacity) as usize;
        out.clear();
        out.reserve(len as usize);
        // Copy contiguous runs instead of a byte-at-a-time modulo walk.
        let mut remaining = len as usize;
        let mut pos = start;
        while remaining > 0 {
            let run = remaining.min(cap - pos);
            out.extend_from_slice(&inner.buf[pos..pos + run]);
            remaining -= run;
            pos = (pos + run) % cap;
        }
    }

    /// Consumer side: advance the tail to monotonic offset `new_tail`,
    /// releasing space for the producer.
    pub fn advance_tail(&self, new_tail: u64, meta: &MetadataPage) {
        let mut inner = self.inner.lock();
        if new_tail > inner.tail && new_tail <= inner.head {
            inner.tail = new_tail;
            meta.aux_tail.store(new_tail, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{AuxRecord, Record};

    #[test]
    fn ring_buffer_rejects_non_power_of_two() {
        assert!(RingBuffer::new(3, 4096).is_err());
        assert!(RingBuffer::new(0, 4096).is_err());
        assert!(RingBuffer::new(8, 4096).is_ok());
        assert!(AuxBuffer::new(6, 4096).is_err());
        assert!(AuxBuffer::new(16, 4096).is_ok());
    }

    #[test]
    fn ring_roundtrip_records() {
        let meta = MetadataPage::default();
        let rb = RingBuffer::new(1, 4096).unwrap();
        let rec = Record::Aux(AuxRecord { aux_offset: 128, aux_size: 640, flags: 0 });
        assert!(rb.write_record(&rec, &meta));
        assert!(rb.unconsumed() > 0);
        let back = rb.read_record(&meta).unwrap().unwrap();
        assert_eq!(back, rec);
        assert!(rb.read_record(&meta).unwrap().is_none());
        assert_eq!(meta.data_head.load(Ordering::Relaxed), meta.data_tail.load(Ordering::Relaxed));
    }

    #[test]
    fn ring_wraps_around() {
        let meta = MetadataPage::default();
        let rb = RingBuffer::new(1, 128).unwrap();
        // Each AUX record is 32 bytes; write/read many times to force wrap.
        for i in 0..100u64 {
            let rec = Record::Aux(AuxRecord { aux_offset: i * 64, aux_size: 64, flags: 0 });
            assert!(rb.write_record(&rec, &meta));
            let back = rb.read_record(&meta).unwrap().unwrap();
            assert_eq!(back, rec);
        }
        assert_eq!(rb.lost(), 0);
    }

    #[test]
    fn ring_drops_when_full() {
        let meta = MetadataPage::default();
        let rb = RingBuffer::new(1, 128).unwrap();
        let rec = Record::Aux(AuxRecord { aux_offset: 0, aux_size: 64, flags: 0 });
        let mut wrote = 0;
        for _ in 0..100 {
            if rb.write_record(&rec, &meta) {
                wrote += 1;
            }
        }
        assert!(wrote < 100);
        assert_eq!(rb.lost(), 100 - wrote);
    }

    #[test]
    fn aux_write_read_roundtrip() {
        let meta = MetadataPage::default();
        let aux = AuxBuffer::new(1, 4096).unwrap();
        let data: Vec<u8> = (0..255u8).collect();
        let off = aux.write(&data, &meta).unwrap();
        assert_eq!(off, 0);
        assert_eq!(aux.read_at(off, data.len() as u64), data);
        assert_eq!(aux.unconsumed(), 255);
        aux.advance_tail(off + data.len() as u64, &meta);
        assert_eq!(aux.unconsumed(), 0);
        assert_eq!(meta.aux_tail.load(Ordering::Relaxed), 255);
    }

    /// `read_into` reuses the caller's scratch buffer (the drain hot path's
    /// zero-allocation read) and agrees with `read_at` across a wrap.
    #[test]
    fn aux_read_into_reuses_scratch_across_wrap() {
        let meta = MetadataPage::default();
        let aux = AuxBuffer::new(1, 256).unwrap();
        let mut scratch = Vec::new();
        let mut expected_cap = 0usize;
        for round in 0..10u8 {
            let data: Vec<u8> = (0..96u8).map(|i| i.wrapping_add(round)).collect();
            let off = aux.write(&data, &meta).unwrap();
            aux.read_into(off, data.len() as u64, &mut scratch);
            assert_eq!(scratch, data);
            assert_eq!(scratch, aux.read_at(off, data.len() as u64));
            assert!(scratch.capacity() >= expected_cap, "scratch capacity never shrinks");
            expected_cap = scratch.capacity();
            aux.advance_tail(off + data.len() as u64, &meta);
        }
    }

    #[test]
    fn aux_truncates_when_full() {
        let meta = MetadataPage::default();
        let aux = AuxBuffer::new(1, 256).unwrap();
        let chunk = vec![0xabu8; 64];
        let mut accepted = 0;
        for _ in 0..10 {
            if aux.write(&chunk, &meta).is_some() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 4, "256-byte buffer fits four 64-byte records");
        assert_eq!(aux.truncation_events(), 6);
        assert_eq!(aux.truncated_bytes(), 6 * 64);
        // Draining frees space again.
        aux.advance_tail(aux.head(), &meta);
        assert!(aux.write(&chunk, &meta).is_some());
    }

    #[test]
    fn aux_wraparound_read_is_correct() {
        let meta = MetadataPage::default();
        let aux = AuxBuffer::new(1, 128).unwrap();
        // Fill and drain 96 bytes, then write 64 bytes that wrap the boundary.
        let first = vec![1u8; 96];
        let off1 = aux.write(&first, &meta).unwrap();
        aux.advance_tail(off1 + 96, &meta);
        let second: Vec<u8> = (0..64u8).collect();
        let off2 = aux.write(&second, &meta).unwrap();
        assert_eq!(off2, 96);
        assert_eq!(aux.read_at(off2, 64), second);
    }

    #[test]
    fn metadata_clock_roundtrip() {
        let meta = MetadataPage::default();
        meta.set_clock(1234, 20, 41943);
        assert_eq!(meta.clock(), (1234, 20, 41943));
    }
}
