//! The perf "file descriptor": an opened event with its mmap'd buffers.
//!
//! For ARM SPE, NMO opens one event per core (Section IV-A: "this
//! configuration process is done on a per-core basis"), mmaps a ring buffer
//! of `(N+1)` 64 KiB pages and an aux buffer whose size is controlled by the
//! `NMO_AUXBUFSIZE` environment variable, and then polls for
//! `PERF_RECORD_AUX` records. In this reproduction nothing polls and there is
//! nothing to wake: after [`PerfEvent::publish`] the SPE driver runs the
//! profiler's reader itself (its publish handler — the overflow-handler
//! analogue), on the publishing thread.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::attr::PerfEventAttr;
use crate::mmap::{AuxBuffer, MetadataPage, RingBuffer};
use crate::records::Record;
use crate::{PerfError, Result};

/// Identifier of an opened event (unique per process, like an fd number).
pub type EventId = u64;

static NEXT_ID: AtomicU64 = AtomicU64::new(3);

/// An opened perf event with its buffers.
///
/// The struct is designed to be shared (`Arc<PerfEvent>`) between the
/// producer side (the SPE driver, running on the profiled core) and the
/// consumer side (the profiler: its per-record reader runs from the
/// driver's publish handler, its drains hold the handle for `close`).
#[derive(Debug)]
pub struct PerfEvent {
    id: EventId,
    attr: PerfEventAttr,
    cpu: usize,
    meta: MetadataPage,
    ring: RingBuffer,
    aux: Option<AuxBuffer>,
    enabled: AtomicBool,
}

impl PerfEvent {
    /// Open an event on `cpu` with a ring buffer of `ring_pages` data pages.
    ///
    /// The aux buffer is mapped separately via [`PerfEvent::mmap_aux`], as in
    /// the real ABI (a second `mmap` call on the same fd).
    pub fn open(attr: PerfEventAttr, cpu: usize, ring_pages: u64, page_bytes: u64) -> Result<Self> {
        attr.validate()?;
        let ring = RingBuffer::new(ring_pages, page_bytes)?;
        Ok(PerfEvent {
            // relaxed-ok: unique-id allocator — only atomicity of the
            // counter matters, not ordering against other memory.
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            attr,
            cpu,
            meta: MetadataPage::default(),
            ring,
            aux: None,
            enabled: AtomicBool::new(!attr.disabled),
        })
    }

    /// Map an aux buffer of `aux_pages` pages onto this event.
    pub fn mmap_aux(&mut self, aux_pages: u64, page_bytes: u64) -> Result<()> {
        if !self.attr.is_spe() {
            return Err(PerfError::InvalidAttr(
                "aux buffers are only meaningful for AUX-capable PMUs (SPE)".into(),
            ));
        }
        self.aux = Some(AuxBuffer::new(aux_pages, page_bytes)?);
        Ok(())
    }

    /// The event id (fd number analogue).
    pub fn id(&self) -> EventId {
        self.id
    }

    /// The attribute block the event was opened with.
    pub fn attr(&self) -> &PerfEventAttr {
        &self.attr
    }

    /// The CPU this event is bound to.
    pub fn cpu(&self) -> usize {
        self.cpu
    }

    /// The metadata page.
    pub fn meta(&self) -> &MetadataPage {
        &self.meta
    }

    /// The data ring buffer.
    pub fn ring(&self) -> &RingBuffer {
        &self.ring
    }

    /// The aux buffer, if mapped.
    pub fn aux(&self) -> Option<&AuxBuffer> {
        self.aux.as_ref()
    }

    /// Enable the event (ioctl `PERF_EVENT_IOC_ENABLE`).
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Release);
    }

    /// Disable the event (ioctl `PERF_EVENT_IOC_DISABLE`).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Whether the event is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Effective aux watermark in bytes: the attribute value, or half the aux
    /// buffer when the attribute is 0 (kernel default).
    pub fn effective_aux_watermark(&self) -> u64 {
        let aux_capacity = self.aux.as_ref().map(|a| a.capacity()).unwrap_or(0);
        if self.attr.aux_watermark != 0 {
            self.attr.aux_watermark.min(aux_capacity.max(1))
        } else {
            (aux_capacity / 2).max(1)
        }
    }

    /// Producer side: publish a record into the ring buffer. Returns
    /// `false` when the ring was full and the record was lost.
    pub fn publish(&self, record: Record) -> bool {
        self.ring.write_record(&record, &self.meta)
    }

    /// Consumer side: read the next record from the ring buffer.
    pub fn next_record(&self) -> Result<Option<Record>> {
        self.ring.read_record(&self.meta)
    }

    /// Consumer side: drain every currently pending record as an iterator.
    ///
    /// This is the profiler's read path (run after every publish): each
    /// `next()` consumes one framed record and advances the ring tail, so a
    /// single pass empties everything published up to that point. A corrupt
    /// record stops the iteration; inspect [`RecordDrain::error`] afterwards
    /// to distinguish "empty" from "corrupt".
    pub fn drain(&self) -> RecordDrain<'_> {
        RecordDrain { event: self, error: None, drained: 0 }
    }

    /// Number of records the producer dropped because the ring buffer was
    /// full (the consumer did not keep up).
    pub fn lost_records(&self) -> u64 {
        self.ring.lost()
    }

    /// Close the event: disable it.
    pub fn close(&self) {
        self.disable();
    }

    /// Convenience constructor returning an `Arc` so both sides can share it.
    pub fn open_shared(
        attr: PerfEventAttr,
        cpu: usize,
        ring_pages: u64,
        aux_pages: u64,
        page_bytes: u64,
    ) -> Result<Arc<Self>> {
        let mut ev = Self::open(attr, cpu, ring_pages, page_bytes)?;
        if attr.is_spe() {
            ev.mmap_aux(aux_pages, page_bytes)?;
        }
        Ok(Arc::new(ev))
    }
}

/// Draining iterator over an event's pending ring-buffer records (see
/// [`PerfEvent::drain`]).
#[derive(Debug)]
pub struct RecordDrain<'a> {
    event: &'a PerfEvent,
    error: Option<PerfError>,
    drained: u64,
}

impl RecordDrain<'_> {
    /// The corrupt-record error that terminated the drain, if any.
    pub fn error(&self) -> Option<&PerfError> {
        self.error.as_ref()
    }

    /// Number of records consumed by this drain so far.
    pub fn drained(&self) -> u64 {
        self.drained
    }
}

impl Iterator for RecordDrain<'_> {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        if self.error.is_some() {
            return None;
        }
        match self.event.next_record() {
            Ok(Some(record)) => {
                self.drained += 1;
                Some(record)
            }
            Ok(None) => None,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::PerfEventAttr;
    use crate::records::{AuxRecord, Record};

    #[test]
    fn open_spe_event_with_buffers() {
        let ev = PerfEvent::open_shared(PerfEventAttr::arm_spe_loads_stores(4096), 3, 8, 16, 4096)
            .unwrap();
        assert_eq!(ev.cpu(), 3);
        assert!(ev.is_enabled());
        assert!(ev.aux().is_some());
        assert_eq!(ev.aux().unwrap().capacity(), 16 * 4096);
        assert_eq!(
            ev.effective_aux_watermark(),
            8 * 4096,
            "default watermark is half the aux buffer"
        );
    }

    #[test]
    fn aux_mmap_rejected_for_counting_events() {
        let mut ev =
            PerfEvent::open(PerfEventAttr { config: 0x13, ..Default::default() }, 0, 8, 4096)
                .unwrap();
        assert!(ev.mmap_aux(8, 4096).is_err());
    }

    #[test]
    fn publish_delivers() {
        let ev = PerfEvent::open_shared(PerfEventAttr::arm_spe_loads_stores(4096), 0, 8, 16, 4096)
            .unwrap();
        let rec = Record::Aux(AuxRecord { aux_offset: 0, aux_size: 128, flags: 0 });
        assert!(ev.publish(rec));
        assert_eq!(ev.next_record().unwrap(), Some(rec));
        assert_eq!(ev.next_record().unwrap(), None);
    }

    #[test]
    fn explicit_watermark_capped_at_capacity() {
        let attr =
            PerfEventAttr { aux_watermark: 1 << 30, ..PerfEventAttr::arm_spe_loads_stores(1000) };
        let ev = PerfEvent::open_shared(attr, 0, 8, 4, 4096).unwrap();
        assert_eq!(ev.effective_aux_watermark(), 4 * 4096);
    }

    #[test]
    fn ids_are_unique() {
        let attr = PerfEventAttr { config: 0x11, ..Default::default() };
        let a = PerfEvent::open(attr, 0, 1, 4096).unwrap();
        let b = PerfEvent::open(attr, 0, 1, 4096).unwrap();
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn drain_consumes_all_pending_records_in_order() {
        let ev = PerfEvent::open_shared(PerfEventAttr::arm_spe_loads_stores(4096), 0, 8, 16, 4096)
            .unwrap();
        for i in 0..5u64 {
            assert!(ev.publish(Record::Aux(AuxRecord {
                aux_offset: i * 64,
                aux_size: 64,
                flags: 0
            })));
        }
        let mut drain = ev.drain();
        let offsets: Vec<u64> = drain
            .by_ref()
            .map(|r| match r {
                Record::Aux(a) => a.aux_offset,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        assert_eq!(offsets, vec![0, 64, 128, 192, 256]);
        assert_eq!(drain.drained(), 5);
        assert!(drain.error().is_none());
        assert_eq!(ev.drain().count(), 0, "second drain finds nothing");
    }

    #[test]
    fn drain_across_ring_wrap_around_loses_nothing() {
        // One 128-byte page holds four 32-byte AUX records; drain between
        // bursts so the monotonic head/tail arithmetic wraps many times.
        let mut ev = PerfEvent::open(PerfEventAttr::arm_spe_loads_stores(4096), 0, 1, 128).unwrap();
        ev.mmap_aux(4, 128).unwrap();
        let mut seen = 0u64;
        for burst in 0..50u64 {
            for i in 0..4u64 {
                assert!(ev.publish(Record::Aux(AuxRecord {
                    aux_offset: (burst * 4 + i) * 64,
                    aux_size: 64,
                    flags: 0
                })));
            }
            for record in ev.drain() {
                match record {
                    Record::Aux(a) => {
                        assert_eq!(a.aux_offset, seen * 64, "records arrive in publish order");
                        seen += 1;
                    }
                    other => panic!("unexpected record {other:?}"),
                }
            }
        }
        assert_eq!(seen, 200);
        assert_eq!(ev.lost_records(), 0);
        assert_eq!(ev.ring().head(), ev.ring().tail());
        assert!(ev.ring().head() > ev.ring().capacity(), "head is monotonic past a wrap");
    }

    #[test]
    fn lost_records_counted_when_consumer_stalls() {
        let ev = PerfEvent::open(PerfEventAttr::arm_spe_loads_stores(4096), 0, 1, 128).unwrap();
        let mut accepted = 0u64;
        for i in 0..20u64 {
            if ev.publish(Record::Aux(AuxRecord { aux_offset: i * 64, aux_size: 64, flags: 0 })) {
                accepted += 1;
            }
        }
        assert!(accepted < 20);
        assert_eq!(ev.lost_records(), 20 - accepted);
        // Whatever was accepted is still fully drainable.
        assert_eq!(ev.drain().count() as u64, accepted);
        // After draining, the producer has room again and loss stops growing.
        let lost_before = ev.lost_records();
        assert!(ev.publish(Record::Aux(AuxRecord { aux_offset: 0, aux_size: 64, flags: 0 })));
        assert_eq!(ev.lost_records(), lost_before);
    }

    #[test]
    fn close_disables() {
        let ev = PerfEvent::open_shared(PerfEventAttr::arm_spe_loads_stores(4096), 0, 8, 4, 4096)
            .unwrap();
        ev.close();
        assert!(!ev.is_enabled());
    }
}
