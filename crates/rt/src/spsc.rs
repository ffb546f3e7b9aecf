//! A real (not simulated) lock-free single-producer single-consumer
//! ring buffer.
//!
//! This is the data structure that connects pinned worker threads in a
//! DPDK-style pipeline. The online tracer does not use it: its
//! `Intake` (`fluctrace-core::online`) streams batches over the bounded
//! channel of the `crossbeam` shim, and the benchmark's hand-off leg
//! times this ring against that channel.
//!
//! The implementation is the classic bounded ring with monotonically
//! increasing head/tail counters and acquire/release synchronization:
//! the producer publishes a slot with a `Release` store to `tail`, the
//! consumer observes it with an `Acquire` load, and vice versa for
//! freeing slots — the pattern described in *Rust Atomics and Locks*
//! (Bos, 2023). Head/tail are padded to separate cache lines to avoid
//! false sharing between the two threads.

use crate::wait::{self, WaitCause, WaitEdge};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pad to a cache line to prevent producer/consumer false sharing.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Ring<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    capacity: usize,
    /// Next slot the consumer will read. Monotonic; slot = head % capacity.
    head: CachePadded<AtomicUsize>,
    /// Next slot the producer will write. Monotonic.
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: the ring hands out exactly one producer and one consumer; each
// slot is accessed mutably by at most one side at a time, handed over via
// the Release/Acquire pairs on `head`/`tail`.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

/// Wait-edge bookkeeping for one ring handle.
///
/// The ring is real-threaded and has no sim clock, so edges use a
/// *logical* clock: the handle's operation-attempt counter. A stall
/// run (consecutive failed attempts) opens one edge at the first
/// failure and closes it on the next success — or on handle drop, so
/// a producer/consumer that dies (or panics) mid-stall never leaves a
/// dangling open edge in the graph.
#[derive(Debug)]
struct WaitSite {
    /// Core label stamped on this handle's edges.
    core: u32,
    /// Peer core the handle depends on (the other half of the ring).
    peer: u32,
    /// Logical clock: total push/pop attempts on this handle.
    attempts: u64,
    /// Attempt index at which the current stall run began.
    stalled_since: Option<u64>,
}

impl WaitSite {
    fn new() -> Self {
        WaitSite {
            core: 0,
            peer: 0,
            attempts: 0,
            stalled_since: None,
        }
    }

    /// A failed attempt: open a stall run if none is open.
    fn stall(&mut self) {
        let now = self.attempts;
        self.attempts += 1;
        if self.stalled_since.is_none() {
            self.stalled_since = Some(now);
        }
    }

    /// A successful attempt: close any open stall run as `cause`.
    fn progress(&mut self, cause: WaitCause) {
        let now = self.attempts;
        self.attempts += 1;
        self.close(cause, now);
    }

    fn close(&mut self, cause: WaitCause, now: u64) {
        if let Some(begin) = self.stalled_since.take() {
            wait::record_global(WaitEdge {
                core: self.core,
                tsc: begin,
                cycles: now.saturating_sub(begin),
                cause,
                peer: self.peer,
            });
        }
    }
}

/// The producing half of an SPSC ring. `!Clone`: single producer.
pub struct RingProducer<T> {
    ring: Arc<Ring<T>>,
    /// Cached head to avoid an atomic load on every push.
    cached_head: usize,
    /// Wait-edge bookkeeping (ring-full stalls).
    site: WaitSite,
}

/// The consuming half of an SPSC ring. `!Clone`: single consumer.
pub struct RingConsumer<T> {
    ring: Arc<Ring<T>>,
    /// Cached tail to avoid an atomic load on every pop.
    cached_tail: usize,
    /// Wait-edge bookkeeping (ring-empty polls).
    site: WaitSite,
}

/// Create a ring with space for `capacity` items.
pub fn spsc_ring<T>(capacity: usize) -> (RingProducer<T>, RingConsumer<T>) {
    assert!(capacity > 0, "zero-capacity ring");
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let ring = Arc::new(Ring {
        buf,
        capacity,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
    });
    (
        RingProducer {
            ring: Arc::clone(&ring),
            cached_head: 0,
            site: WaitSite::new(),
        },
        RingConsumer {
            ring,
            cached_tail: 0,
            site: WaitSite::new(),
        },
    )
}

impl<T> RingProducer<T> {
    /// Attempt to push; returns `Err(value)` when the ring is full.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let ring = &*self.ring;
        let tail = ring.tail.0.load(Ordering::Relaxed);
        if tail - self.cached_head == ring.capacity {
            // Refresh the cached head; Acquire pairs with the consumer's
            // Release in `pop`, making the slot's previous content
            // officially dead before we overwrite it.
            self.cached_head = ring.head.0.load(Ordering::Acquire);
            if tail - self.cached_head == ring.capacity {
                fluctrace_obs::counter!("rt.spsc.push_stalls").inc();
                self.site.stall();
                return Err(value);
            }
        }
        fluctrace_obs::counter!("rt.spsc.pushes").inc();
        self.site.progress(WaitCause::RingFull);
        // Depth as visible to the producer (cached head): no extra
        // atomic traffic on the hot path, exact in single-producer use.
        fluctrace_obs::gauge!("rt.spsc.depth_peak").record((tail + 1 - self.cached_head) as u64);
        let slot = &ring.buf[tail % ring.capacity]; // lint:allow(panic-safety-transitive): index is `x % capacity` and `buf.len() == capacity`, proven in bounds
                                                    // SAFETY: slots in [head, tail) belong to the consumer; this slot
                                                    // is at index `tail`, outside that window, and only this (single)
                                                    // producer writes it until the Release store below publishes it.
        unsafe { (*slot.get()).write(value) };
        ring.tail.0.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Number of items currently buffered (approximate under concurrency).
    pub fn len(&self) -> usize {
        let ring = &*self.ring;
        let tail = ring.tail.0.load(Ordering::Relaxed);
        let head = ring.head.0.load(Ordering::Relaxed);
        // Defensive: the two relaxed loads are not a consistent
        // snapshot, so never let a torn read underflow.
        tail.saturating_sub(head)
    }

    /// True when no items are buffered (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.ring.capacity
    }

    /// Fraction of the ring currently occupied, always in `[0, 1]`.
    /// The producer-side overload probe: a pipeline stage or tracer
    /// watches this against a high-water mark to decide when to shed
    /// load instead of blocking.
    ///
    /// # Raciness contract
    ///
    /// The value is computed from two relaxed loads of live counters,
    /// so under concurrent consumer progress it is only a *sample*: it
    /// may lag either side's latest operation and successive calls may
    /// regress non-monotonically mid-drain. What **is** guaranteed is
    /// the range — the raw quotient is clamped so callers comparing
    /// against watermarks never see `> 1.0`, `< 0.0`, NaN, or a value
    /// derived from a torn head/tail pair.
    pub fn occupancy(&self) -> f64 {
        occupancy_of(self.len(), self.ring.capacity)
    }

    /// Label this handle's wait edges with the waiting core and the
    /// peer core on the other side of the ring. Without a site label
    /// edges carry core 0 / peer 0.
    pub fn set_wait_site(&mut self, core: u32, peer: u32) {
        self.site.core = core;
        self.site.peer = peer;
    }

    /// True when the consumer half has been dropped.
    pub fn is_disconnected(&self) -> bool {
        Arc::strong_count(&self.ring) == 1
    }
}

impl<T> Drop for RingProducer<T> {
    fn drop(&mut self) {
        // Close any open ring-full stall so the wait graph never holds
        // a dangling edge — including when the producer thread panics
        // mid-stall and drops the handle during unwind.
        let now = self.site.attempts;
        self.site.close(WaitCause::RingFull, now);
    }
}

/// Clamped occupancy quotient shared by both handles (see the
/// raciness contract on [`RingProducer::occupancy`]).
fn occupancy_of(len: usize, capacity: usize) -> f64 {
    let raw = len as f64 / capacity.max(1) as f64;
    raw.clamp(0.0, 1.0)
}

impl<T> RingConsumer<T> {
    /// Attempt to pop; returns `None` when the ring is empty.
    pub fn pop(&mut self) -> Option<T> {
        let ring = &*self.ring;
        let head = ring.head.0.load(Ordering::Relaxed);
        if head == self.cached_tail {
            // Refresh the cached tail; Acquire pairs with the producer's
            // Release in `push`, making the slot's content visible.
            self.cached_tail = ring.tail.0.load(Ordering::Acquire);
            if head == self.cached_tail {
                fluctrace_obs::counter!("rt.spsc.pop_stalls").inc();
                self.site.stall();
                return None;
            }
        }
        fluctrace_obs::counter!("rt.spsc.pops").inc();
        self.site.progress(WaitCause::RingEmpty);
        let slot = &ring.buf[head % ring.capacity]; // lint:allow(panic-safety-transitive): index is `x % capacity` and `buf.len() == capacity`, proven in bounds
                                                    // SAFETY: head < tail (checked above), so the producer published
                                                    // this slot with a Release store and will not touch it again
                                                    // until our Release store below returns it.
        let value = unsafe { (*slot.get()).assume_init_read() };
        ring.head.0.store(head + 1, Ordering::Release);
        Some(value)
    }

    /// Drain everything currently visible into a vector.
    pub fn drain(&mut self) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(v) = self.pop() {
            out.push(v);
        }
        out
    }

    /// Number of items currently buffered (approximate under concurrency).
    pub fn len(&self) -> usize {
        let ring = &*self.ring;
        let tail = ring.tail.0.load(Ordering::Relaxed);
        let head = ring.head.0.load(Ordering::Relaxed);
        // Defensive: the two relaxed loads are not a consistent
        // snapshot, so never let a torn read underflow.
        tail.saturating_sub(head)
    }

    /// True when no items are buffered (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of the ring currently occupied, always in `[0, 1]`.
    /// The consumer-side mirror of [`RingProducer::occupancy`] — same
    /// clamping and same raciness contract (a sample, not a consistent
    /// snapshot; may regress non-monotonically under concurrent
    /// producer progress).
    pub fn occupancy(&self) -> f64 {
        occupancy_of(self.len(), self.ring.capacity)
    }

    /// Label this handle's wait edges with the waiting core and the
    /// peer core on the other side of the ring. Without a site label
    /// edges carry core 0 / peer 0.
    pub fn set_wait_site(&mut self, core: u32, peer: u32) {
        self.site.core = core;
        self.site.peer = peer;
    }

    /// True when the producer half has been dropped.
    pub fn is_disconnected(&self) -> bool {
        Arc::strong_count(&self.ring) == 1
    }
}

impl<T> Drop for RingConsumer<T> {
    fn drop(&mut self) {
        // Mirror of the producer's drop: close any open ring-empty
        // poll so no dangling edge survives the handle.
        let now = self.site.attempts;
        self.site.close(WaitCause::RingEmpty, now);
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Drop any items still in the ring.
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        for i in head..tail {
            let slot = self.buf[i % self.capacity].get_mut(); // lint:allow(panic-safety-transitive): index is `x % capacity` and `buf.len() == capacity`, proven in bounds
                                                              // SAFETY: slots in [head, tail) hold initialized values that
                                                              // were never popped; we have exclusive access in drop.
            unsafe { slot.assume_init_drop() };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn push_pop_fifo() {
        let (mut tx, mut rx) = spsc_ring(4);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(rx.pop(), Some(1));
        tx.push(3).unwrap();
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), Some(3));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn full_ring_rejects() {
        let (mut tx, mut rx) = spsc_ring(2);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(tx.push(3), Err(3));
        assert_eq!(rx.pop(), Some(1));
        tx.push(3).unwrap();
        assert_eq!(tx.len(), 2);
    }

    #[test]
    fn wraparound_many_times() {
        let (mut tx, mut rx) = spsc_ring(3);
        for i in 0..1000 {
            tx.push(i).unwrap();
            assert_eq!(rx.pop(), Some(i));
        }
        assert!(rx.is_empty());
    }

    #[test]
    fn occupancy_tracks_fill_level() {
        let (mut tx, mut rx) = spsc_ring::<u32>(4);
        assert_eq!(tx.occupancy(), 0.0);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(tx.occupancy(), 0.5);
        assert_eq!(rx.occupancy(), 0.5);
        tx.push(3).unwrap();
        tx.push(4).unwrap();
        assert_eq!(tx.occupancy(), 1.0);
        rx.pop().unwrap();
        assert_eq!(rx.occupancy(), 0.75);
    }

    #[test]
    fn occupancy_quotient_is_clamped() {
        // The shared helper is what guards against torn head/tail
        // samples: even a nonsense length must stay inside [0, 1].
        assert_eq!(occupancy_of(0, 8), 0.0);
        assert_eq!(occupancy_of(4, 8), 0.5);
        assert_eq!(occupancy_of(8, 8), 1.0);
        assert_eq!(occupancy_of(9, 8), 1.0, "over-full sample must clamp");
        assert_eq!(occupancy_of(usize::MAX, 8), 1.0);
        assert_eq!(occupancy_of(1, 0), 1.0, "zero capacity must not divide");
    }

    #[test]
    fn stall_runs_record_wait_edges() {
        // A full-ring stall run (2 failed pushes) closes into one
        // ring-full edge on the next success; an empty-ring poll run
        // closes into one ring-empty edge. Sentinel cores keep this
        // immune to other tests sharing the global log.
        let (mut tx, mut rx) = spsc_ring(1);
        tx.set_wait_site(9101, 9102);
        rx.set_wait_site(9102, 9101);
        tx.push(1u32).unwrap();
        assert!(tx.push(2).is_err());
        assert!(tx.push(2).is_err());
        rx.pop().unwrap();
        tx.push(2).unwrap();
        rx.pop().unwrap();
        assert!(rx.pop().is_none());
        assert!(rx.pop().is_none()); // the poll run extends, still one edge
        tx.push(3).unwrap();
        rx.pop().unwrap();
        let edges = crate::wait::global_edges();
        let full: Vec<_> = edges.iter().filter(|e| e.core == 9101).collect();
        assert_eq!(full.len(), 1, "one stall run -> one ring-full edge");
        assert_eq!(full[0].cause, WaitCause::RingFull);
        assert_eq!(full[0].peer, 9102);
        assert_eq!(full[0].cycles, 2, "two failed attempts in the run");
        let empty: Vec<_> = edges.iter().filter(|e| e.core == 9102).collect();
        assert_eq!(empty.len(), 1, "one poll run -> one ring-empty edge");
        assert_eq!(empty[0].cause, WaitCause::RingEmpty);
    }

    #[test]
    fn dropping_a_stalled_producer_closes_its_edge() {
        // S4: producer dies mid-stall (e.g. its thread panicked) — the
        // handle's Drop must close the open edge.
        let (mut tx, _rx) = spsc_ring(1);
        tx.set_wait_site(9103, 9104);
        tx.push(1u32).unwrap();
        assert!(tx.push(2).is_err());
        drop(tx);
        let edges = crate::wait::global_edges();
        let mine: Vec<_> = edges.iter().filter(|e| e.core == 9103).collect();
        assert_eq!(mine.len(), 1, "drop left a dangling open edge");
        assert_eq!(mine[0].cause, WaitCause::RingFull);
    }

    #[test]
    fn drain_collects_all() {
        let (mut tx, mut rx) = spsc_ring(8);
        for i in 0..5 {
            tx.push(i).unwrap();
        }
        assert_eq!(rx.drain(), vec![0, 1, 2, 3, 4]);
        assert!(rx.drain().is_empty());
    }

    #[test]
    fn disconnection_is_observable() {
        let (tx, rx) = spsc_ring::<u32>(2);
        assert!(!tx.is_disconnected());
        drop(rx);
        assert!(tx.is_disconnected());
        let (tx2, rx2) = spsc_ring::<u32>(2);
        drop(tx2);
        assert!(rx2.is_disconnected());
    }

    #[test]
    fn drops_leftover_items() {
        // Drop-counting payload to verify no leaks of unpopped items.
        use std::sync::atomic::AtomicU32;
        static DROPS: AtomicU32 = AtomicU32::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut tx, mut rx) = spsc_ring(4);
        tx.push(D).unwrap();
        tx.push(D).unwrap();
        tx.push(D).unwrap();
        drop(rx.pop()); // one popped and dropped
        drop(tx);
        drop(rx); // two left in the ring
        assert_eq!(DROPS.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn cross_thread_stream_preserves_order_and_count() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = spsc_ring(1024);
        let producer = thread::spawn(move || {
            for i in 0..N {
                loop {
                    match tx.push(i) {
                        Ok(()) => break,
                        Err(_) => std::hint::spin_loop(),
                    }
                }
            }
        });
        let consumer = thread::spawn(move || {
            let mut expected = 0u64;
            while expected < N {
                if let Some(v) = rx.pop() {
                    assert_eq!(v, expected, "FIFO order violated");
                    expected += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
            expected
        });
        producer.join().unwrap();
        assert_eq!(consumer.join().unwrap(), N);
    }

    #[test]
    fn cross_thread_with_heap_payload() {
        const N: usize = 20_000;
        let (mut tx, mut rx) = spsc_ring(64);
        let producer = thread::spawn(move || {
            for i in 0..N {
                let mut v = vec![i; 3];
                loop {
                    match tx.push(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        });
        let mut got = 0usize;
        while got < N {
            if let Some(v) = rx.pop() {
                assert_eq!(v, vec![got; 3]);
                got += 1;
            }
        }
        producer.join().unwrap();
    }
}
