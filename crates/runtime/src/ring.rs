//! Lock-free bounded rings and the reusable chunk-slot slab behind the
//! [`deploy`](crate::deploy) ingress.
//!
//! A real dataplane never takes a mutex per packet: RX is a fixed-size
//! descriptor ring per core, written and read with atomic head/tail
//! cursors, and packet buffers are recycled from a pre-allocated pool.
//! This module is that idiom in safe-by-construction Rust:
//!
//! - [`Ring`] — a fixed-capacity power-of-two ring of `u32` payloads.
//!   Each cell packs a 32-bit sequence number and the payload into one
//!   `AtomicU64`, so publish/consume is a single atomic store/load and the
//!   whole queue is lock-free (Vyukov bounded-queue protocol) without any
//!   `unsafe` in the queue itself. Multi-producer and multi-consumer
//!   capable; the deployment uses it in MPSC (tenant lanes, free list)
//!   and SPSC (per-worker rings) configurations.
//! - [`SlotSlab`] — a pre-allocated pool of reusable slots addressed by
//!   `u32` index. Submissions claim a slot, write the chunk descriptor
//!   once, and push the *index* through rings; workers take the value
//!   back out and the slot recycles. Slot indices act as ownership
//!   capabilities: every transfer rides a ring's release/acquire edge,
//!   and an atomic per-slot state machine turns protocol violations into
//!   panics instead of undefined behaviour.
//! - [`Backoff`] — the busy-poll ladder (spin → yield → capped sleep)
//!   workers and blocking submitters use instead of condvar parking.
//!
//! Rows-per-chunk style side metadata that the scheduler must read while
//! a chunk is queued lives in plain atomics next to the slab (see
//! `deploy`), keeping every cross-thread access here either atomic or
//! uniquely owned.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

/// Largest supported ring capacity (sequence numbers are 32-bit and lap
/// arithmetic needs signed headroom).
const MAX_CAPACITY: usize = 1 << 30;

/// A fixed-capacity lock-free ring of `u32` payloads.
///
/// The cell layout packs `(sequence << 32) | payload` into one
/// `AtomicU64`: a producer publishes payload and sequence with a single
/// release store, and a consumer snapshots both with one acquire load —
/// there is no window where a peer can observe a sequence without its
/// payload. Head/tail cursors are 64-bit and never wrap in practice;
/// cell sequences compare in wrapping 32-bit arithmetic.
///
/// ```
/// use homunculus_runtime::ring::Ring;
///
/// let ring = Ring::new(4);
/// assert_eq!(ring.capacity(), 4);
/// ring.push(7).unwrap();
/// ring.push(8).unwrap();
/// assert_eq!(ring.pop(), Some(7));
/// assert_eq!(ring.pop(), Some(8));
/// assert_eq!(ring.pop(), None);
/// ```
#[derive(Debug)]
pub struct Ring {
    /// `(seq << 32) | payload` per cell.
    cells: Box<[AtomicU64]>,
    mask: u64,
    /// Next position a producer will claim.
    tail: AtomicU64,
    /// Next position a consumer will claim.
    head: AtomicU64,
}

impl Ring {
    /// Creates a ring with `capacity` rounded up to a power of two
    /// (minimum 2, maximum 2^30).
    ///
    /// # Panics
    ///
    /// Panics if the rounded capacity exceeds 2^30.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2).next_power_of_two();
        assert!(
            capacity <= MAX_CAPACITY,
            "ring capacity {capacity} exceeds the 2^30 sequence-arithmetic bound"
        );
        let cells = (0..capacity)
            .map(|i| AtomicU64::new((i as u64) << 32))
            .collect();
        Ring {
            cells,
            mask: capacity as u64 - 1,
            tail: AtomicU64::new(0),
            head: AtomicU64::new(0),
        }
    }

    /// Ring capacity (a power of two).
    pub fn capacity(&self) -> usize {
        self.mask as usize + 1
    }

    /// Number of occupied cells (approximate under concurrency).
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Relaxed);
        tail.saturating_sub(head) as usize
    }

    /// Whether the ring currently holds no items (approximate under
    /// concurrency; exact when producers are quiescent).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `payload`, or returns it back when the ring is full.
    ///
    /// Lock-free: a stalled peer cannot block this call indefinitely, and
    /// a full ring is reported immediately rather than waited out.
    pub fn push(&self, payload: u32) -> Result<(), u32> {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let cell = &self.cells[(pos & self.mask) as usize];
            let snapshot = cell.load(Ordering::Acquire);
            let seq = (snapshot >> 32) as u32;
            let lag = seq.wrapping_sub(pos as u32) as i32;
            if lag == 0 {
                // The cell is free for this lap: claim the position, then
                // publish payload + next sequence in one release store.
                match self.tail.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let next_seq = (pos as u32).wrapping_add(1);
                        cell.store(
                            ((next_seq as u64) << 32) | payload as u64,
                            Ordering::Release,
                        );
                        return Ok(());
                    }
                    Err(current) => pos = current,
                }
            } else if lag < 0 {
                // The consumer has not recycled this cell from the
                // previous lap: the ring is full.
                return Err(payload);
            } else {
                // Another producer claimed `pos` but has not published
                // yet; move to the current tail.
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeues the oldest payload, or `None` when the ring is empty.
    pub fn pop(&self) -> Option<u32> {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let cell = &self.cells[(pos & self.mask) as usize];
            let snapshot = cell.load(Ordering::Acquire);
            let seq = (snapshot >> 32) as u32;
            let lag = seq.wrapping_sub((pos as u32).wrapping_add(1)) as i32;
            if lag == 0 {
                match self.head.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let payload = snapshot as u32;
                        // Recycle the cell for the producer's next lap.
                        let next_seq = (pos as u32).wrapping_add(self.capacity() as u32);
                        cell.store((next_seq as u64) << 32, Ordering::Release);
                        return Some(payload);
                    }
                    Err(current) => pos = current,
                }
            } else if lag < 0 {
                // The producer for this position has not published yet.
                return None;
            } else {
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }
}

/// Per-slot lifecycle states for [`SlotSlab`].
const SLOT_FREE: u32 = 0;
const SLOT_BUSY: u32 = 1;
const SLOT_DRAINING: u32 = 2;

/// One reusable slot: the atomic state gate plus the (protocol-owned)
/// value cell.
#[derive(Debug)]
struct Slot<T> {
    state: AtomicU32,
    value: UnsafeCell<T>,
}

/// A pre-allocated pool of reusable `T` slots addressed by `u32` index —
/// the deployment's "batch buffers": chunk descriptors are written once
/// into a claimed slot and recycled on completion instead of being boxed
/// per submission.
///
/// # Ownership protocol
///
/// [`try_claim`](SlotSlab::try_claim) pops a free index (exclusive by
/// construction: an index is in the free ring at most once), writes the
/// value while the slot is still in the `FREE` state, and only then
/// publishes `BUSY`. [`take`](SlotSlab::take) wins the slot exclusively
/// with a `BUSY → DRAINING` transition before touching the value, so a
/// misused index (double take, take of a never-claimed slot) panics or
/// steals a value but can never alias a concurrent write. All misuse is
/// memory-safe; correct use is panic-free.
#[derive(Debug)]
pub struct SlotSlab<T> {
    slots: Box<[Slot<T>]>,
    free: Ring,
}

// SAFETY: slot values are transferred between threads through the claim/
// take protocol above; a value is only ever accessed by the unique holder
// of its index capability, and every handoff runs through an atomic
// release/acquire edge (the free ring or the BUSY/DRAINING state gate).
unsafe impl<T: Send> Sync for SlotSlab<T> {}
unsafe impl<T: Send> Send for SlotSlab<T> {}

impl<T: Default> SlotSlab<T> {
    /// Creates a slab with room for `capacity` (rounded up to a power of
    /// two) simultaneously-claimed slots.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2).next_power_of_two();
        let slots: Box<[Slot<T>]> = (0..capacity)
            .map(|_| Slot {
                state: AtomicU32::new(SLOT_FREE),
                value: UnsafeCell::new(T::default()),
            })
            .collect();
        let free = Ring::new(capacity);
        for index in 0..capacity {
            free.push(index as u32).expect("fresh free ring has room");
        }
        SlotSlab { slots, free }
    }

    /// Maximum simultaneously-claimed slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of currently free slots (approximate under concurrency).
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Claims a slot, moves `value` in, and returns its index — or gives
    /// `value` back when every slot is claimed.
    pub fn try_claim(&self, value: T) -> Result<u32, T> {
        let Some(index) = self.free.pop() else {
            return Err(value);
        };
        let slot = &self.slots[index as usize];
        // The index came out of the free ring, so this thread is the
        // unique owner; the state must still read FREE.
        assert_eq!(
            slot.state.load(Ordering::Acquire),
            SLOT_FREE,
            "slot {index} left the free ring in a non-FREE state"
        );
        // SAFETY: unique ownership of `index` (free-ring pop is exclusive
        // and the slot is FREE, so no `take` can win it) makes this the
        // only access to the cell; the Release publish below orders the
        // write before any subsequent BUSY observation.
        unsafe {
            *slot.value.get() = value;
        }
        slot.state.store(SLOT_BUSY, Ordering::Release);
        Ok(index)
    }

    /// Takes the value back out of a claimed slot and recycles the slot.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the slot is not currently
    /// claimed — a double take, or a take of an index that never came
    /// from [`try_claim`](SlotSlab::try_claim).
    pub fn take(&self, index: u32) -> T {
        let slot = &self.slots[index as usize];
        // Win the slot exclusively before touching the value: concurrent
        // misuse fails this CAS instead of aliasing the cell.
        slot.state
            .compare_exchange(
                SLOT_BUSY,
                SLOT_DRAINING,
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .unwrap_or_else(|state| {
                panic!("slot {index} taken while in state {state} (double take?)")
            });
        // SAFETY: the BUSY→DRAINING transition above grants exclusive
        // access, and its Acquire ordering synchronizes with the
        // claimer's Release publish of the written value.
        let value = unsafe { std::mem::take(&mut *slot.value.get()) };
        slot.state.store(SLOT_FREE, Ordering::Release);
        // The free ring has a cell for every slot, but the one this push
        // needs can still belong to a claimer that has advanced `head`
        // and not yet recycled it (`Ring::pop` does the two in that
        // order). It finishes without taking any lock, so wait for it.
        let mut backoff = Backoff::new();
        while self.free.push(index).is_err() {
            backoff.snooze();
        }
        value
    }
}

/// How long [`Backoff::snooze`] sleeps at the top of the ladder.
const MAX_SLEEP: Duration = Duration::from_micros(500);
/// Steps 0..SPIN_STEPS spin with exponentially more `spin_loop` hints.
const SPIN_STEPS: u32 = 6;
/// Steps SPIN_STEPS..YIELD_STEPS yield the CPU to other threads.
const YIELD_STEPS: u32 = 10;

/// Exponential busy-poll backoff: spin, then yield, then sleep with an
/// exponentially growing (capped) duration.
///
/// Workers poll their ingress ring through one of these instead of
/// blocking on a condvar: a hot ring is consumed with zero syscalls, and
/// an idle worker degrades to a ~0.5 ms doze that still notices new work
/// quickly. Call [`reset`](Backoff::reset) whenever progress is made.
#[derive(Debug, Default, Clone)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// A fresh ladder at the spinning stage.
    pub fn new() -> Self {
        Backoff::default()
    }

    /// Returns to the spinning stage (call after making progress).
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Whether the ladder has escalated past pure spinning (diagnostic;
    /// used by tests to observe idle workers parking).
    pub fn is_parked(&self) -> bool {
        self.step >= YIELD_STEPS
    }

    /// Waits one rung: exponential `spin_loop` bursts, then yields, then
    /// exponentially longer sleeps capped at 500 µs.
    pub fn snooze(&mut self) {
        if self.step < SPIN_STEPS {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
        } else if self.step < YIELD_STEPS {
            std::thread::yield_now();
        } else {
            let exp = (self.step - YIELD_STEPS).min(10);
            let sleep = Duration::from_micros(1u64 << exp).min(MAX_SLEEP);
            std::thread::sleep(sleep);
        }
        self.step = self.step.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn ring_rounds_capacity_and_reports_len() {
        let ring = Ring::new(0);
        assert_eq!(ring.capacity(), 2);
        let ring = Ring::new(5);
        assert_eq!(ring.capacity(), 8);
        assert!(ring.is_empty());
        ring.push(1).unwrap();
        ring.push(2).unwrap();
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn ring_is_fifo_and_reports_full() {
        let ring = Ring::new(4);
        for v in 0..4 {
            ring.push(v).unwrap();
        }
        assert_eq!(ring.push(99), Err(99), "full ring returns the payload");
        for v in 0..4 {
            assert_eq!(ring.pop(), Some(v));
        }
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn ring_wraps_many_laps() {
        let ring = Ring::new(2);
        for lap in 0..10_000u32 {
            ring.push(lap).unwrap();
            ring.push(lap.wrapping_mul(7)).unwrap();
            assert_eq!(ring.pop(), Some(lap));
            assert_eq!(ring.pop(), Some(lap.wrapping_mul(7)));
        }
        assert!(ring.is_empty());
    }

    #[test]
    fn ring_multi_producer_multi_consumer_loses_nothing() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 5_000;
        let ring = Arc::new(Ring::new(64));
        let seen = Arc::new(AtomicUsize::new(0));
        let sum = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for producer in 0..PRODUCERS {
                let ring = Arc::clone(&ring);
                scope.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let value = (producer * PER_PRODUCER + i) as u32;
                        let mut backoff = Backoff::new();
                        while ring.push(value).is_err() {
                            backoff.snooze();
                        }
                    }
                });
            }
            for _ in 0..2 {
                let ring = Arc::clone(&ring);
                let seen = Arc::clone(&seen);
                let sum = Arc::clone(&sum);
                scope.spawn(move || {
                    let mut backoff = Backoff::new();
                    while seen.load(Ordering::Relaxed) < PRODUCERS * PER_PRODUCER {
                        match ring.pop() {
                            Some(value) => {
                                sum.fetch_add(value as u64, Ordering::Relaxed);
                                seen.fetch_add(1, Ordering::Relaxed);
                                backoff.reset();
                            }
                            None => backoff.snooze(),
                        }
                    }
                });
            }
        });
        let n = (PRODUCERS * PER_PRODUCER) as u64;
        assert_eq!(seen.load(Ordering::Relaxed) as u64, n);
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
    }

    #[test]
    fn slab_claims_and_recycles() {
        let slab: SlotSlab<String> = SlotSlab::new(2);
        assert_eq!(slab.capacity(), 2);
        let a = slab.try_claim("a".to_string()).unwrap();
        let b = slab.try_claim("b".to_string()).unwrap();
        assert!(slab.try_claim("c".to_string()).is_err(), "slab full");
        assert_eq!(slab.take(a), "a");
        assert_eq!(slab.take(b), "b");
        // Recycled: claimable again.
        let c = slab.try_claim("c".to_string()).unwrap();
        assert_eq!(slab.take(c), "c");
        assert_eq!(slab.free_slots(), 2);
    }

    #[test]
    fn slab_take_waits_for_a_claimer_stopped_between_claim_and_recycle() {
        // `Ring::pop` advances `head`, then recycles the cell. Stage a
        // claimer stopped between the two on cell 0 of the free ring.
        let slab: SlotSlab<u8> = SlotSlab::new(2);
        slab.free.head.store(1, Ordering::Relaxed);
        let held = slab.try_claim(7).unwrap();
        assert_eq!(held, 1, "the free ring's second position");
        std::thread::scope(|scope| {
            // Returning index 1 is the ring's third push: it needs cell 0.
            let taker = scope.spawn(|| slab.take(held));
            while slab.slots[1].state.load(Ordering::Acquire) != SLOT_FREE {
                std::thread::yield_now();
            }
            for _ in 0..64 {
                std::thread::yield_now();
            }
            // Only now does the stopped claimer recycle its cell.
            slab.free.cells[0].store(2 << 32, Ordering::Release);
            assert_eq!(taker.join().unwrap(), 7);
        });
        assert_eq!(slab.free.pop(), Some(1), "the index went back");
    }

    #[test]
    #[should_panic(expected = "double take")]
    fn slab_double_take_panics() {
        let slab: SlotSlab<u8> = SlotSlab::new(2);
        let idx = slab.try_claim(1).unwrap();
        assert_eq!(slab.take(idx), 1);
        let _ = slab.take(idx);
    }

    #[test]
    fn slab_values_cross_threads_intact() {
        let slab: Arc<SlotSlab<Vec<u64>>> = Arc::new(SlotSlab::new(8));
        let handoff = Arc::new(Ring::new(8));
        const ITEMS: u64 = 20_000;
        std::thread::scope(|scope| {
            let producer_slab = Arc::clone(&slab);
            let producer_ring = Arc::clone(&handoff);
            scope.spawn(move || {
                for i in 0..ITEMS {
                    let mut backoff = Backoff::new();
                    let mut value = vec![i, i * 3];
                    loop {
                        match producer_slab.try_claim(value) {
                            Ok(idx) => {
                                while producer_ring.push(idx).is_err() {
                                    backoff.snooze();
                                }
                                break;
                            }
                            Err(back) => {
                                value = back;
                                backoff.snooze();
                            }
                        }
                    }
                }
            });
            let consumer_slab = Arc::clone(&slab);
            let consumer_ring = Arc::clone(&handoff);
            scope.spawn(move || {
                let mut backoff = Backoff::new();
                let mut received = 0u64;
                while received < ITEMS {
                    match consumer_ring.pop() {
                        Some(idx) => {
                            let value = consumer_slab.take(idx);
                            assert_eq!(value, vec![received, received * 3]);
                            received += 1;
                            backoff.reset();
                        }
                        None => backoff.snooze(),
                    }
                }
            });
        });
    }

    #[test]
    fn backoff_escalates_and_resets() {
        let mut backoff = Backoff::new();
        assert!(!backoff.is_parked());
        for _ in 0..YIELD_STEPS + 2 {
            backoff.snooze();
        }
        assert!(backoff.is_parked());
        backoff.reset();
        assert!(!backoff.is_parked());
    }
}
