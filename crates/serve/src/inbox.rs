//! The admission-controlled request inbox and micro-batch trigger.
//!
//! Requests queue into a **bounded** FIFO. Admission never blocks: when
//! the queue is at capacity the caller gets [`Admit::Full`] immediately
//! and answers the client with a fast rejection carrying a retry-after
//! hint — overload surfaces as explicit, bounded-latency pushback instead
//! of an unbounded queue silently converting overload into tail latency.
//!
//! The single batcher thread drains in micro-batches. With a **zero
//! deadline** (the server's default) a batch is whatever is queued, up to
//! `max`, the moment the batcher is free: it never waits for a batch to
//! fill, and under load batches still fill because requests queue while
//! the previous batch executes. A **nonzero deadline** keeps the
//! deadline-or-size trigger that tests use to compose batches by waiting:
//! a batch fires as soon as `max` requests are queued, or when the
//! *oldest queued request* has waited `deadline`, whichever comes first.
//! Draining preserves admission order exactly, so responses to admitted
//! requests never reorder.
//!
//! **Wake rule.** An admission wakes the batcher only when the batcher is
//! parked in [`Inbox::drain_batch`]. A drainer counts itself parked, under
//! the mutex, just before each wait and uncounts itself just after, and
//! [`Inbox::try_admit`] reads that count under the lock it already holds.
//! Because the drainer raises the count before the wait releases the lock,
//! an admission either sees it and notifies, or happened before the
//! drainer checked the queue: no wake-up is lost. The rule exists because
//! std's futex condvar makes a wake syscall on every `notify_one`, even
//! when nobody waits, and a batcher that is executing is not parked: with
//! a notify per admission, `perf`'s admit-and-drain probe cost 332–348 ns
//! per request on a 2-thread VM, and 61–79 ns without it. [`Inbox::close`]
//! still wakes every waiter.
//!
//! This module is deliberately free of sockets and queries (`Inbox<T>` is
//! generic over the queued item) so the trigger semantics are unit-tested
//! in isolation.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Outcome of a non-blocking admission attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admit {
    /// Queued; the request will be drained into a batch and answered.
    Admitted,
    /// The inbox is at capacity; nothing was queued. Fast-reject with a
    /// retry-after hint.
    Full,
    /// The inbox is closed (shutdown in progress); nothing was queued.
    Closed,
}

struct State<T> {
    queue: VecDeque<(Instant, T)>,
    closed: bool,
    /// Threads blocked in `drain_batch`'s waits. A count, not a flag, so
    /// one drainer waking cannot clear another's mark.
    parked: usize,
    /// Waits begun in `drain_batch`, ever.
    #[cfg(test)]
    waits: usize,
}

impl<T> State<T> {
    /// Counts a drainer parked for the wait it is about to begin.
    fn park(&mut self) {
        self.parked += 1;
        #[cfg(test)]
        {
            self.waits += 1;
        }
    }
}

/// Bounded multi-producer single-consumer inbox with a drain-what-is-queued
/// (or deadline-or-size) trigger. See the module docs.
pub struct Inbox<T> {
    state: Mutex<State<T>>,
    cond: Condvar,
    cap: usize,
}

impl<T> Inbox<T> {
    /// Creates an inbox holding at most `cap` queued requests.
    ///
    /// # Panics
    /// Panics if `cap` is zero (an inbox that admits nothing can serve
    /// nothing).
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "inbox capacity must be at least 1");
        Self {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                closed: false,
                parked: 0,
                #[cfg(test)]
                waits: 0,
            }),
            cond: Condvar::new(),
            cap,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Threads currently parked in [`drain_batch`](Inbox::drain_batch),
    /// so a test can wait until a drainer sleeps before it admits.
    #[cfg(test)]
    fn parked(&self) -> usize {
        self.state.lock().unwrap().parked
    }

    /// Condvar waits [`drain_batch`](Inbox::drain_batch) has begun since
    /// the inbox was created, so a test can tell a drain that fired at
    /// once from one that slept, without timing it.
    #[cfg(test)]
    fn waits(&self) -> usize {
        self.state.lock().unwrap().waits
    }

    /// Currently queued requests (racy by nature; for stats only).
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().queue.len()
    }

    /// Whether the queue is currently empty (racy; for stats only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking admission: queues `item` stamped with its arrival
    /// time, or reports why it cannot be queued. Never drops silently —
    /// the caller always learns the outcome.
    pub fn try_admit(&self, item: T) -> Admit {
        let mut s = self.state.lock().unwrap();
        if s.closed {
            return Admit::Closed;
        }
        if s.queue.len() >= self.cap {
            return Admit::Full;
        }
        s.queue.push_back((Instant::now(), item));
        let parked = s.parked > 0;
        drop(s);
        if parked {
            self.cond.notify_one();
        }
        Admit::Admitted
    }

    /// Closes the inbox: subsequent admissions return [`Admit::Closed`];
    /// already-queued requests remain drainable (the shutdown drain).
    /// Wakes the batcher so a pending deadline wait fires immediately.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.cond.notify_all();
    }

    /// Blocks until a micro-batch is ready, then drains and returns it in
    /// admission order. Returns `None` when the inbox is closed and
    /// empty — the batcher's termination signal.
    ///
    /// Trigger: once at least one request is queued, a zero `deadline`
    /// takes what is queued (up to `max`) at once. A nonzero `deadline`
    /// fires when `max` requests are queued **or** the oldest queued
    /// request has waited `deadline` since arrival, whichever comes first.
    /// A closed inbox fires immediately (shutdown drains promptly).
    pub fn drain_batch(&self, max: usize, deadline: Duration) -> Option<Vec<T>> {
        assert!(max > 0, "batch size must be at least 1");
        let mut s = self.state.lock().unwrap();
        // Phase 1: wait for the batch to open (first request, or close).
        loop {
            if !s.queue.is_empty() {
                break;
            }
            if s.closed {
                return None;
            }
            s.park();
            s = self.cond.wait(s).unwrap();
            s.parked -= 1;
        }
        // Phase 2: the batch is open; its deadline is anchored to the
        // arrival of the oldest queued request, so no admitted request
        // waits in the batcher longer than `deadline`. A zero deadline has
        // already passed, so the loop takes what is queued without waiting.
        let fire_at = s.queue.front().map(|(t, _)| *t).unwrap() + deadline;
        while s.queue.len() < max && !s.closed {
            let now = Instant::now();
            let Some(remaining) = fire_at.checked_duration_since(now) else {
                break; // deadline reached
            };
            if remaining.is_zero() {
                break;
            }
            s.park();
            let (guard, timeout) = self.cond.wait_timeout(s, remaining).unwrap();
            s = guard;
            s.parked -= 1;
            if timeout.timed_out() {
                break;
            }
        }
        let n = s.queue.len().min(max);
        Some(s.queue.drain(..n).map(|(_, item)| item).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    const LONG: Duration = Duration::from_secs(30);
    const SHORT: Duration = Duration::from_millis(25);

    #[test]
    fn size_trigger_fires_without_waiting_for_the_deadline() {
        let inbox = Inbox::new(64);
        for i in 0..8 {
            assert_eq!(inbox.try_admit(i), Admit::Admitted);
        }
        let start = Instant::now();
        let batch = inbox.drain_batch(8, LONG).unwrap();
        assert_eq!(batch, (0..8).collect::<Vec<_>>());
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "size-full batch should fire immediately, waited {:?}",
            start.elapsed()
        );
        // Leftovers stay queued for the next batch.
        assert!(inbox.is_empty());
    }

    #[test]
    fn oversize_queue_drains_in_max_sized_slices_in_order() {
        let inbox = Inbox::new(1024);
        for i in 0..10 {
            assert_eq!(inbox.try_admit(i), Admit::Admitted);
        }
        assert_eq!(inbox.drain_batch(4, LONG).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(inbox.drain_batch(4, LONG).unwrap(), vec![4, 5, 6, 7]);
        assert_eq!(inbox.len(), 2);
    }

    #[test]
    fn deadline_trigger_fires_a_partial_batch() {
        let inbox = Inbox::new(64);
        assert_eq!(inbox.try_admit(42), Admit::Admitted);
        let start = Instant::now();
        let batch = inbox.drain_batch(32, SHORT).unwrap();
        let waited = start.elapsed();
        assert_eq!(batch, vec![42]);
        // Fired by the deadline, not by size (the queue never filled) —
        // the wait is at least the deadline minus the time the request
        // had already been queued, and far less than a hang.
        assert!(waited < Duration::from_secs(10), "hung: {waited:?}");
    }

    #[test]
    fn deadline_is_anchored_to_oldest_arrival() {
        let inbox = Arc::new(Inbox::new(64));
        // Admit one request, let it age past the deadline, then drain:
        // the batch must fire without waiting (its deadline already
        // passed). A deadline counted from the drain would wait once.
        assert_eq!(inbox.try_admit(1), Admit::Admitted);
        std::thread::sleep(SHORT + Duration::from_millis(5));
        let batch = inbox.drain_batch(32, SHORT).unwrap();
        assert_eq!(batch, vec![1]);
        assert_eq!(inbox.waits(), 0, "an aged request fires at once");
    }

    #[test]
    fn admission_order_is_never_reordered_across_threads() {
        // Producers tag items with a global admission sequence taken
        // *inside* the admission path; the drained stream must be exactly
        // that sequence.
        let inbox = Arc::new(Inbox::new(100_000));
        let seq = Arc::new(Mutex::new(0u64));
        let mut drained = Vec::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let inbox = Arc::clone(&inbox);
                let seq = Arc::clone(&seq);
                scope.spawn(move || {
                    for _ in 0..500 {
                        // Take the ticket and admit under one lock so the
                        // tag order IS the admission order.
                        let mut s = seq.lock().unwrap();
                        let tag = *s;
                        assert_eq!(inbox.try_admit(tag), Admit::Admitted);
                        *s += 1;
                    }
                });
            }
            // Drain concurrently with production.
            let mut got = 0;
            while got < 2000 {
                let batch = inbox.drain_batch(64, Duration::from_millis(1)).unwrap();
                got += batch.len();
                drained.extend(batch);
            }
        });
        assert_eq!(drained.len(), 2000);
        for (i, w) in drained.windows(2).enumerate() {
            assert!(w[0] < w[1], "reordered at {i}: {} then {}", w[0], w[1]);
        }
    }

    #[test]
    fn fast_reject_at_capacity_is_deterministic_and_lossless() {
        let inbox = Inbox::new(4);
        let mut admitted = 0;
        let mut rejected = 0;
        for i in 0..10 {
            match inbox.try_admit(i) {
                Admit::Admitted => admitted += 1,
                Admit::Full => rejected += 1,
                Admit::Closed => panic!("not closed"),
            }
        }
        // Exactly the first `cap` get in; every caller learned its fate.
        assert_eq!((admitted, rejected), (4, 6));
        // The default drain takes the 4 queued at once (a 30 s deadline
        // here would wait it out: 4 never reach the size trigger of 16).
        assert_eq!(
            inbox.drain_batch(16, Duration::ZERO).unwrap(),
            vec![0, 1, 2, 3]
        );
        // Capacity freed: admission works again.
        assert_eq!(inbox.try_admit(99), Admit::Admitted);
    }

    #[test]
    fn close_stops_admission_but_drains_the_backlog() {
        let inbox = Inbox::new(8);
        assert_eq!(inbox.try_admit(1), Admit::Admitted);
        assert_eq!(inbox.try_admit(2), Admit::Admitted);
        inbox.close();
        assert_eq!(inbox.try_admit(3), Admit::Closed);
        // Backlog drains immediately (no deadline wait when closed) ...
        let start = Instant::now();
        assert_eq!(inbox.drain_batch(32, LONG).unwrap(), vec![1, 2]);
        assert!(start.elapsed() < Duration::from_secs(5));
        // ... and then the batcher sees the termination signal.
        assert_eq!(inbox.drain_batch(32, LONG), None);
    }

    #[test]
    fn close_wakes_a_blocked_drainer() {
        let inbox = Arc::new(Inbox::<u32>::new(8));
        let waiter = {
            let inbox = Arc::clone(&inbox);
            std::thread::spawn(move || inbox.drain_batch(32, LONG))
        };
        std::thread::sleep(Duration::from_millis(20));
        inbox.close();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn a_zero_deadline_drains_what_is_queued() {
        // No producer is around: a drain that waited for the size trigger
        // (3 < 32) would hang here.
        let inbox = Inbox::new(64);
        for i in 0..3 {
            assert_eq!(inbox.try_admit(i), Admit::Admitted);
        }
        assert_eq!(
            inbox.drain_batch(32, Duration::ZERO).unwrap(),
            vec![0, 1, 2]
        );
        assert!(inbox.is_empty());
    }

    #[test]
    fn a_zero_deadline_drain_still_blocks_for_the_first_request() {
        let inbox = Arc::new(Inbox::new(8));
        let drainer = {
            let inbox = Arc::clone(&inbox);
            std::thread::spawn(move || inbox.drain_batch(32, Duration::ZERO))
        };
        // Whether the drainer is already parked or not, the admitted item
        // is what it returns: a zero deadline never returns an empty batch.
        assert_eq!(inbox.try_admit(7), Admit::Admitted);
        assert_eq!(drainer.join().unwrap(), Some(vec![7]));
        // A closed empty inbox is still the termination signal.
        inbox.close();
        assert_eq!(inbox.drain_batch(32, Duration::ZERO), None);
    }

    /// Spins until `n` drainers are parked; a wait that a lost wake-up
    /// never ends then hangs the test instead of passing it.
    fn until_parked<T>(inbox: &Inbox<T>, n: usize) {
        while inbox.parked() < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn an_admit_wakes_a_batcher_parked_for_its_first_request() {
        let inbox = Arc::new(Inbox::new(8));
        let drainer = {
            let inbox = Arc::clone(&inbox);
            std::thread::spawn(move || inbox.drain_batch(32, Duration::ZERO))
        };
        until_parked(&inbox, 1);
        assert_eq!(inbox.try_admit(7), Admit::Admitted);
        assert_eq!(drainer.join().unwrap(), Some(vec![7]));
        assert_eq!(inbox.parked(), 0);
    }

    #[test]
    fn an_admit_that_fills_the_batch_wakes_a_batcher_parked_on_its_deadline() {
        let inbox = Arc::new(Inbox::new(8));
        assert_eq!(inbox.try_admit(1), Admit::Admitted);
        let drainer = {
            let inbox = Arc::clone(&inbox);
            std::thread::spawn(move || inbox.drain_batch(2, Duration::from_secs(3600)))
        };
        // The queue is not empty, so the drainer parks in phase 2, on the
        // hour-long deadline; only the size trigger can end its wait.
        until_parked(&inbox, 1);
        assert_eq!(inbox.try_admit(2), Admit::Admitted);
        assert_eq!(drainer.join().unwrap(), Some(vec![1, 2]));
        assert_eq!(inbox.parked(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = Inbox::<u32>::new(0);
    }
}
