//! The discrete-event scheduler.
//!
//! A simulation run is a loop popping `(time, event)` pairs from an
//! [`EventQueue`] until it drains or a horizon is reached. Events that
//! are scheduled for the same instant are delivered in FIFO order of
//! scheduling (a strictly monotonic sequence number breaks ties), which
//! keeps runs deterministic.

use crate::time::SimTime;

/// Children per heap node. Four keys share a cache line and a half, so
/// a level costs about what a binary level does at half the depth.
const ARITY: usize = 4;

/// An event's place in the run: its firing time, then the order in
/// which the queue handed stamps out — unique per queue, so the order
/// is total. [`EventQueue::schedule`] stamps what it stores; an owner
/// that keeps already-ordered events outside the heap (a
/// [`crate::Lane`]) takes [`EventQueue::stamp`]s and merges by them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Stamp {
    time: SimTime,
    seq: u64,
}

impl Stamp {
    /// When the event fires.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// `(time, seq)` as one integer: earlier time first, then FIFO.
    fn rank(&self) -> u128 {
        (u128::from(self.time.as_nanos()) << 64) | u128::from(self.seq)
    }
}

/// What the heap sifts: the sort key plus the slab slot holding the
/// payload.
#[derive(Clone, Copy)]
struct Key {
    stamp: Stamp,
    slot: u32,
}

/// A deterministic future-event list.
///
/// A min-heap of 24-byte `Key`s over a slab of payloads: sifting
/// moves keys only, and an event is written once on `schedule` and
/// read once on `pop` however far its key travels.
pub struct EventQueue<E> {
    /// Implicit [`ARITY`]-ary min-heap ordered by `(time, seq)`.
    heap: Vec<Key>,
    /// Payloads, addressed by `Key::slot`; `None` = free.
    slab: Vec<Option<E>>,
    /// Free slab slots, reused LIFO.
    free: Vec<u32>,
    /// Stamps handed out so far.
    seq: u64,
    now: SimTime,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Current virtual time: the timestamp of the last fired event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events fired so far, `pop` and `advance` alike.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events pending in the heap.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending in the heap.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The stamp [`EventQueue::schedule`] gives an event scheduled at
    /// `at` right now, for an event the caller keeps outside the heap
    /// and fires, in stamp order against [`EventQueue::peek`], with
    /// [`EventQueue::advance`].
    ///
    /// A time in the past is a logic error in the caller; we clamp to
    /// `now` (the event fires immediately) rather than panic, and debug
    /// builds assert so tests catch it.
    pub fn stamp(&mut self, at: SimTime) -> Stamp {
        debug_assert!(at >= self.now, "scheduled event in the past");
        let stamp = Stamp {
            time: at.max(self.now),
            seq: self.seq,
        };
        self.seq += 1;
        stamp
    }

    /// Schedule `event` at absolute time `at`, clamped like
    /// [`EventQueue::stamp`].
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let stamp = self.stamp(at);
        let slot = match self.free.pop() {
            Some(slot) => {
                if let Some(cell) = self.slab.get_mut(slot as usize) {
                    *cell = Some(event);
                }
                slot
            }
            None => {
                self.slab.push(Some(event));
                (self.slab.len() - 1) as u32
            }
        };
        let key = Key { stamp, slot };
        self.heap.push(key);
        self.sift_up(self.heap.len() - 1, key);
    }

    /// Place `key` at or above leaf position `i`: parents that sort
    /// after it move down into the hole.
    fn sift_up(&mut self, mut i: usize, key: Key) {
        let rank = key.stamp.rank();
        while i > 0 {
            let parent = (i - 1) / ARITY;
            let Some(&p) = self.heap.get(parent) else {
                break;
            };
            if p.stamp.rank() <= rank {
                break;
            }
            if let Some(hole) = self.heap.get_mut(i) {
                *hole = p;
            }
            i = parent;
        }
        if let Some(hole) = self.heap.get_mut(i) {
            *hole = key;
        }
    }

    /// Position and key of the least of the up-to-[`ARITY`] children
    /// starting at `first`; `None` when there are none.
    fn least_child(&self, first: usize) -> Option<(usize, Key)> {
        /// Offset of the least key. Selects instead of branches: which
        /// child is least is a coin toss the predictor loses.
        fn least<'a>(kids: impl IntoIterator<Item = &'a Key>) -> usize {
            let mut at = 0;
            let mut least = u128::MAX;
            for (i, kid) in kids.into_iter().enumerate() {
                let rank = kid.stamp.rank();
                let earlier = rank < least;
                least = if earlier { rank } else { least };
                at = if earlier { i } else { at };
            }
            at
        }
        let kids = self.heap.get(first..)?;
        let at = match kids.first_chunk::<ARITY>() {
            Some(full) => least(full),
            None => least(kids),
        };
        kids.get(at).map(|kid| (first + at, *kid))
    }

    /// Place `key` at or below the root: the least child moves up into
    /// the hole until none sorts before `key`.
    fn sift_down(&mut self, key: Key) {
        let rank = key.stamp.rank();
        let mut i = 0;
        while let Some((at, kid)) = self.least_child(i * ARITY + 1) {
            if rank <= kid.stamp.rank() {
                break;
            }
            if let Some(hole) = self.heap.get_mut(i) {
                *hole = kid;
            }
            i = at;
        }
        if let Some(hole) = self.heap.get_mut(i) {
            *hole = key;
        }
    }

    /// Timestamp of the next event pending in the heap, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|k| k.stamp.time)
    }

    /// Stamp of the next event pending in the heap, if any.
    pub fn peek(&self) -> Option<Stamp> {
        self.heap.first().map(|k| k.stamp)
    }

    /// Fire an event the caller kept outside the heap under `stamp`:
    /// clock and count move exactly as if `pop` had returned it. The caller fires stamps in order, heap top included.
    pub fn advance(&mut self, stamp: Stamp) {
        debug_assert!(
            self.peek().is_none_or(|top| stamp < top),
            "advanced past the heap top"
        );
        self.fired(stamp.time);
    }

    /// One event fired at `time`: move the clock and count it.
    fn fired(&mut self, time: SimTime) {
        self.now = time;
        self.processed += 1;
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let last = self.heap.pop()?;
        let top = match self.heap.first() {
            Some(&top) => {
                self.sift_down(last);
                top
            }
            None => last,
        };
        let event = self.slab.get_mut(top.slot as usize).and_then(Option::take);
        debug_assert!(event.is_some(), "heap key without a payload");
        let event = event?;
        self.free.push(top.slot);
        self.fired(top.stamp.time);
        Some((top.stamp.time, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
        assert_eq!(q.processed(), 1);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_scheduling() {
        // Events scheduled from within the loop still order correctly.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 1u32);
        let mut seen = Vec::new();
        while let Some((t, e)) = q.pop() {
            seen.push(e);
            if e < 5 {
                q.schedule(t + SimDuration::from_millis(1), e + 1);
            }
        }
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
        assert_eq!(q.now(), SimTime::from_millis(5));
    }

    #[test]
    fn len_tracks_interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        let mut expected_len = 0usize;
        let mut popped = 0u64;
        for round in 0..50u64 {
            // Schedule a burst…
            for j in 0..(round % 4 + 1) {
                q.schedule(SimTime::from_millis(round * 10 + j), round);
                expected_len += 1;
                assert_eq!(q.len(), expected_len);
            }
            // …then drain part of it.
            if round % 2 == 0 && !q.is_empty() {
                q.pop();
                expected_len -= 1;
                popped += 1;
                assert_eq!(q.len(), expected_len);
            }
            assert_eq!(q.is_empty(), expected_len == 0);
        }
        assert_eq!(q.processed(), popped);
    }

    #[test]
    fn stamped_events_sort_and_count_like_scheduled_ones() {
        // b is kept outside the heap, between a and c in schedule order.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.schedule(t, "a");
        let b = q.stamp(t);
        q.schedule(t, "c");
        q.schedule(SimTime::from_millis(1), "first");
        assert_eq!(b.time(), t);
        assert_eq!(q.len(), 3, "a stamp is not a heap entry");

        assert_eq!(q.pop(), Some((SimTime::from_millis(1), "first")));
        assert!(q.peek().is_some_and(|a| a < b), "a was scheduled before b");
        assert_eq!(q.pop(), Some((t, "a")));
        assert!(q.peek().is_some_and(|c| b < c), "c was scheduled after b");
        q.advance(b);
        assert_eq!((q.now(), q.processed()), (t, 3));
        assert_eq!(q.pop(), Some((t, "c")));
        assert_eq!(q.peek(), None);
    }

    /// In release builds the past-scheduling debug_assert compiles
    /// out and the event is clamped to fire at `now`; the queue must
    /// stay time-ordered. (In debug builds the assert catches the
    /// caller bug instead, so the clamp branch is release-only.)
    #[test]
    #[cfg(not(debug_assertions))]
    fn past_scheduling_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "first");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(10));
        // `now` is 10 ms; scheduling at 3 ms is a caller bug that the
        // clamp turns into "fire immediately".
        q.schedule(SimTime::from_millis(3), "late");
        q.schedule(SimTime::from_millis(12), "future");
        let (t_late, e_late) = q.pop().unwrap();
        assert_eq!(e_late, "late");
        assert_eq!(t_late, SimTime::from_millis(10), "clamped to now");
        assert_eq!(q.now(), SimTime::from_millis(10));
        let (t_fut, e_fut) = q.pop().unwrap();
        assert_eq!((t_fut, e_fut), (SimTime::from_millis(12), "future"));
    }
}
