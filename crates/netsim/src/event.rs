//! The event queue.
//!
//! Events are ordered by `(time, insertion sequence)` so that simultaneous
//! events fire in FIFO order, which makes runs deterministic regardless of
//! queue internals. The queue is a plain [`BinaryHeap`]; an [`Event`] is 40
//! bytes because packets ride in it as a [`PacketSlot`] slab index rather
//! than inline or boxed.

use crate::packet::{AgentId, LinkId};
use crate::pool::PacketSlot;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Kinds of scheduled work.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// Deliver a packet to its destination agent.
    Deliver { agent: AgentId, pkt: PacketSlot },
    /// A link finished serializing its in-service packet.
    LinkTxDone { link: LinkId },
    /// A packet arrives at (is offered to) a link after propagation.
    LinkEnqueue { link: LinkId, pkt: PacketSlot },
    /// A timer registered by an agent fires.
    Timer { agent: AgentId, token: u64 },
    /// A cancellable timer slot wakes (see `sim::World::arm_timer`): the
    /// slot's current deadline/generation decide whether anything fires.
    TimerWake { slot: u32, wake_gen: u32 },
}

#[derive(Debug)]
pub(crate) struct Event {
    pub at: SimTime,
    seq: u64,
    pub kind: EventKind,
}

impl Event {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other.key().cmp(&self.key())
    }
}

/// A monotonic priority queue of events.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    pub fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { at, seq, kind });
    }

    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// The time of the next event, without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn timer(token: u64) -> EventKind {
        EventKind::Timer { agent: 0, token }
    }

    fn token_of(ev: &Event) -> u64 {
        match ev.kind {
            EventKind::Timer { token, .. } => token,
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = EventQueue::default();
        q.push(SimTime::from_nanos(20), timer(1));
        q.push(SimTime::from_nanos(10), timer(2));
        q.push(SimTime::from_nanos(10), timer(3));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(10)));
        assert_eq!(q.len(), 3);
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop()).map(|e| (e.at.as_nanos(), token_of(&e))).collect();
        assert_eq!(order, vec![(10, 2), (10, 3), (20, 1)]);
        assert_eq!(q.peek_time(), None);
    }

    /// Heap sift cost scales with the event size; a boxed-packet arm in
    /// `PacketSlot` would grow it to 48 bytes.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn event_is_forty_bytes() {
        assert_eq!(std::mem::size_of::<Event>(), 40);
    }

    /// One step of a random queue workload: push an event `delta` ns after
    /// the current clock, or pop the next event.
    #[derive(Clone, Debug)]
    enum Op {
        Push(u64),
        Pop,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            // Same-time bursts, link-scale gaps and far-future (RTO-scale)
            // timers, as the simulator produces them.
            Just(Op::Push(0)),
            (0u64..2_000).prop_map(Op::Push),
            (0u64..200_000_000).prop_map(Op::Push),
            (1_000_000_000u64..5_000_000_000).prop_map(Op::Push),
            Just(Op::Pop),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random push/pop sequences with non-decreasing push times (pushes
        /// never predate the last pop, as in the simulator) drain in exactly
        /// `(time, insertion order)`: the order of a stable sort by time.
        #[test]
        fn drains_in_time_then_insertion_order(ops in proptest::collection::vec(op(), 0..400)) {
            let mut q = EventQueue::default();
            // Oracle: pending `(time, token)` pairs kept stable-sorted by time.
            let mut oracle: Vec<(u64, u64)> = Vec::new();
            let mut now = 0u64;
            let mut token = 0u64;
            let pop_both = |q: &mut EventQueue, oracle: &mut Vec<(u64, u64)>| {
                let got = q.pop().map(|e| (e.at.as_nanos(), token_of(&e)));
                let want = (!oracle.is_empty()).then(|| oracle.remove(0));
                (got, want)
            };
            for op in ops {
                match op {
                    Op::Push(delta) => {
                        token += 1;
                        q.push(SimTime::from_nanos(now + delta), timer(token));
                        oracle.push((now + delta, token));
                        oracle.sort_by_key(|&(at, _)| at);
                    }
                    Op::Pop => {
                        let (got, want) = pop_both(&mut q, &mut oracle);
                        prop_assert_eq!(got, want);
                        if let Some((at, _)) = got {
                            now = at;
                        }
                    }
                }
                prop_assert_eq!(q.len(), oracle.len());
                prop_assert_eq!(q.peek_time().map(SimTime::as_nanos), oracle.first().map(|e| e.0));
            }
            while !oracle.is_empty() {
                let (got, want) = pop_both(&mut q, &mut oracle);
                prop_assert_eq!(got, want);
            }
            prop_assert!(q.pop().is_none());
        }
    }
}
