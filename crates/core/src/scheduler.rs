//! Event-driven issue scheduler: a completion wheel plus a ready queue.
//!
//! The scan-based back-end touched every in-flight ROB entry once per
//! cycle looking for issue candidates — O(rob) per cycle, quadratic in
//! flight-depth for back-end-bound windows where the ROB sits full. The
//! event-driven scheduler touches each entry O(1) times between dispatch
//! and retire instead:
//!
//! * **arrival queue** — dispatches enter the back-end a constant
//!   `front_latency` after fetch, so their wake cycles are already in
//!   FIFO order: a plain `VecDeque` popped while the head's `ready_at`
//!   has arrived. This keeps the overwhelmingly common wake (an entry
//!   clearing the front pipeline) a pointer increment instead of a
//!   wheel-slot access.
//! * **completion wheel** — one FIFO list per `cycle % horizon` slot,
//!   holding entries blocked until a *known* future cycle (a producer's
//!   completion). Each simulated cycle drains exactly one slot.
//! * **ready queue** — a min-heap on sequence number holding entries
//!   whose obstacles have all cleared. The processor pops at most
//!   `width` per cycle, oldest first — the same set, in the same order,
//!   as the scan would have issued (the scan also walked oldest-first
//!   and stopped at `width`).
//! * **dependency waiters** — an entry blocked on a producer that has
//!   not even issued yet (completion cycle unknown) registers in the
//!   producer's waiter list; when the producer issues, its whole waiter
//!   list is spliced onto the wheel slot of its completion cycle. The
//!   processor keeps a `has_waiters` flag on each ROB entry so issues
//!   that nobody waits on (the common case) never touch the waiter ring.
//!
//! Wheel slots and waiter lists share storage: every token parked in
//! either lives in one slab of singly linked FIFO nodes, and
//! each slot or waiter list is a head/tail index pair into it. Moving a
//! waiter list to a wheel slot is one splice; draining a slot returns
//! its chain to the slab's free list, so the slab grows only to the
//! high-water mark of parked tokens, and the drain order is exactly the
//! push order.
//!
//! At any instant an unissued entry holds **at most one** pending token
//! (arrival queue, one wheel slot, *or* one waiter registration); each
//! wake re-examines all of its obstacles and either re-parks on the
//! next one or enters the ready queue. Squashes do not eagerly unlink
//! tokens: sequence numbers are never reused and every pop validates
//! the token against the live ROB in O(1) — a squashed entry's token
//! simply no longer resolves and is dropped (see
//! [`Processor`](crate::Processor) for the validation). The
//! differential tests in `crates/core/tests/event_scheduler.rs` and the
//! squash proptest in `tests/tests/squash_scheduler.rs` pin this
//! machinery cycle-for-cycle against the legacy scan.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Instruction sequence number (the ROB entry identity; never reused).
pub type Seq = u64;

/// Null link in the node slab.
const NIL: u32 = u32::MAX;

/// One parked token: a sequence number and the next node of its list.
#[derive(Debug, Clone, Copy)]
struct Node {
    seq: Seq,
    next: u32,
}

/// A FIFO list threaded through the [`NodeSlab`]: head and tail node
/// indices, both [`NIL`] when empty.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List { head: NIL, tail: NIL };
}

/// The shared node storage behind every wheel slot and waiter list.
#[derive(Debug)]
struct NodeSlab {
    nodes: Vec<Node>,
    /// Head of the free-node chain (linked through `Node::next`).
    free: u32,
}

impl NodeSlab {
    /// Appends `seq` at the tail of `list`, reusing a free node if any.
    #[inline]
    fn push(&mut self, list: &mut List, seq: Seq) {
        let node = Node { seq, next: NIL };
        let n = if self.free != NIL {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        } else {
            let n = u32::try_from(self.nodes.len()).expect("scheduler node slab overflow");
            self.nodes.push(node);
            n
        };
        if list.tail == NIL {
            list.head = n;
        } else {
            self.nodes[list.tail as usize].next = n;
        }
        list.tail = n;
    }

    /// Moves the whole chain of `from` to the tail of `to` in O(1),
    /// keeping its order.
    #[inline]
    fn splice(&mut self, to: &mut List, from: List) {
        if from.head == NIL {
            return;
        }
        if to.tail == NIL {
            to.head = from.head;
        } else {
            self.nodes[to.tail as usize].next = from.head;
        }
        to.tail = from.tail;
    }

    /// Appends `list`'s tokens to `out` in push order, then returns its
    /// whole chain to the free list and empties it.
    #[inline]
    fn drain(&mut self, list: &mut List, out: &mut Vec<Seq>) {
        if list.head == NIL {
            return;
        }
        let mut n = list.head;
        while n != NIL {
            let node = self.nodes[n as usize];
            out.push(node.seq);
            n = node.next;
        }
        self.nodes[list.tail as usize].next = self.free;
        self.free = list.head;
        *list = List::EMPTY;
    }
}

/// The arrival-queue + wheel + ready-queue scheduler state.
///
/// The structure is deliberately free of per-cycle allocation on the
/// steady path: wheel slots and waiter lists share one recycled node
/// slab, and the queues only grow to their high-water marks.
#[derive(Debug)]
pub struct EventScheduler {
    /// Dispatched entries in FIFO (= wake-cycle) order, awaiting their
    /// front-pipeline arrival.
    arrivals: VecDeque<Seq>,
    /// `wheel[cycle % horizon]` lists the entries to wake at `cycle`.
    wheel: Vec<List>,
    /// Entries whose obstacles have cleared, ordered oldest-first.
    ready: BinaryHeap<Reverse<Seq>>,
    /// `waiters[producer % ring]`: consumers blocked on an unissued
    /// producer's unknown completion cycle.
    waiters: Vec<List>,
    /// Node storage for every wheel slot and waiter list.
    slab: NodeSlab,
}

impl EventScheduler {
    /// Creates a scheduler with a wake horizon of `horizon` cycles and a
    /// waiter ring of `ring` sequence numbers. `horizon` bounds how far
    /// ahead a wake can be parked directly (farther wakes re-park when
    /// they fire early); `ring` must exceed the largest sequence-number
    /// span simultaneously in flight. The node slab is preallocated for
    /// `ring` parked tokens.
    pub fn new(horizon: usize, ring: usize) -> Self {
        assert!(horizon >= 2 && ring >= 2, "degenerate scheduler geometry");
        EventScheduler {
            arrivals: VecDeque::new(),
            wheel: vec![List::EMPTY; horizon],
            ready: BinaryHeap::new(),
            waiters: vec![List::EMPTY; ring],
            slab: NodeSlab { nodes: Vec::with_capacity(ring), free: NIL },
        }
    }

    /// Enqueues a freshly dispatched `seq` awaiting front-pipeline
    /// arrival. Dispatch latency is constant, so successive calls are
    /// already in wake-cycle order.
    #[inline]
    pub fn push_arrival(&mut self, seq: Seq) {
        self.arrivals.push_back(seq);
    }

    /// The oldest not-yet-arrived dispatch, if any.
    #[inline]
    pub fn peek_arrival(&self) -> Option<Seq> {
        self.arrivals.front().copied()
    }

    /// Pops the oldest dispatch (the caller decided its wake cycle came,
    /// or that the token is stale).
    #[inline]
    pub fn pop_arrival(&mut self) -> Option<Seq> {
        self.arrivals.pop_front()
    }

    /// Parks `seq` to wake at cycle `at` (seen from cycle `now`).
    ///
    /// Wakes farther out than the horizon are clamped to the farthest
    /// slot; the early wake re-examines its obstacle and re-parks, so
    /// arbitrary latencies stay correct at a small constant cost.
    #[inline]
    pub fn park(&mut self, seq: Seq, at: u64, now: u64) {
        let slot = self.wheel_slot(at, now);
        self.slab.push(&mut self.wheel[slot], seq);
    }

    /// The wheel slot a wake at `at` (seen from `now`) parks in.
    #[inline]
    fn wheel_slot(&self, at: u64, now: u64) -> usize {
        debug_assert!(at > now, "wakes must be in the future (at={at}, now={now})");
        let horizon = self.wheel.len() as u64;
        let slot_cycle = if at - now >= horizon { now + horizon - 1 } else { at };
        (slot_cycle % horizon) as usize
    }

    /// Drains the wheel slot for cycle `now` into `out` (appending, in
    /// park order).
    #[inline]
    pub fn drain_due(&mut self, now: u64, out: &mut Vec<Seq>) {
        let horizon = self.wheel.len() as u64;
        self.slab.drain(&mut self.wheel[(now % horizon) as usize], out);
    }

    /// Registers `consumer` to be woken when `producer` issues.
    #[inline]
    pub fn wait_on(&mut self, consumer: Seq, producer: Seq) {
        let ring = self.waiters.len() as u64;
        self.slab.push(&mut self.waiters[(producer % ring) as usize], consumer);
    }

    /// Parks every consumer waiting on `producer` to wake at cycle `at`
    /// (seen from `now`), exactly as if each were [`Self::park`]ed in
    /// registration order — but by splicing the whole waiter list onto
    /// the wheel slot in O(1). Called when `producer` issues and its
    /// completion cycle becomes known. Producers that alias modulo the
    /// ring share one list, so this may also move stale waiters of a
    /// squashed producer; the caller drops those when it validates the
    /// woken tokens.
    #[inline]
    pub fn park_waiters(&mut self, producer: Seq, at: u64, now: u64) {
        let ring = self.waiters.len() as u64;
        let waiters = std::mem::replace(&mut self.waiters[(producer % ring) as usize], List::EMPTY);
        let slot = self.wheel_slot(at, now);
        self.slab.splice(&mut self.wheel[slot], waiters);
    }

    /// Enqueues `seq` as ready to issue.
    #[inline]
    pub fn push_ready(&mut self, seq: Seq) {
        self.ready.push(Reverse(seq));
    }

    /// Pops the oldest ready entry, if any. The caller must validate the
    /// token against the live ROB (it may have been squashed since).
    #[inline]
    pub fn pop_ready(&mut self) -> Option<Seq> {
        self.ready.pop().map(|Reverse(s)| s)
    }

    /// Number of entries currently in the ready queue (including tokens
    /// stale-ified by squashes that have not been popped yet).
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Nodes ever allocated for wheel slots and waiter lists: the
    /// high-water mark of simultaneously parked tokens, since drained
    /// nodes are reused.
    #[cfg(test)]
    fn slab_nodes(&self) -> usize {
        self.slab.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_wakes_at_the_parked_cycle() {
        let mut s = EventScheduler::new(8, 16);
        s.park(1, 5, 0);
        s.park(2, 5, 0);
        s.park(3, 6, 0);
        let mut out = Vec::new();
        for now in 0..5 {
            s.drain_due(now, &mut out);
            assert!(out.is_empty(), "nothing due at {now}");
        }
        s.drain_due(5, &mut out);
        assert_eq!(out, vec![1, 2]);
        out.clear();
        s.drain_due(6, &mut out);
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn beyond_horizon_wakes_clamp_to_farthest_slot() {
        let mut s = EventScheduler::new(8, 16);
        s.park(9, 1_000, 0); // far beyond the 8-cycle horizon
        let mut out = Vec::new();
        for now in 0..7 {
            s.drain_due(now, &mut out);
            assert!(out.is_empty(), "nothing due at {now}");
        }
        s.drain_due(7, &mut out); // now + horizon - 1
        assert_eq!(out, vec![9]);
    }

    #[test]
    fn ready_queue_pops_oldest_first() {
        let mut s = EventScheduler::new(4, 8);
        s.push_ready(30);
        s.push_ready(10);
        s.push_ready(20);
        assert_eq!(s.ready_len(), 3);
        assert_eq!(s.pop_ready(), Some(10));
        assert_eq!(s.pop_ready(), Some(20));
        assert_eq!(s.pop_ready(), Some(30));
        assert_eq!(s.pop_ready(), None);
    }

    #[test]
    fn waiters_round_trip_through_the_ring() {
        let mut s = EventScheduler::new(4, 8);
        s.wait_on(5, 3);
        s.wait_on(6, 3);
        s.wait_on(7, 4);
        let mut out = Vec::new();
        s.park_waiters(3, 2, 0);
        s.drain_due(2, &mut out);
        assert_eq!(out, vec![5, 6]);
        out.clear();
        s.park_waiters(3, 3, 0);
        s.drain_due(3, &mut out);
        assert!(out.is_empty(), "waiters drain exactly once");
        s.park_waiters(4, 5, 4);
        s.drain_due(5, &mut out);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn wheel_slots_and_waiter_lists_are_fifo() {
        let mut s = EventScheduler::new(8, 16);
        // One wheel slot, parked out of sequence order, from two cycles.
        s.park(9, 4, 0);
        s.park(3, 4, 1);
        s.park(7, 12, 3); // beyond the horizon: clamped to cycle 10's slot
        s.park(5, 4, 2);
        // One waiter list, registered out of order, spliced behind them.
        s.wait_on(14, 6);
        s.wait_on(11, 6);
        s.wait_on(13, 6);
        s.park_waiters(6, 4, 3);
        let mut out = Vec::new();
        s.drain_due(4, &mut out);
        assert_eq!(out, vec![9, 3, 5, 14, 11, 13], "park order, then registration order");
        out.clear();
        s.drain_due(10, &mut out);
        assert_eq!(out, vec![7], "the clamped wake lands in its own slot");
    }

    #[test]
    fn slab_nodes_are_recycled() {
        // A steady mix of parks, waiter registrations and drains: after
        // warm-up the slab stops growing, because drained nodes are reused.
        let mut s = EventScheduler::new(16, 64);
        let mut out = Vec::new();
        let mut seq = 0;
        let mut step = |s: &mut EventScheduler, now: u64| {
            for k in 0..6 {
                s.park(seq, now + 1 + k % 3, now);
                seq += 1;
            }
            s.wait_on(seq, seq - 1);
            s.wait_on(seq + 1, seq - 1);
            s.park_waiters(seq - 1, now + 2, now);
            seq += 2;
            out.clear();
            s.drain_due(now, &mut out);
        };
        for now in 0..100 {
            step(&mut s, now);
        }
        let warm = s.slab_nodes();
        assert!(warm > 0);
        for now in 100..10_000 {
            step(&mut s, now);
        }
        assert_eq!(s.slab_nodes(), warm, "the slab grew after warm-up");
    }
}
