//! The reorder buffer: a fixed power-of-two ring of compact entries.
//!
//! Every cycle the back-end touches in-flight entries from three sides —
//! commit at the head, issue anywhere, squash at the tail — so the ROB's
//! footprint is paid on every simulated cycle. Each entry is therefore
//! split into two records kept in parallel arrays indexed by the same
//! ring slot:
//!
//! * [`HotEntry`] — the scheduling state that issue, wake-up, commit and
//!   squash read: sequence number, class, dependence distances, flags and
//!   the two timestamps;
//! * [`ColdEntry`] — what only issue (a memory address) and commit (pc
//!   and control outcome for engine training) read once each.
//!
//! Neither carries the fetch engine's checkpoint or prediction: those
//! stay in the fetch stage, and the few paths that need a checkpoint
//! later (an armed recovery, a decode redirect) copy it when they arm.
//! At 8 wide the 256-entry ring is 20 KB, small enough to stay resident
//! in the host's L1 data cache beside the scheduler state.
//!
//! Entries live at *positions*: the lifetime count of pushes minus
//! squashes, so position `head` is the oldest entry and positions only
//! grow (commits advance `head`; squashes give the tail positions back).
//! A position's ring slot is `position % capacity`, and a slot is a
//! stable handle for the entry's whole lifetime.

use sfetch_isa::{Addr, InstClass};
use sfetch_trace::DynControl;

use crate::scheduler::Seq;

/// Scheduling state of one in-flight instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotEntry {
    pub seq: Seq,
    /// Cycle the entry clears the front pipeline.
    pub ready_at: u64,
    /// Completion cycle (`u64::MAX` until issued).
    pub done_at: u64,
    pub class: InstClass,
    /// Input dependence distances (0 = none).
    pub deps: [u8; 2],
    /// Fetched down a wrong path: never commits.
    pub wrong_path: bool,
    /// This entry anchors the pending execute-time recovery.
    pub anchor: bool,
    /// Prediction was wrong but was repaired at decode (misfetch): the
    /// committed record still reports `mispredicted` so predictors train
    /// their hysteresis/upgrade paths.
    pub misfetch: bool,
    pub issued: bool,
    /// Some later entry is registered in this entry's waiter list
    /// (event-driven back-end only): issue must drain and re-park them.
    pub has_waiters: bool,
}

/// Retire-side record of one in-flight instruction: the oracle's view of
/// it. Wrong-path entries leave their slot's record unwritten (stale);
/// every read is guarded by [`HotEntry::wrong_path`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColdEntry {
    pub pc: Addr,
    /// Effective address, for correct-path loads/stores.
    pub mem_addr: Option<Addr>,
    /// Control outcome, for correct-path branches.
    pub control: Option<DynControl>,
}

// Every cycle walks these records: a field added to either must not
// silently re-fatten the ring (the hot one is 32 bytes today).
const _: () = assert!(std::mem::size_of::<HotEntry>() <= 40);
const _: () = assert!(std::mem::size_of::<ColdEntry>() <= 48);

const EMPTY_HOT: HotEntry = HotEntry {
    seq: Seq::MAX,
    ready_at: 0,
    done_at: u64::MAX,
    class: InstClass::Nop,
    deps: [0; 2],
    wrong_path: false,
    anchor: false,
    misfetch: false,
    issued: false,
    has_waiters: false,
};

const EMPTY_COLD: ColdEntry = ColdEntry { pc: Addr::NULL, mem_addr: None, control: None };

/// The reorder buffer ring plus its O(1) sequence-number index.
#[derive(Debug)]
pub(crate) struct Rob {
    hot: Box<[HotEntry]>,
    cold: Box<[ColdEntry]>,
    /// `capacity - 1` (capacity is a power of two).
    mask: u64,
    /// Position of the oldest entry (= lifetime commits).
    head: u64,
    len: usize,
    /// `pos_key[seq & key_mask]`: the position `seq` was pushed at. A
    /// sequence number is live iff its position is in `head..head + len`
    /// and the entry there carries the same seq; sequence numbers are
    /// never reused, so a committed or squashed one can only miss.
    pos_key: Box<[u64]>,
    key_mask: u64,
}

impl Rob {
    /// A ring holding up to `entries` instructions, indexing sequence
    /// numbers modulo `key_ring` (a power of two exceeding the largest
    /// seq span in flight).
    pub fn new(entries: usize, key_ring: usize) -> Self {
        assert!(key_ring.is_power_of_two(), "key ring must be a power of two");
        let capacity = entries.max(1).next_power_of_two();
        Rob {
            hot: vec![EMPTY_HOT; capacity].into_boxed_slice(),
            cold: vec![EMPTY_COLD; capacity].into_boxed_slice(),
            mask: capacity as u64 - 1,
            head: 0,
            len: 0,
            pos_key: vec![u64::MAX; key_ring].into_boxed_slice(),
            key_mask: key_ring as u64 - 1,
        }
    }

    /// In-flight entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Appends the youngest entry.
    ///
    /// # Panics
    ///
    /// Panics if the ring is full (the fetch stage admits a group only
    /// when the configured ROB size leaves room for all of it).
    #[inline]
    pub fn push(&mut self, hot: HotEntry) -> usize {
        assert!(self.len < self.hot.len(), "ROB ring overflow");
        let pos = self.head + self.len as u64;
        self.pos_key[(hot.seq & self.key_mask) as usize] = pos;
        let slot = (pos & self.mask) as usize;
        self.hot[slot] = hot;
        self.len += 1;
        slot
    }

    /// Ring slot of the `i`-th oldest entry (`i < len`).
    #[inline]
    pub fn slot(&self, i: usize) -> usize {
        debug_assert!(i < self.len);
        ((self.head + i as u64) & self.mask) as usize
    }

    /// Ring slot of the oldest entry.
    #[inline]
    pub fn front(&self) -> Option<usize> {
        (self.len > 0).then_some((self.head & self.mask) as usize)
    }

    /// The youngest entry.
    #[inline]
    pub fn back(&self) -> Option<&HotEntry> {
        (self.len > 0).then(|| &self.hot[self.slot(self.len - 1)])
    }

    /// Retires the oldest entry. Its slot's records stay readable until
    /// the next push.
    #[inline]
    pub fn pop_front(&mut self) {
        debug_assert!(self.len > 0);
        self.head += 1;
        self.len -= 1;
    }

    /// Squashes the youngest entry.
    #[inline]
    pub fn pop_back(&mut self) {
        debug_assert!(self.len > 0);
        self.len -= 1;
    }

    /// Ring slot of the live entry `seq`; `None` if it committed or was
    /// squashed.
    #[inline]
    pub fn find(&self, seq: Seq) -> Option<usize> {
        let pos = self.pos_key[(seq & self.key_mask) as usize];
        if pos.wrapping_sub(self.head) < self.len as u64 {
            let slot = (pos & self.mask) as usize;
            if self.hot[slot].seq == seq {
                return Some(slot);
            }
        }
        None
    }

    #[inline]
    pub fn hot(&self, slot: usize) -> &HotEntry {
        &self.hot[slot]
    }

    #[inline]
    pub fn hot_mut(&mut self, slot: usize) -> &mut HotEntry {
        &mut self.hot[slot]
    }

    #[inline]
    pub fn cold(&self, slot: usize) -> &ColdEntry {
        &self.cold[slot]
    }

    #[inline]
    pub fn cold_mut(&mut self, slot: usize) -> &mut ColdEntry {
        &mut self.cold[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::EventScheduler;

    fn entry(seq: Seq) -> HotEntry {
        HotEntry { seq, ..EMPTY_HOT }
    }

    #[test]
    fn records_are_small_and_copy() {
        // The whole point: the scheduling record is a few words and the
        // retire record holds no checkpoint or prediction.
        assert!(std::mem::size_of::<HotEntry>() <= 40);
        assert!(std::mem::size_of::<ColdEntry>() <= 48);
        let e = entry(3);
        let e2 = e;
        assert_eq!(e.seq, e2.seq);
    }

    #[test]
    fn ring_capacity_rounds_up_to_a_power_of_two() {
        let mut rob = Rob::new(6, 16);
        for seq in 0..8 {
            rob.push(entry(seq));
        }
        assert_eq!(rob.len(), 8);
        assert_eq!(rob.back().map(|e| e.seq), Some(7));
    }

    #[test]
    fn find_tracks_commits_squashes_and_wraparound() {
        let mut rob = Rob::new(4, 16);
        let mut next = 0;
        for _ in 0..3 {
            rob.push(entry(next));
            next += 1;
        }
        rob.pop_front(); // commit 0
        assert_eq!(rob.find(0), None, "committed entries no longer resolve");
        rob.pop_back(); // squash 2
        assert_eq!(rob.find(2), None, "squashed entries no longer resolve");
        // 1 is live; push past the ring's wraparound, reusing 2's position.
        for _ in 0..3 {
            rob.push(entry(next));
            next += 1;
        }
        assert_eq!(rob.len(), 4);
        assert_eq!(rob.find(2), None, "a reused position carries a new seq");
        for (i, seq) in [1, 3, 4, 5].into_iter().enumerate() {
            let slot = rob.find(seq).expect("live entry resolves");
            assert_eq!(slot, rob.slot(i), "seq {seq} is the {i}-th oldest");
            assert_eq!(rob.hot(slot).seq, seq);
        }
        assert_eq!(rob.front(), Some(rob.slot(0)));
    }

    #[test]
    fn stale_waiters_of_an_aliasing_producer_are_dropped_on_validation() {
        // Waiter lists are indexed by producer seq modulo the ring, so a
        // squashed producer's waiters stay in the list until a later
        // producer aliasing the same slot (`p + ring`) issues and drains
        // it. They come back with the live waiters and must fail the ROB
        // lookup.
        const RING: usize = 8;
        let mut rob = Rob::new(4, RING);
        let mut sched = EventScheduler::new(4, RING);
        for seq in 0..4 {
            rob.push(entry(seq));
        }
        sched.wait_on(3, 2); // consumer 3 waits on unissued producer 2
        rob.pop_back(); // squash 3
        rob.pop_back(); // squash 2
        let p = 2 + RING as Seq;
        for seq in 4..=p + 1 {
            if rob.len() == 4 {
                rob.pop_front();
            }
            rob.push(entry(seq));
        }
        sched.wait_on(p + 1, p); // a live consumer of the aliasing producer
        sched.park_waiters(p, 5, 4);
        let mut woken = Vec::new();
        sched.drain_due(5, &mut woken);
        assert_eq!(woken, vec![3, p + 1], "the stale waiter comes back first");
        let live: Vec<Seq> = woken.into_iter().filter(|&s| rob.find(s).is_some()).collect();
        assert_eq!(live, vec![p + 1], "only the live waiter survives validation");
    }

    #[test]
    #[should_panic(expected = "ROB ring overflow")]
    fn overflow_is_loud() {
        let mut rob = Rob::new(2, 16);
        for seq in 0..3 {
            rob.push(entry(seq));
        }
    }
}
