//! Block buffer recycling for hot quote paths.
//!
//! A quote batch builds one conflict [`ItemSet`] per query, hands the sets
//! to the caller inside quotes, and on the next tick does it all again.
//! Without recycling, every *spilled* set (more than
//! [`INLINE_BLOCKS`](crate::INLINE_BLOCKS) live blocks — inline sets never
//! allocate in the first place) costs a fresh `Vec<u64>` allocation per
//! batch per tick. [`BlockArena`] closes that loop, and [`QuoteScratch`]
//! bundles an arena with the batch-local containers (`sets`, `slots`) that
//! would otherwise also be reallocated each call.
//!
//! # Ownership contract
//!
//! The cycle has one producer and one consumer per arena:
//!
//! 1. the producer ([`BlockArena::take_set`]) pops a recycled buffer (or
//!    hands out a fresh inline set when the free list is empty), cleared
//!    and ready to fill;
//! 2. the batch fills the sets **in arrival order** and moves them onward
//!    (into quotes, demand windows, …) — the arena does not track sets in
//!    flight;
//! 3. whoever ends a set's life calls [`BlockArena::recycle`] (or a batch
//!    API that does, e.g. `Broker::recycle_quotes`) to return the spilled
//!    buffer. Dropping a set instead is always *safe* — the arena just
//!    allocates anew next time.
//!
//! The scratch containers (`sets`, `slots`) must be drained by the batch
//! that filled them before the next batch begins; the batch APIs do this
//! themselves.

use crate::ItemSet;

/// A free list of spilled `ItemSet` block buffers, reused across batches so
/// steady-state quote traffic performs no per-set heap allocation.
///
/// See the module docs for the ownership contract.
#[derive(Default)]
pub struct BlockArena {
    free: Vec<Vec<u64>>,
    reused: u64,
    fresh: u64,
}

impl BlockArena {
    /// An arena with an empty free list.
    pub fn new() -> BlockArena {
        BlockArena::default()
    }

    /// An empty set ready to fill: a recycled heap buffer when one is
    /// available, a fresh (allocation-free) inline set otherwise.
    #[inline]
    pub fn take_set(&mut self) -> ItemSet {
        match self.free.pop() {
            Some(mut buf) => {
                buf.clear();
                self.reused += 1;
                ItemSet::from_heap_blocks(buf)
            }
            None => {
                self.fresh += 1;
                ItemSet::new()
            }
        }
    }

    /// Returns a dead set's spilled buffer to the free list. Inline sets
    /// (and zero-capacity buffers) carry no allocation worth keeping and
    /// are simply dropped.
    #[inline]
    pub fn recycle(&mut self, set: ItemSet) {
        if let Some(buf) = set.take_heap() {
            if buf.capacity() > 0 {
                self.free.push(buf);
            }
        }
    }

    /// Buffers currently parked in the free list.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// How many [`take_set`](BlockArena::take_set) calls were served from
    /// the free list (allocation avoided).
    pub fn reused(&self) -> u64 {
        self.reused
    }

    /// How many [`take_set`](BlockArena::take_set) calls handed out a fresh
    /// inline set (no recycled buffer available — still allocation-free
    /// until the set spills).
    pub fn fresh(&self) -> u64 {
        self.fresh
    }
}

/// Per-batch scratch space for quote pipelines: a [`BlockArena`] plus the
/// reusable containers a batch fills and drains each call.
///
/// `sets` holds the batch's conflict sets in query order; `slots` holds a
/// parallel batch's results ([`crate::parallel::claim_map_into`]), one
/// `Option` per item.
/// Both are drained by the batch that filled them (module docs), so their
/// *capacity* is what persists across ticks.
#[derive(Default)]
pub struct QuoteScratch {
    /// Buffer recycling for the conflict sets themselves.
    pub arena: BlockArena,
    /// Batch output: one conflict set per query, in query order.
    pub sets: Vec<ItemSet>,
    /// Result slots for parallel batches; always fully drained.
    pub slots: Vec<Option<ItemSet>>,
}

impl QuoteScratch {
    /// Empty scratch with an empty arena.
    pub fn new() -> QuoteScratch {
        QuoteScratch::default()
    }

    /// Recycles every set still parked in `sets` (a batch the caller chose
    /// not to consume) back into the arena.
    pub fn recycle_batch(&mut self) {
        for set in self.sets.drain(..) {
            self.arena.recycle(set);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycle_roundtrip_reuses_spilled_buffers() {
        let mut arena = BlockArena::new();
        let mut s = arena.take_set();
        assert_eq!(arena.fresh(), 1);
        s.insert(500); // force a spill
        assert!(!s.is_inline());
        arena.recycle(s);
        assert_eq!(arena.free_len(), 1);
        let s2 = arena.take_set();
        assert_eq!(arena.reused(), 1);
        assert!(s2.is_empty(), "recycled sets come back cleared");
        assert!(!s2.is_inline(), "recycled sets keep their heap buffer");
    }

    #[test]
    fn inline_sets_recycle_to_nothing() {
        let mut arena = BlockArena::new();
        let mut s = arena.take_set();
        s.insert(3); // stays inline — no allocation to keep
        arena.recycle(s);
        assert_eq!(arena.free_len(), 0);
    }

    #[test]
    fn recycled_sets_behave_like_fresh_ones() {
        let mut arena = BlockArena::new();
        let mut s = arena.take_set();
        s.extend([1usize, 70, 400]);
        let want: ItemSet = [1usize, 70].into_iter().collect();
        arena.recycle(s);
        let mut s = arena.take_set();
        s.extend([1usize, 70]);
        assert_eq!(s, want, "repr never leaks into set semantics");
        assert_eq!(s.stable_hash(), want.stable_hash());
    }

    #[test]
    fn scratch_recycle_batch_drains_sets_into_the_arena() {
        let mut scratch = QuoteScratch::new();
        for base in [0usize, 200] {
            let mut s = scratch.arena.take_set();
            s.extend([base, base + 300]); // both spill (items ≥ 128)
            scratch.sets.push(s);
        }
        scratch.recycle_batch();
        assert!(scratch.sets.is_empty());
        assert_eq!(scratch.arena.free_len(), 2);
    }
}
