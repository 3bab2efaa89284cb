//! Tournament (loser-tree) selection, for both phases: over the merge inputs,
//! and over run formation's sorted mini-runs
//! ([`crate::run_formation::replacement`]).
//!
//! A K-way merge selects the input whose head has the smallest key, once per
//! output tuple. This is the classic *loser tree* (Knuth Vol. 3, §5.4.1): a
//! complete binary tournament whose internal nodes remember the **loser** of
//! each match and whose root remembers the overall winner. After the winner's
//! head advances, only the matches along the winner's own leaf-to-root path
//! can change, so re-keying the winner and replaying that path restores the
//! tournament in exactly ⌈log₂ K⌉ comparisons — no stale entries, no retries.
//! The keys are values the caller cached (the composite ranks of
//! [`super::cursor::RunCursor`], run formation's entries), so no `SortOrder`
//! dispatch happens per comparison.
//!
//! # Why adaptivity is preserved
//!
//! The tree is only ever mutated in two sound ways:
//!
//! * [`LoserTree::replay_winner`] after the winning input's head rank moved
//!   (the only slot whose matches the previous tournament already resolved
//!   against every node on its path), and
//! * a full [`LoserTree::rebuild`] whenever the *membership* of the active
//!   merge step changes — a dynamic split, a growth switch, an exhausted
//!   input, or a child step being absorbed. The executor marks the tree
//!   dirty at each of these, so every adaptation checkpoint
//!   of the paper (suspension, MRU paging, dynamic splitting) sees a freshly
//!   built tree and none of them ever observes a stale selection. Batched
//!   (gallop) moves stop at the same checkpoints: a batch never crosses a
//!   produce-unit boundary, which is where the executor polls the budget.
//!
//! Arbitrary slots must **not** be re-keyed in place: a non-winner's path
//! holds losers of matches the slot never played, so a path replay from such
//! a slot corrupts the tournament. The executor therefore rebuilds on any
//! membership change instead of patching individual slots; rebuilds are rare
//! (they happen at adaptation events, not per tuple).

/// A key the tree can select over: totally ordered, `Copy`, and with a value
/// for the slots that hold nothing.
pub trait SelectKey: Ord + Copy {
    /// What an empty slot is keyed with: no real key sorts after it. A real
    /// key may equal it — the slot tag, not the key, says a slot is empty.
    const EMPTY: Self;
}

impl SelectKey for u128 {
    const EMPTY: Self = u128::MAX;
}

/// Set in the tag of an empty slot, so that it loses a key tie against every
/// occupied one.
const EMPTY_TAG: u32 = 1 << 31;

/// A loser tree over `cap` slots, each holding a key or nothing: none at
/// first, then as many as the last [`rebuild`](Self::rebuild) was given.
///
/// Empty slots lose to every occupied slot; ties between equal keys are
/// broken toward the smaller slot index, matching the order in which a
/// `BinaryHeap<Reverse<(key, slot)>>` pops equal keys — both phases' output
/// is byte-identical to that heap's.
#[derive(Clone, Debug, Default)]
pub struct LoserTree<K: SelectKey> {
    /// `heads[s]` is what slot `s` plays its matches with: its key and its
    /// index, or [`SelectKey::EMPTY`] and its index with [`EMPTY_TAG`] set
    /// when it is empty. One lexicographic `<` then decides a match — no
    /// `Option` to take apart per level.
    heads: Vec<(K, u32)>,
    /// `node[0]` holds the overall winner; `node[1..cap]` hold the loser of
    /// each internal match. The leaf of slot `s` sits (implicitly) at index
    /// `cap + s`.
    node: Vec<u32>,
    /// Number of occupied slots.
    occupied: usize,
}

fn head<K: SelectKey>(slot: u32, key: Option<K>) -> (K, u32) {
    match key {
        Some(key) => (key, slot),
        None => (K::EMPTY, slot | EMPTY_TAG),
    }
}

impl<K: SelectKey> LoserTree<K> {
    /// True when no slot holds a key.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Re-key every slot — as many as `keys` yields — and replay the whole
    /// tournament (used whenever the membership changes).
    pub fn rebuild(&mut self, keys: impl IntoIterator<Item = Option<K>>) {
        self.heads.clear();
        self.heads
            .extend(keys.into_iter().zip(0u32..).map(|(k, s)| head(s, k)));
        let cap = self.heads.len();
        assert!(cap < EMPTY_TAG as usize, "too many slots for a loser tree");
        self.occupied = self.heads.iter().filter(|h| h.1 < EMPTY_TAG).count();
        self.node.clear();
        self.node.resize(cap.max(1), 0);
        // Play every match bottom-up, storing losers in the internal nodes:
        // `win[i]` is the winner of the subtree rooted at tree index `i`;
        // leaves occupy indices `cap..2 * cap`.
        let mut win = vec![0u32; 2 * cap];
        for s in 0..cap {
            win[cap + s] = s as u32;
        }
        for i in (1..cap).rev() {
            let (a, b) = (win[2 * i], win[2 * i + 1]);
            let a_wins = self.heads[a as usize] < self.heads[b as usize];
            (win[i], self.node[i]) = if a_wins { (a, b) } else { (b, a) };
        }
        if cap > 0 {
            self.node[0] = win[1];
        }
    }

    /// The winning slot and its key, or `None` when every slot is empty.
    #[inline]
    pub fn winner(&self) -> Option<(usize, K)> {
        if self.occupied == 0 {
            return None;
        }
        let w = self.node[0] as usize;
        Some((w, self.heads[w].0))
    }

    /// The *challenger*: the slot that would win if the current winner were
    /// removed — i.e. the best among the losers on the winner's leaf-to-root
    /// path. `None` when fewer than two slots are occupied. Costs one path
    /// walk (⌈log₂ K⌉ key reads); the gallop kernel calls it once per batch,
    /// not per tuple.
    pub fn challenger(&self) -> Option<(usize, K)> {
        if self.occupied < 2 {
            return None;
        }
        let mut best = (K::EMPTY, u32::MAX);
        let mut t = (self.heads.len() + self.node[0] as usize) / 2;
        while t >= 1 {
            best = best.min(self.heads[self.node[t] as usize]);
            t /= 2;
        }
        Some((best.1 as usize, best.0))
    }

    /// Re-key the current winner (`None` empties its slot) and replay its
    /// leaf-to-root path. This is the only sound in-place update — see the
    /// module docs — and the only one either phase needs: the winner is the
    /// slot that just advanced.
    #[inline]
    pub fn replay_winner(&mut self, key: Option<K>) {
        let cap = self.heads.len();
        if cap == 0 {
            return;
        }
        let slot = self.node[0];
        let was_empty = self.heads[slot as usize].1 >= EMPTY_TAG;
        self.occupied = self.occupied + was_empty as usize - key.is_none() as usize;
        let mut best = head(slot, key);
        self.heads[slot as usize] = best;
        // The swap below is written as selects on one comparison: which of
        // the two stays behind as the loser is as good as random, and a
        // branch on it would be mispredicted at every other level.
        let mut winner = slot;
        let mut t = (cap + slot as usize) / 2;
        while t >= 1 {
            let stored = self.node[t];
            let rival = self.heads[stored as usize];
            let swap = rival < best;
            self.node[t] = if swap { winner } else { stored };
            winner = if swap { stored } else { winner };
            best = if swap { rival } else { best };
            t /= 2;
        }
        self.node[0] = winner;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    impl SelectKey for u64 {
        const EMPTY: Self = u64::MAX;
    }

    fn tree_of(keys: impl IntoIterator<Item = Option<u64>>) -> LoserTree<u64> {
        let mut tree = LoserTree::default();
        tree.rebuild(keys);
        tree
    }

    #[test]
    fn winner_and_challenger_of_small_tournaments() {
        for cap in 1..9usize {
            let keys: Vec<Option<u64>> = (0..cap).map(|i| Some(((i * 7) % 5) as u64)).collect();
            let tree = tree_of(keys.clone());
            let expect = (0..cap).min_by_key(|&i| (keys[i].unwrap(), i)).unwrap();
            assert_eq!(
                tree.winner(),
                Some((expect, keys[expect].unwrap())),
                "cap {cap}"
            );
            if cap >= 2 {
                let second = (0..cap)
                    .filter(|&i| i != expect)
                    .min_by_key(|&i| (keys[i].unwrap(), i))
                    .unwrap();
                assert_eq!(
                    tree.challenger(),
                    Some((second, keys[second].unwrap())),
                    "cap {cap}"
                );
            } else {
                assert_eq!(tree.challenger(), None);
            }
        }
    }

    #[test]
    fn empty_and_all_empty_slots() {
        let tree = tree_of([]);
        assert_eq!(tree.winner(), None);
        assert!(tree.is_empty());
        let mut tree = tree_of([None, None, None]);
        assert_eq!((tree.winner(), tree.challenger()), (None, None));
        // Emptying an empty slot changes nothing; filling it makes a winner
        // of it — even with the very key the empty slots hold.
        tree.replay_winner(None);
        assert_eq!((tree.occupied, tree.winner()), (0, None));
        let slot = tree.node[0] as usize;
        tree.replay_winner(Some(u64::MAX));
        assert_eq!(tree.winner(), Some((slot, u64::MAX)));
        assert_eq!((tree.occupied, tree.challenger()), (1, None));
        tree.replay_winner(None);
        assert!(tree.is_empty());
        // Nor does an empty slot win a tie on that key by its smaller index.
        let tree = tree_of([None, Some(u64::MAX), None, Some(u64::MAX)]);
        assert_eq!(tree.winner(), Some((1, u64::MAX)));
        assert_eq!(tree.challenger(), Some((3, u64::MAX)));
    }

    #[test]
    fn ties_go_to_the_smaller_slot() {
        let tree = tree_of([Some(5), Some(3), Some(3), Some(9)]);
        assert_eq!(tree.winner(), Some((1, 3)));
        assert_eq!(tree.challenger(), Some((2, 3)));
    }

    /// Drain a tree by replaying the winner with successive keys per slot and
    /// compare against a reference heap — the loser tree must pop the exact
    /// same (key, slot) sequence the old `BinaryHeap` selection produced.
    #[test]
    fn drains_identically_to_a_binary_heap() {
        let mut rng = StdRng::seed_from_u64(0xCAFE);
        for &fan in &[1usize, 2, 3, 5, 8, 17, 64] {
            // Each slot gets its own sorted key stream (like run cursors).
            let mut streams: Vec<Vec<u64>> = (0..fan)
                .map(|_| {
                    let mut v: Vec<u64> = (0..rng.gen_range(1usize..40))
                        .map(|_| rng.gen_range(0u64..50))
                        .collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            let mut heap: BinaryHeap<Reverse<(u64, usize)>> = streams
                .iter()
                .enumerate()
                .map(|(i, s)| Reverse((s[0], i)))
                .collect();
            let mut heap_pos: Vec<usize> = vec![1; fan];
            let mut tree = tree_of(streams.iter().map(|s| Some(s[0])));
            let mut tree_pos: Vec<usize> = vec![1; fan];
            loop {
                let from_tree = tree.winner();
                let from_heap = heap.pop().map(|Reverse((k, i))| (i, k));
                assert_eq!(from_tree, from_heap, "fan {fan}");
                let Some((slot, _)) = from_tree else { break };
                let next = streams[slot].get(tree_pos[slot]).copied();
                tree_pos[slot] += 1;
                tree.replay_winner(next);
                if let Some(k) = streams[slot].get(heap_pos[slot]).copied() {
                    heap.push(Reverse((k, slot)));
                }
                heap_pos[slot] += 1;
            }
            assert!(tree.is_empty());
            drop(streams.drain(..));
        }
    }

    #[test]
    fn rebuild_resets_membership() {
        let mut tree = tree_of([Some(4), Some(2)]);
        assert_eq!(tree.winner(), Some((1, 2)));
        tree.rebuild(vec![Some(9), Some(8), Some(1)]);
        assert_eq!(tree.winner(), Some((2, 1)));
        assert_eq!(tree.occupied, 3);
        tree.replay_winner(None);
        assert_eq!(tree.winner(), Some((1, 8)));
        assert_eq!(tree.challenger(), Some((0, 9)));
        // Wider, narrower, down to nothing and back: no state survives.
        for cap in [7usize, 2, 0, 1, 5] {
            tree.rebuild((0..cap).map(|s| (s % 3 != 0).then_some(10 - s as u64)));
            let expect: Vec<_> = (0..cap).rev().filter(|s| s % 3 != 0).collect();
            assert_eq!((tree.heads.len(), tree.occupied), (cap, expect.len()));
            for slot in expect {
                assert_eq!(tree.winner(), Some((slot, 10 - slot as u64)), "cap {cap}");
                tree.replay_winner(None);
            }
            assert!(tree.is_empty());
        }
    }
}
