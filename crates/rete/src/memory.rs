//! The two global hash tables holding all token memories.
//!
//! §3 of the paper replaces per-node memory lists with **two global hash
//! tables** — one for every left (beta) memory, one for every right (alpha)
//! memory. A bucket index is shared between the tables: the left and right
//! buckets at index *K* together form the working set of one node
//! activation, and the pair is what the distributed mapping assigns to a
//! processor (pair).
//!
//! Entries carry the full 64-bit token hash of their equality-tested
//! values (`key_hash`), so a probe filters candidates with one integer
//! compare; only hash-equal candidates pay for an exact value comparison.
//! Buckets still store entries of *different* nodes that happen to collide
//! — the node id is folded into `key_hash`, so the integer prefilter also
//! separates nodes — and collisions cost time (the paper's footnote about
//! Tourney's deletion cost) but never correctness.
//!
//! Two implementations of [`TokenStore`] exist:
//!
//! * [`GlobalMemories`] — one process-wide pair of tables (the sequential
//!   engine, and the paper's simulator input).
//! * [`ShardedMemories`] — a worker's *shard* of the process-wide pair:
//!   only the buckets a partition strategy assigned to this worker are
//!   materialized, densely renumbered through a shared slot map. The union
//!   of all workers' shards is exactly the two global tables.

use crate::network::NodeId;
use crate::token::TokenId;
use mpps_ops::{Wme, WmeId};
use std::sync::Arc;

/// An entry in the global left (beta-token) table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LeftEntry {
    /// Owning two-input node.
    pub node: NodeId,
    /// Full token hash of the equality-tested values (probe prefilter).
    pub key_hash: u64,
    /// The stored token (arena id).
    pub token: TokenId,
    /// For negative nodes: the number of right-memory WMEs currently
    /// matching this token. The token's successors exist iff this is zero.
    pub neg_count: u32,
}

/// An entry in the global right (WME) table.
#[derive(Clone, Debug)]
pub struct RightEntry {
    /// Owning two-input node.
    pub node: NodeId,
    /// Full token hash of the equality-tested values (probe prefilter).
    pub key_hash: u64,
    /// Time tag of the stored WME.
    pub wme_id: WmeId,
    /// The WME itself (shared; WMEs are immutable once created).
    pub wme: Arc<Wme>,
}

/// Bucket-level access to a left/right table pair.
///
/// The kernel is generic over this, so the same activation code runs
/// against the process-wide tables and against one worker's shard.
pub trait TokenStore {
    /// Number of buckets in the *global* index range (shards share the
    /// global range; only ownership differs).
    fn table_size(&self) -> u64;
    /// The left bucket at global index `bucket`.
    fn left_bucket_mut(&mut self, bucket: u64) -> &mut Vec<LeftEntry>;
    /// The right bucket at global index `bucket`.
    fn right_bucket_mut(&mut self, bucket: u64) -> &mut Vec<RightEntry>;
}

/// Both global tables, bucketed over a fixed index range.
#[derive(Clone, Debug)]
pub struct GlobalMemories {
    left: Vec<Vec<LeftEntry>>,
    right: Vec<Vec<RightEntry>>,
}

impl GlobalMemories {
    /// Create empty tables with `table_size` buckets each.
    pub fn new(table_size: u64) -> Self {
        assert!(table_size > 0, "hash table must have at least one bucket");
        GlobalMemories {
            left: vec![Vec::new(); table_size as usize],
            right: vec![Vec::new(); table_size as usize],
        }
    }

    /// Total stored left tokens (diagnostics).
    pub fn left_len(&self) -> usize {
        self.left.iter().map(Vec::len).sum()
    }

    /// Total stored right WMEs (diagnostics).
    pub fn right_len(&self) -> usize {
        self.right.iter().map(Vec::len).sum()
    }
}

impl TokenStore for GlobalMemories {
    fn table_size(&self) -> u64 {
        self.left.len() as u64
    }

    fn left_bucket_mut(&mut self, bucket: u64) -> &mut Vec<LeftEntry> {
        &mut self.left[bucket as usize]
    }

    fn right_bucket_mut(&mut self, bucket: u64) -> &mut Vec<RightEntry> {
        &mut self.right[bucket as usize]
    }
}

/// One worker's shard of the two global tables.
///
/// A partition strategy assigns each global bucket index an owning worker;
/// `slot_of` (shared by all workers) renumbers every global bucket to a
/// dense local slot *within its owner's shard*. A worker materializes only
/// its own `shard_len` bucket pairs. Looking up a bucket this shard does
/// not own is a logic error (the router must send such work elsewhere) and
/// lands on an arbitrary local slot — debug builds in the threaded matcher
/// assert ownership before activating.
#[derive(Clone, Debug)]
pub struct ShardedMemories {
    table_size: u64,
    slot_of: Arc<Vec<u32>>,
    left: Vec<Vec<LeftEntry>>,
    right: Vec<Vec<RightEntry>>,
}

impl ShardedMemories {
    /// Create the shard holding `shard_len` of the `slot_of.len()` global
    /// buckets.
    pub fn new(slot_of: Arc<Vec<u32>>, shard_len: usize) -> Self {
        let table_size = slot_of.len() as u64;
        assert!(table_size > 0, "hash table must have at least one bucket");
        ShardedMemories {
            table_size,
            slot_of,
            left: vec![Vec::new(); shard_len],
            right: vec![Vec::new(); shard_len],
        }
    }

    /// Total stored left tokens in this shard (diagnostics).
    pub fn left_len(&self) -> usize {
        self.left.iter().map(Vec::len).sum()
    }

    /// Total stored right WMEs in this shard (diagnostics).
    pub fn right_len(&self) -> usize {
        self.right.iter().map(Vec::len).sum()
    }

    /// Remove and return the entire left/right bucket pair at global index
    /// `bucket`, leaving empty vectors behind. Bucket-granular migration
    /// moves the *pair* together: negative-node counts in the left bucket
    /// are derived from the right bucket at the same index, so splitting
    /// the pair would strand them.
    pub fn take_bucket(&mut self, bucket: u64) -> (Vec<LeftEntry>, Vec<RightEntry>) {
        let slot = self.slot_of[bucket as usize] as usize;
        (
            std::mem::take(&mut self.left[slot]),
            std::mem::take(&mut self.right[slot]),
        )
    }
}

impl TokenStore for ShardedMemories {
    fn table_size(&self) -> u64 {
        self.table_size
    }

    fn left_bucket_mut(&mut self, bucket: u64) -> &mut Vec<LeftEntry> {
        &mut self.left[self.slot_of[bucket as usize] as usize]
    }

    fn right_bucket_mut(&mut self, bucket: u64) -> &mut Vec<RightEntry> {
        &mut self.right[self.slot_of[bucket as usize] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le(node: u32, key_hash: u64, token: u32) -> LeftEntry {
        LeftEntry {
            node: NodeId(node),
            key_hash,
            token: TokenId(token),
            neg_count: 0,
        }
    }

    #[test]
    fn global_buckets_roundtrip() {
        let mut m = GlobalMemories::new(8);
        m.left_bucket_mut(3).push(le(1, 42, 0));
        assert_eq!(m.left_len(), 1);
        let b = m.left_bucket_mut(3);
        let pos = b
            .iter()
            .position(|e| e.node == NodeId(1) && e.key_hash == 42)
            .unwrap();
        b.swap_remove(pos);
        assert_eq!(m.left_len(), 0);
    }

    #[test]
    fn duplicate_entries_remove_one_at_a_time() {
        // Self-join chains can legitimately store equal tokens twice.
        let mut m = GlobalMemories::new(2);
        m.left_bucket_mut(1).push(le(5, 9, 7));
        m.left_bucket_mut(1).push(le(5, 9, 7));
        let b = m.left_bucket_mut(1);
        let pos = b.iter().position(|e| e.key_hash == 9).unwrap();
        b.swap_remove(pos);
        assert_eq!(m.left_len(), 1);
    }

    #[test]
    fn right_entries_keyed_by_wme_id() {
        let mut m = GlobalMemories::new(4);
        let w = Arc::new(Wme::new("b", &[]));
        for id in [10, 11] {
            m.right_bucket_mut(2).push(RightEntry {
                node: NodeId(1),
                key_hash: 5,
                wme_id: WmeId(id),
                wme: w.clone(),
            });
        }
        let b = m.right_bucket_mut(2);
        let pos = b.iter().position(|e| e.wme_id == WmeId(10)).unwrap();
        b.swap_remove(pos);
        assert_eq!(m.right_len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        GlobalMemories::new(0);
    }

    #[test]
    fn take_bucket_moves_the_pair_and_leaves_it_empty() {
        let slot_of = Arc::new(vec![0u32, 0, 1, 1]);
        let mut s = ShardedMemories::new(slot_of, 2);
        s.left_bucket_mut(1).push(le(1, 7, 0));
        s.right_bucket_mut(1).push(RightEntry {
            node: NodeId(1),
            key_hash: 7,
            wme_id: WmeId(3),
            wme: Arc::new(Wme::new("b", &[])),
        });
        s.left_bucket_mut(3).push(le(2, 8, 1));
        let (lefts, rights) = s.take_bucket(1);
        assert_eq!(lefts.len(), 1);
        assert_eq!(rights.len(), 1);
        assert_eq!(lefts[0].key_hash, 7);
        assert!(s.left_bucket_mut(1).is_empty());
        assert!(s.right_bucket_mut(1).is_empty());
        // The other bucket is untouched.
        assert_eq!(s.left_bucket_mut(3).len(), 1);
    }

    #[test]
    fn sharded_memories_renumber_owned_buckets() {
        // 4 global buckets; this shard owns buckets 1 and 3 at slots 0, 1.
        let slot_of = Arc::new(vec![0u32, 0, 1, 1]);
        let mut s = ShardedMemories::new(slot_of, 2);
        assert_eq!(s.table_size(), 4);
        s.left_bucket_mut(1).push(le(1, 7, 0));
        s.left_bucket_mut(3).push(le(2, 8, 1));
        assert_eq!(s.left_len(), 2);
        // Global buckets 1 and 3 map to distinct local slots.
        assert_eq!(s.left_bucket_mut(1).len(), 1);
        assert_eq!(s.left_bucket_mut(3).len(), 1);
        assert_eq!(s.left_bucket_mut(1)[0].key_hash, 7);
        assert_eq!(s.left_bucket_mut(3)[0].key_hash, 8);
    }
}
