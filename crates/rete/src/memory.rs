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
//! Every executor holds the pair as one [`GlobalMemories`]. The sequential
//! engine uses all of it. Each threaded worker holds a full-size pair of
//! its own and only ever touches the buckets its partition assigns it, so
//! the union of the workers' owned buckets is exactly the two global
//! tables.

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

/// The most buckets a table may have. Each bucket costs two empty `Vec`s
/// up front, so this caps one engine's tables at 48 MiB; a configuration
/// asking for more is refused where it enters, rather than aborting the
/// process in the allocator.
pub const MAX_TABLE_SIZE: u64 = 1 << 20;

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

    /// Number of buckets in each table.
    pub fn table_size(&self) -> u64 {
        self.left.len() as u64
    }

    /// The left bucket at index `bucket`.
    pub fn left_bucket_mut(&mut self, bucket: u64) -> &mut Vec<LeftEntry> {
        &mut self.left[bucket as usize]
    }

    /// The right bucket at index `bucket`.
    pub fn right_bucket_mut(&mut self, bucket: u64) -> &mut Vec<RightEntry> {
        &mut self.right[bucket as usize]
    }

    /// Shrink every bucket to its entries: an empty bucket keeps only its
    /// header. A non-empty bucket keeps its order, so every later probe
    /// sees the same entries in the same order.
    pub fn shrink_to_live(&mut self) {
        for b in &mut self.left {
            b.shrink_to_fit();
        }
        for b in &mut self.right {
            b.shrink_to_fit();
        }
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
    fn shrink_fits_buckets_and_keeps_their_order() {
        let mut m = GlobalMemories::new(4);
        for (i, h) in [3, 1, 2].into_iter().enumerate() {
            m.left_bucket_mut(0).push(le(1, h, i as u32));
        }
        m.left_bucket_mut(0).swap_remove(0);
        m.left_bucket_mut(1).push(le(2, 3, 2));
        m.left_bucket_mut(1).clear();
        m.shrink_to_live();
        assert_eq!(m.left[1].capacity(), 0, "an empty bucket keeps no capacity");
        let kept: Vec<u64> = m.left[0].iter().map(|e| e.key_hash).collect();
        assert_eq!(kept, [2, 1], "a non-empty bucket keeps its order");
        assert_eq!(
            m.left[0].capacity(),
            2,
            "a non-empty bucket fits its entries"
        );
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        GlobalMemories::new(0);
    }
}
