//! Beta tokens: partial instantiations flowing through the join network.
//!
//! [`TokenArena`] / [`TokenId`]: a token is a flat arena record
//! `(parent, wme, vals)`; the full binding set is recovered by walking
//! the parent chain, and equality/hashing is an integer chain comparison.
//! This is what the match kernel and both executors use. (The historical
//! self-contained representation survives as the oracle of
//! `tests/arena_props.rs`, which rebuilds bindings from arena chains and
//! compares them against tokens built the old way.)

use crate::hashfn;
use crate::network::VarRef;
use mpps_ops::{Value, WmeId};

/// Index of a token record in a [`TokenArena`].
///
/// `TokenId`s are arena-local: they must never cross an arena boundary
/// (workers exchange [`FlatToken`]s instead).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TokenId(pub u32);

impl TokenId {
    /// The null parent of a seed (first-CE) token.
    pub const NONE: TokenId = TokenId(u32::MAX);
}

/// One level of a token chain: the WME matched at this level plus the
/// values of the variables this level *introduced* (in `JoinSpec::binds`
/// order — or seed-bind order for level 0).
#[derive(Debug)]
struct TokenRecord {
    parent: TokenId,
    wme: WmeId,
    /// 0-based position in the chain (= number of ancestors).
    level: u16,
    /// Number of owners: memory entries, queued work items, and children.
    rc: u32,
    /// Incremental fingerprint of the WmeId chain — the equality prefilter.
    chain_hash: u64,
    vals: Vec<Value>,
}

/// A self-contained wire form of a token chain, root level first. Used to
/// ship tokens between per-worker arenas.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FlatToken {
    /// Matched WME ids, root (first CE) first.
    pub wmes: Vec<WmeId>,
    /// Number of values introduced per level.
    pub lens: Vec<u16>,
    /// Concatenated per-level values, root level first.
    pub vals: Vec<Value>,
}

/// The arena of flat token records.
///
/// Records are reference counted (owners: memory entries, in-flight work
/// items, child records) and recycled through a free list, so steady-state
/// matching performs no token allocation: a freed record donates its `vals`
/// buffer to the next allocation.
#[derive(Debug, Default)]
pub struct TokenArena {
    recs: Vec<TokenRecord>,
    free: Vec<TokenId>,
    live: usize,
    allocs: u64,
    frees: u64,
    high_water: usize,
    free_high_water: usize,
}

impl TokenArena {
    /// An empty arena.
    pub fn new() -> Self {
        TokenArena::default()
    }

    /// Number of live (not-freed) records — diagnostics; 0 after a full
    /// retraction drains every memory.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total records ever allocated (tokens created), including free-list
    /// reuses.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Total records ever freed (tokens released to the free list).
    pub fn frees(&self) -> u64 {
        self.frees
    }

    /// Peak live-record count (arena occupancy high-water mark).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Peak free-list length: how far occupancy fell below its peak, i.e.
    /// how much recycled capacity the arena is carrying.
    pub fn free_high_water(&self) -> usize {
        self.free_high_water
    }

    /// Number of record slots held (live + free).
    pub fn capacity(&self) -> usize {
        self.recs.len()
    }

    /// Free what the arena holds beyond its live records: the free
    /// records after the last live one (every record when no token is
    /// live), the value buffers of the free records that stay, and the
    /// spare capacity of both vectors. A free record is exactly one whose
    /// `rc` is 0, so every live id stays valid; the free list keeps its
    /// order. The counters (allocs, frees, both high-water marks) stay as
    /// they are.
    pub fn shrink_to_live(&mut self) {
        let keep = self
            .recs
            .iter()
            .rposition(|r| r.rc > 0)
            .map_or(0, |i| i + 1);
        self.recs.truncate(keep);
        self.free.retain(|id| (id.0 as usize) < keep);
        for &id in &self.free {
            self.recs[id.0 as usize].vals = Vec::new();
        }
        self.recs.shrink_to_fit();
        self.free.shrink_to_fit();
    }

    /// Allocate a record extending `parent` (or a seed when `parent` is
    /// [`TokenId::NONE`]) with matched WME `wme`. The new record has one
    /// reference (the caller's); `parent` gains one (the child's).
    /// Introduced values are appended afterwards via [`Self::push_val`].
    pub fn alloc(&mut self, parent: TokenId, wme: WmeId) -> TokenId {
        let (level, chain_hash) = if parent == TokenId::NONE {
            (0, hashfn::chain_seed(wme))
        } else {
            let p = &mut self.recs[parent.0 as usize];
            p.rc += 1;
            (p.level + 1, hashfn::chain_extend(p.chain_hash, wme))
        };
        self.live += 1;
        self.allocs += 1;
        self.high_water = self.high_water.max(self.live);
        if let Some(id) = self.free.pop() {
            let r = &mut self.recs[id.0 as usize];
            r.parent = parent;
            r.wme = wme;
            r.level = level;
            r.rc = 1;
            r.chain_hash = chain_hash;
            r.vals.clear();
            id
        } else {
            let id = TokenId(u32::try_from(self.recs.len()).expect("token arena full"));
            self.recs.push(TokenRecord {
                parent,
                wme,
                level,
                rc: 1,
                chain_hash,
                vals: Vec::new(),
            });
            id
        }
    }

    /// Append one introduced value to a just-allocated record.
    pub fn push_val(&mut self, t: TokenId, v: Value) {
        self.recs[t.0 as usize].vals.push(v);
    }

    /// Add one reference.
    pub fn retain(&mut self, t: TokenId) {
        self.recs[t.0 as usize].rc += 1;
    }

    /// Drop one reference; freeing cascades up the parent chain.
    pub fn release(&mut self, mut t: TokenId) {
        loop {
            let r = &mut self.recs[t.0 as usize];
            debug_assert!(r.rc > 0, "token refcount underflow");
            r.rc -= 1;
            if r.rc > 0 {
                return;
            }
            let parent = r.parent;
            self.free.push(t);
            self.live -= 1;
            self.frees += 1;
            self.free_high_water = self.free_high_water.max(self.free.len());
            if parent == TokenId::NONE {
                return;
            }
            t = parent;
        }
    }

    /// The chain fingerprint (equality prefilter) of `t`.
    pub fn chain_hash(&self, t: TokenId) -> u64 {
        self.recs[t.0 as usize].chain_hash
    }

    /// Exact structural equality: same WME chain. Fingerprints prefilter;
    /// the chains are walked to rule out hash collisions.
    pub fn chain_eq(&self, a: TokenId, b: TokenId) -> bool {
        if a == b {
            return true;
        }
        let (mut x, mut y) = (&self.recs[a.0 as usize], &self.recs[b.0 as usize]);
        if x.level != y.level || x.chain_hash != y.chain_hash {
            return false;
        }
        loop {
            if x.wme != y.wme {
                return false;
            }
            if x.parent == TokenId::NONE {
                return y.parent == TokenId::NONE;
            }
            if y.parent == TokenId::NONE {
                return false;
            }
            x = self.up(x);
            y = self.up(y);
        }
    }

    /// The record `rec` extends. Each step up a chain drops exactly one
    /// level, so a corrupt arena (a parent cycle) fails this check in a
    /// debug build instead of walking forever; release builds pay nothing.
    #[inline]
    fn up(&self, rec: &TokenRecord) -> &TokenRecord {
        let parent = &self.recs[rec.parent.0 as usize];
        debug_assert_eq!(
            rec.level.checked_sub(1),
            Some(parent.level),
            "token parent is not one level up (corrupt arena)"
        );
        parent
    }

    /// The value bound at compile-time-resolved position `r` of chain `t`.
    pub fn value(&self, t: TokenId, r: VarRef) -> Value {
        let mut rec = &self.recs[t.0 as usize];
        while rec.level > r.level {
            rec = self.up(rec);
        }
        debug_assert_eq!(rec.level, r.level, "VarRef level above token depth");
        rec.vals[r.slot as usize]
    }

    /// Matched WME ids of `t` in positive-CE (root-first) order.
    pub fn wme_ids(&self, t: TokenId) -> Vec<WmeId> {
        let mut out = Vec::new();
        self.wme_ids_into(t, &mut out);
        out
    }

    /// [`TokenArena::wme_ids`] into a caller-owned buffer (overwritten), so
    /// that a caller on the match path allocates nothing per token.
    pub fn wme_ids_into(&self, t: TokenId, out: &mut Vec<WmeId>) {
        let mut rec = &self.recs[t.0 as usize];
        out.clear();
        out.resize(rec.level as usize + 1, WmeId(0));
        loop {
            out[rec.level as usize] = rec.wme;
            if rec.parent == TokenId::NONE {
                return;
            }
            rec = self.up(rec);
        }
    }

    /// Materialize `t` as a self-contained [`FlatToken`] (for shipping to
    /// another arena).
    pub fn extract(&self, t: TokenId) -> FlatToken {
        let top = &self.recs[t.0 as usize];
        let levels = top.level as usize + 1;
        let mut f = FlatToken {
            wmes: vec![WmeId(0); levels],
            lens: vec![0; levels],
            vals: Vec::new(),
        };
        let mut starts = vec![0usize; levels];
        let mut rec = top;
        let mut total = 0;
        loop {
            f.wmes[rec.level as usize] = rec.wme;
            f.lens[rec.level as usize] = rec.vals.len() as u16;
            total += rec.vals.len();
            if rec.parent == TokenId::NONE {
                break;
            }
            rec = self.up(rec);
        }
        let mut at = 0;
        for (i, len) in f.lens.iter().enumerate() {
            starts[i] = at;
            at += *len as usize;
        }
        f.vals.resize(total, Value::Int(0));
        rec = top;
        loop {
            let s = starts[rec.level as usize];
            f.vals[s..s + rec.vals.len()].copy_from_slice(&rec.vals);
            if rec.parent == TokenId::NONE {
                return f;
            }
            rec = self.up(rec);
        }
    }

    /// Rebuild a chain from a [`FlatToken`], returning the top record with
    /// one reference (the caller's).
    pub fn intern(&mut self, f: &FlatToken) -> TokenId {
        debug_assert_eq!(f.wmes.len(), f.lens.len());
        let mut cur = TokenId::NONE;
        let mut at = 0usize;
        for (i, &wme) in f.wmes.iter().enumerate() {
            let t = self.alloc(cur, wme);
            let n = f.lens[i] as usize;
            for &v in &f.vals[at..at + n] {
                self.push_val(t, v);
            }
            at += n;
            if cur != TokenId::NONE {
                // The child's parent reference keeps `cur` alive; drop the
                // loop's ownership.
                self.release(cur);
            }
            cur = t;
        }
        debug_assert_ne!(cur, TokenId::NONE, "flat token must have a level");
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_chain_reconstruction() {
        let mut a = TokenArena::new();
        let seed = a.alloc(TokenId::NONE, WmeId(1));
        a.push_val(seed, Value::Int(10));
        let mid = a.alloc(seed, WmeId(2));
        a.push_val(mid, Value::Int(20));
        a.push_val(mid, Value::sym("q"));
        let top = a.alloc(mid, WmeId(3));
        assert_eq!(a.wme_ids(top), vec![WmeId(1), WmeId(2), WmeId(3)]);
        assert_eq!(a.value(top, VarRef { level: 0, slot: 0 }), Value::Int(10));
        assert_eq!(a.value(top, VarRef { level: 1, slot: 1 }), Value::sym("q"));
        assert_eq!(a.value(mid, VarRef { level: 0, slot: 0 }), Value::Int(10));
    }

    #[test]
    fn arena_refcounting_frees_and_reuses() {
        let mut a = TokenArena::new();
        let seed = a.alloc(TokenId::NONE, WmeId(1));
        let child = a.alloc(seed, WmeId(2));
        assert_eq!(a.live(), 2);
        // Dropping the caller's seed ref keeps it alive through the child.
        a.release(seed);
        assert_eq!(a.live(), 2);
        // Dropping the child cascades to the seed.
        a.release(child);
        assert_eq!(a.live(), 0);
        // Freed slots are recycled.
        let again = a.alloc(TokenId::NONE, WmeId(3));
        assert!(again == seed || again == child);
        assert_eq!(a.live(), 1);
    }

    #[test]
    fn arena_counters_track_allocs_frees_and_high_water() {
        let mut a = TokenArena::new();
        let seed = a.alloc(TokenId::NONE, WmeId(1));
        let child = a.alloc(seed, WmeId(2));
        assert_eq!((a.allocs(), a.frees()), (2, 0));
        assert_eq!(a.high_water(), 2);
        a.release(seed);
        a.release(child); // cascades: frees child then seed
        assert_eq!((a.allocs(), a.frees()), (2, 2));
        assert_eq!(a.live(), 0);
        assert_eq!(a.free_high_water(), 2);
        // Reuse bumps allocs and capacity stays flat.
        let again = a.alloc(TokenId::NONE, WmeId(3));
        assert_eq!(a.allocs(), 3);
        assert_eq!(a.capacity(), 2);
        assert_eq!(a.high_water(), 2, "peak occupancy is sticky");
        a.release(again);
    }

    #[test]
    fn shrink_keeps_live_chains_and_counters() {
        let mut a = TokenArena::new();
        let seed = a.alloc(TokenId::NONE, WmeId(1));
        a.push_val(seed, Value::Int(10));
        let dead = a.alloc(TokenId::NONE, WmeId(2));
        a.push_val(dead, Value::Int(20));
        let top = a.alloc(seed, WmeId(3));
        a.release(seed);
        a.release(dead);
        a.shrink_to_live();
        assert_eq!(a.capacity(), 3, "live records keep their slots");
        assert_eq!(a.recs[dead.0 as usize].vals.capacity(), 0);
        assert_eq!(a.value(top, VarRef { level: 0, slot: 0 }), Value::Int(10));
        assert_eq!(a.wme_ids(top), vec![WmeId(1), WmeId(3)]);
        // A free record whose buffer went is reused like any other.
        let again = a.alloc(TokenId::NONE, WmeId(4));
        a.push_val(again, Value::Int(40));
        assert_eq!(again, dead);
        assert_eq!(a.value(again, VarRef { level: 0, slot: 0 }), Value::Int(40));
        a.release(again);
        a.release(top);
        assert_eq!(a.live(), 0);
        let counters = (a.allocs(), a.frees(), a.high_water(), a.free_high_water());
        a.shrink_to_live();
        assert_eq!(a.capacity(), 0, "an arena with no live token holds nothing");
        assert_eq!(
            (a.allocs(), a.frees(), a.high_water(), a.free_high_water()),
            counters
        );
        let fresh = a.alloc(TokenId::NONE, WmeId(5));
        assert_eq!(fresh, TokenId(0));
        assert_eq!(a.live(), 1);
    }

    #[test]
    fn shrink_trims_the_free_tail_and_keeps_live_ids() {
        let mut a = TokenArena::new();
        let seed = a.alloc(TokenId::NONE, WmeId(1));
        a.push_val(seed, Value::Int(10));
        let early = a.alloc(TokenId::NONE, WmeId(2));
        let top = a.alloc(seed, WmeId(3));
        let tail = [
            a.alloc(TokenId::NONE, WmeId(4)),
            a.alloc(TokenId::NONE, WmeId(5)),
        ];
        a.release(seed); // `top` still holds it
        a.release(tail[0]);
        a.release(early);
        a.release(tail[1]);
        assert_eq!(a.capacity(), 5);
        a.shrink_to_live();
        assert_eq!(
            a.capacity(),
            3,
            "the free records after the last live one go"
        );
        assert_eq!(
            a.free,
            [early],
            "the free list keeps only ids below the new length"
        );
        assert_eq!(a.live(), 2);
        assert_eq!(a.value(top, VarRef { level: 0, slot: 0 }), Value::Int(10));
        assert_eq!(a.wme_ids(top), vec![WmeId(1), WmeId(3)]);
        assert_eq!(
            a.alloc(TokenId::NONE, WmeId(6)),
            early,
            "a kept free slot first"
        );
        assert_eq!(a.alloc(TokenId::NONE, WmeId(7)), TokenId(3), "then a push");
    }

    #[test]
    fn chain_equality_is_structural() {
        let mut a = TokenArena::new();
        let s1 = a.alloc(TokenId::NONE, WmeId(1));
        let t1 = a.alloc(s1, WmeId(2));
        let s2 = a.alloc(TokenId::NONE, WmeId(1));
        let t2 = a.alloc(s2, WmeId(2));
        let s3 = a.alloc(TokenId::NONE, WmeId(1));
        let t3 = a.alloc(s3, WmeId(3));
        assert!(a.chain_eq(t1, t2), "distinct records, same chain");
        assert!(!a.chain_eq(t1, t3));
        assert!(!a.chain_eq(t1, s1), "different depth");
        assert_eq!(a.chain_hash(t1), a.chain_hash(t2));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not one level up")]
    fn a_parent_cycle_is_caught_not_walked_forever() {
        let mut a = TokenArena::new();
        let seed = a.alloc(TokenId::NONE, WmeId(1));
        let top = a.alloc(seed, WmeId(2));
        // Corrupt the arena: the seed now points back at its child.
        a.recs[seed.0 as usize].parent = top;
        a.wme_ids(top);
    }

    #[test]
    fn flat_token_roundtrip() {
        let mut a = TokenArena::new();
        let seed = a.alloc(TokenId::NONE, WmeId(7));
        a.push_val(seed, Value::sym("a"));
        let top = a.alloc(seed, WmeId(9));
        a.push_val(top, Value::Int(4));
        a.push_val(top, Value::Int(5));
        let flat = a.extract(top);
        assert_eq!(flat.wmes, vec![WmeId(7), WmeId(9)]);
        assert_eq!(flat.lens, vec![1, 2]);
        assert_eq!(
            flat.vals,
            vec![Value::sym("a"), Value::Int(4), Value::Int(5)]
        );

        let mut b = TokenArena::new();
        let t = b.intern(&flat);
        assert_eq!(b.live(), 2);
        assert_eq!(b.wme_ids(t), vec![WmeId(7), WmeId(9)]);
        assert_eq!(b.value(t, VarRef { level: 1, slot: 1 }), Value::Int(5));
        assert_eq!(b.chain_hash(t), a.chain_hash(top));
        // One release drains the whole interned chain.
        b.release(t);
        assert_eq!(b.live(), 0);
    }
}
