//! The matcher abstraction: anything that can maintain a conflict set.
//!
//! The interpreter drives a [`Matcher`] with working-memory deltas; the
//! matcher answers with the instantiation that fires
//! ([`Matcher::select`]), or with a sorted snapshot of its whole conflict
//! set. Implementations in this workspace:
//!
//! * [`crate::NaiveMatcher`] — brute-force recomputation (the semantic
//!   reference);
//! * `mpps_rete::ReteMatcher` — the sequential hashed-memory Rete engine;
//! * [`crate::TreatMatcher`] — the TREAT algorithm (alpha memories plus
//!   conflict set, no beta state; the paper's reference \[30\]);
//! * `mpps_core::ThreadedMatcher` — the paper's distributed-hash-table
//!   mapping running on real threads with message passing.
//!
//! Property tests and the `mpps-difftest` differential fuzzer assert all
//! four produce identical conflict sets on the same change schedules.

use crate::conflict::{self, Strategy};
use crate::error::MatchError;
use crate::production::{ProductionId, Program};
use crate::wme::{Sign, Wme, WmeId};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One working-memory change: an addition or deletion of a concrete WME.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WmeChange {
    /// Add or delete.
    pub sign: Sign,
    /// The element's time tag.
    pub id: WmeId,
    /// The element itself, shared with working memory and every matcher
    /// memory that stores it. Carried even on deletion so matchers don't
    /// need to keep a WM mirror (though they may).
    pub wme: Arc<Wme>,
}

impl WmeChange {
    /// Convenience constructor for an addition.
    pub fn add(id: WmeId, wme: impl Into<Arc<Wme>>) -> Self {
        WmeChange {
            sign: Sign::Plus,
            id,
            wme: wme.into(),
        }
    }

    /// Convenience constructor for a deletion.
    pub fn remove(id: WmeId, wme: impl Into<Arc<Wme>>) -> Self {
        WmeChange {
            sign: Sign::Minus,
            id,
            wme: wme.into(),
        }
    }
}

/// A production instantiation: which production the WMEs satisfy, and the
/// time tags of those WMEs. Nothing else — the variable bindings are
/// derived only for the instantiation that fires ([`Production::bindings`]).
///
/// One immutable shared allocation: `clone()` is a reference-count bump, so
/// a conflict store can hand out the winner of a cycle, or a snapshot of
/// the whole set, and the refraction memory can keep what fired, without
/// copying an id vector. Identity — `Eq`, `Hash` and `Ord` — is
/// `(production, wme_ids)`; the `Ord` order is the canonical order
/// [`Matcher::conflict_set`] returns.
///
/// [`Production::bindings`]: crate::Production::bindings
#[derive(Clone, Debug)]
pub struct Instantiation(
    /// The production id in the first slot, then `wme_ids`, then the same
    /// tags sorted descending (the LEX recency vector); each half is
    /// `(len - 1) / 2` long.
    Arc<[WmeId]>,
);

impl Instantiation {
    /// Build the record for `production` satisfied by `wme_ids` (time tags
    /// of the WMEs matching the non-negated CEs, in CE order). The recency
    /// vector is computed here, once.
    pub fn new(production: ProductionId, wme_ids: &[WmeId]) -> Self {
        let n = wme_ids.len();
        // An exact-size chain: `Arc<[_]>` collects it in one allocation.
        let mut ids: Arc<[WmeId]> = std::iter::once(WmeId(u64::from(production.0)))
            .chain(wme_ids.iter().copied())
            .chain(wme_ids.iter().copied())
            .collect();
        let fresh = Arc::get_mut(&mut ids).expect("a fresh Arc is unique");
        fresh[1 + n..].sort_unstable_by(|a, b| b.cmp(a));
        Instantiation(ids)
    }

    /// Which production is satisfied.
    pub fn production(&self) -> ProductionId {
        ProductionId(self.0[0].0 as u32)
    }

    /// Time tags of the WMEs matching the non-negated CEs, in CE order.
    pub fn wme_ids(&self) -> &[WmeId] {
        &self.0[1..1 + self.0.len() / 2]
    }

    /// The same time tags sorted descending — the LEX recency vector.
    pub fn recency(&self) -> &[WmeId] {
        &self.0[1 + self.0.len() / 2..]
    }

    /// Identity key for refraction and set comparison: a production fired
    /// with the same WME combination is the same instantiation regardless
    /// of how the matcher derived it.
    pub fn key(&self) -> (ProductionId, Vec<WmeId>) {
        (self.production(), self.wme_ids().to_vec())
    }
}

/// The identity of an instantiation, borrowed: what a hashed store keyed
/// by [`Instantiation`] is probed with when only the production and the
/// time tags are at hand (a retraction), so that the probe builds no record.
pub trait InstantiationKey {
    /// [`Instantiation::key`] without the copy.
    fn key_ref(&self) -> (ProductionId, &[WmeId]);
}

impl InstantiationKey for Instantiation {
    fn key_ref(&self) -> (ProductionId, &[WmeId]) {
        (self.production(), self.wme_ids())
    }
}

impl InstantiationKey for (ProductionId, &[WmeId]) {
    fn key_ref(&self) -> (ProductionId, &[WmeId]) {
        *self
    }
}

impl<'a> Borrow<dyn InstantiationKey + 'a> for Instantiation {
    fn borrow(&self) -> &(dyn InstantiationKey + 'a) {
        self
    }
}

impl PartialEq for dyn InstantiationKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key_ref() == other.key_ref()
    }
}

impl Eq for dyn InstantiationKey + '_ {}

/// Hashes exactly as [`Instantiation`] does, so a borrowed key finds its
/// record in a hashed store.
impl Hash for dyn InstantiationKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key_ref().hash(state);
    }
}

impl PartialEq for Instantiation {
    fn eq(&self, other: &Self) -> bool {
        self.key_ref() == other.key_ref()
    }
}

impl Eq for Instantiation {}

impl Hash for Instantiation {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key_ref().hash(state);
    }
}

impl PartialOrd for Instantiation {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Instantiation {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key_ref().cmp(&other.key_ref())
    }
}

impl fmt::Display for Instantiation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", self.production())?;
        for (i, id) in self.wme_ids().iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, "]")
    }
}

/// Maintains the conflict set of a fixed program under WM deltas.
pub trait Matcher {
    /// Apply a batch of WM changes (one MRA cycle's act-phase output).
    ///
    /// Infallible by contract: a matcher that *can* fail (a distributed
    /// one losing a worker thread) must panic here with context rather
    /// than hang — callers that want the failure as a value use
    /// [`Matcher::try_process`].
    fn process(&mut self, changes: &[WmeChange]);

    /// Like [`Matcher::process`], but surfaces match-phase failures as a
    /// typed [`MatchError`] instead of panicking. The default forwards to
    /// `process` (sequential matchers cannot fail); fallible matchers
    /// override it and implement `process` on top.
    fn try_process(&mut self, changes: &[WmeChange]) -> Result<(), MatchError> {
        self.process(changes);
        Ok(())
    }

    /// A snapshot of the current conflict set, in [`Instantiation`]'s `Ord`
    /// order — ascending `(production, wme_ids)` — so that different
    /// matchers are directly comparable. Not on the cycle path (that is
    /// [`Matcher::select`]): stores keep no order and sort on demand.
    fn conflict_set(&self) -> Vec<Instantiation>;

    /// The instantiation that fires under `strategy`: the maximum under
    /// [`conflict::compare`] among the entries that are not `refracted`,
    /// exactly [`conflict::select`] over [`Matcher::conflict_set`] — which
    /// is the default. Matchers that hold their set override it to walk
    /// the store in place, so a cycle copies nothing but the winner.
    fn select(
        &self,
        program: &Program,
        strategy: Strategy,
        refracted: &dyn Fn(&Instantiation) -> bool,
    ) -> Option<Instantiation> {
        conflict::select(program, strategy, &self.conflict_set(), refracted).cloned()
    }
}

/// Boxed matchers forward — this lets heterogeneous matcher collections
/// (e.g. the differential oracle) drive `Interpreter<Box<dyn Matcher>>`.
impl Matcher for Box<dyn Matcher> {
    fn process(&mut self, changes: &[WmeChange]) {
        (**self).process(changes)
    }

    fn try_process(&mut self, changes: &[WmeChange]) -> Result<(), MatchError> {
        (**self).try_process(changes)
    }

    fn conflict_set(&self) -> Vec<Instantiation> {
        (**self).conflict_set()
    }

    fn select(
        &self,
        program: &Program,
        strategy: Strategy,
        refracted: &dyn Fn(&Instantiation) -> bool,
    ) -> Option<Instantiation> {
        (**self).select(program, strategy, refracted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(p: u32, ids: &[u64]) -> Instantiation {
        let ids: Vec<WmeId> = ids.iter().map(|&i| WmeId(i)).collect();
        Instantiation::new(ProductionId(p), &ids)
    }

    #[test]
    fn production_and_ids_round_trip_at_the_limits() {
        let i = Instantiation::new(ProductionId(u32::MAX), &[WmeId(u64::MAX)]);
        assert_eq!(i.production(), ProductionId(u32::MAX));
        assert_eq!(i.wme_ids(), [WmeId(u64::MAX)]);
        let empty = Instantiation::new(ProductionId(3), &[]);
        assert_eq!(empty.production(), ProductionId(3));
        assert!(empty.wme_ids().is_empty() && empty.recency().is_empty());
    }

    #[test]
    fn recency_sorted_descending_and_wme_ids_kept_in_ce_order() {
        let i = inst(0, &[3, 9, 1]);
        assert_eq!(i.wme_ids(), [WmeId(3), WmeId(9), WmeId(1)]);
        assert_eq!(i.recency(), [WmeId(9), WmeId(3), WmeId(1)]);
        assert_eq!(
            i.key(),
            (ProductionId(0), vec![WmeId(3), WmeId(9), WmeId(1)])
        );
    }

    #[test]
    fn clone_shares_the_record() {
        // Stores hand out winners and snapshots by cloning: a clone must
        // stay a reference-count bump, never a copy of the ids.
        let a = inst(0, &[1, 2]);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.0, &b.0));
    }

    #[test]
    fn order_is_by_production_then_ids() {
        let mut v = vec![inst(1, &[1]), inst(0, &[9]), inst(0, &[2])];
        v.sort();
        assert_eq!(v, vec![inst(0, &[2]), inst(0, &[9]), inst(1, &[1])]);
    }

    #[test]
    fn display_shape() {
        assert_eq!(inst(2, &[4, 7]).to_string(), "p2[t4 t7]");
    }
}
