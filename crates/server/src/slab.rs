//! Slab-allocated session routing: dense `SessionId -> worker` lookup
//! with generation-checked ids.
//!
//! At 1M sessions the admission-path hash map (`HashMap<u64, usize>`)
//! costs a probe chain and ~48 bytes per entry; the slab replaces it with
//! one `Vec` indexed by the id's slot — O(1) lookup, 8 bytes per slot,
//! and free slots recycled through an intrusive free list (the same
//! fixed-footprint shape the QCDSP design imposes per node).
//!
//! A [`crate::SessionId`] packs `generation << 32 | slot`. Destroying a
//! session bumps the slot's generation, so a handle kept past destroy is
//! detected *by type* on its next use ([`RouteError::Stale`]) instead of
//! silently addressing whichever session reused the slot. Fresh servers
//! hand out generation-0 ids, so slot 0 is still session `s0` — the
//! wire-visible id sequence only diverges once slots are actually reused.
//!
//! The slab also keeps the live-session count per worker
//! ([`RouteSlab::live_on`]) — the number placement reads. It is
//! maintained by the same `insert` / `remove` that change a route, so
//! there is no second ledger that could drift from it.
//!
//! A lookup failure is a typed [`RouteError`], so the module denies
//! `unwrap`, `expect` and `panic!` outside tests.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::session::SessionId;

/// Why a slab lookup failed — mapped to typed [`crate::ServerError`]s by
/// the server.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteError {
    /// The slot was reused (or freed) since this id was issued: the
    /// handle is from a previous generation.
    Stale(SessionId),
    /// The id was never issued by this slab (slot out of range or a
    /// generation from the future), or named a destroyed session whose
    /// slot has not been reused.
    Unknown(SessionId),
}

#[derive(Clone, Copy, Debug)]
struct RouteSlot {
    /// Generation the *current* (or next, when vacant) occupant carries.
    generation: u32,
    /// Worker the live occupant is pinned to.
    worker: u32,
    live: bool,
}

/// The dense routing table: slot-indexed worker ownership, a free list
/// of reusable slots, and the live count per worker.
#[derive(Clone, Debug, Default)]
pub struct RouteSlab {
    slots: Vec<RouteSlot>,
    free: Vec<u32>,
    live: usize,
    /// Live sessions pinned to each worker; grown on first use.
    live_per_worker: Vec<usize>,
}

impl RouteSlab {
    /// An empty slab.
    pub fn new() -> RouteSlab {
        RouteSlab::default()
    }

    /// Live sessions.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no session is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Live sessions pinned to `worker`. Sums to [`RouteSlab::len`] over
    /// all workers.
    pub fn live_on(&self, worker: usize) -> usize {
        self.live_per_worker.get(worker).copied().unwrap_or(0)
    }

    /// Allocated slot capacity (live + reusable).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The id the next [`RouteSlab::insert`] will return. Admission names
    /// the id in its `Overloaded` rejection *before* committing (a
    /// saturated worker rejects without consuming the id), so peek and
    /// insert are split; peek is stable until the next insert or free.
    pub fn peek_next(&self) -> SessionId {
        match self.free.last() {
            Some(&slot) => SessionId::pack(slot, self.slots[slot as usize].generation),
            None => SessionId::pack(self.slots.len() as u32, 0),
        }
    }

    /// Allocate the peeked id, pinned to `worker`.
    pub fn insert(&mut self, worker: usize) -> SessionId {
        let id = self.peek_next();
        let slot = id.slot() as usize;
        if slot == self.slots.len() {
            self.slots.push(RouteSlot {
                generation: 0,
                worker: worker as u32,
                live: true,
            });
        } else {
            self.free.pop();
            let entry = &mut self.slots[slot];
            debug_assert!(!entry.live, "free list pointed at a live slot");
            entry.worker = worker as u32;
            entry.live = true;
        }
        self.live += 1;
        *self.live_on_mut(worker) += 1;
        id
    }

    fn live_on_mut(&mut self, worker: usize) -> &mut usize {
        if worker >= self.live_per_worker.len() {
            self.live_per_worker.resize(worker + 1, 0);
        }
        &mut self.live_per_worker[worker]
    }

    /// The worker `id` is pinned to.
    pub fn get(&self, id: SessionId) -> Result<usize, RouteError> {
        let entry = self
            .slots
            .get(id.slot() as usize)
            .ok_or(RouteError::Unknown(id))?;
        if entry.generation != id.generation() {
            return if id.generation() < entry.generation {
                Err(RouteError::Stale(id))
            } else {
                Err(RouteError::Unknown(id))
            };
        }
        if !entry.live {
            return Err(RouteError::Unknown(id));
        }
        Ok(entry.worker as usize)
    }

    /// Free a live session's slot, bumping its generation so the freed id
    /// is detectably stale from now on.
    pub fn remove(&mut self, id: SessionId) -> Result<usize, RouteError> {
        let worker = self.get(id)?;
        let entry = &mut self.slots[id.slot() as usize];
        entry.live = false;
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(id.slot());
        self.live -= 1;
        self.live_per_worker[worker] -= 1;
        Ok(worker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ids_are_dense_and_generation_zero() {
        let mut slab = RouteSlab::new();
        for i in 0..4u64 {
            assert_eq!(slab.peek_next(), SessionId(i));
            let id = slab.insert(i as usize % 2);
            assert_eq!(id, SessionId(i), "fresh ids must match the legacy sequence");
            assert_eq!(id.generation(), 0);
        }
        assert_eq!(slab.len(), 4);
        assert_eq!(slab.get(SessionId(2)), Ok(0));
    }

    #[test]
    fn freed_slots_are_reused_with_a_bumped_generation() {
        let mut slab = RouteSlab::new();
        let a = slab.insert(0);
        let b = slab.insert(1);
        assert_eq!(slab.remove(a), Ok(0));
        let c = slab.insert(2);
        assert_eq!(c.slot(), a.slot(), "slot must be recycled");
        assert_eq!(c.generation(), 1);
        assert_ne!(c, a);
        // The stale handle is a typed error, and the new occupant is not
        // confused with it.
        assert_eq!(slab.get(a), Err(RouteError::Stale(a)));
        assert_eq!(slab.get(c), Ok(2));
        assert_eq!(slab.get(b), Ok(1));
        assert_eq!(slab.capacity(), 2);
    }

    #[test]
    fn never_issued_ids_are_unknown_not_stale() {
        let mut slab = RouteSlab::new();
        let a = slab.insert(0);
        assert_eq!(
            slab.get(SessionId::pack(9, 0)),
            Err(RouteError::Unknown(SessionId::pack(9, 0)))
        );
        let future = SessionId::pack(a.slot(), 7);
        assert_eq!(slab.get(future), Err(RouteError::Unknown(future)));
        // Freed but not reused: Stale (the generation moved past it).
        slab.remove(a).unwrap();
        assert_eq!(slab.get(a), Err(RouteError::Stale(a)));
    }

    #[test]
    fn membership_follows_insert_and_remove() {
        let mut slab = RouteSlab::new();
        let a = slab.insert(0);
        let b = slab.insert(1);
        let c = slab.insert(0);
        slab.remove(b).unwrap();
        assert_eq!(slab.len(), 2);
        assert_eq!([a, c].map(|id| slab.get(id)), [Ok(0), Ok(0)]);
        assert_eq!(slab.get(b), Err(RouteError::Stale(b)));
    }

    #[test]
    fn per_worker_counts_follow_every_route_change() {
        let counts = |slab: &RouteSlab| [0, 1, 2, 3].map(|w| slab.live_on(w));
        let mut slab = RouteSlab::new();
        assert_eq!(counts(&slab), [0, 0, 0, 0]);
        let a = slab.insert(0);
        let b = slab.insert(2);
        let c = slab.insert(2);
        assert_eq!(counts(&slab), [1, 0, 2, 0]);
        assert_eq!(slab.remove(b), Ok(2));
        assert_eq!(counts(&slab), [1, 0, 1, 0]);
        // A failed remove of the stale handle changes nothing.
        assert!(slab.remove(b).is_err());
        assert_eq!(counts(&slab), [1, 0, 1, 0]);
        // The reused slot counts for its new worker, not its old one.
        let d = slab.insert(3);
        assert_eq!(d.slot(), b.slot());
        assert_eq!(counts(&slab), [1, 0, 1, 1]);
        for id in [a, c, d] {
            slab.remove(id).unwrap();
        }
        assert_eq!(counts(&slab), [0, 0, 0, 0]);
        assert!(slab.is_empty());
    }
}
