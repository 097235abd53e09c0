//! Worker-side session storage: a slot-indexed table with an intrusive
//! LRU list and snapshot-to-disk eviction.
//!
//! Each worker owns one [`SessionTable`]. Slots are indexed by the
//! session id's slab slot (server-global, so the table length tracks the
//! server's peak concurrent sessions — a vacant slot is 24 bytes), and
//! every occupied slot is either **resident** (a live [`Session`] boxed
//! off the table) or **evicted** (its versioned snapshot sits in a file
//! under the worker's eviction directory). Residency is managed by an
//! intrusive doubly-linked LRU list threaded through the slots: touching
//! a session is O(1), and when the resident count exceeds the configured
//! budget the list tail is snapshotted to disk. The next request for an
//! evicted session faults it back in transparently — decode, replay into
//! a fresh matcher, delete the spill file.
//!
//! This is the fixed-per-node-memory discipline the QCDSP line of work
//! builds around, applied to session state: the worker's resident
//! footprint is `budget × session`, not `sessions × session`, which is
//! what lets one box hold a 1M-session id space.

use crate::session::{Session, SessionId};
use crate::snapshot::SnapshotError;
use mpps_ops::Program;
use mpps_rete::{EngineConfig, ReteNetwork};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// Sentinel for "no link" in the intrusive LRU list.
const NIL: u32 = u32::MAX;

/// Everything a fault-in needs to rebuild a [`Session`] from snapshot
/// bytes: the worker's shared compiled artifacts.
pub(crate) struct SessionEnv {
    pub program: Arc<Program>,
    pub network: Arc<ReteNetwork>,
    pub engine: EngineConfig,
    pub fingerprint: u64,
}

impl SessionEnv {
    fn rebuild(&self, bytes: &[u8]) -> Result<Session, StoreError> {
        Session::restore(
            Arc::clone(&self.program),
            Arc::clone(&self.network),
            self.engine,
            self.fingerprint,
            bytes,
        )
        .map_err(|e| StoreError::Restore(e.to_string()))
    }
}

/// Why a table operation failed. Stringified into `Reply::Failed` by the
/// worker loop.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum StoreError {
    /// No current occupant carries this id (never created here, or
    /// destroyed).
    Unknown(SessionId),
    /// The slot has moved past this id's generation: the handle is stale.
    Stale(SessionId),
    /// The slot already holds a live occupant (an admission protocol
    /// breach — the server must never double-assign a slot).
    Occupied(SessionId),
    /// Snapshot encoding refused (e.g. [`SnapshotError::TooLarge`]).
    Snapshot(SnapshotError),
    /// The spill file could not be written, read or deleted.
    Io(String),
    /// The spilled snapshot no longer decodes/replays (disk corruption —
    /// our own encoder wrote it, so this is never a format mismatch).
    Restore(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Unknown(id) => write!(f, "unknown session {id}"),
            StoreError::Stale(id) => write!(f, "stale session handle {id}"),
            StoreError::Occupied(id) => write!(f, "slot for {id} already occupied"),
            StoreError::Snapshot(e) => write!(f, "eviction snapshot: {e}"),
            StoreError::Io(msg) => write!(f, "eviction i/o: {msg}"),
            StoreError::Restore(msg) => write!(f, "fault-in: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<SnapshotError> for StoreError {
    fn from(e: SnapshotError) -> Self {
        StoreError::Snapshot(e)
    }
}

struct EvictedSession {
    path: PathBuf,
    bytes: u64,
}

enum Residency {
    Vacant,
    Resident(Box<Session>),
    Evicted(Box<EvictedSession>),
}

struct TableSlot {
    generation: u32,
    prev: u32,
    next: u32,
    residency: Residency,
}

impl TableSlot {
    fn vacant() -> TableSlot {
        TableSlot {
            generation: 0,
            prev: NIL,
            next: NIL,
            residency: Residency::Vacant,
        }
    }
}

/// What `enforce_budget` did.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub(crate) struct EvictionSweep {
    /// Sessions snapshotted to disk.
    pub evicted: u64,
    /// Snapshot bytes written.
    pub bytes: u64,
    /// Candidates that could not be evicted (snapshot or I/O failure) and
    /// were kept resident instead.
    pub failed: u64,
}

/// The worker's session table. See the [module docs](self).
pub(crate) struct SessionTable {
    slots: Vec<TableSlot>,
    /// Most-recently-used resident slot.
    head: u32,
    /// Least-recently-used resident slot — the next eviction victim.
    tail: u32,
    resident: usize,
    evicted: usize,
    budget: Option<usize>,
    /// This worker's spill directory; created on first eviction.
    dir: PathBuf,
    dir_ready: bool,
}

impl SessionTable {
    pub fn new(budget: Option<usize>, dir: PathBuf) -> SessionTable {
        SessionTable {
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            resident: 0,
            evicted: 0,
            budget,
            dir,
            dir_ready: false,
        }
    }

    /// Sessions this table holds (resident + evicted).
    pub fn len(&self) -> usize {
        self.resident + self.evicted
    }

    pub fn resident_count(&self) -> usize {
        self.resident
    }

    pub fn evicted_count(&self) -> usize {
        self.evicted
    }

    fn slot_checked(&self, id: SessionId) -> Result<usize, StoreError> {
        let at = id.slot() as usize;
        let slot = self.slots.get(at).ok_or(StoreError::Unknown(id))?;
        if slot.generation != id.generation() {
            return if id.generation() < slot.generation {
                Err(StoreError::Stale(id))
            } else {
                Err(StoreError::Unknown(id))
            };
        }
        if matches!(slot.residency, Residency::Vacant) {
            return Err(StoreError::Unknown(id));
        }
        Ok(at)
    }

    // ---- intrusive LRU list ------------------------------------------

    fn unlink(&mut self, at: usize) {
        let (prev, next) = (self.slots[at].prev, self.slots[at].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
        self.slots[at].prev = NIL;
        self.slots[at].next = NIL;
    }

    fn link_front(&mut self, at: usize) {
        self.slots[at].prev = NIL;
        self.slots[at].next = self.head;
        match self.head {
            NIL => self.tail = at as u32,
            h => self.slots[h as usize].prev = at as u32,
        }
        self.head = at as u32;
    }

    fn touch(&mut self, at: usize) {
        if self.head == at as u32 {
            return;
        }
        self.unlink(at);
        self.link_front(at);
    }

    // ---- spill files --------------------------------------------------

    fn spill_path(&self, id: SessionId) -> PathBuf {
        self.dir
            .join(format!("s{}-g{}.snap", id.slot(), id.generation()))
    }

    fn write_spill(&mut self, id: SessionId, bytes: &[u8]) -> Result<PathBuf, StoreError> {
        if !self.dir_ready {
            std::fs::create_dir_all(&self.dir)
                .map_err(|e| StoreError::Io(format!("create {}: {e}", self.dir.display())))?;
            self.dir_ready = true;
        }
        let path = self.spill_path(id);
        std::fs::write(&path, bytes)
            .map_err(|e| StoreError::Io(format!("write {}: {e}", path.display())))?;
        Ok(path)
    }

    fn read_spill(path: &PathBuf) -> Result<Vec<u8>, StoreError> {
        std::fs::read(path).map_err(|e| StoreError::Io(format!("read {}: {e}", path.display())))
    }

    // ---- public operations --------------------------------------------

    /// Install a freshly created or restored session under `id`.
    pub fn insert(&mut self, id: SessionId, session: Session) -> Result<(), StoreError> {
        let at = id.slot() as usize;
        if at >= self.slots.len() {
            self.slots.resize_with(at + 1, TableSlot::vacant);
        }
        if !matches!(self.slots[at].residency, Residency::Vacant) {
            return Err(StoreError::Occupied(id));
        }
        self.slots[at].generation = id.generation();
        self.slots[at].residency = Residency::Resident(Box::new(session));
        self.resident += 1;
        self.link_front(at);
        Ok(())
    }

    /// Borrow a session mutably, faulting it in from disk if evicted.
    /// Returns the session and whether a fault-in happened.
    pub fn get_mut(
        &mut self,
        id: SessionId,
        env: &SessionEnv,
    ) -> Result<(&mut Session, bool), StoreError> {
        let at = self.slot_checked(id)?;
        let faulted = if matches!(self.slots[at].residency, Residency::Evicted(_)) {
            let Residency::Evicted(info) =
                std::mem::replace(&mut self.slots[at].residency, Residency::Vacant)
            else {
                unreachable!()
            };
            let bytes = match Self::read_spill(&info.path) {
                Ok(bytes) => bytes,
                Err(e) => {
                    self.slots[at].residency = Residency::Evicted(info);
                    return Err(e);
                }
            };
            let session = match env.rebuild(&bytes) {
                Ok(session) => session,
                Err(e) => {
                    self.slots[at].residency = Residency::Evicted(info);
                    return Err(e);
                }
            };
            let _ = std::fs::remove_file(&info.path);
            self.slots[at].residency = Residency::Resident(Box::new(session));
            self.evicted -= 1;
            self.resident += 1;
            self.link_front(at);
            true
        } else {
            self.touch(at);
            false
        };
        match &mut self.slots[at].residency {
            Residency::Resident(session) => Ok((session, faulted)),
            _ => unreachable!("slot was just made resident"),
        }
    }

    /// Snapshot bytes for `id` without changing residency: a resident
    /// session is encoded in place, an evicted one is read straight from
    /// its spill file (no fault-in).
    pub fn snapshot_bytes(&mut self, id: SessionId) -> Result<Vec<u8>, StoreError> {
        let at = self.slot_checked(id)?;
        match &self.slots[at].residency {
            Residency::Resident(session) => {
                let bytes = session.snapshot()?;
                self.touch(at);
                Ok(bytes)
            }
            Residency::Evicted(info) => Self::read_spill(&info.path),
            Residency::Vacant => unreachable!("slot_checked rejects vacant slots"),
        }
    }

    /// Destroy `id`: drop a resident session, or delete an evicted one's
    /// spill file without reading it back.
    pub fn remove(&mut self, id: SessionId) -> Result<(), StoreError> {
        let at = self.slot_checked(id)?;
        match std::mem::replace(&mut self.slots[at].residency, Residency::Vacant) {
            Residency::Resident(_) => {
                self.unlink(at);
                self.resident -= 1;
            }
            Residency::Evicted(info) => {
                let _ = std::fs::remove_file(&info.path);
                self.evicted -= 1;
            }
            Residency::Vacant => unreachable!("slot_checked rejects vacant slots"),
        }
        Ok(())
    }

    /// Evict one specific resident session to disk now. Returns the
    /// snapshot size written (or the existing spill size if already
    /// evicted).
    pub fn evict_now(&mut self, id: SessionId) -> Result<u64, StoreError> {
        let at = self.slot_checked(id)?;
        match &self.slots[at].residency {
            Residency::Evicted(info) => Ok(info.bytes),
            Residency::Resident(session) => {
                let bytes = session.snapshot()?;
                let path = self.write_spill(id, &bytes)?;
                let written = bytes.len() as u64;
                self.unlink(at);
                self.resident -= 1;
                self.evicted += 1;
                self.slots[at].residency = Residency::Evicted(Box::new(EvictedSession {
                    path,
                    bytes: written,
                }));
                Ok(written)
            }
            Residency::Vacant => unreachable!("slot_checked rejects vacant slots"),
        }
    }

    /// Evict least-recently-used residents until the resident count is
    /// within budget. A victim whose snapshot or spill write fails is
    /// kept resident (and rotated to the front so the sweep still
    /// terminates); the sweep reports how many failed that way.
    pub fn enforce_budget(&mut self) -> EvictionSweep {
        let mut sweep = EvictionSweep::default();
        let Some(budget) = self.budget else {
            return sweep;
        };
        let mut failures_rotated = 0usize;
        while self.resident > budget + failures_rotated && self.tail != NIL {
            let at = self.tail as usize;
            let id = SessionId::pack(at as u32, self.slots[at].generation);
            match self.evict_now(id) {
                Ok(written) => {
                    sweep.evicted += 1;
                    sweep.bytes += written;
                }
                Err(_) => {
                    sweep.failed += 1;
                    failures_rotated += 1;
                    self.touch(at);
                }
            }
        }
        sweep
    }

    /// Delete every remaining spill file (worker shutdown).
    pub fn cleanup(&mut self) {
        for slot in &mut self.slots {
            if let Residency::Evicted(info) =
                std::mem::replace(&mut slot.residency, Residency::Vacant)
            {
                let _ = std::fs::remove_file(&info.path);
            }
        }
        if self.dir_ready {
            let _ = std::fs::remove_dir(&self.dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpps_ops::{parse_program, Strategy, Wme};
    use mpps_rete::ReteNetwork;

    fn env() -> SessionEnv {
        let program = parse_program("(p bump (n ^v <v>) --> (modify 1 ^v (+ <v> 1)))").unwrap();
        let fingerprint = crate::snapshot::program_fingerprint(&program);
        let program = Arc::new(program);
        let network = Arc::new(ReteNetwork::compile(&program).unwrap());
        SessionEnv {
            program,
            network,
            engine: EngineConfig {
                table_size: 16,
                record_trace: false,
            },
            fingerprint,
        }
    }

    fn session(env: &SessionEnv, seed: i64) -> Session {
        let mut s = Session::new(
            Arc::clone(&env.program),
            Arc::clone(&env.network),
            Strategy::Lex,
            env.engine,
            env.fingerprint,
        );
        s.ingest([Wme::new("tag", &[("seed", seed.into())])]);
        s.run(8).unwrap();
        s
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mpps-store-{name}-{}", std::process::id()))
    }

    #[test]
    fn budget_evicts_lru_and_faults_back_in_byte_equal() {
        let env = env();
        let mut table = SessionTable::new(Some(2), tmp("lru"));
        let ids: Vec<SessionId> = (0..4).map(|slot| SessionId::pack(slot, 0)).collect();
        let mut originals = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let s = session(&env, i as i64);
            originals.push(s.snapshot().unwrap());
            table.insert(id, s).unwrap();
        }
        let sweep = table.enforce_budget();
        assert_eq!(sweep.evicted, 2);
        assert_eq!(sweep.failed, 0);
        assert_eq!(table.resident_count(), 2);
        assert_eq!(table.evicted_count(), 2);
        // Insert order means sessions 0 and 1 are the LRU victims.
        assert_eq!(table.snapshot_bytes(ids[0]).unwrap(), originals[0]);
        // Fault-in restores the exact state and reclaims residency.
        let (s0, faulted) = table.get_mut(ids[0], &env).unwrap();
        assert!(faulted);
        assert_eq!(s0.snapshot().unwrap(), originals[0]);
        assert_eq!(table.resident_count(), 3);
        let (_, faulted_again) = table.get_mut(ids[0], &env).unwrap();
        assert!(!faulted_again);
        // Now over budget again: the sweep picks the new LRU tail (2),
        // not the just-touched 0.
        let sweep = table.enforce_budget();
        assert_eq!(sweep.evicted, 1);
        let (_, faulted) = table.get_mut(ids[0], &env).unwrap();
        assert!(!faulted, "recently used session must not be the victim");
        table.cleanup();
    }

    #[test]
    fn stale_and_unknown_ids_are_typed() {
        let env = env();
        let mut table = SessionTable::new(None, tmp("gen"));
        let old = SessionId::pack(0, 0);
        table.insert(old, session(&env, 1)).unwrap();
        table.remove(old).unwrap();
        let new = SessionId::pack(0, 1);
        table.insert(new, session(&env, 2)).unwrap();
        assert_eq!(
            table.get_mut(old, &env).map(|_| ()),
            Err(StoreError::Stale(old))
        );
        assert!(table.get_mut(new, &env).is_ok());
        let never = SessionId::pack(5, 0);
        assert_eq!(
            table.get_mut(never, &env).map(|_| ()),
            Err(StoreError::Unknown(never))
        );
        assert_eq!(
            table.insert(new, session(&env, 3)).unwrap_err(),
            StoreError::Occupied(new)
        );
        table.cleanup();
    }
}
