//! One user's production-system state over the shared compiled network.
//!
//! A session restores from client and disk bytes, so the module denies
//! `unwrap`, `expect` and `panic!` outside tests.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::snapshot;
use crate::{ServerError, SnapshotError};
use mpps_ops::{Interpreter, OpsError, Program, RunResult, Strategy, Wme, WmeId};
use mpps_rete::{EngineConfig, ReteMatcher, ReteNetwork};
use std::fmt;
use std::sync::Arc;

/// Server-assigned session identifier: `generation << 32 | slot`.
///
/// The slot indexes the server's route slab (and the owning worker's
/// session table) directly; the generation is bumped every time the slot
/// is freed, so a handle held past `destroy` fails with a typed
/// [`crate::ServerError::StaleSession`] instead of silently addressing
/// the slot's next occupant. Ids from a fresh server are generation 0,
/// i.e. the plain sequence `s0, s1, …`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SessionId(pub u64);

impl SessionId {
    /// Pack a slab slot and its generation into an id.
    pub fn pack(slot: u32, generation: u32) -> SessionId {
        SessionId((u64::from(generation) << 32) | u64::from(slot))
    }

    /// The slab slot this id addresses.
    pub fn slot(self) -> u32 {
        self.0 as u32
    }

    /// The slot generation this id was issued under.
    pub fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // First-generation ids read as the familiar dense sequence; a
        // recycled slot shows its generation so two occupants of slot N
        // never print alike.
        if self.generation() == 0 {
            write!(f, "s{}", self.slot())
        } else {
            write!(f, "s{}g{}", self.slot(), self.generation())
        }
    }
}

/// One session: an [`Interpreter`] over a [`ReteMatcher`] whose compiled
/// network and program are shared (`Arc`) with every other session on the
/// server. All *mutable* match state — working memory, token memories,
/// conflict set, refraction — is private to the session; the immutable
/// compiled artifacts exist once per server, which is what makes 100k
/// concurrent sessions affordable.
pub struct Session {
    program: Arc<Program>,
    network: Arc<ReteNetwork>,
    fingerprint: u64,
    interp: Interpreter<ReteMatcher>,
}

impl Session {
    /// Create an empty session against an already-compiled network.
    ///
    /// `fingerprint` must be [`snapshot::program_fingerprint`] of
    /// `program` — the server computes it once and passes it down so
    /// per-session creation never re-hashes the ruleset.
    pub fn new(
        program: Arc<Program>,
        network: Arc<ReteNetwork>,
        strategy: Strategy,
        engine: EngineConfig,
        fingerprint: u64,
    ) -> Session {
        let matcher = ReteMatcher::new_shared(Arc::clone(&network), engine);
        Session {
            interp: Interpreter::with_shared_program(Arc::clone(&program), strategy, matcher),
            program,
            network,
            fingerprint,
        }
    }

    /// Queue WMEs for the next match phase; returns how many were queued.
    pub fn ingest(&mut self, wmes: impl IntoIterator<Item = Wme>) -> usize {
        let mut n = 0;
        for wme in wmes {
            self.interp.add_wme(wme);
            n += 1;
        }
        n
    }

    /// Queue removal of a WME by time tag.
    pub fn remove(&mut self, id: WmeId) -> Result<(), OpsError> {
        self.interp.remove_wme(id)
    }

    /// Run the MRA cycle until quiescence, halt or `max_cycles`, then
    /// drain the per-cycle change log and the firing log, so a session
    /// keeps no per-request history, and free what the run left beyond
    /// the session's live state: dead refraction keys, bucket capacity,
    /// the token records after the last live one, queue and scratch
    /// capacity. A session at rest holds its live state, not its
    /// high-water mark. Returns the run summary plus the number of WME
    /// changes the matcher processed — the unit the server's throughput
    /// metrics count.
    pub fn run(&mut self, max_cycles: usize) -> Result<(RunResult, usize), OpsError> {
        let result = self.interp.run(max_cycles)?;
        let changes: usize = self.interp.drain_change_log().iter().map(Vec::len).sum();
        self.interp.drain_fired();
        self.interp.shrink_to_live();
        self.interp.matcher_mut().shrink_to_live();
        Ok((result, changes))
    }

    /// Serialize this session's state to versioned snapshot bytes. Fails
    /// with [`SnapshotError::TooLarge`] when a collection exceeds its
    /// length field instead of truncating it.
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        snapshot::encode(&self.interp.export_state(), self.fingerprint)
    }

    /// Rebuild a session from snapshot bytes on a *fresh* matcher over
    /// the (shared) compiled artifacts. Fails if the snapshot was taken
    /// under a different program, or if replaying the restored WM into
    /// the matcher errors.
    pub fn restore(
        program: Arc<Program>,
        network: Arc<ReteNetwork>,
        engine: EngineConfig,
        fingerprint: u64,
        bytes: &[u8],
    ) -> Result<Session, ServerError> {
        let state = snapshot::decode(bytes, fingerprint)?;
        let matcher = ReteMatcher::new_shared(Arc::clone(&network), engine);
        let interp = Interpreter::with_shared_state(Arc::clone(&program), matcher, state)
            .map_err(|e| ServerError::Engine(e.to_string()))?;
        Ok(Session {
            interp,
            program,
            network,
            fingerprint,
        })
    }

    /// Pending (queued, not yet matched) changes — exposed for tests.
    pub fn pending_len(&self) -> usize {
        self.interp.export_state().pending.len()
    }

    /// Number of live working-memory elements.
    pub fn wm_len(&self) -> usize {
        self.interp.working_memory().len()
    }

    /// True once a `(halt)` action has executed.
    pub fn is_halted(&self) -> bool {
        self.interp.is_halted()
    }

    /// Borrow the underlying interpreter.
    pub fn interpreter(&self) -> &Interpreter<ReteMatcher> {
        &self.interp
    }

    /// The decoded state of a snapshot, for callers that need to inspect
    /// one without building a session (the script driver's `peek`).
    pub fn decode_state(
        bytes: &[u8],
        fingerprint: u64,
    ) -> Result<Vec<(WmeId, Wme)>, SnapshotError> {
        Ok(snapshot::decode(bytes, fingerprint)?.wm)
    }
}

impl Session {
    /// The shared compiled network (diagnostics).
    pub fn network(&self) -> &ReteNetwork {
        &self.network
    }

    /// The shared program.
    pub fn program(&self) -> &Program {
        &self.program
    }
}
