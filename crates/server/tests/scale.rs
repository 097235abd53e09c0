//! The 1M-session scale machinery: slab generation checks on reused
//! slots, transparent idle eviction (snapshot → evict → fault-in →
//! continue must be byte-equal to an uninterrupted resident run), and
//! live migration proven byte-equal against the cross-server snapshot
//! oracle from PR 8.

use mpps_server::{Reply, RequestId, Server, ServerConfig, ServerError, SessionId};
use mpps_workloads::serve;
use proptest::prelude::*;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

fn config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        queue_capacity: 128,
        ..ServerConfig::default()
    }
}

fn ready(server: &mut Server, request: RequestId) {
    match server.wait_for(request, TIMEOUT).unwrap() {
        Reply::Ready { .. } => {}
        other => panic!("expected Ready, got {other:?}"),
    }
}

fn snapshot_bytes(server: &mut Server, id: SessionId) -> Vec<u8> {
    let request = server.snapshot(id).unwrap();
    match server.wait_for(request, TIMEOUT).unwrap() {
        Reply::SnapshotBytes { bytes, .. } => bytes,
        other => panic!("expected SnapshotBytes, got {other:?}"),
    }
}

/// A freed slot is reused under a bumped generation: the new handle is a
/// different `SessionId`, and the old one is rejected as *stale* (not
/// merely unknown) on every entry point that routes.
#[test]
fn freed_slots_are_reused_with_a_bumped_generation() {
    let mut server = Server::new(serve::program(), config(2)).unwrap();
    let (old, request) = server.create_session(serve::initial()).unwrap();
    ready(&mut server, request);
    assert_eq!(old.to_string(), "s0");
    let request = server.destroy_session(old).unwrap();
    assert!(matches!(
        server.wait_for(request, TIMEOUT).unwrap(),
        Reply::Destroyed { .. }
    ));

    let (new, request) = server.create_session(serve::initial()).unwrap();
    ready(&mut server, request);
    assert_eq!(new.slot(), old.slot(), "freed slot was not reused");
    assert_eq!(new.generation(), old.generation() + 1);
    assert_ne!(old, new);
    assert_eq!(new.to_string(), "s0g1");

    // The stale handle is a typed error everywhere, and never touches
    // the reincarnated session.
    assert_eq!(
        server.submit(old, serve::round(old.0, 0, 1)),
        Err(ServerError::StaleSession(old))
    );
    assert!(matches!(
        server.snapshot(old),
        Err(ServerError::StaleSession(_))
    ));
    assert!(matches!(
        server.evict(old),
        Err(ServerError::StaleSession(_))
    ));
    assert!(matches!(
        server.migrate(old, 1, TIMEOUT),
        Err(ServerError::StaleSession(_))
    ));
    assert!(matches!(
        server.destroy_session(old),
        Err(ServerError::StaleSession(_))
    ));

    // The new incarnation works, and an id from a *future* generation is
    // unknown, not stale.
    let request = server.submit(new, serve::round(new.0, 0, 1)).unwrap();
    assert!(matches!(
        server.wait_for(request, TIMEOUT).unwrap(),
        Reply::Cycles { .. }
    ));
    let future = SessionId::pack(new.slot(), new.generation() + 7);
    assert_eq!(
        server.submit(future, Vec::new()),
        Err(ServerError::UnknownSession(future))
    );
    assert_eq!(server.sessions(), 1);
}

/// Live migration through `Server::migrate` must land the session on the
/// target worker with state byte-equal to the PR-8 cross-server oracle
/// (snapshot → restore on a fresh server → identical continuation). An
/// evicted session migrates too, by shipping its spill file.
#[test]
fn live_migration_is_byte_equal_to_the_cross_server_oracle() {
    let mut server = Server::new(serve::program(), config(2)).unwrap();
    let (id, request) = server.create_session(serve::initial()).unwrap();
    ready(&mut server, request);
    for round in 0..2 {
        server.submit(id, serve::round(id.0, round, 3)).unwrap();
    }
    server.drain(TIMEOUT, |_| {}).unwrap();

    // Oracle: the snapshot-migration path the existing integration test
    // proves correct — restore the same bytes on a fresh server.
    let bytes = snapshot_bytes(&mut server, id);
    let mut oracle = Server::new(serve::program(), config(2)).unwrap();
    let (twin, request) = oracle.restore(bytes).unwrap();
    ready(&mut oracle, request);

    // Subject: migrate the live session to the other worker in place.
    let from = server.worker_of(id).unwrap();
    let to = 1 - from;
    let request = server.migrate(id, to, TIMEOUT).unwrap();
    ready(&mut server, request);
    assert_eq!(server.worker_of(id).unwrap(), to, "route did not move");
    assert_eq!(server.migrations(), 1);

    // Identical continuations must stay byte-equal.
    for round in 2..4 {
        server.submit(id, serve::round(id.0, round, 3)).unwrap();
        oracle.submit(twin, serve::round(id.0, round, 3)).unwrap();
    }
    server.drain(TIMEOUT, |_| {}).unwrap();
    oracle.drain(TIMEOUT, |_| {}).unwrap();
    assert_eq!(
        snapshot_bytes(&mut server, id),
        snapshot_bytes(&mut oracle, twin),
        "live migration diverged from the cross-server oracle"
    );

    // Evict the session to disk, then migrate it back: the spill bytes
    // ship unread and the session faults in on the new worker.
    let request = server.evict(id).unwrap();
    assert!(matches!(
        server.wait_for(request, TIMEOUT).unwrap(),
        Reply::Evicted { .. }
    ));
    let request = server.migrate(id, from, TIMEOUT).unwrap();
    ready(&mut server, request);
    assert_eq!(server.worker_of(id).unwrap(), from);

    server.submit(id, serve::round(id.0, 4, 3)).unwrap();
    oracle.submit(twin, serve::round(id.0, 4, 3)).unwrap();
    server.drain(TIMEOUT, |_| {}).unwrap();
    oracle.drain(TIMEOUT, |_| {}).unwrap();
    assert_eq!(
        snapshot_bytes(&mut server, id),
        snapshot_bytes(&mut oracle, twin),
        "migrating an evicted session corrupted its state"
    );
    let metrics = server.metrics(TIMEOUT).unwrap();
    assert_eq!(metrics.counter_total("serve.migrations"), 2);
}

/// A migration whose caller stops waiting must still land: the
/// evacuation is already queued, so abandoning the hand-off would leave
/// the session extracted from its old worker, adopted by nobody, and
/// every later request answered "unknown session".
#[test]
fn an_abandoned_migration_still_lands_byte_equal() {
    let mut server = Server::new(serve::program(), config(2)).unwrap();
    let mut twin = Server::new(serve::program(), config(2)).unwrap();
    let (id, request) = server.create_session(serve::initial()).unwrap();
    ready(&mut server, request);
    let (same, request) = twin.create_session(serve::initial()).unwrap();
    ready(&mut twin, request);
    assert_eq!(id, same);
    // A heavy batch keeps the worker busy, so the evacuation queued
    // behind it cannot be answered within a zero timeout.
    server.submit(id, serve::round(id.0, 0, 200)).unwrap();
    twin.submit(id, serve::round(id.0, 0, 200)).unwrap();
    let to = 1 - server.worker_of(id).unwrap();
    assert_eq!(
        server.migrate(id, to, Duration::ZERO),
        Err(ServerError::Timeout)
    );

    let mut failures = 0;
    let count = |reply: &Reply| failures += matches!(reply, Reply::Failed { .. }) as usize;
    server.drain(TIMEOUT, count).unwrap();
    assert_eq!(failures, 0);
    assert_eq!(server.worker_of(id).unwrap(), to, "the hand-off was lost");
    assert_eq!(server.migrations(), 1);

    let request = server.submit(id, serve::round(id.0, 1, 3)).unwrap();
    assert!(matches!(
        server.wait_for(request, TIMEOUT).unwrap(),
        Reply::Cycles { worker, .. } if worker == to
    ));
    twin.submit(id, serve::round(id.0, 1, 3)).unwrap();
    twin.drain(TIMEOUT, |_| {}).unwrap();
    assert_eq!(
        snapshot_bytes(&mut server, id),
        snapshot_bytes(&mut twin, id),
        "the late adoption changed the session"
    );
}

/// Live sessions per worker, read back through the public routing API.
fn live_per_worker(server: &Server, ids: &[SessionId], workers: usize) -> Vec<usize> {
    let mut live = vec![0; workers];
    for &id in ids {
        live[server.worker_of(id).unwrap()] += 1;
    }
    live
}

/// `rebalance` converges in the fewest moves: after one worker is
/// emptied by destroys, the first pass migrates exactly the surplus over
/// an even split, the second pass finds nothing to do, and the sessions
/// compute exactly what an unbalanced twin server computes.
#[test]
fn rebalance_is_a_byte_preserving_fixed_point() {
    const SESSIONS: usize = 17;
    const WORKERS: usize = 3;
    let mut server = Server::new(serve::program(), config(WORKERS)).unwrap();
    let mut twin = Server::new(serve::program(), config(WORKERS)).unwrap();
    let mut ids = Vec::new();
    for _ in 0..SESSIONS {
        let (a, request) = server.create_session(serve::initial()).unwrap();
        ready(&mut server, request);
        let (b, request) = twin.create_session(serve::initial()).unwrap();
        ready(&mut twin, request);
        assert_eq!(a, b, "the two servers must allocate identical ids");
        ids.push(a);
    }
    assert_eq!(live_per_worker(&server, &ids, WORKERS), [6, 6, 5]);
    for &id in &ids {
        server.submit(id, serve::round(id.0, 0, 2)).unwrap();
        twin.submit(id, serve::round(id.0, 0, 2)).unwrap();
    }
    // Empty worker 1 on both servers; only `server` is rebalanced.
    let (gone, ids): (Vec<_>, Vec<_>) = ids
        .into_iter()
        .partition(|&id| server.worker_of(id).unwrap() == 1);
    for id in gone {
        server.destroy_session(id).unwrap();
        twin.destroy_session(id).unwrap();
    }
    server.drain(TIMEOUT, |_| {}).unwrap();
    assert_eq!(live_per_worker(&server, &ids, WORKERS), [6, 0, 5]);

    // 11 sessions split 4 + 4 + 3; keeping the larger shares where the
    // sessions already are, workers 0 and 2 give up 2 + 1 = 3 sessions.
    // Anything less leaves a spread above one.
    let first = server.rebalance(TIMEOUT).unwrap();
    assert_eq!(first.examined, ids.len());
    assert_eq!(first.skipped, 0, "idle workers should not be saturated");
    assert_eq!(first.moved, 3, "not the minimum number of migrations");
    assert_eq!(server.migrations(), 3);
    assert_eq!(live_per_worker(&server, &ids, WORKERS), [4, 3, 4]);
    let second = server.rebalance(TIMEOUT).unwrap();
    assert_eq!(second.moved, 0, "rebalance is not a fixed point");
    assert_eq!(server.sessions(), ids.len());

    for &id in &ids {
        server.submit(id, serve::round(id.0, 1, 2)).unwrap();
        twin.submit(id, serve::round(id.0, 1, 2)).unwrap();
    }
    server.drain(TIMEOUT, |_| {}).unwrap();
    twin.drain(TIMEOUT, |_| {}).unwrap();
    for &id in &ids {
        assert_eq!(
            snapshot_bytes(&mut server, id),
            snapshot_bytes(&mut twin, id),
            "session {id} diverged across rebalance"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Adversarial eviction points: a budget-constrained server whose
    /// sessions are forcibly evicted at property-chosen points must
    /// stay byte-equal, session for session, with an unconstrained
    /// server fed identical input. This is the PR-8 snapshot proptest
    /// lifted to the serving layer: every eviction is a snapshot, every
    /// fault-in is a restore, and neither may be observable.
    #[test]
    fn eviction_is_transparent_and_byte_equal(
        budget in 1usize..3,
        evict_at in proptest::collection::vec(any::<bool>(), 12),
    ) {
        const SESSIONS: usize = 3;
        const ROUNDS: u64 = 4;
        let mut constrained = config(1);
        constrained.resident_budget = Some(budget);
        let mut subject = Server::new(serve::program(), constrained).unwrap();
        let mut oracle = Server::new(serve::program(), config(1)).unwrap();
        let mut ids = Vec::new();
        for _ in 0..SESSIONS {
            let (a, request) = subject.create_session(serve::initial()).unwrap();
            ready(&mut subject, request);
            let (b, request) = oracle.create_session(serve::initial()).unwrap();
            ready(&mut oracle, request);
            prop_assert_eq!(a, b);
            ids.push(a);
        }
        for round in 0..ROUNDS {
            for (k, &id) in ids.iter().enumerate() {
                let wmes = serve::round(id.0, round, 2);
                let request = subject.submit(id, wmes.clone()).unwrap();
                prop_assert!(matches!(
                    subject.wait_for(request, TIMEOUT).unwrap(),
                    Reply::Cycles { .. }
                ));
                let request = oracle.submit(id, wmes).unwrap();
                prop_assert!(matches!(
                    oracle.wait_for(request, TIMEOUT).unwrap(),
                    Reply::Cycles { .. }
                ));
                // The adversarial cut: maybe force this session to disk
                // right after it computed, before its next request.
                if evict_at[round as usize * SESSIONS + k] {
                    let request = subject.evict(id).unwrap();
                    prop_assert!(matches!(
                        subject.wait_for(request, TIMEOUT).unwrap(),
                        Reply::Evicted { .. }
                    ));
                }
            }
        }
        for &id in &ids {
            // Snapshotting an evicted session reads its spill without
            // faulting it in; either way the bytes must match the
            // always-resident oracle.
            prop_assert_eq!(
                snapshot_bytes(&mut subject, id),
                snapshot_bytes(&mut oracle, id),
                "session {} diverged under eviction", id
            );
        }
        // The budget (strictly below the session count) forced the LRU
        // sweep to actually run: sessions went to disk and came back.
        let metrics = subject.metrics(TIMEOUT).unwrap();
        prop_assert!(metrics.counter_total("serve.evictions") > 0);
        prop_assert!(metrics.counter_total("serve.faultins") > 0);
        prop_assert_eq!(metrics.counter_total("serve.evict_failed"), 0);
    }
}
