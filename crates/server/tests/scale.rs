//! The 1M-session scale machinery: slab generation checks on reused
//! slots and transparent idle eviction (snapshot → evict → fault-in →
//! continue must be byte-equal to an uninterrupted resident run).

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
