//! Bounded-queue stress: flooding a saturated worker must produce
//! `ServerError::Overloaded` **in bounded time** (the submit path never
//! blocks), never deadlock, never drop an ack, and recover completely
//! once the backlog drains.

use mpps_server::{Reply, Server, ServerConfig, ServerError};
use mpps_workloads::serve;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(30);

fn flood_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServerConfig::default()
    }
}

#[test]
fn flood_is_rejected_fast_and_recovers_without_losing_acks() {
    let mut server = Server::new(serve::program(), flood_config()).unwrap();
    let (id, request) = server.create_session(serve::initial()).unwrap();
    assert!(matches!(
        server.wait_for(request, TIMEOUT).unwrap(),
        Reply::Ready { .. }
    ));

    // Flood: each batch costs hundreds of MRA cycles, so the single
    // worker cannot keep up with a tight submission loop and the
    // 2-deep queue must overflow.
    let mut accepted: u64 = 0;
    let mut rejected: u64 = 0;
    let mut slowest_rejection = Duration::ZERO;
    for round in 0..120u64 {
        let batch = serve::round(id.0, round, 100);
        let asked = Instant::now();
        match server.submit(id, batch) {
            Ok(_) => accepted += 1,
            Err(ServerError::Overloaded {
                session,
                worker,
                capacity,
            }) => {
                slowest_rejection = slowest_rejection.max(asked.elapsed());
                assert_eq!(session, id);
                assert_eq!(worker, 0);
                assert_eq!(capacity, 2);
                rejected += 1;
            }
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    assert!(rejected > 0, "flood never tripped the bounded queue");
    assert!(accepted > 0, "some submissions must land");
    // Rejection is a counter check, not a wait: even a loaded CI box
    // answers in far under a second.
    assert!(
        slowest_rejection < Duration::from_secs(1),
        "Overloaded took {slowest_rejection:?} — submit must not block"
    );
    assert_eq!(server.overload_rejections(), rejected);

    // Drain: every accepted request is answered exactly once (no lost
    // acks), each individual reply within the healthy-worker timeout
    // (no deadlock).
    let mut replies = 0u64;
    let mut failures = 0u64;
    server
        .drain(TIMEOUT, |reply| {
            replies += 1;
            if matches!(reply, Reply::Failed { .. }) {
                failures += 1;
            }
        })
        .unwrap();
    assert_eq!(replies, accepted, "acks lost or duplicated");
    assert_eq!(failures, 0);
    assert_eq!(server.in_flight(), 0);
    assert_eq!(server.worker_depths(), vec![0]);

    // Recovery: the drained server accepts and answers again.
    let request = server.submit(id, serve::round(id.0, 500, 2)).unwrap();
    match server.wait_for(request, TIMEOUT).unwrap() {
        Reply::Cycles { fired, .. } => assert_eq!(fired, 6),
        other => panic!("expected Cycles after recovery, got {other:?}"),
    }

    // The merged metrics agree with the server-side tallies.
    let metrics = server.metrics(TIMEOUT).unwrap();
    assert_eq!(metrics.counter_total("serve.overloaded"), rejected);
    assert_eq!(
        metrics.counter_total("serve.requests"),
        accepted + 2, // + session creation + recovery probe
    );
    let high = metrics.gauge("serve.queue_depth").unwrap()[&0];
    assert!(high <= 2, "queue depth {high} exceeded its bound");
}

/// The queue-depth gauge never reads past the bound. `submit` claims a
/// slot before it checks capacity, so every rejection briefly lifts the
/// raw counter to `capacity + 1`; a worker sampling at that moment must
/// not report a message that was never queued. Cheap requests through a
/// one-deep queue give the worker thousands of samples, each taken while
/// the submitter spins on rejections.
#[test]
fn queue_depth_gauge_never_exceeds_capacity_under_rejections() {
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    };
    let mut server = Server::new(serve::program(), config).unwrap();
    let (id, request) = server.create_session(serve::initial()).unwrap();
    server.wait_for(request, TIMEOUT).unwrap();
    let (mut accepted, mut rejected) = (0u64, 0u64);
    while accepted < 20_000 {
        match server.submit(id, Vec::new()) {
            Ok(_) => accepted += 1,
            Err(ServerError::Overloaded { .. }) => rejected += 1,
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    server.drain(TIMEOUT, |_| {}).unwrap();
    assert!(rejected > 0, "the queue was never full");
    let metrics = server.metrics(TIMEOUT).unwrap();
    let high = metrics.gauge("serve.queue_depth").unwrap()[&0];
    assert_eq!(high, 1, "queue depth {high} against a capacity of 1");
}

#[test]
fn destroyed_sessions_reject_immediately() {
    let mut server = Server::new(serve::program(), flood_config()).unwrap();
    let (id, request) = server.create_session(serve::initial()).unwrap();
    server.wait_for(request, TIMEOUT).unwrap();
    let request = server.destroy_session(id).unwrap();
    assert!(matches!(
        server.wait_for(request, TIMEOUT).unwrap(),
        Reply::Destroyed { .. }
    ));
    // The freed slot's generation moved past this handle: the rejection
    // is typed *stale*, distinguishing "you held this too long" from
    // "never heard of it".
    assert_eq!(
        server.submit(id, serve::round(id.0, 0, 1)),
        Err(ServerError::StaleSession(id))
    );
    assert_eq!(server.sessions(), 0);
}

/// Admission itself honors the bound: when the target worker is
/// saturated, `create_session` is rejected up front and no session
/// state leaks.
#[test]
fn admission_respects_backpressure() {
    let mut server = Server::new(serve::program(), flood_config()).unwrap();
    let (id, _) = server.create_session(serve::initial()).unwrap();
    // Saturate the lone worker with heavy batches.
    let mut accepted = 0;
    for round in 0..50u64 {
        if server.submit(id, serve::round(id.0, round, 200)).is_ok() {
            accepted += 1;
        }
    }
    assert!(accepted >= 1);
    let mut created = 0usize;
    let mut admission_rejected = false;
    for _ in 0..50 {
        match server.create_session(serve::initial()) {
            Err(ServerError::Overloaded { .. }) => admission_rejected = true,
            Ok(_) => created += 1,
            Err(other) => panic!("unexpected admission error: {other}"),
        }
    }
    assert!(admission_rejected, "saturated worker kept admitting");
    // Rejected admissions record no session state: only accepted creates
    // are routable.
    assert_eq!(server.sessions(), 1 + created);
    server.drain(TIMEOUT, |_| {}).unwrap();
    // After draining, admission succeeds again.
    let (_, request) = server.create_session(serve::initial()).unwrap();
    assert!(matches!(
        server.wait_for(request, TIMEOUT).unwrap(),
        Reply::Ready { .. }
    ));
}
