//! A session's state is proportional to its live working memory, not to
//! its age. The serve workload's working memory returns to one element
//! after every request, so a session that has served thousands of
//! requests must snapshot to exactly the bytes of a freshly settled one,
//! keep no firing log, and spill the same bytes per eviction at any age.
//!
//! The request count is `MPPS_STRESS_ITERS` (default 10⁴), so CI can run
//! it much longer in release.

use mpps_ops::Strategy;
use mpps_rete::ReteNetwork;
use mpps_server::{program_fingerprint, Reply, Server, ServerConfig, Session};
use mpps_workloads::serve;
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);
const WMES_PER_REQUEST: usize = 2;

fn requests() -> u64 {
    std::env::var("MPPS_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000)
}

fn settled_session() -> Session {
    let program = Arc::new(serve::program());
    let network = Arc::new(ReteNetwork::compile(&program).unwrap());
    let fp = program_fingerprint(&program);
    let engine = ServerConfig::default().engine;
    let mut session = Session::new(program, network, Strategy::Lex, engine, fp);
    session.ingest(serve::initial());
    session.run(serve::cycle_budget(0)).unwrap();
    session
}

#[test]
fn a_session_snapshot_does_not_grow_with_age() {
    let fresh = settled_session().snapshot().unwrap().len();
    let mut session = settled_session();
    let mut after_100 = 0;
    for request in 0..requests() {
        session.ingest(serve::round(0, request, WMES_PER_REQUEST));
        let (result, _) = session.run(serve::cycle_budget(WMES_PER_REQUEST)).unwrap();
        assert_eq!(
            result.fired.len(),
            serve::CYCLES_PER_REQUEST * WMES_PER_REQUEST
        );
        assert!(session.interpreter().fired().is_empty(), "firing log kept");
        if request == 99 {
            after_100 = session.snapshot().unwrap().len();
        }
    }
    let last = session.snapshot().unwrap().len();
    assert_eq!(after_100, fresh, "snapshot after 100 requests");
    assert_eq!(last, fresh, "snapshot after {} requests", requests());
}

/// Two sessions take turns on one worker that may hold one of them, so
/// every request faults its session in and spills the other: the bytes
/// per eviction must be the same for young and old sessions.
#[test]
fn spilled_bytes_per_eviction_do_not_grow_with_age() {
    let fresh = settled_session().snapshot().unwrap().len() as u64;
    let config = ServerConfig {
        workers: 1,
        resident_budget: Some(1),
        ..ServerConfig::default()
    };
    let mut server = Server::new(serve::program(), config).unwrap();
    let mut ids = Vec::new();
    for _ in 0..2 {
        let (id, request) = server.create_session(serve::initial()).unwrap();
        server.wait_for(request, TIMEOUT).unwrap();
        ids.push(id);
    }
    let mut per_eviction = Vec::new();
    let total = requests();
    for request in 0..total {
        let id = ids[request as usize % 2];
        let wmes = serve::round(id.0, request / 2, WMES_PER_REQUEST);
        let reply = server.submit(id, wmes).unwrap();
        assert!(matches!(
            server.wait_for(reply, TIMEOUT).unwrap(),
            Reply::Cycles { .. }
        ));
        if request == 99 || request + 1 == total {
            let metrics = server.metrics(TIMEOUT).unwrap();
            let evictions = metrics.counter_total("serve.evictions");
            assert!(evictions > request / 2, "the budget did not evict");
            per_eviction.push(metrics.counter_total("serve.eviction_bytes") / evictions);
        }
    }
    assert_eq!(per_eviction, [fresh, fresh]);
}
