//! End-to-end serving: many sessions multiplexed over the pool, session
//! isolation, snapshot restore onto a fresh server, metrics accounting,
//! and both `mpps serve` drivers.

use mpps_server::{
    run_script, run_synthetic, Reply, Server, ServerConfig, ServerError, SessionId, SyntheticSpec,
};
use mpps_workloads::serve;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

/// Submit with the standard client discipline: on `Overloaded`, drain one
/// reply and retry.
fn submit_retrying(server: &mut Server, id: SessionId, wmes: Vec<mpps_ops::Wme>) {
    loop {
        match server.submit(id, wmes.clone()) {
            Ok(_) => return,
            Err(ServerError::Overloaded { .. }) => {
                server.recv_timeout(TIMEOUT).unwrap();
            }
            Err(other) => panic!("submit failed: {other}"),
        }
    }
}

fn config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        queue_capacity: 128,
        ..ServerConfig::default()
    }
}

/// Sessions are independent: interleaved rounds against many sessions
/// leave each with exactly its own `stats` count, whichever worker it
/// was placed on.
#[test]
fn sessions_are_isolated_across_workers() {
    let mut server = Server::new(serve::program(), config(3)).unwrap();
    let mut ids = Vec::new();
    for _ in 0..24 {
        ids.push(server.create_session(serve::initial()).unwrap().0);
    }
    // Session k gets k+1 rounds, interleaved across all sessions.
    for round in 0..ids.len() as u64 {
        for (k, &id) in ids.iter().enumerate() {
            if round <= k as u64 {
                submit_retrying(&mut server, id, serve::round(id.0, round, 2));
            }
        }
    }
    server.drain(TIMEOUT, |_| {}).unwrap();
    for (k, &id) in ids.iter().enumerate() {
        let request = server.snapshot(id).unwrap();
        let Reply::SnapshotBytes { bytes, .. } = server.wait_for(request, TIMEOUT).unwrap() else {
            panic!("expected snapshot bytes");
        };
        let wm = mpps_server::Session::decode_state(&bytes, server.fingerprint()).unwrap();
        assert_eq!(wm.len(), 1, "session {k} WM not settled");
        let done = wm[0].1.get(mpps_ops::intern("done"));
        // k+1 rounds × 2 requests each.
        assert_eq!(
            done,
            Some(mpps_ops::Value::Int(2 * (k as i64 + 1))),
            "session {k} has wrong stats"
        );
    }
    // Least-loaded placement dealt the 24 sessions evenly over the pool.
    let metrics = server.metrics(TIMEOUT).unwrap();
    let admitted = metrics.counter("serve.admitted").unwrap();
    assert_eq!(admitted.values().copied().collect::<Vec<_>>(), [8, 8, 8]);
    assert_eq!(metrics.counter("serve.sessions_created"), Some(admitted));
}

/// A session snapshotted on one server continues identically on a fresh
/// server: the remaining rounds produce byte-identical final snapshots.
#[test]
fn snapshot_restores_on_a_fresh_server() {
    let mut origin = Server::new(serve::program(), config(2)).unwrap();
    let (id, _) = origin.create_session(serve::initial()).unwrap();
    for round in 0..2 {
        origin.submit(id, serve::round(id.0, round, 3)).unwrap();
    }
    origin.drain(TIMEOUT, |_| {}).unwrap();
    let request = origin.snapshot(id).unwrap();
    let Reply::SnapshotBytes { bytes, .. } = origin.wait_for(request, TIMEOUT).unwrap() else {
        panic!("expected snapshot bytes");
    };

    // Restore onto a brand-new server (fresh compile, fresh workers).
    let mut fresh = Server::new(serve::program(), config(2)).unwrap();
    let (restored, request) = fresh.restore(bytes).unwrap();
    assert!(matches!(
        fresh.wait_for(request, TIMEOUT).unwrap(),
        Reply::Ready { .. }
    ));

    // Continue both sides with the same remaining rounds. The restored
    // session keeps the original's session id inside its WME stream only
    // through time tags, so drive both with the *original* id's WME
    // content to keep inputs identical.
    for round in 2..4 {
        origin.submit(id, serve::round(id.0, round, 3)).unwrap();
        fresh
            .submit(restored, serve::round(id.0, round, 3))
            .unwrap();
    }
    origin.drain(TIMEOUT, |_| {}).unwrap();
    fresh.drain(TIMEOUT, |_| {}).unwrap();

    let r1 = origin.snapshot(id).unwrap();
    let Reply::SnapshotBytes { bytes: b1, .. } = origin.wait_for(r1, TIMEOUT).unwrap() else {
        panic!()
    };
    let r2 = fresh.snapshot(restored).unwrap();
    let Reply::SnapshotBytes { bytes: b2, .. } = fresh.wait_for(r2, TIMEOUT).unwrap() else {
        panic!()
    };
    assert_eq!(b1, b2, "continuations diverged after the restore");
}

/// Restoring under the wrong program is refused, not silently wrong.
#[test]
fn restore_rejects_foreign_programs() {
    let mut origin = Server::new(serve::program(), config(1)).unwrap();
    let (id, _) = origin.create_session(serve::initial()).unwrap();
    origin.drain(TIMEOUT, |_| {}).unwrap();
    let request = origin.snapshot(id).unwrap();
    let Reply::SnapshotBytes { bytes, .. } = origin.wait_for(request, TIMEOUT).unwrap() else {
        panic!()
    };
    let other = mpps_ops::parse_program("(p nop (never) --> (halt))").unwrap();
    let mut wrong = Server::new(other, config(1)).unwrap();
    let (_, request) = wrong.restore(bytes).unwrap();
    match wrong.wait_for(request, TIMEOUT).unwrap() {
        Reply::Failed { error, .. } => {
            assert!(error.contains("different program"), "wrong error: {error}")
        }
        other => panic!("expected Failed, got {other:?}"),
    }
}

#[test]
fn synthetic_driver_reports_sane_numbers() {
    let spec = SyntheticSpec {
        sessions: 40,
        rounds: 2,
        wmes_per_round: 2,
    };
    let report = run_synthetic(config(2), &spec).unwrap();
    assert_eq!(report.sessions, 40);
    assert_eq!(report.failures, 0);
    // 40 creations + 40 × 2 ingestion rounds.
    assert_eq!(report.replies, 40 + 80);
    // Each ingestion batch: 2 requests × 3 firings.
    assert_eq!(report.fired, 80 * 6);
    assert!(report.wme_changes > 0);
    assert!(report.changes_per_sec > 0.0);
    assert!(report.p95_cycle_ns >= report.p50_cycle_ns);
    assert_eq!(report.worker_requests.iter().sum::<u64>(), 120);
}

#[test]
fn script_driver_round_trips_a_session() {
    let script = r#"
        # triage session: snapshot mid-stream, restore, replay the tail
        session a
        make a (stats ^done 0)
        make a (request ^id 1 ^kind alert)
        snapshot a
        make a (request ^id 2 ^kind order)
        restore b a
        make b (request ^id 2 ^kind order)
        destroy a
    "#;
    let report = run_script(serve::program(), script, config(2)).unwrap();
    assert_eq!(report.log.len(), 8);
    assert!(report.log[0].starts_with("session a = s0"));
    assert!(report.log[2].contains("fired 3"), "{}", report.log[2]);
    assert!(report.log[3].starts_with("snapshot a: "));
    // The restored session replays the same input and fires identically.
    assert_eq!(
        report.log[4].replace(" a:", ":"),
        report.log[6].replace(" b:", ":"),
        "restored session diverged: {:?}",
        report.log
    );
    assert!(report.log[7].contains("ok"));
}

/// A second `session a`, or a `restore a …`, while `a` is live is a
/// line-numbered script error, not a silent rebind that orphans the first
/// session; after `destroy a` the name is free again.
#[test]
fn script_refuses_to_rebind_a_live_session_name() {
    for (script, line) in [
        ("session a\nmake a (stats ^done 0)\nsession a\n", 3),
        ("session a\nsnapshot a\nrestore a a\n", 3),
    ] {
        match run_script(serve::program(), script, config(2)) {
            Err(ServerError::Script(msg)) => {
                assert!(msg.starts_with(&format!("line {line}: ")), "{msg}");
                assert!(msg.contains("`a` already exists"), "{msg}");
            }
            other => panic!("expected a script error, got {other:?}"),
        }
    }
    let script = "session a\nsnapshot a\ndestroy a\nrestore a a\nsession b\n";
    let report = run_script(serve::program(), script, config(2)).unwrap();
    assert_eq!(report.log.len(), 5);
    assert!(
        report.log[3].starts_with("restore a = "),
        "{:?}",
        report.log
    );
}

/// A Create whose initial working memory makes a rule fail (here: a
/// `call` to a function nobody registered) never materializes: the reply
/// is `Failed`, `serve.sessions_created` does not count it, and the
/// placement it briefly held is withdrawn — the next session gets the
/// same worker.
#[test]
fn a_failed_create_is_neither_counted_nor_left_placed() {
    let program = mpps_ops::parse_program("(p boom (go) --> (call nope))").unwrap();
    let mut server = Server::new(program, config(2)).unwrap();
    let before = server.sessions();
    let go = mpps_ops::Wme::new("go", &[]);
    let (doomed, request) = server.create_session(vec![go]).unwrap();
    match server.wait_for(request, TIMEOUT).unwrap() {
        Reply::Failed { session, error, .. } => {
            assert_eq!(session, Some(doomed));
            assert!(error.contains("nope"), "wrong error: {error}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    let metrics = server.metrics(TIMEOUT).unwrap();
    assert_eq!(metrics.counter("serve.sessions_created"), None);
    assert_eq!(metrics.counter("serve.admitted"), None);
    assert_eq!(server.sessions(), before);
    assert!(server.worker_of(doomed).is_err(), "phantom route survived");

    // Worker 0's live count is back to zero, so it is the least loaded
    // again; had the count leaked, these two would land on 1 and 0.
    for expected in [0, 1] {
        let (_, request) = server.create_session(Vec::new()).unwrap();
        match server.wait_for(request, TIMEOUT).unwrap() {
            Reply::Ready { worker, .. } => assert_eq!(worker, expected),
            other => panic!("expected Ready, got {other:?}"),
        }
    }
    let metrics = server.metrics(TIMEOUT).unwrap();
    assert_eq!(metrics.counter_total("serve.sessions_created"), 2);
}

/// Retraction through the server (`submit_remove` → `Request::Remove` →
/// `Session::remove` → settle) equals the bare interpreter: same firings,
/// same working memory, same conflict set. A stale time tag is a `Failed`
/// reply that leaves the session untouched, and a remove addressed to an
/// evicted session faults it back in first.
#[test]
fn remove_through_the_server_equals_the_bare_interpreter() {
    use mpps_ops::{intern, Interpreter, Matcher, Strategy, Wme, WmeId, WorkingMemory};
    use mpps_server::Session;
    use std::sync::Arc;

    let program = mpps_ops::parse_program(
        r#"
        (p alarm (sensor ^id <s> ^level high) -(ack ^sensor <s>)
           --> (make alert ^sensor <s>))
        (p stand-down (alert ^sensor <s>) (ack ^sensor <s>) --> (remove 1))
        "#,
    )
    .unwrap();
    let initial = vec![
        Wme::new("sensor", &[("id", 1.into()), ("level", "high".into())]),
        Wme::new("sensor", &[("id", 2.into()), ("level", "high".into())]),
        Wme::new("ack", &[("sensor", 1.into())]),
    ];
    let tag_of = |interp: &Interpreter<_>, class: &str| -> WmeId {
        let class = intern(class);
        let mut tags = interp.working_memory().iter();
        tags.find(|(_, w)| w.class() == class).unwrap().0
    };

    // The reference: a bare interpreter doing the same two steps.
    let mut bare = Interpreter::new(program.clone(), Strategy::Lex);
    for w in &initial {
        bare.add_wme(w.clone());
    }
    bare.run(100).unwrap();
    let ack = tag_of(&bare, "ack");
    bare.remove_wme(ack).unwrap();
    let retraction = bare.run(100).unwrap();
    assert_eq!(retraction.fired.len(), 1, "un-acked sensor 1 must alarm");

    let mut server = Server::new(program, config(2)).unwrap();
    let (id, request) = server.create_session(initial).unwrap();
    assert!(matches!(
        server.wait_for(request, TIMEOUT).unwrap(),
        Reply::Ready { .. }
    ));
    let request = server.submit_remove(id, ack).unwrap();
    let Reply::Cycles { fired, .. } = server.wait_for(request, TIMEOUT).unwrap() else {
        panic!("expected Cycles for a live time tag");
    };
    assert_eq!(fired, retraction.fired.len());

    let snapshot = |server: &mut Server| {
        let request = server.snapshot(id).unwrap();
        match server.wait_for(request, TIMEOUT).unwrap() {
            Reply::SnapshotBytes { bytes, .. } => bytes,
            other => panic!("expected snapshot bytes, got {other:?}"),
        }
    };
    let restore = |server: &Server, bytes: &[u8]| {
        Session::restore(
            Arc::new(server.program().clone()),
            Arc::new(server.network().clone()),
            server.config().engine,
            server.fingerprint(),
            bytes,
        )
        .unwrap()
    };
    let wm_of = |wm: &WorkingMemory| -> Vec<(WmeId, Wme)> {
        wm.iter().map(|(tag, w)| (tag, w.clone())).collect()
    };
    let after_remove = snapshot(&mut server);
    let served = restore(&server, &after_remove);
    assert_eq!(
        wm_of(served.interpreter().working_memory()),
        wm_of(bare.working_memory())
    );
    assert_eq!(
        served.interpreter().matcher().conflict_set(),
        bare.matcher().conflict_set()
    );

    // The same tag again is stale: Failed, and nothing changed.
    let request = server.submit_remove(id, ack).unwrap();
    assert!(matches!(
        server.wait_for(request, TIMEOUT).unwrap(),
        Reply::Failed { .. }
    ));
    assert_eq!(snapshot(&mut server), after_remove);

    // A remove addressed to an evicted session faults it in.
    let request = server.evict(id).unwrap();
    assert!(matches!(
        server.wait_for(request, TIMEOUT).unwrap(),
        Reply::Evicted { .. }
    ));
    let sensor = tag_of(&bare, "sensor");
    bare.remove_wme(sensor).unwrap();
    bare.run(100).unwrap();
    let request = server.submit_remove(id, sensor).unwrap();
    assert!(matches!(
        server.wait_for(request, TIMEOUT).unwrap(),
        Reply::Cycles { fired: 0, .. }
    ));
    let metrics = server.metrics(TIMEOUT).unwrap();
    assert_eq!(metrics.counter_total("serve.faultins"), 1);
    let bytes = snapshot(&mut server);
    let served = restore(&server, &bytes);
    assert_eq!(
        wm_of(served.interpreter().working_memory()),
        wm_of(bare.working_memory())
    );
    assert_eq!(
        served.interpreter().matcher().conflict_set(),
        bare.matcher().conflict_set()
    );
}

/// A program at the parser's RHS nesting limit is built, evaluated and
/// dropped on a server worker thread's default stack without exhausting it.
#[test]
fn rhs_at_the_nesting_limit_serves_on_a_worker_thread() {
    let depth = mpps_ops::parser::MAX_RHS_NESTING;
    let src = format!(
        "(p a (x ^v <v>) --> (make y ^w {}<v>{}) (remove 1))",
        "(+ ".repeat(depth),
        " 1)".repeat(depth)
    );
    let mut server = Server::new(mpps_ops::parse_program(&src).unwrap(), config(1)).unwrap();
    let (id, _) = server.create_session(Vec::new()).unwrap();
    let x = mpps_ops::parse_wme("(x ^v 1)").unwrap();
    let request = server.submit(id, vec![x]).unwrap();
    let Reply::Cycles { fired, .. } = server.wait_for(request, TIMEOUT).unwrap() else {
        panic!("expected a cycles reply");
    };
    assert_eq!(fired, 1);
    let request = server.snapshot(id).unwrap();
    let Reply::SnapshotBytes { bytes, .. } = server.wait_for(request, TIMEOUT).unwrap() else {
        panic!("expected snapshot bytes");
    };
    let wm = mpps_server::Session::decode_state(&bytes, server.fingerprint()).unwrap();
    assert_eq!(wm.len(), 1);
    let w = wm[0].1.get(mpps_ops::intern("w"));
    assert_eq!(w, Some(mpps_ops::Value::Int(1 + depth as i64)));
}
