use super::*;
use mpps_ops::{parse_program, Wme, WmeId};
use mpps_rete::ReteMatcher;

fn add(id: u64, wme: Wme) -> WmeChange {
    WmeChange::add(WmeId(id), wme)
}

fn del(id: u64, wme: impl Into<std::sync::Arc<Wme>>) -> WmeChange {
    WmeChange::remove(WmeId(id), wme)
}

const BLUE: &str = r#"
    (p clear-the-blue-block
       (block ^name <b2> ^color blue)
       (block ^name <b2> ^on <b1>)
       (hand ^state free)
       -->
       (remove 2))
"#;

fn blue_wmes() -> Vec<WmeChange> {
    vec![
        add(
            1,
            Wme::new("block", &[("name", "b1".into()), ("color", "blue".into())]),
        ),
        add(
            2,
            Wme::new("block", &[("name", "b1".into()), ("on", "table".into())]),
        ),
        add(3, Wme::new("hand", &[("state", "free".into())])),
    ]
}

/// Every visible conflict-set entry was derived exactly once, as in the
/// sequential engine: retracting one derivation settles it at zero. (A
/// root completed by two workers would be added and retracted twice, so
/// the visible set alone cannot show it.) Each entry is put back.
fn assert_single_derivations(par: &mut ThreadedMatcher) {
    for inst in par.conflict_set() {
        let key = (inst.production(), inst.wme_ids());
        assert_eq!(
            par.conflict.retract(&key),
            Some(0),
            "{inst:?} derived twice"
        );
        par.conflict.update(Sign::Plus, inst);
    }
}

fn agree(src: &str, batches: &[Vec<WmeChange>], workers: usize) {
    let prog = parse_program(src).unwrap();
    let mut seq = ReteMatcher::from_program(&prog).unwrap();
    let mut par = ThreadedMatcher::from_program(&prog, workers).unwrap();
    for batch in batches {
        seq.process(batch);
        par.process(batch);
        assert_eq!(
            seq.conflict_set(),
            par.conflict_set(),
            "diverged after a batch with {workers} workers"
        );
        assert_single_derivations(&mut par);
    }
}

fn agree_on_partition(src: &str, batches: &[Vec<WmeChange>], partition: Partition) {
    let prog = parse_program(src).unwrap();
    let label = format!(
        "{} workers over {} buckets",
        partition.processors(),
        partition.table_size()
    );
    let mut seq = ReteMatcher::from_program(&prog).unwrap();
    let network = ReteNetwork::compile(&prog).unwrap();
    let mut par = ThreadedMatcher::with_partition(network, partition);
    for batch in batches {
        seq.process(batch);
        par.process(batch);
        assert_eq!(
            seq.conflict_set(),
            par.conflict_set(),
            "diverged after a batch ({label})"
        );
        assert_single_derivations(&mut par);
    }
}

#[test]
fn matches_paper_example_in_parallel() {
    for workers in [1, 2, 4] {
        agree(BLUE, &[blue_wmes()], workers);
    }
}

#[test]
fn incremental_cycles_stay_consistent() {
    let wmes = blue_wmes();
    let batches: Vec<Vec<WmeChange>> = wmes.iter().map(|c| vec![c.clone()]).collect();
    agree(BLUE, &batches, 3);
}

#[test]
fn deletions_retract_across_threads() {
    let wmes = blue_wmes();
    let batches = vec![
        wmes.clone(),
        vec![del(3, wmes[2].wme.clone())],
        vec![add(4, Wme::new("hand", &[("state", "free".into())]))],
    ];
    agree(BLUE, &batches, 4);
}

#[test]
fn cross_product_all_pairs() {
    let mut changes = Vec::new();
    for i in 0..8 {
        changes.push(add(
            1 + i,
            Wme::new(
                "team",
                &[("side", "left".into()), ("name", (i as i64).into())],
            ),
        ));
    }
    for i in 0..8 {
        changes.push(add(
            100 + i,
            Wme::new(
                "team",
                &[("side", "right".into()), ("name", (100 + i as i64).into())],
            ),
        ));
    }
    let src = r#"
        (p cross (team ^side left ^name <a>) (team ^side right ^name <b>) --> (remove 1))
    "#;
    let prog = parse_program(src).unwrap();
    let mut par = ThreadedMatcher::from_program(&prog, 4).unwrap();
    par.process(&changes);
    assert_eq!(par.conflict_set().len(), 64);
}

#[test]
fn negation_behaves_under_parallelism() {
    let src = r#"
        (p lonely (node ^id <n>) -(edge ^to <n>) --> (remove 1))
    "#;
    let e = Wme::new("edge", &[("to", 7.into())]);
    let batches = vec![
        vec![add(1, Wme::new("node", &[("id", 7.into())]))],
        vec![add(2, e.clone())],
        vec![del(2, e)],
    ];
    agree(src, &batches, 4);
}

/// Every worker runs the constant tests, and only the owner of bucket 0
/// completes a single-CE production: one owner per root, even when that
/// owner is the last worker and another worker owns no bucket at all.
#[test]
fn single_ce_production_completes_once_at_the_owner_of_bucket_zero() {
    let src = r#"
        (p solo (alarm ^level <l>) --> (remove 1))
        (p acked (alarm ^level <l>) (ack ^level <l>) --> (remove 1))
    "#;
    let alarm = |v: i64| Wme::new("alarm", &[("level", v.into())]);
    let batches = vec![
        vec![
            add(1, alarm(3)),
            add(2, alarm(4)),
            add(3, Wme::new("ack", &[("level", 3.into())])),
        ],
        vec![del(1, alarm(3))],
    ];
    agree(src, &batches, 2);
    // Even buckets, bucket 0 among them, go to the last worker; worker 1
    // owns none.
    let owners = (0..64).map(|b| if b % 2 == 0 { 2 } else { 0 }).collect();
    agree_on_partition(src, &batches, Partition::from_owners(owners, 3));
}

#[test]
fn empty_batch_is_a_noop() {
    let prog = parse_program(BLUE).unwrap();
    let mut par = ThreadedMatcher::from_program(&prog, 2).unwrap();
    par.process(&[]);
    assert!(par.conflict_set().is_empty());
}

#[test]
fn mixed_add_delete_batch_converges() {
    // Adds and deletes of *different* WMEs in one batch: the final
    // state must match the sequential engine no matter how the
    // token cascades interleave.
    let src = "(p j (a ^v <x>) (b ^v <x>) --> (remove 1))";
    let a1 = Wme::new("a", &[("v", 1.into())]);
    let b1 = Wme::new("b", &[("v", 1.into())]);
    let b2 = Wme::new("b", &[("v", 1.into()), ("extra", 1.into())]);
    let batches = vec![
        vec![add(1, a1), add(2, b1.clone())],
        vec![del(2, b1), add(3, b2)],
    ];
    for workers in [1, 2, 4] {
        agree(src, &batches, workers);
    }
}

#[test]
fn shutdown_is_clean() {
    let prog = parse_program(BLUE).unwrap();
    let par = ThreadedMatcher::from_program(&prog, 4).unwrap();
    assert_eq!(par.worker_count(), 4);
    drop(par); // must not hang or panic
}

fn stress_iterations() -> u64 {
    std::env::var("MPPS_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100)
}

/// Interleaving stress over the Tourney-style cross-product section:
/// adds and deletes of the *same join values* race through ≥4 workers
/// for many seeds, and the conflict set must agree with the
/// sequential engine after every batch. Iteration count is env-gated
/// (`MPPS_STRESS_ITERS`) so CI can crank it up in release mode.
#[test]
fn retraction_race_stress() {
    // Two join levels sharing <x> spread the buckets across workers,
    // so +/− cascades for one instantiation cross thread boundaries.
    let src = r#"
        (p pair (slot ^v <x>) (east ^v <x>) (west ^v <x>) --> (remove 1))
    "#;
    let prog = parse_program(src).unwrap();
    for seed in 0..stress_iterations() {
        // Seed-varied shape: how many join values, and which half of
        // the WMEs gets deleted-and-readded in the racing batch.
        let values = 3 + (seed % 5) as i64;
        let mut id = 0u64;
        let mut wme = |class: &str, v: i64| {
            id += 1;
            (WmeId(id), Wme::new(class, &[("v", v.into())]))
        };
        let mut first = Vec::new();
        let mut live: Vec<(WmeId, Wme)> = Vec::new();
        for v in 0..values {
            for class in ["slot", "east", "west"] {
                let (i, w) = wme(class, v);
                live.push((i, w.clone()));
                first.push(WmeChange::add(i, w));
            }
        }
        // Racing batch: delete every east/west WME of the even join
        // values and re-add fresh WMEs with the *same* join values,
        // so Minus and Plus instantiations for identical keys are in
        // flight simultaneously.
        let mut second = Vec::new();
        for (i, w) in &live {
            let v = w.get(mpps_ops::intern("v")).unwrap();
            let is_even = matches!(v, mpps_ops::Value::Int(n) if n % 2 == (seed % 2) as i64);
            if is_even && w.class() != mpps_ops::intern("slot") {
                second.push(WmeChange::remove(*i, w.clone()));
            }
        }
        for v in 0..values {
            if v % 2 == (seed % 2) as i64 {
                let (i, w) = wme("east", v);
                second.push(WmeChange::add(i, w));
                let (i, w) = wme("west", v);
                second.push(WmeChange::add(i, w));
            }
        }
        let mut seq = ReteMatcher::from_program(&prog).unwrap();
        let mut par = ThreadedMatcher::from_program(&prog, 4).unwrap();
        for batch in [&first, &second] {
            seq.process(batch);
            par.try_process(batch).expect("workers healthy");
            assert_eq!(
                seq.conflict_set(),
                par.conflict_set(),
                "diverged at seed {seed}"
            );
        }
    }
}

/// A dead worker must surface as a typed error in bounded time — this
/// used to leave the coordinator blocked in `recv()` forever.
#[test]
fn worker_death_surfaces_error_not_hang() {
    let prog = parse_program(BLUE).unwrap();
    let mut par = ThreadedMatcher::from_program(&prog, 4).unwrap();
    for w in 0..4 {
        par.poison_worker(w);
    }
    let err = par
        .try_process(&blue_wmes())
        .expect_err("cycle over dead workers must fail");
    assert!(matches!(err, MatchError::WorkerPanicked { .. }), "{err:?}");
    // The matcher is poisoned: later cycles fail fast with the same
    // error instead of touching dead channels.
    let again = par.try_process(&blue_wmes()).expect_err("still poisoned");
    assert_eq!(again, err);
    drop(par); // must not hang on join
}

/// The between-cycle wait site obeys the same failure model as a cycle.
/// Worker 1 of a profiled matcher holding stored state dies either on
/// receiving the snapshot request (its send succeeded, so only the wait
/// loop's liveness poll can notice) or before it (`dead_first`: the send
/// itself fails). Both must give the typed error in bounded time, leave
/// the matcher poisoned, and still drop cleanly.
#[test]
fn worker_death_surfaces_error_not_hang_in_profile_snapshot() {
    let request = |par: &mut ThreadedMatcher| par.profile_snapshot().err();
    for dead_first in [false, true] {
        let prog = parse_program(BLUE).unwrap();
        let mut par = ThreadedMatcher::from_program_profiled(&prog, 2).unwrap();
        par.process(&blue_wmes());
        par.poison_worker(1);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        if dead_first {
            par.workers[1].send(ToWorker::Report).unwrap();
            while !par.handles[1].is_finished() {
                assert!(std::time::Instant::now() < deadline, "worker never died");
                std::thread::yield_now();
            }
        }
        let err = request(&mut par).expect("request over a dead worker must fail");
        assert!(
            std::time::Instant::now() < deadline,
            "dead worker took too long to surface (dead_first: {dead_first})"
        );
        assert_eq!(err, MatchError::WorkerPanicked { worker: 1 });
        assert_eq!(request(&mut par), Some(err.clone()), "still poisoned");
        assert_eq!(par.try_process(&blue_wmes()), Err(err));
        drop(par); // must not hang on join
    }
}

/// The infallible `Matcher::process` entry point panics with context
/// (never hangs) when a worker has died.
#[test]
fn process_panics_with_context_after_worker_death() {
    let prog = parse_program(BLUE).unwrap();
    let mut par = ThreadedMatcher::from_program(&prog, 2).unwrap();
    par.poison_worker(0);
    par.poison_worker(1);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        par.process(&blue_wmes());
    }))
    .expect_err("process must panic, not hang");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("panicked"), "panic lacks context: {msg:?}");
}

#[test]
fn partition_strategies_agree_with_sequential() {
    let wmes = blue_wmes();
    let batches = vec![wmes.clone(), vec![del(3, wmes[2].wme.clone())]];
    for partition in [
        Partition::round_robin(64, 4),
        Partition::random(64, 4, 1989),
        Partition::single(64),
        Partition::greedy(&[7, 0, 3, 0, 9, 1, 0, 2], 3),
    ] {
        agree_on_partition(BLUE, &batches, partition);
    }
}

#[test]
fn forwarding_is_coalesced_per_peer() {
    // Many join values across two join levels force heavy cross-
    // worker forwarding; per-drain coalescing must send strictly
    // fewer messages than tokens.
    let src = "(p j3 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (remove 1))";
    let prog = parse_program(src).unwrap();
    let mut changes = Vec::new();
    let mut id = 0u64;
    for v in 0..64i64 {
        for class in ["a", "b", "c"] {
            id += 1;
            changes.push(add(id, Wme::new(class, &[("v", v.into())])));
        }
    }
    let mut par = ThreadedMatcher::from_program(&prog, 4).unwrap();
    par.process(&changes);
    assert_eq!(par.conflict_set().len(), 64);
    let stats = par.stats();
    let forwarded: u64 = stats.per_worker.iter().map(|w| w.tokens_forwarded).sum();
    let messages: u64 = stats.per_worker.iter().map(|w| w.messages_sent).sum();
    assert!(forwarded > 0, "expected cross-worker traffic: {stats:?}");
    assert!(
        messages < forwarded,
        "coalescing should batch tokens: {messages} messages for {forwarded} tokens"
    );
    let processed: u64 = stats.per_worker.iter().map(|w| w.tokens_processed).sum();
    assert!(processed > 0);
    assert_eq!(stats.cycles, 1);
    assert_eq!(stats.conflict_entries, 64);
}

#[test]
fn per_shard_probe_counters_are_reported() {
    // Probes on the sharded tables must show up per worker so the
    // skew histograms can compare shard load.
    let src = "(p j3 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (remove 1))";
    let prog = parse_program(src).unwrap();
    let mut changes = Vec::new();
    let mut id = 0u64;
    for v in 0..32i64 {
        for class in ["a", "b", "c"] {
            id += 1;
            changes.push(add(id, Wme::new(class, &[("v", v.into())])));
        }
    }
    let mut par = ThreadedMatcher::from_program(&prog, 4).unwrap();
    par.process(&changes);
    let stats = par.stats();
    let left: u64 = stats.per_worker.iter().map(|w| w.left_probes).sum();
    let right: u64 = stats.per_worker.iter().map(|w| w.right_probes).sum();
    assert!(left > 0, "left-table probes recorded: {stats:?}");
    assert!(right > 0, "right-table probes recorded: {stats:?}");
}

/// The one export: a counter lane per worker, the cross-worker
/// histograms, and (profiled) the phase spans — every track it emits onto
/// a named track, with the names pinned so they stay stable across runs
/// and releases.
#[test]
fn export_trace_emits_named_worker_lanes() {
    let prog = parse_program(BLUE).unwrap();
    let network = ReteNetwork::compile(&prog).unwrap();
    let mut par = ThreadedMatcher::with_partition_profiled(network, Partition::round_robin(64, 3));
    par.process(&blue_wmes());
    let rec = par.export_trace();
    assert!(!rec.spans().is_empty(), "profiled: phase spans exported");
    let lanes: std::collections::BTreeSet<Track> = rec.counters().iter().map(|c| c.track).collect();
    assert_eq!(lanes.len(), 3, "one counter lane per worker");
    assert!(rec.histogram("threaded.tokens-processed").is_some());
    assert!(
        rec.histogram("threaded.left-probes").is_some(),
        "per-shard probe lanes exported"
    );
    assert_eq!(
        rec.histogram("threaded.conflict-set-size").unwrap().max(),
        Some(1)
    );

    assert_eq!(
        rec.process_names(),
        [(THREADED_PID, "threaded matcher".to_owned())]
    );
    let named: Vec<(Track, String)> = (0..par.worker_count())
        .map(|w| (Track::match_worker(w), format!("match thread {w}")))
        .collect();
    assert_eq!(rec.track_names(), named);
    for track in lanes.iter().chain(rec.spans().iter().map(|s| &s.track)) {
        assert!(
            named.iter().any(|(t, _)| t == track),
            "unnamed lane {track:?}"
        );
    }
}

/// Profiling must be observation-only: a profiled matcher produces
/// the same conflict set as an unprofiled one and as the sequential
/// engine, while its snapshot carries the threaded skew lanes.
#[test]
fn profiled_threaded_matches_identically_and_snapshots_metrics() {
    let src = "(p j3 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (remove 1))";
    let prog = parse_program(src).unwrap();
    let mut changes = Vec::new();
    let mut id = 0u64;
    for v in 0..32i64 {
        for class in ["a", "b", "c"] {
            id += 1;
            changes.push(add(id, Wme::new(class, &[("v", v.into())])));
        }
    }
    let mut plain = ThreadedMatcher::from_program(&prog, 4).unwrap();
    let mut prof = ThreadedMatcher::from_program_profiled(&prog, 4).unwrap();
    plain.process(&changes);
    prof.process(&changes);
    assert_eq!(plain.conflict_set(), prof.conflict_set());

    // Unprofiled snapshot is empty and cheap.
    assert!(plain.profile_snapshot().unwrap().is_empty());
    assert!(plain.export_trace().spans().is_empty());

    let snap = prof.profile_snapshot().unwrap();
    assert!(
        snap.counter_total(kernel::metric::NODE_ACTIVATIONS) > 0,
        "per-node activations recorded"
    );
    assert!(
        snap.counter_total(kernel::metric::BUCKET_ACTIVATIONS)
            == snap.counter_total(kernel::metric::NODE_ACTIVATIONS),
        "bucket and node lanes count the same activations"
    );
    assert!(
        snap.counter_total(metric::PEER_FORWARDED) > 0,
        "cross-worker forwarding recorded per peer"
    );
    let drains = snap
        .histogram(metric::DRAIN_ACTIVATIONS)
        .expect("per-drain skew lane present");
    assert!(drains.count() > 0);
    let work_spans = |m: &ThreadedMatcher| {
        let rec = m.export_trace();
        rec.spans()
            .iter()
            .filter(|s| s.name == "match-work")
            .count()
    };
    assert_eq!(work_spans(&prof), 4, "one match-work span per worker");
    let wall = snap
        .histogram(kernel::metric::CYCLE_WALL_NS)
        .expect("cycle wall series");
    assert_eq!(wall.count(), 1);
    let work = snap
        .histogram(kernel::metric::CYCLE_WORK_NS)
        .expect("per-worker work split");
    let wait = snap
        .histogram(kernel::metric::CYCLE_WAIT_NS)
        .expect("per-worker wait split");
    assert_eq!(work.count(), 4, "one work sample per worker per cycle");
    assert_eq!(wait.count(), 4, "one wait sample per worker per cycle");

    // The snapshot is cumulative and repeatable between cycles.
    let again = prof.profile_snapshot().unwrap();
    assert_eq!(again, snap);

    // And the matcher still matches correctly afterwards.
    let w = Wme::new("a", &[("v", 0.into())]);
    prof.process(&[del(1, w)]);
    assert_eq!(prof.conflict_set().len(), 31);
    assert_eq!(work_spans(&prof), 8);
    // The export is a copy: taking it leaves the snapshot alone.
    assert_eq!(
        prof.profile_snapshot()
            .unwrap()
            .histogram(kernel::metric::CYCLE_WALL_NS)
            .map(|h| h.count()),
        Some(2)
    );
}
