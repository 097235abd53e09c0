use super::*;
use mpps_ops::{parse_program, Wme};
use mpps_rete::ReteMatcher;

fn add(id: u64, wme: Wme) -> WmeChange {
    WmeChange::add(WmeId(id), wme)
}

fn del(id: u64, wme: Wme) -> WmeChange {
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

/// The between-cycle wait sites obey the same failure model as a
/// cycle. Worker 1 of a profiled matcher holding stored state dies
/// either on receiving `request` (its send succeeded, so only the wait
/// loop's liveness poll can notice) or before it (`dead_first`: the
/// send itself fails). Both must give the typed error in bounded time,
/// leave the matcher poisoned, and still drop cleanly.
fn assert_worker_death_surfaces(request: impl Fn(&mut ThreadedMatcher) -> Option<MatchError>) {
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

#[test]
fn worker_death_surfaces_error_not_hang_in_profile_snapshot() {
    assert_worker_death_surfaces(|par| par.profile_snapshot().err());
}

#[test]
fn worker_death_surfaces_error_not_hang_in_migrate_to() {
    assert_worker_death_surfaces(|par| par.migrate_to(Partition::random(2048, 2, 7)).err());
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

#[test]
fn migrate_to_same_partition_is_a_noop() {
    let prog = parse_program(BLUE).unwrap();
    let network = ReteNetwork::compile(&prog).unwrap();
    let partition = Partition::round_robin(64, 3);
    let mut par = ThreadedMatcher::with_partition(network, partition.clone());
    par.process(&blue_wmes());
    let stats = par.migrate_to(partition).unwrap();
    assert_eq!(stats, MigrationStats::default());
    assert_eq!(par.conflict_set().len(), 1);
}

/// Migrating every bucket onto one worker and back must move the
/// stored token state losslessly: retractions after the round trip
/// still find every entry (a lost or duplicated token would panic the
/// kernel or diverge the conflict set).
#[test]
fn migration_round_trip_preserves_stored_state() {
    let src = r#"
        (p pair (slot ^v <x>) (east ^v <x>) (west ^v <x>) --> (remove 1))
        (p lonely (node ^id <n>) -(edge ^to <n>) --> (remove 1))
    "#;
    let prog = parse_program(src).unwrap();
    let mut seq = ReteMatcher::from_program(&prog).unwrap();
    let network = ReteNetwork::compile(&prog).unwrap();
    let mut par = ThreadedMatcher::with_partition(network, Partition::round_robin(64, 4));

    let mut adds = Vec::new();
    let mut id = 0u64;
    for v in 0..6i64 {
        for class in ["slot", "east", "west"] {
            id += 1;
            adds.push(add(id, Wme::new(class, &[("v", v.into())])));
        }
        id += 1;
        adds.push(add(id, Wme::new("node", &[("id", v.into())])));
        id += 1;
        adds.push(add(id, Wme::new("edge", &[("to", v.into())])));
    }
    seq.process(&adds);
    par.process(&adds);
    assert_eq!(seq.conflict_set(), par.conflict_set());

    // Pile everything onto worker 0, then spread it back out. The
    // negative-node counts must survive both hops.
    let all_on_zero = Partition::from_owners(vec![0; 64], 4);
    let onto = par.migrate_to(all_on_zero).unwrap();
    assert!(onto.moved_buckets > 0);
    assert!(
        onto.moved_left + onto.moved_right > 0,
        "stored entries must travel: {onto:?}"
    );
    let back = par.migrate_to(Partition::round_robin(64, 4)).unwrap();
    assert!(back.moved_buckets > 0);

    // Retract every WME: every migrated entry must be found again.
    let removes: Vec<WmeChange> = adds
        .iter()
        .map(|c| WmeChange::remove(c.id, c.wme.clone()))
        .collect();
    seq.process(&removes);
    par.process(&removes);
    assert_eq!(seq.conflict_set(), par.conflict_set());
    assert!(par.conflict_set().is_empty());
}

/// Negative-node counts co-migrate with their bucket pair: flipping a
/// negation *after* a migration must produce exactly the sequential
/// conflict set.
#[test]
fn negation_flips_correctly_after_migration() {
    let src = "(p lonely (node ^id <n>) -(edge ^to <n>) --> (remove 1))";
    let prog = parse_program(src).unwrap();
    let mut seq = ReteMatcher::from_program(&prog).unwrap();
    let network = ReteNetwork::compile(&prog).unwrap();
    let mut par = ThreadedMatcher::with_partition(network, Partition::round_robin(64, 4));
    let e7 = Wme::new("edge", &[("to", 7.into())]);
    let first = vec![
        add(1, Wme::new("node", &[("id", 7.into())])),
        add(2, Wme::new("node", &[("id", 8.into())])),
        add(3, e7.clone()),
    ];
    seq.process(&first);
    par.process(&first);
    assert_eq!(seq.conflict_set(), par.conflict_set());

    par.migrate_to(Partition::from_owners(vec![3; 64], 4))
        .unwrap();

    // Deleting the edge flips the blocked token live; the migrated
    // neg_count is what makes this transition fire exactly once.
    let second = vec![del(3, e7)];
    seq.process(&second);
    par.process(&second);
    assert_eq!(seq.conflict_set(), par.conflict_set());
    assert_eq!(par.conflict_set().len(), 2);
}

/// Migration-under-load stress: a cross-product-heavy workload with
/// racing adds/deletes, re-partitioned between *every* cycle through
/// rotating strategies. The ownership map and stored tokens must stay
/// consistent — any loss or double-count diverges from the sequential
/// engine or panics a kernel assert.
#[test]
fn migration_under_load_stress() {
    let src = r#"
        (p pair (slot ^v <x>) (east ^v <x>) (west ^v <x>) --> (remove 1))
        (p lonely (node ^id <n>) -(edge ^to <n>) --> (remove 1))
    "#;
    let prog = parse_program(src).unwrap();
    for seed in 0..stress_iterations() {
        let values = 3 + (seed % 4) as i64;
        let mut seq = ReteMatcher::from_program(&prog).unwrap();
        let network = ReteNetwork::compile(&prog).unwrap();
        let mut par = ThreadedMatcher::with_partition(network, Partition::round_robin(64, 4));

        let mut id = 0u64;
        let mut first = Vec::new();
        for v in 0..values {
            for class in ["slot", "east", "west"] {
                id += 1;
                first.push(add(id, Wme::new(class, &[("v", v.into())])));
            }
            id += 1;
            first.push(add(id, Wme::new("node", &[("id", v.into())])));
            if v % 2 == 0 {
                id += 1;
                first.push(add(id, Wme::new("edge", &[("to", v.into())])));
            }
        }
        // Racing batch: delete the even-value east/west WMEs and the
        // edges, re-add fresh WMEs with the same join values.
        let mut second = Vec::new();
        for c in &first {
            let class = c.wme.class();
            let even = c
                .wme
                .get(mpps_ops::intern("v"))
                .or_else(|| c.wme.get(mpps_ops::intern("to")))
                .is_some_and(|v| matches!(v, mpps_ops::Value::Int(n) if n % 2 == 0));
            if even
                && (class == mpps_ops::intern("east")
                    || class == mpps_ops::intern("west")
                    || class == mpps_ops::intern("edge"))
            {
                second.push(WmeChange::remove(c.id, c.wme.clone()));
            }
        }
        for v in (0..values).step_by(2) {
            id += 1;
            second.push(add(id, Wme::new("east", &[("v", v.into())])));
            id += 1;
            second.push(add(id, Wme::new("west", &[("v", v.into())])));
        }
        let partitions = [
            Partition::random(64, 4, seed),
            Partition::from_owners(vec![(seed % 4) as u32; 64], 4),
            Partition::round_robin(64, 4),
        ];
        for (i, batch) in [&first, &second].into_iter().enumerate() {
            seq.process(batch);
            par.try_process(batch).expect("workers healthy");
            assert_eq!(
                seq.conflict_set(),
                par.conflict_set(),
                "diverged at seed {seed} batch {i}"
            );
            par.migrate_to(partitions[(seed as usize + i) % partitions.len()].clone())
                .expect("migration at the barrier");
            // Ownership changed but state didn't: still equivalent.
            assert_eq!(
                seq.conflict_set(),
                par.conflict_set(),
                "migration changed the conflict set at seed {seed} batch {i}"
            );
        }
    }
}

/// The online repartitioner: starting from a deliberately terrible
/// partition (every bucket on worker 0), the skew counters must
/// trigger a greedy re-pack and migrate at the barrier, after which
/// the matcher remains equivalent to the sequential engine.
#[test]
fn adaptive_repartitioner_rebalances_and_stays_equivalent() {
    let src = "(p j3 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (remove 1))";
    let prog = parse_program(src).unwrap();
    let mut seq = ReteMatcher::from_program(&prog).unwrap();
    let network = ReteNetwork::compile(&prog).unwrap();
    let mut par =
        ThreadedMatcher::with_partition_profiled(network, Partition::from_owners(vec![0; 64], 4));
    par.enable_adaptation(AdaptOptions {
        every: 1,
        skew_threshold: 1.5,
    });

    let mut changes = Vec::new();
    let mut id = 0u64;
    for v in 0..32i64 {
        for class in ["a", "b", "c"] {
            id += 1;
            changes.push(add(id, Wme::new(class, &[("v", v.into())])));
        }
    }
    seq.process(&changes);
    par.process(&changes);
    assert_eq!(seq.conflict_set(), par.conflict_set());

    let events = par.rebalance_events();
    assert!(!events.is_empty(), "skewed start must trigger a rebalance");
    let e = events[0];
    assert!(
        e.skew_after < e.skew_before,
        "rebalance must project an improvement: {e:?}"
    );
    assert!(e.moved_buckets > 0);
    assert!(e.hot_bucket_share > 0.0 && e.hot_bucket_share <= 1.0);

    // Post-migration cycles stay equivalent (deletes probe migrated
    // entries).
    let removes: Vec<WmeChange> = changes
        .iter()
        .take(30)
        .map(|c| WmeChange::remove(c.id, c.wme.clone()))
        .collect();
    seq.process(&removes);
    par.process(&removes);
    assert_eq!(seq.conflict_set(), par.conflict_set());

    // A balanced partition should not keep re-triggering forever on
    // the same workload shape: events stay bounded by cycles.
    assert!(par.rebalance_events().len() as u64 <= par.stats().cycles);
}
