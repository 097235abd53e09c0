//! `serve-hot` and `serve-spill`: the rule-engine server under a closed
//! loop of 16 clients, each with one request in flight, over one worker.
//!
//! Closed because that is what in-process callers are: `Server::submit`
//! returns a request id and the caller must `recv` its reply. (An open-loop
//! rate sweep waits for the parked network front-end.) Both workloads send
//! the same seeded access sequence — 90 % of requests to a hot 10 % of the
//! sessions — and differ only in `resident_budget`: all-resident never takes
//! the store's eviction path, the spill budget holds the hot set and makes
//! every cold request fault in and evict.

use crate::harness::{
    fnv1a, median, p50_p99_us, percentile, rounds, timed_setup, Opts, Rng, Spans, KEEP_PER_ROUND,
    TRACE_PID,
};
use crate::metrics::Outcome;
use mpps_ops::{intern, RunOutcome, Strategy, Value};
use mpps_rete::ReteNetwork;
use mpps_server::{
    program_fingerprint, Reply, Server, ServerConfig, ServerError, Session, SessionId,
};
use mpps_telemetry::{Recorder, TraceRecorder, Track};
use mpps_workloads::serve as workload;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SESSIONS: usize = 20_000;
/// `serve-spill`'s resident budget: all but 100 sessions fit, so one cold
/// request in 180 faults in and evicts. On the build host one spill costs
/// 0.3–1.2 ms — 5 to 20 requests' worth of service — and that price wanders
/// tenfold within an hour (README, "The disk"), so the budget is set where
/// the store's disk path carries about 1 % of the run: its counts are exact
/// and its cost is timed directly in the traced run's micro-phase, while the
/// end-to-end numbers measure the program and not the disk's mood.
const SPILL_BUDGET: usize = 19_900;
/// Requests in a hundred that go to the hot set.
const HOT_PERCENT: usize = 90;
const CLIENTS: usize = 16;
const QUEUE_CAPACITY: usize = 64;
const WMES_PER_REQUEST: usize = 4;
/// Three firings (route, finish, retire) per WME.
const FIRED_PER_REQUEST: usize = workload::CYCLES_PER_REQUEST * WMES_PER_REQUEST;
const REQUESTS_PER_ROUND: usize = 7_000;
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
/// How long the driver polls for a reply before it parks: several service
/// times.
const SPIN: Duration = Duration::from_micros(200);
/// Well under the time the worker needs for a full queue of admissions.
const ADMISSION_POLL: Duration = Duration::from_micros(100);

/// A live server with its admitted sessions.
pub struct Inputs {
    server: Server,
    ids: Vec<SessionId>,
    /// Indices into `ids`: the seeded hot 10 %, then everything else.
    hot: Vec<usize>,
    cold: Vec<usize>,
    /// Requests sent to each session so far (the next request's round).
    sent: Vec<u64>,
    rng: Rng,
    requests_per_round: usize,
}

/// Spill files stay inside the checkout.
fn spill_dir(opts: &Opts) -> PathBuf {
    opts.out_dir.join("spill")
}

fn config(opts: &Opts, spill: bool) -> ServerConfig {
    ServerConfig {
        workers: 1,
        queue_capacity: QUEUE_CAPACITY,
        resident_budget: spill.then(|| opts.size(SPILL_BUDGET, 50)),
        evict_dir: Some(spill_dir(opts)),
        ..ServerConfig::default()
    }
}

pub fn build(opts: &Opts, spill: bool) -> Inputs {
    let sessions = opts.size(SESSIONS, 1000);
    let mut server = Server::new(workload::program(), config(opts, spill)).expect("server starts");
    let mut ids = Vec::with_capacity(sessions);
    let ready =
        |reply: &Reply| assert!(matches!(reply, Reply::Ready { .. }), "admission: {reply:?}");
    while ids.len() < sessions {
        match server.create_session(workload::initial()) {
            Ok((id, _)) => ids.push(id),
            // Queue full. Poll for the acknowledgements instead of parking
            // in `recv`: the worker creates a session in ~5 us, and waking a
            // parked driver once per session costs it about as much again,
            // at a price that depends on where the host runs the two vCPUs.
            Err(ServerError::Overloaded { .. }) => {
                std::thread::sleep(ADMISSION_POLL);
                while let Some(reply) = server.try_recv() {
                    ready(&reply);
                }
            }
            Err(e) => panic!("admission failed: {e}"),
        }
    }
    server
        .drain(REPLY_TIMEOUT, ready)
        .expect("admissions drain");
    let mut rng = Rng::new(opts.seed);
    let mut order: Vec<usize> = (0..sessions).collect();
    rng.shuffle(&mut order);
    let cold = order.split_off(sessions / 10);
    Inputs {
        server,
        ids,
        hot: order,
        cold,
        sent: vec![0; sessions],
        rng,
        requests_per_round: opts.size(REQUESTS_PER_ROUND, 1200),
    }
}

impl Inputs {
    /// The next session of the access sequence and its request.
    fn next_request(&mut self) -> (usize, Vec<mpps_ops::Wme>) {
        let pool = if self.rng.below(100) < HOT_PERCENT {
            &self.hot
        } else {
            &self.cold
        };
        let s = pool[self.rng.below(pool.len())];
        let round = self.sent[s];
        self.sent[s] += 1;
        (s, workload::round(self.ids[s].0, round, WMES_PER_REQUEST))
    }
}

/// One answered request as the driver saw it.
struct Answer {
    /// Client slot (0..CLIENTS) that carried it.
    client: usize,
    submit_ns: u64,
    reply_ns: u64,
    /// Worker-side service time, from `Reply::Cycles.nanos`.
    service_ns: u64,
    ok: bool,
}

/// The next reply, waited for the way a spin-then-park channel waits: poll
/// for [`SPIN`], then block. A worker answers every ~45 us, so under load
/// the driver never parks. When it parked in `recv` after every reply, the
/// worker paid one cross-vCPU wake-up per request, and that cost 3 us or
/// 15 us depending on the host: the same binary read 22 k or 17 k requests/s
/// for twenty minutes at a time.
fn next_reply(server: &mut Server) -> Result<Reply, ServerError> {
    let began = Instant::now();
    loop {
        if let Some(reply) = server.try_recv() {
            return Ok(reply);
        }
        if began.elapsed() > SPIN {
            return server.recv_timeout(REPLY_TIMEOUT);
        }
        std::hint::spin_loop();
    }
}

/// One closed-loop round: `n` requests, at most `CLIENTS` in flight.
/// `on_answer` sees every reply in arrival order. With `spans`, the driver's
/// own time in `Server::submit` and blocked in `recv` is recorded too (two
/// more clock reads per call, so only the traced run asks for it).
fn closed_loop(
    inp: &mut Inputs,
    epoch: Instant,
    n: usize,
    mut spans: Option<&mut Spans>,
    mut on_answer: impl FnMut(Answer),
) {
    let now = || epoch.elapsed().as_nanos() as u64;
    // One worker answers in submission order, so the oldest in flight is
    // always the next to be answered.
    let mut in_flight: VecDeque<(u64, usize, u64)> = VecDeque::with_capacity(CLIENTS);
    let mut free: Vec<usize> = (0..CLIENTS).rev().collect();
    let mut submitted = 0;
    let mut answered = 0;
    while answered < n {
        while submitted < n && !free.is_empty() {
            let (s, wmes) = inp.next_request();
            let client = free.pop().expect("checked non-empty");
            let submit_ns = now();
            let accepted = inp.server.submit(inp.ids[s], wmes);
            if let Some(spans) = spans.as_deref_mut() {
                spans.add("server.submit", "round", now() - submit_ns);
            }
            match accepted {
                Ok(request) => in_flight.push_back((request, client, submit_ns)),
                Err(_) => {
                    // Rejected (Overloaded or worse): failed, and it took no
                    // slot. Cannot happen with 16 clients under a 64 queue.
                    free.push(client);
                    answered += 1;
                    on_answer(Answer {
                        client,
                        submit_ns,
                        reply_ns: submit_ns,
                        service_ns: 0,
                        ok: false,
                    });
                }
            }
            submitted += 1;
        }
        if in_flight.is_empty() {
            continue;
        }
        let wait_from = if spans.is_some() { now() } else { 0 };
        let reply = next_reply(&mut inp.server);
        let reply_ns = now();
        if let Some(spans) = spans.as_deref_mut() {
            spans.add("server.recv", "round", reply_ns - wait_from);
        }
        let (request, client, submit_ns) = in_flight.pop_front().expect("checked non-empty");
        let (ok, service_ns) = match &reply {
            Ok(Reply::Cycles {
                request: r,
                fired,
                outcome,
                nanos,
                ..
            }) => (
                *r == request && *fired == FIRED_PER_REQUEST && *outcome == RunOutcome::Quiescent,
                *nanos,
            ),
            // `Reply::Failed`, a timeout, or a reply of another kind.
            _ => (false, 0),
        };
        free.push(client);
        answered += 1;
        on_answer(Answer {
            client,
            submit_ns,
            reply_ns,
            service_ns,
            ok,
        });
    }
}

/// Snapshot `session` through the server and return its bytes.
fn snapshot(inp: &mut Inputs, s: usize) -> Option<Vec<u8>> {
    let request = inp.server.snapshot(inp.ids[s]).ok()?;
    match inp.server.wait_for(request, REPLY_TIMEOUT).ok()? {
        Reply::SnapshotBytes { bytes, .. } => Some(bytes),
        _ => None,
    }
}

/// The first three hot sessions: requests pile up on them fastest.
fn sampled(inp: &Inputs) -> [usize; 3] {
    [inp.hot[0], inp.hot[1], inp.hot[2]]
}

/// Digest of the sampled sessions' snapshot bytes. Taken after the warm-up
/// round, a fixed prefix of the access sequence, so `serve-hot` and
/// `serve-spill` must agree on it byte for byte.
fn snapshot_digest(inp: &mut Inputs, out: &mut Outcome) -> u64 {
    let mut all = Vec::new();
    for s in sampled(inp) {
        out.attempted += 1;
        match snapshot(inp, s) {
            Some(bytes) => all.extend(bytes),
            None => out.check(false, || format!("snapshot of session {s} failed")),
        }
    }
    fnv1a(all)
}

/// A sampled session's `stats ^done` must equal 4 × the requests sent to it.
fn check_done_counts(inp: &mut Inputs, out: &mut Outcome) {
    let fingerprint = program_fingerprint(inp.server.program());
    for s in sampled(inp) {
        out.attempted += 1;
        let done = snapshot(inp, s)
            .and_then(|bytes| Session::decode_state(&bytes, fingerprint).ok())
            .and_then(|wm| {
                wm.iter()
                    .find(|(_, w)| w.class() == intern("stats"))
                    .and_then(|(_, w)| w.get(intern("done")))
            });
        let expect = Value::Int((WMES_PER_REQUEST as u64 * inp.sent[s]) as i64);
        out.check(done == Some(expect), || {
            format!("session {s}: stats ^done is {done:?}, expected {expect:?}")
        });
    }
}

pub fn run(opts: &Opts, spill: bool) -> Outcome {
    let mut out = Outcome::default();
    let (mut inp, setup) = timed_setup(opts, || build(opts, spill));
    if opts.trace {
        traced(&mut inp, opts, spill, &mut out);
    } else {
        timed(&mut inp, opts, setup, &mut out);
    }
    // Shutting down, the server deletes its spill files and its workers'
    // directories; the one they sat in is ours to remove.
    drop(inp);
    let _ = std::fs::remove_dir(spill_dir(opts));
    out
}

fn timed(inp: &mut Inputs, opts: &Opts, setup: Vec<f64>, out: &mut Outcome) {
    let epoch = Instant::now();
    let n = inp.requests_per_round;
    let (mut rate, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples: Vec<u64> = Vec::with_capacity(n);
    let mut first = true;
    rounds(opts.rounds(1.0), |measured| {
        samples.clear();
        let t0 = Instant::now();
        let mut bad = 0u64;
        closed_loop(inp, epoch, n, None, |a| {
            samples.push(a.reply_ns - a.submit_ns);
            bad += u64::from(!a.ok);
        });
        let wall = t0.elapsed().as_secs_f64();
        if std::mem::take(&mut first) {
            out.digest = Some(snapshot_digest(inp, out));
        }
        if measured {
            out.attempted += n as u64;
            out.failed += bad;
            let (p50, p99) = p50_p99_us(&mut samples);
            rate.push((n as u64 - bad) as f64 / wall);
            p50s.push(p50);
            p99s.push(p99);
        }
    });
    check_done_counts(inp, out);
    let total = (n * rate.len()) as u64;
    out.end_to_end(rate, p50s, p99s, total, setup);
}

fn counter(server: &mut Server, name: &str) -> u64 {
    server
        .metrics(REPLY_TIMEOUT)
        .map_or(0, |m| m.counter_total(name))
}

fn traced(inp: &mut Inputs, opts: &Opts, spill: bool, out: &mut Outcome) {
    let n = inp.requests_per_round;
    const COUNTERS: [&str; 3] = ["serve.faultins", "serve.evictions", "serve.eviction_bytes"];
    let before = COUNTERS.map(|name| counter(&mut inp.server, name));
    let overloaded_before = inp.server.overload_rejections();

    // The driver thread's time is `submit` calls + blocked `recv` + its own
    // bookkeeping; requests overlap 16 deep, so they live on their own
    // lanes (one per client) and not in the driver's self-time table.
    // Sessions grow with every request they serve, so untraced reference
    // rounds (the base of `trace_overhead`) alternate with the traced ones:
    // both medians then stand on sessions of the same age.
    let mut spans = Spans::new();
    let epoch = spans.epoch;
    let began = Instant::now();
    let root = spans.open("workload", None);
    let mut requests: Vec<(usize, u64, u64, u64)> = Vec::new();
    let (mut service, mut wait) = (Vec::new(), Vec::new());
    let (mut plain_wall, mut traced_wall) = (Vec::new(), Vec::new());
    let (mut busy_ns, mut spanned_ns, mut answered) = (0u64, 0u64, 0u64);
    let mut first = true;
    rounds(opts.rounds(0.3), |measured| {
        let t0 = Instant::now();
        let round = spans.open("reference_round", Some(root));
        closed_loop(inp, epoch, n, None, |a| {
            answered += 1;
            busy_ns += a.service_ns;
            if measured {
                out.attempted += 1;
                out.check(a.ok, || "request failed its reply check".into());
            }
        });
        spans.close(round);
        let plain = t0.elapsed();
        if std::mem::take(&mut first) {
            out.digest = Some(snapshot_digest(inp, out));
        }

        let t0 = Instant::now();
        let round = spans.open("round", Some(root));
        let mut kept = 0;
        closed_loop(inp, epoch, n, Some(&mut spans), |a| {
            let latency = a.reply_ns - a.submit_ns;
            service.push(a.service_ns);
            wait.push(latency.saturating_sub(a.service_ns));
            busy_ns += a.service_ns;
            answered += 1;
            if kept < KEEP_PER_ROUND {
                kept += 1;
                requests.push((a.client, a.submit_ns, a.reply_ns, a.service_ns));
            }
            if measured {
                out.attempted += 1;
                out.check(a.ok, || "traced request failed its reply check".into());
            }
        });
        spans.close(round);
        spanned_ns += plain.as_nanos() as u64 + t0.elapsed().as_nanos() as u64;
        if measured {
            plain_wall.push(plain.as_secs_f64());
            traced_wall.push(t0.elapsed().as_secs_f64());
        }
    });
    spans.close(root);
    let wall_ns = began.elapsed().as_nanos() as u64;

    service.sort_unstable();
    wait.sort_unstable();
    out.single(
        "server.server.service_us_p50",
        percentile(&service, 0.5) as f64 / 1e3,
    );
    out.single(
        "server.server.service_us_p99",
        percentile(&service, 0.99) as f64 / 1e3,
    );
    out.single(
        "server.server.queue_wait_us_p50",
        percentile(&wait, 0.5) as f64 / 1e3,
    );
    out.single(
        "server.server.queue_wait_us_p99",
        percentile(&wait, 0.99) as f64 / 1e3,
    );
    out.single(
        "server.server.worker_busy_share",
        busy_ns as f64 / spanned_ns as f64,
    );
    out.single(
        "server.server.overloaded",
        (inp.server.overload_rejections() - overloaded_before) as f64,
    );
    let after = COUNTERS.map(|name| counter(&mut inp.server, name));
    let delta: Vec<f64> = after
        .iter()
        .zip(&before)
        .map(|(a, b)| (a - b) as f64)
        .collect();
    out.single(
        "server.store.faultins_per_req",
        delta[0] / answered.max(1) as f64,
    );
    out.single(
        "server.store.evictions_per_req",
        delta[1] / answered.max(1) as f64,
    );
    if delta[1] > 0.0 {
        out.single("server.store.spill_bytes_per_eviction", delta[2] / delta[1]);
    }
    out.single(
        "telemetry.trace_overhead",
        median(&traced_wall) / median(&plain_wall),
    );
    let name = if spill { "serve-spill" } else { "serve-hot" };
    let recorder = request_lanes(spans.recorder(name), &requests);
    out.traced(opts, name, &spans, wall_ns, &recorder);
    check_done_counts(inp, out);

    if spill {
        evict_micro_phase(inp, opts, out);
    } else {
        session_micro_phase(opts, out);
    }
}

/// Beside the driver's track, each kept request on its client's lane as
/// `request` → {`queue_wait`, `service`} (service placed at the end of the
/// request: the reply is sent the moment service ends).
fn request_lanes(mut rec: TraceRecorder, requests: &[(usize, u64, u64, u64)]) -> TraceRecorder {
    for &(client, submit, reply, service) in requests {
        let track = Track {
            pid: TRACE_PID,
            tid: 1 + client as u32,
        };
        rec.name_track(track, format!("client {client}"));
        let split = reply.saturating_sub(service).max(submit);
        rec.span(track, "request", submit, reply);
        rec.span(track, "queue_wait", submit, split);
        rec.span(track, "service", split, reply);
    }
    rec
}

/// `Server::evict` known sessions, then submit to them: the price of one
/// eviction and of one request that must fault its session back in.
fn evict_micro_phase(inp: &mut Inputs, opts: &Opts, out: &mut Outcome) {
    let (mut evict, mut faultin) = (Vec::new(), Vec::new());
    for i in 0..opts.size(400, 20) {
        let s = inp.hot[i % inp.hot.len()];
        let id = inp.ids[s];
        // Make it resident first, so that the eviction below has work to do.
        let touch = |inp: &mut Inputs| {
            let round = inp.sent[s];
            inp.sent[s] += 1;
            let t0 = Instant::now();
            let reply = inp
                .server
                .submit(id, workload::round(id.0, round, WMES_PER_REQUEST))
                .and_then(|r| inp.server.wait_for(r, REPLY_TIMEOUT));
            (
                t0.elapsed().as_nanos() as u64,
                matches!(reply, Ok(Reply::Cycles { .. })),
            )
        };
        let (_, ok0) = touch(inp);
        let t0 = Instant::now();
        let evicted = inp
            .server
            .evict(id)
            .and_then(|r| inp.server.wait_for(r, REPLY_TIMEOUT));
        evict.push(t0.elapsed().as_nanos() as u64);
        let (ns, ok1) = touch(inp);
        faultin.push(ns);
        out.attempted += 1;
        out.check(
            ok0 && ok1 && matches!(evicted, Ok(Reply::Evicted { .. })),
            || format!("evict/fault-in of session {s} failed"),
        );
    }
    out.p50_us("server.store.evict_us_p50", &mut evict);
    out.p50_us("server.store.faultin_req_us_p50", &mut faultin);
    check_done_counts(inp, out);

    // The codec alone, on a settled session.
    let program = Arc::new(workload::program());
    let network = Arc::new(ReteNetwork::compile(&program).expect("serve program compiles"));
    let engine = ServerConfig::default().engine;
    let fingerprint = program_fingerprint(&program);
    let mut session = Session::new(
        program.clone(),
        network.clone(),
        Strategy::Lex,
        engine,
        fingerprint,
    );
    session.ingest(workload::initial());
    session.ingest(workload::round(1, 0, WMES_PER_REQUEST));
    session
        .run(workload::cycle_budget(WMES_PER_REQUEST))
        .expect("session settles");
    let (mut encode, mut decode) = (Vec::new(), Vec::new());
    let mut bytes = Vec::new();
    for _ in 0..opts.size(1000, 50) {
        let t0 = Instant::now();
        bytes = session.snapshot().expect("snapshot encodes");
        encode.push(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        let restored = Session::restore(
            program.clone(),
            network.clone(),
            engine,
            fingerprint,
            &bytes,
        );
        decode.push(t0.elapsed().as_nanos() as u64);
        out.attempted += 1;
        out.check(
            restored.is_ok_and(|s| s.wm_len() == session.wm_len()),
            || "snapshot did not restore to the same working memory".into(),
        );
    }
    out.p50_us("server.snapshot.encode_us_p50", &mut encode);
    out.p50_us("server.snapshot.decode_us_p50", &mut decode);
    out.single("server.snapshot.bytes", bytes.len() as f64);
}

/// A bare `Session`, no server: the floor under `op_p50_us`.
fn session_micro_phase(opts: &Opts, out: &mut Outcome) {
    let program = Arc::new(workload::program());
    let network = Arc::new(ReteNetwork::compile(&program).expect("serve program compiles"));
    let engine = ServerConfig::default().engine;
    let fingerprint = program_fingerprint(&program);
    let (mut create, mut ingest) = (Vec::new(), Vec::new());
    for i in 0..opts.size(1000, 50) as u64 {
        let t0 = Instant::now();
        let mut session = Session::new(
            program.clone(),
            network.clone(),
            Strategy::Lex,
            engine,
            fingerprint,
        );
        session.ingest(workload::initial());
        session
            .run(workload::cycle_budget(0))
            .expect("session settles");
        create.push(t0.elapsed().as_nanos() as u64);
        for round in 0..4 {
            let wmes = workload::round(i, round, WMES_PER_REQUEST);
            let t0 = Instant::now();
            session.ingest(wmes);
            let (result, _) = session
                .run(workload::cycle_budget(WMES_PER_REQUEST))
                .expect("settles");
            ingest.push(t0.elapsed().as_nanos() as u64);
            out.attempted += 1;
            out.check(result.fired.len() == FIRED_PER_REQUEST, || {
                format!("bare session fired {}", result.fired.len())
            });
        }
    }
    out.p50_us("server.session.create_us_p50", &mut create);
    out.p50_us("server.session.ingest_run_us_p50", &mut ingest);
}
