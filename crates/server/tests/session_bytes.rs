//! What one idle `serve` session costs in heap bytes, and what one request
//! costs in allocations.
//!
//! A counting global allocator keeps, per thread, the bytes currently
//! allocated and the number of allocations made (a `realloc` goes through
//! `alloc` and `dealloc`, so it counts as one allocation and moves the
//! byte count by the size difference). Sessions are built and driven on
//! the test thread, so the difference in live bytes across their creation
//! and warm-up is what they hold.
//!
//! A settled session holds one WME and one stored token in one bucket a
//! side. `Session::run` frees what a run leaves beyond that (bucket
//! capacity, the token records after the last live one, queue and scratch
//! capacity, dead refraction keys), so the bytes must stay under the
//! budget after one request and after 10⁴.
//!
//! The allocation count is pinned in release builds only: debug builds
//! allocate in assertions (the Rete engine checks each batch for
//! duplicate time tags with a `HashSet`).
//!
//! ```sh
//! cargo test --release -p mpps-server --test session_bytes -- --include-ignored --nocapture
//! ```

use mpps_ops::{RunOutcome, Strategy};
use mpps_rete::ReteNetwork;
use mpps_server::{program_fingerprint, ServerConfig, Session};
use mpps_workloads::serve;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Tracks each thread's live heap bytes and allocation count.
struct CountingAlloc;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only const
// thread-local `Cell`s, which neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|n| n.set(n.get() + layout.size() as i64));
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees about `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|n| n.set(n.get() - layout.size() as i64));
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes this thread has allocated and not freed.
fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// Allocations this thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The most a settled session may hold.
const BYTES_PER_SESSION: i64 = 3 * 512;
/// Requests are shaped like the `serve-hot` benchmark's.
const WMES_PER_REQUEST: usize = 4;
/// Sessions measured together, so the figure is a per-session mean.
const SESSIONS: u64 = 64;
const AGE: u64 = 10_000;

/// The compiled serve program, shared by every session.
struct Shared {
    program: Arc<mpps_ops::Program>,
    network: Arc<ReteNetwork>,
    fingerprint: u64,
}

impl Shared {
    fn new() -> Shared {
        let program = Arc::new(serve::program());
        let network = Arc::new(ReteNetwork::compile(&program).unwrap());
        let fingerprint = program_fingerprint(&program);
        Shared {
            program,
            network,
            fingerprint,
        }
    }

    /// A session admitted the way the server admits one: created, loaded
    /// with its initial working memory and run to quiescence.
    fn session(&self) -> Session {
        let engine = ServerConfig::default().engine;
        let mut session = Session::new(
            Arc::clone(&self.program),
            Arc::clone(&self.network),
            Strategy::Lex,
            engine,
            self.fingerprint,
        );
        session.ingest(serve::initial());
        session.run(serve::cycle_budget(0)).unwrap();
        session
    }
}

/// Serve request `round` of session number `s`.
fn request(session: &mut Session, s: u64, round: u64) {
    session.ingest(serve::round(s, round, WMES_PER_REQUEST));
    let (result, _) = session.run(serve::cycle_budget(WMES_PER_REQUEST)).unwrap();
    assert_eq!(result.outcome, RunOutcome::Quiescent);
    assert_eq!(session.wm_len(), 1, "a settled session holds one WME");
}

/// A session that has served `requests` requests, boxed as the server's
/// store keeps it, and the bytes it holds.
fn aged(shared: &Shared, s: u64, requests: u64) -> (Box<Session>, i64) {
    let before = live_bytes();
    let mut session = Box::new(shared.session());
    for round in 0..requests {
        request(&mut session, s, round);
    }
    (session, live_bytes() - before)
}

#[test]
fn a_warm_session_holds_its_live_state() {
    let shared = Shared::new();
    // Interns the workload's symbols outside the measured region.
    drop(aged(&shared, SESSIONS, 1));

    let (sessions, bytes): (Vec<_>, Vec<_>) = (0..SESSIONS).map(|s| aged(&shared, s, 1)).unzip();
    let warm = bytes.iter().sum::<i64>() / SESSIONS as i64;
    drop(sessions);
    let (session, old) = aged(&shared, 0, AGE);
    drop(session);
    println!("a session holds {warm} B after one request, {old} B after {AGE}");
    assert!(
        warm <= BYTES_PER_SESSION,
        "a warm session holds {warm} B (budget {BYTES_PER_SESSION})"
    );
    assert!(
        old <= BYTES_PER_SESSION,
        "a session holds {old} B after {AGE} requests (budget {BYTES_PER_SESSION})"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "debug assertions allocate")]
fn a_request_stays_within_its_allocation_budget() {
    let shared = Shared::new();
    let (mut session, _) = aged(&shared, 0, 1);
    const REQUESTS: u64 = 1_000;
    let before = allocs();
    for round in 1..=REQUESTS {
        request(&mut session, 0, round);
    }
    let per_request = (allocs() - before) as f64 / REQUESTS as f64;
    println!("{per_request:.1} allocations per request");
    assert!(
        per_request <= 175.0,
        "{per_request:.1} allocations per request"
    );
}
