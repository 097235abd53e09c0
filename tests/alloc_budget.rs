//! Allocation budget of the match–resolve–act loop.
//!
//! A counting global allocator tallies heap allocations (a `realloc`
//! counts as one: it goes through `alloc`) on the calling thread, and the
//! budgets pin what each layer may spend: an instantiation is one
//! allocation, a WME is wrapped once and shared by working memory, the
//! change log and the Rete memories, and bindings are built only for the
//! instantiation that fires. Runs are shaped like the benchmark's: a fresh
//! `ReteMatcher` with 2048 buckets over a precompiled network, rubik with
//! 400 random U/R moves, tourney 32×32, weaver 200×2.
//!
//! Debug builds allocate in assertions (the Rete engine checks each batch
//! for duplicate time tags with a `HashSet`), so the budgets hold for
//! release builds only:
//!
//! ```sh
//! cargo test --release --test alloc_budget -- --include-ignored
//! ```

use mpps_ops::interpreter::StepOutcome;
use mpps_ops::{Instantiation, Interpreter, ProductionId, Program, Strategy, Wme, WmeId};
use mpps_rete::{EngineConfig, ReteMatcher, ReteNetwork};
use mpps_workloads::{rubik, tourney, weaver};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts the allocations each thread makes.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only a const
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees about `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations this thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const TABLE_SIZE: u64 = 2048;

/// Allocations of one run, in total and per step (the load cycle first).
struct RunCount {
    total: u64,
    per_step: Vec<u64>,
}

/// Load `initial` into a fresh matcher over `network` and step to the end,
/// counting from the matcher's construction on.
fn run(program: &Arc<Program>, network: &Arc<ReteNetwork>, initial: &[Wme]) -> RunCount {
    let start = allocs();
    let matcher = ReteMatcher::new_shared(
        Arc::clone(network),
        EngineConfig {
            table_size: TABLE_SIZE,
            record_trace: false,
        },
    );
    let mut interp = Interpreter::with_shared_program(Arc::clone(program), Strategy::Lex, matcher);
    for wme in initial {
        interp.add_wme(wme.clone());
    }
    let mut per_step = Vec::new();
    loop {
        let before = allocs();
        let step = interp.step().expect("workload steps never fail");
        per_step.push(allocs() - before);
        if matches!(step, StepOutcome::Quiescent) || interp.is_halted() {
            break;
        }
    }
    let total = allocs() - start;
    drop(interp);
    RunCount { total, per_step }
}

/// Compile `program` outside the counted region.
fn compiled(program: Program) -> (Arc<Program>, Arc<ReteNetwork>) {
    let network = ReteNetwork::compile(&program).expect("workload program compiles");
    (Arc::new(program), Arc::new(network))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "debug assertions allocate")]
fn an_instantiation_is_one_allocation() {
    let ids = [WmeId(7), WmeId(2), WmeId(9)];
    let before = allocs();
    let inst = Instantiation::new(ProductionId(4), &ids);
    assert_eq!(allocs() - before, 1);
    assert_eq!(inst.wme_ids(), ids);
    assert_eq!(inst.recency(), [WmeId(9), WmeId(7), WmeId(2)]);
    let before = allocs();
    let again = inst.clone();
    assert_eq!(allocs() - before, 0, "a clone shares the record");
    assert_eq!(again, inst);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "debug assertions allocate")]
fn rubik_cycles_stay_within_budget() {
    // 400 U/R moves from a fixed xorshift stream.
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let moves: Vec<rubik::Face> = (0..400)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            [rubik::Face::U, rubik::Face::R][(x & 1) as usize]
        })
        .collect();
    let (program, network) = compiled(rubik::program());
    let count = run(&program, &network, &rubik::initial(&moves));
    let cycles = &count.per_step[1..];
    let per_cycle = cycles.iter().sum::<u64>() as f64 / cycles.len() as f64;
    println!(
        "rubik: {} per run, {per_cycle:.1} per non-load cycle",
        count.total
    );
    assert!(
        per_cycle <= 64.0,
        "{per_cycle:.1} allocations per rubik cycle"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "debug assertions allocate")]
fn tourney_load_cycle_stays_within_budget() {
    let (program, network) = compiled(tourney::program());
    let count = run(&program, &network, &tourney::initial(32, 32));
    let load = count.per_step[0];
    println!("tourney: {} per run, {load} in the load cycle", count.total);
    assert!(
        load <= 3_400,
        "{load} allocations in the tourney load cycle"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "debug assertions allocate")]
fn weaver_run_stays_within_budget() {
    let (program, network) = compiled(weaver::program());
    let count = run(&program, &network, &weaver::initial(200, 2));
    let cycles = count.per_step.len();
    println!("weaver: {} per run of {cycles} cycles", count.total);
    assert!(
        count.total <= 8_500,
        "{} allocations per weaver run",
        count.total
    );
}
