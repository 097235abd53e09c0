//! The snapshot decoder against hostile bytes: arbitrary input, every
//! truncation and every single-bit flip of real snapshots of the serve
//! program must decode to `Ok` or a typed [`SnapshotError`] — never a
//! panic — and a length field must not make the decoder reserve memory
//! the input could not fill. Whatever decodes must also restore into a
//! session that serves a request without panicking.

use mpps_ops::{Interpreter, Program, Strategy};
use mpps_rete::{EngineConfig, ReteMatcher, ReteNetwork};
use mpps_server::snapshot::{decode, encode, SNAPSHOT_MAGIC};
use mpps_server::{program_fingerprint, Session, SnapshotError, SNAPSHOT_VERSION};
use mpps_workloads::serve;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Records the largest single allocation each thread asks for, so a test
/// can see what one `decode` call reserved.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only a const
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(layout.size())));
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
static ALLOC: LargestAlloc = LargestAlloc;

/// The serve program, compiled once per test.
struct Serve {
    program: Arc<Program>,
    network: Arc<ReteNetwork>,
    fp: u64,
}

const ENGINE: EngineConfig = EngineConfig {
    table_size: 16,
    record_trace: false,
};

impl Serve {
    fn new() -> Serve {
        let program = Arc::new(serve::program());
        Serve {
            network: Arc::new(ReteNetwork::compile(&program).unwrap()),
            fp: program_fingerprint(&program),
            program,
        }
    }

    /// Snapshots at the points a server takes them: freshly settled,
    /// mid-request (live refraction keys, queued changes), and settled
    /// again after several requests.
    fn snapshots(&self) -> Vec<Vec<u8>> {
        let matcher = ReteMatcher::new_shared(Arc::clone(&self.network), ENGINE);
        let mut interp =
            Interpreter::with_shared_program(Arc::clone(&self.program), Strategy::Lex, matcher);
        let mut out = Vec::new();
        let mut take =
            |i: &Interpreter<ReteMatcher>| out.push(encode(&i.export_state(), self.fp).unwrap());
        for w in serve::initial() {
            interp.add_wme(w);
        }
        interp.run(10).unwrap();
        take(&interp);
        for w in serve::round(3, 0, 3) {
            interp.add_wme(w);
        }
        interp.step().unwrap();
        interp.step().unwrap();
        interp.add_wme(serve::touch(3, 1).remove(0));
        take(&interp);
        for round in 1..4 {
            for w in serve::round(3, round, 2) {
                interp.add_wme(w);
            }
            interp.run(100).unwrap();
        }
        take(&interp);
        out
    }

    /// Decode must not panic. What decodes must survive a re-encode, and
    /// restore into a session that serves a request (or fails typed).
    /// Returns whether `bytes` decoded.
    fn decodes_or_types_the_error(&self, bytes: &[u8]) -> bool {
        let Ok(state) = decode(bytes, self.fp) else {
            return false;
        };
        let again = encode(&state, self.fp).expect("a decoded state re-encodes");
        assert_eq!(decode(&again, self.fp), Ok(state));
        let network = Arc::clone(&self.network);
        let program = Arc::clone(&self.program);
        if let Ok(mut session) = Session::restore(program, network, ENGINE, self.fp, bytes) {
            session.ingest(serve::round(3, 9, 2));
            let _ = session.run(100);
        }
        true
    }
}

#[test]
fn every_truncation_is_truncated() {
    let serve = Serve::new();
    for bytes in &serve.snapshots() {
        assert!(decode(bytes, serve.fp).is_ok());
        for cut in 0..bytes.len() {
            assert_eq!(
                decode(&bytes[..cut], serve.fp),
                Err(SnapshotError::Truncated),
                "cut at {cut} of {}",
                bytes.len()
            );
        }
    }
}

#[test]
fn every_single_bit_flip_decodes_or_is_a_typed_error() {
    let serve = Serve::new();
    let mut restorable = 0;
    for bytes in &serve.snapshots() {
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            restorable += usize::from(serve.decodes_or_types_the_error(&flipped));
        }
    }
    // Flips of values, symbols and refraction ids are valid states.
    assert!(restorable > 0);
}

/// Regression: capacity hints came from unchecked length fields, so a
/// header plus `wm_len = 65535` reserved room for 65 536 WM entries, and
/// a WME claiming 65 535 attributes reserved room for all of them.
#[test]
fn length_fields_do_not_reserve_what_the_input_cannot_hold() {
    let fp = program_fingerprint(&serve::program());
    let mut header = SNAPSHOT_MAGIC.to_vec();
    header.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    header.extend_from_slice(&fp.to_le_bytes());
    header.extend_from_slice(&[0, 0]); // LEX, not halted
    header.extend_from_slice(&[0; 16]); // cycle, next_id
    let claims = [
        // wm_len = u32::MAX, nothing after it.
        [&header[..], &u32::MAX.to_le_bytes()].concat(),
        // One WME of class "stats" claiming 65 535 attributes.
        [
            &header[..],
            &1u32.to_le_bytes(),
            &7u64.to_le_bytes(),
            &5u16.to_le_bytes(),
            b"stats",
            &u16::MAX.to_le_bytes(),
        ]
        .concat(),
    ];
    for bytes in claims {
        LARGEST.with(|m| m.set(0));
        assert_eq!(decode(&bytes, fp), Err(SnapshotError::Truncated));
        let largest = LARGEST.with(Cell::get);
        assert!(
            largest <= 64 * bytes.len(),
            "decoding {} bytes reserved {largest} bytes at once",
            bytes.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, alone or behind a valid header (so they reach the
    /// counted collections rather than failing on the magic).
    #[test]
    fn arbitrary_bytes_decode_or_are_a_typed_error(
        body in proptest::collection::vec(any::<u8>(), 0..256),
        behind_header in any::<bool>(),
    ) {
        let serve = Serve::new();
        let mut bytes = Vec::new();
        if behind_header {
            bytes.extend_from_slice(&SNAPSHOT_MAGIC);
            bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
            bytes.extend_from_slice(&serve.fp.to_le_bytes());
        }
        bytes.extend_from_slice(&body);
        serve.decodes_or_types_the_error(&bytes);
    }
}
