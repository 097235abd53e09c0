//! Versioned byte codec for session state.
//!
//! A snapshot captures an [`InterpreterState`] — live working memory,
//! pending (not-yet-matched) changes, refraction keys, `(write …)` outputs,
//! cycle count and halt flag — plus a fingerprint of the program it was
//! taken under. Matcher-internal memories are deliberately **not**
//! serialized: a matcher is a pure fold over the change batches it has
//! been fed, so restore rebuilds a fresh matcher by replaying the
//! matcher-visible WM as one batch
//! ([`mpps_ops::Interpreter::with_shared_state`]) and arrives at an
//! equivalent conflict set. That keeps the format small, engine-agnostic
//! (any [`mpps_ops::Matcher`] can host a restored session) and stable
//! across kernel rewrites.
//!
//! ## Format (version 1)
//!
//! All integers little-endian; strings are `u16` length + UTF-8 bytes;
//! symbols travel as strings (interning tables are process-local).
//!
//! ```text
//! magic    b"MPSS"
//! version  u16            — bump on any layout change
//! program  u64            — FNV-1a over each production's canonical text
//! strategy u8             — 0 = LEX, 1 = MEA
//! halted   u8
//! cycle    u64
//! next_id  u64            — next WME time tag
//! wm       u32 count, then (id u64, wme)*         — ascending time tags
//! fired    u32 count, then (prod u32, u16 n, id u64 ×n)*   — refraction
//! pending  u32 count, then (sign u8, id u64, wme)*
//! output   u32 count, then (u16 n, value ×n)*
//!
//! wme   := class str, u16 n, (attr str, value) ×n
//! value := tag u8 (0 int, 1 sym), then i64 | str
//! ```
//!
//! Decoders reject wrong magic, versions they do not understand, and
//! snapshots fingerprinted under a different program — restoring a WM
//! under the wrong ruleset would silently produce a wrong conflict set,
//! so the mismatch is an error, not a warning. They also reject a state
//! the restore path could not replay, and reserve no more memory than
//! the input could fill: the bytes may come from a damaged spill file.
//! Decoding reads disk and client bytes, so the module denies `unwrap`,
//! `expect` and `panic!` outside tests.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use mpps_ops::{
    intern, InterpreterState, ProductionId, Program, Sign, Strategy, Value, Wme, WmeChange, WmeId,
};
use std::collections::HashMap;
use std::fmt;

/// Magic bytes opening every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"MPSS";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u16 = 1;

/// Why a snapshot failed to decode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapshotError {
    /// Input ended before the structure it promised.
    Truncated,
    /// The magic bytes are not `b"MPSS"`.
    BadMagic,
    /// The version is newer (or older) than this build understands.
    UnsupportedVersion(u16),
    /// The snapshot was taken under a different program.
    ProgramMismatch {
        /// Fingerprint of the program the server is running.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// A field held an impossible value (bad tag, invalid UTF-8, …).
    Corrupt(&'static str),
    /// The state cannot be represented in the format: a length exceeds
    /// the width its field is encoded with. Encoding would have silently
    /// truncated the count and produced a decodable-but-wrong snapshot,
    /// so the encoder refuses instead.
    TooLarge {
        /// Which field overflowed (`"fired-key ids"`, `"working memory"`, …).
        what: &'static str,
        /// The length that did not fit.
        len: usize,
        /// The largest length the field can carry.
        max: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "truncated snapshot"),
            SnapshotError::BadMagic => write!(f, "not a session snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::ProgramMismatch { expected, found } => write!(
                f,
                "snapshot was taken under a different program \
                 (expected fingerprint {expected:#018x}, found {found:#018x})"
            ),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::TooLarge { what, len, max } => write!(
                f,
                "state too large to snapshot: {what} has {len} entries \
                 (format limit {max})"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a fingerprint of a program's canonical text: the `Display` form
/// of every production, in order. Stable across processes (no interning
/// ids) and sensitive to any rule edit, reorder, add or remove.
pub fn program_fingerprint(program: &Program) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for (_, production) in program.iter() {
        eat(production.to_string().as_bytes());
        eat(&[0]);
    }
    hash
}

/// Checked length prefix: `len` must fit the field's encoded width, or
/// the whole encode fails with [`SnapshotError::TooLarge`] — a snapshot
/// with a truncated count would decode cleanly into the *wrong* state.
fn put_len_u32(out: &mut Vec<u8>, len: usize, what: &'static str) -> Result<(), SnapshotError> {
    let v: u32 = len.try_into().map_err(|_| SnapshotError::TooLarge {
        what,
        len,
        max: u32::MAX as usize,
    })?;
    put_u32(out, v);
    Ok(())
}

fn put_len_u16(out: &mut Vec<u8>, len: usize, what: &'static str) -> Result<(), SnapshotError> {
    let v: u16 = len.try_into().map_err(|_| SnapshotError::TooLarge {
        what,
        len,
        max: u16::MAX as usize,
    })?;
    put_u16(out, v);
    Ok(())
}

/// Serialize `state` to snapshot bytes under `fingerprint`. Fails with
/// [`SnapshotError::TooLarge`] when any collection exceeds the width of
/// its length field instead of writing a truncated (decodable but wrong)
/// snapshot.
pub fn encode(state: &InterpreterState, fingerprint: u64) -> Result<Vec<u8>, SnapshotError> {
    let mut out = Vec::with_capacity(64 + state.wm.len() * 32);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    put_u16(&mut out, SNAPSHOT_VERSION);
    put_u64(&mut out, fingerprint);
    out.push(match state.strategy {
        Strategy::Lex => 0,
        Strategy::Mea => 1,
    });
    out.push(u8::from(state.halted));
    put_u64(&mut out, state.cycle as u64);
    put_u64(&mut out, state.next_id);
    put_len_u32(&mut out, state.wm.len(), "working memory")?;
    for (id, wme) in &state.wm {
        put_u64(&mut out, id.0);
        put_wme(&mut out, wme)?;
    }
    put_len_u32(&mut out, state.fired_keys.len(), "refraction memory")?;
    for (prod, ids) in &state.fired_keys {
        put_u32(&mut out, prod.0);
        put_len_u16(&mut out, ids.len(), "fired-key ids")?;
        for id in ids {
            put_u64(&mut out, id.0);
        }
    }
    put_len_u32(&mut out, state.pending.len(), "pending changes")?;
    for change in &state.pending {
        out.push(match change.sign {
            Sign::Plus => 0,
            Sign::Minus => 1,
        });
        put_u64(&mut out, change.id.0);
        put_wme(&mut out, &change.wme)?;
    }
    put_len_u32(&mut out, state.output.len(), "output rows")?;
    for row in &state.output {
        put_len_u16(&mut out, row.len(), "output row values")?;
        for value in row {
            put_value(&mut out, *value)?;
        }
    }
    Ok(out)
}

/// Decode snapshot bytes, verifying magic, version and program
/// fingerprint.
pub fn decode(bytes: &[u8], expected_fingerprint: u64) -> Result<InterpreterState, SnapshotError> {
    let mut r = Reader { bytes, at: 0 };
    if r.take::<4>()? != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u16()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let found = r.u64()?;
    if found != expected_fingerprint {
        return Err(SnapshotError::ProgramMismatch {
            expected: expected_fingerprint,
            found,
        });
    }
    let strategy = match r.u8()? {
        0 => Strategy::Lex,
        1 => Strategy::Mea,
        _ => return Err(SnapshotError::Corrupt("strategy tag")),
    };
    let halted = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(SnapshotError::Corrupt("halt flag")),
    };
    let cycle = r.u64()? as usize;
    let next_id = r.u64()?;
    let wm_len = r.u32()? as usize;
    let mut wm = r.vec_for(wm_len, 8 + MIN_WME);
    for _ in 0..wm_len {
        let id = WmeId(r.u64()?);
        wm.push((id, r.wme()?));
    }
    let fired_len = r.u32()? as usize;
    let mut fired_keys = r.vec_for(fired_len, 4 + 2);
    for _ in 0..fired_len {
        let prod = ProductionId(r.u32()?);
        let n = r.u16()? as usize;
        let mut ids = r.vec_for(n, 8);
        for _ in 0..n {
            ids.push(WmeId(r.u64()?));
        }
        fired_keys.push((prod, ids));
    }
    let pending_len = r.u32()? as usize;
    let mut pending = r.vec_for(pending_len, 1 + 8 + MIN_WME);
    for _ in 0..pending_len {
        let sign = match r.u8()? {
            0 => Sign::Plus,
            1 => Sign::Minus,
            _ => return Err(SnapshotError::Corrupt("change sign")),
        };
        let id = WmeId(r.u64()?);
        let wme = r.wme()?;
        pending.push(match sign {
            Sign::Plus => WmeChange::add(id, wme),
            Sign::Minus => WmeChange::remove(id, wme),
        });
    }
    let out_len = r.u32()? as usize;
    let mut output = r.vec_for(out_len, 2);
    for _ in 0..out_len {
        let n = r.u16()? as usize;
        let mut row = r.vec_for(n, MIN_VALUE);
        for _ in 0..n {
            row.push(r.value()?);
        }
        output.push(row);
    }
    if r.at != bytes.len() {
        return Err(SnapshotError::Corrupt("trailing bytes"));
    }
    check_consistent(&wm, next_id, &pending)?;
    Ok(InterpreterState {
        strategy,
        wm,
        next_id,
        fired_keys,
        pending,
        output,
        cycle,
        halted,
    })
}

/// What restore relies on and the encoder always writes: working memory
/// in strictly ascending time-tag order below `next_id`, and a pending
/// queue that agrees with it — an add of an element working memory holds
/// (that same element), a removal of one it no longer holds, or an
/// add-and-remove pair of one that came and went. Bytes that decode but
/// break this would restore into a matcher that disagrees with working
/// memory, and fail later inside the match engine instead of here.
fn check_consistent(
    wm: &[(WmeId, Wme)],
    next_id: u64,
    pending: &[WmeChange],
) -> Result<(), SnapshotError> {
    let ascending = wm.windows(2).all(|w| w[0].0 < w[1].0);
    if !ascending || wm.last().is_some_and(|(id, _)| id.0 >= next_id) {
        return Err(SnapshotError::Corrupt("time tags"));
    }
    let mut count: HashMap<WmeId, usize> = HashMap::new();
    for change in pending {
        *count.entry(change.id).or_insert(0) += 1;
    }
    for change in pending {
        let held = wm
            .binary_search_by_key(&change.id, |&(id, _)| id)
            .ok()
            .map(|at| &wm[at].1);
        let agrees = change.id.0 < next_id
            && match (count[&change.id], change.sign) {
                (1, Sign::Plus) => held == Some(&change.wme),
                (1, Sign::Minus) | (2, _) => held.is_none(),
                _ => false,
            };
        if !agrees {
            return Err(SnapshotError::Corrupt("pending changes"));
        }
    }
    Ok(())
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), SnapshotError> {
    put_len_u16(out, s.len(), "symbol bytes")?;
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_value(out: &mut Vec<u8>, v: Value) -> Result<(), SnapshotError> {
    match v {
        Value::Int(i) => {
            out.push(0);
            put_u64(out, i as u64);
        }
        Value::Sym(s) => {
            out.push(1);
            put_str(out, s.as_str())?;
        }
    }
    Ok(())
}

fn put_wme(out: &mut Vec<u8>, wme: &Wme) -> Result<(), SnapshotError> {
    put_str(out, wme.class().as_str())?;
    let attrs: Vec<_> = wme.attrs().collect();
    put_len_u16(out, attrs.len(), "WME attributes")?;
    for (attr, value) in attrs {
        put_str(out, attr.as_str())?;
        put_value(out, value)?;
    }
    Ok(())
}

/// The smallest encodings (empty strings, no attributes), in bytes: what
/// one entry of a counted collection costs at the very least.
const MIN_STR: usize = 2;
const MIN_VALUE: usize = 1 + MIN_STR;
const MIN_WME: usize = MIN_STR + 2;

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// An empty `Vec` for `len` entries that each encode to at least
    /// `min_bytes`. A length field is untrusted until its entries have
    /// been read, so the reservation is capped by what the unread input
    /// could hold: a few bytes claiming 65 535 entries reserve nothing.
    fn vec_for<T>(&self, len: usize, min_bytes: usize) -> Vec<T> {
        Vec::with_capacity(len.min((self.bytes.len() - self.at) / min_bytes))
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.at.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        self.bytes(N)?
            .try_into()
            .map_err(|_| SnapshotError::Truncated)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take::<1>()?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take()?))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    fn str(&mut self) -> Result<&'a str, SnapshotError> {
        let n = self.u16()? as usize;
        std::str::from_utf8(self.bytes(n)?).map_err(|_| SnapshotError::Corrupt("non-UTF-8 string"))
    }

    fn value(&mut self) -> Result<Value, SnapshotError> {
        match self.u8()? {
            0 => Ok(Value::Int(self.u64()? as i64)),
            1 => Ok(Value::Sym(intern(self.str()?))),
            _ => Err(SnapshotError::Corrupt("value tag")),
        }
    }

    fn wme(&mut self) -> Result<Wme, SnapshotError> {
        let class = intern(self.str()?);
        let n = self.u16()? as usize;
        let mut pairs = self.vec_for(n, MIN_STR + MIN_VALUE);
        for _ in 0..n {
            let attr = intern(self.str()?);
            pairs.push((attr, self.value()?));
        }
        Ok(Wme::from_pairs(class, pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpps_ops::{parse_program, Interpreter, Strategy};

    fn state() -> InterpreterState {
        let program = parse_program(
            r#"
            (p tick (counter ^value <v>) -(counter ^value 0)
               --> (modify 1 ^value (- <v> 1)) (write tick <v>))
            "#,
        )
        .unwrap();
        let mut interp = Interpreter::new(program, Strategy::Lex);
        interp.wm_make("counter", &[("value", 3.into())]);
        interp.step().unwrap();
        interp.step().unwrap();
        interp.export_state()
    }

    #[test]
    fn round_trips_exactly() {
        let s = state();
        let bytes = encode(&s, 42).unwrap();
        assert_eq!(decode(&bytes, 42).unwrap(), s);
    }

    /// Regression: `ids.len() as u16` (and the `as u32` casts) silently
    /// truncated oversized collections — a refraction row of 65536 ids
    /// encoded as 0 ids followed by 65536 stray words, which decoded
    /// cleanly into the wrong state (or noise). The boundary must be
    /// exact: 65535 round-trips, 65536 is a typed refusal.
    #[test]
    fn refuses_fired_key_rows_past_the_u16_boundary() {
        let mut s = state();
        let at_limit: Vec<WmeId> = (0..u16::MAX as u64).map(WmeId).collect();
        s.fired_keys = vec![(ProductionId(0), at_limit)];
        let bytes = encode(&s, 42).expect("65535 ids fit the u16 length field");
        assert_eq!(decode(&bytes, 42).unwrap(), s);

        let over: Vec<WmeId> = (0..=u16::MAX as u64).map(WmeId).collect();
        s.fired_keys = vec![(ProductionId(0), over)];
        assert_eq!(
            encode(&s, 42),
            Err(SnapshotError::TooLarge {
                what: "fired-key ids",
                len: u16::MAX as usize + 1,
                max: u16::MAX as usize,
            })
        );
    }

    /// The same boundary holds for `u16`-counted output rows.
    #[test]
    fn refuses_output_rows_past_the_u16_boundary() {
        let mut s = state();
        s.output = vec![vec![Value::Int(7); u16::MAX as usize]];
        let bytes = encode(&s, 42).expect("65535 values fit");
        assert_eq!(decode(&bytes, 42).unwrap(), s);
        s.output = vec![vec![Value::Int(7); u16::MAX as usize + 1]];
        assert!(matches!(
            encode(&s, 42),
            Err(SnapshotError::TooLarge {
                what: "output row values",
                ..
            })
        ));
    }

    #[test]
    fn rejects_wrong_fingerprint_magic_version_and_truncation() {
        let s = state();
        let bytes = encode(&s, 42).unwrap();
        assert!(matches!(
            decode(&bytes, 43),
            Err(SnapshotError::ProgramMismatch {
                expected: 43,
                found: 42
            })
        ));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(decode(&bad, 42), Err(SnapshotError::BadMagic));
        let mut newer = bytes.clone();
        newer[4] = 0xff;
        assert!(matches!(
            decode(&newer, 42),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
        for cut in [0, 3, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut], 42).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn fingerprint_tracks_program_text() {
        let a = parse_program("(p r (a ^x 1) --> (halt))").unwrap();
        let b = parse_program("(p r (a ^x 2) --> (halt))").unwrap();
        assert_ne!(program_fingerprint(&a), program_fingerprint(&b));
        let a2 = parse_program("(p r (a ^x 1) --> (halt))").unwrap();
        assert_eq!(program_fingerprint(&a), program_fingerprint(&a2));
    }
}
