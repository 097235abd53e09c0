//! The workspace's one fast hasher.
//!
//! A multiply-rotate hasher for maps whose keys the program hands out
//! itself: interned [`crate::Symbol`]s, time tags, production ids, and the
//! Rete compiler's structural keys. The std `DefaultHasher` (SipHash) buys
//! resistance to collision attacks on keys a client chooses; none of these
//! keys is chosen by a client, so a two-instruction mix per word is the
//! right trade. Maps over client text (the symbol interner) keep SipHash.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher: one rotate, xor and multiply per word.
#[derive(Default)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` for [`FxHasher`]-keyed std maps and sets.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
