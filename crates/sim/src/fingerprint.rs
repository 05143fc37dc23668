//! State identity: the one place that turns a value's `Debug` output
//! into a key, and the one hasher the tables filed under keys use.
//!
//! Keys are 128-bit [`Fingerprint128`]s. The explorer keys a state by
//! composing component keys ([`debug_fp`] of each process state, pending
//! message and output history; an inbox is the [`seq`] of its messages'
//! keys; [`compose`] folds the slots), the liveness checker keys its
//! fair-graph nodes the same way, and the scenario symmetry filter
//! compares invocation slots. Both
//! engines render only on a transition-memo or canonicalizer-memo miss.
//! Keeping the renderers in one small file keeps the `d4-debug-format`
//! audit's exemption this narrow.
//!
//! The explorer's seen-table trusts key equality, so its keys assume
//! that equal renderings mean equal values. The liveness checker, the
//! diagram walker and the reference explorer only narrow their search
//! with a key: a fingerprint picks a collision chain, `==` confirms.
//!
//! A key is already uniform, so a table filed under keys or dense ids
//! need not hash it again with SipHash: every such table (the
//! seen-table, the transition and canonicalizer memos, the collision
//! chains and the Büchi product index) is built with [`FpBuild`], whose
//! [`FpHasher`] folds each word once. It has no per-process seed, so a
//! table's layout is the same in every run.

use std::fmt::{Debug, Write};
use std::hash::{BuildHasherDefault, Hasher};

/// Two independent 64-bit multiply-xor streams over the same byte
/// stream, mixed one 64-bit word at a time and finalized into a 128-bit
/// fingerprint. Implements [`std::fmt::Write`] so a `Debug` rendering is
/// hashed as it is produced, without ever materializing the string;
/// bytes are buffered into words *across* fragment boundaries, so the
/// fingerprint depends only on the rendered byte stream, never on how
/// the formatter chose to chunk it.
#[derive(Debug)]
pub(crate) struct Fingerprint128 {
    a: u64,
    b: u64,
    /// Partial word being filled, little-endian; `buf_len` bytes valid.
    buf: u64,
    buf_len: u32,
    len: u64,
}

impl Fingerprint128 {
    // FNV-64 offset basis / golden ratio as the two stream seeds; the
    // word mixer below is the MurmurHash3-x64 inner round (multiply,
    // rotate, multiply, fold), whose rotations diffuse differences
    // downward as well as upward — a plain multiply-xor stream only
    // carries differences toward the high bits, and correlated high-bit
    // differences in two words can then cancel in *both* streams at once
    // (observed as real collisions on structured `Debug` renderings).
    const SEED_A: u64 = 0xcbf2_9ce4_8422_2325;
    const SEED_B: u64 = 0x9e37_79b9_7f4a_7c15;
    const C1: u64 = 0x87c3_7b91_1142_53d5;
    const C2: u64 = 0x4cf5_ad43_2745_937f;

    pub(crate) fn new() -> Self {
        Fingerprint128 {
            a: Self::SEED_A,
            b: Self::SEED_B,
            buf: 0,
            buf_len: 0,
            len: 0,
        }
    }

    #[inline]
    fn mix_word(&mut self, w: u64) {
        let ka = w
            .wrapping_mul(Self::C1)
            .rotate_left(31)
            .wrapping_mul(Self::C2);
        self.a ^= ka;
        self.a = self
            .a
            .rotate_left(27)
            .wrapping_mul(5)
            .wrapping_add(0x52dc_e729);
        let kb = w
            .wrapping_mul(Self::C2)
            .rotate_left(33)
            .wrapping_mul(Self::C1);
        self.b ^= kb;
        self.b = self
            .b
            .rotate_left(31)
            .wrapping_mul(5)
            .wrapping_add(0x3855_4107);
    }

    /// Mix in one whole word. Used to compose inbox and state keys from
    /// component fingerprints and to fold the liveness checker's
    /// per-slot counters; never interleaved with [`std::fmt::Write`]
    /// input.
    #[inline]
    pub(crate) fn write_u64(&mut self, w: u64) {
        debug_assert_eq!(self.buf_len, 0, "word input after a partial byte word");
        self.mix_word(w);
        self.len += 8;
    }

    /// Mix in a whole 128-bit key, low word first.
    #[inline]
    pub(crate) fn write_u128(&mut self, key: u128) {
        self.write_u64(key as u64);
        self.write_u64((key >> 64) as u64);
    }

    pub(crate) fn finish(mut self) -> u128 {
        if self.buf_len > 0 {
            let w = self.buf;
            self.mix_word(w);
        }
        // Fold in the total byte count: a zero-padded final word must not
        // collide with explicit trailing NULs or an empty tail.
        let len = self.len;
        self.mix_word(len);
        // splitmix64-style finalizer on each stream so nearby inputs
        // spread across the whole key space.
        fn avalanche(mut x: u64) -> u64 {
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        }
        (u128::from(avalanche(self.a)) << 64) | u128::from(avalanche(self.b))
    }
}

impl Write for Fingerprint128 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let mut bytes = s.as_bytes();
        self.len += bytes.len() as u64;
        // Top up a partial word left by the previous fragment.
        while self.buf_len > 0 {
            let Some((&byte, rest)) = bytes.split_first() else {
                return Ok(());
            };
            bytes = rest;
            self.buf |= u64::from(byte) << (8 * self.buf_len);
            self.buf_len += 1;
            if self.buf_len == 8 {
                let w = self.buf;
                self.mix_word(w);
                self.buf = 0;
                self.buf_len = 0;
            }
        }
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.mix_word(w);
        }
        for &byte in chunks.remainder() {
            self.buf |= u64::from(byte) << (8 * self.buf_len);
            self.buf_len += 1;
        }
        Ok(())
    }
}

/// Fingerprint one `Debug` rendering, streamed (no `String` is built):
/// the key of one state component, or of a whole state filed in a
/// collision chain. Also compares invocation slots.
pub(crate) fn debug_fp<T: Debug + ?Sized>(v: &T) -> u128 {
    let mut w = Fingerprint128::new();
    write!(w, "{v:?}").expect("fingerprint writer is infallible");
    w.finish()
}

/// The key of a sequence of keys, in order: an inbox from its messages'
/// keys. Injective over sequences (their length and order included) up
/// to the fingerprint's collision rate, as [`compose`] is.
#[inline]
pub(crate) fn seq<'s>(items: impl Iterator<Item = &'s u128>) -> u128 {
    let mut w = Fingerprint128::new();
    for item in items {
        w.write_u128(*item);
    }
    w.finish()
}

/// Fold slot keys into a state key: one `(process, inbox, word)` triple
/// per slot, in slot order, then the output history's key. The word is
/// an arbitrary `u64`. Injective over its inputs up to the fingerprint's
/// collision rate — the explorer's seen-table trusts key equality.
#[inline]
pub(crate) fn compose<'s>(
    slots: impl Iterator<Item = (&'s u128, &'s u128, u64)>,
    outputs: &u128,
) -> u128 {
    let mut w = Fingerprint128::new();
    for (proc, inbox, word) in slots {
        w.write_u128(*proc);
        w.write_u128(*inbox);
        w.write_u64(word);
    }
    w.write_u128(*outputs);
    w.finish()
}

/// The [`Hasher`] of tables filed under fingerprints or dense ids: one
/// rotate-xor-multiply step per written word (the step of rustc's
/// `FxHasher`). A `u128` is written as its two halves, low word first,
/// and bytes from a derived `Hash` impl are folded eight at a time.
/// The multiply carries every input bit into the top bits, which pick a
/// SwissTable control byte, and maps the low bits, which pick the
/// bucket, one to one, so uniform keys and dense ids spread evenly.
/// These keys are not adversarial, so no seed is drawn.
#[derive(Clone, Copy, Default)]
pub(crate) struct FpHasher {
    hash: u64,
}

/// Builds an [`FpHasher`] per lookup; the hasher of every table filed
/// under fingerprints or dense ids.
pub(crate) type FpBuild = BuildHasherDefault<FpHasher>;

impl FpHasher {
    /// An odd 64-bit constant with well-spread bits (rustc's `FxHasher`
    /// seed).
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for FpHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    /// The fallback for derived impls that write bytes: eight bytes per
    /// word, the tail zero-padded.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(write: impl FnOnce(&mut FpHasher)) -> u64 {
        let mut hasher = FpHasher::default();
        write(&mut hasher);
        hasher.finish()
    }

    /// A `u128` is its two halves, low word first; bytes fold eight at a
    /// time, the tail zero-padded; swapping the halves changes the hash.
    #[test]
    fn fp_hasher_folds_words_halves_and_bytes_alike() {
        let (lo, hi) = (0x0123_4567_89ab_cdef_u64, 0xfedc_ba98_7654_3210_u64);
        let key = u128::from(hi) << 64 | u128::from(lo);
        let halves = hash(|h| {
            h.write_u64(lo);
            h.write_u64(hi);
        });
        assert_eq!(hash(|h| h.write_u128(key)), halves);
        assert_eq!(hash(|h| h.write(&key.to_le_bytes())), halves);
        assert_eq!(
            hash(|h| h.write(&[1, 2, 3])),
            hash(|h| h.write_u64(0x03_0201))
        );
        assert_ne!(hash(|h| h.write_u128(key.rotate_left(64))), halves);
    }
}
