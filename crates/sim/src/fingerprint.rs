//! `Debug`-rendering state identity: the one place that turns a value's
//! `Debug` output into a key.
//!
//! The explorer keys states per component ([`crate::explore::StateHasher`]:
//! process states, pending messages and output histories; an inbox key
//! is composed from its messages' keys, not rendered), the liveness
//! checker keys its fair-graph nodes the same way (its keys are the
//! explorer's, composed with word-sized fairness counters), and the
//! scenario symmetry filter compares invocation slots — all through the
//! renderers below. Both engines render only on a transition-memo or
//! canonicalizer-memo miss, so rendering is off their hot paths. Keeping
//! the renderers in one small file keeps the `d4-debug-format` audit's
//! exemption this narrow: no other explorer code may format a `{:?}`
//! placeholder.
//!
//! Every key made here assumes that equal renderings mean equal values.

use std::fmt::{Debug, Write};

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
        // spread across the whole key space (the top bits pick the shard).
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

/// Fingerprint one `Debug` rendering, streamed (no `String` is built).
/// The component renderer of [`crate::FingerprintHasher`], and so of
/// liveness graph nodes too; also compares invocation slots.
pub(crate) fn debug_fp<T: Debug + ?Sized>(v: &T) -> u128 {
    let mut w = Fingerprint128::new();
    write!(w, "{v:?}").expect("fingerprint writer is infallible");
    w.finish()
}

/// One `Debug` rendering as a `String`: the component renderer of
/// [`crate::ExactKeyHasher`].
pub(crate) fn debug_string<T: Debug + ?Sized>(v: &T) -> String {
    format!("{v:?}")
}
