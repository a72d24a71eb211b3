//! Deterministic, seed-free hashing shared by every crate of the
//! workspace: the splitmix64 finalizer (key hashing, seeded streams) and
//! FNV-1a (fingerprints of states, logs and reports).
//!
//! Both are pure functions of their input, identical across runs and
//! platforms, so every stream and digest built on them is byte-stable.

/// The splitmix64 increment (the 64-bit golden ratio).
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finalizer of `x + GOLDEN`: a 64-bit mix used for key
/// hashing and seed derivation.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One step of the splitmix64 generator: advances `state` and returns the
/// next value of its stream.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    let z = mix64(*state);
    *state = state.wrapping_add(GOLDEN);
    z
}

/// Incremental FNV-1a over little-endian bytes. The running state is the
/// public field, so a hash can be stored and resumed later.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    #[inline]
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fresh hasher at the FNV offset basis.
    #[inline]
    pub fn new() -> Self {
        Fnv::default()
    }

    /// Absorbs one byte.
    #[inline]
    pub fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Absorbs raw bytes (no length prefix).
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    /// Absorbs a `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Absorbs a `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Absorbs a string (length-prefixed).
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The digest.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_spreads_consecutive_inputs() {
        let a = mix64(1);
        let b = mix64(2);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 8, "poor diffusion: {a:#x} vs {b:#x}");
    }

    #[test]
    fn fnv_is_deterministic_and_order_sensitive() {
        let mut a = Fnv::new();
        a.u32(1);
        a.u32(2);
        let mut b = Fnv::new();
        b.u32(2);
        b.u32(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv::new();
        c.u32(1);
        c.u32(2);
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // First outputs of the reference splitmix64 seeded with 0.
        let mut s = 0;
        assert_eq!(splitmix64(&mut s), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut s), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(s, GOLDEN.wrapping_mul(2));
    }
}
