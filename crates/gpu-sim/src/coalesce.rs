//! Memory-access coalescing model.
//!
//! GPU load/store units merge the 32 lane addresses of a warp instruction
//! into as few 128-byte memory transactions as possible: consecutive
//! accesses that fall in the same 128-byte segment become a single
//! transaction (Section 2.1 of the paper). GPU-STM's coalesced
//! read-/write-set organisation exists precisely to keep this number low.
//!
//! This module computes, for a masked warp access, the distinct segments
//! touched — the number of memory transactions the instruction issues.

use crate::mask::{LaneMask, WARP_SIZE};
use crate::memory::Addr;

/// Words per coalescing segment: 128 bytes = 32 × 4-byte words.
pub const SEGMENT_WORDS: u32 = 32;

/// Result of coalescing one warp-wide access: at most one segment per
/// lane, held inline so a memory instruction allocates nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coalesced {
    segments: [u32; WARP_SIZE],
    len: usize,
}

impl Coalesced {
    const EMPTY: Coalesced = Coalesced { segments: [0; WARP_SIZE], len: 0 };

    /// Distinct 128-byte segments touched, in first-touch order.
    pub fn segments(&self) -> &[u32] {
        &self.segments[..self.len]
    }

    /// Number of memory transactions this access costs.
    pub fn transactions(&self) -> u32 {
        self.len as u32
    }

    fn push(&mut self, seg: u32) {
        self.segments[self.len] = seg;
        self.len += 1;
    }
}

/// Coalesces the addresses of the active lanes of one warp instruction.
///
/// Returns the distinct segments in the order first touched by ascending
/// lane id (the order the hardware's address-divergence serialiser would
/// replay them).
///
/// # Examples
///
/// ```
/// use gpu_sim::{coalesce::coalesce, Addr, LaneMask};
///
/// // 32 consecutive words starting at a segment boundary: one transaction.
/// let mut addrs = [Addr(0); 32];
/// for (i, a) in addrs.iter_mut().enumerate() {
///     *a = Addr(64 + i as u32);
/// }
/// assert_eq!(coalesce(LaneMask::FULL, &addrs).transactions(), 1);
/// ```
pub fn coalesce(mask: LaneMask, addrs: &[Addr; WARP_SIZE]) -> Coalesced {
    let mut c = Coalesced::EMPTY;
    for lane in mask.iter() {
        let seg = addrs[lane].segment();
        if !c.segments().contains(&seg) {
            c.push(seg);
        }
    }
    c
}

/// Coalesces a single-address access (every active lane hits `addr`).
///
/// GPU hardware broadcasts such accesses in one transaction; atomics to the
/// same word instead serialise, which the timing model charges separately.
pub fn coalesce_uniform(mask: LaneMask, addr: Addr) -> Coalesced {
    let mut c = Coalesced::EMPTY;
    if mask.any() {
        c.push(addr.segment());
    }
    c
}

/// Counts, for an atomic warp instruction, how many lanes target each
/// distinct word. Same-word atomics serialise in hardware; the worst-case
/// depth (max lanes on one word) bounds the serialisation latency.
pub fn atomic_conflict_depth(mask: LaneMask, addrs: &[Addr; WARP_SIZE]) -> u32 {
    let mut seen: Vec<(Addr, u32)> = Vec::with_capacity(8);
    let mut depth = 0;
    for lane in mask.iter() {
        let a = addrs[lane];
        match seen.iter_mut().find(|(sa, _)| *sa == a) {
            Some((_, n)) => *n += 1,
            None => seen.push((a, 1)),
        }
    }
    for (_, n) in &seen {
        depth = depth.max(*n);
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs_from(f: impl Fn(u32) -> u32) -> [Addr; WARP_SIZE] {
        std::array::from_fn(|i| Addr(f(i as u32)))
    }

    #[test]
    fn consecutive_words_coalesce_to_one() {
        let addrs = addrs_from(|i| 128 + i);
        let c = coalesce(LaneMask::FULL, &addrs);
        assert_eq!(c.transactions(), 1);
        assert_eq!(c.segments(), [4]);
    }

    #[test]
    fn strided_access_explodes() {
        // Stride of one segment per lane: 32 transactions.
        let addrs = addrs_from(|i| i * SEGMENT_WORDS);
        assert_eq!(coalesce(LaneMask::FULL, &addrs).transactions(), 32);
    }

    #[test]
    fn unaligned_but_contiguous_spans_two() {
        let addrs = addrs_from(|i| 16 + i); // crosses a segment boundary
        assert_eq!(coalesce(LaneMask::FULL, &addrs).transactions(), 2);
    }

    #[test]
    fn mask_restricts_lanes() {
        let addrs = addrs_from(|i| i * SEGMENT_WORDS);
        let m = LaneMask::first_n(4);
        assert_eq!(coalesce(m, &addrs).transactions(), 4);
        assert_eq!(coalesce(LaneMask::EMPTY, &addrs).transactions(), 0);
    }

    #[test]
    fn duplicate_segments_merge() {
        let addrs = addrs_from(|i| (i % 2) * SEGMENT_WORDS);
        let c = coalesce(LaneMask::FULL, &addrs);
        assert_eq!(c.transactions(), 2);
        // First-touch order: lane 0 touches segment 0 first.
        assert_eq!(c.segments(), [0, 1]);
    }

    #[test]
    fn uniform_access_is_single_transaction() {
        assert_eq!(coalesce_uniform(LaneMask::FULL, Addr(77)).transactions(), 1);
        assert_eq!(coalesce_uniform(LaneMask::EMPTY, Addr(77)).transactions(), 0);
    }

    #[test]
    fn conflict_depth_counts_same_word_lanes() {
        let addrs = addrs_from(|i| if i < 8 { 5 } else { 100 + i });
        assert_eq!(atomic_conflict_depth(LaneMask::FULL, &addrs), 8);
        assert_eq!(atomic_conflict_depth(LaneMask::EMPTY, &addrs), 0);
        let distinct = addrs_from(|i| i);
        assert_eq!(atomic_conflict_depth(LaneMask::FULL, &distinct), 1);
    }
}
