//! Seeded address-hash routing.
//!
//! Every data key deterministically owns exactly one shard. The seed is
//! folded into the hash so distinct service runs explore distinct
//! partitions, while a fixed seed gives the same partition regardless
//! of worker-thread count — the foundation of the service's determinism
//! guarantee.

use gpu_sim::mix64;

/// Shard owning `key` under `seed`, for a service of `shards` shards.
pub fn route(key: u32, shards: usize, seed: u64) -> usize {
    debug_assert!(shards > 0);
    (mix64(key as u64 ^ seed.rotate_left(17)) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_shards() {
        let mut seen = [false; 4];
        for k in 0..256 {
            seen[route(k, 4, 42)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn stable_for_fixed_seed() {
        for k in 0..64 {
            assert_eq!(route(k, 8, 7), route(k, 8, 7));
        }
    }

    #[test]
    fn seed_changes_partition() {
        let moved = (0..1024).filter(|&k| route(k, 4, 1) != route(k, 4, 2)).count();
        assert!(moved > 256, "seed barely perturbs routing: {moved}/1024 moved");
    }
}
