//! Client request vocabulary and the open-loop request generator.
//!
//! The service reuses the workload suite's operation vocabulary — bank
//! transfers (the conservation workload), hashtable puts/gets (the HT
//! microbenchmark) and TXL `atomic{}` counter programs (the compiler
//! path) — but feeds them as an *open-loop arrival stream*: requests
//! carry an arrival timestamp in simulated cycles drawn from a seeded
//! interarrival distribution, independent of service completion.

use crate::route::route;
use gpu_sim::mix64;

/// One client operation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Move `amount` from account `from` to account `to` (fails
    /// business-wise, without side effects, if `from` lacks funds).
    Transfer {
        /// Debited account.
        from: u32,
        /// Credited account.
        to: u32,
        /// Amount to move.
        amount: u32,
    },
    /// Insert or update `key → val` in the shard's hashtable.
    HtPut {
        /// Key.
        key: u32,
        /// Value.
        val: u32,
    },
    /// Look up `key`; the outcome carries the value on a hit.
    HtGet {
        /// Key.
        key: u32,
    },
    /// Run the TXL `bump` program on counter `key` (an `atomic{}`
    /// read-modify-write compiled through the TXL interpreter).
    TxlBump {
        /// Counter index.
        key: u32,
    },
}

impl Op {
    /// Routing key(s): primary shard, plus the secondary shard for a
    /// cross-shard transfer.
    pub fn shards(&self, shards: usize, seed: u64) -> (usize, Option<usize>) {
        match *self {
            Op::Transfer { from, to, .. } => {
                let a = route(from, shards, seed);
                let b = route(to, shards, seed);
                (a, (a != b).then_some(b))
            }
            Op::HtPut { key, .. } | Op::HtGet { key } | Op::TxlBump { key } => {
                (route(key, shards, seed), None)
            }
        }
    }
}

/// One client request.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Monotonic request id (generation order).
    pub id: u64,
    /// Arrival time in simulated cycles (epoch clock).
    pub arrival: u64,
    /// The operation.
    pub op: Op,
}

/// Workload-mix and arrival-process parameters for the generator.
#[derive(Copy, Clone, Debug)]
pub struct MixConfig {
    /// Number of requests to generate.
    pub requests: u64,
    /// Mean interarrival gap in simulated cycles (uniform on
    /// `1 ..= 2·mean`, so the mean offered load is `1/mean`).
    pub mean_interarrival: u64,
    /// Percent of requests that are bank transfers.
    pub bank_pct: u32,
    /// Percent that are hashtable operations (the remainder after
    /// `bank_pct + ht_pct` runs TXL programs).
    pub ht_pct: u32,
    /// Of hashtable operations, percent that are reads (gets).
    pub ht_read_pct: u32,
    /// Percent of transfers steered to a same-shard destination
    /// (the rest pick any destination and may cross shards).
    pub locality_pct: u32,
    /// Percent of key picks drawn from the hot set.
    pub hot_pct: u32,
    /// Size of the hot key set.
    pub hot_keys: u32,
    /// Transfers move `1 ..= amount_max`.
    pub amount_max: u32,
}

impl MixConfig {
    /// Pure bank-transfer mix with a contended hot set.
    pub fn bank() -> Self {
        MixConfig {
            requests: 1024,
            mean_interarrival: 40,
            bank_pct: 100,
            ht_pct: 0,
            ht_read_pct: 0,
            locality_pct: 80,
            hot_pct: 50,
            hot_keys: 16,
            amount_max: 8,
        }
    }

    /// Pure hashtable mix (insert-heavy, as in the paper's HT).
    pub fn hashtable() -> Self {
        MixConfig {
            requests: 1024,
            mean_interarrival: 40,
            bank_pct: 0,
            ht_pct: 100,
            ht_read_pct: 25,
            locality_pct: 0,
            hot_pct: 10,
            hot_keys: 16,
            amount_max: 0,
        }
    }

    /// Mixed traffic: transfers, hashtable ops and TXL programs.
    pub fn mixed() -> Self {
        MixConfig {
            requests: 1024,
            mean_interarrival: 40,
            bank_pct: 50,
            ht_pct: 30,
            ht_read_pct: 30,
            locality_pct: 70,
            hot_pct: 30,
            hot_keys: 16,
            amount_max: 8,
        }
    }

    /// Saturating burst traffic for blocking admission: arrivals far
    /// faster than service, so bounded shard queues overflow and — with
    /// `ServeConfig::blocking` on — admission parks on the capacity
    /// condition instead of rejecting with `Overloaded`.
    pub fn blocking() -> Self {
        MixConfig {
            requests: 512,
            mean_interarrival: 2,
            bank_pct: 60,
            ht_pct: 30,
            ht_read_pct: 30,
            locality_pct: 80,
            hot_pct: 30,
            hot_keys: 16,
            amount_max: 8,
        }
    }

    /// Parses a mix by name (`bank`, `ht`, `mixed`, `blocking`).
    pub fn parse(name: &str) -> Option<MixConfig> {
        match name.to_ascii_lowercase().as_str() {
            "bank" => Some(MixConfig::bank()),
            "ht" | "hashtable" => Some(MixConfig::hashtable()),
            "mixed" => Some(MixConfig::mixed()),
            "blocking" => Some(MixConfig::blocking()),
            _ => None,
        }
    }
}

/// Deterministic counter-mode stream over [`mix64`].
struct Srng {
    seed: u64,
    ctr: u64,
}

impl Srng {
    fn new(seed: u64) -> Self {
        Srng { seed, ctr: 0 }
    }

    fn next(&mut self) -> u64 {
        self.ctr += 1;
        mix64(self.seed ^ self.ctr.wrapping_mul(0xa076_1d64_78bd_642f))
    }
}

/// Generates the full request stream for one service run.
///
/// `accounts` sizes both the bank keyspace and the hashtable keyspace;
/// `txl_words` sizes the TXL counter array. `shards`/`seed` are the
/// service's routing parameters, used only to honour `locality_pct`
/// (steering a transfer's destination onto the source's shard).
pub fn generate(
    mix: &MixConfig,
    accounts: u32,
    txl_words: u32,
    shards: usize,
    seed: u64,
) -> Vec<Request> {
    let mut rng = Srng::new(seed ^ 0x7365_7276_655f_6d69); // "serve_mi"
    let mut out = Vec::with_capacity(mix.requests as usize);
    let mut arrival = 0u64;
    let gap_span = (2 * mix.mean_interarrival).max(1);
    let pick_key = |rng: &mut Srng, space: u32| -> u32 {
        let hot = mix.hot_keys.min(space).max(1);
        if (rng.next() % 100) < mix.hot_pct as u64 {
            (rng.next() % hot as u64) as u32
        } else {
            (rng.next() % space as u64) as u32
        }
    };
    for id in 0..mix.requests {
        arrival += 1 + rng.next() % gap_span;
        let class = rng.next() % 100;
        let op = if class < mix.bank_pct as u64 {
            let from = pick_key(&mut rng, accounts);
            let mut to = pick_key(&mut rng, accounts);
            if (rng.next() % 100) < mix.locality_pct as u64 {
                // Steer the destination onto the source's shard; bounded
                // rejection sampling keeps generation deterministic and
                // total even when a shard owns few keys.
                let home = route(from, shards, seed);
                for _ in 0..32 {
                    if route(to, shards, seed) == home && to != from {
                        break;
                    }
                    to = pick_key(&mut rng, accounts);
                }
            }
            if to == from {
                to = (from + 1) % accounts.max(2);
            }
            let amount = 1 + (rng.next() % mix.amount_max.max(1) as u64) as u32;
            Op::Transfer { from, to, amount }
        } else if class < (mix.bank_pct + mix.ht_pct) as u64 {
            let key = pick_key(&mut rng, accounts);
            if (rng.next() % 100) < mix.ht_read_pct as u64 {
                Op::HtGet { key }
            } else {
                Op::HtPut { key, val: (rng.next() & 0x7fff_ffff) as u32 }
            }
        } else {
            Op::TxlBump { key: (rng.next() % txl_words.max(1) as u64) as u32 }
        };
        out.push(Request { id, arrival, op });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let mix = MixConfig::mixed();
        let a = generate(&mix, 256, 64, 4, 99);
        let b = generate(&mix, 256, 64, 4, 99);
        assert_eq!(a, b);
        assert_eq!(a.len(), mix.requests as usize);
    }

    #[test]
    fn arrivals_are_strictly_increasing() {
        let reqs = generate(&MixConfig::bank(), 128, 16, 2, 5);
        for w in reqs.windows(2) {
            assert!(w[0].arrival < w[1].arrival);
        }
    }

    #[test]
    fn locality_steers_most_transfers_home() {
        let mix = MixConfig { locality_pct: 100, hot_pct: 0, ..MixConfig::bank() };
        let reqs = generate(&mix, 4096, 16, 4, 11);
        let (same, cross) = reqs.iter().fold((0u32, 0u32), |(s, c), r| match r.op {
            Op::Transfer { from, to, .. } => {
                if route(from, 4, 11) == route(to, 4, 11) {
                    (s + 1, c)
                } else {
                    (s, c + 1)
                }
            }
            _ => (s, c),
        });
        assert!(same > cross * 10, "locality too weak: {same} same vs {cross} cross");
    }

    #[test]
    fn mix_respects_class_percentages() {
        let mix = MixConfig { requests: 2000, ..MixConfig::mixed() };
        let reqs = generate(&mix, 512, 64, 2, 3);
        let bank = reqs.iter().filter(|r| matches!(r.op, Op::Transfer { .. })).count();
        let txl = reqs.iter().filter(|r| matches!(r.op, Op::TxlBump { .. })).count();
        assert!((800..1200).contains(&bank), "bank count {bank} far from 50%");
        assert!((200..600).contains(&txl), "txl count {txl} far from 20%");
    }

    #[test]
    fn parse_names() {
        assert!(MixConfig::parse("bank").is_some());
        assert!(MixConfig::parse("HT").is_some());
        assert!(MixConfig::parse("mixed").is_some());
        assert!(MixConfig::parse("nope").is_none());
    }
}
