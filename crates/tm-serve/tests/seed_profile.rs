//! `ServeConfig` seeding from the `txl analyze` static profile: the
//! per-shard variant and lock-table size come from compile-time
//! analysis of the TXL program the engine serves, before any traffic
//! arrives — the acting half of the obs layer's sense/act split.

use gpu_stm::Variant;
use tm_serve::{MixConfig, ServeConfig, Service, TXL_BUMP};
use txl::{analyze_source, CostConfig};

fn base() -> ServeConfig {
    ServeConfig {
        shards: 2,
        mix: MixConfig { requests: 96, ..MixConfig::mixed() },
        seed: 11,
        accounts: 64,
        table_words: 256,
        txl_words: 16,
        batch_warps: 1,
        ..ServeConfig::default()
    }
}

#[test]
fn seed_from_txl_overrides_variant_and_stripes() {
    let cfg = base().seed_from_txl(TXL_BUMP).expect("TXL_BUMP analyzes");

    // The override must agree with running the analysis by hand at the
    // same modeled concurrency (batch_warps × 32 lanes).
    let profile = analyze_source(TXL_BUMP, &CostConfig { threads: 32, ..CostConfig::default() })
        .expect("compiles");
    assert_eq!(cfg.variant.short_name(), profile.recommended().short_name());
    assert_eq!(cfg.n_locks, profile.stripes);
    // And the recommendation is one of the dispatchable variants.
    assert!(Variant::ALL.contains(&cfg.variant));
}

#[test]
fn seeded_config_serves_correctly() {
    let cfg = base().seed_from_txl(TXL_BUMP).expect("TXL_BUMP analyzes");
    let report = Service::run(&cfg).expect("seeded serve run");
    assert_eq!(report.completed, report.admitted);
    assert!(report.conserved, "bank conservation under seeded config");
    assert!(report.txl_consistent, "TXL counters consistent under seeded config");
    assert_eq!(report.violations_total, 0);
}

#[test]
fn seed_from_txl_rejects_bad_source() {
    assert!(base().seed_from_txl("kernel oops(").is_err());
}
