//! Property tests of the fleet engine's contracts (ARCHITECTURE.md
//! invariant 11): the reducer merge is exact, associative and
//! commutative; aggregates are invariant to how the population is
//! sharded; kill-and-resume is bit-identical to an uninterrupted run;
//! any single victim — replayed from its layout's cost tape or fully
//! simulated — reruns in isolation to its in-fleet outcome (invariant
//! 15); the counters survive million-victim magnitudes without
//! overflow; and the checkpoint parser never panics.

use std::path::PathBuf;

use proptest::prelude::*;

use avx_channel::attacks::campaign::{CampaignConfig, Scenario, TrialOutcome};
use avx_channel::defense::DefenseKind;
use avx_channel::fleet::{splitmix64, victim_seed, Checkpoint, Fleet, FleetConfig, FleetReducer};
use avx_channel::schedule::ScheduleKind;
use avx_channel::stats::Trials;
use avx_channel::{CalibratorKind, ConfirmConfig, KptiConfidence, RecalConfig, Sampling};
use avx_uarch::{CpuProfile, NoiseProfile, ObservablesVersion};

/// A small but real kernel-base fleet: big enough to span several
/// shards and wrap the fixture pool, small enough to run in tier 1.
fn small_fleet(config: FleetConfig) -> Fleet {
    Fleet::new(
        Scenario::KernelBase,
        CpuProfile::alder_lake_i5_12400f(),
        CampaignConfig::default(),
        config,
    )
}

/// Deterministic synthetic outcome stream for pure reducer tests —
/// magnitudes picked to look like real per-victim probe counts.
fn synthetic_outcome(i: u64) -> TrialOutcome {
    let r = splitmix64(i);
    TrialOutcome {
        probes: 1000 + r % 700,
        addresses: 512,
        accuracy: Trials {
            successes: u64::from(!r.is_multiple_of(10)),
            total: 1,
        },
        confidence: match r % 4 {
            0 => Some(KptiConfidence::NoCandidate),
            1 => Some(KptiConfidence::Unique),
            2 => Some(KptiConfidence::GuessedFirst),
            _ => Some(KptiConfidence::Confirmed),
        },
        ..TrialOutcome::default()
    }
}

fn reduce(indices: impl Iterator<Item = u64>) -> FleetReducer {
    let mut r = FleetReducer::new();
    for i in indices {
        r.push(&synthetic_outcome(i));
    }
    r
}

/// Unique scratch path per test (the suite runs tests in parallel).
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fleet-props-{tag}-{}.json", std::process::id()))
}

#[test]
fn reducer_merge_is_associative_and_commutative_to_the_bit() {
    for window in [1u64, 7, 64, 1000] {
        let a = reduce(0..window);
        let b = reduce(window..window * 2 + 3);
        let c = reduce(window * 2 + 3..window * 3 + 11);

        // Commutativity: a ⊕ b == b ⊕ a.
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "window {window}");

        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut left = ab;
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right, "window {window}");

        // Identity: the empty reducer is neutral on both sides.
        let mut with_empty = a;
        with_empty.merge(&FleetReducer::new());
        assert_eq!(with_empty, a, "window {window}");
    }
}

#[test]
fn shard_count_invariance_is_bit_identical() {
    // The same 48-victim population on one shard, even shards, a
    // non-dividing shard size, and one victim per shard.
    let baseline = small_fleet(FleetConfig::new(48).with_pool(4).with_shard_size(48))
        .run()
        .expect("single-shard run");
    assert_eq!(baseline.shards, 1);
    assert_eq!(baseline.aggregate.victims, 48);
    for shard_size in [16u64, 7, 1] {
        let report = small_fleet(
            FleetConfig::new(48)
                .with_pool(4)
                .with_shard_size(shard_size),
        )
        .run()
        .expect("sharded run");
        assert_eq!(
            report.aggregate, baseline.aggregate,
            "shard_size {shard_size} diverged from the single-shard aggregate"
        );
    }
    // with_shards partitions the same way.
    let report = small_fleet(FleetConfig::new(48).with_pool(4).with_shards(6))
        .run()
        .expect("with_shards run");
    assert_eq!(report.shards, 6);
    assert_eq!(report.aggregate, baseline.aggregate);
}

#[test]
fn kill_and_resume_is_bit_identical_to_uninterrupted() {
    let path = scratch("resume");
    let _ = std::fs::remove_file(&path);

    let fresh = small_fleet(FleetConfig::new(40).with_pool(4).with_shards(4))
        .run()
        .expect("uninterrupted run");
    assert!(fresh.complete);

    // "Kill" after the first shard: run one pending shard per call.
    let killed = small_fleet(
        FleetConfig::new(40)
            .with_pool(4)
            .with_shards(4)
            .with_checkpoint(&path)
            .with_max_shards(1),
    );
    let first = killed.run().expect("first shard");
    assert!(!first.complete);
    assert_eq!(first.shards_run, 1);
    assert_eq!(first.aggregate.victims, 10);

    // Resume the remaining shards in one go.
    let resumed = small_fleet(
        FleetConfig::new(40)
            .with_pool(4)
            .with_shards(4)
            .with_checkpoint(&path),
    )
    .run()
    .expect("resumed run");
    assert!(resumed.complete);
    assert_eq!(resumed.shards_resumed, 1);
    assert_eq!(resumed.shards_run, 3);
    assert_eq!(
        resumed.aggregate, fresh.aggregate,
        "kill-and-resume aggregate diverged from the uninterrupted run"
    );

    // A third run finds everything complete and executes nothing.
    let idle = small_fleet(
        FleetConfig::new(40)
            .with_pool(4)
            .with_shards(4)
            .with_checkpoint(&path),
    )
    .run()
    .expect("idle run");
    assert!(idle.complete);
    assert_eq!(idle.shards_run, 0);
    assert_eq!(idle.aggregate, fresh.aggregate);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_recorded_under_a_different_config_is_refused() {
    let path = scratch("mismatch");
    let _ = std::fs::remove_file(&path);

    let partial = small_fleet(
        FleetConfig::new(40)
            .with_pool(4)
            .with_shards(4)
            .with_checkpoint(&path)
            .with_max_shards(1),
    );
    partial.run().expect("first shard");

    // Different campaign seed — resuming would merge incompatible
    // aggregates, so the engine must refuse.
    let err = small_fleet(
        FleetConfig::new(40)
            .with_pool(4)
            .with_shards(4)
            .with_seed(1)
            .with_checkpoint(&path),
    )
    .run()
    .expect_err("fingerprint mismatch must be refused");
    assert!(err.contains("fingerprint"), "{err}");

    // Different shard count — the bitmap no longer lines up.
    let err = small_fleet(
        FleetConfig::new(40)
            .with_pool(4)
            .with_shards(8)
            .with_checkpoint(&path),
    )
    .run()
    .expect_err("shard-count mismatch must be refused");
    assert!(
        err.contains("fingerprint") || err.contains("shards"),
        "{err}"
    );

    // The checkpoint was recorded undefended and unscheduled; another
    // defense or schedule would merge incompatible victim populations.
    for campaign in [
        CampaignConfig::default().with_defense(DefenseKind::MaskedTranslation),
        CampaignConfig::default().with_schedule(ScheduleKind::ModuleChurn),
    ] {
        let err = Fleet::new(
            Scenario::KernelBase,
            CpuProfile::alder_lake_i5_12400f(),
            campaign,
            FleetConfig::new(40)
                .with_pool(4)
                .with_shards(4)
                .with_checkpoint(&path),
        )
        .run()
        .expect_err("victim-environment mismatch must be refused");
        assert!(err.contains("fingerprint"), "{err}");
    }

    let _ = std::fs::remove_file(&path);
}

/// The fleet test matrix: every config the fleet replays from cost
/// tapes, then configs that must keep simulating (closed-loop attacker
/// or a victim that rewrites its own translations). The last column is
/// [`outcome_digest`] of victims 0..12 of the 12-victim, 4-layout fleet,
/// recorded by full simulation before the fleet replayed tapes.
fn config_matrix() -> Vec<(&'static str, CampaignConfig, bool, u64)> {
    let d = CampaignConfig::default();
    vec![
        ("default", d, true, 0xabb1_e882_30e0_24cd),
        (
            "v2",
            d.with_observables(ObservablesVersion::V2),
            true,
            0xbfb8_7235_b250_9f1d,
        ),
        (
            "drift",
            d.with_noise(NoiseProfile::drift_quiet_to_laptop()),
            true,
            0x7406_c7e8_0c56_f1e0,
        ),
        (
            "laptop",
            d.with_noise(NoiseProfile::LaptopDvfs),
            true,
            0x68da_17e3_6c1d_da56,
        ),
        (
            "fixed-budget",
            d.with_sampling(Sampling::fixed_budget()),
            true,
            0x72cf_8238_4e49_b502,
        ),
        (
            "noise-aware",
            d.with_calibrator(CalibratorKind::NoiseAware),
            true,
            0xabb1_e882_30e0_24cd,
        ),
        (
            "adaptive",
            d.with_sampling(Sampling::adaptive()),
            false,
            0xda23_2cd1_f457_5bd1,
        ),
        (
            "confirm",
            d.with_confirmation(ConfirmConfig::default()),
            false,
            0xd57a_2b4b_0dcf_b8e3,
        ),
        (
            "recal",
            d.with_recalibration(RecalConfig::default()),
            false,
            0x30d6_27b8_1f02_2fd6,
        ),
        (
            "masked",
            d.with_defense(DefenseKind::MaskedTranslation),
            false,
            0xcf3a_bd79_6a67_05c5,
        ),
        (
            "module-churn",
            d.with_schedule(ScheduleKind::ModuleChurn),
            false,
            0x7484_863c_32ba_5b52,
        ),
    ]
}

/// Order-sensitive digest of outcomes, `f64`s by bit pattern.
fn outcome_digest(outcomes: &[TrialOutcome]) -> u64 {
    let mut h = 0u64;
    for o in outcomes {
        for word in [
            o.probing_seconds.to_bits(),
            o.total_seconds.to_bits(),
            o.probes,
            o.addresses,
            o.accuracy.successes,
            o.accuracy.total,
        ] {
            h = splitmix64(h ^ word);
        }
    }
    h
}

fn matrix_fleet(campaign: CampaignConfig, config: FleetConfig) -> Fleet {
    Fleet::new(
        Scenario::KernelBase,
        CpuProfile::alder_lake_i5_12400f(),
        campaign,
        config,
    )
}

/// Every field of two outcomes is equal, `f64`s by bit pattern. The
/// exhaustive destructuring makes a new field a compile error here.
fn assert_same_outcome(a: &TrialOutcome, b: &TrialOutcome, what: &str) {
    let TrialOutcome {
        probing_seconds,
        total_seconds,
        probes,
        addresses,
        accuracy,
        confidence,
    } = *a;
    assert_eq!(
        probing_seconds.to_bits(),
        b.probing_seconds.to_bits(),
        "{what}: probing_seconds"
    );
    assert_eq!(
        total_seconds.to_bits(),
        b.total_seconds.to_bits(),
        "{what}: total_seconds"
    );
    assert_eq!(probes, b.probes, "{what}: probes");
    assert_eq!(addresses, b.addresses, "{what}: addresses");
    assert_eq!(
        accuracy.successes, b.accuracy.successes,
        "{what}: accuracy.successes"
    );
    assert_eq!(accuracy.total, b.accuracy.total, "{what}: accuracy.total");
    assert_eq!(confidence, b.confidence, "{what}: confidence");
}

#[test]
fn every_victim_reruns_in_isolation_to_its_in_fleet_outcome() {
    for (name, campaign, replays, pinned) in config_matrix() {
        let fleet = matrix_fleet(campaign, FleetConfig::new(12).with_pool(4).with_shards(3));
        let pool = fleet.build_pool();
        let tapes = fleet.record_tapes(&pool);
        assert_eq!(tapes.is_some(), replays, "{name}: replay eligibility");

        // Folding the per-victim outcomes, run the way the fleet runs
        // them, reproduces the fleet aggregate...
        let report = fleet.run().expect("fleet run");
        let in_fleet: Vec<TrialOutcome> = (0..12)
            .map(|idx| fleet.run_victim_with(&pool, tapes.as_deref(), idx))
            .collect();
        let mut by_hand = FleetReducer::new();
        for (idx, outcome) in (0..).zip(&in_fleet) {
            by_hand.push(outcome);
            // ...and every victim, rerun in complete isolation by full
            // simulation (its own freshly built fixture), matches its
            // in-fleet outcome exactly.
            let isolated = fleet.run_victim(idx);
            assert_same_outcome(&isolated, outcome, &format!("{name} victim {idx}"));
        }
        assert_eq!(by_hand, report.aggregate, "{name}");
        // Both paths still produce the outcomes recorded before tapes
        // existed, so they cannot have drifted together.
        assert_eq!(outcome_digest(&in_fleet), pinned, "{name}: outcome digest");
    }
}

#[test]
fn fleet_aggregates_match_the_lines_pinned_before_tape_replay() {
    // Recorded by full simulation, before the fleet replayed tapes.
    let fleet = small_fleet(FleetConfig::new(256).with_pool(16).with_shards(4));
    assert_eq!(
        fleet.run().expect("fleet run").aggregate.to_string(),
        "victims=256 accuracy=255/256 (99.61%) probes=266496 \
         probes/victim=1041.00±0.00 [1041..1041] confidence=[0, 0, 0, 0]"
    );
    let pinned = [
        "victims=96 accuracy=96/96 (100.00%) probes=99936",
        "victims=96 accuracy=96/96 (100.00%) probes=99936",
        "victims=96 accuracy=32/96 (33.33%) probes=99936",
        "victims=96 accuracy=27/96 (28.12%) probes=99936",
        "victims=96 accuracy=96/96 (100.00%) probes=444000",
        "victims=96 accuracy=96/96 (100.00%) probes=99936",
        "victims=96 accuracy=96/96 (100.00%) probes=149238",
        "victims=96 accuracy=96/96 (100.00%) probes=100512",
        "victims=96 accuracy=96/96 (100.00%) probes=103648",
        "victims=96 accuracy=0/96 (0.00%) probes=99936",
        "victims=96 accuracy=96/96 (100.00%) probes=99936",
    ];
    for ((name, campaign, _, _), pin) in config_matrix().into_iter().zip(pinned) {
        let fleet = matrix_fleet(campaign, FleetConfig::new(96).with_pool(8).with_shards(3));
        let line = fleet.run().expect("fleet run").aggregate.to_string();
        assert!(line.starts_with(&format!("{pin} ")), "{name}: {line}");
    }
}

#[test]
fn victim_streams_are_unique_and_scenario_separated() {
    // 10⁵ victims across two scenario streams: no collision within a
    // stream, no cross-stream aliasing at matching indices.
    let mut seeds: Vec<u64> = (0..100_000u64)
        .map(|i| victim_seed(42, Scenario::KernelBase.seed_salt(), i))
        .collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), 100_000);
    for i in (0..100_000u64).step_by(9973) {
        assert_ne!(
            victim_seed(42, Scenario::KernelBase.seed_salt(), i),
            victim_seed(42, Scenario::Kpti.seed_salt(), i),
            "victim {i} aliased across scenario streams"
        );
    }
}

#[test]
fn counters_survive_million_victim_magnitudes_without_overflow() {
    // Simulated 10⁶-victim campaign at realistic per-victim cost:
    // ~54k probes each (the heaviest measured per-trial budget, the
    // KPTI cell) pushed as 1000 shard reducers of 1000 victims each.
    const VICTIMS_PER_SHARD: u64 = 1000;
    const SHARDS: u64 = 1000;
    const PROBES_PER_VICTIM: u64 = 54_582;

    let mut shard = FleetReducer::new();
    for _ in 0..VICTIMS_PER_SHARD {
        shard.push(&TrialOutcome {
            probes: PROBES_PER_VICTIM,
            addresses: 512,
            accuracy: Trials {
                successes: 1,
                total: 1,
            },
            confidence: Some(KptiConfidence::Confirmed),
            ..TrialOutcome::default()
        });
    }
    let mut total = FleetReducer::new();
    for _ in 0..SHARDS {
        total.merge(&shard);
    }

    let victims = VICTIMS_PER_SHARD * SHARDS;
    assert_eq!(total.victims, victims);
    assert_eq!(total.probes, victims * PROBES_PER_VICTIM); // 5.45e10 ≫ u32
    assert_eq!(total.addresses, victims * 512);
    assert_eq!(total.accuracy().total, victims);
    assert_eq!(total.confidence[3], victims);
    // The moment carrier is exact at this magnitude too: Σx² =
    // 10⁶ × 54582² ≈ 3e15 per the u128 sum, so σ over a constant
    // stream is exactly zero — any f64 roundoff would show here.
    assert_eq!(total.probe_moments.count(), victims);
    assert!((total.probe_moments.mean() - PROBES_PER_VICTIM as f64).abs() < 1e-9);
    assert_eq!(total.probe_moments.stddev(), 0.0);

    // And the checkpoint format carries the magnitudes losslessly.
    let checkpoint = Checkpoint {
        fingerprint: 7,
        completed: vec![true; SHARDS as usize],
        reducer: total,
    };
    let back = Checkpoint::from_json(&checkpoint.to_json()).expect("roundtrip");
    assert_eq!(back, checkpoint);
}

/// A valid checkpoint with every field populated.
fn sample_checkpoint() -> String {
    let mut reducer = FleetReducer::new();
    for i in 0..9 {
        reducer.push(&synthetic_outcome(i));
    }
    Checkpoint {
        fingerprint: 0x0123_4567_89ab_cdef,
        completed: vec![true, false, true, true, false],
        reducer,
    }
    .to_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Truncated or single-byte-mutated checkpoints are parsed or
    /// refused, never a panic.
    #[test]
    fn checkpoint_parser_never_panics(cut in 0usize..4096, at in 0usize..4096, byte in any::<u8>()) {
        let valid = sample_checkpoint();
        prop_assert!(Checkpoint::from_json(&valid).is_ok());
        let truncated = &valid[..cut % (valid.len() + 1)];
        let _ = Checkpoint::from_json(truncated);
        let mut bytes = valid.into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        let _ = Checkpoint::from_json(&String::from_utf8_lossy(&bytes));
    }
}
