//! The campaign engine's grid-wide trial fan-out (ARCHITECTURE.md
//! invariant 14): `Campaign::run` runs every (cell, trial) pair of the
//! matrix in one parallel pass, and its rows must equal, bit for bit
//! and in the same order, the rows of running each cell on its own
//! with `Scenario::campaign_with` over the same fixture pools.

use avx_channel::attacks::campaign::{Campaign, CampaignConfig, CampaignRow, Scenario};
use avx_channel::defense::DefenseKind;
use avx_channel::fleet::legacy_trial_seed;
use avx_uarch::{CpuProfile, NoiseProfile};

/// Row order spelled out cell by cell: noise, then defense, then
/// scenario, then profile, with cloud once per noise × defense.
fn rows_cell_by_cell(campaign: &Campaign) -> Vec<CampaignRow> {
    let config = campaign.config;
    let mut rows = Vec::new();
    for &noise in &campaign.noises {
        for &defense in &campaign.defenses {
            for &scenario in &campaign.scenarios {
                let pool: Vec<_> = (0..config.trials.clamp(1, scenario.max_trials()))
                    .map(|i| {
                        scenario.build_fixture(legacy_trial_seed(
                            config.seed0,
                            scenario.seed_salt(),
                            i,
                        ))
                    })
                    .collect();
                let cell = config.with_noise(noise).with_defense(defense);
                let mut profiles = campaign
                    .profiles
                    .iter()
                    .filter(|p| scenario.supported_on(p));
                if scenario == Scenario::Cloud {
                    let first = profiles.next().expect("cloud runs on an Intel profile");
                    rows.push(scenario.campaign_with(first, cell, &pool));
                    continue;
                }
                for profile in profiles {
                    rows.push(scenario.campaign_with(profile, cell, &pool));
                }
            }
        }
    }
    rows
}

#[test]
fn grid_rows_equal_cell_by_cell_rows_bit_for_bit() {
    let campaign = Campaign::new(
        vec![
            CpuProfile::alder_lake_i5_12400f(),
            CpuProfile::ice_lake_i7_1065g7(),
            CpuProfile::zen3_ryzen5_5600x(),
        ],
        vec![
            Scenario::KernelBase,
            Scenario::Cloud,
            Scenario::AmdKernelBase,
        ],
        CampaignConfig::new(2, 23),
    )
    .with_noises(vec![NoiseProfile::Quiet, NoiseProfile::SmtSibling])
    .with_defenses(vec![DefenseKind::None, DefenseKind::MaskedTranslation]);

    let grid = campaign.run();
    let reference = rows_cell_by_cell(&campaign);
    // Per noise × defense: kernel base on two Intel parts, one cloud
    // row, AMD kernel base on one AMD part.
    assert_eq!(grid.len(), 2 * 2 * 4);
    assert_eq!(grid.len(), reference.len());
    for (i, (got, want)) in grid.iter().zip(&reference).enumerate() {
        assert_eq!(
            got.probing_seconds.to_bits(),
            want.probing_seconds.to_bits(),
            "row {i}: {got}"
        );
        assert_eq!(
            got.total_seconds.to_bits(),
            want.total_seconds.to_bits(),
            "row {i}: {got}"
        );
        assert_eq!(
            got.probes_per_address.to_bits(),
            want.probes_per_address.to_bits(),
            "row {i}: {got}"
        );
        // Debug covers every other field (labels, trials, probes,
        // accuracy records).
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "row {i}");
    }
}
