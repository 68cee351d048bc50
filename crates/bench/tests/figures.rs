//! Every paper artefact of `avx_bench::figures`, at its canonical
//! seeds, checked against the published value in `avx_bench::paper`.
//!
//! Latencies of the §III characterization figures must land within
//! [`CYCLES`] of the paper's means; attacks must recover ground truth.

use avx_bench::figures::{self, ALL};
use avx_bench::paper;
use avx_channel::attacks::campaign::CampaignConfig;
use avx_os::linux::KPTI_TRAMPOLINE_OFFSET;

/// Tolerance, in cycles, of a simulated mean against the paper's.
const CYCLES: f64 = 1.5;

fn near(measured: f64, paper: f64) -> bool {
    (measured - paper).abs() <= CYCLES
}

#[test]
fn fig1_faults_only_when_a_lane_on_the_invalid_page_is_unmasked() {
    let fig = figures::fig1();
    let faulted: Vec<bool> = fig.cases.iter().map(|(_, o)| o.fault.is_some()).collect();
    assert_eq!(faulted, [true, false, true, false], "{fig}");
    for (label, out) in fig.cases.iter().filter(|(_, o)| o.fault.is_none()) {
        assert!(out.assist, "suppression goes through the assist: {label}");
    }
}

#[test]
fn fig2_latencies_and_pmcs_match_the_paper() {
    let fig = figures::fig2();
    for (i, row) in fig.rows.iter().enumerate() {
        assert!(near(row.latency.mean, paper::FIG2_MEANS[i]), "{fig}");
        assert_eq!(row.assists, paper::FIG2_ASSISTS[i], "{}", row.label);
        assert_eq!(row.walks, paper::FIG2_WALKS[i], "{}", row.label);
    }
}

#[test]
fn fig3_latency_by_permission_matches_the_paper() {
    let fig = figures::fig3();
    for (i, &(_, load, store)) in fig.rows.iter().enumerate() {
        assert!(near(load, paper::FIG3_LOAD[i]), "{fig}");
        assert!(near(store, paper::FIG3_STORE[i]), "{fig}");
    }
}

#[test]
fn prop3_latency_rises_with_walk_depth_and_pt_sits_above_the_line() {
    let fig = figures::prop3();
    let mean: Vec<f64> = fig.levels.iter().map(|&(_, m)| m).collect();
    let [pd, pdpt, pml4, pt] = mean[..] else {
        panic!("four levels: {fig}")
    };
    assert!(pd < pdpt && pdpt < pml4, "{fig}");
    assert!(pt > pd, "no PSC for PTEs: {fig}");
}

#[test]
fn prop4_tlb_hit_and_miss_match_the_paper() {
    let fig = figures::prop4();
    let (hit, miss) = paper::P4_HIT_MISS;
    assert!(near(fig.hit.mean, hit), "{fig}");
    assert!(near(fig.miss.mean, miss), "{fig}");
}

#[test]
fn prop6_masked_store_is_cheaper_than_the_load() {
    let fig = figures::prop6();
    let (load, store) = paper::P6_LOAD_STORE;
    assert!(near(fig.load, load), "{fig}");
    assert!(near(fig.store, store), "{fig}");
    let delta = fig.load - fig.store;
    assert!(
        (15.0..=19.0).contains(&delta),
        "paper: 16-18 cycles, got {delta}"
    );
}

#[test]
fn fig4_scan_recovers_the_pinned_slide_and_shows_both_bands() {
    let fig = figures::fig4();
    assert_eq!(fig.scan.base, Some(fig.truth), "{fig}");
    assert_eq!(fig.scan.slide_slots(), Some(271));
    assert_eq!(fig.scan.samples.len(), 512);
    let (mapped, unmapped) = (fig.bands.0 as f64, fig.bands.1 as f64);
    let (paper_mapped, paper_unmapped) = paper::FIG4_BANDS;
    assert!(near(mapped, paper_mapped), "mapped band {mapped}");
    assert!(near(unmapped, paper_unmapped), "unmapped band {unmapped}");
    assert!(mapped < fig.threshold && fig.threshold < unmapped, "{fig}");
}

#[test]
fn table1_rows_follow_the_paper_and_break_every_trial() {
    let fig = figures::table1(&CampaignConfig::new(4, 0));
    assert_eq!(fig.rows.len(), paper::TABLE1.len());
    for (row, (cpu, target, _, _, _)) in fig.rows.iter().zip(paper::TABLE1) {
        assert!(row.cpu.starts_with(cpu), "{} vs {cpu}", row.cpu);
        assert_eq!(row.target, target);
        assert_eq!(row.accuracy.percent(), 100.0, "{fig}");
    }
    // Paper ordering: module scans cost more than base scans on the
    // same part, and the AMD base attack costs more than Intel's.
    let probing: Vec<f64> = fig.rows.iter().map(|r| r.probing_seconds).collect();
    assert!(probing[1] > probing[0] && probing[3] > probing[2], "{fig}");
    assert!(probing[4] > probing[0], "{fig}");
}

#[test]
fn fig5_detects_every_module_and_names_the_unique_sizes() {
    let fig = figures::fig5();
    let (loaded, unique, _) = paper::MODULES;
    assert_eq!(fig.loaded, loaded);
    assert_eq!(fig.unique_sizes, unique);
    assert_eq!(fig.detected, loaded, "{fig}");
    assert_eq!(fig.score.exact.percent(), 100.0, "{fig}");
    for m in &fig.named {
        match m.name {
            // autofs4 and x_tables share the 0xB000 size.
            "autofs4" | "x_tables" => {
                assert_eq!(m.size, 0xb000);
                assert!(m.identified.is_none() && m.candidates > 1, "{fig}");
            }
            name => assert_eq!(m.identified, Some(name), "{fig}"),
        }
    }
}

#[test]
fn kpti_trampoline_sits_at_the_paper_offset_and_yields_the_base() {
    assert_eq!(paper::KPTI_TRAMPOLINE, KPTI_TRAMPOLINE_OFFSET);
    let fig = figures::kpti();
    assert_eq!(fig.base, Some(fig.truth), "{fig}");
    assert_eq!(
        fig.trampoline,
        Some(fig.truth.wrapping_add(paper::KPTI_TRAMPOLINE)),
        "{fig}"
    );
}

#[test]
fn fig6_spy_traces_agree_with_the_user_activity() {
    let fig = figures::fig6();
    for (series, agreement) in &fig.traces {
        assert_eq!(series.points.len(), 100, "1 Hz over 100 s");
        assert!(*agreement >= 0.9, "{}: {agreement}", series.label);
    }
}

#[test]
fn fig7_identifies_every_library_and_extrapolates_a_paper_scale_scan() {
    let fig = figures::fig7();
    assert!(!fig.regions.is_empty(), "{fig}");
    assert_eq!(fig.libraries.len(), 5, "{fig}");
    assert!(fig.libraries.iter().all(|(_, correct)| *correct), "{fig}");
    let (load, store) = paper::SGX_SCAN_SECONDS;
    let s = fig.full_scan_seconds;
    assert!(s > store / 2.0 && s < load * 2.0, "{s} s vs paper {load} s");
}

#[test]
fn windows_region_and_kvas_scans_recover_the_base() {
    let fig = figures::windows();
    assert_eq!(fig.region_base, Some(fig.region_truth), "{fig}");
    assert!(
        fig.region_seconds * 1e3 < 2.0 * paper::WINDOWS_REGION_MS,
        "{fig}"
    );
    let shadow = fig.kvas_shadow.expect("KVAS shadow found");
    assert_eq!(
        avx_channel::attacks::windows::kernel_base_from_shadow(shadow),
        fig.kvas_truth
    );
}

#[test]
fn cloud_guests_all_break_and_azure_dominates_the_runtime() {
    let fig = figures::cloud();
    assert_eq!(fig.reports.len(), 3);
    assert!(fig.reports.iter().all(|r| r.base_correct), "{fig}");
    let [ec2, gce, azure] = &fig.reports[..] else {
        unreachable!()
    };
    assert!(ec2.modules_detected.is_none(), "KPTI hides the module area");
    assert_eq!(gce.modules_detected, Some(paper::MODULES.0));
    assert!(azure.base_seconds > ec2.base_seconds.max(gce.base_seconds));
}

#[test]
fn countermeasures_flare_falls_to_the_tlb_and_fgkaslr_leaks_the_base() {
    let fig = figures::countermeasures();
    assert!(fig.flare.page_table_defeated, "{fig}");
    assert!(fig.flare.tlb_correct, "the paper's bypass must hold: {fig}");
    assert!(fig.fgkaslr.base_correct, "{fig}");
    assert!(fig.fgkaslr.function_page_correct, "{fig}");
}

#[test]
fn survey_counts_match_the_paper_exactly() {
    let figures::Survey(survey) = figures::survey();
    let (containing, total) = paper::SURVEY;
    assert_eq!((survey.containing, survey.total), (containing, total));
    assert!(survey.low_impact());
}

#[test]
fn artefact_names_are_unique() {
    let mut names: Vec<&str> = ALL.iter().map(|a| a.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), ALL.len());
}
