//! Cross-crate integration tests: every end-to-end attack of the paper
//! against freshly randomized systems, with realistic noise enabled.

use avx_aslr::channel::attacks::behavior::{SpyConfig, TlbSpy};
use avx_aslr::channel::attacks::campaign::CampaignConfig;
use avx_aslr::channel::attacks::cloud::run_scenario;
use avx_aslr::channel::attacks::modules::score;
use avx_aslr::channel::attacks::userspace::{LibraryMatcher, UserSpaceScanner};
use avx_aslr::channel::attacks::windows::kernel_base_from_shadow;
use avx_aslr::channel::{
    AmdKernelBaseFinder, KernelBaseFinder, KptiAttack, ModuleClassifier, ModuleScanner,
    PermissionAttack, SimProber, Threshold, TlbAttack, WindowsKaslrAttack,
};
use avx_aslr::mmu::{AddressSpace, PageSize, PteFlags, VirtAddr};
use avx_aslr::os::activity::{apply_activity, ActivityTimeline};
use avx_aslr::os::cloud::CloudScenario;
use avx_aslr::os::linux::{LinuxConfig, LinuxSystem, KPTI_TRAMPOLINE_OFFSET};
use avx_aslr::os::modules::UBUNTU_18_04_MODULES;
use avx_aslr::os::process::{build_process, ImageSignature};
use avx_aslr::os::windows::{WindowsConfig, WindowsSystem, WindowsVersion};
use avx_aslr::os::ExecutionContext;
use avx_aslr::uarch::{CpuProfile, Machine};

fn linux_attack_succeeds(profile: CpuProfile, seed: u64) -> bool {
    let system = LinuxSystem::build(LinuxConfig::seeded(seed));
    let (machine, truth) = system.into_machine(profile, seed);
    let mut p = SimProber::new(machine);
    let th = Threshold::calibrate(&mut p, truth.user.calibration, 16);
    KernelBaseFinder::new(th).scan(&mut p).base == Some(truth.kernel_base)
}

#[test]
fn kaslr_break_works_across_intel_profiles_and_seeds() {
    let mut wins = 0;
    let mut total = 0;
    for profile in [
        CpuProfile::alder_lake_i5_12400f(),
        CpuProfile::ice_lake_i7_1065g7(),
        CpuProfile::coffee_lake_i9_9900(),
        CpuProfile::skylake_i7_6600u(),
        CpuProfile::xeon_cascade_lake(),
    ] {
        for seed in 0..6 {
            total += 1;
            if linux_attack_succeeds(profile.clone(), seed * 13 + 1) {
                wins += 1;
            }
        }
    }
    assert!(wins * 100 >= total * 95, "{wins}/{total} under noise");
}

#[test]
fn amd_kaslr_break_works_across_seeds() {
    let mut wins = 0;
    for seed in 0..8u64 {
        let system = LinuxSystem::build(LinuxConfig::seeded(seed * 7 + 3));
        let (machine, truth) = system.into_machine(CpuProfile::zen3_ryzen5_5600x(), seed);
        let mut p = SimProber::new(machine);
        let scan = AmdKernelBaseFinder::for_default_kernel().scan(&mut p);
        if scan.base == Some(truth.kernel_base) {
            wins += 1;
        }
    }
    assert!(wins >= 7, "{wins}/8");
}

#[test]
fn module_scan_detects_and_identifies() {
    let system = LinuxSystem::build(LinuxConfig::seeded(42));
    let (machine, truth) = system.into_machine(CpuProfile::ice_lake_i7_1065g7(), 42);
    let mut p = SimProber::new(machine);
    let th = Threshold::calibrate(&mut p, truth.user.calibration, 16);
    let scan = ModuleScanner::new(th).scan(&mut p);
    let ids = ModuleClassifier::new(&UBUNTU_18_04_MODULES).classify(&scan);
    let s = score(&scan, &ids, &truth.modules);
    assert!(s.exact.rate() > 0.97, "exact {}", s.exact);
    assert!(s.identified.rate() > 0.9, "identified {}", s.identified);
}

#[test]
fn kpti_trampoline_derandomizes_hidden_kernel() {
    for seed in [5u64, 6, 7] {
        let system = LinuxSystem::build(LinuxConfig {
            kpti: true,
            ..LinuxConfig::seeded(seed)
        });
        let (machine, truth) = system.into_machine(CpuProfile::alder_lake_i5_12400f(), seed);
        let mut p = SimProber::new(machine);
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 16);
        let scan = KptiAttack::new(th, KPTI_TRAMPOLINE_OFFSET).scan(&mut p);
        assert_eq!(scan.base, Some(truth.kernel_base), "seed {seed}");
    }
}

#[test]
fn behaviour_spy_tracks_random_timelines() {
    let timeline = ActivityTimeline::random(avx_aslr::os::Behaviour::MouseMovement, 60.0, 3, 99);
    let system = LinuxSystem::build(LinuxConfig::seeded(8));
    let (machine, truth) = system.into_machine(CpuProfile::ice_lake_i7_1065g7(), 8);
    let mut p = SimProber::new(machine);
    let th = Threshold::calibrate(&mut p, truth.user.calibration, 16);
    let module = truth.module("psmouse").unwrap();
    let (base, pages) = (module.base, module.spec.pages());
    let tlb = TlbAttack::from_threshold(&th);
    let spy = TlbSpy::new(
        SpyConfig {
            duration_s: 60.0,
            ..SpyConfig::default()
        },
        tlb,
    );
    let trace = spy.monitor(&mut p, base, |p, t| {
        apply_activity(p.machine_mut(), &timeline, base, pages, t);
    });
    assert!(trace.score(&timeline, tlb.hit_boundary) > 0.9);
}

#[test]
fn userspace_fingerprinting_inside_sgx() {
    let mut space = AddressSpace::new();
    let truth = build_process(
        &mut space,
        &ImageSignature::fig7_app(),
        &ImageSignature::standard_set(),
        77,
    );
    let own = VirtAddr::new_truncate(0x5400_0000_0000);
    space
        .map(own, PageSize::Size4K, PteFlags::user_ro())
        .unwrap();
    let machine = Machine::new(CpuProfile::ice_lake_i7_1065g7(), space, 77);
    let mut p = SimProber::with_context(machine, ExecutionContext::sgx2());
    let perm = PermissionAttack::calibrate(&mut p, own);
    let scanner = UserSpaceScanner::new(perm);
    let first = truth.libraries.first().unwrap().base;
    let last = truth.libraries.last().unwrap();
    let span = last.base.as_u64() + last.signature.span() + 0x10_0000 - first.as_u64();
    let map = scanner.scan(&mut p, first, span / 4096);
    let matches = LibraryMatcher::new(ImageSignature::standard_set()).find_all(&map);
    for lib in &truth.libraries {
        assert!(
            matches
                .iter()
                .any(|m| m.name == lib.signature.name && m.base == lib.base),
            "{} not fingerprinted",
            lib.signature.name
        );
    }
}

#[test]
fn windows_region_and_kvas_breaks() {
    // 18-bit scan.
    let system = WindowsSystem::build(WindowsConfig {
        fixed_slot: Some(33_000),
        ..WindowsConfig::default()
    });
    let (machine, truth) = system.into_machine(CpuProfile::alder_lake_i5_12400f(), 1);
    let mut p = SimProber::new(machine);
    let th = Threshold::calibrate(&mut p, truth.user_scratch, 16);
    let scan = WindowsKaslrAttack::new(th).find_kernel_region(&mut p);
    assert_eq!(scan.base, Some(truth.kernel_base));

    // KVAS.
    let system = WindowsSystem::build(WindowsConfig {
        version: WindowsVersion::V1709,
        kvas: true,
        fixed_slot: Some(44_000),
        seed: 2,
    });
    let (machine, truth) = system.into_machine(CpuProfile::skylake_i7_6600u(), 2);
    let mut p = SimProber::new(machine);
    let th = Threshold::calibrate(&mut p, truth.user_scratch, 16);
    let attack = WindowsKaslrAttack::new(th);
    let window = VirtAddr::new_truncate(truth.kernel_base.as_u64() - 256 * 4096);
    let shadow = attack
        .find_kvas_shadow(&mut p, window, 1024)
        .expect("shadow");
    assert_eq!(kernel_base_from_shadow(shadow), truth.kernel_base);
}

#[test]
fn all_cloud_scenarios_break() {
    for scenario in CloudScenario::all(4242) {
        let report = run_scenario(&scenario, 17, &CampaignConfig::default());
        assert!(report.base_correct, "{report}");
    }
}

#[test]
fn table1_runtime_ordering_matches_paper() {
    // Desktop Alder Lake must be faster than mobile Ice Lake; AMD's
    // walk-only probing must be slower than Intel's desktop probing.
    let time_of = |profile: CpuProfile, seed: u64| -> f64 {
        let system = LinuxSystem::build(LinuxConfig::seeded(seed));
        let (machine, truth) = system.into_machine(profile, seed);
        let mut p = SimProber::new(machine);
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 16);
        let scan = KernelBaseFinder::new(th).scan(&mut p);
        scan.total_cycles as f64 / (avx_aslr::channel::Prober::clock_ghz(&p) * 1e9)
    };
    let alder = time_of(CpuProfile::alder_lake_i5_12400f(), 3);
    let ice = time_of(CpuProfile::ice_lake_i7_1065g7(), 3);
    assert!(alder < ice, "desktop {alder} < mobile {ice}");

    let system = LinuxSystem::build(LinuxConfig::seeded(3));
    let (machine, _) = system.into_machine(CpuProfile::zen3_ryzen5_5600x(), 3);
    let mut p = SimProber::new(machine);
    let before = avx_aslr::channel::Prober::total_cycles(&p);
    let _ = AmdKernelBaseFinder::for_default_kernel().scan(&mut p);
    let amd = (avx_aslr::channel::Prober::total_cycles(&p) - before) as f64 / (4.6 * 1e9);
    assert!(amd > alder, "AMD {amd} slower than Intel desktop {alder}");
}
