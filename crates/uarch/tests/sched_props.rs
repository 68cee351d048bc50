//! Property suite for the victim event scheduler (`avx_uarch::sched`)
//! at the machine layer.
//!
//! Pins the wiring invariants of invariant 13:
//! 1. No schedule ⇒ no clock reads: an uninstalled (or inactive)
//!    schedule leaves the probe stream bit-identical to the historical
//!    machine, both observables regimes.
//! 2. A scheduled no-op (quiet→quiet swap) is architecturally silent:
//!    the event fires, the probe values do not move.
//! 3. Same seed + schedule ⇒ bit-identical probe streams (the machine
//!    replays, events included).
//! 4. Space events route through the page-table chokepoint: module
//!    churn mutates the victim's own space mid-stream and the clock
//!    ticks per victim-observed op.

use avx_mmu::{AddressSpace, PageSize, PteFlags, VirtAddr};
use avx_uarch::{
    CpuProfile, Machine, NoiseProfile, ObservablesVersion, OpKind, SchedEvent, SchedRegion,
    VictimSchedule,
};

const MODULE_REGION_START: u64 = 0xffff_ffff_c000_0000;
const MODULE_REGION_END: u64 = 0xffff_ffff_c400_0000;

fn victim_space() -> (AddressSpace, VirtAddr, VirtAddr) {
    let mut space = AddressSpace::new();
    let kernel = VirtAddr::new_truncate(0xffff_ffff_a1e0_0000);
    let user = VirtAddr::new_truncate(0x5500_0000_0000);
    space
        .map(kernel, PageSize::Size2M, PteFlags::kernel_rx())
        .expect("kernel page");
    space
        .map(user, PageSize::Size4K, PteFlags::user_ro())
        .expect("user page");
    (space, kernel, user)
}

fn machine(seed: u64) -> (Machine, Vec<VirtAddr>) {
    let (space, kernel, user) = victim_space();
    let m = Machine::new(CpuProfile::alder_lake_i5_12400f(), space, seed);
    // A mix of mapped/unmapped kernel and user probes, long enough for
    // every schedule below to tick several times.
    let addrs: Vec<VirtAddr> = (0..512)
        .map(|i| match i % 3 {
            0 => kernel,
            1 => user,
            _ => VirtAddr::new_truncate(0xffff_ffff_b000_0000 + (i as u64) * 0x1000),
        })
        .collect();
    (m, addrs)
}

// ---------------------------------------------------------------------
// Property 1: no schedule ⇒ no clock reads.

#[test]
fn inactive_schedules_are_dropped_at_install() {
    let (mut m, _) = machine(7);
    m.set_victim_schedule(Some(VictimSchedule::new(64, 7)));
    assert!(
        m.victim_schedule().is_none(),
        "an empty event queue is the no-schedule machine"
    );
    m.set_victim_schedule(None);
    assert!(m.victim_schedule().is_none());
}

#[test]
fn no_schedule_probe_streams_are_bit_identical_in_both_regimes() {
    for observables in [ObservablesVersion::V1, ObservablesVersion::V2] {
        let (mut plain, addrs) = machine(42);
        let (mut installed, _) = machine(42);
        plain.set_observables(observables);
        installed.set_observables(observables);
        // Installing nothing (and an inactive schedule) must leave the
        // stream untouched, value for value.
        installed.set_victim_schedule(Some(VictimSchedule::new(8, 42)));
        let a = plain.execute_batch(OpKind::Load, &addrs);
        let b = installed.execute_batch(OpKind::Load, &addrs);
        assert_eq!(a, b, "probe stream moved under {}", observables.name());
    }
}

// ---------------------------------------------------------------------
// Property 2: a scheduled no-op event is architecturally silent.

#[test]
fn quiet_to_quiet_swaps_leave_the_stream_bit_exact() {
    for observables in [ObservablesVersion::V1, ObservablesVersion::V2] {
        let (mut plain, addrs) = machine(9);
        let (mut swapped, _) = machine(9);
        plain.set_observables(observables);
        swapped.set_observables(observables);
        swapped.set_victim_schedule(Some(
            VictimSchedule::new(16, 9)
                .with_base(NoiseProfile::Quiet)
                .every(2, 4, SchedEvent::NoiseSwap(NoiseProfile::Quiet)),
        ));
        let a = plain.execute_batch(OpKind::Load, &addrs);
        let b = swapped.execute_batch(OpKind::Load, &addrs);
        assert_eq!(
            a,
            b,
            "a no-op swap bent the stream under {}",
            observables.name()
        );
        let sched = swapped.victim_schedule().expect("still installed");
        assert!(sched.fired() >= 7, "events fired: {}", sched.fired());
        assert_eq!(sched.ops_seen(), addrs.len() as u64, "clock tracked ops");
    }
}

// ---------------------------------------------------------------------
// Property 3: scheduled machines replay bit-identically.

#[test]
fn same_seed_and_schedule_replays_bit_identical_streams() {
    for observables in [ObservablesVersion::V1, ObservablesVersion::V2] {
        let run = |_| {
            let (mut m, addrs) = machine(23);
            m.set_observables(observables);
            m.set_victim_schedule(Some(
                VictimSchedule::new(16, 23)
                    .with_base(NoiseProfile::Quiet)
                    .every(2, 6, SchedEvent::NoiseSwap(NoiseProfile::LaptopDvfs))
                    .every(5, 6, SchedEvent::NoiseSwap(NoiseProfile::Quiet))
                    .every(3, 8, SchedEvent::TenantArrive)
                    .every(7, 8, SchedEvent::TenantDepart),
            ));
            m.execute_batch(OpKind::Load, &addrs)
        };
        assert_eq!(run(0), run(1), "replay moved under {}", observables.name());
    }
}

#[test]
fn dvfs_swaps_actually_move_the_stream() {
    // The counter-property: the same schedule with a *real* noise swap
    // must diverge from the unscheduled machine — events do fire.
    let (mut plain, addrs) = machine(31);
    let (mut swapped, _) = machine(31);
    swapped.set_victim_schedule(Some(
        VictimSchedule::new(16, 31)
            .with_base(NoiseProfile::Quiet)
            .every(2, 4, SchedEvent::NoiseSwap(NoiseProfile::LaptopDvfs)),
    ));
    let a = plain.execute_batch(OpKind::Load, &addrs);
    let b = swapped.execute_batch(OpKind::Load, &addrs);
    assert_ne!(a, b, "the DVFS swap never took effect");
}

// ---------------------------------------------------------------------
// Property 4: module churn mutates the victim's own space mid-stream.

#[test]
fn module_churn_maps_and_unmaps_mid_stream() {
    let (mut m, addrs) = machine(17);
    m.set_victim_schedule(Some(
        VictimSchedule::new(16, 17)
            .with_module_region(SchedRegion::new(
                MODULE_REGION_START,
                MODULE_REGION_END,
                0x1000,
            ))
            .every(2, 4, SchedEvent::ModuleLoad { pages: 4 })
            .every(4, 8, SchedEvent::ModuleUnload),
    ));
    let _ = m.execute_batch(OpKind::Load, &addrs);
    let sched = m.victim_schedule().expect("installed");
    assert!(sched.fired() >= 8, "churn events fired: {}", sched.fired());
    assert!(
        sched.loaded_modules() >= 1,
        "loads outpace unloads 2:1, so modules accumulate"
    );
}

#[test]
fn probes_against_churned_pages_see_the_mapping_flip() {
    // A page the schedule will map: before the load event it times like
    // unmapped memory, afterwards like mapped memory. The probe stream
    // itself witnesses the page-table mutation.
    let (mut m, _) = machine(3);
    let mut sched = VictimSchedule::new(4, 3).with_module_region(SchedRegion::new(
        MODULE_REGION_START,
        MODULE_REGION_END,
        0x1000,
    ));
    sched = sched.at(2, SchedEvent::ModuleLoad { pages: 16 });
    m.set_victim_schedule(Some(sched));
    let filler = VirtAddr::new_truncate(0xffff_ffff_b000_0000);
    // Advance the clock past the load event.
    for _ in 0..16 {
        let _ = m.probe(OpKind::Load, filler);
    }
    let sched = m.victim_schedule().expect("installed");
    assert_eq!(sched.fired(), 1, "one-shot load fired");
    assert_eq!(sched.loaded_modules(), 1);
    assert!(
        m.space().mapped_pages() > 2,
        "the module's pages joined the victim space"
    );
}
