//! Every paper artefact, defined once.
//!
//! One function per artefact — Figs. 1–7, Table I, properties P3/P4/P6,
//! the §IV-D/G/H attacks and the §V countermeasure checks — computes it
//! at its canonical seeds and returns structured data next to the
//! matching reference in [`crate::paper`]. Each result's `Display` is
//! the section the `repro` binary prints; [`ALL`] is that section order.
//! The `figures` bench times the same functions and
//! `tests/figures.rs` checks them against the paper.

use core::fmt;

use avx_channel::attacks::behavior::{SpyConfig, TlbSpy};
use avx_channel::attacks::campaign::{CampaignConfig, CampaignRow};
use avx_channel::attacks::cloud::{run_scenario, CloudBreakReport};
use avx_channel::attacks::modules::{score, ModuleScore};
use avx_channel::attacks::userspace::{LibraryMatch, LibraryMatcher, UserRegion, UserSpaceScanner};
use avx_channel::attacks::windows::kernel_base_from_shadow;
use avx_channel::attacks::KaslrScan;
use avx_channel::defense::point_checks::{
    evaluate_fgkaslr, evaluate_flare, FgkaslrEval, FlareEval, MaskedOpSurvey,
};
use avx_channel::report::{ascii_plot_clamped, fmt_seconds, Series, Table};
use avx_channel::stats::Summary;
use avx_channel::{
    KernelBaseFinder, KptiAttack, ModuleClassifier, ModuleScanner, PermissionAttack, Prober,
    SimProber, Threshold, TlbAttack, WindowsKaslrAttack,
};
use avx_hw::scan::{survey_corpus, synthetic_corpus};
use avx_mmu::{AddressSpace, PageSize, PteFlags, VirtAddr};
use avx_os::activity::{apply_activity, ActivityTimeline};
use avx_os::cloud::CloudScenario;
use avx_os::linux::{LinuxConfig, KPTI_TRAMPOLINE_OFFSET};
use avx_os::modules::{unique_sized, UBUNTU_18_04_MODULES};
use avx_os::process::{build_process, ImageSignature};
use avx_os::windows::{WindowsConfig, WindowsSystem, WindowsVersion};
use avx_os::ExecutionContext;
use avx_uarch::{CpuProfile, ElemWidth, Event, Machine, Mask, MaskedOp, MaskedOutcome, OpKind};

use crate::{calibrate, linux_prober, linux_prober_with, paper, sigma_only_noise};

/// One paper artefact: its name and how to compute it. `run` receives
/// the campaign config of the `repro` run; only Table I reads it, every
/// other artefact runs at its canonical seeds.
pub struct Artefact {
    /// Short name (the bench id).
    pub name: &'static str,
    /// Computes the artefact; the result displays as its repro section.
    pub run: fn(&CampaignConfig) -> Box<dyn fmt::Display>,
}

impl Artefact {
    const fn new(name: &'static str, run: fn(&CampaignConfig) -> Box<dyn fmt::Display>) -> Self {
        Self { name, run }
    }
}

/// Every artefact, in `repro` order.
pub const ALL: [Artefact; 16] = [
    Artefact::new("fig1", |_| Box::new(fig1())),
    Artefact::new("fig2", |_| Box::new(fig2())),
    Artefact::new("fig3", |_| Box::new(fig3())),
    Artefact::new("prop3", |_| Box::new(prop3())),
    Artefact::new("prop4", |_| Box::new(prop4())),
    Artefact::new("prop6", |_| Box::new(prop6())),
    Artefact::new("fig4", |_| Box::new(fig4())),
    Artefact::new("table1", |c| Box::new(table1(c))),
    Artefact::new("fig5", |_| Box::new(fig5())),
    Artefact::new("kpti", |_| Box::new(kpti())),
    Artefact::new("fig6", |_| Box::new(fig6())),
    Artefact::new("fig7", |_| Box::new(fig7())),
    Artefact::new("windows", |_| Box::new(windows())),
    Artefact::new("cloud", |_| Box::new(cloud())),
    Artefact::new("countermeasures", |_| Box::new(countermeasures())),
    Artefact::new("survey", |_| Box::new(survey())),
];

/// The `repro` section heading.
fn heading(f: &mut fmt::Formatter<'_>, text: &str) -> fmt::Result {
    write!(f, "\n## {text}\n\n")
}

/// A machine over `space` with Gaussian jitter only (§III methodology).
fn quiet_machine(profile: CpuProfile, space: AddressSpace, seed: u64) -> Machine {
    let noise = sigma_only_noise(&profile);
    let mut m = Machine::new(profile, space, seed);
    m.set_noise(noise);
    m
}

fn space_with(pages: &[(VirtAddr, PageSize, PteFlags)]) -> AddressSpace {
    let mut space = AddressSpace::new();
    for &(addr, size, flags) in pages {
        space
            .map(addr, size, flags)
            .expect("fixture pages are disjoint");
    }
    space
}

fn va(addr: u64) -> VirtAddr {
    VirtAddr::new_truncate(addr)
}

fn addr_or_dash(addr: Option<VirtAddr>) -> String {
    addr.map_or("-".into(), |a| a.to_string())
}

/// Fig. 1: the four fault-suppression cases at a mapped/unmapped page
/// boundary.
#[derive(Clone, Debug)]
pub struct Fig1 {
    /// Cases A–D: label and outcome.
    pub cases: [(&'static str, MaskedOutcome); 4],
}

/// Fig. 1 — an 8-lane access straddling a mapped/unmapped boundary
/// faults when a lane on the invalid page is unmasked and completes
/// with the fault suppressed otherwise (i7-1065G7).
#[must_use]
pub fn fig1() -> Fig1 {
    let mapped = va(0x5555_5555_4000);
    let space = space_with(&[(mapped, PageSize::Size4K, PteFlags::user_rw())]);
    let mut m = quiet_machine(CpuProfile::ice_lake_i7_1065g7(), space, 1);
    let cases = [
        (
            "A load, invalid lane unmasked ",
            OpKind::Load,
            0b1111_0001u8,
        ),
        ("B load, invalid lanes masked  ", OpKind::Load, 0b0000_0111),
        ("C store, invalid lane unmasked", OpKind::Store, 0b1111_0001),
        ("D store, invalid lanes masked ", OpKind::Store, 0b0000_0111),
    ]
    .map(|(label, kind, bits)| {
        let op = MaskedOp {
            kind,
            addr: mapped.wrapping_add(0xff0),
            mask: Mask::new(bits, 8),
            width: ElemWidth::Dword,
        };
        (label, m.execute(op))
    });
    Fig1 { cases }
}

impl fmt::Display for Fig1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        heading(f, "Fig. 1 — fault suppression (A–D)")?;
        for (label, out) in &self.cases {
            match out.fault {
                Some(fault) => writeln!(f, "  {label}: #PF delivered ({fault})")?,
                None => writeln!(
                    f,
                    "  {label}: suppressed, assist={}, {} cycles",
                    out.assist, out.cycles
                )?,
            }
        }
        Ok(())
    }
}

/// One Fig. 2 bar: a page type's masked-load latency and PMC counts.
#[derive(Clone, Debug)]
pub struct PageTypeRow {
    /// Page type (`USER-M`, …).
    pub label: &'static str,
    /// Latency over 1000 steady-state probes.
    pub latency: Summary,
    /// `ASSISTS.ANY` per probe.
    pub assists: u64,
    /// Completed page walks per probe.
    pub walks: u64,
}

/// Fig. 2: latency and PMCs per page type.
#[derive(Clone, Debug)]
pub struct Fig2 {
    /// USER-M, USER-U, KERNEL-M, KERNEL-U (the [`paper::FIG2_MEANS`] order).
    pub rows: [PageTypeRow; 4],
}

/// Fig. 2 — masked-load latency, assists and walks per page type on
/// the i7-1065G7.
#[must_use]
pub fn fig2() -> Fig2 {
    let user_m = va(0x5555_5555_4000);
    let user_u = va(0x5555_5555_5000);
    let kernel_m = va(0xffff_ffff_a1e0_0000);
    let kernel_u = va(0xffff_ffff_a1a0_0000);
    let mut space = space_with(&[
        (user_m, PageSize::Size4K, PteFlags::user_rw()),
        (user_u, PageSize::Size4K, PteFlags::user_rw()),
    ]);
    space
        .protect(user_u, PageSize::Size4K, PteFlags::none_guard())
        .expect("guarded page is mapped");
    space
        .map(kernel_m, PageSize::Size2M, PteFlags::kernel_rx())
        .expect("fixture pages are disjoint");
    let mut m = quiet_machine(CpuProfile::ice_lake_i7_1065g7(), space, 2);
    let rows = [
        ("USER-M", user_m),
        ("USER-U", user_u),
        ("KERNEL-M", kernel_m),
        ("KERNEL-U", kernel_u),
    ]
    .map(|(label, addr)| {
        let probe = MaskedOp::probe_load(addr);
        for _ in 0..4 {
            let _ = m.execute(probe);
        }
        let snap = m.pmc().snapshot();
        let samples: Vec<u64> = (0..1000).map(|_| m.execute(probe).cycles).collect();
        let d = m.pmc().delta(&snap);
        PageTypeRow {
            label,
            latency: Summary::of(&samples),
            assists: d.get(Event::AssistsAny) / 1000,
            walks: d.get(Event::DtlbLoadWalkCompleted) / 1000,
        }
    });
    Fig2 { rows }
}

impl fmt::Display for Fig2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        heading(f, "Fig. 2 — latency + PMCs per page type (i7-1065G7)")?;
        let mut table = Table::new(["page type", "measured", "paper", "assists", "walks"]);
        for (row, paper_mean) in self.rows.iter().zip(paper::FIG2_MEANS) {
            table.row([
                row.label.to_string(),
                format!("{:.0}±{:.2}", row.latency.mean, row.latency.stddev),
                format!("{paper_mean:.0}"),
                row.assists.to_string(),
                row.walks.to_string(),
            ]);
        }
        writeln!(f, "{table}")
    }
}

/// Fig. 3: mean masked-load and masked-store latency per permission.
#[derive(Clone, Debug)]
pub struct Fig3 {
    /// `(permission, load mean, store mean)` for r--, r-x, rw-, ---
    /// (the [`paper::FIG3_LOAD`] order).
    pub rows: [(&'static str, f64, f64); 4],
}

/// Fig. 3 — latency by page permission on a generic desktop part.
#[must_use]
pub fn fig3() -> Fig3 {
    let ro = va(0x7f00_0000_0000);
    let rx = va(0x7f00_0000_1000);
    let rw = va(0x7f00_0000_2000);
    let none = va(0x7f00_0000_3000);
    let mut space = space_with(&[
        (ro, PageSize::Size4K, PteFlags::user_ro()),
        (rx, PageSize::Size4K, PteFlags::user_rx()),
        (rw, PageSize::Size4K, PteFlags::user_rw()),
    ]);
    space.mark_accessed(rw, true).expect("rw- page is mapped");
    space
        .map(none, PageSize::Size4K, PteFlags::user_rw())
        .expect("fixture pages are disjoint");
    space
        .protect(none, PageSize::Size4K, PteFlags::none_guard())
        .expect("guarded page is mapped");
    let mut m = quiet_machine(CpuProfile::generic_desktop(), space, 3);
    let mut mean = |op: MaskedOp| {
        for _ in 0..4 {
            let _ = m.execute(op);
        }
        let samples: Vec<u64> = (0..500).map(|_| m.execute(op).cycles).collect();
        Summary::of(&samples).mean
    };
    let rows = [("r--", ro), ("r-x", rx), ("rw-", rw), ("---", none)].map(|(label, addr)| {
        let load = mean(MaskedOp::probe_load(addr));
        // The process's own data page takes a real store; elsewhere the
        // store is an all-zero-mask probe.
        let store = if addr == rw {
            MaskedOp {
                kind: OpKind::Store,
                addr,
                mask: Mask::all_set(8),
                width: ElemWidth::Dword,
            }
        } else {
            MaskedOp::probe_store(addr)
        };
        (label, load, mean(store))
    });
    Fig3 { rows }
}

impl fmt::Display for Fig3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        heading(f, "Fig. 3 — latency by permission (generic desktop)")?;
        let mut table = Table::new(["perm", "load", "paper", "store", "paper"]);
        for (i, (label, load, store)) in self.rows.iter().enumerate() {
            table.row([
                label.to_string(),
                format!("{load:.0}"),
                format!("{:.0}", paper::FIG3_LOAD[i]),
                format!("{store:.0}"),
                format!("{:.0}", paper::FIG3_STORE[i]),
            ]);
        }
        writeln!(f, "{table}")
    }
}

/// §III-B P3: mean latency per walk-termination level.
#[derive(Clone, Debug)]
pub struct Prop3 {
    /// `(level, mean cycles)` in PD, PDPT, PML4, PT order.
    pub levels: [(&'static str, f64); 4],
}

/// §III-B P3 — with INVLPG before every probe the latency grows from
/// PD to PML4 termination, and PT walks sit above the line (i9-9900).
#[must_use]
pub fn prop3() -> Prop3 {
    let pt = va(0xffff_ffff_c012_3000);
    let pd = va(0xffff_ffff_a1e0_0000);
    let pdpt = va(0xffff_c000_0000_0000);
    let pml4 = va(0xffff_9000_0000_0000);
    let space = space_with(&[
        (pt, PageSize::Size4K, PteFlags::kernel_rx()),
        (pd, PageSize::Size2M, PteFlags::kernel_rx()),
        (pdpt, PageSize::Size1G, PteFlags::kernel_rw()),
    ]);
    let mut m = quiet_machine(CpuProfile::coffee_lake_i9_9900(), space, 4);
    let levels = [
        ("PD   (2 MiB)", pd),
        ("PDPT (1 GiB)", pdpt),
        ("PML4 (hole) ", pml4),
        ("PT   (4 KiB)", pt),
    ]
    .map(|(label, addr)| {
        let probe = MaskedOp::probe_load(addr);
        let _ = m.execute(probe);
        let samples: Vec<u64> = (0..500)
            .map(|_| {
                m.invlpg(addr);
                m.execute(probe).cycles
            })
            .collect();
        (label, Summary::of(&samples).mean)
    });
    Prop3 { levels }
}

impl fmt::Display for Prop3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        heading(
            f,
            "§III-B P3 — walk-termination level (i9-9900, INVLPG methodology)",
        )?;
        for (label, mean) in &self.levels {
            writeln!(f, "  {label}: {mean:.1} cycles")?;
        }
        writeln!(f, "  (paper: linear increase PD → PML4, PT above the line)")
    }
}

/// §III-B P4: first (TLB-miss) vs second (TLB-hit) access.
#[derive(Clone, Debug)]
pub struct Prop4 {
    /// First access after eviction.
    pub miss: Summary,
    /// Second access.
    pub hit: Summary,
}

/// §III-B P4 — TLB hit vs miss on a kernel page (i9-9900, n = 1000).
#[must_use]
pub fn prop4() -> Prop4 {
    let kernel = va(0xffff_ffff_a1e0_0000);
    let space = space_with(&[(kernel, PageSize::Size2M, PteFlags::kernel_rx())]);
    let mut m = quiet_machine(CpuProfile::coffee_lake_i9_9900(), space, 5);
    let probe = MaskedOp::probe_load(kernel);
    let _ = m.execute(probe);
    let mut miss = Vec::new();
    let mut hit = Vec::new();
    for _ in 0..1000 {
        m.evict_translation(kernel);
        miss.push(m.execute(probe).cycles);
        hit.push(m.execute(probe).cycles);
    }
    Prop4 {
        miss: Summary::of(&miss),
        hit: Summary::of(&hit),
    }
}

impl fmt::Display for Prop4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        heading(f, "§III-B P4 — TLB hit vs miss (i9-9900, n=1000)")?;
        writeln!(
            f,
            "  miss: {:.0} cycles [paper {:.0}], hit: {:.0} cycles [paper {:.0}]",
            self.miss.mean,
            paper::P4_HIT_MISS.1,
            self.hit.mean,
            paper::P4_HIT_MISS.0
        )
    }
}

/// §III-B P6: masked load vs masked store on a kernel-mapped page.
#[derive(Clone, Debug)]
pub struct Prop6 {
    /// Mean masked-load cycles.
    pub load: f64,
    /// Mean masked-store cycles.
    pub store: f64,
}

/// §III-B P6 — the masked store is cheaper than the load under the
/// assist (i7-1065G7, KERNEL-M, n = 1000).
#[must_use]
pub fn prop6() -> Prop6 {
    let kernel = va(0xffff_ffff_a1e0_0000);
    let space = space_with(&[(kernel, PageSize::Size2M, PteFlags::kernel_rx())]);
    let mut m = quiet_machine(CpuProfile::ice_lake_i7_1065g7(), space, 6);
    let load = MaskedOp::probe_load(kernel);
    let store = MaskedOp::probe_store(kernel);
    for _ in 0..4 {
        let _ = m.execute(load);
        let _ = m.execute(store);
    }
    let loads: Vec<u64> = (0..1000).map(|_| m.execute(load).cycles).collect();
    let stores: Vec<u64> = (0..1000).map(|_| m.execute(store).cycles).collect();
    Prop6 {
        load: Summary::of(&loads).mean,
        store: Summary::of(&stores).mean,
    }
}

impl fmt::Display for Prop6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        heading(
            f,
            "§III-B P6 — masked store vs load on KERNEL-M (i7-1065G7)",
        )?;
        writeln!(
            f,
            "  load {:.0} [paper {:.0}], store {:.0} [paper {:.0}], delta {:.1}",
            self.load,
            paper::P6_LOAD_STORE.0,
            self.store,
            paper::P6_LOAD_STORE.1,
            self.load - self.store
        )
    }
}

/// Fig. 4: the 512-slot kernel-base scan.
#[derive(Clone, Debug)]
pub struct Fig4 {
    /// The scan: per-slot cycles (the plotted series) and verdicts.
    pub scan: KaslrScan,
    /// Ground-truth kernel base.
    pub truth: VirtAddr,
    /// Calibrated decision boundary.
    pub threshold: f64,
    /// Level of the mapped / unmapped band: the median cycles of the
    /// slots classified each way, which the scan's rare interrupt
    /// spikes do not move ([`paper::FIG4_BANDS`]).
    pub bands: (u64, u64),
}

/// Fig. 4 — probing all 512 kernel offsets on the i5-12400F with the
/// slide pinned to the paper's slot 271.
#[must_use]
pub fn fig4() -> Fig4 {
    let (mut p, truth) = linux_prober_with(
        LinuxConfig {
            fixed_slide: Some(271),
            ..LinuxConfig::seeded(7)
        },
        CpuProfile::alder_lake_i5_12400f(),
        7,
    );
    let th = calibrate(&mut p, &truth);
    let scan = KernelBaseFinder::new(th).scan(&mut p);
    let band = |mapped: bool| {
        let band: Vec<u64> = scan
            .samples
            .iter()
            .zip(&scan.mapped)
            .filter(|&(_, &m)| m == mapped)
            .map(|(&s, _)| s)
            .collect();
        Summary::of(&band).median
    };
    Fig4 {
        bands: (band(true), band(false)),
        truth: truth.kernel_base,
        threshold: th.boundary(),
        scan,
    }
}

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        heading(
            f,
            "Fig. 4 — 512-offset kernel scan (i5-12400F, slide pinned to 271)",
        )?;
        let series = Series::from_samples("cycles per 2 MiB offset", &self.scan.samples);
        writeln!(f, "{}", ascii_plot_clamped(&series, 100, 12, 130.0))?;
        writeln!(
            f,
            "  base recovered: {} (truth {}); threshold {:.1}",
            addr_or_dash(self.scan.base),
            self.truth,
            self.threshold
        )
    }
}

/// Table I: runtime and accuracy rows.
#[derive(Clone, Debug)]
pub struct Table1 {
    /// The config the rows ran under.
    pub config: CampaignConfig,
    /// The [`paper::TABLE1`] rows, in order.
    pub rows: Vec<CampaignRow>,
}

/// Table I — base and module derandomization on the paper's three
/// parts. Runs `knobs.trials` trials per row under its noise,
/// sampling, calibrator, recalibration and confirmation knobs;
/// observables, defense and schedule stay at the paper's defaults.
#[must_use]
pub fn table1(knobs: &CampaignConfig) -> Table1 {
    let config = CampaignConfig {
        trials: knobs.trials,
        noise: knobs.noise,
        sampling: knobs.sampling,
        calibrator: knobs.calibrator,
        recal: knobs.recal,
        confirm: knobs.confirm,
        ..CampaignConfig::default()
    };
    Table1 {
        rows: avx_channel::attacks::campaign::table1(config),
        config,
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.config;
        heading(
            f,
            &format!(
                "Table I — runtime and accuracy (n={}, noise={}, sampling={}, calibrator={})",
                c.trials,
                c.noise,
                c.sampling.name(),
                c.calibrator
            ),
        )?;
        let mut table = Table::new(["CPU", "Target", "Probing", "Total", "p/addr", "Accuracy"]);
        for row in &self.rows {
            table.row([
                row.cpu.clone(),
                row.target.to_string(),
                fmt_seconds(row.probing_seconds),
                fmt_seconds(row.total_seconds),
                format!("{:.2}", row.probes_per_address),
                format!("{:.2} %", row.accuracy.percent()),
            ]);
        }
        writeln!(f, "{table}")?;
        writeln!(f, "  paper rows:")?;
        for (cpu, target, probing, total, acc) in paper::TABLE1 {
            writeln!(f, "    {cpu} {target}: {probing} / {total} / {acc:.2} %")?;
        }
        Ok(())
    }
}

/// One of the Fig. 5 example modules.
#[derive(Clone, Debug)]
pub struct NamedModule {
    /// Module name.
    pub name: &'static str,
    /// Module size in bytes.
    pub size: u64,
    /// The classifier's unique answer, if its size is unique.
    pub identified: Option<&'static str>,
    /// Same-size database entries the detected run matched.
    pub candidates: usize,
}

/// Fig. 5: module detection and identification.
#[derive(Clone, Debug)]
pub struct Fig5 {
    /// Modules loaded on the victim ([`paper::MODULES`] `.0`).
    pub loaded: usize,
    /// Modules with a unique size in the database (`.1`).
    pub unique_sizes: usize,
    /// Mapped runs the scan detected.
    pub detected: usize,
    /// The five modules the paper's figure labels.
    pub named: Vec<NamedModule>,
    /// Exact-detection and identification scores (`.2`).
    pub score: ModuleScore,
}

/// Fig. 5 — module-area scan and size-based identification on the
/// i7-1065G7.
#[must_use]
pub fn fig5() -> Fig5 {
    let (mut p, truth) = linux_prober(CpuProfile::ice_lake_i7_1065g7(), 8);
    let th = calibrate(&mut p, &truth);
    let scan = ModuleScanner::new(th).scan(&mut p);
    let ids = ModuleClassifier::new(&UBUNTU_18_04_MODULES).classify(&scan);
    let named = ["autofs4", "x_tables", "video", "mac_hid", "pinctrl_icelake"]
        .into_iter()
        .map(|name| {
            let m = truth.module(name).expect("Fig. 5 module is loaded");
            let id = ids.iter().find(|i| i.detected.base == m.base);
            NamedModule {
                name,
                size: m.spec.size,
                identified: id.and_then(|i| i.unique_name()),
                candidates: id.map_or(0, |i| i.candidates.len()),
            }
        })
        .collect();
    Fig5 {
        loaded: truth.modules.len(),
        unique_sizes: unique_sized(&UBUNTU_18_04_MODULES).len(),
        detected: scan.detected.len(),
        named,
        score: score(&scan, &ids, &truth.modules),
    }
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        heading(
            f,
            "Fig. 5 — module detection and identification (i7-1065G7)",
        )?;
        writeln!(
            f,
            "  modules loaded: {} ({} unique sizes); detected runs: {}",
            self.loaded, self.unique_sizes, self.detected
        )?;
        for m in &self.named {
            let verdict = match m.identified {
                Some(n) => format!("identified as {n}"),
                None => format!("ambiguous among {} same-size modules", m.candidates),
            };
            writeln!(f, "    {} (size {:#x}) → {verdict}", m.name, m.size)?;
        }
        writeln!(
            f,
            "  exact detection {:.2} %, unique-size identification {:.2} % [paper accuracy {:.2} %]",
            self.score.exact.percent(),
            self.score.identified.percent(),
            paper::MODULES.2
        )
    }
}

/// §IV-D: the KPTI trampoline attack.
#[derive(Clone, Debug)]
pub struct Kpti {
    /// Fast slot found ([`paper::KPTI_TRAMPOLINE`] above the base).
    pub trampoline: Option<VirtAddr>,
    /// Derived kernel base.
    pub base: Option<VirtAddr>,
    /// Ground-truth kernel base.
    pub truth: VirtAddr,
}

/// §IV-D — the paper's fixed-base KPTI run: only the trampoline stays
/// mapped, and the base follows from its build offset.
#[must_use]
pub fn kpti() -> Kpti {
    let (mut p, truth) = linux_prober_with(
        LinuxConfig {
            kpti: true,
            fixed_slide: Some(8),
            ..LinuxConfig::seeded(9)
        },
        CpuProfile::alder_lake_i5_12400f(),
        9,
    );
    let th = calibrate(&mut p, &truth);
    let scan = KptiAttack::new(th, KPTI_TRAMPOLINE_OFFSET).scan(&mut p);
    Kpti {
        trampoline: scan.trampoline,
        base: scan.base,
        truth: truth.kernel_base,
    }
}

impl fmt::Display for Kpti {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        heading(f, "§IV-D — KASLR break with KPTI enabled")?;
        writeln!(
            f,
            "  trampoline at {} [paper: 0xffffffff81c00000], base {} (truth {})",
            addr_or_dash(self.trampoline),
            addr_or_dash(self.base),
            self.truth
        )
    }
}

/// Fig. 6: one spy trace per user behaviour.
#[derive(Clone, Debug)]
pub struct Fig6 {
    /// `(trace, agreement with ground truth in [0, 1])` for the
    /// bluetooth and mouse sessions.
    pub traces: [(Series, f64); 2],
}

/// Fig. 6 — a 1 Hz spy on the `bluetooth` / `psmouse` module pages
/// over 100 s (i7-1065G7).
#[must_use]
pub fn fig6() -> Fig6 {
    let traces = [
        (ActivityTimeline::bluetooth_session(), 10u64),
        (ActivityTimeline::mouse_session(), 11),
    ]
    .map(|(timeline, seed)| {
        let (mut p, truth) = linux_prober(CpuProfile::ice_lake_i7_1065g7(), seed);
        let th = calibrate(&mut p, &truth);
        let module = truth
            .module(timeline.behaviour.module_name())
            .expect("spied module is loaded");
        let (base, pages) = (module.base, module.spec.pages());
        let tlb = TlbAttack::from_threshold(&th);
        let trace = TlbSpy::new(SpyConfig::default(), tlb).monitor(&mut p, base, |p, t| {
            apply_activity(p.machine_mut(), &timeline, base, pages, t);
        });
        let series = Series {
            label: timeline.behaviour.to_string(),
            points: trace
                .samples
                .iter()
                .map(|s| (s.t, s.cycles as f64))
                .collect(),
        };
        (series, trace.score(&timeline, tlb.hit_boundary))
    });
    Fig6 { traces }
}

impl fmt::Display for Fig6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        heading(
            f,
            "Fig. 6 — behaviour inference (bluetooth / psmouse, 1 Hz, 100 s)",
        )?;
        for (series, agreement) in &self.traces {
            writeln!(f, "{}", ascii_plot_clamped(series, 100, 8, 500.0))?;
            writeln!(
                f,
                "  agreement with ground truth: {:.1} %\n",
                agreement * 100.0
            )?;
        }
        Ok(())
    }
}

/// Fig. 7 and §IV-F: the user-space break inside SGX2.
#[derive(Clone, Debug)]
pub struct Fig7 {
    /// Regions detected around libc (the right side of Fig. 7).
    pub regions: Vec<UserRegion>,
    /// Libraries identified by section-size signature, each with
    /// whether its base matches ground truth.
    pub libraries: Vec<(LibraryMatch, bool)>,
    /// The libc window's probing time extrapolated to the full 2^28-page
    /// scan, in seconds ([`paper::SGX_SCAN_SECONDS`]).
    pub full_scan_seconds: f64,
}

/// Fig. 7 — the libc region map, library fingerprinting and the full
/// scan runtime from inside an SGX2 enclave (i7-1065G7).
#[must_use]
pub fn fig7() -> Fig7 {
    let mut space = AddressSpace::new();
    let truth = build_process(
        &mut space,
        &ImageSignature::fig7_app(),
        &ImageSignature::standard_set(),
        12,
    );
    let own = va(0x5400_0000_0000);
    space
        .map(own, PageSize::Size4K, PteFlags::user_ro())
        .expect("fixture pages are disjoint");
    let machine = Machine::new(CpuProfile::ice_lake_i7_1065g7(), space, 12);
    let mut p = SimProber::with_context(machine, ExecutionContext::sgx2());
    let scanner = UserSpaceScanner::new(PermissionAttack::calibrate(&mut p, own));

    let libc = truth.library_base("libc.so.6").expect("libc is loaded");
    let pages = (ImageSignature::libc().span() + 0x6000) / 4096;
    let before = p.probing_cycles();
    let map = scanner.scan(&mut p, libc, pages);
    let cycles = p.probing_cycles() - before;
    let first = truth.libraries.first().expect("libraries are loaded").base;
    let last = truth.libraries.last().expect("libraries are loaded");
    let span = last.base.as_u64() + last.signature.span() + 0x10_0000 - first.as_u64();
    let full = scanner.scan(&mut p, first, span / 4096);
    let libraries = LibraryMatcher::new(ImageSignature::standard_set())
        .find_all(&full)
        .into_iter()
        .map(|m| {
            let correct = truth.library_base(m.name) == Some(m.base);
            (m, correct)
        })
        .collect();
    let per_page = cycles as f64 / pages as f64;
    Fig7 {
        regions: map.regions,
        libraries,
        full_scan_seconds: per_page * (1u64 << 28) as f64 / (p.clock_ghz() * 1e9),
    }
}

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        heading(f, "§IV-F + Fig. 7 — user-space break inside SGX2")?;
        writeln!(f, "  detected libc regions:")?;
        for r in &self.regions {
            writeln!(f, "    {r}")?;
        }
        writeln!(f, "  libraries identified: {}", self.libraries.len())?;
        for (m, correct) in &self.libraries {
            let verdict = if *correct { "correct" } else { "WRONG" };
            writeln!(f, "    {} at {} ({verdict})", m.name, m.base)?;
        }
        writeln!(
            f,
            "  extrapolated full 2^28-page scan: {:.0} s [paper: {:.0} s load / {:.0} s store]",
            self.full_scan_seconds,
            paper::SGX_SCAN_SECONDS.0,
            paper::SGX_SCAN_SECONDS.1
        )
    }
}

/// §IV-G: the Windows 10 region scan and the KVAS shadow scan.
#[derive(Clone, Debug)]
pub struct Windows {
    /// Kernel base the 18-bit region scan recovered.
    pub region_base: Option<VirtAddr>,
    /// Ground-truth base of the region-scan victim.
    pub region_truth: VirtAddr,
    /// Region-scan runtime in seconds ([`paper::WINDOWS_REGION_MS`]).
    pub region_seconds: f64,
    /// KVAS shadow found by the 4 KiB scan.
    pub kvas_shadow: Option<VirtAddr>,
    /// Ground-truth base of the KVAS victim.
    pub kvas_truth: VirtAddr,
}

/// §IV-G — the 18-bit region scan on an i5-12400F and the KVAS shadow
/// scan on a Windows 10 1709 i7-6600U.
#[must_use]
pub fn windows() -> Windows {
    let sys = WindowsSystem::build(WindowsConfig::default());
    let (machine, region_truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), 13);
    let mut p = SimProber::new(machine);
    let th = Threshold::calibrate(&mut p, region_truth.user_scratch, 16);
    let scan = WindowsKaslrAttack::new(th).find_kernel_region(&mut p);
    let region_seconds = scan.total_cycles as f64 / (p.clock_ghz() * 1e9);

    let sys = WindowsSystem::build(WindowsConfig {
        version: WindowsVersion::V1709,
        kvas: true,
        fixed_slot: None,
        seed: 14,
    });
    let (machine, kvas_truth) = sys.into_machine(CpuProfile::skylake_i7_6600u(), 14);
    let mut p = SimProber::new(machine);
    let th = Threshold::calibrate(&mut p, kvas_truth.user_scratch, 16);
    let window = va(kvas_truth.kernel_base.as_u64() - 2048 * 4096);
    Windows {
        region_base: scan.base,
        region_truth: region_truth.kernel_base,
        region_seconds,
        kvas_shadow: WindowsKaslrAttack::new(th).find_kvas_shadow(&mut p, window, 4096),
        kvas_truth: kvas_truth.kernel_base,
    }
}

impl fmt::Display for Windows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        heading(f, "§IV-G — Windows 10 KASLR / KVAS")?;
        writeln!(
            f,
            "  18-bit region scan: base {} (truth {}), {} [paper ≈ {:.0} ms]",
            addr_or_dash(self.region_base),
            self.region_truth,
            fmt_seconds(self.region_seconds),
            paper::WINDOWS_REGION_MS
        )?;
        match self.kvas_shadow {
            Some(shadow) => writeln!(
                f,
                "  KVAS: shadow at {shadow} → base {} (truth {}) [paper: 8 s full sweep, 100 %]",
                kernel_base_from_shadow(shadow),
                self.kvas_truth
            ),
            None => writeln!(f, "  KVAS: shadow not found"),
        }
    }
}

/// §IV-H: one break report per cloud provider.
#[derive(Clone, Debug)]
pub struct Cloud {
    /// EC2, GCE and Azure, in [`CloudScenario::all`] order
    /// ([`paper::CLOUD_SECONDS`]).
    pub reports: Vec<CloudBreakReport>,
}

/// §IV-H — the EC2, GCE and Azure guests attacked on a quiet host.
#[must_use]
pub fn cloud() -> Cloud {
    let config = CampaignConfig::default();
    Cloud {
        reports: CloudScenario::all(99)
            .iter()
            .map(|scenario| run_scenario(scenario, 15, &config))
            .collect(),
    }
}

impl fmt::Display for Cloud {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        heading(f, "§IV-H — cloud KASLR breaks")?;
        for report in &self.reports {
            writeln!(f, "  {report}")?;
        }
        let s = paper::CLOUD_SECONDS.map(fmt_seconds);
        writeln!(
            f,
            "  paper runtimes: EC2 {} base / {} modules; GCE {} / {}; Azure {}",
            s[0], s[1], s[2], s[3], s[4]
        )?;
        writeln!(
            f,
            "  note: our KPTI model hides the module area, so EC2 reports no modules."
        )
    }
}

/// §V-A: the FLARE and FGKASLR point checks.
#[derive(Clone, Debug)]
pub struct Countermeasures {
    /// FLARE: the page-table attack is defeated, the TLB attack is not.
    pub flare: FlareEval,
    /// FGKASLR: the base and a function's page are still recovered.
    pub fgkaslr: FgkaslrEval,
}

/// §V-A — FLARE and FGKASLR against the attacks (i5-12400F).
#[must_use]
pub fn countermeasures() -> Countermeasures {
    Countermeasures {
        flare: evaluate_flare(CpuProfile::alder_lake_i5_12400f(), 16),
        fgkaslr: evaluate_fgkaslr(CpuProfile::alder_lake_i5_12400f(), 17, "commit_creds"),
    }
}

impl fmt::Display for Countermeasures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        heading(f, "§V-A — FLARE and FGKASLR")?;
        writeln!(f, "  {}", self.flare)?;
        writeln!(f, "  {}", self.fgkaslr)
    }
}

/// §V-B: the masked-op usage survey.
#[derive(Clone, Copy, Debug)]
pub struct Survey(pub MaskedOpSurvey);

/// §V-B — the byte-level scanner over a synthetic corpus with the
/// paper's counts ([`paper::SURVEY`]) as exact ground truth.
#[must_use]
pub fn survey() -> Survey {
    let corpus = synthetic_corpus(paper::SURVEY.1, paper::SURVEY.0, 16 * 1024, 18);
    let count = survey_corpus(&corpus);
    Survey(MaskedOpSurvey {
        total: count.total,
        containing: count.containing,
    })
}

impl fmt::Display for Survey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        heading(f, "§V-B — masked-op usage survey")?;
        writeln!(
            f,
            "  {} [paper: 6 of 4104] — NOP replacement impact: {}",
            self.0,
            if self.0.low_impact() { "low" } else { "HIGH" }
        )
    }
}
