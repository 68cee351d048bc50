//! The §V static point checks — FLARE, FGKASLR and the masked-op
//! usage survey — folded into the defense-evaluation site.
//!
//! Unlike the dynamic menu in [`super`], these two defenses change how
//! the victim's layout is *built* (dummy mappings, shuffled
//! functions), so they cannot be installed on an existing machine
//! without violating fixture immutability. They stay what the paper
//! made them — point checks against purpose-built systems — but they
//! live here so there is exactly one defense-evaluation site
//! (invariant 12).
//!
//! * **FLARE** \[5\] maps dummy pages over unmapped kernel ranges so the
//!   page-table attack (P2) sees a uniform picture. The bypass: dummy
//!   translations are never used by the kernel, so they stay TLB-cold;
//!   the TLB attack (P4) still reveals the real image.
//! * **FGKASLR** \[1\] shuffles functions within the kernel text. The
//!   base is still recoverable (the image location does not change) and
//!   a TLB template attack locates the *page* of a target function by
//!   triggering the corresponding syscall.
//! * **Masked-op replacement** (§V-B): executing `VMASKMOV` with an
//!   all-zero mask as a NOP would close the channel; the paper surveys
//!   a default Ubuntu install and finds only 6 of 4104 executables use
//!   the instruction at all. The byte-level scanner lives in `avx-hw`;
//!   [`MaskedOpSurvey`] is the impact analysis over its counts.

use core::fmt;

use avx_mmu::VirtAddr;
use avx_os::linux::{
    LinuxConfig, LinuxSystem, KASLR_ALIGN, KERNEL_SLOTS, KERNEL_TEXT_REGION_START,
};
use avx_uarch::CpuProfile;

use crate::calibrate::Threshold;
use crate::primitives::{TlbAttack, TlbState};
use crate::prober::SimProber;

use crate::attacks::kaslr::KernelBaseFinder;

/// Result of attacking a FLARE-hardened kernel.
#[derive(Clone, Debug)]
pub struct FlareEval {
    /// Slots the page-table attack classified as mapped (≈ all 512 on a
    /// FLARE kernel: the defense works against P2).
    pub page_table_mapped_slots: usize,
    /// `true` when the page-table attack alone cannot isolate the image.
    pub page_table_defeated: bool,
    /// Base recovered by the TLB attack.
    pub tlb_base: Option<VirtAddr>,
    /// `true` when the TLB attack recovered the true base — the §V-A
    /// bypass.
    pub tlb_correct: bool,
}

impl fmt::Display for FlareEval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FLARE: page-table attack sees {}/512 slots mapped ({}); TLB attack {}",
            self.page_table_mapped_slots,
            if self.page_table_defeated {
                "defeated"
            } else {
                "NOT defeated"
            },
            if self.tlb_correct {
                "bypasses the defense"
            } else {
                "fails"
            }
        )
    }
}

/// Attacks a FLARE-enabled kernel with both primitives (§V-A).
#[must_use]
pub fn evaluate_flare(profile: CpuProfile, seed: u64) -> FlareEval {
    let sys = LinuxSystem::build(LinuxConfig {
        flare: true,
        ..LinuxConfig::seeded(seed)
    });
    let (machine, truth) = sys.into_machine(profile, seed);
    let mut p = SimProber::new(machine);
    let th = Threshold::calibrate(&mut p, truth.user.calibration, 16);

    // 1. Page-table attack: everything looks mapped.
    let scan = KernelBaseFinder::new(th).scan(&mut p);
    let mapped = scan.mapped.iter().filter(|&&m| m).count();
    let page_table_defeated = mapped > (KERNEL_SLOTS as usize * 9) / 10;

    // 2. TLB attack: evict, let the kernel run, probe. Only real
    // kernel pages get re-cached by kernel execution. Against FLARE the
    // nearest dummies still walk with warm paging structures (≈7 cycles
    // above the hit level), so the boundary must hug the hit level —
    // unlike the behaviour spy, whose idle level is a full cold walk.
    let tlb = TlbAttack::with_boundary(th.value + 4.0);
    let start = VirtAddr::new_truncate(KERNEL_TEXT_REGION_START);
    let kernel_pages: Vec<VirtAddr> = (0..truth.kernel_slots)
        .map(|s| truth.kernel_base.wrapping_add(s * KASLR_ALIGN))
        .collect();
    let mut hits = vec![false; KERNEL_SLOTS as usize];
    for slot in 0..KERNEL_SLOTS {
        let addr = start.wrapping_add(slot * KASLR_ALIGN);
        // Two independent rounds; take the min to reject spikes.
        let mut best = u64::MAX;
        for _ in 0..2 {
            tlb.arm(&mut p, addr);
            // The kernel keeps running between eviction and probe:
            // syscalls touch the real kernel text (ground-truth driven —
            // this is the victim's behaviour, not attacker knowledge).
            for &page in &kernel_pages {
                p.machine_mut().touch_as_kernel(page);
            }
            let (_, cycles) = tlb.observe(&mut p, addr);
            best = best.min(cycles);
        }
        hits[slot as usize] = tlb.classify(best) == TlbState::Hit;
    }
    let tlb_base = hits
        .windows(2)
        .position(|w| w[0] && w[1])
        .map(|slot| start.wrapping_add(slot as u64 * KASLR_ALIGN));

    FlareEval {
        page_table_mapped_slots: mapped,
        page_table_defeated,
        tlb_base,
        tlb_correct: tlb_base == Some(truth.kernel_base),
    }
}

/// Result of attacking an FGKASLR kernel.
#[derive(Clone, Debug)]
pub struct FgkaslrEval {
    /// Base recovered by the ordinary scan (FGKASLR does not move the
    /// image, so this still works).
    pub base: Option<VirtAddr>,
    /// `true` when the base matches.
    pub base_correct: bool,
    /// The page located for the target function by the TLB template.
    pub function_page: Option<VirtAddr>,
    /// `true` when it is the page actually hosting the function.
    pub function_page_correct: bool,
}

impl fmt::Display for FgkaslrEval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FGKASLR: base {}, function page {}",
            if self.base_correct {
                "recovered"
            } else {
                "lost"
            },
            if self.function_page_correct {
                "located via TLB template"
            } else {
                "not located"
            }
        )
    }
}

/// Attacks an FGKASLR kernel: base scan + per-function TLB template
/// (§V-A, following the template idea of \[20\]).
#[must_use]
pub fn evaluate_fgkaslr(profile: CpuProfile, seed: u64, function: &str) -> FgkaslrEval {
    let sys = LinuxSystem::build(LinuxConfig {
        fgkaslr: true,
        ..LinuxConfig::seeded(seed)
    });
    let config_text_slots = sys.config().text_slots;
    let (machine, truth) = sys.into_machine(profile, seed);
    let mut p = SimProber::new(machine);
    let th = Threshold::calibrate(&mut p, truth.user.calibration, 16);

    let scan = KernelBaseFinder::new(th).scan(&mut p);
    let base_correct = scan.base == Some(truth.kernel_base);

    // TLB template (shared primitive): for each candidate text page,
    // evict it, trigger the syscall that executes `function`, probe.
    // Only the page hosting the function turns hot.
    let template = crate::primitives::TlbTemplateAttack::new(&th);
    let function_addr = truth.function_addr(function);
    let mut function_page = None;
    if let (Some(base), Some(target)) = (scan.base, function_addr) {
        let text_pages = config_text_slots * (KASLR_ALIGN / 4096);
        function_page = template.locate(&mut p, base, text_pages, |p| {
            // Victim syscall: the kernel executes the target function.
            p.machine_mut().touch_as_kernel(target.align_down(4096));
        });
    }
    let function_page_correct = match (function_page, function_addr) {
        (Some(found), Some(truth_addr)) => found == truth_addr.align_down(4096),
        _ => false,
    };

    FgkaslrEval {
        base: scan.base,
        base_correct,
        function_page,
        function_page_correct,
    }
}

/// The §V-B deployment analysis of replacing all-zero-mask masked ops
/// with NOPs, fed by a binary survey (see `avx-hw`'s scanner).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MaskedOpSurvey {
    /// Executables scanned.
    pub total: usize,
    /// Executables containing at least one masked load/store.
    pub containing: usize,
}

impl MaskedOpSurvey {
    /// The paper's Ubuntu 20.04.3 default-install numbers.
    #[must_use]
    pub const fn paper_reference() -> Self {
        Self {
            total: 4104,
            containing: 6,
        }
    }

    /// Fraction of binaries a NOP-replacement mitigation could affect.
    #[must_use]
    pub fn affected_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.containing as f64 / self.total as f64
        }
    }

    /// The paper's conclusion: the mitigation has "little impact on the
    /// system" — operationalized as < 1 % of binaries affected.
    #[must_use]
    pub fn low_impact(&self) -> bool {
        self.affected_fraction() < 0.01
    }
}

impl fmt::Display for MaskedOpSurvey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} of {} executables contain masked ops ({:.3}%)",
            self.containing,
            self.total,
            self.affected_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flare_defeats_page_table_but_not_tlb() {
        let eval = evaluate_flare(CpuProfile::alder_lake_i5_12400f(), 3);
        assert!(eval.page_table_defeated, "{eval}");
        assert!(eval.page_table_mapped_slots >= 500);
        assert!(eval.tlb_correct, "{eval}");
    }

    #[test]
    fn fgkaslr_base_and_function_page_recovered() {
        let eval = evaluate_fgkaslr(CpuProfile::alder_lake_i5_12400f(), 4, "commit_creds");
        assert!(eval.base_correct, "{eval}");
        assert!(eval.function_page_correct, "{eval}");
    }

    #[test]
    fn fgkaslr_different_functions_land_on_different_pages() {
        let a = evaluate_fgkaslr(CpuProfile::alder_lake_i5_12400f(), 5, "commit_creds");
        let b = evaluate_fgkaslr(CpuProfile::alder_lake_i5_12400f(), 5, "prepare_kernel_cred");
        assert!(a.function_page_correct && b.function_page_correct);
        assert_ne!(a.function_page, b.function_page);
    }

    #[test]
    fn survey_reference_numbers() {
        let s = MaskedOpSurvey::paper_reference();
        assert_eq!(s.total, 4104);
        assert_eq!(s.containing, 6);
        assert!(s.low_impact());
        assert!(s.to_string().contains("6 of 4104"));
    }

    #[test]
    fn survey_edge_cases() {
        let empty = MaskedOpSurvey {
            total: 0,
            containing: 0,
        };
        assert_eq!(empty.affected_fraction(), 0.0);
        let heavy = MaskedOpSurvey {
            total: 100,
            containing: 50,
        };
        assert!(!heavy.low_impact());
    }
}
