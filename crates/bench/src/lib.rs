//! # avx-bench — the reproduction harness
//!
//! Shared machinery for the `repro` binary that regenerates every
//! number in `EXPERIMENTS.md`, the Criterion benches and the
//! paper-value tests.
//!
//! [`figures`] defines each paper artefact once; [`paper`] records the
//! published values it is compared against; [`Options`] is the `repro`
//! command line.

pub mod figures;
pub mod throughput;

use std::path::PathBuf;

use avx_channel::attacks::campaign::CampaignConfig;
use avx_channel::{
    CalibratorKind, ConfirmConfig, DefenseKind, RecalConfig, Sampling, ScheduleKind, SimProber,
    Threshold,
};
use avx_os::linux::{LinuxConfig, LinuxSystem, LinuxTruth};
use avx_uarch::{CpuProfile, NoiseModel, NoiseProfile, ObservablesVersion, VictimSchedule};

/// The paper's published numbers, used for side-by-side reporting.
pub mod paper {
    /// Fig. 2 masked-load means on the i7-1065G7 (cycles):
    /// USER-M, USER-U, KERNEL-M, KERNEL-U.
    pub const FIG2_MEANS: [f64; 4] = [13.0, 110.0, 93.0, 107.0];
    /// Fig. 2 `ASSISTS.ANY` per probe.
    pub const FIG2_ASSISTS: [u64; 4] = [0, 1, 1, 1];
    /// Fig. 2 completed walks per probe.
    pub const FIG2_WALKS: [u64; 4] = [0, 2, 0, 2];
    /// Fig. 3 masked-load means (r--, r-x, rw-, ---).
    pub const FIG3_LOAD: [f64; 4] = [16.0, 16.0, 16.0, 115.0];
    /// Fig. 3 masked-store means (r--, r-x, rw-, ---).
    pub const FIG3_STORE: [f64; 4] = [82.0, 82.0, 16.0, 96.0];
    /// §III-B P4 on the i9-9900: (TLB hit, TLB miss) cycles.
    pub const P4_HIT_MISS: (f64, f64) = (147.0, 381.0);
    /// §III-B P6 on the i7-1065G7: (masked load, masked store) cycles
    /// on a kernel-mapped page.
    pub const P6_LOAD_STORE: (f64, f64) = (92.0, 76.0);
    /// Fig. 4 bands on the i5-12400F: (mapped, unmapped) cycles.
    pub const FIG4_BANDS: (f64, f64) = (93.0, 107.0);
    /// Table I rows: (cpu, target, probing, total, accuracy %).
    pub const TABLE1: [(&str, &str, &str, &str, f64); 5] = [
        ("Intel Core i5-12400F", "Base", "67 µs", "0.28 ms", 99.60),
        (
            "Intel Core i5-12400F",
            "Modules",
            "2.43 ms",
            "2.62 ms",
            99.84,
        ),
        ("Intel Core i7-1065G7", "Base", "0.26 ms", "0.57 ms", 99.29),
        (
            "Intel Core i7-1065G7",
            "Modules",
            "8.42 ms",
            "8.64 ms",
            99.72,
        ),
        ("AMD Ryzen 5 5600X", "Base", "1.91 ms", "2.90 ms", 99.48),
    ];
    /// §IV-C: loaded modules / unique sizes / accuracy %.
    pub const MODULES: (usize, usize, f64) = (125, 19, 99.72);
    /// §IV-D trampoline offset observed on Ubuntu.
    pub const KPTI_TRAMPOLINE: u64 = 0xc0_0000;
    /// §IV-F runtimes: (masked-load scan, masked-store scan) seconds.
    pub const SGX_SCAN_SECONDS: (f64, f64) = (51.0, 44.0);
    /// §IV-G: Windows region scan ≈ 60 ms; KVAS scan 8 s at 100 %.
    pub const WINDOWS_REGION_MS: f64 = 60.0;
    /// §IV-H cloud runtimes (seconds): EC2 base, EC2 modules, GCE base,
    /// GCE modules, Azure 18-bit scan.
    pub const CLOUD_SECONDS: [f64; 5] = [0.03e-3, 1.14e-3, 0.08e-3, 2.7e-3, 2.06];
    /// §V-B survey: 6 of 4104 executables contain masked ops.
    pub const SURVEY: (usize, usize) = (6, 4104);
}

/// Builds a Linux machine + prober on `profile`, with realistic noise.
#[must_use]
pub fn linux_prober(profile: CpuProfile, seed: u64) -> (SimProber, LinuxTruth) {
    linux_prober_with(LinuxConfig::seeded(seed), profile, seed)
}

/// Builds a Linux machine + prober with custom config.
#[must_use]
pub fn linux_prober_with(
    config: LinuxConfig,
    profile: CpuProfile,
    seed: u64,
) -> (SimProber, LinuxTruth) {
    let sys = LinuxSystem::build(config);
    let (machine, truth) = sys.into_machine(profile, seed.wrapping_add(0x9e37_79b9));
    (SimProber::new(machine), truth)
}

/// Same, with timing noise disabled (deterministic mean extraction).
#[must_use]
pub fn quiet_linux_prober(profile: CpuProfile, seed: u64) -> (SimProber, LinuxTruth) {
    let sys = LinuxSystem::build(LinuxConfig::seeded(seed));
    let (mut machine, truth) = sys.into_machine(profile, seed.wrapping_add(0x9e37_79b9));
    machine.set_noise(NoiseModel::none());
    (SimProber::new(machine), truth)
}

/// Calibrates the §IV-B threshold on a fresh prober.
pub fn calibrate(p: &mut SimProber, truth: &LinuxTruth) -> Threshold {
    Threshold::calibrate(p, truth.user.calibration, 16)
}

/// Gaussian-jitter-only noise for the §III characterization figures:
/// the paper measures those distributions on a quiescent machine where
/// interrupt spikes are rare enough to be filtered, hence σ ≈ 1 cycle.
/// The end-to-end attacks keep the full noise model.
#[must_use]
pub fn sigma_only_noise(profile: &CpuProfile) -> NoiseModel {
    NoiseModel::new(profile.timing.noise_sigma, 0.0, (0.0, 0.0))
}

/// Every `repro` setting, parsed once from the command line and the
/// `AVX_*` environment. A flag beats its environment variable.
#[derive(Clone, Debug)]
pub struct Options {
    /// The campaign sections' config. `trials` is `AVX_TRIALS` (default
    /// 60; the paper uses 10000). `--noise` / `AVX_NOISE` (default
    /// quiet), `--adaptive` / `AVX_ADAPTIVE` or `--fixed-budget`
    /// (default the paper's fixed schedule), `--calibrator` /
    /// `AVX_CALIBRATOR` (default legacy), `--recalibrate` /
    /// `AVX_RECALIBRATE`, `--confirm` / `AVX_CONFIRM`, `--observables` /
    /// `AVX_OBSERVABLES` (default v1), `--defense` / `AVX_DEFENSE` and
    /// `--schedule` / `AVX_SCHEDULE` (default none) fill the rest.
    pub campaign: CampaignConfig,
    /// `--schedule <trace-file>`: the file's path and text, already
    /// checked against the trace grammar of `docs/VICTIMS.md`. A trace
    /// leaves the campaign's preset at none.
    pub schedule_trace: Option<(String, String)>,
    /// `--fleet N` / `AVX_FLEET`: run the streaming population sweep of
    /// [`avx_channel::fleet`] instead of the figure sections.
    pub fleet: Option<u64>,
    /// `--fleet-shards K` / `AVX_FLEET_SHARDS`: K contiguous shards
    /// instead of the default ~1024-victim shard size.
    pub fleet_shards: Option<u64>,
    /// `--fleet-checkpoint <path>` / `AVX_FLEET_CHECKPOINT`:
    /// shard-granular checkpoint/resume.
    pub fleet_checkpoint: Option<PathBuf>,
    /// `--fleet-max-shards M` / `AVX_FLEET_MAX_SHARDS`: run at most M
    /// pending shards, then return (the kill-and-resume lever).
    pub fleet_max_shards: Option<u64>,
    /// `--bench-json <path>`: write the throughput record there instead
    /// of reproducing the paper.
    pub bench_json: Option<PathBuf>,
}

/// Flags that take a value (`--name <value>` or `--name=<value>`).
const VALUE_FLAGS: [&str; 10] = [
    "noise",
    "calibrator",
    "observables",
    "defense",
    "schedule",
    "fleet",
    "fleet-shards",
    "fleet-checkpoint",
    "fleet-max-shards",
    "bench-json",
];

/// Bare switches.
const SWITCHES: [&str; 4] = ["adaptive", "fixed-budget", "recalibrate", "confirm"];

impl Options {
    /// Parses the process's arguments and environment.
    ///
    /// # Errors
    /// As [`Options::parse`].
    pub fn from_process() -> Result<Self, String> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args, |var| std::env::var(var).ok())
    }

    /// Parses `args` (without the program name), reading `AVX_*`
    /// variables through `env`.
    ///
    /// # Errors
    /// A message naming the offending flag or variable when an argument
    /// is not a known flag, a flag lacks its value, or a value does not
    /// parse.
    pub fn parse(args: &[String], env: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        check_flags(args)?;
        // Each value travels with the name it came from.
        let from_env = |var: &str| env(var).map(|v| (var.to_string(), v));
        let setting = |flag: &str, var: &str| {
            arg_value(args, flag)
                .map(|v| (format!("--{flag}"), v))
                .or_else(|| from_env(var))
        };
        let flag_set = |flag: &str| args.iter().any(|a| a.strip_prefix("--") == Some(flag));
        let env_on = |var: &str| {
            env(var).is_some_and(|v| !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false")))
        };
        let number = |s: &str| s.parse::<u64>().ok();

        let sampling = if flag_set("adaptive") || env_on("AVX_ADAPTIVE") {
            Sampling::adaptive()
        } else if flag_set("fixed-budget") {
            Sampling::fixed_budget()
        } else {
            Sampling::Fixed
        };
        let (schedule, schedule_trace) = match setting("schedule", "AVX_SCHEDULE") {
            None => (ScheduleKind::None, None),
            Some((source, value)) => match ScheduleKind::parse(&value) {
                Some(kind) => (kind, None),
                None => (ScheduleKind::None, Some(read_trace(&source, value)?)),
            },
        };
        let campaign = CampaignConfig {
            trials: parsed(from_env("AVX_TRIALS"), number, "a trial count")?.unwrap_or(60),
            seed0: 0,
            noise: parsed(
                setting("noise", "AVX_NOISE"),
                NoiseProfile::parse,
                "quiet|smt|laptop|cloud|drift",
            )?
            .unwrap_or(NoiseProfile::Quiet),
            sampling,
            calibrator: parsed(
                setting("calibrator", "AVX_CALIBRATOR"),
                CalibratorKind::parse,
                "legacy|trimmed|bimodal|noise-aware",
            )?
            .unwrap_or(CalibratorKind::Legacy),
            recal: (flag_set("recalibrate") || env_on("AVX_RECALIBRATE"))
                .then(RecalConfig::default),
            confirm: (flag_set("confirm") || env_on("AVX_CONFIRM")).then(ConfirmConfig::default),
            observables: parsed(
                setting("observables", "AVX_OBSERVABLES"),
                ObservablesVersion::parse,
                "v1|v2",
            )?
            .unwrap_or(ObservablesVersion::V1),
            defense: parsed(
                setting("defense", "AVX_DEFENSE"),
                DefenseKind::parse,
                "none|masked|rerandomizing",
            )?
            .unwrap_or(DefenseKind::None),
            schedule,
        };
        Ok(Self {
            campaign,
            schedule_trace,
            fleet: parsed(setting("fleet", "AVX_FLEET"), number, "a victim count")?,
            fleet_shards: parsed(
                setting("fleet-shards", "AVX_FLEET_SHARDS"),
                number,
                "a shard count",
            )?,
            fleet_checkpoint: setting("fleet-checkpoint", "AVX_FLEET_CHECKPOINT")
                .map(|(_, v)| PathBuf::from(v)),
            fleet_max_shards: parsed(
                setting("fleet-max-shards", "AVX_FLEET_MAX_SHARDS"),
                number,
                "a shard count",
            )?,
            bench_json: arg_value(args, "bench-json").map(PathBuf::from),
        })
    }
}

/// Rejects anything in `args` that is not a known flag, and value
/// flags without a value.
fn check_flags(args: &[String]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let Some(flag) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument {arg:?}"));
        };
        let (name, inline) = match flag.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (flag, None),
        };
        if VALUE_FLAGS.contains(&name) {
            if inline.is_none() && rest.next().is_none() {
                return Err(format!("--{name} needs a value"));
            }
        } else if SWITCHES.contains(&name) {
            if inline.is_some() {
                return Err(format!("--{name} takes no value"));
            }
        } else {
            return Err(format!("unknown flag --{name}"));
        }
    }
    Ok(())
}

/// Reads the trace file a non-preset `--schedule` value names and
/// checks it parses, naming `source` on failure.
fn read_trace(source: &str, path: String) -> Result<(String, String), String> {
    let text = std::fs::read_to_string(&path).map_err(|err| {
        format!(
            "{source}: cannot parse {path:?} (expected \
             none|dvfs-square|cotenant-burst|module-churn or a trace file: {err})"
        )
    })?;
    VictimSchedule::from_trace(&text, 0)
        .map_err(|err| format!("{source}: cannot parse trace {path:?}: {err}"))?;
    Ok((path, text))
}

/// Parses a `(source, value)` setting, naming the source on failure.
fn parsed<T>(
    setting: Option<(String, String)>,
    parse: impl Fn(&str) -> Option<T>,
    expected: &str,
) -> Result<Option<T>, String> {
    setting
        .map(|(source, value)| {
            parse(&value)
                .ok_or_else(|| format!("{source}: cannot parse {value:?} (expected {expected})"))
        })
        .transpose()
}

/// Value of `--<name> <value>` or `--<name>=<value>` in `args`.
/// Exact-name match: `--fleet` never swallows `--fleet-shards`.
fn arg_value(args: &[String], name: &str) -> Option<String> {
    let flag = format!("--{name}");
    let prefixed = format!("--{name}=");
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if *arg == flag {
            return args.next().cloned();
        }
        if let Some(value) = arg.strip_prefix(&prefixed) {
            return Some(value.to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use avx_channel::KernelBaseFinder;

    fn parse(args: &str, env: &[(&str, &str)]) -> Result<Options, String> {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        Options::parse(&args, |var| {
            env.iter()
                .find(|(name, _)| *name == var)
                .map(|(_, value)| value.to_string())
        })
    }

    #[test]
    fn helpers_compose_into_a_working_attack() {
        let (mut p, truth) = quiet_linux_prober(CpuProfile::alder_lake_i5_12400f(), 3);
        let th = calibrate(&mut p, &truth);
        let scan = KernelBaseFinder::new(th).scan(&mut p);
        assert_eq!(scan.base, Some(truth.kernel_base));
    }

    #[test]
    fn no_input_is_the_paper_setup() {
        let o = parse("", &[]).unwrap();
        let c = o.campaign;
        assert_eq!(c.trials, 60);
        assert_eq!(c.noise, NoiseProfile::Quiet);
        assert_eq!(c.sampling, Sampling::Fixed);
        assert_eq!(c.calibrator, CalibratorKind::Legacy);
        assert_eq!(c.recal, None);
        assert_eq!(c.confirm, None);
        assert_eq!(c.observables, ObservablesVersion::V1);
        assert_eq!(c.defense, DefenseKind::None);
        assert_eq!(c.schedule, ScheduleKind::None);
        assert_eq!(o.schedule_trace, None);
        assert_eq!(
            (o.fleet, o.fleet_shards, o.fleet_max_shards),
            (None, None, None)
        );
        assert_eq!(o.fleet_checkpoint, None);
        assert_eq!(o.bench_json, None);
    }

    #[test]
    fn every_flag_parses_in_both_forms() {
        let o = parse(
            "--noise smt --calibrator=noise-aware --observables v2 --defense=masked \
             --schedule dvfs-square --adaptive --recalibrate --confirm --fleet 2000 \
             --fleet-shards=4 --fleet-checkpoint ck.json --fleet-max-shards 1 \
             --bench-json=out.json",
            &[],
        )
        .unwrap();
        let c = o.campaign;
        assert_eq!(c.noise, NoiseProfile::SmtSibling);
        assert_eq!(c.calibrator, CalibratorKind::NoiseAware);
        assert_eq!(c.observables, ObservablesVersion::V2);
        assert_eq!(c.defense, DefenseKind::MaskedTranslation);
        assert_eq!(c.schedule, ScheduleKind::DvfsSquare);
        assert_eq!(c.sampling, Sampling::adaptive());
        assert_eq!(c.recal, Some(RecalConfig::default()));
        assert_eq!(c.confirm, Some(ConfirmConfig::default()));
        assert_eq!(
            (o.fleet, o.fleet_shards, o.fleet_max_shards),
            (Some(2000), Some(4), Some(1))
        );
        assert_eq!(o.fleet_checkpoint, Some(PathBuf::from("ck.json")));
        assert_eq!(o.bench_json, Some(PathBuf::from("out.json")));
        let o = parse("--fixed-budget", &[]).unwrap();
        assert_eq!(o.campaign.sampling, Sampling::fixed_budget());
    }

    #[test]
    fn env_vars_stand_in_for_flags_and_flags_win() {
        let env = [
            ("AVX_TRIALS", "12"),
            ("AVX_NOISE", "laptop"),
            ("AVX_CALIBRATOR", "noise-aware"),
            ("AVX_RECALIBRATE", "1"),
            ("AVX_CONFIRM", "1"),
            ("AVX_OBSERVABLES", "v2"),
            ("AVX_DEFENSE", "rerandomizing"),
            ("AVX_SCHEDULE", "cotenant-burst"),
            ("AVX_ADAPTIVE", "1"),
            ("AVX_FLEET", "100000"),
            ("AVX_FLEET_SHARDS", "8"),
            ("AVX_FLEET_CHECKPOINT", "fleet.ckpt"),
            ("AVX_FLEET_MAX_SHARDS", "3"),
        ];
        let o = parse("", &env).unwrap();
        let c = o.campaign;
        assert_eq!(c.trials, 12);
        assert_eq!(c.noise, NoiseProfile::LaptopDvfs);
        assert_eq!(c.calibrator, CalibratorKind::NoiseAware);
        assert_eq!(c.recal, Some(RecalConfig::default()));
        assert_eq!(c.confirm, Some(ConfirmConfig::default()));
        assert_eq!(c.observables, ObservablesVersion::V2);
        assert_eq!(c.defense, DefenseKind::Rerandomizing);
        assert_eq!(c.schedule, ScheduleKind::CoTenantBurst);
        assert_eq!(c.sampling, Sampling::adaptive());
        assert_eq!(
            (o.fleet, o.fleet_shards, o.fleet_max_shards),
            (Some(100_000), Some(8), Some(3))
        );
        assert_eq!(o.fleet_checkpoint, Some(PathBuf::from("fleet.ckpt")));
        assert_eq!(o.schedule_trace, None);
        let o = parse("--noise cloud --schedule dvfs-square", &env).unwrap();
        assert_eq!(o.campaign.noise, NoiseProfile::NoisyNeighbor);
        assert_eq!(o.campaign.schedule, ScheduleKind::DvfsSquare);
        // Explicitly-off values of a switch variable stay off.
        for off in ["0", "", "false", "FALSE"] {
            let env = [
                ("AVX_CONFIRM", off),
                ("AVX_RECALIBRATE", off),
                ("AVX_ADAPTIVE", off),
            ];
            let c = parse("", &env).unwrap().campaign;
            assert_eq!((c.confirm, c.recal), (None, None), "{off:?}");
            assert_eq!(c.sampling, Sampling::Fixed, "{off:?}");
        }
    }

    #[test]
    fn a_trace_file_schedule_is_read_and_checked() {
        let good = std::env::temp_dir().join(format!("avx-bench-{}.trace", std::process::id()));
        let bad = good.with_extension("broken");
        std::fs::write(&good, "ops-per-tick 32\nevery 4 8 noise laptop\n").unwrap();
        std::fs::write(&bad, "every 4 8 noise nowhere\n").unwrap();
        let (good, bad) = (good.to_str().unwrap(), bad.to_str().unwrap());
        let o = parse("", &[("AVX_SCHEDULE", good)]).unwrap();
        // A trace-file schedule leaves the preset at none.
        assert_eq!(o.campaign.schedule, ScheduleKind::None);
        let (path, text) = o.schedule_trace.unwrap();
        assert_eq!(path, good);
        assert!(text.starts_with("ops-per-tick 32"));
        let err = parse(&format!("--schedule {bad}"), &[]).unwrap_err();
        assert!(err.contains("--schedule"), "{err}");
        assert!(err.contains("trace line 1"), "{err}");
        for path in [good, bad] {
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn unknown_flags_are_refused_by_name() {
        for (args, named) in [
            ("--bogus-flag", "--bogus-flag"),
            ("--noise smt --fleets 3", "--fleets"),
            ("--adaptive=1", "--adaptive"),
            ("smt", "\"smt\""),
            ("--noise", "--noise"),
        ] {
            let err = parse(args, &[]).unwrap_err();
            assert!(err.contains(named), "{args:?}: {err}");
        }
    }

    #[test]
    fn bad_values_are_refused_by_name() {
        for (args, env, named) in [
            ("--noise bogus", &[][..], "--noise"),
            ("--defense bogus", &[][..], "--defense"),
            ("--fleet abc", &[][..], "--fleet"),
            ("--calibrator=bogus", &[][..], "--calibrator"),
            ("--observables v9", &[][..], "--observables"),
            ("--fleet-shards -1", &[][..], "--fleet-shards"),
            ("--schedule module-chrun", &[][..], "--schedule"),
            ("", &[("AVX_SCHEDULE", "dvfs-sqaure")][..], "AVX_SCHEDULE"),
            ("", &[("AVX_NOISE", "bogus")][..], "AVX_NOISE"),
            ("", &[("AVX_TRIALS", "lots")][..], "AVX_TRIALS"),
            (
                "",
                &[("AVX_FLEET_MAX_SHARDS", "x")][..],
                "AVX_FLEET_MAX_SHARDS",
            ),
        ] {
            let err = parse(args, env).unwrap_err();
            assert!(err.contains(named), "{args:?} {env:?}: {err}");
            assert!(err.contains("cannot parse"), "{err}");
        }
    }
}
