//! The simulator benchmark: one workload per invocation, measured in
//! closed-loop passes, checked for correct outputs, reported as one
//! JSON line. See `perfbench/BENCH.md` for the workloads, the metrics and
//! what each layer metric should move.
//!
//! ```text
//! perfbench --workload grid|fleet|churn --seed N --seconds S --trace 0|1
//!           [--scratch DIR] [--trace-out FILE]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` splits the
//! measuring time between untraced and traced passes and prints the
//! per-layer metrics.

mod host;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use avx_channel::attacks::campaign::Scenario;

use trace::{quantile, tail_percentile, Spans};
use workloads::{Counters, Pass, Traced, Workload};

/// Fixture builds timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// Fewest measured passes of each kind, whatever `--seconds` says.
const MIN_PASSES: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
    trace_out: Option<PathBuf>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut scratch = PathBuf::from(".bench_build/perfbench");
        let mut trace_out = None;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace: {value:?} is not 0 or 1")),
                    })
                }
                "--scratch" => scratch = PathBuf::from(&value),
                "--trace-out" => trace_out = Some(PathBuf::from(&value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(1..=120).contains(&seconds) {
            return Err(format!("--seconds {seconds} is outside 1..=120"));
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds as f64,
            trace: trace.ok_or("--trace is required")?,
            scratch,
            trace_out,
        })
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Pass bookkeeping: trials attempted and failed, and whether every
/// output check held.
struct Ledger {
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Ledger {
    /// Records a pass of the variant whose reference pass is `reference`.
    /// A pass fails when it panicked, returned an error, or produced
    /// outputs that differ from the reference; all its trials then count
    /// as failed.
    fn record<T>(
        &mut self,
        what: &str,
        reference: &Pass,
        outcome: std::thread::Result<Result<T, String>>,
        pass: impl Fn(&T) -> &Pass,
    ) -> Option<T> {
        self.attempted += reference.trials;
        let error = match outcome {
            Err(_) => "panicked".to_string(),
            Ok(Err(e)) => e,
            Ok(Ok(value)) if pass(&value).digest == reference.digest => return Some(value),
            Ok(Ok(value)) => format!(
                "digest {:016x} differs from the reference pass {:016x}",
                pass(&value).digest,
                reference.digest
            ),
        };
        self.fail(what, reference.trials, &error);
        None
    }

    fn fail(&mut self, what: &str, trials: u64, error: &str) {
        eprintln!("perfbench: {what} pass failed: {error}");
        self.failed += trials;
        self.correct = false;
    }
}

/// Runs passes round-robin over `variants` until `budget` seconds have
/// passed and at least `MIN_PASSES` ran, ending on a whole cycle so that
/// every variant is measured equally often. Returns the passes that
/// succeeded, by variant.
fn cycle<T>(variants: usize, budget: f64, mut pass: impl FnMut(usize) -> Option<T>) -> Vec<Vec<T>> {
    let mut by_variant: Vec<Vec<T>> = (0..variants).map(|_| Vec::new()).collect();
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_PASSES || i % variants != 0 || start.elapsed().as_secs_f64() < budget {
        if let Some(p) = pass(i % variants) {
            by_variant[i % variants].push(p);
        }
        i += 1;
    }
    by_variant
}

/// Work per host second over one cycle of variants: Σ work of each
/// variant's pass ÷ Σ of each variant's median pass wall time. With one
/// variant this is the median pass rate.
fn cycle_rate<'a>(
    by_variant: impl Iterator<Item = Vec<&'a Pass>>,
    work: impl Fn(&Pass) -> u64,
) -> f64 {
    let (mut done, mut wall) = (0.0, 0.0);
    for passes in by_variant.filter(|p| !p.is_empty()) {
        done += work(passes[0]) as f64;
        wall += median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    }
    done / wall
}

fn run() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1))?;
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("create {}: {e}", args.scratch.display()))?;
    let variants = workloads::build(&args.workload, args.seed, args.scratch.clone())?;
    let name = args.workload.as_str();

    // Set-up: the fixture build of every variant, timed as its own call.
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let start = Instant::now();
            variants.iter().for_each(|v| v.setup());
            start.elapsed().as_secs_f64()
        })
        .collect();

    // Warm-up: one unmeasured pass per variant, which is also the
    // reference every measured pass of that variant must reproduce.
    let references = variants
        .iter()
        .map(|v| v.run())
        .collect::<Result<Vec<Pass>, String>>()?;
    let mut output_check = Ok(());
    for (v, reference) in variants.iter().zip(&references) {
        eprintln!(
            "perfbench: {name} seed {}: reference pass {} trials, {} probes, accuracy {:.2} %, digest {:016x}",
            args.seed, reference.trials, reference.probes, reference.accuracy_pct, reference.digest
        );
        let check = v.check(reference).and_then(|()| match v.pinned_digest() {
            Some(pinned) if pinned != reference.digest => Err(format!(
                "digest {:016x} differs from the pinned {pinned:016x}",
                reference.digest
            )),
            _ => Ok(()),
        });
        output_check = output_check.and(check);
    }
    let mut ledger = Ledger {
        attempted: 0,
        failed: 0,
        correct: true,
    };

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let k = variants.len();
    if args.trace {
        // The honesty pass: a check, not a measurement.
        let honesty = catch_unwind(AssertUnwindSafe(|| variants[0].run_traced(true)));
        let mut counts: Vec<Option<Counters>> = vec![None; k];
        counts[0] = ledger
            .record("honesty", &references[0], honesty, |t| &t.pass)
            .map(|t| t.counters);
        // Untraced and traced passes alternate, so that a drift in host
        // speed cannot pass for tracing overhead.
        let pairs = cycle(k, args.seconds, |v| {
            let untraced = untraced_pass(variants[v].as_ref(), v, &references[v], &mut ledger);
            let traced = traced_pass(
                variants[v].as_ref(),
                &references[v],
                &mut counts[v],
                &mut ledger,
            );
            Some((untraced, traced))
        });
        let untraced: Vec<Vec<Pass>> = pairs
            .iter()
            .map(|ps| ps.iter().filter_map(|(u, _)| *u).collect())
            .collect();
        let mut traced: Vec<Vec<Traced>> = pairs
            .into_iter()
            .map(|ps| ps.into_iter().filter_map(|(_, t)| t).collect())
            .collect();
        if traced.iter().all(Vec::is_empty) {
            return Err("no traced pass completed".into());
        }
        let mut spans = Spans::new();
        for t in traced.iter_mut().flatten() {
            spans.append(std::mem::take(&mut t.spans));
        }
        if let Some(path) = &args.trace_out {
            spans
                .write_jsonl(path)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        per_layer(&mut metrics, &spans, &traced, &untraced);
    } else {
        let untraced = cycle(k, args.seconds, |v| {
            untraced_pass(variants[v].as_ref(), v, &references[v], &mut ledger)
        });
        let passes = || untraced.iter().map(|ps| ps.iter().collect::<Vec<_>>());
        let mean =
            |f: fn(&Pass) -> f64| references.iter().map(f).sum::<f64>() / references.len() as f64;
        metrics.push(("setup_s".into(), median(&setups), "s"));
        metrics.push((
            "trials_per_s".into(),
            cycle_rate(passes(), |p| p.trials),
            "1/s",
        ));
        metrics.push((
            "probes_per_s".into(),
            cycle_rate(passes(), |p| p.probes),
            "1/s",
        ));
        metrics.push(("peak_rss_mb".into(), host::peak_rss_mb()?, "MiB"));
        metrics.push(("accuracy_pct".into(), mean(|p| p.accuracy_pct), "%"));
        metrics.push((
            "probes_per_addr".into(),
            mean(|p| p.probes_per_addr),
            "count",
        ));
    }

    if let Err(e) = output_check {
        eprintln!("perfbench: {name} output check failed: {e}");
        ledger.failed = ledger.attempted;
        ledger.correct = false;
    }
    print_result(&ledger, &metrics);
    Ok(())
}

/// One untraced pass of variant `v`, checked against its reference.
fn untraced_pass(
    workload: &dyn Workload,
    v: usize,
    reference: &Pass,
    ledger: &mut Ledger,
) -> Option<Pass> {
    let outcome = catch_unwind(AssertUnwindSafe(|| workload.run()));
    let pass = ledger.record("untraced", reference, outcome, |p| p)?;
    eprintln!(
        "perfbench: variant {v}: {:.4} s, {:.1} trials/s",
        pass.wall_s,
        pass.trials as f64 / pass.wall_s
    );
    Some(pass)
}

/// One traced pass, checked against its variant's reference outputs and
/// against `counts`, the work counts of the variant's first traced pass.
fn traced_pass(
    workload: &dyn Workload,
    reference: &Pass,
    counts: &mut Option<Counters>,
    ledger: &mut Ledger,
) -> Option<Traced> {
    let outcome = catch_unwind(AssertUnwindSafe(|| workload.run_traced(false)));
    let traced = ledger.record("traced", reference, outcome, |t| &t.pass)?;
    if *counts.get_or_insert(traced.counters) != traced.counters {
        ledger.fail(
            "traced",
            reference.trials,
            "work counts differ between passes",
        );
        return None;
    }
    Some(traced)
}

/// The per-layer metrics of the traced passes. Busy times are per cycle
/// of variants (Σ self time ÷ cycles run); work counts are per cycle and
/// deterministic; latencies are quantiles over every span of every
/// traced pass.
fn per_layer(
    metrics: &mut Vec<(String, f64, &'static str)>,
    spans: &Spans,
    traced: &[Vec<Traced>],
    untraced: &[Vec<Pass>],
) {
    let n = traced.iter().map(Vec::len).sum::<usize>() as f64 / traced.len() as f64;
    let mut trial_ns = [0u64; 8];
    let mut c = Counters::default();
    for passes in traced {
        if let Some(first) = passes.first() {
            c.add(&first.counters);
        }
        for t in passes {
            for (sum, ns) in trial_ns.iter_mut().zip(t.trial_ns) {
                *sum += ns;
            }
        }
    }
    let layers = spans.layers();
    let empty = trace::Layer::default();
    let layer = |name: &str| layers.get(name).unwrap_or(&empty);
    let us = |ns: u64| ns as f64 * 1e-3;
    let mut push = |name: &str, value: f64, unit: &'static str| {
        metrics.push((name.to_string(), value, unit));
    };

    push(
        "os.build.count",
        layer("os.build").count() as f64 / n,
        "count",
    );
    push("os.build.busy_s", layer("os.build").busy_s() / n, "s");
    push(
        "os.build.p50_us",
        us(quantile(&layer("os.build").self_ns, 0.5)),
        "us",
    );

    push(
        "uarch.install.busy_s",
        layer("uarch.install").busy_s() / n,
        "s",
    );
    push(
        "uarch.install.p50_us",
        us(quantile(&layer("uarch.install").self_ns, 0.5)),
        "us",
    );
    push("uarch.reslides", c.reslides as f64, "count");

    push("mmu.tlb_hit_l1", c.tlb_hit_l1 as f64, "count");
    push("mmu.tlb_hit_l2", c.tlb_hit_l2 as f64, "count");
    push("mmu.tlb_miss", c.tlb_miss as f64, "count");
    push("mmu.walks", c.walks as f64, "count");
    push("mmu.shape_writes", c.shape_writes as f64, "count");

    let calibrate = layer("core.calibrate");
    push("core.calibrate.busy_s", calibrate.busy_s() / n, "s");
    push(
        "core.calibrate.p50_us",
        us(quantile(&calibrate.self_ns, 0.5)),
        "us",
    );
    push("core.calibrate.probes", c.calibrate_probes as f64, "count");

    let scan = layer("core.scan");
    push("core.scan.busy_s", scan.busy_s() / n, "s");
    let scan_ns: u64 = scan.self_ns.iter().sum();
    push(
        "core.scan.ns_per_probe",
        scan_ns as f64 / (c.scan_probes as f64 * n).max(1.0),
        "ns",
    );
    push("core.scan.probes", c.scan_probes as f64, "count");
    push("core.scan.refits", c.refits as f64, "count");

    let trial = layer("core.trial");
    let tail = tail_percentile(trial.full_ns.len());
    push("core.trial.p50_us", us(quantile(&trial.full_ns, 0.5)), "us");
    push(
        "core.trial.p99_us",
        us(quantile(&trial.full_ns, f64::from(tail) / 100.0)),
        "us",
    );
    push("core.trial.tail_pct", f64::from(tail), "%");
    push("core.trial.count", trial.count() as f64, "count");
    for (scenario, ns) in Scenario::ALL.iter().zip(trial_ns) {
        push(
            &format!("core.trial.{}.busy_s", scenario_key(*scenario)),
            ns as f64 * 1e-9 / n,
            "s",
        );
    }

    let (cpu, wall) = untraced
        .iter()
        .flatten()
        .fold((0.0, 0.0), |(c, w), p| (c + p.cpu_s, w + p.wall_s));
    push(
        "core.campaign.cpu_util",
        cpu / (wall * host::threads() as f64),
        "ratio",
    );

    let shard = layer("core.fleet.shard");
    push(
        "core.fleet.shard.p50_ms",
        us(quantile(&shard.full_ns, 0.5)) * 1e-3,
        "ms",
    );
    push(
        "core.fleet.shard.max_ms",
        us(shard.full_ns.iter().copied().max().unwrap_or(0)) * 1e-3,
        "ms",
    );
    push(
        "core.fleet.merge.busy_s",
        layer("core.fleet.merge").busy_s() / n,
        "s",
    );
    push(
        "core.fleet.checkpoint.busy_s",
        layer("core.fleet.checkpoint").busy_s() / n,
        "s",
    );
    push("core.fleet.checkpoint.count", c.checkpoints as f64, "count");

    let untraced_trials_per_s =
        cycle_rate(untraced.iter().map(|ps| ps.iter().collect()), |p| p.trials);
    let traced_trials_per_s = cycle_rate(
        traced.iter().map(|ts| ts.iter().map(|t| &t.pass).collect()),
        |p| p.trials,
    );
    push(
        "trace.overhead_pct",
        100.0 * (untraced_trials_per_s / traced_trials_per_s - 1.0),
        "%",
    );
}

/// Metric-name key of a scenario.
fn scenario_key(scenario: Scenario) -> &'static str {
    match scenario {
        Scenario::KernelBase => "kernel_base",
        Scenario::AmdKernelBase => "amd_kernel_base",
        Scenario::Modules => "modules",
        Scenario::Kpti => "kpti",
        Scenario::Behaviour => "behaviour",
        Scenario::UserSpace => "user_space",
        Scenario::WindowsKaslr => "windows",
        Scenario::Cloud => "cloud",
    }
}

fn print_result(ledger: &Ledger, metrics: &[(String, f64, &str)]) {
    let mut by_name = BTreeMap::new();
    for (name, value, unit) in metrics {
        let value = if value.is_finite() { *value } else { 0.0 };
        by_name.insert(
            name.as_str(),
            format!("{{\"value\": {value:?}, \"unit\": \"{unit}\"}}"),
        );
    }
    let body: Vec<String> = by_name
        .iter()
        .map(|(name, v)| format!("\"{name}\": {v}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.correct,
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    );
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
