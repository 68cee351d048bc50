//! Cost tapes: simulate an open-loop probe sequence once, measure it
//! under many noise streams.
//!
//! A probe's reading is its deterministic translation cost plus one
//! noise draw ([`avx_uarch::NoiseStream`]). When the attacker is
//! open-loop — the op sequence does not depend on the readings — and
//! the victim is undefended and unscheduled, the costs depend only on
//! the layout, the CPU profile and the op sequence. Victims that share
//! a layout then differ only in their noise streams, so the translation
//! work can be done once:
//!
//! * [`TapeRecorder`] runs the attack body once against a snapshot
//!   machine through [`avx_uarch::Machine::cost_batch_into`] and keeps
//!   each probe's pre-noise cost plus a digest of the `(kind, addr)`
//!   stream — a [`CostTape`].
//! * [`TapeProber`] replays the tape through one victim's own noise
//!   stream, with [`SimProber`]'s exact probe and overhead accounting.
//!   It refuses an op stream the tape did not record: a probe past the
//!   end or an eviction panics at once, any other divergence panics at
//!   [`TapeProber::finish`] on the digest.
//!
//! Replaying a victim is bit-identical to simulating it (ARCHITECTURE.md
//! invariant 15); the fleet engine relies on this.
//!
//! ```
//! use avx_channel::{Prober, ProbeStrategy, SimProber, TapeProber, TapeRecorder};
//! use avx_os::linux::{LinuxConfig, LinuxSystem};
//! use avx_uarch::{CpuProfile, OpKind};
//!
//! let sys = LinuxSystem::build(LinuxConfig::seeded(3));
//! let profile = CpuProfile::alder_lake_i5_12400f();
//! let base = sys.truth().kernel_base;
//! let attack = |p: &mut dyn Prober| ProbeStrategy::SecondOfTwo.measure(p, OpKind::Load, base);
//!
//! let (machine, _) = sys.machine(profile.clone(), 0);
//! let mut recorder = TapeRecorder::new(machine);
//! attack(&mut recorder);
//! let tape = recorder.into_tape();
//!
//! let (victim, _) = sys.machine(profile.clone(), 42);
//! let mut replay = TapeProber::new(&tape, victim.noise_stream().clone(), &profile);
//! let mut simulated = SimProber::new(victim);
//! assert_eq!(attack(&mut replay), attack(&mut simulated));
//! assert_eq!(replay.total_cycles(), simulated.total_cycles());
//! replay.finish();
//! ```

use avx_mmu::VirtAddr;
use avx_uarch::{quantize_cycles, CpuProfile, Machine, NoiseStream, OpKind};

use crate::prober::Prober;
#[cfg(doc)]
use crate::prober::SimProber;

/// Running digest of a `(kind, addr)` op stream. Every step is a
/// bijection of the state, so two streams that differ in one op differ
/// in their digest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct OpDigest(u64);

impl OpDigest {
    fn extend(&mut self, kind: OpKind, addrs: &[VirtAddr]) {
        let tag = match kind {
            OpKind::Load => 0x4c,
            OpKind::Store => 0x53,
        };
        for &addr in addrs {
            self.0 = ((self.0 ^ addr.as_u64()).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag)
                .rotate_left(29);
        }
    }
}

/// The recorded open-loop probe sequence of one layout: each probe's
/// pre-noise cost, in issue order, and the digest of the `(kind, addr)`
/// stream that produced them. 8 bytes per probe.
#[derive(Debug)]
pub struct CostTape {
    costs: Vec<f64>,
    digest: OpDigest,
}

/// A [`Prober`] that records a [`CostTape`]: each probe runs the
/// machine's translation without noise
/// ([`Machine::cost_batch_into`]) and reads as its quantized cost, the
/// reading of a noise-free victim. Only open-loop attack bodies may be
/// recorded — the readings a replay produces differ from these.
#[derive(Debug)]
pub struct TapeRecorder {
    machine: Machine,
    costs: Vec<f64>,
    digest: OpDigest,
    tsc: u64,
    overhead: u64,
}

impl TapeRecorder {
    /// Records against `machine`, whose noise is never drawn.
    #[must_use]
    pub fn new(machine: Machine) -> Self {
        Self {
            machine,
            costs: Vec::new(),
            digest: OpDigest::default(),
            tsc: 0,
            overhead: 0,
        }
    }

    /// The recorded tape, copied into an allocation of exactly its
    /// length: a fleet holds one per pooled layout for its whole run,
    /// while the growth buffer is freed with the recorder.
    #[must_use]
    pub fn into_tape(self) -> CostTape {
        CostTape {
            costs: self.costs.as_slice().to_vec(),
            digest: self.digest,
        }
    }
}

impl Prober for TapeRecorder {
    fn probe(&mut self, kind: OpKind, addr: VirtAddr) -> u64 {
        let mut out = Vec::with_capacity(1);
        self.probe_batch_into(kind, &[addr], &mut out);
        out[0]
    }

    fn probe_batch_into(&mut self, kind: OpKind, addrs: &[VirtAddr], out: &mut Vec<u64>) {
        let start = self.costs.len();
        self.machine.cost_batch_into(kind, addrs, &mut self.costs);
        self.digest.extend(kind, addrs);
        self.overhead += self.machine.profile().probe_overhead as u64 * addrs.len() as u64;
        for &cost in &self.costs[start..] {
            let reading = quantize_cycles(cost);
            self.tsc += reading;
            out.push(reading);
        }
    }

    /// # Panics
    ///
    /// Always: an eviction resets translation state mid-sequence in a
    /// way a replay has no tape entry for, so eviction-driven attacks
    /// are simulated, never recorded.
    fn evict(&mut self, _addr: VirtAddr) {
        panic!("a cost tape cannot record an eviction");
    }

    fn spend(&mut self, cycles: u64) {
        self.overhead += cycles;
    }

    fn probes_issued(&self) -> u64 {
        self.costs.len() as u64
    }

    fn probing_cycles(&self) -> u64 {
        self.tsc
    }

    fn total_cycles(&self) -> u64 {
        self.tsc + self.overhead
    }

    fn clock_ghz(&self) -> f64 {
        self.machine.profile().freq_ghz
    }
}

/// A [`Prober`] that replays a [`CostTape`] through one victim's own
/// [`NoiseStream`]: every reading, the probe count and the probing and
/// total cycles equal what a [`SimProber`] over that victim's machine
/// reports for the same op stream.
#[derive(Debug)]
pub struct TapeProber<'t> {
    tape: &'t CostTape,
    noise: NoiseStream,
    next: usize,
    digest: OpDigest,
    probe_overhead: u64,
    clock_ghz: f64,
    tsc: u64,
    overhead: u64,
}

impl<'t> TapeProber<'t> {
    /// Replays `tape` under `noise` — the stream the victim's machine
    /// would measure with ([`Machine::noise_stream`]) — on `profile`'s
    /// clock and per-probe overhead.
    #[must_use]
    pub fn new(tape: &'t CostTape, noise: NoiseStream, profile: &CpuProfile) -> Self {
        Self {
            tape,
            noise,
            next: 0,
            digest: OpDigest::default(),
            probe_overhead: profile.probe_overhead as u64,
            clock_ghz: profile.freq_ghz,
            tsc: 0,
            overhead: 0,
        }
    }

    /// The recorded costs of the next `addrs.len()` probes, checked
    /// against the tape's length and folded into the running digest;
    /// books their per-probe overhead like [`SimProber`].
    fn take(&mut self, kind: OpKind, addrs: &[VirtAddr]) -> &'t [f64] {
        let tape = self.tape;
        let end = self.next + addrs.len();
        assert!(
            end <= tape.costs.len(),
            "op stream diverged from its cost tape: probe {} past the {} recorded",
            end,
            tape.costs.len()
        );
        self.digest.extend(kind, addrs);
        self.overhead += self.probe_overhead * addrs.len() as u64;
        let costs = &tape.costs[self.next..end];
        self.next = end;
        costs
    }

    /// Ends the replay.
    ///
    /// # Panics
    ///
    /// Panics unless the replayed op stream is exactly the recorded
    /// one: same length, same digest.
    pub fn finish(self) {
        assert!(
            self.next == self.tape.costs.len() && self.digest == self.tape.digest,
            "op stream diverged from its cost tape ({} of {} probes replayed, digest {:016x}, \
             recorded {:016x})",
            self.next,
            self.tape.costs.len(),
            self.digest.0,
            self.tape.digest.0
        );
    }
}

impl Prober for TapeProber<'_> {
    fn probe(&mut self, kind: OpKind, addr: VirtAddr) -> u64 {
        let cost = self.take(kind, &[addr])[0];
        let reading = self.noise.measure(cost);
        self.tsc += reading;
        reading
    }

    fn probe_batch_into(&mut self, kind: OpKind, addrs: &[VirtAddr], out: &mut Vec<u64>) {
        let costs = self.take(kind, addrs);
        let start = out.len();
        self.noise.measure_batch_into(costs, out);
        self.tsc += out[start..].iter().sum::<u64>();
    }

    /// # Panics
    ///
    /// Always: tapes record no evictions ([`TapeRecorder::evict`]).
    fn evict(&mut self, _addr: VirtAddr) {
        panic!("op stream diverged from its cost tape: tapes record no eviction");
    }

    fn spend(&mut self, cycles: u64) {
        self.overhead += cycles;
    }

    fn probes_issued(&self) -> u64 {
        self.next as u64
    }

    fn probing_cycles(&self) -> u64 {
        self.tsc
    }

    fn total_cycles(&self) -> u64 {
        self.tsc + self.overhead
    }

    fn clock_ghz(&self) -> f64 {
        self.clock_ghz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avx_mmu::{AddressSpace, PageSize, PteFlags};
    use avx_uarch::{NoiseProfile, ObservablesVersion};

    use crate::prober::{ProbeStrategy, SimProber};

    const KERNEL: u64 = 0xffff_ffff_a1e0_0000;

    fn space() -> AddressSpace {
        let mut space = AddressSpace::new();
        space
            .map(
                VirtAddr::new_truncate(0x5555_5555_4000),
                PageSize::Size4K,
                PteFlags::user_rw(),
            )
            .unwrap();
        space
            .map(
                VirtAddr::new_truncate(KERNEL),
                PageSize::Size2M,
                PteFlags::kernel_rx(),
            )
            .unwrap();
        space
    }

    /// A mixed scalar/batched open-loop op stream.
    fn attack(p: &mut dyn Prober) -> Vec<u64> {
        let addrs: Vec<VirtAddr> = (0..40)
            .map(|i| VirtAddr::new_truncate(0xffff_ffff_a000_0000 + i * 0x20_0000))
            .collect();
        let mut out = vec![p.probe(OpKind::Load, VirtAddr::new_truncate(0x5555_5555_4000))];
        for _ in 0..4 {
            out.push(p.probe(OpKind::Store, VirtAddr::new_truncate(0x5555_5555_4000)));
        }
        out.extend(ProbeStrategy::SecondOfTwo.measure_batch(p, OpKind::Load, &addrs));
        p.spend(1234);
        out.extend(ProbeStrategy::MinOf(3).measure_batch(p, OpKind::Store, &addrs[..7]));
        out
    }

    fn tape(profile: &CpuProfile) -> CostTape {
        let mut recorder = TapeRecorder::new(Machine::new(profile.clone(), space(), 0));
        attack(&mut recorder);
        recorder.into_tape()
    }

    #[test]
    fn replay_is_bit_identical_to_simulation_in_every_regime() {
        let profile = CpuProfile::alder_lake_i5_12400f();
        let tape = tape(&profile);
        for noise in [
            NoiseProfile::Quiet,
            NoiseProfile::LaptopDvfs,
            NoiseProfile::drift_with(NoiseProfile::Quiet, NoiseProfile::LaptopDvfs, 9, 60),
        ] {
            for observables in ObservablesVersion::ALL {
                for seed in [1, 77] {
                    let mut machine = Machine::new(profile.clone(), space(), seed);
                    machine.set_noise_profile(noise);
                    machine.set_observables(observables);
                    let mut replay =
                        TapeProber::new(&tape, machine.noise_stream().clone(), &profile);
                    let mut sim = SimProber::new(machine);
                    assert_eq!(
                        attack(&mut replay),
                        attack(&mut sim),
                        "{noise} {observables:?}"
                    );
                    assert_eq!(replay.probes_issued(), sim.probes_issued());
                    assert_eq!(replay.probing_cycles(), sim.probing_cycles());
                    assert_eq!(replay.total_cycles(), sim.total_cycles());
                    replay.finish();
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn a_different_op_stream_is_refused_at_finish() {
        let profile = CpuProfile::alder_lake_i5_12400f();
        let tape = tape(&profile);
        let noise = NoiseStream::new(&profile.timing, 1);
        let mut replay = TapeProber::new(&tape, noise, &profile);
        // Same length, one address different.
        let mut addrs = vec![VirtAddr::new_truncate(KERNEL); tape.costs.len()];
        addrs[0] = VirtAddr::new_truncate(0x5555_5555_4000);
        let mut out = Vec::new();
        replay.probe_batch_into(OpKind::Load, &addrs, &mut out);
        replay.finish();
    }

    #[test]
    #[should_panic(expected = "past the")]
    fn a_probe_past_the_tape_is_refused_at_once() {
        let profile = CpuProfile::alder_lake_i5_12400f();
        let tape = tape(&profile);
        let mut replay = TapeProber::new(&tape, NoiseStream::new(&profile.timing, 1), &profile);
        attack(&mut replay);
        let _ = replay.probe(OpKind::Load, VirtAddr::new_truncate(KERNEL));
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn a_short_replay_is_refused_at_finish() {
        let profile = CpuProfile::alder_lake_i5_12400f();
        let tape = tape(&profile);
        let mut replay = TapeProber::new(&tape, NoiseStream::new(&profile.timing, 1), &profile);
        let _ = replay.probe(OpKind::Load, VirtAddr::new_truncate(0x5555_5555_4000));
        replay.finish();
    }

    #[test]
    #[should_panic(expected = "eviction")]
    fn eviction_is_refused() {
        let profile = CpuProfile::alder_lake_i5_12400f();
        let tape = tape(&profile);
        let mut replay = TapeProber::new(&tape, NoiseStream::new(&profile.timing, 1), &profile);
        replay.evict(VirtAddr::new_truncate(KERNEL));
    }
}
