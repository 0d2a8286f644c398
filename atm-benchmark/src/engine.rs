//! Engine workloads: major cycles through [`AtmEngine`] in process, on
//! `SequentialBackend`.
//!
//! A cycle is `apply_updates` (when the workload ingests) plus
//! `step_major_cycle`, measured in user-mode instructions retired by the
//! measuring thread and any thread it starts ([`Instructions`]) and in wall
//! time. The first [`WARMUP_CYCLES`] are not measured; `cycle_minstr` is
//! the mean over the next [`MIN_TIMED_CYCLES`], the same cycles on every
//! run of a seed. The first [`DIGEST_CYCLES`] fold into the output digest,
//! which must equal that of a reference engine on `MulticoreBackend::new(2)`
//! (parallel Task 1 hit lists with a serial replay, chunked scan) and, for
//! pinned seeds, the digest in `pins.json`.
//!
//! Under `--trace 1` the backend is wrapped in [`Traced`], which times each
//! `track_correlate` and `detect_resolve` call, counts its instructions and
//! reads the backend's `last_track_stats()` / `last_detect_stats()` after
//! it. Every cycle of the digest window is traced, so the counts cover it
//! whole. After it, even cycles are traced and on odd ones the wrapper only
//! forwards (one relaxed atomic load per call), so `trace.overhead`
//! compares the instructions of traced cycles with those of nearly bare
//! ones interleaved in one run. Their wall times differ more from the
//! host's load than from the wrapper.

use crate::counter::Instructions;
use crate::stats::{mean, percentile, Digest};
use crate::trace::Trace;
use crate::{Outcome, Pins};
use atm_core::backends::{BackendInfo, MulticoreBackend, SequentialBackend};
use atm_core::config::{AtmConfig, ScanMode};
use atm_core::detect::DetectStats;
use atm_core::track::TrackStats;
use atm_core::{
    Aircraft, AircraftUpdate, Airfield, AtmBackend, AtmEngine, RadarReport, Scenario, ScenarioKind,
    TerrainGrid, TerrainTaskConfig,
};
use sim_clock::{SimDuration, SimRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Untimed cycles at the start of a run.
const WARMUP_CYCLES: usize = 5;
/// Cycles folded into the digest and the exact count metrics. The
/// reference engine runs them too, at about a second a cycle on
/// `hotspot-2k`.
const DIGEST_CYCLES: usize = 8;
/// Timed cycles a run makes at least, so the p90 note has 10 samples
/// beyond it; `cycle_minstr` counts exactly these.
const MIN_TIMED_CYCLES: usize = 100;
/// Constructions timed for `setup_s`; the median is reported.
const SETUP_REPS: usize = 31;
/// Pause before each construction but the first. Spread over three
/// seconds, the constructions sample the host's load at many moments and
/// each starts from caches the pause has cooled, as a server's one
/// construction does. Back to back, all fell within one millisecond in
/// which a neighbour either ran or did not, so a run's median read one of
/// two values 40% apart.
const SETUP_GAP: Duration = Duration::from_millis(100);
/// Share of the fleet re-reported before each cycle on ingest workloads.
const INGEST_SHARE: f64 = 0.05;
/// Position jitter of a re-report, nm either way.
const JITTER_NM: f32 = 8.0;

/// One engine workload.
pub struct EngineWorkload {
    /// Workload name, also its key in `pins.json`.
    pub name: &'static str,
    /// Fleet size.
    pub n: usize,
    /// `Some(kind)` for a scenario fleet, `None` for the paper's
    /// `SetupFlight` fleet.
    pub scenario: Option<ScenarioKind>,
    /// Whether 5% of the fleet is re-reported before each cycle.
    pub ingest: bool,
}

/// What the [`Traced`] wrapper saw during the current cycle.
#[derive(Default)]
struct Probe {
    /// `(name, start, end, instructions)` of this cycle's task calls.
    calls: Vec<(&'static str, Instant, Instant, u64)>,
    /// Task 1 stats summed over the cycle's periods.
    track: TrackStats,
    /// Tasks 2+3 stats of the cycle.
    detect: DetectStats,
}

/// The wrapper's shared state: whether to trace the current cycle, what it
/// saw, and the run's instruction counter.
struct Tap {
    on: AtomicBool,
    probe: Mutex<Probe>,
    counter: Arc<Instructions>,
}

impl Tap {
    fn new(counter: Arc<Instructions>) -> Tap {
        Tap {
            on: AtomicBool::new(false),
            probe: Mutex::default(),
            counter,
        }
    }

    /// Take this cycle's observations, leaving the probe empty.
    fn take(&self) -> Probe {
        std::mem::take(&mut *self.probe.lock().expect("probe lock poisoned"))
    }
}

/// An [`AtmBackend`] that forwards to `inner` and, while the tap is on,
/// reports each task call and its stats to the tap's [`Probe`].
struct Traced {
    inner: SequentialBackend,
    tap: Arc<Tap>,
}

impl AtmBackend for Traced {
    fn info(&self) -> BackendInfo<'_> {
        self.inner.info()
    }

    fn set_recorder(&mut self, recorder: telemetry::Recorder) {
        self.inner.set_recorder(recorder);
    }

    fn on_setup(&mut self, aircraft: &[Aircraft]) -> SimDuration {
        self.inner.on_setup(aircraft)
    }

    fn track_correlate(
        &mut self,
        aircraft: &mut [Aircraft],
        radars: &mut [RadarReport],
        cfg: &AtmConfig,
    ) -> SimDuration {
        if !self.tap.on.load(Ordering::Relaxed) {
            return self.inner.track_correlate(aircraft, radars, cfg);
        }
        let (start, i0) = (Instant::now(), self.tap.counter.read());
        let d = self.inner.track_correlate(aircraft, radars, cfg);
        let (end, i1) = (Instant::now(), self.tap.counter.read());
        let s = self.inner.last_track_stats().expect("Task 1 just ran");
        let mut probe = self.tap.probe.lock().expect("probe lock poisoned");
        probe.calls.push(("task1", start, end, i1 - i0));
        let t = &mut probe.track;
        t.matched += s.matched;
        t.box_tests += s.box_tests;
        t.passes_run += s.passes_run;
        d
    }

    fn detect_resolve(&mut self, aircraft: &mut [Aircraft], cfg: &AtmConfig) -> SimDuration {
        if !self.tap.on.load(Ordering::Relaxed) {
            return self.inner.detect_resolve(aircraft, cfg);
        }
        let (start, i0) = (Instant::now(), self.tap.counter.read());
        let d = self.inner.detect_resolve(aircraft, cfg);
        let (end, i1) = (Instant::now(), self.tap.counter.read());
        let s = self.inner.last_detect_stats().expect("Tasks 2+3 just ran");
        let mut probe = self.tap.probe.lock().expect("probe lock poisoned");
        probe.calls.push(("task23", start, end, i1 - i0));
        probe.detect.absorb(&s);
        d
    }

    fn terrain_avoidance(
        &mut self,
        aircraft: &mut [Aircraft],
        grid: &TerrainGrid,
        tcfg: &TerrainTaskConfig,
    ) -> SimDuration {
        self.inner.terrain_avoidance(aircraft, grid, tcfg)
    }
}

/// The measured backend: `SequentialBackend`, behind [`Traced`] when
/// tracing.
fn measured(tap: Option<&Arc<Tap>>) -> Box<dyn AtmBackend> {
    match tap {
        None => Box::new(SequentialBackend::new()),
        Some(t) => Box::new(Traced {
            inner: SequentialBackend::new(),
            tap: Arc::clone(t),
        }),
    }
}

impl EngineWorkload {
    /// Fleet, engine and `begin_run`: the construction `setup_s` times.
    fn build(&self, seed: u64, backend: Box<dyn AtmBackend>) -> AtmEngine {
        let cfg = AtmConfig {
            scan: ScanMode::Grid,
            shards: 1,
            ..AtmConfig::with_seed(seed)
        };
        let field = match self.scenario {
            Some(kind) => Scenario::new(kind).airfield_with(self.n, &cfg),
            None => Airfield::new(self.n, cfg),
        };
        let mut engine = AtmEngine::new(field, backend);
        engine.begin_run();
        engine
    }

    /// The next cycle's re-reports, when the workload ingests.
    fn batch(&self, start: &[Aircraft], rng: &mut SimRng) -> Option<Vec<AircraftUpdate>> {
        let count = (start.len() as f64 * INGEST_SHARE).round() as usize;
        self.ingest.then(|| rereports(start, count, rng))
    }

    /// The seeded stream the re-reports draw from; equal for the measured
    /// and the reference engine.
    fn ingest_rng(seed: u64) -> SimRng {
        SimRng::seed_from_u64(seed ^ 0x1A6E_57B0_0C1E_0000)
    }

    /// Digest of the first [`DIGEST_CYCLES`] cycles of the reference engine
    /// on `MulticoreBackend::new(2)`, untimed.
    fn reference_digest(&self, seed: u64) -> String {
        let mut engine = self.build(seed, Box::new(MulticoreBackend::new(2)));
        let start = engine.aircraft().to_vec();
        let mut rng = Self::ingest_rng(seed);
        let mut digest = Digest::new();
        for _ in 0..DIGEST_CYCLES {
            if let Some(batch) = self.batch(&start, &mut rng) {
                engine.apply_updates(&batch);
            }
            let r = engine.step_major_cycle();
            for w in [r.cycle, r.conflicts, r.resolutions, r.fleet_hash] {
                digest.eat(w);
            }
        }
        digest.hex()
    }

    /// Run the workload for `seconds` (and at least the warm-up plus
    /// [`MIN_TIMED_CYCLES`] cycles).
    pub fn run(&self, seed: u64, seconds: f64, traced: bool, pins: &Pins) -> Outcome {
        let mut out = Outcome::default();
        if let Err(e) = self.run_checked(seed, seconds, traced, pins, &mut out) {
            out.problems.push(e);
            out.attempted = out.attempted.max(1);
            out.failed = out.attempted;
        }
        out
    }

    fn run_checked(
        &self,
        seed: u64,
        seconds: f64,
        traced: bool,
        pins: &Pins,
        out: &mut Outcome,
    ) -> Result<(), String> {
        let counter = Arc::new(Instructions::open()?);
        let tap = traced.then(|| Arc::new(Tap::new(Arc::clone(&counter))));
        let (setup_s, mut engine) = timed_setup(|| Ok(self.build(seed, measured(tap.as_ref()))))?;
        let start = engine.aircraft().to_vec();

        let mut rng = Self::ingest_rng(seed);
        let mut trace = Trace::new(Instant::now());
        let mut digest = Digest::new();
        let mut cycle_ms = Vec::new();
        // Instructions of the first MIN_TIMED_CYCLES timed cycles, millions.
        let mut cycle_minstr = Vec::with_capacity(MIN_TIMED_CYCLES);
        let (mut task1_minstr, mut task23_minstr) = (Vec::new(), Vec::new());
        // In a traced run, instructions of the interleaved traced and bare
        // cycles after the digest window.
        let (mut traced_instr, mut bare_instr) = (Vec::new(), Vec::new());
        let (mut task1_ms, mut task23_ms, mut apply_ms) = (Vec::new(), Vec::new(), Vec::new());
        // Indices of the timed cycles' `engine.step` spans.
        let mut steps = Vec::new();
        // Exact counts over the digest window.
        let mut counts = Counts::default();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut cycle = 0usize;
        loop {
            let timed = cycle >= WARMUP_CYCLES;
            let enough = cycle_ms.len() >= MIN_TIMED_CYCLES;
            if cycle >= DIGEST_CYCLES && enough && Instant::now() >= deadline {
                break;
            }
            let batch = self.batch(&start, &mut rng);
            let tracing = cycle < DIGEST_CYCLES || cycle.is_multiple_of(2);
            if let Some(t) = &tap {
                t.on.store(tracing, Ordering::Relaxed);
            }

            let (t0, i0) = (Instant::now(), counter.read());
            let receipt = batch.as_ref().map(|b| engine.apply_updates(b));
            let t1 = Instant::now();
            let report = engine.step_major_cycle();
            let (t2, i2) = (Instant::now(), counter.read());

            let ms = (t2 - t0).as_secs_f64() * 1e3;
            out.attempted += 1;
            if report.misses > 0 {
                out.failed += 1;
            }
            let seen = tap.as_ref().filter(|_| tracing).map(|t| t.take());
            if cycle < DIGEST_CYCLES {
                for w in [
                    report.cycle,
                    report.conflicts,
                    report.resolutions,
                    report.fleet_hash,
                ] {
                    digest.eat(w);
                }
                counts.add(
                    &report,
                    receipt.map(|r| (r.applied, batch.as_ref().map_or(0, Vec::len))),
                    seen.as_ref(),
                    self.n,
                );
            }
            if timed {
                cycle_ms.push(ms);
                if cycle_minstr.len() < MIN_TIMED_CYCLES {
                    cycle_minstr.push((i2 - i0) as f64 / 1e6);
                }
            }
            if traced && cycle >= DIGEST_CYCLES {
                if tracing {
                    &mut traced_instr
                } else {
                    &mut bare_instr
                }
                .push((i2 - i0) as f64);
            }
            if let Some(seen) = seen {
                let key = cycle as u64;
                let root = trace.push("cycle", key, t0, t2, None);
                if receipt.is_some() {
                    trace.push("ingest.apply", key, t0, t1, Some(root));
                }
                let step = trace.push("engine.step", key, t1, t2, Some(root));
                let (mut t1_sum, mut t1_instr, mut t23_instr) = (0.0, 0, 0);
                for (name, a, b, instr) in seen.calls {
                    trace.push(name, key, a, b, Some(step));
                    let ms = (b - a).as_secs_f64() * 1e3;
                    if name == "task1" {
                        t1_sum += ms;
                        t1_instr += instr;
                    } else {
                        t23_instr += instr;
                        if timed {
                            task23_ms.push(ms);
                        }
                    }
                }
                if timed {
                    task1_ms.push(t1_sum);
                    task1_minstr.push(t1_instr as f64 / 1e6);
                    task23_minstr.push(t23_instr as f64 / 1e6);
                    apply_ms.push((t1 - t0).as_secs_f64() * 1e3);
                    steps.push(step);
                }
            }
            cycle += 1;
        }

        counter.check()?;
        // Correctness: the digest must match a second substrate's, and the
        // pinned one where the seed is pinned.
        let digest = digest.hex();
        let reference = self.reference_digest(seed);
        if digest != reference {
            out.problems.push(format!(
                "digest {digest} differs from the multicore reference {reference}"
            ));
        }
        match pins.digest(self.name, seed) {
            Some(pinned) if pinned != digest => out
                .problems
                .push(format!("digest {digest} differs from the pinned {pinned}")),
            _ => {}
        }
        if !out.problems.is_empty() {
            out.failed = out.attempted;
        }
        out.notes
            .push(format!("digest {digest} over cycles 0..{DIGEST_CYCLES}"));

        out.metrics.insert("setup_s", setup_s);
        out.latency("cycle_ms", &cycle_ms);
        if !traced {
            out.metrics.insert("cycle_minstr", mean(&cycle_minstr));
        } else {
            let m = &mut out.metrics;
            let p50 = |v: &[f64]| percentile(v, 50).unwrap_or(0.0);
            m.insert(
                "trace.overhead",
                mean(&traced_instr) / mean(&bare_instr) - 1.0,
            );
            m.insert(
                "trace.unattributed_share",
                trace.unattributed_share("cycle"),
            );
            m.insert("task1.ms", p50(&task1_ms));
            m.insert("task23.ms", p50(&task23_ms));
            m.insert("task1.minstr", mean(&task1_minstr));
            m.insert("task23.minstr", mean(&task23_minstr));
            let own = trace.self_ns();
            let self_ms: Vec<f64> = steps.iter().map(|&i| own[i] as f64 / 1e6).collect();
            m.insert("engine.self_ms", p50(&self_ms));
            if self.ingest {
                m.insert("ingest.apply_ms", p50(&apply_ms));
            }
            counts.report(m);
            out.trace = Some(trace);
        }
        Ok(())
    }
}

/// Build [`SETUP_REPS`] times, [`SETUP_GAP`] apart: the median build time,
/// s, and the last build. Each earlier build is dropped untimed.
pub fn timed_setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        if rep > 0 {
            std::thread::sleep(SETUP_GAP);
        }
        let start = Instant::now();
        let built = build()?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(built);
    }
    let median = percentile(&times, 50).expect("SETUP_REPS > 0");
    Ok((median, last.expect("SETUP_REPS > 0")))
}

/// `count` re-reports of random aircraft at their `start` state ±
/// [`JITTER_NM`] in x and y: the scenario's own geometry, so the traffic
/// keeps its shape while the fleet flies on.
pub fn rereports(start: &[Aircraft], count: usize, rng: &mut SimRng) -> Vec<AircraftUpdate> {
    (0..count)
        .map(|_| {
            let id = rng.range_u32_inclusive(0, start.len() as u32 - 1);
            let a = &start[id as usize];
            AircraftUpdate {
                id,
                x: a.x + rng.range_f32_inclusive(-JITTER_NM, JITTER_NM),
                y: a.y + rng.range_f32_inclusive(-JITTER_NM, JITTER_NM),
                alt: a.alt,
                dx: a.dx,
                dy: a.dy,
            }
        })
        .collect()
}

/// Counts over the digest window; they repeat exactly for a seed.
#[derive(Default)]
struct Counts {
    cycles: u64,
    conflicts: u64,
    resolutions: u64,
    misses: u64,
    applied: u64,
    submitted: u64,
    aircraft_periods: u64,
    track: TrackStats,
    detect: DetectStats,
}

impl Counts {
    fn add(
        &mut self,
        r: &atm_core::CycleReport,
        ingest: Option<(u32, usize)>,
        seen: Option<&Probe>,
        n: usize,
    ) {
        self.cycles += 1;
        self.conflicts += r.conflicts;
        self.resolutions += r.resolutions;
        self.misses += r.misses;
        if let Some((applied, submitted)) = ingest {
            self.applied += u64::from(applied);
            self.submitted += submitted as u64;
        }
        if let Some(p) = seen {
            self.aircraft_periods += n as u64 * 16;
            self.track.matched += p.track.matched;
            self.track.box_tests += p.track.box_tests;
            self.track.passes_run += p.track.passes_run;
            self.detect.absorb(&p.detect);
        }
    }

    fn report(&self, m: &mut BTreeMap<&'static str, f64>) {
        let per_cycle = |v: u64| v as f64 / self.cycles as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let d = &self.detect;
        m.insert("task1.box_tests", per_cycle(self.track.box_tests));
        m.insert("task1.passes", per_cycle(u64::from(self.track.passes_run)));
        m.insert(
            "task1.matched_ratio",
            ratio(self.track.matched, self.aircraft_periods),
        );
        m.insert("task23.pair_checks", per_cycle(d.pair_checks));
        m.insert(
            "task23.critical_ratio",
            ratio(d.critical_conflicts, d.pair_checks),
        );
        m.insert("task23.rotations", per_cycle(d.rotations));
        m.insert("task23.resolve_yield", ratio(d.resolved, d.rotations));
        m.insert("ingest.applied_ratio", ratio(self.applied, self.submitted));
        m.insert("engine.conflicts", per_cycle(self.conflicts));
        m.insert("engine.resolutions", per_cycle(self.resolutions));
        m.insert("engine.misses", per_cycle(self.misses));
    }
}
