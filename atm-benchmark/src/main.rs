//! Host benchmark of the two paths a user of the system waits on: one
//! `AtmEngine::step_major_cycle` over n aircraft, and an `atm-server`
//! ingest request to the subscriber's event. It gates on the instructions
//! each path retires and reports its wall-clock latencies beside them. Run
//! from the root of the repository:
//!
//! ```text
//! cargo run --release --manifest-path atm-benchmark/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
//! cargo run --release --manifest-path atm-benchmark/Cargo.toml -- --compare BASE NEW
//! cargo test --release --manifest-path atm-benchmark/Cargo.toml
//! ```
//!
//! Every metric prints as `workload metric value unit`; the last line of
//! standard output is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`, with the end-to-end metrics under `--trace 0` (the
//! default) and the per-layer metrics under `--trace 1`. `--out PATH`
//! appends one run record per workload to PATH; `--compare` reads two such
//! files. The exit code is nonzero when any operation or check fails. The
//! metric names, units, directions and regression bounds are those of
//! `BENCHMARK.json` at the repository root, which this program reads at
//! build time. The digests it pins are in `pins.json`; the first measured
//! baseline is `baseline.jsonl`, beside this package's manifest.
//!
//! # Workloads
//!
//! The seed defaults to 2018; 7 is the hold-out seed. Every workload runs
//! `scan=grid` and `shards=1`, the served default: no workload runs
//! sharding, the wire codec, or the incremental or banded scan, so deleting
//! those is neutral here, and a claim of a gain for them needs a workload
//! first. No workload measures `MulticoreBackend`: its instruction count
//! depends on how its threads interleave, and on a 2-vCPU shared host its
//! fastest `uniform-4k` cycle moved from 69.5 to 59.6 ms between two sweeps
//! of the same code, so it serves only as the reference substrate of the
//! digest check.
//!
//! | workload | input | why |
//! |---|---|---|
//! | `uniform-4k` | paper `SetupFlight` fleet, n=4000, `SequentialBackend`, no ingest | the paper's regime; Task 1 is most of the cycle |
//! | `hotspot-2k` | `hotspot` scenario, n=2000, `SequentialBackend`; before each cycle 5% of the fleet is re-reported near its starting state (±8 nm), which keeps the hotspot dense | Tasks 2+3 are most of the cycle (heavy resolve cascade) and ingest writes sit next to the scans |
//! | `live-crossing` | in-process `AtmServer`, `crossing` spec, n=1000, `sequential-host`, queue cap 4096; open loop from two threads: a `step` every 150 ms on a subscribed connection, and on another a 64-update `ingest` at a random point of every 20 ms slot, re-reporting aircraft near their starting state (±8 nm) | the server layers: JSON parse, engine-lock contention between ingest and step, event rendering and fan-out, socket writes |
//!
//! Engine workloads run cycles back to back for `--seconds` (at least 5
//! warm-up plus 100 timed cycles); the first 5 are not measured. The live
//! workload's load window lasts `--seconds`; its first 2 s are not
//! measured.
//! `--seconds` defaults to `run_seconds` of `BENCHMARK.json`, which a runner
//! of that file passes explicitly.
//!
//! # End-to-end metrics
//!
//! - `cycle_minstr`: millions of user-mode instructions retired per major
//!   cycle, read from the CPU's instruction counter (`counter.rs`). Engine
//!   workloads: `apply_updates` plus `step_major_cycle` on the thread that
//!   runs them and any thread it starts, the mean over the first 100
//!   timed cycles. Live: every server thread, per cycle from the end of the
//!   warm-up to the last scheduled cycle, which covers a step, the ingests
//!   that arrived during it and the event fan-out (JSON parse, engine,
//!   event rendering, socket writes), but not the load generator.
//! - `setup_s`: median of 31 constructions of fleet, engine and
//!   `begin_run` (`AtmServer::bind`, which adds the listener, for live),
//!   100 ms apart, so each starts from caches the pause has cooled, as a
//!   server's one construction does.
//!
//! Wall time is not gated. On a shared host a neighbour's load changes how
//! many instructions a core retires per clock: on a 2-vCPU AMD EPYC virtual
//! machine the same `uniform-4k` cycle, 4.68 G instructions each time,
//! took from 123 to 266 ms within one minute, and two sets of ten runs of
//! identical code read median cycles of 122 and 167 ms. The instruction
//! count of a fixed input moves only when the program does more or less
//! work; it does not see a change that only alters memory stalls or
//! waiting, which the notes below and the per-layer `*.ms` metrics show.
//!
//! Every run still prints the latencies a user waits for as `#` notes with
//! their count, minimum, median and tails. Engine workloads: `cycle_ms`,
//! the wall time of `apply_updates` plus `step_major_cycle`. Live:
//! `step_event_ms`, from a step's due time to the arrival of its cycle's
//! last event, and `ingest_event_ms`, from an ingest's due time to the
//! arrival of the last event of the cycle that applied it, found from the
//! cumulative `ingest_batches` of the cycle events and the ack's `seq`; it
//! includes the wait for the next scheduled step, engine-lock contention
//! between ingest and step, fan-out and socket writes. Percentiles are
//! nearest-rank, and a percentile is reported only when at least 10
//! samples lie beyond it (p50 needs 20 samples, p90 100, p99 1000). The
//! reported percentiles also go into the `--out` run record under
//! `latencies` (`cycle_ms_p50`, `step_event_ms_p95`, ...), and `--compare`
//! gives each a verdict against a bound of 0.10 without gating on it.
//!
//! Operations are counted in `attempted`/`failed`. An engine operation is
//! a cycle; it fails on a deadline miss, or all fail on a digest mismatch.
//! A live operation is an ingest or a step; it fails on an error or missing
//! response, a dropped or missing event, or a replay mismatch.
//!
//! # Correctness gates
//!
//! Engine workloads fold `(cycle, conflicts, resolutions, fleet_hash)` of
//! their first 8 cycles into an FNV-1a digest. It must equal the digest of
//! a reference engine on `MulticoreBackend::new(2)` on every seed and, for
//! seeds 2018 and 7, the one pinned in `pins.json`. The live workload
//! fetches the `log` verb after the window, runs `replay_log`, compares
//! each cycle's fleet hash, conflicts and resolutions with the received
//! `cycle` event, and checks that every cycle delivered `1 + conflicts`
//! events.
//!
//! # Layers (`--trace 1`)
//!
//! A traced run records spans from this program's side of each layer call
//! and writes them to `spans.json`. Engine workloads wrap the backend in a
//! forwarding `AtmBackend` that times each Task 1 and Tasks 2+3 call,
//! counts its instructions and reads
//! `last_track_stats()`/`last_detect_stats()`. After the 8 digest
//! cycles, which are all traced, even cycles are traced and on odd ones the
//! wrapper only forwards; `trace.overhead` is the ratio of the two halves'
//! mean instructions per cycle minus 1, so it includes the wrapper's
//! timing, counting, locking and stats copies. Live spans are per request, keyed by cycle index and
//! ingest `seq`, and are assembled from the arrival times every live run
//! records: tracing adds no work there, so live's `trace.overhead` reads 0,
//! and its `trace.unattributed_share` is about 0 because the child spans
//! (late, to the cycle event, fan-out) tile each step span. Both are
//! validity checks of the engine workloads. Metrics of a layer that a
//! workload does not run read 0.
//!
//! | module | layer | metrics |
//! |---|---|---|
//! | `atm_core::airfield` | ingest | `ingest.apply_ms`, `ingest.applied_ratio` |
//! | `atm_core::track` | task1 | `task1.ms`, `task1.minstr`, `task1.box_tests`, `task1.passes`, `task1.matched_ratio` |
//! | `atm_core::detect` | task23 | `task23.ms`, `task23.minstr`, `task23.pair_checks`, `task23.critical_ratio`, `task23.rotations`, `task23.resolve_yield` |
//! | `atm_core::engine`, `rt-sched` | engine.self | `engine.self_ms` (step minus its Task 1 and Tasks 2+3 calls: radar generation, boundary rule, deadline booking, fleet hash), `engine.conflicts`, `engine.resolutions`, `engine.misses` |
//! | `atm_server::{proto, server}` | server | `server.step_rtt_ms_*`, `server.fanout_ms_*` (cycle event to the cycle's last event), `server.events_per_cycle`, `server.event_bytes_per_cycle`, `server.ingest_ack_ms_*`, `server.ingest_batched`, `server.events_dropped` |
//! | this program | validity | `loadgen.late_ms_p99`, `loadgen.late_ms_max`, `trace.overhead`, `trace.unattributed_share` (self time of spans with children over the cycle) |
//!
//! Counts are per cycle over the 8 digest cycles and repeat exactly for a
//! seed; `*.minstr` are means over the traced timed cycles. `task1.*` moves
//! `cycle_minstr` on `uniform-4k` and is about flat on `hotspot-2k`;
//! `task23.*` the reverse; `ingest.*` moves `hotspot-2k` only; `server.*`
//! moves live's latencies and, through rendering and parsing, its
//! `cycle_minstr`.

mod compare;
mod counter;
mod engine;
mod live;
mod stats;
mod trace;

use engine::EngineWorkload;
use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;
use telemetry::{parse_json, JsonValue};
use trace::Trace;

/// The benchmark definition: workloads and metrics with units and bounds.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// The engine workloads; `live-crossing` is the third.
fn engine_workloads() -> [EngineWorkload; 2] {
    [
        EngineWorkload {
            name: "uniform-4k",
            n: 4000,
            scenario: None,
            ingest: false,
        },
        EngineWorkload {
            name: "hotspot-2k",
            n: 2000,
            scenario: Some(atm_core::ScenarioKind::HotspotSurge),
            ingest: true,
        },
    ]
}

const LIVE: &str = "live-crossing";

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// Context lines: digests, sample counts.
    pub notes: Vec<String>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Wall-clock latency percentiles, ms, by name (`cycle_ms_p50`): in the
    /// run records for `--compare`, not gated.
    pub latencies: BTreeMap<String, f64>,
    /// Spans of a traced run.
    pub trace: Option<Trace>,
}

impl Outcome {
    /// Note a latency sample `label` (ms) with its count, minimum, and the
    /// median and tails the tail rule allows, and keep those percentiles.
    pub fn latency(&mut self, label: &str, samples: &[f64]) {
        let mut note = format!("{label}: n={}", samples.len());
        if let Some(min) = samples.iter().copied().reduce(f64::min) {
            note += &format!(" min={min:.3}");
        }
        for p in [50, 90, 95, 99] {
            if let Ok(v) = stats::tail(samples, p) {
                note += &format!(" p{p}={v:.3}");
                self.latencies.insert(format!("{label}_p{p}"), v);
            }
        }
        self.notes.push(note);
    }
}

/// Digests pinned per workload and seed (`pins.json`).
pub struct Pins(JsonValue);

impl Pins {
    fn load() -> Result<Pins, String> {
        parse_json(include_str!("../pins.json"))
            .map(Pins)
            .map_err(|e| format!("pins.json: {e}"))
    }

    /// The pinned digest of `key` at `seed`, if pinned.
    pub fn digest(&self, key: &str, seed: u64) -> Option<&str> {
        self.0.get(key)?.get(&seed.to_string())?.as_str()
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn metric_list(bench: &JsonValue, list: &str) -> Vec<(String, String)> {
    let field = |m: &JsonValue, k: &str| m.get(k).and_then(JsonValue::as_str).map(str::to_owned);
    bench
        .get(list)
        .and_then(JsonValue::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| Some((field(m, "name")?, field(m, "unit")?)))
        .collect()
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

const USAGE: &str = "usage: atm-benchmark [--workload NAME]... [--seed N] [--seconds S] \
                     [--trace 0|1] [--out PATH]\n       atm-benchmark --compare BASE NEW";

/// `run_seconds` of `BENCHMARK.json`: the default of `--seconds`.
fn run_seconds(bench: &JsonValue) -> Result<f64, String> {
    bench
        .get("run_seconds")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| "BENCHMARK.json: no run_seconds".to_owned())
}

fn parse_args(mut it: impl Iterator<Item = String>, seconds: f64) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 2018,
        seconds,
        trace: false,
        out: None,
        compare: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workloads.push(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let known = |w: &String| w == LIVE || engine_workloads().iter().any(|e| e.name == w);
    if let Some(w) = args.workloads.iter().find(|w| !known(w)) {
        return Err(format!("unknown workload {w}"));
    }
    if args.workloads.is_empty() {
        args.workloads = engine_workloads()
            .iter()
            .map(|e| e.name.to_owned())
            .collect();
        args.workloads.push(LIVE.to_owned());
    }
    Ok(args)
}

fn run_workload(name: &str, args: &Args, pins: &Pins) -> Outcome {
    match engine_workloads().into_iter().find(|e| e.name == name) {
        Some(w) => w.run(args.seed, args.seconds, args.trace, pins),
        None => live::run(args.seed, args.seconds, args.trace),
    }
}

/// Print the per-layer self-time table of a traced run.
fn print_layers(workload: &str, trace: &Trace) {
    println!("# {workload}: self time per layer, as a share of its root spans' time");
    println!(
        "# {:<8} {:<22} {:>7} {:>12} {:>12} {:>7}",
        "root", "layer", "spans", "total_ms", "self_ms", "share"
    );
    for r in trace.layers() {
        println!(
            "# {:<8} {:<22} {:>7} {:>12.3} {:>12.3} {:>6.1}%",
            r.root,
            r.name,
            r.count,
            r.total_ms,
            r.self_ms,
            100.0 * r.share
        );
    }
}

fn main() -> ExitCode {
    let (bench, pins) = match (parse_json(BENCHMARK), Pins::load()) {
        (Ok(b), Ok(p)) => (b, p),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("atm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let args = match run_seconds(&bench).and_then(|s| parse_args(std::env::args().skip(1), s)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("atm-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, new)) = &args.compare {
        let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        return match read(base).and_then(|b| compare::compare(BENCHMARK, &b, &read(new)?)) {
            Ok((table, regressed)) => {
                print!("{table}");
                ExitCode::from(u8::from(regressed))
            }
            Err(e) => {
                eprintln!("atm-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    let list = metric_list(
        &bench,
        if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        },
    );

    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut metrics = JsonValue::obj();
    let mut records = Vec::new();
    let mut spans = JsonValue::obj();
    for workload in &args.workloads {
        let mut out = run_workload(workload, &args, &pins);
        // A layer the workload does not run reads 0; a missing end-to-end
        // metric is a failure.
        let mut values = Vec::new();
        for (name, unit) in &list {
            match out.metrics.get(name.as_str()) {
                Some(&v) => values.push((name, unit, v)),
                None if args.trace => values.push((name, unit, 0.0)),
                None => out.problems.push(format!("{name} was not measured")),
            }
        }
        for note in &out.notes {
            println!("# {workload}: {note}");
        }
        for p in &out.problems {
            eprintln!("{workload}: FAILED: {p}");
        }
        if let Some(trace) = &out.trace {
            print_layers(workload, trace);
            spans = spans.set(workload, trace.to_json());
        }
        let mut run_metrics = JsonValue::obj();
        let mut latencies = JsonValue::obj();
        for (name, &v) in &out.latencies {
            latencies = latencies.set(name, v);
        }
        for (name, unit, value) in values {
            println!("{workload} {name} {value} {unit}");
            let m = JsonValue::obj()
                .set("value", value)
                .set("unit", unit.as_str());
            run_metrics = run_metrics.set(name, m.clone());
            let key = if args.workloads.len() == 1 {
                name.clone()
            } else {
                format!("{workload}/{name}")
            };
            metrics = metrics.set(&key, m);
        }
        let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
        println!("{workload} error_rate {error_rate} ratio");
        let ok = out.problems.is_empty() && out.failed == 0 && out.attempted > 0;
        attempted += out.attempted;
        failed += out.failed;
        correct &= ok;
        records.push(
            JsonValue::obj()
                .set("workload", workload.as_str())
                .set("seed", args.seed)
                .set("seconds", args.seconds)
                .set("trace", u64::from(args.trace))
                .set("correct", ok)
                .set("attempted", out.attempted)
                .set("failed", out.failed)
                .set("metrics", run_metrics)
                .set("latencies", latencies)
                .to_compact(),
        );
    }

    let mut written = Ok(());
    if args.trace {
        written = std::fs::write("spans.json", spans.to_compact())
            .map_err(|e| format!("spans.json: {e}"));
    }
    if let (Some(path), Ok(())) = (&args.out, &written) {
        written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all((records.join("\n") + "\n").as_bytes()))
            .map_err(|e| format!("{path}: {e}"));
    }
    if let Err(e) = &written {
        eprintln!("atm-benchmark: {e}");
        correct = false;
    }
    println!(
        "{}",
        JsonValue::obj()
            .set("correct", correct)
            .set("attempted", attempted.max(1))
            .set("failed", failed)
            .set("metrics", metrics)
            .to_compact()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_default_to_the_benchmark_run_seconds() {
        let bench = parse_json(BENCHMARK).unwrap();
        let s = run_seconds(&bench).unwrap();
        let args = |v: &[&str]| parse_args(v.iter().map(|a| a.to_string()), s);
        assert_eq!(args(&[]).unwrap().seconds, s);
        assert_eq!(args(&["--seconds", "3"]).unwrap().seconds, 3.0);
        assert!(args(&["--seconds", "0"]).is_err());
        assert_eq!(args(&[]).unwrap().workloads.len(), 3);
    }

    #[test]
    fn a_latency_note_names_only_the_percentiles_with_enough_samples() {
        let ramp: Vec<f64> = (1..=25).map(f64::from).collect();
        let mut out = Outcome::default();
        out.latency("cycle_ms", &ramp);
        assert_eq!(out.notes[0], "cycle_ms: n=25 min=1.000 p50=13.000");
        // p50 needs 10 samples beyond its rank, so 19 samples are too few.
        out.latency("cycle_ms", &ramp[..19]);
        assert_eq!(out.notes[1], "cycle_ms: n=19 min=1.000");
        assert!(out.metrics.is_empty() && out.problems.is_empty());
        // The first note's p50 stays for the run record.
        assert_eq!(
            out.latencies.into_iter().collect::<Vec<_>>(),
            [("cycle_ms_p50".to_owned(), 13.0)]
        );
    }
}
