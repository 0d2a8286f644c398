//! The live workload: an in-process [`AtmServer`] on `127.0.0.1:0`, loaded
//! open-loop over two connections by two threads of this process.
//!
//! Connection A subscribes (unfiltered) and sends `step` every
//! [`STEP_EVERY`]; connection B sends `ingest` batches of [`BATCH`] updates,
//! one in each [`INGEST_EVERY`] slot at a random point of it. Every request
//! is timed from its due time, so a stall also delays the requests queued
//! behind it. After the load window
//! one more `step` (the drain step) applies the last ingests; it is checked
//! but not timed. The first [`WARMUP`] of the window is not timed.
//!
//! Checks after the window: every request got an `ok` response, every
//! cycle delivered `1 + conflicts` events, and `replay_log` over the
//! server's `log` reproduces each cycle's fleet hash, conflicts and
//! resolutions.
//!
//! The server's accept thread opens an [`Instructions`] counter before it
//! starts, so the counter covers every server thread (accept, connection
//! readers, subscriber writers, which also run the engine) and none of the
//! load generator's. Connection A reads it whenever a cycle's last event
//! arrives; `cycle_minstr` is the server's instructions from the end of
//! the warm-up cycles to the end of the last scheduled one, per cycle: a
//! step, the ingests that arrived meanwhile and the event fan-out.

use crate::counter::Instructions;
use crate::engine::{rereports, timed_setup};
use crate::stats::{mean, percentile, tail};
use crate::trace::Trace;
use crate::Outcome;
use atm_core::config::ScanMode;
use atm_core::Scenario;
use atm_server::proto::{entry_from_json, updates_to_json};
use atm_server::{replay_log, AtmServer, ServerSpec};
use sim_clock::SimRng;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};
use telemetry::{parse_json, JsonValue};

/// Fleet size.
const N: usize = 1000;
/// Scenario slug of the served fleet.
const SCENARIO: &str = "crossing";
/// Interval between scheduled `step` requests.
const STEP_EVERY: Duration = Duration::from_millis(150);
/// Slot of one `ingest` request (50 per second).
const INGEST_EVERY: Duration = Duration::from_millis(20);
/// Updates per `ingest` request.
const BATCH: usize = 64;
/// Untimed start of the load window.
const WARMUP: Duration = Duration::from_secs(2);
/// Per-subscriber queue capacity: a full cycle's events fit, so a drop
/// means the subscriber fell behind, not that the queue is small.
const QUEUE_CAP: usize = 4096;
/// How long after the load window responses and events may still arrive.
const GRACE: Duration = Duration::from_secs(20);
/// A blocking read's timeout may overshoot by this much.
const TICK_SLACK: Duration = Duration::from_millis(10);
/// Sleep between non-blocking reads near a due time.
const NAP: Duration = Duration::from_micros(200);

/// The served spec: crossing flows, `sequential-host`, grid scan, one shard.
fn spec(seed: u64) -> ServerSpec {
    ServerSpec {
        n: N,
        seed,
        scenario: Some(SCENARIO.to_owned()),
        scan: ScanMode::Grid,
        shards: 1,
        platform: "sequential-host".to_owned(),
        autostep_ms: None,
        queue_cap: QUEUE_CAP,
        metrics_path: None,
        log_path: None,
    }
}

/// One client connection with a line splitter that stamps arrival times.
struct Conn {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            pending: Vec::new(),
        })
    }

    /// Write one request line in a single write.
    fn send(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream.write_all(&bytes)
    }

    /// Wait for bytes until about `until`; append every line they complete,
    /// stamped with the time they arrived. Socket read timeouts fire on a
    /// coarse kernel tick (a 1 ms timeout can block 8 ms), so a read blocks
    /// only while `until` is more than [`TICK_SLACK`] away; nearer to it,
    /// reads are non-blocking between naps of [`NAP`].
    fn poll(&mut self, until: Instant, lines: &mut Vec<(Instant, String)>) -> io::Result<()> {
        let wait = until.saturating_duration_since(Instant::now());
        let blocking = wait > TICK_SLACK;
        self.stream.set_nonblocking(!blocking)?;
        if blocking {
            self.stream.set_read_timeout(Some(wait - TICK_SLACK))?;
        }
        let mut chunk = [0u8; 1 << 16];
        let k = match self.stream.read(&mut chunk) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server hung up",
                ))
            }
            Ok(k) => k,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if !blocking {
                    thread::sleep(NAP.min(wait));
                }
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let at = Instant::now();
        self.pending.extend_from_slice(&chunk[..k]);
        let mut start = 0;
        while let Some(off) = self.pending[start..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&self.pending[start..start + off]).into_owned();
            lines.push((at, line));
            start += off + 1;
        }
        self.pending.drain(..start);
        Ok(())
    }

    /// Send a request and wait for its response line, on a connection that
    /// carries nothing else at the time.
    fn request_raw(&mut self, line: &str) -> Result<String, String> {
        self.send(line).map_err(|e| format!("send: {e}"))?;
        let deadline = Instant::now() + GRACE;
        let mut lines = Vec::new();
        while lines.is_empty() {
            if Instant::now() >= deadline {
                return Err(format!("no response to {line}"));
            }
            self.poll(deadline, &mut lines)
                .map_err(|e| format!("read: {e}"))?;
        }
        Ok(lines.swap_remove(0).1)
    }

    /// [`Conn::request_raw`], parsed; an error unless `"ok": true`.
    fn request(&mut self, line: &str) -> Result<JsonValue, String> {
        let raw = self.request_raw(line)?;
        let response = parse_json(&raw)?;
        match response.get("ok") {
            Some(JsonValue::Bool(true)) => Ok(response),
            _ => Err(format!("{line} answered {raw}")),
        }
    }
}

/// A started server, the instructions of its threads, and the two load
/// connections (A subscribed).
struct Running {
    handle: thread::JoinHandle<()>,
    counter: Instructions,
    a: Conn,
    b: Conn,
}

impl Running {
    /// Run a bound server on a thread that first opens the instruction
    /// counter, connect both clients and subscribe A.
    fn start(server: AtmServer) -> Result<Running, String> {
        let addr = server.local_addr();
        let (tx, rx) = mpsc::channel();
        let handle = thread::spawn(move || {
            let counter = Instructions::open();
            let counting = counter.is_ok();
            // The receiver waits for this message, so sending cannot fail.
            let _ = tx.send(counter);
            if counting {
                server.run();
            }
        });
        let opened = rx
            .recv()
            .unwrap_or_else(|_| Err("the server thread ended early".to_owned()));
        let counter = match opened {
            Ok(counter) => counter,
            Err(e) => {
                let _ = handle.join();
                return Err(e);
            }
        };
        let mut a = Conn::connect(addr)?;
        let b = Conn::connect(addr)?;
        a.request(r#"{"verb":"subscribe"}"#)?;
        Ok(Running {
            handle,
            counter,
            a,
            b,
        })
    }

    /// Shut the server down over B and wait for its thread.
    fn stop(mut self) -> Result<(), String> {
        self.b.request(r#"{"verb":"shutdown"}"#)?;
        drop(self.a);
        drop(self.b);
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_owned())
    }
}

/// The ingest plan: each request's due offset from the start of the window
/// and its line. Request `j` is due at a uniformly random point of slot
/// `[j, j + 1) × INGEST_EVERY`, so ingests meet the step schedule at every
/// phase; it re-reports random aircraft near their scenario starting state
/// ([`rereports`]).
fn ingest_plan(seed: u64, count: usize) -> Vec<(Duration, String)> {
    let fleet = Scenario::by_slug(SCENARIO)
        .expect("catalog scenario")
        .fleet(N, seed);
    let mut rng = SimRng::seed_from_u64(seed ^ 0x11FE_1A6E_57B0_0000);
    (0..count)
        .map(|j| {
            let due = INGEST_EVERY.mul_f32(j as f32 + rng.next_f32());
            let line = JsonValue::obj()
                .set("verb", "ingest")
                .set(
                    "updates",
                    updates_to_json(&rereports(&fleet, BATCH, &mut rng)),
                )
                .to_compact();
            (due, line)
        })
        .collect()
}

/// One request: when it was due, when it went out, and its response.
struct Request {
    due: Instant,
    sent: Option<Instant>,
    reply: Option<(Instant, JsonValue)>,
}

impl Request {
    fn new(due: Instant) -> Request {
        Request {
            due,
            sent: None,
            reply: None,
        }
    }

    fn ok(&self) -> bool {
        matches!(&self.reply, Some((_, r)) if r.get("ok") == Some(&JsonValue::Bool(true)))
    }

    fn field(&self, key: &str) -> Option<u64> {
        let (_, r) = self.reply.as_ref()?;
        r.get(key)?.as_f64().map(|v| v as u64)
    }
}

/// What the subscriber saw of one cycle.
#[derive(Default)]
struct CycleSeen {
    cycle_at: Option<Instant>,
    last_at: Option<Instant>,
    events: u64,
    bytes: u64,
    report: Option<JsonValue>,
    /// The server's instruction count when the cycle's last event arrived.
    instructions: Option<u64>,
}

impl CycleSeen {
    fn count(&self, key: &str) -> Option<u64> {
        self.report.as_ref()?.get(key)?.as_f64().map(|v| v as u64)
    }

    /// The cycle event and exactly `conflicts` conflict events arrived.
    fn complete(&self) -> bool {
        self.count("conflicts")
            .is_some_and(|c| self.events == 1 + c)
    }
}

/// Connection B's loop: send each ingest when due, read acks in between.
/// Dropping `done` tells connection A that every ingest is answered.
fn drive_ingests(
    conn: &mut Conn,
    t0: Instant,
    plan: &[(Duration, String)],
    done: mpsc::Sender<()>,
) -> Result<Vec<Request>, String> {
    let mut reqs: Vec<Request> = plan
        .iter()
        .map(|(due, _)| Request::new(t0 + *due))
        .collect();
    let hard = t0 + INGEST_EVERY * plan.len() as u32 + GRACE;
    let (mut next, mut acked) = (0, 0);
    let mut got = Vec::new();
    while acked < plan.len() && Instant::now() < hard {
        let now = Instant::now();
        if next < plan.len() && now >= reqs[next].due {
            conn.send(&plan[next].1)
                .map_err(|e| format!("ingest send: {e}"))?;
            reqs[next].sent = Some(now);
            next += 1;
            continue;
        }
        let until = reqs.get(next).map_or(hard, |r| r.due);
        conn.poll(until, &mut got)
            .map_err(|e| format!("ingest read: {e}"))?;
        for (at, line) in got.drain(..) {
            if acked < next {
                reqs[acked].reply = Some((at, parse_json(&line).unwrap_or(JsonValue::Null)));
                acked += 1;
            }
        }
    }
    drop(done);
    Ok(reqs)
}

/// Connection A's loop: send each step when due, then the drain step once
/// connection B is done, and collect responses and events until every
/// cycle is complete. Reads the server's instruction count as each cycle
/// completes.
fn drive_steps(
    conn: &mut Conn,
    t0: Instant,
    steps: usize,
    ingests_done: &mpsc::Receiver<()>,
    counter: &Instructions,
) -> Result<(Vec<Request>, BTreeMap<u64, CycleSeen>), String> {
    const STEP: &str = r#"{"verb":"step"}"#;
    let mut reqs: Vec<Request> = (0..steps)
        .map(|k| Request::new(t0 + STEP_EVERY * k as u32))
        .collect();
    let mut cycles: BTreeMap<u64, CycleSeen> = BTreeMap::new();
    let hard = t0 + STEP_EVERY * steps as u32 + GRACE;
    let (mut next, mut replies) = (0, 0);
    let mut got = Vec::new();
    loop {
        let now = Instant::now();
        if now >= hard {
            break;
        }
        if next < steps && now >= reqs[next].due {
            conn.send(STEP).map_err(|e| format!("step send: {e}"))?;
            reqs[next].sent = Some(now);
            next += 1;
            continue;
        }
        if next == steps
            && matches!(
                ingests_done.try_recv(),
                Err(mpsc::TryRecvError::Disconnected)
            )
        {
            conn.send(STEP).map_err(|e| format!("step send: {e}"))?;
            let mut drain = Request::new(now);
            drain.sent = Some(now);
            reqs.push(drain);
            next += 1;
            continue;
        }
        let all_in = replies == steps + 1
            && cycles.len() == steps + 1
            && cycles.values().all(CycleSeen::complete);
        if next > steps && all_in {
            break;
        }
        let until = reqs
            .get(next)
            .map_or(now + Duration::from_millis(5), |r| r.due);
        conn.poll(until, &mut got)
            .map_err(|e| format!("step read: {e}"))?;
        for (at, line) in got.drain(..) {
            let v = parse_json(&line).unwrap_or(JsonValue::Null);
            let event = v.get("event").and_then(JsonValue::as_str);
            let cycle = match event {
                Some("cycle") => v.get("report").and_then(|r| r.get("cycle")),
                Some(_) => v.get("cycle"),
                None => None,
            };
            match (event, cycle.and_then(JsonValue::as_f64)) {
                (Some(kind), Some(c)) => {
                    let seen = cycles.entry(c as u64).or_default();
                    seen.events += 1;
                    seen.bytes += line.len() as u64 + 1;
                    seen.last_at = Some(at);
                    if kind == "cycle" {
                        seen.cycle_at = Some(at);
                        seen.report = v.get("report").cloned();
                    }
                    if seen.instructions.is_none() && seen.complete() {
                        seen.instructions = Some(counter.read());
                    }
                }
                _ if replies < reqs.len() => {
                    reqs[replies].reply = Some((at, v));
                    replies += 1;
                }
                _ => return Err(format!("unexpected line on the subscriber: {line}")),
            }
        }
    }
    Ok((reqs, cycles))
}

/// The cycle that applied ingest `seq`, from each cycle's `ingest_batches`
/// in cycle order: the first cycle whose cumulative count reaches `seq`.
fn applying_cycle(batches_per_cycle: &[u64], seq: u64) -> Option<usize> {
    let mut cumulative = 0;
    batches_per_cycle.iter().position(|&b| {
        cumulative += b;
        cumulative >= seq
    })
}

/// The server's instructions per cycle, millions, from the completion of
/// the cycle before the first of `timed` to the completion of the last.
fn server_minstr_per_cycle(
    cycles: &BTreeMap<u64, CycleSeen>,
    timed: &[u64],
) -> Result<f64, String> {
    let (Some(&first), Some(&last)) = (timed.iter().min(), timed.iter().max()) else {
        return Err("cycle_minstr: no timed cycles".to_owned());
    };
    let at = |c: u64| {
        cycles
            .get(&c)
            .and_then(|s| s.instructions)
            .ok_or_else(|| format!("cycle_minstr: cycle {c} was not seen complete"))
    };
    let before = at(first
        .checked_sub(1)
        .ok_or("cycle_minstr: no warm-up cycle")?)?;
    Ok(at(last)?.saturating_sub(before) as f64 / 1e6 / (last + 1 - first) as f64)
}

/// The raw items of the array at `"key":[` in a compact JSON document,
/// split at its top-level commas. `None` when the key or the closing
/// bracket is missing.
fn array_items<'a>(doc: &'a str, key: &str) -> Option<Vec<&'a str>> {
    let open = doc.find(&format!("\"{key}\":["))? + key.len() + 4;
    let (mut depth, mut in_str, mut escaped, mut start) = (0usize, false, false, open);
    let mut items = Vec::new();
    for (i, &b) in doc.as_bytes().iter().enumerate().skip(open) {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' | b'[' => depth += 1,
            b']' if depth == 0 => {
                if i > start {
                    items.push(&doc[start..i]);
                }
                return Some(items);
            }
            b'}' | b']' => depth = depth.checked_sub(1)?,
            b',' if depth == 0 => {
                items.push(&doc[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    None
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run the workload with a load window of `seconds`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_checked(seed, seconds, traced, &mut out) {
        out.problems.push(e);
        out.failed = out.attempted.max(1);
        out.attempted = out.attempted.max(1);
    }
    out
}

fn run_checked(seed: u64, seconds: f64, traced: bool, out: &mut Outcome) -> Result<(), String> {
    let window = Duration::from_secs_f64(seconds);
    let steps = window.as_nanos().div_ceil(STEP_EVERY.as_nanos()) as usize;
    let ingests = window.as_nanos().div_ceil(INGEST_EVERY.as_nanos()) as usize;
    let spec = spec(seed);
    let plan = ingest_plan(seed, ingests);

    // `setup_s` times `bind`: fleet, engine, `begin_run` and listener.
    // Connecting and subscribing are thread wake-up round trips whose time
    // varies several-fold between samples and processes. The last server
    // built serves.
    let (setup_s, server) = timed_setup(|| AtmServer::bind(spec.clone(), "127.0.0.1:0"))?;
    let mut running = Running::start(server)?;

    let t0 = Instant::now() + Duration::from_millis(10);
    let (done_tx, done_rx) = mpsc::channel();
    let (a, b, counter) = (&mut running.a, &mut running.b, &running.counter);
    let (step_result, ingest_result) = thread::scope(|s| {
        let ingest = s.spawn(|| drive_ingests(b, t0, &plan, done_tx));
        let steps = drive_steps(a, t0, steps, &done_rx, counter);
        (steps, ingest.join())
    });
    let counted = running.counter.check();
    let ingest_result = ingest_result.map_err(|_| "ingest thread panicked".to_owned())?;
    let status = running.b.request(r#"{"verb":"status"}"#)?;
    let log = running.b.request_raw(r#"{"verb":"log"}"#)?;
    running.stop()?;
    let (steps_seen, cycles) = step_result?;
    let ingests_seen = ingest_result?;
    counted?;
    out.attempted = (steps_seen.len() + ingests_seen.len()) as u64;

    // Replay the log and compare each cycle with what the subscriber saw.
    // `telemetry::parse_json` re-validates the rest of its input for every
    // string character, which is quadratic on a log of megabytes, so each
    // entry is parsed alone.
    let entries = array_items(&log, "entries")
        .ok_or_else(|| format!("`log` answered {:.200}", log))?
        .into_iter()
        .map(|item| entry_from_json(&parse_json(item)?))
        .collect::<Result<Vec<_>, _>>()?;
    let stepped = status
        .get("cycles")
        .and_then(JsonValue::as_f64)
        .ok_or("`status` response without cycles")? as u64;
    let replay = replay_log(&spec, &entries, stepped)?;
    let mut good = vec![false; stepped as usize];
    for (c, ok) in good.iter_mut().enumerate() {
        let Some(seen) = cycles.get(&(c as u64)) else {
            out.problems.push(format!("cycle {c}: no events"));
            continue;
        };
        let r = &replay.reports[c];
        let hash = seen
            .report
            .as_ref()
            .and_then(|v| v.get("fleet_hash"))
            .and_then(JsonValue::as_str);
        let same = hash == Some(format!("{:016x}", r.fleet_hash).as_str())
            && seen.count("conflicts") == Some(r.conflicts)
            && seen.count("resolutions") == Some(r.resolutions);
        if !same {
            out.problems.push(format!("cycle {c}: replay mismatch"));
        }
        if !seen.complete() {
            out.problems.push(format!(
                "cycle {c}: {} events for {:?} conflicts",
                seen.events,
                seen.count("conflicts")
            ));
        }
        *ok = same && seen.complete();
    }
    let cycle_ok = |c: Option<u64>| c.is_some_and(|c| good.get(c as usize) == Some(&true));
    let step_cycle = |r: &Request| {
        let (_, v) = r.reply.as_ref()?;
        let reports = v.get("reports")?.as_arr()?;
        reports.first()?.get("cycle")?.as_f64().map(|c| c as u64)
    };
    let batches: Vec<u64> = (0..stepped)
        .map(|c| cycles.get(&c).and_then(|s| s.count("ingest_batches")))
        .map_while(|b| b)
        .collect();
    let ingest_cycle = |r: &Request| {
        let seq = r.field("seq")?;
        applying_cycle(&batches, seq).map(|c| c as u64)
    };
    for r in &steps_seen {
        if !(r.ok() && cycle_ok(step_cycle(r))) {
            out.failed += 1;
        }
    }
    for r in &ingests_seen {
        if !(r.ok() && cycle_ok(ingest_cycle(r))) {
            out.failed += 1;
        }
    }
    if out.failed > 0 {
        out.problems.push(format!(
            "{} of {} requests failed",
            out.failed, out.attempted
        ));
    }
    out.notes.push(format!(
        "{} steps and {} ingests over {seconds} s, {stepped} cycles replayed",
        steps_seen.len(),
        ingests_seen.len()
    ));

    // Timed samples: due after the warm-up, answered, and (for ingests)
    // applied by a scheduled step rather than the drain step.
    let timed = |r: &Request| r.due >= t0 + WARMUP;
    let last_at = |c: u64| cycles[&c].last_at.expect("a good cycle has events");
    let mut trace = Trace::new(t0);
    let (mut cycle_ms, mut rtt_ms, mut fanout_ms, mut late_ms) = (vec![], vec![], vec![], vec![]);
    let (mut events, mut bytes, mut task1_ms, mut task23_ms) = (vec![], vec![], vec![], vec![]);
    for r in steps_seen.iter().take(steps).filter(|r| timed(r)) {
        let Some(c) = step_cycle(r).filter(|&c| cycle_ok(Some(c))) else {
            continue;
        };
        let seen = &cycles[&c];
        let (sent, (reply_at, _)) = (r.sent.expect("answered"), r.reply.as_ref().expect("ok"));
        let (cycle_at, last) = (seen.cycle_at.expect("complete"), last_at(c));
        cycle_ms.push(ms(last - r.due));
        rtt_ms.push(ms(*reply_at - sent));
        fanout_ms.push(ms(last - cycle_at));
        late_ms.push(ms(sent - r.due));
        events.push(seen.events as f64);
        bytes.push(seen.bytes as f64);
        task1_ms.push(seen.count("task1_ps").unwrap_or(0) as f64 / 1e9);
        task23_ms.push(seen.count("task23_ps").unwrap_or(0) as f64 / 1e9);
        let root = trace.push("step", c, r.due, last, None);
        trace.push("step.late", c, r.due, sent, Some(root));
        trace.push("step.to_cycle_event", c, sent, cycle_at, Some(root));
        trace.push("step.fanout", c, cycle_at, last, Some(root));
    }
    let (mut event_ms, mut ack_ms) = (vec![], vec![]);
    let (mut applied, mut submitted) = (0u64, 0u64);
    for r in ingests_seen.iter().filter(|r| timed(r)) {
        let Some(c) = ingest_cycle(r).filter(|&c| cycle_ok(Some(c)) && c < steps as u64) else {
            continue;
        };
        let (sent, (ack_at, _)) = (r.sent.expect("answered"), r.reply.as_ref().expect("ok"));
        let last = last_at(c);
        event_ms.push(ms(last - r.due));
        ack_ms.push(ms(*ack_at - sent));
        late_ms.push(ms(sent - r.due));
        applied += r.field("applied").unwrap_or(0);
        submitted += BATCH as u64;
        let seq = r.field("seq").expect("acked");
        let root = trace.push("ingest", seq, r.due, last, None);
        trace.push("ingest.late", seq, r.due, sent, Some(root));
        trace.push("ingest.ack", seq, sent, *ack_at, Some(root));
        trace.push("ingest.wait_cycle", seq, *ack_at, last, Some(root));
    }

    out.metrics.insert("setup_s", setup_s);
    out.latency("step_event_ms", &cycle_ms);
    out.latency("ingest_event_ms", &event_ms);
    if !traced {
        let timed_cycles: Vec<u64> = steps_seen
            .iter()
            .take(steps)
            .filter(|r| timed(r))
            .filter_map(step_cycle)
            .collect();
        let minstr = server_minstr_per_cycle(&cycles, &timed_cycles)?;
        out.metrics.insert("cycle_minstr", minstr);
        return Ok(());
    }
    let mut tails = Vec::new();
    let m = &mut out.metrics;
    let mut put = |name: &'static str, v: &[f64], p: u32| {
        let value = match p {
            50 => percentile(v, 50).ok_or_else(|| "no samples".to_owned()),
            _ => tail(v, p),
        };
        match value {
            Ok(x) => {
                m.insert(name, x);
            }
            Err(e) => tails.push(format!("{name}: {e}")),
        }
    };
    put("server.step_rtt_ms_p50", &rtt_ms, 50);
    put("server.step_rtt_ms_p90", &rtt_ms, 90);
    put("server.fanout_ms_p50", &fanout_ms, 50);
    put("server.fanout_ms_p90", &fanout_ms, 90);
    put("server.ingest_ack_ms_p50", &ack_ms, 50);
    put("server.ingest_ack_ms_p95", &ack_ms, 95);
    put("loadgen.late_ms_p99", &late_ms, 99);
    put("task1.ms", &task1_ms, 50);
    put("task23.ms", &task23_ms, 50);
    let per_cycle = |key: &str| {
        let v: Vec<f64> = cycles
            .values()
            .filter_map(|c| c.count(key))
            .map(|v| v as f64)
            .collect();
        mean(&v)
    };
    m.insert("engine.conflicts", per_cycle("conflicts"));
    m.insert("engine.resolutions", per_cycle("resolutions"));
    m.insert("engine.misses", per_cycle("misses"));
    m.insert("server.events_per_cycle", mean(&events));
    m.insert("server.event_bytes_per_cycle", mean(&bytes));
    m.insert(
        "loadgen.late_ms_max",
        late_ms.iter().copied().fold(0.0, f64::max),
    );
    m.insert(
        "ingest.applied_ratio",
        applied as f64 / submitted.max(1) as f64,
    );
    for (name, key) in [
        ("server.ingest_batched", "ingest_batched"),
        ("server.events_dropped", "events_dropped"),
    ] {
        let v = status.get(key).and_then(JsonValue::as_f64);
        m.insert(name, v.unwrap_or(f64::NAN));
    }
    m.insert("trace.unattributed_share", trace.unattributed_share("step"));
    out.trace = Some(trace);
    out.problems.extend(tails);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_ingest_belongs_to_the_first_cycle_whose_cumulative_batches_reach_its_seq() {
        // Cycle 0 applied seqs 1..=2, cycle 1 none, cycle 2 seq 3, cycle 3
        // seqs 4..=7.
        let batches = [2, 0, 1, 4];
        let cycles: Vec<_> = (1..=8).map(|s| applying_cycle(&batches, s)).collect();
        assert_eq!(
            cycles,
            [
                Some(0),
                Some(0),
                Some(2),
                Some(3),
                Some(3),
                Some(3),
                Some(3),
                None
            ]
        );
        assert_eq!(applying_cycle(&[], 1), None);
    }

    #[test]
    fn array_items_split_at_top_level_commas_only() {
        let doc = r#"{"ok":true,"entries":[{"a":[1,2]},{"b":"],{\"}"},3]}"#;
        assert_eq!(
            array_items(doc, "entries").unwrap(),
            [r#"{"a":[1,2]}"#, r#"{"b":"],{\"}"}"#, "3"]
        );
        assert_eq!(
            array_items(r#"{"entries":[]}"#, "entries").unwrap().len(),
            0
        );
        assert_eq!(array_items(r#"{"ok":false}"#, "entries"), None);
        assert_eq!(array_items(r#"{"entries":[1,2"#, "entries"), None);
    }
}
