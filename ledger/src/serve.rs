//! The live side of a run: the daemon under test, the report sink that
//! timestamps deliveries, and the load-generating clients.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use logsynergy_ledger::{due_secs, Feed, FeedLog, PhaseAccount, Verdict};
use logsynergy_pipeline::detect::SequenceScorer;
use logsynergy_pipeline::{PipelineConfig, PipelineSummary, Report, ReportSink, WalOptions};
use logsynergy_serve::{parse_tenants, start, Daemon, ServeConfig};
use serde::{Deserialize, Serialize};

use crate::{Served, WalDir, Workload};

/// One tenant, unmetered: quotas are not what this benchmark measures.
const TENANTS: &str = "tenant ledger token=ledger-secret\n";
/// Shortest sleep of an open-loop client between writes, seconds.
const OPEN_LOOP_TICK: f64 = 0.001;

/// How a phase offers its load.
#[derive(Clone, Copy, Debug)]
pub enum Loop {
    /// Send log `i` at `i / rate` seconds after the phase starts.
    Open(f64),
    /// Write as fast as TCP backpressure allows.
    Closed,
}

/// The gate-relevant identity of a report.
pub fn verdict_of(r: &Report) -> Verdict {
    Verdict {
        system: r.system.clone(),
        first_seq_no: r.first_seq_no,
        probability_bits: r.probability.to_bits(),
        culprit: r.culprit.clone(),
    }
}

/// Records every delivered report with the instant it reached the sink.
#[derive(Clone, Default)]
pub struct StampSink {
    delivered: Arc<Mutex<Vec<(Instant, Verdict)>>>,
}

impl StampSink {
    fn take(&self) -> Vec<(Instant, Verdict)> {
        std::mem::take(&mut *self.delivered.lock().expect("sink lock poisoned"))
    }
}

impl ReportSink for StampSink {
    fn deliver(&self, report: &Report) {
        let at = Instant::now();
        let v = verdict_of(report);
        self.delivered
            .lock()
            .expect("sink lock poisoned")
            .push((at, v));
    }
}

/// Starts the daemon with its shipped defaults (4 partitions, ingest
/// batch 64), durable when `wal` is given.
pub fn start_daemon<S>(served: &Served, scorer: S, sink: StampSink, wal: Option<&WalDir>) -> Daemon
where
    S: SequenceScorer + Clone + 'static,
{
    let config = ServeConfig {
        pipeline: PipelineConfig {
            wal: wal.map(|d| WalOptions::at(&d.0)),
            ..PipelineConfig::default()
        },
        ..ServeConfig::default()
    };
    let specs = parse_tenants(TENANTS).expect("the built-in tenants file parses");
    start(config, specs, None, served.vectorizer.clone(), scorer, sink).expect("daemon starts")
}

/// One NDJSON record, as a collector would send it.
#[derive(Serialize)]
struct WireRecord {
    system: String,
    timestamp: u64,
    message: String,
}

/// The fields of a server frame this client reads.
#[derive(Deserialize)]
struct Frame {
    ok: bool,
    #[serde(default)]
    accepted: Option<u64>,
}

/// One NDJSON record line, newline-terminated.
pub fn wire_line(tag: &str, log: &FeedLog) -> String {
    let record = WireRecord {
        system: tag.to_string(),
        timestamp: log.timestamp,
        message: log.message.clone(),
    };
    serde_json::to_string(&record).expect("a record serializes") + "\n"
}

/// What one phase measured.
pub struct PhaseOut {
    /// Counts for the correctness gate.
    pub account: PhaseAccount,
    /// Every delivered report.
    pub verdicts: Vec<Verdict>,
    /// Open loop: per-report latency from the due time of the window's
    /// last log to delivery, ms.
    pub latencies_ms: Vec<f64>,
    /// Open loop: per-log lateness of the generator against its schedule, ms.
    pub lag_ms: Vec<f64>,
    /// First byte sent → `Daemon::drain` returned.
    pub wall: Duration,
    /// The daemon's final summary.
    pub summary: PipelineSummary,
    /// Client-side failures (I/O errors, missing summary frames).
    pub problems: Vec<String>,
}

struct ClientOut {
    /// Records the summary frame reports as accepted.
    acked: u64,
    /// Per-log lateness against the schedule (open loop), ms.
    lag_ms: Vec<f64>,
}

/// Runs one phase on a fresh daemon: start, stream `feed`, drain.
///
/// The load is one connection written from the calling thread: on a
/// 2-core host a second writer thread competes with the four detection
/// workers of `iid-model` and makes the latency tail track the host's
/// noise instead of the serving path.
pub fn run_phase<S>(
    w: Workload,
    feed: &Feed,
    served: &Served,
    scorer: S,
    mode: Loop,
    label: &str,
) -> PhaseOut
where
    S: SequenceScorer + Clone + 'static,
{
    let wal = w.durable().then(|| WalDir::new(label));
    let sink = StampSink::default();
    let daemon = start_daemon(served, scorer, sink.clone(), wal.as_ref());
    // One connection sends every tag in the global order, so each tag's
    // logs reach its partition in order and its verdicts are
    // deterministic.
    let lines: Vec<String> = feed
        .logs
        .iter()
        .map(|log| wire_line(&feed.tags[log.tag], log))
        .collect();
    let session = connect(daemon.addr());

    let spinners = matches!(mode, Loop::Open(_)).then(Spinners::start);
    let t0 = Instant::now();
    let out = session.and_then(|s| client(s, &lines, t0, mode));
    let (stats, summary) = daemon.drain_with_stats();
    let wall = t0.elapsed();
    if let Some(s) = spinners {
        s.stop();
    }
    drop(wal);
    crate::note(&format!(
        "{label}: {} logs in {:.3}s",
        feed.logs.len(),
        wall.as_secs_f64()
    ));

    let mut problems = Vec::new();
    let (acked, lag_ms) = match out {
        Ok(c) => (c.acked, c.lag_ms),
        Err(e) => {
            problems.push(format!("{label}: client failed: {e}"));
            (0, Vec::new())
        }
    };
    let account = PhaseAccount {
        sent: lines.len() as u64,
        acked,
        accepted: stats.accepted,
        refused: stats.rejected + stats.shed + stats.parse_errors,
        expected_windows: feed.expected_windows(),
        windows: summary.windows,
        buckets: [
            summary.pattern_hits,
            summary.cache_hits,
            summary.model_calls,
            summary.degraded,
            summary.shed,
            summary.quarantined,
        ],
    };

    let delivered = sink.take();
    let mut latencies_ms = Vec::new();
    if let Loop::Open(rate) = mode {
        for (at, v) in &delivered {
            match feed.window_last_log(&v.system, v.first_seq_no) {
                Some(i) => latencies_ms.push(((*at - t0).as_secs_f64() - due_secs(i, rate)) * 1e3),
                None => problems.push(format!(
                    "{label}: report ({}, {}) names no window of the input",
                    v.system, v.first_seq_no
                )),
            }
        }
    }
    PhaseOut {
        account,
        verdicts: delivered.into_iter().map(|(_, v)| v).collect(),
        latencies_ms,
        lag_ms,
        wall,
        summary,
        problems,
    }
}

/// `SCHED_IDLE` (Linux): the thread runs only when no other thread wants
/// the core, and any waking thread preempts it at once.
const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Idle-class threads that keep every core busy for the length of an
/// open-loop phase. A virtual CPU that halts when idle can take
/// milliseconds to be scheduled again on a busy host (1 ms sleeps on the
/// reference host overshoot by 1–3 ms at p99 and up to 0.4 s at worst),
/// which would make the latency tail measure the hypervisor instead of
/// the serving path. `SCHED_IDLE` spinners keep the cores awake and give
/// way to every serving thread the moment it wakes, as `idle=poll` would.
struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl Spinners {
    fn start() -> Self {
        let cores = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..cores)
            .map(|_| {
                let stop = stop.clone();
                thread::spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: `param` is a live, properly aligned
                    // `struct sched_param` for the duration of the call;
                    // pid 0 names the calling thread only.
                    let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
                    // At normal priority a spinner would compete with the
                    // daemon; without the idle class there is no spinning.
                    while idle && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Spinners { stop, threads }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads {
            t.join().expect("spinner thread panicked");
        }
    }
}

struct Session {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
}

/// Connects and authenticates.
fn connect(addr: SocketAddr) -> io::Result<Session> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::with_capacity(1 << 16, stream);
    writer.write_all(b"HELLO ledger-secret\n")?;
    writer.flush()?;
    let mut hello = String::new();
    reader.read_line(&mut hello)?;
    if !serde_json::from_str::<Frame>(&hello).is_ok_and(|f| f.ok) {
        return Err(io::Error::other(format!("auth refused: {}", hello.trim())));
    }
    Ok(Session { writer, reader })
}

/// Streams `lines` (line `i` is log `i` of the feed), then asks for the
/// connection summary and returns what it acknowledged.
fn client(session: Session, lines: &[String], t0: Instant, mode: Loop) -> io::Result<ClientOut> {
    let Session { mut writer, reader } = session;
    let mut lag_ms = Vec::new();
    match mode {
        Loop::Closed => {
            for line in lines {
                writer.write_all(line.as_bytes())?;
            }
        }
        Loop::Open(rate) => {
            lag_ms.reserve(lines.len());
            let mut next = 0;
            while next < lines.len() {
                // Everything due by now goes out in one write.
                let now = t0.elapsed().as_secs_f64();
                while next < lines.len() && due_secs(next, rate) <= now {
                    lag_ms.push((now - due_secs(next, rate)) * 1e3);
                    writer.write_all(lines[next].as_bytes())?;
                    next += 1;
                }
                writer.flush()?;
                // Wake at the next due time, but at most once per tick:
                // a wake-up per log would cost the two cores more than
                // the serving path under test. The lateness this adds is
                // counted, since latency is measured from the due time.
                if next < lines.len() {
                    let wake = due_secs(next, rate).max(now + OPEN_LOOP_TICK);
                    let now = t0.elapsed().as_secs_f64();
                    if wake > now {
                        thread::sleep(Duration::from_secs_f64(wake - now));
                    }
                }
            }
        }
    }
    writer.write_all(b"QUIT\n")?;
    writer.flush()?;
    let mut acked = None;
    for frame in reader.lines() {
        if let Ok(Frame {
            accepted: Some(n), ..
        }) = serde_json::from_str(&frame?)
        {
            acked = Some(n);
        }
    }
    let acked = acked.ok_or_else(|| io::Error::other("no summary frame"))?;
    Ok(ClientOut { acked, lag_ms })
}
