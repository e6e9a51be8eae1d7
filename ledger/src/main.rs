//! Wire-to-report ledger: the repository's end-to-end benchmark.
//!
//! One run trains a System B model, starts `logsynergy-serve` in-process,
//! streams a generated workload to it over TCP and timestamps every report
//! at the daemon's report sink. Each run has two phases on disjoint slices
//! of the same generated stream, each on a freshly started daemon:
//!
//! - **open loop**: the clients send on a fixed schedule (the workload's
//!   offered rate), and report latency is measured from the time the
//!   window's last log was *due*, so generator stalls count;
//! - **closed loop**: the clients write as fast as TCP backpressure lets
//!   them, and throughput is measured to the return of `Daemon::drain`.
//!
//! Every phase is checked against an in-process single-worker reference
//! (`run_pipeline_with(.., PipelineConfig::unbatched())`); a mismatch
//! fails the run. `--trace 1` makes a separate run that wraps the scorer,
//! replays the closed-loop inputs through each layer's public functions
//! on one thread, and prints per-layer metrics instead.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload iid-model --seed 1 --seconds 27 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object; a fuller record
//! with the host stamp goes to `ledger/out/`.

mod replay;
mod serve;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use logsynergy::api::Pipeline;
use logsynergy::model::LogSynergyModel;
use logsynergy_ledger::{
    median, percentiles, relabel, Confusion, Feed, FeedLog, Metric, ResultLine, Verdict,
};
use logsynergy_lei::LeiConfig;
use logsynergy_loggen::{datasets, LogRecord, SystemId};
use logsynergy_pipeline::{
    run_pipeline_with, EventVectorizer, MemorySink, ModelScorer, PipelineConfig, RawLog,
};
use logsynergy_telemetry as telemetry;
use serde::Serialize;

use serve::{Loop, PhaseOut};

/// Progress on standard error, stamped with seconds since the run began.
fn note(what: &str) {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let start = START.get_or_init(Instant::now);
    eprintln!(
        "ledger: [{:7.2}s] [peak {:6.1} MiB] {what}",
        start.elapsed().as_secs_f64(),
        peak_rss_mib()
    );
}

/// Output directory, relative to the repository root the benchmark runs from.
const OUT_DIR: &str = "ledger/out";
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Open-loop repetitions per untraced run (each on a fresh daemon, same
/// inputs); the latency metrics are medians of their percentiles.
const OPEN_REPS: usize = 5;
/// Closed-loop repetitions per untraced run; throughput is taken over all
/// of them.
const CLOSED_REPS: usize = 5;
/// Reference pipelines run concurrently after the measured phases.
const REFERENCE_THREADS: usize = 2;
/// Relabelling block for the 4-tag workload (a multiple of the window step).
const RELABEL_BLOCK: usize = 64;

/// The three traffic mixes. See `ledger/README.md` for why each exists.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Workload {
    IidModel,
    SessionsDurable,
    DriftStorm,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "iid-model" => Some(Workload::IidModel),
            "sessions-durable" => Some(Workload::SessionsDurable),
            "drift-storm" => Some(Workload::DriftStorm),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::IidModel => "iid-model",
            Workload::SessionsDurable => "sessions-durable",
            Workload::DriftStorm => "drift-storm",
        }
    }

    /// Open-loop offered rate, logs/s: at most about a quarter of the
    /// closed-loop capacity measured on a 2-core host, so the backlog does
    /// not grow and latency measures the serving path rather than queueing
    /// behind a noisy neighbour. The queue stretches every slowdown of the
    /// host by about `1 / (1 − load)`, and `drift-storm`, whose reports
    /// each cost about 0.5 ms of culprit probes, showed it most: it runs at
    /// about a seventh of its System C capacity.
    fn open_rate(self) -> f64 {
        match self {
            Workload::IidModel => 18_000.0,
            Workload::SessionsDurable => 30_000.0,
            Workload::DriftStorm => 1_500.0,
        }
    }

    /// Length of one open-loop repetition as a share of `--seconds`: long
    /// enough at the offered rate for over 1000 reports per repetition.
    fn open_share(self) -> f64 {
        match self {
            Workload::IidModel | Workload::SessionsDurable => 1.0 / 9.0,
            Workload::DriftStorm => 0.2,
        }
    }

    /// Closed-loop capacity on a 2-core host, logs/s: sizes the
    /// closed-loop input so a repetition takes about `seconds / 15`.
    fn capacity(self) -> f64 {
        match self {
            Workload::IidModel => 60_000.0,
            Workload::SessionsDurable => 125_000.0,
            Workload::DriftStorm => 10_000.0,
        }
    }

    /// Anomaly-burst boost of the live streams: enough anomalous windows
    /// that every open-loop repetition yields over 1000 reports, few
    /// enough that culprit probes stay a minor cost outside `drift-storm`.
    fn boost(self) -> f64 {
        match self {
            Workload::IidModel => 70.0,
            Workload::SessionsDurable | Workload::DriftStorm => 50.0,
        }
    }

    fn durable(self) -> bool {
        self == Workload::SessionsDurable
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value:?}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 1.0 && *s <= 600.0)
                        .ok_or_else(|| format!("bad --seconds {value:?} (1..=600)"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(27.0),
        trace: trace.unwrap_or(false),
    })
}

/// The trained model and the warm-started vectorizer every daemon and
/// reference run clones.
#[derive(Clone)]
pub struct Served {
    pub model: Arc<LogSynergyModel>,
    pub vectorizer: EventVectorizer,
}

/// Offline phase (fixed seeds, independent of the workload seed): the
/// Fig. 7 recipe at CPU scale — sources A and C, target System B.
fn train() -> Served {
    let scale = 0.02;
    let mut p = Pipeline::scaled();
    p.train_config.epochs = 4;
    p.train_config.n_source = 800;
    p.train_config.n_target = 200;
    let src_a = p.prepare(&datasets::system_a().generate_with(scale / 2.5, 4.0));
    let src_c = p.prepare(&datasets::system_c().generate_with(scale, 4.0));
    let history = datasets::system_b().generate_with(scale, 4.0);
    let target = p.prepare(&history);
    let (model, _) = p.fit(&[&src_a, &src_c], &target);
    let warm = &history.records[..p.train_config.n_target * 5 + 10];
    let mut vectorizer = EventVectorizer::new(
        SystemId::SystemB,
        p.model_config.embed_dim,
        LeiConfig::default(),
    );
    vectorizer.warm_start(warm.iter().map(|r| r.message.as_str()));
    Served {
        model: Arc::new(model),
        vectorizer,
    }
}

/// `n` live records of a dataset spec with its seed replaced by the
/// workload seed; `mean_run > 1` makes session-structured traffic.
fn live_records(
    spec: logsynergy_loggen::DatasetSpec,
    seed: u64,
    n: usize,
    boost: f64,
    mean_run: f64,
) -> Vec<LogRecord> {
    let mut spec = spec;
    spec.seed = seed;
    let scale = (n as f64 / spec.n_logs as f64).min(1.0);
    let ds = if mean_run > 1.0 {
        spec.generate_sessions(scale, boost, mean_run)
    } else {
        spec.generate_with(scale, boost)
    };
    let mut records = ds.records;
    assert!(
        records.len() >= n,
        "generator produced {} < {n} records",
        records.len()
    );
    records.truncate(n);
    records
}

fn feed_from(records: &[LogRecord], tags: &[String]) -> Feed {
    let logs = records
        .iter()
        .enumerate()
        .map(|(i, r)| FeedLog {
            tag: relabel(i, tags.len(), RELABEL_BLOCK),
            timestamp: r.timestamp,
            message: r.message.clone(),
            anomalous: r.anomalous,
        })
        .collect();
    Feed::new(tags.to_vec(), logs)
}

/// System tags that land on distinct partitions of the daemon's buffer.
fn spread_tags(n: usize, partitions: usize) -> Vec<String> {
    let probe = logsynergy_pipeline::LogBuffer::new(partitions, 1);
    let mut used = vec![false; partitions];
    let mut tags = Vec::new();
    let mut i = 0u32;
    while tags.len() < n {
        let tag = format!("sysb-{i}");
        let p = probe.partition_for(&tag);
        if !used[p] {
            used[p] = true;
            tags.push(tag);
        }
        i += 1;
    }
    tags
}

/// The two phases' inputs: disjoint slices of one generated stream.
fn make_feeds(w: Workload, seed: u64, n_open: usize, n_closed: usize) -> (Feed, Feed) {
    let n = n_open + n_closed;
    match w {
        Workload::IidModel => {
            let tags = spread_tags(4, PipelineConfig::default().partitions);
            let records = live_records(datasets::system_b(), seed, n, w.boost(), 1.0);
            let (a, b) = records.split_at(n_open);
            (feed_from(a, &tags), feed_from(b, &tags))
        }
        Workload::SessionsDurable => {
            let tags = vec!["sysb".to_string()];
            let records = live_records(datasets::system_b(), seed, n, w.boost(), 8.0);
            let (a, b) = records.split_at(n_open);
            (feed_from(a, &tags), feed_from(b, &tags))
        }
        Workload::DriftStorm => {
            // One tenant whose stream switches from System B to System C's
            // unseen syntax profile a quarter of the way through each phase.
            let tags = vec!["tenant".to_string()];
            let b_open = n_open / 4;
            let b_closed = n_closed / 4;
            let b = live_records(
                datasets::system_b(),
                seed,
                b_open + b_closed,
                w.boost(),
                1.0,
            );
            let c = live_records(
                datasets::system_c(),
                seed ^ 0xC0C0,
                (n_open - b_open) + (n_closed - b_closed),
                w.boost(),
                1.0,
            );
            let (b1, b2) = b.split_at(b_open);
            let (c1, c2) = c.split_at(n_open - b_open);
            let open: Vec<LogRecord> = b1.iter().chain(c1).cloned().collect();
            let closed: Vec<LogRecord> = b2.iter().chain(c2).cloned().collect();
            (feed_from(&open, &tags), feed_from(&closed, &tags))
        }
    }
}

/// The in-process single-worker reference for one tag: its substream
/// through its own unbatched pipeline (a tag owns one partition in the
/// daemon, so its verdicts depend on its substream alone).
fn reference(feed: &Feed, t: usize, served: &Served) -> Vec<Verdict> {
    let source: Vec<RawLog> = feed
        .substream(t)
        .map(|l| RawLog {
            system: feed.tags[t].clone(),
            timestamp: l.timestamp,
            message: l.message.clone(),
        })
        .collect();
    let sink = MemorySink::new();
    run_pipeline_with(
        source,
        served.vectorizer.clone(),
        ModelScorer::shared(served.model.clone()),
        sink.clone(),
        PipelineConfig::unbatched(),
    );
    sink.reports().iter().map(serve::verdict_of).collect()
}

/// References for every tag of every feed, two at a time. They run after
/// all measured phases, so they never overlap a measurement.
fn references(feeds: &[&Feed], served: &Served) -> Vec<Vec<Verdict>> {
    let jobs: Vec<(usize, usize)> = feeds
        .iter()
        .enumerate()
        .flat_map(|(f, feed)| (0..feed.tags.len()).map(move |t| (f, t)))
        .collect();
    let next = AtomicUsize::new(0);
    let results = Mutex::new(vec![Vec::new(); feeds.len()]);
    let (jobs_ref, next_ref, results_ref) = (&jobs, &next, &results);
    std::thread::scope(|s| {
        for _ in 0..REFERENCE_THREADS {
            // The vectorizer is not `Sync`: each thread clones its own.
            let served = served.clone();
            s.spawn(move || {
                while let Some(&(f, t)) = jobs_ref.get(next_ref.fetch_add(1, Ordering::Relaxed)) {
                    let verdicts = reference(feeds[f], t, &served);
                    results_ref.lock().expect("reference results lock")[f].extend(verdicts);
                }
            });
        }
    });
    results.into_inner().expect("reference results lock")
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Host, build and input stamp carried by every output file.
#[derive(Serialize)]
struct Stamp {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    host_cores: usize,
    simd_tier: String,
    rustc: String,
    commit: String,
    open_rate_logs_per_s: f64,
    open_secs: f64,
    open_logs: usize,
    closed_logs: usize,
    partitions: usize,
    durable: bool,
}

impl Stamp {
    fn new(args: &Args, n_open: usize, n_closed: usize, open_secs: f64) -> Self {
        Stamp {
            workload: args.workload.name().into(),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            host_cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            simd_tier: logsynergy_nn::kernels::simd_tier_name().into(),
            rustc: env!("LEDGER_RUSTC").into(),
            commit: env!("LEDGER_COMMIT").into(),
            open_rate_logs_per_s: args.workload.open_rate(),
            open_secs,
            open_logs: n_open,
            closed_logs: n_closed,
            partitions: PipelineConfig::default().partitions,
            durable: args.workload.durable(),
        }
    }
}

/// One phase's inputs and gate figures (of its first repetition; every
/// repetition must match the reference).
#[derive(Serialize)]
struct PhaseRecord {
    digest: String,
    sent: u64,
    windows: u64,
    reports: usize,
    anomalous_windows: usize,
    buckets: Vec<u64>,
}

/// The output file of a run.
#[derive(Serialize)]
struct Record {
    stamp: Stamp,
    correct: bool,
    problems: Vec<String>,
    metrics: BTreeMap<String, f64>,
    phases: BTreeMap<String, PhaseRecord>,
    /// The figures behind the metrics: per-repetition values, sample
    /// counts, layer shares.
    details: BTreeMap<String, Vec<f64>>,
}

fn write_output(args: &Args, record: &Record) {
    let path = Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let text = serde_json::to_string_pretty(record).expect("the record serializes");
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, text + "\n"));
    if let Err(e) = written {
        eprintln!("ledger: could not write {}: {e}", path.display());
    }
}

/// A scratch directory for one daemon's write-ahead log, under the
/// benchmark's own output directory; removed by [`WalDir::drop`].
pub struct WalDir(pub PathBuf);

impl WalDir {
    fn new(label: &str) -> Self {
        let dir = Path::new(OUT_DIR).join(format!("wal-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        WalDir(dir)
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            eprintln!("usage: --workload <iid-model|sessions-durable|drift-storm> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    note(&format!(
        "{} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let w = args.workload;
    // Five closed-loop repetitions (at the reference host's capacity) take
    // a third of the measured time; the open loop's five repetitions take
    // 5/9 of it, or the whole of it on `drift-storm`.
    let open_secs = args.seconds * w.open_share();
    let n_open = (w.open_rate() * open_secs) as usize;
    let n_closed = (w.capacity() * args.seconds / 15.0) as usize;
    let (open_feed, closed_feed) = make_feeds(w, args.seed, n_open, n_closed);
    let stamp = Stamp::new(&args, n_open, n_closed, open_secs);
    note(&format!(
        "generated {n_open} open-loop and {n_closed} closed-loop logs"
    ));

    let outcome = if args.trace {
        traced_run(&args, &open_feed, &closed_feed)
    } else {
        untraced_run(&args, &open_feed, &closed_feed)
    };
    for m in &outcome.metrics {
        eprintln!("ledger: {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for p in &outcome.problems {
        eprintln!("ledger: CHECK FAILED: {p}");
    }
    let line = ResultLine::new(
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        &outcome.metrics,
    );
    let record = Record {
        stamp,
        correct: outcome.correct,
        metrics: outcome
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.value))
            .collect(),
        problems: outcome.problems,
        phases: outcome.phases,
        details: outcome.details,
    };
    write_output(&args, &record);
    println!(
        "{}",
        serde_json::to_string(&line).expect("the result line serializes")
    );
    ExitCode::SUCCESS
}

/// What a run prints and records.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    problems: Vec<String>,
    phases: BTreeMap<String, PhaseRecord>,
    details: BTreeMap<String, Vec<f64>>,
}

/// Gates every repetition of every phase against the phase's reference;
/// returns the phases' records.
fn check_phases(
    phases: &[(&str, &Feed, Vec<&PhaseOut>)],
    served: &Served,
    problems: &mut Vec<String>,
) -> BTreeMap<String, PhaseRecord> {
    let feeds: Vec<&Feed> = phases.iter().map(|p| p.1).collect();
    let refs = references(&feeds, served);
    note("references done");
    let mut records = BTreeMap::new();
    for ((name, feed, reps), reference) in phases.iter().zip(&refs) {
        for (i, out) in reps.iter().enumerate() {
            problems.extend(out.problems.iter().cloned());
            let label = format!("{name} #{}", i + 1);
            match logsynergy_ledger::gate(&label, &out.account, &out.verdicts, reference) {
                Ok(digest) => note(&format!(
                    "{label}: verdict digest {digest:016x} ({} reports) equals the reference",
                    out.verdicts.len()
                )),
                Err(found) => problems.extend(found),
            }
        }
        let first = reps[0];
        let record = PhaseRecord {
            digest: format!("{:016x}", logsynergy_ledger::digest(&first.verdicts)),
            sent: first.account.sent,
            windows: first.account.windows,
            reports: first.verdicts.len(),
            anomalous_windows: feed.window_labels().values().filter(|&&a| a).count(),
            buckets: first.account.buckets.to_vec(),
        };
        records.insert(name.to_string(), record);
    }
    records
}

/// Records sent plus windows assembled, and the failed part of them:
/// refused records and windows that got no verdict.
fn operations(phases: &[&PhaseOut]) -> (u64, u64) {
    let attempted = phases
        .iter()
        .map(|p| p.account.sent + p.account.windows)
        .sum();
    let failed = phases
        .iter()
        .map(|p| p.account.refused + p.account.failed_windows())
        .sum();
    (attempted, failed)
}

fn throughput(p: &PhaseOut) -> f64 {
    p.account.sent as f64 / p.wall.as_secs_f64()
}

/// One set-up as `setup_s` times it: train, warm-start the vectorizer,
/// start the daemon. The daemon is then drained, untimed.
fn setup(w: Workload, label: &str) -> (Served, f64) {
    let t0 = Instant::now();
    let served = train();
    let wal = w.durable().then(|| WalDir::new(label));
    let daemon = serve::start_daemon(
        &served,
        ModelScorer::shared(served.model.clone()),
        serve::StampSink::default(),
        wal.as_ref(),
    );
    let secs = t0.elapsed().as_secs_f64();
    daemon.drain();
    (served, secs)
}

fn untraced_run(args: &Args, open_feed: &Feed, closed_feed: &Feed) -> Outcome {
    let w = args.workload;
    let (served, first_setup) = setup(w, "setup1");
    let mut setups = vec![first_setup];
    let phase = |feed: &Feed, mode: Loop, label: &str| {
        serve::run_phase(
            w,
            feed,
            &served,
            ModelScorer::shared(served.model.clone()),
            mode,
            label,
        )
    };
    // Peak memory is read after the first set-up and the first closed-loop
    // daemon lifecycle at full load, which is what one serving process
    // goes through. Every further daemon started in this process raises
    // the peak again on `drift-storm` (about 100 MiB per closed-loop
    // lifecycle): the allocator's per-thread arenas keep what earlier
    // daemons' threads freed (with `MALLOC_ARENA_MAX=1` the peak stays
    // flat). The final peak goes to the output file as
    // `peak_rss_final_mb`, and the traced run reports the growth per
    // lifecycle as `memory.hwm_growth_mb_per_lifecycle`.
    let mut closed = vec![phase(closed_feed, Loop::Closed, "closed")];
    let peak_rss = peak_rss_mib();
    // The remaining repetitions and set-ups alternate, so that a slow
    // stretch of the host lands on every metric's repetitions alike
    // instead of on one metric's.
    let mut open = Vec::with_capacity(OPEN_REPS);
    while open.len() < OPEN_REPS {
        open.push(phase(open_feed, Loop::Open(w.open_rate()), "open"));
        if closed.len() < CLOSED_REPS {
            closed.push(phase(closed_feed, Loop::Closed, "closed"));
        }
        if setups.len() < SETUPS {
            setups.push(setup(w, &format!("setup{}", setups.len() + 1)).1);
        }
    }
    note(&format!("{} setups done", setups.len()));
    let peak_rss_final = peak_rss_mib();

    let mut problems = Vec::new();
    let phases = check_phases(
        &[
            ("open", open_feed, open.iter().collect()),
            ("closed", closed_feed, closed.iter().collect()),
        ],
        &served,
        &mut problems,
    );

    // Latency: each repetition's percentiles, then their medians.
    let lats: Vec<_> = open.iter().map(|o| percentiles(&o.latencies_ms)).collect();
    for (i, lat) in lats.iter().enumerate() {
        if lat.n < 1000 {
            problems.push(format!(
                "open #{}: only {} reports, p99 needs at least 1000",
                i + 1,
                lat.n
            ));
        }
    }
    let p50s: Vec<f64> = lats.iter().map(|l| l.p50).collect();
    let p99s: Vec<f64> = lats.iter().map(|l| l.p99).collect();
    let tputs: Vec<f64> = closed.iter().map(throughput).collect();
    // Over all closed-loop repetitions: records accepted ÷ their summed
    // wall time.
    let sent: u64 = closed.iter().map(|p| p.account.sent).sum();
    let wall: f64 = closed.iter().map(|p| p.wall.as_secs_f64()).sum();
    let details = BTreeMap::from([
        (
            "open_latency_samples".into(),
            lats.iter().map(|l| l.n as f64).collect(),
        ),
        (
            "open_latency_beyond_p99".into(),
            lats.iter().map(|l| l.beyond_p99 as f64).collect(),
        ),
        ("open_p50_ms_reps".into(), p50s.clone()),
        ("open_p99_ms_reps".into(), p99s.clone()),
        ("closed_throughput_reps".into(), tputs.clone()),
        ("setup_runs_s".into(), setups.clone()),
        ("peak_rss_final_mb".into(), vec![peak_rss_final]),
    ]);

    // Every repetition passed the gate, so the first one stands for all.
    let mut confusion = Confusion::default();
    for (feed, out) in [(open_feed, &open[0]), (closed_feed, &closed[0])] {
        let predicted: Vec<(usize, u64)> = out
            .verdicts
            .iter()
            .filter_map(|v| Some((feed.tag_index(&v.system)?, v.first_seq_no)))
            .collect();
        confusion.add(&feed.window_labels(), &predicted);
    }

    let all: Vec<&PhaseOut> = open.iter().chain(&closed).collect();
    let (attempted, failed) = operations(&all);
    let correct = problems.is_empty();
    let failed_fraction = if correct {
        failed as f64 / attempted.max(1) as f64
    } else {
        1.0
    };
    Outcome {
        correct,
        attempted,
        failed,
        metrics: vec![
            Metric {
                name: "setup_s",
                value: median(&setups),
                unit: "s",
            },
            Metric {
                name: "throughput_logs_per_s",
                value: sent as f64 / wall,
                unit: "logs/s",
            },
            Metric {
                name: "report_latency_p50_ms",
                value: median(&p50s),
                unit: "ms",
            },
            Metric {
                name: "report_latency_p99_ms",
                value: median(&p99s),
                unit: "ms",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss,
                unit: "MiB",
            },
            Metric {
                name: "ok_fraction",
                value: 1.0 - failed_fraction,
                unit: "ratio",
            },
            Metric {
                name: "f1",
                value: confusion.f1(),
                unit: "ratio",
            },
        ],
        problems,
        phases,
        details,
    }
}

fn traced_run(args: &Args, open_feed: &Feed, closed_feed: &Feed) -> Outcome {
    let w = args.workload;
    let served = train();
    note("setup done");
    let mut problems = Vec::new();

    // Open loop, traced: generator lag and queue depth under the schedule.
    let open_trace = Arc::new(replay::ScoreTrace::default());
    telemetry::global().reset();
    let open = serve::run_phase(
        w,
        open_feed,
        &served,
        replay::TracedScorer::new(ModelScorer::shared(served.model.clone()), open_trace),
        Loop::Open(w.open_rate()),
        "open",
    );
    let open_snap = telemetry::global().snapshot();

    // Closed loop twice on the same inputs: untraced, then traced. The
    // throughput difference is the tracing overhead, and the rise of the
    // peak resident set across the second one is what one more daemon
    // lifecycle in the same process adds.
    let plain = serve::run_phase(
        w,
        closed_feed,
        &served,
        ModelScorer::shared(served.model.clone()),
        Loop::Closed,
        "closed",
    );
    let hwm_before = peak_rss_mib();
    let trace = Arc::new(replay::ScoreTrace::default());
    telemetry::global().reset();
    let traced = serve::run_phase(
        w,
        closed_feed,
        &served,
        replay::TracedScorer::new(ModelScorer::shared(served.model.clone()), trace.clone()),
        Loop::Closed,
        "closed",
    );
    let snap = telemetry::global().snapshot();
    let hwm_growth = peak_rss_mib() - hwm_before;

    // Single-thread stage replay of the closed-loop inputs.
    let stages = replay::replay(w, closed_feed, &served);
    note("stage replay done");
    let phases = check_phases(
        &[
            ("open", open_feed, vec![&open]),
            ("closed", closed_feed, vec![&plain, &traced]),
        ],
        &served,
        &mut problems,
    );
    if logsynergy_ledger::digest(&stages.verdicts) != logsynergy_ledger::digest(&traced.verdicts) {
        problems.push("replay: stage replay verdicts differ from the daemon's".into());
    }

    let tput = throughput;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1) as f64;
    let s = &traced.summary;
    let reports = traced.verdicts.len().max(1) as f64;
    let t = trace.load();
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let wal_records = snap.counter("wal.records") as f64;
    let lag = percentiles(if open.lag_ms.is_empty() {
        &[0.0]
    } else {
        &open.lag_ms
    });
    let metrics = vec![
        Metric {
            name: "serve.parse_ns_per_line",
            value: per(stages.parse_ns, stages.logs),
            unit: "ns",
        },
        Metric {
            name: "serve.enqueue_p99_us",
            value: hist_p99(&snap, "ingest.latency_us"),
            unit: "us",
        },
        Metric {
            name: "serve.refused",
            value: (traced.account.refused + open.account.refused) as f64,
            unit: "count",
        },
        Metric {
            name: "wal.append_ns_per_record",
            value: per(stages.wal_ns, stages.wal_records),
            unit: "ns",
        },
        Metric {
            name: "wal.records_per_flush",
            value: per(wal_records, snap.counter("wal.batches") as f64),
            unit: "count",
        },
        Metric {
            name: "wal.bytes_per_record",
            value: per(snap.counter("wal.bytes") as f64, wal_records),
            unit: "bytes",
        },
        Metric {
            name: "buffer.hop_ns_per_record",
            value: per(stages.buffer_ns, stages.logs),
            unit: "ns",
        },
        Metric {
            name: "buffer.queue_depth_p99",
            value: hist_p99(&open_snap, "pipeline.queue.depth"),
            unit: "count",
        },
        Metric {
            name: "record.format_ns_per_log",
            value: per(stages.format_ns, stages.logs),
            unit: "ns",
        },
        Metric {
            name: "vectorizer.ns_per_log",
            value: per(stages.vectorize_ns, stages.logs),
            unit: "ns",
        },
        Metric {
            name: "vectorizer.new_templates",
            value: s.new_templates as f64,
            unit: "count",
        },
        Metric {
            name: "vectorizer.ns_per_new_template",
            value: per(stages.new_template_ns, stages.new_templates),
            unit: "ns",
        },
        Metric {
            name: "detect.self_ns_per_window",
            value: per(stages.detect_self_ns(), stages.windows),
            unit: "ns",
        },
        Metric {
            name: "patterns.hit_ratio",
            value: per(s.pattern_hits as f64, s.windows as f64),
            unit: "ratio",
        },
        Metric {
            name: "cache.hit_ratio",
            value: per(s.cache_hits as f64, (s.windows - s.pattern_hits) as f64),
            unit: "ratio",
        },
        Metric {
            name: "model.forward_ns_per_window",
            value: per(t.model_ns, t.model_windows),
            unit: "ns",
        },
        Metric {
            name: "model.windows_per_call",
            value: per(t.model_windows, t.model_calls),
            unit: "count",
        },
        Metric {
            name: "model.busy_fraction",
            value: t.model_ns / (traced.wall.as_secs_f64() * 1e9 * cores),
            unit: "ratio",
        },
        Metric {
            name: "culprit.probes_per_report",
            value: t.culprit_windows / reports,
            unit: "count",
        },
        Metric {
            name: "culprit.ns_per_report",
            value: t.culprit_ns / reports,
            unit: "ns",
        },
        Metric {
            name: "report.count",
            value: traced.verdicts.len() as f64,
            unit: "count",
        },
        Metric {
            name: "report.deliver_ns",
            value: per(stages.deliver_ns, stages.reports),
            unit: "ns",
        },
        Metric {
            name: "loadgen.lag_p99_ms",
            value: lag.p99,
            unit: "ms",
        },
        Metric {
            name: "memory.hwm_growth_mb_per_lifecycle",
            value: hwm_growth,
            unit: "MiB",
        },
        Metric {
            name: "trace.accounted_fraction",
            value: stages.accounted_fraction(),
            unit: "ratio",
        },
        Metric {
            name: "trace.overhead_fraction",
            value: 1.0 - tput(&traced) / tput(&plain),
            unit: "ratio",
        },
    ];
    // Layer shares of the replay's wall time, for the README's predictions.
    let mut details: BTreeMap<String, Vec<f64>> = stages
        .shares()
        .into_iter()
        .map(|(name, ns)| (format!("share.{name}"), vec![ns / stages.wall_ns]))
        .collect();
    details.insert("throughput_untraced_logs_per_s".into(), vec![tput(&plain)]);
    details.insert("throughput_traced_logs_per_s".into(), vec![tput(&traced)]);

    let (attempted, failed) = operations(&[&open, &plain, &traced]);
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
        phases,
        details,
    }
}

fn hist_p99(snap: &telemetry::Snapshot, name: &str) -> f64 {
    snap.histograms
        .get(name)
        .map(|h| h.p99 as f64)
        .unwrap_or(0.0)
}
