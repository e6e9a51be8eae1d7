//! The traced side of a run: a scorer wrapper that splits model time into
//! full-window scoring and leave-one-out culprit probes, and a
//! single-thread stage replay that times the calls into each layer's
//! public functions. All timing lives here, around the calls; the program
//! itself carries no extra spans.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use logsynergy::wal::{PartitionWal, WalConfig};
use logsynergy_ledger::{Feed, Verdict, WINDOW_LEN};
use logsynergy_pipeline::detect::{OnlineDetector, SequenceScorer};
use logsynergy_pipeline::{
    format_log, LogBuffer, MessagingSink, ModelScorer, PipelineConfig, RawLog, ReportSink,
};
use logsynergy_serve::proto::{parse_line, ClientLine};

use crate::serve::{verdict_of, wire_line};
use crate::{Served, WalDir, Workload};

/// Scorer time and volume, split by what the detector asked for.
#[derive(Default)]
pub struct ScoreTrace {
    model_calls: AtomicU64,
    model_windows: AtomicU64,
    model_ns: AtomicU64,
    culprit_windows: AtomicU64,
    culprit_ns: AtomicU64,
}

/// A plain-number copy of a [`ScoreTrace`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ScoreTotals {
    pub model_calls: f64,
    pub model_windows: f64,
    pub model_ns: f64,
    pub culprit_windows: f64,
    pub culprit_ns: f64,
}

impl ScoreTrace {
    pub fn load(&self) -> ScoreTotals {
        let f = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        ScoreTotals {
            model_calls: f(&self.model_calls),
            model_windows: f(&self.model_windows),
            model_ns: f(&self.model_ns),
            culprit_windows: f(&self.culprit_windows),
            culprit_ns: f(&self.culprit_ns),
        }
    }

    fn record(&self, windows: &[&[u32]], ns: u64) {
        // Full-length windows are verdict scoring; anything shorter is a
        // leave-one-out probe (an event id removed from a full window).
        let (count, time) = if windows.first().is_some_and(|w| w.len() == WINDOW_LEN) {
            self.model_calls.fetch_add(1, Ordering::Relaxed);
            (&self.model_windows, &self.model_ns)
        } else {
            (&self.culprit_windows, &self.culprit_ns)
        };
        count.fetch_add(windows.len() as u64, Ordering::Relaxed);
        time.fetch_add(ns, Ordering::Relaxed);
    }
}

/// [`ModelScorer`] with every call timed into a shared [`ScoreTrace`].
#[derive(Clone)]
pub struct TracedScorer {
    inner: ModelScorer,
    trace: Arc<ScoreTrace>,
}

impl TracedScorer {
    pub fn new(inner: ModelScorer, trace: Arc<ScoreTrace>) -> Self {
        TracedScorer { inner, trace }
    }
}

impl SequenceScorer for TracedScorer {
    fn score(&self, events: &[u32], table: &[Vec<f32>]) -> f32 {
        let t = Instant::now();
        let p = self.inner.score(events, table);
        self.trace.record(&[events], t.elapsed().as_nanos() as u64);
        p
    }

    fn score_batch(&self, windows: &[&[u32]], table: &[Vec<f32>]) -> Vec<f32> {
        let t = Instant::now();
        let out = self.inner.score_batch(windows, table);
        self.trace.record(windows, t.elapsed().as_nanos() as u64);
        out
    }

    fn tier_label(&self) -> &'static str {
        self.inner.tier_label()
    }
}

/// Stage times (ns) and counts of one replay.
#[derive(Default)]
pub struct Stages {
    pub logs: f64,
    pub windows: f64,
    pub reports: f64,
    pub parse_ns: f64,
    pub wal_ns: f64,
    pub wal_records: f64,
    pub buffer_ns: f64,
    pub format_ns: f64,
    /// Vectorizing every message on a separate clone: the estimate of the
    /// vectorizer's part of the detector's span.
    pub vectorize_ns: f64,
    pub new_template_ns: f64,
    pub new_templates: f64,
    /// `OnlineDetector::ingest_batch` spans, scorer included.
    pub detect_ns: f64,
    pub model_ns: f64,
    pub culprit_ns: f64,
    pub deliver_ns: f64,
    /// Replay wall time, less the separate vectorizer pass (which the
    /// serving path does not make).
    pub wall_ns: f64,
    pub verdicts: Vec<Verdict>,
}

impl Stages {
    /// The detector's own time: its span less the scorer and vectorizer.
    pub fn detect_self_ns(&self) -> f64 {
        (self.detect_ns - self.model_ns - self.culprit_ns - self.vectorize_ns).max(0.0)
    }

    /// Each layer's time, for shares of the serving wall time.
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("parse", self.parse_ns),
            ("wal", self.wal_ns),
            ("buffer", self.buffer_ns),
            ("format", self.format_ns),
            ("vectorize", self.vectorize_ns),
            ("detect", self.detect_self_ns()),
            ("model", self.model_ns),
            ("culprit", self.culprit_ns),
            ("deliver", self.deliver_ns),
        ]
    }

    /// Share of the serving wall time the timed calls cover.
    pub fn accounted_fraction(&self) -> f64 {
        let spans = self.parse_ns
            + self.wal_ns
            + self.buffer_ns
            + self.format_ns
            + self.detect_ns
            + self.deliver_ns;
        if self.wall_ns > 0.0 {
            spans / self.wall_ns
        } else {
            0.0
        }
    }
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Replays `feed` on one thread, tag by tag, through the stages a record
/// crosses in the daemon: wire parse, WAL group commit (durable workload
/// only), buffer hop, formatting, vectorizing, detection and delivery.
/// Batch sizes follow the daemon's defaults: ingest batches of 64, worker
/// bursts of `batch_windows × step` logs.
pub fn replay(w: Workload, feed: &Feed, served: &Served) -> Stages {
    let config = PipelineConfig::default();
    let ingest_batch = logsynergy_serve::ServeConfig::default().ingest_batch;
    let burst = config.batch_windows * logsynergy_ledger::WINDOW_STEP;
    let wal_dir = w.durable().then(|| WalDir::new("replay"));
    let trace = Arc::new(ScoreTrace::default());
    let mut st = Stages::default();
    let wire: Vec<Vec<String>> = (0..feed.tags.len())
        .map(|t| {
            feed.substream(t)
                .map(|l| wire_line(&feed.tags[t], l))
                .collect()
        })
        .collect();
    let start = Instant::now();
    for (t, lines) in wire.iter().enumerate() {
        let mut wal = wal_dir.as_ref().map(|d| {
            PartitionWal::open(&d.0.join(format!("p{t}")), WalConfig::default())
                .expect("replay WAL opens")
                .0
        });
        let buffer = LogBuffer::new(1, config.partition_capacity);
        let producer = buffer.producer();
        let mut consumer = buffer.partition_consumer(0);
        let mut probe = served.vectorizer.clone();
        let mut detector = OnlineDetector::new(
            served.vectorizer.clone(),
            TracedScorer::new(ModelScorer::shared(served.model.clone()), trace.clone()),
        )
        .with_cache_capacity(config.score_cache);
        let sink = MessagingSink::new();
        let mut reports = Vec::new();
        let mut seq = 0u64;
        for chunk in lines.chunks(burst) {
            let t0 = Instant::now();
            let raws: Vec<RawLog> = chunk
                .iter()
                .map(|l| match parse_line(l, "") {
                    Ok(ClientLine::Record(r)) => r,
                    other => panic!("replay line does not parse as a record: {other:?}"),
                })
                .collect();
            st.parse_ns += ns(t0);

            if let Some(wal) = wal.as_mut() {
                let t0 = Instant::now();
                for batch in raws.chunks(ingest_batch) {
                    let records: Vec<(&str, u64, &str)> = batch
                        .iter()
                        .map(|r| (r.system.as_str(), r.timestamp, r.message.as_str()))
                        .collect();
                    wal.append_batch(&records).expect("replay WAL append");
                }
                st.wal_ns += ns(t0);
                st.wal_records += raws.len() as f64;
            }

            let t0 = Instant::now();
            let n = raws.len();
            let mut it = raws.into_iter();
            loop {
                let batch: Vec<RawLog> = it.by_ref().take(ingest_batch).collect();
                if batch.is_empty() {
                    break;
                }
                producer.send_many_to(0, batch).expect("replay buffer open");
            }
            let got = consumer
                .recv_batch(n, Duration::ZERO)
                .expect("replay buffer has the burst");
            st.buffer_ns += ns(t0);
            assert_eq!(got.len(), n, "buffer hop lost records");

            let t0 = Instant::now();
            let structured: Vec<_> = got
                .iter()
                .enumerate()
                .map(|(k, r)| format_log(r, seq + k as u64))
                .collect();
            st.format_ns += ns(t0);
            seq += n as u64;

            for s in &structured {
                let before = probe.num_templates();
                let t0 = Instant::now();
                probe.ingest(&s.message);
                let dt = ns(t0);
                st.vectorize_ns += dt;
                if probe.num_templates() > before {
                    st.new_template_ns += dt;
                    st.new_templates += (probe.num_templates() - before) as f64;
                }
            }

            let t0 = Instant::now();
            detector.ingest_batch(structured, &mut reports);
            st.detect_ns += ns(t0);

            st.verdicts.extend(reports.iter().map(verdict_of));
            st.reports += reports.len() as f64;
            let t0 = Instant::now();
            for r in reports.drain(..) {
                sink.deliver(&r);
            }
            st.deliver_ns += ns(t0);
        }
        st.logs += seq as f64;
        st.windows += (detector.pattern_hits
            + detector.cache_hits
            + detector.model_calls
            + detector.degraded
            + detector.shed
            + detector.quarantined) as f64;
    }
    let totals = trace.load();
    st.model_ns = totals.model_ns;
    st.culprit_ns = totals.culprit_ns;
    st.wall_ns = ns(start) - st.vectorize_ns;
    st
}
