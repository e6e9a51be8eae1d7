//! Pure logic of the wire-to-report ledger: the generated feed and its
//! send schedule, the report → window → due-time mapping, latency
//! percentiles, window-level F1, the verdict digest, and the correctness
//! gate. Everything here is deterministic and unit-tested; `main.rs` owns
//! the sockets, threads and clocks.

use std::collections::BTreeMap;

use serde::Serialize;

/// Window geometry of the serving detector (the paper's 10/5).
pub const WINDOW_LEN: usize = 10;
/// Window step of the serving detector.
pub const WINDOW_STEP: usize = 5;

/// One generated log, in global send order.
#[derive(Clone, Debug, PartialEq)]
pub struct FeedLog {
    /// Index into [`Feed::tags`].
    pub tag: usize,
    /// Generator timestamp.
    pub timestamp: u64,
    /// Raw message text.
    pub message: String,
    /// loggen's per-log ground-truth label.
    pub anomalous: bool,
}

/// A phase's input: logs in global send order, each owned by one system
/// tag. Every tag's logs travel on one connection, so they arrive in
/// order.
#[derive(Clone, Debug)]
pub struct Feed {
    /// System tags (the `system` field on the wire).
    pub tags: Vec<String>,
    /// Logs in global send order.
    pub logs: Vec<FeedLog>,
    /// `positions[t][k]` = global index of tag `t`'s `k`-th log, which is
    /// the log the serving worker numbers `seq_no = k`.
    positions: Vec<Vec<usize>>,
}

impl Feed {
    /// Builds a feed and its per-tag position index.
    pub fn new(tags: Vec<String>, logs: Vec<FeedLog>) -> Self {
        let mut positions = vec![Vec::new(); tags.len()];
        for (i, log) in logs.iter().enumerate() {
            positions[log.tag].push(i);
        }
        Feed {
            tags,
            logs,
            positions,
        }
    }

    /// Tag index of a system name.
    pub fn tag_index(&self, system: &str) -> Option<usize> {
        self.tags.iter().position(|t| t == system)
    }

    /// Tag `t`'s logs in order (the substream its partition sees).
    pub fn substream(&self, t: usize) -> impl Iterator<Item = &FeedLog> + '_ {
        self.positions[t].iter().map(move |&i| &self.logs[i])
    }

    /// Global index of the last log of the window a report names by its
    /// `(system, first_seq_no)`; `None` if the window does not exist.
    pub fn window_last_log(&self, system: &str, first_seq_no: u64) -> Option<usize> {
        let t = self.tag_index(system)?;
        let k = usize::try_from(first_seq_no).ok()? + WINDOW_LEN - 1;
        self.positions[t].get(k).copied()
    }

    /// Windows the detector assembles over every tag's substream.
    pub fn expected_windows(&self) -> u64 {
        self.positions
            .iter()
            .map(|p| windows_in(p.len()) as u64)
            .sum()
    }

    /// Per-window ground truth for every tag: `(tag, first_seq_no) →
    /// any log in the window is anomalous`.
    pub fn window_labels(&self) -> BTreeMap<(usize, u64), bool> {
        let mut out = BTreeMap::new();
        for t in 0..self.tags.len() {
            let labels: Vec<bool> = self.substream(t).map(|l| l.anomalous).collect();
            for w in 0..windows_in(labels.len()) {
                let start = w * WINDOW_STEP;
                let any = labels[start..start + WINDOW_LEN].iter().any(|&a| a);
                out.insert((t, start as u64), any);
            }
        }
        out
    }
}

/// Windows the detector emits over `n` logs: the first completes at the
/// `WINDOW_LEN`-th log, then one every `WINDOW_STEP` logs.
pub fn windows_in(n: usize) -> usize {
    if n < WINDOW_LEN {
        0
    } else {
        (n - WINDOW_LEN) / WINDOW_STEP + 1
    }
}

/// Block relabelling: log `i` of a single-system stream goes to tag
/// `(i / block) % tags`. Blocks keep anomaly bursts (2–6 lines) on one
/// tag except where a burst straddles a block edge.
pub fn relabel(i: usize, tags: usize, block: usize) -> usize {
    (i / block) % tags
}

/// Open-loop schedule: log `i` of the global order is due `i / rate`
/// seconds after the phase starts.
pub fn due_secs(i: usize, rate: f64) -> f64 {
    i as f64 / rate
}

/// The compact identity of a delivered report: what the gate compares.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Verdict {
    /// Originating system tag.
    pub system: String,
    /// Sequence number (within the tag's partition) of the window's first log.
    pub first_seq_no: u64,
    /// Bits of the model probability.
    pub probability_bits: u32,
    /// Culprit interpretation, if any.
    pub culprit: Option<String>,
}

/// FNV-1a digest of a verdict list, order-independent (sorted first).
pub fn digest(verdicts: &[Verdict]) -> u64 {
    let mut sorted: Vec<&Verdict> = verdicts.iter().collect();
    sorted.sort();
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for v in sorted {
        eat(v.system.as_bytes());
        eat(&[0]);
        eat(&v.first_seq_no.to_le_bytes());
        eat(&v.probability_bits.to_le_bytes());
        match &v.culprit {
            Some(c) => {
                eat(&[1]);
                eat(c.as_bytes());
            }
            None => eat(&[2]),
        }
        eat(&[0xff]);
    }
    h
}

/// Latency summary of one phase: nearest-rank percentiles plus the
/// sample count and how many samples lie strictly beyond p99.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentiles {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Samples strictly greater than `p99`.
    pub beyond_p99: usize,
}

/// Nearest-rank percentile `q` (0..=1) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// p50/p99 of a sample (any order), with its count.
pub fn percentiles(samples: &[f64]) -> Percentiles {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let p99 = percentile(&s, 0.99);
    Percentiles {
        n: s.len(),
        p50: percentile(&s, 0.50),
        p99,
        beyond_p99: s.iter().filter(|&&x| x > p99).count(),
    }
}

/// Median of a sample (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Window-level confusion counts of delivered reports against ground-truth
/// window labels. A report is a positive prediction for its window; a
/// window with no report is a negative one. Reports naming windows that
/// do not exist count as false positives.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Confusion {
    /// Reported windows labelled anomalous.
    pub tp: u64,
    /// Reported windows labelled normal (or unknown).
    pub fp: u64,
    /// Anomalous windows with no report.
    pub fn_: u64,
}

impl Confusion {
    /// Adds one phase: its window labels and the `(tag, first_seq_no)`
    /// of every report delivered in it.
    pub fn add(&mut self, labels: &BTreeMap<(usize, u64), bool>, predicted: &[(usize, u64)]) {
        let mut flagged = std::collections::BTreeSet::new();
        let mut tp = 0u64;
        for &key in predicted {
            if !flagged.insert(key) {
                continue;
            }
            match labels.get(&key) {
                Some(true) => tp += 1,
                _ => self.fp += 1,
            }
        }
        self.tp += tp;
        self.fn_ += labels.values().filter(|&&a| a).count() as u64 - tp;
    }

    /// F1 score (0 when nothing was found).
    pub fn f1(&self) -> f64 {
        if self.tp == 0 {
            return 0.0;
        }
        2.0 * self.tp as f64 / (2 * self.tp + self.fp + self.fn_) as f64
    }
}

/// [`Confusion::f1`] of a single phase.
pub fn window_f1(labels: &BTreeMap<(usize, u64), bool>, predicted: &[(usize, u64)]) -> f64 {
    let mut c = Confusion::default();
    c.add(labels, predicted);
    c.f1()
}

/// Everything the correctness gate checks after a phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseAccount {
    /// Records written by the clients.
    pub sent: u64,
    /// Records the daemon acknowledged (sum of the connection summaries).
    pub acked: u64,
    /// The daemon's own accepted total.
    pub accepted: u64,
    /// Records refused with 400/429/503.
    pub refused: u64,
    /// Windows the inputs produce.
    pub expected_windows: u64,
    /// Summary: windows assembled.
    pub windows: u64,
    /// Summary: the six buckets (pattern, cache, model, degraded, shed,
    /// quarantined).
    pub buckets: [u64; 6],
}

impl PhaseAccount {
    /// Windows that got no verdict: degraded + shed + quarantined.
    pub fn failed_windows(&self) -> u64 {
        self.buckets[3] + self.buckets[4] + self.buckets[5]
    }
}

/// The correctness gate of one phase: verdicts equal the single-worker
/// reference, the six buckets sum to the windows the inputs produce, and
/// every record sent was accepted. Returns every failure found.
pub fn gate(
    phase: &str,
    account: &PhaseAccount,
    wire: &[Verdict],
    reference: &[Verdict],
) -> Result<u64, Vec<String>> {
    let mut problems = Vec::new();
    let (dw, dr) = (digest(wire), digest(reference));
    if dw != dr || wire.len() != reference.len() {
        problems.push(format!(
            "{phase}: verdict digest {dw:016x} ({} reports) != reference {dr:016x} ({} reports)",
            wire.len(),
            reference.len()
        ));
    }
    let bucket_sum: u64 = account.buckets.iter().sum();
    if bucket_sum != account.windows || account.windows != account.expected_windows {
        problems.push(format!(
            "{phase}: buckets sum to {bucket_sum}, summary has {} windows, inputs make {}",
            account.windows, account.expected_windows
        ));
    }
    if account.accepted != account.sent || account.acked != account.sent {
        problems.push(format!(
            "{phase}: sent {} records, connections acked {}, daemon accepted {}",
            account.sent, account.acked, account.accepted
        ));
    }
    if problems.is_empty() {
        Ok(dw)
    } else {
        Err(problems)
    }
}

/// One metric of a run, as listed in `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A metric's value and unit in the result line.
#[derive(Clone, Debug, Serialize)]
pub struct Measured {
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// The last line of standard output.
#[derive(Clone, Debug, Serialize)]
pub struct ResultLine {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted (at least 1).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Measured>,
}

impl ResultLine {
    /// A run that failed its gate reports every one of its operations as
    /// failed.
    pub fn new(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> Self {
        let attempted = attempted.max(1);
        ResultLine {
            correct,
            attempted,
            failed: if correct { failed } else { attempted },
            metrics: metrics
                .iter()
                .map(|m| {
                    let measured = Measured {
                        value: m.value,
                        unit: m.unit.to_string(),
                    };
                    (m.name.to_string(), measured)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(tag: usize, anomalous: bool) -> FeedLog {
        FeedLog {
            tag,
            timestamp: 0,
            message: "m".into(),
            anomalous,
        }
    }

    fn four_tag_feed(n: usize, block: usize) -> Feed {
        let tags: Vec<String> = (0..4).map(|t| format!("b-{t}")).collect();
        let logs = (0..n).map(|i| log(relabel(i, 4, block), false)).collect();
        Feed::new(tags, logs)
    }

    #[test]
    fn report_maps_to_its_window_last_log_through_the_relabelling() {
        // Blocks of 3 over 4 tags: tag 1 owns global indices 3,4,5, 15,16,17, 27,...
        let feed = four_tag_feed(200, 3);
        let tag1: Vec<usize> = (0..200).filter(|&i| relabel(i, 4, 3) == 1).collect();
        assert_eq!(&tag1[..6], &[3, 4, 5, 15, 16, 17]);
        // first_seq_no 0 → tag 1's 10th log; first_seq_no 5 → its 15th.
        assert_eq!(feed.window_last_log("b-1", 0), Some(tag1[9]));
        assert_eq!(feed.window_last_log("b-1", 5), Some(tag1[14]));
        assert_eq!(tag1[9], 39); // block 13 (= 4*3 + 1) starts at 39
                                 // Due time follows the global index, not the per-tag sequence.
        let rate = 1000.0;
        let due = due_secs(feed.window_last_log("b-1", 0).unwrap(), rate);
        assert!((due - 0.039).abs() < 1e-12);
        // Unknown tag or a window past the end maps to nothing.
        assert_eq!(feed.window_last_log("b-9", 0), None);
        assert_eq!(feed.window_last_log("b-1", 45), None);
    }

    #[test]
    fn each_tag_substream_is_in_send_order() {
        let feed = four_tag_feed(64, 4);
        for t in 0..4 {
            let idx: Vec<usize> = feed.positions[t].clone();
            assert!(idx.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(idx.len(), 16);
        }
        assert_eq!(feed.expected_windows(), 4 * windows_in(16) as u64);
    }

    #[test]
    fn window_counts_follow_the_detector_geometry() {
        assert_eq!(windows_in(9), 0);
        assert_eq!(windows_in(10), 1);
        assert_eq!(windows_in(14), 1);
        assert_eq!(windows_in(15), 2);
        assert_eq!(windows_in(100), 19);
    }

    #[test]
    fn percentiles_are_nearest_rank_with_counts() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p = percentiles(&samples);
        assert_eq!(p.n, 1000);
        assert_eq!(p.p50, 500.0);
        assert_eq!(p.p99, 990.0);
        // 1000 samples put exactly 10 beyond p99.
        assert_eq!(p.beyond_p99, 10);
        let small = percentiles(&[3.0, 1.0, 2.0]);
        assert_eq!((small.p50, small.p99, small.beyond_p99), (2.0, 3.0, 0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn window_f1_scores_reports_against_labels() {
        // One tag, 30 logs → windows at 0, 5, 10, 15, 20; log 12 anomalous
        // marks windows 5 and 10 positive.
        let logs = (0..30).map(|i| log(0, i == 12)).collect();
        let feed = Feed::new(vec!["b".into()], logs);
        let labels = feed.window_labels();
        assert_eq!(labels.len(), 5);
        assert_eq!(labels.values().filter(|&&a| a).count(), 2);
        assert_eq!(window_f1(&labels, &[(0, 5), (0, 10)]), 1.0);
        // tp 1, fp 1 (window 0), fn 1 (window 10) → 2/(2+1+1).
        assert_eq!(window_f1(&labels, &[(0, 5), (0, 0)]), 0.5);
        // Duplicates count once; a window that does not exist is a false positive.
        assert_eq!(window_f1(&labels, &[(0, 5), (0, 5), (0, 10), (0, 99)]), 0.8);
        assert_eq!(window_f1(&labels, &[]), 0.0);
        // Phases accumulate counts before the ratio is taken.
        let mut c = Confusion::default();
        c.add(&labels, &[(0, 5)]);
        c.add(&labels, &[(0, 0), (0, 10)]);
        assert_eq!(
            c,
            Confusion {
                tp: 2,
                fp: 1,
                fn_: 2
            }
        );
        assert_eq!(c.f1(), 4.0 / 7.0);
    }

    fn verdict(seq: u64, p: f32) -> Verdict {
        Verdict {
            system: "b".into(),
            first_seq_no: seq,
            probability_bits: p.to_bits(),
            culprit: Some("disk failure".into()),
        }
    }

    fn clean_account() -> PhaseAccount {
        PhaseAccount {
            sent: 100,
            acked: 100,
            accepted: 100,
            refused: 0,
            expected_windows: 19,
            windows: 19,
            buckets: [10, 0, 9, 0, 0, 0],
        }
    }

    #[test]
    fn digest_is_order_independent_and_bit_exact() {
        let a = vec![verdict(0, 0.9), verdict(5, 0.8)];
        let b = vec![verdict(5, 0.8), verdict(0, 0.9)];
        assert_eq!(digest(&a), digest(&b));
        let c = vec![
            verdict(0, 0.9),
            verdict(5, f32::from_bits(0.8f32.to_bits() + 1)),
        ];
        assert_ne!(digest(&a), digest(&c));
    }

    #[test]
    fn a_digest_mismatch_fails_the_run() {
        let reference = vec![verdict(0, 0.9), verdict(5, 0.8)];
        let account = clean_account();
        assert!(gate("open", &account, &reference, &reference).is_ok());
        // One probability bit off.
        let wire = vec![
            verdict(0, 0.9),
            verdict(5, f32::from_bits(0.8f32.to_bits() ^ 1)),
        ];
        let err = gate("open", &account, &wire, &reference).unwrap_err();
        assert!(err[0].contains("verdict digest"), "{err:?}");
        // A missing report, a changed culprit.
        assert!(gate("open", &account, &reference[..1], &reference).is_err());
        let mut other = reference.clone();
        other[1].culprit = None;
        assert!(gate("open", &account, &other, &reference).is_err());
        // A failed gate reports every operation as failed.
        let line = ResultLine::new(false, 119, 0, &[]);
        assert!(!line.correct);
        assert_eq!(line.failed, 119);
    }

    #[test]
    fn conservation_and_acceptance_failures_fail_the_gate() {
        let reference = vec![verdict(0, 0.9)];
        let mut lost_window = clean_account();
        lost_window.buckets[2] = 8;
        assert!(gate("closed", &lost_window, &reference, &reference).is_err());
        let mut short = clean_account();
        short.windows = 18;
        short.buckets[2] = 8;
        assert!(gate("closed", &short, &reference, &reference).is_err());
        let mut refused = clean_account();
        refused.accepted = 99;
        assert!(gate("closed", &refused, &reference, &reference).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let metric = Metric {
            name: "setup_s",
            value: 0.25,
            unit: "s",
        };
        let line = serde_json::to_string(&ResultLine::new(true, 10, 0, &[metric])).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
    }
}
