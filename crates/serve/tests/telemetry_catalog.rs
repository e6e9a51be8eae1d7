//! Catalog sync: every telemetry series that a pipeline + serve + WAL run
//! registers must be listed, under the same kind, in `docs/telemetry.md`.
//!
//! The run streams two tenants over real sockets into a `--wal-dir`
//! daemon that scores with the production [`ModelScorer`], drains it,
//! restarts it over the same log directory, streams again, and drains.
//! This test binary is its own process, so the global registry holds
//! exactly what that run registered.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use logsynergy::config::ModelConfig;
use logsynergy::model::LogSynergyModel;
use logsynergy_lei::LeiConfig;
use logsynergy_loggen::SystemId;
use logsynergy_pipeline::{EventVectorizer, MemorySink, ModelScorer, PipelineConfig, WalOptions};
use logsynergy_serve::{parse_tenants, start, ServeConfig};
use logsynergy_telemetry as telemetry;
use rand::SeedableRng;

const CATALOG: &str = include_str!("../../../docs/telemetry.md");

const EMBED_DIM: usize = 8;

const VOCAB: [&str; 6] = [
    "session opened for user root",
    "connection from remote peer closed abruptly after handshake timeout",
    "disk write latency elevated beyond configured threshold on volume data1",
    "packet responder terminating early",
    "cache eviction pass completed",
    "authentication failure reported by gateway node",
];

/// `(pattern, kind)` for every series named in the catalog tables. A
/// pattern is a series name in which `<...>` stands for one or more
/// characters.
fn catalog() -> Vec<(String, String)> {
    let mut rows = Vec::new();
    for line in CATALOG.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if cells.len() < 4 || !cells[1].starts_with('`') {
            continue;
        }
        let kind = cells[2].to_string();
        for name in cells[1].split('`').skip(1).step_by(2) {
            rows.push((name.to_string(), kind.clone()));
        }
    }
    rows
}

/// Whether `name` matches `pattern` (`<...>` matches one or more chars).
fn matches(pattern: &str, name: &str) -> bool {
    match pattern.find('<') {
        None => pattern == name,
        Some(open) => {
            let close = open + pattern[open..].find('>').expect("unclosed <placeholder>");
            let (head, tail) = (&pattern[..open], &pattern[close + 1..]);
            let Some(rest) = name.strip_prefix(head) else {
                return false;
            };
            (1..=rest.len())
                .filter(|&i| rest.is_char_boundary(i))
                .any(|i| matches(tail, &rest[i..]))
        }
    }
}

fn tiny_model() -> LogSynergyModel {
    let mut cfg = ModelConfig::scaled(2);
    cfg.embed_dim = EMBED_DIM;
    cfg.d_model = 8;
    cfg.heads = 2;
    cfg.ff = 16;
    cfg.layers = 1;
    cfg.head_hidden = 8;
    cfg.max_len = 10;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    LogSynergyModel::new(cfg, &mut rng)
}

fn vectorizer() -> EventVectorizer {
    let mut v = EventVectorizer::new(SystemId::SystemB, EMBED_DIM, LeiConfig::default());
    v.warm_start(VOCAB.iter().copied());
    v
}

/// Streams `n` NDJSON lines for `system` over one authenticated
/// connection and waits for the server's final frame.
fn stream(addr: SocketAddr, token: &str, system: &str, phase: usize, n: usize) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    let mut payload = format!("HELLO {token}\n");
    for i in 0..n {
        payload.push_str(&format!(
            "{{\"system\":\"{system}\",\"timestamp\":{i},\"message\":\"{}\"}}\n",
            VOCAB[(i * 5 + i / 3 + phase) % VOCAB.len()]
        ));
    }
    conn.write_all(payload.as_bytes()).unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut responses = String::new();
    conn.read_to_string(&mut responses).unwrap();
    assert!(
        responses.contains("\"accepted\""),
        "no summary frame: {responses}"
    );
}

#[test]
fn every_registered_series_is_in_the_catalog() {
    let dir = std::env::temp_dir().join(format!("lscatalog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        drain_timeout: Duration::from_secs(10),
        pipeline: PipelineConfig {
            partitions: 2,
            wal: Some(WalOptions {
                segment_max_bytes: 4096,
                ..WalOptions::at(dir.clone())
            }),
            ..PipelineConfig::default()
        },
        ..ServeConfig::default()
    };
    let scorer = ModelScorer::new(tiny_model());
    for lifetime in 0..2 {
        let tenants = parse_tenants("tenant edge token=te shards=2\ntenant lab token=tl").unwrap();
        let daemon = start(
            config.clone(),
            tenants,
            None,
            vectorizer(),
            scorer.clone(),
            MemorySink::new(),
        )
        .expect("daemon starts in wal mode");
        stream(daemon.addr(), "te", "edge-sys", lifetime, 400);
        stream(daemon.addr(), "tl", "lab-sys", lifetime + 1, 400);
        let summary = daemon.drain();
        assert!(
            summary.windows > 0 && summary.model_calls > 0,
            "{summary:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    let catalog = catalog();
    let snap = telemetry::global().snapshot();
    let registered = [
        ("counter", snap.counters.keys().collect::<Vec<_>>()),
        ("gauge", snap.gauges.keys().collect()),
        ("histogram", snap.histograms.keys().collect()),
        ("series", snap.series.keys().collect()),
        ("tag", snap.tags.keys().collect()),
    ];
    // The run must really have reached every layer the catalog covers.
    for must in [
        "pipeline.tier.model",
        "wal.records",
        "wal.replayed",
        "ingest.tenant.edge.accepted",
        "nn.matmul.calls",
    ] {
        assert!(
            snap.counters.contains_key(must),
            "run never registered {must}"
        );
    }
    let mut missing = Vec::new();
    for (kind, names) in &registered {
        for name in names {
            let listed = catalog
                .iter()
                .any(|(pattern, k)| k == kind && matches(pattern, name));
            if !listed {
                missing.push(format!("{kind} {name}"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "series registered but missing from docs/telemetry.md: {missing:#?}"
    );
}

#[test]
fn placeholder_patterns_match_whole_names_only() {
    assert!(matches(
        "ingest.tenant.<name>.shed",
        "ingest.tenant.edge.shed"
    ));
    assert!(matches("span.<name>.ns", "span.pipeline.batch.detect.ns"));
    assert!(!matches("span.<name>.ns", "span.pipeline.batch.self_ns"));
    assert!(!matches("ingest.tenant.<name>.shed", "ingest.tenant..shed"));
    assert!(!matches("wal.records", "wal.records_total"));
}
