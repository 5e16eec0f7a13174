//! Load-test harness: runs a deterministic mixed-population workload
//! (see `qhorn_bench::load`) against a live in-process server over
//! **both** wire transports, open-loop at a target RPS, and emits a
//! machine-readable `BENCH_9.json` (schema `qhorn-bench-trajectory/1`
//! extension) recording:
//!
//! * p50/p95/p99 latency per protocol message kind and per transport
//!   (top-level `load_p50`/`load_p95`/`load_p99` for the overall
//!   percentiles);
//! * learner question counts by paper phase (`questions_by_phase`, from
//!   the server's metrics);
//! * error rates per class (`errors_by_class`, including the `429`
//!   load-shed class — zero until the service grows admission control);
//! * dialogue outcome tallies per scripted population (`populations`);
//! * store append throughput and the restore-scaling series
//!   (`store.restore_scaling`): indexed `load_session` vs the full-scan
//!   reference as *other* sessions' volume grows, and the indexed load
//!   again once a compaction has moved every session into the snapshot
//!   file (`indexed_compacted_ns`), demonstrating that restore cost no
//!   longer scales with unrelated history in either file;
//! * soak accounting (`soak`): zero leaked sessions after the run and
//!   `enqueued == dequeued` on both frontend pools — asserted, not just
//!   recorded.
//!
//! Usage:
//!
//! ```text
//! load_harness [--quick] [--out PATH]
//! ```
//!
//! `--quick` shrinks the sweep and dialogue counts for CI smoke runs;
//! `--out` overrides the output path (default `BENCH_9.json`). The
//! written file is re-read and validated before the process exits.

use qhorn_bench::load::{
    build_script, run_load, upload_datasets, LoadConfig, TransportKind, TransportReport,
};
use qhorn_core::{Obj, Response};
use qhorn_engine::session::{Exchange, LearnerKind};
use qhorn_json::Json;
use qhorn_json::ToJson;
use qhorn_service::proto::{Reply, Request};
use qhorn_service::registry::{Registry, RegistryConfig};
use qhorn_service::{Client, HttpServer, Server};
use qhorn_store::{FsyncPolicy, LogRecord, SessionMeta, SessionStore, StoreConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("load-harness-{tag}-{}", std::process::id()))
}

fn created_record(id: u64) -> LogRecord {
    LogRecord::SessionCreated {
        id,
        meta: SessionMeta {
            dataset: "chocolates".into(),
            size: 30,
            learner: LearnerKind::Qhorn1,
            max_questions: None,
        },
    }
}

fn exchange_record(id: u64) -> LogRecord {
    LogRecord::ExchangeAppended {
        id,
        exchange: Exchange {
            question: Obj::from_bits("110 011"),
            from_store: false,
            response: Response::Answer,
        },
    }
}

/// Mean nanoseconds per call of `f` over `iters` calls (after one
/// warmup call).
fn time_ns<F: FnMut()>(iters: u64, mut f: F) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Store section: append throughput plus the satellite restore-scaling
/// series — one target session restored (indexed and via the full-scan
/// reference, then indexed from the snapshot file after a compaction)
/// while the volume of *other* sessions grows around it.
fn bench_store(quick: bool) -> Json {
    let iters = if quick { 20 } else { 200 };

    // Append throughput.
    let dir = temp_dir("append");
    let _ = std::fs::remove_dir_all(&dir);
    let (mut store, _) = SessionStore::open(&StoreConfig {
        fsync: FsyncPolicy::Never,
        ..StoreConfig::new(dir.clone())
    })
    .expect("open append store");
    store.append(&created_record(1)).expect("seed");
    let record = exchange_record(1);
    let batch = 64u64;
    let ns = time_ns(iters, || {
        for _ in 0..batch {
            store.append(&record).expect("append");
        }
    });
    let append_ops_per_sec = batch as f64 * 1e9 / ns;
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    // Restore scaling: target session 1 stays fixed (8 exchanges);
    // other-session volume sweeps upward. The indexed path should stay
    // flat, before and after a compaction, while the full-scan reference
    // grows with total volume.
    let volumes: &[u64] = if quick { &[4, 16] } else { &[8, 32, 128] };
    // An indexed load takes tens of microseconds: even a quick run
    // times enough of them that one preemption does not set the factor.
    let indexed_iters = 200;
    let mut series = Vec::new();
    let mut indexed_first = 0.0f64;
    let mut indexed_last = 0.0f64;
    let mut unindexed_first = 0.0f64;
    let mut unindexed_last = 0.0f64;
    let mut compacted_first = 0.0f64;
    let mut compacted_last = 0.0f64;
    for (vi, &others) in volumes.iter().enumerate() {
        let dir = temp_dir(&format!("restore-{others}"));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut store, _) = SessionStore::open(&StoreConfig {
            fsync: FsyncPolicy::Never,
            segment_max_bytes: 64 << 10,
            ..StoreConfig::new(dir.clone())
        })
        .expect("open restore store");
        store.append(&created_record(1)).expect("create target");
        for _ in 0..8 {
            store.append(&exchange_record(1)).expect("target exchange");
        }
        for other in 2..(2 + others) {
            store.append(&created_record(other)).expect("create other");
            for _ in 0..16 {
                store
                    .append(&exchange_record(other))
                    .expect("other exchange");
            }
        }
        let indexed_ns = time_ns(indexed_iters, || {
            assert!(store.load_session(1).expect("indexed load").is_some());
        });
        let unindexed_ns = time_ns(iters.min(40), || {
            assert!(store
                .load_session_unindexed(1)
                .expect("full-scan load")
                .is_some());
        });
        // Compaction deletes every segment these frames were in: the
        // target restores from the snapshot file alone.
        store.compact().expect("compact");
        let compacted_ns = time_ns(indexed_iters, || {
            assert!(store.load_session(1).expect("compacted load").is_some());
        });
        eprintln!(
            "store restore @ {others} other sessions: indexed {indexed_ns:.0} ns, full-scan {unindexed_ns:.0} ns, indexed after compaction {compacted_ns:.0} ns"
        );
        if vi == 0 {
            indexed_first = indexed_ns;
            unindexed_first = unindexed_ns;
            compacted_first = compacted_ns;
        }
        indexed_last = indexed_ns;
        unindexed_last = unindexed_ns;
        compacted_last = compacted_ns;
        series.push(Json::object([
            ("other_sessions", Json::U64(others)),
            ("indexed_ns", Json::F64(indexed_ns)),
            ("unindexed_ns", Json::F64(unindexed_ns)),
            ("indexed_compacted_ns", Json::F64(compacted_ns)),
        ]));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let indexed_growth = indexed_last / indexed_first.max(1.0);
    let unindexed_growth = unindexed_last / unindexed_first.max(1.0);
    let compacted_growth = compacted_last / compacted_first.max(1.0);
    eprintln!(
        "restore growth across volume sweep: indexed {indexed_growth:.2}x, full-scan {unindexed_growth:.2}x, indexed after compaction {compacted_growth:.2}x"
    );
    Json::object([
        ("append_ops_per_sec", Json::F64(append_ops_per_sec)),
        ("restore_scaling", Json::Arr(series)),
        ("indexed_growth_factor", Json::F64(indexed_growth)),
        ("unindexed_growth_factor", Json::F64(unindexed_growth)),
        (
            "indexed_compacted_growth_factor",
            Json::F64(compacted_growth),
        ),
    ])
}

fn main() {
    let mut quick = false;
    let mut out = PathBuf::from("BENCH_9.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = PathBuf::from(args.next().expect("--out needs a path")),
            other => {
                eprintln!("unknown flag {other}; usage: load_harness [--quick] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    let seed = 0x10AD_2026u64;
    let cfg = if quick {
        LoadConfig::quick(seed)
    } else {
        LoadConfig::full(seed)
    };
    let script = build_script(&cfg);
    // Determinism self-check: the script must rebuild byte-identically —
    // the same property the seed-pinned test asserts, enforced on every
    // harness run so a drifting generator fails loudly here too.
    assert_eq!(
        script.canonical_json(),
        build_script(&cfg).canonical_json(),
        "workload script must be deterministic for its seed"
    );
    eprintln!(
        "workload: {} datasets, {} dialogues, target {} rps, {} connections per transport",
        script.datasets.len(),
        script.dialogues.len(),
        cfg.target_rps,
        cfg.connections
    );

    let registry = Arc::new(Registry::open(RegistryConfig::default()).expect("open registry"));
    let tcp = Server::start("127.0.0.1:0", Arc::clone(&registry), 4).expect("tcp server");
    let http = HttpServer::start("127.0.0.1:0", Arc::clone(&registry), 4).expect("http server");

    let mut setup = Client::connect(tcp.addr()).expect("setup client");
    let fresh = upload_datasets(&mut setup, &script);
    eprintln!("uploaded {fresh} datasets through the catalog");

    let tcp_report = run_load(&script, &cfg, TransportKind::Tcp, tcp.addr());
    eprintln!(
        "tcp: {} requests in {:.2}s ({:.0} rps achieved, target {:.0}), overall p99 {}us",
        tcp_report.requests,
        tcp_report.wall_seconds,
        tcp_report.achieved_rps,
        tcp_report.target_rps,
        tcp_report.overall.p99_us
    );
    let http_report = run_load(&script, &cfg, TransportKind::Http, http.addr());
    eprintln!(
        "http: {} requests in {:.2}s ({:.0} rps achieved, target {:.0}), overall p99 {}us",
        http_report.requests,
        http_report.wall_seconds,
        http_report.achieved_rps,
        http_report.target_rps,
        http_report.overall.p99_us
    );

    // Soak accounting, asserted before it is recorded.
    let stats = match setup.request(&Request::Stats).expect("stats") {
        Reply::Stats(s) => s,
        other => panic!("unexpected stats reply {other:?}"),
    };
    assert_eq!(
        stats.live, 0,
        "leaked sessions after the run: {} still live",
        stats.live
    );
    let health = match setup.request(&Request::Health).expect("health") {
        Reply::Health(h) => h,
        other => panic!("unexpected health reply {other:?}"),
    };
    let mut pools = Vec::new();
    for pool in &health.saturation.pools {
        assert_eq!(
            pool.enqueued,
            pool.dequeued,
            "pool `{}` has {} queued-but-never-served connections",
            pool.name,
            pool.enqueued - pool.dequeued
        );
        pools.push(Json::object([
            ("name", Json::Str(pool.name.clone())),
            ("enqueued", Json::U64(pool.enqueued)),
            ("dequeued", Json::U64(pool.dequeued)),
            ("queue_peak", Json::U64(pool.queue_peak)),
        ]));
    }
    assert!(pools.len() >= 2, "both frontend pools must report");
    eprintln!(
        "soak: 0 leaked sessions, {} pools drained ({} sessions completed, {} answers)",
        pools.len(),
        stats.completed,
        stats.answers
    );

    // Question counts by paper phase, from the server's own metrics.
    let metrics = match setup.request(&Request::Metrics).expect("metrics") {
        Reply::Metrics(m) => m,
        other => panic!("unexpected metrics reply {other:?}"),
    };
    let total_phase_questions: u64 = metrics.phases.iter().map(|(_, n)| n).sum();
    assert!(
        total_phase_questions > 0,
        "load run must drive learner questions through the phases"
    );
    let questions_by_phase = Json::Obj(
        metrics
            .phases
            .iter()
            .map(|(phase, n)| (phase.clone(), Json::U64(*n)))
            .collect(),
    );

    drop(setup);
    tcp.shutdown();
    http.shutdown();

    // Population tallies merged across both transports.
    let merged_populations = Json::Obj(
        tcp_report
            .populations
            .iter()
            .zip(&http_report.populations)
            .map(|((name, t), (name2, h))| {
                assert_eq!(name, name2);
                let sum = qhorn_bench::load::PopulationTally {
                    dialogues: t.dialogues + h.dialogues,
                    learned: t.learned + h.learned,
                    verified: t.verified + h.verified,
                    corrected: t.corrected + h.corrected,
                    abandoned: t.abandoned + h.abandoned,
                    questions: t.questions + h.questions,
                };
                ((*name).to_string(), sum.to_json())
            })
            .collect(),
    );

    let store_section = bench_store(quick);

    let load_percentiles = |pick: fn(&TransportReport) -> u64| {
        Json::object([
            ("tcp_us", Json::U64(pick(&tcp_report))),
            ("http_us", Json::U64(pick(&http_report))),
        ])
    };
    let json = Json::object([
        ("schema", Json::Str("qhorn-bench-trajectory/1".to_string())),
        ("version", Json::Str(env!("CARGO_PKG_VERSION").to_string())),
        ("quick", Json::Bool(quick)),
        ("seed", Json::U64(seed)),
        ("load_p50", load_percentiles(|r| r.overall.p50_us)),
        ("load_p95", load_percentiles(|r| r.overall.p95_us)),
        ("load_p99", load_percentiles(|r| r.overall.p99_us)),
        ("questions_by_phase", questions_by_phase),
        ("populations", merged_populations),
        (
            "transports",
            Json::Arr(vec![tcp_report.to_json(), http_report.to_json()]),
        ),
        ("store", store_section),
        (
            "soak",
            Json::object([
                ("leaked_sessions", Json::U64(0)),
                ("sessions_completed", Json::U64(stats.completed)),
                ("answers", Json::U64(stats.answers)),
                ("pools", Json::Arr(pools)),
            ]),
        ),
    ]);
    std::fs::write(&out, qhorn_json::to_string(&json) + "\n").expect("write bench output");
    let written = std::fs::read_to_string(&out).expect("re-read bench output");
    validate_artifact(&written);
    eprintln!("wrote {} (validated)", out.display());
}

/// Re-parses the written artifact and checks the shape CI pins: the
/// schema tag, the `load_p50`/`load_p95`/`load_p99` transport pairs,
/// non-empty `questions_by_phase`, all three `populations`, two
/// `transports` entries each carrying `errors_by_class` with the `429`
/// key, the `store.restore_scaling` series with its compacted column and
/// growth factor, and the `soak` block.
/// Panics (failing the smoke step) on any missing piece.
fn validate_artifact(text: &str) {
    let json: Json = qhorn_json::from_str(text).expect("artifact must parse");
    let field = |key: &str| json.get(key).unwrap_or_else(|| panic!("missing `{key}`"));
    assert!(
        matches!(field("schema"), Json::Str(s) if s == "qhorn-bench-trajectory/1"),
        "schema tag mismatch"
    );
    for key in ["load_p50", "load_p95", "load_p99"] {
        let p = field(key);
        for transport in ["tcp_us", "http_us"] {
            assert!(
                p.get(transport).and_then(Json::as_u64).is_some(),
                "{key}.{transport} missing"
            );
        }
    }
    let Json::Obj(phases) = field("questions_by_phase") else {
        panic!("`questions_by_phase` must be an object");
    };
    assert!(!phases.is_empty(), "questions_by_phase must be non-empty");
    let populations = field("populations");
    for name in ["compliant", "noisy_then_corrected", "abandoning"] {
        let p = populations
            .get(name)
            .unwrap_or_else(|| panic!("populations.{name} missing"));
        assert!(
            p.get("dialogues")
                .and_then(Json::as_u64)
                .is_some_and(|n| n > 0),
            "populations.{name} ran no dialogues"
        );
    }
    let Json::Arr(transports) = field("transports") else {
        panic!("`transports` must be an array");
    };
    assert_eq!(transports.len(), 2, "both transports must report");
    for t in transports {
        for key in ["transport", "requests", "achieved_rps", "kinds", "overall"] {
            assert!(t.get(key).is_some(), "transport report missing `{key}`");
        }
        let errors = t
            .get("errors_by_class")
            .unwrap_or_else(|| panic!("transport report missing `errors_by_class`"));
        for class in qhorn_bench::load::ERROR_CLASSES {
            assert!(
                errors.get(class).and_then(Json::as_u64).is_some(),
                "errors_by_class.{class} missing"
            );
        }
    }
    let store = field("store");
    assert!(
        store
            .get("append_ops_per_sec")
            .and_then(Json::as_f64)
            .is_some_and(|v| v > 0.0),
        "store.append_ops_per_sec missing"
    );
    let Some(Json::Arr(scaling)) = store.get("restore_scaling") else {
        panic!("store.restore_scaling must be an array");
    };
    assert!(scaling.len() >= 2, "restore scaling needs >= 2 volumes");
    assert!(
        store
            .get("indexed_compacted_growth_factor")
            .and_then(Json::as_f64)
            .is_some(),
        "store.indexed_compacted_growth_factor missing"
    );
    for entry in scaling {
        for key in [
            "other_sessions",
            "indexed_ns",
            "unindexed_ns",
            "indexed_compacted_ns",
        ] {
            assert!(
                entry.get(key).is_some(),
                "restore_scaling entry missing `{key}`"
            );
        }
    }
    let soak = field("soak");
    assert!(
        soak.get("leaked_sessions")
            .and_then(Json::as_u64)
            .is_some_and(|n| n == 0),
        "soak.leaked_sessions must be 0"
    );
    let Some(Json::Arr(pools)) = soak.get("pools") else {
        panic!("soak.pools must be an array");
    };
    assert!(pools.len() >= 2, "soak must cover both pools");
}
