//! Perf-trajectory runner: executes the registry/store/http benchmark
//! kernels with plain `std::time::Instant` timing and emits a
//! machine-readable `BENCH_10.json` (name → ns/iter + throughput) so CI
//! and future PRs have a recorded baseline to diff against.
//!
//! Beyond the registry/store/transport series, the artifact carries a
//! **kernel throughput** section (the lane-unrolled wide word path vs
//! the scalar single-check evaluator, at arities 32 and 64, with the
//! measured speedup under a top-level `kernel_speedup` key), a
//! **parallel batch** section (work-stealing `EvaluateBatch` over a
//! signature-distinct store, with `threads_used` and per-thread
//! throughput per entry and the box's `threads_available` recorded),
//! and an **observability overhead** A/B (top-level
//! `observability_overhead`): the TCP stats round trip is measured once
//! under the default config (trace head-sampling, structured logging,
//! saturation telemetry, and the always-on profile all live) and once
//! with journaling sampled out via the runtime `set_trace_config` knob,
//! recording the fractional overhead the defaults add.
//!
//! A **realization** series (`realize_arity24`, `realize_arity48`) times
//! one learner question realized as a data object, over generated sweep
//! datasets and the questions a role-preserving learner asks there.
//!
//! Two sections added with the lockdep/lint tooling: a
//! **lockdep pass-through pin** (top-level `lockdep_off_overhead`) —
//! raw `std::sync::Mutex` lock/unlock vs the class-tagged
//! `OrderedMutex` every workspace lock routes through, asserting the
//! wrapper stays within 5% of raw when the `lockdep` feature is off —
//! and an embedded **`qhorn-lint` report** (top-level `lint`, from
//! `--lint-report PATH` pointing at a `qhorn-lint --format json`
//! output) so suppression counts are trendable alongside the perf
//! series.
//!
//! The criterion benches under `benches/` remain the statistically
//! careful tool for local investigation; this binary trades their
//! sampling rigor for a dependency-free artifact that can run in a
//! smoke step (`--quick`) and be committed at the repo root. The
//! written file is re-read and validated against the
//! `qhorn-bench-trajectory/1` shape before the process exits.
//!
//! Usage:
//!
//! ```text
//! bench_trajectory [--quick] [--out PATH] [--lint-report PATH]
//! ```
//!
//! `--quick` cuts iteration counts ~10× for CI smoke runs; `--out`
//! overrides the output path (default `BENCH_10.json` in the current
//! directory, i.e. the repo root when run via `cargo run`);
//! `--lint-report` embeds a `qhorn-lint --format json` report under
//! the artifact's `lint` key (absent flag → `lint: null`).

use qhorn_core::kernel::CompiledQuery;
use qhorn_core::learn::{learn_role_preserving, LearnOptions};
use qhorn_core::oracle::FnOracle;
use qhorn_core::{BoolTuple, Expr, Obj, Query, Response, VarId, VarSet};
use qhorn_engine::session::{Exchange, LearnerKind, Session};
use qhorn_engine::storage::{DataStore, Store};
use qhorn_json::Json;
use qhorn_lockdep::{LockClass, OrderedMutex};
use qhorn_relation::generate;
use qhorn_service::batch;
use qhorn_service::http::HttpClient;
use qhorn_service::proto::{Reply, Request};
use qhorn_service::registry::{CreateSpec, Registry, RegistryConfig, StepOutcome};
use qhorn_service::{Client, HttpServer, Server};
use qhorn_store::{FsyncPolicy, LogRecord, SessionMeta, SessionStore, StoreConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// One measured benchmark: mean wall-clock per iteration and the derived
/// element throughput. Parallel entries additionally record the worker
/// pool actually spawned (`threads_used`), from which the emitter
/// derives per-thread throughput.
struct BenchResult {
    name: &'static str,
    iters: u64,
    elements_per_iter: u64,
    ns_per_iter: f64,
    ops_per_sec: f64,
    threads_used: Option<u64>,
}

/// Times `iters` calls of `f` after a short warmup (one tenth of the
/// measured count, at least one call).
fn bench<F: FnMut()>(
    name: &'static str,
    iters: u64,
    elements_per_iter: u64,
    mut f: F,
) -> BenchResult {
    for _ in 0..(iters / 10).max(1) {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let total = start.elapsed().as_nanos() as f64;
    let ns_per_iter = total / iters as f64;
    let ops_per_sec = elements_per_iter as f64 * 1e9 / ns_per_iter;
    eprintln!("{name}: {ns_per_iter:.0} ns/iter, {ops_per_sec:.0} ops/s ({iters} iters)");
    BenchResult {
        name,
        iters,
        elements_per_iter,
        ns_per_iter,
        ops_per_sec,
        threads_used: None,
    }
}

/// One full learning dialogue through the registry (create → answer* →
/// learned), driven by an in-process model user. Mirrors the criterion
/// `registry_sessions/full_dialogue` bench.
fn run_session(registry: &Registry, target: &Query) -> usize {
    let spec = CreateSpec {
        dataset: "chocolates".into(),
        size: 30,
        learner: LearnerKind::Qhorn1,
        max_questions: Some(10_000),
    };
    let (id, mut outcome) = registry.create_session(spec).expect("create");
    let mut answers = 0usize;
    loop {
        match outcome {
            StepOutcome::Question(q) => {
                answers += 1;
                outcome = registry
                    .answer(id, target.eval(&q.question))
                    .expect("answer");
            }
            StepOutcome::Learned { .. } => return answers,
            other => panic!("unexpected outcome {other:?}"),
        }
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

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bench-trajectory-{tag}-{}", std::process::id()))
}

/// Store append throughput under one fsync policy: each iteration
/// appends `batch` records.
fn bench_store_append(
    name: &'static str,
    fsync: FsyncPolicy,
    iters: u64,
    batch: u64,
) -> BenchResult {
    let dir = temp_dir(name);
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig {
        fsync,
        ..StoreConfig::new(dir.clone())
    };
    let (mut store, _) = SessionStore::open(&config).expect("open store");
    store.append(&created_record(1)).expect("seed session");
    let record = exchange_record(1);
    let result = bench(name, iters, batch, || {
        for _ in 0..batch {
            black_box(store.append(&record).expect("append"));
        }
    });
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The kernel workload's query: Horn-rule violations over variable pairs
/// plus conjunction witnesses — witness-heavy after compilation, since
/// every universal also contributes its guarantee witness.
fn kernel_query(arity: u16) -> Query {
    let step = arity / 8;
    let mut exprs = Vec::new();
    for i in 0..8u16 {
        let a = (i * step) % arity;
        let b = (i * step + 1) % arity;
        let head = (i * step + 2) % arity;
        let body: VarSet = [VarId(a), VarId(b)].into_iter().collect();
        exprs.push(Expr::universal(body, VarId(head)));
    }
    for i in 0..4u16 {
        let a = (i * step + 3) % arity;
        let b = (i * step + 4) % arity;
        exprs.push(Expr::conj([VarId(a), VarId(b)].into_iter().collect()));
    }
    Query::new(arity, exprs).expect("valid kernel query")
}

/// Distinct signatures for the kernel workload: random dense tuples,
/// **closed under the query's Horn rules** (whenever a body holds the
/// head is set too), so every object is an answer and both evaluators
/// sweep the full tuple set — the throughput being measured, not an
/// early-exit mix.
fn kernel_signatures(
    arity: u16,
    plan: &CompiledQuery,
    count: usize,
    tuples_each: usize,
) -> Vec<Obj> {
    let mut rng = SmallRng::seed_from_u64(7);
    (0..count)
        .map(|_| {
            let tuples: Vec<BoolTuple> = (0..tuples_each)
                .map(|_| {
                    let mut trues: VarSet = (0..arity)
                        .filter(|_| rng.gen_bool(0.6))
                        .map(VarId)
                        .collect();
                    for (body, head) in plan.violations() {
                        if body.is_subset(&trues) {
                            trues = trues.with(*head);
                        }
                    }
                    BoolTuple::from_true_set(arity, trues)
                })
                .collect();
            Obj::new(arity, tuples)
        })
        .collect()
}

/// Scalar vs lane-unrolled wide kernel throughput at one arity; returns
/// `(scalar, wide)` results (ops/s counts tuples swept per second).
fn bench_kernel_pair(
    arity: u16,
    scalar_name: &'static str,
    wide_name: &'static str,
    iters: u64,
) -> (BenchResult, BenchResult) {
    const SIGNATURES: usize = 512;
    const TUPLES_EACH: usize = 96; // crosses the 64-tuple gather chunk
    let plan = CompiledQuery::compile(&kernel_query(arity));
    let sigs = kernel_signatures(arity, &plan, SIGNATURES, TUPLES_EACH);
    // Closure under the Horn rules means full sweeps: every signature
    // is an answer on both paths.
    assert!(
        sigs.iter()
            .all(|s| plan.matches(s) && plan.matches_scalar(s)),
        "kernel workload must be all-answers"
    );
    let elements = (SIGNATURES * TUPLES_EACH) as u64;
    let scalar = bench(scalar_name, iters, elements, || {
        let mut answers = 0usize;
        for s in &sigs {
            answers += usize::from(plan.matches_scalar(s));
        }
        black_box(answers);
    });
    let wide = bench(wide_name, iters, elements, || {
        let mut answers = 0usize;
        for s in &sigs {
            answers += usize::from(plan.matches(s));
        }
        black_box(answers);
    });
    (scalar, wide)
}

/// Work-stealing parallel batch throughput over a signature-distinct
/// store; records the pool actually spawned in `threads_used`.
fn bench_parallel_batch(
    name: &'static str,
    plan: &CompiledQuery,
    store: &Store,
    workers: usize,
    iters: u64,
) -> BenchResult {
    let (_, stats) = batch::execute_parallel_with_stats(plan, store, workers);
    let mut result = bench(name, iters, store.len() as u64, || {
        black_box(batch::execute_parallel(plan, store, workers).len());
    });
    result.threads_used = Some(stats.threads_used as u64);
    result
}

/// Realization: µs per realized question over a generated sweep dataset
/// of `arity` propositions, cycling through every question a
/// role-preserving learner asks there, realized through a session as the
/// service's oracle does.
fn bench_realize(name: &'static str, arity: usize, iters: u64) -> BenchResult {
    let params = &generate::sweep(11, &[40], &[arity])[0];
    let def = generate::generate_dataset(params);
    let bridge = def.validate().expect("generated datasets validate");
    let store = DataStore::from_relation(def.relation, bridge).expect("generated data booleanizes");
    let n = store.bridge().n();
    let target = qhorn_bench::bench_role_preserving_target(n);
    let mut questions = Vec::new();
    learn_role_preserving(
        n,
        &mut FnOracle(|q: &Obj| {
            questions.push(q.clone());
            target.eval(q)
        }),
        &LearnOptions::default(),
    )
    .expect("the learner reaches its target");
    let session = Session::new(&store, def.hints);
    let mut next = questions.iter().cycle();
    bench(name, iters, 1, || {
        let q = next.next().expect("a cycle never ends");
        black_box(session.realize(q).is_ok());
    })
}

fn main() {
    let mut quick = false;
    let mut out = PathBuf::from("BENCH_10.json");
    let mut lint_report: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = PathBuf::from(args.next().expect("--out needs a path")),
            "--lint-report" => {
                lint_report = Some(PathBuf::from(
                    args.next().expect("--lint-report needs a path"),
                ));
            }
            other => {
                eprintln!(
                    "unknown flag {other}; usage: bench_trajectory [--quick] [--out PATH] [--lint-report PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    // Iteration counts per tier: (full, quick).
    let n = |full: u64, q: u64| if quick { q } else { full };

    let mut results = Vec::new();

    // Registry: sessions per second through the full registry and its
    // learner steps (every iteration is a complete learning dialogue).
    let target: Query = qhorn_lang::parse_with_arity("all x1; some x2 x3", 3).unwrap();
    let registry = Registry::open(RegistryConfig::default()).expect("open registry");
    results.push(bench("registry_full_dialogue", n(30, 3), 1, || {
        black_box(run_session(&registry, &target));
    }));
    drop(registry);

    // Store: append throughput with no fsync and with one fsync per 8
    // records (the acknowledged-durability dial).
    results.push(bench_store_append(
        "store_append_fsync_never",
        FsyncPolicy::Never,
        n(2_000, 200),
        64,
    ));
    results.push(bench_store_append(
        "store_append_fsync_every_8",
        FsyncPolicy::EveryN(8),
        n(200, 20),
        64,
    ));

    // Transports: stats round trips over keep-alive connections through
    // the JSON-lines TCP frontend and the HTTP/1.1 gateway (default
    // registry config, so tracing head-sampling is on — this is the
    // series the tracing-overhead acceptance bound is measured against),
    // plus the Prometheus scrape path.
    let registry = Arc::new(Registry::open(RegistryConfig::default()).expect("open registry"));
    let tcp = Server::start("127.0.0.1:0", Arc::clone(&registry), 2).expect("tcp server");
    let http = HttpServer::start("127.0.0.1:0", Arc::clone(&registry), 2).expect("http server");

    let mut tcp_client = Client::connect(tcp.addr()).expect("tcp client");
    results.push(bench("tcp_stats_round_trip", n(2_000, 200), 1, || {
        let reply = tcp_client.request(&Request::Stats).expect("stats");
        assert!(matches!(reply, Reply::Stats(_)));
        black_box(reply);
    }));

    // Observability overhead A/B: the same round trip with trace
    // journaling sampled out and the slow-request threshold parked at
    // its maximum, via the runtime `set_trace_config` knob. Saturation
    // telemetry and the always-on profile stay hot on both sides, so
    // the delta isolates what the default journaling adds per request.
    let saved = match tcp_client
        .request(&Request::SetTraceConfig {
            slow_threshold_ms: None,
            sample_every: None,
        })
        .expect("read trace config")
    {
        Reply::TraceConfig {
            slow_threshold_ms,
            sample_every,
        } => (slow_threshold_ms, sample_every),
        other => panic!("unexpected reply {other:?}"),
    };
    // Interleaved A/B/A/B rounds, per-request floor per side: on a
    // 1-CPU shared box the round trip is dominated by scheduler wakeup
    // noise (round means swing ±10% run to run), so the comparison uses
    // the minimum single-request latency — the deterministic per-request
    // cost with the scheduler noise floor-filtered out — gathered over
    // alternating rounds so neither side inherits a drift window.
    fn time_stats(client: &mut Client, iters: u64) -> f64 {
        for _ in 0..(iters / 10).max(1) {
            let reply = client.request(&Request::Stats).expect("stats");
            assert!(matches!(reply, Reply::Stats(_)));
        }
        let mut floor = f64::INFINITY;
        for _ in 0..iters {
            let start = Instant::now();
            let reply = client.request(&Request::Stats).expect("stats");
            floor = floor.min(start.elapsed().as_nanos() as f64);
            assert!(matches!(reply, Reply::Stats(_)));
            black_box(&reply);
        }
        floor
    }
    let set_config = |client: &mut Client, slow_ms: u64, sample: u64| {
        let reply = client
            .request(&Request::SetTraceConfig {
                slow_threshold_ms: Some(slow_ms),
                sample_every: Some(sample),
            })
            .expect("set trace config");
        assert!(matches!(reply, Reply::TraceConfig { .. }));
    };
    let round_iters = n(200, 50);
    let rounds = n(16, 4);
    let mut instrumented_ns = f64::INFINITY;
    let mut baseline_ns = f64::INFINITY;
    for _ in 0..rounds {
        set_config(&mut tcp_client, 600_000, 0);
        baseline_ns = baseline_ns.min(time_stats(&mut tcp_client, round_iters));
        set_config(&mut tcp_client, saved.0, saved.1);
        instrumented_ns = instrumented_ns.min(time_stats(&mut tcp_client, round_iters));
    }
    results.push(BenchResult {
        name: "tcp_stats_round_trip_untraced",
        iters: round_iters * rounds,
        elements_per_iter: 1,
        ns_per_iter: baseline_ns,
        ops_per_sec: 1e9 / baseline_ns,
        threads_used: None,
    });
    let overhead_fraction = instrumented_ns / baseline_ns - 1.0;
    eprintln!(
        "tcp_stats_round_trip_untraced: {baseline_ns:.0} ns/iter (per-request floor over {rounds} interleaved rounds)"
    );
    eprintln!(
        "observability overhead on stats round trip: {:.2}% ({instrumented_ns:.0} ns vs {baseline_ns:.0} ns untraced)",
        overhead_fraction * 100.0
    );

    let mut http_client = Client::connect_http(http.addr()).expect("http client");
    results.push(bench("http_stats_round_trip", n(2_000, 200), 1, || {
        let reply = http_client.request(&Request::Stats).expect("stats");
        assert!(matches!(reply, Reply::Stats(_)));
        black_box(reply);
    }));

    let mut scraper = HttpClient::connect(http.addr()).expect("scrape client");
    results.push(bench("prometheus_scrape", n(1_000, 100), 1, || {
        let text = scraper.scrape_metrics().expect("scrape");
        assert!(text.contains("qhorn_request_duration_seconds_bucket"));
        black_box(text.len());
    }));

    drop(tcp_client);
    drop(http_client);
    drop(scraper);
    tcp.shutdown();
    http.shutdown();

    // Kernel: the lane-unrolled wide word path vs the scalar
    // single-check evaluator, at the word-path arities the batch engine
    // cares about (32 and the 64 boundary).
    let (scalar32, wide32) =
        bench_kernel_pair(32, "kernel_scalar_arity32", "kernel_wide_arity32", n(60, 6));
    let (scalar64, wide64) =
        bench_kernel_pair(64, "kernel_scalar_arity64", "kernel_wide_arity64", n(60, 6));
    let speedup32 = wide32.ops_per_sec / scalar32.ops_per_sec;
    let speedup64 = wide64.ops_per_sec / scalar64.ops_per_sec;
    eprintln!("kernel wide/scalar speedup: {speedup32:.2}x @ arity 32, {speedup64:.2}x @ arity 64");
    results.extend([scalar32, wide32, scalar64, wide64]);

    // Parallel batch: the work-stealing EvaluateBatch path over a
    // signature-distinct store (every object a distinct signature, so
    // the splitter has real work to distribute), single-worker vs the
    // box's full parallelism.
    let threads_available =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    eprintln!("(available parallelism: {threads_available} thread(s))");
    {
        let arity = 12u16;
        let plan = CompiledQuery::compile(&qhorn_bench::bench_role_preserving_target(arity));
        let mut rng = SmallRng::seed_from_u64(11);
        let mut store = Store::new(arity);
        for _ in 0..n(20_000, 2_000) {
            store.insert(qhorn_sim::genobject::random_dense_object(
                arity, 24, &mut rng,
            ));
        }
        results.push(bench_parallel_batch(
            "parallel_batch_workers_1",
            &plan,
            &store,
            1,
            n(20, 2),
        ));
        results.push(bench_parallel_batch(
            "parallel_batch_workers_max",
            &plan,
            &store,
            threads_available,
            n(20, 2),
        ));
    }

    results.push(bench_realize("realize_arity24", 24, n(20_000, 2_000)));
    results.push(bench_realize("realize_arity48", 48, n(20_000, 2_000)));

    // Lockdep pass-through pin: raw `std::sync::Mutex` lock/unlock vs
    // the class-tagged `OrderedMutex` every workspace lock routes
    // through. With the `lockdep` feature off (every release/CI build)
    // the wrapper's class is a ZST and `lock_recover` must compile down
    // to the raw lock — pinned at ≤5% plus a 5 ns jitter allowance on
    // the ~20 ns lock/unlock, using the same interleaved min-of-rounds
    // filtering as the observability A/B.
    let lockdep_feature = cfg!(feature = "lockdep");
    let raw = std::sync::Mutex::new(0u64); // qhorn-lint: allow(raw-mutex)
    let ordered = OrderedMutex::new(LockClass::new("bench.lockdep_overhead"), 0u64);
    let lock_iters = n(200_000, 20_000);
    let lock_rounds = n(16, 4);
    let mut raw_ns = f64::INFINITY;
    let mut ordered_ns = f64::INFINITY;
    for _ in 0..lock_rounds {
        let start = Instant::now();
        for _ in 0..lock_iters {
            *raw.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) += 1;
        }
        raw_ns = raw_ns.min(start.elapsed().as_nanos() as f64 / lock_iters as f64);
        let start = Instant::now();
        for _ in 0..lock_iters {
            *ordered.lock_recover() += 1;
        }
        ordered_ns = ordered_ns.min(start.elapsed().as_nanos() as f64 / lock_iters as f64);
    }
    black_box(
        *raw.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    black_box(*ordered.lock_recover());
    let lockdep_overhead_fraction = ordered_ns / raw_ns - 1.0;
    let lockdep_within_bound = ordered_ns <= raw_ns * 1.05 + 5.0;
    eprintln!(
        "lockdep-off pass-through: ordered {ordered_ns:.1} ns vs raw {raw_ns:.1} ns per lock/unlock ({:+.2}%, feature {})",
        lockdep_overhead_fraction * 100.0,
        if lockdep_feature { "ON" } else { "off" },
    );
    if !lockdep_feature {
        assert!(
            lockdep_within_bound,
            "OrderedMutex with lockdep off must stay within 5% of a raw Mutex: \
             {ordered_ns:.1} ns vs {raw_ns:.1} ns"
        );
    }

    // The embedded lint report (suppression counts become trendable
    // alongside the perf series).
    let lint = match &lint_report {
        Some(path) => {
            let text = std::fs::read_to_string(path).expect("read lint report");
            let report: Json = qhorn_json::from_str(&text).expect("lint report must parse");
            assert!(
                matches!(report.get("schema"), Some(Json::Str(s)) if s == "qhorn-lint-report/1"),
                "--lint-report must point at a `qhorn-lint --format json` output"
            );
            report
        }
        None => Json::Null,
    };

    let json = Json::Obj(vec![
        (
            "schema".to_string(),
            Json::Str("qhorn-bench-trajectory/1".to_string()),
        ),
        (
            "version".to_string(),
            Json::Str(env!("CARGO_PKG_VERSION").to_string()),
        ),
        ("quick".to_string(), Json::Bool(quick)),
        (
            "threads_available".to_string(),
            Json::U64(threads_available as u64),
        ),
        (
            "kernel_speedup".to_string(),
            Json::Obj(vec![
                ("arity32".to_string(), Json::F64(speedup32)),
                ("arity64".to_string(), Json::F64(speedup64)),
            ]),
        ),
        (
            "observability_overhead".to_string(),
            Json::Obj(vec![
                (
                    "instrumented_ns_per_iter".to_string(),
                    Json::F64(instrumented_ns),
                ),
                ("baseline_ns_per_iter".to_string(), Json::F64(baseline_ns)),
                (
                    "overhead_fraction".to_string(),
                    Json::F64(overhead_fraction),
                ),
            ]),
        ),
        (
            "lockdep_off_overhead".to_string(),
            Json::Obj(vec![
                ("lockdep_feature".to_string(), Json::Bool(lockdep_feature)),
                ("raw_mutex_ns_per_iter".to_string(), Json::F64(raw_ns)),
                (
                    "ordered_mutex_ns_per_iter".to_string(),
                    Json::F64(ordered_ns),
                ),
                (
                    "overhead_fraction".to_string(),
                    Json::F64(lockdep_overhead_fraction),
                ),
                ("within_bound".to_string(), Json::Bool(lockdep_within_bound)),
            ]),
        ),
        ("lint".to_string(), lint),
        (
            "results".to_string(),
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        let mut pairs = vec![
                            ("name".to_string(), Json::Str(r.name.to_string())),
                            ("iters".to_string(), Json::U64(r.iters)),
                            (
                                "elements_per_iter".to_string(),
                                Json::U64(r.elements_per_iter),
                            ),
                            ("ns_per_iter".to_string(), Json::F64(r.ns_per_iter)),
                            ("ops_per_sec".to_string(), Json::F64(r.ops_per_sec)),
                        ];
                        if let Some(threads) = r.threads_used {
                            pairs.push(("threads_used".to_string(), Json::U64(threads)));
                            pairs.push((
                                "per_thread_ops_per_sec".to_string(),
                                Json::F64(r.ops_per_sec / threads.max(1) as f64),
                            ));
                        }
                        Json::Obj(pairs)
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&out, qhorn_json::to_string(&json) + "\n").expect("write bench output");
    let written = std::fs::read_to_string(&out).expect("re-read bench output");
    validate_artifact(&written);
    eprintln!("wrote {} (validated)", out.display());
}

/// Re-parses the written artifact and checks the
/// `qhorn-bench-trajectory/1` shape, including the kernel-throughput
/// and thread-count fields added with the multicore batch path and the
/// observability-overhead A/B pair. Panics (failing the smoke step) on
/// any missing piece.
fn validate_artifact(text: &str) {
    let json: Json = qhorn_json::from_str(text).expect("artifact must parse");
    let field = |key: &str| json.get(key).unwrap_or_else(|| panic!("missing `{key}`"));
    assert!(
        matches!(field("schema"), Json::Str(s) if s == "qhorn-bench-trajectory/1"),
        "schema tag mismatch"
    );
    assert!(
        field("threads_available").as_u64().is_some_and(|n| n >= 1),
        "threads_available must be a positive integer"
    );
    let speedup = field("kernel_speedup");
    for arity in ["arity32", "arity64"] {
        assert!(
            speedup
                .get(arity)
                .and_then(Json::as_f64)
                .is_some_and(|s| s > 0.0),
            "kernel_speedup.{arity} missing"
        );
    }
    let overhead = field("observability_overhead");
    for key in ["instrumented_ns_per_iter", "baseline_ns_per_iter"] {
        assert!(
            overhead
                .get(key)
                .and_then(Json::as_f64)
                .is_some_and(|ns| ns > 0.0),
            "observability_overhead.{key} missing"
        );
    }
    assert!(
        overhead
            .get("overhead_fraction")
            .and_then(Json::as_f64)
            .is_some(),
        "observability_overhead.overhead_fraction missing"
    );
    let lockdep = field("lockdep_off_overhead");
    for key in ["raw_mutex_ns_per_iter", "ordered_mutex_ns_per_iter"] {
        assert!(
            lockdep
                .get(key)
                .and_then(Json::as_f64)
                .is_some_and(|ns| ns > 0.0),
            "lockdep_off_overhead.{key} missing"
        );
    }
    match (lockdep.get("lockdep_feature"), lockdep.get("within_bound")) {
        (Some(Json::Bool(feature)), Some(Json::Bool(within))) => {
            // The pin only binds the pass-through build; a lockdep-ON
            // artifact records its (real) detector overhead unasserted.
            assert!(
                *feature || *within,
                "lockdep-off artifact must be within the 5% pass-through bound"
            );
        }
        _ => panic!("lockdep_off_overhead.{{lockdep_feature,within_bound}} missing"),
    }
    match field("lint") {
        Json::Null => {}
        report => {
            assert!(
                report
                    .get("suppression_count")
                    .and_then(Json::as_u64)
                    .is_some(),
                "embedded lint report missing suppression_count"
            );
        }
    }
    let Json::Arr(results) = field("results") else {
        panic!("`results` must be an array");
    };
    let by_name = |name: &str| {
        results
            .iter()
            .find(|r| matches!(r.get("name"), Some(Json::Str(s)) if s == name))
            .unwrap_or_else(|| panic!("missing result `{name}`"))
    };
    for r in results {
        for key in ["iters", "elements_per_iter", "ns_per_iter", "ops_per_sec"] {
            assert!(r.get(key).is_some(), "result missing `{key}`");
        }
    }
    for name in [
        "kernel_scalar_arity32",
        "kernel_wide_arity32",
        "kernel_scalar_arity64",
        "kernel_wide_arity64",
        "tcp_stats_round_trip",
        "tcp_stats_round_trip_untraced",
        "realize_arity24",
        "realize_arity48",
    ] {
        by_name(name);
    }
    for name in ["parallel_batch_workers_1", "parallel_batch_workers_max"] {
        let r = by_name(name);
        assert!(
            r.get("threads_used")
                .and_then(Json::as_u64)
                .is_some_and(|n| n >= 1),
            "`{name}` missing threads_used"
        );
        assert!(
            r.get("per_thread_ops_per_sec").is_some(),
            "`{name}` missing per_thread_ops_per_sec"
        );
    }
}
