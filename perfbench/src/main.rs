//! End-to-end and per-layer benchmark of the qhorn learning service.
//!
//! ```text
//! qhorn-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds the workload's inputs from the seed, starts the service (one
//! `Registry` behind `Server` and `HttpServer`) in a child process,
//! uploads the datasets, and drives it from two client threads: one TCP
//! and one HTTP connection. After a warm-up, `--trace 0` measures an open
//! loop at the workload's fixed rate; `--trace 1` alternates untraced and
//! traced one-second stretches of the open loop, then runs a closed loop
//! over the same connections, and afterwards times each layer's public
//! functions on the workload's inputs. Outputs are checked; the last line
//! of standard output is one JSON object with the metrics.

mod drive;
mod layers;
mod server;
mod stats;
mod trace;
mod workload;

use drive::{Conn, Pace, Samples};
use qhorn_engine::plan::CompiledQuery;
use qhorn_engine::DataStore;
use qhorn_service::proto::{Reply, Request};
use qhorn_service::Client;
use server::ServerProc;
use stats::quantile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use workload::Workload;

/// Where runs keep their durable stores and span files, relative to the
/// directory the benchmark is started from.
const WORK_DIR: &str = ".bench_work";
/// Set-ups per run, half before the load and half after it; `setup_s` is
/// their median. A set-up takes tens of milliseconds, and the machine's
/// speed drifts over seconds, so set-ups taken in one burst follow the
/// drift; spread over the run, they average it out.
const SETUP_REPEATS: usize = 20;
/// Untimed open-loop traffic before measuring.
const WARMUP: Duration = Duration::from_secs(2);
/// Fewest samples a reported p99 may rest on.
const MIN_P99_SAMPLES: usize = 1_000;
/// The open loop must complete at least this share of its offered rate;
/// otherwise the service cannot keep up with it, and latencies timed from
/// the due times would measure a backlog that grows with the run.
const MIN_ACHIEVED_FRAC: f64 = 0.98;
/// A run whose generator sent 1% of its requests more than this many
/// request intervals late is flagged: the machine stalled it, and its
/// latencies include the stalls.
const MAX_LATE_P99_INTERVALS: f64 = 4.0;
/// Open-loop share of a traced run; a closed loop measures `peak_rps` in
/// the rest.
const TRACED_OPEN_FRAC: f64 = 0.75;
/// Sample sets: open loop without spans, open loop with spans (traced
/// runs only), closed loop (traced runs only).
const UNTRACED: usize = 0;
const TRACED: usize = 1;
const CLOSED: usize = 2;
/// The latency p50s: measured on every run, but reported as per-layer
/// metrics of the traced run, because on a shared virtual machine the
/// host's steal of processor time moves them by more than any bound an
/// end-to-end metric may have.
const MEDIANS: [(&str, &str); 3] = [
    ("answer_p50_us", "answer"),
    ("create_p50_us", "create_session"),
    ("evaluate_p50_us", "evaluate_batch"),
];
/// The p99s, reported like the p50s.
const TAILS: [(&str, Option<&str>); 3] = [
    ("tail.answer_p99_us", Some("answer")),
    ("tail.evaluate_p99_us", Some("evaluate_batch")),
    ("tail.request_p99_us", None),
];

/// One reported number.
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it summarizes.
    pub samples: usize,
}

impl Metric {
    /// A metric over `samples` samples.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !workload::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            workload::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        std::process::exit(server::serve_main(&argv[1..]));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: qhorn-perfbench --workload NAME --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(WORK_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(report) => {
            let ok = report.correct;
            report.print();
            std::process::exit(if ok { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn print(&self) {
        for m in &self.metrics {
            println!(
                "{:<32} {:>16.4} {:<8} samples={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Builds the inputs, starts the server and uploads the datasets; the
/// set-up connection is closed on return.
fn set_up(args: &Args, store_dir: &Path) -> Result<(Workload, ServerProc), String> {
    let w = Workload::build(&args.workload, args.seed).expect("workload names were checked");
    let server = ServerProc::start(w.durable.then_some(store_dir))?;
    let mut client = Client::connect(server.tcp).map_err(|e| e.to_string())?;
    for def in &w.uploads {
        match client.request(&Request::UploadDataset { def: def.clone() }) {
            Ok(Reply::DatasetUploaded { .. }) => {}
            other => return Err(format!("upload {}: {other:?}", def.name)),
        }
    }
    Ok((w, server))
}

/// A measured stretch of traffic after warm-up: whether it is paced
/// (open loop) or closed loop, whether spans are recorded, when it starts
/// after warm-up, how long it lasts, and which sample set it feeds.
struct Phase {
    open: bool,
    traced: bool,
    start: Duration,
    length: Duration,
    bucket: usize,
}

/// Untraced runs measure the open loop only, for the whole run, so that
/// the server's CPU time covers a fixed mix and count of requests.
/// Traced runs alternate one-second open-loop segments without and with
/// spans, so both sets see the same conditions and their difference is the
/// tracing overhead, and end with a closed loop.
fn phases(args: &Args) -> Vec<Phase> {
    let total = Duration::from_secs(args.seconds);
    if !args.trace {
        return vec![Phase {
            open: true,
            traced: false,
            start: Duration::ZERO,
            length: total,
            bucket: UNTRACED,
        }];
    }
    let open_secs = ((args.seconds as f64 * TRACED_OPEN_FRAC) as u64).max(2);
    let mut phases: Vec<Phase> = (0..open_secs)
        .map(|i| Phase {
            open: true,
            traced: i % 2 == 1,
            start: Duration::from_secs(i),
            length: Duration::from_secs(1),
            bucket: if i % 2 == 1 { TRACED } else { UNTRACED },
        })
        .collect();
    let open = Duration::from_secs(open_secs);
    phases.push(Phase {
        open: false,
        traced: false,
        start: open,
        length: total.saturating_sub(open).max(Duration::from_secs(1)),
        bucket: CLOSED,
    });
    phases
}

/// Sets up `count` times, numbering stores from `first`, and stops every
/// server but, with `keep_last`, the last; returns it with each set-up's
/// duration.
fn set_up_repeated(
    args: &Args,
    work: &Path,
    first: usize,
    count: usize,
    keep_last: bool,
) -> Result<(Option<(Workload, ServerProc)>, Vec<f64>), String> {
    let mut setup_s = Vec::new();
    for i in first..first + count {
        let store_dir = work.join(format!("store-{i}"));
        let started = Instant::now();
        let (w, server) = set_up(args, &store_dir)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if keep_last && i + 1 == first + count {
            return Ok((Some((w, server)), setup_s));
        }
        server.stop()?;
        let _ = std::fs::remove_dir_all(&store_dir);
    }
    Ok((None, setup_s))
}

/// What driving the load left behind.
struct Driven {
    conns: Vec<Conn>,
    /// Per sample set (see [`Phase::bucket`]), both connections merged.
    samples: [Samples; 3],
    /// Requests per second of each sample set, summed over the
    /// connections.
    rps: [f64; 3],
    /// Server CPU seconds over the first measured phase.
    server_cpu_s: f64,
    threads_peak: usize,
}

/// Opens the two connections and drives them through warm-up and the
/// measured phases, one thread each.
fn drive_load(
    args: &Args,
    w: &Workload,
    server: &ServerProc,
    epoch: Instant,
) -> Result<Driven, String> {
    let mut conns = Vec::new();
    for (c, client) in [
        Client::connect(server.tcp),
        Client::connect_http(server.http),
    ]
    .into_iter()
    .enumerate()
    {
        let client = client.map_err(|e| e.to_string())?;
        conns.push(Conn::new(
            client,
            w,
            c,
            epoch,
            trace::Recorder::new(epoch, c, false),
        ));
    }

    let pid = server.pid();
    let phases = phases(args);
    let stop_monitor = AtomicBool::new(false);
    let threads_peak = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(20);
    let measured_from = t0 + WARMUP;
    let interval = Duration::from_secs_f64(1.0 / w.rate_per_conn);
    let mut cpu = [0.0f64; 2];
    let results: Vec<(Conn, [Samples; 3])> = std::thread::scope(|scope| {
        scope.spawn(|| {
            // Only the traced run reports the thread count.
            while args.trace && !stop_monitor.load(Ordering::Relaxed) {
                if let Some(n) = stats::thread_count(pid) {
                    threads_peak.fetch_max(n, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                let phases = &phases;
                let rate = w.rate_per_conn;
                scope.spawn(move || {
                    let offset = interval * c as u32 / 2;
                    let open = Pace::Open { rate, offset };
                    conn.run(open, t0, WARMUP);
                    let mut samples: [Samples; 3] = Default::default();
                    for p in phases {
                        conn.set_record(p.traced);
                        let pace = if p.open { open } else { Pace::Closed };
                        samples[p.bucket].merge(conn.run(pace, measured_from + p.start, p.length));
                    }
                    conn.set_record(false);
                    (conn, samples)
                })
            })
            .collect();
        // CPU over the first phase, all of an untraced run.
        sleep_until(measured_from);
        cpu[0] = stats::process_cpu_seconds(pid).unwrap_or(0.0);
        sleep_until(measured_from + phases[0].length);
        cpu[1] = stats::process_cpu_seconds(pid).unwrap_or(0.0);
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        stop_monitor.store(true, Ordering::Relaxed);
        results
    });

    let mut driven = Driven {
        conns: Vec::new(),
        samples: Default::default(),
        rps: [0.0; 3],
        server_cpu_s: cpu[1] - cpu[0],
        threads_peak: threads_peak.load(Ordering::Relaxed),
    };
    for (conn, samples) in results {
        for (i, s) in samples.iter().enumerate() {
            if !s.wall.is_zero() {
                driven.rps[i] += s.attempted as f64 / s.wall.as_secs_f64();
            }
        }
        for (acc, s) in driven.samples.iter_mut().zip(samples) {
            acc.merge(s);
        }
        driven.conns.push(conn);
    }
    Ok(driven)
}

/// Closes every session, then checks over the TCP connection that none is
/// live and that both frontend pools drained. Returns the pools' queue
/// peak.
fn close_and_inspect(
    driven: &mut Driven,
    checks: &mut drive::Checks,
) -> Result<(u64, usize), String> {
    for conn in &mut driven.conns {
        driven.samples[UNTRACED].failed += conn.close_all();
        checks.merge(std::mem::take(&mut conn.checks));
    }
    let client = driven.conns[0].client();
    let live = match client.request(&Request::Stats) {
        Ok(Reply::Stats(s)) => s.live,
        other => return Err(format!("stats after the run: {other:?}")),
    };
    if live != 0 {
        checks
            .failures
            .push(format!("{live} sessions still live after the run"));
    }
    let pools = match client.request(&Request::Health) {
        Ok(Reply::Health(h)) => h.saturation.pools,
        other => return Err(format!("health after the run: {other:?}")),
    };
    for p in &pools {
        if p.queue_depth != 0 || p.enqueued != p.dequeued {
            checks.failures.push(format!(
                "pool {} not drained: depth {} enqueued {} dequeued {}",
                p.name, p.queue_depth, p.enqueued, p.dequeued
            ));
        }
    }
    Ok((
        pools.iter().map(|p| p.queue_peak).max().unwrap_or(0),
        pools.len(),
    ))
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let before = SETUP_REPEATS / 2;
    let (kept, mut setup_s) = set_up_repeated(args, work, 0, before, true)?;
    let (w, server) = kept.expect("the last set-up is kept");
    println!(
        "workload {} seed {} script_hash {:016x} rate {}/s per connection, nproc {}",
        w.name,
        args.seed,
        w.script_hash(),
        w.rate_per_conn,
        stats::nproc()
    );
    let epoch = Instant::now();
    let steal_before = stats::host_steal_ticks();
    let mut driven = drive_load(args, &w, &server, epoch)?;
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, stats::host_steal_ticks()) {
        println!(
            "host: {:.1}% of processor time was stolen by the hypervisor during the load",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        );
    }
    let mut checks = drive::Checks::default();
    let (pool_queue_peak, pools) = close_and_inspect(&mut driven, &mut checks)?;
    let rss = stats::peak_rss_mib(server.pid()).unwrap_or(0.0);
    let mut recorders = Vec::new();
    let mut exchanges = Vec::new();
    for mut conn in driven.conns.drain(..) {
        exchanges.append(&mut conn.exchanges);
        recorders.push(std::mem::replace(
            &mut conn.spans,
            trace::Recorder::new(epoch, 0, false),
        ));
    }
    server.stop()?;

    check_batch(&w, &checks.batch_replies, &mut checks.failures);
    println!(
        "checks: {} compliant dialogues learned their target, {} verified, {} abandoned, {} corrected, {} batch replies",
        checks.learned_ok,
        checks.verified_ok,
        checks.abandoned,
        checks.corrected,
        checks.batch_replies.len()
    );
    if checks.learned_ok == 0 {
        checks
            .failures
            .push("no compliant dialogue finished learning".into());
    }

    let [a, b, closed] = &driven.samples;
    let attempted = a.attempted + b.attempted + closed.attempted;
    let failed = a.failed + b.failed + closed.failed;
    let late = check_schedule(&w, &driven, &mut checks.failures);
    let mut metrics = Vec::new();
    let medians: Vec<Metric> = MEDIANS
        .iter()
        .map(|&(name, kind)| {
            let v = a.sorted(Some(kind));
            Metric::new(name, quantile(&v, 0.5), "us", v.len())
        })
        .collect();
    if args.trace {
        let answer_traced = quantile(&b.sorted(Some("answer")), 0.5);
        metrics.push(Metric::new(
            "trace.overhead_frac",
            answer_traced / medians[0].value - 1.0,
            "ratio",
            b.by_kind.get("answer").map_or(0, Vec::len),
        ));
        metrics.push(Metric::new(
            "loadgen.late_p99_us",
            quantile(&late, 0.99),
            "us",
            late.len(),
        ));
        metrics.extend(medians);
        for (name, kind) in TAILS {
            let mut v = a.in_time_order(kind);
            v.extend(b.in_time_order(kind));
            v.sort_by_key(|&(t, _)| t);
            if v.len() < MIN_P99_SAMPLES {
                checks.failures.push(format!(
                    "only {} {} samples; a p99 needs {MIN_P99_SAMPLES}",
                    v.len(),
                    kind.unwrap_or("request")
                ));
            }
            metrics.push(Metric::new(name, p99_of_chunks(&v), "us", v.len()));
        }
        metrics.extend([
            Metric::new(
                "peak_rps",
                driven.rps[CLOSED],
                "req/s",
                closed.attempted as usize,
            ),
            Metric::new(
                "loadgen.error_frac",
                failed as f64 / attempted.max(1) as f64,
                "ratio",
                attempted as usize,
            ),
            Metric::new(
                "frontend.pool_queue_peak",
                pool_queue_peak as f64,
                "count",
                pools,
            ),
            Metric::new(
                "registry.threads_peak",
                driven.threads_peak as f64,
                "count",
                1,
            ),
        ]);
        let mut layer_spans = trace::Recorder::new(epoch, recorders.len(), true);
        let layer = layers::measure(&w, &exchanges, work, &mut layer_spans)?;
        if let Some(m) = layer.iter().find(|m| m.name == "registry.residual_us") {
            if m.value < 0.0 {
                checks.failures.push(format!(
                    "registry.residual_us is {:.2}: the layer timings double-count",
                    m.value
                ));
            }
        }
        metrics.extend(layer);
        recorders.push(layer_spans);
        let path = PathBuf::from(WORK_DIR).join(format!("spans-{}.jsonl", w.name));
        let refs: Vec<&trace::Recorder> = recorders.iter().collect();
        let written =
            trace::write_all(&path, &refs).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {written} spans to {}", path.display());
    } else {
        let (_, after) = set_up_repeated(args, work, before, SETUP_REPEATS - before, false)?;
        setup_s.extend(after);
        let ungated: Vec<String> = medians
            .iter()
            .map(|m| format!("{} {:.1} us (samples={})", m.name, m.value, m.samples))
            .chain(TAILS.iter().map(|(name, kind)| {
                let v = a.in_time_order(*kind);
                format!("{name} {:.1} us (samples={})", p99_of_chunks(&v), v.len())
            }))
            .collect();
        println!("latencies, not gated: {}", ungated.join(", "));
        metrics.extend([
            Metric::new(
                "server_cpu_us_per_req",
                driven.server_cpu_s * 1e6 / a.attempted.max(1) as f64,
                "us",
                a.attempted as usize,
            ),
            Metric::new("peak_rss_mb", rss, "MiB", 1),
            Metric::new("setup_s", stats::median(&setup_s), "s", setup_s.len()),
        ]);
    }
    let kinds: BTreeMap<&str, usize> = a.by_kind.iter().map(|(k, v)| (*k, v.len())).collect();
    println!("requests by kind (first sample set): {kinds:?}");
    for f in &checks.failures {
        eprintln!("check failed: {f}");
    }
    Ok(Report {
        correct: checks.failures.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

/// Compares what the open loop achieved with what it offered, prints
/// both with the generator's lateness, fails the run when the service did
/// not keep up ([`MIN_ACHIEVED_FRAC`]) and flags it when the generator
/// ran late ([`MAX_LATE_P99_INTERVALS`]). Returns the lateness of every
/// open-loop request, ascending, µs.
fn check_schedule(w: &Workload, driven: &Driven, failures: &mut Vec<String>) -> Vec<f64> {
    let mut late: Vec<f64> = driven.samples[UNTRACED..=TRACED]
        .iter()
        .flat_map(|s| s.late.iter().copied())
        .collect();
    late.sort_by(f64::total_cmp);
    let offered = w.rate_per_conn * w.conns.len() as f64;
    let achieved = driven.rps[UNTRACED];
    let interval_us = 1e6 / w.rate_per_conn;
    let late_p99 = quantile(&late, 0.99);
    println!(
        "open loop: offered {offered:.1} req/s, achieved {achieved:.1} req/s; generator late p50 {:.1} us, p99 {late_p99:.1} us (samples={}, request interval {interval_us:.1} us per connection)",
        quantile(&late, 0.5),
        late.len()
    );
    if achieved < offered * MIN_ACHIEVED_FRAC {
        failures.push(format!(
            "the open loop completed {achieved:.1} of {offered:.1} req/s offered"
        ));
    }
    if late_p99 > MAX_LATE_P99_INTERVALS * interval_us {
        println!(
            "warning: 1% of requests went out more than {late_p99:.1} us late, over {MAX_LATE_P99_INTERVALS} request intervals"
        );
    }
    late
}

/// The p99 of each run of [`MIN_P99_SAMPLES`] or more consecutive
/// samples, and the median of those: a brief stall of the machine then
/// moves one chunk's p99 rather than the reported one.
fn p99_of_chunks(in_time_order: &[(u64, f64)]) -> f64 {
    let n = in_time_order.len();
    let chunks = (n / MIN_P99_SAMPLES).max(1);
    let p99s: Vec<f64> = (0..chunks)
        .map(|i| {
            let chunk = &in_time_order[i * n / chunks..(i + 1) * n / chunks];
            let mut v: Vec<f64> = chunk.iter().map(|&(_, l)| l).collect();
            v.sort_by(f64::total_cmp);
            quantile(&v, 0.99)
        })
        .collect();
    stats::median(&p99s)
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Checks every `evaluate_batch` reply against `qhorn_engine::exec::execute`
/// over a store built here from the same definition.
fn check_batch(w: &Workload, replies: &[(usize, u64)], failures: &mut Vec<String>) {
    let mut expected: BTreeMap<usize, u64> = BTreeMap::new();
    let mut stores: BTreeMap<String, DataStore> = BTreeMap::new();
    for &(case, got) in replies {
        let want = *expected.entry(case).or_insert_with(|| {
            let e = &w.evals[case];
            let store = stores
                .entry(e.dataset.clone())
                .or_insert_with(|| w.build_store(&e.dataset).0);
            let query = qhorn_lang::parse_with_arity(&e.query, store.bridge().n())
                .expect("generated queries parse");
            let ids = qhorn_engine::exec::execute(&CompiledQuery::compile(&query), store.boolean());
            stats::fnv1a(ids.iter().flat_map(|id| id.0.to_le_bytes()))
        });
        if got != want {
            let e = &w.evals[case];
            failures.push(format!(
                "evaluate_batch of `{}` over {}/{} differs from exec::execute",
                e.query, e.dataset, e.size
            ));
        }
    }
}
