//! The load subsystem: deterministic workload scripts and an open-loop
//! runner that drives full learning dialogues against a live server.
//!
//! Three pieces:
//!
//! * **Workload scripts** ([`WorkloadScript`]): a seed-driven, fully
//!   serializable plan — generated datasets (from
//!   [`qhorn_relation::generate`], each verified against the naive
//!   reference evaluator before use), per-dialogue targets, and a
//!   population assignment per dialogue. Same seed → byte-identical
//!   [`WorkloadScript::canonical_json`], which is what the seed-pinned
//!   determinism test asserts.
//! * **Scripted user populations** ([`Population`]): `Compliant` users
//!   answer every question honestly to completion and verification;
//!   `NoisyThenCorrected` users flip some answers, then use the
//!   `correct` protocol message to repair them and relearn;
//!   `Abandoning` users walk away mid-dialogue (closing their session,
//!   as a well-behaved client library would).
//! * **The open-loop runner** ([`run_load`]): a shared [`Pacer`] hands
//!   out request slots at the target RPS regardless of how fast the
//!   server answers (arrival times are scheduled, not closed-loop
//!   chained), worker connections claim dialogues from a shared queue,
//!   and every request's latency is recorded under its protocol message
//!   kind for p50/p95/p99 reporting.

use qhorn_core::{Query, Response};
use qhorn_engine::session::LearnerKind;
use qhorn_json::wire::map;
use qhorn_json::{Json, ToJson};
use qhorn_lockdep::{LockClass, OrderedMutex};
use qhorn_relation::generate::{generate_dataset, sweep, verify_dataset};
use qhorn_relation::DatasetDef;
use qhorn_service::proto::{Reply, Request, StepReply};
use qhorn_service::Client;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A scripted user archetype.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Population {
    /// Answers every question honestly, verifies, closes.
    Compliant,
    /// Flips some answers, then repairs them via `correct` and relearns
    /// to a verified result.
    NoisyThenCorrected,
    /// Answers honestly for a few questions, then closes the session
    /// mid-dialogue.
    Abandoning,
}

impl Population {
    /// Stable label used in scripts and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Population::Compliant => "compliant",
            Population::NoisyThenCorrected => "noisy_then_corrected",
            Population::Abandoning => "abandoning",
        }
    }

    /// All populations, in report order.
    pub const ALL: [Population; 3] = [
        Population::Compliant,
        Population::NoisyThenCorrected,
        Population::Abandoning,
    ];
}

/// One planned dialogue: which dataset, which user archetype, which
/// hidden target answers the questions, and the per-dialogue seed the
/// population's random decisions (noise, abandon point) derive from.
#[derive(Clone, Debug)]
pub struct DialoguePlan {
    /// The scripted user archetype.
    pub population: Population,
    /// Catalog name of the (generated, uploaded) dataset.
    pub dataset: String,
    /// `size` field for `create_session` (validated, ignored for
    /// uploads).
    pub size: usize,
    /// Question budget for the session.
    pub max_questions: usize,
    /// The hidden target query the scripted user answers from.
    pub target: Query,
    /// Seed for the population's own coin flips.
    pub seed: u64,
}

impl ToJson for Population {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

qhorn_json::wire! {
    encode struct DialoguePlan {
        population: Population,
        dataset: String,
        size: usize,
        max_questions: usize,
        target: Query,
        seed: u64,
    }
}

/// Knobs for building a [`WorkloadScript`] and running it.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Master seed; everything in the script derives from it.
    pub seed: u64,
    /// Dataset sweep: object counts.
    pub sweep_sizes: Vec<usize>,
    /// Dataset sweep: proposition counts.
    pub sweep_arities: Vec<usize>,
    /// Dialogues per population (total dialogues = 3×this).
    pub dialogues_per_population: usize,
    /// Open-loop arrival rate (requests per second).
    pub target_rps: f64,
    /// Concurrent client connections per transport.
    pub connections: usize,
    /// Question budget per session.
    pub max_questions: usize,
}

impl LoadConfig {
    /// The CI smoke tier: small sweep, few dialogues, fast pacing.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        LoadConfig {
            seed,
            sweep_sizes: vec![8, 24],
            sweep_arities: vec![3, 6],
            dialogues_per_population: 3,
            target_rps: 400.0,
            connections: 2,
            max_questions: 400,
        }
    }

    /// The recorded-artifact tier.
    #[must_use]
    pub fn full(seed: u64) -> Self {
        LoadConfig {
            seed,
            sweep_sizes: vec![8, 24, 64],
            sweep_arities: vec![3, 6, 12],
            dialogues_per_population: 12,
            target_rps: 600.0,
            connections: 4,
            max_questions: 2_000,
        }
    }
}

/// The complete deterministic plan for one load run.
#[derive(Clone, Debug)]
pub struct WorkloadScript {
    /// The master seed the script was built from.
    pub seed: u64,
    /// Generated datasets (verified against the naive evaluator).
    pub datasets: Vec<DatasetDef>,
    /// The dialogues, in claim order.
    pub dialogues: Vec<DialoguePlan>,
}

impl WorkloadScript {
    /// Builds the script: sweeps dataset shapes, verifies every
    /// generated dataset against the naive reference evaluator, and
    /// lays out `3 × dialogues_per_population` dialogues round-robin
    /// over the datasets, interleaving populations so every mix of
    /// archetypes is in flight at once.
    ///
    /// # Panics
    /// If a generated dataset fails reference verification — that is a
    /// generator bug the load run must not paper over.
    #[must_use]
    pub fn build(cfg: &LoadConfig) -> WorkloadScript {
        let params = sweep(cfg.seed, &cfg.sweep_sizes, &cfg.sweep_arities);
        let datasets: Vec<DatasetDef> = params
            .iter()
            .map(|p| {
                let def = generate_dataset(p);
                verify_dataset(&def).unwrap_or_else(|e| {
                    panic!("generated dataset {} failed verification: {e}", def.name)
                });
                def
            })
            .collect();
        let mut dialogues = Vec::new();
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x9e3779b97f4a7c15);
        for d in 0..cfg.dialogues_per_population {
            for population in Population::ALL {
                let def = &datasets[(dialogues.len()) % datasets.len()];
                let n = def.propositions.len() as u16;
                let target = qhorn_sim::genquery::random_qhorn1(n, &mut rng);
                dialogues.push(DialoguePlan {
                    population,
                    dataset: def.name.clone(),
                    size: def.relation.objects.len().max(1),
                    max_questions: cfg.max_questions,
                    target,
                    seed: cfg.seed ^ ((d as u64) << 8) ^ population.name().len() as u64,
                });
            }
        }
        WorkloadScript {
            seed: cfg.seed,
            datasets,
            dialogues,
        }
    }

    /// The script as canonical JSON — the byte-identity surface of the
    /// determinism contract.
    #[must_use]
    pub fn canonical_json(&self) -> String {
        Json::object([
            ("seed", Json::U64(self.seed)),
            ("datasets", self.datasets.to_json()),
            (
                "dialogues",
                Json::Arr(self.dialogues.iter().map(ToJson::to_json).collect()),
            ),
        ])
        .to_string()
    }
}

/// Which wire frontend a load run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// The JSON-lines TCP frontend.
    Tcp,
    /// The HTTP/1.1 gateway.
    Http,
}

impl TransportKind {
    /// Stable report label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Tcp => "tcp",
            TransportKind::Http => "http",
        }
    }

    fn connect(self, addr: SocketAddr) -> Client {
        match self {
            TransportKind::Tcp => Client::connect(addr).expect("tcp client"),
            TransportKind::Http => Client::connect_http(addr).expect("http client"),
        }
    }
}

/// Open-loop arrival scheduler: request *slots* are fixed on a clock at
/// the target rate; a slow server makes workers fall behind the schedule
/// (visible as achieved < target RPS) instead of silently stretching the
/// interval the way closed-loop chaining would.
struct Pacer {
    start: Instant,
    interval_nanos: f64,
    next_slot: AtomicU64,
}

impl Pacer {
    fn new(target_rps: f64) -> Pacer {
        Pacer {
            start: Instant::now(),
            interval_nanos: 1e9 / target_rps.max(0.001),
            next_slot: AtomicU64::new(0),
        }
    }

    /// Claims the next slot and sleeps until its scheduled time.
    fn pace(&self) {
        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed);
        let due = Duration::from_nanos((slot as f64 * self.interval_nanos) as u64);
        let elapsed = self.start.elapsed();
        if due > elapsed {
            std::thread::sleep(due - elapsed);
        }
    }
}

/// Always-present error classes, keyed the way the HTTP gateway maps
/// [`qhorn_service::http::status_for`]: `400` parse, `404` unknown,
/// `409` conflict/state, `422` semantic, `429` load-shed (zero until
/// the service grows admission control — the class is reported so its
/// appearance is a diff, not a schema change), `5xx` server-side, and
/// `transport` for connection-level failures.
pub const ERROR_CLASSES: &[&str] = &[
    "400",
    "404",
    "409",
    "422",
    "429",
    "5xx",
    "transport",
    "other",
];

fn classify_error(message: &str) -> &'static str {
    if message.starts_with("unknown session")
        || message.starts_with("unknown dataset")
        || message.starts_with("unknown trace")
    {
        "404"
    } else if message.starts_with("session is") || message.starts_with("dataset conflict") {
        "409"
    } else if message.starts_with("parse error") {
        "400"
    } else if message.starts_with("invalid dataset")
        || message.starts_with("invalid size")
        || message.starts_with("engine error")
        || message.starts_with("invalid config")
    {
        "422"
    } else if message.starts_with("store error") || message.starts_with("transport error") {
        "5xx"
    } else {
        "other"
    }
}

/// Latency percentiles for one protocol message kind.
#[derive(Clone, Debug)]
pub struct KindSummary {
    /// The wire message kind.
    pub kind: String,
    /// Requests of this kind sent.
    pub count: u64,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 95th percentile, microseconds.
    pub p95_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// Worst observed, microseconds.
    pub max_us: u64,
}

/// Per-population dialogue outcomes.
#[derive(Clone, Copy, Debug, Default)]
pub struct PopulationTally {
    /// Dialogues run.
    pub dialogues: u64,
    /// Dialogues that reached a learned query.
    pub learned: u64,
    /// Dialogues whose learned query verified.
    pub verified: u64,
    /// Dialogues that sent at least one `correct`.
    pub corrected: u64,
    /// Dialogues abandoned mid-learning.
    pub abandoned: u64,
    /// Questions answered across the population.
    pub questions: u64,
}

qhorn_json::wire! {
    encode struct PopulationTally {
        dialogues: u64,
        learned: u64,
        verified: u64,
        corrected: u64,
        abandoned: u64,
        questions: u64,
    }
}

/// Everything one transport's load run produced.
#[derive(Clone, Debug)]
pub struct TransportReport {
    /// `"tcp"` or `"http"`.
    pub transport: &'static str,
    /// Wall-clock duration of the run, seconds.
    pub wall_seconds: f64,
    /// Requests sent (all kinds).
    pub requests: u64,
    /// The pacer's target arrival rate.
    pub target_rps: f64,
    /// Requests / wall seconds actually achieved.
    pub achieved_rps: f64,
    /// Error counts per class; every [`ERROR_CLASSES`] key is present.
    pub errors_by_class: BTreeMap<&'static str, u64>,
    /// Per-message-kind latency summaries (kinds actually sent).
    pub kinds: Vec<KindSummary>,
    /// Outcomes per population, in [`Population::ALL`] order.
    pub populations: Vec<(&'static str, PopulationTally)>,
    /// p50/p95/p99 over every request of every kind, microseconds.
    pub overall: KindSummary,
}

/// Mutable per-run accumulators, shared across worker threads.
#[derive(Default)]
struct Recorder {
    latencies: BTreeMap<String, Vec<u64>>,
    errors: BTreeMap<&'static str, u64>,
    tallies: BTreeMap<&'static str, PopulationTally>,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn summarize(kind: String, mut lat: Vec<u64>) -> KindSummary {
    lat.sort_unstable();
    KindSummary {
        kind,
        count: lat.len() as u64,
        p50_us: percentile(&lat, 0.50),
        p95_us: percentile(&lat, 0.95),
        p99_us: percentile(&lat, 0.99),
        max_us: lat.last().copied().unwrap_or(0),
    }
}

/// One worker's view of the run: a client, the pacer, and its share of
/// the recorder.
struct WorkerCtx<'a> {
    client: Client,
    pacer: &'a Pacer,
    latencies: BTreeMap<String, Vec<u64>>,
    errors: BTreeMap<&'static str, u64>,
}

impl WorkerCtx<'_> {
    /// Paced request with latency + error recording. Protocol-level
    /// `error` replies are recorded and returned as `None`.
    fn send(&mut self, req: &Request) -> Option<Reply> {
        self.pacer.pace();
        let start = Instant::now();
        let result = self.client.request(req);
        let us = start.elapsed().as_micros() as u64;
        self.latencies
            .entry(req.kind().to_string())
            .or_default()
            .push(us);
        match result {
            Ok(Reply::Error { message }) => {
                *self.errors.entry(classify_error(&message)).or_default() += 1;
                None
            }
            Ok(reply) => Some(reply),
            Err(_) => {
                *self.errors.entry("transport").or_default() += 1;
                None
            }
        }
    }

    fn step(&mut self, req: &Request) -> Option<(u64, StepReply)> {
        match self.send(req)? {
            Reply::Created { session, step } | Reply::Step { session, step } => {
                Some((session, step))
            }
            _ => None,
        }
    }
}

/// Drives one full dialogue per its population's script. Returns the
/// tally delta this dialogue contributes.
fn run_dialogue(ctx: &mut WorkerCtx<'_>, plan: &DialoguePlan) -> PopulationTally {
    let mut tally = PopulationTally {
        dialogues: 1,
        ..PopulationTally::default()
    };
    let mut rng = SmallRng::seed_from_u64(plan.seed);
    let abandon_after: u64 = 1 + rng.gen_range(0..4u64);
    let mut flips: Vec<(usize, Response)> = Vec::new();
    let mut corrected = false;

    let Some((id, mut step)) = ctx.step(&Request::CreateSession {
        dataset: plan.dataset.clone(),
        size: plan.size,
        learner: LearnerKind::Qhorn1,
        max_questions: Some(plan.max_questions),
    }) else {
        return tally;
    };

    loop {
        match step {
            StepReply::Question {
                question, index, ..
            } => {
                if plan.population == Population::Abandoning && tally.questions >= abandon_after {
                    ctx.send(&Request::CloseSession { session: id });
                    tally.abandoned = 1;
                    return tally;
                }
                let honest = plan.target.eval(&question);
                let response = if plan.population == Population::NoisyThenCorrected
                    && !corrected
                    && rng.gen_bool(0.3)
                {
                    flips.push((index, honest));
                    honest.negate()
                } else {
                    honest
                };
                tally.questions += 1;
                let Some(next) = ctx.step(&Request::Answer {
                    session: id,
                    response,
                }) else {
                    // Error path: close rather than leak the session.
                    ctx.send(&Request::CloseSession { session: id });
                    return tally;
                };
                step = next.1;
            }
            StepReply::Learned { .. } => {
                if plan.population == Population::NoisyThenCorrected
                    && !corrected
                    && !flips.is_empty()
                {
                    corrected = true;
                    tally.corrected = 1;
                    let corrections = std::mem::take(&mut flips);
                    let Some(next) = ctx.step(&Request::Correct {
                        session: id,
                        corrections,
                    }) else {
                        ctx.send(&Request::CloseSession { session: id });
                        return tally;
                    };
                    step = next.1;
                    continue;
                }
                tally.learned = 1;
                let Some(next) = ctx.step(&Request::Verify {
                    session: id,
                    query: None,
                }) else {
                    ctx.send(&Request::CloseSession { session: id });
                    return tally;
                };
                step = next.1;
            }
            StepReply::Verified { verified } => {
                if verified {
                    tally.verified = 1;
                }
                ctx.send(&Request::CloseSession { session: id });
                return tally;
            }
            StepReply::Failed { .. } => {
                ctx.send(&Request::CloseSession { session: id });
                return tally;
            }
        }
    }
}

/// Runs the script's dialogues against `addr` over `transport`,
/// open-loop at `cfg.target_rps`, with `cfg.connections` concurrent
/// client connections claiming dialogues from a shared queue.
///
/// The caller is responsible for having uploaded the script's datasets
/// (see [`upload_datasets`]) — the runner only drives dialogues.
#[must_use]
pub fn run_load(
    script: &WorkloadScript,
    cfg: &LoadConfig,
    transport: TransportKind,
    addr: SocketAddr,
) -> TransportReport {
    let pacer = Pacer::new(cfg.target_rps);
    let next_dialogue = AtomicU64::new(0);
    let recorder = OrderedMutex::new(LockClass::new("bench.recorder"), Recorder::default());
    let started = Instant::now();

    std::thread::scope(|scope| {
        for _ in 0..cfg.connections.max(1) {
            scope.spawn(|| {
                let mut ctx = WorkerCtx {
                    client: transport.connect(addr),
                    pacer: &pacer,
                    latencies: BTreeMap::new(),
                    errors: BTreeMap::new(),
                };
                loop {
                    let i = next_dialogue.fetch_add(1, Ordering::Relaxed) as usize;
                    let Some(plan) = script.dialogues.get(i) else {
                        break;
                    };
                    let tally = run_dialogue(&mut ctx, plan);
                    let mut rec = recorder.lock_recover();
                    let agg = rec.tallies.entry(plan.population.name()).or_default();
                    agg.dialogues += tally.dialogues;
                    agg.learned += tally.learned;
                    agg.verified += tally.verified;
                    agg.corrected += tally.corrected;
                    agg.abandoned += tally.abandoned;
                    agg.questions += tally.questions;
                }
                let mut rec = recorder.lock_recover();
                for (kind, lat) in ctx.latencies {
                    rec.latencies.entry(kind).or_default().extend(lat);
                }
                for (class, n) in ctx.errors {
                    *rec.errors.entry(class).or_default() += n;
                }
            });
        }
    });

    let wall_seconds = started.elapsed().as_secs_f64();
    let rec = recorder.into_inner_recover();
    let mut errors_by_class: BTreeMap<&'static str, u64> =
        ERROR_CLASSES.iter().map(|&c| (c, 0)).collect();
    for (class, n) in rec.errors {
        *errors_by_class.entry(class).or_default() += n;
    }
    let requests: u64 = rec.latencies.values().map(|v| v.len() as u64).sum();
    let mut all: Vec<u64> = rec.latencies.values().flatten().copied().collect();
    all.sort_unstable();
    let overall = summarize("all".to_string(), all);
    let kinds = rec
        .latencies
        .into_iter()
        .map(|(kind, lat)| summarize(kind, lat))
        .collect();
    let populations = Population::ALL
        .iter()
        .map(|p| {
            (
                p.name(),
                rec.tallies.get(p.name()).copied().unwrap_or_default(),
            )
        })
        .collect();
    TransportReport {
        transport: transport.name(),
        wall_seconds,
        requests,
        target_rps: cfg.target_rps,
        achieved_rps: requests as f64 / wall_seconds.max(1e-9),
        errors_by_class,
        kinds,
        populations,
        overall,
    }
}

/// Uploads the script's datasets through the catalog (idempotent per
/// run: a name conflict from a previous upload of the same script is
/// tolerated). Returns how many uploads the server accepted fresh.
pub fn upload_datasets(client: &mut Client, script: &WorkloadScript) -> u64 {
    let mut fresh = 0;
    for def in &script.datasets {
        match client.request(&Request::UploadDataset { def: def.clone() }) {
            Ok(Reply::DatasetUploaded { .. }) => fresh += 1,
            Ok(Reply::Error { message }) if message.starts_with("dataset conflict") => {}
            Ok(other) => panic!("unexpected upload reply {other:?}"),
            Err(e) => panic!("upload failed: {e}"),
        }
    }
    fresh
}

qhorn_json::wire! {
    encode struct KindSummary {
        kind: String,
        count: u64,
        p50_us: u64,
        p95_us: u64,
        p99_us: u64,
        max_us: u64,
    }
}

qhorn_json::wire! {
    encode struct TransportReport {
        transport: &'static str,
        wall_seconds: f64,
        requests: u64,
        target_rps: f64,
        achieved_rps: f64,
        errors_by_class: BTreeMap<&'static str, u64> [with = map],
        kinds: Vec<KindSummary>,
        populations: Vec<(&'static str, PopulationTally)> [with = map],
        overall: KindSummary,
    }
}

/// Builds a [`WorkloadScript`] sized for the dataset sweep without
/// exceeding the server's upload quota.
///
/// # Panics
/// If the sweep would produce more datasets than
/// [`qhorn_service::dataset::MAX_UPLOADS`].
#[must_use]
pub fn build_script(cfg: &LoadConfig) -> WorkloadScript {
    let script = WorkloadScript::build(cfg);
    assert!(
        script.datasets.len() <= qhorn_service::dataset::MAX_UPLOADS,
        "sweep produces {} datasets; the catalog accepts {}",
        script.datasets.len(),
        qhorn_service::dataset::MAX_UPLOADS
    );
    script
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_builds_byte_identical_scripts() {
        let cfg = LoadConfig::quick(42);
        let a = build_script(&cfg).canonical_json();
        let b = build_script(&cfg).canonical_json();
        assert_eq!(a, b);
        let c = build_script(&LoadConfig::quick(43)).canonical_json();
        assert_ne!(a, c);
    }

    #[test]
    fn scripts_interleave_all_populations() {
        let script = build_script(&LoadConfig::quick(7));
        for p in Population::ALL {
            assert!(
                script.dialogues.iter().any(|d| d.population == p),
                "population {} missing",
                p.name()
            );
        }
        assert_eq!(script.dialogues.len(), 9);
    }

    #[test]
    fn error_classes_are_stable_and_total() {
        assert_eq!(classify_error("unknown session 5"), "404");
        assert_eq!(classify_error("dataset conflict: nope"), "409");
        assert_eq!(classify_error("parse error: x"), "400");
        assert_eq!(classify_error("invalid size: 0"), "422");
        assert_eq!(classify_error("store error: disk full"), "5xx");
        assert_eq!(classify_error("anything else"), "other");
        for class in ERROR_CLASSES {
            assert!(!class.is_empty());
        }
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 51); // nearest-rank: round(99·0.5) = 50 → value 51
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&[], 0.99), 0);
        let s = summarize("x".into(), vec![30, 10, 20]);
        assert_eq!((s.p50_us, s.max_us, s.count), (20, 30, 3));
    }
}
