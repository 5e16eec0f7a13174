//! Encoder differential: the direct writer that every reply, request and
//! store frame goes out through (`qhorn_json::to_string`, i.e.
//! `ToJson::write_json`) must produce exactly the bytes of the reference
//! tree, `value.to_json().to_compact()`, for generated values of every
//! message kind — strings full of characters that need escaping,
//! integers at their extremes, multi-word variable sets, optional fields
//! both present and absent. The recorded corpora (`wire_corpus`) check
//! the same equality line by line.

use proptest::prelude::*;
use qhorn_core::{BoolTuple, Obj, Query, Response, VarId, VarSet};
use qhorn_engine::exec::ExecStats;
use qhorn_engine::session::{Exchange, LearnerKind};
use qhorn_json::{Json, ToJson};
use qhorn_service::dataset::DatasetInfo;
use qhorn_service::metrics::{
    HistogramSnapshot, MetricsSnapshot, PoolSnapshot, SaturationSnapshot, StoreOpsSnapshot,
};
use qhorn_service::proto::{Reply, Request, StepReply};
use qhorn_service::registry::{HealthReport, RegistryStats, SessionResources};
use qhorn_service::trace::{
    AttrValue, LayerProfile, SpanNode, TimelineEvent, TraceSummary, TraceTree,
};
use qhorn_sim::genquery::{random_qhorn1, random_role_preserving, RolePreservingParams};
use qhorn_store::{LogRecord, SessionMeta};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Characters the string writer must copy or escape: plain ASCII, the
/// escaped ones, other control characters, DEL and multi-byte UTF-8.
const ALPHABET: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '∀',
    '😀', '\u{2028}',
];

/// A generator driven by one proptest-drawn seed.
struct Gen(SmallRng);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(SmallRng::seed_from_u64(seed))
    }

    fn pick(&mut self, n: usize) -> usize {
        self.0.gen_range(0..n)
    }

    fn flag(&mut self) -> bool {
        self.0.gen_bool(0.5)
    }

    fn text(&mut self) -> String {
        let len = self.pick(12);
        (0..len)
            .map(|_| ALPHABET[self.pick(ALPHABET.len())])
            .collect()
    }

    /// An integer, often at a digit-count or type boundary.
    fn num(&mut self) -> u64 {
        const EDGES: [u64; 8] = [0, 1, 9, 10, 99, 100, i64::MAX as u64 + 1, u64::MAX];
        if self.flag() {
            EDGES[self.pick(EDGES.len())]
        } else {
            self.0.gen::<u64>() >> self.pick(64)
        }
    }

    fn size(&mut self) -> usize {
        self.num() as usize
    }

    fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        self.flag().then(|| f(self))
    }

    fn list<T>(&mut self, max: usize, mut f: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let len = self.pick(max + 1);
        (0..len).map(|_| f(self)).collect()
    }

    fn arity(&mut self) -> u16 {
        // Past 64 a variable set spills into a second word.
        self.0.gen_range(1..=70)
    }

    fn obj(&mut self) -> Obj {
        let n = self.arity();
        let tuples = self.list(4, |g| {
            let trues: VarSet = (0..n).filter(|_| g.flag()).map(VarId).collect();
            BoolTuple::from_true_set(n, trues)
        });
        Obj::new(n, tuples)
    }

    fn query(&mut self) -> Query {
        let n = self.arity();
        if self.flag() {
            random_qhorn1(n, &mut self.0)
        } else {
            let params = RolePreservingParams {
                heads: (n as usize / 3).min(n as usize - 1),
                theta: 2,
                body_size: (1, 3),
                conjunctions: 2,
                conj_size: (1, n as usize),
            };
            random_role_preserving(n, &params, &mut self.0)
        }
    }

    fn response(&mut self) -> Response {
        if self.flag() {
            Response::Answer
        } else {
            Response::NonAnswer
        }
    }

    fn learner(&mut self) -> LearnerKind {
        if self.flag() {
            LearnerKind::Qhorn1
        } else {
            LearnerKind::RolePreserving
        }
    }

    fn corrections(&mut self) -> Vec<(usize, Response)> {
        self.list(3, |g| (g.size(), g.response()))
    }

    fn step(&mut self) -> StepReply {
        match self.pick(4) {
            0 => StepReply::Question {
                question: self.obj(),
                rendered: self.text(),
                from_store: self.flag(),
                index: self.size(),
            },
            1 => StepReply::Learned {
                query: self.text(),
                query_json: self.query(),
                questions: self.size(),
            },
            2 => StepReply::Failed {
                message: self.text(),
            },
            _ => StepReply::Verified {
                verified: self.flag(),
            },
        }
    }

    fn dataset_info(&mut self) -> DatasetInfo {
        DatasetInfo {
            name: self.text(),
            builtin: self.flag(),
            arity: self.arity(),
            objects: self.opt(Gen::num),
        }
    }

    fn span(&mut self, depth: usize) -> SpanNode {
        SpanNode {
            name: self.text(),
            start_nanos: self.num(),
            duration_nanos: self.num(),
            session: self.opt(Gen::num),
            attrs: self.list(3, |g| {
                let value = match g.pick(3) {
                    0 => AttrValue::U64(g.num()),
                    1 => AttrValue::Bool(g.flag()),
                    _ => AttrValue::Str(g.text().into()),
                };
                (g.text(), value)
            }),
            children: if depth == 0 {
                Vec::new()
            } else {
                self.list(2, |g| g.span(depth - 1))
            },
        }
    }

    fn resources(&mut self) -> SessionResources {
        SessionResources {
            session: self.num(),
            state: self.text(),
            questions: self.num(),
            questions_by_phase: self.list(3, |g| (g.text(), g.num())),
            transcript_bytes: self.num(),
            transcript_cache_bytes: self.num(),
            store_bytes: self.num(),
            eval_nanos: self.num(),
        }
    }

    fn request(&mut self) -> Request {
        match self.pick(Request::KINDS.len()) {
            0 => Request::CreateSession {
                dataset: self.text(),
                size: self.size(),
                learner: self.learner(),
                max_questions: self.opt(Gen::size),
            },
            1 => Request::UploadDataset {
                def: qhorn_relation::datasets::chocolates::dataset_def(&self.text()),
            },
            2 => Request::ListDatasets,
            3 => Request::DropDataset { name: self.text() },
            4 => Request::NextQuestion {
                session: self.num(),
            },
            5 => Request::Answer {
                session: self.num(),
                response: self.response(),
            },
            6 => Request::Correct {
                session: self.num(),
                corrections: self.corrections(),
            },
            7 => Request::Verify {
                session: self.num(),
                query: self.opt(Gen::text),
            },
            8 => Request::EvaluateBatch {
                session: self.opt(Gen::num),
                dataset: self.opt(Gen::text),
                size: self.size(),
                query: self.opt(Gen::text),
                workers: self.size(),
            },
            9 => Request::ExportQuery {
                session: self.num(),
                format: self.text(),
            },
            10 => Request::CloseSession {
                session: self.num(),
            },
            11 => Request::Stats,
            12 => Request::Metrics,
            13 => Request::GetTrace { id: self.text() },
            14 => Request::ListTraces {
                min_duration_nanos: self.opt(Gen::num),
                kind: self.opt(Gen::text),
                session: self.opt(Gen::num),
                slow_only: self.flag(),
                limit: self.num(),
            },
            15 => Request::SessionTimeline {
                session: self.num(),
            },
            16 => Request::Health,
            17 => Request::Profile { reset: self.flag() },
            18 => Request::SessionResources {
                session: self.num(),
            },
            _ => Request::SetTraceConfig {
                slow_threshold_ms: self.opt(Gen::num),
                sample_every: self.opt(Gen::num),
            },
        }
    }

    fn reply(&mut self) -> Reply {
        match self.pick(Reply::KINDS.len()) {
            0 => Reply::Created {
                session: self.num(),
                step: self.step(),
            },
            1 => Reply::Step {
                session: self.num(),
                step: self.step(),
            },
            2 => Reply::Batch {
                answers: self.list(6, |g| g.num() as u32),
                stats: ExecStats {
                    objects: self.size(),
                    signatures_evaluated: self.size(),
                    answers: self.size(),
                    threads_used: self.size(),
                    eval_nanos: self.num(),
                },
                workers: self.size(),
            },
            3 => Reply::Exported { text: self.text() },
            4 => Reply::Closed {
                session: self.num(),
            },
            5 => Reply::DatasetUploaded {
                info: self.dataset_info(),
            },
            6 => Reply::Datasets {
                datasets: self.list(3, Gen::dataset_info),
            },
            7 => Reply::DatasetDropped { name: self.text() },
            8 => Reply::Stats(RegistryStats {
                created: self.num(),
                live: self.num(),
                answers: self.num(),
                uptime_seconds: self.num(),
                ..RegistryStats::default()
            }),
            9 => Reply::Metrics(MetricsSnapshot {
                histograms: self.list(2, |g| HistogramSnapshot {
                    message: g.text(),
                    count: g.num(),
                    sum_nanos: g.num(),
                    buckets: g.list(4, Gen::num),
                }),
                phases: self.list(3, |g| (g.text(), g.num())),
                learn_runs: self.num(),
            }),
            10 => Reply::Trace(TraceTree {
                id: self.num(),
                kind: self.text(),
                session: self.opt(Gen::num),
                start_nanos: self.num(),
                duration_nanos: self.num(),
                slow: self.flag(),
                root: self.span(2),
            }),
            11 => Reply::Traces {
                traces: self.list(3, |g| TraceSummary {
                    id: g.num(),
                    kind: g.text(),
                    session: g.opt(Gen::num),
                    start_nanos: g.num(),
                    duration_nanos: g.num(),
                    spans: g.num(),
                    slow: g.flag(),
                }),
            },
            12 => Reply::Timeline {
                session: self.num(),
                events: self.list(3, |g| TimelineEvent {
                    at_nanos: g.num(),
                    kind: g.text(),
                    detail: g.text(),
                    trace: g.num(),
                    duration_nanos: g.num(),
                }),
                resources: self.opt(Gen::resources),
            },
            13 => Reply::Health(HealthReport {
                verdict: self.text(),
                uptime_seconds: self.num(),
                saturation: SaturationSnapshot {
                    pools: self.list(2, |g| PoolSnapshot {
                        name: g.text(),
                        workers: g.num(),
                        queue_peak: g.num(),
                        ..PoolSnapshot::default()
                    }),
                    lock_waits: self.num(),
                    store: self.opt(|g| StoreOpsSnapshot {
                        appends: g.num(),
                        ..StoreOpsSnapshot::default()
                    }),
                    ..SaturationSnapshot::default()
                },
            }),
            14 => Reply::Profile {
                uptime_seconds: self.num(),
                layers: self.list(3, |g| LayerProfile {
                    layer: g.text(),
                    spans: g.num(),
                    self_nanos: g.num(),
                    total_nanos: g.num(),
                }),
            },
            15 => Reply::SessionResources(self.resources()),
            16 => Reply::TraceConfig {
                slow_threshold_ms: self.num(),
                sample_every: self.num(),
            },
            _ => Reply::Error {
                message: self.text(),
            },
        }
    }

    fn record(&mut self) -> LogRecord {
        match self.pick(9) {
            0 => LogRecord::SessionCreated {
                id: self.num(),
                meta: SessionMeta {
                    dataset: self.text(),
                    size: self.size(),
                    learner: self.learner(),
                    max_questions: self.opt(Gen::size),
                },
            },
            1 => LogRecord::ExchangeAppended {
                id: self.num(),
                exchange: Exchange {
                    question: self.obj(),
                    from_store: self.flag(),
                    response: self.response(),
                },
            },
            2 => LogRecord::Corrected {
                id: self.num(),
                corrections: self.corrections(),
            },
            3 => LogRecord::QueryLearned {
                id: self.num(),
                query: self.query(),
            },
            4 => LogRecord::Verified {
                id: self.num(),
                verified: self.flag(),
            },
            5 => LogRecord::SessionClosed { id: self.num() },
            6 => LogRecord::DatasetRegistered {
                def: qhorn_relation::datasets::chocolates::dataset_def(&self.text()),
            },
            7 => LogRecord::DatasetDropped { name: self.text() },
            _ => LogRecord::SnapshotWritten {
                through_seq: self.num(),
                sessions: self.num(),
            },
        }
    }
}

fn same_bytes<T: ToJson>(value: &T) -> Result<(), TestCaseError> {
    let tree = value.to_json().to_compact();
    prop_assert_eq!(qhorn_json::to_string(value), tree.clone());
    // The tree is valid JSON and its parse renders back to it.
    prop_assert_eq!(Json::parse(&tree).expect("tree parses").to_compact(), tree);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn requests_encode_like_the_tree(seed in any::<u64>()) {
        same_bytes(&Gen::new(seed).request())?;
    }

    #[test]
    fn replies_encode_like_the_tree(seed in any::<u64>()) {
        same_bytes(&Gen::new(seed).reply())?;
    }

    #[test]
    fn log_records_and_payloads_encode_like_the_tree(seed in any::<u64>(), seq in any::<u64>()) {
        let record = Gen::new(seed).record();
        same_bytes(&record)?;
        let mut pairs = vec![("seq".to_string(), seq.to_json())];
        qhorn_json::wire::flatten(&mut pairs, record.to_json());
        let payload = String::from_utf8(record.to_payload(seq)).expect("UTF-8");
        prop_assert_eq!(payload, Json::Obj(pairs).to_compact());
    }

    #[test]
    fn queries_and_objects_encode_like_the_tree(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        same_bytes(&g.query())?;
        same_bytes(&g.obj())?;
    }
}

/// Every message kind is reachable from the generators above.
#[test]
fn generators_reach_every_kind() {
    let mut requests = std::collections::BTreeSet::new();
    let mut replies = std::collections::BTreeSet::new();
    for seed in 0..2_000 {
        requests.insert(Gen::new(seed).request().kind());
        replies.insert(Gen::new(seed).reply().kind());
    }
    assert_eq!(requests.len(), Request::KINDS.len());
    assert_eq!(replies.len(), Reply::KINDS.len());
}
