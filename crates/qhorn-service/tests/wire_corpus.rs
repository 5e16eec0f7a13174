//! Byte-level wire corpus: `wire_corpus.txt` holds one compact encoding
//! per line (`<Type> <json>`) for every wire type the golden schema
//! fixtures record — optional fields both present and absent, every
//! `Request`/`Reply`/`StepReply` variant, every store `LogRecord` frame
//! and session snapshots. Each line must decode and re-encode to the
//! identical bytes, so a codec change that alters a single byte of what
//! peers or durable logs see fails here.
//!
//! Every line is also an encoder differential: the direct writer
//! (`qhorn_json::to_string`, which the frontends and the store use) must
//! produce exactly the bytes of the reference tree,
//! `value.to_json().to_compact()`.

use qhorn_core::{BoolTuple, Expr, Obj, Query, VarSet};
use qhorn_engine::exec::ExecStats;
use qhorn_engine::persist::{store_from_json, store_to_json, SessionSnapshot};
use qhorn_engine::session::Exchange;
use qhorn_json::{FromJson, Json, ToJson};
use qhorn_relation::Proposition;
use qhorn_relation::{Attr, AttrType, DatasetDef, NestedObject, NestedRelation, NestedSchema};
use qhorn_service::dataset::DatasetInfo;
use qhorn_service::metrics::{
    HistogramSnapshot, MetricsSnapshot, PoolSnapshot, SaturationSnapshot, StoreOpsSnapshot,
};
use qhorn_service::proto::{Reply, Request, StepReply};
use qhorn_service::registry::{HealthReport, RegistryStats, SessionResources};
use qhorn_service::trace::{LayerProfile, SpanNode, TimelineEvent, TraceSummary, TraceTree};
use qhorn_store::{LogRecord, PersistedSession, SessionMeta, SnapshotEntry, StoreStats};
use std::collections::BTreeSet;

fn reencode<T: ToJson + FromJson>(line: &str) -> String {
    let value: T = qhorn_json::from_str(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    let direct = qhorn_json::to_string(&value);
    assert_eq!(
        direct,
        value.to_json().to_compact(),
        "writer ≠ tree: {line}"
    );
    direct
}

/// The store frame as the tree would build it: `seq` first, then the
/// record's own pairs.
fn tree_payload(seq: u64, rec: &LogRecord) -> String {
    let mut pairs = vec![("seq".to_string(), seq.to_json())];
    qhorn_json::wire::flatten(&mut pairs, rec.to_json());
    Json::Obj(pairs).to_compact()
}

fn reencode_line(ty: &str, json: &str) -> String {
    match ty {
        "BoolTuple" => reencode::<BoolTuple>(json),
        "VarSet" => reencode::<VarSet>(json),
        "Obj" => reencode::<Obj>(json),
        "Query" => reencode::<Query>(json),
        "Expr" => reencode::<Expr>(json),
        "ExecStats" => reencode::<ExecStats>(json),
        "Exchange" => reencode::<Exchange>(json),
        "SessionSnapshot" => reencode::<SessionSnapshot>(json),
        "StorePayload" => {
            let store = store_from_json(json).unwrap_or_else(|e| panic!("{e}: {json}"));
            let pretty = store_to_json(&store).expect("stores serialize");
            Json::parse(&pretty)
                .expect("own output parses")
                .to_compact()
        }
        "Attr" => reencode::<Attr>(json),
        "AttrType" => reencode::<AttrType>(json),
        "NestedSchema" => reencode::<NestedSchema>(json),
        "Proposition" => reencode::<Proposition>(json),
        "NestedObject" => reencode::<NestedObject>(json),
        "NestedRelation" => reencode::<NestedRelation>(json),
        "DatasetDef" => reencode::<DatasetDef>(json),
        "DatasetInfo" => reencode::<DatasetInfo>(json),
        "StoreOpsSnapshot" => reencode::<StoreOpsSnapshot>(json),
        "PoolSnapshot" => reencode::<PoolSnapshot>(json),
        "SaturationSnapshot" => reencode::<SaturationSnapshot>(json),
        "HealthReport" => reencode::<HealthReport>(json),
        "HistogramSnapshot" => reencode::<HistogramSnapshot>(json),
        "MetricsSnapshot" => reencode::<MetricsSnapshot>(json),
        "LayerProfile" => reencode::<LayerProfile>(json),
        "StoreStats" => reencode::<StoreStats>(json),
        "RegistryStats" => reencode::<RegistryStats>(json),
        "SessionResources" => reencode::<SessionResources>(json),
        "SpanNode" => reencode::<SpanNode>(json),
        "TraceTree" => reencode::<TraceTree>(json),
        "TraceSummary" => reencode::<TraceSummary>(json),
        "TimelineEvent" => reencode::<TimelineEvent>(json),
        "StepReply" => reencode::<StepReply>(json),
        "Request" => reencode::<Request>(json),
        "Reply" => reencode::<Reply>(json),
        "SessionMeta" => reencode::<SessionMeta>(json),
        "PersistedSession" => reencode::<PersistedSession>(json),
        "SnapshotEntry" => reencode::<SnapshotEntry>(json),
        "LogRecord" => {
            let (seq, rec) =
                LogRecord::from_payload(json.as_bytes()).unwrap_or_else(|e| panic!("{e}: {json}"));
            let payload = String::from_utf8(rec.to_payload(seq)).expect("payloads are UTF-8");
            assert_eq!(payload, tree_payload(seq, &rec), "payload ≠ tree: {json}");
            assert_eq!(
                qhorn_json::to_string(&rec),
                rec.to_json().to_compact(),
                "writer ≠ tree: {json}"
            );
            payload
        }
        other => panic!("corpus names unknown type `{other}`"),
    }
}

#[test]
fn every_corpus_line_round_trips_to_identical_bytes() {
    let corpus = include_str!("wire_corpus.txt");
    let mut types = BTreeSet::new();
    for (n, line) in corpus.lines().enumerate() {
        let (ty, json) = line
            .split_once(' ')
            .unwrap_or_else(|| panic!("line {}: expected `<Type> <json>`", n + 1));
        assert_eq!(
            reencode_line(ty, json),
            json,
            "line {} ({ty}) re-encodes differently",
            n + 1
        );
        types.insert(ty);
    }
    // 36 decodable types, the store payload and the store's frame codec
    // (the four load-harness report types are encode-only; qhorn-bench
    // checks them).
    assert_eq!(types.len(), 38, "{types:?}");
}

/// Every request and reply variant appears, so a variant whose codec
/// drifts cannot hide behind an untested tag.
#[test]
fn corpus_covers_every_message_variant() {
    let corpus = include_str!("wire_corpus.txt");
    let tags = |ty: &str, key: &str| -> BTreeSet<String> {
        corpus
            .lines()
            .filter_map(|l| l.strip_prefix(ty)?.strip_prefix(' '))
            .map(|json| {
                let j = Json::parse(json).expect("corpus line parses");
                j.get(key).and_then(Json::as_str).expect("tag").to_string()
            })
            .collect()
    };
    assert_eq!(tags("Request", "type").len(), 20);
    assert_eq!(tags("Reply", "type").len(), 18);
    assert_eq!(tags("StepReply", "kind").len(), 4);
    assert_eq!(tags("LogRecord", "kind").len(), 9);
}
