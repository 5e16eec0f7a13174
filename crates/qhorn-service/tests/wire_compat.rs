//! Wire-compatibility regression tests: the protocol is additively
//! versioned, so a decoder handed a **legacy** document — one written
//! before a field existed — must fill the missing field with its
//! default rather than erroring. These tests simulate legacy peers by
//! encoding with today's code and deleting the additive fields before
//! decoding, which is byte-equivalent to a document produced by the
//! pre-addition release. The `qhorn-lint` wire-schema rule guards the
//! other direction (nobody deletes/re-types a field the fixtures
//! record); together they pin both halves of "absent decodes as
//! default".

use qhorn_engine::exec::ExecStats;
use qhorn_json::{FromJson, Json, ToJson};
use qhorn_service::proto::Reply;
use qhorn_service::registry::{HealthReport, SessionResources};

/// Drops `keys` from a JSON object, panicking if one was not present
/// (so the test fails loudly when a field is renamed instead of
/// silently testing nothing).
fn strip(j: Json, keys: &[&str]) -> Json {
    let Json::Obj(fields) = j else {
        panic!("expected an object");
    };
    let before = fields.len();
    let kept: Vec<(String, Json)> = fields
        .into_iter()
        .filter(|(k, _)| !keys.contains(&k.as_str()))
        .collect();
    assert_eq!(
        before,
        kept.len() + keys.len(),
        "some of {keys:?} were not present to strip"
    );
    Json::Obj(kept)
}

#[test]
fn exec_stats_threads_used_absent_decodes_as_zero() {
    let stats = ExecStats {
        objects: 120,
        signatures_evaluated: 7,
        answers: 40,
        threads_used: 8,
        eval_nanos: 12_345,
    };
    let legacy = strip(stats.to_json(), &["threads_used", "eval_nanos"]);
    let decoded = ExecStats::from_json(&legacy).expect("legacy ExecStats must decode");
    assert_eq!(decoded.objects, 120);
    assert_eq!(decoded.signatures_evaluated, 7);
    assert_eq!(decoded.answers, 40);
    assert_eq!(decoded.threads_used, 0, "absent threads_used defaults to 0");
    assert_eq!(decoded.eval_nanos, 0, "absent eval_nanos defaults to 0");
}

#[test]
fn session_resources_cache_fields_absent_decode_as_zero() {
    let resources = SessionResources {
        session: 42,
        state: "awaiting_answer".into(),
        questions: 9,
        questions_by_phase: vec![("core".into(), 6), ("verify".into(), 3)],
        transcript_bytes: 2_048,
        transcript_cache_bytes: 1_024,
        store_bytes: 4_096,
        eval_nanos: 55,
    };
    let legacy = strip(resources.to_json(), &["transcript_cache_bytes"]);
    let decoded = SessionResources::from_json(&legacy).expect("legacy resources must decode");
    assert_eq!(decoded.session, 42);
    assert_eq!(decoded.questions_by_phase.len(), 2);
    assert_eq!(decoded.transcript_cache_bytes, 0);
    // Non-additive fields still round-trip exactly.
    assert_eq!(decoded.transcript_bytes, 2_048);
    assert_eq!(decoded.store_bytes, 4_096);
}

/// One deliberate wire revision removed fields that were always 0: the
/// health report's `mailbox` object and the session accounting's
/// `transcript_truncated` and `driver_nanos`. A later one removed the
/// health report's `saturation.store` object, whose counts duplicated
/// the store's own (`Stats.store`). Documents written before them (these
/// are the corpus bytes of the release that still carried them,
/// verbatim) still decode: the removed keys are ignored, and every
/// remaining field keeps its value.
#[test]
fn pre_revision_health_and_resources_documents_still_decode() {
    let health = r#"{"verdict":"ok","uptime_seconds":12,"saturation":{"pools":[{"name":"lines","workers":4,"busy":1,"queue_depth":0,"queue_peak":3,"enqueued":10,"dequeued":10,"queue_wait_nanos":999}],"lock_waits":8,"lock_wait_nanos":80,"mailbox":{"cmds_sent":1,"cmds_received":2,"events_sent":3,"events_received":4,"answers_sent":5,"answers_received":6},"store":{"appends":1,"append_nanos":2,"append_bytes":3,"fsyncs":4,"fsync_nanos":5,"compactions":6,"compaction_nanos":7}}}"#;
    let decoded: HealthReport = qhorn_json::from_str(health).expect("pre-revision health decodes");
    assert_eq!(decoded.verdict, "ok");
    assert_eq!(decoded.uptime_seconds, 12);
    assert_eq!(decoded.saturation.pools.len(), 1);
    assert_eq!(decoded.saturation.pools[0].queue_wait_nanos, 999);
    assert_eq!(decoded.saturation.lock_wait_nanos, 80);
    let reencoded = qhorn_json::to_string(&decoded);
    assert!(!reencoded.contains("mailbox"));
    assert!(!reencoded.contains("\"store\""));

    let resources = r#"{"session":42,"state":"awaiting_answer","questions":9,"questions_by_phase":{"head":5,"body":4},"transcript_bytes":100,"transcript_cache_bytes":50,"transcript_truncated":1,"store_bytes":300,"eval_nanos":400,"driver_nanos":500}"#;
    let decoded: SessionResources =
        qhorn_json::from_str(resources).expect("pre-revision resources decode");
    assert_eq!(
        decoded,
        SessionResources {
            session: 42,
            state: "awaiting_answer".into(),
            questions: 9,
            questions_by_phase: vec![("head".into(), 5), ("body".into(), 4)],
            transcript_bytes: 100,
            transcript_cache_bytes: 50,
            store_bytes: 300,
            eval_nanos: 400,
        }
    );
}

#[test]
fn timeline_reply_without_resources_decodes_as_none() {
    let reply = Reply::Timeline {
        session: 7,
        events: Vec::new(),
        resources: Some(SessionResources {
            session: 7,
            state: "done".into(),
            ..SessionResources::default()
        }),
    };
    // A legacy timeline reply simply has no `resources` key.
    let legacy = strip(reply.to_json(), &["resources"]);
    let decoded = Reply::from_json(&legacy).expect("legacy timeline must decode");
    match decoded {
        Reply::Timeline {
            session,
            events,
            resources,
        } => {
            assert_eq!(session, 7);
            assert!(events.is_empty());
            assert!(resources.is_none(), "absent resources decodes as None");
        }
        other => panic!("decoded the wrong variant: {other:?}"),
    }
}

/// And the modern round trip still carries the field, so the default is
/// genuinely an absence behavior, not a decoder that drops data.
#[test]
fn timeline_reply_with_resources_round_trips() {
    let reply = Reply::Timeline {
        session: 9,
        events: Vec::new(),
        resources: Some(SessionResources {
            session: 9,
            state: "awaiting_answer".into(),
            transcript_cache_bytes: 512,
            ..SessionResources::default()
        }),
    };
    let decoded = Reply::from_json(&reply.to_json()).expect("round trip");
    match decoded {
        Reply::Timeline { resources, .. } => {
            let r = resources.expect("resources survive the round trip");
            assert_eq!(r.transcript_cache_bytes, 512);
        }
        other => panic!("decoded the wrong variant: {other:?}"),
    }
}
