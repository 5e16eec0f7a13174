//! Byte-level encodings of the load harness's report types. They are
//! encode-only (the harness writes them into `BENCH_*.json`), so each
//! fixed value's compact encoding is compared against bytes recorded
//! before the codecs were declared with `qhorn_json::wire!`, both through
//! the direct writer (`qhorn_json::to_string`) and through the reference
//! tree (`to_json().to_compact()`).

use qhorn_bench::load::{DialoguePlan, KindSummary, Population, PopulationTally, TransportReport};
use qhorn_json::ToJson;
use std::collections::BTreeMap;

fn kind(kind: &str) -> KindSummary {
    KindSummary {
        kind: kind.to_string(),
        count: 12,
        p50_us: 40,
        p95_us: 90,
        p99_us: 120,
        max_us: 300,
    }
}

fn tally() -> PopulationTally {
    PopulationTally {
        dialogues: 6,
        learned: 5,
        verified: 4,
        corrected: 2,
        abandoned: 1,
        questions: 77,
    }
}

#[test]
fn report_types_encode_to_recorded_bytes() {
    let plan = DialoguePlan {
        population: Population::NoisyThenCorrected,
        dataset: "gen-3x20".into(),
        size: 20,
        max_questions: 400,
        target: qhorn_lang::parse_with_arity("all x1 -> x2; some x3", 3).expect("query parses"),
        seed: 99,
    };
    let report = TransportReport {
        transport: "http",
        wall_seconds: 1.5,
        requests: 12,
        target_rps: 600.0,
        achieved_rps: 8.25,
        errors_by_class: BTreeMap::from([("429", 0), ("5xx", 1)]),
        kinds: vec![kind("answer")],
        populations: vec![("compliant", tally())],
        overall: kind("all"),
    };
    let cases = [
        (qhorn_json::to_string(&plan), EXPECTED_PLAN),
        (qhorn_json::to_string(&kind("answer")), EXPECTED_KIND),
        (qhorn_json::to_string(&tally()), EXPECTED_TALLY),
        (qhorn_json::to_string(&report), EXPECTED_REPORT),
        (plan.to_json().to_compact(), EXPECTED_PLAN),
        (kind("answer").to_json().to_compact(), EXPECTED_KIND),
        (tally().to_json().to_compact(), EXPECTED_TALLY),
        (report.to_json().to_compact(), EXPECTED_REPORT),
    ];
    for (got, want) in cases {
        assert_eq!(got, want);
    }
}

const EXPECTED_PLAN: &str = r#"{"population":"noisy_then_corrected","dataset":"gen-3x20","size":20,"max_questions":400,"target":{"n":3,"exprs":[{"UniversalHorn":{"body":{"words":[1]},"head":1}},{"ExistentialConj":{"vars":{"words":[4]}}}]},"seed":99}"#;
const EXPECTED_KIND: &str =
    r#"{"kind":"answer","count":12,"p50_us":40,"p95_us":90,"p99_us":120,"max_us":300}"#;
const EXPECTED_TALLY: &str =
    r#"{"dialogues":6,"learned":5,"verified":4,"corrected":2,"abandoned":1,"questions":77}"#;
const EXPECTED_REPORT: &str = r#"{"transport":"http","wall_seconds":1.5,"requests":12,"target_rps":600.0,"achieved_rps":8.25,"errors_by_class":{"429":0,"5xx":1},"kinds":[{"kind":"answer","count":12,"p50_us":40,"p95_us":90,"p99_us":120,"max_us":300}],"populations":{"compliant":{"dialogues":6,"learned":5,"verified":4,"corrected":2,"abandoned":1,"questions":77}},"overall":{"kind":"all","count":12,"p50_us":40,"p95_us":90,"p99_us":120,"max_us":300}}"#;
