//! Query execution over a store, with signature-level deduplication.
//!
//! Per-signature evaluation delegates to the kernel-backed
//! [`CompiledQuery::matches`], which runs the allocation-free single-word
//! path for arities ≤ 64 and a columnar matrix sweep beyond.

use crate::plan::CompiledQuery;
use crate::storage::{ObjectId, Store};
use std::time::Instant;

/// Execution statistics.
///
/// The wire encoding is **versioned additively**: `threads_used` and
/// `eval_nanos` (added with the multicore batch path) are always emitted
/// but optional on decode, so replies recorded by a pre-threading peer —
/// or replayed against one — still round-trip. Absent fields decode as
/// `0`, meaning "not recorded".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Objects in the store.
    pub objects: usize,
    /// Distinct signatures actually evaluated.
    pub signatures_evaluated: usize,
    /// Objects returned as answers.
    pub answers: usize,
    /// Worker threads that evaluated signature groups (1 for the
    /// sequential path; 0 when decoded from a pre-threading encoding).
    pub threads_used: usize,
    /// Wall-clock nanoseconds spent evaluating. The only
    /// non-deterministic field: comparisons that expect reproducible
    /// stats should go through [`ExecStats::without_timing`].
    pub eval_nanos: u64,
}

impl ExecStats {
    /// A copy with the wall-clock field zeroed — equality on everything
    /// deterministic (tests comparing parallel vs sequential runs, and
    /// the conformance harness's byte-identity normalization, use this).
    #[must_use]
    pub fn without_timing(&self) -> ExecStats {
        ExecStats {
            eval_nanos: 0,
            ..*self
        }
    }
}

qhorn_json::wire! {
    struct ExecStats {
        objects: usize,
        signatures_evaluated: usize,
        answers: usize,
        threads_used: usize [default],
        eval_nanos: u64 [default],
    }
}

/// Evaluates the plan against every object, returning the ids of the
/// answers in ascending order. Objects sharing a signature are evaluated
/// once.
#[must_use]
pub fn execute(plan: &CompiledQuery, store: &Store) -> Vec<ObjectId> {
    execute_with_stats(plan, store).0
}

/// [`execute`] plus statistics.
#[must_use]
pub fn execute_with_stats(plan: &CompiledQuery, store: &Store) -> (Vec<ObjectId>, ExecStats) {
    assert_eq!(plan.arity(), store.arity(), "plan/store arity mismatch");
    let start = Instant::now();
    let mut hits: Vec<ObjectId> = Vec::new();
    let mut evaluated = 0usize;
    for (signature, ids) in store.index().groups() {
        evaluated += 1;
        if plan.matches(signature) {
            hits.extend_from_slice(ids);
        }
    }
    hits.sort_unstable();
    let stats = ExecStats {
        objects: store.len(),
        signatures_evaluated: evaluated,
        answers: hits.len(),
        threads_used: 1,
        eval_nanos: start.elapsed().as_nanos() as u64,
    };
    (hits, stats)
}

/// Scan-based execution without the signature index (the baseline the
/// `eval_engine` bench compares against).
#[must_use]
pub fn execute_scan(plan: &CompiledQuery, store: &Store) -> Vec<ObjectId> {
    assert_eq!(plan.arity(), store.arity());
    store
        .iter()
        .filter(|(_, obj)| plan.matches(obj))
        .map(|(id, _)| id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhorn_core::{Obj, Query};
    use qhorn_lang::parse_with_arity;

    fn store() -> Store {
        let mut s = Store::new(3);
        s.insert(Obj::from_bits("111"));
        s.insert(Obj::from_bits("111 000"));
        s.insert(Obj::from_bits("110 011"));
        s.insert(Obj::from_bits("000 111")); // same signature as #1
        s.insert(Obj::from_bits("101"));
        s
    }

    fn plan(src: &str) -> CompiledQuery {
        CompiledQuery::compile(&parse_with_arity(src, 3).unwrap())
    }

    #[test]
    fn executes_universal_query() {
        // ∀x1: answers are objects where every tuple has x1 true.
        let (hits, stats) = execute_with_stats(&plan("all x1"), &store());
        assert_eq!(hits, vec![ObjectId(0), ObjectId(4)]);
        assert_eq!(stats.objects, 5);
        assert_eq!(stats.answers, 2);
        assert!(
            stats.signatures_evaluated < stats.objects,
            "dedup kicked in"
        );
    }

    #[test]
    fn executes_conjunction_query() {
        let hits = execute(&plan("some x1 x2 x3"), &store());
        assert_eq!(hits, vec![ObjectId(0), ObjectId(1), ObjectId(3)]);
    }

    #[test]
    fn scan_and_indexed_agree() {
        let s = store();
        for src in [
            "all x1",
            "some x1 x2",
            "all x1 -> x2",
            "some x2 x3",
            "all x3",
        ] {
            let p = plan(src);
            let mut scan = execute_scan(&p, &s);
            scan.sort_unstable();
            assert_eq!(execute(&p, &s), scan, "query {src}");
        }
    }

    #[test]
    fn empty_store() {
        let s = Store::new(3);
        let (hits, stats) = execute_with_stats(&plan("some x1"), &s);
        assert!(hits.is_empty());
        assert_eq!(stats.signatures_evaluated, 0);
    }

    #[test]
    fn empty_query_matches_everything() {
        let s = store();
        let p = CompiledQuery::compile(&Query::empty(3));
        assert_eq!(execute(&p, &s).len(), 5);
    }

    #[test]
    fn exec_stats_round_trip_json() {
        let stats = ExecStats {
            objects: 1000,
            signatures_evaluated: 37,
            answers: 12,
            threads_used: 4,
            eval_nanos: 123_456,
        };
        let json = qhorn_json::to_string(&stats);
        let back: ExecStats = qhorn_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn exec_stats_decodes_pre_threading_encoding() {
        // A reply recorded before `threads_used`/`eval_nanos` existed
        // must still decode — mixed-version replay stays green. Absent
        // fields mean "not recorded" (0).
        let legacy = r#"{"objects":1000,"signatures_evaluated":37,"answers":12}"#;
        let back: ExecStats = qhorn_json::from_str(legacy).unwrap();
        assert_eq!(
            back,
            ExecStats {
                objects: 1000,
                signatures_evaluated: 37,
                answers: 12,
                threads_used: 0,
                eval_nanos: 0,
            }
        );
    }

    #[test]
    fn sequential_stats_record_one_thread() {
        let (_, stats) = execute_with_stats(&plan("all x1"), &store());
        assert_eq!(stats.threads_used, 1);
        assert_eq!(stats.without_timing().eval_nanos, 0);
        assert_eq!(stats.without_timing().threads_used, 1);
    }
}
