//! Torn-write recovery: truncating the log at **every byte offset** must
//! never panic recovery and never resurrect a half-written record — the
//! recovered state is exactly the replay of the fully-durable record
//! prefix, and the store stays appendable afterwards.

use proptest::prelude::*;
use qhorn_core::{Obj, Query, Response};
use qhorn_engine::session::{Exchange, LearnerKind};
use qhorn_lang::parse_with_arity;
use qhorn_relation::datasets::chocolates;
use qhorn_relation::DatasetDef;
use qhorn_store::{FsyncPolicy, LogRecord, SessionMeta, SessionStore, StoreConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("torn-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &std::path::Path) -> StoreConfig {
    StoreConfig {
        // Durability is irrelevant here: we simulate the crash by byte
        // truncation, not by losing OS buffers.
        fsync: FsyncPolicy::Never,
        ..StoreConfig::new(dir.to_path_buf())
    }
}

fn meta(learner: LearnerKind) -> SessionMeta {
    SessionMeta {
        dataset: "chocolates".into(),
        size: 30,
        learner,
        max_questions: None,
    }
}

fn exchange(bits: &str, response: Response) -> Exchange {
    Exchange {
        question: Obj::from_bits(bits),
        from_store: false,
        response,
    }
}

fn dataset(name: &str) -> DatasetDef {
    chocolates::dataset_def(name)
}

/// What the test expects recovery to rebuild — an independent, minimal
/// re-implementation of replay, used as the oracle.
#[derive(Default, Clone, PartialEq, Debug)]
struct Expected {
    responses: Vec<Response>,
    learned: Option<Query>,
    verified: Option<bool>,
}

/// `(sessions, registered dataset names)` the durable prefix implies.
fn replay_expected(records: &[LogRecord]) -> (BTreeMap<u64, Expected>, BTreeSet<String>) {
    let mut sessions: BTreeMap<u64, Expected> = BTreeMap::new();
    let mut datasets: BTreeSet<String> = BTreeSet::new();
    for rec in records {
        match rec {
            LogRecord::SessionCreated { id, .. } => {
                sessions.entry(*id).or_default();
            }
            LogRecord::ExchangeAppended { id, exchange } => {
                if let Some(s) = sessions.get_mut(id) {
                    s.responses.push(exchange.response);
                }
            }
            LogRecord::Corrected { id, corrections } => {
                if let Some(s) = sessions.get_mut(id) {
                    for &(idx, r) in corrections {
                        if let Some(slot) = s.responses.get_mut(idx) {
                            *slot = r;
                        }
                    }
                    s.learned = None;
                    s.verified = None;
                }
            }
            LogRecord::QueryLearned { id, query } => {
                if let Some(s) = sessions.get_mut(id) {
                    s.learned = Some(query.clone());
                }
            }
            LogRecord::Verified { id, verified } => {
                if let Some(s) = sessions.get_mut(id) {
                    s.verified = Some(*verified);
                }
            }
            LogRecord::SessionClosed { id } => {
                sessions.remove(id);
            }
            LogRecord::DatasetRegistered { def } => {
                datasets.insert(def.name.clone());
            }
            LogRecord::DatasetDropped { name } => {
                datasets.remove(name);
            }
            LogRecord::SnapshotWritten { .. } => {}
        }
    }
    (sessions, datasets)
}

/// Builds a record history for `n_sessions` sessions; shapes vary with
/// `style` so different record kinds interleave.
fn build_records(n_sessions: u64, style: u64) -> Vec<LogRecord> {
    let q3 = parse_with_arity("all x1; some x2 x3", 3).unwrap();
    let q1 = parse_with_arity("some x1", 3).unwrap();
    let mut records = Vec::new();
    // Dataset registrations interleave with session records; one of the
    // two is dropped again so both directions cross truncation points.
    records.push(LogRecord::DatasetRegistered {
        def: dataset("alpha"),
    });
    for id in 1..=n_sessions {
        let learner = if (id + style).is_multiple_of(2) {
            LearnerKind::Qhorn1
        } else {
            LearnerKind::RolePreserving
        };
        records.push(LogRecord::SessionCreated {
            id,
            meta: meta(learner),
        });
        let n_exchanges = 1 + ((id + style) % 3) as usize;
        for i in 0..n_exchanges {
            let response = if (i as u64 + style).is_multiple_of(2) {
                Response::Answer
            } else {
                Response::NonAnswer
            };
            let bits = ["111", "110 011", "001"][i % 3];
            records.push(LogRecord::ExchangeAppended {
                id,
                exchange: exchange(bits, response),
            });
        }
        match (id + style) % 4 {
            0 => {
                records.push(LogRecord::QueryLearned {
                    id,
                    query: q3.clone(),
                });
                records.push(LogRecord::Verified {
                    id,
                    verified: style.is_multiple_of(2),
                });
            }
            1 => {
                records.push(LogRecord::QueryLearned {
                    id,
                    query: q1.clone(),
                });
                records.push(LogRecord::Corrected {
                    id,
                    corrections: vec![(0, Response::NonAnswer)],
                });
                records.push(LogRecord::QueryLearned {
                    id,
                    query: q3.clone(),
                });
            }
            2 => records.push(LogRecord::SessionClosed { id }),
            _ => {} // left mid-learning
        }
    }
    records.push(LogRecord::DatasetRegistered {
        def: dataset("beta"),
    });
    records.push(LogRecord::DatasetDropped {
        name: "alpha".into(),
    });
    records
}

/// The core property: for a log of `records`, truncation at every byte
/// offset recovers exactly the durable record prefix.
fn check_every_truncation(records: &[LogRecord], tag: &str) {
    // Write the full log once, tracking each record's frame end offset.
    let full_dir = temp_dir(&format!("{tag}-full"));
    let seg = full_dir.join("seg-000001.qlog");
    let mut ends = Vec::with_capacity(records.len());
    {
        let (mut store, _) = SessionStore::open(&config(&full_dir)).unwrap();
        for rec in records {
            store.append(rec).unwrap();
            ends.push(std::fs::metadata(&seg).unwrap().len());
        }
    }
    let bytes = std::fs::read(&seg).unwrap();
    assert_eq!(*ends.last().unwrap(), bytes.len() as u64);

    let cut_dir = temp_dir(&format!("{tag}-cut"));
    for cut in 0..=bytes.len() {
        let _ = std::fs::remove_dir_all(&cut_dir);
        std::fs::create_dir_all(&cut_dir).unwrap();
        std::fs::write(cut_dir.join("seg-000001.qlog"), &bytes[..cut]).unwrap();

        let durable = ends.iter().filter(|&&end| end <= cut as u64).count();
        let (expected, expected_datasets) = replay_expected(&records[..durable]);

        let (mut store, recovered) = SessionStore::open(&config(&cut_dir)).unwrap();
        let got_datasets: BTreeSet<String> =
            recovered.datasets.iter().map(|d| d.name.clone()).collect();
        assert_eq!(
            got_datasets,
            expected_datasets,
            "datasets at cut {cut}/{}",
            bytes.len()
        );
        let got: BTreeMap<u64, Expected> = recovered
            .sessions
            .iter()
            .map(|s| {
                (
                    s.id,
                    Expected {
                        responses: s.transcript.iter().map(|e| e.response).collect(),
                        learned: s.learned.clone(),
                        verified: s.verified,
                    },
                )
            })
            .collect();
        assert_eq!(got, expected, "cut at byte {cut}/{}", bytes.len());
        // A torn tail was truncated mid-frame; the store must accept new
        // appends cleanly.
        store.append(&LogRecord::SessionClosed { id: 999 }).unwrap();
        if cut.is_multiple_of(16) {
            drop(store);
            let (_, again) = SessionStore::open(&config(&cut_dir)).unwrap();
            let live: Vec<u64> = again.sessions.iter().map(|s| s.id).collect();
            let want: Vec<u64> = expected.keys().copied().collect();
            assert_eq!(live, want, "reopen after post-cut append, cut {cut}");
        }
    }
    let _ = std::fs::remove_dir_all(&full_dir);
    let _ = std::fs::remove_dir_all(&cut_dir);
}

/// Exhaustive every-byte-offset sweep over a fixed, representative log
/// (all seven record kinds present).
#[test]
fn recovery_survives_truncation_at_every_byte_offset() {
    let mut records = build_records(4, 1);
    records.push(LogRecord::SnapshotWritten {
        through_seq: 3,
        sessions: 1,
    });
    check_every_truncation(&records, "exhaustive");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized record mixes, still exhaustive over byte offsets.
    #[test]
    fn recovery_survives_truncation_for_random_histories(
        n_sessions in 1u64..5,
        style in any::<u64>(),
    ) {
        check_every_truncation(
            &build_records(n_sessions, style % 1024),
            &format!("prop-{n_sessions}-{}", style % 1024),
        );
    }
}
