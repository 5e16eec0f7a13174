//! Lock-order contention stress: drives sweep/compaction, eviction to
//! the store + restore from it, and parallel batch evaluation
//! concurrently over one registry. Under `--features lockdep` every
//! acquisition feeds the witness graph, so this doubles as the
//! acceptance test for the documented hierarchy (`shard < entry <
//! store`): any order inversion panics inside a worker thread and the
//! join below fails the test. Without the feature it is still a useful
//! plain stress test over the same interleavings.
//!
//! The negative counterpart — a deliberate inversion asserting the
//! detector fires and names both sites — lives with the detector in
//! `qhorn-lockdep/src/lib.rs` (`order_inversion_fires_with_both_sites`).

use qhorn_core::Response;
use qhorn_engine::session::LearnerKind;
use qhorn_service::dispatch::dispatch;
use qhorn_service::proto::{Reply, Request, StepReply};
use qhorn_service::registry::{Registry, RegistryConfig};
use qhorn_service::store::{FsyncPolicy, StoreConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("lockdep-stress-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Short TTL so drivers sleeping past it get evicted mid-dialogue, and
/// a tiny compaction threshold so sweeps compact the durable log while
/// other threads are appending to it.
fn contended_config(dir: &std::path::Path) -> RegistryConfig {
    RegistryConfig {
        shards: 4,
        ttl: Duration::from_millis(50),
        store: Some(StoreConfig {
            fsync: FsyncPolicy::EveryN(16),
            segment_max_bytes: 4096,
            compact_threshold_bytes: 4096,
            ..StoreConfig::new(dir.to_path_buf())
        }),
        ..Default::default()
    }
}

/// Answers questions (alternating labels) until the session finishes or
/// `budget` answers have been sent. Returns the last step seen.
fn answer_some(registry: &Arc<Registry>, session: u64, mut step: StepReply, budget: usize) {
    for i in 0..budget {
        match step {
            StepReply::Question { .. } => {
                let response = if i % 2 == 0 {
                    Response::Answer
                } else {
                    Response::NonAnswer
                };
                match dispatch(registry, Request::Answer { session, response }) {
                    Reply::Step { step: next, .. } => step = next,
                    // Any non-step reply (e.g. the session failed on an
                    // inconsistent transcript) ends the dialogue; the
                    // locking work is already done.
                    _ => return,
                }
            }
            _ => return,
        }
    }
}

#[test]
fn contended_sweep_restore_and_batch_hold_the_lock_order() {
    let dir = temp_dir("main");
    let registry = Arc::new(Registry::open(contended_config(&dir)).expect("open registry"));
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();

    // Session drivers: create, answer, idle past the TTL (so the
    // sweeper evicts the session to a snapshot + durable log), then
    // touch it again to force the restore path, answer more, close.
    for d in 0..2u64 {
        let registry = Arc::clone(&registry);
        workers.push(std::thread::spawn(move || {
            for round in 0..6u64 {
                let dataset = if (d + round) % 2 == 0 {
                    "chocolates"
                } else {
                    "cellars"
                };
                let created = dispatch(
                    &registry,
                    Request::CreateSession {
                        dataset: dataset.into(),
                        size: 30,
                        learner: LearnerKind::RolePreserving,
                        max_questions: Some(10_000),
                    },
                );
                let Reply::Created { session, step } = created else {
                    panic!("create failed: {created:?}");
                };
                answer_some(&registry, session, step, 3);
                // Idle past the TTL so a concurrent sweep evicts us.
                std::thread::sleep(Duration::from_millis(80));
                // Touching the session restores it from the snapshot or
                // durable log while sweeps/batches run on other threads.
                match dispatch(&registry, Request::NextQuestion { session }) {
                    Reply::Step { step, .. } => answer_some(&registry, session, step, 4),
                    other => panic!("restore touch failed: {other:?}"),
                }
                let _ = dispatch(&registry, Request::CloseSession { session });
            }
        }));
    }

    // Batch evaluators: parallel scans through the engine pool, taking
    // catalog and stats locks interleaved with the drivers above.
    for _ in 0..2 {
        let registry = Arc::clone(&registry);
        workers.push(std::thread::spawn(move || {
            for _ in 0..8 {
                let reply = dispatch(
                    &registry,
                    Request::EvaluateBatch {
                        session: None,
                        dataset: Some("cellars".into()),
                        size: 300,
                        query: Some("all x1 -> x2; some x3".into()),
                        workers: 4,
                    },
                );
                let Reply::Batch { stats, .. } = reply else {
                    panic!("batch failed: {reply:?}");
                };
                assert_eq!(stats.objects, 300);
            }
        }));
    }

    // Sweeper: evicts idle sessions and compacts the (tiny-threshold)
    // durable log while everyone else is mid-flight.
    let sweeper = {
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let report = registry.sweep();
                assert!(
                    report.compact_error.is_none(),
                    "compaction failed: {:?}",
                    report.compact_error
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };

    // Stats poller: reads every telemetry lock (shards, store, pools,
    // metrics stripes) against the writers above.
    let poller = {
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match dispatch(&registry, Request::Stats) {
                    Reply::Stats(_) => {}
                    other => panic!("stats failed: {other:?}"),
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    // A panicking worker — including a lockdep order-violation panic —
    // fails the test here.
    for worker in workers {
        worker.join().expect("worker thread panicked");
    }
    stop.store(true, Ordering::Relaxed);
    sweeper.join().expect("sweeper panicked");
    poller.join().expect("poller panicked");

    // The interleavings we claim to have stressed actually happened.
    let stats = registry.stats();
    assert!(stats.created >= 12, "drivers created sessions: {stats:?}");
    assert!(stats.evicted > 0, "sweeps evicted idle sessions: {stats:?}");
    assert!(
        stats.restored > 0,
        "touches restored evicted sessions: {stats:?}"
    );
    assert!(stats.batch_runs >= 16, "batch evaluations ran: {stats:?}");

    let _ = std::fs::remove_dir_all(&dir);
}
