//! Open sessions cost no threads: a session's learner is suspended in
//! its dialogue between requests, not parked on a thread of its own.
//! The process thread count (`Threads:` in `/proc/self/status`) stays
//! within a constant of its start with 256 dialogues open at once, and
//! stays flat across 10,000 create/close cycles.
//!
//! This is the only test in its binary, so the test harness adds no
//! threads of its own while it counts.

use qhorn_engine::session::LearnerKind;
use qhorn_service::registry::{CreateSpec, Registry, RegistryConfig, StepOutcome};

/// Headroom over the starting count for threads the standard library or
/// allocator may start lazily; a thread per session would exceed it at
/// once.
const SLACK: usize = 4;

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

fn spec() -> CreateSpec {
    CreateSpec {
        dataset: "chocolates".into(),
        size: 30,
        learner: LearnerKind::Qhorn1,
        max_questions: None,
    }
}

#[test]
fn open_sessions_hold_no_threads() {
    let registry = Registry::open(RegistryConfig::default()).expect("open registry");
    // Warm the catalog's shared store before taking the baseline.
    let (id, _) = registry.create_session(spec()).expect("create");
    registry.close_session(id).expect("close");
    let start = threads();

    let mut open = Vec::new();
    for _ in 0..256 {
        let (id, step) = registry.create_session(spec()).expect("create");
        assert!(matches!(step, StepOutcome::Question(_)), "{step:?}");
        open.push(id);
    }
    let with_open = threads();
    assert!(
        with_open <= start + SLACK,
        "256 open dialogues took the process from {start} to {with_open} threads"
    );
    assert_eq!(registry.stats().live, 256);
    for id in open {
        registry.close_session(id).expect("close");
    }

    for cycle in 0..10_000 {
        let (id, _) = registry.create_session(spec()).expect("create");
        registry.close_session(id).expect("close");
        if cycle % 1_000 == 0 {
            let now = threads();
            assert!(
                now <= start + SLACK,
                "{now} threads after {cycle} create/close cycles (started at {start})"
            );
        }
    }
    assert!(threads() <= start + SLACK);
    let stats = registry.stats();
    assert_eq!(stats.created, 1 + 256 + 10_000);
    assert_eq!(stats.live, 0);
}
