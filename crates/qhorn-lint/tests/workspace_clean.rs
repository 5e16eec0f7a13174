//! The tier-1 gate: plain `cargo test` runs the full analysis over the
//! real workspace, so the lint cannot be forgotten even when CI's
//! explicit `cargo run -p qhorn-lint` step is not wired up. Also covers
//! the acceptance scenarios for the wire rule: a simulated field
//! deletion or re-type against mutated golden fixtures, and a field
//! re-typed in a copied source tree, must fail.

use qhorn_lint::{run, Options, RULE_WIRE_SCHEMA};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/qhorn-lint sits two levels under the root")
        .to_path_buf()
}

#[test]
fn workspace_has_zero_unsuppressed_violations() {
    let report = run(&Options::new(workspace_root())).expect("lint run");
    assert!(
        report.clean(),
        "qhorn-lint found violations:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 50, "suspiciously few files scanned");
}

#[test]
fn suppressions_are_counted_and_reported() {
    let report = run(&Options::new(workspace_root())).expect("lint run");
    // Two blessed suppressions exist: the logger's stderr sink
    // (print-in-lib) and the bench's raw-vs-ordered mutex comparison
    // (raw-mutex, which needs a raw lock to compare against). If this
    // count drifts, either a suppression leaked in unreviewed or the
    // reporting broke.
    assert_eq!(
        report.suppressed.len(),
        2,
        "expected exactly the log.rs and bench_trajectory.rs suppressions:\n{:?}",
        report.suppressed
    );
    let mut files: Vec<&str> = report.suppressed.iter().map(|f| f.file.as_str()).collect();
    files.sort_unstable();
    assert_eq!(
        files,
        [
            "crates/qhorn-bench/src/bin/bench_trajectory.rs",
            "crates/qhorn-service/src/log.rs",
        ]
    );
    let j = qhorn_json::to_string(&report.to_json());
    assert!(j.contains("\"suppression_count\":2"), "{j}");
}

/// Deleting a wire field must fail the lint. Simulated by mutating a
/// copy of the golden fixtures to record a field the code does not
/// have — exactly what the committed fixtures would say after someone
/// deleted the field from the source.
#[test]
fn golden_fixture_rule_fails_on_simulated_field_deletion() {
    let root = workspace_root();
    let scratch =
        std::env::temp_dir().join(format!("qhorn-lint-golden-deletion-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    for entry in std::fs::read_dir(root.join("tests/wire_golden")).expect("golden dir") {
        let path = entry.expect("entry").path();
        std::fs::copy(&path, scratch.join(path.file_name().expect("name"))).expect("copy");
    }
    // Record a phantom `threads_used_v2` field on ExecStats: the code
    // does not write it, so the diff must report a deletion.
    let engine = scratch.join("qhorn-engine.json");
    let doc = std::fs::read_to_string(&engine).expect("read fixture");
    let mutated = doc.replace(
        "\"threads_used\": \"usize [default]\"",
        "\"threads_used\": \"usize [default]\",\n        \"threads_used_v2\": \"u64\"",
    );
    assert_ne!(doc, mutated, "fixture layout changed; update the test");
    std::fs::write(&engine, mutated).expect("write fixture");

    let mut opts = Options::new(root);
    opts.golden_dir = Some(scratch.clone());
    let report = run(&opts).expect("lint run");
    let deletion = report.violations.iter().find(|f| {
        f.rule == RULE_WIRE_SCHEMA
            && f.message
                .contains("`threads_used_v2` deleted from `ExecStats`")
    });
    assert!(
        deletion.is_some(),
        "expected a wire-field deletion finding, got:\n{}",
        report.render_text()
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Re-typing a recorded field must fail the lint too.
#[test]
fn golden_fixture_rule_fails_on_simulated_retype() {
    let root = workspace_root();
    let scratch =
        std::env::temp_dir().join(format!("qhorn-lint-golden-retype-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    for entry in std::fs::read_dir(root.join("tests/wire_golden")).expect("golden dir") {
        let path = entry.expect("entry").path();
        std::fs::copy(&path, scratch.join(path.file_name().expect("name"))).expect("copy");
    }
    let engine = scratch.join("qhorn-engine.json");
    let doc = std::fs::read_to_string(&engine).expect("read fixture");
    let mutated = doc.replace(
        "\"eval_nanos\": \"u64 [default]\"",
        "\"eval_nanos\": \"String\"",
    );
    assert_ne!(doc, mutated, "fixture layout changed; update the test");
    std::fs::write(&engine, mutated).expect("write fixture");

    let mut opts = Options::new(root);
    opts.golden_dir = Some(scratch.clone());
    let report = run(&opts).expect("lint run");
    assert!(
        report
            .violations
            .iter()
            .any(|f| f.rule == RULE_WIRE_SCHEMA && f.message.contains("re-typed")),
        "expected a re-type finding, got:\n{}",
        report.render_text()
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Re-typing an encoded field in the source (`u64` → `String`) must fail
/// against the committed fixtures. Simulated on a copy of the engine
/// crate's sources, with the real `qhorn-engine.json` fixture.
#[test]
fn golden_fixture_rule_fails_on_source_retype() {
    let root = workspace_root();
    let scratch =
        std::env::temp_dir().join(format!("qhorn-lint-source-retype-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let src = scratch.join("crates/qhorn-engine/src");
    let golden = scratch.join("golden");
    std::fs::create_dir_all(&src).expect("scratch src dir");
    std::fs::create_dir_all(&golden).expect("scratch golden dir");
    for entry in std::fs::read_dir(root.join("crates/qhorn-engine/src")).expect("engine src") {
        let path = entry.expect("entry").path();
        std::fs::copy(&path, src.join(path.file_name().expect("name"))).expect("copy");
    }
    std::fs::copy(
        root.join("tests/wire_golden/qhorn-engine.json"),
        golden.join("qhorn-engine.json"),
    )
    .expect("copy fixture");
    let exec = src.join("exec.rs");
    let text = std::fs::read_to_string(&exec).expect("read exec.rs");
    let mutated = text.replace("eval_nanos: u64 [default]", "eval_nanos: String [default]");
    assert_ne!(
        text, mutated,
        "ExecStats declaration changed; update the test"
    );
    std::fs::write(&exec, mutated).expect("write exec.rs");

    let mut opts = Options::new(scratch.clone());
    opts.golden_dir = Some(golden);
    let report = run(&opts).expect("lint run");
    assert!(
        report.violations.iter().any(|f| f.rule == RULE_WIRE_SCHEMA
            && f.message
                .contains("`eval_nanos` of `ExecStats` (ToJson) re-typed")),
        "expected a re-type finding, got:\n{}",
        report.render_text()
    );
    let _ = std::fs::remove_dir_all(&scratch);
}
