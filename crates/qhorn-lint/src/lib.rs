//! # qhorn-lint
//!
//! A workspace-aware static-analysis pass that machine-checks the
//! invariants the codebase otherwise only documents. It is token-level
//! (a comment/string-aware scanner, no type information) and std-only —
//! the build environment has no registry access, so `syn` is not an
//! option — which keeps the rules honest: each one is a pattern plus a
//! scoping policy, with an inline escape hatch
//! (`// qhorn-lint: allow(<rule>)`) that is itself counted and
//! reported, so suppressions can be trended.
//!
//! | rule | invariant |
//! |------|-----------|
//! | `lock-unwrap` | lock results in non-test code route through the poison-recovering helpers, never `.unwrap()`/`.expect(..)` |
//! | `print-in-lib` | library code logs through `log.rs`, never prints directly (bins exempt) |
//! | `raw-mutex` | every lock is a class-tagged `OrderedMutex`/`OrderedRwLock`; raw `std::sync` construction is invisible to lockdep |
//! | `wall-clock-in-reply` | reply-construction paths never read `SystemTime::now` |
//! | `wire-schema` | `wire!`-declared field sets only grow; deletions/re-types fail against `tests/wire_golden/`, additions require `--bless`; hand-written keyed codecs are rejected |
//!
//! CI runs the binary as a tier-1 gate, and
//! `tests/workspace_clean.rs` runs the same analysis under plain
//! `cargo test`, so the gate cannot be forgotten.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub mod rules;
pub mod scan;
pub mod wire;

pub const RULE_LOCK_UNWRAP: &str = "lock-unwrap";
pub const RULE_PRINT_IN_LIB: &str = "print-in-lib";
pub const RULE_RAW_MUTEX: &str = "raw-mutex";
pub const RULE_WALL_CLOCK: &str = "wall-clock-in-reply";
pub const RULE_WIRE_SCHEMA: &str = "wire-schema";

/// Every rule id, for reporting.
pub const ALL_RULES: &[&str] = &[
    RULE_LOCK_UNWRAP,
    RULE_PRINT_IN_LIB,
    RULE_RAW_MUTEX,
    RULE_WALL_CLOCK,
    RULE_WIRE_SCHEMA,
];

/// One rule violation (or suppressed would-be violation).
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based; 0 when the finding is not line-anchored.
    pub line: usize,
    pub message: String,
}

/// The outcome of one analysis run.
#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Finding>,
    pub suppressed: Vec<Finding>,
    pub files_scanned: usize,
    /// Crates blessed, when `--bless` ran.
    pub blessed: Vec<String>,
}

impl Report {
    #[must_use]
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    #[must_use]
    pub fn counts_by_rule(&self) -> BTreeMap<&'static str, (usize, usize)> {
        let mut counts: BTreeMap<&'static str, (usize, usize)> =
            ALL_RULES.iter().map(|r| (*r, (0, 0))).collect();
        for f in &self.violations {
            counts.entry(f.rule).or_default().0 += 1;
        }
        for f in &self.suppressed {
            counts.entry(f.rule).or_default().1 += 1;
        }
        counts
    }

    /// The machine-readable report (`--format json`), stable schema for
    /// trending suppression counts.
    #[must_use]
    pub fn to_json(&self) -> qhorn_json::Json {
        use qhorn_json::Json;
        let finding = |f: &Finding| {
            Json::object([
                ("rule", Json::Str(f.rule.to_string())),
                ("file", Json::Str(f.file.clone())),
                ("line", Json::U64(f.line as u64)),
                ("message", Json::Str(f.message.clone())),
            ])
        };
        Json::object([
            ("schema", Json::Str("qhorn-lint-report/1".to_string())),
            ("clean", Json::Bool(self.clean())),
            ("files_scanned", Json::U64(self.files_scanned as u64)),
            (
                "violations",
                Json::Arr(self.violations.iter().map(finding).collect()),
            ),
            (
                "suppressed",
                Json::Arr(self.suppressed.iter().map(finding).collect()),
            ),
            ("suppression_count", Json::U64(self.suppressed.len() as u64)),
            (
                "counts_by_rule",
                Json::object(self.counts_by_rule().into_iter().map(|(rule, (v, s))| {
                    (
                        rule,
                        Json::object([
                            ("violations", Json::U64(v as u64)),
                            ("suppressed", Json::U64(s as u64)),
                        ]),
                    )
                })),
            ),
            (
                "blessed",
                Json::Arr(self.blessed.iter().map(|c| Json::Str(c.clone())).collect()),
            ),
        ])
    }

    /// The human-readable report.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.violations {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.file, f.line, f.rule, f.message
            ));
        }
        for c in &self.blessed {
            out.push_str(&format!("blessed tests/wire_golden/{c}.json\n"));
        }
        out.push_str(&format!(
            "qhorn-lint: {} file(s), {} violation(s), {} suppressed\n",
            self.files_scanned,
            self.violations.len(),
            self.suppressed.len()
        ));
        out
    }
}

/// Analysis configuration.
pub struct Options {
    /// Workspace root (the directory holding the `[workspace]`
    /// `Cargo.toml`).
    pub root: PathBuf,
    /// Regenerate the golden wire fixtures instead of diffing them.
    pub bless: bool,
    /// Fixture directory; defaults to `<root>/tests/wire_golden`.
    pub golden_dir: Option<PathBuf>,
}

impl Options {
    #[must_use]
    pub fn new(root: PathBuf) -> Options {
        Options {
            root,
            bless: false,
            golden_dir: None,
        }
    }
}

/// Walks up from `start` to the `Cargo.toml` declaring `[workspace]`.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// The source files the lint covers: every `.rs` under `src/` of the
/// root facade and of each first-party crate. Vendored stand-ins
/// (`vendor/`) are external code; integration tests and benches are
/// test code by construction (the rules all scope to non-test code).
fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut roots = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crates: Vec<_> = std::fs::read_dir(&crates_dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crates.sort();
        for krate in crates {
            roots.push(krate.join("src"));
        }
    }
    for src_root in roots {
        if src_root.is_dir() {
            walk_rs(&src_root, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)?.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The crate a workspace-relative source path belongs to (`qhorn` for
/// the root facade).
fn crate_of(rel_path: &str) -> &str {
    rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("qhorn")
}

/// Runs the full analysis.
///
/// # Errors
/// I/O failures reading sources or fixtures (not lint findings — those
/// land in the [`Report`]).
pub fn run(opts: &Options) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut raw_findings = Vec::new();
    let mut observed = wire::WorkspaceSchema::new();
    // (rule, file, line) suppression keys collected across files.
    let mut allows: Vec<(String, String, usize)> = Vec::new();

    for path in collect_sources(&opts.root)? {
        let rel = path
            .strip_prefix(&opts.root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(&path)?;
        let scan = scan::scan_source(&text);
        rules::check_file(&rel, &scan, &mut raw_findings);
        wire::extract_file(crate_of(&rel), &rel, &text, &scan, &mut observed);
        wire::check_handwritten(crate_of(&rel), &rel, &scan, &mut raw_findings);
        for (rule, line) in &scan.allows {
            allows.push((rule.clone(), rel.clone(), *line + 1));
        }
        report.files_scanned += 1;
    }

    let golden_dir = opts
        .golden_dir
        .clone()
        .unwrap_or_else(|| opts.root.join("tests/wire_golden"));
    if opts.bless {
        report.blessed = wire::bless(&golden_dir, &observed)?;
    } else {
        let golden = wire::load_golden(&golden_dir)?;
        wire::diff(&observed, &golden, &mut raw_findings);
    }

    for finding in raw_findings {
        let suppressed = allows.iter().any(|(rule, file, line)| {
            rule == finding.rule && *file == finding.file && *line == finding.line
        });
        if suppressed {
            report.suppressed.push(finding);
        } else {
            report.violations.push(finding);
        }
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}
