//! The wire-schema compatibility rule.
//!
//! The protocol is additively versioned: decoders treat absent fields
//! as defaults, so *adding* a wire field is always safe, while
//! *deleting* or *re-typing* one silently breaks every older peer and
//! every durable log record already on disk. Every wire type declares
//! its codec once with `qhorn_json::wire!`; this rule reads those
//! declarations — each field's key, declared Rust type and markers —
//! and diffs them against committed golden fixtures under
//! `tests/wire_golden/`, one JSON file per crate. Deleting or re-typing
//! a recorded field fails the lint; additions (and new types) fail too
//! until the fixtures are regenerated with `qhorn-lint --bless`, which
//! is the reviewable "yes, the schema grew" act.
//!
//! A hand-written `ToJson`/`FromJson` impl that writes or reads object
//! keys would escape the ratchet, so outside `qhorn-json` such impls are
//! violations too: only scalar-shaped values (strings, numbers, arrays)
//! may be coded by hand.

use crate::scan::{line_of, line_offsets, match_delim, FileScan};
use crate::{Finding, RULE_WIRE_SCHEMA};
use qhorn_json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// `field name → encoding kind`, per direction.
#[derive(Default, Debug, Clone, PartialEq, Eq)]
pub struct TypeSchema {
    /// Fields written by `ToJson`.
    pub to: BTreeMap<String, String>,
    /// Fields read by `FromJson`.
    pub from: BTreeMap<String, String>,
    /// Where the declaration was seen (workspace-relative path, 1-based
    /// line) — the anchor for findings about this type.
    pub site: (String, usize),
}

/// Every wire type in one crate.
pub type CrateSchema = BTreeMap<String, TypeSchema>;

/// `crate name → schema`. BTreeMaps throughout so blessed fixtures are
/// byte-stable across runs.
pub type WorkspaceSchema = BTreeMap<String, CrateSchema>;

/// Reads every `wire!` declaration in one file into `out`. `src` is the
/// file text `scan` was made from; declarations in test code are skipped.
pub fn extract_file(
    crate_name: &str,
    rel_path: &str,
    src: &str,
    scan: &FileScan,
    out: &mut WorkspaceSchema,
) {
    // Masking keeps one char per source char, so offsets found in the
    // masked text (comments and literals blanked) index the source too.
    let masked: Vec<char> = scan.masked_lines.join("\n").chars().collect();
    let raw: Vec<char> = src.chars().collect();
    let mut line = 0usize;
    for i in 0..masked.len() {
        if masked[i] == '\n' {
            line += 1;
        }
        if !masked[i..].starts_with(&['w', 'i', 'r', 'e', '!'])
            || (i > 0 && is_word(masked[i - 1]))
            || scan.test_lines.get(line).copied().unwrap_or(false)
        {
            continue;
        }
        let Some(open) = (i + 5..masked.len()).find(|&k| !masked[k].is_whitespace()) else {
            break;
        };
        if masked[open] != '{' {
            continue;
        }
        let Some(close) = close_of(&masked, open) else {
            break;
        };
        let body: Vec<char> = raw[open + 1..close].to_vec();
        if let Some((name, schema)) = parse_decl(&body) {
            out.entry(crate_name.to_string()).or_default().insert(
                name,
                TypeSchema {
                    site: (rel_path.to_string(), line + 1),
                    ..schema
                },
            );
        }
    }
}

/// Flags hand-written `ToJson`/`FromJson` impls that touch object keys
/// (outside `qhorn-json`, whose generic impls and codec helpers are the
/// machinery every declaration expands to).
pub fn check_handwritten(
    crate_name: &str,
    rel_path: &str,
    scan: &FileScan,
    findings: &mut Vec<Finding>,
) {
    if crate_name == "qhorn-json" {
        return;
    }
    let joined = scan.masked_lines.join("\n");
    let offsets = line_offsets(&joined);
    for marker in ["ToJson for ", "FromJson for "] {
        for (at, _) in joined.match_indices(marker) {
            let line = line_of(&offsets, at);
            let is_impl = scan.masked_lines[line].trim_start().starts_with("impl");
            if !is_impl || scan.test_lines.get(line).copied().unwrap_or(false) {
                continue;
            }
            let Some(open) = joined[at..].find('{').map(|p| at + p) else {
                continue;
            };
            let Some(close) = match_delim(joined.as_bytes(), open, b'{', b'}') else {
                continue;
            };
            let body = &joined[open..close];
            if ["Json::object", "Json::Obj", ".field(", ".get("]
                .iter()
                .any(|keyed| body.contains(keyed))
            {
                findings.push(Finding {
                    rule: RULE_WIRE_SCHEMA,
                    file: rel_path.to_string(),
                    line: line + 1,
                    message: format!(
                        "hand-written `{}` impl reads or writes object keys, which the \
                         wire-schema ratchet cannot see; declare the type with `qhorn_json::wire!`",
                        marker.trim_end_matches(" for ")
                    ),
                });
            }
        }
    }
}

fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '\'' || c == '"'
}

/// The index of the bracket closing `chars[open]` (string literals
/// skipped).
fn close_of(chars: &[char], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut in_str = false;
    for (k, &c) in chars.iter().enumerate().skip(open) {
        match c {
            '"' => in_str = !in_str,
            '(' | '[' | '{' if !in_str => depth += 1,
            ')' | ']' | '}' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Splits at commas outside brackets, angle brackets and literals.
fn split_top(chars: &[char]) -> Vec<&[char]> {
    let mut parts = Vec::new();
    let (mut start, mut depth, mut in_str) = (0usize, 0i32, false);
    for (k, &c) in chars.iter().enumerate() {
        match c {
            '"' => in_str = !in_str,
            '(' | '[' | '{' | '<' if !in_str => depth += 1,
            ')' | ']' | '}' | '>' if !in_str => depth -= 1,
            ',' if depth == 0 && !in_str => {
                parts.push(&chars[start..k]);
                start = k + 1;
            }
            _ => {}
        }
    }
    parts.push(&chars[start..]);
    parts.retain(|p| p.iter().any(|c| !c.is_whitespace()));
    parts
}

/// The tokens as written, with whitespace runs collapsed.
fn norm(chars: &[char]) -> String {
    text(chars).split_whitespace().collect::<Vec<_>>().join(" ")
}

fn text(chars: &[char]) -> String {
    chars.iter().collect::<String>().trim().to_string()
}

/// `name [as "key"]: Type [markers]` fields → `(key, kind)`, where the
/// kind is the declared type plus its markers, as written.
fn struct_fields(body: &[char]) -> Vec<(String, String)> {
    split_top(body)
        .into_iter()
        .filter_map(|f| {
            let colon = f.iter().position(|&c| c == ':')?;
            let name = text(&f[..colon]);
            let key = match name.split_once(" as ") {
                Some((_, key)) => key.trim().trim_matches('"').to_string(),
                None => name,
            };
            let ty = &f[colon + 1..];
            let end = ty.iter().rposition(|c| !c.is_whitespace())?;
            let marker_open = (ty[end] == ']')
                .then(|| {
                    (0..end)
                        .rev()
                        .find(|&k| ty[k] == '[' && close_of(ty, k) == Some(end))
                })
                .flatten();
            let kind = match marker_open {
                Some(m) => format!("{} [{}]", norm(&ty[..m]), norm(&ty[m + 1..end])),
                None => norm(ty),
            };
            Some((key, kind))
        })
        .collect()
}

/// Parses one declaration into `(type name, schema)`. Enum variant tags
/// are recorded as keys of kind `variant`; a key several variants carry
/// lists, per kind, which variants carry it.
fn parse_decl(decl: &[char]) -> Option<(String, TypeSchema)> {
    let open = decl.iter().position(|&c| c == '{')?;
    let close = close_of(decl, open)?;
    let head = text(&decl[..open]);
    let words: Vec<&str> = head.split_whitespace().collect();
    let body = &decl[open + 1..close];
    let encode_only = words.first() == Some(&"encode");
    let words = &words[usize::from(encode_only)..];
    let fields: BTreeMap<String, String> = match words {
        ["struct", _] => struct_fields(body).into_iter().collect(),
        ["enum", _, mode, rest @ ..] => {
            let mut keys: BTreeMap<String, BTreeMap<String, Vec<String>>> = BTreeMap::new();
            if *mode == "tag" {
                let tag_key = rest.first()?.trim_matches('"').to_string();
                keys.entry(tag_key)
                    .or_default()
                    .insert("tag".into(), vec![]);
            }
            for variant in split_top(body) {
                let v = text(variant);
                let (tag, payload) = if *mode == "external" {
                    let split = v.find(|c: char| !is_word(c)).unwrap_or(v.len());
                    (v[..split].to_string(), v[split..].trim().to_string())
                } else {
                    let (_, tagged) = v.split_once('=')?;
                    let (tag, payload) = tagged.trim_start().strip_prefix('"')?.split_once('"')?;
                    (tag.to_string(), payload.trim().to_string())
                };
                let payload: Vec<char> = payload.chars().collect();
                let inner = payload
                    .get(1..payload.len().saturating_sub(1))
                    .unwrap_or(&[]);
                let kind = match payload.first() {
                    Some('(') => format!("variant({})", norm(inner)),
                    _ => "variant".to_string(),
                };
                keys.entry(tag.clone()).or_default().insert(kind, vec![]);
                if payload.first() == Some(&'{') {
                    for (key, kind) in struct_fields(inner) {
                        keys.entry(key)
                            .or_default()
                            .entry(kind)
                            .or_default()
                            .push(tag.clone());
                    }
                }
            }
            keys.into_iter()
                .map(|(key, kinds)| {
                    let kind: Vec<String> = kinds
                        .into_iter()
                        .map(|(kind, tags)| {
                            if tags.is_empty() {
                                kind
                            } else {
                                format!("{kind} ({})", tags.join(", "))
                            }
                        })
                        .collect();
                    (key, kind.join("; "))
                })
                .collect()
        }
        _ => return None,
    };
    let name = words[1].to_string();
    let from = if encode_only {
        BTreeMap::new()
    } else {
        fields.clone()
    };
    let schema = TypeSchema {
        to: fields,
        from,
        site: (String::new(), 0),
    };
    Some((name, schema))
}

// ---------------------------------------------------------------------------
// Golden fixtures
// ---------------------------------------------------------------------------

pub const GOLDEN_SCHEMA: &str = "qhorn-wire-golden/1";

fn dir_to_json(dir: &BTreeMap<String, String>) -> Json {
    Json::object(dir.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))))
}

fn json_to_dir(j: &Json) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    if let Some(obj) = j.as_obj() {
        for (k, v) in obj {
            if let Some(s) = v.as_str() {
                out.insert(k.clone(), s.to_string());
            }
        }
    }
    out
}

/// Renders one crate's schema as its golden fixture document.
pub fn crate_to_json(crate_name: &str, schema: &CrateSchema) -> Json {
    Json::object([
        ("schema", Json::Str(GOLDEN_SCHEMA.to_string())),
        ("crate", Json::Str(crate_name.to_string())),
        (
            "types",
            Json::object(schema.iter().map(|(name, t)| {
                (
                    name.clone(),
                    Json::object([("to", dir_to_json(&t.to)), ("from", dir_to_json(&t.from))]),
                )
            })),
        ),
    ])
}

/// Parses a golden fixture document back into a crate schema (sites
/// point at the fixture file itself).
pub fn crate_from_json(fixture_rel_path: &str, j: &Json) -> CrateSchema {
    let mut out = CrateSchema::new();
    let Ok(types) = j.field("types") else {
        return out;
    };
    if let Some(obj) = types.as_obj() {
        for (name, t) in obj {
            out.insert(
                name.clone(),
                TypeSchema {
                    to: t.field("to").map(json_to_dir).unwrap_or_default(),
                    from: t.field("from").map(json_to_dir).unwrap_or_default(),
                    site: (fixture_rel_path.to_string(), 1),
                },
            );
        }
    }
    out
}

/// Loads every committed fixture under `golden_dir`.
pub fn load_golden(golden_dir: &Path) -> std::io::Result<WorkspaceSchema> {
    let mut out = WorkspaceSchema::new();
    if !golden_dir.exists() {
        return Ok(out);
    }
    let mut entries: Vec<_> = std::fs::read_dir(golden_dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    entries.sort();
    for path in entries {
        let crate_name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_string();
        let text = std::fs::read_to_string(&path)?;
        let Ok(doc) = Json::parse(&text) else {
            continue; // unparseable fixture → treated as missing → diff reports it
        };
        let rel = format!("tests/wire_golden/{crate_name}.json");
        out.insert(crate_name, crate_from_json(&rel, &doc));
    }
    Ok(out)
}

/// Regenerates the fixtures from the observed schema, removing stale
/// per-crate files for crates that no longer have wire types.
pub fn bless(golden_dir: &Path, observed: &WorkspaceSchema) -> std::io::Result<Vec<String>> {
    std::fs::create_dir_all(golden_dir)?;
    let mut written = Vec::new();
    for (crate_name, schema) in observed {
        let path = golden_dir.join(format!("{crate_name}.json"));
        let doc = qhorn_json::to_string_pretty(&crate_to_json(crate_name, schema));
        std::fs::write(&path, doc + "\n")?;
        written.push(crate_name.clone());
    }
    for entry in std::fs::read_dir(golden_dir)?.filter_map(Result::ok) {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "json") {
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default();
            if !observed.contains_key(stem) {
                std::fs::remove_file(&path)?;
            }
        }
    }
    Ok(written)
}

/// Diffs observed schema against golden fixtures into findings.
pub fn diff(observed: &WorkspaceSchema, golden: &WorkspaceSchema, findings: &mut Vec<Finding>) {
    let types = |schema: &'_ WorkspaceSchema| -> BTreeMap<(String, String), TypeSchema> {
        schema
            .iter()
            .flat_map(|(krate, types)| {
                types
                    .iter()
                    .map(move |(name, t)| ((krate.clone(), name.clone()), t.clone()))
            })
            .collect()
    };
    let (obs, gold) = (types(observed), types(golden));
    let mut names: Vec<&(String, String)> = obs.keys().chain(gold.keys()).collect();
    names.sort();
    names.dedup();
    for key @ (krate, name) in names {
        let (site, message) = match (obs.get(key), gold.get(key)) {
            (Some(o), None) => (
                &o.site,
                format!(
                    "new wire type `{name}` (crate `{krate}`) is not in the golden fixture; \
                     run `qhorn-lint --bless` and commit tests/wire_golden/{krate}.json"
                ),
            ),
            (None, Some(g)) => (
                &g.site,
                format!(
                    "wire type `{name}` (crate `{krate}`) was deleted but the golden fixture \
                     still records it; deleting wire types breaks decoding of durable logs \
                     and older peers"
                ),
            ),
            (Some(o), Some(g)) => {
                diff_type(name, o, g, findings);
                continue;
            }
            (None, None) => unreachable!("name came from one of the maps"),
        };
        findings.push(Finding {
            rule: RULE_WIRE_SCHEMA,
            file: site.0.clone(),
            line: site.1,
            message,
        });
    }
}

fn diff_type(name: &str, o: &TypeSchema, g: &TypeSchema, findings: &mut Vec<Finding>) {
    for (dir, o_dir, g_dir) in [("ToJson", &o.to, &g.to), ("FromJson", &o.from, &g.from)] {
        let mut keys: Vec<&String> = o_dir.keys().chain(g_dir.keys()).collect();
        keys.sort();
        keys.dedup();
        for key in keys {
            let message = match (o_dir.get(key), g_dir.get(key)) {
                (Some(_), None) => format!(
                    "wire field `{key}` added to `{name}` ({dir}); additions are wire-safe \
                     but must be blessed: run `qhorn-lint --bless`"
                ),
                (None, Some(_)) => format!(
                    "wire field `{key}` deleted from `{name}` ({dir}); the protocol is \
                     additive-only — absent-decodes-as-default means peers still send/expect it"
                ),
                (Some(now), Some(was)) if now != was => format!(
                    "wire field `{key}` of `{name}` ({dir}) re-typed: encoding token was \
                     `{was}`, now `{now}`"
                ),
                _ => continue,
            };
            findings.push(Finding {
                rule: RULE_WIRE_SCHEMA,
                file: o.site.0.clone(),
                line: o.site.1,
                message,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_source;

    const SRC: &str = r#"
qhorn_json::wire! {
    struct Stats {
        objects: usize,
        threads_used: u64 [default],
        store: Option<StoreStats> [skip],
    }
}
qhorn_json::wire! {
    enum Msg tag "type" "message type" {
        Ping = "ping",
        Step = "step" { session: u64, kind as "k": String [default = "a".to_string()] },
        Stats = "stats" (Stats),
        Batch = "batch" { session: Option<u64> [default], stats: Stats },
    }
}
qhorn_json::wire! {
    encode struct Report { transport: &'static str, by_class: BTreeMap<&'static str, u64> [with = map] }
}
"#;

    fn extract(src: &str) -> WorkspaceSchema {
        let scan = scan_source(src);
        let mut out = WorkspaceSchema::new();
        extract_file("demo", "crates/demo/src/lib.rs", src, &scan, &mut out);
        out
    }

    #[test]
    fn extracts_both_directions_with_kinds() {
        let out = extract(SRC);
        let t = &out["demo"]["Stats"];
        assert_eq!(t.to["objects"], "usize");
        assert_eq!(t.from["threads_used"], "u64 [default]");
        assert_eq!(t.to["store"], "Option<StoreStats> [skip]");
        assert_eq!(t.site, ("crates/demo/src/lib.rs".to_string(), 2));
        let m = &out["demo"]["Msg"];
        assert_eq!(m.to["type"], "tag");
        assert_eq!(m.to["ping"], "variant");
        assert_eq!(m.to["k"], "String [default = \"a\".to_string()] (step)");
        assert_eq!(m.to["session"], "Option<u64> [default] (batch); u64 (step)");
        assert_eq!(m.to["stats"], "Stats (batch); variant(Stats)");
        let r = &out["demo"]["Report"];
        assert_eq!(r.to["transport"], "&'static str");
        assert_eq!(r.to["by_class"], "BTreeMap<&'static str, u64> [with = map]");
        assert!(r.from.is_empty(), "encode-only types decode nothing");
    }

    #[test]
    fn round_trips_through_fixture_json() {
        let out = extract(SRC);
        let doc = crate_to_json("demo", &out["demo"]);
        let back = crate_from_json("tests/wire_golden/demo.json", &doc);
        assert_eq!(back["Stats"].to, out["demo"]["Stats"].to);
        assert_eq!(back["Msg"].from, out["demo"]["Msg"].from);
        let mut findings = Vec::new();
        let golden: WorkspaceSchema = [("demo".to_string(), back)].into();
        diff(&extract(SRC), &golden, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn deletion_retype_and_addition_all_fire() {
        let obs = extract(SRC);
        let mut golden = obs.clone();
        {
            let t = golden.get_mut("demo").unwrap().get_mut("Stats").unwrap();
            t.to.insert("ghost_field".into(), "u64".into()); // deleted in code
            t.to.insert("threads_used".into(), "String".into()); // re-typed in code
            t.from.remove("objects"); // added in code
        }
        let mut findings = Vec::new();
        diff(&obs, &golden, &mut findings);
        let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("`ghost_field` deleted")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("`threads_used` of `Stats` (ToJson) re-typed")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("`objects` added to `Stats` (FromJson)")),
            "{msgs:?}"
        );
    }

    /// Re-typing an encoded field in the declaration (`u64` → `String`)
    /// changes its kind, which fails the diff against the fixture.
    #[test]
    fn retyping_a_declared_field_fires() {
        let golden = extract(SRC);
        let obs = extract(&SRC.replace("threads_used: u64", "threads_used: String"));
        let mut findings = Vec::new();
        diff(&obs, &golden, &mut findings);
        let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains(
                "`threads_used` of `Stats` (ToJson) re-typed: encoding token was `u64 [default]`, now `String [default]`"
            )),
            "{msgs:?}"
        );
        // A variant's field re-typed while another variant keeps the key.
        let obs = extract(&SRC.replace(
            "Step = \"step\" { session: u64",
            "Step = \"step\" { session: u32",
        ));
        let mut findings = Vec::new();
        diff(&obs, &golden, &mut findings);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("`session` of `Msg` (ToJson) re-typed")),
            "{findings:?}"
        );
    }

    #[test]
    fn declarations_in_test_code_are_ignored() {
        let src = "#[cfg(test)]\nmod tests {\n    qhorn_json::wire! { struct T { a: u8 } }\n}\n";
        assert!(extract(src).is_empty());
    }

    #[test]
    fn hand_written_keyed_impls_are_violations() {
        let src = r#"
impl ToJson for Pair {
    fn to_json(&self) -> Json {
        Json::object([("a", self.a.to_json())])
    }
}
impl<T: Copy> qhorn_json::FromJson for Label<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(Label(j.field("label")?.clone()))
    }
}
impl FromJson for Label {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_str().map(Label::new).ok_or_else(|| JsonError::msg("expected string"))
    }
}
"#;
        let scan = scan_source(src);
        let mut findings = Vec::new();
        check_handwritten("demo", "crates/demo/src/lib.rs", &scan, &mut findings);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert_eq!(findings[0].line, 2);
        assert_eq!(
            findings[1].line, 7,
            "generic and path-qualified impls count too"
        );
        assert!(findings[0].message.contains("qhorn_json::wire!"));
        let mut none = Vec::new();
        check_handwritten(
            "qhorn-json",
            "crates/qhorn-json/src/lib.rs",
            &scan,
            &mut none,
        );
        assert!(none.is_empty());
    }
}
