//! Token-level source scanning: comment/string-aware masking, string
//! literal capture, suppression comments, and `#[cfg(test)]` regions.
//!
//! The workspace build environment has no registry access, so there is
//! no `syn` to lean on; this is a small hand-rolled lexer that knows
//! exactly as much Rust as the rules need: line (`//`) and nested block
//! (`/* */`) comments, string / raw-string / byte-string / char
//! literals, and lifetimes (so `'a` is not mistaken for an unterminated
//! char literal). Rule matching then runs over the **masked** text —
//! comments and literal contents blanked to spaces — so a pattern
//! inside a doc example or an error message never fires.

/// One scanned file, ready for rule matching.
pub struct FileScan {
    /// Source lines with comments and literal contents blanked to
    /// spaces (delimiters kept). Same line/column geometry as the input.
    pub masked_lines: Vec<String>,
    /// `(rule, 0-based line)` pairs from `qhorn-lint: allow(rule)`
    /// comments. The line is the one the suppression covers: the
    /// comment's own line for trailing comments, the following line for
    /// standalone ones.
    pub allows: Vec<(String, usize)>,
    /// Per line: is it inside a `#[cfg(test)]` item?
    pub test_lines: Vec<bool>,
}

pub fn scan_source(src: &str) -> FileScan {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut masked_lines: Vec<String> = vec![String::new()];
    // (start line, text, had code before it on its line)
    let mut comments: Vec<(usize, String, bool)> = Vec::new();
    let mut line = 0usize;
    let mut i = 0usize;

    macro_rules! push {
        ($c:expr) => {{
            let c = $c;
            if c == '\n' {
                line += 1;
                masked_lines.push(String::new());
            } else {
                masked_lines[line].push(c);
            }
        }};
    }
    // Advances past one char, masking it (newlines preserved).
    macro_rules! mask {
        () => {{
            push!(if chars[i] == '\n' { '\n' } else { ' ' });
            i += 1;
        }};
    }

    while i < n {
        let c = chars[i];
        // Line comment (also covers doc comments).
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start_line = line;
            let had_code = !masked_lines[line].trim().is_empty();
            let mut text = String::new();
            while i < n && chars[i] != '\n' {
                text.push(chars[i]);
                mask!();
            }
            comments.push((start_line, text, had_code));
            continue;
        }
        // Block comment, possibly nested.
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let start_line = line;
            let had_code = !masked_lines[line].trim().is_empty();
            let mut text = String::new();
            let mut depth = 0usize;
            while i < n {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    text.push_str("/*");
                    mask!();
                    mask!();
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    text.push_str("*/");
                    mask!();
                    mask!();
                    if depth == 0 {
                        break;
                    }
                } else {
                    text.push(chars[i]);
                    mask!();
                }
            }
            comments.push((start_line, text, had_code));
            continue;
        }
        // Raw (byte) strings: r"..", r#".."#, br".." — only when the
        // prefix is not the tail of an identifier (`for` ends in 'r').
        let ident_before = i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
        if !ident_before && (c == 'r' || (c == 'b' && i + 1 < n && chars[i + 1] == 'r')) {
            let mut j = i + if c == 'b' { 2 } else { 1 };
            let mut hashes = 0usize;
            while j < n && chars[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < n && chars[j] == '"' {
                // Confirmed raw string: mask prefix and opening quote.
                while i <= j {
                    mask!();
                }
                'raw: while i < n {
                    if chars[i] == '"' {
                        // Closing requires `"` + `hashes` × `#`.
                        let mut k = i + 1;
                        let mut seen = 0usize;
                        while k < n && seen < hashes && chars[k] == '#' {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            while i < k {
                                mask!();
                            }
                            break 'raw;
                        }
                    }
                    mask!();
                }
                continue;
            }
            // Not a raw string; fall through to copy the char.
        }
        // Plain / byte string literal.
        if c == '"' || (!ident_before && c == 'b' && i + 1 < n && chars[i + 1] == '"') {
            if c == 'b' {
                mask!();
            }
            push!('"');
            i += 1;
            while i < n {
                if chars[i] == '\\' && i + 1 < n {
                    mask!();
                    mask!();
                    continue;
                }
                if chars[i] == '"' {
                    push!('"');
                    i += 1;
                    break;
                }
                mask!();
            }
            continue;
        }
        // Char literal vs lifetime: 'x' / '\n' are literals, 'a (no
        // closing quote within two chars) is a lifetime.
        if c == '\'' {
            let is_char = i + 1 < n
                && (chars[i + 1] == '\\'
                    || (i + 2 < n && chars[i + 2] == '\'' && chars[i + 1] != '\''));
            if is_char {
                push!('\'');
                i += 1;
                while i < n {
                    if chars[i] == '\\' && i + 1 < n {
                        mask!();
                        mask!();
                        continue;
                    }
                    if chars[i] == '\'' {
                        push!('\'');
                        i += 1;
                        break;
                    }
                    mask!();
                }
                continue;
            }
        }
        push!(c);
        i += 1;
    }

    let mut allows = Vec::new();
    for (start_line, text, had_code) in &comments {
        let mut rest = text.as_str();
        while let Some(pos) = rest.find("qhorn-lint: allow(") {
            rest = &rest[pos + "qhorn-lint: allow(".len()..];
            let end = rest.find(')').unwrap_or(rest.len());
            for rule in rest[..end].split(',') {
                let rule = rule.trim();
                if !rule.is_empty() {
                    let target = if *had_code {
                        *start_line
                    } else {
                        *start_line + 1
                    };
                    allows.push((rule.to_string(), target));
                }
            }
            rest = &rest[end.min(rest.len())..];
        }
    }

    let test_lines = mark_test_regions(&masked_lines);
    FileScan {
        masked_lines,
        allows,
        test_lines,
    }
}

/// Marks every line belonging to an item annotated `#[cfg(test)]` (or
/// any `cfg(...)` attribute mentioning `test`, e.g. `all(test, ...)`).
fn mark_test_regions(masked_lines: &[String]) -> Vec<bool> {
    let joined = masked_lines.join("\n");
    let offsets = line_offsets(&joined);
    let mut test = vec![false; masked_lines.len()];
    let bytes = joined.as_bytes();
    let mut search = 0usize;
    while let Some(rel) = joined[search..].find("#[cfg(") {
        let attr_start = search + rel;
        // The attribute's own extent: match the `[...]` brackets.
        let Some(attr_end) = match_delim(bytes, attr_start + 1, b'[', b']') else {
            break;
        };
        let attr_text = &joined[attr_start..=attr_end];
        search = attr_end + 1;
        // `not(test)` guards production code — linting it is the
        // conservative direction for that (rare) shape.
        if !attr_text.contains("test") || attr_text.contains("not(") {
            continue;
        }
        // The annotated item's extent: the next `{ ... }` block (a
        // `#[cfg(test)]` on a braceless item like `use` only covers
        // that statement; treating it as zero lines of region is safe —
        // the line itself is still attribute-shaped, not rule-matchable).
        let Some(open) = joined[attr_end..].find('{').map(|p| attr_end + p) else {
            continue;
        };
        // Only treat it as the item's block if no `;` terminates the
        // item before the brace opens (e.g. `#[cfg(test)] use foo;`).
        if joined[attr_end..open].contains(';') {
            continue;
        }
        let Some(close) = match_delim(bytes, open, b'{', b'}') else {
            // Unbalanced (should not happen in compiling code): mark
            // through end of file, erring on the side of "test code".
            for slot in test
                .iter_mut()
                .take(masked_lines.len())
                .skip(line_of(&offsets, attr_start))
            {
                *slot = true;
            }
            break;
        };
        let first = line_of(&offsets, attr_start);
        let last = line_of(&offsets, close);
        for slot in test.iter_mut().take(last + 1).skip(first) {
            *slot = true;
        }
    }
    test
}

/// Byte offsets where each line starts, for offset→line lookups.
pub fn line_offsets(joined: &str) -> Vec<usize> {
    let mut offsets = vec![0usize];
    for (i, b) in joined.bytes().enumerate() {
        if b == b'\n' {
            offsets.push(i + 1);
        }
    }
    offsets
}

/// 0-based line containing byte `offset`.
pub fn line_of(offsets: &[usize], offset: usize) -> usize {
    match offsets.binary_search(&offset) {
        Ok(l) => l,
        Err(l) => l - 1,
    }
}

/// Given `bytes[open]` equal to `open_ch`, returns the offset of the
/// matching `close_ch`, counting nesting.
pub fn match_delim(bytes: &[u8], open: usize, open_ch: u8, close_ch: u8) -> Option<usize> {
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if b == open_ch {
            depth += 1;
        } else if b == close_ch {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_strings() {
        let scan = scan_source(concat!(
            "let x = \".lock().unwrap()\"; // .lock().unwrap()\n",
            "/* .lock().unwrap() */ let y = 1;\n",
        ));
        for line in &scan.masked_lines {
            assert!(!line.contains(".lock()"), "leaked into mask: {line}");
        }
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let scan = scan_source("fn f<'a>(x: &'a str) { let s = r#\"println!(\"hi\")\"#; }");
        assert!(!scan.masked_lines[0].contains("println!"));
        // The generic parameter survived masking (it is code).
        assert!(scan.masked_lines[0].contains("fn f<'a>"));
    }

    #[test]
    fn cfg_test_regions_cover_the_module_block() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let scan = scan_source(src);
        // (the trailing newline contributes a final empty line)
        assert_eq!(
            scan.test_lines,
            vec![false, true, true, true, true, false, false]
        );
    }

    #[test]
    fn allow_comments_target_the_right_line() {
        let src = "code(); // qhorn-lint: allow(rule-a)\n// qhorn-lint: allow(rule-b)\ncode();\n";
        let scan = scan_source(src);
        assert!(scan.allows.contains(&("rule-a".to_string(), 0)));
        assert!(scan.allows.contains(&("rule-b".to_string(), 2)));
    }
}
