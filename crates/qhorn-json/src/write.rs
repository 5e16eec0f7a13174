//! Compact and pretty JSON writers.

use crate::Json;

pub(crate) fn write_compact(j: &Json, out: &mut String) {
    match j {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::I64(i) => write_i64(*i, out),
        Json::U64(u) => write_u64(*u, out),
        Json::F64(f) => write_f64(*f, out),
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(v, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_compact(v, out);
            }
            out.push('}');
        }
    }
}

pub(crate) fn write_pretty(j: &Json, indent: usize, out: &mut String) {
    match j {
        Json::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                write_pretty(v, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push(']');
        }
        Json::Obj(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                write_string(k, out);
                out.push_str(": ");
                write_pretty(v, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

fn push_indent(n: usize, out: &mut String) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

/// Formats an unsigned integer with a digit loop (no `fmt` machinery).
pub(crate) fn write_u64(mut u: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        out.push(char::from(d));
    }
}

pub(crate) fn write_i64(i: i64, out: &mut String) {
    if i < 0 {
        out.push('-');
    }
    write_u64(i.unsigned_abs(), out);
}

pub(crate) fn write_f64(f: f64, out: &mut String) {
    if f.is_finite() {
        let s = format!("{f}");
        out.push_str(&s);
        // Keep floats distinguishable from integers on re-parse.
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// Writes `s` as a JSON string literal. Each run of bytes that need no
/// escape is copied with one `push_str`, so a string with none (the
/// common case) costs one copy.
pub(crate) fn write_string(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    // Every byte escaped is ASCII, so each run ends on a char boundary.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "\\u00",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(escape);
        if escape.len() > 2 {
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    /// The char-by-char writer the runs replace.
    fn write_string_per_char(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Every string up to length 5 over plain, escaped, control and
    /// multi-byte characters: the runs write what the per-char loop
    /// wrote, and it parses back to the string.
    #[test]
    fn escapes_in_runs_as_the_per_char_loop_did() {
        const ALPHABET: [char; 7] = ['a', '"', '\\', '\n', '\u{1}', 'é', '⟨'];
        let mut strings = vec![String::new()];
        let mut longest = vec![String::new()];
        for _ in 0..5 {
            longest = longest
                .iter()
                .flat_map(|s| {
                    ALPHABET.iter().map(move |&c| {
                        let mut t = s.clone();
                        t.push(c);
                        t
                    })
                })
                .collect();
            strings.extend(longest.iter().cloned());
        }
        assert_eq!(strings.len(), (0..=5).map(|k| 7usize.pow(k)).sum());
        for s in &strings {
            let (mut runs, mut per_char) = (String::new(), String::new());
            write_string(s, &mut runs);
            write_string_per_char(s, &mut per_char);
            assert_eq!(runs, per_char, "{s:?}");
            assert_eq!(Json::parse(&runs), Ok(Json::Str(s.clone())), "{s:?}");
        }
    }
}
