//! Field readers (and the one string escaper) for the line-oriented
//! JSON documents this workspace writes itself: the telemetry export,
//! the Chrome trace, the timeseries export, the `montsalvat.bench/v1`
//! gate envelope and the traffic baseline.
//!
//! Every reader looks for the first `"key"` that is used as an object
//! key (followed by `:`), so a string *value* that happens to spell
//! the key is skipped. Callers narrow the search to one line or one
//! object body first when a key repeats. This keeps the crate
//! dependency-free; it is not a general JSON parser.

/// The raw text after `"key":`, leading whitespace trimmed.
fn value_after<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\"");
    let mut from = 0;
    while let Some(at) = doc[from..].find(&pat) {
        from += at + pat.len();
        if let Some(rest) = doc[from..].trim_start().strip_prefix(':') {
            return Some(rest.trim_start());
        }
    }
    None
}

/// The unsigned integer after `"key":`. Parsed as `u64` directly, so
/// values above 2^53 keep every bit.
pub fn field_u64(doc: &str, key: &str) -> Option<u64> {
    let rest = value_after(doc, key)?;
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The number after `"key":`, as `f64`.
pub fn field_f64(doc: &str, key: &str) -> Option<f64> {
    let rest = value_after(doc, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The boolean after `"key":`.
pub fn field_bool(doc: &str, key: &str) -> Option<bool> {
    let rest = value_after(doc, key)?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// The contents of the string after `"key":`, still escaped (see
/// [`unescape`]).
pub fn field_str<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let rest = value_after(doc, key)?.strip_prefix('"')?;
    let bytes = rest.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(&rest[..i]),
            _ => i += 1,
        }
    }
    None
}

/// The body of the `{...}` object after `"key":`, brace-matched so
/// nested objects survive.
pub fn object_after<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let body = value_after(doc, key)?.strip_prefix('{')?;
    let mut depth = 1usize;
    for (offset, b) in body.bytes().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&body[..offset]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Splits an object body into `(key, raw value)` pairs at top-level
/// commas. Keys must not contain quotes, commas or braces (metric
/// names never do).
pub fn object_entries(body: &str) -> Vec<(&str, &str)> {
    fn flush<'a>(item: &'a str, entries: &mut Vec<(&'a str, &'a str)>) {
        if let Some((key, value)) = item.split_once(':') {
            entries.push((key.trim().trim_matches('"'), value.trim()));
        }
    }
    let mut entries = Vec::new();
    let (mut depth, mut item_start) = (0usize, 0usize);
    for (i, b) in body.bytes().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => depth = depth.saturating_sub(1),
            b',' if depth == 0 => {
                flush(&body[item_start..i], &mut entries);
                item_start = i + 1;
            }
            _ => {}
        }
    }
    flush(&body[item_start..], &mut entries);
    entries
}

/// Escapes `s` for use inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`escape`] for the escapes it emits (`\uXXXX` excepted).
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_found_past_values_that_spell_them() {
        let line = r#"{"name":"span","args":{"span":7,"parent":0}}"#;
        assert_eq!(field_u64(line, "span"), Some(7));
        assert_eq!(field_str(line, "name"), Some("span"));
        assert_eq!(field_u64(line, "missing"), None);
    }

    #[test]
    fn numbers_keep_u64_precision_and_parse_floats() {
        let doc = r#"{"big": 18446744073709551615, "tol": 0.25, "neg": -1.5e3}"#;
        assert_eq!(field_u64(doc, "big"), Some(u64::MAX));
        assert_eq!(field_f64(doc, "tol"), Some(0.25));
        assert_eq!(field_f64(doc, "neg"), Some(-1500.0));
    }

    #[test]
    fn booleans_and_escaped_strings_round_trip() {
        let doc = format!(r#"{{"ok": false, "why": "{}"}}"#, escape("say \"hi\"\n"));
        assert_eq!(field_bool(&doc, "ok"), Some(false));
        assert_eq!(field_str(&doc, "why").map(unescape).as_deref(), Some("say \"hi\"\n"));
    }

    #[test]
    fn objects_are_brace_matched_and_split_at_top_level() {
        let line = r#"{"hists":{"a":{"count":2,"p50":3},"b":{"count":1}},"gauges":{}}"#;
        let body = object_after(line, "hists").unwrap();
        let entries = object_entries(body);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0], ("a", r#"{"count":2,"p50":3}"#));
        assert_eq!(field_u64(entries[1].1, "count"), Some(1));
        assert!(object_entries(object_after(line, "gauges").unwrap()).is_empty());
    }
}
