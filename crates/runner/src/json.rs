//! Minimal JSON reader/writer.
//!
//! The cache files and `BENCH_*.json` artifacts are plain JSON, but the
//! workspace must build with no registry access, so this is a small
//! hand-rolled implementation instead of serde. Four properties matter
//! here beyond correctness:
//!
//! * **lossless integers** — performance counters are `u64` values that
//!   can exceed 2^53, so numbers keep their raw decimal text
//!   ([`Json::Num`]) and are converted on access;
//! * **deterministic output** — objects preserve insertion order, so the
//!   same data always serializes to the same bytes (cache round-trip
//!   tests compare artifacts textually);
//! * **linear time** — the reader visits each input byte a bounded number
//!   of times and copies each run of unescaped string bytes as one slice,
//!   as the writer does; every cache hit and artifact reload goes through
//!   it;
//! * **bounded nesting** — arrays and objects nest at most 128 levels,
//!   so a hostile or corrupt file is a located parse error (a cache
//!   miss), never a stack overflow.

use std::fmt::Write as _;

/// The deepest array/object nesting [`Json::parse`] accepts. The
/// committed documents nest five levels deep; the cap only bounds the
/// reader's recursion.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw decimal text (lossless for `u64`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, duplicate keys not merged.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a number value from anything displayable as a number.
    pub fn num(v: impl ToString) -> Json {
        Json::Num(v.to_string())
    }

    /// Builds a string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Number as `u64` (exact), if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// Number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// Boolean content.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array elements.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Required typed field accessors for deserializers: descriptive
    /// errors beat `Option` chains at call sites.
    pub fn req_u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing or non-integer field `{key}`"))
    }

    /// Required string field.
    pub fn req_str(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing or non-string field `{key}`"))
    }

    /// Serializes with 2-space indentation and a trailing newline.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(s) => out.push_str(s),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes `s` as a JSON string literal. Only ASCII bytes are escaped, so
/// the runs between them are pushed as whole slices.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
                }
                self.depth += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        // Validate by parsing as f64 (covers every JSON number form).
        text.parse::<f64>().map_err(|_| format!("bad number at byte {start}"))?;
        Ok(Json::Num(text.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        let start = self.pos;
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Everything up to the next quote or backslash is copied
            // verbatim; both are ASCII, so the run ends on a char boundary.
            let run = self.pos;
            self.pos = self.bytes[run..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map_or(self.bytes.len(), |n| run + n);
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(format!("unterminated string at byte {start}")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
            }
        }
    }

    /// The escape after a backslash; `pos` is on the character after it.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        match self.peek() {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'u') => {
                // Exactly four hex digits; no sign, no fewer.
                let code = self
                    .bytes
                    .get(self.pos + 1..self.pos + 5)
                    .and_then(|hex| {
                        hex.iter().try_fold(0, |acc, &b| Some(acc << 4 | (b as char).to_digit(16)?))
                    })
                    .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos - 1))?;
                // Surrogate pairs are not produced by our writer; map
                // lone surrogates to the replacement char.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                self.pos += 4;
            }
            _ => return Err(format!("bad escape at byte {}", self.pos)),
        }
        self.pos += 1;
        Ok(())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_document() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::str("fibo\n\"quoted\"")),
            ("count".into(), Json::num(20_000_000_000u64)),
            ("neg".into(), Json::num(-42)),
            ("pi".into(), Json::num(3.25)),
            ("flag".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            ("items".into(), Json::Arr(vec![Json::num(1), Json::str("x"), Json::Arr(vec![])])),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let text = doc.to_pretty_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn u64_is_lossless_beyond_2_53() {
        let v = u64::MAX - 1;
        let doc = Json::Obj(vec![("big".into(), Json::num(v))]);
        let back = Json::parse(&doc.to_pretty_string()).unwrap();
        assert_eq!(back.req_u64("big").unwrap(), v);
    }

    #[test]
    fn deterministic_serialization() {
        let doc = Json::Obj(vec![
            ("b".into(), Json::num(1)),
            ("a".into(), Json::num(2)),
        ]);
        assert_eq!(doc.to_pretty_string(), doc.clone().to_pretty_string());
        // Insertion order preserved, not sorted.
        assert!(doc.to_pretty_string().find("\"b\"").unwrap()
            < doc.to_pretty_string().find("\"a\"").unwrap());
    }

    #[test]
    fn parse_errors_are_located() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("\"abc").is_err());
        assert!(Json::parse("{}x").unwrap_err().contains("trailing"));
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn escapes_roundtrip() {
        let s = "tab\t nl\n cr\r quote\" backslash\\ unicode✓ ctrl\u{1}";
        let doc = Json::Str(s.to_string());
        let back = Json::parse(&doc.to_pretty_string()).unwrap();
        assert_eq!(back.as_str().unwrap(), s);
    }

    #[test]
    fn seeded_strings_roundtrip() {
        // Multi-byte UTF-8 of every width, the escaped ASCII bytes, and
        // the other control characters.
        const ALPHABET: &[char] = &[
            'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}',
            '\u{1f}', '\u{7f}', 'é', 'ß', '✓', '€', '\u{fffd}', '𝄞', '😀',
        ];
        fn string(rng: &mut tarch_testkit::Rng) -> String {
            (0..rng.range_usize(0, 40)).map(|_| *rng.choice(ALPHABET)).collect()
        }
        let mut rng = tarch_testkit::Rng::new(0x5eed);
        for _ in 0..500 {
            let doc = Json::Obj(vec![
                (string(&mut rng), Json::Str(string(&mut rng))),
                (string(&mut rng), Json::Arr(vec![Json::Str(string(&mut rng)), Json::Null])),
            ]);
            let text = doc.to_pretty_string();
            let back = Json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text:?}"));
            assert_eq!(back, doc);
            assert_eq!(back.to_pretty_string(), text);
        }
    }

    #[test]
    fn four_mib_string_parses() {
        // A quadratic reader takes minutes here, so a regression hangs
        // the suite instead of flaking a timing assertion.
        let chunk = "plain ascii text, then ✓ é 😀 and an escape \" and \\ and \n.";
        let s = chunk.repeat((4 << 20) / chunk.len() + 1);
        let doc = Json::Arr(vec![Json::Str(s)]);
        assert_eq!(Json::parse(&doc.to_pretty_string()).unwrap(), doc);
    }

    #[test]
    fn deep_nesting_is_an_error_not_an_abort() {
        let deepest_ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest_ok).is_ok());
        let err = Json::parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        let objects = "{\"k\": ".repeat(1_000_000);
        assert!(Json::parse(&objects).unwrap_err().contains("nesting"));
    }

    #[test]
    fn unicode_escape_needs_four_hex_digits() {
        assert_eq!(Json::parse(r#""\u0041\u00e9\u2713""#).unwrap().as_str(), Some("Aé✓"));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u004""#, r#""\u00g1""#, r#""\u 041""#] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.contains("at byte 1"), "{bad}: {err}");
        }
    }

    #[test]
    fn accessors() {
        let doc = Json::parse(r#"{"a": 1, "b": "x", "c": [true, null], "d": 1.5}"#).unwrap();
        assert_eq!(doc.req_u64("a").unwrap(), 1);
        assert_eq!(doc.req_str("b").unwrap(), "x");
        assert_eq!(doc.get("c").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("c").unwrap().as_arr().unwrap()[0].as_bool(), Some(true));
        assert_eq!(doc.get("d").unwrap().as_f64(), Some(1.5));
        assert!(doc.req_u64("missing").is_err());
        assert!(doc.req_u64("b").is_err());
    }
}
