//! Minimal JSON reader/writer.
//!
//! The cache files and `BENCH_*.json` artifacts are plain JSON, but the
//! workspace must build with no registry access, so this is a small
//! hand-rolled implementation instead of serde. It has two halves:
//!
//! * **one writer** — every document, typed or a [`Json`] tree, is printed
//!   by one streaming printer that owns the layout rules: two-space
//!   indent, `": "` after a key, a comma and a newline between items, `{}`
//!   and `[]` for empty containers, and the escape set (`"`, `\`, `\n`,
//!   `\r`, `\t`, other bytes below 0x20 as `\u00xx`). Typed documents
//!   (cells, cache entries, artifacts, profiles) print their fields
//!   straight into one output `String`: no tree is built and no key,
//!   number or string is copied on the way. A float prints as its
//!   shortest `Display` form; a non-finite float prints as `null`, since
//!   JSON has no spelling for infinity or NaN;
//! * **a borrowing reader** — [`Json::parse`] returns a tree that borrows
//!   from the input text: keys, number text and strings without escapes
//!   are slices of it ([`Cow::Borrowed`]). Each array and object owns one
//!   `Vec` sized to its items; beyond that, only a string with escapes
//!   allocates. Callers keep the text alive while they decode.
//!
//! Four properties matter beyond correctness:
//!
//! * **lossless integers** — performance counters are `u64` values that
//!   can exceed 2^53, so numbers keep their raw decimal text
//!   ([`Json::Num`]) and are converted on access;
//! * **deterministic output** — objects preserve insertion order, so the
//!   same data always serializes to the same bytes (cache round-trip
//!   tests compare artifacts textually);
//! * **linear time** — the reader visits each input byte a bounded number
//!   of times; every cache hit and artifact reload goes through it;
//! * **bounded nesting** — arrays and objects nest at most 128 levels,
//!   so a hostile or corrupt file is a located parse error (a cache
//!   miss), never a stack overflow.
//!
//! The reader accepts numbers in the JSON grammar only (no leading zeros,
//! no bare `.` or exponent marker), which is all the writer produces.

use std::borrow::Cow;
use std::fmt::Write as _;

/// The deepest array/object nesting [`Json::parse`] accepts. The
/// committed documents nest five levels deep; the cap only bounds the
/// reader's recursion.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value, borrowing from the text it was parsed from.
#[derive(Debug, Clone, PartialEq)]
pub enum Json<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw decimal text (lossless for `u64`).
    Num(Cow<'a, str>),
    /// A string (unescaped).
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object; insertion-ordered, duplicate keys not merged.
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

impl<'a> Json<'a> {
    /// Builds an integer value.
    pub fn num(v: u64) -> Json<'a> {
        Json::Num(Cow::Owned(v.to_string()))
    }

    /// Builds a string value.
    pub fn str(v: impl Into<Cow<'a, str>>) -> Json<'a> {
        Json::Str(v.into())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
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
    pub fn as_arr(&self) -> Option<&[Json<'a>]> {
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
        JsonWriter::print(|w| self.write(w))
    }

    fn write(&self, w: &mut JsonWriter) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Num(s) => w.out.push_str(s),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => w.arr(|a| {
                for item in items {
                    item.write(a.item());
                }
            }),
            Json::Obj(fields) => w.obj(|o| {
                for (k, v) in fields {
                    v.write(o.key(k));
                }
            }),
        }
    }

    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    pub fn parse(text: &'a str) -> Result<Json<'a>, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            items: Vec::new(),
            // Enough for a cache entry's open objects, so the scratch
            // allocates once.
            fields: Vec::with_capacity(32),
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// The one JSON printer (see the module doc for its layout rules). A
/// value is written at the writer's current position: the whole document
/// at first, then an object member's value after [`ObjWriter::key`] or an
/// array element after [`ArrWriter::item`].
#[derive(Debug)]
pub(crate) struct JsonWriter {
    out: String,
    /// Arrays and objects currently open.
    depth: usize,
}

impl JsonWriter {
    /// Prints the document `body` writes, with a trailing newline.
    pub(crate) fn print(body: impl FnOnce(&mut JsonWriter)) -> String {
        let mut w = JsonWriter { out: String::new(), depth: 0 };
        body(&mut w);
        w.out.push('\n');
        w.out
    }

    pub(crate) fn null(&mut self) {
        self.out.push_str("null");
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// An integer, its digits formatted in place.
    pub(crate) fn u64(&mut self, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
    }

    /// A float in its shortest `Display` form, or `null` when it is not
    /// finite.
    pub(crate) fn f64(&mut self, v: f64) {
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            self.null();
        }
    }

    /// A string literal. Only ASCII bytes are escaped, so the runs
    /// between them are pushed as whole slices.
    pub(crate) fn str(&mut self, s: &str) {
        let out = &mut self.out;
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

    /// An object whose members `body` writes.
    pub(crate) fn obj(&mut self, body: impl FnOnce(&mut ObjWriter<'_>)) {
        self.out.push('{');
        self.depth += 1;
        let mut o = ObjWriter { w: self, empty: true };
        body(&mut o);
        let empty = o.empty;
        self.close('}', empty);
    }

    /// An array whose elements `body` writes.
    pub(crate) fn arr(&mut self, body: impl FnOnce(&mut ArrWriter<'_>)) {
        self.out.push('[');
        self.depth += 1;
        let mut a = ArrWriter { w: self, empty: true };
        body(&mut a);
        let empty = a.empty;
        self.close(']', empty);
    }

    fn close(&mut self, bracket: char, empty: bool) {
        self.depth -= 1;
        if !empty {
            self.newline();
        }
        self.out.push(bracket);
    }

    /// Starts the next item of the innermost open container.
    fn next_item(&mut self, first: bool) {
        if !first {
            self.out.push(',');
        }
        self.newline();
    }

    fn newline(&mut self) {
        const SPACES: &str = "                                                                ";
        self.out.push('\n');
        let mut n = 2 * self.depth;
        while n > 0 {
            let k = n.min(SPACES.len());
            self.out.push_str(&SPACES[..k]);
            n -= k;
        }
    }
}

/// The members of one object being written.
pub(crate) struct ObjWriter<'w> {
    w: &'w mut JsonWriter,
    empty: bool,
}

impl ObjWriter<'_> {
    /// Starts member `key`; write its value on the returned writer.
    pub(crate) fn key(&mut self, key: &str) -> &mut JsonWriter {
        self.w.next_item(self.empty);
        self.empty = false;
        self.w.str(key);
        self.w.out.push_str(": ");
        self.w
    }
}

/// The elements of one array being written.
pub(crate) struct ArrWriter<'w> {
    w: &'w mut JsonWriter,
    empty: bool,
}

impl ArrWriter<'_> {
    /// Starts the next element; write it on the returned writer.
    pub(crate) fn item(&mut self) -> &mut JsonWriter {
        self.w.next_item(self.empty);
        self.empty = false;
        self.w
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// Items of the open arrays, innermost last; a closing array moves
    /// its own into one exactly sized `Vec`.
    items: Vec<Json<'a>>,
    /// Fields of the open objects, likewise.
    fields: Vec<(Cow<'a, str>, Json<'a>)>,
}

impl<'a> Parser<'a> {
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

    fn value(&mut self) -> Result<Json<'a>, String> {
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

    fn literal(&mut self, word: &str, v: Json<'a>) -> Result<Json<'a>, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json<'a>, String> {
        let start = self.pos;
        self.pos += self.bytes[start..]
            .iter()
            .take_while(|b| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            .count();
        let text = &self.text[start..self.pos];
        if !is_json_number(text.as_bytes()) {
            return Err(format!("bad number at byte {start}"));
        }
        Ok(Json::Num(Cow::Borrowed(text)))
    }

    /// Everything up to the next quote or backslash, from `pos`; both
    /// are ASCII, so the run ends on a char boundary.
    fn run(&mut self) -> &'a str {
        let run = self.pos;
        self.pos = self.bytes[run..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map_or(self.bytes.len(), |n| run + n);
        &self.text[run..self.pos]
    }

    /// A string: a slice of the input until the first escape, which
    /// makes it owned.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        let start = self.pos;
        self.expect(b'"')?;
        let mut out = Cow::Borrowed(self.run());
        loop {
            match self.peek() {
                None => return Err(format!("unterminated string at byte {start}")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    // On a backslash.
                    self.pos += 1;
                    let owned = out.to_mut();
                    self.escape(owned)?;
                    owned.push_str(self.run());
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

    fn array(&mut self) -> Result<Json<'a>, String> {
        self.expect(b'[')?;
        let base = self.items.len();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(Vec::new()));
        }
        loop {
            self.skip_ws();
            let item = self.value()?;
            self.items.push(item);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(self.items.drain(base..).collect()));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json<'a>, String> {
        self.expect(b'{')?;
        let base = self.fields.len();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(Vec::new()));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            self.fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(self.fields.drain(base..).collect()));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

/// Whether `b` is a JSON number:
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn is_json_number(b: &[u8]) -> bool {
    let digits = |i: usize| b[i..].iter().take_while(|c| c.is_ascii_digit()).count();
    let mut i = usize::from(b.first() == Some(&b'-'));
    match b.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => i += digits(i),
        _ => return false,
    }
    if b.get(i) == Some(&b'.') {
        let n = digits(i + 1);
        if n == 0 {
            return false;
        }
        i += 1 + n;
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        let n = digits(i);
        if n == 0 {
            return false;
        }
        i += n;
    }
    i == b.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(text: &str) -> Json<'static> {
        Json::Num(Cow::Owned(text.into()))
    }

    #[test]
    fn roundtrip_document() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::str("fibo\n\"quoted\"")),
            ("count".into(), Json::num(20_000_000_000)),
            ("neg".into(), num("-42")),
            ("pi".into(), num("3.25")),
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
    fn parsed_tree_borrows_everything_but_escaped_strings() {
        let text = r#"{"plain": "abc", "esc": "a\nb", "n": 12, "a": [1, "x"]}"#;
        let doc = Json::parse(text).unwrap();
        let Json::Obj(fields) = &doc else { panic!("not an object") };
        assert!(fields.iter().all(|(k, _)| matches!(k, Cow::Borrowed(_))));
        assert!(matches!(doc.get("plain"), Some(Json::Str(Cow::Borrowed("abc")))));
        assert!(matches!(doc.get("esc"), Some(Json::Str(Cow::Owned(s))) if s == "a\nb"));
        assert!(matches!(doc.get("n"), Some(Json::Num(Cow::Borrowed("12")))));
        assert!(matches!(
            doc.get("a").and_then(Json::as_arr),
            Some([Json::Num(Cow::Borrowed("1")), Json::Str(Cow::Borrowed("x"))])
        ));
    }

    #[test]
    fn writer_layout_matches_the_tree_printer() {
        let printed = JsonWriter::print(|w| {
            w.obj(|o| {
                o.key("a").u64(u64::MAX);
                o.key("b").f64(1.5);
                o.key("c").arr(|a| {
                    a.item().null();
                    a.item().bool(false);
                    a.item().obj(|_| {});
                    a.item().arr(|_| {});
                });
                o.key("k\"ey").str("v\u{1}");
            })
        });
        assert_eq!(
            printed,
            "{\n  \"a\": 18446744073709551615,\n  \"b\": 1.5,\n  \"c\": [\n    null,\n    \
             false,\n    {},\n    []\n  ],\n  \"k\\\"ey\": \"v\\u0001\"\n}\n"
        );
        assert_eq!(Json::parse(&printed).unwrap().to_pretty_string(), printed);
    }

    #[test]
    fn non_finite_floats_print_as_null() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(JsonWriter::print(|w| w.f64(v)), "null\n");
        }
        assert_eq!(JsonWriter::print(|w| w.f64(-0.25)), "-0.25\n");
        // An out-of-range number reads as infinity; written back as a
        // float it is `null`, never a bare `inf`.
        let doc = Json::parse(r#"{"a": 1e400}"#).unwrap();
        let big = doc.get("a").and_then(Json::as_f64).unwrap();
        assert!(big.is_infinite());
        let text = JsonWriter::print(|w| w.obj(|o| o.key("a").f64(big)));
        assert_eq!(Json::parse(&text).unwrap().get("a"), Some(&Json::Null));
    }

    #[test]
    fn u64_is_lossless_beyond_2_53() {
        let v = u64::MAX - 1;
        let doc = Json::Obj(vec![("big".into(), Json::num(v))]);
        let back = Json::parse(&doc.to_pretty_string()).unwrap().req_u64("big").unwrap();
        assert_eq!(back, v);
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
        assert!(Json::parse("\"a\\nbc").is_err());
        assert!(Json::parse("{}x").unwrap_err().contains("trailing"));
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for good in ["0", "-0", "7", "-12", "0.5", "1.25e-3", "6E+2", "10e5", "18446744073709551615"] {
            let doc = Json::parse(good).unwrap_or_else(|e| panic!("{good}: {e}"));
            assert_eq!(doc.to_pretty_string(), format!("{good}\n"));
        }
        for bad in ["01", "-", "1.", ".5", "-.5", "1.e5", "1e", "1e+", "--1", "1-2", "+1"] {
            let err = Json::parse(&format!("[{bad}]")).unwrap_err();
            assert!(err.contains("at byte 1"), "{bad}: {err}");
        }
    }

    #[test]
    fn escapes_roundtrip() {
        let s = "tab\t nl\n cr\r quote\" backslash\\ unicode✓ ctrl\u{1}";
        let text = Json::str(s).to_pretty_string();
        assert_eq!(Json::parse(&text).unwrap().as_str().unwrap(), s);
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
                (string(&mut rng).into(), Json::str(string(&mut rng))),
                (
                    string(&mut rng).into(),
                    Json::Arr(vec![Json::str(string(&mut rng)), Json::Null]),
                ),
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
        let doc = Json::Arr(vec![Json::str(s)]);
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
