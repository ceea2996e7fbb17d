//! A minimal JSON reader for campaign specs.
//!
//! The workspace is built offline (no `serde`), so the serving front end
//! carries its own small recursive-descent parser. Numbers keep their raw
//! token text: specs round-trip seeds as exact `u64`s and sparsity
//! fractions as exact `f64` bit patterns (Rust's shortest-round-trip
//! float formatting), which the content-hashed memo keys depend on.
//!
//! Specs arrive from outside the process, so the parser is an untrusted
//! input boundary: it runs in time linear in the document, bounds its
//! recursion at `MAX_DEPTH` nested containers, and reports every
//! malformed document as an `Err` rather than a panic.

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// Campaign specs nest five levels deep; the bound keeps a hostile
/// document from overflowing the stack of the recursive descent.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token text for lossless reads.
    Num(String),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing
    /// else).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (first match; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `f64` (exact for tokens written by shortest-round-trip
    /// formatting).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as exact `u64` (integer tokens only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as exact `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object fields in source order, if this is an object (the v2
    /// spec schema iterates config-override objects).
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", char::from(byte), *pos))
    }
}

/// Parses the value at `pos`, inside `depth` enclosing containers.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".to_owned()),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "bad utf8".to_owned())?;
    if token.is_empty() || token.parse::<f64>().is_err() {
        return Err(format!("bad number `{token}` at byte {start}"));
    }
    Ok(Json::Num(token.to_owned()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let first = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let code = if (0xD800..0xDC00).contains(&first) {
                            // Surrogate pair: expect `\uXXXX` low half.
                            if bytes.get(*pos + 1) == Some(&b'\\')
                                && bytes.get(*pos + 2) == Some(&b'u')
                            {
                                let low = parse_hex4(bytes, *pos + 3)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err("bad low surrogate".to_owned());
                                }
                                *pos += 6;
                                0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                return Err("lone high surrogate".to_owned());
                            }
                        } else {
                            first
                        };
                        out.push(
                            char::from_u32(code).ok_or_else(|| "bad unicode escape".to_owned())?,
                        );
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&byte) if byte < 0x20 => {
                return Err(format!("raw control byte in string at {}", *pos))
            }
            Some(_) => {
                // Copy the run of plain bytes up to the next quote,
                // backslash or control byte in one step. The stops are
                // ASCII, so they never split a multi-byte sequence, and
                // validating only the run keeps a string O(length).
                let start = *pos;
                *pos = bytes[start..]
                    .iter()
                    .position(|&byte| matches!(byte, b'"' | b'\\' | 0..=0x1F))
                    .map_or(bytes.len(), |offset| start + offset);
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| "bad utf8 in string".to_owned())?;
                out.push_str(run);
            }
        }
    }
}

/// Reads the four hex digits of a `\uXXXX` escape starting at `start`
/// (exactly four ASCII hex digits: no sign, no shorter form).
fn parse_hex4(bytes: &[u8], start: usize) -> Result<u32, String> {
    let digits = bytes
        .get(start..start + 4)
        .ok_or_else(|| "truncated unicode escape".to_owned())?;
    digits
        .iter()
        .try_fold(0u32, |code, &digit| {
            char::from(digit)
                .to_digit(16)
                .map(|value| code << 4 | value)
        })
        .ok_or_else(|| "bad unicode escape".to_owned())
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

/// Escapes a string for embedding in generated JSON — the engine's report
/// escaping, shared so spec and report serialization cannot drift apart.
pub fn escape(value: &str) -> String {
    loas_engine::json_escape(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#" {"name": "demo", "jobs": [{"seed": 18446744073709551615, "x": -1.5e3,
            "flag": true, "none": null, "text": "a\"b\\c\ndA😀"}]} "#;
        let parsed = Json::parse(doc).unwrap();
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("demo"));
        let job = &parsed.get("jobs").unwrap().as_arr().unwrap()[0];
        // u64::MAX survives exactly (f64 would round it).
        assert_eq!(job.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(job.get("x").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(job.get("flag").unwrap().as_bool(), Some(true));
        assert_eq!(job.get("none"), Some(&Json::Null));
        assert_eq!(
            job.get("text").unwrap().as_str(),
            Some("a\"b\\c\ndA\u{1F600}")
        );
    }

    #[test]
    fn float_tokens_round_trip_bit_exactly() {
        for value in [0.823_f64, 0.1 + 0.2, 128.0, f64::MIN_POSITIVE] {
            let doc = format!("{{\"v\": {value}}}");
            let parsed = Json::parse(&doc).unwrap();
            assert_eq!(
                parsed.get("v").unwrap().as_f64().unwrap().to_bits(),
                value.to_bits()
            );
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,]",
            "{\"a\" 1}",
            "1 2",
            "\"unterminated",
            "{\"a\":}",
            // A sign is not a hex digit, and escapes take exactly four.
            "\"\\u+041\"",
            "\"\\u12\"",
            "\"\\uDC00\"",
            "\"\\uD800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn surrogate_pairs_need_a_low_half() {
        assert_eq!(
            Json::parse("\"\\uD83D\\uDE00\"").unwrap(),
            Json::Str("\u{1F600}".to_owned())
        );
        // A high half followed by a non-surrogate escape must not
        // underflow `low - 0xDC00`.
        for bad in ["\"\\uD800\\u0041\"", "\"\\uDBFF\\uE000\""] {
            assert_eq!(Json::parse(bad), Err("bad low surrogate".to_owned()));
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let error = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(error.starts_with("nesting deeper than"), "{error}");
        // Deep enough to overflow the stack of an unbounded descent.
        for open in ["[", "{\"a\":"] {
            let error = Json::parse(&open.repeat(200_000)).unwrap_err();
            assert!(error.starts_with("nesting deeper than"), "{error}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // One 1 MiB unescaped string, multi-byte characters included.
        // Re-validating the rest of the document for every character
        // takes tens of seconds here in the unoptimized test profile.
        let text = "spike\u{e9}\u{1F600}".repeat((1 << 20) / 11);
        let doc = format!("{{\"v\": \"{text}\"}}");
        let start = std::time::Instant::now();
        let parsed = Json::parse(&doc).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(parsed.get("v").unwrap().as_str(), Some(text.as_str()));
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "parsing a 1 MiB string took {elapsed:?}"
        );
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote\" slash\\ newline\n tab\t control\u{1}";
        let doc = format!("{{\"v\": \"{}\"}}", escape(nasty));
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(parsed.get("v").unwrap().as_str(), Some(nasty));
    }
}
