//! Fuzz properties of the spec parsing boundary: campaign specs arrive
//! from outside the process (`loas-serve enqueue`, queued spec files), so
//! neither `Json::parse` nor `spec_io::campaign_from_json` may panic on
//! any input — arbitrary bytes, or the committed fig13 spec with one byte
//! overwritten, deleted, or the tail cut off — and string escaping must
//! round-trip every Unicode scalar through the parser.

use loas_serve::json::{escape, Json};
use loas_serve::spec_io::campaign_from_json;
use proptest::prelude::*;

const GOLDEN_SPEC: &str = include_str!("golden/fig13-quick.spec.json");

/// Bytes that steer random documents into the parser's structural and
/// escape paths rather than failing on the first byte.
const JSON_ALPHABET: &[u8] = b"{}[]\":, \n\\/ubfnrt0123456789.eE+-DdCcalsx";

/// Parses `text` both as a bare document and as a campaign spec; either
/// may fail, neither may panic.
fn parse_both(text: &str) {
    let _ = Json::parse(text);
    let _ = campaign_from_json(text);
}

/// One Unicode scalar, drawn by `class` from control characters, ASCII,
/// two-byte, three-byte or any UTF-8 width (surrogate code points, which
/// are not scalars, fold onto U+FFFD).
fn scalar(class: u32, code: u32) -> char {
    let code = match class {
        0 => code % 0x20,
        1 => code % 0x80,
        2 => 0x80 + code % 0x780,
        3 => 0x800 + code % 0xF800,
        _ => code % 0x11_0000,
    };
    char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_parsers(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
        picks in proptest::collection::vec(0usize..JSON_ALPHABET.len(), 0..256),
    ) {
        parse_both(&String::from_utf8_lossy(&bytes));
        let structured: Vec<u8> = picks.iter().map(|&pick| JSON_ALPHABET[pick]).collect();
        parse_both(&String::from_utf8_lossy(&structured));
    }

    #[test]
    fn escaped_unicode_strings_parse_back_verbatim(
        codes in proptest::collection::vec((0u32..5, any::<u32>()), 0..64),
    ) {
        let text: String = codes.iter().map(|&(class, code)| scalar(class, code)).collect();
        let doc = format!("\"{}\"", escape(&text));
        prop_assert_eq!(Json::parse(&doc), Ok(Json::Str(text)));
    }

    #[test]
    fn mutated_golden_specs_never_panic_the_parsers(
        at in 0usize..GOLDEN_SPEC.len(),
        byte in (any::<bool>(), 0u8..=255, 0usize..JSON_ALPHABET.len()),
    ) {
        let golden = GOLDEN_SPEC.as_bytes();
        let (raw, raw_byte, pick) = byte;
        let mut overwritten = golden.to_vec();
        overwritten[at] = if raw { raw_byte } else { JSON_ALPHABET[pick] };
        parse_both(&String::from_utf8_lossy(&overwritten));
        let mut deleted = golden.to_vec();
        deleted.remove(at);
        parse_both(&String::from_utf8_lossy(&deleted));
        parse_both(&String::from_utf8_lossy(&golden[..at]));
    }
}
