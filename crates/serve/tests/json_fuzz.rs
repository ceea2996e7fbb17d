//! Fuzz properties of the spec parsing boundary: campaign specs arrive
//! from outside the process (`loas-serve enqueue`, queued spec files), so
//! neither `Json::parse` nor `spec_io::campaign_from_json` may panic on
//! any input — arbitrary bytes, or the committed fig13 spec with one byte
//! overwritten, deleted, or the tail cut off — and string escaping must
//! round-trip every Unicode scalar through the parser. Shard reports are
//! read back from other processes' files the same way, so `merge_shards`
//! must return an error or the exact merge on any shard contents.

use loas_serve::json::{escape, Json};
use loas_serve::merge_shards;
use loas_serve::spec_io::campaign_from_json;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// The merge `merge_shards` must produce from these shard files, or `None`
/// where it must fail: every line of shard `rank` starts with a job id
/// below `jobs` that `rank` owns, and each job appears exactly once.
fn expected_merge(shards: &[Vec<u8>], jobs: usize) -> Option<String> {
    let mut lines: Vec<Option<&str>> = vec![None; jobs];
    for (rank, bytes) in shards.iter().enumerate() {
        for line in std::str::from_utf8(bytes).ok()?.lines() {
            let rest = line.strip_prefix("{\"job\":")?;
            let digits =
                &rest[..rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len()];
            let id: usize = digits.parse().ok()?;
            if id >= jobs || id % shards.len() != rank || lines[id].replace(line).is_some() {
                return None;
            }
        }
    }
    lines
        .into_iter()
        .map(|line| line.map(|line| format!("{line}\n")))
        .collect()
}

/// Writes the shard files into a fresh directory and checks the merge of
/// every campaign size up to 5 jobs against [`expected_merge`].
fn check_merge(shards: &[Vec<u8>]) {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "loas-merge-fuzz-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    for (rank, bytes) in shards.iter().enumerate() {
        std::fs::write(dir.join(format!("report.shard-{rank}.jsonl")), bytes).unwrap();
    }
    let merged: Vec<Option<String>> = (0..=5)
        .map(|jobs| merge_shards(&dir, shards.len(), jobs).ok())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    for (jobs, merged) in merged.into_iter().enumerate() {
        prop_assert_eq!(
            merged,
            expected_merge(shards, jobs),
            "{} jobs of {:?}",
            jobs,
            shards
        );
    }
}

/// The shard files of a correct 2-way run of a 4-job campaign.
fn valid_shards() -> Vec<Vec<u8>> {
    let line = |id: usize| format!("{{\"job\":{id},\"label\":\"layer {id}\"}}\n");
    vec![
        (line(0) + &line(2)).into_bytes(),
        (line(1) + &line(3)).into_bytes(),
    ]
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

proptest! {
    // Each case writes shard files, so fewer cases than the parsers get.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_shard_files_merge_exactly_or_fail(
        shards in proptest::collection::vec(proptest::collection::vec(0u8..=255, 0..64), 1..=3),
        picks in proptest::collection::vec(0usize..JSON_ALPHABET.len(), 0..64),
    ) {
        check_merge(&shards);
        let structured: Vec<u8> = picks.iter().map(|&pick| JSON_ALPHABET[pick]).collect();
        check_merge(&[b"{\"job\":0".to_vec(), structured]);
    }

    #[test]
    fn mutated_shard_lines_merge_exactly_or_fail(
        rank in 0usize..2,
        at in any::<u64>(),
        byte in (any::<bool>(), 0u8..=255, 0usize..JSON_ALPHABET.len()),
    ) {
        let valid = valid_shards();
        check_merge(&valid);
        prop_assert!(expected_merge(&valid, 4).is_some());
        let at = (at % valid[rank].len() as u64) as usize;
        let (raw, raw_byte, pick) = byte;
        let mut overwritten = valid.clone();
        overwritten[rank][at] = if raw { raw_byte } else { JSON_ALPHABET[pick] };
        check_merge(&overwritten);
        let mut deleted = valid.clone();
        deleted[rank].remove(at);
        check_merge(&deleted);
        let mut cut = valid;
        cut[rank].truncate(at);
        check_merge(&cut);
    }
}
