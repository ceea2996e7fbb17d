//! Fuzz properties of the spec parsing boundary: campaign specs arrive
//! from outside the process (`loas-serve enqueue`, queued spec files), so
//! neither `Json::parse` nor `spec_io::campaign_from_json` may panic on
//! any input — arbitrary bytes, or the committed fig13 spec with one byte
//! overwritten, deleted, or the tail cut off — and string escaping must
//! round-trip every Unicode scalar through the parser. The parsed tree
//! borrows every string and key spelled without an escape and owns the
//! rest, and a campaign whose names and labels need escapes survives a
//! spec round trip. Shard reports are
//! read back from other processes' files the same way, so `merge_shards`
//! must return an error or the exact merge on any shard contents. The
//! memo log is shared by every runner of a queue: on random, truncated,
//! spliced or mutated logs a `MemoStore` must never panic and never load
//! a report other than the one a valid frame holds.

use loas_core::LayerReport;
use loas_engine::{json_escape, Campaign, MemoKey, MemoStore, ResultStore, DEFAULT_SEED};
use loas_serve::json::Json;
use loas_serve::merge_shards;
use loas_serve::spec_io::{campaign_from_json, campaign_to_json, headline_campaign};
use proptest::prelude::*;
use std::borrow::Cow;
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

/// Text drawn by [`scalar`], with a sixth class that picks a quote or a
/// backslash, so most draws need an escape somewhere.
fn spec_text(codes: &[(u32, u32)]) -> String {
    codes
        .iter()
        .map(|&(class, code)| match class {
            5 => ['"', '\\'][code as usize % 2],
            _ => scalar(class, code),
        })
        .collect()
}

/// `c` spelled as `\uXXXX` escapes (a surrogate pair above the BMP), in
/// upper- or lower-case hex.
fn unicode_escape(c: char, upper: bool) -> String {
    let mut units = [0u16; 2];
    c.encode_utf16(&mut units)
        .iter()
        .map(|unit| {
            if upper {
                format!("\\u{unit:04X}")
            } else {
                format!("\\u{unit:04x}")
            }
        })
        .collect()
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
    let dir = fuzz_dir("merge");
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

/// A valid log's entries, bytes and frame ends (see [`valid_log`]).
type ValidLog = (Vec<(MemoKey, String)>, Vec<u8>, Vec<usize>);

/// Three reports stored under keys 1 to 3: each key with its portable
/// body, the log a store writes for them, and where each frame ends.
fn valid_log() -> &'static ValidLog {
    static LOG: std::sync::OnceLock<ValidLog> = std::sync::OnceLock::new();
    LOG.get_or_init(write_valid_log)
}

fn write_valid_log() -> ValidLog {
    let dir = fuzz_dir("memo-valid");
    let store = MemoStore::open(&dir).unwrap();
    let mut entries = Vec::new();
    let mut ends = Vec::new();
    for key in 1..=3u64 {
        let mut stats = loas_sim::SimStats::new();
        stats.cycles = loas_sim::Cycle(1000 * key);
        let report = LayerReport {
            workload: format!("layer {key}"),
            accelerator: "LoAS".to_owned(),
            stats,
            energy: loas_sim::EnergyBreakdown::default(),
            output: None,
        };
        store.store(MemoKey::new(key), &report);
        entries.push((MemoKey::new(key), report.to_portable()));
        ends.push(std::fs::metadata(store.log_path()).unwrap().len() as usize);
    }
    let log = std::fs::read(store.log_path()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (entries, log, ends)
}

/// A fresh scratch path for one fuzz case.
fn fuzz_dir(tag: &str) -> std::path::PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "loas-{tag}-fuzz-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Loads every key of `entries` (and one never stored) from a store over
/// `log`, before and after a prune. Each load misses or returns exactly
/// its key's body; keys in `must_load` hit; a prune loses no hit and
/// leaves no damage. Returns the keys that loaded.
fn check_log(log: &[u8], entries: &[(MemoKey, String)], must_load: &[MemoKey]) -> Vec<MemoKey> {
    let dir = fuzz_dir("memo-log");
    let store = MemoStore::open(&dir).unwrap();
    std::fs::write(store.log_path(), log).unwrap();
    let loaded = |store: &MemoStore| -> Vec<MemoKey> {
        assert!(store.load(MemoKey::new(0xdead_beef)).is_none());
        entries
            .iter()
            .filter(|(key, body)| match store.load(*key) {
                Some(report) => {
                    assert_eq!(&report.to_portable(), body, "key {key}");
                    true
                }
                None => false,
            })
            .map(|(key, _)| *key)
            .collect()
    };
    let before = loaded(&store);
    for key in must_load {
        assert!(before.contains(key), "key {key} did not load");
    }
    assert_eq!(store.len(), before.len());
    let found = store.check().unwrap();
    assert!(found.valid_frames >= before.len());
    assert_eq!(store.prune().unwrap(), found);
    assert_eq!(store.check().unwrap().damaged, 0);
    assert_eq!(
        loaded(&store),
        before,
        "the pruned log serves the same hits"
    );
    assert_eq!(loaded(&MemoStore::open(&dir).unwrap()), before);
    let _ = std::fs::remove_dir_all(&dir);
    before
}

/// Bytes that steer random logs into the frame parser's header paths.
const LOG_ALPHABET: &[u8] = b"loas-memo 0123456789abcdef\n=,";

proptest! {
    // Each case writes a log, so fewer cases than the parsers get.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_logs_never_panic_or_load_a_stranger(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
        picks in proptest::collection::vec(0usize..LOG_ALPHABET.len(), 0..256),
    ) {
        let (entries, _, _) = valid_log();
        check_log(&bytes, entries, &[]);
        let structured: Vec<u8> = picks.iter().map(|&pick| LOG_ALPHABET[pick]).collect();
        check_log(&structured, entries, &[]);
    }

    #[test]
    fn truncated_and_mutated_logs_keep_their_whole_frames(
        at in any::<u64>(),
        byte in 0u8..=255,
    ) {
        let (entries, log, ends) = valid_log();
        prop_assert_eq!(check_log(log, entries, &[]).len(), 3);
        let at = (at % log.len() as u64) as usize;
        // Cut: every frame that ends before the cut still loads.
        let whole: Vec<MemoKey> = entries
            .iter()
            .zip(ends)
            .filter(|(_, &end)| end <= at)
            .map(|((key, _), _)| *key)
            .collect();
        prop_assert_eq!(check_log(&log[..at], entries, &whole), whole);
        // Overwrite: every frame the byte is not in still loads.
        let mut overwritten = log.clone();
        overwritten[at] = byte;
        let starts = [0, ends[0], ends[1]];
        let untouched: Vec<MemoKey> = entries
            .iter()
            .zip(starts.iter().zip(ends))
            .filter(|(_, (&start, &end))| at < start || at >= end)
            .map(|((key, _), _)| *key)
            .collect();
        check_log(&overwritten, entries, &untouched);
    }

    #[test]
    fn spliced_logs_never_load_a_stranger(
        cuts in (any::<u64>(), any::<u64>(), any::<u64>()),
        junk in proptest::collection::vec(0usize..LOG_ALPHABET.len(), 0..32),
    ) {
        let (entries, log, _) = valid_log();
        let (a, b, c) = cuts;
        let [a, b, c] = [a, b, c].map(|cut| (cut % (log.len() as u64 + 1)) as usize);
        let junk: Vec<u8> = junk.iter().map(|&pick| LOG_ALPHABET[pick]).collect();
        // Head of the log, junk, a tail from elsewhere, and the whole log
        // appended again after a torn middle.
        let mut spliced = log[..a].to_vec();
        spliced.extend_from_slice(&junk);
        spliced.extend_from_slice(&log[b..]);
        spliced.extend_from_slice(&log[..c]);
        spliced.extend_from_slice(log);
        // The last whole copy of the log is intact, so every key loads.
        let keys: Vec<MemoKey> = entries.iter().map(|(key, _)| *key).collect();
        prop_assert_eq!(check_log(&spliced, entries, &keys), keys);
    }
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
        let doc = format!("\"{}\"", json_escape(&text));
        prop_assert_eq!(Json::parse(&doc), Ok(Json::Str(text.into())));
    }

    #[test]
    fn unescaped_strings_borrow_and_escaped_strings_own(
        codes in proptest::collection::vec((0u32..6, any::<u32>()), 1..64),
        upper in any::<bool>(),
    ) {
        let text = spec_text(&codes);
        // Without the characters that need an escape, the payload is the
        // document's own bytes between the quotes (an empty one may borrow
        // any empty slice).
        let plain: String = text
            .chars()
            .filter(|&c| c >= ' ' && c != '"' && c != '\\')
            .collect();
        let doc = format!("\"{plain}\"");
        match Json::parse(&doc) {
            Ok(Json::Str(Cow::Borrowed(parsed))) => {
                prop_assert_eq!(parsed, plain.as_str());
                prop_assert!(plain.is_empty() || parsed.as_ptr() == doc[1..].as_ptr());
            }
            other => prop_assert!(false, "{:?} parsed to {:?}", doc, other),
        }
        // Any escape, in short or `\u` form, makes an owned copy holding
        // the same text.
        let spelled: String = text.chars().map(|c| unicode_escape(c, upper)).collect();
        for (doc, expected) in [
            (format!("\"{}\\/\"", json_escape(&text)), format!("{text}/")),
            (format!("\"{plain}{spelled}\""), format!("{plain}{text}")),
        ] {
            match Json::parse(&doc) {
                Ok(Json::Str(Cow::Owned(parsed))) => prop_assert_eq!(parsed, expected),
                other => prop_assert!(false, "{:?} parsed to {:?}", doc, other),
            }
        }
    }

    #[test]
    fn keys_spelled_with_escapes_are_found_by_their_text(
        codes in proptest::collection::vec((0u32..6, any::<u32>()), 0..16),
        spell in proptest::collection::vec((any::<bool>(), any::<bool>()), 16),
    ) {
        let key = spec_text(&codes);
        // Each character escaped or not at random (those that need an
        // escape always are), after a decoy key that differs by a suffix.
        let spelled: String = key
            .chars()
            .zip(&spell)
            .map(|(c, &(escaped, upper))| {
                if escaped {
                    unicode_escape(c, upper)
                } else {
                    json_escape(&c.to_string())
                }
            })
            .collect();
        let doc = format!("{{\"{spelled}x\": 1, \"{spelled}\": 2}}");
        let parsed = Json::parse(&doc).unwrap();
        prop_assert_eq!(parsed.get(&key), Some(&Json::Num("2")));
        prop_assert_eq!(parsed.get(&format!("{key}x")), Some(&Json::Num("1")));
    }

    #[test]
    fn campaigns_with_escaped_names_and_labels_round_trip(
        name in proptest::collection::vec((0u32..6, any::<u32>()), 0..32),
        labels in proptest::collection::vec(
            proptest::collection::vec((0u32..6, any::<u32>()), 0..32),
            1..4,
        ),
    ) {
        let headline = headline_campaign(true, DEFAULT_SEED);
        let mut campaign = Campaign::new(spec_text(&name));
        for (job, label) in headline.jobs().iter().zip(&labels) {
            let mut job = job.clone();
            job.label = spec_text(label);
            campaign.push(job);
        }
        let text = campaign_to_json(&campaign);
        let parsed = campaign_from_json(&text).unwrap();
        prop_assert_eq!(&parsed.name, &campaign.name);
        for (job, back) in campaign.jobs().iter().zip(parsed.jobs()) {
            prop_assert_eq!(&back.label, &job.label);
        }
        prop_assert_eq!(campaign_to_json(&parsed), text);
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

#[test]
fn a_key_with_a_unicode_escape_is_found_by_its_text() {
    let parsed = Json::parse(r#"{"na\u006de": "demo"}"#).unwrap();
    assert_eq!(parsed.get("name").and_then(Json::as_str), Some("demo"));
    assert!(matches!(parsed.as_obj(), Some([(Cow::Owned(key), _)]) if key == "name"));
}
