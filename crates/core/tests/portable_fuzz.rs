//! Fuzz properties of memo-entry parsing: the result store reads portable
//! reports back from disk, where they may be truncated or corrupted, so
//! `LayerReport::from_portable` must return `Ok` or `Err` on any input —
//! arbitrary bytes, or a valid entry with one byte overwritten, deleted or
//! the tail cut off — and never panic. Whatever it accepts must serialize
//! to an entry that parses back to the same bytes.

use loas_core::{Accelerator, LayerReport, Loas, PreparedLayer, PORTABLE_FORMAT};
use loas_workloads::{LayerShape, SparsityProfile, WorkloadGenerator};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Bytes that steer random entries into the parser's field paths rather
/// than failing on the header.
const ENTRY_ALPHABET: &[u8] = b"=,\n\r\\-+.eE0123456789 nafiNIcyledrmwokps";

/// A real LoAS report entry on a small layer.
fn valid_entry() -> &'static str {
    static ENTRY: OnceLock<String> = OnceLock::new();
    ENTRY.get_or_init(|| {
        let profile = SparsityProfile::from_percentages(75.0, 60.0, 68.0, 90.0).unwrap();
        let workload = WorkloadGenerator::default()
            .generate("fuzz\\entry", LayerShape::new(4, 12, 8, 96), &profile)
            .unwrap();
        Loas::default()
            .run_layer(&PreparedLayer::new(&workload))
            .to_portable()
    })
}

/// Parses `bytes`; an accepted entry must re-serialize to a fixed point.
fn check(bytes: &[u8]) {
    if let Ok(report) = LayerReport::from_portable(&String::from_utf8_lossy(bytes)) {
        let entry = report.to_portable();
        let again = LayerReport::from_portable(&entry).expect("re-serialized entry parses");
        assert_eq!(again.to_portable(), entry);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_entry_parser(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
        picks in proptest::collection::vec(0usize..ENTRY_ALPHABET.len(), 0..256),
    ) {
        check(&bytes);
        let body: Vec<u8> = picks.iter().map(|&pick| ENTRY_ALPHABET[pick]).collect();
        check(&body);
        // Behind a valid header the body reaches every field parser.
        let mut headed = format!("{PORTABLE_FORMAT}\n").into_bytes();
        headed.extend_from_slice(&body);
        check(&headed);
    }

    #[test]
    fn mutated_entries_never_panic_the_entry_parser(
        at in 0usize..4096,
        byte in (any::<bool>(), 0u8..=255, 0usize..ENTRY_ALPHABET.len()),
    ) {
        let valid = valid_entry().as_bytes();
        let at = at % valid.len();
        let (raw, raw_byte, pick) = byte;
        let mut overwritten = valid.to_vec();
        overwritten[at] = if raw { raw_byte } else { ENTRY_ALPHABET[pick] };
        check(&overwritten);
        let mut deleted = valid.to_vec();
        deleted.remove(at);
        check(&deleted);
        check(&valid[..at]);
    }
}

#[test]
fn the_valid_entry_round_trips() {
    let report = LayerReport::from_portable(valid_entry()).unwrap();
    assert_eq!(report.to_portable(), valid_entry());
}
