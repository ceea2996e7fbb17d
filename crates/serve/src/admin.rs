//! Queue administration: batched spec submission, failed-campaign
//! requeue, and memo-store/report integrity checking (`fsck`).

use crate::error::ServeError;
use crate::queue::{CampaignState, Queue, Submission};
use loas_core::LayerReport;
use std::path::{Path, PathBuf};

/// Expands one `enqueue` source argument into the spec files it names:
///
/// * a **directory** — every `*.json` inside, in name order;
/// * a **manifest** (any non-`.json` file) — one spec path per line,
///   resolved relative to the manifest's directory; blank lines and
///   `#`-comments are skipped;
/// * a plain **`.json` file** — itself.
///
/// # Errors
///
/// Returns [`ServeError::Spec`] for an empty directory or manifest and
/// propagates I/O failures.
pub fn collect_spec_paths(source: impl AsRef<Path>) -> Result<Vec<PathBuf>, ServeError> {
    let source = source.as_ref();
    if source.is_dir() {
        let mut specs: Vec<PathBuf> = std::fs::read_dir(source)
            .map_err(ServeError::io(source))?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .collect();
        specs.sort();
        if specs.is_empty() {
            return Err(ServeError::Spec(format!(
                "directory {} holds no *.json specs",
                source.display()
            )));
        }
        return Ok(specs);
    }
    if source.extension().is_some_and(|ext| ext == "json") {
        return Ok(vec![source.to_path_buf()]);
    }
    // A manifest: one spec path per line, relative to the manifest.
    let text = std::fs::read_to_string(source).map_err(ServeError::io(source))?;
    let base = source.parent().unwrap_or_else(|| Path::new("."));
    let specs: Vec<PathBuf> = text
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let path = Path::new(line);
            if path.is_absolute() {
                path.to_path_buf()
            } else {
                base.join(path)
            }
        })
        .collect();
    if specs.is_empty() {
        return Err(ServeError::Spec(format!(
            "manifest {} lists no specs",
            source.display()
        )));
    }
    Ok(specs)
}

/// Submits a batch of spec files in one call (ROADMAP item d: LOKI-style
/// design-space sweeps arrive as a directory of specs). All specs are
/// read **and validated** before the first submission, so a broken spec
/// anywhere in the batch means nothing is enqueued.
///
/// # Errors
///
/// Returns the first read or validation failure, naming the file.
pub fn enqueue_batch(queue: &Queue, specs: &[PathBuf]) -> Result<Vec<Submission>, ServeError> {
    let mut texts = Vec::with_capacity(specs.len());
    for path in specs {
        let text = std::fs::read_to_string(path).map_err(ServeError::io(path))?;
        crate::spec_io::runnable_campaign_from_json(&text)
            .map_err(|error| ServeError::Spec(format!("{}: {error}", path.display())))?;
        texts.push(text);
    }
    texts.iter().map(|text| queue.enqueue(text)).collect()
}

/// Resets a `failed` campaign to `queued` and clears its stale partial
/// outputs (shard reports, shard markers, summaries), so the next `run`
/// pass re-claims it from a clean slate — completed jobs replay from the
/// memo store, so a requeue after a transient failure only re-simulates
/// what never finished.
///
/// # Errors
///
/// Returns [`ServeError::Queue`] when the campaign is not in the `failed`
/// state (requeueing running or completed work would corrupt reports).
pub fn requeue(queue: &Queue, id: u64) -> Result<(), ServeError> {
    match queue.state(id)? {
        CampaignState::Failed(_) => {}
        other => {
            return Err(ServeError::Queue(format!(
                "campaign {id:05} is `{other}`; only failed campaigns can be requeued"
            )))
        }
    }
    let report_dir = queue.report_dir(id);
    if report_dir.is_dir() {
        let entries = std::fs::read_dir(&report_dir).map_err(ServeError::io(&report_dir))?;
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let stale = name == "report.jsonl"
                || name.starts_with("report.shard-")
                || name.starts_with("shard-")
                || name.starts_with("summary.");
            if stale {
                std::fs::remove_file(&path).map_err(ServeError::io(&path))?;
            }
        }
    }
    queue.set_state(id, &CampaignState::Queued)
}

/// What an [`fsck`] pass found (and possibly pruned).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Valid memo entries (well-named and parseable).
    pub valid_entries: usize,
    /// Memo entries whose contents fail to parse as a portable
    /// [`LayerReport`] — replayed loads would read these as misses, so
    /// they only waste space.
    pub corrupt_entries: Vec<PathBuf>,
    /// Files in the memo directory that are not `<16-hex>.report` entries
    /// (leftover temporaries from crashed writers, stray files). Files
    /// younger than [`ORPHAN_GRACE`] are ignored entirely — they may be a
    /// live writer's in-flight temporary about to be renamed into place.
    pub orphan_files: Vec<PathBuf>,
    /// Report directories with no matching submission-log entry.
    pub orphan_report_dirs: Vec<PathBuf>,
    /// Paths removed (only non-zero when pruning).
    pub pruned: usize,
}

impl FsckReport {
    /// Total problems found.
    pub fn problems(&self) -> usize {
        self.corrupt_entries.len() + self.orphan_files.len() + self.orphan_report_dirs.len()
    }

    /// Whether the store is fully consistent.
    pub fn is_clean(&self) -> bool {
        self.problems() == 0
    }
}

/// How old a non-entry file in the memo directory must be before fsck
/// treats it as an orphan. `MemoStore::store` writes a `.tmp` file and
/// atomically renames it within milliseconds, so anything younger than
/// this is presumed to be a **live** writer's in-flight temporary —
/// pruning it would race the rename and silently drop a fresh result.
pub const ORPHAN_GRACE: std::time::Duration = std::time::Duration::from_secs(60);

/// Whether the file at `path` is older than [`ORPHAN_GRACE`] (unreadable
/// metadata counts as stale: the file is likely already gone).
fn outlived_grace(path: &std::path::Path) -> bool {
    std::fs::metadata(path)
        .and_then(|meta| meta.modified())
        .map(|modified| modified.elapsed().unwrap_or_default() >= ORPHAN_GRACE)
        .unwrap_or(true)
}

/// Whether `name` is a well-formed memo entry file name
/// (`<16 lowercase hex>.report` — the [`MemoKey`] display format).
///
/// [`MemoKey`]: loas_engine::MemoKey
fn is_memo_entry_name(name: &str) -> bool {
    name.strip_suffix(".report").is_some_and(|stem| {
        stem.len() == 16
            && stem
                .bytes()
                .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
    })
}

/// Integrity-checks the queue's memo store and report tree (ROADMAP item
/// c): every memo entry must be named `<16-hex>.report` and parse as a
/// portable [`LayerReport`]; every report directory must belong to a
/// logged submission. With `prune`, corrupt entries and orphans are
/// deleted (safe even against concurrent runners: corrupt entries already
/// read as misses, and non-entry files are only considered orphans once
/// they outlive [`ORPHAN_GRACE`] — a live writer's in-flight temporary is
/// never touched).
///
/// # Errors
///
/// Propagates I/O failures (a missing memo directory is an empty store,
/// not an error).
pub fn fsck(queue: &Queue, prune: bool) -> Result<FsckReport, ServeError> {
    let mut report = FsckReport::default();
    let memo_dir = queue.memo_dir();
    if memo_dir.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&memo_dir)
            .map_err(ServeError::io(&memo_dir))?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .collect();
        entries.sort();
        for path in entries {
            let well_named = path
                .file_name()
                .and_then(|name| name.to_str())
                .is_some_and(is_memo_entry_name);
            if !well_named {
                if outlived_grace(&path) {
                    report.orphan_files.push(path);
                }
                continue;
            }
            let parses = std::fs::read_to_string(&path)
                .ok()
                .is_some_and(|text| LayerReport::from_portable(&text).is_ok());
            if parses {
                report.valid_entries += 1;
            } else {
                report.corrupt_entries.push(path);
            }
        }
    }

    // Report directories must trace back to a logged submission.
    let known: std::collections::HashSet<u64> = queue
        .submissions()?
        .into_iter()
        .map(|submission| submission.id)
        .collect();
    let reports_dir = queue.root().join("reports");
    if reports_dir.is_dir() {
        let mut dirs: Vec<PathBuf> = std::fs::read_dir(&reports_dir)
            .map_err(ServeError::io(&reports_dir))?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .collect();
        dirs.sort();
        for path in dirs {
            let owned = path
                .file_name()
                .and_then(|name| name.to_str())
                .and_then(|name| name.parse::<u64>().ok())
                .is_some_and(|id| known.contains(&id));
            if !owned {
                report.orphan_report_dirs.push(path);
            }
        }
    }

    if prune {
        for path in report
            .corrupt_entries
            .drain(..)
            .chain(report.orphan_files.drain(..))
        {
            std::fs::remove_file(&path).map_err(ServeError::io(&path))?;
            report.pruned += 1;
        }
        for path in report.orphan_report_dirs.drain(..) {
            std::fs::remove_dir_all(&path).map_err(ServeError::io(&path))?;
            report.pruned += 1;
        }
    }
    Ok(report)
}

/// Renders the accelerator catalog as the `loas-serve models` listing:
/// every registered model with its about-line and configuration fields
/// (name, value kind, paper default) — the design-space discovery surface
/// for writing v2 spec `config` overrides.
pub fn catalog_listing() -> String {
    loas_baselines::register_catalog();
    loas_core::catalog::with(|catalog| {
        let mut out = String::new();
        for entry in catalog.entries() {
            out.push_str(&format!("{}\n    {}\n", entry.name(), entry.about()));
            let config = entry.default_config();
            if config.fields().is_empty() {
                out.push_str("    (no configuration fields)\n");
            }
            for (field, value) in config.fields() {
                out.push_str(&format!(
                    "    {field:<28} {:<8} default {value}\n",
                    value.kind()
                ));
            }
            out.push('\n');
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec_io::{campaign_to_json, gamma_cache_campaign, headline_campaign};
    use crate::{drain, RunOptions};

    fn temp_queue(tag: &str) -> Queue {
        let root = std::env::temp_dir().join(format!(
            "loas-serve-admin-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        Queue::init(root).unwrap()
    }

    fn small_options() -> RunOptions {
        RunOptions {
            workers: 2,
            ..RunOptions::default()
        }
    }

    #[test]
    fn directory_and_manifest_sources_batch_enqueue() {
        let queue = temp_queue("batch");
        let specs_dir = queue.root().join("incoming");
        std::fs::create_dir_all(&specs_dir).unwrap();
        std::fs::write(
            specs_dir.join("a-headline.json"),
            campaign_to_json(&headline_campaign(true, 7)),
        )
        .unwrap();
        std::fs::write(
            specs_dir.join("b-gamma.json"),
            campaign_to_json(&gamma_cache_campaign(true, 7)),
        )
        .unwrap();
        std::fs::write(specs_dir.join("notes.txt"), "not a spec").unwrap();

        // Directory source: both json specs, name order.
        let paths = collect_spec_paths(&specs_dir).unwrap();
        assert_eq!(paths.len(), 2);
        let submitted = enqueue_batch(&queue, &paths).unwrap();
        assert_eq!(submitted.len(), 2);
        assert_eq!(submitted[0].jobs, 28);
        assert_eq!(submitted[1].jobs, 4);

        // Manifest source: relative paths, comments skipped.
        let manifest = queue.root().join("sweep.manifest");
        std::fs::write(
            &manifest,
            "# sweep batch\nincoming/b-gamma.json\n\nincoming/a-headline.json\n",
        )
        .unwrap();
        let paths = collect_spec_paths(&manifest).unwrap();
        assert_eq!(paths.len(), 2);
        assert!(paths[0].ends_with("incoming/b-gamma.json"));
        let submitted = enqueue_batch(&queue, &paths).unwrap();
        assert_eq!(submitted.len(), 2);
        assert_eq!(queue.submissions().unwrap().len(), 4);
        let _ = std::fs::remove_dir_all(queue.root());
    }

    #[test]
    fn a_broken_spec_anywhere_blocks_the_whole_batch() {
        let queue = temp_queue("batch-atomic");
        let specs_dir = queue.root().join("incoming");
        std::fs::create_dir_all(&specs_dir).unwrap();
        std::fs::write(
            specs_dir.join("a-good.json"),
            campaign_to_json(&headline_campaign(true, 7)),
        )
        .unwrap();
        std::fs::write(specs_dir.join("b-bad.json"), "{not json").unwrap();
        let paths = collect_spec_paths(&specs_dir).unwrap();
        let error = enqueue_batch(&queue, &paths).unwrap_err().to_string();
        assert!(error.contains("b-bad.json"), "{error}");
        assert!(queue.submissions().unwrap().is_empty(), "nothing enqueued");
        let _ = std::fs::remove_dir_all(queue.root());
    }

    #[test]
    fn requeue_resets_failed_campaigns_only() {
        let queue = temp_queue("requeue");
        let id = queue
            .enqueue(&campaign_to_json(&headline_campaign(true, 11)))
            .unwrap()
            .id;
        // Queued and done campaigns refuse.
        assert!(requeue(&queue, id).is_err());
        drain(&queue, &small_options(), |_| {}).unwrap();
        assert_eq!(queue.state(id).unwrap(), CampaignState::Done);
        assert!(requeue(&queue, id).is_err());

        // A failed campaign requeues, stale shard outputs are cleared, and
        // the next pass (replaying from the memo store it shares) finishes.
        queue
            .set_state(id, &CampaignState::Failed("runner died".to_owned()))
            .unwrap();
        let stale = queue.report_dir(id).join("shard-0.done");
        assert!(stale.is_file(), "drain left its shard marker");
        requeue(&queue, id).unwrap();
        assert_eq!(queue.state(id).unwrap(), CampaignState::Queued);
        assert!(!stale.exists(), "stale marker cleared");
        let summary = drain(&queue, &small_options(), |_| {}).unwrap();
        assert_eq!(summary.campaigns, 1);
        assert_eq!(summary.memo_hits, 28, "requeue re-used memoized results");
        assert_eq!(queue.state(id).unwrap(), CampaignState::Done);
        let _ = std::fs::remove_dir_all(queue.root());
    }

    #[test]
    fn fsck_finds_and_prunes_corruption_and_orphans() {
        let queue = temp_queue("fsck");
        queue
            .enqueue(&campaign_to_json(&gamma_cache_campaign(true, 11)))
            .unwrap();
        drain(&queue, &small_options(), |_| {}).unwrap();
        let clean = fsck(&queue, false).unwrap();
        assert!(clean.is_clean(), "{clean:?}");
        assert_eq!(clean.valid_entries, 4);

        // Inject: a corrupt entry, a stray temp file, an orphan report dir.
        let memo = queue.memo_dir();
        std::fs::write(memo.join("00000000deadbeef.report"), "not a report").unwrap();
        let temp = memo.join(".0123.tmp");
        std::fs::write(&temp, "dead writer").unwrap();
        std::fs::create_dir_all(queue.root().join("reports/99999")).unwrap();

        // The temp file is fresh: it could be a live writer mid-rename, so
        // fsck must leave it alone (corrupt entry + orphan dir still flag).
        let racing = fsck(&queue, false).unwrap();
        assert_eq!(racing.orphan_files.len(), 0, "fresh temp presumed live");
        assert_eq!(racing.problems(), 2);

        // Backdate it past the grace period: now it is a dead writer's
        // leftover and a genuine orphan.
        let stale = std::time::SystemTime::now() - (ORPHAN_GRACE + ORPHAN_GRACE);
        std::fs::File::options()
            .write(true)
            .open(&temp)
            .unwrap()
            .set_times(std::fs::FileTimes::new().set_modified(stale))
            .unwrap();

        let dirty = fsck(&queue, false).unwrap();
        assert_eq!(dirty.valid_entries, 4);
        assert_eq!(dirty.corrupt_entries.len(), 1);
        assert_eq!(dirty.orphan_files.len(), 1);
        assert_eq!(dirty.orphan_report_dirs.len(), 1);
        assert_eq!(dirty.problems(), 3);

        let pruned = fsck(&queue, true).unwrap();
        assert_eq!(pruned.pruned, 3);
        let after = fsck(&queue, false).unwrap();
        assert!(after.is_clean(), "{after:?}");
        assert_eq!(after.valid_entries, 4, "valid entries survive pruning");
        let _ = std::fs::remove_dir_all(queue.root());
    }

    #[test]
    fn memo_entry_names_are_validated_strictly() {
        assert!(is_memo_entry_name("0123456789abcdef.report"));
        assert!(!is_memo_entry_name("0123456789ABCDEF.report"), "uppercase");
        assert!(!is_memo_entry_name("0123456789abcde.report"), "short");
        assert!(!is_memo_entry_name("0123456789abcdef.tmp"), "extension");
        assert!(!is_memo_entry_name("xyzw456789abcdef.report"), "non-hex");
    }

    #[test]
    fn catalog_listing_names_every_model_and_its_fields() {
        let listing = catalog_listing();
        // Every registered model appears with its about-line and every
        // configuration field with its kind and default — the sweepable
        // design space a spec author needs.
        for model in ["loas", "sparten", "gospa", "gamma", "ptb", "stellar"] {
            assert!(
                listing.contains(&format!("{model}\n")),
                "missing model `{model}` in:\n{listing}"
            );
        }
        loas_core::catalog::with(|catalog| {
            for entry in catalog.entries() {
                assert!(
                    listing.contains(entry.about()),
                    "about for {}",
                    entry.name()
                );
                for (field, value) in entry.default_config().fields() {
                    assert!(listing.contains(field), "field {field}");
                    let _ = value;
                }
            }
        });
        assert!(listing.contains("cache_ways"), "gamma geometry knob listed");
        assert!(listing.contains("integer"), "kinds printed");
        assert!(listing.contains("boolean"), "loas mode flags printed");
    }
}
