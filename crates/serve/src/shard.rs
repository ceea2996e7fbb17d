//! Cross-process sharding: deterministic job partitioning and byte-exact
//! shard-report merging.
//!
//! Shard `K/N` owns every job whose campaign id satisfies
//! `id % N == K` — a pure function of the submitted spec, so any number of
//! processes (on any machines sharing the queue directory) agree on the
//! partition without coordination. Each shard writes
//! `report.shard-K.jsonl` with records keeping their **original** job
//! ids; [`merge_shards`] interleaves the lines by id into a report that is
//! byte-identical to a single-process run of the whole campaign.

use crate::error::ServeError;
use std::path::Path;

/// One shard of an `N`-way partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's rank in `0..count`.
    pub rank: usize,
    /// Total shards.
    pub count: usize,
}

impl Default for ShardSpec {
    /// The single-process "partition".
    fn default() -> Self {
        ShardSpec { rank: 0, count: 1 }
    }
}

impl ShardSpec {
    /// Parses the CLI form `K/N`.
    ///
    /// # Errors
    ///
    /// Describes the malformed value.
    pub fn parse(text: &str) -> Result<ShardSpec, ServeError> {
        let parsed = text.split_once('/').and_then(|(rank, count)| {
            Some(ShardSpec {
                rank: rank.parse().ok()?,
                count: count.parse().ok()?,
            })
        });
        match parsed {
            Some(shard) if shard.count >= 1 && shard.rank < shard.count => Ok(shard),
            _ => Err(ServeError::Queue(format!(
                "bad shard `{text}` (want K/N with 0 <= K < N)"
            ))),
        }
    }

    /// Whether this is the whole campaign (no sharding).
    pub fn is_whole(&self) -> bool {
        self.count == 1
    }

    /// The job ids this shard owns out of a `total`-job campaign.
    pub fn job_ids(&self, total: usize) -> Vec<usize> {
        (0..total)
            .filter(|id| id % self.count == self.rank)
            .collect()
    }

    /// This shard's report file name.
    pub fn report_filename(&self) -> String {
        format!("report.shard-{}.jsonl", self.rank)
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.rank, self.count)
    }
}

/// Extracts the job id from one serialized record line (`{"job":N,...`)
/// without re-parsing the whole object — merging must preserve the line
/// bytes exactly, so lines are never deserialized and re-serialized.
fn line_job_id(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("{\"job\":")?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    if digits.is_empty() {
        return None;
    }
    digits.parse().ok()
}

/// Merges the `shards`-way shard reports in `report_dir` into the bytes of
/// the full campaign report (trailing newline included), verifying that
/// the shards cover `expected_jobs` exactly once each.
///
/// # Errors
///
/// Returns [`ServeError::Merge`] on a missing shard file, an unparsable
/// line, a job reported by a shard that does not own it, a duplicate job
/// id, or incomplete coverage — merging never fabricates a report.
pub fn merge_shards(
    report_dir: &Path,
    shards: usize,
    expected_jobs: usize,
) -> Result<String, ServeError> {
    let mut lines: Vec<Option<String>> = vec![None; expected_jobs];
    for rank in 0..shards {
        let shard = ShardSpec {
            rank,
            count: shards,
        };
        let path = report_dir.join(shard.report_filename());
        let text = std::fs::read_to_string(&path).map_err(|error| {
            ServeError::Merge(format!(
                "cannot read shard {rank} ({}): {error}",
                path.display()
            ))
        })?;
        for line in text.lines() {
            let Some(id) = line_job_id(line) else {
                return Err(ServeError::Merge(format!(
                    "shard {rank} has a record without a job id: `{line}`"
                )));
            };
            if id >= expected_jobs {
                return Err(ServeError::Merge(format!(
                    "shard {rank} reports job {id}, campaign has {expected_jobs}"
                )));
            }
            if id % shards != rank {
                return Err(ServeError::Merge(format!(
                    "shard {rank} reports job {id}, which shard {} owns",
                    id % shards
                )));
            }
            if lines[id].replace(line.to_owned()).is_some() {
                return Err(ServeError::Merge(format!("job {id} reported twice")));
            }
        }
    }
    let missing = lines.iter().filter(|line| line.is_none()).count();
    if missing > 0 {
        return Err(ServeError::Merge(format!(
            "{missing} of {expected_jobs} jobs missing from the {shards} shard report(s)"
        )));
    }
    Ok(lines
        .into_iter()
        .map(|line| line.expect("verified above") + "\n")
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_valid_rejects_invalid() {
        assert_eq!(ShardSpec::parse("0/1").unwrap(), ShardSpec::default());
        assert_eq!(
            ShardSpec::parse("2/5").unwrap(),
            ShardSpec { rank: 2, count: 5 }
        );
        for bad in ["", "1", "2/2", "3/2", "a/b", "-1/2", "0/0"] {
            assert!(ShardSpec::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn partitions_cover_jobs_exactly_once() {
        for count in 1..=6 {
            let mut seen = vec![0usize; 29];
            for rank in 0..count {
                for id in (ShardSpec { rank, count }).job_ids(29) {
                    seen[id] += 1;
                }
            }
            assert!(seen.iter().all(|&n| n == 1), "{count}-way partition");
        }
    }

    #[test]
    fn merge_detects_duplicates_and_gaps() {
        let dir = std::env::temp_dir().join(format!("loas-serve-merge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let line = |id: usize| format!("{{\"job\":{id},\"label\":\"x\"}}");
        std::fs::write(
            dir.join("report.shard-0.jsonl"),
            format!("{}\n{}\n", line(0), line(2)),
        )
        .unwrap();
        // Missing shard 1 file.
        assert!(merge_shards(&dir, 2, 4).is_err());
        std::fs::write(dir.join("report.shard-1.jsonl"), format!("{}\n", line(1))).unwrap();
        // Job 3 missing.
        let error = merge_shards(&dir, 2, 4).unwrap_err().to_string();
        assert!(error.contains("1 of 4 jobs missing"), "{error}");
        // Complete coverage merges in id order.
        std::fs::write(
            dir.join("report.shard-1.jsonl"),
            format!("{}\n{}\n", line(1), line(3)),
        )
        .unwrap();
        let merged = merge_shards(&dir, 2, 4).unwrap();
        assert_eq!(
            merged,
            format!("{}\n{}\n{}\n{}\n", line(0), line(1), line(2), line(3))
        );
        // A duplicate across shards is rejected.
        std::fs::write(
            dir.join("report.shard-1.jsonl"),
            format!("{}\n{}\n{}\n", line(1), line(3), line(0)),
        )
        .unwrap();
        assert!(merge_shards(&dir, 2, 4).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_rejects_jobs_from_a_shard_that_does_not_own_them() {
        let dir = std::env::temp_dir().join(format!("loas-serve-owner-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let line = |id: usize| format!("{{\"job\":{id},\"label\":\"x\"}}");
        // Shard 0 holds both jobs of a 2-way campaign; shard 1 never ran.
        std::fs::write(
            dir.join("report.shard-0.jsonl"),
            format!("{}\n{}\n", line(0), line(1)),
        )
        .unwrap();
        std::fs::write(dir.join("report.shard-1.jsonl"), "").unwrap();
        let error = merge_shards(&dir, 2, 2).unwrap_err().to_string();
        assert!(error.contains("shard 0 reports job 1"), "{error}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
