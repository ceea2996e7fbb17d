//! The durable on-disk job queue.
//!
//! A queue is a plain directory — no daemons or sockets required to
//! submit — with an append-only submission log and one state file per
//! campaign:
//!
//! ```text
//! <root>/
//!   submissions.log        append-only: "<id>\t<name>\t<job-count>" per enqueue
//!   specs/<id>.json        the campaign spec exactly as submitted
//!   state/<id>             "queued" | "done" | "failed <message>"
//!   reports/<id>/          report.jsonl, report.shard-K.jsonl, shard-K.done, summaries
//!   memo/entries.log       the shared result-memoization store: one
//!                          append-only log (see `loas_engine::MemoStore`)
//! ```
//!
//! Submission is atomic-enough for the serving model: the spec file is
//! written (via temp + rename) before the log line, and runners treat the
//! log as the source of truth for ordering — so a campaign enqueued while
//! a runner is draining is either fully visible or not yet visible, never
//! half-visible. One writer per queue directory is assumed for id
//! assignment (ids come from the log length); concurrent **runners** (the
//! shard processes) only ever write their own `reports/<id>/shard-K.*`
//! files.

use crate::error::ServeError;
use crate::spec_io;
use loas_engine::Campaign;
use std::path::{Path, PathBuf};

/// One submission-log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submission {
    /// Monotonic campaign id (1-based submission order).
    pub id: u64,
    /// Campaign display name (sanitized; the spec file is authoritative).
    pub name: String,
    /// Number of jobs at submission time.
    pub jobs: usize,
}

/// A campaign's lifecycle state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignState {
    /// Waiting for (more) runners; sharded campaigns stay queued until
    /// merged.
    Queued,
    /// Report complete (`reports/<id>/report.jsonl` exists).
    Done,
    /// A runner gave up on this campaign.
    Failed(String),
}

impl std::fmt::Display for CampaignState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignState::Queued => f.write_str("queued"),
            CampaignState::Done => f.write_str("done"),
            CampaignState::Failed(message) => write!(f, "failed {message}"),
        }
    }
}

/// Handle to a queue directory.
#[derive(Debug, Clone)]
pub struct Queue {
    root: PathBuf,
}

impl Queue {
    /// Creates the queue layout at `root` (idempotent) and returns the
    /// handle.
    ///
    /// # Errors
    ///
    /// Propagates directory/file-creation failures.
    pub fn init(root: impl Into<PathBuf>) -> Result<Queue, ServeError> {
        let root = root.into();
        for sub in ["specs", "state", "reports", "memo"] {
            let dir = root.join(sub);
            std::fs::create_dir_all(&dir).map_err(ServeError::io(&dir))?;
        }
        let log = root.join("submissions.log");
        if !log.exists() {
            std::fs::write(&log, "").map_err(ServeError::io(&log))?;
        }
        Ok(Queue { root })
    }

    /// Opens an existing queue directory.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Queue`] when `root` lacks the queue layout.
    pub fn open(root: impl Into<PathBuf>) -> Result<Queue, ServeError> {
        let root = root.into();
        if !root.join("submissions.log").is_file() {
            return Err(ServeError::Queue(format!(
                "{} is not a queue directory (run `loas-serve init` first)",
                root.display()
            )));
        }
        Ok(Queue { root })
    }

    /// The queue's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The shared memo-store directory.
    pub fn memo_dir(&self) -> PathBuf {
        self.root.join("memo")
    }

    /// The report directory of campaign `id`.
    pub fn report_dir(&self, id: u64) -> PathBuf {
        self.root.join("reports").join(format!("{id:05}"))
    }

    fn spec_path(&self, id: u64) -> PathBuf {
        self.root.join("specs").join(format!("{id:05}.json"))
    }

    fn state_path(&self, id: u64) -> PathBuf {
        self.root.join("state").join(format!("{id:05}"))
    }

    fn log_path(&self) -> PathBuf {
        self.root.join("submissions.log")
    }

    /// Validates and enqueues a campaign spec, returning its submission
    /// record. The spec text is stored byte-for-byte as submitted.
    ///
    /// # Errors
    ///
    /// Rejects specs that fail to parse or cannot run ([`ServeError::Spec`])
    /// — a broken submission never enters the queue — and propagates I/O
    /// failures.
    pub fn enqueue(&self, spec_text: &str) -> Result<Submission, ServeError> {
        self.commit(spec_text, &spec_io::campaign_from_json(spec_text)?)
    }

    /// Stores `text`, already parsed into `campaign`, as the next
    /// submission.
    pub(crate) fn commit(&self, text: &str, campaign: &Campaign) -> Result<Submission, ServeError> {
        let id = self.submissions()?.last().map_or(1, |s| s.id + 1);

        let spec_path = self.spec_path(id);
        let temp = spec_path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&temp, text).map_err(ServeError::io(&temp))?;
        std::fs::rename(&temp, &spec_path).map_err(ServeError::io(&spec_path))?;
        self.set_state(id, &CampaignState::Queued)?;

        // The log line commits the submission; sanitize the display name so
        // one submission is always one line.
        let name: String = campaign
            .name
            .chars()
            .map(|c| {
                if c == '\t' || c == '\n' || c == '\r' {
                    ' '
                } else {
                    c
                }
            })
            .collect();
        let line = format!("{id}\t{name}\t{}\n", campaign.len());
        let log = self.log_path();
        // A genuine O_APPEND single write: concurrent watch-mode readers
        // see the log grow by whole lines, never truncated mid-rewrite.
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&log)
            .map_err(ServeError::io(&log))?;
        std::io::Write::write_all(&mut file, line.as_bytes()).map_err(ServeError::io(&log))?;
        Ok(Submission {
            id,
            name,
            jobs: campaign.len(),
        })
    }

    /// All submissions, in log (= id) order.
    ///
    /// # Errors
    ///
    /// Propagates log read failures and malformed-log lines.
    pub fn submissions(&self) -> Result<Vec<Submission>, ServeError> {
        let log = self.log_path();
        let text = std::fs::read_to_string(&log).map_err(ServeError::io(&log))?;
        let mut submissions = Vec::new();
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            let mut parts = line.splitn(3, '\t');
            let (id, name, jobs) = (parts.next(), parts.next(), parts.next());
            let parsed = id
                .and_then(|v| v.parse::<u64>().ok())
                .zip(jobs.and_then(|v| v.parse::<usize>().ok()))
                .zip(name);
            let Some(((id, jobs), name)) = parsed else {
                return Err(ServeError::Queue(format!("malformed log line `{line}`")));
            };
            submissions.push(Submission {
                id,
                name: name.to_owned(),
                jobs,
            });
        }
        Ok(submissions)
    }

    /// The stored spec text of campaign `id`.
    ///
    /// # Errors
    ///
    /// Propagates the read failure (unknown ids read as missing files).
    pub fn spec_text(&self, id: u64) -> Result<String, ServeError> {
        let path = self.spec_path(id);
        std::fs::read_to_string(&path).map_err(ServeError::io(&path))
    }

    /// Parses the stored spec of campaign `id` back into a [`Campaign`].
    ///
    /// # Errors
    ///
    /// Propagates read and parse failures.
    pub fn campaign(&self, id: u64) -> Result<Campaign, ServeError> {
        spec_io::campaign_from_json(&self.spec_text(id)?)
    }

    /// The lifecycle state of campaign `id`.
    ///
    /// # Errors
    ///
    /// Propagates read failures; a malformed state file is a queue error.
    pub fn state(&self, id: u64) -> Result<CampaignState, ServeError> {
        let path = self.state_path(id);
        let text = std::fs::read_to_string(&path).map_err(ServeError::io(&path))?;
        let text = text.trim_end();
        match text {
            "queued" => Ok(CampaignState::Queued),
            "done" => Ok(CampaignState::Done),
            _ => match text.strip_prefix("failed ") {
                Some(message) => Ok(CampaignState::Failed(message.to_owned())),
                None => Err(ServeError::Queue(format!(
                    "malformed state `{text}` for campaign {id}"
                ))),
            },
        }
    }

    /// Writes the lifecycle state of campaign `id` (temp + rename, so
    /// concurrent readers never see a torn state).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn set_state(&self, id: u64, state: &CampaignState) -> Result<(), ServeError> {
        let path = self.state_path(id);
        let temp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&temp, format!("{state}\n")).map_err(ServeError::io(&temp))?;
        std::fs::rename(&temp, &path).map_err(ServeError::io(&path))
    }

    /// Whether shard `rank` of campaign `id` has completed (marker file
    /// present).
    pub fn shard_done(&self, id: u64, rank: usize) -> bool {
        self.report_dir(id)
            .join(format!("shard-{rank}.done"))
            .is_file()
    }

    /// Marks shard `rank` of campaign `id` complete.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn mark_shard_done(&self, id: u64, rank: usize, note: &str) -> Result<(), ServeError> {
        let path = self.report_dir(id).join(format!("shard-{rank}.done"));
        std::fs::write(&path, format!("{note}\n")).map_err(ServeError::io(&path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec_io::{campaign_to_json, headline_campaign};

    fn temp_queue(tag: &str) -> Queue {
        let root = std::env::temp_dir().join(format!(
            "loas-serve-queue-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        Queue::init(root).unwrap()
    }

    #[test]
    fn enqueue_assigns_monotonic_ids_and_round_trips_specs() {
        let queue = temp_queue("ids");
        let spec = campaign_to_json(&headline_campaign(true, 7));
        let first = queue.enqueue(&spec).unwrap();
        let second = queue.enqueue(&spec).unwrap();
        assert_eq!((first.id, second.id), (1, 2));
        assert_eq!(first.jobs, 28);
        assert_eq!(queue.submissions().unwrap().len(), 2);
        assert_eq!(queue.spec_text(1).unwrap(), spec);
        assert_eq!(queue.campaign(2).unwrap().len(), 28);
        assert_eq!(queue.state(1).unwrap(), CampaignState::Queued);
        let _ = std::fs::remove_dir_all(queue.root());
    }

    #[test]
    fn broken_specs_never_enter_the_queue() {
        let queue = temp_queue("broken");
        assert!(queue.enqueue("{not json").is_err());
        assert!(queue
            .enqueue("{\"name\": \"empty\", \"jobs\": []}")
            .is_err());
        assert!(queue.submissions().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(queue.root());
    }

    #[test]
    fn state_transitions_round_trip() {
        let queue = temp_queue("state");
        let spec = campaign_to_json(&headline_campaign(true, 7));
        let id = queue.enqueue(&spec).unwrap().id;
        queue
            .set_state(id, &CampaignState::Failed("engine exploded".to_owned()))
            .unwrap();
        assert_eq!(
            queue.state(id).unwrap(),
            CampaignState::Failed("engine exploded".to_owned())
        );
        queue.set_state(id, &CampaignState::Done).unwrap();
        assert_eq!(queue.state(id).unwrap(), CampaignState::Done);
        assert!(!queue.shard_done(id, 0));
        std::fs::create_dir_all(queue.report_dir(id)).unwrap();
        queue.mark_shard_done(id, 0, "14 jobs").unwrap();
        assert!(queue.shard_done(id, 0));
        let _ = std::fs::remove_dir_all(queue.root());
    }

    #[test]
    fn open_rejects_non_queue_directories() {
        let dir = std::env::temp_dir().join(format!("loas-serve-notaq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(Queue::open(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
