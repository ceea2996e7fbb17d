//! # loas-serve — the persistent simulation-serving front end
//!
//! `loas-engine` runs one campaign in one process and forgets everything
//! on exit. This crate makes campaigns **durable, memoized, and
//! distributable** across processes sharing a queue directory:
//!
//! * **Durable job queue** ([`Queue`]) — campaigns are submitted as JSON
//!   specs into an on-disk queue (append-only submission log + per-campaign
//!   spec/state files). A `loas-serve run` process drains it with the
//!   engine, streaming JSON-lines reports; new campaigns can be enqueued
//!   while others run and are picked up in the same pass.
//! * **Result memoization** — every completed job's [`LayerReport`]
//!   persists to the queue's append-only
//!   [`MemoStore`](loas_engine::MemoStore) log, keyed on the
//!   `(workload, accelerator)` content hash. A resubmitted or overlapping
//!   campaign replays cached results **byte-identically** and only
//!   simulates novel jobs; per-campaign `hits/simulated` counts are
//!   reported.
//! * **Cross-process sharding** ([`ShardSpec`], [`merge`]) —
//!   `loas-serve run --shard K/N` deterministically owns the jobs with
//!   `id % N == K`, writes `report.shard-K.jsonl`, and `loas-serve merge`
//!   recombines shards by job id into a report byte-identical to a
//!   single-process run.
//! * **Versioned spec schema** ([`spec_io`]) — specs serialize under
//!   `"version": 2`, where an accelerator is one of the six models of
//!   [`loas_engine::AcceleratorSpec`] (stable name + typed config
//!   overrides); the original v1 schema parses forever with
//!   byte-identical memo keys (golden-asserted in `tests/golden_v1.rs`).
//! * **Queue administration** ([`enqueue_batch`], [`requeue`], [`fsck`]) —
//!   batched submission from a directory or manifest of specs,
//!   failed-campaign requeue (memo-backed, so only unfinished work
//!   re-simulates), and memo-store/report-tree integrity checking with
//!   optional pruning.
//!
//! [`LayerReport`]: loas_core::LayerReport
//!
//! # Examples
//!
//! Enqueue a campaign, run it as two in-process "shards", and merge:
//!
//! ```
//! use loas_serve::{drain, merge, Queue, RunOptions, ShardSpec};
//! use loas_serve::spec_io::{campaign_to_json, headline_campaign};
//!
//! let root = std::env::temp_dir().join(format!("loas-serve-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&root);
//! let queue = Queue::init(&root)?;
//! let id = queue.enqueue(&campaign_to_json(&headline_campaign(true, 7)))?.id;
//! for rank in 0..2 {
//!     let options = RunOptions {
//!         shard: ShardSpec { rank, count: 2 },
//!         workers: 2,
//!         ..RunOptions::default()
//!     };
//!     drain(&queue, &options, |_| {})?;
//! }
//! let jobs = merge(&queue, id, 2)?;
//! assert_eq!(jobs, 28);
//! # let _ = std::fs::remove_dir_all(&root);
//! # Ok::<(), loas_serve::ServeError>(())
//! ```

#![warn(missing_docs)]

mod admin;
mod error;
pub mod json;
mod queue;
mod runner;
mod shard;
pub mod spec_io;

pub use admin::{
    catalog_listing, collect_spec_paths, enqueue_batch, fsck, requeue, FsckReport, ORPHAN_GRACE,
};
pub use error::ServeError;
pub use queue::{CampaignState, Queue, Submission};
pub use runner::{drain, merge, watch, CampaignProgress, RunOptions, RunSummary};
pub use shard::{merge_shards, ShardSpec};
