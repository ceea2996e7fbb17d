//! # loas-engine — a deterministic, parallel simulation-campaign runner
//!
//! The LoAS reproduction evaluates accelerator models one `(accelerator,
//! layer)` pair at a time. This crate turns those pairs into **jobs** and
//! batches of them into **campaigns**, executed by a shard-per-worker
//! thread pool with three guarantees:
//!
//! 1. **Determinism** — every job carries an explicit seed and results are
//!    emitted in submission order, so campaign reports (including the
//!    streaming JSON-lines serialization) are byte-identical for any worker
//!    count;
//! 2. **Prepared-layer caching** — workloads are content-keyed
//!    ([`WorkloadKey`]) and each unique workload is generated and
//!    compressed exactly once per engine, however many jobs or campaigns
//!    reference it;
//! 3. **Streaming reports** — a sink observes each [`JobRecord`] as soon as
//!    its prefix of the campaign completes, and [`CampaignOutcome`]
//!    aggregates per-layer results into [`NetworkReport`]s plus a human
//!    summary with measured wall-clock timing.
//!
//! On top of those, [`Engine::run_where`] generalizes execution for the
//! `loas-serve` front end: an optional **job-id selection** runs one shard
//! of a campaign (records keep their original ids, so shard reports merge
//! byte-identically), and an optional [`ResultStore`] **memoizes results**
//! by `(workload, accelerator)` content hash ([`JobSpec::memo_key`]) so
//! resubmitted campaigns replay cached reports instead of simulating. The
//! on-disk [`MemoStore`] is the durable implementation shared by
//! `loas-serve` and `repro` (`--store`).
//!
//! [`NetworkReport`]: loas_core::NetworkReport
//!
//! # Examples
//!
//! Run a two-accelerator comparison campaign on one small layer:
//!
//! ```
//! use loas_engine::{AcceleratorSpec, Campaign, Engine, WorkloadSpec};
//! use loas_workloads::{LayerShape, SparsityProfile};
//!
//! let profile = SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2)?;
//! let layer = WorkloadSpec::new("demo", LayerShape::new(4, 8, 16, 128), profile);
//! let mut campaign = Campaign::new("demo");
//! let loas = campaign.push_layer(layer.clone(), AcceleratorSpec::loas());
//! let sparten = campaign.push_layer(layer, AcceleratorSpec::sparten());
//!
//! let engine = Engine::new(2);
//! let outcome = engine.run(&campaign)?;
//! let speedup = outcome.layer_report(loas).speedup_over(outcome.layer_report(sparten));
//! assert!(speedup > 1.0);
//! // The same workload key backs both jobs: generated once, shared after.
//! assert_eq!(outcome.workloads_generated, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod cache;
mod executor;
pub(crate) mod memo;
mod report;
mod spec;

pub use cache::{PreparedCache, PreparedCacheStats, DEFAULT_CACHE_CAPACITY};
pub use executor::{default_workers, Engine, EngineError};
pub use memo::{LogCheck, MemoKey, MemoStore, MemoStoreStats, ResultStore};
pub use report::{json_escape, CampaignOutcome, JobRecord};
pub use spec::{AcceleratorSpec, Campaign, JobSpec, WorkloadKey, WorkloadSpec, DEFAULT_SEED};
