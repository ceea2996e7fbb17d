//! # loas-bench — the experiment harness regenerating every table and
//! figure of the paper's evaluation
//!
//! Each module under [`experiments`] regenerates one table or figure
//! (workload generation, parameter sweep, baselines, and row formatting);
//! [`experiments::reference`] keeps the paper's published values alongside
//! for `paper vs measured` comparison. The sweep-style experiments build
//! [`loas_engine::Campaign`]s and execute them on the [`Context`]'s shared
//! engine, so workload preparation is cached across experiments and
//! simulation jobs shard across worker threads. The `repro` binary drives
//! them:
//!
//! ```text
//! cargo run --release -p loas-bench --bin repro -- all
//! cargo run --release -p loas-bench --bin repro -- fig12 fig13
//! cargo run --release -p loas-bench --bin repro -- --quick --workers 8 all
//! ```

#![warn(missing_docs)]

pub mod context;
pub mod experiments;
pub mod report;

pub use context::{Context, Design};
pub use report::Table;
