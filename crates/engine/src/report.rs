//! Campaign results: per-job records, streaming serialization (JSON lines),
//! network-level aggregation, and the human summary table.
//!
//! Serialized job records are **deterministic**: they contain only fields
//! derived from the simulation itself, never wall-clock measurements, so a
//! campaign run with one worker and with N workers produces byte-identical
//! report streams. Timing lives in the [`CampaignOutcome`] summary instead.

use loas_core::LayerReport;
use loas_sim::TrafficClass;
use std::fmt::Write as _;

/// One completed job: the simulated [`LayerReport`] plus the campaign
/// bookkeeping needed to aggregate and serialize it.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job id (index in campaign submission order).
    pub job: usize,
    /// Human-readable job label.
    pub label: String,
    /// Owning network, if any.
    pub network: Option<String>,
    /// Layer position inside the owning network.
    pub layer_index: usize,
    /// The simulation result.
    pub report: LayerReport,
    /// Wall-clock seconds this job's simulation took (excluded from
    /// serialized records to keep them deterministic).
    pub sim_seconds: f64,
}

/// Escapes a string for embedding in the report streams' JSON (and in any
/// generated spec JSON — `loas-serve` shares this helper so both sides of
/// a byte-identity comparison escape identically).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl JobRecord {
    /// Serializes the deterministic portion of this record as one JSON
    /// object (no trailing newline). Key order is fixed.
    pub fn to_json(&self) -> String {
        let stats = &self.report.stats;
        let energy = &self.report.energy;
        let mut line = String::with_capacity(256);
        let _ = write!(
            line,
            "{{\"job\":{},\"label\":\"{}\",",
            self.job,
            json_escape(&self.label)
        );
        match &self.network {
            Some(network) => {
                let _ = write!(
                    line,
                    "\"network\":\"{}\",\"layer_index\":{},",
                    json_escape(network),
                    self.layer_index
                );
            }
            None => line.push_str("\"network\":null,\"layer_index\":0,"),
        }
        let _ = write!(
            line,
            "\"workload\":\"{}\",\"accelerator\":\"{}\",",
            json_escape(&self.report.workload),
            json_escape(&self.report.accelerator)
        );
        let _ = write!(
            line,
            "\"cycles\":{},\"stall_cycles\":{},",
            stats.cycles.get(),
            stats.stall_cycles.get()
        );
        let _ = write!(
            line,
            "\"dram_bytes\":{},\"sram_bytes\":{},\"cache_miss_rate\":{},",
            stats.dram.total(),
            stats.sram.total(),
            stats.cache.miss_rate()
        );
        let _ = write!(
            line,
            "\"dram_by_class\":{{\"weight\":{},\"input\":{},\"psum\":{},\"output\":{},\"format\":{}}},",
            stats.dram.get(TrafficClass::Weight),
            stats.dram.get(TrafficClass::Input),
            stats.dram.get(TrafficClass::Psum),
            stats.dram.get(TrafficClass::Output),
            stats.dram.get(TrafficClass::Format),
        );
        let _ = write!(
            line,
            "\"energy_pj\":{{\"dram\":{},\"sram\":{},\"compute\":{},\"sparsity\":{},\"static\":{},\"total\":{}}}}}",
            energy.dram_pj,
            energy.sram_pj,
            energy.compute_pj,
            energy.sparsity_pj,
            energy.static_pj,
            energy.total_pj()
        );
        line
    }
}

/// The completed campaign: records in job order plus execution metadata.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Campaign name.
    pub campaign: String,
    /// Worker threads used.
    pub workers: usize,
    /// Completed jobs, in submission order.
    pub records: Vec<JobRecord>,
    /// End-to-end wall-clock seconds (preparation + execution).
    pub wall_seconds: f64,
    /// Wall-clock seconds of the workload-preparation phase.
    pub prepare_seconds: f64,
    /// Workloads this campaign's preparation pass generated: its missing
    /// keys, plus the base of each missing fine-tuned key the cache did
    /// not hold.
    pub workloads_generated: usize,
    /// Simulated jobs served without generating: jobs beyond the first
    /// use of each freshly generated key, plus every use of keys cached
    /// by earlier campaigns on the same engine.
    pub cache_hits: usize,
    /// Jobs replayed from the result-memoization store (zero when no store
    /// was supplied).
    pub memo_hits: usize,
    /// Jobs actually simulated this run (`records.len() - memo_hits`).
    pub simulated: usize,
}

impl CampaignOutcome {
    /// The layer report of job `job`.
    ///
    /// # Panics
    ///
    /// Panics if `job` is out of range.
    pub fn layer_report(&self, job: usize) -> &LayerReport {
        &self.records[job].report
    }

    /// The deterministic JSON-lines serialization of all records (one
    /// object per line, trailing newline). Byte-identical across worker
    /// counts for identical campaigns and seeds.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for record in &self.records {
            out.push_str(&record.to_json());
            out.push('\n');
        }
        out
    }

    /// Total simulation seconds summed over jobs (CPU-side work; exceeds
    /// `wall_seconds` when workers overlap).
    pub fn total_sim_seconds(&self) -> f64 {
        self.records.iter().map(|r| r.sim_seconds).sum()
    }

    /// The human-readable campaign summary: per-job table plus execution
    /// and cache statistics (this is where wall-clock timing is reported).
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign `{}`: {} jobs on {} worker{} in {:.3}s wall ({:.3}s preparing workloads, {:.3}s total simulation)",
            self.campaign,
            self.records.len(),
            self.workers,
            if self.workers == 1 { "" } else { "s" },
            self.wall_seconds,
            self.prepare_seconds,
            self.total_sim_seconds(),
        );
        let _ = writeln!(
            out,
            "workload cache: {} generated, {} hits",
            self.workloads_generated, self.cache_hits
        );
        if self.memo_hits > 0 {
            let _ = writeln!(
                out,
                "result memo: {} hits, {} simulated",
                self.memo_hits, self.simulated
            );
        }
        let label_width = self
            .records
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(3)
            .max(5);
        let _ = writeln!(
            out,
            "{:>4}  {:<label_width$}  {:>14}  {:>12}  {:>12}  {:>9}",
            "job", "label", "cycles", "dram KB", "energy uJ", "sim s"
        );
        for record in &self.records {
            let _ = writeln!(
                out,
                "{:>4}  {:<label_width$}  {:>14}  {:>12.1}  {:>12.2}  {:>9.3}",
                record.job,
                record.label,
                record.report.stats.cycles.get(),
                record.report.stats.dram.total_kb(),
                record.report.energy.total_pj() / 1e6,
                record.sim_seconds,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loas_sim::{Cycle, EnergyBreakdown, SimStats};

    fn record(job: usize, network: Option<&str>, layer_index: usize, cycles: u64) -> JobRecord {
        let mut stats = SimStats::new();
        stats.cycles = Cycle(cycles);
        JobRecord {
            job,
            label: format!("job-{job}"),
            network: network.map(str::to_owned),
            layer_index,
            report: LayerReport {
                workload: format!("w{job}"),
                accelerator: "LoAS".to_owned(),
                stats,
                energy: EnergyBreakdown::default(),
                output: None,
            },
            sim_seconds: 0.25,
        }
    }

    fn outcome(records: Vec<JobRecord>) -> CampaignOutcome {
        let simulated = records.len();
        CampaignOutcome {
            campaign: "t".to_owned(),
            workers: 2,
            records,
            wall_seconds: 1.0,
            prepare_seconds: 0.5,
            workloads_generated: 1,
            cache_hits: 3,
            memo_hits: 0,
            simulated,
        }
    }

    #[test]
    fn json_lines_are_deterministic_and_escaped() {
        let mut with_quote = record(0, None, 0, 10);
        with_quote.label = "needs \"escaping\"\n".to_owned();
        let out = outcome(vec![with_quote, record(1, Some("net"), 0, 20)]);
        let jsonl = out.jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("needs \\\"escaping\\\"\\n"));
        assert!(jsonl.contains("\"network\":\"net\""));
        assert!(jsonl.contains("\"cycles\":10"));
        // Timing never leaks into the deterministic stream.
        assert!(!jsonl.contains("sim_seconds"));
        assert!(!jsonl.contains("0.25"));
    }

    #[test]
    fn summary_reports_walltime_and_cache() {
        let out = outcome(vec![record(0, None, 0, 10)]);
        let summary = out.summary_table();
        assert!(summary.contains("1 jobs on 2 workers"));
        assert!(summary.contains("1 generated, 3 hits"));
        assert!(summary.contains("cycles"));
    }
}
