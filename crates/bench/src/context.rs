//! Shared experiment context: an embedded [`loas_engine::Engine`] whose
//! prepared-layer cache and worker pool are shared by every experiment, so
//! the repro harness generates each workload exactly once and shards
//! simulation jobs across threads.

use loas_core::{NetworkReport, PreparedLayer};
use loas_engine::{AcceleratorSpec, Campaign, CampaignOutcome, Engine, ResultStore, WorkloadSpec};
use loas_workloads::networks::{LayerSpec, NetworkSpec};
use loas_workloads::WorkloadGenerator;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The accelerators compared in Figs. 12-14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// SparTen-SNN (IP baseline).
    SparTen,
    /// GoSPA-SNN (OP baseline).
    Gospa,
    /// Gamma-SNN (Gustavson baseline).
    Gamma,
    /// LoAS without preprocessing.
    Loas,
    /// LoAS with fine-tuned preprocessing (masked workload + discard mode).
    LoasFt,
    /// PTB (dense, partially temporal parallel).
    Ptb,
    /// Stellar (dense, FS neurons).
    Stellar,
}

impl Design {
    /// The Fig. 12/13 comparison set.
    pub const SPMSPM_SET: [Design; 5] = [
        Design::SparTen,
        Design::Gospa,
        Design::Gamma,
        Design::Loas,
        Design::LoasFt,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Design::SparTen => "SparTen-SNN",
            Design::Gospa => "GoSPA-SNN",
            Design::Gamma => "Gamma-SNN",
            Design::Loas => "LoAS",
            Design::LoasFt => "LoAS(FT)",
            Design::Ptb => "PTB",
            Design::Stellar => "Stellar",
        }
    }

    /// The engine-level accelerator spec this design runs as.
    pub fn accelerator_spec(self) -> AcceleratorSpec {
        match self {
            Design::SparTen => AcceleratorSpec::sparten(),
            Design::Gospa => AcceleratorSpec::gospa(),
            Design::Gamma => AcceleratorSpec::gamma(),
            Design::Loas => AcceleratorSpec::loas(),
            Design::LoasFt => AcceleratorSpec::loas_ft(),
            Design::Ptb => AcceleratorSpec::ptb(),
            Design::Stellar => AcceleratorSpec::stellar(),
        }
    }
}

/// Campaign-backed experiment context. Workload generation, preparation,
/// and network simulation all run through one [`Engine`], whose cache spans
/// every experiment of a repro session.
pub struct Context {
    generator: WorkloadGenerator,
    engine: Engine,
    reports: HashMap<(String, Design), NetworkReport>,
    /// Scale factor applied to layer `M`/`N` for quick (CI) runs.
    quick: bool,
    /// Optional durable result store: campaign jobs whose
    /// `(workload, accelerator)` content hash is already memoized replay
    /// without simulating.
    store: Option<Arc<dyn ResultStore + Send + Sync>>,
    memo_hits: AtomicUsize,
    simulated: AtomicUsize,
}

impl Context {
    /// A full-fidelity context with the default worker count.
    pub fn full() -> Self {
        Context::with_workers(false, loas_engine::default_workers())
    }

    /// A reduced context for tests: layer `M` and `N` are shrunk (sparsity
    /// statistics and model behaviour are scale-free).
    pub fn quick() -> Self {
        Context::with_workers(true, loas_engine::default_workers())
    }

    /// A context with an explicit worker count.
    pub fn with_workers(quick: bool, workers: usize) -> Self {
        Context {
            generator: WorkloadGenerator::default(),
            engine: Engine::new(workers),
            reports: HashMap::new(),
            quick,
            store: None,
            memo_hits: AtomicUsize::new(0),
            simulated: AtomicUsize::new(0),
        }
    }

    /// Attaches a durable result store: every subsequent campaign consults
    /// it before simulating and persists fresh results through it, so a
    /// repeated figure reproduction against a warm store skips simulation
    /// entirely.
    pub fn set_result_store(&mut self, store: Arc<dyn ResultStore + Send + Sync>) {
        self.store = Some(store);
    }

    /// `(memo hits, simulated)` job totals across every campaign this
    /// context has run.
    pub fn memo_totals(&self) -> (usize, usize) {
        (
            self.memo_hits.load(Ordering::Relaxed),
            self.simulated.load(Ordering::Relaxed),
        )
    }

    /// Whether this context shrinks workloads.
    pub fn is_quick(&self) -> bool {
        self.quick
    }

    /// The seeded generator.
    pub fn generator(&self) -> &WorkloadGenerator {
        &self.generator
    }

    /// The embedded campaign engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Shrinks a layer spec in quick mode (identity at full fidelity).
    pub fn shrink_layer(&self, spec: &LayerSpec) -> LayerSpec {
        if self.quick {
            spec.shrunk_for_quick()
        } else {
            spec.clone()
        }
    }

    fn shrink(&self, spec: &NetworkSpec) -> NetworkSpec {
        let mut shrunk = spec.clone();
        shrunk.layers = spec.layers.iter().map(|l| self.shrink_layer(l)).collect();
        shrunk
    }

    /// The engine workload spec of a layer (quick shrink + session seed
    /// applied).
    pub fn workload_spec(&self, spec: &LayerSpec) -> WorkloadSpec {
        WorkloadSpec::from_layer(&self.shrink_layer(spec)).with_seed(self.generator.seed())
    }

    /// Runs a campaign on the shared engine (through the result store when
    /// one is attached), panicking on generation failures (experiment
    /// profiles are known-feasible).
    pub fn run_campaign(&self, campaign: &Campaign) -> CampaignOutcome {
        let outcome = self
            .engine
            .run_where(
                campaign,
                None,
                self.store.as_deref().map(|s| s as &dyn ResultStore),
                |_| {},
            )
            .expect("experiment workload profiles are feasible");
        self.memo_hits
            .fetch_add(outcome.memo_hits, Ordering::Relaxed);
        self.simulated
            .fetch_add(outcome.simulated, Ordering::Relaxed);
        outcome
    }

    /// Prepares (once) one layer workload through the engine cache.
    pub fn prepared_layer(&self, spec: &LayerSpec) -> Arc<PreparedLayer> {
        let workload = self.workload_spec(spec);
        self.engine
            .prepare(std::slice::from_ref(&workload))
            .expect("experiment workload profiles are feasible")
            .remove(0)
    }

    /// Generates (once) and returns the prepared layers of a network —
    /// base workloads, not FT-masked.
    pub fn prepared_network(&mut self, spec: &NetworkSpec) -> Vec<Arc<PreparedLayer>> {
        let workloads: Vec<WorkloadSpec> = self
            .shrink(spec)
            .layers
            .iter()
            .map(|l| WorkloadSpec::from_layer(l).with_seed(self.generator.seed()))
            .collect();
        self.engine
            .prepare(&workloads)
            .expect("table-2 profiles are feasible")
    }

    /// Ensures network reports exist for every `(spec, design)` pair,
    /// running all missing pairs as **one sharded campaign** on the engine.
    pub fn prefetch_network_reports(&mut self, specs: &[NetworkSpec], designs: &[Design]) {
        let mut campaign = Campaign::new("network-reports");
        let mut wanted: Vec<((String, Design), std::ops::Range<usize>)> = Vec::new();
        for spec in specs {
            let shrunk = self.shrink(spec);
            for &design in designs {
                let key = (spec.name.clone(), design);
                if self.reports.contains_key(&key) {
                    continue;
                }
                let jobs = campaign.push_network(
                    &shrunk,
                    design.accelerator_spec(),
                    self.generator.seed(),
                );
                wanted.push((key, jobs));
            }
        }
        if campaign.is_empty() {
            return;
        }
        let outcome = self.run_campaign(&campaign);
        for (key, jobs) in wanted {
            let layers = outcome.records[jobs]
                .iter()
                .map(|record| record.report.clone())
                .collect();
            let report = NetworkReport::new(&key.0, key.1.name(), layers);
            self.reports.insert(key, report);
        }
    }

    /// Runs (once) a network on a design and returns the cached report.
    pub fn network_report(&mut self, spec: &NetworkSpec, design: Design) -> NetworkReport {
        self.prefetch_network_reports(std::slice::from_ref(spec), &[design]);
        self.reports[&(spec.name.clone(), design)].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loas_workloads::networks;

    #[test]
    fn quick_context_shrinks_and_caches() {
        let mut ctx = Context::quick();
        let spec = networks::alexnet();
        let first = ctx.prepared_network(&spec);
        assert_eq!(first.len(), 7);
        assert!(first.iter().all(|l| l.shape.m <= 16 && l.shape.n <= 32));
        let generated = ctx.engine().cache_stats().generated;
        let again = ctx.prepared_network(&spec);
        assert_eq!(first.len(), again.len());
        assert_eq!(
            ctx.engine().cache_stats().generated,
            generated,
            "second preparation is served from the engine cache"
        );
    }

    #[test]
    fn reports_cached_per_design() {
        let mut ctx = Context::quick();
        let spec = networks::alexnet();
        let a = ctx.network_report(&spec, Design::Loas);
        let b = ctx.network_report(&spec, Design::Loas);
        assert_eq!(a.total_cycles(), b.total_cycles());
    }

    #[test]
    fn design_names() {
        assert_eq!(Design::SparTen.name(), "SparTen-SNN");
    }

    #[test]
    fn prefetch_runs_missing_pairs_as_one_campaign() {
        let mut ctx = Context::quick();
        let specs = [networks::alexnet()];
        ctx.prefetch_network_reports(&specs, &Design::SPMSPM_SET);
        for design in Design::SPMSPM_SET {
            let report = ctx.network_report(&specs[0], design);
            assert_eq!(report.accelerator, design.name());
            assert_eq!(report.layers.len(), 7);
        }
    }

    #[test]
    fn store_backed_context_replays_repeated_reproductions() {
        let dir = std::env::temp_dir().join(format!("loas-bench-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(loas_engine::MemoStore::open(&dir).unwrap());

        let mut cold = Context::quick();
        cold.set_result_store(store.clone());
        let first = cold.network_report(&networks::alexnet(), Design::Loas);
        let (hits, simulated) = cold.memo_totals();
        assert_eq!(hits, 0);
        assert_eq!(simulated, 7);

        // A fresh context (a new repro session) against the warm store
        // replays every job.
        let mut warm = Context::quick();
        warm.set_result_store(store);
        let second = warm.network_report(&networks::alexnet(), Design::Loas);
        let (hits, simulated) = warm.memo_totals();
        assert_eq!(hits, 7, "warm store replays the whole network");
        assert_eq!(simulated, 0);
        assert_eq!(warm.engine().cache_stats().generated, 0);
        assert_eq!(first.total_cycles(), second.total_cycles());
        assert_eq!(
            first.total_energy().total_pj(),
            second.total_energy().total_pj()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
