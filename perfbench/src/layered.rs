//! `layered-portfolio`: `explore_parallel` with 4 chains on 2 threads at
//! the default exchange period, on a 200-task layered DAG over Epicure
//! with 4000 CLBs. Repair cones are large and many repairs fall back to
//! a full pass, so the evaluator carries most of the weight; frequent
//! barriers make the portfolio exchange and the pool dispatch show.

use crate::chain::{traced_portfolio, SearchTrace};
use crate::check::{mapping_matches, same_bits, Tally};
use crate::report::Metrics;
use crate::search::{SearchOut, SearchWorkload, SetupTimes};
use rdse_mapping::{chain_seed, explore_parallel, ExploreOptions, Explorer, ParallelOptions};
use rdse_model::{Architecture, TaskGraph};
use rdse_workloads::{epicure_architecture, layered_dag, LayeredDagConfig};
use std::time::Instant;

const DAG: LayeredDagConfig = LayeredDagConfig {
    layers: 20,
    width: 10,
    edge_percent: 30,
    hw_percent: 60,
};
const CLBS: u32 = 4000;
const CHAINS: usize = 4;
const THREADS: usize = 2;
/// `ParallelOptions::default().exchange_every`.
const EXCHANGE_EVERY: u64 = 500;
/// Total steps per job across the chains; warm-up keeps the default
/// 1200-of-5000 share.
const ITERS: u64 = 32_000;
const WARMUP: u64 = ITERS * 1_200 / 5_000;

#[derive(Default)]
pub struct LayeredPortfolio {
    inputs: Option<(TaskGraph, Architecture)>,
}

fn options(seed: u64, threads: usize) -> ParallelOptions {
    ParallelOptions {
        base: ExploreOptions {
            max_iterations: ITERS,
            warmup_iterations: WARMUP,
            seed,
            ..ExploreOptions::default()
        },
        chains: CHAINS,
        threads,
        exchange_every: EXCHANGE_EVERY,
        ..ParallelOptions::default()
    }
}

impl LayeredPortfolio {
    fn inputs(&self) -> (&TaskGraph, &Architecture) {
        let (app, arch) = self.inputs.as_ref().expect("setup ran");
        (app, arch)
    }

    fn run(&self, seed: u64, threads: usize) -> Result<SearchOut, String> {
        let (app, arch) = self.inputs();
        let out =
            explore_parallel(app, arch, &options(seed, threads)).map_err(|e| e.to_string())?;
        Ok(SearchOut {
            seed,
            steps: out.chains.iter().map(|c| c.run.iterations).sum(),
            cost: out.evaluation.makespan.value(),
            makespan_bits: out.evaluation.makespan.value().to_bits(),
            mapping: out.mapping,
            arch: None,
        })
    }
}

impl SearchWorkload for LayeredPortfolio {
    fn setup(&mut self, seed: u64) -> Result<SetupTimes, String> {
        self.inputs = None;
        let t = Instant::now();
        let app = layered_dag(&DAG, seed);
        let arch = epicure_architecture(CLBS);
        let model = t.elapsed();
        let t = Instant::now();
        let opts = options(seed, THREADS);
        let mut chains = Vec::with_capacity(CHAINS);
        for c in 0..CHAINS {
            let chain_opts = ExploreOptions {
                seed: chain_seed(seed, c),
                ..opts.base.clone()
            };
            chains.push(Explorer::new(&app, &arch, &chain_opts).map_err(|e| e.to_string())?);
        }
        let explorer = t.elapsed();
        drop(chains);
        self.inputs = Some((app, arch));
        Ok(SetupTimes { model, explorer })
    }

    fn job(&self, seed: u64) -> Result<SearchOut, String> {
        self.run(seed, THREADS)
    }

    fn traced_job(&self, seed: u64, tr: &mut SearchTrace) -> Result<SearchOut, String> {
        let (app, arch) = self.inputs();
        let end =
            traced_portfolio(app, arch, &options(seed, THREADS), tr).map_err(|e| e.to_string())?;
        Ok(SearchOut {
            seed,
            steps: end.steps,
            cost: end.evaluation.makespan.value(),
            makespan_bits: end.evaluation.makespan.value().to_bits(),
            mapping: end.mapping,
            arch: None,
        })
    }

    fn check(&self, out: &SearchOut) -> Result<(), String> {
        let (app, arch) = self.inputs();
        mapping_matches(app, arch, &out.mapping, out.makespan_bits)
    }

    /// The portfolio's result must not depend on the thread count.
    fn extra_checks(&self, first: &SearchOut, tally: &mut Tally) {
        let verdict = self.run(first.seed, 1).and_then(|one| {
            same_bits(
                "makespan at 1 vs 2 threads",
                one.makespan_bits,
                first.makespan_bits,
            )?;
            if one.mapping == first.mapping {
                Ok(())
            } else {
                Err("mappings differ at 1 vs 2 threads".into())
            }
        });
        tally.record("thread-count invariance", verdict);
    }

    fn fill_layers(&self, tr: &SearchTrace, m: &mut Metrics) {
        tr.fill(m);
    }
}
