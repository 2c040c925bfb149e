//! `motion-chain`: one `explore` chain per job of the paper's
//! motion-detection application (28 tasks) on Epicure with 2000 CLBs,
//! the Fig. 3 case. Evaluations are cheap here, so the runner, the
//! proposals and the infeasible moves weigh the most; the pool and the
//! portfolio barrier are never entered.

use crate::chain::{Chain, SearchTrace};
use crate::check::mapping_matches;
use crate::report::Metrics;
use crate::search::{SearchOut, SearchWorkload, SetupTimes};
use rdse_mapping::{explore, ExploreOptions, Explorer};
use rdse_model::{Architecture, TaskGraph};
use rdse_workloads::{epicure_architecture, motion_detection_app};
use std::time::Instant;

const CLBS: u32 = 2000;
/// Steps per job. Warm-up keeps the default 1200-of-5000 share.
const ITERS: u64 = 60_000;
const WARMUP: u64 = ITERS * 1_200 / 5_000;

#[derive(Default)]
pub struct MotionChain {
    inputs: Option<(TaskGraph, Architecture)>,
}

fn options(seed: u64) -> ExploreOptions {
    ExploreOptions {
        max_iterations: ITERS,
        warmup_iterations: WARMUP,
        seed,
        ..ExploreOptions::default()
    }
}

impl MotionChain {
    fn inputs(&self) -> (&TaskGraph, &Architecture) {
        let (app, arch) = self.inputs.as_ref().expect("setup ran");
        (app, arch)
    }
}

impl SearchWorkload for MotionChain {
    fn setup(&mut self, seed: u64) -> Result<SetupTimes, String> {
        self.inputs = None;
        let t = Instant::now();
        let app = motion_detection_app();
        let arch = epicure_architecture(CLBS);
        let model = t.elapsed();
        let t = Instant::now();
        let chain = Explorer::new(&app, &arch, &options(seed)).map_err(|e| e.to_string())?;
        let explorer = t.elapsed();
        drop(chain);
        self.inputs = Some((app, arch));
        Ok(SetupTimes { model, explorer })
    }

    fn job(&self, seed: u64) -> Result<SearchOut, String> {
        let (app, arch) = self.inputs();
        let out = explore(app, arch, &options(seed)).map_err(|e| e.to_string())?;
        Ok(SearchOut {
            seed,
            steps: out.run.iterations,
            cost: out.evaluation.makespan.value(),
            makespan_bits: out.evaluation.makespan.value().to_bits(),
            mapping: out.mapping,
            arch: None,
        })
    }

    fn traced_job(&self, seed: u64, tr: &mut SearchTrace) -> Result<SearchOut, String> {
        let (app, arch) = self.inputs();
        let mut chain = Chain::new(app, arch, &options(seed), None).map_err(|e| e.to_string())?;
        chain.run_segment(u64::MAX);
        let end = chain.finish();
        tr.add_chain(&end);
        Ok(SearchOut {
            seed,
            steps: end.run.iterations,
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

    fn fill_layers(&self, tr: &SearchTrace, m: &mut Metrics) {
        tr.fill(m);
    }
}
