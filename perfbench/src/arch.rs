//! `arch-motion`: `explore_architecture` on the motion application,
//! starting from an over-provisioned single-FPGA platform with the
//! three-FPGA catalog of `examples/architecture_exploration.rs` and the
//! 40 ms deadline. The only workload with the m3/m4 resource moves and
//! the from-scratch evaluation on every step; it never touches the
//! incremental evaluator, the portfolio or the pool.

use crate::chain::SearchTrace;
use crate::check::mapping_matches;
use crate::report::Metrics;
use crate::search::{SearchOut, SearchWorkload, SetupTimes};
use crate::trace::Timed;
use rdse_anneal::{Annealer, LamSchedule, RunOptions};
use rdse_mapping::{explore_architecture, ArchExploreOptions, ArchProblem, ResourceCatalog};
use rdse_model::units::{Clbs, Micros};
use rdse_model::{Architecture, DrlcSpec, ProcessorSpec, TaskGraph};
use rdse_workloads::{motion_detection_app, MOTION_DEADLINE};
use std::time::Instant;

/// `ArchExploreOptions::default()` budget: 20 000 steps, 2 000 warm-up.
fn options(seed: u64) -> ArchExploreOptions {
    ArchExploreOptions {
        seed,
        deadline: MOTION_DEADLINE,
        ..ArchExploreOptions::default()
    }
}

struct Inputs {
    app: TaskGraph,
    initial: Architecture,
    catalog: ResourceCatalog,
}

#[derive(Default)]
pub struct ArchMotion {
    inputs: Option<Inputs>,
}

fn inputs() -> Result<Inputs, String> {
    let catalog = ResourceCatalog {
        processors: vec![ProcessorSpec::new("arm922", 10.0)],
        drlcs: vec![
            DrlcSpec::new("virtex-500", Clbs::new(500), Micros::new(22.5), 12.0),
            DrlcSpec::new("virtex-1000", Clbs::new(1000), Micros::new(22.5), 20.0),
            DrlcSpec::new("virtex-2000", Clbs::new(2000), Micros::new(22.5), 35.0),
        ],
        asics: vec![],
    };
    let initial = Architecture::builder("over-provisioned")
        .processor("arm922", 10.0)
        .drlc("virtex-2000", Clbs::new(2000), Micros::new(22.5), 35.0)
        .bus_rate(25.0)
        .build()
        .map_err(|e| e.to_string())?;
    Ok(Inputs {
        app: motion_detection_app(),
        initial,
        catalog,
    })
}

impl ArchMotion {
    fn inputs(&self) -> &Inputs {
        self.inputs.as_ref().expect("setup ran")
    }
}

impl SearchWorkload for ArchMotion {
    fn setup(&mut self, seed: u64) -> Result<SetupTimes, String> {
        self.inputs = None;
        let t = Instant::now();
        let i = inputs()?;
        let model = t.elapsed();
        let t = Instant::now();
        let problem = ArchProblem::new(&i.app, i.initial.clone(), &i.catalog, options(seed))
            .map_err(|e| e.to_string())?;
        let explorer = t.elapsed();
        drop(problem);
        self.inputs = Some(i);
        Ok(SetupTimes { model, explorer })
    }

    fn job(&self, seed: u64) -> Result<SearchOut, String> {
        let i = self.inputs();
        let opts = options(seed);
        let out = explore_architecture(&i.app, i.initial.clone(), &i.catalog, &opts)
            .map_err(|e| e.to_string())?;
        Ok(SearchOut {
            seed,
            // No stop rule is set, so the run takes its whole budget;
            // the traced run counts the steps and must agree.
            steps: opts.max_iterations,
            cost: out.cost,
            makespan_bits: out.evaluation.makespan.value().to_bits(),
            mapping: out.mapping,
            arch: Some(out.architecture),
        })
    }

    /// `explore_architecture` with the problem behind the timing wrapper.
    fn traced_job(&self, seed: u64, tr: &mut SearchTrace) -> Result<SearchOut, String> {
        let i = self.inputs();
        let opts = options(seed);
        let problem = ArchProblem::new(&i.app, i.initial.clone(), &i.catalog, opts.clone())
            .map_err(|e| e.to_string())?;
        let mut annealer = Annealer::new(
            Timed::new(problem),
            LamSchedule::new(opts.lambda),
            RunOptions {
                max_iterations: opts.max_iterations,
                warmup_iterations: opts.warmup_iterations,
                seed: opts.seed,
                ..RunOptions::default()
            },
        );
        annealer.track_front();
        let t = Instant::now();
        annealer.run_segment(u64::MAX);
        tr.run_ns += t.elapsed().as_nanos() as u64;
        let (problem, _schedule, run) = annealer.finish();
        tr.clock.merge(&problem.clock);
        tr.steps += run.iterations;
        tr.accepted += run.accepted;
        let front = run.front.expect("front tracking is on");
        let out = problem.inner.into_outcome(front);
        Ok(SearchOut {
            seed,
            steps: run.iterations,
            cost: out.cost,
            makespan_bits: out.evaluation.makespan.value().to_bits(),
            mapping: out.mapping,
            arch: Some(out.architecture),
        })
    }

    fn check(&self, out: &SearchOut) -> Result<(), String> {
        let arch = out.arch.as_ref().expect("architecture searches return one");
        mapping_matches(&self.inputs().app, arch, &out.mapping, out.makespan_bits)
    }

    fn fill_layers(&self, tr: &SearchTrace, m: &mut Metrics) {
        tr.fill_anneal(m);
        m.set("arch.try_move_ns", tr.clock.try_move.mean_ns());
        m.set("arch.undo_ns", tr.clock.undo.mean_ns());
        m.set("arch.steps", tr.steps as f64);
    }
}
