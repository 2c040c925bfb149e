//! Step-throughput microbench of the incremental evaluation engine.
//!
//! Compares annealing steps/second on the fig3 workload (motion
//! detection × EPICURE at 2 000 CLBs) between:
//!
//! * **incremental** — the production [`MappingProblem`]: in-place
//!   moves, arena-backed [`Evaluator`] scoring, O(touched) delta undo;
//! * **legacy_clone** — a faithful reimplementation of the
//!   pre-refactor engine: every `try_move` clones the full `Mapping` +
//!   `Evaluation` and re-scores through the from-scratch
//!   [`evaluate`], every `undo` restores the clones.
//!
//! Both engines walk the *same* RNG stream and produce bit-identical
//! best costs (asserted below), so the ratio is a pure engine-overhead
//! measurement.
//!
//! A third row, **arch_explore/motion**, times the architecture
//! co-exploration (m3/m4 resource moves on top of the mapping moves)
//! on motion from an over-provisioned single-FPGA platform with a
//! three-FPGA catalog, the 40 ms deadline and the default budget — the
//! setup of `examples/architecture_exploration.rs`. Results append to `RDSE_BENCH_JSON` (NDJSON) next to
//! the criterion records, with an explicit `steps_per_sec` field that
//! CI surfaces in the job log.
//!
//! Knobs: `RDSE_BENCH_STEPS` overrides the measured step count.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rdse_anneal::{Annealer, LamSchedule, Problem, RunOptions};
use rdse_mapping::moves::{propose_impl_move, propose_pair_move, MoveScratch};
use rdse_mapping::{
    evaluate, explore_architecture, random_initial, ArchExploreOptions, Evaluation, ExploreOptions,
    Explorer, Mapping, MappingError, Objective, ResourceCatalog,
};
use rdse_model::units::{Clbs, Micros};
use rdse_model::{Architecture, DrlcSpec, ProcessorSpec, TaskGraph};
use rdse_workloads::{epicure_architecture, motion_detection_app, MOTION_DEADLINE};
use std::io::Write as _;
use std::time::Instant;

/// The pre-refactor clone-everything problem, kept verbatim as the
/// benchmark baseline.
struct LegacyProblem<'a> {
    app: &'a TaskGraph,
    arch: &'a Architecture,
    mapping: Mapping,
    current: Evaluation,
    scratch: MoveScratch,
}

impl<'a> LegacyProblem<'a> {
    fn new(
        app: &'a TaskGraph,
        arch: &'a Architecture,
        mapping: Mapping,
    ) -> Result<Self, MappingError> {
        let current = evaluate(app, arch, &mapping)?;
        Ok(LegacyProblem {
            app,
            arch,
            mapping,
            current,
            scratch: MoveScratch::default(),
        })
    }
}

impl Problem for LegacyProblem<'_> {
    type Move = (Mapping, Evaluation);
    type Snapshot = (Mapping, Evaluation);
    type Cost = f64;

    fn cost(&self) -> f64 {
        self.current.makespan.value()
    }

    fn n_move_classes(&self) -> usize {
        2
    }

    fn try_move(&mut self, rng: &mut dyn RngCore, class: usize) -> Option<(Self::Move, f64)> {
        let prev = (self.mapping.clone(), self.current.clone());
        let outcome = match class {
            0 => propose_pair_move(
                self.app,
                self.arch,
                &mut self.mapping,
                rng,
                &mut self.scratch,
            ),
            _ => propose_impl_move(
                self.app,
                self.arch,
                &mut self.mapping,
                rng,
                &mut self.scratch,
            ),
        };
        if outcome.is_none() {
            self.mapping = prev.0;
            self.current = prev.1;
            return None;
        }
        match evaluate(self.app, self.arch, &self.mapping) {
            Ok(eval) => {
                self.current = eval;
                let cost = self.cost();
                Some((prev, cost))
            }
            Err(_) => {
                self.mapping = prev.0;
                self.current = prev.1;
                None
            }
        }
    }

    fn undo(&mut self, mv: Self::Move) {
        self.mapping = mv.0;
        self.current = mv.1;
    }

    fn snapshot(&self) -> Self::Snapshot {
        (self.mapping.clone(), self.current.clone())
    }

    fn restore(&mut self, snapshot: &Self::Snapshot) {
        self.mapping = snapshot.0.clone();
        self.current = snapshot.1.clone();
    }
}

/// Builds a legacy annealer wired exactly as `Explorer::new` wires the
/// incremental one (same initial solution, same RNG stream, same
/// schedule), so both engines take identical walks.
fn legacy_annealer<'a>(
    app: &'a TaskGraph,
    arch: &'a Architecture,
    opts: &ExploreOptions,
) -> Annealer<LegacyProblem<'a>, LamSchedule> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let initial = random_initial(app, arch, &mut rng);
    let problem = LegacyProblem::new(app, arch, initial).expect("feasible initial solution");
    Annealer::new(
        problem,
        LamSchedule::new(opts.lambda),
        RunOptions {
            max_iterations: opts.max_iterations,
            warmup_iterations: opts.warmup_iterations,
            seed: opts.seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
            adaptive_moves: opts.adaptive_moves,
            ..RunOptions::default()
        },
    )
}

fn opts(steps: u64) -> ExploreOptions {
    ExploreOptions {
        max_iterations: steps,
        warmup_iterations: steps / 20,
        seed: 1,
        objective: Objective::MinimizeMakespan,
        ..ExploreOptions::default()
    }
}

/// Steps per second of `explore_architecture` on motion: one warm-up
/// job, then `jobs` timed jobs of the default 20 000 steps.
fn arch_explore_rate(app: &TaskGraph, jobs: u64) -> (u64, std::time::Duration) {
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
        .expect("valid architecture");
    let opts = |seed| ArchExploreOptions {
        seed,
        deadline: MOTION_DEADLINE,
        ..ArchExploreOptions::default()
    };
    explore_architecture(app, initial.clone(), &catalog, &opts(0)).expect("motion explores");
    let start = Instant::now();
    for seed in 1..=jobs {
        explore_architecture(app, initial.clone(), &catalog, &opts(seed)).expect("motion explores");
    }
    (jobs * opts(0).max_iterations, start.elapsed())
}

fn append_record(record: &str) {
    let Ok(path) = std::env::var("RDSE_BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut file| writeln!(file, "{record}"));
    if let Err(e) = written {
        eprintln!("warning: cannot append bench record: {e}");
    }
}

fn main() {
    let app = motion_detection_app();
    let arch = epicure_architecture(2000);
    let steps: u64 = std::env::var("RDSE_BENCH_STEPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);

    // Parity: at an equal (small) budget the two engines are
    // bit-identical — the refactor changed the cost of a step, not the
    // walk.
    let parity = opts(10_000);
    let mut incremental = Explorer::new(&app, &arch, &parity).expect("explores");
    incremental.run_segment(u64::MAX);
    let mut legacy = legacy_annealer(&app, &arch, &parity);
    legacy.run_segment(u64::MAX);
    assert_eq!(
        incremental.best_cost().to_bits(),
        legacy.best_cost().to_bits(),
        "legacy and incremental engines diverged"
    );

    // Throughput: one warm-up run each, then one timed run.
    let run_incremental = |steps: u64| {
        let mut chain = Explorer::new(&app, &arch, &opts(steps)).expect("explores");
        let start = Instant::now();
        chain.run_segment(u64::MAX);
        (chain.iterations(), start.elapsed())
    };
    // The legacy engine is several times slower; a quarter of the
    // budget keeps bench wall-clock in check without hurting the
    // steps/sec estimate.
    let legacy_steps = (steps / 4).max(1_000);
    let run_legacy = |steps: u64| {
        let mut annealer = legacy_annealer(&app, &arch, &opts(steps));
        let start = Instant::now();
        annealer.run_segment(u64::MAX);
        (annealer.iterations(), start.elapsed())
    };

    run_incremental(steps.min(20_000));
    let (inc_steps, inc_time) = run_incremental(steps);
    run_legacy(legacy_steps.min(5_000));
    let (leg_steps, leg_time) = run_legacy(legacy_steps);

    let inc_rate = inc_steps as f64 / inc_time.as_secs_f64();
    let leg_rate = leg_steps as f64 / leg_time.as_secs_f64();
    let speedup = inc_rate / leg_rate;

    println!(
        "bench anneal_steps/incremental  {inc_rate:>12.0} steps/s ({inc_steps} steps in {inc_time:?})"
    );
    println!(
        "bench anneal_steps/legacy_clone {leg_rate:>12.0} steps/s ({leg_steps} steps in {leg_time:?})"
    );
    println!("bench anneal_steps/speedup      {speedup:>12.2}x");

    // Five jobs of 20 000 steps: the default 100 000-step budget.
    let (arch_steps, arch_time) = arch_explore_rate(&app, (steps / 20_000).max(1));
    let arch_rate = arch_steps as f64 / arch_time.as_secs_f64();
    println!(
        "bench arch_explore/motion       {arch_rate:>12.0} steps/s ({arch_steps} steps in {arch_time:?})"
    );

    append_record(&format!(
        "{{\"name\":\"anneal_steps/incremental\",\"steps_per_sec\":{inc_rate:.0},\
         \"steps\":{inc_steps},\"seconds\":{:.6}}}",
        inc_time.as_secs_f64()
    ));
    append_record(&format!(
        "{{\"name\":\"anneal_steps/legacy_clone\",\"steps_per_sec\":{leg_rate:.0},\
         \"steps\":{leg_steps},\"seconds\":{:.6}}}",
        leg_time.as_secs_f64()
    ));
    append_record(&format!(
        "{{\"name\":\"anneal_steps/speedup\",\"ratio\":{speedup:.3}}}"
    ));
    append_record(&format!(
        "{{\"name\":\"arch_explore/motion\",\"steps_per_sec\":{arch_rate:.0},\
         \"steps\":{arch_steps},\"seconds\":{:.6}}}",
        arch_time.as_secs_f64()
    ));
}
