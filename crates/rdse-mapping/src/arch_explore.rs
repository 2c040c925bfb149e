//! Architecture exploration — the m3/m4 moves of §4.2.
//!
//! "Moves m3 and m4 would allow the exploration of the system
//! architecture if it were not fixed a priori": drawing the sentinel
//! index 0 for the source requests *resource removal* (m3 — a resource
//! hosting a single task is deleted and its task reassigned), drawing 0
//! for the destination requests *resource creation* (m4 — a new
//! processor, ASIC or DRLC is added and the source task assigned to
//! it). The paper's experiments set the probability of 0 to zero; this
//! module implements the general method of \[11\], where the objective is
//! the system **cost** under a performance constraint.
//!
//! New resources are drawn from a [`ResourceCatalog`] (the component
//! library a system architect would select from); each catalog entry
//! carries the cost used by the objective.
//!
//! Like [`MappingProblem`](crate::MappingProblem), the walk runs on the
//! incremental [`Evaluator`]: mapping moves are delta-scored and undone
//! by their [`MoveDelta`]; a resource move saves the pre-move pair,
//! [`retarget`](Evaluator::retarget)s the evaluator and runs one full
//! pass, and its undo puts the pair back and retargets again.

use crate::error::MappingError;
use crate::eval::{evaluate, EvalSummary, Evaluation};
use crate::evaluator::Evaluator;
use crate::init::random_initial;
use crate::moves::{propose_impl_move, propose_pair_move, MoveDelta, MoveScratch};
use crate::placement::Placement;
use crate::solution::Mapping;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rdse_anneal::{Annealer, Cost, LamSchedule, ParetoFront, Problem, RunOptions};
use rdse_model::units::Micros;
use rdse_model::{
    Architecture, ArchitectureBuilder, AsicSpec, DrlcSpec, ProcessorSpec, TaskGraph, TaskId,
};

/// The cost vector of an architecture × mapping pair: system cost
/// (component prices) against schedule latency — the trade-off the
/// general method of \[11\] explores.
///
/// The third, hidden component is the deadline-penalized scalar the
/// annealer walks on ([`Cost::scalar`]); the Pareto axes are the two
/// visible objectives only, so the recorded front is the cost/
/// performance curve a system architect actually reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchCost {
    /// Total component cost of the architecture.
    pub system_cost: f64,
    /// Makespan of the mapping on it (µs).
    pub makespan: f64,
    /// The penalized scalar objective (cost + deadline penalty +
    /// makespan tie-breaker) — what acceptance minimizes.
    penalized: f64,
}

impl ArchCost {
    /// The penalized scalar the annealer minimizes.
    pub fn penalized(&self) -> f64 {
        self.penalized
    }
}

impl Cost for ArchCost {
    fn n_objectives(&self) -> usize {
        2
    }

    fn objective(&self, i: usize) -> f64 {
        match i {
            0 => self.system_cost,
            1 => self.makespan,
            _ => panic!("ArchCost has 2 objectives, asked for {i}"),
        }
    }

    fn scalar(&self) -> f64 {
        self.penalized
    }
}

/// The component library available to m4 resource-creation moves.
#[derive(Debug, Clone, Default)]
pub struct ResourceCatalog {
    /// Processors that may be instantiated.
    pub processors: Vec<ProcessorSpec>,
    /// Reconfigurable devices that may be instantiated.
    pub drlcs: Vec<DrlcSpec>,
    /// Dedicated circuits that may be instantiated.
    pub asics: Vec<AsicSpec>,
}

/// Options for a cost-driven architecture exploration.
#[derive(Debug, Clone)]
pub struct ArchExploreOptions {
    /// Iteration budget.
    pub max_iterations: u64,
    /// Warm-up iterations at infinite temperature.
    pub warmup_iterations: u64,
    /// Lam quality factor.
    pub lambda: f64,
    /// RNG seed.
    pub seed: u64,
    /// The performance constraint.
    pub deadline: Micros,
    /// Cost units charged per microsecond of deadline violation (keep
    /// large: feasibility first).
    pub penalty_per_micro: f64,
    /// Weight of the raw makespan in the cost (small tie-breaker so
    /// faster solutions win among equal-cost architectures).
    pub makespan_weight: f64,
}

impl Default for ArchExploreOptions {
    fn default() -> Self {
        ArchExploreOptions {
            max_iterations: 20_000,
            warmup_iterations: 2_000,
            lambda: 0.5,
            seed: 0,
            deadline: Micros::new(f64::INFINITY),
            penalty_per_micro: 10.0,
            makespan_weight: 1e-6,
        }
    }
}

/// Outcome of an architecture exploration.
#[derive(Debug, Clone)]
pub struct ArchExploreOutcome {
    /// The selected architecture.
    pub architecture: Architecture,
    /// The mapping on that architecture.
    pub mapping: Mapping,
    /// Its evaluation.
    pub evaluation: Evaluation,
    /// Final objective value.
    pub cost: f64,
    /// Pareto front over (system cost, makespan) of every architecture
    /// × mapping state the walk accepted — the cost/performance curve
    /// of the co-exploration.
    pub front: ParetoFront<ArchCost>,
}

/// The co-exploration problem: architecture × mapping.
#[derive(Debug, Clone)]
pub struct ArchProblem<'a> {
    app: &'a TaskGraph,
    catalog: &'a ResourceCatalog,
    arch: Architecture,
    mapping: Mapping,
    evaluator: Evaluator<'a>,
    current: EvalSummary,
    /// Architecture and mapping before the last resource move.
    saved: Option<(Architecture, Mapping)>,
    scratch: MoveScratch,
    opts: ArchExploreOptions,
}

impl<'a> ArchProblem<'a> {
    /// Starts from a given architecture and a random mapping on it.
    ///
    /// # Errors
    ///
    /// Returns a [`MappingError`] if no feasible initial mapping exists.
    pub fn new(
        app: &'a TaskGraph,
        initial_arch: Architecture,
        catalog: &'a ResourceCatalog,
        opts: ArchExploreOptions,
    ) -> Result<Self, MappingError> {
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xA5C4);
        let mapping = random_initial(app, &initial_arch, &mut rng);
        let mut evaluator = Evaluator::new(app, &initial_arch);
        let current = evaluator.evaluate(&mapping)?;
        Ok(ArchProblem {
            app,
            catalog,
            arch: initial_arch,
            mapping,
            evaluator,
            current,
            saved: None,
            scratch: MoveScratch::default(),
            opts,
        })
    }

    fn objective(&self, makespan: Micros) -> f64 {
        let excess = (makespan.value() - self.opts.deadline.value()).max(0.0);
        self.arch.total_cost()
            + excess * self.opts.penalty_per_micro
            + makespan.value() * self.opts.makespan_weight
    }

    /// The current architecture.
    pub fn architecture(&self) -> &Architecture {
        &self.arch
    }

    /// The current mapping.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// Consumes the problem into its outcome parts, attaching the
    /// cost/performance front recorded by the annealer. The per-task
    /// trace is computed here, once.
    pub fn into_outcome(self, front: ParetoFront<ArchCost>) -> ArchExploreOutcome {
        let evaluation = evaluate(self.app, &self.arch, &self.mapping)
            .expect("resident mapping is feasible by invariant");
        ArchExploreOutcome {
            cost: self.objective(self.current.makespan),
            architecture: self.arch,
            mapping: self.mapping,
            evaluation,
            front,
        }
    }

    /// Keeps the pre-move architecture and mapping for the undo and
    /// installs `arch` — called once a resource move is certain.
    fn save_and_set(&mut self, arch: Architecture) {
        let prev = std::mem::replace(&mut self.arch, arch);
        self.saved = Some((prev, self.mapping.clone()));
    }

    /// Puts the saved pre-move architecture and mapping back.
    fn restore_saved(&mut self) {
        (self.arch, self.mapping) = self.saved.take().expect("a resource move is outstanding");
        self.resync().expect("the pre-move state was feasible");
    }

    /// Points the evaluator at the resident architecture and scores the
    /// resident mapping with one full pass — after a state the
    /// evaluator has not seen (resource move, undo, restore).
    fn resync(&mut self) -> Result<EvalSummary, MappingError> {
        self.evaluator.retarget(&self.arch);
        self.evaluator.evaluate(&self.mapping)
    }

    /// m4: instantiate a random catalog component and move one task
    /// onto it. Returns `false` if nothing could be created.
    fn create_resource(&mut self, rng: &mut dyn RngCore) -> bool {
        let (catalog, n_tasks) = (self.catalog, self.app.n_tasks());
        let no_kinds = catalog.processors.is_empty() && catalog.drlcs.is_empty();
        if no_kinds && catalog.asics.is_empty() || n_tasks == 0 {
            return false;
        }
        match rng.random_range(0..3usize) {
            0 if !catalog.processors.is_empty() => {
                let spec = &catalog.processors[rng.random_range(0..catalog.processors.len())];
                self.save_and_set(rebuilt(&self.arch, None, |b| {
                    b.processor(spec.name(), spec.cost())
                }));
                let p = self.mapping.add_processor_slot();
                // Assign a random task to the new processor.
                let t = TaskId(rng.random_range(0..n_tasks as u32));
                self.mapping.detach(t);
                self.mapping.insert_software(t, p, 0);
            }
            1 if !catalog.drlcs.is_empty() => {
                let spec = &catalog.drlcs[rng.random_range(0..catalog.drlcs.len())];
                self.save_and_set(rebuilt(&self.arch, None, |b| {
                    let (clbs, rate) = (spec.n_clbs(), spec.reconfig_time_per_clb());
                    b.drlc(spec.name(), clbs, rate, spec.cost())
                }));
                let d = self.mapping.add_drlc_slot();
                // Assign a random hardware-capable, fitting task; with
                // none, the empty device is legal.
                let cap = spec.n_clbs();
                let candidates: Vec<TaskId> = self
                    .app
                    .tasks()
                    .filter(|(_, t)| t.hw_impls().iter().any(|i| i.clbs() <= cap))
                    .map(|(id, _)| id)
                    .collect();
                if !candidates.is_empty() {
                    let t = candidates[rng.random_range(0..candidates.len())];
                    let impls = self.app.task(t).expect("task id in range").hw_impls();
                    let fitting: Vec<usize> = (0..impls.len())
                        .filter(|&i| impls[i].clbs() <= cap)
                        .collect();
                    let choice = fitting[rng.random_range(0..fitting.len())];
                    self.mapping.detach(t);
                    self.mapping.insert_new_context(t, d, 0, choice);
                }
            }
            _ if !catalog.asics.is_empty() => {
                let spec = &catalog.asics[rng.random_range(0..catalog.asics.len())];
                self.save_and_set(rebuilt(&self.arch, None, |b| {
                    b.asic(spec.name(), spec.cost())
                }));
                let a = self.arch.asics().len() - 1;
                let first = self.app.tasks().find(|(_, t)| !t.hw_impls().is_empty());
                if let Some((t, _)) = first {
                    self.mapping.detach(t);
                    self.mapping.insert_asic(t, a);
                }
            }
            _ => return false,
        }
        true
    }

    /// Tasks on resource `idx` of `kind` (0 processor, 1 DRLC, 2 ASIC).
    fn hosted(&self, kind: usize, idx: usize) -> impl Iterator<Item = TaskId> + '_ {
        self.app
            .task_ids()
            .filter(move |&t| match (kind, self.mapping.placement(t)) {
                (0, Placement::Software { processor }) => processor == idx,
                (1, Placement::Hardware { drlc, .. }) => drlc == idx,
                (2, Placement::Asic { asic }) => asic == idx,
                _ => false,
            })
    }

    /// m3: remove a resource hosting at most one task, reassigning that
    /// task to processor 0. Returns `false` when no resource can go.
    fn remove_resource(&mut self, rng: &mut dyn RngCore) -> bool {
        // Candidates, as (kind, index): extra processors (never
        // processor 0 — the fallback host), DRLCs and ASICs, each
        // hosting at most one task.
        let arch = &self.arch;
        let kinds = [
            (0, 1..arch.processors().len()),
            (1, 0..arch.drlcs().len()),
            (2, 0..arch.asics().len()),
        ];
        let options: Vec<(usize, usize)> = kinds
            .into_iter()
            .flat_map(|(kind, range)| range.map(move |i| (kind, i)))
            .filter(|&(kind, i)| self.hosted(kind, i).nth(1).is_none())
            .collect();
        let Some(&(kind, idx)) = options.get(rng.random_range(0..options.len().max(1))) else {
            return false;
        };
        let single = self.hosted(kind, idx).next();
        self.save_and_set(rebuilt(&self.arch, Some((kind, idx)), |b| b));
        // Move the hosted task to processor 0's end.
        if let Some(t) = single {
            self.mapping.detach(t);
            let end = self.mapping.proc_order(0).len();
            self.mapping.insert_software(t, 0, end);
        }
        match kind {
            0 => self.mapping.remove_processor_slot(idx),
            1 => self.mapping.remove_drlc_slot(idx),
            _ => self.mapping.remove_asic_slot(idx),
        }
        true
    }
}

/// `arch` without component `skip` (kind and index, as in
/// [`ArchProblem::hosted`]) and with the components `add` puts in.
fn rebuilt(
    arch: &Architecture,
    skip: Option<(usize, usize)>,
    add: impl FnOnce(ArchitectureBuilder) -> ArchitectureBuilder,
) -> Architecture {
    let kept = |kind, i| skip != Some((kind, i));
    let mut b = Architecture::builder(arch.name());
    for (i, p) in arch.processors().iter().enumerate() {
        if kept(0, i) {
            b = b.processor(p.name(), p.cost());
        }
    }
    for (i, d) in arch.drlcs().iter().enumerate() {
        if kept(1, i) {
            b = b.drlc(d.name(), d.n_clbs(), d.reconfig_time_per_clb(), d.cost());
        }
    }
    for (i, a) in arch.asics().iter().enumerate() {
        if kept(2, i) {
            b = b.asic(a.name(), a.cost());
        }
    }
    add(b.bus_rate(arch.bus().bytes_per_micro()))
        .build()
        .expect("resource moves keep processor 0 and valid devices")
}

impl Problem for ArchProblem<'_> {
    /// The mapping move's delta (none for a resource move, whose
    /// pre-move state the problem keeps) and the pre-move summary.
    type Move = (Option<MoveDelta>, EvalSummary);
    type Snapshot = (Architecture, Mapping, EvalSummary);
    type Cost = ArchCost;

    fn cost(&self) -> ArchCost {
        ArchCost {
            system_cost: self.arch.total_cost(),
            makespan: self.current.makespan.value(),
            penalized: self.objective(self.current.makespan),
        }
    }

    fn n_move_classes(&self) -> usize {
        3
    }

    fn try_move(&mut self, rng: &mut dyn RngCore, class: usize) -> Option<(Self::Move, ArchCost)> {
        let (app, arch) = (self.app, &self.arch);
        let (delta, scored) = match class {
            0 | 1 => {
                // Proposals leave the mapping unchanged on None.
                let delta = if class == 0 {
                    propose_pair_move(app, arch, &mut self.mapping, rng, &mut self.scratch)
                } else {
                    propose_impl_move(app, arch, &mut self.mapping, rng, &mut self.scratch)
                }?
                .delta;
                let scored = self.evaluator.evaluate_delta(&self.mapping, delta.task());
                if scored.is_err() {
                    // The evaluator has already reverted itself.
                    delta.undo(&mut self.mapping);
                }
                (Some(delta), scored)
            }
            _ => {
                // m3/m4, drawn with equal probability.
                let resized = if rng.random::<bool>() {
                    self.create_resource(rng)
                } else {
                    self.remove_resource(rng)
                };
                if !resized {
                    return None;
                }
                let scored = self.resync();
                if scored.is_err() {
                    self.restore_saved();
                }
                (None, scored)
            }
        };
        let prev = std::mem::replace(&mut self.current, scored.ok()?);
        Some(((delta, prev), self.cost()))
    }

    fn undo(&mut self, (delta, prev): Self::Move) {
        match delta {
            Some(delta) => {
                self.evaluator.revert_delta();
                delta.undo(&mut self.mapping);
            }
            None => self.restore_saved(),
        }
        self.current = prev;
    }

    fn snapshot(&self) -> Self::Snapshot {
        (self.arch.clone(), self.mapping.clone(), self.current)
    }

    fn restore(&mut self, snapshot: &Self::Snapshot) {
        self.restore_owned(snapshot.clone());
    }

    fn restore_owned(&mut self, snapshot: Self::Snapshot) {
        (self.arch, self.mapping, self.current) = snapshot;
        self.resync().expect("snapshots are feasible");
    }

    fn observables(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("arch_cost", self.arch.total_cost()),
            ("makespan_ms", self.current.makespan.as_millis()),
            ("n_drlcs", self.arch.drlcs().len() as f64),
            ("n_processors", self.arch.processors().len() as f64),
        ]
    }
}

/// Runs a full cost-driven architecture exploration.
///
/// # Errors
///
/// Returns a [`MappingError`] if the initial architecture admits no
/// feasible mapping.
pub fn explore_architecture(
    app: &TaskGraph,
    initial_arch: Architecture,
    catalog: &ResourceCatalog,
    opts: &ArchExploreOptions,
) -> Result<ArchExploreOutcome, MappingError> {
    let problem = ArchProblem::new(app, initial_arch, catalog, opts.clone())?;
    let schedule = LamSchedule::new(opts.lambda);
    let mut annealer = Annealer::new(
        problem,
        schedule,
        RunOptions {
            max_iterations: opts.max_iterations,
            warmup_iterations: opts.warmup_iterations,
            seed: opts.seed,
            ..RunOptions::default()
        },
    );
    annealer.track_front();
    annealer.run_segment(u64::MAX);
    let (problem, _schedule, run) = annealer.finish();
    let front = run.front.expect("front tracking was enabled above");
    Ok(problem.into_outcome(front))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdse_model::units::{Bytes, Clbs};
    use rdse_model::HwImpl;

    fn us(v: f64) -> Micros {
        Micros::new(v)
    }

    /// A chain where hardware is the only way to meet a tight deadline.
    fn app() -> TaskGraph {
        let mut app = TaskGraph::new("arch-explore");
        let mut prev = None;
        for i in 0..6 {
            let t = app
                .add_task(
                    format!("t{i}"),
                    "F",
                    us(1_000.0),
                    vec![HwImpl::new(Clbs::new(80), us(50.0))],
                )
                .unwrap();
            if let Some(p) = prev {
                app.add_data_edge(p, t, Bytes::new(64)).unwrap();
            }
            prev = Some(t);
        }
        app
    }

    fn catalog() -> ResourceCatalog {
        ResourceCatalog {
            processors: vec![ProcessorSpec::new("cpu", 10.0)],
            drlcs: vec![DrlcSpec::new("fpga", Clbs::new(600), us(0.5), 40.0)],
            asics: vec![AsicSpec::new("asic", 25.0)],
        }
    }

    fn cpu_fpga() -> Architecture {
        Architecture::builder("start")
            .processor("cpu", 10.0)
            .drlc("fpga", Clbs::new(600), us(0.5), 40.0)
            .bus_rate(64.0)
            .build()
            .unwrap()
    }

    #[test]
    fn loose_deadline_drops_the_expensive_fpga() {
        let app = app();
        let out = explore_architecture(
            &app,
            cpu_fpga(),
            &catalog(),
            &ArchExploreOptions {
                max_iterations: 15_000,
                warmup_iterations: 1_500,
                deadline: Micros::new(100_000.0), // software alone is fine
                seed: 3,
                ..ArchExploreOptions::default()
            },
        )
        .unwrap();
        assert!(out.architecture.drlcs().is_empty(), "kept an unneeded FPGA");
        // The initial system cost 50 (cpu 10 + fpga 40); dropping the
        // FPGA is the big win. The annealer may briefly instantiate an
        // ASIC and freeze before dismantling it, so only require a
        // strict improvement over the start.
        assert!(out.architecture.total_cost() < 50.0);
        out.mapping.validate(&app, &out.architecture).unwrap();
    }

    #[test]
    fn tight_deadline_keeps_hardware() {
        let app = app();
        let out = explore_architecture(
            &app,
            cpu_fpga(),
            &catalog(),
            &ArchExploreOptions {
                max_iterations: 15_000,
                warmup_iterations: 1_500,
                deadline: Micros::new(2_000.0), // impossible in software (6 ms)
                seed: 3,
                ..ArchExploreOptions::default()
            },
        )
        .unwrap();
        assert!(
            !out.architecture.drlcs().is_empty() || !out.architecture.asics().is_empty(),
            "dropped all acceleration under a tight deadline"
        );
        assert!(out.evaluation.makespan <= Micros::new(2_000.0));
    }

    #[test]
    fn moves_keep_architecture_and_mapping_consistent() {
        let app = app();
        let catalog = catalog();
        let mut problem = ArchProblem::new(
            &app,
            cpu_fpga(),
            &catalog,
            ArchExploreOptions {
                deadline: Micros::new(3_000.0),
                seed: 9,
                ..ArchExploreOptions::default()
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for step in 0..600u32 {
            let class = (step % 3) as usize;
            if let Some((mv, _)) = problem.try_move(&mut rng, class) {
                problem
                    .mapping
                    .validate(&app, &problem.arch)
                    .expect("valid after arch move");
                if step % 4 == 0 {
                    problem.undo(mv);
                    problem
                        .mapping
                        .validate(&app, &problem.arch)
                        .expect("valid after undo");
                }
            }
        }
    }
}
