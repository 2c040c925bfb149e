//! Traced searches: an annealing chain over a timed
//! `MappingProblem`, and the lock-step portfolio loop on the global pool.
//!
//! `Explorer` owns its annealer, so a timing wrapper cannot be slotted
//! into it. The traced chain is therefore assembled from the same public
//! parts `Explorer::with_initial` uses (`random_initial`,
//! `MappingProblem`, `LamSchedule`, `Annealer`), and the portfolio loop
//! repeats `explore_parallel`'s barrier work. Every traced run compares
//! its results bit for bit with the untraced public call; a mismatch
//! means this copy has drifted from the program and fails the run.

use crate::report::Metrics;
use crate::trace::{now_ns, ProblemClock, SpanLog, Timed};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rdse_anneal::{Annealer, LamSchedule, ParetoFront, RunOptions, RunResult};
use rdse_mapping::{
    chain_seed, random_initial, CostVector, EvalSummary, Evaluation, EvaluatorStats,
    ExploreOptions, Mapping, MappingError, MappingProblem, Objective, ParallelOptions, Pool,
};
use rdse_model::{Architecture, TaskGraph};
use std::hint::black_box;
use std::time::Instant;

/// Offset between a chain's seed and its walk RNG seed, as in
/// `Explorer::with_initial`.
const WALK_SEED_OFFSET: u64 = 0x9E37_79B9_7F4A_7C15;

/// One annealing chain whose problem calls are timed.
pub struct Chain<'a> {
    annealer: Annealer<Timed<MappingProblem<'a>>, LamSchedule, Objective>,
    /// Nanoseconds spent in `run_segment`.
    pub run_ns: u64,
}

/// What a finished chain leaves behind.
pub struct ChainEnd {
    pub mapping: Mapping,
    pub evaluation: Evaluation,
    pub run: RunResult<CostVector>,
    pub clock: ProblemClock,
    pub eval_stats: EvaluatorStats,
    pub run_ns: u64,
}

impl<'a> Chain<'a> {
    /// A chain set up as `Explorer::with_initial` sets it up.
    pub fn new(
        app: &'a TaskGraph,
        arch: &'a Architecture,
        opts: &ExploreOptions,
        initial: Option<Mapping>,
    ) -> Result<Self, MappingError> {
        assert!(
            opts.speculate <= 1,
            "the traced chain is the sequential engine"
        );
        let initial = match initial {
            Some(m) => m,
            None => random_initial(app, arch, &mut StdRng::seed_from_u64(opts.seed)),
        };
        let problem = MappingProblem::new(app, arch, initial)?;
        let mut annealer = Annealer::with_scalarizer(
            Timed::new(problem),
            LamSchedule::new(opts.lambda),
            RunOptions {
                max_iterations: opts.max_iterations,
                warmup_iterations: opts.warmup_iterations,
                seed: opts.seed.wrapping_add(WALK_SEED_OFFSET),
                trace_every: opts.trace_every,
                adaptive_moves: opts.adaptive_moves,
                bandit_moves: opts.bandit_moves,
                target_cost: opts.target_cost,
                ..RunOptions::default()
            },
            opts.objective,
        );
        annealer.track_front();
        Ok(Chain {
            annealer,
            run_ns: 0,
        })
    }

    pub fn run_segment(&mut self, steps: u64) -> bool {
        let t = Instant::now();
        let more = self.annealer.run_segment(steps);
        self.run_ns += t.elapsed().as_nanos() as u64;
        more
    }

    pub fn is_finished(&self) -> bool {
        self.annealer.is_finished()
    }

    pub fn best_cost(&self) -> f64 {
        self.annealer.best_cost()
    }

    fn front(&self) -> &ParetoFront<CostVector> {
        self.annealer.front().expect("front tracking is on")
    }

    fn best(&self) -> (&Mapping, EvalSummary) {
        let snapshot = self.annealer.best_snapshot();
        (&snapshot.0, snapshot.1)
    }

    fn adopt_best(&mut self, mapping: Mapping, summary: EvalSummary) {
        let cost = CostVector::from_summary(&summary);
        self.annealer.adopt((mapping, summary), cost);
    }

    pub fn finish(self) -> ChainEnd {
        let (problem, _schedule, run) = self.annealer.finish();
        let eval_stats = problem.inner.evaluator_stats();
        let clock = problem.clock;
        let (mapping, evaluation) = problem.inner.into_parts();
        ChainEnd {
            mapping,
            evaluation,
            run,
            clock,
            eval_stats,
            run_ns: self.run_ns,
        }
    }
}

/// Per-layer totals of traced searches: anneal, mapping, evaluator,
/// portfolio and pool.
#[derive(Debug, Default)]
pub struct SearchTrace {
    pub clock: ProblemClock,
    pub steps: u64,
    pub accepted: u64,
    pub eval: EvaluatorStats,
    /// Nanoseconds inside `run_segment`, summed over chains.
    pub run_ns: u64,
    pub segments: u64,
    /// Wall time of each lock-step segment (the pool batch), ms.
    pub segment_ms: Vec<f64>,
    /// Calling-thread work between pool batches.
    pub barrier_ns: u64,
    pub adoptions: u64,
    /// Threads × wall time of the portfolio loops, ns.
    pub capacity_ns: f64,
    pub pool_batches: u64,
    pub dispatch_ns: u64,
    pub imbalance_ns: u64,
    /// The job the next spans belong to.
    pub job: u64,
    pub spans: SpanLog,
}

impl SearchTrace {
    pub fn add_chain(&mut self, end: &ChainEnd) {
        self.clock.merge(&end.clock);
        self.steps += end.run.iterations;
        self.accepted += end.run.accepted;
        self.run_ns += end.run_ns;
        let (e, s) = (&mut self.eval, &end.eval_stats);
        e.evaluations += s.evaluations;
        e.arena_growths += s.arena_growths;
        e.repairs += s.repairs;
        e.full_passes += s.full_passes;
        e.fallbacks += s.fallbacks;
        e.cone_nodes += s.cone_nodes;
    }

    /// Fills every layer a traced mapping search reaches.
    pub fn fill(&self, m: &mut Metrics) {
        self.fill_anneal(m);
        self.fill_mapping(m);
        self.fill_portfolio(m);
    }

    /// The annealing runner: step counts and its self time per step.
    pub fn fill_anneal(&self, m: &mut Metrics) {
        let steps = self.steps.max(1) as f64;
        m.set("anneal.steps", self.steps as f64);
        m.set("anneal.accept_frac", self.accepted as f64 / steps);
        m.set(
            "anneal.infeasible_frac",
            self.clock.infeasible.get() as f64 / steps,
        );
        let engine_ns = self.run_ns.saturating_sub(self.clock.in_step_ns());
        m.set("anneal.engine_ns", engine_ns as f64 / steps);
        m.set(
            "anneal.snapshot_ns",
            self.clock.snapshot.ns.get() as f64 / steps,
        );
    }

    /// `MappingProblem` calls and the evaluator counters behind them.
    fn fill_mapping(&self, m: &mut Metrics) {
        m.set("mapping.try_move_ns", self.clock.try_move.mean_ns());
        m.set("mapping.undo_ns", self.clock.undo.mean_ns());
        m.set("evaluator.evaluations", self.eval.evaluations as f64);
        m.set(
            "evaluator.fallback_frac",
            self.eval.fallbacks as f64 / self.eval.evaluations.max(1) as f64,
        );
        m.set("evaluator.mean_cone", self.eval.mean_cone());
        m.set("evaluator.full_passes", self.eval.full_passes as f64);
        m.set("evaluator.arena_growths", self.eval.arena_growths as f64);
    }

    /// The portfolio barrier loop and the pool batches under it.
    fn fill_portfolio(&self, m: &mut Metrics) {
        if self.segments > 0 {
            let n = self.segments as f64;
            m.set("portfolio.segments", n);
            m.set(
                "portfolio.segment_ms",
                crate::report::median(&self.segment_ms),
            );
            m.set("portfolio.barrier_ms", self.barrier_ns as f64 / 1e6 / n);
            m.set(
                "portfolio.efficiency",
                self.run_ns as f64 / self.capacity_ns,
            );
            m.set("portfolio.adoptions", self.adoptions as f64);
        }
        if self.pool_batches > 0 {
            let n = self.pool_batches as f64;
            m.set("pool.dispatch_us", self.dispatch_ns as f64 / 1e3 / n);
            m.set("pool.imbalance_ms", self.imbalance_ns as f64 / 1e6 / n);
        }
    }
}

/// The result of a traced portfolio, in the shape of `ParallelOutcome`.
pub struct PortfolioEnd {
    /// Steps run, summed over chains.
    pub steps: u64,
    pub mapping: Mapping,
    pub evaluation: Evaluation,
    pub front: ParetoFront<CostVector>,
}

/// Lowest best cost, ties to the lowest chain id.
fn winner(chains: &[Chain<'_>]) -> usize {
    chains
        .iter()
        .enumerate()
        .min_by(|(ia, a), (ib, b)| a.best_cost().total_cmp(&b.best_cost()).then(ia.cmp(ib)))
        .map(|(i, _)| i)
        .expect("portfolio has at least one chain")
}

/// `explore_parallel` with every layer boundary timed: chain segments
/// run on `Pool::global()` with timestamps taken inside the submitted
/// closures, and the barrier between batches is timed on the calling
/// thread.
pub fn traced_portfolio(
    app: &TaskGraph,
    arch: &Architecture,
    opts: &ParallelOptions,
    tr: &mut SearchTrace,
) -> Result<PortfolioEnd, MappingError> {
    assert!(
        !opts.front_exchange,
        "front exchange is opt-in and stays off"
    );
    let n = opts.chains.max(1);
    let total = opts.base.max_iterations;
    let mut chains = Vec::with_capacity(n);
    for c in 0..n {
        let per_chain = total / n as u64 + u64::from((c as u64) < total % n as u64);
        let warmup = if total == 0 {
            0
        } else {
            ((opts.base.warmup_iterations as u128 * per_chain as u128) / total as u128) as u64
        };
        let chain_opts = ExploreOptions {
            max_iterations: per_chain,
            warmup_iterations: warmup,
            seed: chain_seed(opts.base.seed, c),
            ..opts.base.clone()
        };
        let initial = if c == 0 {
            opts.warm_start.as_ref().map(|w| w.mapping.clone())
        } else {
            None
        };
        chains.push(Chain::new(app, arch, &chain_opts, initial)?);
    }
    let threads = if opts.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        opts.threads
    }
    .clamp(1, n);
    let segment = if opts.exchange_every == 0 {
        u64::MAX
    } else {
        opts.exchange_every
    };

    let loop_start = Instant::now();
    loop {
        let batch_start = Instant::now();
        if threads == 1 {
            for chain in &mut chains {
                chain.run_segment(segment);
            }
        } else {
            let chunk = chains.len().div_ceil(threads);
            let mut spans = vec![(0u64, 0u64); chains.len().div_ceil(chunk)];
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = chains
                .chunks_mut(chunk)
                .zip(spans.iter_mut())
                .map(|(part, span)| {
                    Box::new(move || {
                        let start = now_ns();
                        for chain in part {
                            chain.run_segment(segment);
                        }
                        *span = (start, now_ns());
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            let entry = now_ns();
            Pool::global().run(tasks);
            let exit = now_ns();
            tr.spans.push("pool.run", tr.job, entry, exit);
            for &(start, end) in &spans {
                tr.spans.push("pool.task", tr.job, start, end);
            }
            let first_start = spans.iter().map(|s| s.0).min().expect("one task");
            let last_end = spans.iter().map(|s| s.1).max().expect("one task");
            let busy = spans.iter().map(|s| s.1 - s.0);
            let (slow, fast) = (busy.clone().max(), busy.min());
            tr.pool_batches += 1;
            tr.dispatch_ns += first_start.saturating_sub(entry) + exit.saturating_sub(last_end);
            tr.imbalance_ns += slow.zip(fast).map_or(0, |(s, f)| s - f);
        }
        tr.segment_ms
            .push(batch_start.elapsed().as_secs_f64() * 1e3);
        tr.segments += 1;

        let barrier_start = Instant::now();
        let barrier_start_ns = now_ns();
        let target_hit = opts
            .base
            .target_cost
            .is_some_and(|t| chains.iter().any(|c| c.best_cost() <= t));
        let done = target_hit || chains.iter().all(Chain::is_finished);
        // The progress snapshot explore_parallel builds for its observer
        // at every barrier.
        let incumbent = winner(&chains);
        let mut snapshot = ParetoFront::new();
        for chain in &chains {
            snapshot.merge(chain.front());
        }
        black_box((incumbent, &snapshot));
        if !done {
            let w = winner(&chains);
            let w_cost = chains[w].best_cost();
            let (m, s) = {
                let (m, s) = chains[w].best();
                (m.clone(), s)
            };
            for (i, chain) in chains.iter_mut().enumerate() {
                if i != w && chain.best_cost() > w_cost && !chain.is_finished() {
                    chain.adopt_best(m.clone(), s);
                    tr.adoptions += 1;
                }
            }
        }
        tr.barrier_ns += barrier_start.elapsed().as_nanos() as u64;
        tr.spans
            .push("portfolio.barrier", tr.job, barrier_start_ns, now_ns());
        if done {
            break;
        }
    }
    tr.capacity_ns += threads as f64 * loop_start.elapsed().as_nanos() as f64;

    let w = winner(&chains);
    let mut front = ParetoFront::new();
    let mut best = None;
    let mut steps = 0;
    for (i, chain) in chains.into_iter().enumerate() {
        let end = chain.finish();
        tr.add_chain(&end);
        steps += end.run.iterations;
        front.merge(end.run.front.as_ref().expect("front tracking is on"));
        if i == w {
            best = Some((end.mapping, end.evaluation));
        }
    }
    let (mapping, evaluation) = best.expect("winner is a chain");
    Ok(PortfolioEnd {
        steps,
        mapping,
        evaluation,
        front,
    })
}
