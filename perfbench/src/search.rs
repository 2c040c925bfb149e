//! The shared loop of the three search workloads: set-up repeated and
//! timed, a closed loop of jobs for the run's seconds, output checks
//! outside the timings, and the metrics.
//!
//! A job is one call of a public search entry point at the workload's
//! fixed budget, with its own seed drawn from the workload seed.

use crate::chain::SearchTrace;
use crate::check::{same_bits, Tally};
use crate::report::{self, ms, Metrics, Outcome, END_TO_END, PER_LAYER};
use crate::trace::{now_ns, SpanLog};
use crate::Ctx;
use rdse_mapping::Mapping;
use rdse_model::Architecture;
use std::time::{Duration, Instant};

/// Jobs every untraced run completes, however long they take: the
/// fewest for which `job_p90_ms` has ten samples beyond it.
pub const MIN_JOBS: usize = 100;
/// `best_cost` is the mean over the first this many jobs, so it is a
/// pure function of the seed; every search run completes them.
const COST_JOBS: usize = 200;
/// Untraced/traced job pairs every traced run completes.
pub const MIN_TRACED_PAIRS: usize = 10;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// A run gives up starting jobs after this long.
pub const HARD_STOP: Duration = Duration::from_secs(150);

/// Set-up time split into input generation and chain construction.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub model: Duration,
    pub explorer: Duration,
}

/// What one search job leaves behind for the checks and the metrics.
pub struct SearchOut {
    /// The job's seed.
    pub seed: u64,
    pub steps: u64,
    /// The job's `best_cost`: makespan in µs, or the penalized
    /// architecture cost.
    pub cost: f64,
    pub mapping: Mapping,
    /// The architecture the mapping runs on, when the search chose it.
    pub arch: Option<Architecture>,
    pub makespan_bits: u64,
}

pub trait SearchWorkload {
    /// Builds the inputs (and, to time it, the first job's chains) once.
    /// The last call leaves its inputs in place for the jobs.
    fn setup(&mut self, seed: u64) -> Result<SetupTimes, String>;
    /// One job through the public entry point, untraced.
    fn job(&self, seed: u64) -> Result<SearchOut, String>;
    /// The same job through the traced chains.
    fn traced_job(&self, seed: u64, tr: &mut SearchTrace) -> Result<SearchOut, String>;
    /// The output check of one job.
    fn check(&self, out: &SearchOut) -> Result<(), String>;
    /// Checks beyond the per-job oracle, given the first job's output.
    fn extra_checks(&self, _first: &SearchOut, _tally: &mut Tally) {}
    /// Per-layer metrics from the traced jobs.
    fn fill_layers(&self, tr: &SearchTrace, m: &mut Metrics);
}

/// SplitMix64 of `seed` and `job`: the seed of job `job`.
pub fn job_seed(seed: u64, job: u64) -> u64 {
    let mut z =
        (seed ^ job.wrapping_mul(0xD1B5_4A32_D192_ED03)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether to start another job.
pub fn window_open(start: Instant, seconds: f64, done: usize, min: usize) -> bool {
    let elapsed = start.elapsed();
    elapsed < HARD_STOP && (done < min || elapsed.as_secs_f64() < seconds)
}

pub fn run<W: SearchWorkload>(w: &mut W, ctx: &Ctx) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        setups.push(w.setup(ctx.seed)?);
    }
    let setup_s: Vec<f64> = setups
        .iter()
        .map(|s| (s.model + s.explorer).as_secs_f64())
        .collect();
    if ctx.trace {
        traced(w, ctx, &setups)
    } else {
        untraced(w, ctx, report::median(&setup_s))
    }
}

fn untraced<W: SearchWorkload>(w: &W, ctx: &Ctx, setup_s: f64) -> Result<Outcome, String> {
    // A closed loop of one caller; the checks run after the window.
    let mut done = Vec::new();
    let start = Instant::now();
    while window_open(start, ctx.seconds, done.len(), COST_JOBS) {
        let t = Instant::now();
        let out = w.job(job_seed(ctx.seed, done.len() as u64));
        done.push((t.elapsed(), out));
    }
    let wall = start.elapsed().as_secs_f64();

    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    let mut costs = Vec::new();
    let mut steps = 0u64;
    for (latency, out) in &done {
        match out {
            Ok(out) => {
                latencies.push(ms(*latency));
                steps += out.steps;
                if costs.len() < COST_JOBS {
                    costs.push(out.cost);
                }
                tally.record("output check", w.check(out));
            }
            Err(e) => tally.record("search", Err(e.clone())),
        }
    }
    if let Some(first) = done.iter().find_map(|(_, out)| out.as_ref().ok()) {
        w.extra_checks(first, &mut tally);
    }
    let (p50, p90) = report::job_percentiles(&latencies)?;
    let mut m = Metrics::new(END_TO_END);
    m.set("steps_per_s", steps as f64 / wall);
    m.set("best_cost", costs.iter().sum::<f64>() / costs.len() as f64);
    m.set("job_p90_ms", p90);
    m.set("jobs_per_s", latencies.len() as f64 / wall);
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", report::peak_rss_mb()?);
    let mut notes = vec![report::p50_note(p50)];
    notes.extend(report::tail_note("job latency", &latencies));
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
        notes,
        spans: SpanLog::default(),
    })
}

fn traced<W: SearchWorkload>(w: &W, ctx: &Ctx, setups: &[SetupTimes]) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut tr = SearchTrace::default();
    let (mut plain_steps, mut plain_busy) = (0u64, Duration::ZERO);
    let (mut traced_steps, mut traced_busy) = (0u64, Duration::ZERO);
    let start = Instant::now();
    let mut pairs = 0usize;
    while window_open(start, ctx.seconds, pairs, MIN_TRACED_PAIRS) {
        let seed = job_seed(ctx.seed, pairs as u64);
        tr.job = pairs as u64;
        let (t, t_ns) = (Instant::now(), now_ns());
        let plain = w.job(seed);
        let plain_dt = t.elapsed();
        tr.spans.push("job.untraced", tr.job, t_ns, now_ns());
        let (t, t_ns) = (Instant::now(), now_ns());
        let traced = w.traced_job(seed, &mut tr);
        let traced_dt = t.elapsed();
        tr.spans.push("job.traced", tr.job, t_ns, now_ns());
        match (plain, traced) {
            (Ok(plain), Ok(traced)) => {
                plain_steps += plain.steps;
                plain_busy += plain_dt;
                traced_steps += traced.steps;
                traced_busy += traced_dt;
                let same = same_bits(
                    "traced best_cost",
                    plain.cost.to_bits(),
                    traced.cost.to_bits(),
                )
                .and(same_bits(
                    "traced makespan",
                    plain.makespan_bits,
                    traced.makespan_bits,
                ))
                .and(same_bits("traced steps", plain.steps, traced.steps));
                tally.record("traced run reproduces the untraced one", same);
                tally.record("output check", w.check(&plain));
            }
            (Err(e), _) | (_, Err(e)) => tally.record("search", Err(e)),
        }
        pairs += 1;
    }
    let mut m = Metrics::new(PER_LAYER);
    w.fill_layers(&tr, &mut m);
    let model: Vec<f64> = setups.iter().map(|s| ms(s.model)).collect();
    let explorer: Vec<f64> = setups.iter().map(|s| ms(s.explorer)).collect();
    m.set("setup.model_ms", report::median(&model));
    m.set("setup.explorer_ms", report::median(&explorer));
    let plain_sps = plain_steps as f64 / plain_busy.as_secs_f64();
    let traced_sps = traced_steps as f64 / traced_busy.as_secs_f64();
    m.set("trace.overhead_frac", plain_sps / traced_sps - 1.0);
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
        notes: vec![format!(
            "untraced {plain_sps:.0} steps/s, traced {traced_sps:.0} steps/s over {pairs} job pairs"
        )],
        spans: tr.spans,
    })
}
