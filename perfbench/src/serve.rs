//! `serve-mix`: an in-process `Server` with 2 workers and a result store
//! at `interval:64`, driven by a closed loop of 2 client connections
//! (`rdse submit` callers wait for their reply). Jobs come in three
//! equal classes:
//!
//! - `fresh`: a new corpus (workload family, architecture family) pair,
//!   so the arena cache and the store both miss and a search runs;
//! - `deeper`: a known pair at twice the budget, so the warm arena is
//!   reused and the search starts from the stored result;
//! - `exact`: a verbatim repeat of a completed fresh job, which the
//!   store answers without a search.
//!
//! Before timing, the store is filled with about 10k records over pairs
//! the mix never requests, so set-up includes replay-on-open.

use crate::chain::{traced_portfolio, SearchTrace};
use crate::check::{mapping_matches, same_bits, Tally};
use crate::report::{self, ms, Metrics, Outcome, END_TO_END, PER_LAYER};
use crate::search::{job_seed, window_open, MIN_JOBS};
use crate::trace::{now_ns, SpanLog};
use crate::Ctx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdse_corpus::{ArchFamily, WorkloadFamily};
use rdse_mapping::{
    explore_parallel, CostVector, ExploreOptions, Mapping, Objective, ParallelOptions, WarmStart,
};
use rdse_model::{Architecture, TaskGraph};
use rdse_serve::{client, AppSpec, ArchSpec, ClientOptions, JobSpec, ServeConfig, Server};
use rdse_store::{KeySpec, ResultStore, SyncPolicy};
use serde::Value;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const SYNC: SyncPolicy = SyncPolicy::Interval(64);
/// Records written to the store before set-up, four per pair.
const PREFILL_RECORDS: u64 = 10_000;
const PREFILL_PER_PAIR: u64 = 4;
/// Fresh jobs served before timing, so deeper and exact jobs always
/// find a completed fresh job of their pair.
const BACKLOG: usize = 4;
/// Pairs a mix holds: room for 4096 triples of slots.
const PAIRS: usize = BACKLOG + 4096;
/// Served jobs replayed offline and compared bit for bit.
const OFFLINE_SAMPLE: usize = 3;
/// Set-up repetitions; each replays the whole store.
const SETUP_REPS: usize = 3;

/// The shape of the job mix.
#[derive(Debug, Clone, Copy)]
pub struct MixShape {
    /// Budget of a fresh job; a deeper job runs twice this.
    pub fresh_iters: u64,
    pub chains: usize,
    pub exchange_every: u64,
}

pub const SHAPE: MixShape = MixShape {
    fresh_iters: 12_000,
    chains: 2,
    exchange_every: 500,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Fresh,
    Deeper,
    Exact,
}

impl Class {
    /// The store label a correct server answers this class with.
    fn store_label(self) -> &'static str {
        match self {
            Class::Fresh => "miss",
            Class::Deeper => "warm",
            Class::Exact => "exact",
        }
    }
}

/// One (app, arch) pair of the mix.
#[derive(Debug, Clone)]
struct Pair {
    family: &'static str,
    app_seed: u64,
    arch_family: &'static str,
    arch_seed: u64,
    job_seed: u64,
}

/// The job mix a seed defines: pairs in a seeded order covering every
/// (workload family, architecture family) combination once per round,
/// and a seeded class order within each triple of slots.
pub struct Mix {
    shape: MixShape,
    pairs: Vec<Pair>,
    seed: u64,
    /// Pairs per round: the number of family combinations.
    round: usize,
}

impl Mix {
    pub fn new(seed: u64, shape: MixShape) -> Mix {
        let mut rng = StdRng::seed_from_u64(seed);
        let families: Vec<&'static str> = WorkloadFamily::defaults()
            .iter()
            .map(|f| f.name())
            .collect();
        let arches: Vec<&'static str> = ArchFamily::all().iter().map(|f| f.name()).collect();
        let mut combos: Vec<(&'static str, &'static str)> = Vec::new();
        for f in &families {
            for a in &arches {
                combos.push((f, a));
            }
        }
        let mut pairs = Vec::with_capacity(PAIRS);
        while pairs.len() < PAIRS {
            let mut round = combos.clone();
            for i in (1..round.len()).rev() {
                round.swap(i, rng.random_range(0..=i));
            }
            for (family, arch_family) in round {
                pairs.push(Pair {
                    family,
                    app_seed: rng.random_range(1..1_000_000),
                    arch_family,
                    arch_seed: rng.random_range(1..1_000_000),
                    job_seed: rng.random_range(1..1_000_000),
                });
            }
        }
        pairs.truncate(PAIRS);
        Mix {
            shape,
            pairs,
            seed,
            round: combos.len(),
        }
    }

    /// The class and pair of timed slot `slot`: each triple of slots
    /// holds one job of each class in a seeded order. Fresh jobs take
    /// new pairs after the backlog; deeper and exact jobs revisit pair
    /// `triple`, whose fresh job was served `BACKLOG` triples earlier.
    pub fn slot(&self, slot: usize) -> (Class, usize) {
        let triple = slot / 3;
        let mut order = [Class::Fresh, Class::Deeper, Class::Exact];
        let r = job_seed(self.seed, triple as u64);
        order.swap(2, (r % 3) as usize);
        order.swap(1, ((r >> 8) % 2) as usize);
        match order[slot % 3] {
            Class::Fresh => (Class::Fresh, BACKLOG + triple),
            class => (class, triple),
        }
    }

    pub fn spec(&self, class: Class, pair: usize) -> JobSpec {
        let p = &self.pairs[pair];
        let iters = match class {
            Class::Deeper => 2 * self.shape.fresh_iters,
            _ => self.shape.fresh_iters,
        };
        JobSpec {
            // Bare family names: the server's parser knows no
            // size-suffixed spelling such as `layered-5x4`.
            app: AppSpec::Workload {
                family: p.family.into(),
                seed: p.app_seed,
            },
            arch: ArchSpec::Family {
                family: p.arch_family.into(),
                seed: p.arch_seed,
            },
            objective: "makespan".into(),
            iters,
            warmup: iters * 1_200 / 5_000,
            seed: p.job_seed,
            chains: self.shape.chains,
            exchange_every: self.shape.exchange_every,
        }
    }

    fn models(&self, pair: usize) -> (TaskGraph, Architecture) {
        let p = &self.pairs[pair];
        let app = WorkloadFamily::parse(p.family)
            .expect("mix uses registered families")
            .generate(p.app_seed);
        let arch = ArchFamily::parse(p.arch_family)
            .expect("mix uses registered families")
            .build(p.arch_seed);
        (app, arch)
    }
}

/// One served job as the client saw it.
#[derive(Debug, Clone)]
pub struct Served {
    pub slot: usize,
    pub class: Class,
    pub pair: usize,
    /// Span-clock time the submit started.
    pub start_ns: u64,
    pub latency: Duration,
    pub first_update: Option<Duration>,
    pub result: Result<Value, String>,
}

fn field_str<'v>(v: &'v Value, key: &str) -> Option<&'v str> {
    match v.get(key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

fn field_u64(v: &Value, key: &str) -> Option<u64> {
    match v.get(key) {
        Some(Value::U64(n)) => Some(*n),
        Some(Value::I64(n)) => u64::try_from(*n).ok(),
        _ => None,
    }
}

fn bits_of(v: &Value, key: &str) -> Option<u64> {
    field_str(v, key).and_then(|s| u64::from_str_radix(s, 16).ok())
}

/// The makespan bits of a result frame and of its front members.
fn result_bits(v: &Value) -> Option<(u64, Vec<u64>)> {
    let front = match v.get("front") {
        Some(Value::Seq(members)) => members
            .iter()
            .map(|m| bits_of(m, "makespan_bits"))
            .collect::<Option<Vec<u64>>>()?,
        _ => return None,
    };
    Some((bits_of(v, "makespan_bits")?, front))
}

/// Completed fresh jobs, by pair, for the jobs that depend on them.
#[derive(Default)]
pub struct FreshDone {
    done: Mutex<Vec<bool>>,
    ready: Condvar,
}

impl FreshDone {
    fn mark(&self, pair: usize) {
        let mut done = self.done.lock().expect("fresh-done lock");
        if done.len() <= pair {
            done.resize(pair + 1, false);
        }
        done[pair] = true;
        self.ready.notify_all();
    }

    fn wait(&self, pair: usize) {
        let mut done = self.done.lock().expect("fresh-done lock");
        while !done.get(pair).copied().unwrap_or(false) {
            done = self.ready.wait(done).expect("fresh-done lock");
        }
    }
}

fn submit(addr: &str, mix: &Mix, slot: usize, class: Class, pair: usize) -> Served {
    let spec = mix.spec(class, pair);
    let opts = ClientOptions::default();
    let start_ns = now_ns();
    let start = Instant::now();
    let mut first_update = None;
    let result = client::submit(addr, &spec, &opts, |_| {
        first_update.get_or_insert_with(|| start.elapsed());
    })
    .map_err(|e| e.to_string());
    Served {
        slot,
        class,
        pair,
        start_ns,
        latency: start.elapsed(),
        first_update,
        result,
    }
}

/// What the closed loop produced.
pub struct LoopRun {
    pub served: Vec<Served>,
    pub wall: Duration,
    /// Most client connections open at once.
    pub max_connections: usize,
}

/// The closed loop: `CLIENTS` callers, each sending its next job only
/// after the previous reply, until the window closes. Slots are taken
/// in order, so the jobs served are exactly the first slots of the mix.
pub fn closed_loop(
    addr: &str,
    mix: &Mix,
    fresh: &FreshDone,
    seconds: f64,
    min_jobs: usize,
) -> LoopRun {
    let next = AtomicUsize::new(0);
    let open = AtomicUsize::new(0);
    let max_open = AtomicUsize::new(0);
    let start = Instant::now();
    let mut served: Vec<Served> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let slot = next.fetch_add(1, Ordering::SeqCst);
                        if !window_open(start, seconds, slot, min_jobs) {
                            break;
                        }
                        let (class, pair) = mix.slot(slot);
                        if pair >= mix.pairs.len() {
                            break;
                        }
                        if class != Class::Fresh {
                            fresh.wait(pair);
                        }
                        let now_open = open.fetch_add(1, Ordering::SeqCst) + 1;
                        max_open.fetch_max(now_open, Ordering::SeqCst);
                        let job = submit(addr, mix, slot, class, pair);
                        open.fetch_sub(1, Ordering::SeqCst);
                        if class == Class::Fresh {
                            fresh.mark(pair);
                        }
                        mine.push(job);
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed();
    served.sort_by_key(|j| j.slot);
    LoopRun {
        served,
        wall,
        max_connections: max_open.load(Ordering::SeqCst),
    }
}

/// Writes `PREFILL_RECORDS` records over pairs the mix never requests,
/// each a copy of one real result under its own key.
fn prefill(path: &Path) -> Result<(), String> {
    // A fixed pair, so the store's bytes do not depend on the seed.
    let template_mix = Mix::new(0, SHAPE);
    let spec = template_mix.spec(Class::Fresh, 0);
    let (app, arch) = template_mix.models(0);
    let objective = Objective::MinimizeMakespan;
    let outcome = explore_parallel(&app, &arch, &offline_options(&spec, None))
        .map_err(|e| format!("prefill search: {e}"))?;
    let (key, pair) = rdse_serve::handler::store_keys(&app, &arch, &spec, &objective);
    let template = rdse_serve::handler::store_record(key, pair, &spec, &objective, &outcome);
    let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
    let mut out = std::io::BufWriter::new(file);
    for i in 0..PREFILL_RECORDS {
        let arch_json = format!("prefill-pair-{}", i / PREFILL_PER_PAIR);
        let ks = KeySpec {
            app_json: "prefill",
            arch_json: &arch_json,
            objective: "makespan",
            seed: i,
            iters: spec.iters,
            warmup: spec.warmup,
            chains: spec.chains as u64,
            exchange_every: spec.exchange_every,
        };
        let mut record = template.clone();
        record.key = ks.key();
        record.pair = ks.pair();
        record.seed = i;
        out.write_all(&rdse_store::log::encode_record(&record))
            .map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}

/// The options the server's handler runs a job with.
fn offline_options(spec: &JobSpec, warm: Option<Mapping>) -> ParallelOptions {
    ParallelOptions {
        base: ExploreOptions {
            max_iterations: spec.iters,
            warmup_iterations: spec.warmup,
            seed: spec.seed,
            objective: Objective::parse_spec(&spec.objective).expect("mix objective parses"),
            ..ExploreOptions::default()
        },
        chains: spec.chains,
        threads: 1,
        exchange_every: spec.exchange_every,
        warm_start: warm.map(|mapping| WarmStart { mapping }),
        front_exchange: false,
    }
}

fn config(store: &Path) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        store: Some(store.to_path_buf()),
        store_sync: SYNC,
        ..ServeConfig::default()
    }
}

fn health_counters(addr: &str) -> Result<HashMap<&'static str, u64>, String> {
    let h = client::health(addr, &ClientOptions::default()).map_err(|e| e.to_string())?;
    let mut out = HashMap::new();
    for key in [
        "jobs_served",
        "evaluator_cache_hits",
        "store_exact_hits",
        "store_warm_starts",
    ] {
        out.insert(
            key,
            field_u64(&h, key).ok_or(format!("healthz lacks {key}"))?,
        );
    }
    Ok(out)
}

/// Replays served jobs offline — plain, and traced when a trace is
/// given — and compares them with what the server returned.
struct Offline<'m> {
    mix: &'m Mix,
    steps: u64,
    busy: Duration,
}

impl Offline<'_> {
    /// Runs `class` on `pair` offline; returns the winning mapping and
    /// checks it against `served` and the reference paths.
    fn replay(
        &mut self,
        class: Class,
        pair: usize,
        warm: Option<Mapping>,
        served: &Value,
        tr: Option<&mut SearchTrace>,
    ) -> Result<Mapping, String> {
        let spec = self.mix.spec(class, pair);
        let (app, arch) = self.mix.models(pair);
        let opts = offline_options(&spec, warm);
        let t = Instant::now();
        let (mapping, makespan, front) = match tr {
            None => {
                let out = explore_parallel(&app, &arch, &opts).map_err(|e| e.to_string())?;
                self.steps += out.chains.iter().map(|c| c.run.iterations).sum::<u64>();
                (out.mapping, out.evaluation.makespan.value(), out.front)
            }
            Some(tr) => {
                let before = tr.steps;
                let out = traced_portfolio(&app, &arch, &opts, tr).map_err(|e| e.to_string())?;
                self.steps += tr.steps - before;
                (out.mapping, out.evaluation.makespan.value(), out.front)
            }
        };
        self.busy += t.elapsed();
        let front_bits: Vec<u64> = front
            .sorted_members(|a: &CostVector, b: &CostVector| a.makespan.total_cmp(&b.makespan))
            .iter()
            .map(|m| m.makespan.to_bits())
            .collect();
        let (served_bits, served_front) =
            result_bits(served).ok_or("result frame without makespan bits")?;
        same_bits(
            "served vs offline makespan",
            served_bits,
            makespan.to_bits(),
        )?;
        if served_front != front_bits {
            return Err("served front differs from the offline front".into());
        }
        mapping_matches(&app, &arch, &mapping, makespan.to_bits())?;
        Ok(mapping)
    }

    /// Fresh and deeper jobs of the first `OFFLINE_SAMPLE` pairs, and the
    /// exact repeats of those fresh jobs.
    fn check_sample(
        &mut self,
        by_key: &HashMap<(Class, usize), &Value>,
        tally: &mut Tally,
        mut tr: Option<&mut SearchTrace>,
    ) {
        for pair in 0..OFFLINE_SAMPLE {
            let Some(fresh) = by_key.get(&(Class::Fresh, pair)) else {
                continue;
            };
            let warm = self.replay(Class::Fresh, pair, None, fresh, tr.as_deref_mut());
            let warm = match warm {
                Ok(m) => m,
                Err(e) => {
                    tally.record("serve = offline (fresh)", Err(e));
                    continue;
                }
            };
            tally.record("serve = offline (fresh)", Ok(()));
            if let Some(exact) = by_key.get(&(Class::Exact, pair)) {
                let same = result_bits(exact)
                    .zip(result_bits(fresh))
                    .ok_or_else(|| "result frame without makespan bits".to_string())
                    .and_then(|(e, f)| {
                        if e == f {
                            Ok(())
                        } else {
                            Err("exact hit differs from the fresh result".into())
                        }
                    });
                tally.record("serve = offline (exact)", same);
            }
            if let Some(deeper) = by_key.get(&(Class::Deeper, pair)) {
                let verdict = self
                    .replay(Class::Deeper, pair, Some(warm), deeper, tr.as_deref_mut())
                    .map(drop);
                tally.record("serve = offline (deeper)", verdict);
            }
        }
    }
}

/// The served jobs of one mix, with the health counters around the loop.
pub struct MixRun {
    pub backlog: Vec<Served>,
    pub run: LoopRun,
    pub before: HashMap<&'static str, u64>,
    pub after: HashMap<&'static str, u64>,
}

/// Serves the backlog of fresh jobs, then the timed closed loop.
pub fn drive(addr: &str, mix: &Mix, seconds: f64, min_jobs: usize) -> Result<MixRun, String> {
    let fresh = FreshDone::default();
    let mut backlog = Vec::new();
    for pair in 0..BACKLOG {
        backlog.push(submit(addr, mix, usize::MAX, Class::Fresh, pair));
        fresh.mark(pair);
    }
    let before = health_counters(addr)?;
    let run = closed_loop(addr, mix, &fresh, seconds, min_jobs);
    let after = health_counters(addr)?;
    Ok(MixRun {
        backlog,
        run,
        before,
        after,
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mix = Mix::new(ctx.seed, SHAPE);
    let store = ctx.work_dir.join("store.aof");
    prefill(&store)?;

    let mut tally = Tally::default();
    let mut layers = Metrics::new(PER_LAYER);

    if ctx.trace {
        let t = Instant::now();
        let opened = ResultStore::open(&store, SYNC).map_err(|e| e.to_string())?;
        layers.set("store.replay_ms", ms(t.elapsed()));
        layers.set(
            "store.records_replayed",
            opened.replay_report().records as f64,
        );
    }

    // Set-up: building the mix and binding the server (store replay and
    // worker pool), repeated; the last server is the one that serves.
    let mut setup = Vec::new();
    let (mut model_ms, mut bind_ms) = (Vec::new(), Vec::new());
    let mut server = None;
    for _ in 0..SETUP_REPS {
        drop(server.take());
        let t = Instant::now();
        let rebuilt = Mix::new(ctx.seed, SHAPE);
        let model = t.elapsed();
        let t = Instant::now();
        server = Some(Server::bind(config(&store)).map_err(|e| format!("bind: {e}"))?);
        let bind = t.elapsed();
        drop(rebuilt);
        setup.push((model + bind).as_secs_f64());
        model_ms.push(ms(model));
        bind_ms.push(ms(bind));
    }
    let handle = server
        .expect("at least one set-up repetition")
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let addr = handle.addr().to_string();

    // At least every job of the first round of pairs.
    let driven = drive(&addr, &mix, ctx.seconds, MIN_JOBS.max(3 * mix.round));
    let stopped = client::shutdown(&addr, &ClientOptions::default()).map_err(|e| e.to_string());
    let joined = handle.join().map_err(|e| e.to_string());
    tally.record("server shutdown", stopped.map(drop).and(joined));
    let MixRun {
        backlog,
        run,
        before,
        after,
    } = driven?;
    for job in &backlog {
        tally.record("backlog job", job.result.clone().map(drop));
    }

    // Per-job checks: a reply, with the store label of its class.
    let mut steps = 0u64;
    let mut by_class: HashMap<Class, Vec<f64>> = HashMap::new();
    let mut first_updates = Vec::new();
    let mut result_bytes = Vec::new();
    for job in &run.served {
        let verdict = job.result.as_ref().map_err(Clone::clone).and_then(|v| {
            let label = field_str(v, "store").unwrap_or("?");
            if label != job.class.store_label() {
                return Err(format!(
                    "{:?} job answered from store '{label}', expected '{}'",
                    job.class,
                    job.class.store_label()
                ));
            }
            result_bits(v).ok_or("result frame without makespan bits")?;
            Ok(())
        });
        tally.record("served job", verdict);
        let Ok(v) = &job.result else { continue };
        by_class.entry(job.class).or_default().push(ms(job.latency));
        if job.class != Class::Exact {
            steps += field_u64(v, "iterations").unwrap_or(0);
        }
        if let Some(t) = job.first_update {
            first_updates.push(ms(t));
        }
        if ctx.trace {
            result_bytes.push(serde_json::to_string(v).map_or(0, |s| s.len()) as f64);
        }
    }
    // best_cost: every served job of the first round of pairs, which
    // holds each (workload family, architecture family) combination once.
    let costs: Vec<f64> = backlog
        .iter()
        .chain(&run.served)
        .filter(|j| j.pair < mix.round)
        .filter_map(|j| j.result.as_ref().ok())
        .filter_map(|v| bits_of(v, "makespan_bits"))
        .map(f64::from_bits)
        .collect();
    let count = |c: Class| {
        run.served
            .iter()
            .filter(|j| j.class == c && j.result.is_ok())
            .count() as u64
    };
    let delta = |k: &str| after[k] - before[k];
    let counters = if delta("store_exact_hits") != count(Class::Exact) {
        Err(format!(
            "store_exact_hits moved by {}, {} exact jobs were sent",
            delta("store_exact_hits"),
            count(Class::Exact)
        ))
    } else if delta("store_warm_starts") != count(Class::Deeper) {
        Err(format!(
            "store_warm_starts moved by {}, {} deeper jobs were sent",
            delta("store_warm_starts"),
            count(Class::Deeper)
        ))
    } else {
        Ok(())
    };
    tally.record("health counters match the mix", counters);
    tally.record(
        "at most two client connections",
        if run.max_connections <= CLIENTS {
            Ok(())
        } else {
            Err(format!(
                "{} connections were open at once",
                run.max_connections
            ))
        },
    );

    // Serve = offline on a sample, outside the timings.
    let mut by_key: HashMap<(Class, usize), &Value> = HashMap::new();
    for job in backlog.iter().chain(&run.served) {
        if let Ok(v) = &job.result {
            by_key.entry((job.class, job.pair)).or_insert(v);
        }
    }
    let mut plain = Offline {
        mix: &mix,
        steps: 0,
        busy: Duration::ZERO,
    };
    plain.check_sample(&by_key, &mut tally, None);

    let latencies: Vec<f64> = run.served.iter().map(|j| ms(j.latency)).collect();
    let mut notes: Vec<String> = report::tail_note("job latency", &latencies)
        .into_iter()
        .collect();
    if let Ok((p50, _)) = report::job_percentiles(&latencies) {
        notes.insert(0, report::p50_note(p50));
    }
    notes.push(format!(
        "{} jobs in {:.3} s; fresh/deeper/exact = {}/{}/{}; max connections {}",
        run.served.len(),
        run.wall.as_secs_f64(),
        count(Class::Fresh),
        count(Class::Deeper),
        count(Class::Exact),
        run.max_connections
    ));

    if ctx.trace {
        let p50 = |c: Class| by_class.get(&c).map_or(0.0, |v| report::median(v));
        layers.set("serve.fresh_ms", p50(Class::Fresh));
        layers.set("serve.deeper_ms", p50(Class::Deeper));
        layers.set("serve.exact_ms", p50(Class::Exact));
        if !first_updates.is_empty() {
            layers.set("serve.first_update_ms", report::median(&first_updates));
        }
        layers.set(
            "serve.result_bytes",
            result_bytes.iter().sum::<f64>() / result_bytes.len().max(1) as f64,
        );
        layers.set("serve.cache_hits", delta("evaluator_cache_hits") as f64);
        layers.set("serve.store_exact_hits", delta("store_exact_hits") as f64);
        layers.set("serve.store_warm_starts", delta("store_warm_starts") as f64);
        layers.set("setup.model_ms", report::median(&model_ms));
        layers.set("setup.explorer_ms", report::median(&bind_ms));
        let mut tr = SearchTrace::default();
        let mut traced = Offline {
            mix: &mix,
            steps: 0,
            busy: Duration::ZERO,
        };
        traced.check_sample(&by_key, &mut tally, Some(&mut tr));
        let mut spans = std::mem::take(&mut tr.spans);
        for job in &run.served {
            let name = match job.class {
                Class::Fresh => "serve.fresh",
                Class::Deeper => "serve.deeper",
                Class::Exact => "serve.exact",
            };
            let end = job.start_ns + job.latency.as_nanos() as u64;
            spans.push(name, job.slot as u64, job.start_ns, end);
            if let Some(t) = job.first_update {
                let first = job.start_ns + t.as_nanos() as u64;
                spans.push("serve.first_update", job.slot as u64, job.start_ns, first);
            }
        }
        tr.fill(&mut layers);
        let plain_sps = plain.steps as f64 / plain.busy.as_secs_f64();
        let traced_sps = traced.steps as f64 / traced.busy.as_secs_f64();
        layers.set("trace.overhead_frac", plain_sps / traced_sps - 1.0);
        return Ok(Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            metrics: layers,
            notes,
            spans,
        });
    }

    let (_, p90) = report::job_percentiles(&latencies)?;
    let wall = run.wall.as_secs_f64();
    let mut m = Metrics::new(END_TO_END);
    m.set("steps_per_s", steps as f64 / wall);
    m.set(
        "best_cost",
        costs.iter().sum::<f64>() / costs.len().max(1) as f64,
    );
    m.set("job_p90_ms", p90);
    m.set("jobs_per_s", run.served.len() as f64 / wall);
    m.set("setup_s", report::median(&setup));
    m.set("peak_rss_mb", report::peak_rss_mb()?);
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
        notes,
        spans: SpanLog::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small mix on a fresh server with a store under the build
    /// directory: the first `slots` slots of the mix, served.
    fn serve_small_mix(name: &str, slots: usize) -> MixRun {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"))
            .join(format!("perfbench-test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("test work dir");
        let shape = MixShape {
            fresh_iters: 600,
            chains: 2,
            exchange_every: 200,
        };
        let mix = Mix::new(7, shape);
        let handle = Server::bind(config(&dir.join("store.aof")))
            .expect("bind")
            .spawn()
            .expect("spawn");
        let addr = handle.addr().to_string();
        let driven = drive(&addr, &mix, 0.0, slots);
        client::shutdown(&addr, &ClientOptions::default()).expect("shutdown");
        handle.join().expect("server thread");
        let _ = std::fs::remove_dir_all(&dir);
        driven.expect("mix served")
    }

    #[test]
    fn the_mix_never_opens_more_than_two_connections() {
        let mix = serve_small_mix("connections", 30);
        assert_eq!(mix.run.served.len(), 30);
        assert!(mix.run.served.iter().all(|j| j.result.is_ok()));
        assert!(
            (1..=CLIENTS).contains(&mix.run.max_connections),
            "{} connections open at once",
            mix.run.max_connections
        );
    }

    #[test]
    fn health_counters_show_the_intended_exact_share() {
        let slots = 12;
        let mix = serve_small_mix("share", slots);
        let delta = |k: &str| mix.after[k] - mix.before[k];
        assert_eq!(delta("jobs_served"), slots as u64);
        // One job in three is an exact repeat, one a warm start.
        assert_eq!(3 * delta("store_exact_hits"), delta("jobs_served"));
        assert_eq!(3 * delta("store_warm_starts"), delta("jobs_served"));
    }

    #[test]
    fn every_triple_of_slots_holds_one_job_of_each_class() {
        let mix = Mix::new(3, SHAPE);
        for triple in 0..50 {
            let mut classes: Vec<Class> = (0..3).map(|k| mix.slot(3 * triple + k).0).collect();
            classes.sort_by_key(|c| *c as u8);
            assert_eq!(classes, [Class::Fresh, Class::Deeper, Class::Exact]);
            for k in 0..3 {
                let (class, pair) = mix.slot(3 * triple + k);
                let want = if class == Class::Fresh {
                    BACKLOG + triple
                } else {
                    triple
                };
                assert_eq!(pair, want);
            }
        }
    }
}
