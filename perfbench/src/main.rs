//! The repository benchmark: four workloads against the public APIs of
//! the rdse crates, end-to-end metrics untraced, per-layer metrics
//! traced. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload motion-chain --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod arch;
mod chain;
mod check;
mod layered;
mod motion;
mod report;
mod search;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: &[&str] = &[
    "motion-chain",
    "layered-portfolio",
    "arch-motion",
    "serve-mix",
];

/// One run's arguments and where it writes.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Files the run needs while it runs (the serve store); removed
    /// when it ends.
    pub work_dir: PathBuf,
    /// Where a traced run writes its spans.
    pub spans: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
                     workloads: motion-chain, layered-portfolio, arch-motion, serve-mix";

fn parse(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    // Files go beside the build output, inside the checkout.
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    let work_dir = target
        .join("perfbench-runs")
        .join(format!("{workload}-{seed}-{}", std::process::id()));
    let spans = target
        .join("perfbench-spans")
        .join(format!("{workload}-seed{seed}.ndjson"));
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace,
        work_dir,
        spans,
    })
}

fn run(ctx: &Ctx) -> Result<report::Outcome, String> {
    match ctx.workload.as_str() {
        "motion-chain" => search::run(&mut motion::MotionChain::default(), ctx),
        "layered-portfolio" => search::run(&mut layered::LayeredPortfolio::default(), ctx),
        "arch-motion" => search::run(&mut arch::ArchMotion::default(), ctx),
        "serve-mix" => serve::run(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = std::fs::create_dir_all(&ctx.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", ctx.work_dir.display()))
        .and_then(|()| run(&ctx));
    // The work directory holds nothing a later run needs.
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    match result {
        Ok(outcome) => {
            if !outcome.spans.spans.is_empty() {
                match outcome.spans.write(&ctx.spans) {
                    Ok(()) => eprintln!("perfbench: spans written to {}", ctx.spans.display()),
                    Err(e) => eprintln!("perfbench: cannot write {}: {e}", ctx.spans.display()),
                }
            }
            print!("{}", report::table(&ctx.workload, &outcome));
            println!("{}", report::result_line(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload);
            ExitCode::FAILURE
        }
    }
}
