//! Architecture exploration pinned by value: the m3/m4 co-exploration
//! of `examples/architecture_exploration.rs` (motion, over-provisioned
//! virtex-2000 start, three-FPGA catalog, the 40 ms deadline) at the
//! default 20 000-step budget, on seeds 1/17/42.
//!
//! Same-seed agreement alone cannot catch a change that moves every
//! run the same way; these constants pin the walk itself — the final
//! cost and makespan bits, the selected components, the front size and
//! the annealer's accept/reject/infeasible counts.

use rdse_anneal::{Annealer, LamSchedule, RunOptions};
use rdse_mapping::{explore_architecture, ArchExploreOptions, ArchProblem, ResourceCatalog};
use rdse_model::units::{Clbs, Micros};
use rdse_model::{Architecture, DrlcSpec, ProcessorSpec};
use rdse_workloads::{motion_detection_app, MOTION_DEADLINE};

fn catalog() -> ResourceCatalog {
    ResourceCatalog {
        processors: vec![ProcessorSpec::new("arm922", 10.0)],
        drlcs: vec![
            DrlcSpec::new("virtex-500", Clbs::new(500), Micros::new(22.5), 12.0),
            DrlcSpec::new("virtex-1000", Clbs::new(1000), Micros::new(22.5), 20.0),
            DrlcSpec::new("virtex-2000", Clbs::new(2000), Micros::new(22.5), 35.0),
        ],
        asics: vec![],
    }
}

fn over_provisioned() -> Architecture {
    Architecture::builder("over-provisioned")
        .processor("arm922", 10.0)
        .drlc("virtex-2000", Clbs::new(2000), Micros::new(22.5), 35.0)
        .bus_rate(25.0)
        .build()
        .expect("valid architecture")
}

fn options(seed: u64) -> ArchExploreOptions {
    ArchExploreOptions {
        seed,
        deadline: MOTION_DEADLINE,
        ..ArchExploreOptions::default()
    }
}

/// Component names in architecture order: processors, DRLCs, ASICs.
fn components(arch: &Architecture) -> String {
    let names: Vec<&str> = arch
        .processors()
        .iter()
        .map(|p| p.name())
        .chain(arch.drlcs().iter().map(|d| d.name()))
        .chain(arch.asics().iter().map(|a| a.name()))
        .collect();
    names.join(",")
}

/// `(seed, cost bits, makespan bits, components, front length)`.
type PinnedOutcome = (u64, u64, u64, &'static str, usize);

/// `(seed, accepted, rejected, infeasible)`.
type PinnedCounts = (u64, u64, u64, u64);

const PINNED_OUTCOMES: [PinnedOutcome; 3] = [
    (
        1,
        0x4052c15715b8b1c6,
        0x40d4730f3176a30a,
        "arm922,arm922,virtex-2000,virtex-1000",
        4,
    ),
    (
        17,
        0x4051814e31ae31bc,
        0x40d3eb65903e5d76,
        "arm922,arm922,arm922,virtex-1000,virtex-1000",
        4,
    ),
    (
        42,
        0x404a02ec7a703c0f,
        0x40d64e6fa188398b,
        "arm922,arm922,virtex-1000,virtex-500",
        2,
    ),
];

const PINNED_COUNTS: [PinnedCounts; 3] = [
    (1, 5080, 7678, 7242),
    (17, 5522, 7455, 7023),
    (42, 6321, 7061, 6618),
];

#[test]
fn explore_architecture_is_pinned_by_value() {
    let app = motion_detection_app();
    let catalog = catalog();
    let outcomes = PINNED_OUTCOMES.map(|(seed, ..)| {
        let out = explore_architecture(&app, over_provisioned(), &catalog, &options(seed))
            .expect("motion explores");
        let names = components(&out.architecture);
        (
            seed,
            out.cost.to_bits(),
            out.evaluation.makespan.value().to_bits(),
            names,
            out.front.len(),
        )
    });
    let printed: Vec<_> = outcomes
        .iter()
        .map(|(s, c, m, n, f)| format!("({s}, {c:#x}, {m:#x}, \"{n}\", {f})"))
        .collect();
    for ((seed, cost, makespan, names, front), pinned) in outcomes.iter().zip(PINNED_OUTCOMES) {
        assert_eq!(
            (*seed, *cost, *makespan, names.as_str(), *front),
            pinned,
            "seed {seed}; all: {printed:?}"
        );
    }
}

#[test]
fn annealer_counts_on_arch_problem_are_pinned() {
    // The traced path: the same walk driven through `Annealer` +
    // `ArchProblem` directly, which exposes the run counters.
    let app = motion_detection_app();
    let catalog = catalog();
    let counts = PINNED_COUNTS.map(|(seed, ..)| {
        let opts = options(seed);
        let problem = ArchProblem::new(&app, over_provisioned(), &catalog, opts.clone())
            .expect("feasible start");
        let mut annealer = Annealer::new(
            problem,
            LamSchedule::new(opts.lambda),
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
        let front = run.front.expect("front tracking is on");
        // The traced path ends where `explore_architecture` does.
        let direct = explore_architecture(&app, over_provisioned(), &catalog, &opts)
            .expect("motion explores");
        let out = problem.into_outcome(front);
        assert_eq!(out.cost.to_bits(), direct.cost.to_bits(), "seed {seed}");
        assert_eq!(out.architecture, direct.architecture, "seed {seed}");
        assert_eq!(out.mapping, direct.mapping, "seed {seed}");
        (seed, run.accepted, run.rejected, run.infeasible)
    });
    assert_eq!(counts, PINNED_COUNTS);
}
