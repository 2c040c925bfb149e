//! Cross-crate integration tests: the complete tool on the paper's
//! benchmark, cross-validated by the simulator and compared against
//! the baselines.

use rdse::baseline::{random_search, GaOptions, GeneticExplorer};
use rdse::mapping::{
    evaluate, explore, explore_parallel, ChainStats, ExploreOptions, GanttChart, ParallelOptions,
};
use rdse::model::{Architecture, TaskGraph};
use rdse::sim::{simulate, SimConfig};
use rdse::workloads::{epicure_architecture, motion_detection_app, MOTION_DEADLINE};

fn explore_motion(clbs: u32, seed: u64) -> rdse::mapping::ExploreOutcome {
    let app = motion_detection_app();
    let arch = epicure_architecture(clbs);
    explore(
        &app,
        &arch,
        &ExploreOptions {
            max_iterations: 5_000,
            warmup_iterations: 1_200,
            seed,
            ..ExploreOptions::default()
        },
    )
    .expect("motion benchmark explores cleanly")
}

#[test]
fn paper_protocol_meets_the_constraint_at_2000_clbs() {
    let out = explore_motion(2000, 1);
    assert!(
        out.evaluation.makespan <= MOTION_DEADLINE,
        "constraint missed: {}",
        out.evaluation.makespan
    );
    // Strong improvement over all-software (76.4 ms).
    assert!(out.evaluation.makespan.as_millis() < 35.0);
    assert!(out.evaluation.n_hw_tasks >= 5);
}

#[test]
fn explored_solution_survives_des_validation() {
    let app = motion_detection_app();
    let arch = epicure_architecture(2000);
    let out = explore_motion(2000, 3);
    let analytic = evaluate(&app, &arch, &out.mapping).expect("feasible");
    let des = simulate(&app, &arch, &out.mapping, &SimConfig::contention_free())
        .expect("simulates cleanly");
    assert!((des.makespan.value() - analytic.makespan.value()).abs() < 1e-6);
    let contended = simulate(&app, &arch, &out.mapping, &SimConfig::with_contention())
        .expect("simulates cleanly");
    assert!(contended.makespan.value() >= des.makespan.value() - 1e-6);
}

#[test]
fn annealer_beats_ga_and_random_search() {
    let app = motion_detection_app();
    let arch = epicure_architecture(2000);
    let sa = explore_motion(2000, 1);
    let ga = GeneticExplorer::new(
        &app,
        &arch,
        GaOptions {
            population: 100,
            generations: 60,
            stall_generations: 20,
            seed: 1,
            ..GaOptions::default()
        },
    )
    .run()
    .expect("GA runs cleanly");
    let (_, rs) = random_search(&app, &arch, 3_000, 1).expect("random search runs");

    // The §5 ordering: SA best < GA best, and both crush random search.
    assert!(
        sa.evaluation.makespan <= ga.evaluation.makespan,
        "SA {} vs GA {}",
        sa.evaluation.makespan,
        ga.evaluation.makespan
    );
    assert!(ga.evaluation.makespan < rs.makespan);
}

#[test]
fn model_roundtrip_through_files_preserves_exploration() {
    let dir = std::env::temp_dir().join("rdse_e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let app_path = dir.join("app.json");
    let arch_path = dir.join("arch.json");
    motion_detection_app().save(&app_path).expect("save app");
    epicure_architecture(1500)
        .save(&arch_path)
        .expect("save arch");

    let app = TaskGraph::load(&app_path).expect("load app");
    let arch = Architecture::load(&arch_path).expect("load arch");
    assert_eq!(app.n_tasks(), 28);
    let out = explore(
        &app,
        &arch,
        &ExploreOptions {
            max_iterations: 2_000,
            warmup_iterations: 400,
            seed: 5,
            ..ExploreOptions::default()
        },
    )
    .expect("explores after roundtrip");
    out.mapping.validate(&app, &arch).expect("valid");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn solution_space_counts_match_the_paper() {
    use rdse::graph::{binomial, count_linear_extensions, parallel_chain_orders};
    let app = motion_detection_app();
    let g = app.precedence_graph();
    assert_eq!(count_linear_extensions(&g, None), Some(348_840));
    assert_eq!(3 * parallel_chain_orders(&[7, 14]), 348_840);
    // Combination counts quoted in §5.
    assert_eq!(348_840 * binomial(28, 2), 131_861_520);
    assert_eq!(348_840 * binomial(28, 4), 7_142_499_000);
    assert_eq!(binomial(28, 2), 378);
    assert_eq!(binomial(28, 6), 376_740);
}

#[test]
fn gantt_chart_is_renderable_for_explored_solutions() {
    let app = motion_detection_app();
    let arch = epicure_architecture(2000);
    let out = explore_motion(2000, 9);
    let chart = GanttChart::extract(&app, &arch, &out.mapping, &out.evaluation);
    assert_eq!(chart.tasks.len(), 28);
    let art = chart.render_ascii(&app, &arch, 100);
    assert!(art.contains("proc0"));
    assert!(art.contains("drlc0"));
}

#[test]
fn runs_are_fast_enough_for_the_interactive_claim() {
    // The paper claims < 10 s per run on 2005 hardware; a release-mode
    // run takes milliseconds here, but even a debug-mode run must stay
    // well under the paper's budget.
    let start = std::time::Instant::now();
    let _ = explore_motion(2000, 11);
    assert!(
        start.elapsed().as_secs() < 10,
        "run took {:?}",
        start.elapsed()
    );
}

#[test]
fn same_seed_is_bit_identical() {
    // Determinism regression: the entire pipeline (initialization,
    // annealing schedule, move selection, evaluation) must be a pure
    // function of the seed. Compare makespans at the bit level — an
    // "approximately equal" determinism test would mask RNG drift.
    let a = explore_motion(2000, 17);
    let b = explore_motion(2000, 17);
    assert_eq!(
        a.evaluation.makespan.value().to_bits(),
        b.evaluation.makespan.value().to_bits(),
        "makespan differs between identical runs: {} vs {}",
        a.evaluation.makespan,
        b.evaluation.makespan
    );
    assert_eq!(a.evaluation.n_contexts, b.evaluation.n_contexts);
    assert_eq!(
        a.mapping, b.mapping,
        "mapping differs between identical runs"
    );
}

/// The walk on the golden seeds, pinned by value: `(seed, makespan
/// bits, best-cost bits, accepted, rejected, infeasible)`.
type PinnedWalk = (u64, u64, u64, u64, u64, u64);

/// One chain on Epicure 2000 at 3 000 iterations / 600 warm-up.
const PINNED_SINGLE_CHAIN: [PinnedWalk; 3] = [
    (1, 0x40dce9b8e0c0326e, 0x40dce9b8e0c0326e, 359, 1346, 1295),
    (17, 0x40e0729eb20e0ce9, 0x40e0729eb20e0ce9, 354, 1278, 1368),
    (42, 0x40dc3198baef22e9, 0x40dc3198baef22e9, 330, 1370, 1300),
];

/// Four chains exchanging every 250 iterations (the CI smoke config,
/// whose `makespan bits` line prints seed 1's value); the counts are
/// summed over the chains.
const PINNED_FOUR_CHAINS: [PinnedWalk; 3] = [
    (1, 0x40dcd2ffc99cb98a, 0x40dcd2ffc99cb98a, 605, 1267, 1128),
    (17, 0x40dc2322e8161b6d, 0x40dc2322e8161b6d, 557, 1273, 1170),
    (42, 0x40dc54d5648d7da1, 0x40dc54d5648d7da1, 557, 1284, 1159),
];

#[test]
fn golden_seed_walks_are_pinned_by_value() {
    // Same-seed agreement alone cannot catch a change that moves every
    // run the same way; these constants pin the walk itself.
    let app = motion_detection_app();
    let arch = epicure_architecture(2000);
    let base = |seed| ExploreOptions {
        max_iterations: 3_000,
        warmup_iterations: 600,
        seed,
        ..ExploreOptions::default()
    };
    let single = PINNED_SINGLE_CHAIN.map(|(seed, ..)| {
        let out = explore(&app, &arch, &base(seed)).expect("motion explores");
        (
            seed,
            out.evaluation.makespan.value().to_bits(),
            out.run.best_cost.to_bits(),
            out.run.accepted,
            out.run.rejected,
            out.run.infeasible,
        )
    });
    let four = PINNED_FOUR_CHAINS.map(|(seed, ..)| {
        let opts = ParallelOptions {
            base: base(seed),
            chains: 4,
            threads: 2,
            exchange_every: 250,
            ..ParallelOptions::default()
        };
        let out = explore_parallel(&app, &arch, &opts).expect("motion explores");
        let sum = |count: fn(&ChainStats) -> u64| out.chains.iter().map(count).sum::<u64>();
        (
            seed,
            out.evaluation.makespan.value().to_bits(),
            out.chains[out.winner].run.best_cost.to_bits(),
            sum(|c| c.run.accepted),
            sum(|c| c.run.rejected),
            sum(|c| c.run.infeasible),
        )
    });
    assert_eq!(single, PINNED_SINGLE_CHAIN, "one chain");
    assert_eq!(four, PINNED_FOUR_CHAINS, "four chains");
}

#[test]
fn different_seeds_explore_different_solutions() {
    let a = explore_motion(2000, 21);
    let b = explore_motion(2000, 22);
    // Mappings almost surely differ (costs may coincide at the optimum).
    assert!(a.mapping != b.mapping || a.evaluation.makespan == b.evaluation.makespan);
}
