//! Property-based tests: the move engine must preserve every invariant
//! under arbitrary random walks, and the cached evaluation must always
//! agree with a from-scratch evaluation.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdse_anneal::Problem;
use rdse_mapping::moves::{propose_impl_move, propose_pair_move};
use rdse_mapping::{
    evaluate, random_initial, ArchExploreOptions, ArchProblem, Cost, Evaluator, MappingProblem,
    MoveScratch, ResourceCatalog,
};
use rdse_model::units::{Bytes, Clbs, Micros};
use rdse_model::{Architecture, AsicSpec, DrlcSpec, HwImpl, ProcessorSpec, TaskGraph};

/// Builds a random layered application from a compact recipe.
fn build_app(n_tasks: usize, edge_density: u8, hw_seed: u64) -> TaskGraph {
    let mut app = TaskGraph::new("prop");
    let mut rng = StdRng::seed_from_u64(hw_seed);
    for i in 0..n_tasks {
        let n_impls = rng.random_range(0..4usize);
        let impls = (0..n_impls)
            .map(|_| {
                HwImpl::new(
                    Clbs::new(rng.random_range(20..200)),
                    Micros::new(rng.random_range(1.0..50.0)),
                )
            })
            .collect();
        app.add_task(
            format!("t{i}"),
            "F",
            Micros::new(rng.random_range(10.0..500.0)),
            impls,
        )
        .expect("valid task");
    }
    for a in 0..n_tasks {
        for b in (a + 1)..n_tasks {
            if rng.random_range(0..100) < edge_density as u32 {
                app.add_data_edge(
                    rdse_model::TaskId(a as u32),
                    rdse_model::TaskId(b as u32),
                    Bytes::new(rng.random_range(1..5000)),
                )
                .expect("valid edge");
            }
        }
    }
    app
}

fn arch(clbs: u32) -> Architecture {
    Architecture::builder("soc")
        .processor("cpu", 1.0)
        .drlc("fpga", Clbs::new(clbs), Micros::new(5.0), 1.0)
        .bus_rate(50.0)
        .build()
        .expect("valid architecture")
}

/// The m4 component library: a processor, two DRLC sizes and an ASIC.
fn catalog() -> ResourceCatalog {
    ResourceCatalog {
        processors: vec![ProcessorSpec::new("cpu", 10.0)],
        drlcs: vec![
            DrlcSpec::new("small", Clbs::new(150), Micros::new(2.0), 15.0),
            DrlcSpec::new("big", Clbs::new(500), Micros::new(5.0), 40.0),
        ],
        asics: vec![AsicSpec::new("asic", 25.0)],
    }
}

/// The architecture × mapping state of `problem` scores exactly as a
/// from-scratch evaluation, and the mapping fits the architecture.
fn check_arch_state(
    app: &TaskGraph,
    problem: &ArchProblem<'_>,
    seed: u64,
    step: u32,
) -> Result<(), String> {
    let (arch, mapping) = (problem.architecture(), problem.mapping());
    mapping
        .validate(app, arch)
        .map_err(|e| format!("walk seed {seed}, step {step}: invalid mapping: {e}"))?;
    let fresh = evaluate(app, arch, mapping)
        .map_err(|e| format!("walk seed {seed}, step {step}: infeasible state: {e}"))?;
    prop_assert_eq!(
        problem.cost().makespan.to_bits(),
        fresh.makespan.value().to_bits(),
        "walk seed {seed}, step {step}: makespan bits"
    );
    prop_assert_eq!(
        problem.cost().system_cost.to_bits(),
        arch.total_cost().to_bits(),
        "walk seed {seed}, step {step}: system cost bits"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arch_walks_score_like_from_scratch_evaluation(
        n_tasks in 3usize..14,
        density in 5u8..40,
        seed in 0u64..1_000_000,
        clbs in 100u32..600,
    ) {
        // Random walks over all three move classes — pair moves,
        // implementation moves and m3/m4 resource moves — with random
        // undos: after every step the incremental summary equals a
        // from-scratch evaluation to the bit.
        let app = build_app(n_tasks, density, seed);
        let catalog = catalog();
        let opts = ArchExploreOptions {
            seed,
            deadline: Micros::new(1_000.0),
            ..ArchExploreOptions::default()
        };
        let mut problem = ArchProblem::new(&app, arch(clbs), &catalog, opts)
            .map_err(|e| format!("walk seed {seed}: infeasible start: {e}"))?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA4C8);
        let mut resized = false;
        for step in 0..300u32 {
            let class = rng.random_range(0..3usize);
            let before = problem.cost();
            if let Some((mv, cost)) = problem.try_move(&mut rng, class) {
                prop_assert_eq!(cost, problem.cost(), "walk seed {seed}, step {step}");
                check_arch_state(&app, &problem, seed, step)?;
                resized |= class == 2;
                if rng.random::<bool>() {
                    problem.undo(mv);
                    prop_assert_eq!(problem.cost(), before, "walk seed {seed}, undo {step}");
                    check_arch_state(&app, &problem, seed, step)?;
                }
            } else {
                prop_assert_eq!(problem.cost(), before, "walk seed {seed}, step {step}");
            }
        }
        prop_assert!(resized, "walk seed {seed}: no resource move applied");
    }

    #[test]
    fn retargeting_away_and_back_matches_a_fresh_evaluator(
        n_tasks in 3usize..14,
        density in 5u8..40,
        seed in 0u64..1_000_000,
        clbs in 100u32..600,
    ) {
        // A → B → A: the retargeted evaluator scores A's mapping, and a
        // delta walk on it, bit-identically to a fresh evaluator on A.
        let app = build_app(n_tasks, density, seed);
        let a = arch(clbs);
        let b = Architecture::builder("b")
            .processor("cpu0", 1.0)
            .processor("cpu1", 1.0)
            .drlc("fpga0", Clbs::new(clbs / 2 + 20), Micros::new(3.0), 1.0)
            .drlc("fpga1", Clbs::new(clbs + 50), Micros::new(7.5), 1.0)
            .asic("asic", 1.0)
            .bus_rate(20.0)
            .build()
            .expect("valid architecture");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7A6E);
        let mut mapping = random_initial(&app, &a, &mut rng);
        let on_b = random_initial(&app, &b, &mut rng);
        let mut retargeted = Evaluator::new(&app, &a);
        retargeted.evaluate(&mapping).expect("feasible on A");
        retargeted.retarget(&b);
        prop_assert!(!retargeted.is_synced(), "walk seed {seed}: retarget left it synced");
        let summary_b = retargeted.evaluate(&on_b).expect("feasible on B");
        let fresh_b = evaluate(&app, &b, &on_b).expect("feasible on B");
        prop_assert_eq!(summary_b, fresh_b.summary(), "walk seed {seed}: on B");
        retargeted.retarget(&a);
        let mut fresh = Evaluator::new(&app, &a);
        let (got, want) = (retargeted.evaluate(&mapping), fresh.evaluate(&mapping));
        prop_assert_eq!(
            got.as_ref().map(|s| s.makespan.value().to_bits()),
            want.as_ref().map(|s| s.makespan.value().to_bits()),
            "walk seed {seed}: back on A"
        );
        prop_assert_eq!(got, want, "walk seed {seed}: back on A");
        let mut scratch = MoveScratch::default();
        for step in 0..100u32 {
            let outcome = if step % 2 == 0 {
                propose_pair_move(&app, &a, &mut mapping, &mut rng, &mut scratch)
            } else {
                propose_impl_move(&app, &a, &mut mapping, &mut rng, &mut scratch)
            };
            let Some(outcome) = outcome else { continue };
            let task = outcome.delta.task();
            let (got, want) = (
                retargeted.evaluate_delta(&mapping, task),
                fresh.evaluate_delta(&mapping, task),
            );
            prop_assert_eq!(got, want, "walk seed {seed}, step {step}");
            match got {
                Ok(_) if rng.random::<bool>() => {
                    retargeted.revert_delta();
                    fresh.revert_delta();
                    outcome.delta.undo(&mut mapping);
                }
                Ok(_) => {}
                Err(_) => outcome.delta.undo(&mut mapping),
            }
        }
    }

    #[test]
    fn random_walks_preserve_all_invariants(
        n_tasks in 3usize..16,
        density in 5u8..40,
        seed in 0u64..1_000_000,
        clbs in 100u32..600,
    ) {
        let app = build_app(n_tasks, density, seed);
        let arch = arch(clbs);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let initial = random_initial(&app, &arch, &mut rng);
        let mut problem = MappingProblem::new(&app, &arch, initial)
            .expect("initial solution feasible");
        for step in 0..200u32 {
            let class = (step % 2) as usize;
            if let Some((mv, new_cost)) = problem.try_move(&mut rng, class) {
                // Cached cost equals a fresh evaluation.
                let fresh = evaluate(&app, &arch, problem.mapping()).expect("feasible");
                prop_assert!((fresh.makespan.value() - new_cost.scalar()).abs() < 1e-9);
                problem.mapping().validate(&app, &arch).expect("valid after move");
                if step % 3 == 0 {
                    let cost_before = problem.cost();
                    problem.undo(mv);
                    prop_assert!(problem.cost().scalar() <= cost_before.scalar() + 1e9); // sanity
                    let fresh = evaluate(&app, &arch, problem.mapping()).expect("feasible");
                    prop_assert!((fresh.makespan.value() - problem.cost().scalar()).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn makespan_never_below_critical_path_lower_bound(
        n_tasks in 3usize..12,
        density in 5u8..40,
        seed in 0u64..1_000_000,
    ) {
        let app = build_app(n_tasks, density, seed);
        let arch = arch(400);
        let mut rng = StdRng::seed_from_u64(seed);
        // Lower bound: every task needs at least its fastest execution.
        let fastest: f64 = app
            .tasks()
            .map(|(_, t)| {
                t.fastest_hw()
                    .map(|i| i.time().value().min(t.sw_time().value()))
                    .unwrap_or(t.sw_time().value())
            })
            .fold(0.0, f64::max);
        for _ in 0..10 {
            let m = random_initial(&app, &arch, &mut rng);
            let eval = evaluate(&app, &arch, &m).expect("feasible");
            prop_assert!(eval.makespan.value() + 1e-9 >= fastest);
        }
    }

    #[test]
    fn move_delta_undo_is_bit_identical(
        n_tasks in 3usize..16,
        density in 5u8..40,
        seed in 0u64..1_000_000,
        clbs in 100u32..600,
    ) {
        // For random move sequences, applying a MoveDelta's undo must
        // leave the mapping bit-identical (full structural equality,
        // including processor-order positions and context task slots)
        // to a clone taken before the move.
        let app = build_app(n_tasks, density, seed);
        let arch = arch(clbs);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut scratch = MoveScratch::default();
        let mut mapping = random_initial(&app, &arch, &mut rng);
        for step in 0..300u32 {
            let before = mapping.clone();
            let outcome = if step % 2 == 0 {
                propose_pair_move(&app, &arch, &mut mapping, &mut rng, &mut scratch)
            } else {
                propose_impl_move(&app, &arch, &mut mapping, &mut rng, &mut scratch)
            };
            match outcome {
                None => prop_assert_eq!(&mapping, &before, "None must leave mapping unchanged"),
                Some(out) => {
                    // Undo on a scratch copy restores bit-identity...
                    let mut undone = mapping.clone();
                    out.delta.undo(&mut undone);
                    prop_assert_eq!(&undone, &before, "delta undo diverged at step {}", step);
                    // ...and the walk continues from the applied state
                    // (undoing every other move to cover redo-after-undo).
                    if step % 3 == 0 {
                        out.delta.undo(&mut mapping);
                        prop_assert_eq!(&mapping, &before);
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_evaluation_matches_from_scratch(
        n_tasks in 3usize..16,
        density in 5u8..40,
        seed in 0u64..1_000_000,
        clbs in 100u32..600,
    ) {
        // On every accepted state of a random walk, the arena-backed
        // Evaluator must return the same summary — makespan to the bit
        // — as a from-scratch evaluate() of the same mapping.
        let app = build_app(n_tasks, density, seed);
        let arch = arch(clbs);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCAFE);
        let initial = random_initial(&app, &arch, &mut rng);
        let mut evaluator = Evaluator::new(&app, &arch);
        let mut problem = MappingProblem::new(&app, &arch, initial)
            .expect("initial solution feasible");
        for step in 0..200u32 {
            let class = (step % 2) as usize;
            if let Some((mv, new_cost)) = problem.try_move(&mut rng, class) {
                let summary = evaluator.evaluate(problem.mapping()).expect("feasible");
                let fresh = evaluate(&app, &arch, problem.mapping()).expect("feasible");
                prop_assert_eq!(
                    summary.makespan.value().to_bits(),
                    fresh.makespan.value().to_bits()
                );
                prop_assert_eq!(summary, fresh.summary());
                prop_assert_eq!(new_cost.scalar().to_bits(), fresh.makespan.value().to_bits());
                if step % 3 == 0 {
                    problem.undo(mv);
                    let fresh = evaluate(&app, &arch, problem.mapping()).expect("feasible");
                    prop_assert_eq!(problem.cost().scalar().to_bits(), fresh.makespan.value().to_bits());
                }
            }
        }
        // The walk warmed the arenas: steady state is allocation-free.
        prop_assert!(evaluator.stats().arenas_warm() || evaluator.stats().evaluations == 0);
    }

    #[test]
    fn snapshot_restore_roundtrip(
        n_tasks in 3usize..10,
        seed in 0u64..1_000_000,
    ) {
        let app = build_app(n_tasks, 20, seed);
        let arch = arch(300);
        let mut rng = StdRng::seed_from_u64(seed);
        let initial = random_initial(&app, &arch, &mut rng);
        let mut problem = MappingProblem::new(&app, &arch, initial)
            .expect("feasible");
        let snap = problem.snapshot();
        let cost0 = problem.cost();
        for step in 0..50u32 {
            let _ = problem.try_move(&mut rng, (step % 2) as usize);
        }
        problem.restore(&snap);
        prop_assert_eq!(problem.cost(), cost0);
        problem.mapping().validate(&app, &arch).expect("valid after restore");
    }
}
