//! Pins the [`EvaluatorStats`] counters of fixed-seed delta walks by
//! value.
//!
//! The counters feed the CLI's `--profile` line and the benchmark's
//! per-layer `evaluator.*` metrics, so a change to how the evaluator
//! relabels (certified sweep, full-pass fall-back, initial sync) must
//! either leave them exactly as they are or update these pins on
//! purpose. Each walk uses the production move proposers with
//! coin-flip reverts, like the annealer, and checks every answer
//! against the from-scratch [`evaluate`] before counting it.
//!
//! The arena counters (`arena_growths`, `last_growth_eval`) track
//! allocator capacity, not the relabeling schedule, and are not pinned.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdse_mapping::moves::{propose_impl_move, propose_pair_move};
use rdse_mapping::{evaluate, random_initial, Evaluator, EvaluatorStats, MoveScratch};
use rdse_model::{Architecture, TaskGraph};
use rdse_workloads::{epicure_architecture, layered_dag, motion_detection_app, LayeredDagConfig};

/// Walks `steps` proposals from a random initial mapping and returns
/// the evaluator's counters. Panics if a delta answer (summary or
/// error) differs from the from-scratch reference.
fn walk(app: &TaskGraph, arch: &Architecture, seed: u64, steps: usize) -> EvaluatorStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mapping = random_initial(app, arch, &mut rng);
    let mut evaluator = Evaluator::new(app, arch);
    evaluator
        .evaluate(&mapping)
        .expect("feasible initial mapping");
    let mut scratch = MoveScratch::default();
    for step in 0..steps {
        let outcome = if step % 2 == 0 {
            propose_pair_move(app, arch, &mut mapping, &mut rng, &mut scratch)
        } else {
            propose_impl_move(app, arch, &mut mapping, &mut rng, &mut scratch)
        };
        let Some(outcome) = outcome else { continue };
        let delta = evaluator.evaluate_delta(&mapping, outcome.delta.task());
        let reference = evaluate(app, arch, &mapping).map(|e| e.summary());
        assert_eq!(delta, reference, "delta diverged at step {step}");
        match delta {
            Ok(_) => {
                if rng.random::<bool>() {
                    evaluator.revert_delta();
                    outcome.delta.undo(&mut mapping);
                }
            }
            Err(_) => outcome.delta.undo(&mut mapping),
        }
    }
    evaluator.stats()
}

/// The six relabeling counters, in a fixed order for comparison.
fn counters(s: &EvaluatorStats) -> [u64; 6] {
    [
        s.evaluations,
        s.repairs,
        s.full_passes,
        s.fallbacks,
        s.max_cone,
        s.cone_nodes,
    ]
}

#[test]
fn motion_walk_counters_are_pinned() {
    let app = motion_detection_app();
    let arch = epicure_architecture(2000);
    let got: Vec<[u64; 6]> = [7, 42]
        .into_iter()
        .map(|seed| counters(&walk(&app, &arch, seed, 3000)))
        .collect();
    // [evaluations, repairs, full_passes, fallbacks, max_cone, cone_nodes]
    let want = vec![
        [2342, 1643, 699, 698, 28, 44490],
        [2426, 1653, 773, 772, 28, 43528],
    ];
    assert_eq!(got, want);
}

#[test]
fn layered200_walk_counters_are_pinned() {
    let app = layered_dag(
        &LayeredDagConfig {
            layers: 20,
            width: 10,
            edge_percent: 30,
            hw_percent: 60,
        },
        42,
    );
    let arch = epicure_architecture(4000);
    let got: Vec<[u64; 6]> = [9, 17]
        .into_iter()
        .map(|seed| counters(&walk(&app, &arch, seed, 3000)))
        .collect();
    // [evaluations, repairs, full_passes, fallbacks, max_cone, cone_nodes]
    let want = vec![
        [2690, 1578, 1112, 1111, 200, 203457],
        [2563, 1572, 991, 990, 200, 181569],
    ];
    assert_eq!(got, want);
}
