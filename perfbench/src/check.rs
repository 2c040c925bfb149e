//! Output checks, run outside the timed window. The from-scratch
//! evaluator and the discrete-event simulator are reference paths: they
//! judge results and are never timed.

use rdse_mapping::Mapping;
use rdse_model::{Architecture, TaskGraph};
use rdse_sim::{simulate, SimConfig};

/// Re-evaluates `mapping` with the from-scratch `evaluate` and the
/// contention-free simulator; both makespans must carry `makespan_bits`.
pub fn mapping_matches(
    app: &TaskGraph,
    arch: &Architecture,
    mapping: &Mapping,
    makespan_bits: u64,
) -> Result<(), String> {
    let reference = rdse_mapping::evaluate(app, arch, mapping)
        .map_err(|e| format!("from-scratch evaluation failed: {e}"))?;
    let reference_bits = reference.makespan.value().to_bits();
    if reference_bits != makespan_bits {
        return Err(format!(
            "from-scratch makespan {reference_bits:016x} != reported {makespan_bits:016x}"
        ));
    }
    let des = simulate(app, arch, mapping, &SimConfig::contention_free())
        .map_err(|e| format!("simulation failed: {e}"))?;
    let des_bits = des.makespan.value().to_bits();
    if des_bits != makespan_bits {
        return Err(format!(
            "simulated makespan {des_bits:016x} != reported {makespan_bits:016x}"
        ));
    }
    Ok(())
}

/// Attempted and failed counts of a run's jobs and checks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one attempt; a failure is reported on stderr.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: {what}: {e}");
        }
    }
}

/// `Err` naming both values when two bit patterns differ.
pub fn same_bits(what: &str, a: u64, b: u64) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: {a:016x} != {b:016x}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdse_mapping::{explore, ExploreOptions};
    use rdse_workloads::{epicure_architecture, motion_detection_app};

    #[test]
    fn an_injected_oracle_mismatch_counts_as_a_failure() {
        let app = motion_detection_app();
        let arch = epicure_architecture(2000);
        let out = explore(
            &app,
            &arch,
            &ExploreOptions {
                max_iterations: 2_000,
                warmup_iterations: 400,
                seed: 3,
                ..ExploreOptions::default()
            },
        )
        .expect("motion explores");
        let bits = out.evaluation.makespan.value().to_bits();
        let mut tally = Tally::default();
        tally.record("honest", mapping_matches(&app, &arch, &out.mapping, bits));
        assert_eq!(
            tally,
            Tally {
                attempted: 1,
                failed: 0
            }
        );
        // One ulp off: the smallest mismatch the oracle must still see.
        tally.record(
            "injected",
            mapping_matches(&app, &arch, &out.mapping, bits + 1),
        );
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
        tally.record("injected", same_bits("bits", 1, 2));
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
    }
}
