//! Solution evaluation (§4.4) and the cost breakdown used by Fig. 3.

use crate::error::MappingError;
use crate::searchgraph::SearchGraph;
use crate::solution::Mapping;
use rdse_model::units::{Clbs, Micros};
use rdse_model::{Architecture, TaskGraph, TaskId};

/// The additive decomposition annotated on Fig. 3 of the paper:
/// "Execution time = reconfiguration time (initial + dynamic) +
/// computation and communication time".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalBreakdown {
    /// Time to load the first context of each device (`tR·nCLB(C₁)`).
    pub initial_reconfig: Micros,
    /// Total reconfiguration time of the remaining contexts.
    pub dynamic_reconfig: Micros,
    /// Everything else (makespan minus total reconfiguration, floored
    /// at zero — reconfiguration overlapped with processor work can
    /// make the subtraction conservative).
    pub computation_communication: Micros,
}

/// The cheap scalar summary of an evaluation — everything the
/// annealing hot path needs (cost, observables), nothing it does not.
///
/// `Copy`: keeping, undoing or snapshotting a summary is a register
/// move, unlike the heavyweight per-task trace of [`Evaluation`]
/// (starts, completions, critical path) which is computed on demand
/// for reports via [`evaluate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalSummary {
    /// Longest path of the search graph — the system execution time.
    pub makespan: Micros,
    /// Total number of contexts allocated (Fig. 2/3 series).
    pub n_contexts: usize,
    /// Number of tasks placed in hardware.
    pub n_hw_tasks: usize,
    /// Peak CLB occupancy over all contexts of all devices — the
    /// smallest device capacity that could host this mapping, i.e. the
    /// FPGA-area objective of the multi-objective cost vector. Zero
    /// for an all-software mapping.
    pub clb_area: Clbs,
    /// Cost decomposition for the Fig. 3 series.
    pub breakdown: EvalBreakdown,
}

/// Full evaluation of one mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Longest path of the search graph — the system execution time.
    pub makespan: Micros,
    /// ASAP completion time of every task.
    pub completions: Vec<Micros>,
    /// ASAP start time of every task.
    pub starts: Vec<Micros>,
    /// Tasks on one critical path, in execution order.
    pub critical_tasks: Vec<TaskId>,
    /// Total number of contexts allocated (Fig. 2/3 series).
    pub n_contexts: usize,
    /// Number of tasks placed in hardware.
    pub n_hw_tasks: usize,
    /// Peak CLB occupancy over all contexts (see
    /// [`EvalSummary::clb_area`]).
    pub clb_area: Clbs,
    /// Cost decomposition for the Fig. 3 series.
    pub breakdown: EvalBreakdown,
}

impl Evaluation {
    /// The scalar summary of this evaluation (drops the per-task
    /// trace).
    pub fn summary(&self) -> EvalSummary {
        EvalSummary {
            makespan: self.makespan,
            n_contexts: self.n_contexts,
            n_hw_tasks: self.n_hw_tasks,
            clb_area: self.clb_area,
            breakdown: self.breakdown,
        }
    }
}

/// Evaluates `mapping`: checks capacity, builds the search graph and
/// computes its longest path.
///
/// # Errors
///
/// Returns [`MappingError::CapacityExceeded`] when a context overflows
/// its device and [`MappingError::CyclicSchedule`] when the imposed
/// orders contradict the precedence graph.
///
/// # Examples
///
/// ```
/// use rdse_mapping::{evaluate, Mapping};
/// use rdse_model::{Architecture, TaskGraph};
/// use rdse_model::units::{Clbs, Micros};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut app = TaskGraph::new("one");
/// let t = app.add_task("t", "F", Micros::new(7.0), vec![])?;
/// let arch = Architecture::builder("a").processor("p", 1.0).build()?;
/// let m = Mapping::all_software(&app, &arch, vec![t]);
/// let eval = evaluate(&app, &arch, &m)?;
/// assert_eq!(eval.makespan, Micros::new(7.0));
/// # Ok(())
/// # }
/// ```
pub fn evaluate(
    app: &TaskGraph,
    arch: &Architecture,
    mapping: &Mapping,
) -> Result<Evaluation, MappingError> {
    // Capacity check first: a context overflow is infeasible regardless
    // of ordering. The same pass records the peak context occupancy —
    // the clb_area objective.
    let mut clb_area = Clbs::new(0);
    for (d, spec) in arch.drlcs().iter().enumerate() {
        for c in 0..mapping.contexts(d).len() {
            let used = mapping.context_clbs(app, d, c);
            if used > spec.n_clbs() {
                return Err(MappingError::CapacityExceeded {
                    drlc: d,
                    context: c,
                });
            }
            clb_area = clb_area.max(used);
        }
    }

    let sg = SearchGraph::build(app, arch, mapping);
    let lp = sg.longest_path()?;

    let n = app.n_tasks();
    let mut completions = Vec::with_capacity(n);
    let mut starts = Vec::with_capacity(n);
    for t in app.task_ids() {
        let c = lp.completion(t.node());
        completions.push(Micros::new(c));
        starts.push(Micros::new(c - mapping.exec_time(app, t).value()));
    }

    let mut initial_reconfig = Micros::ZERO;
    let mut dynamic_reconfig = Micros::ZERO;
    for (d, spec) in arch.drlcs().iter().enumerate() {
        for c in 0..mapping.contexts(d).len() {
            let r = spec.reconfiguration_time(mapping.context_clbs(app, d, c));
            if c == 0 {
                initial_reconfig += r;
            } else {
                dynamic_reconfig += r;
            }
        }
    }

    let makespan = Micros::new(lp.makespan());
    let comp_comm =
        Micros::new((lp.makespan() - initial_reconfig.value() - dynamic_reconfig.value()).max(0.0));

    let critical_tasks = lp
        .critical_path()
        .into_iter()
        .filter(|v| v.index() < n)
        .map(TaskId::from)
        .collect();

    Ok(Evaluation {
        makespan,
        completions,
        starts,
        critical_tasks,
        n_contexts: mapping.n_contexts(),
        n_hw_tasks: mapping.hw_tasks().count(),
        clb_area,
        breakdown: EvalBreakdown {
            initial_reconfig,
            dynamic_reconfig,
            computation_communication: comp_comm,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdse_model::units::{Bytes, Clbs};
    use rdse_model::HwImpl;

    fn us(v: f64) -> Micros {
        Micros::new(v)
    }

    fn fixture() -> (TaskGraph, Architecture) {
        let mut app = TaskGraph::new("fx");
        let a = app
            .add_task(
                "a",
                "F",
                us(10.0),
                vec![HwImpl::new(Clbs::new(100), us(2.0))],
            )
            .unwrap();
        let b = app
            .add_task(
                "b",
                "G",
                us(20.0),
                vec![HwImpl::new(Clbs::new(150), us(3.0))],
            )
            .unwrap();
        let c = app.add_task("c", "H", us(5.0), vec![]).unwrap();
        app.add_data_edge(a, b, Bytes::new(1000)).unwrap();
        app.add_data_edge(b, c, Bytes::new(2000)).unwrap();
        let arch = Architecture::builder("soc")
            .processor("cpu", 1.0)
            .drlc("fpga", Clbs::new(200), us(0.1), 1.0)
            .bus_rate(100.0)
            .build()
            .unwrap();
        (app, arch)
    }

    fn topo(app: &TaskGraph) -> Vec<TaskId> {
        rdse_graph::topo_sort(&app.precedence_graph())
            .unwrap()
            .into_iter()
            .map(TaskId::from)
            .collect()
    }

    #[test]
    fn breakdown_splits_reconfig() {
        let (app, arch) = fixture();
        let mut m = Mapping::all_software(&app, &arch, topo(&app));
        m.detach(TaskId(0));
        m.insert_new_context(TaskId(0), 0, 0, 0); // 100 CLBs -> 10 µs initial
        m.detach(TaskId(1));
        m.insert_new_context(TaskId(1), 0, 1, 0); // 150 CLBs -> 15 µs dynamic
        let e = evaluate(&app, &arch, &m).unwrap();
        assert_eq!(e.breakdown.initial_reconfig, us(10.0));
        assert_eq!(e.breakdown.dynamic_reconfig, us(15.0));
        assert_eq!(e.n_contexts, 2);
        assert_eq!(e.n_hw_tasks, 2);
        assert_eq!(e.breakdown.computation_communication, e.makespan - us(25.0));
    }

    #[test]
    fn starts_plus_exec_equal_completions() {
        let (app, arch) = fixture();
        let m = Mapping::all_software(&app, &arch, topo(&app));
        let e = evaluate(&app, &arch, &m).unwrap();
        for t in app.task_ids() {
            let exec = m.exec_time(&app, t);
            assert_eq!(e.starts[t.index()] + exec, e.completions[t.index()]);
        }
        // Sequential on one processor: starts are 0, 10, 30.
        assert_eq!(e.starts, vec![us(0.0), us(10.0), us(30.0)]);
    }

    #[test]
    fn capacity_error_beats_cycle_error() {
        let (app, arch) = fixture();
        let mut m = Mapping::all_software(&app, &arch, topo(&app));
        m.detach(TaskId(0));
        m.insert_new_context(TaskId(0), 0, 0, 0);
        m.detach(TaskId(1));
        m.insert_hardware(TaskId(1), 0, 0, 0); // 250 > 200 CLBs
        assert_eq!(
            evaluate(&app, &arch, &m),
            Err(MappingError::CapacityExceeded {
                drlc: 0,
                context: 0
            })
        );
    }

    #[test]
    fn critical_path_covers_the_chain() {
        let (app, arch) = fixture();
        let m = Mapping::all_software(&app, &arch, topo(&app));
        let e = evaluate(&app, &arch, &m).unwrap();
        assert_eq!(e.critical_tasks, vec![TaskId(0), TaskId(1), TaskId(2)]);
    }
}
