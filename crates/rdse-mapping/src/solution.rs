//! The solution representation: a complete spatio-temporal mapping.

use crate::error::MappingError;
use crate::placement::{Placement, ResourceRef};
use rdse_model::units::{Clbs, Micros};
use rdse_model::{Architecture, TaskGraph, TaskId};
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// One run-time context of a reconfigurable device: a set of hardware
/// tasks configured and executed together (§3.2). Contexts execute in
/// list order; tasks inside a context are only partially ordered by the
/// application's precedence edges (the GTLP order of §3.3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Context {
    tasks: Vec<TaskId>,
}

impl Context {
    /// Creates a context holding exactly one task.
    pub fn singleton(task: TaskId) -> Self {
        Context { tasks: vec![task] }
    }

    /// The tasks configured in this context (unordered set semantics).
    pub fn tasks(&self) -> &[TaskId] {
        &self.tasks
    }

    /// Number of tasks in the context.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when the context holds no tasks (transient state only;
    /// valid mappings never contain empty contexts).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

/// One task's [`Placement`] packed into a word of four `u16` fields:
/// kind (bits 0–15), device (16–31), context (32–47) and
/// implementation (48–63). Fields a kind does not use are zero, so
/// equal placements pack to equal words.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Packed(u64);

const KIND_SW: u64 = 0;
const KIND_HW: u64 = 1;
const KIND_ASIC: u64 = 2;

impl Packed {
    /// Packs `place`, or returns the first index that does not fit a
    /// `u16`.
    fn try_pack(place: Placement) -> Result<Packed, usize> {
        let field = |i: usize| u16::try_from(i).map(u64::from).map_err(|_| i);
        Ok(Packed(match place {
            Placement::Software { processor } => KIND_SW | field(processor)? << 16,
            Placement::Hardware {
                drlc,
                context,
                hw_impl,
            } => KIND_HW | field(drlc)? << 16 | field(context)? << 32 | field(hw_impl)? << 48,
            Placement::Asic { asic } => KIND_ASIC | field(asic)? << 16,
        }))
    }

    /// Packs `place`, panicking (in release builds too) on an index
    /// above `u16::MAX`.
    fn pack(place: Placement) -> Packed {
        Packed::try_pack(place)
            .unwrap_or_else(|i| panic!("placement index {i} exceeds {}", u16::MAX))
    }

    #[inline]
    fn kind(self) -> u64 {
        self.0 & 0xFFFF
    }

    #[inline]
    fn device(self) -> usize {
        (self.0 >> 16 & 0xFFFF) as usize
    }

    #[inline]
    fn context(self) -> usize {
        (self.0 >> 32 & 0xFFFF) as usize
    }

    #[inline]
    fn with_device(self, device: usize) -> Packed {
        Packed(self.0 & !(0xFFFF << 16) | (device as u64) << 16)
    }

    #[inline]
    fn with_context(self, context: usize) -> Packed {
        Packed(self.0 & !(0xFFFF << 32) | (context as u64) << 32)
    }

    #[inline]
    fn unpack(self) -> Placement {
        match self.kind() {
            KIND_SW => Placement::Software {
                processor: self.device(),
            },
            KIND_HW => Placement::Hardware {
                drlc: self.device(),
                context: self.context(),
                hw_impl: (self.0 >> 48) as usize,
            },
            _ => Placement::Asic {
                asic: self.device(),
            },
        }
    }
}

/// Prints the decoded [`Placement`].
impl fmt::Debug for Packed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.unpack().fmt(f)
    }
}

/// A complete candidate solution (§3.3): spatial partitioning, temporal
/// partitioning, processor orders and implementation selection.
///
/// All mutating operations keep the cross-indices consistent (a task's
/// [`Placement`] always agrees with the processor orders and context
/// lists); [`Mapping::validate`] re-checks every invariant and is used
/// liberally in tests.
///
/// Placements are stored packed, one 8-byte word per task, so every
/// device, context and implementation index is at most `u16::MAX`:
/// the `insert_*` mutations panic beyond it (in release builds too),
/// and deserializing a larger index is an error. The JSON form is the
/// plain `Vec<Placement>` one.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    placement: Vec<Packed>,
    proc_order: Vec<Vec<TaskId>>,
    contexts: Vec<Vec<Context>>,
}

impl Serialize for Mapping {
    fn to_value(&self) -> Value {
        let placement = self.placement.iter().map(|p| p.unpack().to_value());
        Value::Map(vec![
            ("placement".to_string(), Value::Seq(placement.collect())),
            ("proc_order".to_string(), self.proc_order.to_value()),
            ("contexts".to_string(), self.contexts.to_value()),
        ])
    }
}

impl Deserialize for Mapping {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if !matches!(v, Value::Map(_)) {
            return Err(DeError::msg(format!("expected map for Mapping, got {v:?}")));
        }
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| DeError::msg(format!("missing field `{name}` in Mapping")))
        };
        let placement = Vec::<Placement>::from_value(field("placement")?)?
            .into_iter()
            .map(|p| {
                Packed::try_pack(p)
                    .map_err(|i| DeError::msg(format!("placement index {i} exceeds {}", u16::MAX)))
            })
            .collect::<Result<_, _>>()?;
        Ok(Mapping {
            placement,
            proc_order: Deserialize::from_value(field("proc_order")?)?,
            contexts: Deserialize::from_value(field("contexts")?)?,
        })
    }
}

impl Mapping {
    /// Creates the all-software mapping: every task on processor 0 in
    /// the given total order (callers usually pass a topological order).
    ///
    /// # Panics
    ///
    /// Panics if the architecture has no processor or `order` does not
    /// cover every task exactly once (checked by `validate` in debug
    /// builds).
    pub fn all_software(app: &TaskGraph, arch: &Architecture, order: Vec<TaskId>) -> Self {
        assert!(
            !arch.processors().is_empty(),
            "all-software mapping needs a processor"
        );
        assert_eq!(order.len(), app.n_tasks(), "order must cover all tasks");
        Mapping {
            placement: vec![Packed::pack(Placement::Software { processor: 0 }); app.n_tasks()],
            proc_order: {
                let mut po = vec![Vec::new(); arch.processors().len()];
                po[0] = order;
                po
            },
            contexts: vec![Vec::new(); arch.drlcs().len()],
        }
    }

    /// Number of tasks covered.
    pub fn n_tasks(&self) -> usize {
        self.placement.len()
    }

    /// Placement of one task.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[inline]
    pub fn placement(&self, task: TaskId) -> Placement {
        self.placement[task.index()].unpack()
    }

    /// The scheduling resource of one task.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn resource(&self, task: TaskId) -> ResourceRef {
        self.placement(task).resource()
    }

    /// Total execution order of one processor.
    ///
    /// # Panics
    ///
    /// Panics if `processor` is out of range.
    pub fn proc_order(&self, processor: usize) -> &[TaskId] {
        &self.proc_order[processor]
    }

    /// Ordered context list of one device.
    ///
    /// # Panics
    ///
    /// Panics if `drlc` is out of range.
    pub fn contexts(&self, drlc: usize) -> &[Context] {
        &self.contexts[drlc]
    }

    /// Total number of contexts over all devices (the quantity plotted
    /// in Figs. 2 and 3 of the paper).
    pub fn n_contexts(&self) -> usize {
        self.contexts.iter().map(Vec::len).sum()
    }

    /// Execution time of `task` under its current placement and
    /// implementation selection.
    ///
    /// # Panics
    ///
    /// Panics if the placement references a missing implementation.
    pub fn exec_time(&self, app: &TaskGraph, task: TaskId) -> Micros {
        let t = app.task(task).expect("task id in range");
        match self.placement(task) {
            Placement::Software { .. } => t.sw_time(),
            Placement::Hardware { hw_impl, .. } => t.hw_impls()[hw_impl].time(),
            Placement::Asic { .. } => t
                .fastest_hw()
                .map(|i| i.time())
                .unwrap_or_else(|| t.sw_time()),
        }
    }

    /// CLBs occupied by `task` (zero for software/ASIC placements).
    pub fn task_clbs(&self, app: &TaskGraph, task: TaskId) -> Clbs {
        match self.placement(task) {
            Placement::Hardware { hw_impl, .. } => {
                app.task(task).expect("task id in range").hw_impls()[hw_impl].clbs()
            }
            _ => Clbs::ZERO,
        }
    }

    /// CLBs used by one context (`nCLB` in the paper's edge weights).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn context_clbs(&self, app: &TaskGraph, drlc: usize, context: usize) -> Clbs {
        self.contexts[drlc][context]
            .tasks()
            .iter()
            .map(|&t| self.task_clbs(app, t))
            .sum()
    }

    /// Sum of CLBs over all contexts of all devices (total area that
    /// must be configured during a run).
    pub fn total_configured_clbs(&self, app: &TaskGraph) -> Clbs {
        (0..self.contexts.len())
            .map(|d| {
                (0..self.contexts[d].len())
                    .map(|c| self.context_clbs(app, d, c))
                    .sum::<Clbs>()
            })
            .sum()
    }

    /// Tasks currently placed in hardware.
    pub fn hw_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.placement
            .iter()
            .enumerate()
            .filter(|(_, p)| p.kind() == KIND_HW)
            .map(|(i, _)| TaskId(i as u32))
    }

    // ------------------------------------------------------------------
    // Mutations (used by the move generator and by baseline explorers).
    // Each keeps the structure self-consistent — placements always agree
    // with processor orders and context lists — while feasibility w.r.t.
    // precedence is checked by the evaluator.
    // ------------------------------------------------------------------

    /// Removes `task` from the resource it currently occupies, leaving
    /// it temporarily unplaced (the caller must re-insert it). Empty
    /// contexts are deleted and later context indices re-numbered.
    pub fn detach(&mut self, task: TaskId) {
        match self.placement(task) {
            Placement::Software { processor } => {
                self.proc_order[processor].retain(|&t| t != task);
            }
            Placement::Hardware { drlc, context, .. } => {
                let ctx = &mut self.contexts[drlc][context];
                ctx.tasks.retain(|&t| t != task);
                if ctx.is_empty() {
                    self.remove_context(drlc, context);
                }
            }
            Placement::Asic { .. } => {}
        }
    }

    /// Inserts `task` into `processor`'s order at `position`.
    ///
    /// # Panics
    ///
    /// Panics if `position` exceeds the order length.
    pub fn insert_software(&mut self, task: TaskId, processor: usize, position: usize) {
        let packed = Packed::pack(Placement::Software { processor });
        self.proc_order[processor].insert(position, task);
        self.placement[task.index()] = packed;
    }

    /// Adds `task` to an existing context with implementation `hw_impl`.
    pub fn insert_hardware(&mut self, task: TaskId, drlc: usize, context: usize, hw_impl: usize) {
        let packed = Packed::pack(Placement::Hardware {
            drlc,
            context,
            hw_impl,
        });
        self.contexts[drlc][context].tasks.push(task);
        self.placement[task.index()] = packed;
    }

    /// Adds `task` to an existing context at an exact slot in the
    /// context's task list. Contexts have set semantics for evaluation,
    /// but the slot matters to [`MoveDelta`](crate::moves::MoveDelta)
    /// undo: restoring a task at its original slot keeps the mapping
    /// bit-identical to its pre-move state.
    ///
    /// # Panics
    ///
    /// Panics if `slot` exceeds the context length.
    pub fn insert_hardware_at(
        &mut self,
        task: TaskId,
        drlc: usize,
        context: usize,
        hw_impl: usize,
        slot: usize,
    ) {
        let packed = Packed::pack(Placement::Hardware {
            drlc,
            context,
            hw_impl,
        });
        self.contexts[drlc][context].tasks.insert(slot, task);
        self.placement[task.index()] = packed;
    }

    /// Spawns a new context at `position` in `drlc`'s context order
    /// holding only `task` (the paper's overflow rule: "another context
    /// will be spawned if nCLB(R(vd)) + C(vs) > NCLB").
    pub fn insert_new_context(
        &mut self,
        task: TaskId,
        drlc: usize,
        position: usize,
        hw_impl: usize,
    ) {
        let packed = Packed::pack(Placement::Hardware {
            drlc,
            context: position,
            hw_impl,
        });
        // The last displaced context moves to index `len`.
        let last = self.contexts[drlc].len();
        assert!(
            last <= usize::from(u16::MAX),
            "placement index {last} exceeds {}",
            u16::MAX
        );
        self.contexts[drlc].insert(position, Context::singleton(task));
        // Re-number placements for contexts displaced by the insertion.
        for p in &mut self.placement {
            if p.kind() == KIND_HW && p.device() == drlc && p.context() >= position {
                *p = p.with_context(p.context() + 1);
            }
        }
        self.placement[task.index()] = packed;
    }

    /// Places `task` on an ASIC.
    pub fn insert_asic(&mut self, task: TaskId, asic: usize) {
        self.placement[task.index()] = Packed::pack(Placement::Asic { asic });
    }

    /// Changes the selected implementation of a hardware task.
    ///
    /// # Panics
    ///
    /// Panics if `task` is not placed in hardware.
    pub fn select_impl(&mut self, task: TaskId, hw_impl: usize) {
        match self.placement(task) {
            Placement::Hardware { drlc, context, .. } => {
                self.placement[task.index()] = Packed::pack(Placement::Hardware {
                    drlc,
                    context,
                    hw_impl,
                });
            }
            other => panic!("select_impl on non-hardware placement {other:?}"),
        }
    }

    /// Appends an (empty) order slot for a newly created processor —
    /// the m4 architecture-exploration move. Returns the new index.
    pub fn add_processor_slot(&mut self) -> usize {
        self.proc_order.push(Vec::new());
        self.proc_order.len() - 1
    }

    /// Appends an (empty) context list for a newly created DRLC.
    /// Returns the new index.
    pub fn add_drlc_slot(&mut self) -> usize {
        self.contexts.push(Vec::new());
        self.contexts.len() - 1
    }

    /// Removes processor `p`'s slot — the m3 move. The order must be
    /// empty (move its tasks away first); placements on later
    /// processors are renumbered.
    ///
    /// # Panics
    ///
    /// Panics if the order is non-empty or `p` is out of range.
    pub fn remove_processor_slot(&mut self, p: usize) {
        assert!(
            self.proc_order[p].is_empty(),
            "processor {p} still has tasks"
        );
        self.proc_order.remove(p);
        self.renumber_after_removal(KIND_SW, p, "processor");
    }

    /// Removes DRLC `d`'s context list — the m3 move. The list must be
    /// empty; placements on later devices are renumbered.
    ///
    /// # Panics
    ///
    /// Panics if the device still has contexts or `d` is out of range.
    pub fn remove_drlc_slot(&mut self, d: usize) {
        assert!(self.contexts[d].is_empty(), "drlc {d} still has contexts");
        self.contexts.remove(d);
        self.renumber_after_removal(KIND_HW, d, "drlc");
    }

    /// Renumbers ASIC placements after removal of ASIC `a` (which must
    /// host no tasks).
    ///
    /// # Panics
    ///
    /// Panics if a placement still references ASIC `a`.
    pub fn remove_asic_slot(&mut self, a: usize) {
        self.renumber_after_removal(KIND_ASIC, a, "asic");
    }

    /// Shifts every `kind` placement on a device after `removed` down by
    /// one.
    fn renumber_after_removal(&mut self, kind: u64, removed: usize, what: &str) {
        for p in &mut self.placement {
            if p.kind() == kind {
                let d = p.device();
                assert_ne!(d, removed, "placement points at removed {what}");
                if d > removed {
                    *p = p.with_device(d - 1);
                }
            }
        }
    }

    fn remove_context(&mut self, drlc: usize, context: usize) {
        self.contexts[drlc].remove(context);
        for p in &mut self.placement {
            if p.kind() == KIND_HW && p.device() == drlc && p.context() > context {
                *p = p.with_context(p.context() - 1);
            }
        }
    }

    /// Checks every structural invariant against the models.
    ///
    /// # Errors
    ///
    /// Returns a descriptive [`MappingError`] on the first violation:
    /// index mismatches, duplicated or missing tasks, empty contexts,
    /// missing hardware capability, or capacity overflow.
    pub fn validate(&self, app: &TaskGraph, arch: &Architecture) -> Result<(), MappingError> {
        if self.placement.len() != app.n_tasks() {
            return Err(MappingError::Inconsistent(format!(
                "{} placements for {} tasks",
                self.placement.len(),
                app.n_tasks()
            )));
        }
        if self.proc_order.len() != arch.processors().len() {
            return Err(MappingError::Inconsistent(
                "processor order count mismatch".into(),
            ));
        }
        if self.contexts.len() != arch.drlcs().len() {
            return Err(MappingError::Inconsistent(
                "context list count mismatch".into(),
            ));
        }
        let mut seen = vec![false; app.n_tasks()];
        for (p, order) in self.proc_order.iter().enumerate() {
            for &t in order {
                if t.index() >= app.n_tasks() {
                    return Err(MappingError::Inconsistent(format!("unknown task {t}")));
                }
                if seen[t.index()] {
                    return Err(MappingError::Inconsistent(format!(
                        "task {t} scheduled twice"
                    )));
                }
                seen[t.index()] = true;
                if self.placement(t) != (Placement::Software { processor: p }) {
                    return Err(MappingError::Inconsistent(format!(
                        "task {t} in proc {p} order but placed elsewhere"
                    )));
                }
            }
        }
        for (d, ctxs) in self.contexts.iter().enumerate() {
            let spec = &arch.drlcs()[d];
            for (c, ctx) in ctxs.iter().enumerate() {
                if ctx.is_empty() {
                    return Err(MappingError::Inconsistent(format!(
                        "empty context {c} on drlc {d}"
                    )));
                }
                for &t in ctx.tasks() {
                    if t.index() >= app.n_tasks() {
                        return Err(MappingError::Inconsistent(format!("unknown task {t}")));
                    }
                    if seen[t.index()] {
                        return Err(MappingError::Inconsistent(format!(
                            "task {t} scheduled twice"
                        )));
                    }
                    seen[t.index()] = true;
                    match self.placement(t) {
                        Placement::Hardware {
                            drlc,
                            context,
                            hw_impl,
                        } if drlc == d && context == c => {
                            let task = app.task(t).expect("task id in range");
                            if task.hw_impls().is_empty() {
                                return Err(MappingError::NotHwCapable(t));
                            }
                            if hw_impl >= task.hw_impls().len() {
                                return Err(MappingError::Inconsistent(format!(
                                    "task {t} selects implementation {hw_impl} of {}",
                                    task.hw_impls().len()
                                )));
                            }
                        }
                        _ => {
                            return Err(MappingError::Inconsistent(format!(
                                "task {t} in drlc {d}/ctx {c} but placed elsewhere"
                            )));
                        }
                    }
                }
                if self.context_clbs(app, d, c) > spec.n_clbs() {
                    return Err(MappingError::CapacityExceeded {
                        drlc: d,
                        context: c,
                    });
                }
            }
        }
        for (i, p) in self.placement.iter().enumerate() {
            let t = TaskId(i as u32);
            match p.unpack() {
                Placement::Asic { asic } => {
                    if asic >= arch.asics().len() {
                        return Err(MappingError::UnknownResource(format!("asic{asic}")));
                    }
                    seen[i] = true;
                }
                Placement::Software { processor } if processor >= arch.processors().len() => {
                    return Err(MappingError::UnknownResource(format!("proc{processor}")));
                }
                _ => {}
            }
            if !seen[i] {
                return Err(MappingError::Inconsistent(format!(
                    "task {t} not present on its resource"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdse_model::units::Bytes;
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
                vec![
                    HwImpl::new(Clbs::new(50), us(8.0)),
                    HwImpl::new(Clbs::new(150), us(3.0)),
                ],
            )
            .unwrap();
        let c = app.add_task("c", "H", us(5.0), vec![]).unwrap();
        app.add_data_edge(a, b, Bytes::new(100)).unwrap();
        app.add_data_edge(b, c, Bytes::new(200)).unwrap();
        let arch = Architecture::builder("soc")
            .processor("cpu", 1.0)
            .drlc("fpga", Clbs::new(200), us(22.5), 1.0)
            .build()
            .unwrap();
        (app, arch)
    }

    fn topo_order(app: &TaskGraph) -> Vec<TaskId> {
        rdse_graph::topo_sort(&app.precedence_graph())
            .unwrap()
            .into_iter()
            .map(TaskId::from)
            .collect()
    }

    #[test]
    fn all_software_is_valid() {
        let (app, arch) = fixture();
        let m = Mapping::all_software(&app, &arch, topo_order(&app));
        m.validate(&app, &arch).unwrap();
        assert_eq!(m.n_contexts(), 0);
        assert_eq!(m.proc_order(0).len(), 3);
        assert_eq!(m.exec_time(&app, TaskId(0)), us(10.0));
    }

    #[test]
    fn move_task_to_new_context() {
        let (app, arch) = fixture();
        let mut m = Mapping::all_software(&app, &arch, topo_order(&app));
        m.detach(TaskId(0));
        m.insert_new_context(TaskId(0), 0, 0, 0);
        m.validate(&app, &arch).unwrap();
        assert_eq!(m.n_contexts(), 1);
        assert_eq!(m.exec_time(&app, TaskId(0)), us(2.0));
        assert_eq!(m.context_clbs(&app, 0, 0), Clbs::new(100));
        assert_eq!(m.proc_order(0).len(), 2);
    }

    #[test]
    fn detach_removes_empty_context_and_renumbers() {
        let (app, arch) = fixture();
        let mut m = Mapping::all_software(&app, &arch, topo_order(&app));
        m.detach(TaskId(0));
        m.insert_new_context(TaskId(0), 0, 0, 0);
        m.detach(TaskId(1));
        m.insert_new_context(TaskId(1), 0, 1, 0);
        m.validate(&app, &arch).unwrap();
        assert_eq!(m.n_contexts(), 2);
        // Remove the first context's only task: context 1 renumbers to 0.
        m.detach(TaskId(0));
        m.insert_software(TaskId(0), 0, 0);
        m.validate(&app, &arch).unwrap();
        assert_eq!(m.n_contexts(), 1);
        assert_eq!(
            m.placement(TaskId(1)),
            Placement::Hardware {
                drlc: 0,
                context: 0,
                hw_impl: 0
            }
        );
    }

    #[test]
    fn insert_new_context_in_middle_renumbers() {
        let (app, arch) = fixture();
        let mut m = Mapping::all_software(&app, &arch, topo_order(&app));
        m.detach(TaskId(0));
        m.insert_new_context(TaskId(0), 0, 0, 0);
        m.detach(TaskId(2));
        // c has no hw impls, so pretend b instead:
        m.insert_software(TaskId(2), 0, 0);
        m.detach(TaskId(1));
        // Insert b's context *before* a's: a's context index must bump.
        m.insert_new_context(TaskId(1), 0, 0, 1);
        m.validate(&app, &arch).unwrap();
        assert_eq!(
            m.placement(TaskId(0)),
            Placement::Hardware {
                drlc: 0,
                context: 1,
                hw_impl: 0
            }
        );
    }

    #[test]
    fn select_impl_changes_area_and_time() {
        let (app, arch) = fixture();
        let mut m = Mapping::all_software(&app, &arch, topo_order(&app));
        m.detach(TaskId(1));
        m.insert_new_context(TaskId(1), 0, 0, 0);
        assert_eq!(m.exec_time(&app, TaskId(1)), us(8.0));
        m.select_impl(TaskId(1), 1);
        m.validate(&app, &arch).unwrap();
        assert_eq!(m.exec_time(&app, TaskId(1)), us(3.0));
        assert_eq!(m.context_clbs(&app, 0, 0), Clbs::new(150));
    }

    #[test]
    fn capacity_violation_detected() {
        let (app, arch) = fixture();
        let mut m = Mapping::all_software(&app, &arch, topo_order(&app));
        m.detach(TaskId(0));
        m.insert_new_context(TaskId(0), 0, 0, 0); // 100 CLBs
        m.detach(TaskId(1));
        m.insert_hardware(TaskId(1), 0, 0, 1); // +150 CLBs > 200
        assert_eq!(
            m.validate(&app, &arch),
            Err(MappingError::CapacityExceeded {
                drlc: 0,
                context: 0
            })
        );
    }

    #[test]
    fn duplicated_task_detected() {
        let (app, arch) = fixture();
        let mut m = Mapping::all_software(&app, &arch, topo_order(&app));
        // Manually corrupt: insert a second copy of task 0 into the order.
        m.proc_order[0].push(TaskId(0));
        assert!(matches!(
            m.validate(&app, &arch),
            Err(MappingError::Inconsistent(_))
        ));
    }

    #[test]
    fn non_hw_capable_task_rejected_in_context() {
        let (app, arch) = fixture();
        let mut m = Mapping::all_software(&app, &arch, topo_order(&app));
        m.detach(TaskId(2)); // task c has no hw impls
        m.insert_new_context(TaskId(2), 0, 0, 0);
        assert_eq!(
            m.validate(&app, &arch),
            Err(MappingError::NotHwCapable(TaskId(2)))
        );
    }

    /// A mapping using every placement kind: software, hardware in two
    /// contexts and an ASIC.
    fn mixed_mapping() -> (TaskGraph, Architecture, Mapping) {
        let (app, _) = fixture();
        let arch = Architecture::builder("mixed")
            .processor("cpu", 1.0)
            .drlc("fpga", Clbs::new(200), us(22.5), 1.0)
            .asic("asic", 1.0)
            .build()
            .unwrap();
        let mut m = Mapping::all_software(&app, &arch, topo_order(&app));
        m.detach(TaskId(0));
        m.insert_asic(TaskId(0), 0);
        m.detach(TaskId(1));
        m.insert_new_context(TaskId(1), 0, 0, 1);
        m.validate(&app, &arch).unwrap();
        (app, arch, m)
    }

    #[test]
    fn json_is_the_plain_placement_vector_and_roundtrips_byte_identically() {
        let (app, _, m) = mixed_mapping();
        let placements: Vec<Placement> = app.task_ids().map(|t| m.placement(t)).collect();
        let plain = Value::Map(vec![
            ("placement".to_string(), placements.to_value()),
            ("proc_order".to_string(), m.proc_order.to_value()),
            ("contexts".to_string(), m.contexts.to_value()),
        ]);
        assert_eq!(m.to_value(), plain);
        let json = serde_json::to_string(&m).unwrap();
        assert!(json.contains(r#"{"Hardware":{"drlc":0,"context":0,"hw_impl":1}}"#));
        let back: Mapping = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(format!("{back:?}"), format!("{m:?}"));
        assert!(format!("{m:?}").contains("Asic { asic: 0 }"));
    }

    #[test]
    fn index_above_u16_max_is_a_deserialization_error() {
        let (_, _, m) = mixed_mapping();
        let json = serde_json::to_string(&m).unwrap();
        for (from, to) in [
            (r#""asic":0"#, r#""asic":65536"#),
            (r#""hw_impl":1"#, r#""hw_impl":70000"#),
            (r#""processor":0"#, r#""processor":18446744073709551615"#),
        ] {
            let bad = json.replacen(from, to, 1);
            assert_ne!(bad, json);
            let err = serde_json::from_str::<Mapping>(&bad).unwrap_err();
            assert!(err.to_string().contains("exceeds 65535"), "{err}");
        }
        // The largest index that fits still decodes.
        let edge = json.replacen(r#""asic":0"#, r#""asic":65535"#, 1);
        let decoded: Mapping = serde_json::from_str(&edge).unwrap();
        assert_eq!(
            decoded.placement(TaskId(0)),
            Placement::Asic { asic: 65535 }
        );
    }

    #[test]
    #[should_panic(expected = "placement index 65536 exceeds 65535")]
    fn insert_checks_the_index_range() {
        let (app, arch) = fixture();
        let mut m = Mapping::all_software(&app, &arch, topo_order(&app));
        m.detach(TaskId(0));
        m.insert_asic(TaskId(0), 65_536);
    }

    #[test]
    #[should_panic(expected = "placement index 65536 exceeds 65535")]
    fn insert_hardware_checks_the_context_range() {
        let (app, arch) = fixture();
        let mut m = Mapping::all_software(&app, &arch, topo_order(&app));
        m.detach(TaskId(0));
        m.insert_hardware(TaskId(0), 0, 65_536, 0);
    }

    #[test]
    fn total_configured_clbs_sums_contexts() {
        let (app, arch) = fixture();
        let mut m = Mapping::all_software(&app, &arch, topo_order(&app));
        m.detach(TaskId(0));
        m.insert_new_context(TaskId(0), 0, 0, 0);
        m.detach(TaskId(1));
        m.insert_new_context(TaskId(1), 0, 1, 0);
        assert_eq!(m.total_configured_clbs(&app), Clbs::new(150));
        let hw: Vec<TaskId> = m.hw_tasks().collect();
        assert_eq!(hw, vec![TaskId(0), TaskId(1)]);
    }
}
