//! Timing from outside the program: a `Problem` wrapper that times the
//! calls an annealing step makes into the problem, and an in-memory span log
//! for coarse events (jobs, pool batches, served requests) written out
//! when the run ends.

use rand::RngCore;
use rdse_anneal::Problem;
use std::cell::Cell;
use std::io::Write as _;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Call count and total nanoseconds of one kind of call.
#[derive(Debug, Default, Clone)]
pub struct Acc {
    pub calls: Cell<u64>,
    pub ns: Cell<u64>,
}

impl Acc {
    fn add(&self, since: Instant) {
        self.calls.set(self.calls.get() + 1);
        self.ns
            .set(self.ns.get() + since.elapsed().as_nanos() as u64);
    }

    pub fn merge(&self, other: &Acc) {
        self.calls.set(self.calls.get() + other.calls.get());
        self.ns.set(self.ns.get() + other.ns.get());
    }

    /// Mean nanoseconds per call (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls.get() == 0 {
            0.0
        } else {
            self.ns.get() as f64 / self.calls.get() as f64
        }
    }
}

/// Per-call timings of one problem.
#[derive(Debug, Default, Clone)]
pub struct ProblemClock {
    pub try_move: Acc,
    /// `try_move` calls that returned no move (infeasible proposals).
    pub infeasible: Cell<u64>,
    pub undo: Acc,
    pub snapshot: Acc,
}

impl ProblemClock {
    pub fn merge(&self, other: &ProblemClock) {
        self.try_move.merge(&other.try_move);
        self.infeasible
            .set(self.infeasible.get() + other.infeasible.get());
        self.undo.merge(&other.undo);
        self.snapshot.merge(&other.snapshot);
    }

    /// Nanoseconds inside the problem calls an annealing step makes.
    pub fn in_step_ns(&self) -> u64 {
        self.try_move.ns.get() + self.undo.ns.get() + self.snapshot.ns.get()
    }
}

/// A problem whose step calls (`try_move`, `undo`, `snapshot`) are timed.
/// The walk is untouched: each method forwards to the wrapped problem
/// with the same arguments.
#[derive(Debug)]
pub struct Timed<P> {
    pub inner: P,
    pub clock: ProblemClock,
}

impl<P> Timed<P> {
    pub fn new(inner: P) -> Self {
        Timed {
            inner,
            clock: ProblemClock::default(),
        }
    }
}

impl<P: Problem> Problem for Timed<P> {
    type Move = P::Move;
    type Snapshot = P::Snapshot;
    type Cost = P::Cost;

    fn cost(&self) -> P::Cost {
        self.inner.cost()
    }

    fn n_move_classes(&self) -> usize {
        self.inner.n_move_classes()
    }

    fn try_move(&mut self, rng: &mut dyn RngCore, class: usize) -> Option<(P::Move, P::Cost)> {
        let t = Instant::now();
        let out = self.inner.try_move(rng, class);
        self.clock.try_move.add(t);
        if out.is_none() {
            self.clock.infeasible.set(self.clock.infeasible.get() + 1);
        }
        out
    }

    fn undo(&mut self, mv: P::Move) {
        let t = Instant::now();
        self.inner.undo(mv);
        self.clock.undo.add(t);
    }

    fn snapshot(&self) -> P::Snapshot {
        let t = Instant::now();
        let s = self.inner.snapshot();
        self.clock.snapshot.add(t);
        s
    }

    fn restore(&mut self, snapshot: &P::Snapshot) {
        self.inner.restore(snapshot);
    }

    fn restore_owned(&mut self, snapshot: P::Snapshot) {
        self.inner.restore_owned(snapshot);
    }

    fn observables(&self) -> Vec<(&'static str, f64)> {
        self.inner.observables()
    }
}

/// Nanoseconds since the first call in this process: the time base of
/// every span.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One span: a layer boundary crossed by one job.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The job (or request) the span belongs to.
    pub job: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory until the run ends.
#[derive(Debug, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn push(&mut self, name: &'static str, job: u64, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            job,
            start_ns,
            end_ns,
        });
    }

    /// Writes the spans as NDJSON, one object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.job, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
