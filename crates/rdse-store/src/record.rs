//! The archived form of one completed exploration.
//!
//! A [`StoreRecord`] captures everything needed to (a) answer the same
//! query again **bit-identically** and (b) seed a new exploration's
//! chain 0 with the archived winner. Every `f64` is persisted as its
//! raw IEEE-754 bit pattern (a `u64`), never as decimal text, so a
//! record survives any number of serialize → replay round trips with
//! its original bits; the winning mapping itself contains only indices
//! and is stored as its plain JSON value. The derived `Serialize` writes
//! a record and [`StoreRecord::from_json`] reads it back.

use crate::key::{PairKey, StoreKey};
use serde::{Serialize, Value};
use serde_json::{Error, Reader};

/// One cost vector with every axis as raw `f64` bits — the lossless
/// persisted form of a Pareto-front member or a winner's cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CostBits {
    /// Bits of the makespan (µs).
    pub makespan: u64,
    /// Bits of the peak context CLB occupancy.
    pub clb_area: u64,
    /// Bits of the reconfiguration overhead (µs).
    pub reconfig: u64,
    /// Bits of the context count.
    pub contexts: u64,
}

impl CostBits {
    /// Packs four axis values into their bit patterns.
    pub fn from_values(makespan: f64, clb_area: f64, reconfig: f64, contexts: f64) -> Self {
        CostBits {
            makespan: makespan.to_bits(),
            clb_area: clb_area.to_bits(),
            reconfig: reconfig.to_bits(),
            contexts: contexts.to_bits(),
        }
    }

    /// The makespan axis, reconstructed bit-exactly.
    pub fn makespan_f64(&self) -> f64 {
        f64::from_bits(self.makespan)
    }

    /// The CLB-area axis, reconstructed bit-exactly.
    pub fn clb_area_f64(&self) -> f64 {
        f64::from_bits(self.clb_area)
    }

    /// The reconfiguration-overhead axis, reconstructed bit-exactly.
    pub fn reconfig_f64(&self) -> f64 {
        f64::from_bits(self.reconfig)
    }

    /// The context-count axis, reconstructed bit-exactly.
    pub fn contexts_f64(&self) -> f64 {
        f64::from_bits(self.contexts)
    }
}

/// One completed exploration: identity, knobs, summary, Pareto front
/// and the winning mapping.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StoreRecord {
    /// Full content key (see [`crate::KeySpec::key`]).
    pub key: StoreKey,
    /// `(app, arch)` grouping key (see [`crate::KeySpec::pair`]).
    pub pair: PairKey,
    /// Canonical objective description.
    pub objective: String,
    /// Master RNG seed of the run.
    pub seed: u64,
    /// Portfolio chain count.
    pub chains: u64,
    /// Total iteration budget.
    pub iters: u64,
    /// Warm-up iterations.
    pub warmup: u64,
    /// Per-chain iterations between exchanges.
    pub exchange_every: u64,
    /// Index of the winning chain.
    pub winner: u64,
    /// Iterations actually executed, summed across chains.
    pub iterations: u64,
    /// Context count of the winning mapping.
    pub contexts: u64,
    /// Hardware-task count of the winning mapping.
    pub hw_tasks: u64,
    /// Peak context CLB occupancy of the winning mapping.
    pub clb_area: u64,
    /// Raw bits of the winning makespan (µs).
    pub makespan_bits: u64,
    /// Full cost vector of the winner, as bits.
    pub best: CostBits,
    /// The portfolio Pareto front, sorted by ascending makespan bits'
    /// numeric value, each member as bits.
    pub front: Vec<CostBits>,
    /// The winning mapping's JSON value (indices only — lossless).
    pub mapping: Value,
}

impl StoreRecord {
    /// The winning makespan, reconstructed bit-exactly.
    pub fn makespan(&self) -> f64 {
        f64::from_bits(self.makespan_bits)
    }

    /// Decodes one record body, the JSON [`crate::log::encode_record`]
    /// writes, in a single pass: member names are compared in place,
    /// numbers go straight to `u64` and the front straight to
    /// [`CostBits`]; only the winning mapping becomes a [`Value`].
    /// Members may come in any order, unknown members are skipped and a
    /// repeated member keeps its first value, as a lookup in the parsed
    /// JSON tree would.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a missing or mistyped member, or a key that is not
    /// 32 hex digits.
    pub fn from_json(body: &str) -> Result<StoreRecord, Error> {
        const COUNTS: [&str; 11] = [
            "seed",
            "chains",
            "iters",
            "warmup",
            "exchange_every",
            "winner",
            "iterations",
            "contexts",
            "hw_tasks",
            "clb_area",
            "makespan_bits",
        ];
        let mut counts = [None; COUNTS.len()];
        let (mut key, mut pair, mut objective) = (None, None, None);
        let (mut best, mut front, mut mapping) = (None, None, None);
        let mut r = Reader::new(body);
        r.object()?;
        while let Some(name) = r.key()? {
            match &*name {
                "key" if key.is_none() => key = Some(digest(&mut r, StoreKey::from_hex)?),
                "pair" if pair.is_none() => pair = Some(digest(&mut r, PairKey::from_hex)?),
                "objective" if objective.is_none() => objective = Some(r.str()?.into_owned()),
                "best" if best.is_none() => best = Some(cost_bits(&mut r)?),
                "front" if front.is_none() => {
                    let mut members = Vec::new();
                    r.array()?;
                    while r.item()? {
                        members.push(cost_bits(&mut r)?);
                    }
                    members.shrink_to_fit();
                    front = Some(members);
                }
                "mapping" if mapping.is_none() => mapping = Some(r.value()?),
                other => {
                    if !count_field(&mut r, other, &COUNTS, &mut counts)? {
                        r.value()?;
                    }
                }
            }
        }
        let [seed, chains, iters, warmup, exchange_every, winner, iterations, contexts, hw_tasks, clb_area, makespan_bits] =
            filled(&r, &COUNTS, counts)?;
        let missing = |name: &str| r.invalid(format!("missing field `{name}`"));
        let record = StoreRecord {
            key: key.ok_or_else(|| missing("key"))?,
            pair: pair.ok_or_else(|| missing("pair"))?,
            objective: objective.ok_or_else(|| missing("objective"))?,
            seed,
            chains,
            iters,
            warmup,
            exchange_every,
            winner,
            iterations,
            contexts,
            hw_tasks,
            clb_area,
            makespan_bits,
            best: best.ok_or_else(|| missing("best"))?,
            front: front.ok_or_else(|| missing("front"))?,
            mapping: mapping.ok_or_else(|| missing("mapping"))?,
        };
        r.finish()?;
        Ok(record)
    }
}

/// Reads a 32-hex-digit key string.
fn digest<K>(r: &mut Reader, parse: fn(&str) -> Option<K>) -> Result<K, Error> {
    let hex = r.str()?;
    parse(&hex).ok_or_else(|| r.invalid(format!("'{hex}' is not a 32-hex-digit key")))
}

/// Reads one [`CostBits`] object.
fn cost_bits(r: &mut Reader) -> Result<CostBits, Error> {
    const AXES: [&str; 4] = ["makespan", "clb_area", "reconfig", "contexts"];
    let mut axes = [None; AXES.len()];
    r.object()?;
    while let Some(name) = r.key()? {
        if !count_field(r, &name, &AXES, &mut axes)? {
            r.value()?;
        }
    }
    let [makespan, clb_area, reconfig, contexts] = filled(r, &AXES, axes)?;
    Ok(CostBits {
        makespan,
        clb_area,
        reconfig,
        contexts,
    })
}

/// Reads member `name`'s value into its slot if it is one of `names`
/// and not yet seen; `false` leaves the value unread.
fn count_field<const N: usize>(
    r: &mut Reader,
    name: &str,
    names: &[&str; N],
    slots: &mut [Option<u64>; N],
) -> Result<bool, Error> {
    match names.iter().position(|n| *n == name) {
        Some(i) if slots[i].is_none() => {
            slots[i] = Some(r.u64()?);
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// The slots' values, or an error naming the first missing member.
fn filled<const N: usize>(
    r: &Reader,
    names: &[&str; N],
    slots: [Option<u64>; N],
) -> Result<[u64; N], Error> {
    let mut out = [0; N];
    for (i, slot) in slots.into_iter().enumerate() {
        out[i] = slot.ok_or_else(|| r.invalid(format!("missing field `{}`", names[i])))?;
    }
    Ok(out)
}
