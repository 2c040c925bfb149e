//! Differential tests for the direct record decoder.
//!
//! [`StoreRecord::from_json`] reads a record body in one pass. The reference is
//! the generic path: JSON text → [`Value`] tree → one field lookup per
//! member, with each member converted by its `Deserialize` rules. On
//! every body, canonical or not, valid or damaged, both must agree
//! exactly. Replay of a damaged log must end at the damaged record.

use proptest::prelude::*;
use rdse_store::log::{encode_record, fnv1a64, scan, RECORD_HEADER_LEN};
use rdse_store::{CostBits, KeySpec, PairKey, StoreKey, StoreRecord};
use serde::{DeError, Deserialize, Serialize, Value};

/// The reference decoder: parse to a tree, then convert field by field
/// (first occurrence of a member wins, unknown members are ignored).
fn oracle(body: &str) -> Option<StoreRecord> {
    let tree: Value = serde_json::from_str(body).ok()?;
    record_from_tree(&tree).ok()
}

fn member<'v>(v: &'v Value, name: &str) -> Result<&'v Value, DeError> {
    match v {
        Value::Map(_) => v
            .get(name)
            .ok_or_else(|| DeError::msg(format!("missing field `{name}`"))),
        other => Err(DeError::msg(format!("expected map, got {other:?}"))),
    }
}

fn count(v: &Value, name: &str) -> Result<u64, DeError> {
    u64::from_value(member(v, name)?)
}

fn cost_bits_from_tree(v: &Value) -> Result<CostBits, DeError> {
    Ok(CostBits {
        makespan: count(v, "makespan")?,
        clb_area: count(v, "clb_area")?,
        reconfig: count(v, "reconfig")?,
        contexts: count(v, "contexts")?,
    })
}

fn record_from_tree(v: &Value) -> Result<StoreRecord, DeError> {
    let front = match member(v, "front")? {
        Value::Seq(items) => items
            .iter()
            .map(cost_bits_from_tree)
            .collect::<Result<_, _>>()?,
        other => return Err(DeError::msg(format!("expected sequence, got {other:?}"))),
    };
    Ok(StoreRecord {
        key: StoreKey::from_value(member(v, "key")?)?,
        pair: PairKey::from_value(member(v, "pair")?)?,
        objective: String::from_value(member(v, "objective")?)?,
        seed: count(v, "seed")?,
        chains: count(v, "chains")?,
        iters: count(v, "iters")?,
        warmup: count(v, "warmup")?,
        exchange_every: count(v, "exchange_every")?,
        winner: count(v, "winner")?,
        iterations: count(v, "iterations")?,
        contexts: count(v, "contexts")?,
        hw_tasks: count(v, "hw_tasks")?,
        clb_area: count(v, "clb_area")?,
        makespan_bits: count(v, "makespan_bits")?,
        best: cost_bits_from_tree(member(v, "best")?)?,
        front,
        mapping: member(v, "mapping")?.clone(),
    })
}

/// A tiny deterministic generator, so one `u64` from the strategy
/// expands into a whole record or tree.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        // splitmix64
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A `u64` that is small, huge (beyond `i64::MAX`) or anything.
    fn count(&mut self) -> u64 {
        match self.below(3) {
            0 => self.below(1000),
            1 => u64::MAX - self.below(1000),
            _ => self.next(),
        }
    }

    /// Text mixing ASCII, multi-byte UTF-8, quotes, backslashes and
    /// control characters, so the writer emits every escape.
    fn text(&mut self) -> String {
        const PIECES: [&str; 12] = [
            "makespan",
            " ",
            "\"",
            "\\",
            "/",
            "\n\t\r",
            "\u{8}\u{c}",
            "\u{1}\u{1f}",
            "\u{e9}",
            "\u{4e2d}",
            "\u{1F600}",
            "lexi(makespan, area)",
        ];
        (0..self.below(6))
            .map(|_| PIECES[self.below(PIECES.len() as u64) as usize])
            .collect()
    }

    /// A number that survives a write → parse round trip unchanged
    /// (`U64` only beyond `i64::MAX`, finite floats only), including
    /// floats that do and do not convert to `u64`.
    fn number(&mut self) -> Value {
        const FLOATS: [f64; 5] = [1000.0, 2.5, -0.5, 1e300, 18446744073709551616.0];
        match self.below(3) {
            0 => Value::I64(self.next() as i64),
            1 => Value::U64(u64::MAX - self.below(1 << 62)),
            _ => Value::F64(FLOATS[self.below(FLOATS.len() as u64) as usize]),
        }
    }

    /// A JSON tree that survives a write → parse round trip unchanged.
    fn tree(&mut self, depth: u32) -> Value {
        let pick = if depth == 0 {
            self.below(4)
        } else {
            self.below(6)
        };
        match pick {
            0 => Value::Null,
            1 => Value::Bool(self.next() & 1 == 1),
            2 => self.number(),
            3 => Value::Str(self.text()),
            4 => Value::Seq((0..self.below(4)).map(|_| self.tree(depth - 1)).collect()),
            _ => Value::Map(
                (0..self.below(4))
                    .map(|_| (self.text(), self.tree(depth - 1)))
                    .collect(),
            ),
        }
    }

    fn cost_bits(&mut self) -> CostBits {
        CostBits {
            makespan: self.count(),
            clb_area: self.count(),
            reconfig: self.count(),
            contexts: self.count(),
        }
    }

    fn record(&mut self) -> StoreRecord {
        let app = format!(r#"{{"tasks":[{}]}}"#, self.next());
        let spec = KeySpec {
            app_json: &app,
            arch_json: "{}",
            objective: "makespan",
            seed: self.next(),
            iters: 1,
            warmup: 0,
            chains: 1,
            exchange_every: 1,
        };
        StoreRecord {
            key: spec.key(),
            pair: spec.pair(),
            objective: self.text(),
            seed: self.count(),
            chains: self.count(),
            iters: self.count(),
            warmup: self.count(),
            exchange_every: self.count(),
            winner: self.count(),
            iterations: self.count(),
            contexts: self.count(),
            hw_tasks: self.count(),
            clb_area: self.count(),
            makespan_bits: self.count(),
            best: self.cost_bits(),
            front: (0..self.below(5)).map(|_| self.cost_bits()).collect(),
            mapping: self.tree(3),
        }
    }
}

fn body_of(frame: &[u8]) -> &str {
    std::str::from_utf8(&frame[RECORD_HEADER_LEN..]).expect("encoded bodies are UTF-8")
}

/// Frames `body` with a matching checksum, so the decoder (not the
/// checksum) is what judges it.
fn frame_with_checksum(body: &[u8]) -> Vec<u8> {
    let mut frame = encode_record(&Gen(7).record())[..RECORD_HEADER_LEN].to_vec();
    frame[8..12].copy_from_slice(&(body.len() as u32).to_be_bytes());
    frame[12..20].copy_from_slice(&fnv1a64(body).to_be_bytes());
    frame.extend_from_slice(body);
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn direct_decode_matches_the_value_path_on_encoded_records(seed in any::<u64>()) {
        let record = Gen(seed).record();
        let frame = encode_record(&record);
        let body = body_of(&frame);
        let direct = StoreRecord::from_json(body).map_err(|e| e.to_string())?;
        prop_assert_eq!(Some(direct.clone()), oracle(body));
        prop_assert_eq!(&direct, &record);
        // Decoding loses nothing the writer needs: same bytes back.
        prop_assert_eq!(encode_record(&direct), frame);
    }

    #[test]
    fn reordered_repeated_unknown_and_missing_members_decode_like_the_value_path(
        seed in any::<u64>(),
    ) {
        let mut g = Gen(seed);
        let Value::Map(mut members) = g.record().to_value() else {
            unreachable!("a record serializes as a map");
        };
        // Shuffle, then add an unknown member, a repeat of a known one
        // (well-typed or not) and sometimes drop one.
        for i in (1..members.len()).rev() {
            members.swap(i, g.below(i as u64 + 1) as usize);
        }
        let at = g.below(members.len() as u64 + 1) as usize;
        members.insert(at, ("unknown".into(), g.tree(2)));
        let repeat = members[g.below(members.len() as u64) as usize].0.clone();
        let at = g.below(members.len() as u64 + 1) as usize;
        let value = if g.below(2) == 0 { g.number() } else { g.tree(2) };
        members.insert(at, (repeat, value));
        if g.below(4) == 0 {
            members.remove(g.below(members.len() as u64) as usize);
        }
        let tree = Value::Map(members);
        let text = if g.below(2) == 0 {
            serde_json::to_string(&tree)
        } else {
            serde_json::to_string_pretty(&tree)
        }
        .expect("infallible");
        prop_assert_eq!(StoreRecord::from_json(&text).ok(), oracle(&text), "body: {}", text);
    }
}

#[test]
fn every_rechecksummed_flip_and_cut_of_a_body_decodes_like_the_value_path() {
    for seed in 0..4 {
        let record = Gen(seed).record();
        let frame = encode_record(&record);
        let body = &frame[RECORD_HEADER_LEN..];
        let check = |damaged: &[u8], what: &str| {
            let direct = std::str::from_utf8(damaged)
                .ok()
                .map(StoreRecord::from_json);
            let reference = std::str::from_utf8(damaged).ok().map(oracle);
            assert_eq!(
                direct.clone().map(Result::ok),
                reference,
                "seed {seed}, {what}"
            );
            // Replay sees the damaged record only through the decoder.
            let mut log = encode_record(&record);
            log.extend_from_slice(&frame_with_checksum(damaged));
            let report = scan(&log, |_| {});
            let decoded = matches!(direct, Some(Ok(_)));
            assert_eq!(
                report.records,
                1 + usize::from(decoded),
                "seed {seed}, {what}"
            );
            assert_eq!(report.tail.is_none(), decoded, "seed {seed}, {what}");
            if let Some(tail) = report.tail {
                assert_eq!(tail.offset, frame.len() as u64, "seed {seed}, {what}");
            }
        };
        for i in 0..body.len() {
            // 0x1e turns digits into `.`, `-`, `+` and `,`.
            for mask in [0x01, 0x1e, 0x20, 0x5a, 0x80] {
                let mut damaged = body.to_vec();
                damaged[i] ^= mask;
                check(&damaged, &format!("flip {mask:#04x} at {i}"));
            }
        }
        for cut in 0..body.len() {
            check(&body[..cut], &format!("cut at {cut}"));
        }
    }
}

#[test]
fn every_cut_and_flip_of_a_log_ends_replay_at_the_damaged_record() {
    let frames: Vec<Vec<u8>> = (10..13)
        .map(|seed| encode_record(&Gen(seed).record()))
        .collect();
    let log = frames.concat();
    let starts: Vec<usize> = frames
        .iter()
        .scan(0, |at, f| {
            let start = *at;
            *at += f.len();
            Some(start)
        })
        .collect();
    // The record holding byte `i`, and where it starts.
    let damaged_at = |i: usize| {
        let k = starts
            .iter()
            .rposition(|&s| s <= i)
            .expect("byte 0 starts record 0");
        (k, starts[k] as u64)
    };

    for cut in 0..=log.len() {
        let report = scan(&log[..cut], |_| {});
        if cut == log.len() || starts.contains(&cut) {
            let whole = starts.iter().filter(|&&s| s < cut).count();
            assert_eq!(report.records, whole, "cut at {cut}");
            assert!(report.tail.is_none(), "cut at {cut}: {:?}", report.tail);
            assert_eq!(report.bytes, cut as u64, "cut at {cut}");
        } else {
            let (k, offset) = damaged_at(cut);
            assert_eq!(report.records, k, "cut at {cut}");
            assert_eq!(report.bytes, offset, "cut at {cut}");
            let tail = report.tail.expect("a torn record is reported");
            assert_eq!(tail.offset, offset, "cut at {cut}");
        }
    }

    for i in 0..log.len() {
        for mask in [0x01, 0x5a, 0x80] {
            let mut corrupt = log.clone();
            corrupt[i] ^= mask;
            let report = scan(&corrupt, |_| {});
            let (k, offset) = damaged_at(i);
            assert_eq!(report.records, k, "flip {mask:#04x} at {i}");
            assert_eq!(report.bytes, offset, "flip {mask:#04x} at {i}");
            let tail = report.tail.expect("a damaged record is reported");
            assert_eq!(tail.offset, offset, "flip {mask:#04x} at {i}");
        }
    }
}
