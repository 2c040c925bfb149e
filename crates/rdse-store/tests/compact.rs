//! Compaction round trip: compact → reopen replays exactly the archive
//! the store held, the rewritten log verifies clean, and appends after
//! compaction land in the new log.

use rdse_store::{verify, CostBits, KeySpec, ResultStore, StoreRecord, SyncPolicy};
use serde::Value;

/// Record `n` of pair `n % 3`; `version` changes its content, not its key.
fn record(n: u64, version: u64) -> StoreRecord {
    let arch = format!(r#"{{"clbs":{}}}"#, n % 3);
    let spec = KeySpec {
        app_json: r#"{"tasks":[]}"#,
        arch_json: &arch,
        objective: "makespan",
        seed: n,
        iters: 3000,
        warmup: 600,
        chains: 2,
        exchange_every: 250,
    };
    let makespan = 100.0 + n as f64 + version as f64 / 7.0;
    StoreRecord {
        key: spec.key(),
        pair: spec.pair(),
        objective: "makespan".into(),
        seed: n,
        chains: 2,
        iters: 3000,
        warmup: 600,
        exchange_every: 250,
        winner: version % 2,
        iterations: 3000,
        contexts: 2,
        hw_tasks: 4,
        clb_area: 700,
        makespan_bits: makespan.to_bits(),
        best: CostBits::from_values(makespan, 700.0, 9.5, 2.0),
        front: vec![
            CostBits::from_values(makespan, 700.0, 9.5, 2.0),
            CostBits::from_values(makespan + 20.0, 400.0, 4.0, 1.0),
        ],
        mapping: Value::Map(vec![(
            "placement".into(),
            Value::Seq(vec![Value::I64(version as i64)]),
        )]),
    }
}

fn snapshot(store: &ResultStore) -> Vec<StoreRecord> {
    store.archive().records().cloned().collect()
}

#[test]
fn compact_then_reopen_replays_the_identical_archive() {
    let dir = std::env::temp_dir().join(format!("rdse_store_compact_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("results.aof");
    let _ = std::fs::remove_file(&path);

    let mut store = ResultStore::open(&path, SyncPolicy::Never).expect("open");
    for n in 0..8 {
        store.append(record(n, 0)).expect("append");
    }
    // Supersede three keys: compaction must keep only the latest.
    for n in [1, 4, 6] {
        store.append(record(n, 1)).expect("append newer");
    }
    let before = snapshot(&store);
    assert_eq!(before.len(), 8);

    let report = store.compact().expect("compact");
    assert_eq!(report.records_before, 11);
    assert_eq!(report.records_after, 8);
    assert!(report.bytes_after < report.bytes_before);
    assert_eq!(snapshot(&store), before, "compaction changed the archive");

    let reopened = ResultStore::open(&path, SyncPolicy::Never).expect("reopen");
    assert_eq!(snapshot(&reopened), before);
    assert!(reopened.replay_report().tail.is_none());
    assert_eq!(reopened.replay_report().records, 8);
    let (replay, file_len) = verify(&path).expect("verify");
    assert!(replay.tail.is_none());
    assert_eq!(replay.bytes, file_len);
    assert_eq!(file_len, report.bytes_after);
    drop(reopened);

    // The compacting store's handle points at the new log: an append
    // after compaction survives the next reopen.
    store.append(record(9, 0)).expect("append after compaction");
    drop(store);
    let reopened = ResultStore::open(&path, SyncPolicy::Never).expect("reopen");
    let mut expected = before;
    expected.push(record(9, 0));
    expected.sort_by_key(|r| r.key);
    assert_eq!(snapshot(&reopened), expected);
    assert!(reopened.replay_report().tail.is_none());

    std::fs::remove_dir_all(&dir).ok();
}
