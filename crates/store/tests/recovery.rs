//! Recovery-ladder integration tests: checkpoint → WAL replay must be
//! bit-identical to the in-memory peer, corruption must degrade to the
//! previous consistent state, and no persisted garbage may panic.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use jxp_core::{snapshot, JxpConfig, JxpPeer, MeetingPayload};
use jxp_store::{
    check_wal_protocol, DirStore, MemStore, StateStore, StoreError, WalKind, WalRecord,
};
use jxp_webgraph::{GraphBuilder, PageId, Subgraph};

fn tempdir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "jxp_store_test_{tag}_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create tempdir");
    dir
}

/// Two peers over a shared 4-page ring-with-chord graph.
fn peer_pair() -> (JxpPeer, JxpPeer) {
    let mut b = GraphBuilder::new();
    for (s, d) in [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)] {
        b.add_edge(PageId(s), PageId(d));
    }
    let g = b.build();
    let a = JxpPeer::new(
        Subgraph::from_pages(&g, [PageId(0), PageId(1)]),
        4,
        JxpConfig::default(),
    );
    let c = JxpPeer::new(
        Subgraph::from_pages(&g, [PageId(2), PageId(3)]),
        4,
        JxpConfig::default(),
    );
    (a, c)
}

/// One meeting with the exact `core::meeting::meet` semantics (both
/// payloads computed before either absorb, each cut to the receiver),
/// returning what each side absorbed so the caller can journal it.
fn exchange(a: &mut JxpPeer, c: &mut JxpPeer) -> (MeetingPayload, MeetingPayload) {
    let pa = a.payload_for(c.interest());
    let pc = c.payload_for(a.interest());
    a.absorb(&pc);
    c.absorb(&pa);
    (pc, pa)
}

fn absorb_record(seq: u64, inbound: MeetingPayload) -> WalRecord {
    WalRecord {
        seq,
        kind: WalKind::Absorb,
        inbound,
        outbound: None,
    }
}

/// Drive `total` meetings for peer `a`, checkpointing after
/// `checkpoint_at` of them and journaling the rest; returns the final
/// in-memory peer for comparison.
fn persisted_run(store: &dyn StateStore, key: &str, checkpoint_at: u64, total: u64) -> JxpPeer {
    let (mut a, mut c) = peer_pair();
    for _ in 0..checkpoint_at {
        exchange(&mut a, &mut c);
    }
    store
        .checkpoint(key, checkpoint_at, &snapshot::save(&a))
        .expect("checkpoint");
    for seq in checkpoint_at + 1..=total {
        let (inbound, _) = exchange(&mut a, &mut c);
        store
            .append(key, &absorb_record(seq, inbound))
            .expect("append");
    }
    a
}

#[test]
fn checkpoint_plus_wal_replay_is_bit_identical() {
    let store = MemStore::new();
    let live = persisted_run(&store, "a", 3, 7);
    let rec = store.load("a").expect("load").expect("state exists");
    assert_eq!(rec.seq, 7);
    assert_eq!(rec.checkpoint_seq, 3);
    assert_eq!(rec.replayed, 4);
    assert!(!rec.used_fallback);
    assert!(!rec.torn_tail);
    assert_eq!(
        rec.peer.scores(),
        live.scores(),
        "scores must match bit for bit"
    );
    assert_eq!(
        rec.peer.world_score().to_bits(),
        live.world_score().to_bits()
    );
    assert_eq!(rec.peer.world().len(), live.world().len());
}

#[test]
fn missing_state_loads_as_none() {
    let store = MemStore::new();
    assert!(store.load("ghost").expect("load").is_none());
}

#[test]
fn corrupt_current_falls_back_to_previous_checkpoint() {
    let store = MemStore::new();
    let (mut a, mut c) = peer_pair();
    for _ in 0..3 {
        exchange(&mut a, &mut c);
    }
    let at_3 = snapshot::save(&a);
    store.checkpoint("a", 3, &at_3).expect("checkpoint 3");
    for seq in 4..=5 {
        let (inbound, _) = exchange(&mut a, &mut c);
        store
            .append("a", &absorb_record(seq, inbound))
            .expect("append");
    }
    store
        .checkpoint("a", 5, &snapshot::save(&a))
        .expect("checkpoint 5");
    // Flip a payload byte of the current checkpoint: CRC now fails.
    store.corrupt_current("a", 40);
    let rec = store.load("a").expect("load").expect("state exists");
    assert!(rec.used_fallback, "must recover via previous checkpoint");
    assert_eq!(rec.checkpoint_seq, 3);
    // The WAL was compacted at seq 5, so records 4..5 are gone and the
    // recovered state is exactly the previous checkpoint.
    assert_eq!(rec.seq, 3);
    let at_3_peer = snapshot::load(&at_3[..]).expect("snapshot loads");
    assert_eq!(rec.peer.scores(), at_3_peer.scores());
}

#[test]
fn corrupt_current_without_fallback_is_an_error_not_a_panic() {
    let store = MemStore::new();
    let (mut a, mut c) = peer_pair();
    exchange(&mut a, &mut c);
    store
        .checkpoint("a", 1, &snapshot::save(&a))
        .expect("checkpoint");
    store.corrupt_current("a", 30);
    store.drop_previous("a");
    assert!(store.load("a").is_err());
}

#[test]
fn torn_wal_tail_is_tolerated() {
    let store = MemStore::new();
    let live = persisted_run(&store, "a", 2, 6);
    let _ = &live;
    // Tear the final record: drop its last 3 bytes.
    let wal = store.raw_wal("a");
    store.truncate_wal("a", wal.len() - 3);
    let rec = store.load("a").expect("load").expect("state exists");
    assert!(rec.torn_tail, "torn tail must be reported");
    assert_eq!(rec.seq, 5, "replay stops at the last whole record");
    assert_eq!(rec.replayed, 3);
}

#[test]
fn wal_bit_flips_never_panic() {
    let store = MemStore::new();
    let _ = persisted_run(&store, "a", 2, 5);
    let wal = store.raw_wal("a");
    for i in 0..wal.len() {
        let mut bad = wal.clone();
        bad[i] ^= 0xFF;
        store.set_wal("a", bad);
        // Any outcome is acceptable except a panic; recovery must
        // always land on *some* consistent prefix or a clean error.
        let _ = store.load("a");
    }
}

#[test]
fn dir_store_round_trips_on_disk() {
    let dir = tempdir("roundtrip");
    let store = DirStore::open(&dir).expect("open");
    let live = persisted_run(&store, "node-0", 3, 7);
    let rec = store.load("node-0").expect("load").expect("state exists");
    assert_eq!(rec.seq, 7);
    assert_eq!(rec.peer.scores(), live.scores());
    assert_eq!(store.keys().expect("keys"), vec!["node-0".to_string()]);
    assert!(store.wal_size("node-0").expect("wal size") > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dir_store_checkpoint_rotates_and_compacts() {
    let dir = tempdir("rotate");
    let store = DirStore::open(&dir).expect("open");
    let (mut a, mut c) = peer_pair();
    store
        .checkpoint("n", 0, &snapshot::save(&a))
        .expect("ckpt 0");
    for seq in 1..=4 {
        let (inbound, _) = exchange(&mut a, &mut c);
        store
            .append("n", &absorb_record(seq, inbound))
            .expect("append");
    }
    let before = store.wal_size("n").expect("wal size");
    store
        .checkpoint("n", 4, &snapshot::save(&a))
        .expect("ckpt 4");
    let after = store.wal_size("n").expect("wal size");
    assert!(
        after < before,
        "checkpoint must compact the WAL ({before} -> {after})"
    );
    assert!(dir.join("n").join("current.ckpt").exists());
    assert!(dir.join("n").join("previous.ckpt").exists());
    // The record at the checkpoint sequence survives compaction for
    // torn-meeting repair.
    let rec = store.load("n").expect("load").expect("state exists");
    assert_eq!(rec.seq, 4);
    assert_eq!(rec.last_record.expect("repair record kept").seq, 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dir_store_falls_back_when_current_file_is_corrupted() {
    let dir = tempdir("fallback");
    let store = DirStore::open(&dir).expect("open");
    let (mut a, mut c) = peer_pair();
    exchange(&mut a, &mut c);
    store
        .checkpoint("n", 1, &snapshot::save(&a))
        .expect("ckpt 1");
    exchange(&mut a, &mut c);
    store
        .checkpoint("n", 2, &snapshot::save(&a))
        .expect("ckpt 2");
    let path = dir.join("n").join("current.ckpt");
    let mut bytes = std::fs::read(&path).expect("read current");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("write corrupted");
    let rec = store.load("n").expect("load").expect("state exists");
    assert!(rec.used_fallback);
    assert_eq!(rec.checkpoint_seq, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// `fixtures/v{1,2}/node-0`: the seed checkpoint of `peer_pair().0` (a
/// JXPP version-1 snapshot) and one `Serve` record, written by the last
/// build of each protocol (commits 9f82289 and 127cf95). The checkpoints
/// are byte-identical.
const V1_CHECKPOINT: &[u8] = include_bytes!("fixtures/v1/node-0/current.ckpt");
const V1_WAL: &[u8] = include_bytes!("fixtures/v1/node-0/wal.log");
const V2_CHECKPOINT: &[u8] = include_bytes!("fixtures/v2/node-0/current.ckpt");
const V2_WAL: &[u8] = include_bytes!("fixtures/v2/node-0/wal.log");

#[test]
fn a_journal_of_another_protocol_version_is_refused_by_name() {
    assert_eq!(V1_CHECKPOINT, V2_CHECKPOINT);
    for (found, wal) in [(1, V1_WAL), (2, V2_WAL)] {
        let refused = StoreError::Protocol {
            found,
            speaks: jxp_wire::PROTOCOL_VERSION,
        };
        assert_eq!(check_wal_protocol(wal), Err(refused.clone()));
        assert_eq!(
            refused.to_string(),
            format!("state written by protocol {found}, this build speaks 3")
        );
        let store = MemStore::new();
        store
            .checkpoint("node-0", 0, &snapshot::save(&peer_pair().0))
            .expect("checkpoint");
        store.set_wal("node-0", wal.to_vec());
        assert_eq!(store.load("node-0").expect_err("old protocol"), refused);
        // Without the journal, the fixtures' JXPP version-1 snapshot is
        // refused by its version, not failed as corrupt.
        let old_snapshot = StoreError::Snapshot { found: 1, reads: 2 };
        assert_eq!(
            jxp_store::recover(Some(V1_CHECKPOINT), None, &[]).expect_err("JXPP v1"),
            old_snapshot
        );
        assert_eq!(
            old_snapshot.to_string(),
            "checkpoint holds a JXPP version 1 snapshot, this build reads version 2"
        );

        // Only a whole first record is believed: a torn or flipped one
        // is `scan_wal`'s to judge.
        assert_eq!(check_wal_protocol(&wal[..40]), Ok(()));
        let mut flipped = wal.to_vec();
        flipped[60] ^= 0xFF;
        assert_eq!(check_wal_protocol(&flipped), Ok(()));
    }
    // What this build writes passes.
    let own = MemStore::new();
    persisted_run(&own, "a", 0, 2);
    assert_eq!(check_wal_protocol(&own.raw_wal("a")), Ok(()));
    assert_eq!(check_wal_protocol(&[]), Ok(()));
}

#[test]
fn keys_rejects_path_traversal() {
    let store = MemStore::new();
    assert!(store.wal_size("../evil").is_err());
    assert!(store.wal_size("").is_err());
    assert!(store.wal_size(".hidden").is_err());
    assert!(store.wal_size("node-0").is_ok());
}
