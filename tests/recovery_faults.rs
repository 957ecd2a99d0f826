//! Fault injection against the metadata-index snapshot recovery path.
//!
//! The contract under test (`gdpr_core::snapshot`): recovery must **never
//! panic** and **never serve a wrong index** — whatever bytes sit at the
//! snapshot path — and must fall back to the O(n) rebuild *exactly* when
//! the image is untrustworthy: torn/truncated, bit-flipped, stale (the
//! store moved past the stamp, or fell short of it), duplicated, renamed
//! from an older generation, or written under a different shard topology.
//! After every single reopen, the index must answer every predicate in
//! the taxonomy identically to the reference scan semantics.

use gdprbench_repro::clock;
use gdprbench_repro::connectors::{PostgresConnector, RedisConnector};
use gdprbench_repro::gdpr_core::record::{Metadata, PersonalRecord};
use gdprbench_repro::gdpr_core::store::RecordPredicate;
use gdprbench_repro::gdpr_core::{
    wire, GdprConnector, GdprQuery, GdprResponse, IndexRecovery, Session, SnapshotInvalid,
};
use gdprbench_repro::kvstore::{config::AofStorage, FsyncPolicy, KvConfig, KvStore};
use gdprbench_repro::relstore::{Database, RelConfig, WalStorage};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A unique scratch directory per call (tests run concurrently).
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gdpr-recovery-faults-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn kv_config() -> KvConfig {
    KvConfig {
        aof: AofStorage::Memory,
        fsync: FsyncPolicy::Never,
        ..Default::default()
    }
}

/// A small but metadata-diverse corpus: every index dimension (user,
/// purpose, objection, sharing, decision opt-out, TTL) is populated on
/// some records and absent on others.
fn corpus() -> Vec<PersonalRecord> {
    (0..20)
        .map(|i| {
            let mut m = Metadata::new(
                format!("u{}", i % 4),
                vec![["ads", "2fa", "analytics"][i % 3].to_string()],
                Duration::from_secs(3_600 + i as u64),
            );
            if i % 3 == 0 {
                m.purposes.push("billing".into());
            }
            if i % 4 == 0 {
                m.objections.push("ads".into());
            }
            if i % 5 == 0 {
                m.sharing.push("x-corp".into());
            }
            if i % 6 == 0 {
                m.decisions.push(Metadata::DEC_OPT_OUT.to_string());
            }
            if i % 2 == 0 {
                m.ttl = None;
            }
            PersonalRecord::new(format!("k{i:02}"), format!("data-{i}"), m)
        })
        .collect()
}

/// The full predicate taxonomy over the corpus's term vocabulary,
/// including terms nothing matches.
fn taxonomy() -> Vec<RecordPredicate> {
    let mut preds = vec![RecordPredicate::DecisionEligible];
    for user in ["u0", "u1", "u2", "u3", "nobody"] {
        preds.push(RecordPredicate::User(user.into()));
    }
    for term in ["ads", "2fa", "analytics", "billing", "ghost"] {
        preds.push(RecordPredicate::DeclaredPurpose(term.into()));
        preds.push(RecordPredicate::AllowsPurpose(term.into()));
        preds.push(RecordPredicate::NotObjecting(term.into()));
    }
    for party in ["x-corp", "y-corp"] {
        preds.push(RecordPredicate::SharedWith(party.into()));
    }
    preds
}

/// The post-recovery invariant: for every predicate, the index's
/// candidate set equals the reference scan semantics over `expected`.
fn assert_index_matches_scan(conn: &RedisConnector, expected: &[PersonalRecord], ctx: &str) {
    let index = conn.metadata_index().expect("indexed variant");
    for pred in taxonomy() {
        let mut want: Vec<String> = expected
            .iter()
            .filter(|r| pred.matches(r))
            .map(|r| r.key.clone())
            .collect();
        want.sort();
        let got = index
            .keys_for(&pred)
            .unwrap_or_else(|| panic!("{ctx}: {pred:?} must stay index-answerable"));
        assert_eq!(got, want, "{ctx}: wrong index for {pred:?}");
    }
    assert_eq!(index.len(), expected.len(), "{ctx}: index cardinality");
}

fn rebuilt_cause(conn: &RedisConnector) -> &SnapshotInvalid {
    match conn.index_recovery(0).expect("snapshot-aware open") {
        IndexRecovery::Rebuilt { cause, .. } => cause,
        IndexRecovery::Restored { .. } => panic!("expected a rebuild"),
    }
}

/// Seed a store + snapshot file; returns (store, snapshot path, corpus).
fn seeded_snapshot(tag: &str) -> (Arc<KvStore>, PathBuf, Vec<PersonalRecord>) {
    let dir = scratch_dir(tag);
    let path = dir.join("metaindex.snap");
    let store = KvStore::open(kv_config()).unwrap();
    let conn = RedisConnector::with_metadata_index_snapshot(Arc::clone(&store), &path).unwrap();
    assert!(matches!(
        conn.index_recovery(0),
        Some(IndexRecovery::Rebuilt {
            cause: SnapshotInvalid::Missing,
            ..
        })
    ));
    let controller = Session::controller();
    let records = corpus();
    for r in &records {
        conn.execute(&controller, &GdprQuery::CreateRecord(r.clone()))
            .unwrap();
    }
    assert!(conn.write_index_snapshot().unwrap() > 0);
    (store, path, records)
}

#[test]
fn intact_snapshot_restores_and_matches_scan() {
    let (store, path, records) = seeded_snapshot("intact");
    let reopened = RedisConnector::with_metadata_index_snapshot(store, &path).unwrap();
    assert!(
        reopened.index_recovery(0).unwrap().is_restored(),
        "a matching image must take the O(index) path"
    );
    assert_index_matches_scan(&reopened, &records, "intact restore");
}

/// Property sweep: truncating the image at *every* byte prefix must never
/// panic, always rebuild (a prefix is never a valid image), and always
/// leave a correct index.
#[test]
fn truncation_at_every_byte_prefix_rebuilds_correctly() {
    let (store, path, records) = seeded_snapshot("truncate");
    let intact = std::fs::read(&path).unwrap();
    // The full predicate battery on every prefix would be O(len²); run it
    // on a spread of prefixes and the cheap cardinality check on all.
    for len in 0..intact.len() {
        std::fs::write(&path, &intact[..len]).unwrap();
        let reopened =
            RedisConnector::with_metadata_index_snapshot(Arc::clone(&store), &path).unwrap();
        assert!(
            !reopened.index_recovery(0).unwrap().is_restored(),
            "prefix of {len} bytes must not be trusted"
        );
        if len % 97 == 0 {
            assert_index_matches_scan(&reopened, &records, &format!("truncated at {len}"));
        } else {
            assert_eq!(
                reopened.metadata_index().unwrap().len(),
                records.len(),
                "truncated at {len}: rebuild must cover the store"
            );
        }
    }
    std::fs::write(&path, &intact).unwrap();
    let reopened = RedisConnector::with_metadata_index_snapshot(store, &path).unwrap();
    assert!(reopened.index_recovery(0).unwrap().is_restored());
}

/// Property sweep: flipping any single byte must fail the checksum (or
/// the parse), never panic, and never surface as a restored-but-wrong
/// index.
#[test]
fn byte_flips_anywhere_rebuild_correctly() {
    let (store, path, records) = seeded_snapshot("flip");
    let intact = std::fs::read(&path).unwrap();
    // A seeded xorshift picks flip positions and masks; every offset class
    // (magic, header, entries, checksum) is also hit explicitly.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut positions: Vec<(usize, u8)> = (0..256)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (
                (state as usize) % intact.len(),
                ((state >> 32) as u8) | 1, // never a zero mask
            )
        })
        .collect();
    positions.extend([
        (0, 0xFF),                // magic
        (9, 0x01),                // version
        (12, 0x01),               // stamp flags
        (14, 0x80),               // generation
        (22, 0x01),               // shard index
        (27, 0x01),               // shard count
        (30, 0x01),               // entry count
        (40, 0x20),               // first entry
        (intact.len() - 1, 0x01), // checksum
        (intact.len() - 9, 0x01), // last body byte
    ]);
    for (i, (pos, mask)) in positions.into_iter().enumerate() {
        let mut bad = intact.clone();
        bad[pos] ^= mask;
        std::fs::write(&path, &bad).unwrap();
        let reopened =
            RedisConnector::with_metadata_index_snapshot(Arc::clone(&store), &path).unwrap();
        assert!(
            !reopened.index_recovery(0).unwrap().is_restored(),
            "flip {mask:#x} at byte {pos} must not be trusted"
        );
        if i % 29 == 0 {
            assert_index_matches_scan(&reopened, &records, &format!("flip at {pos}"));
        } else {
            assert_eq!(reopened.metadata_index().unwrap().len(), records.len());
        }
    }
}

/// Duplicated and garbage-appended images are malformed, not trusted.
#[test]
fn duplicated_or_padded_images_rebuild_correctly() {
    let (store, path, records) = seeded_snapshot("dup");
    let intact = std::fs::read(&path).unwrap();
    let mut doubled = intact.clone();
    doubled.extend_from_slice(&intact);
    let mut padded = intact.clone();
    padded.extend_from_slice(&[0u8; 7]);
    for (tag, bytes) in [("doubled", doubled), ("padded", padded)] {
        std::fs::write(&path, &bytes).unwrap();
        let reopened =
            RedisConnector::with_metadata_index_snapshot(Arc::clone(&store), &path).unwrap();
        // The appended bytes shift the trailing-checksum window, so these
        // surface as checksum mismatches (or, with a colliding tail, as
        // malformed structure) — either way, structurally untrustworthy.
        assert!(
            matches!(
                rebuilt_cause(&reopened),
                SnapshotInvalid::Malformed(_) | SnapshotInvalid::ChecksumMismatch
            ),
            "{tag} image must be structurally rejected, got {:?}",
            reopened.index_recovery(0)
        );
        assert_index_matches_scan(&reopened, &records, tag);
    }
}

/// Regression (staleness): a record written *after* the snapshot's
/// generation stamp — here via `set_ex` behind the engine, the PR-4
/// sabotage pattern — must force a rebuild. Trusting the image would
/// serve an index that silently omits the smuggled record from every
/// predicate (and from the negative predicates' universe).
#[test]
fn write_behind_the_engine_after_snapshot_forces_rebuild() {
    let (store, path, mut records) = seeded_snapshot("behind");
    let mut smuggled = PersonalRecord::new(
        "k-behind",
        "d",
        Metadata::new("u9", vec!["ads".into()], Duration::from_secs(60)),
    );
    smuggled.metadata.sharing.push("x-corp".into());
    store
        .set_ex(
            b"rec:k-behind",
            wire::serialize(&smuggled).as_bytes(),
            Duration::from_secs(60),
        )
        .unwrap();
    records.push(smuggled);

    let reopened = RedisConnector::with_metadata_index_snapshot(Arc::clone(&store), &path).unwrap();
    assert!(
        matches!(
            rebuilt_cause(&reopened),
            SnapshotInvalid::StaleGeneration { .. }
        ),
        "a write behind the stamp must read as staleness, got {:?}",
        reopened.index_recovery(0)
    );
    assert_index_matches_scan(&reopened, &records, "smuggled set_ex");
    // The rebuilt index serves the smuggled record like any other.
    let resp = reopened
        .execute(
            &Session::customer("u9"),
            &GdprQuery::ReadDataByUser("u9".into()),
        )
        .unwrap();
    assert_eq!(resp.cardinality(), 1);
}

/// Staleness in both directions across a crash: an AOF replayed *past*
/// the stamp (writes after the snapshot) and an AOF torn *short* of it
/// (the store lost a tail the index still describes) must both rebuild;
/// replaying to exactly the stamp restores.
#[test]
fn aof_replay_past_or_short_of_the_stamp_forces_rebuild() {
    let (store, path, records) = seeded_snapshot("replay");
    let at_stamp = store.aof_memory_buffer().unwrap().lock().clone();

    // Writes after the snapshot: replaying the full log overshoots the
    // stamp.
    let conn = RedisConnector::with_metadata_index(Arc::clone(&store)).unwrap();
    let late = PersonalRecord::new(
        "k-late",
        "d",
        Metadata::new("u0", vec!["2fa".into()], Duration::from_secs(3_600)),
    );
    conn.execute(
        &Session::controller(),
        &GdprQuery::CreateRecord(late.clone()),
    )
    .unwrap();
    let past_stamp = store.aof_memory_buffer().unwrap().lock().clone();

    let replayed = KvStore::replay(kv_config(), &past_stamp, clock::wall()).unwrap();
    let reopened = RedisConnector::with_metadata_index_snapshot(replayed, &path).unwrap();
    assert!(matches!(
        rebuilt_cause(&reopened),
        SnapshotInvalid::StaleGeneration { .. }
    ));
    let mut with_late = records.clone();
    with_late.push(late);
    assert_index_matches_scan(&reopened, &with_late, "replay past the stamp");

    // Torn tail: drop the log's final frame — here the last record's
    // EXPIREAT, so the record survives but *without its TTL*. Even this
    // single-frame divergence (no key added or lost!) moves the
    // generation and must force a rebuild: the snapshot still carries a
    // deadline the store no longer backs.
    let shorter = {
        let mut offsets = vec![];
        let mut pos = 0usize;
        while pos + 4 <= at_stamp.len() {
            offsets.push(pos);
            let len = u32::from_le_bytes(at_stamp[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4 + len;
        }
        &at_stamp[..*offsets.last().unwrap()]
    };
    let replayed = KvStore::replay(kv_config(), shorter, clock::wall()).unwrap();
    let reopened = RedisConnector::with_metadata_index_snapshot(replayed, &path).unwrap();
    assert!(matches!(
        rebuilt_cause(&reopened),
        SnapshotInvalid::StaleGeneration { .. }
    ));
    assert_index_matches_scan(&reopened, &records, "replay short of the stamp");
    // The rebuild re-arms k19's deadline from its *declared* TTL (the
    // store lost the native one with the torn frame; a TTL'd record must
    // not be retained forever just because its EXPIREAT tore away).
    assert!(reopened
        .metadata_index()
        .unwrap()
        .deadline_of("k19")
        .is_some());

    // Replay to exactly the stamp: trustworthy, restored.
    let replayed = KvStore::replay(kv_config(), &at_stamp, clock::wall()).unwrap();
    let reopened = RedisConnector::with_metadata_index_snapshot(replayed, &path).unwrap();
    assert!(reopened.index_recovery(0).unwrap().is_restored());
    assert_index_matches_scan(&reopened, &records, "replay to the stamp");
}

/// A *renamed* stale image — an older generation's bytes copied over the
/// current path (backup restored into place, rsync race, operator error)
/// — carries a valid checksum and the right topology, and must still be
/// rejected by the generation stamp alone.
#[test]
fn renamed_stale_generation_is_rejected_by_the_stamp() {
    let (store, path, records) = seeded_snapshot("rename");
    let old_image = std::fs::read(&path).unwrap();

    // Move the store forward and snapshot again (the current image).
    let conn = RedisConnector::with_metadata_index_snapshot(Arc::clone(&store), &path).unwrap();
    let extra = PersonalRecord::new(
        "k-extra",
        "d",
        Metadata::new("u1", vec!["ads".into()], Duration::from_secs(3_600)),
    );
    conn.execute(
        &Session::controller(),
        &GdprQuery::CreateRecord(extra.clone()),
    )
    .unwrap();
    conn.write_index_snapshot().unwrap();
    let mut records = records;
    records.push(extra);

    // The current image restores…
    let reopened = RedisConnector::with_metadata_index_snapshot(Arc::clone(&store), &path).unwrap();
    assert!(reopened.index_recovery(0).unwrap().is_restored());
    assert_index_matches_scan(&reopened, &records, "current image");

    // …the renamed old one does not, however intact it is.
    std::fs::write(&path, &old_image).unwrap();
    let reopened = RedisConnector::with_metadata_index_snapshot(store, &path).unwrap();
    assert!(matches!(
        rebuilt_cause(&reopened),
        SnapshotInvalid::StaleGeneration { .. }
    ));
    assert_index_matches_scan(&reopened, &records, "renamed stale image");
}

/// Shard-count change across a restart: every per-shard image carries the
/// topology it was written under, so reopening under a different count
/// rebuilds every shard index (while `verify_placement` flags the store
/// side, exactly as PR-2 pinned); reopening under the original count
/// restores every shard.
#[test]
fn shard_count_mismatch_rebuilds_while_same_count_restores() {
    let dir = scratch_dir("topology");
    let clk = clock::wall();
    let stores: Vec<_> = (0..2)
        .map(|_| KvStore::open_with_clock(kv_config(), clk.clone()).unwrap())
        .collect();
    let conn = RedisConnector::sharded_with_metadata_index_snapshots(stores.clone(), &dir).unwrap();
    let controller = Session::controller();
    let records = corpus();
    for r in &records {
        conn.execute(&controller, &GdprQuery::CreateRecord(r.clone()))
            .unwrap();
    }
    assert!(
        conn.engine().close().unwrap() > 0,
        "close persists the images"
    );
    let aofs: Vec<Vec<u8>> = stores
        .iter()
        .map(|s| s.aof_memory_buffer().unwrap().lock().clone())
        .collect();
    let replay_fleet = |n_extra: usize| -> Vec<Arc<KvStore>> {
        let clk = clock::wall();
        let mut fleet: Vec<Arc<KvStore>> = aofs
            .iter()
            .map(|aof| KvStore::replay(kv_config(), aof, clk.clone()).unwrap())
            .collect();
        for _ in 0..n_extra {
            fleet.push(KvStore::open_with_clock(kv_config(), clk.clone()).unwrap());
        }
        fleet
    };

    // Same count: every shard restores, responses match the original.
    let same =
        RedisConnector::sharded_with_metadata_index_snapshots(replay_fleet(0), &dir).unwrap();
    for shard in 0..2 {
        assert!(
            same.index_recovery(shard).unwrap().is_restored(),
            "shard {shard} must restore under the original topology"
        );
    }
    same.engine().verify_placement().unwrap();
    for user in ["u0", "u1", "u2", "u3"] {
        assert_eq!(
            conn.execute(
                &Session::customer(user),
                &GdprQuery::ReadDataByUser(user.into())
            )
            .unwrap(),
            same.execute(
                &Session::customer(user),
                &GdprQuery::ReadDataByUser(user.into())
            )
            .unwrap(),
            "restored topology must answer as the original"
        );
    }

    // Changed count (2 → 3): every shard index rebuilds with a topology
    // cause; the store side misroutes until rebalanced, after which the
    // (already rebuilt) indexes answer correctly.
    let three =
        RedisConnector::sharded_with_metadata_index_snapshots(replay_fleet(1), &dir).unwrap();
    for shard in 0..2 {
        match three.index_recovery(shard).unwrap() {
            IndexRecovery::Rebuilt {
                cause: SnapshotInvalid::TopologyMismatch { snapshot, expected },
                ..
            } => {
                assert_eq!(snapshot.1, 2, "written under 2 shards");
                assert_eq!(expected.1, 3, "reopened under 3");
            }
            other => panic!("shard {shard}: expected topology rebuild, got {other:?}"),
        }
    }
    // The fresh third shard has no image at all.
    assert!(matches!(
        three.index_recovery(2).unwrap(),
        IndexRecovery::Rebuilt {
            cause: SnapshotInvalid::Missing,
            ..
        }
    ));
    assert!(
        three.engine().verify_placement().is_err(),
        "store side misroutes"
    );
    assert!(three.engine().rebalance().unwrap() > 0);
    three.engine().verify_placement().unwrap();
    let resp = three
        .execute(
            &Session::customer("u0"),
            &GdprQuery::ReadDataByUser("u0".into()),
        )
        .unwrap();
    assert_eq!(
        resp.cardinality(),
        records.iter().filter(|r| r.metadata.user == "u0").count()
    );
}

/// TTL correctness across restore: a deadline set carried through a
/// snapshot must fire the inclusive-boundary purge (`deadline == now` is
/// expired) exactly as a never-restarted engine would — on the kvstore
/// path and the relstore path alike.
#[test]
fn restored_deadline_set_fires_inclusive_boundary_purge_on_both_backends() {
    let controller = Session::controller();
    let mut record = PersonalRecord::new(
        "ttl-1",
        "d",
        Metadata::new("neo", vec!["ads".into()], Duration::from_secs(10)),
    );
    record.metadata.ttl = Some(Duration::from_secs(10));

    // --- kvstore path ---
    let sim = clock::sim();
    let dir = scratch_dir("ttl-kv");
    let path = dir.join("metaindex.snap");
    let config = KvConfig {
        expiration: gdprbench_repro::kvstore::ExpirationMode::Strict,
        ..kv_config()
    };
    let store = KvStore::open_with_clock(config.clone(), sim.clone()).unwrap();
    let conn = RedisConnector::with_metadata_index_snapshot(Arc::clone(&store), &path).unwrap();
    conn.execute(&controller, &GdprQuery::CreateRecord(record.clone()))
        .unwrap();
    conn.write_index_snapshot().unwrap();
    let aof = store.aof_memory_buffer().unwrap().lock().clone();

    // Advance the shared sim clock to exactly the deadline, then "crash"
    // and recover: store from the AOF, index from the snapshot.
    sim.advance(Duration::from_millis(10_000));
    let replayed = KvStore::replay(config, &aof, sim.clone()).unwrap();
    let restored = RedisConnector::with_metadata_index_snapshot(replayed, &path).unwrap();
    assert!(restored.index_recovery(0).unwrap().is_restored());
    assert_eq!(
        restored.metadata_index().unwrap().expired_keys(10_000),
        vec!["ttl-1"],
        "the restored deadline set treats deadline == now as expired"
    );
    assert_eq!(
        restored
            .execute(&controller, &GdprQuery::DeleteExpired)
            .unwrap(),
        GdprResponse::Deleted(1),
        "kvstore: restored deadline fires at the boundary instant"
    );
    assert_eq!(
        restored
            .execute(
                &Session::regulator(),
                &GdprQuery::VerifyDeletion("ttl-1".into())
            )
            .unwrap(),
        GdprResponse::DeletionVerified(true)
    );
    assert!(restored.metadata_index().unwrap().is_empty());

    // --- relstore path (engine index over the WAL-backed store) ---
    let sim = clock::sim();
    let dir = scratch_dir("ttl-rel");
    let path = dir.join("metaindex.snap");
    let config = RelConfig {
        wal: WalStorage::Memory,
        ..Default::default()
    };
    let db = Database::open_with_clock(config.clone(), sim.clone()).unwrap();
    let conn = PostgresConnector::with_engine_index_snapshot(Arc::clone(&db), &path).unwrap();
    conn.execute(&controller, &GdprQuery::CreateRecord(record.clone()))
        .unwrap();
    conn.close().unwrap();
    let wal = db.wal_memory_buffer().unwrap().lock().clone();

    sim.advance(Duration::from_millis(10_000));
    let recovered = Database::recover(config, &wal, sim.clone()).unwrap();
    let restored = PostgresConnector::with_engine_index_snapshot(recovered, &path).unwrap();
    assert!(
        restored.index_recovery(0).unwrap().is_restored(),
        "relstore: {:?}",
        restored.index_recovery(0)
    );
    assert_eq!(
        restored.metadata_index().unwrap().expired_keys(10_000),
        vec!["ttl-1"]
    );
    assert_eq!(
        restored
            .execute(&controller, &GdprQuery::DeleteExpired)
            .unwrap(),
        GdprResponse::Deleted(1),
        "relstore: restored deadline fires at the boundary instant"
    );
    assert_eq!(
        restored
            .execute(
                &Session::regulator(),
                &GdprQuery::VerifyDeletion("ttl-1".into())
            )
            .unwrap(),
        GdprResponse::DeletionVerified(true)
    );

    // One millisecond earlier nothing would have fired: pin the boundary
    // from the other side on a fresh kvstore run.
    let sim = clock::sim();
    let dir = scratch_dir("ttl-kv-early");
    let path = dir.join("metaindex.snap");
    let store = KvStore::open_with_clock(kv_config(), sim.clone()).unwrap();
    let conn = RedisConnector::with_metadata_index_snapshot(store, &path).unwrap();
    conn.execute(&controller, &GdprQuery::CreateRecord(record))
        .unwrap();
    conn.write_index_snapshot().unwrap();
    sim.advance(Duration::from_millis(9_999));
    assert_eq!(
        conn.execute(&controller, &GdprQuery::DeleteExpired)
            .unwrap(),
        GdprResponse::Deleted(0),
        "not due at deadline − 1ms"
    );
}
