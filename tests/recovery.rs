//! Durability of GDPR semantics across crashes: replaying the stores'
//! persistence logs must preserve erasures (a resurrected record after a
//! crash would be an Article 17 violation) and must never leak plaintext
//! personal data on disk when encryption at rest is on (Article 32).

use gdprbench_repro::connectors::{PostgresConnector, RedisConnector};
use gdprbench_repro::gdpr_core::record::{Metadata, PersonalRecord};
use gdprbench_repro::gdpr_core::{GdprConnector, GdprError, GdprQuery, GdprResponse, Session};
use gdprbench_repro::kvstore::{config::AofStorage, KvConfig, KvStore};
use gdprbench_repro::relstore::{Database, RelConfig, WalStorage};
use std::time::Duration;

fn record(key: &str, user: &str) -> PersonalRecord {
    PersonalRecord::new(
        key,
        format!("secret-data-of-{user}"),
        Metadata::new(user, vec!["billing".into()], Duration::from_secs(86_400)),
    )
}

#[test]
fn erasure_survives_kvstore_crash_recovery() {
    let config = KvConfig {
        aof: AofStorage::Memory,
        fsync: gdprbench_repro::kvstore::FsyncPolicy::Never,
        ..Default::default()
    };
    let store = KvStore::open(config.clone()).unwrap();
    let conn = RedisConnector::new(std::sync::Arc::clone(&store));
    let controller = Session::controller();
    conn.execute(&controller, &GdprQuery::CreateRecord(record("r1", "neo")))
        .unwrap();
    conn.execute(&controller, &GdprQuery::CreateRecord(record("r2", "neo")))
        .unwrap();
    conn.execute(
        &Session::customer("neo"),
        &GdprQuery::DeleteByKey("r1".into()),
    )
    .unwrap();
    let aof = store.aof_memory_buffer().unwrap().lock().clone();

    // "Crash" and recover from the AOF.
    let recovered = KvStore::replay(config, &aof, gdprbench_repro::clock::wall()).unwrap();
    let conn = RedisConnector::new(recovered);
    let regulator = Session::regulator();
    assert_eq!(
        conn.execute(&regulator, &GdprQuery::VerifyDeletion("r1".into()))
            .unwrap(),
        GdprResponse::DeletionVerified(true),
        "an erased record must stay erased across recovery"
    );
    assert_eq!(
        conn.execute(&regulator, &GdprQuery::VerifyDeletion("r2".into()))
            .unwrap(),
        GdprResponse::DeletionVerified(false)
    );
}

#[test]
fn erasure_survives_relstore_crash_recovery() {
    let config = RelConfig {
        wal: WalStorage::Memory,
        ..Default::default()
    };
    let db = Database::open(config.clone()).unwrap();
    let conn = PostgresConnector::new(std::sync::Arc::clone(&db)).unwrap();
    let controller = Session::controller();
    conn.execute(&controller, &GdprQuery::CreateRecord(record("r1", "neo")))
        .unwrap();
    conn.execute(&controller, &GdprQuery::CreateRecord(record("r2", "smith")))
        .unwrap();
    conn.execute(
        &Session::customer("neo"),
        &GdprQuery::DeleteByUser("neo".into()),
    )
    .unwrap();
    let wal = db.wal_memory_buffer().unwrap().lock().clone();

    let recovered = Database::recover(config, &wal, gdprbench_repro::clock::wall()).unwrap();
    let table = recovered.table("personal_data").unwrap();
    assert_eq!(table.read().row_count(), 1, "only smith's record survives");
}

/// Sharded recovery: each shard replays its own AOF. Restarting with the
/// original shard count rebuilds cleanly; restarting with a *different*
/// shard count leaves records in shards that no longer own their keys,
/// which must fail loudly (`ShardMisroute`) — silent misrouting would make
/// point lookups miss live personal data — and `rebalance()` must then
/// migrate every record home, after which erasures still hold.
#[test]
fn sharded_restart_with_changed_shard_count_fails_loudly_or_rebuilds() {
    let config = KvConfig {
        aof: AofStorage::Memory,
        fsync: gdprbench_repro::kvstore::FsyncPolicy::Never,
        ..Default::default()
    };
    // Every fleet shares one clock instance — the sharded engine rejects
    // mixed clocks (their epochs are not comparable).
    let clk = gdprbench_repro::clock::wall();
    let stores: Vec<_> = (0..2)
        .map(|_| KvStore::open_with_clock(config.clone(), clk.clone()).unwrap())
        .collect();
    let conn = RedisConnector::sharded_with_metadata_index(stores.clone()).unwrap();
    let controller = Session::controller();
    for i in 0..16 {
        conn.execute(
            &controller,
            &GdprQuery::CreateRecord(record(&format!("r{i}"), "neo")),
        )
        .unwrap();
    }
    conn.execute(
        &Session::customer("neo"),
        &GdprQuery::DeleteByKey("r0".into()),
    )
    .unwrap();
    let aofs: Vec<Vec<u8>> = stores
        .iter()
        .map(|s| s.aof_memory_buffer().unwrap().lock().clone())
        .collect();
    let replay_fleet = |clk: &gdprbench_repro::clock::SharedClock| -> Vec<_> {
        aofs.iter()
            .map(|aof| KvStore::replay(config.clone(), aof, clk.clone()).unwrap())
            .collect()
    };

    // Same shard count: clean rebuild, placement verified, erasure holds.
    let recovered =
        RedisConnector::sharded_with_metadata_index(replay_fleet(&gdprbench_repro::clock::wall()))
            .unwrap();
    recovered.engine().verify_placement().unwrap();
    assert_eq!(recovered.record_count(), 15);
    let regulator = Session::regulator();
    assert_eq!(
        recovered
            .execute(&regulator, &GdprQuery::VerifyDeletion("r0".into()))
            .unwrap(),
        GdprResponse::DeletionVerified(true),
        "an erased record must stay erased across sharded recovery"
    );

    // Different shard count: the same two AOFs plus an empty third shard.
    let mis_clk = gdprbench_repro::clock::wall();
    let mut misrouted_stores = replay_fleet(&mis_clk);
    misrouted_stores.push(KvStore::open_with_clock(config.clone(), mis_clk.clone()).unwrap());
    let misrouted = RedisConnector::sharded_with_metadata_index(misrouted_stores).unwrap();
    let err = misrouted.engine().verify_placement().unwrap_err();
    assert!(
        matches!(err, GdprError::ShardMisroute { shard_count: 3, .. }),
        "changed shard count must be detected loudly, got {err}"
    );

    // Rebalance migrates records to their owners; nothing misroutes, every
    // live record answers, and the erasure still holds.
    let moved = misrouted.engine().rebalance().unwrap();
    assert!(moved > 0, "a 2→3 reshard must move records");
    misrouted.engine().verify_placement().unwrap();
    assert_eq!(misrouted.record_count(), 15);
    let resp = misrouted
        .execute(
            &Session::customer("neo"),
            &GdprQuery::ReadDataByUser("neo".into()),
        )
        .unwrap();
    assert_eq!(resp.cardinality(), 15);
    for i in 1..16 {
        assert_eq!(
            misrouted
                .execute(&regulator, &GdprQuery::VerifyDeletion(format!("r{i}")))
                .unwrap(),
            GdprResponse::DeletionVerified(false),
            "live record r{i} must be found after rebalancing"
        );
    }
    assert_eq!(
        misrouted
            .execute(&regulator, &GdprQuery::VerifyDeletion("r0".into()))
            .unwrap(),
        GdprResponse::DeletionVerified(true)
    );
}

#[test]
fn encrypted_persistence_never_leaks_plaintext() {
    // kvstore: AOF sealed with the at-rest cipher.
    let config = KvConfig {
        aof: AofStorage::Memory,
        fsync: gdprbench_repro::kvstore::FsyncPolicy::Never,
        encrypt_at_rest: true,
        ..Default::default()
    };
    let store = KvStore::open(config).unwrap();
    let conn = RedisConnector::new(store.clone());
    conn.execute(
        &Session::controller(),
        &GdprQuery::CreateRecord(record("r1", "plaintext-marker-user")),
    )
    .unwrap();
    let aof = store.aof_memory_buffer().unwrap().lock().clone();
    assert!(
        !aof.windows(b"plaintext-marker-user".len())
            .any(|w| w == b"plaintext-marker-user"),
        "user identity must not appear in the persisted AOF"
    );
    assert!(
        !aof.windows(b"secret-data".len())
            .any(|w| w == b"secret-data"),
        "personal data must not appear in the persisted AOF"
    );

    // relstore: WAL sealed likewise.
    let config = RelConfig {
        wal: WalStorage::Memory,
        encrypt_at_rest: true,
        ..Default::default()
    };
    let db = Database::open(config).unwrap();
    let conn = PostgresConnector::new(std::sync::Arc::clone(&db)).unwrap();
    conn.execute(
        &Session::controller(),
        &GdprQuery::CreateRecord(record("r1", "plaintext-marker-user")),
    )
    .unwrap();
    let wal = db.wal_memory_buffer().unwrap().lock().clone();
    assert!(!wal
        .windows(b"plaintext-marker-user".len())
        .any(|w| w == b"plaintext-marker-user"));
}

#[test]
fn encrypted_snapshot_restores_gdpr_records() {
    // The RDB-style snapshot is the artifact LUKS protects for an in-memory
    // store: it must roundtrip records (with TTL deadlines) and stay opaque.
    let config = KvConfig {
        encrypt_at_rest: true,
        ..Default::default()
    };
    let store = KvStore::open(config.clone()).unwrap();
    let conn = RedisConnector::new(std::sync::Arc::clone(&store));
    let controller = Session::controller();
    for i in 0..20 {
        conn.execute(
            &controller,
            &GdprQuery::CreateRecord(record(&format!("r{i}"), "neo")),
        )
        .unwrap();
    }
    let snap = store.snapshot_bytes();
    assert!(
        !snap
            .windows(b"secret-data".len())
            .any(|w| w == b"secret-data"),
        "sealed snapshot must not leak personal data"
    );

    let restored = KvStore::open(config).unwrap();
    assert_eq!(restored.restore_snapshot(&snap).unwrap(), 20);
    let conn = RedisConnector::new(restored);
    let resp = conn
        .execute(
            &Session::customer("neo"),
            &GdprQuery::ReadDataByUser("neo".into()),
        )
        .unwrap();
    assert_eq!(resp.cardinality(), 20);
}

#[test]
fn recovery_rejects_tampered_logs() {
    let config = KvConfig {
        aof: AofStorage::Memory,
        fsync: gdprbench_repro::kvstore::FsyncPolicy::Never,
        encrypt_at_rest: true,
        ..Default::default()
    };
    let store = KvStore::open(config.clone()).unwrap();
    store.set(b"k", b"v").unwrap();
    let mut aof = store.aof_memory_buffer().unwrap().lock().clone();
    let last = aof.len() - 1;
    aof[last] ^= 0x80;
    assert!(
        KvStore::replay(config, &aof, gdprbench_repro::clock::wall()).is_err(),
        "tampered AOF must fail authentication"
    );
}
