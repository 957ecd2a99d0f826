//! Connector construction shared by the `gdprbench` and `gdpr-serve`
//! binaries: one `--db` selector covering every in-process variant plus
//! the `remote` network client.

use gdpr_core::{EngineHandle, GdprConnector};
use std::sync::Arc;

/// Databases `build_connector` accepts.
pub const DB_CHOICES: &str =
    "redis|redis-mi|redis-sharded|redis-sharded-scan|postgres|postgres-mi|disk|disk-sharded|remote";

/// How to reach/configure the store behind the connector.
#[derive(Debug, Clone)]
pub struct ConnectorSpec {
    /// The `--db` selector.
    pub db: String,
    /// Harden the store config (strict TTL, read logging, encryption).
    pub compliant: bool,
    /// Shard count for the sharded variants.
    pub shards: usize,
    /// `host:port` of a running `gdpr-serve` (remote only).
    pub addr: Option<String>,
    /// Client connections to pool (remote only; defaults to 1).
    pub clients: usize,
    /// `Some(pre-shared key)` runs the remote transport encrypted
    /// (`SecureChannel` handshake before the first op); defaults from
    /// `GDPR_ENCRYPT` / `GDPR_ENCRYPT_KEY` like the server side.
    pub encrypt: Option<String>,
    /// Directory for on-disk state. `redis*` variants keep per-shard AOF
    /// files here (opened through [`kvstore::KvStore::open_persistent`],
    /// replaying any existing log); `disk*` variants keep their paged
    /// data files and WALs here (reopened through WAL recovery). Data
    /// survives restarts either way. `disk*` without `--data-dir` runs in
    /// a fresh scratch directory under the system temp dir.
    pub data_dir: Option<String>,
    /// Directory for metadata-index snapshot images (`redis-mi`,
    /// `redis-sharded`, `disk`, `disk-sharded`): the index recovers in
    /// O(index) when an image matches the reopened store, and `close()`
    /// persists it again.
    pub snapshot_dir: Option<String>,
    /// Pre-provision tenants `t0..t{N-1}` on the built engine (`--tenants
    /// N`), so multi-tenant benchmark traffic never pays first-op tenant
    /// setup. 0 = single-tenant (the default degenerate case).
    pub tenants: usize,
}

impl ConnectorSpec {
    pub fn new(db: impl Into<String>) -> ConnectorSpec {
        ConnectorSpec {
            db: db.into(),
            compliant: false,
            shards: gdpr_core::shard_count_from_env(),
            addr: None,
            clients: 1,
            encrypt: gdpr_server::secure::encrypt_key_from_env(),
            data_dir: None,
            snapshot_dir: None,
            tenants: 0,
        }
    }
}

/// The tenant ids `--tenants N` provisions and the benchmark drives:
/// `t0..t{N-1}`.
pub fn tenant_ids(n: usize) -> Vec<gdpr_core::tenant::TenantId> {
    (0..n)
        .map(|i| {
            gdpr_core::tenant::TenantId::new(format!("t{i}")).expect("generated tenant id is valid")
        })
        .collect()
}

/// Open one kvstore shard honoring `data_dir`: file-persistent (with AOF
/// replay) when set, plain in-memory otherwise.
fn open_kv_shard(
    spec: &ConnectorSpec,
    shard: usize,
    clock: clock::SharedClock,
) -> Result<std::sync::Arc<kvstore::KvStore>, String> {
    let mut config = if spec.compliant {
        kvstore::KvConfig::gdpr_compliant_in_memory()
    } else {
        kvstore::KvConfig::default()
    };
    if let Some(dir) = &spec.data_dir {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("--data-dir {dir:?}: {e}"))?;
        config.aof = kvstore::config::AofStorage::File(dir.join(format!("shard-{shard}.aof")));
        config.fsync = kvstore::FsyncPolicy::EverySec;
    }
    kvstore::KvStore::open_persistent(config, clock).map_err(|e| e.to_string())
}

/// Open `n` page stores honoring `data_dir` (scratch temp dir when
/// unset), sharing one clock. `--compliant` fsyncs the WAL on every
/// commit instead of relying on the OS cache.
fn open_disk_fleet(
    spec: &ConnectorSpec,
    n: usize,
) -> Result<Vec<std::sync::Arc<pagestore::PageStore>>, String> {
    let dir = match &spec.data_dir {
        Some(dir) => std::path::PathBuf::from(dir),
        None => connectors::registry::scratch_dir("serve-disk"),
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("--data-dir {dir:?}: {e}"))?;
    let config = pagestore::PageStoreConfig {
        fsync_wal: spec.compliant,
        ..Default::default()
    };
    connectors::disk::open_store_fleet(&dir, n, config, clock::wall()).map_err(|e| e.to_string())
}

/// Print how each snapshot-recovered partition index came up — operators
/// need to see a fallback rebuild (it is the O(n) path the snapshot exists
/// to avoid).
fn report_recovery<S: gdpr_core::RecordStore + 'static>(
    name: &str,
    conn: &connectors::Connector<S>,
) {
    for shard in 0..conn.shard_count() {
        if let Some(recovery) = conn.index_recovery(shard) {
            println!("{name}: shard {shard}: {recovery}");
        }
    }
}

/// `--index-snapshot-dir`, created if missing.
fn snapshot_dir(spec: &ConnectorSpec) -> Result<Option<std::path::PathBuf>, String> {
    let Some(dir) = &spec.snapshot_dir else {
        return Ok(None);
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("--index-snapshot-dir {dir:?}: {e}"))?;
    Ok(Some(std::path::PathBuf::from(dir)))
}

/// Build a connector for `spec`. The returned handle is what `gdpr-serve`
/// serves and what the workload runner drives — in-process and remote
/// variants are interchangeable behind it. Every in-process arm opens its
/// stores (one, or `--shards` for the sharded variants), builds the
/// engine over them, and reports each partition's index recovery; the
/// unsharded variants keep their snapshot at `<dir>/metaindex.snap`.
pub fn build_connector(spec: &ConnectorSpec) -> Result<EngineHandle, String> {
    if spec.snapshot_dir.is_some()
        && !matches!(
            spec.db.as_str(),
            "redis-mi" | "redis-sharded" | "disk" | "disk-sharded"
        )
    {
        return Err(format!(
            "--index-snapshot-dir needs an engine-indexed persistent variant \
             (redis-mi|redis-sharded|disk|disk-sharded), not {}",
            spec.db
        ));
    }
    if spec.data_dir.is_some() && !(spec.db.starts_with("redis") || spec.db.starts_with("disk")) {
        return Err(format!(
            "--data-dir persists store state and needs a redis* or disk* variant, not {}",
            spec.db
        ));
    }
    let partitions = if spec.db.contains("-sharded") {
        spec.shards.max(1)
    } else {
        1
    };
    let conn: Arc<dyn GdprConnector> = match spec.db.as_str() {
        db @ ("redis" | "redis-mi" | "redis-sharded" | "redis-sharded-scan") => {
            use connectors::RedisConnector;
            let clock = clock::wall();
            let mut stores = (0..partitions)
                .map(|i| open_kv_shard(spec, i, clock.clone()))
                .collect::<Result<Vec<_>, String>>()?;
            if spec.compliant {
                for store in &stores {
                    store.start_expiration_driver();
                }
            }
            let conn = match (db, snapshot_dir(spec)?) {
                ("redis", _) => Ok(RedisConnector::new(stores.remove(0))),
                ("redis-sharded-scan", _) => RedisConnector::sharded(stores),
                ("redis-mi", None) => RedisConnector::with_metadata_index(stores.remove(0)),
                ("redis-mi", Some(dir)) => RedisConnector::with_metadata_index_snapshot(
                    stores.remove(0),
                    dir.join("metaindex.snap"),
                ),
                (_, None) => RedisConnector::sharded_with_metadata_index(stores),
                (_, Some(dir)) => {
                    RedisConnector::sharded_with_metadata_index_snapshots(stores, dir)
                }
            }
            .map_err(|e| e.to_string())?;
            report_recovery(db, &conn);
            Arc::new(conn)
        }
        "postgres" | "postgres-mi" => {
            let config = if spec.compliant {
                relstore::RelConfig::gdpr_compliant_in_memory()
            } else {
                relstore::RelConfig::default()
            };
            let database = relstore::Database::open(config).map_err(|e| e.to_string())?;
            let connector = if spec.db == "postgres-mi" {
                connectors::PostgresConnector::with_metadata_indices(database)
            } else {
                connectors::PostgresConnector::new(database)
            }
            .map_err(|e| e.to_string())?;
            Arc::new(connector)
        }
        db @ ("disk" | "disk-sharded") => {
            use connectors::DiskConnector;
            let mut stores = open_disk_fleet(spec, partitions)?;
            for (i, store) in stores.iter().enumerate() {
                println!("{db}: shard {i}: {}", store.recovery());
            }
            let conn = match (db, snapshot_dir(spec)?) {
                ("disk", None) => DiskConnector::with_metadata_index(stores.remove(0)),
                ("disk", Some(dir)) => DiskConnector::with_metadata_index_snapshot(
                    stores.remove(0),
                    dir.join("metaindex.snap"),
                ),
                (_, None) => DiskConnector::sharded_with_metadata_index(stores),
                (_, Some(dir)) => DiskConnector::sharded_with_metadata_index_snapshots(stores, dir),
            }
            .map_err(|e| e.to_string())?;
            report_recovery(db, &conn);
            Arc::new(conn)
        }
        "remote" => {
            let addr = spec
                .addr
                .as_deref()
                .ok_or_else(|| "--db remote requires --addr HOST:PORT".to_string())?;
            Arc::new(
                connectors::RemoteConnector::connect_pool_with(
                    addr,
                    spec.clients.max(1),
                    spec.encrypt.as_deref(),
                )
                .map_err(|e| e.to_string())?,
            )
        }
        other => return Err(format!("unknown --db {other} (expected {DB_CHOICES})")),
    };
    for tenant in tenant_ids(spec.tenants) {
        conn.provision_tenant(&tenant)
            .map_err(|e| format!("provisioning tenant {tenant:?}: {e}"))?;
    }
    Ok(conn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdpr_core::{GdprQuery, Session};

    /// Every registry variant must be buildable through `--db` — the
    /// variant list lives in `connectors::registry`, so a backend added
    /// there without a driver arm fails here, and vice versa.
    #[test]
    fn builds_every_in_process_variant() {
        for db in connectors::registry::names() {
            let mut spec = ConnectorSpec::new(db);
            spec.shards = 2;
            let conn = build_connector(&spec).unwrap_or_else(|e| panic!("{db}: {e}"));
            assert_eq!(conn.record_count(), 0, "{db}");
            assert_eq!(conn.name(), db, "--db {db} built the wrong variant");
        }
        assert!(build_connector(&ConnectorSpec::new("bogus")).is_err());
        assert!(
            build_connector(&ConnectorSpec::new("remote")).is_err(),
            "remote without --addr must be refused"
        );
        assert!(
            DB_CHOICES.contains("disk|disk-sharded"),
            "usage text must advertise the disk variants"
        );
    }

    #[test]
    fn tenant_preprovisioning_registers_per_tenant_telemetry() {
        let mut spec = ConnectorSpec::new("redis-mi");
        spec.tenants = 3;
        let conn = build_connector(&spec).unwrap();
        let names: Vec<String> = conn
            .tenant_telemetry()
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        for t in ["t0", "t1", "t2"] {
            assert!(names.contains(&t.to_string()), "missing {t} in {names:?}");
        }
    }

    #[test]
    fn remote_spec_connects_to_a_served_engine() {
        let engine = build_connector(&ConnectorSpec::new("redis-mi")).unwrap();
        let server = gdpr_server::GdprServer::bind(
            engine,
            "127.0.0.1:0",
            gdpr_server::ServerConfig::default(),
        )
        .unwrap();
        let mut spec = ConnectorSpec::new("remote");
        spec.addr = Some(server.local_addr().to_string());
        spec.clients = 2;
        let conn = build_connector(&spec).unwrap();
        assert_eq!(conn.name(), "redis-mi");
        conn.execute(
            &Session::controller(),
            &GdprQuery::CreateRecord(gdpr_core::PersonalRecord::new(
                "k1",
                "d",
                gdpr_core::Metadata::new(
                    "neo",
                    vec!["ads".to_string()],
                    std::time::Duration::from_secs(60),
                ),
            )),
        )
        .unwrap();
        assert_eq!(conn.record_count(), 1);
        server.shutdown();
    }

    /// `--encrypt` on both ends talks; a plaintext spec against an
    /// encrypted server is refused at connect, not silently downgraded.
    #[test]
    fn remote_spec_encrypted_roundtrip_and_downgrade_refusal() {
        let engine = build_connector(&ConnectorSpec::new("redis-mi")).unwrap();
        let config = gdpr_server::ServerConfig {
            encrypt: Some("drv-psk".to_string()),
            ..Default::default()
        };
        let server = gdpr_server::GdprServer::bind(engine, "127.0.0.1:0", config).unwrap();
        let mut spec = ConnectorSpec::new("remote");
        spec.addr = Some(server.local_addr().to_string());
        spec.encrypt = Some("drv-psk".to_string());
        let conn = build_connector(&spec).unwrap();
        assert_eq!(conn.name(), "redis-mi");
        assert_eq!(conn.record_count(), 0);
        spec.encrypt = None;
        assert!(
            build_connector(&spec).is_err(),
            "plaintext client must not reach an encrypted server"
        );
        server.shutdown();
    }
}
