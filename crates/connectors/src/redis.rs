//! The Redis-shaped GDPR backend (§5.1 of the paper).
//!
//! Layout: one string key `rec:<key>` per record, holding the §4.2.1 wire
//! form, with a native `EXPIRE` when the record carries a TTL. The store
//! itself has no secondary structures, so the backend resolves every
//! metadata predicate by SCANning the whole `rec:*` keyspace and parsing
//! each record — precisely how the paper's Redis behaves and why its GDPR
//! workloads run orders of magnitude slower than YCSB (Figures 5a, 7b).
//!
//! All GDPR policy (authorization, visibility, audit, dispatch) lives in
//! [`gdpr_core::ComplianceEngine`]; this module is storage mechanism only.
//! Four connector variants wrap the same backend:
//!
//! * [`RedisConnector::new`] — paper-faithful: every metadata query scans.
//! * [`RedisConnector::with_metadata_index`] — the engine maintains a
//!   [`gdpr_core::MetadataIndex`] over the store, turning those O(n) scans
//!   into O(matches) probes. The store's expiry paths (lazy-on-access and
//!   active cycles) invalidate index entries via
//!   [`kvstore::KvStore::set_expiry_listener`], so the index never
//!   advertises reaped personal data.
//! * [`RedisConnector::sharded`] / [`RedisConnector::sharded_with_metadata_index`]
//!   — N independent stores behind one partitioned engine
//!   (`redis-sharded-scan` / `redis-sharded`). The single store serializes
//!   every operation through one store-wide lock (the real Redis is
//!   single-threaded by design); sharding gives each key range its own
//!   store, lock, index and expiry listener, so point operations on
//!   disjoint keys proceed in parallel while every compliance semantic
//!   stays exactly as one store defines it. Store-side TTL reaps
//!   invalidate only the owning partition's indexes.

use crate::Connector;
use bytes::Bytes;
use gdpr_core::compliance::{FeatureReport, FeatureSupport};
use gdpr_core::connector::SpaceReport;
use gdpr_core::engine::ComplianceEngine;
use gdpr_core::error::{GdprError, GdprResult};
use gdpr_core::record::PersonalRecord;
use gdpr_core::store::{ExpiryListener, RecordStore};
use gdpr_core::wire;
use kvstore::expire::ExpirationMode;
use kvstore::{Command, KvConfig, KvStore};
use std::sync::Arc;

const KEY_PREFIX: &str = "rec:";
const SCAN_BATCH: usize = 512;

/// [`RecordStore`] over [`kvstore::KvStore`]: wire-format strings under
/// `rec:<key>`, TTL via native EXPIRE, full-keyspace SCAN as the only
/// native predicate path.
pub struct RedisStore {
    store: Arc<KvStore>,
    /// `redis` or `redis-mi`, fixed at connector construction.
    variant_name: &'static str,
}

impl RedisStore {
    fn storage_key(key: &str) -> Bytes {
        Bytes::from(format!("{KEY_PREFIX}{key}"))
    }

    fn store_err(e: impl ToString) -> GdprError {
        GdprError::Store(e.to_string())
    }

    /// The storage key for a fresh record, or `AlreadyExists`. Collision
    /// detection is an EXISTS probe (hash lookup, lazily reaping an expired
    /// occupant) — much cheaper than a GET, which would decrypt and parse
    /// the record.
    fn vacant_key(&self, record: &PersonalRecord) -> GdprResult<Bytes> {
        let key = Self::storage_key(&record.key);
        if self.store.exists(key.as_ref()).map_err(Self::store_err)? {
            return Err(GdprError::AlreadyExists(record.key.clone()));
        }
        Ok(key)
    }

    /// SET the record, arming EXPIRE from its declared TTL (SETEX), or
    /// clearing any expiry when it declares none.
    fn set_with_ttl(&self, key: &Bytes, record: &PersonalRecord) -> GdprResult<()> {
        let value = wire::serialize(record);
        match record.metadata.ttl {
            Some(ttl) => self.store.set_ex(key.as_ref(), value.as_bytes(), ttl),
            None => self.store.set(key.as_ref(), value.as_bytes()),
        }
        .map_err(Self::store_err)
    }

    /// SET the record under an exact absolute deadline: SET clears any
    /// expiry, so re-arm with EXPIREAT afterwards.
    fn set_until(
        &self,
        key: Bytes,
        record: &PersonalRecord,
        deadline_ms: Option<u64>,
    ) -> GdprResult<()> {
        let value = wire::serialize(record);
        self.store
            .set(key.as_ref(), value.as_bytes())
            .map_err(Self::store_err)?;
        if let Some(at_ms) = deadline_ms {
            self.store
                .execute(Command::ExpireAt { key, at_ms })
                .map_err(Self::store_err)?;
        }
        Ok(())
    }

    /// Every `rec:*` storage key, by a key-only SCAN cursor walk in
    /// batches. Nothing here reads a value, so nothing is reaped mid-walk.
    fn scan_keys(&self) -> GdprResult<Vec<Bytes>> {
        let mut keys = Vec::new();
        let mut cursor = 0usize;
        loop {
            let reply = self
                .store
                .execute(Command::Scan {
                    cursor,
                    count: SCAN_BATCH,
                    pattern: Some(Bytes::from_static(b"rec:*")),
                })
                .map_err(Self::store_err)?;
            let parts = reply
                .as_array()
                .ok_or_else(|| GdprError::Store("SCAN reply shape".into()))?;
            let next = parts[0].as_int().unwrap_or(0) as usize;
            keys.extend(
                parts[1]
                    .as_array()
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|r| r.as_bulk().cloned()),
            );
            if next == 0 {
                return Ok(keys);
            }
            cursor = next;
        }
    }
}

impl RecordStore for RedisStore {
    fn clock(&self) -> clock::SharedClock {
        self.store.clock().clone()
    }

    fn fetch(&self, key: &str) -> GdprResult<Option<PersonalRecord>> {
        let reply = self
            .store
            .get(Self::storage_key(key).as_ref())
            .map_err(Self::store_err)?;
        match reply {
            Some(bytes) => {
                let text = std::str::from_utf8(&bytes)
                    .map_err(|e| GdprError::InvalidRecord(e.to_string()))?;
                Ok(Some(wire::parse(text)?))
            }
            None => Ok(None),
        }
    }

    /// Store a record, setting EXPIRE from its TTL.
    fn put(&self, record: &PersonalRecord) -> GdprResult<()> {
        let key = self.vacant_key(record)?;
        self.set_with_ttl(&key, record)
    }

    /// Rewrite a record in place, preserving its remaining store-level TTL
    /// unless the update changed the TTL itself.
    fn rewrite(&self, record: &PersonalRecord, ttl_changed: bool) -> GdprResult<()> {
        let key = Self::storage_key(&record.key);
        if ttl_changed {
            return self.set_with_ttl(&key, record);
        }
        // Preserve the exact millisecond deadline through EXPIREAT. Going
        // through the seconds-granular TTL command instead would shave up
        // to 1s per rewrite (and a sub-second remainder would truncate to
        // an instant expiry).
        let deadline = self.store.expiry_at(key.as_ref()).map(|at| at.as_millis());
        self.set_until(key, record, deadline)
    }

    fn delete(&self, key: &str) -> GdprResult<bool> {
        self.store
            .del(Self::storage_key(key).as_ref())
            .map_err(Self::store_err)
    }

    /// Insert under a known absolute deadline — the shard-rebalance path.
    /// SET then EXPIREAT, so a migrated record keeps its exact remaining
    /// lifetime instead of being re-armed with the full declared TTL.
    fn put_with_deadline(
        &self,
        record: &PersonalRecord,
        deadline_ms: Option<u64>,
    ) -> GdprResult<()> {
        let key = self.vacant_key(record)?;
        self.set_until(key, record, deadline_ms)
    }

    /// Full keyspace walk: SCAN `rec:*` in batches and parse every record —
    /// the O(n) path every metadata query takes without an engine index.
    ///
    /// The cursor walk completes *before* any GET: a GET can lazily reap an
    /// expired key, and the keyspace's swap-remove would then move an
    /// unvisited tail key into an already-visited cursor position, silently
    /// dropping a live record from the scan.
    fn scan(&self) -> GdprResult<Vec<PersonalRecord>> {
        let keys = self.scan_keys()?;
        let mut records = Vec::with_capacity(keys.len());
        for key in keys {
            if let Ok(Some(reply)) = self.store.get(key.as_ref()).map_err(|e| e.to_string()) {
                if let Ok(text) = std::str::from_utf8(&reply) {
                    if let Ok(record) = wire::parse(text) {
                        records.push(record);
                    }
                }
            }
        }
        Ok(records)
    }

    fn purge_expired(&self) -> GdprResult<usize> {
        // Timely deletion is the store's job (EXPIRE); purging now means
        // running an active-expiration cycle synchronously.
        Ok(self.store.run_expiration_cycle().reaped)
    }

    /// Past-due keys *without* reaping. The default scan-derived
    /// enumeration is wrong here: a GET lazily destroys an expired record
    /// and its deadline, so the cursor walk must stay key-only and the
    /// deadline check must go through the pure `expiry_at` read.
    fn expired_keys(&self) -> GdprResult<Vec<String>> {
        let now_ms = self.store.clock().now().as_millis();
        Ok(self
            .scan_keys()?
            .iter()
            .filter(|storage_key| {
                self.store
                    .expiry_at(storage_key.as_ref())
                    .is_some_and(|at| at.as_millis() <= now_ms)
            })
            .filter_map(|storage_key| {
                let text = std::str::from_utf8(storage_key.as_ref()).ok()?;
                text.strip_prefix(KEY_PREFIX).map(str::to_string)
            })
            .collect())
    }

    /// Key-only SCAN walk: a GET would lazily reap expired records, so the
    /// default scan-derived key set must not be used here.
    fn keys(&self) -> GdprResult<Vec<String>> {
        Ok(self
            .scan_keys()?
            .iter()
            .filter_map(|storage_key| {
                let text = std::str::from_utf8(storage_key.as_ref()).ok()?;
                text.strip_prefix(KEY_PREFIX).map(str::to_string)
            })
            .collect())
    }

    fn deadline_ms(&self, key: &str) -> Option<u64> {
        self.store
            .expiry_at(Self::storage_key(key).as_ref())
            .map(|at| at.as_millis())
    }

    /// The store's AOF write-frame sequence — advanced by every write
    /// (engine-driven or behind the engine's back) and reproduced exactly
    /// by AOF replay, which is what lets an index snapshot stamped with
    /// it be trusted after a crash.
    fn persistence_generation(&self) -> Option<u64> {
        Some(self.store.mutation_generation())
    }

    fn on_expiry(&self, listener: ExpiryListener) {
        self.store
            .set_expiry_listener(Arc::new(move |storage_key: &[u8]| {
                // Only `rec:*` keys are GDPR records; other expiring keys (none
                // today) would not be indexed.
                if let Ok(text) = std::str::from_utf8(storage_key) {
                    if let Some(key) = text.strip_prefix(KEY_PREFIX) {
                        listener(key);
                    }
                }
            }));
    }

    /// Flush the AOF.
    fn close(&self) -> GdprResult<()> {
        self.store.sync_aof().map_err(Self::store_err)
    }

    fn space_report(&self) -> SpaceReport {
        let personal: usize = self
            .scan()
            .map(|records| records.iter().map(PersonalRecord::data_bytes).sum())
            .unwrap_or(0);
        // Total = what the datastore holds (keyspace + AOF). The GDPR-layer
        // audit trail and metadata index live client-side in the engine and
        // are not part of the paper's "total DB size".
        SpaceReport {
            personal_data_bytes: personal,
            total_bytes: self.store.memory_usage() + self.store.aof_bytes() as usize,
        }
    }

    fn record_count(&self) -> usize {
        self.store.dbsize()
    }

    fn features(&self) -> FeatureReport {
        let config = self.store.config();
        FeatureReport {
            // Native EXPIRE exists but is lazy; strict mode is the paper's
            // retrofit.
            timely_deletion: match config.expiration {
                ExpirationMode::Strict => FeatureSupport::Retrofitted,
                ExpirationMode::Lazy => FeatureSupport::Unsupported,
            },
            monitoring_and_logging: if config.log_reads {
                FeatureSupport::Retrofitted
            } else {
                FeatureSupport::Unsupported
            },
            // No secondary indexes exist in the store; metadata-based
            // access is retrofitted client-side — as SCAN+filter in the
            // baseline, as the engine's MetadataIndex in the `-mi` variant.
            metadata_indexing: FeatureSupport::Retrofitted,
            encryption: if config.encrypt_at_rest && config.encrypt_transit {
                FeatureSupport::Retrofitted
            } else {
                FeatureSupport::Unsupported
            },
            // Enforced in the engine, per the paper.
            access_control: FeatureSupport::Retrofitted,
        }
    }

    fn name(&self) -> &str {
        self.variant_name
    }
}

/// GDPR connector over one or more [`kvstore::KvStore`]s.
pub type RedisConnector = Connector<RedisStore>;

impl RedisConnector {
    /// Wrap an open store, paper-faithful (no metadata index: every
    /// metadata query scans the keyspace).
    pub fn new(store: Arc<KvStore>) -> Self {
        Connector {
            engine: ComplianceEngine::new(RedisStore {
                store,
                variant_name: "redis",
            }),
        }
    }

    /// Wrap an open store with an engine-maintained metadata index —
    /// O(matches) predicate lookups at index-maintenance cost on writes.
    pub fn with_metadata_index(store: Arc<KvStore>) -> GdprResult<Self> {
        let backend = RedisStore {
            store,
            variant_name: "redis-mi",
        };
        Ok(Connector {
            engine: ComplianceEngine::with_metadata_index(backend)?,
        })
    }

    /// As [`Self::with_metadata_index`], but the index recovers through
    /// the snapshot image at `path` — O(index) when the image's
    /// generation stamp matches the store's AOF position, the usual O(n)
    /// scan-backfill (loudly) otherwise — and a graceful close /
    /// [`Connector::write_index_snapshot`] persist it there again.
    pub fn with_metadata_index_snapshot(
        store: Arc<KvStore>,
        path: impl Into<std::path::PathBuf>,
    ) -> GdprResult<Self> {
        let backend = RedisStore {
            store,
            variant_name: "redis-mi",
        };
        Ok(Connector {
            engine: ComplianceEngine::with_metadata_index_snapshot(backend, path)?,
        })
    }

    /// Wrap open stores, one per partition, scan-based (paper-faithful
    /// within each partition: every metadata query scans its keyspace).
    pub fn sharded(stores: Vec<Arc<KvStore>>) -> GdprResult<Self> {
        Ok(Connector {
            engine: ComplianceEngine::sharded(shard_backends(stores))?.named("redis-sharded-scan"),
        })
    }

    /// Wrap open stores with per-partition engine-maintained metadata
    /// indexes — the headline `redis-sharded` variant.
    pub fn sharded_with_metadata_index(stores: Vec<Arc<KvStore>>) -> GdprResult<Self> {
        Ok(Connector {
            engine: ComplianceEngine::sharded_with_metadata_index(shard_backends(stores))?
                .named("redis-sharded"),
        })
    }

    /// The snapshot-aware partitioned open path: as
    /// [`Self::sharded_with_metadata_index`], but partition *i* recovers
    /// its index from `dir/metaindex-shard-i.snap` when that image matches
    /// the store's AOF position and was written as partition *i* of
    /// exactly this count — a reopen under a different count rebuilds
    /// every index (the header records the topology), consistent with
    /// `verify_placement` flagging the store side.
    pub fn sharded_with_metadata_index_snapshots(
        stores: Vec<Arc<KvStore>>,
        dir: impl AsRef<std::path::Path>,
    ) -> GdprResult<Self> {
        Ok(Connector {
            engine: ComplianceEngine::sharded_with_metadata_index_snapshots(
                shard_backends(stores),
                dir,
            )?
            .named("redis-sharded"),
        })
    }

    /// Open `shards` fresh default in-memory stores on one wall clock and
    /// wrap them (indexed, `redis-sharded`).
    pub fn open_sharded(shards: usize) -> GdprResult<Self> {
        let clock = clock::wall();
        let stores = (0..shards.max(1))
            .map(|_| {
                KvStore::open_with_clock(KvConfig::default(), clock.clone())
                    .map_err(RedisStore::store_err)
            })
            .collect::<GdprResult<Vec<_>>>()?;
        Self::sharded_with_metadata_index(stores)
    }

    /// Open a fully GDPR-compliant in-memory store (strict TTL, read
    /// logging, encryption) and wrap it.
    pub fn open_compliant() -> GdprResult<Self> {
        let store =
            KvStore::open(KvConfig::gdpr_compliant_in_memory()).map_err(RedisStore::store_err)?;
        Ok(Self::new(store))
    }

    /// The underlying store of one partition (for experiment harnesses).
    pub fn store(&self, partition: usize) -> &Arc<KvStore> {
        &self.engine.store(partition).store
    }
}

/// One backend per partition store. Every store reports the plain
/// `redis` name; the engine carries the variant name.
fn shard_backends(stores: Vec<Arc<KvStore>>) -> Vec<RedisStore> {
    stores
        .into_iter()
        .map(|store| RedisStore {
            store,
            variant_name: "redis",
        })
        .collect()
}
