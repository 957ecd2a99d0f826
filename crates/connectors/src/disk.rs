//! The disk-native connector: the compliance engine over
//! [`pagestore::PageStore`] — slotted 4 KiB pages, buffer pool, B+tree,
//! and a checksummed WAL, so the dataset no longer has to fit in RAM.
//!
//! Semantics deliberately mirror the Redis-shaped connector byte for byte
//! (lazy reap-on-access, inclusive deadline boundary, DBSIZE counting
//! unreaped expired keys): the store-equivalence proptest in
//! `tests/proptests.rs` holds the two backends to identical responses
//! over random op mixes. `persistence_generation` is the WAL's logical
//! commit sequence, so the PR-5 index-snapshot layer works unchanged.
//!
//! Variants, mirroring the kvstore ones:
//!
//! * [`DiskConnector::new`] — scan-based predicate resolution.
//! * [`DiskConnector::with_metadata_index`] — the headline `disk` variant.
//! * [`DiskConnector::sharded_with_metadata_index`] — N stores (each its
//!   own directory, WAL, buffer pool and per-partition index) behind one
//!   hash-partitioned engine (`disk-sharded`).

use crate::Connector;
use gdpr_core::compliance::{FeatureReport, FeatureSupport};
use gdpr_core::connector::SpaceReport;
use gdpr_core::error::{GdprError, GdprResult};
use gdpr_core::record::PersonalRecord;
use gdpr_core::store::{ExpiryListener, RecordStore};
use gdpr_core::wire;
use gdpr_core::ComplianceEngine;
use pagestore::{PageStore, PageStoreConfig};
use std::sync::Arc;

/// [`RecordStore`] over one paged store. Records travel in the same wire
/// text format as every other backend; the page store seals the bytes at
/// rest and tracks the TTL deadline natively per leaf entry.
pub struct DiskStore {
    store: Arc<PageStore>,
    variant_name: &'static str,
}

impl DiskStore {
    pub fn over(store: Arc<PageStore>, variant_name: &'static str) -> DiskStore {
        DiskStore {
            store,
            variant_name,
        }
    }

    pub fn page_store(&self) -> &Arc<PageStore> {
        &self.store
    }

    fn store_err(e: pagestore::Error) -> GdprError {
        GdprError::Store(e.to_string())
    }

    fn deadline_from_ttl(&self, record: &PersonalRecord) -> Option<u64> {
        record
            .metadata
            .ttl
            .map(|ttl| self.store.clock().now().as_millis() + ttl.as_millis() as u64)
    }
}

impl RecordStore for DiskStore {
    fn clock(&self) -> clock::SharedClock {
        self.store.clock()
    }

    fn fetch(&self, key: &str) -> GdprResult<Option<PersonalRecord>> {
        match self.store.get(key).map_err(Self::store_err)? {
            Some(bytes) => {
                let text = std::str::from_utf8(&bytes)
                    .map_err(|e| GdprError::InvalidRecord(e.to_string()))?;
                Ok(Some(wire::parse(text)?))
            }
            None => Ok(None),
        }
    }

    /// Insert, arming the native per-entry deadline from the declared TTL.
    /// The page store's collision probe lazily reaps an expired occupant,
    /// exactly like the kvstore EXISTS probe.
    fn put(&self, record: &PersonalRecord) -> GdprResult<()> {
        let value = wire::serialize(record);
        let deadline = self.deadline_from_ttl(record);
        let inserted = self
            .store
            .insert(&record.key, value.as_bytes(), deadline)
            .map_err(Self::store_err)?;
        if !inserted {
            return Err(GdprError::AlreadyExists(record.key.clone()));
        }
        Ok(())
    }

    /// Rewrite in place. When the TTL itself did not change, the original
    /// absolute deadline is carried over exactly (millisecond-preserving,
    /// like the kvstore's SET + EXPIREAT pair).
    fn rewrite(&self, record: &PersonalRecord, ttl_changed: bool) -> GdprResult<()> {
        let value = wire::serialize(record);
        let deadline = if ttl_changed {
            self.deadline_from_ttl(record)
        } else {
            self.store
                .deadline_ms(&record.key)
                .map_err(Self::store_err)?
        };
        self.store
            .upsert(&record.key, value.as_bytes(), deadline)
            .map_err(Self::store_err)
    }

    fn delete(&self, key: &str) -> GdprResult<bool> {
        self.store.remove(key).map_err(Self::store_err)
    }

    /// Insert under a known absolute deadline — the shard-rebalance path;
    /// a migrated record keeps its exact remaining lifetime.
    fn put_with_deadline(
        &self,
        record: &PersonalRecord,
        deadline_ms: Option<u64>,
    ) -> GdprResult<()> {
        let value = wire::serialize(record);
        let inserted = self
            .store
            .insert(&record.key, value.as_bytes(), deadline_ms)
            .map_err(Self::store_err)?;
        if !inserted {
            return Err(GdprError::AlreadyExists(record.key.clone()));
        }
        Ok(())
    }

    /// Ordered leaf-chain walk. Like the kvstore scan, expired records the
    /// walk encounters are reaped (listener notified), not returned.
    fn scan(&self) -> GdprResult<Vec<PersonalRecord>> {
        let pairs = self.store.scan().map_err(Self::store_err)?;
        let mut records = Vec::with_capacity(pairs.len());
        for (_, bytes) in pairs {
            if let Ok(text) = std::str::from_utf8(&bytes) {
                if let Ok(record) = wire::parse(text) {
                    records.push(record);
                }
            }
        }
        Ok(records)
    }

    fn purge_expired(&self) -> GdprResult<usize> {
        self.store.purge_expired().map_err(Self::store_err)
    }

    /// Past-due keys without reaping — a pure leaf-chain walk over the
    /// native deadlines.
    fn expired_keys(&self) -> GdprResult<Vec<String>> {
        self.store.expired_keys().map_err(Self::store_err)
    }

    fn deadline_ms(&self, key: &str) -> Option<u64> {
        self.store.deadline_ms(key).ok().flatten()
    }

    /// The WAL's logical commit sequence: advanced by every committed
    /// mutation (lazy reaps included — they are real transactions here)
    /// and reproduced exactly by WAL recovery.
    fn persistence_generation(&self) -> Option<u64> {
        Some(self.store.generation())
    }

    fn on_expiry(&self, listener: ExpiryListener) {
        self.store
            .set_expiry_listener(Arc::new(move |key: &str| listener(key)));
    }

    /// Checkpoint: flush WAL images into the data file.
    fn close(&self) -> GdprResult<()> {
        self.store.checkpoint().map_err(Self::store_err)
    }

    fn space_report(&self) -> SpaceReport {
        let personal: usize = self
            .scan()
            .map(|records| records.iter().map(PersonalRecord::data_bytes).sum())
            .unwrap_or(0);
        SpaceReport {
            personal_data_bytes: personal,
            total_bytes: self.store.disk_bytes() as usize,
        }
    }

    fn record_count(&self) -> usize {
        self.store.record_count()
    }

    fn features(&self) -> FeatureReport {
        FeatureReport {
            // Native per-entry deadlines exist but reaping is lazy, like
            // stock Redis.
            timely_deletion: FeatureSupport::Unsupported,
            monitoring_and_logging: FeatureSupport::Unsupported,
            metadata_indexing: FeatureSupport::Retrofitted,
            // Values are sealed at rest (ChaCha20 + tag) by default, but
            // transit encryption is the transport layer's business, so
            // at-rest-only reports Unsupported parity with the kvstore
            // default config — the conformance battery compares variants.
            encryption: FeatureSupport::Unsupported,
            access_control: FeatureSupport::Retrofitted,
        }
    }

    fn name(&self) -> &str {
        self.variant_name
    }
}

/// GDPR connector over one or more [`PageStore`]s; each store of a
/// partitioned variant has its own directory, WAL, buffer pool, and
/// per-partition index.
pub type DiskConnector = Connector<DiskStore>;

impl DiskConnector {
    /// Wrap an open page store, scan-based.
    pub fn new(store: Arc<PageStore>) -> Self {
        Connector {
            engine: ComplianceEngine::new(DiskStore::over(store, "disk-scan")),
        }
    }

    /// Wrap an open page store with the engine-maintained metadata index —
    /// the headline `disk` variant.
    pub fn with_metadata_index(store: Arc<PageStore>) -> GdprResult<Self> {
        Ok(Connector {
            engine: ComplianceEngine::with_metadata_index(DiskStore::over(store, "disk"))?,
        })
    }

    /// As [`Self::with_metadata_index`], with index-snapshot recovery and
    /// persistence at `path` — trusted when the image's generation stamp
    /// matches the store's WAL commit sequence.
    pub fn with_metadata_index_snapshot(
        store: Arc<PageStore>,
        path: impl Into<std::path::PathBuf>,
    ) -> GdprResult<Self> {
        Ok(Connector {
            engine: ComplianceEngine::with_metadata_index_snapshot(
                DiskStore::over(store, "disk"),
                path,
            )?,
        })
    }

    /// Per-partition engine-maintained metadata indexes — the
    /// `disk-sharded` variant.
    pub fn sharded_with_metadata_index(stores: Vec<Arc<PageStore>>) -> GdprResult<Self> {
        Ok(Connector {
            engine: ComplianceEngine::sharded_with_metadata_index(shard_backends(stores))?
                .named("disk-sharded"),
        })
    }

    /// Snapshot-aware partitioned open: partition *i* recovers its index
    /// from `dir/metaindex-shard-i.snap` when the image matches the
    /// store's WAL generation and topology.
    pub fn sharded_with_metadata_index_snapshots(
        stores: Vec<Arc<PageStore>>,
        dir: impl AsRef<std::path::Path>,
    ) -> GdprResult<Self> {
        Ok(Connector {
            engine: ComplianceEngine::sharded_with_metadata_index_snapshots(
                shard_backends(stores),
                dir,
            )?
            .named("disk-sharded"),
        })
    }

    /// The underlying page store of one partition (for experiment
    /// harnesses and the eviction/fault suites).
    pub fn store(&self, partition: usize) -> &Arc<PageStore> {
        self.engine.store(partition).page_store()
    }
}

fn shard_backends(stores: Vec<Arc<PageStore>>) -> Vec<DiskStore> {
    stores
        .into_iter()
        .map(|s| DiskStore::over(s, "disk"))
        .collect()
}

/// `n` page stores under `dir/shard-i/`, sharing one clock instance (a
/// partitioned engine requires comparable timestamps across its stores).
pub fn open_store_fleet(
    dir: impl AsRef<std::path::Path>,
    n: usize,
    config: PageStoreConfig,
    clock: clock::SharedClock,
) -> GdprResult<Vec<Arc<PageStore>>> {
    (0..n.max(1))
        .map(|i| {
            PageStore::open(
                dir.as_ref().join(format!("shard-{i}")),
                config.clone(),
                clock.clone(),
            )
            .map_err(DiskStore::store_err)
        })
        .collect()
}
