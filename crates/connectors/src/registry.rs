//! The connector-variant registry: the single list of in-process engine
//! variants that every fleet-shaped harness iterates.
//!
//! Before this module existed, the variant list was duplicated across the
//! conformance suite, the shard-count-invariance proptests, and the driver
//! smoke test — adding a backend meant finding and editing each copy, and
//! missing one silently shrank a battery's coverage. Now a new connector
//! is **one entry in [`VARIANTS`]**: the conformance fleet, the proptest
//! fleet, and the `builds_every_in_process_variant` driver check all pick
//! it up from here.
//!
//! Sharded variants read their shard count from `GDPR_SHARDS` at build
//! time (CI runs the suites at 1 and 8). Disk variants materialise in a
//! fresh scratch directory under the system temp dir per instantiation,
//! with a deliberately small buffer pool so eviction is exercised even by
//! modest batteries.

use crate::{DiskConnector, PostgresConnector, RedisConnector};
use gdpr_core::EngineHandle;
use pagestore::{PageStore, PageStoreConfig};
use std::sync::Arc;

/// One in-process connector variant: its driver-facing name and a builder
/// producing a fresh, empty instance.
pub struct Variant {
    pub name: &'static str,
    pub build: fn() -> EngineHandle,
}

/// Every in-process variant. `remote` is not listed — it is a transport
/// wrapper, and the harnesses that care wrap each of these behind a
/// served socket themselves.
pub const VARIANTS: &[Variant] = &[
    Variant {
        name: "redis",
        build: build_redis,
    },
    Variant {
        name: "redis-mi",
        build: build_redis_mi,
    },
    Variant {
        name: "redis-sharded",
        build: build_redis_sharded,
    },
    Variant {
        name: "redis-sharded-scan",
        build: build_redis_sharded_scan,
    },
    Variant {
        name: "postgres",
        build: build_postgres,
    },
    Variant {
        name: "postgres-mi",
        build: build_postgres_mi,
    },
    Variant {
        name: "disk",
        build: build_disk,
    },
    Variant {
        name: "disk-sharded",
        build: build_disk_sharded,
    },
];

/// One fresh instance of every in-process variant.
pub fn engine_handles() -> Vec<EngineHandle> {
    VARIANTS.iter().map(|v| (v.build)()).collect()
}

/// The driver-facing names, in registry order.
pub fn names() -> Vec<&'static str> {
    VARIANTS.iter().map(|v| v.name).collect()
}

/// A fresh, unique scratch directory under the system temp dir. Harness
/// instances are short-lived and temp-dir hygiene is the OS's job, so the
/// directory is not reaped on drop.
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gdpr-registry-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Pool small enough that conformance-scale datasets overflow it — every
/// battery run doubles as an eviction test.
pub fn small_pool_config() -> PageStoreConfig {
    PageStoreConfig {
        pool_pages: 16,
        ..PageStoreConfig::default()
    }
}

fn open_kv() -> Arc<kvstore::KvStore> {
    kvstore::KvStore::open(kvstore::KvConfig::default()).unwrap()
}

/// `n` stores sharing one clock instance — a partitioned engine requires a
/// single clock so timestamps and TTL deadlines are comparable across its
/// stores.
fn open_kv_fleet(n: usize) -> Vec<Arc<kvstore::KvStore>> {
    let clock = clock::wall();
    (0..n)
        .map(|_| {
            kvstore::KvStore::open_with_clock(kvstore::KvConfig::default(), clock.clone()).unwrap()
        })
        .collect()
}

fn open_rel() -> Arc<relstore::Database> {
    relstore::Database::open(relstore::RelConfig::default()).unwrap()
}

fn open_disk() -> Arc<PageStore> {
    PageStore::open(scratch_dir("disk"), small_pool_config(), clock::wall()).unwrap()
}

fn open_disk_fleet(n: usize) -> Vec<Arc<PageStore>> {
    crate::disk::open_store_fleet(
        scratch_dir("disk-sharded"),
        n,
        small_pool_config(),
        clock::wall(),
    )
    .unwrap()
}

fn shards() -> usize {
    gdpr_core::shard_count_from_env()
}

fn build_redis() -> EngineHandle {
    Arc::new(RedisConnector::new(open_kv()))
}

fn build_redis_mi() -> EngineHandle {
    Arc::new(RedisConnector::with_metadata_index(open_kv()).unwrap())
}

fn build_redis_sharded() -> EngineHandle {
    Arc::new(RedisConnector::sharded_with_metadata_index(open_kv_fleet(shards())).unwrap())
}

fn build_redis_sharded_scan() -> EngineHandle {
    Arc::new(RedisConnector::sharded(open_kv_fleet(shards())).unwrap())
}

fn build_postgres() -> EngineHandle {
    Arc::new(PostgresConnector::new(open_rel()).unwrap())
}

fn build_postgres_mi() -> EngineHandle {
    Arc::new(PostgresConnector::with_metadata_indices(open_rel()).unwrap())
}

fn build_disk() -> EngineHandle {
    Arc::new(DiskConnector::with_metadata_index(open_disk()).unwrap())
}

fn build_disk_sharded() -> EngineHandle {
    Arc::new(DiskConnector::sharded_with_metadata_index(open_disk_fleet(shards())).unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_builds_and_reports_its_registered_name() {
        for v in VARIANTS {
            let handle = (v.build)();
            assert_eq!(handle.name(), v.name, "registry name drifted");
            assert_eq!(handle.record_count(), 0, "{}: fresh instance", v.name);
        }
    }

    #[test]
    fn registry_names_are_unique() {
        let mut names = names();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), VARIANTS.len());
    }
}
