//! The compliance engine: authorization, record visibility, audit
//! logging, and the full [`GdprQuery`] dispatch, implemented exactly once
//! over the narrow [`RecordStore`] backend trait and hash-partitioned
//! across one or more stores.
//!
//! Before this module, every connector hand-rolled a near-identical ~300
//! line dispatcher, and the Redis-shaped one answered *every* metadata
//! predicate with a full scan-decrypt-parse of the keyspace. The engine
//! centralizes the policy layer (this is the "compliance as a first-class
//! database concern" framing of the Cambridge Report the paper cites) and
//! resolves each metadata predicate through a three-level strategy:
//!
//! 1. **Pushdown** — the backend evaluates the predicate natively
//!    ([`RecordStore::select`]); the relational store routes this to its
//!    own secondary indexes.
//! 2. **Engine index** — an attached [`MetadataIndex`] answers by inverted
//!    lookup in O(matches), then every candidate is re-fetched and
//!    re-verified; this is what turns the key-value backend's O(n) scans
//!    into O(matches) probes.
//! 3. **Full scan** — [`RecordStore::scan`] filtered by
//!    [`RecordPredicate::matches`], the reference semantics.
//!
//! All three levels return identical result sets (the property suite pins
//! this), so index and pushdown are pure accelerations, never semantic
//! forks.
//!
//! **Partitions.** An engine holds N ≥ 1 stores; one store is the
//! unsharded case. Point ops (`CREATE-RECORD`, `*-BY-KEY`,
//! `verify-deletion`) hash their storage key with [`shard_of`] and run on
//! the owning partition only, so disjoint keys touch disjoint store locks.
//! Predicate ops (`*-BY-USR/PUR/OBJ/DEC/SHR`, `DELETE-RECORD-BY-TTL`) fan
//! out to every partition and merge: counts sum, result sets concatenate
//! and sort by key. Read fan-out runs the partition probes in parallel on
//! a per-engine worker pool (write fan-out stays sequential to preserve
//! partial-failure semantics), collecting into partition-order slots so
//! parallelism never leaks into the response. Partition count is thereby
//! an invisible deployment knob (pinned by `tests/proptests.rs`). At one
//! partition a fan-out is a single dispatch and its response is returned
//! as the store produced it.
//!
//! Tenancy is engine-wide: each tenant owns one audit trail (exactly one
//! event per executed query, whatever its fan-out), one telemetry table,
//! and one [`MetadataIndex`] per partition when the engine is indexed.
//!
//! Reopening persisted partitions is guarded: the key→partition map
//! depends only on [`shard_of`], so a restart with a different store count
//! leaves records in partitions that no longer own them.
//! [`ComplianceEngine::verify_placement`] turns that into a loud
//! [`GdprError::ShardMisroute`] instead of silent lookup misses, and
//! [`ComplianceEngine::rebalance`] migrates records to their owners
//! (preserving remaining TTL deadlines via
//! [`RecordStore::put_with_deadline`]).

use crate::acl::{authorize, record_visible};
use crate::audit::{AuditDraft, AuditTrail};
use crate::compliance::FeatureReport;
use crate::connector::SpaceReport;
use crate::error::{GdprError, GdprResult};
use crate::metaindex::{IndexBatch, MetadataIndex};
use crate::query::GdprQuery;
use crate::record::PersonalRecord;
use crate::response::GdprResponse;
use crate::role::Session;
use crate::sharded::{group_update_of, merge_responses, point_key, shard_of, FanoutPool};
use crate::snapshot::{self, IndexRecovery, SnapshotInvalid, SnapshotStamp};
use crate::store::{RecordPredicate, RecordStore};
use crate::telemetry::{OpTelemetry, OpTelemetrySnapshot};
use crate::tenant::TenantId;
use crate::GdprConnector;
use clock::SharedClock;
use parking_lot::RwLock;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// One hash partition: a bare store, plus where its index image lives and
/// how that index came up (both set on the snapshot-aware open path only).
struct Partition<S> {
    store: S,
    snapshot: Option<PathBuf>,
    recovery: Option<IndexRecovery>,
}

/// Everything one tenant owns inside an engine: its audit trail (so
/// GET-SYSTEM-LOGS returns only the caller's interactions), its telemetry
/// table (so op/error counts and slow-op lines attribute to a tenant), and
/// one metadata index per partition (none when the engine is unindexed).
struct TenantState {
    audit: AuditTrail,
    telemetry: Arc<OpTelemetry>,
    indexes: Vec<Arc<MetadataIndex>>,
}

/// The tenant → state table. The default tenant is a direct field (the
/// single-tenant hot path never touches a lock); named tenants live in
/// an RwLock'd map, created lazily on first use or discovered at open.
struct TenantTable {
    default_state: Arc<TenantState>,
    extra: RwLock<BTreeMap<String, Arc<TenantState>>>,
    /// Flipped (and never unflipped) once any named tenant exists — the
    /// cue for the write paths to stop using store-wide pushdowns that
    /// would cross tenant boundaries.
    multi: AtomicBool,
}

impl TenantTable {
    fn new(clock: &SharedClock, indexes: usize) -> Arc<TenantTable> {
        Arc::new(TenantTable {
            default_state: Arc::new(TenantState {
                audit: AuditTrail::new(clock.clone()),
                telemetry: Arc::new(OpTelemetry::new()),
                indexes: fresh_indexes(indexes),
            }),
            extra: RwLock::new(BTreeMap::new()),
            multi: AtomicBool::new(false),
        })
    }

    fn get(&self, name: &str) -> Option<Arc<TenantState>> {
        if name.is_empty() {
            return Some(Arc::clone(&self.default_state));
        }
        self.extra.read().get(name).map(Arc::clone)
    }

    /// Every tenant's state by name: the default tenant (`""`) first, then
    /// named tenants in name order.
    fn states(&self) -> Vec<(String, Arc<TenantState>)> {
        let mut out = vec![(String::new(), Arc::clone(&self.default_state))];
        for (name, state) in self.extra.read().iter() {
            out.push((name.clone(), Arc::clone(state)));
        }
        out
    }

    /// Route a store-side expiry on partition `p` to the owning tenant's
    /// index over that partition. Looks up only — a reap never creates
    /// tenant state.
    fn on_store_expiry(&self, p: usize, storage_key: &str) {
        let (tenant, _) = TenantId::split_storage_key(storage_key);
        if let Some(index) = self.get(tenant).and_then(|s| s.indexes.get(p).cloned()) {
            index.remove(storage_key);
        }
    }
}

fn fresh_indexes(n: usize) -> Vec<Arc<MetadataIndex>> {
    (0..n).map(|_| Arc::new(MetadataIndex::new())).collect()
}

/// The partitions and the tenant table, shared with the fan-out workers
/// (whose jobs must be `'static`). The tenant table is its own `Arc`
/// because every store's expiry listener holds it too.
struct Core<S> {
    partitions: Vec<Partition<S>>,
    tenants: Arc<TenantTable>,
    clock: SharedClock,
}

/// The one compliance layer every backend shares.
pub struct ComplianceEngine<S: RecordStore> {
    core: Arc<Core<S>>,
    name: String,
    /// Workers for parallel predicate fan-out and point-batch segments;
    /// `None` at one partition, where there is nothing to overlap.
    fanout: Option<FanoutPool>,
}

impl<S: RecordStore + 'static> ComplianceEngine<S> {
    /// An engine resolving metadata predicates by pushdown or full scan —
    /// the paper-faithful configuration for stores without secondary
    /// indexes.
    pub fn new(store: S) -> ComplianceEngine<S> {
        Self::open(vec![store], false, None).expect("a single store always shares its own clock")
    }

    /// An engine maintaining a [`MetadataIndex`] over the store: inverted
    /// `user/purpose/objection/sharing → keys` maps, the all-keys and
    /// decision-eligibility sets (which make the negative predicates
    /// index-answerable), plus a deadline-ordered expiry set. Existing
    /// records are back-filled in one batch (TTL deadlines re-anchor at
    /// attach time), and the store's expiry path is wired to invalidate
    /// index entries the moment a record is reaped.
    pub fn with_metadata_index(store: S) -> GdprResult<ComplianceEngine<S>> {
        Self::open(vec![store], true, None)
    }

    /// The snapshot-aware open path: as [`Self::with_metadata_index`],
    /// but the index is recovered through
    /// [`snapshot::restore_or_rebuild_tenants`] against the image at
    /// `path` — O(index) when the image is trustworthy (its generation
    /// stamp equals [`RecordStore::persistence_generation`] and its
    /// topology header says partition 0 of 1), the usual O(n) backfill
    /// otherwise. The engine remembers `path` so
    /// [`Self::write_index_snapshot`] / [`Self::close`] can persist the
    /// index again; a missing image on first boot simply rebuilds and is
    /// written on the next close.
    pub fn with_metadata_index_snapshot(
        store: S,
        path: impl Into<PathBuf>,
    ) -> GdprResult<ComplianceEngine<S>> {
        Self::open(vec![store], true, Some(vec![path.into()]))
    }

    /// Hash-partition records across `stores` (predicates resolve by
    /// pushdown or scan within each partition).
    pub fn sharded(stores: Vec<S>) -> GdprResult<ComplianceEngine<S>> {
        Self::open(stores, false, None).map(Self::suffixed)
    }

    /// As [`Self::sharded`], with a [`MetadataIndex`] per tenant per
    /// partition. Each store's expiry path is wired to invalidate *that
    /// partition's* indexes only — a TTL reap on one partition can never
    /// strand or scrub keys in another's.
    pub fn sharded_with_metadata_index(stores: Vec<S>) -> GdprResult<ComplianceEngine<S>> {
        Self::open(stores, true, None).map(Self::suffixed)
    }

    /// The snapshot-aware partitioned open path: as
    /// [`Self::sharded_with_metadata_index`], but partition *i* recovers
    /// its indexes through the image `dir/metaindex-shard-i.snap` —
    /// O(index) per partition when the image matches that store's
    /// generation *and* was written as partition `i` of exactly this
    /// count (the topology is in the snapshot header). Reopening under a
    /// different count therefore rebuilds every partition's index from its
    /// store — the index-side analogue of [`Self::verify_placement`]'s
    /// misroute detection; run [`Self::rebalance`] to fix the store side,
    /// after which the rebuilt indexes are already correct.
    pub fn sharded_with_metadata_index_snapshots(
        stores: Vec<S>,
        dir: impl AsRef<Path>,
    ) -> GdprResult<ComplianceEngine<S>> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| GdprError::Store(format!("index snapshot dir {dir:?}: {e}")))?;
        // Names carry the partition index only (not the count): a reopen
        // under a different count finds the same files and rejects them
        // via the topology header instead of silently rebuilding against
        // an empty path.
        let paths = (0..stores.len())
            .map(|i| dir.join(format!("metaindex-shard-{i}.snap")))
            .collect();
        Self::open(stores, true, Some(paths)).map(Self::suffixed)
    }

    fn suffixed(mut self) -> ComplianceEngine<S> {
        self.name.push_str("-sharded");
        self
    }

    /// The one open path. An indexed engine backfills (or restores) every
    /// partition's indexes, discovering named tenants as it goes; an
    /// unindexed one discovers them from the stored keys. Either way a
    /// store that already holds named-tenant records opens multi-tenant,
    /// so the default tenant's store-wide pushdowns never cross a tenant
    /// boundary after a restart.
    fn open(
        stores: Vec<S>,
        indexed: bool,
        snapshots: Option<Vec<PathBuf>>,
    ) -> GdprResult<ComplianceEngine<S>> {
        let Some(first) = stores.first() else {
            return Err(GdprError::Store(
                "an engine needs at least one partition".to_string(),
            ));
        };
        // All partitions must share one clock *instance*: wall clocks
        // anchor their epoch at construction, so timestamps (audit lines,
        // absolute TTL deadlines — which rebalance() carries between
        // partitions) from different instances are not comparable. Fail
        // loudly rather than skew retention silently.
        let clock = first.clock();
        if stores[1..].iter().any(|s| !Arc::ptr_eq(&clock, &s.clock())) {
            return Err(GdprError::Store(
                "sharded engine: every shard must share one clock instance \
                 (open the stores with the same SharedClock)"
                    .to_string(),
            ));
        }
        let name = first.name().to_string();
        let n = stores.len();
        let mut core = Core {
            tenants: TenantTable::new(&clock, if indexed { n } else { 0 }),
            clock,
            partitions: stores
                .into_iter()
                .map(|store| Partition {
                    store,
                    snapshot: None,
                    recovery: None,
                })
                .collect(),
        };
        if !indexed {
            if core.discover_tenants().is_err() {
                // Tenancy unknown: keep the store-wide pushdowns off rather
                // than risk one crossing a tenant boundary.
                core.tenants.multi.store(true, Ordering::Relaxed);
            }
        } else {
            // Wire every store's expiry path to the tenant table before
            // any backfill/restore: a reap routes to the owning tenant's
            // index over that partition by storage-key prefix. A reap
            // racing a build can be clobbered by the install and leave a
            // stale entry — the same transient window as live index
            // maintenance, and equally harmless: reads re-verify
            // candidates against the store, and the purge path unions
            // store-side deadlines.
            for (p, partition) in core.partitions.iter().enumerate() {
                let table = Arc::clone(&core.tenants);
                partition
                    .store
                    .on_expiry(Arc::new(move |key| table.on_store_expiry(p, key)));
            }
            match snapshots {
                None => {
                    for p in 0..n {
                        core.backfill_partition(p)?;
                    }
                }
                Some(paths) => {
                    for (p, path) in paths.into_iter().enumerate() {
                        let recovery = core.restore_partition(p, &path)?;
                        core.partitions[p].snapshot = Some(path);
                        core.partitions[p].recovery = Some(recovery);
                    }
                }
            }
        }
        // Parallel fan-out pays off only with something to overlap: cap
        // the workers at the machine's parallelism, skip the pool entirely
        // for one partition.
        let fanout = (n > 1).then(|| {
            let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
            FanoutPool::new(n.min(cores.max(2)))
        });
        Ok(ComplianceEngine {
            core: Arc::new(core),
            name,
            fanout,
        })
    }

    /// Override the connector name (e.g. to distinguish a scan-backed from
    /// an index-backed sharded variant in reports).
    pub fn named(mut self, name: impl Into<String>) -> ComplianceEngine<S> {
        self.name = name.into();
        self
    }

    pub fn shard_count(&self) -> usize {
        self.core.partitions.len()
    }

    /// The backend of one partition.
    pub fn store(&self, partition: usize) -> &S {
        &self.core.partitions[partition].store
    }

    /// The default tenant's audit trail serving GET-SYSTEM-LOGS (named
    /// tenants keep their own).
    pub fn audit(&self) -> &AuditTrail {
        &self.core.tenants.default_state.audit
    }

    /// The default tenant's metadata index over the first partition — the
    /// whole index of an unsharded engine — if this engine maintains
    /// indexes.
    pub fn metadata_index(&self) -> Option<&Arc<MetadataIndex>> {
        self.metadata_index_at(0)
    }

    /// The default tenant's metadata index over one partition.
    pub fn metadata_index_at(&self, partition: usize) -> Option<&Arc<MetadataIndex>> {
        self.core.tenants.default_state.indexes.get(partition)
    }

    /// How one partition's index came up on the snapshot-aware open path
    /// (`None` for the other constructors).
    pub fn index_recovery(&self, partition: usize) -> Option<&IndexRecovery> {
        self.core.partitions[partition].recovery.as_ref()
    }

    /// Persist every partition's index image now: stamp each with its
    /// store's persistence generation and atomically replace the
    /// configured snapshot file. Returns the total entry count.
    ///
    /// Snapshots are meant for **write-quiescent moments** (graceful
    /// close, admin checkpoints — the same discipline as `rebalance()`).
    /// The generation is captured before the export and re-checked after:
    /// a store write racing the export window fails the call loudly
    /// instead of producing an image whose stamp and content could
    /// disagree (a torn AOF tail replaying to exactly the stamped
    /// generation would then trust a divergent image). The engine is
    /// non-transactional, so a store-committed write whose index update
    /// has not yet been applied is indistinguishable from quiescence —
    /// hold writes while snapshotting, as `close()` callers do.
    pub fn write_index_snapshot(&self) -> GdprResult<usize> {
        let mut written = 0;
        for p in 0..self.core.partitions.len() {
            written += self.core.write_snapshot(p)?;
        }
        Ok(written)
    }

    /// Graceful close: persist each partition's index snapshot when one is
    /// configured, then flush its store ([`RecordStore::close`]),
    /// returning the index entries written. Safe to call repeatedly.
    pub fn close(&self) -> GdprResult<usize> {
        let mut written = 0;
        for (p, partition) in self.core.partitions.iter().enumerate() {
            if partition.snapshot.is_some() {
                written += self.core.write_snapshot(p)?;
            }
            partition.store.close()?;
        }
        Ok(written)
    }

    /// Point ops to the owning partition; predicate ops fanned out and
    /// merged; system queries answered by the first partition (partitions
    /// are homogeneous, and the audit stream is the tenant's own).
    fn route(
        &self,
        state: &Arc<TenantState>,
        session: &Session,
        query: &GdprQuery,
    ) -> GdprResult<GdprResponse> {
        if let Some(key) = point_key(query) {
            let p = self.core.partition_of(&session.tenant, key);
            return self.core.dispatch_in(p, state, session, query);
        }
        match query {
            GdprQuery::GetSystemLogs { .. } | GdprQuery::GetSystemFeatures => {
                self.core.dispatch_in(0, state, session, query)
            }
            _ => self.fan_out(state, session, query),
        }
    }

    /// [`Self::route`], timed into the tenant's telemetry.
    fn route_timed(
        &self,
        state: &Arc<TenantState>,
        session: &Session,
        query: &GdprQuery,
    ) -> GdprResult<GdprResponse> {
        let started = Instant::now();
        let result = self.route(state, session, query);
        state
            .telemetry
            .record(query, started.elapsed(), result.is_err());
        result
    }

    /// Run a predicate query on every partition and merge
    /// deterministically.
    ///
    /// *Reads* fan out in parallel on the worker pool: partition probes
    /// are independent, results are collected into partition-order slots
    /// before merging, and on failure the lowest-indexed partition's error
    /// is returned — so the response (and the merge order) never depends
    /// on thread timing. *Writes* stay sequential: a mid-fan-out failure
    /// must leave the same partial progress as one partition failing
    /// mid-iteration, and parallel partitions would smear partial updates
    /// across all of them.
    ///
    /// Group metadata updates additionally **pre-validate on every
    /// partition before any commits**: validate-all-then-commit means an
    /// update invalid for any match mutates nothing, and that guarantee
    /// must not depend on which partition the offending record hashes to —
    /// without the pre-pass, partitions before the failing one would commit
    /// while the caller sees `Err`, breaking partition-count invariance.
    /// The pre-pass reads each partition's matches a second time
    /// (index-resolved, so O(matches) per partition) — the price of the
    /// cross-partition guarantee; a single partition skips it, since its
    /// own validate-all-then-commit already covers it. The pre-pass
    /// validates a *snapshot*: a write racing the group update (e.g. a
    /// point create landing between validation and a later partition's
    /// commit) is re-validated by that partition's own
    /// validate-all-then-commit and can still fail the group after earlier
    /// partitions committed — the same snapshot semantics as any
    /// non-transactional engine; the all-or-nothing guarantee is about the
    /// state the update observed, not about writes racing it.
    fn fan_out(
        &self,
        state: &Arc<TenantState>,
        session: &Session,
        query: &GdprQuery,
    ) -> GdprResult<GdprResponse> {
        let n = self.core.partitions.len();
        if n > 1 {
            if let Some((pred, update)) = group_update_of(query) {
                // Only data-dependent updates can fail on a later
                // partition after an earlier one committed; for every other
                // update shape, validation failure is uniform across
                // records and per-partition validate-all-then-commit
                // already yields all-or-nothing — skipping the pre-pass
                // avoids reading every match twice on the common group
                // updates. And only pre-validate what the session may
                // actually execute: an authorization failure must surface
                // as AccessDenied from the dispatch below, in the engine's
                // error order (authorize → validate → commit).
                if update.validation_is_data_dependent() && authorize(session, query).is_ok() {
                    for p in 0..n {
                        self.core
                            .validate_update(p, state, &session.tenant, &pred, update)?;
                    }
                }
            }
        }
        let results: Vec<GdprResult<GdprResponse>> = match &self.fanout {
            Some(pool) if !query.is_write() => {
                let (tx, rx) = mpsc::channel();
                for p in 0..n {
                    let core = Arc::clone(&self.core);
                    let state = Arc::clone(state);
                    let session = session.clone();
                    let query = query.clone();
                    let tx = tx.clone();
                    pool.submit(Box::new(move || {
                        // A panicking partition must not hang the
                        // collector: it still reports, as a loud store
                        // error.
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            core.dispatch_in(p, &state, &session, &query)
                        }))
                        .unwrap_or_else(|_| {
                            Err(GdprError::Store(
                                "shard fan-out worker panicked".to_string(),
                            ))
                        });
                        let _ = tx.send((p, result));
                    }));
                }
                drop(tx);
                let mut slots: Vec<Option<GdprResult<GdprResponse>>> =
                    (0..n).map(|_| None).collect();
                for (p, result) in rx {
                    slots[p] = Some(result);
                }
                if slots.iter().any(Option::is_none) {
                    return Err(GdprError::Store(
                        "shard fan-out lost a worker response".to_string(),
                    ));
                }
                slots.into_iter().flatten().collect()
            }
            _ => {
                let mut results = Vec::with_capacity(n);
                for p in 0..n {
                    results.push(self.core.dispatch_in(p, state, session, query));
                    if results.last().is_some_and(Result::is_err) {
                        break;
                    }
                }
                results
            }
        };
        merge_responses(results.into_iter().collect::<GdprResult<Vec<_>>>()?)
    }

    /// Execute `ops[start..end]` (all point ops) grouped by owning
    /// partition: each partition's group runs sequentially in op order
    /// (same-key ordering is the group's ordering); distinct partitions
    /// overlap on the fan-out pool when more than one has work. Every slot
    /// in the range is filled.
    fn run_point_segment(
        &self,
        ops: &Arc<Vec<(Session, GdprQuery)>>,
        start: usize,
        end: usize,
        results: &mut [Option<GdprResult<GdprResponse>>],
    ) {
        let partition_of = |idx: usize| {
            let (session, query) = &ops[idx];
            let key = point_key(query).expect("segment holds only point ops");
            self.core.partition_of(&session.tenant, key)
        };
        if let Some(pool) = &self.fanout {
            let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.core.partitions.len()];
            for idx in start..end {
                groups[partition_of(idx)].push(idx);
            }
            if groups.iter().filter(|g| !g.is_empty()).count() > 1 {
                let (tx, rx) = mpsc::channel();
                for (p, group) in groups.into_iter().enumerate() {
                    if group.is_empty() {
                        continue;
                    }
                    let core = Arc::clone(&self.core);
                    let ops = Arc::clone(ops);
                    let tx = tx.clone();
                    pool.submit(Box::new(move || {
                        for idx in group {
                            let (session, query) = &ops[idx];
                            // A panicking op must neither hang the
                            // collector nor take its group's successors
                            // with it.
                            let result =
                                catch_unwind(AssertUnwindSafe(|| core.run(p, session, query)))
                                    .unwrap_or_else(|_| {
                                        Err(GdprError::Store(
                                            "shard batch worker panicked".to_string(),
                                        ))
                                    });
                            let _ = tx.send((idx, result));
                        }
                    }));
                }
                drop(tx);
                for (idx, result) in rx {
                    results[idx] = Some(result);
                }
                for slot in results[start..end].iter_mut().filter(|s| s.is_none()) {
                    *slot = Some(Err(GdprError::Store(
                        "shard batch lost a worker response".to_string(),
                    )));
                }
                return;
            }
        }
        for idx in start..end {
            let (session, query) = &ops[idx];
            results[idx] = Some(self.core.run(partition_of(idx), session, query));
        }
    }

    /// Check that every stored record lives in the partition [`shard_of`]
    /// assigns it — the guard to run after reopening persisted stores.
    pub fn verify_placement(&self) -> GdprResult<()> {
        let n = self.core.partitions.len();
        for (found_in, partition) in self.core.partitions.iter().enumerate() {
            for record in partition.store.scan()? {
                let owner = shard_of(&record.key, n);
                if owner != found_in {
                    return Err(GdprError::ShardMisroute {
                        key: record.key,
                        found_in,
                        owner,
                        shard_count: n,
                    });
                }
            }
        }
        Ok(())
    }

    /// Migrate every misplaced record to its owning partition, returning
    /// how many moved. Remaining TTL deadlines survive the move (a
    /// migration must not extend retention), per-partition indexes are
    /// kept consistent on both sides, and a collision in the destination
    /// fails loudly with both copies intact rather than overwriting either.
    ///
    /// Index maintenance is coalesced into one [`IndexBatch`] per
    /// partition, applied after the store migration (one lock acquisition
    /// per partition and tenant instead of two per moved record) — and
    /// applied even when a store op fails mid-migration, so every index
    /// tracks exactly the committed moves. Rebalance is a restart-time
    /// admin operation: it is not meant to run concurrently with predicate
    /// traffic (batching widens the window in which a moved record is
    /// queryable by key but not yet in its new partition's index; stale
    /// source entries are filtered on read as always).
    pub fn rebalance(&self) -> GdprResult<usize> {
        let partitions = &self.core.partitions;
        let n = partitions.len();
        let now_ms = self.core.now_ms();
        let mut moved = 0;
        let mut batches: Vec<IndexBatch> = (0..n).map(|_| IndexBatch::new()).collect();
        let mut migrate = || -> GdprResult<()> {
            for (i, partition) in partitions.iter().enumerate() {
                for record in partition.store.scan()? {
                    let owner = shard_of(&record.key, n);
                    if owner == i {
                        continue;
                    }
                    let deadline_ms = remaining_deadline(&partition.store, &record, now_ms);
                    partitions[owner]
                        .store
                        .put_with_deadline(&record, deadline_ms)?;
                    // The batch keeps only key + metadata (no payload
                    // copy); the record is moved in, so only its key is
                    // cloned for the source-side delete and removal.
                    let key = record.key.clone();
                    batches[owner].upsert_at(record, deadline_ms);
                    partition.store.delete(&key)?;
                    batches[i].remove(key);
                    moved += 1;
                }
            }
            Ok(())
        };
        let result = migrate();
        for (p, batch) in batches.into_iter().enumerate() {
            self.core.apply_index_batch(p, batch);
        }
        result.map(|()| moved)
    }
}

/// The deadline a pre-existing record carries into an index or another
/// partition: the store's remaining deadline is authoritative; stores that
/// track none fall back to `now + declared TTL`, so a TTL'd record still
/// enters the expiry set instead of being retained forever. Re-deriving
/// from the declared TTL when the store *does* know would extend retention
/// by the already-elapsed lifetime.
fn remaining_deadline<S: RecordStore>(
    store: &S,
    record: &PersonalRecord,
    now_ms: u64,
) -> Option<u64> {
    store.deadline_ms(&record.key).or_else(|| {
        record
            .metadata
            .ttl
            .map(|ttl| now_ms + ttl.as_millis() as u64)
    })
}

impl<S: RecordStore> Core<S> {
    /// Does this engine maintain metadata indexes?
    fn indexed(&self) -> bool {
        !self.tenants.default_state.indexes.is_empty()
    }

    /// Has any named tenant ever been seen? While false, the engine is in
    /// the degenerate single-tenant mode and keeps the exact pre-tenancy
    /// fast paths (store-wide pushdown deletes and purges).
    fn multi_tenant(&self) -> bool {
        self.tenants.multi.load(Ordering::Relaxed)
    }

    fn now_ms(&self) -> u64 {
        self.clock.now().as_millis()
    }

    /// The partition owning `key` as seen by `tenant`: routing hashes the
    /// storage key, the same bytes the owning store keeps the record under
    /// — so placement, `verify_placement`, and `rebalance` (which hash
    /// stored keys) always agree, and a tenant's keyspace spreads
    /// independently of every other tenant's.
    fn partition_of(&self, tenant: &TenantId, key: &str) -> usize {
        let n = self.partitions.len();
        if n == 1 {
            0
        } else if tenant.is_default() {
            shard_of(key, n)
        } else {
            shard_of(&tenant.storage_key(key), n)
        }
    }

    /// Create a state for every named tenant whose records the stores
    /// already hold — the unindexed engine's open-time discovery (indexed
    /// engines discover tenants in their backfill or restore). Walks keys
    /// only ([`RecordStore::keys`]), so it reaps nothing.
    fn discover_tenants(&self) -> GdprResult<()> {
        let mut names = BTreeSet::new();
        for partition in &self.partitions {
            for key in partition.store.keys()? {
                let (tenant, _) = TenantId::split_storage_key(&key);
                if !tenant.is_empty() && !names.contains(tenant) {
                    names.insert(tenant.to_string());
                }
            }
        }
        for name in names {
            // Prefixes that are not valid tenant names cannot have been
            // written through the engine.
            if let Ok(tenant) = TenantId::new(name) {
                self.create_or_get_state(&tenant, false)?;
            }
        }
        Ok(())
    }

    /// The O(n) index build of one partition for every tenant at once:
    /// scan the store, group by storage-key prefix, and apply one batch per
    /// tenant to that tenant's index over the partition (creating tenant
    /// states as discovered). Returns how many records were scanned.
    fn backfill_partition(&self, p: usize) -> GdprResult<usize> {
        let store = &self.partitions[p].store;
        let now_ms = self.now_ms();
        let records = store.scan()?;
        let n = records.len();
        let mut batches: Vec<(String, IndexBatch)> = Vec::new();
        for record in records {
            let deadline_ms = remaining_deadline(store, &record, now_ms);
            let (tenant, _) = TenantId::split_storage_key(&record.key);
            let batch = match batches.iter_mut().find(|(t, _)| t == tenant) {
                Some((_, batch)) => batch,
                None => {
                    batches.push((tenant.to_string(), IndexBatch::new()));
                    &mut batches.last_mut().expect("just pushed").1
                }
            };
            batch.upsert_at(record, deadline_ms);
        }
        for (tenant_name, batch) in batches {
            // Prefixes that are not valid tenant names cannot have been
            // written through the engine; skip rather than fabricate a
            // partition for them.
            let Ok(tenant) = TenantId::new(tenant_name) else {
                continue;
            };
            // One lock acquisition per tenant, not one per record.
            self.create_or_get_state(&tenant, false)?.indexes[p].apply(batch);
        }
        Ok(n)
    }

    /// The per-tenant O(n) index build: scan every partition, keep this
    /// tenant's records, apply one batch per partition. Used when a tenant
    /// state is created lazily at runtime (after a restart, the tenant's
    /// records are already in the stores but its state does not exist
    /// yet).
    fn backfill_tenant(&self, tenant: &TenantId, state: &TenantState) -> GdprResult<()> {
        let now_ms = self.now_ms();
        for (partition, index) in self.partitions.iter().zip(&state.indexes) {
            let mut batch = IndexBatch::new();
            for record in partition.store.scan()? {
                if tenant.owns(&record.key) {
                    let deadline_ms = remaining_deadline(&partition.store, &record, now_ms);
                    batch.upsert_at(record, deadline_ms);
                }
            }
            index.apply(batch);
        }
        Ok(())
    }

    /// Recover partition `p`'s indexes from the image at `path`, or
    /// rebuild them from its store when the image is not trustworthy for
    /// this store generation and topology.
    fn restore_partition(&self, p: usize, path: &Path) -> GdprResult<IndexRecovery> {
        let expected = SnapshotStamp {
            generation: self.partitions[p].store.persistence_generation(),
            shard_index: p as u32,
            shard_count: self.partitions.len() as u32,
        };
        snapshot::restore_or_rebuild_tenants(
            path,
            &expected,
            &mut |tenant_name| {
                let tenant = TenantId::new(tenant_name).map_err(SnapshotInvalid::BadTenant)?;
                let state = self
                    .create_or_get_state(&tenant, false)
                    .map_err(|e| SnapshotInvalid::BadTenant(e.to_string()))?;
                Ok(Arc::clone(&state.indexes[p]))
            },
            || self.backfill_partition(p),
        )
    }

    /// Write partition `p`'s index image: one multi-tenant image, the
    /// default tenant's section first, then every named tenant in name
    /// order — the tenant set is part of the checksummed image, so a
    /// vanished tenant can never be mistaken for an empty-but-trusted one.
    fn write_snapshot(&self, p: usize) -> GdprResult<usize> {
        let partition = &self.partitions[p];
        let Some(path) = &partition.snapshot else {
            return Err(GdprError::Unsupported(
                "engine was not opened with an index snapshot path".to_string(),
            ));
        };
        let sections: Vec<(String, Arc<MetadataIndex>)> = self
            .tenants
            .states()
            .into_iter()
            .map(|(name, state)| (name, Arc::clone(&state.indexes[p])))
            .collect();
        let generation = partition.store.persistence_generation();
        let stamp = SnapshotStamp {
            generation,
            shard_index: p as u32,
            shard_count: self.partitions.len() as u32,
        };
        let written = snapshot::write_snapshot(path, &sections, &stamp)?;
        if partition.store.persistence_generation() != generation {
            // A write landed mid-export; the image on disk is stamped
            // with a generation the store has moved past, so recovery
            // would correctly refuse it — surface the race instead of
            // leaving a snapshot that can only rebuild.
            return Err(GdprError::Store(
                "a store write raced the index snapshot; retry at write quiescence".to_string(),
            ));
        }
        Ok(written)
    }

    /// Resolve the state a session's tenant operates in, creating it on
    /// first use (with a scoped backfill when the engine is indexed).
    fn tenant_state(&self, tenant: &TenantId) -> GdprResult<Arc<TenantState>> {
        match self.tenants.get(tenant.name()) {
            Some(state) => Ok(state),
            None => self.create_or_get_state(tenant, true),
        }
    }

    /// Install a fresh state for `tenant` (or adopt a concurrently
    /// installed one). The state is registered *before* any backfill so
    /// concurrent writes from the same tenant index into the installed
    /// state rather than a discarded one; the backfill's upserts are
    /// idempotent against them.
    fn create_or_get_state(
        &self,
        tenant: &TenantId,
        backfill: bool,
    ) -> GdprResult<Arc<TenantState>> {
        if tenant.is_default() {
            // The default tenant's state is pre-built; routing it through
            // the `extra` map would shadow it (and wrongly flip `multi`).
            return Ok(Arc::clone(&self.tenants.default_state));
        }
        let state = Arc::new(TenantState {
            audit: AuditTrail::new(self.clock.clone()),
            telemetry: Arc::new(OpTelemetry::labeled(tenant.label())),
            indexes: fresh_indexes(self.tenants.default_state.indexes.len()),
        });
        {
            let mut extra = self.tenants.extra.write();
            match extra.entry(tenant.name().to_string()) {
                std::collections::btree_map::Entry::Occupied(existing) => {
                    return Ok(Arc::clone(existing.get()));
                }
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(Arc::clone(&state));
                }
            }
        }
        self.tenants.multi.store(true, Ordering::Relaxed);
        if backfill && self.indexed() {
            if let Err(e) = self.backfill_tenant(tenant, &state) {
                // Never leave a half-built state behind: an empty index
                // would silently answer predicates with misses.
                self.tenants.extra.write().remove(tenant.name());
                return Err(e);
            }
        }
        Ok(state)
    }

    /// One point op on partition `p` under its tenant's state, timed into
    /// that tenant's telemetry — the unit of a batch segment.
    fn run(&self, p: usize, session: &Session, query: &GdprQuery) -> GdprResult<GdprResponse> {
        let state = self.tenant_state(&session.tenant)?;
        let started = Instant::now();
        let result = self.dispatch_in(p, &state, session, query);
        state
            .telemetry
            .record(query, started.elapsed(), result.is_err());
        result
    }

    /// Translate a logical key into the session tenant's storage key,
    /// rejecting keys that embed the tenant separator (which could forge
    /// an address in another tenant's partition).
    fn storage_key(tenant: &TenantId, key: &str) -> GdprResult<String> {
        TenantId::check_logical_key(key).map_err(GdprError::InvalidRecord)?;
        Ok(tenant.storage_key(key))
    }

    /// Strip the tenant prefix off a storage key for a response. The
    /// default tenant's keys pass through untouched (no reallocation).
    fn logical_key(tenant: &TenantId, key: String) -> String {
        if tenant.is_default() {
            key
        } else {
            tenant.logical(&key).to_string()
        }
    }

    /// Fetch a record that must exist, or `NotFound` under its logical key.
    fn fetch_required(&self, p: usize, tenant: &TenantId, key: &str) -> GdprResult<PersonalRecord> {
        let storage_key = Self::storage_key(tenant, key)?;
        self.partitions[p]
            .store
            .fetch(&storage_key)?
            .ok_or_else(|| GdprError::NotFound(key.to_string()))
    }

    /// All of **this tenant's** records on partition `p` matching `pred`,
    /// resolved pushdown → index → scan. Pushdown and scan evaluate over
    /// the shared store, so their results are filtered by storage-key
    /// ownership; the tenant's index is tenant-scoped by construction.
    fn read_matching(
        &self,
        p: usize,
        state: &TenantState,
        tenant: &TenantId,
        pred: &RecordPredicate,
    ) -> GdprResult<Vec<PersonalRecord>> {
        let store = &self.partitions[p].store;
        if let Some(result) = store.select(pred) {
            let mut records = result?;
            records.retain(|r| tenant.owns(&r.key));
            return Ok(records);
        }
        if let Some(index) = state.indexes.get(p) {
            if let Some(keys) = index.keys_for(pred) {
                let mut out = Vec::with_capacity(keys.len());
                for key in keys {
                    // A candidate can be stale (expired since indexing, or
                    // mutated concurrently): re-verify against the
                    // reference semantics before returning it.
                    match store.fetch(&key)? {
                        Some(record) if pred.matches(&record) => out.push(record),
                        _ => {}
                    }
                }
                return Ok(out);
            }
        }
        Ok(store
            .scan()?
            .into_iter()
            .filter(|r| tenant.owns(&r.key) && pred.matches(r))
            .collect())
    }

    /// Erase all records on partition `p` matching `pred`, keeping any
    /// index consistent. Index maintenance is coalesced into one
    /// [`IndexBatch`] (one lock acquisition for the whole group), applied
    /// even when a store delete fails mid-loop so the index tracks exactly
    /// the committed deletions.
    fn delete_matching(
        &self,
        p: usize,
        state: &TenantState,
        tenant: &TenantId,
        pred: &RecordPredicate,
    ) -> GdprResult<usize> {
        // With an engine index attached, deletion must go key-by-key so the
        // index learns which records died; pushdown would erase them behind
        // the index's back. Once any named tenant exists, pushdown is off
        // for everyone: the store-wide delete cannot see tenant boundaries.
        if !self.indexed() && !self.multi_tenant() {
            if let Some(result) = self.partitions[p].store.delete_matching(pred) {
                return result;
            }
        }
        let victims = self.read_matching(p, state, tenant, pred)?;
        self.commit_batched(
            p,
            state,
            victims,
            |store, record| store.delete(&record.key),
            |record, batch| batch.remove(record.key),
        )
    }

    /// Apply a metadata update to all records on partition `p` matching
    /// `pred` — **validate-all-then-commit**: `update.apply` runs on every
    /// match before any `store.rewrite`, so an update that is invalid for
    /// *any* matching record (e.g. removing the last declared purpose of
    /// one of them) mutates nothing at all. Without the validation phase a
    /// mid-loop failure would leave earlier matches rewritten and
    /// reindexed while the caller sees `Err`.
    ///
    /// A *store* failure during the commit phase still leaves earlier
    /// rewrites in place (the same partial progress a fan-out exposes); the
    /// index batch is applied either way so it tracks exactly the
    /// committed rewrites.
    fn update_matching(
        &self,
        p: usize,
        state: &TenantState,
        tenant: &TenantId,
        pred: &RecordPredicate,
        update: &crate::query::MetadataUpdate,
    ) -> GdprResult<usize> {
        let ttl_changed = matches!(update, crate::query::MetadataUpdate::SetTtl(_));
        let mut updated = self.read_matching(p, state, tenant, pred)?;
        for record in &mut updated {
            update.apply(&mut record.metadata)?;
        }
        let now_ms = self.now_ms();
        self.commit_batched(
            p,
            state,
            updated,
            |store, record| store.rewrite(record, ttl_changed).map(|()| true),
            |record, batch| batch.upsert(record, now_ms, !ttl_changed),
        )
    }

    /// The shared commit loop of every multi-record write: run the store
    /// op per item, stopping at the first store failure, and record index
    /// maintenance for each *committed* item into one [`IndexBatch`] that
    /// is applied whatever happens — so the index tracks exactly the
    /// committed ops, success or failure. Returns how many ops counted
    /// (the store op's `bool`).
    fn commit_batched<T>(
        &self,
        p: usize,
        state: &TenantState,
        items: impl IntoIterator<Item = T>,
        mut store_op: impl FnMut(&S, &T) -> GdprResult<bool>,
        mut index_op: impl FnMut(T, &mut IndexBatch),
    ) -> GdprResult<usize> {
        let store = &self.partitions[p].store;
        let mut batch = IndexBatch::new();
        let mut n = 0;
        let mut failure = None;
        for item in items {
            match store_op(store, &item) {
                Ok(counted) => {
                    if counted {
                        n += 1;
                    }
                    index_op(item, &mut batch);
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        if let Some(index) = state.indexes.get(p) {
            index.apply(batch);
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(n),
        }
    }

    /// Dry-run a group update on partition `p`: `update.apply` on (a copy
    /// of) every record matching `pred`, committing nothing. The router
    /// runs this on *every* partition before dispatching the update to
    /// *any*, so a validation failure leaves all partitions untouched.
    fn validate_update(
        &self,
        p: usize,
        state: &TenantState,
        tenant: &TenantId,
        pred: &RecordPredicate,
        update: &crate::query::MetadataUpdate,
    ) -> GdprResult<()> {
        for mut record in self.read_matching(p, state, tenant, pred)? {
            update.apply(&mut record.metadata)?;
        }
        Ok(())
    }

    /// Apply a coalesced maintenance batch to partition `p`'s indexes,
    /// routing each op to the owning tenant by storage-key prefix — one
    /// lock acquisition per touched tenant however many records the batch
    /// holds. No-op without indexes.
    fn apply_index_batch(&self, p: usize, batch: IndexBatch) {
        if !self.indexed() || batch.is_empty() {
            return;
        }
        for (tenant_name, sub) in
            batch.split_by(|key| TenantId::split_storage_key(key).0.to_string())
        {
            let Ok(tenant) = TenantId::new(tenant_name) else {
                // A prefix that is not a valid tenant name cannot have
                // been written through the engine; nothing to maintain.
                continue;
            };
            if let Ok(state) = self.tenant_state(&tenant) {
                state.indexes[p].apply(sub);
            }
        }
    }

    /// DELETE-RECORD-BY-TTL on partition `p`: purge everything past due
    /// (deadlines are inclusive: `deadline == now` is already due). With an
    /// index, the deadline-ordered expiry set yields the due keys in
    /// O(expired) — but the index is an accelerator, not the source of
    /// truth, so its due set is **unioned** with the store's own purge
    /// machinery: records the index never learned (written behind the
    /// engine, or indexed before a `clear()`) still carry store-side
    /// deadlines and must not outlive them just because the index forgot.
    /// Index removals are coalesced into one batch.
    fn purge_expired(&self, p: usize, state: &TenantState, tenant: &TenantId) -> GdprResult<usize> {
        let store = &self.partitions[p].store;
        if !self.multi_tenant() {
            // Degenerate single-tenant mode: the exact pre-tenancy path.
            let Some(index) = state.indexes.get(p) else {
                return store.purge_expired();
            };
            let mut n = self.commit_batched(
                p,
                state,
                index.expired_keys(self.now_ms()),
                |store, key| store.delete(key),
                |key, batch| batch.remove(key),
            )?;
            // Store-side stragglers the index never knew about. Keys
            // already deleted above are gone from the store, so nothing
            // double-counts; stores whose purge fires the expiry listener
            // scrub any matching index entries themselves.
            n += store.purge_expired()?;
            Ok(n)
        } else {
            // Multi-tenant: a tenant's purge must only erase (and only
            // count) its own records, so the store-wide purge machinery is
            // off limits. Union the tenant's index due set with an
            // ownership-filtered sweep of store-side deadlines — the index
            // stays an accelerator, never the sole source of truth. The
            // sweep uses `expired_keys` (a side-effect-free key
            // enumeration), NOT `scan`: on the key-value store a scan's
            // GETs lazily reap every tenant's past-due records, which both
            // crosses tenant boundaries and destroys the very records this
            // tenant is entitled to count in its own purge.
            let mut victims: BTreeSet<String> = BTreeSet::new();
            if let Some(index) = state.indexes.get(p) {
                victims.extend(index.expired_keys(self.now_ms()));
            }
            for key in store.expired_keys()? {
                if tenant.owns(&key) {
                    victims.insert(key);
                }
            }
            self.commit_batched(
                p,
                state,
                victims,
                |store, key| store.delete(key),
                |key, batch| batch.remove(key),
            )
        }
    }

    /// The single `GdprQuery` dispatch in the workspace, against partition
    /// `p` under one resolved tenant state. Logical ↔ storage key
    /// translation happens here — queries arrive with logical keys, the
    /// store is addressed with tenant-namespaced storage keys, and every
    /// response key is translated back before it leaves.
    fn dispatch_in(
        &self,
        p: usize,
        state: &TenantState,
        session: &Session,
        query: &GdprQuery,
    ) -> GdprResult<GdprResponse> {
        use GdprQuery::*;
        let store = &self.partitions[p].store;
        let index = state.indexes.get(p);
        let tenant = &session.tenant;
        let decision = authorize(session, query)?;
        let guard = |record: &PersonalRecord| -> GdprResult<()> {
            if decision.requires_record_check && !record_visible(session, record) {
                Err(GdprError::AccessDenied {
                    role: session.role.name().to_string(),
                    query: query.name().to_string(),
                    reason: "record not visible to this session".to_string(),
                })
            } else {
                Ok(())
            }
        };
        let data_of = |records: Vec<PersonalRecord>| {
            GdprResponse::Data(
                records
                    .into_iter()
                    .map(|r| (Self::logical_key(tenant, r.key), r.data))
                    .collect(),
            )
        };
        let metadata_of = |records: Vec<PersonalRecord>| {
            GdprResponse::Metadata(
                records
                    .into_iter()
                    .map(|r| (Self::logical_key(tenant, r.key), r.metadata))
                    .collect(),
            )
        };

        match query {
            CreateRecord(record) => {
                // Collision detection is the store's contract (`put` fails
                // with AlreadyExists): an engine-level pre-fetch would add a
                // redundant full point lookup to every create on the
                // bulk-load hot path.
                let stored = if tenant.is_default() {
                    TenantId::check_logical_key(&record.key).map_err(GdprError::InvalidRecord)?;
                    store.put(record)?;
                    None
                } else {
                    let mut namespaced = record.clone();
                    namespaced.key = Self::storage_key(tenant, &record.key)?;
                    store.put(&namespaced).map_err(|e| match e {
                        // Surface the logical key, not the storage key.
                        GdprError::AlreadyExists(_) => GdprError::AlreadyExists(record.key.clone()),
                        other => other,
                    })?;
                    Some(namespaced)
                };
                if let Some(index) = index {
                    index.upsert(stored.as_ref().unwrap_or(record), self.now_ms(), false);
                }
                Ok(GdprResponse::Created)
            }

            DeleteByKey(key) => {
                let record = self.fetch_required(p, tenant, key)?;
                guard(&record)?;
                store.delete(&record.key)?;
                if let Some(index) = index {
                    index.remove(&record.key);
                }
                Ok(GdprResponse::Deleted(1))
            }
            DeleteByPurpose(purpose) => Ok(GdprResponse::Deleted(self.delete_matching(
                p,
                state,
                tenant,
                &RecordPredicate::DeclaredPurpose(purpose.clone()),
            )?)),
            DeleteExpired => Ok(GdprResponse::Deleted(self.purge_expired(p, state, tenant)?)),
            DeleteByUser(user) => Ok(GdprResponse::Deleted(self.delete_matching(
                p,
                state,
                tenant,
                &RecordPredicate::User(user.clone()),
            )?)),

            ReadDataByKey(key) => {
                let record = self.fetch_required(p, tenant, key)?;
                guard(&record)?;
                Ok(GdprResponse::Data(vec![(
                    Self::logical_key(tenant, record.key),
                    record.data,
                )]))
            }
            // Canonical READ-DATA-BY-PUR semantics for every backend:
            // declared purpose AND no objection to it (G5.1b + G21).
            ReadDataByPurpose(purpose) => Ok(data_of(self.read_matching(
                p,
                state,
                tenant,
                &RecordPredicate::AllowsPurpose(purpose.clone()),
            )?)),
            ReadDataByUser(user) => Ok(data_of(self.read_matching(
                p,
                state,
                tenant,
                &RecordPredicate::User(user.clone()),
            )?)),
            ReadDataNotObjecting(usage) => Ok(data_of(self.read_matching(
                p,
                state,
                tenant,
                &RecordPredicate::NotObjecting(usage.clone()),
            )?)),
            ReadDataDecisionEligible => Ok(data_of(self.read_matching(
                p,
                state,
                tenant,
                &RecordPredicate::DecisionEligible,
            )?)),

            ReadMetadataByKey(key) => {
                let record = self.fetch_required(p, tenant, key)?;
                guard(&record)?;
                Ok(GdprResponse::Metadata(vec![(
                    Self::logical_key(tenant, record.key),
                    record.metadata,
                )]))
            }
            ReadMetadataByUser(user) => Ok(metadata_of(self.read_matching(
                p,
                state,
                tenant,
                &RecordPredicate::User(user.clone()),
            )?)),
            ReadMetadataBySharedWith(party) => Ok(metadata_of(self.read_matching(
                p,
                state,
                tenant,
                &RecordPredicate::SharedWith(party.clone()),
            )?)),

            UpdateDataByKey { key, data } => {
                let mut record = self.fetch_required(p, tenant, key)?;
                guard(&record)?;
                record.data = data.clone();
                store.rewrite(&record, false)?;
                Ok(GdprResponse::Updated(1))
            }
            UpdateMetadataByKey { key, update } => {
                let mut record = self.fetch_required(p, tenant, key)?;
                guard(&record)?;
                let ttl_changed = matches!(update, crate::query::MetadataUpdate::SetTtl(_));
                update.apply(&mut record.metadata)?;
                store.rewrite(&record, ttl_changed)?;
                if let Some(index) = index {
                    index.upsert(&record, self.now_ms(), !ttl_changed);
                }
                Ok(GdprResponse::Updated(1))
            }
            UpdateMetadataByPurpose { purpose, update } => {
                Ok(GdprResponse::Updated(self.update_matching(
                    p,
                    state,
                    tenant,
                    &RecordPredicate::DeclaredPurpose(purpose.clone()),
                    update,
                )?))
            }
            UpdateMetadataByUser { user, update } => {
                Ok(GdprResponse::Updated(self.update_matching(
                    p,
                    state,
                    tenant,
                    &RecordPredicate::User(user.clone()),
                    update,
                )?))
            }

            GetSystemLogs { from_ms, to_ms } => Ok(GdprResponse::Logs(
                state.audit.lines_between(*from_ms, *to_ms),
            )),
            GetSystemFeatures => Ok(GdprResponse::Features(store.features())),
            VerifyDeletion(key) => {
                let storage_key = Self::storage_key(tenant, key)?;
                Ok(GdprResponse::DeletionVerified(
                    store.fetch(&storage_key)?.is_none(),
                ))
            }
        }
    }
}

/// The audit entry a query outcome owes — shared by the sequential and
/// batched execute paths, so both render byte-identical trails.
fn audit_draft(
    session: &Session,
    query: &GdprQuery,
    result: &GdprResult<GdprResponse>,
) -> AuditDraft {
    let err_text = result.as_ref().err().map(ToString::to_string);
    let outcome = match &result {
        Ok(resp) => Ok(resp.cardinality()),
        Err(_) => Err(err_text.as_deref().unwrap_or("error")),
    };
    AuditDraft::new(session, query.name(), query.detail(), outcome)
}

/// Pending audit drafts of a batch, grouped per tenant (ptr-identity on
/// the state; batches hold a handful of tenants at most, so a linear probe
/// beats a map). Each tenant's group commits with one timestamp.
type PendingDrafts = Vec<(Arc<TenantState>, Vec<AuditDraft>)>;

fn push_draft(drafts: &mut PendingDrafts, state: &Arc<TenantState>, draft: AuditDraft) {
    match drafts.iter_mut().find(|(s, _)| Arc::ptr_eq(s, state)) {
        Some((_, group)) => group.push(draft),
        None => drafts.push((Arc::clone(state), vec![draft])),
    }
}

/// Every engine is a connector: backends only implement [`RecordStore`],
/// and the engine supplies the whole [`GdprConnector`] surface. Callers
/// cannot tell one partition from many.
impl<S: RecordStore + 'static> GdprConnector for ComplianceEngine<S> {
    /// Execute one GDPR query under a session, recording exactly one event
    /// in the session tenant's audit trail whatever the outcome or fan-out
    /// (G30: every interaction is logged).
    fn execute(&self, session: &Session, query: &GdprQuery) -> GdprResult<GdprResponse> {
        let state = self.core.tenant_state(&session.tenant)?;
        let result = self.route_timed(&state, session, query);
        state
            .audit
            .record_batch(vec![audit_draft(session, query, &result)]);
        result
    }

    /// Execute a batch of queries with per-op results and audit entries in
    /// op order — semantically identical to calling `execute` per op, but
    /// audit entries are committed per batch per tenant (one clock read,
    /// one lock acquisition), and consecutive *point* ops are segmented
    /// into per-partition runs that execute in parallel on the fan-out
    /// pool (each partition's run stays in op order, so same-key ops never
    /// reorder). Predicate and system ops act as barriers executed in
    /// place. A `GetSystemLogs` inside the batch flushes that tenant's
    /// pending entries first, so log reads observe their batch
    /// predecessors exactly as sequential execution would — other tenants'
    /// pending entries are invisible to it either way.
    fn execute_batch(&self, ops: Vec<(Session, GdprQuery)>) -> Vec<GdprResult<GdprResponse>> {
        let len = ops.len();
        let ops = Arc::new(ops);
        let mut results: Vec<Option<GdprResult<GdprResponse>>> = (0..len).map(|_| None).collect();
        let mut drafts: PendingDrafts = Vec::new();
        let mut i = 0;
        while i < len {
            let start = i;
            while i < len && point_key(&ops[i].1).is_some() {
                i += 1;
            }
            if i > start {
                self.run_point_segment(&ops, start, i, &mut results);
                for idx in start..i {
                    let (session, query) = &ops[idx];
                    let result = results[idx].as_ref().expect("segment filled every slot");
                    // Lookup only: an op whose tenant state could not be
                    // created never executed, and owes no audit entry.
                    if let Some(state) = self.core.tenants.get(session.tenant.name()) {
                        push_draft(&mut drafts, &state, audit_draft(session, query, result));
                    }
                }
                continue;
            }
            let (session, query) = &ops[i];
            results[i] = Some(self.core.tenant_state(&session.tenant).and_then(|state| {
                if matches!(query, GdprQuery::GetSystemLogs { .. }) {
                    if let Some((_, group)) =
                        drafts.iter_mut().find(|(s, _)| Arc::ptr_eq(s, &state))
                    {
                        state.audit.record_batch(std::mem::take(group));
                    }
                }
                let result = self.route_timed(&state, session, query);
                push_draft(&mut drafts, &state, audit_draft(session, query, &result));
                result
            }));
            i += 1;
        }
        for (state, group) in drafts {
            state.audit.record_batch(group);
        }
        results
            .into_iter()
            .map(|r| r.expect("every op answered"))
            .collect()
    }

    fn features(&self) -> FeatureReport {
        self.core.partitions[0].store.features()
    }

    fn space_report(&self) -> SpaceReport {
        let mut total = SpaceReport::default();
        for partition in &self.core.partitions {
            let report = partition.store.space_report();
            total.personal_data_bytes += report.personal_data_bytes;
            total.total_bytes += report.total_bytes;
        }
        total
    }

    fn record_count(&self) -> usize {
        self.core
            .partitions
            .iter()
            .map(|p| p.store.record_count())
            .sum()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn close(&self) -> GdprResult<()> {
        ComplianceEngine::close(self).map(|_| ())
    }

    fn op_telemetry(&self) -> Option<OpTelemetrySnapshot> {
        // Deployment-wide view: the default tenant's counters merged with
        // every named tenant's, preserving the pre-tenancy meaning.
        let mut merged = OpTelemetrySnapshot::default();
        for (_, state) in self.core.tenants.states() {
            merged.merge(&state.telemetry.snapshot());
        }
        Some(merged)
    }

    fn op_telemetry_for(&self, tenant: &TenantId) -> Option<OpTelemetrySnapshot> {
        // Lookup only — a metrics probe must not create tenant state.
        self.core
            .tenants
            .get(tenant.name())
            .map(|state| state.telemetry.snapshot())
    }

    /// Every tenant's telemetry snapshot, labeled (`"default"` first).
    fn tenant_telemetry(&self) -> Vec<(String, OpTelemetrySnapshot)> {
        self.core
            .tenants
            .states()
            .into_iter()
            .map(|(name, state)| {
                let label = if name.is_empty() {
                    "default".to_string()
                } else {
                    name
                };
                (label, state.telemetry.snapshot())
            })
            .collect()
    }

    /// Pre-provision a tenant (create its audit/index/telemetry state now
    /// instead of on first query) — `gdpr-serve --tenants N` uses this so
    /// per-tenant metrics series exist before traffic arrives.
    fn provision_tenant(&self, tenant: &TenantId) -> GdprResult<()> {
        self.core.tenant_state(tenant).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Metadata;
    use parking_lot::Mutex;
    use std::time::Duration;

    /// A trivial in-memory RecordStore with no pushdown — exercises the
    /// engine's scan and index paths in isolation from the real backends —
    /// plus a native deadline table so `put_with_deadline` is exercised.
    struct MemStore {
        rows: Mutex<BTreeMap<String, PersonalRecord>>,
        deadlines: Mutex<BTreeMap<String, u64>>,
        clock: SharedClock,
    }

    impl MemStore {
        fn new() -> MemStore {
            MemStore::with_clock(clock::sim())
        }

        fn with_clock(clock: SharedClock) -> MemStore {
            MemStore {
                rows: Mutex::new(BTreeMap::new()),
                deadlines: Mutex::new(BTreeMap::new()),
                clock,
            }
        }
    }

    impl RecordStore for MemStore {
        fn clock(&self) -> SharedClock {
            self.clock.clone()
        }
        fn fetch(&self, key: &str) -> GdprResult<Option<PersonalRecord>> {
            Ok(self.rows.lock().get(key).cloned())
        }
        fn put(&self, record: &PersonalRecord) -> GdprResult<()> {
            let mut rows = self.rows.lock();
            if rows.contains_key(&record.key) {
                return Err(GdprError::AlreadyExists(record.key.clone()));
            }
            if let Some(ttl) = record.metadata.ttl {
                self.deadlines.lock().insert(
                    record.key.clone(),
                    self.clock.now().as_millis() + ttl.as_millis() as u64,
                );
            }
            rows.insert(record.key.clone(), record.clone());
            Ok(())
        }
        fn put_with_deadline(
            &self,
            record: &PersonalRecord,
            deadline_ms: Option<u64>,
        ) -> GdprResult<()> {
            let mut rows = self.rows.lock();
            if rows.contains_key(&record.key) {
                return Err(GdprError::AlreadyExists(record.key.clone()));
            }
            if let Some(at) = deadline_ms {
                self.deadlines.lock().insert(record.key.clone(), at);
            }
            rows.insert(record.key.clone(), record.clone());
            Ok(())
        }
        fn rewrite(&self, record: &PersonalRecord, _ttl_changed: bool) -> GdprResult<()> {
            self.rows.lock().insert(record.key.clone(), record.clone());
            Ok(())
        }
        fn delete(&self, key: &str) -> GdprResult<bool> {
            self.deadlines.lock().remove(key);
            Ok(self.rows.lock().remove(key).is_some())
        }
        fn scan(&self) -> GdprResult<Vec<PersonalRecord>> {
            Ok(self.rows.lock().values().cloned().collect())
        }
        fn purge_expired(&self) -> GdprResult<usize> {
            let now = self.clock.now().as_millis();
            let due: Vec<String> = self
                .deadlines
                .lock()
                .iter()
                .filter(|(_, at)| **at <= now)
                .map(|(k, _)| k.clone())
                .collect();
            for key in &due {
                self.delete(key)?;
            }
            Ok(due.len())
        }
        fn deadline_ms(&self, key: &str) -> Option<u64> {
            self.deadlines.lock().get(key).copied()
        }
        fn space_report(&self) -> SpaceReport {
            let rows = self.rows.lock();
            SpaceReport {
                personal_data_bytes: rows.values().map(|r| r.data.len()).sum(),
                total_bytes: rows.values().map(|r| r.data.len() + r.key.len() + 64).sum(),
            }
        }
        fn record_count(&self) -> usize {
            self.rows.lock().len()
        }
        fn features(&self) -> FeatureReport {
            FeatureReport::default()
        }
        fn name(&self) -> &str {
            "mem"
        }
    }

    fn record(key: &str, user: &str, purposes: &[&str]) -> PersonalRecord {
        PersonalRecord::new(
            key,
            format!("data-{key}"),
            Metadata::new(
                user,
                purposes.iter().map(|s| s.to_string()).collect(),
                Duration::from_secs(3600),
            ),
        )
    }

    fn engines() -> Vec<ComplianceEngine<MemStore>> {
        vec![
            ComplianceEngine::new(MemStore::new()),
            ComplianceEngine::with_metadata_index(MemStore::new()).unwrap(),
        ]
    }

    #[test]
    fn scan_and_index_paths_agree() {
        for engine in engines() {
            let controller = Session::controller();
            for (k, u, p) in [
                ("a", "neo", &["ads"][..]),
                ("b", "neo", &["2fa"][..]),
                ("c", "trinity", &["ads"][..]),
            ] {
                engine
                    .execute(&controller, &GdprQuery::CreateRecord(record(k, u, p)))
                    .unwrap();
            }
            let resp = engine
                .execute(
                    &Session::customer("neo"),
                    &GdprQuery::ReadDataByUser("neo".into()),
                )
                .unwrap();
            let mut keys: Vec<_> = resp
                .as_data()
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            keys.sort();
            assert_eq!(
                keys,
                vec!["a", "b"],
                "indexed={}",
                engine.metadata_index().is_some()
            );

            let resp = engine
                .execute(
                    &Session::processor("ads"),
                    &GdprQuery::ReadDataByPurpose("ads".into()),
                )
                .unwrap();
            assert_eq!(resp.cardinality(), 2);
        }
    }

    #[test]
    fn index_tracks_create_update_delete() {
        let engine = ComplianceEngine::with_metadata_index(MemStore::new()).unwrap();
        let index = Arc::clone(engine.metadata_index().unwrap());
        let controller = Session::controller();
        engine
            .execute(
                &controller,
                &GdprQuery::CreateRecord(record("k1", "neo", &["ads"])),
            )
            .unwrap();
        assert_eq!(index.keys_by_user("neo"), vec!["k1"]);
        assert_eq!(index.keys_by_purpose("ads"), vec!["k1"]);

        // Objection lands in the objection index.
        engine
            .execute(
                &Session::customer("neo"),
                &GdprQuery::UpdateMetadataByKey {
                    key: "k1".into(),
                    update: crate::query::MetadataUpdate::Add(
                        crate::query::MetadataField::Objections,
                        "ads".into(),
                    ),
                },
            )
            .unwrap();
        assert_eq!(index.keys_with_objection("ads"), vec!["k1"]);
        // AllowsPurpose now excludes it.
        assert_eq!(
            index.keys_for(&RecordPredicate::AllowsPurpose("ads".into())),
            Some(vec![])
        );

        engine
            .execute(
                &Session::customer("neo"),
                &GdprQuery::DeleteByKey("k1".into()),
            )
            .unwrap();
        assert!(index.fully_absent("k1"));
    }

    #[test]
    fn backfill_indexes_preexisting_records() {
        let store = MemStore::new();
        store.put(&record("old", "neo", &["ads"])).unwrap();
        let engine = ComplianceEngine::with_metadata_index(store).unwrap();
        assert_eq!(
            engine.metadata_index().unwrap().keys_by_user("neo"),
            vec!["old"]
        );
        let resp = engine
            .execute(
                &Session::customer("neo"),
                &GdprQuery::ReadDataByUser("neo".into()),
            )
            .unwrap();
        assert_eq!(resp.cardinality(), 1);
    }

    #[test]
    fn stale_index_entries_are_filtered_not_returned() {
        let engine = ComplianceEngine::with_metadata_index(MemStore::new()).unwrap();
        let controller = Session::controller();
        engine
            .execute(
                &controller,
                &GdprQuery::CreateRecord(record("k1", "neo", &["ads"])),
            )
            .unwrap();
        // Sabotage: remove the row behind the index's back.
        engine.store(0).rows.lock().remove("k1");
        let resp = engine
            .execute(
                &Session::customer("neo"),
                &GdprQuery::ReadDataByUser("neo".into()),
            )
            .unwrap();
        assert_eq!(resp.cardinality(), 0, "stale candidate must not surface");
    }

    /// Regression (write-path consistency): a group metadata update whose
    /// `update.apply` is invalid for a *later* match must mutate nothing.
    /// Before validate-all-then-commit, the loop rewrote and reindexed
    /// earlier matches, then returned `Err` — the caller saw failure while
    /// half the group was already updated.
    #[test]
    fn group_update_validates_all_matches_before_committing() {
        for engine in engines() {
            let controller = Session::controller();
            // Scan order is key order: "a" (valid for the update) commits
            // first under the old code, then "b" (whose only purpose is
            // "ads") fails validation.
            engine
                .execute(
                    &controller,
                    &GdprQuery::CreateRecord(record("a", "neo", &["ads", "2fa"])),
                )
                .unwrap();
            engine
                .execute(
                    &controller,
                    &GdprQuery::CreateRecord(record("b", "neo", &["ads"])),
                )
                .unwrap();
            let result = engine.execute(
                &controller,
                &GdprQuery::UpdateMetadataByPurpose {
                    purpose: "ads".into(),
                    update: crate::query::MetadataUpdate::Remove(
                        crate::query::MetadataField::Purposes,
                        "ads".into(),
                    ),
                },
            );
            assert!(
                matches!(result, Err(GdprError::InvalidRecord(_))),
                "removing b's last purpose must fail the whole group"
            );
            // No partial mutation: both records keep their purposes.
            for (key, purposes) in [("a", vec!["ads", "2fa"]), ("b", vec!["ads"])] {
                let stored = engine.store(0).fetch(key).unwrap().unwrap();
                assert_eq!(
                    stored.metadata.purposes,
                    purposes,
                    "indexed={}: {key} must be untouched after the failed group update",
                    engine.metadata_index().is_some()
                );
            }
            // And any index still advertises both under the purpose.
            if let Some(index) = engine.metadata_index() {
                assert_eq!(index.keys_by_purpose("ads"), vec!["a", "b"]);
            }
        }
    }

    /// The negative predicates resolve through the index — `keys_for` is
    /// `Some` for every `RecordPredicate` variant — and agree with the
    /// scan path.
    #[test]
    fn negative_predicates_resolve_through_the_index() {
        let controller = Session::controller();
        let engines = engines();
        for engine in &engines {
            let mut objecting = record("k-obj", "neo", &["ads"]);
            objecting.metadata.objections.push("ads".into());
            let mut opted_out = record("k-dec", "neo", &["2fa"]);
            opted_out
                .metadata
                .decisions
                .push(crate::record::Metadata::DEC_OPT_OUT.to_string());
            for r in [objecting, opted_out, record("k-plain", "trinity", &["ads"])] {
                engine
                    .execute(&controller, &GdprQuery::CreateRecord(r))
                    .unwrap();
            }
        }
        let cases = [
            (
                GdprQuery::ReadDataNotObjecting("ads".into()),
                vec!["k-dec", "k-plain"],
            ),
            (
                GdprQuery::ReadDataDecisionEligible,
                vec!["k-obj", "k-plain"],
            ),
        ];
        for engine in &engines {
            for (query, expected) in &cases {
                let resp = engine.execute(&Session::processor("x"), query).unwrap();
                let mut keys: Vec<_> = resp
                    .as_data()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.clone())
                    .collect();
                keys.sort();
                assert_eq!(
                    &keys,
                    expected,
                    "indexed={}: {query:?}",
                    engine.metadata_index().is_some()
                );
            }
        }
        let index = engines[1].metadata_index().unwrap();
        for pred in [
            RecordPredicate::User("neo".into()),
            RecordPredicate::DeclaredPurpose("ads".into()),
            RecordPredicate::AllowsPurpose("ads".into()),
            RecordPredicate::NotObjecting("ads".into()),
            RecordPredicate::DecisionEligible,
            RecordPredicate::SharedWith("x".into()),
        ] {
            assert!(
                index.keys_for(&pred).is_some(),
                "{pred:?} must take the index path"
            );
        }
    }

    #[test]
    fn audit_records_every_execution() {
        let engine = ComplianceEngine::new(MemStore::new());
        let controller = Session::controller();
        engine
            .execute(
                &controller,
                &GdprQuery::CreateRecord(record("k1", "neo", &["ads"])),
            )
            .unwrap();
        let _ = engine.execute(&controller, &GdprQuery::ReadDataByKey("k1".into()));
        assert_eq!(engine.audit().len(), 2, "denied queries are audited too");
        let lines = engine.audit().lines_between(0, u64::MAX);
        assert!(lines.iter().any(|l| l.operation == "create-record"));
    }

    fn for_tenant(base: Session, tenant: &str) -> Session {
        base.with_tenant(TenantId::new(tenant).unwrap())
    }

    #[test]
    fn tenants_are_isolated_end_to_end() {
        for engine in engines() {
            let indexed = engine.metadata_index().is_some();
            let acme_ctl = for_tenant(Session::controller(), "acme");
            let acme_proc = for_tenant(Session::processor("ads"), "acme");
            let zeta_ctl = for_tenant(Session::controller(), "zeta");
            let zeta_proc = for_tenant(Session::processor("ads"), "zeta");
            // Same logical key in both tenants: no AlreadyExists collision.
            for s in [&acme_ctl, &zeta_ctl] {
                engine
                    .execute(s, &GdprQuery::CreateRecord(record("k", "neo", &["ads"])))
                    .unwrap();
            }
            // Point reads come back under the logical key, per tenant.
            for s in [&acme_proc, &zeta_proc] {
                let resp = engine
                    .execute(s, &GdprQuery::ReadDataByKey("k".into()))
                    .unwrap();
                assert_eq!(resp.as_data().unwrap()[0].0, "k", "indexed={indexed}");
            }
            // Predicate reads never cross the boundary.
            let resp = engine
                .execute(
                    &for_tenant(Session::customer("neo"), "acme"),
                    &GdprQuery::ReadDataByUser("neo".into()),
                )
                .unwrap();
            assert_eq!(resp.as_data().unwrap().len(), 1, "indexed={indexed}");
            // Erasure in one tenant leaves the other's record intact.
            engine
                .execute(&acme_ctl, &GdprQuery::DeleteByKey("k".into()))
                .unwrap();
            assert!(matches!(
                engine.execute(&acme_proc, &GdprQuery::ReadDataByKey("k".into())),
                Err(GdprError::NotFound(_))
            ));
            let resp = engine
                .execute(&zeta_proc, &GdprQuery::ReadDataByKey("k".into()))
                .unwrap();
            assert_eq!(resp.as_data().unwrap().len(), 1, "indexed={indexed}");
            // Audit trails are per tenant: acme sees only its own queries.
            let resp = engine
                .execute(
                    &for_tenant(Session::regulator(), "acme"),
                    &GdprQuery::GetSystemLogs {
                        from_ms: 0,
                        to_ms: u64::MAX,
                    },
                )
                .unwrap();
            let GdprResponse::Logs(lines) = resp else {
                panic!("expected logs");
            };
            assert_eq!(lines.len(), 5, "indexed={indexed}");
            // Telemetry is labeled and scoped per tenant.
            let snap = engine
                .op_telemetry_for(&TenantId::new("zeta").unwrap())
                .unwrap();
            assert_eq!(
                snap.get("create-record").map(|o| o.total()),
                Some(1),
                "indexed={indexed}"
            );
        }
    }

    #[test]
    fn default_tenant_rejects_separator_keys_and_stays_unprefixed() {
        let engine = ComplianceEngine::new(MemStore::new());
        let controller = Session::controller();
        let mut forged = record("k", "neo", &["ads"]);
        forged.key = format!("acme{}k", crate::tenant::TENANT_SEPARATOR);
        assert!(matches!(
            engine.execute(&controller, &GdprQuery::CreateRecord(forged)),
            Err(GdprError::InvalidRecord(_))
        ));
        engine
            .execute(
                &controller,
                &GdprQuery::CreateRecord(record("plain", "neo", &["ads"])),
            )
            .unwrap();
        // Default-tenant keys hit the store verbatim (degenerate mode).
        assert!(engine.store(0).fetch("plain").unwrap().is_some());
    }

    #[test]
    fn named_tenant_state_backfills_lazily_after_restart() {
        // Records written under a tenant survive into a fresh engine over
        // the same store: the partition is rebuilt on first use.
        let engine = ComplianceEngine::with_metadata_index(MemStore::new()).unwrap();
        engine
            .execute(
                &for_tenant(Session::controller(), "acme"),
                &GdprQuery::CreateRecord(record("k1", "neo", &["ads"])),
            )
            .unwrap();
        let survivor = MemStore::with_clock(engine.store(0).clock.clone());
        *survivor.rows.lock() = engine.store(0).rows.lock().clone();
        drop(engine);
        let engine = ComplianceEngine::with_metadata_index(survivor).unwrap();
        let resp = engine
            .execute(
                &for_tenant(Session::customer("neo"), "acme"),
                &GdprQuery::ReadDataByUser("neo".into()),
            )
            .unwrap();
        assert_eq!(resp.as_data().unwrap()[0].0, "k1");
    }

    fn sharded(n: usize) -> ComplianceEngine<MemStore> {
        let clock = clock::sim();
        ComplianceEngine::sharded_with_metadata_index(
            (0..n)
                .map(|_| MemStore::with_clock(clock.clone()))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn point_ops_route_and_predicates_fan_out() {
        for n in [1, 2, 8] {
            let engine = sharded(n);
            let controller = Session::controller();
            for (k, u, p) in [
                ("a", "neo", &["ads"][..]),
                ("b", "neo", &["2fa"][..]),
                ("c", "trinity", &["ads"][..]),
            ] {
                engine
                    .execute(&controller, &GdprQuery::CreateRecord(record(k, u, p)))
                    .unwrap();
            }
            // Point read lands on the owning shard only.
            let resp = engine
                .execute(
                    &Session::processor("ads"),
                    &GdprQuery::ReadDataByKey("a".into()),
                )
                .unwrap();
            assert_eq!(resp.cardinality(), 1);
            // Fan-out merges across shards, sorted by key.
            let resp = engine
                .execute(
                    &Session::customer("neo"),
                    &GdprQuery::ReadDataByUser("neo".into()),
                )
                .unwrap();
            let keys: Vec<_> = resp
                .as_data()
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            assert_eq!(keys, vec!["a", "b"], "n={n}");
            // Group delete sums per-shard counts.
            let resp = engine
                .execute(&controller, &GdprQuery::DeleteByPurpose("ads".into()))
                .unwrap();
            assert_eq!(resp, GdprResponse::Deleted(2), "n={n}");
            assert_eq!(engine.record_count(), 1);
        }
    }

    #[test]
    fn unified_audit_records_one_event_per_query() {
        let engine = sharded(4);
        let controller = Session::controller();
        engine
            .execute(
                &controller,
                &GdprQuery::CreateRecord(record("k1", "neo", &["ads"])),
            )
            .unwrap();
        // A fan-out query is still one audit event.
        engine
            .execute(
                &Session::customer("neo"),
                &GdprQuery::ReadDataByUser("neo".into()),
            )
            .unwrap();
        // Denied queries audit too.
        let _ = engine.execute(
            &Session::customer("neo"),
            &GdprQuery::ReadDataByUser("trinity".into()),
        );
        assert_eq!(engine.audit().len(), 3);
        let resp = engine
            .execute(
                &Session::regulator(),
                &GdprQuery::GetSystemLogs {
                    from_ms: 0,
                    to_ms: u64::MAX,
                },
            )
            .unwrap();
        match resp {
            GdprResponse::Logs(lines) => {
                assert_eq!(lines.len(), 3);
                assert!(lines.iter().any(|l| l.operation == "read-data-by-usr"));
                assert!(lines.iter().any(|l| l.detail.contains("access denied")));
            }
            other => panic!("expected logs, got {other:?}"),
        }
    }

    #[test]
    fn verify_placement_detects_shard_count_change() {
        let clock = clock::sim();
        let stores: Vec<MemStore> = (0..2)
            .map(|_| MemStore::with_clock(clock.clone()))
            .collect();
        // Lay out records for a 2-shard topology.
        for i in 0..16 {
            let r = record(&format!("k{i}"), "neo", &["ads"]);
            stores[shard_of(&r.key, 2)].put(&r).unwrap();
        }
        let two = ComplianceEngine::sharded_with_metadata_index(stores).unwrap();
        two.verify_placement().unwrap();

        // "Restart" the same stores as a 3-shard deployment.
        let rows: Vec<BTreeMap<String, PersonalRecord>> =
            (0..2).map(|i| two.store(i).rows.lock().clone()).collect();
        let stores: Vec<MemStore> = (0..3)
            .map(|_| MemStore::with_clock(clock.clone()))
            .collect();
        for (i, shard_rows) in rows.into_iter().enumerate() {
            for r in shard_rows.into_values() {
                stores[i].put(&r).unwrap();
            }
        }
        let three = ComplianceEngine::sharded_with_metadata_index(stores).unwrap();
        assert!(matches!(
            three.verify_placement(),
            Err(GdprError::ShardMisroute { shard_count: 3, .. })
        ));

        // Rebalance migrates every record home; queries see all of them.
        let moved = three.rebalance().unwrap();
        assert!(moved > 0);
        three.verify_placement().unwrap();
        assert_eq!(three.record_count(), 16);
        let resp = three
            .execute(
                &Session::customer("neo"),
                &GdprQuery::ReadDataByUser("neo".into()),
            )
            .unwrap();
        assert_eq!(resp.cardinality(), 16);
        // Per-shard indexes track the migration on both sides.
        for i in 0..3 {
            let index = three.metadata_index_at(i).unwrap();
            for key in index.keys_by_user("neo") {
                assert_eq!(shard_of(&key, 3), i, "index advertises a foreign key");
            }
        }
    }

    #[test]
    fn rebalance_preserves_remaining_deadlines() {
        let clock = clock::sim();
        let store = MemStore::with_clock(clock.clone());
        let mut r = record("k-ttl", "neo", &["ads"]);
        r.metadata.ttl = Some(Duration::from_secs(10));
        store.put(&r).unwrap();
        clock.advance(Duration::from_secs(9));
        // Reopen that one store as part of a wider topology where the key
        // belongs elsewhere.
        let owner = shard_of("k-ttl", 3);
        let mut stores: Vec<MemStore> = (0..3)
            .map(|_| MemStore::with_clock(clock.clone()))
            .collect();
        let misplaced = (owner + 1) % 3;
        stores[misplaced] = store;
        let engine = ComplianceEngine::sharded_with_metadata_index(stores).unwrap();
        assert_eq!(engine.rebalance().unwrap(), 1);
        assert_eq!(
            engine.store(owner).deadline_ms("k-ttl"),
            Some(10_000),
            "migration must keep the remaining deadline, not re-arm the full TTL"
        );
        assert_eq!(
            engine
                .metadata_index_at(owner)
                .unwrap()
                .deadline_of("k-ttl"),
            Some(10_000)
        );
        clock.advance(Duration::from_secs(2));
        assert_eq!(
            engine
                .execute(&Session::controller(), &GdprQuery::DeleteExpired)
                .unwrap(),
            GdprResponse::Deleted(1)
        );
    }

    #[test]
    fn index_and_scan_sharding_agree() {
        let clock = clock::sim();
        let scan = ComplianceEngine::sharded(
            (0..4)
                .map(|_| MemStore::with_clock(clock.clone()))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let indexed = sharded(4);
        let controller = Session::controller();
        for i in 0..20 {
            let mut r = record(&format!("k{i}"), ["neo", "trinity"][i % 2], &["ads"]);
            if i % 3 == 0 {
                r.metadata.objections.push("ads".into());
            }
            for engine in [&scan, &indexed] {
                engine
                    .execute(&controller, &GdprQuery::CreateRecord(r.clone()))
                    .unwrap();
            }
        }
        for (session, query) in [
            (
                Session::customer("neo"),
                GdprQuery::ReadDataByUser("neo".into()),
            ),
            (
                Session::processor("ads"),
                GdprQuery::ReadDataByPurpose("ads".into()),
            ),
            (
                Session::processor("x"),
                GdprQuery::ReadDataNotObjecting("ads".into()),
            ),
        ] {
            assert_eq!(
                scan.execute(&session, &query).unwrap(),
                indexed.execute(&session, &query).unwrap(),
                "divergence on {query:?}"
            );
        }
        // The index actually answers on the indexed variant.
        assert!(indexed
            .metadata_index_at(0)
            .unwrap()
            .keys_for(&RecordPredicate::User("neo".into()))
            .is_some());
    }

    #[test]
    fn parallel_fanout_runs_on_multi_shard_engines_only() {
        assert!(
            sharded(1).fanout.is_none(),
            "one shard has nothing to overlap"
        );
        let engine = sharded(8);
        assert!(engine.fanout.is_some());
        // Many concurrent fan-outs over the shared pool: every reader must
        // see the identical deterministic merge.
        let controller = Session::controller();
        for i in 0..32 {
            engine
                .execute(
                    &controller,
                    &GdprQuery::CreateRecord(record(&format!("k{i}"), "neo", &["ads"])),
                )
                .unwrap();
        }
        let expected = engine
            .execute(
                &Session::customer("neo"),
                &GdprQuery::ReadDataByUser("neo".into()),
            )
            .unwrap();
        assert_eq!(expected.cardinality(), 32);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        let resp = engine
                            .execute(
                                &Session::customer("neo"),
                                &GdprQuery::ReadDataByUser("neo".into()),
                            )
                            .unwrap();
                        assert_eq!(resp, expected);
                    }
                });
            }
        });
    }

    /// Regression (write-path consistency): a group update that is invalid
    /// for a record on a *later* shard must leave every shard untouched.
    /// Without cross-shard pre-validation, the sequential write fan-out
    /// committed shard 0's matches before shard 1's validation failed —
    /// the caller saw `Err` with half the group already rewritten, and the
    /// outcome depended on the shard count.
    #[test]
    fn group_update_validates_across_all_shards_before_any_commit() {
        let engine = sharded(2);
        let controller = Session::controller();
        // One key per shard, chosen via the placement function so the
        // healthy record (two purposes) sits on shard 0 and the poison
        // record (whose only purpose is "ads") on shard 1.
        let key_on = |shard: usize| {
            (0..64)
                .map(|i| format!("gk{i}"))
                .find(|k| shard_of(k, 2) == shard)
                .expect("64 keys cover both shards")
        };
        let healthy = key_on(0);
        let poison = key_on(1);
        engine
            .execute(
                &controller,
                &GdprQuery::CreateRecord(record(&healthy, "neo", &["ads", "2fa"])),
            )
            .unwrap();
        engine
            .execute(
                &controller,
                &GdprQuery::CreateRecord(record(&poison, "neo", &["ads"])),
            )
            .unwrap();
        let result = engine.execute(
            &controller,
            &GdprQuery::UpdateMetadataByPurpose {
                purpose: "ads".into(),
                update: crate::query::MetadataUpdate::Remove(
                    crate::query::MetadataField::Purposes,
                    "ads".into(),
                ),
            },
        );
        assert!(matches!(result, Err(GdprError::InvalidRecord(_))));
        // Shard 0's record must not have committed: both keep "ads".
        for key in [&healthy, &poison] {
            let stored = engine.store(shard_of(key, 2)).fetch(key).unwrap().unwrap();
            assert!(
                stored.metadata.purposes.contains(&"ads".to_string()),
                "{key} must be untouched after the failed cross-shard group update"
            );
        }
        // The processor still sees both records under the purpose.
        let resp = engine
            .execute(
                &Session::processor("ads"),
                &GdprQuery::ReadDataByPurpose("ads".into()),
            )
            .unwrap();
        assert_eq!(resp.cardinality(), 2);
    }

    #[test]
    fn empty_shard_list_is_rejected() {
        assert!(matches!(
            ComplianceEngine::<MemStore>::sharded(Vec::new()),
            Err(GdprError::Store(_))
        ));
    }

    #[test]
    fn mixed_clock_shards_are_rejected() {
        // Two clocks with different epochs: absolute timestamps are not
        // comparable across them, so construction must fail loudly.
        let stores = vec![
            MemStore::with_clock(clock::sim()),
            MemStore::with_clock(clock::sim()),
        ];
        assert!(matches!(
            ComplianceEngine::sharded(stores),
            Err(GdprError::Store(_))
        ));
    }

    #[test]
    fn destination_collision_fails_loudly_with_both_copies_intact() {
        let clock = clock::sim();
        let stores: Vec<MemStore> = (0..2)
            .map(|_| MemStore::with_clock(clock.clone()))
            .collect();
        let r = record("dup", "neo", &["ads"]);
        let owner = shard_of("dup", 2);
        stores[owner].put(&r).unwrap();
        stores[1 - owner].put(&r).unwrap();
        let engine = ComplianceEngine::sharded(stores).unwrap();
        assert!(matches!(
            engine.rebalance(),
            Err(GdprError::AlreadyExists(_))
        ));
        assert_eq!(engine.record_count(), 2, "no copy may be destroyed");
    }

    /// Batched execution must be indistinguishable from sequential
    /// execution: same per-op results, same audit trail (entries in op
    /// order, one per op), whatever the shard count.
    #[test]
    fn execute_batch_matches_sequential_execution() {
        for n in [1, 2, 8] {
            let batched = sharded(n);
            let sequential = sharded(n);
            let controller = Session::controller();
            let ops: Vec<(Session, GdprQuery)> = (0..12)
                .map(|i| {
                    (
                        controller.clone(),
                        GdprQuery::CreateRecord(record(
                            &format!("k{i}"),
                            ["neo", "trinity"][i % 2],
                            &["ads"],
                        )),
                    )
                })
                .chain([
                    // A duplicate create (per-op error), a predicate
                    // barrier, a denied op, and trailing point reads.
                    (
                        controller.clone(),
                        GdprQuery::CreateRecord(record("k0", "neo", &["ads"])),
                    ),
                    (
                        Session::customer("neo"),
                        GdprQuery::ReadDataByUser("neo".into()),
                    ),
                    (
                        Session::customer("neo"),
                        GdprQuery::ReadDataByUser("trinity".into()),
                    ),
                    (
                        Session::processor("ads"),
                        GdprQuery::ReadDataByKey("k3".into()),
                    ),
                    (controller.clone(), GdprQuery::DeleteByKey("k5".into())),
                    (controller.clone(), GdprQuery::VerifyDeletion("k5".into())),
                ])
                .collect();

            let batch_results = batched.execute_batch(ops.clone());
            let seq_results: Vec<_> = ops
                .iter()
                .map(|(session, query)| sequential.execute(session, query))
                .collect();
            assert_eq!(batch_results.len(), seq_results.len());
            for (i, (b, s)) in batch_results.iter().zip(&seq_results).enumerate() {
                assert_eq!(b, s, "n={n}, op {i} diverged");
            }
            // Audit trails render identically modulo timestamps (the batch
            // shares one submission instant; the sim clock never advances
            // here, so even those match).
            let b_lines = batched.audit().lines_between(0, u64::MAX);
            let s_lines = sequential.audit().lines_between(0, u64::MAX);
            assert_eq!(b_lines, s_lines, "n={n}");
        }
    }

    /// Ops on the same key inside one batch must keep their order even
    /// when the batch is spread across the fan-out pool.
    #[test]
    fn same_key_ops_in_one_batch_stay_ordered() {
        let engine = sharded(8);
        let controller = Session::controller();
        let mut ops: Vec<(Session, GdprQuery)> = Vec::new();
        for i in 0..6 {
            let key = format!("k{i}");
            ops.push((
                controller.clone(),
                GdprQuery::CreateRecord(record(&key, "neo", &["ads"])),
            ));
            ops.push((
                controller.clone(),
                GdprQuery::UpdateDataByKey {
                    key: key.clone(),
                    data: format!("v2-{key}"),
                },
            ));
            ops.push((controller.clone(), GdprQuery::DeleteByKey(key.clone())));
            ops.push((controller.clone(), GdprQuery::VerifyDeletion(key)));
        }
        for (i, result) in engine.execute_batch(ops).into_iter().enumerate() {
            match i % 4 {
                0 => assert_eq!(result.unwrap(), GdprResponse::Created, "op {i}"),
                1 => assert_eq!(result.unwrap(), GdprResponse::Updated(1), "op {i}"),
                2 => assert_eq!(result.unwrap(), GdprResponse::Deleted(1), "op {i}"),
                _ => assert_eq!(
                    result.unwrap(),
                    GdprResponse::DeletionVerified(true),
                    "op {i}"
                ),
            }
        }
        assert_eq!(engine.record_count(), 0);
    }

    /// A GetSystemLogs mid-batch observes the audit entries of its batch
    /// predecessors, exactly as sequential execution would.
    #[test]
    fn log_read_mid_batch_sees_predecessors() {
        let engine = sharded(4);
        let controller = Session::controller();
        let ops = vec![
            (
                controller.clone(),
                GdprQuery::CreateRecord(record("a", "neo", &["ads"])),
            ),
            (
                controller.clone(),
                GdprQuery::CreateRecord(record("b", "neo", &["ads"])),
            ),
            (
                Session::regulator(),
                GdprQuery::GetSystemLogs {
                    from_ms: 0,
                    to_ms: u64::MAX,
                },
            ),
            (
                controller.clone(),
                GdprQuery::CreateRecord(record("c", "neo", &["ads"])),
            ),
        ];
        let results = engine.execute_batch(ops);
        match results[2].as_ref().unwrap() {
            GdprResponse::Logs(lines) => {
                assert_eq!(lines.len(), 2, "log read must see both predecessors");
            }
            other => panic!("expected logs, got {other:?}"),
        }
        // And the full trail holds one entry per op afterwards.
        assert_eq!(engine.audit().len(), 4);
    }

    #[test]
    fn sharded_engine_reports_aggregate_space_and_count() {
        let engine = sharded(4);
        let controller = Session::controller();
        for i in 0..10 {
            engine
                .execute(
                    &controller,
                    &GdprQuery::CreateRecord(record(&format!("k{i}"), "neo", &["ads"])),
                )
                .unwrap();
        }
        assert_eq!(engine.record_count(), 10);
        let space = engine.space_report();
        assert!(space.personal_data_bytes > 0);
        assert!(space.total_bytes > space.personal_data_bytes);
        assert_eq!(engine.name(), "mem-sharded");
        assert_eq!(engine.named("custom").name(), "custom");
    }

    /// The no-double-count invariant: the engine records every op exactly
    /// once — across single-op execute, the parallel point-segment path,
    /// and fanned-out predicates.
    #[test]
    fn telemetry_counts_each_op_exactly_once() {
        for shards in [1usize, 8] {
            let engine = sharded(shards);
            let controller = Session::controller();
            // 16 creates through the batched (parallel) path, spanning
            // several shards.
            let ops: Vec<_> = (0..16)
                .map(|i| {
                    (
                        controller.clone(),
                        GdprQuery::CreateRecord(record(&format!("k{i}"), "neo", &["ads"])),
                    )
                })
                .collect();
            for r in engine.execute_batch(ops) {
                r.unwrap();
            }
            // One single-op read, one fanned-out predicate, one error.
            let processor = Session::processor("ads");
            engine
                .execute(&processor, &GdprQuery::ReadDataByKey("k0".into()))
                .unwrap();
            engine
                .execute(
                    &Session::customer("neo"),
                    &GdprQuery::ReadDataByUser("neo".into()),
                )
                .unwrap();
            engine
                .execute(&processor, &GdprQuery::ReadDataByKey("missing".into()))
                .unwrap_err();

            let snap = engine.op_telemetry().expect("router keeps telemetry");
            let creates = snap.get("create-record").unwrap();
            assert_eq!((creates.ok, creates.errors), (16, 0), "shards={shards}");
            assert_eq!(creates.latency.count, 16);
            let reads = snap.get("read-data-by-key").unwrap();
            assert_eq!((reads.ok, reads.errors), (1, 1), "shards={shards}");
            let by_user = snap.get("read-data-by-usr").unwrap();
            assert_eq!((by_user.ok, by_user.errors), (1, 0), "shards={shards}");
            assert_eq!(snap.total_ops(), 19, "shards={shards}");
        }
    }
}
