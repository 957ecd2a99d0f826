//! The shared compliance engine: authorization, record visibility, audit
//! logging, and the full [`GdprQuery`] dispatch, implemented exactly once
//! over the narrow [`RecordStore`] backend trait.
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
use crate::snapshot::{self, IndexRecovery, SnapshotStamp};
use crate::store::{RecordPredicate, RecordStore};
use crate::telemetry::{OpTelemetry, OpTelemetrySnapshot};
use crate::tenant::TenantId;
use crate::GdprConnector;
use clock::SharedClock;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Where (and as which shard of which topology) this engine persists its
/// index snapshot.
struct SnapshotConfig {
    path: PathBuf,
    shard_index: u32,
    shard_count: u32,
}

/// Everything one tenant owns inside an engine: its audit trail (so
/// GET-SYSTEM-LOGS returns only the caller's interactions), its metadata
/// index partition (when the engine is indexed), and its telemetry table
/// (so op/error counts and slow-op lines attribute to a tenant).
pub(crate) struct TenantState {
    pub(crate) audit: AuditTrail,
    pub(crate) index: Option<Arc<MetadataIndex>>,
    pub(crate) telemetry: Arc<OpTelemetry>,
}

/// The tenant → state table. The default tenant is a direct field (the
/// single-tenant hot path never touches a lock); named tenants live in
/// an RwLock'd map, created lazily on first use or restored at open.
struct TenantTable {
    default_state: Arc<TenantState>,
    extra: RwLock<BTreeMap<String, Arc<TenantState>>>,
    /// Flipped (and never unflipped) once any named tenant exists — the
    /// cue for the write paths to stop using store-wide pushdowns that
    /// would cross tenant boundaries.
    multi: AtomicBool,
}

impl TenantTable {
    fn new(clock: &SharedClock, indexed: bool) -> Arc<TenantTable> {
        Arc::new(TenantTable {
            default_state: Arc::new(TenantState {
                audit: AuditTrail::new(clock.clone()),
                index: indexed.then(|| Arc::new(MetadataIndex::new())),
                telemetry: Arc::new(OpTelemetry::new()),
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

    /// Route a store-side expiry to the owning tenant's index partition.
    /// Looks up only — a reap never creates tenant state.
    fn on_store_expiry(&self, storage_key: &str) {
        let (tenant, _) = TenantId::split_storage_key(storage_key);
        if let Some(state) = self.get(tenant) {
            if let Some(index) = &state.index {
                index.remove(storage_key);
            }
        }
    }
}

/// The one compliance layer every backend shares.
pub struct ComplianceEngine<S: RecordStore> {
    store: S,
    /// Per-tenant audit/index/telemetry partitions; see [`TenantTable`].
    tenants: Arc<TenantTable>,
    clock: SharedClock,
    /// Set on the snapshot-aware open path; enables
    /// [`Self::write_index_snapshot`] / [`Self::close`].
    snapshot: Option<SnapshotConfig>,
    /// How the index came up on the snapshot-aware open path.
    recovery: Option<IndexRecovery>,
}

impl<S: RecordStore> ComplianceEngine<S> {
    /// An engine resolving metadata predicates by pushdown or full scan —
    /// the paper-faithful configuration for stores without secondary
    /// indexes.
    pub fn new(store: S) -> ComplianceEngine<S> {
        Self::build(store, false)
    }

    fn build(store: S, indexed: bool) -> ComplianceEngine<S> {
        let clock = store.clock();
        ComplianceEngine {
            tenants: TenantTable::new(&clock, indexed),
            clock,
            store,
            snapshot: None,
            recovery: None,
        }
    }

    /// Does this engine maintain metadata index partitions?
    fn indexed(&self) -> bool {
        self.tenants.default_state.index.is_some()
    }

    /// Has any named tenant ever been seen? While false, the engine is in
    /// the degenerate single-tenant mode and keeps the exact pre-tenancy
    /// fast paths (store-wide pushdown deletes and purges).
    fn multi_tenant(&self) -> bool {
        self.tenants.multi.load(Ordering::Relaxed)
    }

    /// An engine maintaining a [`MetadataIndex`] over the store: inverted
    /// `user/purpose/objection/sharing → keys` maps, the all-keys and
    /// decision-eligibility sets (which make the negative predicates
    /// index-answerable), plus a deadline-ordered expiry set. Existing
    /// records are back-filled in one batch (TTL deadlines re-anchor at
    /// attach time), and the store's expiry path is wired to invalidate
    /// index entries the moment a record is reaped.
    pub fn with_metadata_index(store: S) -> GdprResult<ComplianceEngine<S>> {
        let engine = ComplianceEngine::build(store, true);
        engine.attach_index_listener();
        engine.backfill_all()?;
        Ok(engine)
    }

    /// The snapshot-aware open path: as [`Self::with_metadata_index`],
    /// but the index is recovered through
    /// [`MetadataIndex::restore_or_rebuild`] against the image at `path`
    /// — O(index) when the image is trustworthy (its generation stamp
    /// equals [`RecordStore::persistence_generation`] and its topology
    /// header matches), the usual O(n) backfill otherwise. The engine
    /// remembers `path` so [`Self::write_index_snapshot`] /
    /// [`Self::close`] can persist the index again; a missing image on
    /// first boot simply rebuilds and is written on the next close.
    pub fn with_metadata_index_snapshot(
        store: S,
        path: impl Into<PathBuf>,
    ) -> GdprResult<ComplianceEngine<S>> {
        Self::with_metadata_index_snapshot_at(store, path, 0, 1)
    }

    /// As [`Self::with_metadata_index_snapshot`], for one shard of a
    /// sharded topology: the shard coordinates are stamped into (and
    /// checked against) the snapshot header, so an image written under a
    /// different shard count can never be loaded into a topology where
    /// the key→shard map changed ([`crate::sharded::ShardedEngine`] opens
    /// its shards through this).
    pub fn with_metadata_index_snapshot_at(
        store: S,
        path: impl Into<PathBuf>,
        shard_index: u32,
        shard_count: u32,
    ) -> GdprResult<ComplianceEngine<S>> {
        let mut engine = ComplianceEngine::build(store, true);
        engine.attach_index_listener();
        let path = path.into();
        let expected = SnapshotStamp {
            generation: engine.store.persistence_generation(),
            shard_index,
            shard_count,
        };
        let recovery = {
            let engine = &engine;
            snapshot::restore_or_rebuild_tenants(
                &path,
                &expected,
                &mut |tenant_name| {
                    let tenant = TenantId::new(tenant_name)
                        .map_err(crate::snapshot::SnapshotInvalid::BadTenant)?;
                    let state = engine
                        .create_or_get_state(&tenant, false)
                        .map_err(|e| crate::snapshot::SnapshotInvalid::BadTenant(e.to_string()))?;
                    state.index.clone().ok_or_else(|| {
                        crate::snapshot::SnapshotInvalid::BadTenant(
                            "engine is not indexed".to_string(),
                        )
                    })
                },
                || engine.backfill_all(),
            )?
        };
        engine.snapshot = Some(SnapshotConfig {
            path,
            shard_index,
            shard_count,
        });
        engine.recovery = Some(recovery);
        Ok(engine)
    }

    /// Wire the store's expiry path to the tenant table before any
    /// backfill/restore: a reap routes to the owning tenant's index
    /// partition by storage-key prefix. A reap racing a build can be
    /// clobbered by the install and leave a stale entry — the same
    /// transient window as live index maintenance, and equally harmless:
    /// reads re-verify candidates against the store, and the purge path
    /// unions store-side deadlines.
    fn attach_index_listener(&self) {
        let table = Arc::clone(&self.tenants);
        self.store.on_expiry(Arc::new(move |key| {
            table.on_store_expiry(key);
        }));
    }

    /// The O(n) index build for every tenant at once: scan every record,
    /// partition by storage-key prefix, and apply one batch per tenant
    /// (creating tenant states as discovered). Returns how many records
    /// were scanned.
    fn backfill_all(&self) -> GdprResult<usize> {
        let now_ms = self.clock.now().as_millis();
        let records = self.store.scan()?;
        let n = records.len();
        let mut batches: Vec<(String, IndexBatch)> = Vec::new();
        for record in records {
            // The store's remaining deadline is authoritative for records
            // that predate the engine; re-deriving `now + declared TTL`
            // would extend their retention by the already-elapsed lifetime.
            let deadline_ms = self.store.deadline_ms(&record.key).or_else(|| {
                record
                    .metadata
                    .ttl
                    .map(|ttl| now_ms + ttl.as_millis() as u64)
            });
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
            let state = self.create_or_get_state(&tenant, false)?;
            if let Some(index) = &state.index {
                // One lock acquisition per tenant, not one per record.
                index.apply(batch);
            }
        }
        Ok(n)
    }

    /// The per-tenant O(n) index build: scan, keep this tenant's records,
    /// apply one batch. Used when a tenant state is created lazily at
    /// runtime (after a restart, the tenant's records are already in the
    /// store but its partition does not exist yet).
    fn backfill_tenant(&self, tenant: &TenantId, index: &MetadataIndex) -> GdprResult<usize> {
        let now_ms = self.clock.now().as_millis();
        let mut batch = IndexBatch::new();
        let mut n = 0;
        for record in self.store.scan()? {
            if !tenant.owns(&record.key) {
                continue;
            }
            let deadline_ms = self.store.deadline_ms(&record.key).or_else(|| {
                record
                    .metadata
                    .ttl
                    .map(|ttl| now_ms + ttl.as_millis() as u64)
            });
            batch.upsert_at(record, deadline_ms);
            n += 1;
        }
        index.apply(batch);
        Ok(n)
    }

    /// Resolve the state a session's tenant operates in, creating it on
    /// first use (with a scoped backfill when the engine is indexed).
    pub(crate) fn tenant_state(&self, tenant: &TenantId) -> GdprResult<Arc<TenantState>> {
        if tenant.is_default() {
            return Ok(Arc::clone(&self.tenants.default_state));
        }
        if let Some(state) = self.tenants.get(tenant.name()) {
            return Ok(state);
        }
        self.create_or_get_state(tenant, true)
    }

    /// Install a fresh state for `tenant` (or adopt a concurrently
    /// installed one). The state is registered *before* any backfill so
    /// concurrent writes from the same tenant index into the installed
    /// partition rather than a discarded one; the backfill's upserts are
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
            index: self.indexed().then(|| Arc::new(MetadataIndex::new())),
            telemetry: Arc::new(OpTelemetry::labeled(tenant.label())),
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
        if backfill {
            if let Some(index) = &state.index {
                if let Err(e) = self.backfill_tenant(tenant, index) {
                    // Never leave a half-built partition behind: an empty
                    // index would silently answer predicates with misses.
                    self.tenants.extra.write().remove(tenant.name());
                    return Err(e);
                }
            }
        }
        Ok(state)
    }

    /// How the index came up on the snapshot-aware open path (`None` for
    /// the other constructors).
    pub fn index_recovery(&self) -> Option<&IndexRecovery> {
        self.recovery.as_ref()
    }

    /// Persist the index image now: stamp it with the store's persistence
    /// generation and atomically replace the configured snapshot file.
    /// Returns the entry count.
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
        let Some(cfg) = &self.snapshot else {
            return Err(GdprError::Unsupported(
                "engine was not opened with an index snapshot path".to_string(),
            ));
        };
        if !self.indexed() {
            return Err(GdprError::Unsupported(
                "engine maintains no metadata index".to_string(),
            ));
        }
        // One multi-tenant image: the default tenant's section first, then
        // every named tenant in name order — the tenant set is part of the
        // checksummed image, so a vanished partition can never be mistaken
        // for an empty-but-trusted one.
        let mut sections: Vec<(String, Arc<MetadataIndex>)> = Vec::new();
        if let Some(index) = &self.tenants.default_state.index {
            sections.push((String::new(), Arc::clone(index)));
        }
        for (name, state) in self.tenants.extra.read().iter() {
            if let Some(index) = &state.index {
                sections.push((name.clone(), Arc::clone(index)));
            }
        }
        let generation = self.store.persistence_generation();
        let stamp = SnapshotStamp {
            generation,
            shard_index: cfg.shard_index,
            shard_count: cfg.shard_count,
        };
        let written = snapshot::write_snapshot(&cfg.path, &sections, &stamp)?;
        if self.store.persistence_generation() != generation {
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

    /// Graceful close: persist the index snapshot when one is configured,
    /// then flush the store ([`RecordStore::close`]), returning the index
    /// entries written. Safe to call repeatedly.
    pub fn close(&self) -> GdprResult<usize> {
        let written = if self.snapshot.is_some() {
            self.write_index_snapshot()?
        } else {
            0
        };
        self.store.close()?;
        Ok(written)
    }

    /// The backend.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The default tenant's audit trail serving GET-SYSTEM-LOGS (named
    /// tenants keep their own).
    pub fn audit(&self) -> &AuditTrail {
        &self.tenants.default_state.audit
    }

    /// A tenant's full state, if that tenant has been seen.
    pub(crate) fn tenant_state_if_seen(&self, tenant: &TenantId) -> Option<Arc<TenantState>> {
        self.tenants.get(tenant.name())
    }

    /// The default tenant's metadata index partition, if this engine
    /// maintains indexes.
    pub fn metadata_index(&self) -> Option<&Arc<MetadataIndex>> {
        self.tenants.default_state.index.as_ref()
    }

    /// The default tenant's per-opcode telemetry table.
    pub fn telemetry(&self) -> &Arc<OpTelemetry> {
        &self.tenants.default_state.telemetry
    }

    /// Pre-provision a tenant (create its audit/index/telemetry state now
    /// instead of on first query) — `gdpr-serve --tenants N` uses this so
    /// per-tenant metrics series exist before traffic arrives.
    pub fn ensure_tenant(&self, tenant: &TenantId) -> GdprResult<()> {
        self.tenant_state(tenant).map(|_| ())
    }

    /// Every tenant's telemetry snapshot, labeled (`"default"` first).
    pub fn tenant_telemetry_snapshots(&self) -> Vec<(String, OpTelemetrySnapshot)> {
        let mut out = vec![(
            "default".to_string(),
            self.tenants.default_state.telemetry.snapshot(),
        )];
        for (name, state) in self.tenants.extra.read().iter() {
            out.push((name.clone(), state.telemetry.snapshot()));
        }
        out
    }

    /// Execute one GDPR query under a session, recording it in the
    /// session tenant's audit trail whatever the outcome (G30: every
    /// interaction is logged).
    pub fn execute(&self, session: &Session, query: &GdprQuery) -> GdprResult<GdprResponse> {
        let state = self.tenant_state(&session.tenant)?;
        let started = Instant::now();
        let result = self.dispatch_in(&state, session, query);
        state
            .telemetry
            .record(query, started.elapsed(), result.is_err());
        state
            .audit
            .record_batch(vec![audit_draft(session, query, &result)]);
        result
    }

    /// Execute a batch of queries in order — semantically identical to
    /// calling [`ComplianceEngine::execute`] per op, but audit entries are
    /// committed per batch per tenant (one clock read, one lock
    /// acquisition) instead of per op. A `GetSystemLogs` inside the batch
    /// flushes that tenant's pending entries first, so log reads observe
    /// their batch predecessors exactly as sequential execution would —
    /// other tenants' pending entries are invisible to it either way.
    pub fn execute_batch(&self, ops: Vec<(Session, GdprQuery)>) -> Vec<GdprResult<GdprResponse>> {
        let mut results = Vec::with_capacity(ops.len());
        // Per-tenant pending drafts; batches rarely span many tenants, so
        // a linear scan keyed by state identity beats a hash map here.
        let mut drafts: Vec<(Arc<TenantState>, Vec<AuditDraft>)> = Vec::new();
        for (session, query) in &ops {
            let state = match self.tenant_state(&session.tenant) {
                Ok(state) => state,
                Err(e) => {
                    results.push(Err(e));
                    continue;
                }
            };
            if matches!(query, GdprQuery::GetSystemLogs { .. }) {
                if let Some((_, pending)) = drafts.iter_mut().find(|(s, _)| Arc::ptr_eq(s, &state))
                {
                    state.audit.record_batch(std::mem::take(pending));
                }
            }
            let started = Instant::now();
            let result = self.dispatch_in(&state, session, query);
            state
                .telemetry
                .record(query, started.elapsed(), result.is_err());
            let draft = audit_draft(session, query, &result);
            match drafts.iter_mut().find(|(s, _)| Arc::ptr_eq(s, &state)) {
                Some((_, pending)) => pending.push(draft),
                None => drafts.push((state, vec![draft])),
            }
            results.push(result);
        }
        for (state, pending) in drafts {
            state.audit.record_batch(pending);
        }
        results
    }

    fn now_ms(&self) -> u64 {
        self.clock.now().as_millis()
    }

    /// Translate a logical key into the session tenant's storage key,
    /// rejecting keys that embed the tenant separator (which could forge
    /// an address in another tenant's partition).
    fn storage_key(&self, tenant: &TenantId, key: &str) -> GdprResult<String> {
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
    fn fetch_required(&self, tenant: &TenantId, key: &str) -> GdprResult<PersonalRecord> {
        let storage_key = self.storage_key(tenant, key)?;
        self.store
            .fetch(&storage_key)?
            .ok_or_else(|| GdprError::NotFound(key.to_string()))
    }

    /// All of **this tenant's** records matching `pred`, resolved
    /// pushdown → index partition → scan. Pushdown and scan evaluate over
    /// the shared store, so their results are filtered by storage-key
    /// ownership; the index partition is tenant-scoped by construction.
    fn read_matching(
        &self,
        state: &TenantState,
        tenant: &TenantId,
        pred: &RecordPredicate,
    ) -> GdprResult<Vec<PersonalRecord>> {
        if let Some(result) = self.store.select(pred) {
            let mut records = result?;
            records.retain(|r| tenant.owns(&r.key));
            return Ok(records);
        }
        if let Some(index) = &state.index {
            if let Some(keys) = index.keys_for(pred) {
                let mut out = Vec::with_capacity(keys.len());
                for key in keys {
                    // A candidate can be stale (expired since indexing, or
                    // mutated concurrently): re-verify against the
                    // reference semantics before returning it.
                    match self.store.fetch(&key)? {
                        Some(record) if pred.matches(&record) => out.push(record),
                        _ => {}
                    }
                }
                return Ok(out);
            }
        }
        Ok(self
            .store
            .scan()?
            .into_iter()
            .filter(|r| tenant.owns(&r.key) && pred.matches(r))
            .collect())
    }

    /// Erase all records matching `pred`, keeping any index consistent.
    /// Index maintenance is coalesced into one [`IndexBatch`] (one lock
    /// acquisition for the whole group), applied even when a store delete
    /// fails mid-loop so the index tracks exactly the committed deletions.
    fn delete_matching(
        &self,
        state: &TenantState,
        tenant: &TenantId,
        pred: &RecordPredicate,
    ) -> GdprResult<usize> {
        // With an engine index attached, deletion must go key-by-key so the
        // index learns which records died; pushdown would erase them behind
        // the index's back. Once any named tenant exists, pushdown is off
        // for everyone: the store-wide delete cannot see tenant boundaries.
        if state.index.is_none() && !self.multi_tenant() {
            if let Some(result) = self.store.delete_matching(pred) {
                return result;
            }
        }
        let victims = self.read_matching(state, tenant, pred)?;
        self.commit_batched(
            state,
            victims,
            |engine, record| engine.store.delete(&record.key),
            |record, batch| batch.remove(record.key),
        )
    }

    /// Apply a metadata update to all records matching `pred` —
    /// **validate-all-then-commit**: `update.apply` runs on every match
    /// before any `store.rewrite`, so an update that is invalid for *any*
    /// matching record (e.g. removing the last declared purpose of one of
    /// them) mutates nothing at all. Without the validation phase a
    /// mid-loop failure would leave earlier matches rewritten and
    /// reindexed while the caller sees `Err`.
    ///
    /// A *store* failure during the commit phase still leaves earlier
    /// rewrites in place (the same partial progress a sharded fan-out
    /// exposes); the index batch is applied either way so it tracks
    /// exactly the committed rewrites.
    fn update_matching(
        &self,
        state: &TenantState,
        tenant: &TenantId,
        pred: &RecordPredicate,
        update: &crate::query::MetadataUpdate,
    ) -> GdprResult<usize> {
        let ttl_changed = matches!(update, crate::query::MetadataUpdate::SetTtl(_));
        let mut updated = self.read_matching(state, tenant, pred)?;
        for record in &mut updated {
            update.apply(&mut record.metadata)?;
        }
        let now_ms = self.now_ms();
        self.commit_batched(
            state,
            updated,
            |engine, record| engine.store.rewrite(record, ttl_changed).map(|()| true),
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
        state: &TenantState,
        items: impl IntoIterator<Item = T>,
        mut store_op: impl FnMut(&Self, &T) -> GdprResult<bool>,
        mut index_op: impl FnMut(T, &mut IndexBatch),
    ) -> GdprResult<usize> {
        let mut batch = IndexBatch::new();
        let mut n = 0;
        let mut failure = None;
        for item in items {
            match store_op(self, &item) {
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
        if let Some(index) = &state.index {
            index.apply(batch);
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(n),
        }
    }

    /// Dry-run a group update: `update.apply` on (a copy of) every record
    /// matching `pred`, committing nothing. [`crate::sharded::ShardedEngine`]
    /// runs this on *every* shard before dispatching the update to *any*
    /// shard, so a validation failure leaves all shards untouched — exactly
    /// what the unsharded engine's validate-all-then-commit guarantees.
    pub(crate) fn validate_update(
        &self,
        tenant: &TenantId,
        pred: &RecordPredicate,
        update: &crate::query::MetadataUpdate,
    ) -> GdprResult<()> {
        let state = self.tenant_state(tenant)?;
        for mut record in self.read_matching(&state, tenant, pred)? {
            update.apply(&mut record.metadata)?;
        }
        Ok(())
    }

    fn index_new(&self, state: &TenantState, record: &PersonalRecord) {
        if let Some(index) = &state.index {
            index.upsert(record, self.now_ms(), false);
        }
    }

    /// Apply a coalesced maintenance batch, routing each op to the owning
    /// tenant's index partition by storage-key prefix — one lock
    /// acquisition per touched tenant however many records the batch
    /// holds. [`crate::sharded::ShardedEngine::rebalance`] feeds this with
    /// mixed-tenant batches; single-tenant callers pay one partition
    /// lookup and one apply, exactly as before. No-op without indexes.
    pub(crate) fn apply_index_batch(&self, batch: IndexBatch) {
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
            let Ok(state) = self.tenant_state(&tenant) else {
                continue;
            };
            if let Some(index) = &state.index {
                index.apply(sub);
            }
        }
    }

    fn reindex(&self, state: &TenantState, record: &PersonalRecord, ttl_changed: bool) {
        if let Some(index) = &state.index {
            index.upsert(record, self.now_ms(), !ttl_changed);
        }
    }

    pub(crate) fn unindex(&self, state: &TenantState, key: &str) {
        if let Some(index) = &state.index {
            index.remove(key);
        }
    }

    /// DELETE-RECORD-BY-TTL: purge everything past due (deadlines are
    /// inclusive: `deadline == now` is already due). With an index, the
    /// deadline-ordered expiry set yields the due keys in O(expired) —
    /// but the index is an accelerator, not the source of truth, so its
    /// due set is **unioned** with the store's own purge machinery:
    /// records the index never learned (written behind the engine, or
    /// indexed before a `clear()`) still carry store-side deadlines and
    /// must not outlive them just because the index forgot. Index
    /// removals are coalesced into one batch.
    fn purge_expired(&self, state: &TenantState, tenant: &TenantId) -> GdprResult<usize> {
        if !self.multi_tenant() {
            // Degenerate single-tenant mode: the exact pre-tenancy path.
            let Some(index) = &state.index else {
                return self.store.purge_expired();
            };
            let mut n = self.commit_batched(
                state,
                index.expired_keys(self.now_ms()),
                |engine, key| engine.store.delete(key),
                |key, batch| batch.remove(key),
            )?;
            // Store-side stragglers the index never knew about. Keys
            // already deleted above are gone from the store, so nothing
            // double-counts; stores whose purge fires the expiry listener
            // scrub any matching index entries themselves.
            n += self.store.purge_expired()?;
            Ok(n)
        } else {
            // Multi-tenant: a tenant's purge must only erase (and only
            // count) its own records, so the store-wide purge machinery is
            // off limits. Union the tenant's index partition due set with
            // an ownership-filtered sweep of store-side deadlines — the
            // index stays an accelerator, never the sole source of truth.
            // The sweep uses `expired_keys` (a side-effect-free key
            // enumeration), NOT `scan`: on the key-value store a scan's
            // GETs lazily reap every tenant's past-due records, which both
            // crosses tenant boundaries and destroys the very records this
            // tenant is entitled to count in its own purge.
            let now_ms = self.now_ms();
            let mut victims: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
            if let Some(index) = &state.index {
                victims.extend(index.expired_keys(now_ms));
            }
            for key in self.store.expired_keys()? {
                if tenant.owns(&key) {
                    victims.insert(key);
                }
            }
            self.commit_batched(
                state,
                victims,
                |engine, key| engine.store.delete(key),
                |key, batch| batch.remove(key),
            )
        }
    }

    /// The single `GdprQuery` dispatch in the workspace. Crate-visible so
    /// [`crate::sharded::ShardedEngine`] can route queries to shard engines
    /// without each shard recording a fragment of the audit trail — the
    /// router keeps the one unified trail (G30: one event per query).
    pub(crate) fn dispatch(
        &self,
        session: &Session,
        query: &GdprQuery,
    ) -> GdprResult<GdprResponse> {
        let state = self.tenant_state(&session.tenant)?;
        self.dispatch_in(&state, session, query)
    }

    /// The dispatch body, scoped to one resolved tenant state. Logical ↔
    /// storage key translation happens here — queries arrive with logical
    /// keys, the store is addressed with tenant-namespaced storage keys,
    /// and every response key is translated back before it leaves.
    fn dispatch_in(
        &self,
        state: &TenantState,
        session: &Session,
        query: &GdprQuery,
    ) -> GdprResult<GdprResponse> {
        use GdprQuery::*;
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
                if tenant.is_default() {
                    TenantId::check_logical_key(&record.key).map_err(GdprError::InvalidRecord)?;
                    self.store.put(record)?;
                    self.index_new(state, record);
                } else {
                    let mut namespaced = record.clone();
                    namespaced.key = self.storage_key(tenant, &record.key)?;
                    self.store.put(&namespaced).map_err(|e| match e {
                        // Surface the logical key, not the storage key.
                        GdprError::AlreadyExists(_) => GdprError::AlreadyExists(record.key.clone()),
                        other => other,
                    })?;
                    self.index_new(state, &namespaced);
                }
                Ok(GdprResponse::Created)
            }

            DeleteByKey(key) => {
                let record = self.fetch_required(tenant, key)?;
                guard(&record)?;
                self.store.delete(&record.key)?;
                self.unindex(state, &record.key);
                Ok(GdprResponse::Deleted(1))
            }
            DeleteByPurpose(purpose) => Ok(GdprResponse::Deleted(self.delete_matching(
                state,
                tenant,
                &RecordPredicate::DeclaredPurpose(purpose.clone()),
            )?)),
            DeleteExpired => Ok(GdprResponse::Deleted(self.purge_expired(state, tenant)?)),
            DeleteByUser(user) => Ok(GdprResponse::Deleted(self.delete_matching(
                state,
                tenant,
                &RecordPredicate::User(user.clone()),
            )?)),

            ReadDataByKey(key) => {
                let record = self.fetch_required(tenant, key)?;
                guard(&record)?;
                Ok(GdprResponse::Data(vec![(
                    Self::logical_key(tenant, record.key),
                    record.data,
                )]))
            }
            // Canonical READ-DATA-BY-PUR semantics for every backend:
            // declared purpose AND no objection to it (G5.1b + G21).
            ReadDataByPurpose(purpose) => Ok(data_of(self.read_matching(
                state,
                tenant,
                &RecordPredicate::AllowsPurpose(purpose.clone()),
            )?)),
            ReadDataByUser(user) => Ok(data_of(self.read_matching(
                state,
                tenant,
                &RecordPredicate::User(user.clone()),
            )?)),
            ReadDataNotObjecting(usage) => Ok(data_of(self.read_matching(
                state,
                tenant,
                &RecordPredicate::NotObjecting(usage.clone()),
            )?)),
            ReadDataDecisionEligible => Ok(data_of(self.read_matching(
                state,
                tenant,
                &RecordPredicate::DecisionEligible,
            )?)),

            ReadMetadataByKey(key) => {
                let record = self.fetch_required(tenant, key)?;
                guard(&record)?;
                Ok(GdprResponse::Metadata(vec![(
                    Self::logical_key(tenant, record.key),
                    record.metadata,
                )]))
            }
            ReadMetadataByUser(user) => Ok(metadata_of(self.read_matching(
                state,
                tenant,
                &RecordPredicate::User(user.clone()),
            )?)),
            ReadMetadataBySharedWith(party) => Ok(metadata_of(self.read_matching(
                state,
                tenant,
                &RecordPredicate::SharedWith(party.clone()),
            )?)),

            UpdateDataByKey { key, data } => {
                let mut record = self.fetch_required(tenant, key)?;
                guard(&record)?;
                record.data = data.clone();
                self.store.rewrite(&record, false)?;
                Ok(GdprResponse::Updated(1))
            }
            UpdateMetadataByKey { key, update } => {
                let mut record = self.fetch_required(tenant, key)?;
                guard(&record)?;
                let ttl_changed = matches!(update, crate::query::MetadataUpdate::SetTtl(_));
                update.apply(&mut record.metadata)?;
                self.store.rewrite(&record, ttl_changed)?;
                self.reindex(state, &record, ttl_changed);
                Ok(GdprResponse::Updated(1))
            }
            UpdateMetadataByPurpose { purpose, update } => {
                Ok(GdprResponse::Updated(self.update_matching(
                    state,
                    tenant,
                    &RecordPredicate::DeclaredPurpose(purpose.clone()),
                    update,
                )?))
            }
            UpdateMetadataByUser { user, update } => Ok(GdprResponse::Updated(
                self.update_matching(state, tenant, &RecordPredicate::User(user.clone()), update)?,
            )),

            GetSystemLogs { from_ms, to_ms } => Ok(GdprResponse::Logs(
                state.audit.lines_between(*from_ms, *to_ms),
            )),
            GetSystemFeatures => Ok(GdprResponse::Features(self.store.features())),
            VerifyDeletion(key) => {
                let storage_key = self.storage_key(tenant, key)?;
                Ok(GdprResponse::DeletionVerified(
                    self.store.fetch(&storage_key)?.is_none(),
                ))
            }
        }
    }
}

/// The audit entry a query outcome owes — shared by the engine's execute
/// paths and [`crate::sharded::ShardedEngine`]'s, so batched and
/// sequential execution render byte-identical trails.
pub(crate) fn audit_draft(
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

/// Every engine is a connector: backends only implement [`RecordStore`],
/// and the engine supplies the whole [`GdprConnector`] surface.
impl<S: RecordStore> GdprConnector for ComplianceEngine<S> {
    fn execute(&self, session: &Session, query: &GdprQuery) -> GdprResult<GdprResponse> {
        ComplianceEngine::execute(self, session, query)
    }

    fn execute_batch(&self, ops: Vec<(Session, GdprQuery)>) -> Vec<GdprResult<GdprResponse>> {
        ComplianceEngine::execute_batch(self, ops)
    }

    fn features(&self) -> FeatureReport {
        self.store.features()
    }

    fn space_report(&self) -> SpaceReport {
        self.store.space_report()
    }

    fn record_count(&self) -> usize {
        self.store.record_count()
    }

    fn name(&self) -> &str {
        self.store.name()
    }

    fn close(&self) -> GdprResult<()> {
        ComplianceEngine::close(self).map(|_| ())
    }

    fn op_telemetry(&self) -> Option<OpTelemetrySnapshot> {
        // Deployment-wide view: the default tenant's counters merged with
        // every named tenant's, preserving the pre-tenancy meaning.
        let mut merged = self.tenants.default_state.telemetry.snapshot();
        for state in self.tenants.extra.read().values() {
            merged.merge(&state.telemetry.snapshot());
        }
        Some(merged)
    }

    fn op_telemetry_for(&self, tenant: &TenantId) -> Option<OpTelemetrySnapshot> {
        self.tenant_state_if_seen(tenant)
            .map(|state| state.telemetry.snapshot())
    }

    fn tenant_telemetry(&self) -> Vec<(String, OpTelemetrySnapshot)> {
        self.tenant_telemetry_snapshots()
    }

    fn provision_tenant(&self, tenant: &TenantId) -> GdprResult<()> {
        self.ensure_tenant(tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Metadata;
    use parking_lot::Mutex;
    use std::collections::BTreeMap;
    use std::time::Duration;

    /// A trivial in-memory RecordStore with no TTL machinery and no
    /// pushdown — exercises the engine's scan and index paths in isolation
    /// from the real backends.
    struct MemStore {
        rows: Mutex<BTreeMap<String, PersonalRecord>>,
        clock: SharedClock,
    }

    impl MemStore {
        fn new() -> MemStore {
            MemStore {
                rows: Mutex::new(BTreeMap::new()),
                clock: clock::sim(),
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
            rows.insert(record.key.clone(), record.clone());
            Ok(())
        }
        fn rewrite(&self, record: &PersonalRecord, _ttl_changed: bool) -> GdprResult<()> {
            self.rows.lock().insert(record.key.clone(), record.clone());
            Ok(())
        }
        fn delete(&self, key: &str) -> GdprResult<bool> {
            Ok(self.rows.lock().remove(key).is_some())
        }
        fn scan(&self) -> GdprResult<Vec<PersonalRecord>> {
            Ok(self.rows.lock().values().cloned().collect())
        }
        fn purge_expired(&self) -> GdprResult<usize> {
            Ok(0)
        }
        fn space_report(&self) -> SpaceReport {
            SpaceReport::default()
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
        engine.store().rows.lock().remove("k1");
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
                let stored = engine.store().fetch(key).unwrap().unwrap();
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
        assert!(engine.store().fetch("plain").unwrap().is_some());
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
        let survivor = MemStore {
            rows: Mutex::new(engine.store().rows.lock().clone()),
            clock: engine.store().clock.clone(),
        };
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
}
