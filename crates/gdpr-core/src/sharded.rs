//! The sharded compliance engine: a hash-partition router over N inner
//! [`ComplianceEngine`]s, lifting the single-engine choke point toward the
//! millions-of-users traffic the roadmap targets.
//!
//! Every query in the §3.3 taxonomy is either *key-scoped* or
//! *metadata-predicate-scoped*, and that dichotomy is the whole routing
//! story:
//!
//! * **Point ops** (`CREATE-RECORD`, `*-BY-KEY`, `verify-deletion`) hash
//!   the key with [`shard_of`] and run on the owning shard only — the hot
//!   path pays one stable hash and then touches one shard's locks, so
//!   disjoint keys proceed in parallel instead of serializing through one
//!   global engine lock.
//! * **Predicate ops** (`*-BY-USR/PUR/OBJ/DEC/SHR`, `DELETE-RECORD-BY-TTL`)
//!   fan out to every shard and merge: counts sum, result sets concatenate
//!   and sort by key, so the response is deterministic whatever the shard
//!   topology. Read fan-out runs the shard probes *in parallel* on a
//!   per-engine worker pool (write fan-out stays sequential to preserve
//!   partial-failure semantics); the merge collects into shard-order slots
//!   first, so parallelism never leaks into the response. This is what
//!   makes shard count an *invisible* deployment knob:
//!   `ShardedEngine{N=1,2,8}` and the unsharded engine answer every query
//!   identically (pinned by `tests/proptests.rs`).
//!
//! Compliance semantics stay centralized: each shard *is* a full
//! [`ComplianceEngine`] (authorization, visibility, per-shard
//! [`crate::MetadataIndex`], TTL scrubbing), while the router keeps the one
//! unified [`AuditTrail`] — shards execute through the engine's internal
//! dispatch, so a fanned-out query still audits as a single G30 event and
//! `GET-SYSTEM-LOGS` reads one stream in execution order.
//!
//! Reopening persisted shards is guarded: the key→shard map depends only on
//! [`shard_of`], so a restart with a different shard count leaves records
//! in shards that no longer own them. [`ShardedEngine::verify_placement`]
//! turns that into a loud [`GdprError::ShardMisroute`] instead of silent
//! lookup misses, and [`ShardedEngine::rebalance`] migrates records to
//! their owners (preserving remaining TTL deadlines via
//! [`RecordStore::put_with_deadline`]).

use crate::audit::{AuditDraft, AuditTrail};
use crate::compliance::FeatureReport;
use crate::connector::SpaceReport;
use crate::engine::{audit_draft, ComplianceEngine};
use crate::error::{GdprError, GdprResult};
use crate::metaindex::IndexBatch;
use crate::query::{GdprQuery, MetadataUpdate};
use crate::response::GdprResponse;
use crate::role::Session;
use crate::store::{RecordPredicate, RecordStore};
use crate::telemetry::{OpTelemetry, OpTelemetrySnapshot};
use crate::tenant::TenantId;
use crate::GdprConnector;
use clock::SharedClock;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// The stable key→shard map: FNV-1a over the key bytes, mod `shard_count`.
/// Deliberately *not* a randomized hasher — the placement must be identical
/// across processes and restarts, or a reopened deployment would look up
/// keys in the wrong shard.
pub fn shard_of(key: &str, shard_count: usize) -> usize {
    debug_assert!(shard_count > 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shard_count as u64) as usize
}

/// The deployment's shard count from the `GDPR_SHARDS` environment
/// variable (CI runs the suite at 1 and 8 to enforce shard-count
/// invariance), defaulting to 4 and clamped to at least 1.
pub fn shard_count_from_env() -> usize {
    std::env::var("GDPR_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(4)
        .max(1)
}

/// A long-lived worker pool for predicate fan-out: one `FanoutPool` per
/// sharded engine, `min(shards, cores)` threads, fed boxed jobs over an
/// mpsc channel. Hand-rolled on threads + a shared receiver because the
/// offline build has no executor crate — the same reason the server
/// crate's connection pool is hand-rolled.
struct FanoutPool {
    sender: Mutex<Option<mpsc::Sender<FanJob>>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

type FanJob = Box<dyn FnOnce() + Send + 'static>;

impl FanoutPool {
    fn new(threads: usize) -> FanoutPool {
        let (sender, receiver) = mpsc::channel::<FanJob>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads.max(1))
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                std::thread::spawn(move || loop {
                    // Hold the lock only to dequeue; run the job unlocked so
                    // shard probes genuinely overlap.
                    let job = match receiver.lock().recv() {
                        Ok(job) => job,
                        Err(_) => return, // pool dropped
                    };
                    job();
                })
            })
            .collect();
        FanoutPool {
            sender: Mutex::new(Some(sender)),
            workers: Mutex::new(workers),
        }
    }

    fn submit(&self, job: FanJob) {
        if let Some(sender) = self.sender.lock().as_ref() {
            // Send can only fail after shutdown, which drops the receiver —
            // and shutdown happens strictly after the last submit.
            let _ = sender.send(job);
        }
    }
}

impl Drop for FanoutPool {
    fn drop(&mut self) {
        // Closing the channel is the shutdown signal; workers drain what
        // was already queued and exit on the recv error.
        *self.sender.lock() = None;
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

/// One tenant's router-side state: the unified audit stream (exactly one
/// event per executed query, whatever its fan-out — shards never audit on
/// their own) and the per-opcode telemetry table. Mirrors the unsharded
/// engine's per-tenant partitioning, so `GET-SYSTEM-LOGS` and `GetMetrics`
/// isolation hold identically behind a router.
struct RouterTenantState {
    audit: AuditTrail,
    telemetry: Arc<OpTelemetry>,
}

/// The router's tenant table: the default tenant's state is resolved
/// lock-free (the single-tenant hot path); named tenants go through one
/// RwLock-guarded map. Creation never fails — a [`TenantId`] is valid by
/// construction, and router state is just an empty trail + counters.
struct RouterTenants {
    clock: SharedClock,
    default_state: Arc<RouterTenantState>,
    extra: RwLock<BTreeMap<String, Arc<RouterTenantState>>>,
}

impl RouterTenants {
    fn new(clock: SharedClock) -> Arc<RouterTenants> {
        Arc::new(RouterTenants {
            default_state: Arc::new(RouterTenantState {
                audit: AuditTrail::new(clock.clone()),
                telemetry: Arc::new(OpTelemetry::new()),
            }),
            clock,
            extra: RwLock::new(BTreeMap::new()),
        })
    }

    fn state(&self, tenant: &TenantId) -> Arc<RouterTenantState> {
        if tenant.is_default() {
            return Arc::clone(&self.default_state);
        }
        if let Some(state) = self.extra.read().get(tenant.name()) {
            return Arc::clone(state);
        }
        let mut extra = self.extra.write();
        Arc::clone(extra.entry(tenant.name().to_string()).or_insert_with(|| {
            Arc::new(RouterTenantState {
                audit: AuditTrail::new(self.clock.clone()),
                telemetry: Arc::new(OpTelemetry::labeled(tenant.label())),
            })
        }))
    }
}

/// A compliance engine hash-partitioned across N inner engines, one store
/// (and optional metadata index) per shard.
pub struct ShardedEngine<S: RecordStore> {
    shards: Vec<Arc<ComplianceEngine<S>>>,
    /// Per-tenant audit streams and telemetry at the router, the
    /// deployment's entry point: every op (point, fanned-out, or system)
    /// is timed end-to-end here exactly once, under its session's tenant.
    /// The shards' own tables stay untouched — the router reaches them
    /// via `dispatch`, below their execute entry points.
    tenants: Arc<RouterTenants>,
    name: String,
    /// Workers for parallel predicate fan-out; `None` for a single shard,
    /// where fan-out degenerates to one probe.
    fanout: Option<FanoutPool>,
}

impl<S: RecordStore + 'static> ShardedEngine<S> {
    /// Shard each store behind a plain engine (predicates resolve by
    /// pushdown or scan within each shard).
    pub fn new(stores: Vec<S>) -> GdprResult<ShardedEngine<S>> {
        Self::build(stores.into_iter().map(ComplianceEngine::new).collect())
    }

    /// Shard each store behind an engine maintaining its own
    /// [`crate::MetadataIndex`]. Each shard's store expiry path is wired to
    /// invalidate *that shard's* index only — a TTL reap on one shard can
    /// never strand or scrub keys in another shard's index.
    pub fn with_metadata_index(stores: Vec<S>) -> GdprResult<ShardedEngine<S>> {
        let engines = stores
            .into_iter()
            .map(ComplianceEngine::with_metadata_index)
            .collect::<GdprResult<Vec<_>>>()?;
        Self::build(engines)
    }

    /// The snapshot-aware sharded open path: as
    /// [`Self::with_metadata_index`], but shard *i* recovers its index
    /// through the image at [`Self::shard_snapshot_path`]`(dir, i)` —
    /// O(index) per shard when the image matches that shard's store
    /// generation *and* was written as shard `i` of exactly this shard
    /// count (the topology is in the snapshot header). Reopening under a
    /// different count therefore rebuilds every shard's index from its
    /// store — the index-side analogue of [`Self::verify_placement`]'s
    /// misroute detection; run [`Self::rebalance`] to fix the store side,
    /// after which the rebuilt indexes are already correct.
    pub fn with_metadata_index_snapshots(
        stores: Vec<S>,
        dir: impl AsRef<std::path::Path>,
    ) -> GdprResult<ShardedEngine<S>> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| GdprError::Store(format!("index snapshot dir {dir:?}: {e}")))?;
        let count = stores.len();
        let engines = stores
            .into_iter()
            .enumerate()
            .map(|(i, store)| {
                ComplianceEngine::with_metadata_index_snapshot_at(
                    store,
                    Self::shard_snapshot_path(dir, i),
                    i as u32,
                    count as u32,
                )
            })
            .collect::<GdprResult<Vec<_>>>()?;
        Self::build(engines)
    }

    /// Where shard `i`'s index image lives under a snapshot directory.
    /// Names carry the shard index only (not the count): a reopen under a
    /// different count finds the same files and rejects them via the
    /// topology header instead of silently rebuilding against an empty
    /// path.
    pub fn shard_snapshot_path(dir: &std::path::Path, shard: usize) -> std::path::PathBuf {
        dir.join(format!("metaindex-shard-{shard}.snap"))
    }

    /// Persist every shard's index image now (stamped with each shard
    /// store's current generation). Returns total entries written.
    pub fn write_index_snapshots(&self) -> GdprResult<usize> {
        let mut total = 0;
        for shard in &self.shards {
            total += shard.write_index_snapshot()?;
        }
        Ok(total)
    }

    /// Graceful close: snapshot every shard's index when the engine was
    /// opened snapshot-aware, and flush every shard's store. Idempotent.
    pub fn close(&self) -> GdprResult<usize> {
        let mut total = 0;
        for shard in &self.shards {
            // Qualified: on an `Arc<ComplianceEngine>` plain `.close()`
            // resolves to the blanket `GdprConnector for Arc<T>` impl.
            total += ComplianceEngine::close(shard)?;
        }
        Ok(total)
    }

    fn build(shards: Vec<ComplianceEngine<S>>) -> GdprResult<ShardedEngine<S>> {
        let shards: Vec<Arc<ComplianceEngine<S>>> = shards.into_iter().map(Arc::new).collect();
        let Some(first) = shards.first() else {
            return Err(GdprError::Store(
                "a sharded engine needs at least one shard".to_string(),
            ));
        };
        // All shards must share one clock *instance*: wall clocks anchor
        // their epoch at construction, so timestamps (audit lines, absolute
        // TTL deadlines — which rebalance() carries between shards) from
        // different instances are not comparable. Fail loudly rather than
        // skew retention silently.
        let clock = first.store().clock();
        for shard in &shards[1..] {
            if !Arc::ptr_eq(&clock, &shard.store().clock()) {
                return Err(GdprError::Store(
                    "sharded engine: every shard must share one clock instance \
                     (open the stores with the same SharedClock)"
                        .to_string(),
                ));
            }
        }
        let name = format!("{}-sharded", first.store().name());
        // Parallel fan-out pays off only with something to overlap: cap the
        // workers at the machine's parallelism, skip the pool entirely for
        // one shard.
        let fanout = (shards.len() > 1).then(|| {
            let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
            FanoutPool::new(shards.len().min(cores.max(2)))
        });
        Ok(ShardedEngine {
            tenants: RouterTenants::new(clock),
            name,
            fanout,
            shards,
        })
    }

    /// Override the connector name (e.g. to distinguish a scan-backed from
    /// an index-backed sharded variant in reports).
    pub fn named(mut self, name: impl Into<String>) -> ShardedEngine<S> {
        self.name = name.into();
        self
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The inner engines, in shard order.
    pub fn shards(&self) -> &[Arc<ComplianceEngine<S>>] {
        &self.shards
    }

    /// The engine owning a **storage** key (the tenant-namespaced form a
    /// record is stored under).
    pub fn shard_for(&self, storage_key: &str) -> &ComplianceEngine<S> {
        &self.shards[shard_of(storage_key, self.shards.len())]
    }

    /// The engine owning `key` as seen by `session`'s tenant: routing
    /// hashes the storage key, the same bytes the owning shard's store
    /// keeps the record under — so placement, `verify_placement`, and
    /// `rebalance` (which hash stored keys) always agree, and a tenant's
    /// keyspace spreads independently of every other tenant's.
    fn shard_for_session(&self, session: &Session, key: &str) -> &ComplianceEngine<S> {
        if session.tenant.is_default() {
            self.shard_for(key)
        } else {
            self.shard_for(&session.tenant.storage_key(key))
        }
    }

    /// Is predicate fan-out running on the worker pool (vs sequentially)?
    pub fn parallel_fanout(&self) -> bool {
        self.fanout.is_some()
    }

    /// The default tenant's unified audit trail serving GET-SYSTEM-LOGS
    /// (the degenerate single-tenant stream).
    pub fn audit(&self) -> &AuditTrail {
        // The default state is never replaced, so handing out a borrow
        // through the Arc is sound for the engine's lifetime.
        &self.tenants.default_state.audit
    }

    /// The router's default-tenant per-opcode telemetry table.
    pub fn telemetry(&self) -> &Arc<OpTelemetry> {
        &self.tenants.default_state.telemetry
    }

    /// Pre-create `tenant`'s partitions on the router and on every shard
    /// (index partition, audit trail, telemetry) so first use doesn't pay
    /// the lazy-creation backfill.
    pub fn ensure_tenant(&self, tenant: &TenantId) -> GdprResult<()> {
        self.tenants.state(tenant);
        for shard in &self.shards {
            shard.ensure_tenant(tenant)?;
        }
        Ok(())
    }

    /// Per-tenant telemetry snapshots at the router, `"default"` first,
    /// then named tenants in name order.
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

    /// Execute one GDPR query, recording exactly one event in the
    /// caller's tenant's unified audit trail whatever the outcome or
    /// fan-out (G30).
    pub fn execute(&self, session: &Session, query: &GdprQuery) -> GdprResult<GdprResponse> {
        let state = self.tenants.state(&session.tenant);
        let started = Instant::now();
        let result = self.route(session, query);
        state
            .telemetry
            .record(query, started.elapsed(), result.is_err());
        state
            .audit
            .record_batch(vec![audit_draft(session, query, &result)]);
        result
    }

    /// Execute a batch of queries with per-op results and audit entries in
    /// op order — semantically identical to calling
    /// [`ShardedEngine::execute`] per op, but the router exploits the
    /// batch shape: consecutive *point* ops are segmented into per-shard
    /// runs that execute in parallel on the fan-out pool (each shard's run
    /// stays in op order, so same-key ops never reorder), while predicate
    /// and system ops act as barriers executed in place via the normal
    /// routing. A `GetSystemLogs` inside the batch flushes the pending
    /// audit entries first, so log reads observe their batch predecessors
    /// exactly as sequential execution would.
    pub fn execute_batch(&self, ops: Vec<(Session, GdprQuery)>) -> Vec<GdprResult<GdprResponse>> {
        let len = ops.len();
        let ops = Arc::new(ops);
        let mut results: Vec<Option<GdprResult<GdprResponse>>> = (0..len).map(|_| None).collect();
        // Pending audit drafts, grouped per tenant (ptr-identity on the
        // router state; batches hold a handful of tenants at most, so a
        // linear probe beats a map). Each tenant's group commits with one
        // timestamp, exactly like the unsharded engine's batching.
        let mut drafts: Vec<(Arc<RouterTenantState>, Vec<AuditDraft>)> = Vec::new();
        let push_draft = |drafts: &mut Vec<(Arc<RouterTenantState>, Vec<AuditDraft>)>,
                          state: &Arc<RouterTenantState>,
                          draft: AuditDraft| {
            match drafts.iter_mut().find(|(s, _)| Arc::ptr_eq(s, state)) {
                Some((_, group)) => group.push(draft),
                None => drafts.push((Arc::clone(state), vec![draft])),
            }
        };
        let mut i = 0;
        while i < len {
            if point_key(&ops[i].1).is_some() {
                let start = i;
                while i < len && point_key(&ops[i].1).is_some() {
                    i += 1;
                }
                self.run_point_segment(&ops, start, i, &mut results);
                for idx in start..i {
                    let (session, query) = &ops[idx];
                    let result = results[idx].as_ref().expect("segment filled every slot");
                    let state = self.tenants.state(&session.tenant);
                    push_draft(&mut drafts, &state, audit_draft(session, query, result));
                }
            } else {
                let (session, query) = &ops[i];
                let state = self.tenants.state(&session.tenant);
                if matches!(query, GdprQuery::GetSystemLogs { .. }) {
                    // Flush only the querying tenant's pending entries:
                    // its log read observes its own batch predecessors,
                    // and other tenants' drafts stay unflushed (their
                    // trails are invisible to this caller anyway).
                    if let Some((_, group)) =
                        drafts.iter_mut().find(|(s, _)| Arc::ptr_eq(s, &state))
                    {
                        state.audit.record_batch(std::mem::take(group));
                    }
                }
                let started = Instant::now();
                let result = self.route(session, query);
                state
                    .telemetry
                    .record(query, started.elapsed(), result.is_err());
                push_draft(&mut drafts, &state, audit_draft(session, query, &result));
                results[i] = Some(result);
                i += 1;
            }
        }
        for (state, group) in drafts {
            state.audit.record_batch(group);
        }
        results
            .into_iter()
            .map(|r| r.expect("every op answered"))
            .collect()
    }

    /// Execute `ops[start..end]` (all point ops) grouped by owning shard:
    /// each shard's group runs sequentially in op order (same-key ordering
    /// is the group's ordering); distinct shards overlap on the fan-out
    /// pool when more than one has work. Every slot in the range is filled.
    fn run_point_segment(
        &self,
        ops: &Arc<Vec<(Session, GdprQuery)>>,
        start: usize,
        end: usize,
        results: &mut [Option<GdprResult<GdprResponse>>],
    ) {
        let n = self.shards.len();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n];
        for idx in start..end {
            let (session, query) = &ops[idx];
            let key = point_key(query).expect("segment holds only point ops");
            let shard = if session.tenant.is_default() {
                shard_of(key, n)
            } else {
                shard_of(&session.tenant.storage_key(key), n)
            };
            groups[shard].push(idx);
        }
        let busy: Vec<usize> = (0..n).filter(|&s| !groups[s].is_empty()).collect();
        match &self.fanout {
            Some(pool) if busy.len() > 1 => {
                let (tx, rx) = mpsc::channel();
                for s in busy {
                    let group = std::mem::take(&mut groups[s]);
                    let shard = Arc::clone(&self.shards[s]);
                    let ops = Arc::clone(ops);
                    let tx = tx.clone();
                    let tenants = Arc::clone(&self.tenants);
                    pool.submit(Box::new(move || {
                        for idx in group {
                            let (session, query) = &ops[idx];
                            let started = Instant::now();
                            // A panicking op must neither hang the collector
                            // nor take its group's successors with it.
                            let result =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    shard.dispatch(session, query)
                                }))
                                .unwrap_or_else(|_| {
                                    Err(GdprError::Store("shard batch worker panicked".to_string()))
                                });
                            tenants.state(&session.tenant).telemetry.record(
                                query,
                                started.elapsed(),
                                result.is_err(),
                            );
                            let _ = tx.send((idx, result));
                        }
                    }));
                }
                drop(tx);
                for (idx, result) in rx {
                    results[idx] = Some(result);
                }
                for slot in results.iter_mut().take(end).skip(start) {
                    if slot.is_none() {
                        *slot = Some(Err(GdprError::Store(
                            "shard batch lost a worker response".to_string(),
                        )));
                    }
                }
            }
            _ => {
                for idx in start..end {
                    let (session, query) = &ops[idx];
                    let key = point_key(query).expect("segment holds only point ops");
                    let started = Instant::now();
                    let result = self
                        .shard_for_session(session, key)
                        .dispatch(session, query);
                    self.tenants.state(&session.tenant).telemetry.record(
                        query,
                        started.elapsed(),
                        result.is_err(),
                    );
                    results[idx] = Some(result);
                }
            }
        }
    }

    /// Point ops to the owning shard; predicate ops fanned out and merged;
    /// system queries answered by the router itself.
    fn route(&self, session: &Session, query: &GdprQuery) -> GdprResult<GdprResponse> {
        use GdprQuery::*;
        match query {
            CreateRecord(record) => self
                .shard_for_session(session, &record.key)
                .dispatch(session, query),
            DeleteByKey(key)
            | ReadDataByKey(key)
            | ReadMetadataByKey(key)
            | VerifyDeletion(key)
            | UpdateDataByKey { key, .. }
            | UpdateMetadataByKey { key, .. } => self
                .shard_for_session(session, key)
                .dispatch(session, query),

            // The audit stream is the router's (the caller's tenant's
            // slice of it), not any shard's.
            GetSystemLogs { from_ms, to_ms } => {
                crate::acl::authorize(session, query)?;
                Ok(GdprResponse::Logs(
                    self.tenants
                        .state(&session.tenant)
                        .audit
                        .lines_between(*from_ms, *to_ms),
                ))
            }
            // Shards are homogeneous; any one speaks for the posture.
            GetSystemFeatures => self.shards[0].dispatch(session, query),

            DeleteByPurpose(_)
            | DeleteExpired
            | DeleteByUser(_)
            | ReadDataByPurpose(_)
            | ReadDataByUser(_)
            | ReadDataNotObjecting(_)
            | ReadDataDecisionEligible
            | ReadMetadataByUser(_)
            | ReadMetadataBySharedWith(_)
            | UpdateMetadataByPurpose { .. }
            | UpdateMetadataByUser { .. } => self.fan_out(session, query),
        }
    }

    /// Run a predicate query on every shard and merge deterministically.
    ///
    /// *Reads* fan out in parallel on the worker pool: shard probes are
    /// independent, results are collected into shard-order slots before
    /// merging, and on failure the lowest-indexed shard's error is returned
    /// — so the response (and the merge order) never depends on thread
    /// timing. *Writes* stay sequential: a mid-fan-out failure must leave
    /// the same partial progress as the unsharded engine failing
    /// mid-iteration, and parallel shards would smear partial updates
    /// across all of them.
    ///
    /// Group metadata updates additionally **pre-validate on every shard
    /// before any shard commits**: the unsharded engine's
    /// validate-all-then-commit means an update invalid for any match
    /// mutates nothing, and that guarantee must not depend on which shard
    /// the offending record hashes to — without the pre-pass, shards
    /// before the failing one would commit while the caller sees `Err`,
    /// breaking shard-count invariance. The pre-pass reads each shard's
    /// matches a second time (index-resolved, so O(matches) per shard) —
    /// the price of the cross-shard guarantee; a single shard skips it,
    /// since shard-local validate-all-then-commit already covers one
    /// engine. The pre-pass validates a *snapshot*: a write racing the
    /// group update (e.g. a point create landing between validation and a
    /// later shard's commit) is re-validated by that shard's own
    /// validate-all-then-commit and can still fail the group after
    /// earlier shards committed — the same snapshot semantics as any
    /// non-transactional engine; the all-or-nothing guarantee is about
    /// the state the update observed, not about writes racing it.
    fn fan_out(&self, session: &Session, query: &GdprQuery) -> GdprResult<GdprResponse> {
        if self.shards.len() > 1 {
            if let Some((pred, update)) = group_update_of(query) {
                // Only data-dependent updates can fail on a later shard
                // after an earlier one committed; for every other update
                // shape, validation failure is uniform across records and
                // shard-local validate-all-then-commit already yields
                // all-or-nothing — skipping the pre-pass avoids reading
                // every match twice on the common group updates. And only
                // pre-validate what the session may actually execute: an
                // authorization failure must surface as AccessDenied from
                // the dispatch below, exactly as the unsharded engine
                // orders its errors (authorize → validate → commit).
                if update.validation_is_data_dependent()
                    && crate::acl::authorize(session, query).is_ok()
                {
                    for shard in &self.shards {
                        shard.validate_update(&session.tenant, &pred, update)?;
                    }
                }
            }
        }
        let results: Vec<GdprResult<GdprResponse>> = match &self.fanout {
            Some(pool) if !query.is_write() => {
                let (tx, rx) = mpsc::channel();
                for (i, shard) in self.shards.iter().enumerate() {
                    let shard = Arc::clone(shard);
                    let session = session.clone();
                    let query = query.clone();
                    let tx = tx.clone();
                    pool.submit(Box::new(move || {
                        // A panicking shard must not hang the collector: it
                        // still reports, as a loud store error.
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            shard.dispatch(&session, &query)
                        }))
                        .unwrap_or_else(|_| {
                            Err(GdprError::Store(
                                "shard fan-out worker panicked".to_string(),
                            ))
                        });
                        let _ = tx.send((i, result));
                    }));
                }
                drop(tx);
                let mut slots: Vec<Option<GdprResult<GdprResponse>>> =
                    (0..self.shards.len()).map(|_| None).collect();
                for (i, result) in rx {
                    slots[i] = Some(result);
                }
                if slots.iter().any(Option::is_none) {
                    return Err(GdprError::Store(
                        "shard fan-out lost a worker response".to_string(),
                    ));
                }
                slots.into_iter().flatten().collect()
            }
            _ => {
                let mut results = Vec::with_capacity(self.shards.len());
                for shard in &self.shards {
                    results.push(shard.dispatch(session, query));
                    if results.last().is_some_and(Result::is_err) {
                        break;
                    }
                }
                results
            }
        };
        let mut responses = Vec::with_capacity(results.len());
        for result in results {
            responses.push(result?);
        }
        merge_responses(responses)
    }

    /// Check that every stored record lives in the shard [`shard_of`]
    /// assigns it — the guard to run after reopening persisted shards.
    pub fn verify_placement(&self) -> GdprResult<()> {
        let n = self.shards.len();
        for (found_in, shard) in self.shards.iter().enumerate() {
            for record in shard.store().scan()? {
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

    /// Migrate every misplaced record to its owning shard, returning how
    /// many moved. Remaining TTL deadlines survive the move (a migration
    /// must not extend retention), per-shard indexes are kept consistent on
    /// both sides, and a collision in the destination shard fails loudly
    /// with both copies intact rather than overwriting either.
    ///
    /// Index maintenance is coalesced into one [`IndexBatch`] per shard,
    /// applied after the store migration (one lock acquisition per shard
    /// instead of two per moved record) — and applied even when a store op
    /// fails mid-migration, so every index tracks exactly the committed
    /// moves. Rebalance is a restart-time admin operation: it is not meant
    /// to run concurrently with predicate traffic (batching widens the
    /// window in which a moved record is queryable by key but not yet in
    /// its new shard's index; stale source entries are filtered on read as
    /// always).
    pub fn rebalance(&self) -> GdprResult<usize> {
        let n = self.shards.len();
        let now_ms = self.shards[0].store().clock().now().as_millis();
        let mut moved = 0;
        let mut batches: Vec<IndexBatch> = (0..n).map(|_| IndexBatch::new()).collect();
        let mut migrate = || -> GdprResult<()> {
            for (i, shard) in self.shards.iter().enumerate() {
                for record in shard.store().scan()? {
                    let owner = shard_of(&record.key, n);
                    if owner == i {
                        continue;
                    }
                    // The source store's remaining deadline is
                    // authoritative; stores that track none fall back to
                    // `now + declared TTL` so a TTL'd record still enters
                    // the destination's expiry set instead of being
                    // retained forever (same contract as index backfill in
                    // `with_metadata_index`).
                    let deadline_ms = shard.store().deadline_ms(&record.key).or_else(|| {
                        record
                            .metadata
                            .ttl
                            .map(|ttl| now_ms + ttl.as_millis() as u64)
                    });
                    self.shards[owner]
                        .store()
                        .put_with_deadline(&record, deadline_ms)?;
                    // The batch keeps only key + metadata (no payload
                    // copy); the record is moved in, so only its key is
                    // cloned for the source-side delete and removal.
                    let key = record.key.clone();
                    batches[owner].upsert_at(record, deadline_ms);
                    shard.store().delete(&key)?;
                    batches[i].remove(key);
                    moved += 1;
                }
            }
            Ok(())
        };
        let result = migrate();
        for (shard, batch) in self.shards.iter().zip(batches) {
            shard.apply_index_batch(batch);
        }
        result.map(|()| moved)
    }
}

/// The routing key of a key-scoped (point) op, `None` for everything that
/// must act as a batch barrier (predicate fan-outs and system queries).
fn point_key(query: &GdprQuery) -> Option<&str> {
    use GdprQuery::*;
    match query {
        CreateRecord(record) => Some(&record.key),
        DeleteByKey(key)
        | ReadDataByKey(key)
        | ReadMetadataByKey(key)
        | VerifyDeletion(key)
        | UpdateDataByKey { key, .. }
        | UpdateMetadataByKey { key, .. } => Some(key),
        _ => None,
    }
}

/// The predicate + update of a *group* metadata update — the two query
/// classes whose validate-all-then-commit guarantee spans shards.
fn group_update_of(query: &GdprQuery) -> Option<(RecordPredicate, &MetadataUpdate)> {
    match query {
        GdprQuery::UpdateMetadataByPurpose { purpose, update } => {
            Some((RecordPredicate::DeclaredPurpose(purpose.clone()), update))
        }
        GdprQuery::UpdateMetadataByUser { user, update } => {
            Some((RecordPredicate::User(user.clone()), update))
        }
        _ => None,
    }
}

/// Merge per-shard responses of one query class into the canonical form:
/// counts sum, result sets concatenate and sort by key (timestamp for
/// logs), so the merged response is independent of shard count and order.
fn merge_responses(results: Vec<GdprResponse>) -> GdprResult<GdprResponse> {
    use GdprResponse::*;
    let mut iter = results.into_iter();
    let mut acc = iter
        .next()
        .ok_or_else(|| GdprError::Store("merge of zero shard responses".to_string()))?;
    for resp in iter {
        acc = match (acc, resp) {
            (Deleted(a), Deleted(b)) => Deleted(a + b),
            (Updated(a), Updated(b)) => Updated(a + b),
            (Data(mut a), Data(b)) => {
                a.extend(b);
                Data(a)
            }
            (Metadata(mut a), Metadata(b)) => {
                a.extend(b);
                Metadata(a)
            }
            (Records(mut a), Records(b)) => {
                a.extend(b);
                Records(a)
            }
            (Logs(mut a), Logs(b)) => {
                a.extend(b);
                Logs(a)
            }
            (a, b) => {
                return Err(GdprError::Store(format!(
                    "shard response shape mismatch: {a:?} vs {b:?}"
                )))
            }
        };
    }
    match &mut acc {
        Data(pairs) => pairs.sort(),
        Metadata(pairs) => pairs.sort_by(|x, y| x.0.cmp(&y.0)),
        Records(records) => records.sort_by(|x, y| x.key.cmp(&y.key)),
        Logs(lines) => lines.sort_by_key(|l| l.timestamp_ms),
        _ => {}
    }
    Ok(acc)
}

/// A sharded engine is a connector like any other; callers cannot tell a
/// router from a single engine (the whole point).
impl<S: RecordStore + 'static> GdprConnector for ShardedEngine<S> {
    fn execute(&self, session: &Session, query: &GdprQuery) -> GdprResult<GdprResponse> {
        ShardedEngine::execute(self, session, query)
    }

    fn execute_batch(&self, ops: Vec<(Session, GdprQuery)>) -> Vec<GdprResult<GdprResponse>> {
        ShardedEngine::execute_batch(self, ops)
    }

    fn features(&self) -> FeatureReport {
        self.shards[0].store().features()
    }

    fn space_report(&self) -> SpaceReport {
        let mut total = SpaceReport::default();
        for shard in &self.shards {
            let report = shard.store().space_report();
            total.personal_data_bytes += report.personal_data_bytes;
            total.total_bytes += report.total_bytes;
        }
        total
    }

    fn record_count(&self) -> usize {
        self.shards.iter().map(|s| s.store().record_count()).sum()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn close(&self) -> GdprResult<()> {
        ShardedEngine::close(self).map(|_| ())
    }

    fn op_telemetry(&self) -> Option<OpTelemetrySnapshot> {
        // Deployment-wide: every tenant's router counters merged.
        let mut merged = self.tenants.default_state.telemetry.snapshot();
        for state in self.tenants.extra.read().values() {
            merged.merge(&state.telemetry.snapshot());
        }
        Some(merged)
    }

    fn op_telemetry_for(&self, tenant: &TenantId) -> Option<OpTelemetrySnapshot> {
        if tenant.is_default() {
            return Some(self.tenants.default_state.telemetry.snapshot());
        }
        // Lookup only — a metrics probe must not create tenant state.
        self.tenants
            .extra
            .read()
            .get(tenant.name())
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
    use crate::error::GdprError;
    use crate::record::{Metadata, PersonalRecord};
    use crate::store::RecordPredicate;
    use clock::SharedClock;
    use parking_lot::Mutex;
    use std::collections::BTreeMap;
    use std::time::Duration;

    /// The same trivial in-memory store the engine tests use, plus a
    /// native deadline table so `put_with_deadline` is exercised.
    struct MemStore {
        rows: Mutex<BTreeMap<String, PersonalRecord>>,
        deadlines: Mutex<BTreeMap<String, u64>>,
        clock: SharedClock,
    }

    impl MemStore {
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

    fn sharded(n: usize) -> ShardedEngine<MemStore> {
        let clock = clock::sim();
        ShardedEngine::with_metadata_index(
            (0..n)
                .map(|_| MemStore::with_clock(clock.clone()))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn shard_of_is_stable_and_total() {
        // Pinned values: the placement function is a persistence format —
        // changing the hash (or its constants) silently would misroute
        // every reopened deployment, so the literal FNV-1a outputs are
        // asserted here.
        assert_eq!(shard_of("ph-1", 4), 3);
        assert_eq!(shard_of("user-17", 4), 1);
        assert_eq!(shard_of("user-17", 8), 1);
        assert_eq!(shard_of("k0", 8), 6);
        assert_eq!(shard_of("", 8), 5);
        for n in 1..9 {
            for key in ["a", "user-17", "ph-3", ""] {
                assert!(shard_of(key, n) < n);
            }
        }
        assert_eq!(shard_of("anything", 1), 0);
        // Keys actually spread: 64 keys over 8 shards must hit every shard.
        let mut hit = [false; 8];
        for i in 0..64 {
            hit[shard_of(&format!("k{i}"), 8)] = true;
        }
        assert!(hit.iter().all(|h| *h), "FNV spread degenerate: {hit:?}");
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
        for shard in engine.shards() {
            assert_eq!(shard.audit().len(), 0, "shards must not audit");
        }
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
        let two = ShardedEngine::with_metadata_index(stores).unwrap();
        two.verify_placement().unwrap();

        // "Restart" the same stores as a 3-shard deployment.
        let rows: Vec<BTreeMap<String, PersonalRecord>> = two
            .shards()
            .iter()
            .map(|s| s.store().rows.lock().clone())
            .collect();
        let stores: Vec<MemStore> = (0..3)
            .map(|_| MemStore::with_clock(clock.clone()))
            .collect();
        for (i, shard_rows) in rows.into_iter().enumerate() {
            for r in shard_rows.into_values() {
                stores[i].put(&r).unwrap();
            }
        }
        let three = ShardedEngine::with_metadata_index(stores).unwrap();
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
        for (i, shard) in three.shards().iter().enumerate() {
            let index = shard.metadata_index().unwrap();
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
        let engine = ShardedEngine::with_metadata_index(stores).unwrap();
        assert_eq!(engine.rebalance().unwrap(), 1);
        assert_eq!(
            engine.shards()[owner].store().deadline_ms("k-ttl"),
            Some(10_000),
            "migration must keep the remaining deadline, not re-arm the full TTL"
        );
        assert_eq!(
            engine.shards()[owner]
                .metadata_index()
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
        let scan = ShardedEngine::new(
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
        assert!(indexed.shards()[0]
            .metadata_index()
            .unwrap()
            .keys_for(&RecordPredicate::User("neo".into()))
            .is_some());
    }

    #[test]
    fn parallel_fanout_runs_on_multi_shard_engines_only() {
        assert!(
            !sharded(1).parallel_fanout(),
            "one shard has nothing to overlap"
        );
        let engine = sharded(8);
        assert!(engine.parallel_fanout());
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
            let stored = engine.shard_for(key).store().fetch(key).unwrap().unwrap();
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
            ShardedEngine::<MemStore>::new(Vec::new()),
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
            ShardedEngine::new(stores),
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
        let engine = ShardedEngine::new(stores).unwrap();
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

    /// The no-double-count invariant: the router records every op exactly
    /// once — across single-op execute, the parallel point-segment path,
    /// and fanned-out predicates — and the shards' own tables stay empty
    /// (the router reaches them via `dispatch`, below their telemetry).
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
            // Shard-inner tables must be empty, or GetMetrics would
            // double-report at shard counts > 1.
            for shard in engine.shards() {
                assert_eq!(shard.telemetry().snapshot().total_ops(), 0);
            }
        }
    }
}
