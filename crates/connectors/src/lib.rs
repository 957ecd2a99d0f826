//! Storage backends for the shared GDPR compliance engine.
//!
//! The paper adds per-database client stubs to GDPRbench (§4.3: "~400 LoC
//! for Redis and PostgreSQL clients"); in this reproduction the entire
//! GDPR layer — authorization, record visibility, audit logging, and the
//! one `GdprQuery` dispatch — lives in [`gdpr_core::ComplianceEngine`],
//! which hash-partitions records across one or more stores, and each
//! database contributes only a narrow [`gdpr_core::RecordStore`] backend:
//!
//! * [`redis::RedisStore`] — records live as wire-format strings under
//!   `rec:<key>` with native `EXPIRE` for TTL, and AOF sync on close. The
//!   store has **no secondary indexes**: without an engine index every
//!   metadata predicate is SCAN+filter (the O(n) behaviour behind Figures
//!   5a and 7b); with one, the engine's [`gdpr_core::MetadataIndex`]
//!   answers in O(matches), store-side expirations invalidating entries.
//! * [`postgres::PostgresStore`] — one `personal_data` table with a column
//!   per metadata attribute (arrays for multi-valued ones), pushing every
//!   predicate down to relstore's planner. In baseline form only the
//!   primary key is indexed (metadata queries seq-scan, Figure 5b); the
//!   `-mi` form indexes every metadata column (Figure 5c) at the space
//!   cost Table 3 reports.
//! * [`disk::DiskStore`] — records in a paged on-disk B+tree with a buffer
//!   pool and a checksummed WAL, checkpointed on close, so the dataset no
//!   longer has to fit in RAM.
//!
//! Every in-process variant is one [`Connector`] over one engine: a
//! single generic wrapper forwards the whole [`gdpr_core::GdprConnector`]
//! surface (batch execution included) to the engine, so behaviour is
//! defined once and the conformance suite holds for every backend by
//! construction. The per-backend names ([`RedisConnector`],
//! [`PostgresConnector`], [`DiskConnector`]) are aliases carrying only
//! their constructors and store accessors. The `sharded_*` constructors put
//! N independent stores behind the same engine: point ops go to the owning
//! partition, predicates fan out and merge deterministically, and one
//! audit trail per tenant spans the partitions; partition count is
//! semantically invisible, and one store is the unsharded case.
//!
//! [`remote::RemoteConnector`] is not a storage backend but a *network
//! client*: a pool of [`remote::GdprClient`] connections speaking the
//! `gdpr-server` wire protocol behind the same interface. Any variant,
//! served by `gdpr-serve`, is drivable over loopback or a real network;
//! the conformance suite runs every variant both in-process and
//! remote-wrapped to pin byte-equivalence.
//!
//! [`registry::VARIANTS`] lists every in-process variant by its
//! driver-facing name.

pub mod disk;
pub mod postgres;
pub mod redis;
pub mod registry;
pub mod remote;

pub use disk::{DiskConnector, DiskStore};
pub use postgres::{PostgresConnector, PostgresStore};
pub use redis::{RedisConnector, RedisStore};
pub use remote::{GdprClient, RemoteConnector};

use gdpr_core::audit::AuditTrail;
use gdpr_core::compliance::FeatureReport;
use gdpr_core::connector::SpaceReport;
use gdpr_core::error::GdprResult;
use gdpr_core::metaindex::MetadataIndex;
use gdpr_core::query::GdprQuery;
use gdpr_core::response::GdprResponse;
use gdpr_core::role::Session;
use gdpr_core::store::RecordStore;
use gdpr_core::telemetry::OpTelemetrySnapshot;
use gdpr_core::tenant::TenantId;
use gdpr_core::{ComplianceEngine, GdprConnector, IndexRecovery};
use std::sync::Arc;

/// A GDPR connector over one [`ComplianceEngine`]. The wrapper exists so
/// each backend can carry its own constructors and store accessors as
/// inherent methods (Rust's orphan rule forbids those on the engine type
/// from this crate).
pub struct Connector<S: RecordStore> {
    engine: ComplianceEngine<S>,
}

impl<S: RecordStore + 'static> Connector<S> {
    /// The engine behind the connector (placement checks, rebalancing,
    /// graceful close).
    pub fn engine(&self) -> &ComplianceEngine<S> {
        &self.engine
    }

    /// The default tenant's audit trail.
    pub fn audit(&self) -> &AuditTrail {
        self.engine.audit()
    }

    /// The default tenant's metadata index over the first partition — the
    /// whole index of an unsharded variant (present on the indexed
    /// variants).
    pub fn metadata_index(&self) -> Option<&Arc<MetadataIndex>> {
        self.engine.metadata_index()
    }

    /// The default tenant's metadata index over one partition.
    pub fn metadata_index_at(&self, partition: usize) -> Option<&Arc<MetadataIndex>> {
        self.engine.metadata_index_at(partition)
    }

    pub fn shard_count(&self) -> usize {
        self.engine.shard_count()
    }

    /// How one partition's index came up (snapshot-aware variants only).
    pub fn index_recovery(&self, partition: usize) -> Option<&IndexRecovery> {
        self.engine.index_recovery(partition)
    }

    /// Persist every partition's index snapshot now (snapshot-aware
    /// variants only). Returns total entries written.
    pub fn write_index_snapshot(&self) -> GdprResult<usize> {
        self.engine.write_index_snapshot()
    }
}

impl<S: RecordStore + 'static> GdprConnector for Connector<S> {
    fn execute(&self, session: &Session, query: &GdprQuery) -> GdprResult<GdprResponse> {
        self.engine.execute(session, query)
    }

    fn execute_batch(&self, ops: Vec<(Session, GdprQuery)>) -> Vec<GdprResult<GdprResponse>> {
        self.engine.execute_batch(ops)
    }

    fn features(&self) -> FeatureReport {
        self.engine.features()
    }

    fn space_report(&self) -> SpaceReport {
        self.engine.space_report()
    }

    fn record_count(&self) -> usize {
        self.engine.record_count()
    }

    fn name(&self) -> &str {
        self.engine.name()
    }

    fn close(&self) -> GdprResult<()> {
        GdprConnector::close(&self.engine)
    }

    fn op_telemetry(&self) -> Option<OpTelemetrySnapshot> {
        self.engine.op_telemetry()
    }

    fn op_telemetry_for(&self, tenant: &TenantId) -> Option<OpTelemetrySnapshot> {
        self.engine.op_telemetry_for(tenant)
    }

    fn tenant_telemetry(&self) -> Vec<(String, OpTelemetrySnapshot)> {
        self.engine.tenant_telemetry()
    }

    fn provision_tenant(&self, tenant: &TenantId) -> GdprResult<()> {
        self.engine.provision_tenant(tenant)
    }
}

#[cfg(test)]
mod conformance;
