//! In-memory span recording around calls into the program's layers.
//!
//! Spans are recorded only by this benchmark's own code: the client loop
//! (one `client` span per op), [`ServedSpans`] around the served engine
//! (one `server.engine` span per executed batch) and [`TracedStore`]
//! around every `RecordStore` call the engine makes. A span opened on a
//! thread becomes the parent of spans opened on the same thread until it
//! closes; spans across the wire pair up by order, which holds because
//! the benchmark drives one connection closed-loop.

use gdprbench_repro::connectors::DiskStore;
use gdprbench_repro::gdpr_core::compliance::FeatureReport;
use gdprbench_repro::gdpr_core::connector::SpaceReport;
use gdprbench_repro::gdpr_core::error::GdprResult;
use gdprbench_repro::gdpr_core::store::{ExpiryListener, RecordPredicate, RecordStore};
use gdprbench_repro::gdpr_core::telemetry::OpTelemetrySnapshot;
use gdprbench_repro::gdpr_core::{
    EngineHandle, GdprConnector, GdprQuery, GdprResponse, PersonalRecord, Session, TenantId,
};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const CLIENT: &str = "client";
pub const SERVER: &str = "server.engine";
pub const STORE_FETCH: &str = "store.fetch";
pub const STORE_PUT: &str = "store.put";
pub const STORE_REWRITE: &str = "store.rewrite";
pub const STORE_DELETE: &str = "store.delete";
pub const STORE_OTHER: &str = "store.other";

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span open on this thread when this one started (0 = root).
    pub parent: u64,
    /// Request id: the op's index on client spans, the batch sequence on
    /// server spans, the parent's request id on store spans.
    pub req: u64,
    pub name: &'static str,
    /// `GdprQuery::name()` of the op, on client spans.
    pub op: &'static str,
    /// Ops the span covers (a server batch can carry several).
    pub width: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// `(span id, request id)` of the span open on this thread.
    static CURRENT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; spans opened on this thread meanwhile are
    /// its children. Returns `f`'s result and the span's duration.
    pub fn in_span<R>(
        &self,
        name: &'static str,
        op: &'static str,
        req: u64,
        width: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let prev = CURRENT.replace(Some((id, req)));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        CURRENT.set(prev);
        self.spans.lock().expect("span buffer poisoned").push(Span {
            id,
            parent: prev.map_or(0, |(p, _)| p),
            req,
            name,
            op,
            width,
            start_ns,
            end_ns,
        });
        (out, end_ns - start_ns)
    }

    /// A child of the span open on this thread; untraced when none is
    /// open (corpus loading, space accounting).
    pub fn child<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match CURRENT.get() {
            Some((_, req)) => self.in_span(name, "", req, 1, f).0,
            None => f(),
        }
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// The served engine as `GdprServer` sees it, with one span per executed
/// batch. Everything else forwards unchanged.
pub struct ServedSpans {
    pub inner: EngineHandle,
    pub tracer: Arc<Tracer>,
    pub seq: AtomicU64,
}

impl GdprConnector for ServedSpans {
    fn execute(&self, session: &Session, query: &GdprQuery) -> GdprResult<GdprResponse> {
        let req = self.seq.fetch_add(1, Ordering::Relaxed);
        self.tracer
            .in_span(SERVER, "", req, 1, || self.inner.execute(session, query))
            .0
    }

    fn execute_batch(&self, ops: Vec<(Session, GdprQuery)>) -> Vec<GdprResult<GdprResponse>> {
        let req = self.seq.fetch_add(ops.len() as u64, Ordering::Relaxed);
        let width = ops.len() as u32;
        self.tracer
            .in_span(SERVER, "", req, width, || self.inner.execute_batch(ops))
            .0
    }

    fn features(&self) -> FeatureReport {
        self.inner.features()
    }

    fn space_report(&self) -> SpaceReport {
        self.inner.space_report()
    }

    fn record_count(&self) -> usize {
        self.inner.record_count()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn close(&self) -> GdprResult<()> {
        self.inner.close()
    }

    fn op_telemetry(&self) -> Option<OpTelemetrySnapshot> {
        self.inner.op_telemetry()
    }

    fn op_telemetry_for(&self, tenant: &TenantId) -> Option<OpTelemetrySnapshot> {
        self.inner.op_telemetry_for(tenant)
    }

    fn tenant_telemetry(&self) -> Vec<(String, OpTelemetrySnapshot)> {
        self.inner.tenant_telemetry()
    }

    fn provision_tenant(&self, tenant: &TenantId) -> GdprResult<()> {
        self.inner.provision_tenant(tenant)
    }
}

/// `DiskStore` with a span around every call the engine makes — placed
/// where `DiskConnector` places the bare `DiskStore`.
pub struct TracedStore {
    pub inner: DiskStore,
    pub tracer: Arc<Tracer>,
}

impl RecordStore for TracedStore {
    fn clock(&self) -> gdprbench_repro::clock::SharedClock {
        self.inner.clock()
    }

    fn fetch(&self, key: &str) -> GdprResult<Option<PersonalRecord>> {
        self.tracer.child(STORE_FETCH, || self.inner.fetch(key))
    }

    fn put(&self, record: &PersonalRecord) -> GdprResult<()> {
        self.tracer.child(STORE_PUT, || self.inner.put(record))
    }

    fn rewrite(&self, record: &PersonalRecord, ttl_changed: bool) -> GdprResult<()> {
        self.tracer
            .child(STORE_REWRITE, || self.inner.rewrite(record, ttl_changed))
    }

    fn delete(&self, key: &str) -> GdprResult<bool> {
        self.tracer.child(STORE_DELETE, || self.inner.delete(key))
    }

    fn scan(&self) -> GdprResult<Vec<PersonalRecord>> {
        self.tracer.child(STORE_OTHER, || self.inner.scan())
    }

    fn purge_expired(&self) -> GdprResult<usize> {
        self.tracer
            .child(STORE_OTHER, || self.inner.purge_expired())
    }

    fn expired_keys(&self) -> GdprResult<Vec<String>> {
        self.tracer.child(STORE_OTHER, || self.inner.expired_keys())
    }

    fn deadline_ms(&self, key: &str) -> Option<u64> {
        self.tracer
            .child(STORE_OTHER, || self.inner.deadline_ms(key))
    }

    fn put_with_deadline(
        &self,
        record: &PersonalRecord,
        deadline_ms: Option<u64>,
    ) -> GdprResult<()> {
        self.tracer.child(STORE_PUT, || {
            self.inner.put_with_deadline(record, deadline_ms)
        })
    }

    fn persistence_generation(&self) -> Option<u64> {
        self.inner.persistence_generation()
    }

    fn select(&self, pred: &RecordPredicate) -> Option<GdprResult<Vec<PersonalRecord>>> {
        self.tracer.child(STORE_OTHER, || self.inner.select(pred))
    }

    fn delete_matching(&self, pred: &RecordPredicate) -> Option<GdprResult<usize>> {
        self.tracer
            .child(STORE_OTHER, || self.inner.delete_matching(pred))
    }

    fn on_expiry(&self, listener: ExpiryListener) {
        self.inner.on_expiry(listener)
    }

    fn space_report(&self) -> SpaceReport {
        self.inner.space_report()
    }

    fn record_count(&self) -> usize {
        self.inner.record_count()
    }

    fn features(&self) -> FeatureReport {
        self.inner.features()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Per-op layer times derived from one traced run's spans.
#[derive(Debug, Default)]
pub struct Breakdown {
    pub ops: u64,
    pub client_ns: u64,
    /// Server-side engine span time (0 in-process).
    pub server_ns: u64,
    pub transport_self_ns: u64,
    pub engine_self_ns: u64,
    pub store_self_ns: u64,
    pub store_calls: u64,
    /// Store time by span name.
    pub store_by_name: BTreeMap<&'static str, u64>,
    /// Engine span durations by query name (server span over the wire,
    /// client span in-process).
    pub engine_by_op: BTreeMap<&'static str, Vec<u64>>,
}

/// Length of the union of `children` intervals clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Attribute every span to its layer. Self time is a span's duration
/// minus the part its children cover, so per op the layer self times sum
/// exactly to the client span.
pub fn breakdown(spans: &[Span]) -> Result<Breakdown, String> {
    let mut clients: Vec<&Span> = spans.iter().filter(|s| s.name == CLIENT).collect();
    let mut servers: Vec<&Span> = spans.iter().filter(|s| s.name == SERVER).collect();
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let mut b = Breakdown::default();
    let req_of: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.req)).collect();
    for s in spans.iter().filter(|s| s.name.starts_with("store.")) {
        if req_of.get(&s.parent) != Some(&s.req) {
            return Err(format!(
                "{} span {} has no parent in its request",
                s.name, s.id
            ));
        }
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
        *b.store_by_name.entry(s.name).or_default() += s.dur_ns();
        b.store_calls += 1;
    }
    clients.sort_by_key(|s| s.start_ns);
    servers.sort_by_key(|s| s.start_ns);
    if !servers.is_empty()
        && (servers.len() != clients.len() || servers.iter().any(|s| s.width != 1))
    {
        return Err(format!(
            "cannot pair {} server spans with {} client spans one to one",
            servers.len(),
            clients.len()
        ));
    }
    for (i, client) in clients.iter().enumerate() {
        let engine = servers.get(i).copied().unwrap_or(client);
        if engine.start_ns < client.start_ns || engine.end_ns > client.end_ns {
            return Err(format!(
                "server span {} lies outside client span {}",
                engine.id, client.id
            ));
        }
        let store = covered_ns(
            engine.start_ns,
            engine.end_ns,
            children
                .get_mut(&engine.id)
                .map_or(&mut [][..], |v| &mut v[..]),
        );
        b.ops += 1;
        b.client_ns += client.dur_ns();
        if !servers.is_empty() {
            b.server_ns += engine.dur_ns();
        }
        b.transport_self_ns += client.dur_ns() - engine.dur_ns();
        b.engine_self_ns += engine.dur_ns() - store;
        b.store_self_ns += store;
        b.engine_by_op
            .entry(client.op)
            .or_default()
            .push(engine.dur_ns());
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, req: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req,
            name,
            op: "read-data-by-key",
            width: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_times_sum_to_the_client_span() {
        // One wire op (client 0..100, server 10..90 with store 20..30
        // and 25..40 overlapping) and one op whose server span is bare.
        let spans = vec![
            span(1, 0, 0, CLIENT, 0, 100),
            span(2, 0, 0, SERVER, 10, 90),
            span(3, 2, 0, STORE_FETCH, 20, 30),
            span(4, 2, 0, STORE_REWRITE, 25, 40),
            span(5, 0, 1, CLIENT, 200, 260),
            span(6, 0, 1, SERVER, 210, 250),
        ];
        let b = breakdown(&spans).unwrap();
        assert_eq!(b.ops, 2);
        assert_eq!(b.client_ns, 160);
        assert_eq!(b.store_self_ns, 20);
        assert_eq!(b.engine_self_ns, 60 + 40);
        assert_eq!(b.transport_self_ns, 20 + 20);
        assert_eq!(
            b.transport_self_ns + b.engine_self_ns + b.store_self_ns,
            b.client_ns
        );
        assert_eq!(b.store_calls, 2);
        assert_eq!(b.engine_by_op["read-data-by-key"], vec![80, 40]);
    }

    #[test]
    fn unpaired_or_orphaned_spans_are_refused() {
        let unpaired = vec![span(1, 0, 0, CLIENT, 0, 100)];
        let mut with_two_servers = unpaired.clone();
        with_two_servers.push(span(2, 0, 0, SERVER, 10, 20));
        with_two_servers.push(span(3, 0, 1, SERVER, 30, 40));
        assert!(breakdown(&with_two_servers).is_err());
        let mut orphan = unpaired;
        orphan.push(span(4, 9, 0, STORE_PUT, 10, 20));
        assert!(breakdown(&orphan).is_err());
    }
}
