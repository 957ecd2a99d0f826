//! The TCP front-end: a readiness-driven event loop multiplexing every
//! connection on one thread, with engine work executed as per-connection
//! batches on a small executor pool.
//!
//! ```text
//! clients ══╗   ┌────────── event loop (epoll, 1 thread) ──────────┐
//!           ╠══▶│ nonblocking reads → FrameDecoder → pending ops   │
//!           ╠══▶│   burst of N ops ──▶ Executor: execute_batch(N)  │
//!           ╚══▶│ completions → per-conn outbuf → write draining   │
//!               └──────────────────────────────────────────────────┘
//! ```
//!
//! Pipelined clients get their whole in-flight window executed as one
//! engine-side batch: one executor handoff, one audit-lock acquisition,
//! and one response write per burst instead of per op. Responses stay in
//! request order because each connection has at most one batch in flight
//! and a batch's responses are encoded in op order — no sequencer needed.
//! Slow consumers are isolated by per-connection outbound buffers with a
//! progress-based write timeout; slow producers cost one idle epoll
//! registration, not a parked thread, so thousands of idle connections
//! are served by the loop thread plus `workers` executor threads.

use crate::conn::{ConnCounters, DecodedOp};
use crate::event_loop::{wake_pair, Completion, EventLoop, Waker};
use crate::metrics::ServerTelemetry;
use crate::pool::Executor;
use crate::sys;
use crate::wire::{self, RequestBody, ResponseBody, StatsSnapshot};
use gdpr_core::tenant::TenantId;
use gdpr_core::{EngineHandle, GdprQuery, Session};
use parking_lot::Mutex;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Executor threads running engine batches (default: the machine's
    /// parallelism).
    pub workers: usize,
    /// Bound on batches waiting for an executor thread; past it the event
    /// loop leaves bursts pending on their connections, whose reads pause
    /// once `max_pending_ops` accumulate (TCP backpressure).
    pub queue_depth: usize,
    /// Largest accepted frame.
    pub max_frame: usize,
    /// A connection owing response bytes that makes no write progress for
    /// this long is killed. A client that pipelines requests but never
    /// drains responses would otherwise hold its outbound buffer (and the
    /// memory behind it) forever.
    pub write_timeout: Duration,
    /// Most ops one server-side batch may carry; a longer pipelined burst
    /// is split so a single connection cannot monopolize an executor
    /// thread for an unbounded stretch.
    pub max_batch: usize,
    /// Decoded-but-unexecuted ops a connection may accumulate before its
    /// read interest is dropped.
    pub max_pending_ops: usize,
    /// Outbound-buffer size past which a connection's read interest is
    /// dropped until the client drains responses.
    pub outbuf_high_water: usize,
    /// `Some(pre-shared key)` runs [`crate::secure`]'s encrypted transport:
    /// every connection must complete the handshake before its first op,
    /// and every frame payload afterwards is a sealed record. `None`
    /// serves plaintext. The default follows `GDPR_ENCRYPT` /
    /// `GDPR_ENCRYPT_KEY` so whole test suites switch transport via the
    /// environment.
    pub encrypt: Option<String>,
    /// `Some(addr)` additionally binds a plaintext TCP listener serving the
    /// current metrics snapshot in Prometheus text exposition format, one
    /// HTTP/1.0 response per connection, handled by the same event loop.
    /// `None` (the default) serves metrics only via the `GetMetrics` wire
    /// op.
    pub metrics_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
        ServerConfig {
            workers,
            queue_depth: workers * 32,
            max_frame: wire::MAX_FRAME,
            write_timeout: Duration::from_secs(30),
            max_batch: 128,
            max_pending_ops: 4096,
            outbuf_high_water: 8 << 20,
            encrypt: crate::secure::encrypt_key_from_env(),
            metrics_addr: None,
        }
    }
}

/// Server-wide counters.
#[derive(Debug, Default)]
pub struct ServerStats {
    pub connections_accepted: AtomicU64,
    pub connections_active: AtomicU64,
    pub requests: AtomicU64,
    pub gdpr_errors: AtomicU64,
    pub protocol_errors: AtomicU64,
    /// Connections that completed the encrypted-transport handshake.
    pub handshakes_completed: AtomicU64,
    /// Connections dropped for a bad hello — including plaintext clients
    /// hitting an encrypted server (downgrade attempts land here).
    pub handshake_failures: AtomicU64,
    /// Sealed records rejected for a replayed/reordered sequence number,
    /// audited separately from corruption per `CryptoError::Replay`.
    pub replay_rejects: AtomicU64,
    /// Sealed records rejected for tag mismatch or truncation.
    pub decrypt_failures: AtomicU64,
}

/// State shared between the server handle, the event loop, and executor
/// batch jobs.
pub(crate) struct ServerShared {
    pub(crate) engine: EngineHandle,
    pub(crate) executor: Executor,
    pub(crate) addr: SocketAddr,
    pub(crate) config: ServerConfig,
    pub(crate) shutdown: AtomicBool,
    pub(crate) stats: ServerStats,
    /// Finished batches awaiting the loop (paired with a wake).
    pub(crate) completions: Mutex<Vec<Completion>>,
    pub(crate) waker: Waker,
    /// Per-stage latency histograms (decode wait, queue wait, execute,
    /// write drain, batch size), recorded by the loop and the executor,
    /// snapshotted by `GetMetrics` and the exposition endpoint.
    pub(crate) telemetry: ServerTelemetry,
    /// Bound address of the metrics exposition listener, when configured.
    pub(crate) metrics_addr: Option<SocketAddr>,
}

/// A running GDPR wire-protocol server over any [`EngineHandle`].
pub struct GdprServer {
    shared: Arc<ServerShared>,
    loop_handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl GdprServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving `engine`.
    pub fn bind(engine: EngineHandle, addr: &str, config: ServerConfig) -> io::Result<GdprServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let metrics_listener = match &config.metrics_addr {
            Some(addr) => Some(TcpListener::bind(addr.as_str())?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let poller = sys::Poller::new()?;
        let (waker, wake_rx) = wake_pair()?;
        let shared = Arc::new(ServerShared {
            engine,
            executor: Executor::new(config.workers, config.queue_depth),
            addr: local,
            config,
            shutdown: AtomicBool::new(false),
            stats: ServerStats::default(),
            completions: Mutex::new(Vec::new()),
            waker,
            telemetry: ServerTelemetry::default(),
            metrics_addr,
        });
        let event_loop = EventLoop::new(
            Arc::clone(&shared),
            poller,
            listener,
            metrics_listener,
            wake_rx,
        )?;
        let loop_handle = std::thread::spawn(move || event_loop.run());
        Ok(GdprServer {
            shared,
            loop_handle: Mutex::new(Some(loop_handle)),
        })
    }

    /// The bound address (with the kernel-assigned port when bound to :0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Server-wide counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// The bound address of the Prometheus exposition listener, when
    /// `metrics_addr` was configured (with the kernel-assigned port when
    /// bound to :0).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.shared.metrics_addr
    }

    /// Graceful shutdown: stop accepting, let in-flight batches complete,
    /// flush what the sockets accept, close every connection, join the
    /// loop and the executor. Idempotent.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.waker.wake();
        if let Some(handle) = self.loop_handle.lock().take() {
            let _ = handle.join();
        }
        self.shared.executor.shutdown();
    }
}

impl Drop for GdprServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Execute one connection's batch and encode its responses, in op order,
/// into a single buffer. Runs of consecutive `Execute` ops go through the
/// engine's batch entry point; control ops and pre-encoded protocol
/// errors are emitted at their positions.
pub(crate) fn run_batch(
    shared: &ServerShared,
    counters: &ConnCounters,
    ops: Vec<DecodedOp>,
) -> Vec<u8> {
    let mut out = Vec::new();
    let mut run_seqs: Vec<u64> = Vec::new();
    let mut run_ops: Vec<(Session, GdprQuery)> = Vec::new();
    shared.telemetry.batch_size.record_value(ops.len() as u64);
    for op in ops {
        // Decode stamp → here (executor start) is the full time a decoded
        // frame waited behind earlier batches and the queue.
        if let DecodedOp::Request { decoded_at, .. } = &op {
            shared.telemetry.decode_wait.record(decoded_at.elapsed());
        }
        match op {
            DecodedOp::Request {
                seq,
                body: RequestBody::Execute(session, query),
                ..
            } => {
                run_seqs.push(seq);
                run_ops.push((session, query));
            }
            other => {
                flush_run(shared, counters, &mut run_seqs, &mut run_ops, &mut out);
                match other {
                    DecodedOp::Canned(payload) => {
                        // Infallible: writing into a Vec.
                        let _ = wire::write_frame(&mut out, &payload);
                    }
                    DecodedOp::Request {
                        seq, tenant, body, ..
                    } => {
                        let response = handle_control(shared, counters, &tenant, body);
                        let _ = wire::write_frame(&mut out, &wire::encode_response(seq, &response));
                    }
                }
            }
        }
    }
    flush_run(shared, counters, &mut run_seqs, &mut run_ops, &mut out);
    out
}

/// Execute a run of `Execute` ops as one engine batch and encode its
/// responses. A panic anywhere in the batch answers every op of the run
/// with a protocol error instead of stalling the connection.
fn flush_run(
    shared: &ServerShared,
    counters: &ConnCounters,
    run_seqs: &mut Vec<u64>,
    run_ops: &mut Vec<(Session, GdprQuery)>,
    out: &mut Vec<u8>,
) {
    if run_ops.is_empty() {
        return;
    }
    let seqs = std::mem::take(run_seqs);
    let ops = std::mem::take(run_ops);
    let count = ops.len() as u64;
    shared.stats.requests.fetch_add(count, Ordering::Relaxed);
    counters.requests.fetch_add(count, Ordering::Relaxed);
    let started = std::time::Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        shared.engine.execute_batch(ops)
    }));
    shared.telemetry.execute.record(started.elapsed());
    match outcome {
        Ok(results) => {
            let mut results = results.into_iter();
            for seq in seqs {
                let body = match results.next() {
                    Some(Ok(response)) => ResponseBody::Response(response),
                    Some(Err(error)) => {
                        shared.stats.gdpr_errors.fetch_add(1, Ordering::Relaxed);
                        counters.errors.fetch_add(1, Ordering::Relaxed);
                        ResponseBody::Error(error)
                    }
                    // A connector returning fewer results than ops would
                    // otherwise desynchronize every later response.
                    None => {
                        shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        ResponseBody::Protocol(
                            "batch executor returned too few results".to_string(),
                        )
                    }
                };
                let _ = wire::write_frame(out, &wire::encode_response(seq, &body));
            }
        }
        Err(_) => {
            for seq in seqs {
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let _ = wire::write_frame(
                    out,
                    &wire::encode_response(
                        seq,
                        &ResponseBody::Protocol("internal error executing request".to_string()),
                    ),
                );
            }
        }
    }
}

fn handle_control(
    shared: &ServerShared,
    counters: &ConnCounters,
    tenant: &TenantId,
    body: RequestBody,
) -> ResponseBody {
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    counters.requests.fetch_add(1, Ordering::Relaxed);
    match body {
        // Execute runs are batched in `run_batch`; a stray one here still
        // answers correctly.
        RequestBody::Execute(session, query) => match shared.engine.execute(&session, &query) {
            Ok(response) => ResponseBody::Response(response),
            Err(error) => {
                shared.stats.gdpr_errors.fetch_add(1, Ordering::Relaxed);
                counters.errors.fetch_add(1, Ordering::Relaxed);
                ResponseBody::Error(error)
            }
        },
        RequestBody::Features => ResponseBody::Features(shared.engine.features()),
        RequestBody::SpaceReport => ResponseBody::Space(shared.engine.space_report()),
        RequestBody::RecordCount => ResponseBody::Count(shared.engine.record_count() as u64),
        RequestBody::Name => ResponseBody::Name(shared.engine.name().to_string()),
        RequestBody::Ping(blob) => ResponseBody::Pong(blob),
        RequestBody::ConnStats => ResponseBody::Stats(StatsSnapshot {
            requests: counters.requests.load(Ordering::Relaxed),
            errors: counters.errors.load(Ordering::Relaxed),
            bytes_in: counters.bytes_in.load(Ordering::Relaxed),
            bytes_out: counters.bytes_out.load(Ordering::Relaxed),
            server_connections: shared.stats.connections_accepted.load(Ordering::Relaxed),
            server_requests: shared.stats.requests.load(Ordering::Relaxed),
        }),
        RequestBody::GetMetrics => {
            // Tenant-scoped: a tenant's metrics probe sees its own opcode
            // counters, never another tenant's.
            ResponseBody::Metrics(crate::metrics::build_metrics_report_for(shared, tenant))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdpr_core::compliance::FeatureReport;
    use gdpr_core::connector::SpaceReport;
    use gdpr_core::error::{GdprError, GdprResult};
    use gdpr_core::record::{Metadata, PersonalRecord};
    use gdpr_core::store::RecordStore;
    use gdpr_core::{ComplianceEngine, GdprQuery, GdprResponse, Session};
    use std::collections::BTreeMap;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    /// The same trivial in-memory store the engine's own tests use — the
    /// server must work over any RecordStore-backed engine.
    struct MemStore {
        rows: Mutex<BTreeMap<String, PersonalRecord>>,
        clock: clock::SharedClock,
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
        fn clock(&self) -> clock::SharedClock {
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
            SpaceReport {
                personal_data_bytes: 1,
                total_bytes: 2,
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

    fn spawn_server() -> GdprServer {
        let engine: EngineHandle = Arc::new(ComplianceEngine::new(MemStore::new()));
        GdprServer::bind(
            engine,
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                queue_depth: 8,
                max_frame: 1 << 20,
                // These tests exercise the raw plaintext wire; they must
                // not flip encrypted under a suite-wide GDPR_ENCRYPT=1.
                encrypt: None,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn record(key: &str) -> PersonalRecord {
        PersonalRecord::new(
            key,
            format!("data-{key}"),
            Metadata::new("neo", vec!["ads".to_string()], Duration::from_secs(60)),
        )
    }

    fn call(stream: &mut TcpStream, seq: u64, body: &RequestBody) -> (u64, ResponseBody) {
        wire::write_frame(
            stream,
            &wire::encode_request(seq, &TenantId::default(), body),
        )
        .unwrap();
        let payload = wire::read_frame(stream, wire::MAX_FRAME).unwrap().unwrap();
        wire::decode_response(&payload).unwrap()
    }

    #[test]
    fn serves_execute_and_introspection() {
        let server = spawn_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let controller = Session::controller();

        let (seq, body) = call(
            &mut stream,
            7,
            &RequestBody::Execute(controller.clone(), GdprQuery::CreateRecord(record("k1"))),
        );
        assert_eq!(seq, 7);
        assert_eq!(body, ResponseBody::Response(GdprResponse::Created));

        // GDPR errors roundtrip as errors, not protocol failures.
        let (_, body) = call(
            &mut stream,
            8,
            &RequestBody::Execute(controller, GdprQuery::CreateRecord(record("k1"))),
        );
        assert_eq!(
            body,
            ResponseBody::Error(GdprError::AlreadyExists("k1".to_string()))
        );

        let (_, body) = call(&mut stream, 9, &RequestBody::RecordCount);
        assert_eq!(body, ResponseBody::Count(1));
        let (_, body) = call(&mut stream, 10, &RequestBody::Name);
        assert_eq!(body, ResponseBody::Name("mem".to_string()));
        let (_, body) = call(&mut stream, 11, &RequestBody::Ping(vec![1, 2, 3]));
        assert_eq!(body, ResponseBody::Pong(vec![1, 2, 3]));
        let (_, body) = call(&mut stream, 12, &RequestBody::ConnStats);
        match body {
            ResponseBody::Stats(stats) => {
                assert!(stats.requests >= 5);
                assert_eq!(stats.errors, 1);
                assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let server = spawn_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let controller = Session::controller();
        // Burst all requests before reading a single response.
        let n = 50u64;
        for i in 0..n {
            let body = RequestBody::Execute(
                controller.clone(),
                GdprQuery::CreateRecord(record(&format!("k{i}"))),
            );
            wire::write_frame(
                &mut stream,
                &wire::encode_request(i, &TenantId::default(), &body),
            )
            .unwrap();
        }
        for i in 0..n {
            let payload = wire::read_frame(&mut stream, wire::MAX_FRAME)
                .unwrap()
                .unwrap();
            let (seq, body) = wire::decode_response(&payload).unwrap();
            assert_eq!(seq, i, "responses must keep request order");
            assert_eq!(body, ResponseBody::Response(GdprResponse::Created));
        }
        let (_, body) = call(&mut stream, 999, &RequestBody::RecordCount);
        assert_eq!(body, ResponseBody::Count(n));
        server.shutdown();
    }

    #[test]
    fn malformed_payload_gets_protocol_error_then_close() {
        let server = spawn_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // Valid frame, garbage payload (version/seq/tenant readable,
        // opcode bogus).
        let mut payload = vec![wire::PROTOCOL_VERSION];
        payload.extend_from_slice(&42u64.to_be_bytes());
        payload.extend_from_slice(&0u32.to_be_bytes()); // empty tenant
        payload.push(0xEE);
        wire::write_frame(&mut stream, &payload).unwrap();
        stream.flush().unwrap();
        let response = wire::read_frame(&mut stream, wire::MAX_FRAME)
            .unwrap()
            .unwrap();
        let (seq, body) = wire::decode_response(&response).unwrap();
        assert_eq!(seq, 42);
        assert!(matches!(body, ResponseBody::Protocol(_)));
        // The server stops reading this stream afterwards.
        assert!(matches!(
            wire::read_frame(&mut stream, wire::MAX_FRAME),
            Ok(None) | Err(_)
        ));
        assert_eq!(server.stats().protocol_errors.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    /// Requests pipelined ahead of a malformed frame still answer, in
    /// order, before the protocol error and the close.
    #[test]
    fn good_requests_ahead_of_poison_still_answer() {
        let server = spawn_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let controller = Session::controller();
        for i in 0..3u64 {
            let body = RequestBody::Execute(
                controller.clone(),
                GdprQuery::CreateRecord(record(&format!("p{i}"))),
            );
            wire::write_frame(
                &mut stream,
                &wire::encode_request(i, &TenantId::default(), &body),
            )
            .unwrap();
        }
        let mut garbage = vec![wire::PROTOCOL_VERSION];
        garbage.extend_from_slice(&9u64.to_be_bytes());
        garbage.extend_from_slice(&0u32.to_be_bytes()); // empty tenant
        garbage.push(0xEE);
        wire::write_frame(&mut stream, &garbage).unwrap();
        for i in 0..3u64 {
            let payload = wire::read_frame(&mut stream, wire::MAX_FRAME)
                .unwrap()
                .unwrap();
            let (seq, body) = wire::decode_response(&payload).unwrap();
            assert_eq!(seq, i);
            assert_eq!(body, ResponseBody::Response(GdprResponse::Created));
        }
        let payload = wire::read_frame(&mut stream, wire::MAX_FRAME)
            .unwrap()
            .unwrap();
        let (seq, body) = wire::decode_response(&payload).unwrap();
        assert_eq!(seq, 9);
        assert!(matches!(body, ResponseBody::Protocol(_)));
        assert!(matches!(
            wire::read_frame(&mut stream, wire::MAX_FRAME),
            Ok(None) | Err(_)
        ));
        server.shutdown();
    }

    /// A client that pipelines requests but never drains responses must
    /// not wedge the server: its stalled outbound buffer trips the write
    /// timeout and other clients keep being served.
    #[test]
    fn non_draining_client_cannot_starve_other_connections() {
        let engine: EngineHandle = Arc::new(ComplianceEngine::new(MemStore::new()));
        let server = GdprServer::bind(
            engine,
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                queue_depth: 4,
                write_timeout: Duration::from_millis(200),
                encrypt: None,
                ..Default::default()
            },
        )
        .unwrap();

        // One record with a payload far beyond the loopback socket
        // buffers, so unread responses fill them fast.
        let mut setup = TcpStream::connect(server.local_addr()).unwrap();
        let mut big = record("big");
        big.data = "x".repeat(512 * 1024);
        let (_, body) = call(
            &mut setup,
            0,
            &RequestBody::Execute(Session::controller(), GdprQuery::CreateRecord(big)),
        );
        assert_eq!(body, ResponseBody::Response(GdprResponse::Created));

        // The stalling client: burst reads of the big record, never read
        // a single response.
        let staller = TcpStream::connect(server.local_addr()).unwrap();
        {
            let mut w = staller.try_clone().unwrap();
            for i in 0..64u64 {
                let body = RequestBody::Execute(
                    Session::processor("ads"),
                    GdprQuery::ReadDataByKey("big".to_string()),
                );
                wire::write_frame(
                    &mut w,
                    &wire::encode_request(i, &TenantId::default(), &body),
                )
                .unwrap();
            }
        }

        // A well-behaved client must still get answers within the write
        // timeout plus slack.
        let mut probe = TcpStream::connect(server.local_addr()).unwrap();
        probe
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let (_, body) = call(&mut probe, 1, &RequestBody::Ping(vec![42]));
        assert_eq!(body, ResponseBody::Pong(vec![42]));
        // And the staller is eventually killed, releasing its state.
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().connections_active.load(Ordering::Relaxed) > 2 {
            assert!(Instant::now() < deadline, "staller never reaped");
            std::thread::sleep(Duration::from_millis(20));
        }
        drop(staller);
        server.shutdown();
    }

    /// Frames delivered one byte at a time (and split across arbitrary
    /// write boundaries) must reassemble exactly — the nonblocking decode
    /// path sees whatever fragments the kernel delivers.
    #[test]
    fn byte_by_byte_frames_reassemble() {
        let server = spawn_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let frame = {
            let mut buf = Vec::new();
            wire::write_frame(
                &mut buf,
                &wire::encode_request(5, &TenantId::default(), &RequestBody::Ping(vec![9, 9])),
            )
            .unwrap();
            buf
        };
        for byte in &frame {
            stream.write_all(&[*byte]).unwrap();
            stream.flush().unwrap();
        }
        let payload = wire::read_frame(&mut stream, wire::MAX_FRAME)
            .unwrap()
            .unwrap();
        let (seq, body) = wire::decode_response(&payload).unwrap();
        assert_eq!((seq, body), (5, ResponseBody::Pong(vec![9, 9])));

        // Two frames split mid-header across one write boundary.
        let mut two = Vec::new();
        wire::write_frame(
            &mut two,
            &wire::encode_request(6, &TenantId::default(), &RequestBody::Ping(vec![1])),
        )
        .unwrap();
        wire::write_frame(
            &mut two,
            &wire::encode_request(7, &TenantId::default(), &RequestBody::Ping(vec![2])),
        )
        .unwrap();
        let cut = two.len() / 2 + 1;
        stream.write_all(&two[..cut]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(10));
        stream.write_all(&two[cut..]).unwrap();
        for (want_seq, want_blob) in [(6u64, vec![1u8]), (7, vec![2])] {
            let payload = wire::read_frame(&mut stream, wire::MAX_FRAME)
                .unwrap()
                .unwrap();
            let (seq, body) = wire::decode_response(&payload).unwrap();
            assert_eq!((seq, body), (want_seq, ResponseBody::Pong(want_blob)));
        }
        server.shutdown();
    }

    /// An oversized length prefix is fatal for the connection — no
    /// response can be attributed to a seq once framing is gone.
    #[test]
    fn hostile_length_kills_the_connection() {
        let server = spawn_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
        stream.flush().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert!(matches!(
            wire::read_frame(&mut stream, wire::MAX_FRAME),
            Ok(None) | Err(_)
        ));
        assert_eq!(server.stats().protocol_errors.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    /// A churn of short-lived connections must leave no per-connection
    /// state behind: the active gauge returns to zero and the server
    /// still serves.
    #[test]
    fn connection_churn_leaves_no_state() {
        let server = spawn_server();
        let churn = 500u64;
        for i in 0..churn {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            let (_, body) = call(&mut stream, i, &RequestBody::Ping(vec![i as u8]));
            assert_eq!(body, ResponseBody::Pong(vec![i as u8]));
        }
        assert_eq!(
            server.stats().connections_accepted.load(Ordering::Relaxed),
            churn
        );
        // Closures are detected on the loop's next wake; give them time.
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().connections_active.load(Ordering::Relaxed) > 0 {
            assert!(
                Instant::now() < deadline,
                "leaked {} connections' state",
                server.stats().connections_active.load(Ordering::Relaxed)
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        let mut probe = TcpStream::connect(server.local_addr()).unwrap();
        let (_, body) = call(&mut probe, 0, &RequestBody::Ping(vec![1]));
        assert_eq!(body, ResponseBody::Pong(vec![1]));
        server.shutdown();
    }

    /// A slow writer (request dribbled byte-by-byte) and a slow reader
    /// (responses drained in tiny chunks) sharing the server with a
    /// pipelining client: everyone completes, nothing crosses.
    #[test]
    fn slow_reader_slow_writer_pair_under_load() {
        let server = spawn_server();
        let addr = server.local_addr();
        let flood = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let controller = Session::controller();
            let n = 200u64;
            for i in 0..n {
                let body = RequestBody::Execute(
                    controller.clone(),
                    GdprQuery::CreateRecord(record(&format!("f{i}"))),
                );
                wire::write_frame(
                    &mut stream,
                    &wire::encode_request(i, &TenantId::default(), &body),
                )
                .unwrap();
            }
            for i in 0..n {
                let payload = wire::read_frame(&mut stream, wire::MAX_FRAME)
                    .unwrap()
                    .unwrap();
                let (seq, body) = wire::decode_response(&payload).unwrap();
                assert_eq!(seq, i);
                assert_eq!(body, ResponseBody::Response(GdprResponse::Created));
            }
        });

        // Slow writer: dribble a ping frame with pauses while the flood
        // runs.
        let mut slow = TcpStream::connect(addr).unwrap();
        let mut frame = Vec::new();
        wire::write_frame(
            &mut frame,
            &wire::encode_request(1, &TenantId::default(), &RequestBody::Ping(vec![5; 32])),
        )
        .unwrap();
        for chunk in frame.chunks(3) {
            slow.write_all(chunk).unwrap();
            slow.flush().unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        // Slow reader: drain the response two bytes at a time.
        let mut response = Vec::new();
        let mut buf = [0u8; 2];
        slow.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        loop {
            let n = slow.read(&mut buf).unwrap();
            assert!(n > 0, "server closed on the slow client");
            response.extend_from_slice(&buf[..n]);
            if response.len() >= 4 {
                let len = u32::from_be_bytes(response[..4].try_into().unwrap()) as usize;
                if response.len() >= 4 + len {
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let (seq, body) = wire::decode_response(&response[4..]).unwrap();
        assert_eq!(seq, 1);
        assert_eq!(body, ResponseBody::Pong(vec![5; 32]));
        flood.join().unwrap();
        server.shutdown();
    }

    fn spawn_encrypted_server(key: &str) -> GdprServer {
        let engine: EngineHandle = Arc::new(ComplianceEngine::new(MemStore::new()));
        GdprServer::bind(
            engine,
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                queue_depth: 8,
                encrypt: Some(key.to_string()),
                ..Default::default()
            },
        )
        .unwrap()
    }

    /// Run the client half of the handshake by hand — these tests pin the
    /// wire behavior below `GdprClient`'s convenience layer.
    fn client_handshake(stream: &mut TcpStream, key: &str) -> crypto::channel::DuplexChannel {
        let client_random = crate::secure::session_random();
        wire::write_frame(
            stream,
            &crate::secure::encode_hello(crate::secure::ROLE_CLIENT, &client_random),
        )
        .unwrap();
        let ack = wire::read_frame(stream, wire::MAX_FRAME).unwrap().unwrap();
        let server_random = crate::secure::decode_hello(&ack, crate::secure::ROLE_SERVER).unwrap();
        crate::secure::client_channel(key, &client_random, &server_random)
    }

    fn call_sealed(
        stream: &mut TcpStream,
        channel: &mut crypto::channel::DuplexChannel,
        seq: u64,
        body: &RequestBody,
    ) -> (u64, ResponseBody) {
        let sealed = channel.seal(&wire::encode_request(seq, &TenantId::default(), body));
        wire::write_frame(stream, &sealed).unwrap();
        let record = wire::read_frame(stream, wire::MAX_FRAME + crate::secure::SEAL_OVERHEAD)
            .unwrap()
            .unwrap();
        let plaintext = channel.open(&record).unwrap();
        wire::decode_response(&plaintext).unwrap()
    }

    #[test]
    fn encrypted_transport_serves_end_to_end() {
        let server = spawn_encrypted_server("unit-psk");
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut channel = client_handshake(&mut stream, "unit-psk");
        let controller = Session::controller();

        let (seq, body) = call_sealed(
            &mut stream,
            &mut channel,
            3,
            &RequestBody::Execute(controller.clone(), GdprQuery::CreateRecord(record("e1"))),
        );
        assert_eq!(
            (seq, body),
            (3, ResponseBody::Response(GdprResponse::Created))
        );
        // GDPR errors and introspection answer identically to plaintext.
        let (_, body) = call_sealed(
            &mut stream,
            &mut channel,
            4,
            &RequestBody::Execute(controller, GdprQuery::CreateRecord(record("e1"))),
        );
        assert_eq!(
            body,
            ResponseBody::Error(GdprError::AlreadyExists("e1".to_string()))
        );
        let (_, body) = call_sealed(&mut stream, &mut channel, 5, &RequestBody::RecordCount);
        assert_eq!(body, ResponseBody::Count(1));
        let (_, body) = call_sealed(&mut stream, &mut channel, 6, &RequestBody::Ping(vec![8; 8]));
        assert_eq!(body, ResponseBody::Pong(vec![8; 8]));

        // Pipelining seals every request up front; responses stay ordered.
        let mut burst = Vec::new();
        for i in 10..20u64 {
            let sealed = channel.seal(&wire::encode_request(
                i,
                &TenantId::default(),
                &RequestBody::Ping(vec![i as u8]),
            ));
            wire::write_frame(&mut burst, &sealed).unwrap();
        }
        stream.write_all(&burst).unwrap();
        for i in 10..20u64 {
            let record = wire::read_frame(&mut stream, wire::MAX_FRAME + 64)
                .unwrap()
                .unwrap();
            let plaintext = channel.open(&record).unwrap();
            let (seq, body) = wire::decode_response(&plaintext).unwrap();
            assert_eq!((seq, body), (i, ResponseBody::Pong(vec![i as u8])));
        }
        assert_eq!(
            server.stats().handshakes_completed.load(Ordering::Relaxed),
            1
        );
        server.shutdown();
    }

    /// A plaintext client on an encrypted server gets no answer at all:
    /// the op frame fails hello validation and the connection drops —
    /// no downgrade, no protocol-error oracle for unauthenticated peers.
    #[test]
    fn plaintext_client_is_rejected_without_response() {
        let server = spawn_encrypted_server("unit-psk");
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        wire::write_frame(
            &mut stream,
            &wire::encode_request(1, &TenantId::default(), &RequestBody::Ping(vec![1])),
        )
        .unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert!(matches!(
            wire::read_frame(&mut stream, wire::MAX_FRAME),
            Ok(None) | Err(_)
        ));
        assert_eq!(server.stats().handshake_failures.load(Ordering::Relaxed), 1);
        assert_eq!(server.stats().protocol_errors.load(Ordering::Relaxed), 0);
        server.shutdown();
    }

    #[test]
    fn version_skew_and_garbage_hellos_are_rejected() {
        let server = spawn_encrypted_server("unit-psk");
        // Version skew: well-formed hello, wrong version.
        let mut skewed = TcpStream::connect(server.local_addr()).unwrap();
        let mut hello = crate::secure::encode_hello(crate::secure::ROLE_CLIENT, &[3; 32]);
        hello[4..6].copy_from_slice(&7u16.to_be_bytes());
        wire::write_frame(&mut skewed, &hello).unwrap();
        skewed
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert!(matches!(
            wire::read_frame(&mut skewed, wire::MAX_FRAME),
            Ok(None) | Err(_)
        ));
        // Garbage: a framed blob that is not a hello.
        let mut garbage = TcpStream::connect(server.local_addr()).unwrap();
        wire::write_frame(&mut garbage, &[0xEE; 11]).unwrap();
        garbage
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert!(matches!(
            wire::read_frame(&mut garbage, wire::MAX_FRAME),
            Ok(None) | Err(_)
        ));
        assert_eq!(server.stats().handshake_failures.load(Ordering::Relaxed), 2);
        // The server still serves a correct client afterwards.
        let mut good = TcpStream::connect(server.local_addr()).unwrap();
        let mut channel = client_handshake(&mut good, "unit-psk");
        let (_, body) = call_sealed(&mut good, &mut channel, 1, &RequestBody::Ping(vec![4]));
        assert_eq!(body, ResponseBody::Pong(vec![4]));
        server.shutdown();
    }

    /// Mid-handshake EOF (a scanner connecting and leaving, or a partial
    /// hello) must release connection state without a panic or a leak.
    #[test]
    fn mid_handshake_eof_closes_cleanly() {
        let server = spawn_encrypted_server("unit-psk");
        {
            let mut partial = TcpStream::connect(server.local_addr()).unwrap();
            let hello = crate::secure::encode_hello(crate::secure::ROLE_CLIENT, &[5; 32]);
            let mut framed = Vec::new();
            wire::write_frame(&mut framed, &hello).unwrap();
            partial.write_all(&framed[..framed.len() / 2]).unwrap();
            partial.flush().unwrap();
        } // dropped: EOF with half a hello buffered
        {
            let _silent = TcpStream::connect(server.local_addr()).unwrap();
        } // dropped: EOF before any byte
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().connections_active.load(Ordering::Relaxed) > 0 {
            assert!(Instant::now() < deadline, "handshake conn state leaked");
            std::thread::sleep(Duration::from_millis(20));
        }
        let mut good = TcpStream::connect(server.local_addr()).unwrap();
        let mut channel = client_handshake(&mut good, "unit-psk");
        let (_, body) = call_sealed(&mut good, &mut channel, 1, &RequestBody::Ping(vec![6]));
        assert_eq!(body, ResponseBody::Pong(vec![6]));
        server.shutdown();
    }

    /// Replayed records are audited as replays and kill the connection;
    /// tampered records count as decrypt failures.
    #[test]
    fn replay_and_tamper_audit_separately() {
        let server = spawn_encrypted_server("unit-psk");
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut channel = client_handshake(&mut stream, "unit-psk");
        let sealed = channel.seal(&wire::encode_request(
            1,
            &TenantId::default(),
            &RequestBody::Ping(vec![1]),
        ));
        let mut framed = Vec::new();
        wire::write_frame(&mut framed, &sealed).unwrap();
        stream.write_all(&framed).unwrap();
        // First copy answers; the replayed copy kills the connection.
        let record = wire::read_frame(&mut stream, wire::MAX_FRAME + 64)
            .unwrap()
            .unwrap();
        assert!(channel.open(&record).is_ok());
        stream.write_all(&framed).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert!(matches!(
            wire::read_frame(&mut stream, wire::MAX_FRAME),
            Ok(None) | Err(_)
        ));
        assert_eq!(server.stats().replay_rejects.load(Ordering::Relaxed), 1);

        // Fresh connection, tampered ciphertext.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut channel = client_handshake(&mut stream, "unit-psk");
        let mut sealed = channel.seal(&wire::encode_request(
            1,
            &TenantId::default(),
            &RequestBody::Ping(vec![2]),
        ));
        let last = sealed.len() - 1;
        sealed[last] ^= 0xFF;
        wire::write_frame(&mut stream, &sealed).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert!(matches!(
            wire::read_frame(&mut stream, wire::MAX_FRAME),
            Ok(None) | Err(_)
        ));
        assert_eq!(server.stats().decrypt_failures.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_graceful_and_idempotent() {
        let server = spawn_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let (_, body) = call(&mut stream, 1, &RequestBody::Ping(vec![7]));
        assert_eq!(body, ResponseBody::Pong(vec![7]));
        server.shutdown();
        server.shutdown();
        // The old connection is gone.
        let _ = stream.flush();
        assert!(matches!(
            wire::read_frame(&mut stream, wire::MAX_FRAME),
            Ok(None) | Err(_)
        ));
    }

    fn spawn_sharded_server(shards: usize, encrypt: Option<&str>) -> GdprServer {
        // Every shard must share one clock instance.
        let clock = clock::sim();
        let stores: Vec<MemStore> = (0..shards)
            .map(|_| MemStore {
                rows: Mutex::new(BTreeMap::new()),
                clock: clock.clone(),
            })
            .collect();
        let engine: EngineHandle = Arc::new(ComplianceEngine::sharded(stores).unwrap());
        GdprServer::bind(
            engine,
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                queue_depth: 8,
                max_frame: 1 << 20,
                encrypt: encrypt.map(str::to_string),
                ..Default::default()
            },
        )
        .unwrap()
    }

    /// Run the scripted sequence (3 creates, 1 duplicate create that
    /// errors, 2 processor reads, 1 delete) and assert the metrics
    /// snapshot accounts for every op exactly once — the same invariant
    /// at every shard count and on both transports.
    fn assert_scripted_metrics(server: &GdprServer, key_psk: Option<&str>) {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut channel = key_psk.map(|psk| client_handshake(&mut stream, psk));
        let mut send = |seq: u64, body: &RequestBody| match channel.as_mut() {
            Some(channel) => call_sealed(&mut stream, channel, seq, body),
            None => call(&mut stream, seq, body),
        };
        let controller = Session::controller();
        let processor = Session::processor("ads");
        for (i, key) in ["m1", "m2", "m3"].iter().enumerate() {
            let (_, body) = send(
                i as u64,
                &RequestBody::Execute(controller.clone(), GdprQuery::CreateRecord(record(key))),
            );
            assert_eq!(body, ResponseBody::Response(GdprResponse::Created));
        }
        let (_, body) = send(
            3,
            &RequestBody::Execute(controller.clone(), GdprQuery::CreateRecord(record("m1"))),
        );
        assert!(matches!(body, ResponseBody::Error(_)));
        for seq in 4..6u64 {
            let (_, body) = send(
                seq,
                &RequestBody::Execute(
                    processor.clone(),
                    GdprQuery::ReadDataByKey("m2".to_string()),
                ),
            );
            assert!(matches!(body, ResponseBody::Response(_)));
        }
        let (_, body) = send(
            6,
            &RequestBody::Execute(controller, GdprQuery::DeleteByKey("m3".to_string())),
        );
        assert!(matches!(body, ResponseBody::Response(_)));

        let (_, body) = send(7, &RequestBody::GetMetrics);
        let ResponseBody::Metrics(report) = body else {
            panic!("expected Metrics, got {body:?}");
        };
        let op = |name: &str| report.ops.iter().find(|o| o.name == name).unwrap();
        let create = op("create-record");
        assert_eq!((create.ok, create.errors), (3, 1));
        assert_eq!(create.latency.count, 4);
        let read = op("read-data-by-key");
        assert_eq!((read.ok, read.errors), (2, 0));
        let delete = op("delete-record-by-key");
        assert_eq!((delete.ok, delete.errors), (1, 0));
        let total: u64 = report.ops.iter().map(|o| o.ok + o.errors).sum();
        assert_eq!(total, 7, "every engine op counted exactly once");

        // The lifecycle stages saw these requests too. GetMetrics rides
        // the same decode→batch path as engine ops, so the snapshot it
        // returns already includes its own decode stamp: 8 requests.
        // Batches may coalesce, so batch-level stages only need to be
        // non-empty and internally consistent.
        let stage = |name: &str| {
            report
                .stages
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing stage {name}"))
        };
        assert_eq!(stage("decode_wait").histogram.count, 8);
        let batches = stage("batch_size").histogram.count;
        assert!((1..=8).contains(&batches));
        assert_eq!(stage("queue_wait").histogram.count, batches);
        // The snapshot is taken inside the batch that carries GetMetrics,
        // before that batch's execute time is stamped — so execute always
        // trails by exactly the one in-flight batch.
        assert_eq!(stage("execute").histogram.count, batches - 1);
        assert_eq!(report.counter("requests"), Some(8));
        assert_eq!(report.counter("gdpr_errors"), Some(1));
        assert_eq!(report.counter("protocol_errors"), Some(0));
        let expected_handshakes = u64::from(key_psk.is_some());
        assert_eq!(
            report.counter("handshakes_completed"),
            Some(expected_handshakes)
        );
    }

    #[test]
    fn get_metrics_counts_match_the_scripted_sequence_across_shards() {
        for shards in [1usize, 8] {
            let server = spawn_sharded_server(shards, None);
            assert_scripted_metrics(&server, None);
            server.shutdown();
        }
    }

    #[test]
    fn get_metrics_counts_match_over_the_encrypted_transport() {
        for shards in [1usize, 8] {
            let server = spawn_sharded_server(shards, Some("metrics-psk"));
            assert_scripted_metrics(&server, Some("metrics-psk"));
            server.shutdown();
        }
    }

    /// Hammer `GetMetrics` from several threads while the server shuts
    /// down. Connections may drop mid-flight — that is fine — but the
    /// server must never panic and every response that does arrive must
    /// decode to a well-formed, untorn report.
    #[test]
    fn metrics_snapshot_races_shutdown_without_tearing() {
        let server = spawn_server();
        let addr = server.local_addr();
        let hammers: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut served = 0usize;
                    for _ in 0..200 {
                        let Ok(mut stream) = TcpStream::connect(addr) else {
                            break;
                        };
                        let frame =
                            wire::encode_request(1, &TenantId::default(), &RequestBody::GetMetrics);
                        if wire::write_frame(&mut stream, &frame).is_err() {
                            break;
                        }
                        match wire::read_frame(&mut stream, wire::MAX_FRAME) {
                            Ok(Some(payload)) => {
                                let (_, body) = wire::decode_response(&payload).unwrap();
                                let ResponseBody::Metrics(report) = body else {
                                    panic!("expected Metrics, got {body:?}");
                                };
                                // A snapshot racing shutdown must still be
                                // internally coherent: all counters present,
                                // stage list complete.
                                assert!(report.counter("requests").is_some());
                                assert!(report.counter("connections_accepted").is_some());
                                assert_eq!(report.stages.len(), 5);
                                served += 1;
                            }
                            // Dropped by shutdown — acceptable.
                            Ok(None) | Err(_) => break,
                        }
                    }
                    served
                })
            })
            .collect();
        // Let the hammers land a few before pulling the plug.
        std::thread::sleep(Duration::from_millis(30));
        server.shutdown();
        let served: usize = hammers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(served > 0, "at least one snapshot must have been served");
    }
}
