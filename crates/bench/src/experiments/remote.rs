//! In-process vs loopback-TCP throughput: the cost of the network layer.
//!
//! The paper drives *networked* servers (its Redis/PostgreSQL numbers
//! include the socket), while most of this reproduction's experiments call
//! the engine in-process. This experiment quantifies the gap: the same
//! point-op workload (90% READ-DATA-BY-KEY / 10% UPDATE-DATA-BY-KEY, same
//! key distribution, same engine) is measured three ways —
//!
//! 1. **in-process** — client threads call the sharded engine directly;
//! 2. **loopback / request-per-roundtrip** — each thread owns one
//!    `GdprClient` over 127.0.0.1 TCP and pays a full round trip per op;
//! 3. **loopback / pipelined** — same connections, but ops are burst in
//!    batches so the wire carries many requests per round trip.
//!
//! at 1, 4, and 16 client connections. The `remote_throughput` binary
//! prints the ladder; results are recorded in the README's performance
//! table.

use crate::report::{fmt_ops, ExperimentTable};
use connectors::{GdprClient, RedisConnector};
use gdpr_core::record::{Metadata, PersonalRecord};
use gdpr_core::telemetry::{self, AtomicHistogram, HistogramSnapshot};
use gdpr_core::{EngineHandle, GdprConnector, GdprQuery, Session};
use gdpr_server::{GdprServer, ServerConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client-connection counts the ladder measures.
pub const DEFAULT_CLIENTS: [usize; 3] = [1, 4, 16];

/// Pipelined batch size for the batched mode.
pub const PIPELINE_DEPTH: usize = 32;

const READ_FRACTION: f64 = 0.9;

fn point_record(i: usize) -> PersonalRecord {
    PersonalRecord::new(
        format!("k{i:07}"),
        format!("payload-{i:07}"),
        Metadata::new(
            format!("user-{:04}", i % 1024),
            vec!["ads".to_string()],
            Duration::from_secs(3600),
        ),
    )
}

/// Build the engine under test, preloaded with `records` point-op targets.
pub fn build_engine(shards: usize, records: usize) -> EngineHandle {
    let conn = Arc::new(RedisConnector::open_sharded(shards).expect("open sharded"));
    let controller = Session::controller();
    for i in 0..records {
        conn.execute(&controller, &GdprQuery::CreateRecord(point_record(i)))
            .expect("load");
    }
    conn
}

fn next_op(rng: &mut SmallRng, records: usize) -> (Session, GdprQuery) {
    let i = rng.gen_range(0usize..records.max(1));
    let key = format!("k{i:07}");
    if rng.gen_bool(READ_FRACTION) {
        (Session::processor("ads"), GdprQuery::ReadDataByKey(key))
    } else {
        (
            Session::controller(),
            GdprQuery::UpdateDataByKey {
                key,
                data: format!("rewrite-{i:07}"),
            },
        )
    }
}

/// Per-thread op quotas summing exactly to `ops`.
fn quotas(ops: u64, threads: usize) -> Vec<u64> {
    let threads = threads.max(1);
    let base = ops / threads as u64;
    let extra = ops % threads as u64;
    (0..threads as u64)
        .map(|t| base + u64::from(t < extra))
        .collect()
}

/// In-process baseline: `clients` threads calling the engine directly.
pub fn run_in_process(engine: &EngineHandle, records: usize, ops: u64, clients: usize) -> Duration {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (t, quota) in quotas(ops, clients).into_iter().enumerate() {
            let engine = Arc::clone(engine);
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0x5EED ^ t as u64);
                for _ in 0..quota {
                    let (session, query) = next_op(&mut rng, records);
                    engine.execute(&session, &query).expect("in-process op");
                }
            });
        }
    });
    start.elapsed()
}

/// Loopback TCP: one `GdprClient` per thread against `addr`, one round
/// trip per op (`pipeline_depth` = 1) or batched (`pipeline_depth` > 1).
/// The transport follows `GDPR_ENCRYPT` (like the server's default
/// config); [`run_remote_with`] pins it explicitly.
pub fn run_remote(
    addr: &str,
    records: usize,
    ops: u64,
    clients: usize,
    pipeline_depth: usize,
) -> Duration {
    let key = gdpr_server::secure::encrypt_key_from_env();
    run_remote_with(addr, records, ops, clients, pipeline_depth, key.as_deref())
}

/// [`run_remote`] with the transport pinned: `encrypt` carries the
/// pre-shared key for the SecureChannel handshake, `None` is plaintext.
pub fn run_remote_with(
    addr: &str,
    records: usize,
    ops: u64,
    clients: usize,
    pipeline_depth: usize,
    encrypt: Option<&str>,
) -> Duration {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (t, quota) in quotas(ops, clients).into_iter().enumerate() {
            let addr = addr.to_string();
            scope.spawn(move || {
                let client = GdprClient::connect_with(&addr, encrypt).expect("connect");
                let mut rng = SmallRng::seed_from_u64(0x5EED ^ t as u64);
                let mut left = quota;
                while left > 0 {
                    if pipeline_depth <= 1 {
                        let (session, query) = next_op(&mut rng, records);
                        client.execute(&session, &query).expect("remote op");
                        left -= 1;
                    } else {
                        let batch: Vec<_> = (0..pipeline_depth.min(left as usize))
                            .map(|_| next_op(&mut rng, records))
                            .collect();
                        left -= batch.len() as u64;
                        for result in client.pipeline(&batch).expect("pipeline") {
                            result.expect("remote op");
                        }
                    }
                }
            });
        }
    });
    start.elapsed()
}

/// Measured `(mode, clients, ops/s)` rows.
pub type RemoteSeries = Vec<(&'static str, usize, f64)>;

/// The full comparison ladder. One engine instance serves all modes, so
/// in-process and loopback numbers face identical store state.
pub fn run_remote_comparison(
    client_counts: &[usize],
    shards: usize,
    records: usize,
    ops: u64,
) -> (ExperimentTable, RemoteSeries) {
    let mut table = ExperimentTable::new(
        format!(
            "In-process vs loopback TCP — point-op workload ({records} records, {ops} ops, \
             {shards} shards, pipeline depth {PIPELINE_DEPTH})"
        ),
        &["mode", "clients", "completion", "ops/s", "vs in-process"],
    );
    let mut series = RemoteSeries::new();
    let engine = build_engine(shards, records);
    let server = GdprServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback server");
    let addr = server.local_addr().to_string();

    for &clients in client_counts {
        // Warm up allocator and connections outside the timed window.
        run_in_process(&engine, records, (ops / 10).max(1), clients);
        let in_process = run_in_process(&engine, records, ops, clients);
        let in_process_tp = ops as f64 / in_process.as_secs_f64().max(1e-9);

        run_remote(&addr, records, (ops / 10).max(1), clients, 1);
        let roundtrip = run_remote(&addr, records, ops, clients, 1);
        let roundtrip_tp = ops as f64 / roundtrip.as_secs_f64().max(1e-9);

        let pipelined = run_remote(&addr, records, ops, clients, PIPELINE_DEPTH);
        let pipelined_tp = ops as f64 / pipelined.as_secs_f64().max(1e-9);

        for (mode, completion, throughput) in [
            ("in-process", in_process, in_process_tp),
            ("tcp/roundtrip", roundtrip, roundtrip_tp),
            ("tcp/pipelined", pipelined, pipelined_tp),
        ] {
            table.push_row(vec![
                mode.to_string(),
                clients.to_string(),
                crate::report::fmt_duration(completion),
                fmt_ops(throughput),
                format!("{:.0}%", 100.0 * throughput / in_process_tp.max(1e-9)),
            ]);
            series.push((mode, clients, throughput));
        }
    }
    server.shutdown();
    (table, series)
}

/// Pipeline depths the sweep measures (depth 1 = one round trip per op).
pub const DEPTH_SWEEP: [usize; 4] = [1, 16, 64, 256];

/// Measured `(pipeline_depth, ops/s)` rows.
pub type DepthSeries = Vec<(usize, f64)>;

/// Pipeline-depth sweep: the same loopback workload at a fixed client
/// count while the number of requests in flight per connection grows.
/// Depth 1 pays a full round trip per op; deeper windows let the server's
/// event loop drain whole bursts into engine-side batches, so the curve
/// shows how much of the wire gap batching recovers — and where it
/// saturates.
pub fn run_depth_sweep(
    shards: usize,
    records: usize,
    ops: u64,
    clients: usize,
) -> (ExperimentTable, DepthSeries) {
    let mut table = ExperimentTable::new(
        format!(
            "Pipeline-depth sweep — loopback TCP point-op workload ({records} records, \
             {ops} ops, {shards} shards, {clients} clients)"
        ),
        &["depth", "completion", "ops/s", "vs depth 1"],
    );
    let mut series = DepthSeries::new();
    let engine = build_engine(shards, records);
    let server = GdprServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback server");
    let addr = server.local_addr().to_string();

    let mut baseline: Option<f64> = None;
    for &depth in &DEPTH_SWEEP {
        run_remote(&addr, records, (ops / 10).max(1), clients, depth);
        let completion = run_remote(&addr, records, ops, clients, depth);
        let throughput = ops as f64 / completion.as_secs_f64().max(1e-9);
        let base = *baseline.get_or_insert(throughput);
        table.push_row(vec![
            depth.to_string(),
            crate::report::fmt_duration(completion),
            fmt_ops(throughput),
            format!("{:.1}x", throughput / base.max(1e-9)),
        ]);
        series.push((depth, throughput));
    }
    server.shutdown();
    (table, series)
}

/// Idle-connection ladder for the connection-scaling experiment. The top
/// rung matches the 10k-connection CI smoke (`conn_scale --conns 10000`).
pub const IDLE_LADDER: [usize; 4] = [0, 512, 2048, 10_000];

/// Measured `(idle_connections, ops/s)` rows.
pub type ConnSeries = Vec<(usize, f64)>;

/// Connection-count scaling: the pipelined workload while the server also
/// holds a growing population of idle connections. A readiness-driven
/// loop should charge idle sockets nothing (no thread, no wakeups), so
/// active throughput should barely move; every idle connection is
/// ping-probed after the timed window to prove it survived the load.
pub fn run_connection_scaling(
    shards: usize,
    records: usize,
    ops: u64,
    clients: usize,
    idle_ladder: &[usize],
) -> (ExperimentTable, ConnSeries) {
    let mut table = ExperimentTable::new(
        format!(
            "Connection scaling — {clients} active pipelined clients (depth {PIPELINE_DEPTH}) \
             vs idle-connection count ({records} records, {ops} ops, {shards} shards)"
        ),
        &["idle conns", "completion", "ops/s", "vs 0 idle"],
    );
    let mut series = ConnSeries::new();
    // Client and server share this process, so every idle connection
    // costs two descriptors; raise the soft limit before the big rungs,
    // and skip (loudly) any rung the hard limit cannot fit — the
    // separate-process `conn_scale` smoke covers those populations with
    // one descriptor per side.
    let peak = idle_ladder.iter().copied().max().unwrap_or(0);
    let budget = match gdpr_server::sys::raise_nofile_limit((peak as u64 * 2 + 1024).max(4096)) {
        Ok(limit) => (limit.saturating_sub(512) / 2) as usize,
        Err(e) => {
            eprintln!("connection scaling: could not raise fd limit: {e}");
            usize::MAX
        }
    };
    let engine = build_engine(shards, records);
    let server = GdprServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback server");
    let addr = server.local_addr().to_string();

    let mut baseline: Option<f64> = None;
    for &idle in idle_ladder {
        if idle > budget {
            eprintln!(
                "connection scaling: skipping the {idle}-idle rung — the fd limit fits \
                 ~{budget} in-process connections (run `conn_scale --conns {idle}` against \
                 a separate gdpr-serve process instead)"
            );
            continue;
        }
        let idle_conns: Vec<GdprClient> = (0..idle)
            .map(|_| GdprClient::connect(&addr).expect("idle connect"))
            .collect();
        // One echo each: every idle socket is fully registered with the
        // event loop before the timed window opens.
        for conn in &idle_conns {
            conn.ping(b"idle").expect("idle ping");
        }
        run_remote(&addr, records, (ops / 10).max(1), clients, PIPELINE_DEPTH);
        let completion = run_remote(&addr, records, ops, clients, PIPELINE_DEPTH);
        let throughput = ops as f64 / completion.as_secs_f64().max(1e-9);
        // Liveness: the idle population must have survived the load.
        for conn in &idle_conns {
            let echo = conn.ping(b"still-here").expect("idle conn died under load");
            assert_eq!(echo, b"still-here");
        }
        let base = *baseline.get_or_insert(throughput);
        table.push_row(vec![
            idle.to_string(),
            crate::report::fmt_duration(completion),
            fmt_ops(throughput),
            crate::report::fmt_pct(throughput, base),
        ]);
        series.push((idle, throughput));
    }
    server.shutdown();
    (table, series)
}

/// Measured `(transport, clients, ops/s)` rows.
pub type EncSeries = Vec<(&'static str, usize, f64)>;

/// Plaintext vs encrypted loopback TCP: the pipelined point-op workload
/// against two servers over the *same* engine, one plaintext and one
/// requiring the SecureChannel handshake. The delta is the end-to-end
/// cost of the record layer (seal + open + 16 bytes per frame) at each
/// client count.
pub fn run_encryption_ladder(
    client_counts: &[usize],
    shards: usize,
    records: usize,
    ops: u64,
) -> (ExperimentTable, EncSeries) {
    let mut table = ExperimentTable::new(
        format!(
            "Plaintext vs encrypted TCP — pipelined point-op workload ({records} records, \
             {ops} ops, {shards} shards, pipeline depth {PIPELINE_DEPTH})"
        ),
        &[
            "transport",
            "clients",
            "completion",
            "ops/s",
            "vs plaintext",
        ],
    );
    let mut series = EncSeries::new();
    let engine = build_engine(shards, records);
    let plain_config = ServerConfig {
        encrypt: None,
        ..Default::default()
    };
    let enc_config = ServerConfig {
        encrypt: Some(gdpr_server::secure::DEFAULT_PSK.to_string()),
        ..Default::default()
    };
    let plain_server = GdprServer::bind(Arc::clone(&engine), "127.0.0.1:0", plain_config)
        .expect("bind plaintext server");
    let enc_server = GdprServer::bind(Arc::clone(&engine), "127.0.0.1:0", enc_config)
        .expect("bind encrypted server");
    let plain_addr = plain_server.local_addr().to_string();
    let enc_addr = enc_server.local_addr().to_string();
    let key = Some(gdpr_server::secure::DEFAULT_PSK);

    for &clients in client_counts {
        run_remote_with(
            &plain_addr,
            records,
            (ops / 10).max(1),
            clients,
            PIPELINE_DEPTH,
            None,
        );
        let plain = run_remote_with(&plain_addr, records, ops, clients, PIPELINE_DEPTH, None);
        let plain_tp = ops as f64 / plain.as_secs_f64().max(1e-9);

        run_remote_with(
            &enc_addr,
            records,
            (ops / 10).max(1),
            clients,
            PIPELINE_DEPTH,
            key,
        );
        let encrypted = run_remote_with(&enc_addr, records, ops, clients, PIPELINE_DEPTH, key);
        let encrypted_tp = ops as f64 / encrypted.as_secs_f64().max(1e-9);

        for (transport, completion, throughput) in [
            ("tcp/plaintext", plain, plain_tp),
            ("tcp/encrypted", encrypted, encrypted_tp),
        ] {
            table.push_row(vec![
                transport.to_string(),
                clients.to_string(),
                crate::report::fmt_duration(completion),
                fmt_ops(throughput),
                format!("{:.0}%", 100.0 * throughput / plain_tp.max(1e-9)),
            ]);
            series.push((transport, clients, throughput));
        }
    }
    plain_server.shutdown();
    enc_server.shutdown();
    (table, series)
}

/// Measured `(metric, value)` rows of the latency profile.
pub type LatencySeries = Vec<(String, f64)>;

/// Open-loop latency drive against a running server: send slots are due
/// on a fixed schedule derived from `rate` (ops/sec) and latency is
/// measured from each slot's *intended* send time, so percentiles include
/// any backlog the server builds — no coordinated omission. In roundtrip
/// mode (depth ≤ 1) a slot is one op; in pipelined mode a slot is one
/// depth-sized burst whose ops all share the burst's completion latency.
fn open_loop_remote(
    addr: &str,
    records: usize,
    ops: u64,
    clients: usize,
    depth: usize,
    rate: f64,
    encrypt: Option<&str>,
) -> HistogramSnapshot {
    let clients = clients.max(1);
    let depth = depth.max(1);
    let slots = ops.div_ceil(depth as u64);
    let slot_interval = Duration::from_secs_f64(depth as f64 / rate.max(1.0));
    let start = Instant::now();
    let mut merged = HistogramSnapshot::default();
    let snapshots: Vec<HistogramSnapshot> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let addr = addr.to_string();
                scope.spawn(move || {
                    let client = GdprClient::connect_with(&addr, encrypt).expect("connect");
                    let mut rng = SmallRng::seed_from_u64(0x1A7E ^ t as u64);
                    let latency = AtomicHistogram::new();
                    let mut slot = t as u64;
                    while slot < slots {
                        let intended = start + slot_interval.mul_f64(slot as f64);
                        let now = Instant::now();
                        if now < intended {
                            std::thread::sleep(intended - now);
                        }
                        if depth <= 1 {
                            let (session, query) = next_op(&mut rng, records);
                            client.execute(&session, &query).expect("open-loop op");
                            latency.record(intended.elapsed());
                        } else {
                            let batch: Vec<_> =
                                (0..depth).map(|_| next_op(&mut rng, records)).collect();
                            for result in client.pipeline(&batch).expect("pipeline") {
                                result.expect("open-loop op");
                            }
                            let elapsed = intended.elapsed();
                            for _ in 0..depth {
                                latency.record(elapsed);
                            }
                        }
                        slot += clients as u64;
                    }
                    latency.snapshot()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop sender panicked"))
            .collect()
    });
    for snap in &snapshots {
        merged.merge(snap);
    }
    merged
}

/// Latency profile: open-loop p50/p99/p999 for roundtrip and pipelined
/// modes over plaintext and encrypted transports. Each configuration
/// first calibrates with a short closed-loop run, then offers a fixed
/// arrival schedule at ~60% of the calibrated throughput — fast enough to
/// be interesting, slow enough that a healthy server keeps up and the
/// tail reflects jitter, not saturation collapse.
pub fn run_latency_profile(
    shards: usize,
    records: usize,
    ops: u64,
    clients: usize,
) -> (ExperimentTable, LatencySeries) {
    let mut table = ExperimentTable::new(
        format!(
            "Open-loop latency — point-op workload ({records} records, {ops} ops/config, \
             {shards} shards, {clients} clients, rate = 60% of calibrated throughput)"
        ),
        &["transport", "mode", "offered/s", "p50", "p99", "p999"],
    );
    let mut series = LatencySeries::new();
    for (transport, key) in [
        ("plain", None),
        ("encrypted", Some(gdpr_server::secure::DEFAULT_PSK)),
    ] {
        let engine = build_engine(shards, records);
        let config = ServerConfig {
            encrypt: key.map(str::to_string),
            ..Default::default()
        };
        let server =
            GdprServer::bind(Arc::clone(&engine), "127.0.0.1:0", config).expect("bind server");
        let addr = server.local_addr().to_string();
        for (mode, depth) in [("roundtrip", 1usize), ("pipelined", PIPELINE_DEPTH)] {
            let calib_ops = (ops / 4).max(1);
            let calib = run_remote_with(&addr, records, calib_ops, clients, depth, key);
            let sustainable = calib_ops as f64 / calib.as_secs_f64().max(1e-9);
            let rate = (sustainable * 0.6).max(1.0);
            let snap = open_loop_remote(&addr, records, ops, clients, depth, rate, key);
            let (p50, p99, p999) = (snap.p50_ns(), snap.p99_ns(), snap.p999_ns());
            table.push_row(vec![
                format!("tcp/{transport}"),
                mode.to_string(),
                fmt_ops(rate),
                crate::report::fmt_duration(Duration::from_nanos(p50)),
                crate::report::fmt_duration(Duration::from_nanos(p99)),
                crate::report::fmt_duration(Duration::from_nanos(p999)),
            ]);
            series.push((format!("{mode}_{transport}_rate_ops_per_sec"), rate));
            series.push((format!("{mode}_{transport}_p50_us"), p50 as f64 / 1e3));
            series.push((format!("{mode}_{transport}_p99_us"), p99 as f64 / 1e3));
            series.push((format!("{mode}_{transport}_p999_us"), p999 as f64 / 1e3));
        }
        server.shutdown();
    }
    (table, series)
}

/// Instrumentation overhead: the pipelined loopback ladder with telemetry
/// recording on vs off (same engine, same server, interleaved runs).
/// Returns `(ops_per_sec_on, ops_per_sec_off, overhead_pct)` where the
/// overhead is how much throughput recording costs — the ISSUE budget is
/// < 2%.
pub fn run_instrumentation_overhead(
    shards: usize,
    records: usize,
    ops: u64,
    clients: usize,
) -> (f64, f64, f64) {
    let engine = build_engine(shards, records);
    let server = GdprServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default())
        .expect("bind server");
    let addr = server.local_addr().to_string();
    // Warm up, then alternate off/on twice and keep the best of each —
    // interleaving cancels drift (thermal, cache, scheduler) that a
    // one-shot A/B would mistake for overhead.
    run_remote(&addr, records, (ops / 10).max(1), clients, PIPELINE_DEPTH);
    let mut best_on = 0f64;
    let mut best_off = 0f64;
    for _ in 0..2 {
        telemetry::set_recording(false);
        let off = run_remote(&addr, records, ops, clients, PIPELINE_DEPTH);
        telemetry::set_recording(true);
        let on = run_remote(&addr, records, ops, clients, PIPELINE_DEPTH);
        best_off = best_off.max(ops as f64 / off.as_secs_f64().max(1e-9));
        best_on = best_on.max(ops as f64 / on.as_secs_f64().max(1e-9));
    }
    server.shutdown();
    let overhead_pct = 100.0 * (best_off - best_on) / best_off.max(1e-9);
    (best_on, best_off, overhead_pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ladder runs end to end at toy scale and reports every mode at
    /// every client count. Deliberately tiny — the bench lib's tests run
    /// concurrently on few cores, so this checks plumbing, not speedups;
    /// the release-mode `remote_throughput` binary measures those (see the
    /// README's table).
    #[test]
    fn comparison_ladder_runs_every_mode() {
        let _gate = crate::timing_gate();
        let (table, series) = run_remote_comparison(&[1, 2], 2, 120, 400);
        assert_eq!(table.rows.len(), 6);
        assert_eq!(series.len(), 6);
        for (mode, clients, throughput) in &series {
            assert!(
                *throughput > 0.0,
                "mode {mode} at {clients} clients reported no throughput"
            );
        }
    }

    /// The depth sweep reports a row per depth; throughput is always
    /// positive. Speedups are a release-mode question (the README's
    /// table), not a debug-test one.
    #[test]
    fn depth_sweep_covers_every_depth() {
        let _gate = crate::timing_gate();
        let (table, series) = run_depth_sweep(2, 120, 400, 2);
        assert_eq!(table.rows.len(), DEPTH_SWEEP.len());
        assert_eq!(series.len(), DEPTH_SWEEP.len());
        for ((depth, throughput), expected) in series.iter().zip(DEPTH_SWEEP) {
            assert_eq!(*depth, expected);
            assert!(*throughput > 0.0, "depth {depth} reported no throughput");
        }
    }

    /// Idle connections survive the active load (the ladder ping-probes
    /// every one) and the active workload still completes at every rung.
    #[test]
    fn idle_connections_survive_active_load() {
        let _gate = crate::timing_gate();
        let (table, series) = run_connection_scaling(2, 120, 400, 2, &[0, 64]);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(series[0].0, 0);
        assert_eq!(series[1].0, 64);
        assert!(series.iter().all(|&(_, tp)| tp > 0.0));
    }

    /// The encryption ladder reports both transports at every client
    /// count, and the two servers really differ: the encrypted rung is
    /// driven through the SecureChannel handshake, the plaintext one
    /// without.
    #[test]
    fn encryption_ladder_runs_both_transports() {
        let _gate = crate::timing_gate();
        let (table, series) = run_encryption_ladder(&[1, 2], 2, 120, 400);
        assert_eq!(table.rows.len(), 4);
        assert_eq!(series.len(), 4);
        for (transport, clients, throughput) in &series {
            assert!(
                *throughput > 0.0,
                "transport {transport} at {clients} clients reported no throughput"
            );
        }
        assert!(series.iter().any(|(t, _, _)| *t == "tcp/encrypted"));
        assert!(series.iter().any(|(t, _, _)| *t == "tcp/plaintext"));
    }

    /// The latency profile reports all four configurations with populated,
    /// monotone percentiles.
    #[test]
    fn latency_profile_covers_all_configs() {
        let _gate = crate::timing_gate();
        let (table, series) = run_latency_profile(2, 120, 400, 2);
        assert_eq!(table.rows.len(), 4);
        for mode in ["roundtrip", "pipelined"] {
            for transport in ["plain", "encrypted"] {
                let get = |suffix: &str| {
                    series
                        .iter()
                        .find(|(name, _)| name == &format!("{mode}_{transport}_{suffix}"))
                        .map(|&(_, v)| v)
                        .unwrap_or_else(|| panic!("missing {mode}_{transport}_{suffix}"))
                };
                let (p50, p99, p999) = (get("p50_us"), get("p99_us"), get("p999_us"));
                assert!(
                    p50 > 0.0 && p50 <= p99 && p99 <= p999,
                    "{mode}/{transport}: {p50} {p99} {p999}"
                );
                assert!(get("rate_ops_per_sec") > 0.0);
            }
        }
    }

    /// The overhead A/B runs both arms and reports a finite percentage.
    /// (The <2% budget is a release-mode claim — `bench_report` measures
    /// it at full scale; this checks the plumbing and that recording is
    /// back on afterwards.)
    #[test]
    fn instrumentation_overhead_measures_both_arms() {
        let _gate = crate::timing_gate();
        let (on, off, pct) = run_instrumentation_overhead(2, 120, 400, 2);
        assert!(on > 0.0 && off > 0.0);
        assert!(pct.is_finite());
        assert!(
            telemetry::recording_enabled(),
            "overhead run must leave recording enabled"
        );
    }

    /// Remote and in-process modes drive the same engine: the record count
    /// is stable (point ops only rewrite), and every key still answers.
    #[test]
    fn modes_share_one_engine_state() {
        let engine = build_engine(2, 64);
        let server =
            GdprServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default()).unwrap();
        run_remote(&server.local_addr().to_string(), 64, 200, 2, 8);
        assert_eq!(engine.record_count(), 64);
        server.shutdown();
    }
}
