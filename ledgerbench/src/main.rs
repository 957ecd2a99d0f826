//! The GDPRbench cost ledger: three of the paper's workloads, one per
//! backend family, each run closed-loop by one client from one process.
//!
//! ```text
//! cargo run --release --manifest-path ledgerbench/Cargo.toml -- \
//!     --workload customer-tcp|processor-pg|controller-disk \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! A run pre-generates the op stream from `--seed`, then runs episodes
//! until `--seconds` of timed work are done: each episode builds a fresh
//! instance and loads the corpus (timed as set-up), then replays the
//! stream. A correctness pass replays the same stream against another
//! fresh instance and checks every response against the oracle. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! alternates plain, telemetry-off and traced episodes and prints the
//! per-layer metrics. The last stdout line is one JSON object.

mod instance;
mod trace;

use gdprbench_repro::crypto::channel::{DuplexChannel, SecureChannel};
use gdprbench_repro::gdpr_core::error::GdprResult;
use gdprbench_repro::gdpr_core::telemetry;
use gdprbench_repro::gdpr_core::{GdprError, GdprQuery, GdprResponse, Session};
use gdprbench_repro::gdpr_server::{wire, RequestBody, ResponseBody};
use gdprbench_repro::workload::datagen::record_of;
use gdprbench_repro::workload::oracle::{responses_match, Oracle};
use instance::{Counters, Footprint, Instance, Op, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

const USAGE: &str = "usage: ledgerbench --workload customer-tcp|processor-pg|controller-disk \
                     --seed N --seconds S --trace 0|1";

/// Episodes per untraced run at least, so that `setup_s` is a median.
const MIN_EPISODES: usize = 3;

/// No new episode starts after this much wall time, whatever `--seconds`
/// asks for, so a slow machine still ends the run in time.
const WALL_BUDGET: Duration = Duration::from_secs(120);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// How the ops of a run ended.
#[derive(Debug, Default, Clone, Copy)]
struct Outcomes {
    ok: u64,
    /// NotFound, AccessDenied, AlreadyExists: GDPR outcomes the oracle
    /// predicts.
    expected: u64,
    /// Transport, store, invalid-record, unsupported and misroute errors.
    failed: u64,
    bulk_ops: u64,
    bulk_records: u64,
}

impl Outcomes {
    fn record(&mut self, query: &GdprQuery, result: &GdprResult<GdprResponse>) {
        match result {
            Ok(response) => {
                self.ok += 1;
                if is_bulk(query) {
                    self.bulk_ops += 1;
                    self.bulk_records += response.cardinality() as u64;
                }
            }
            Err(e) if expected_error(e) => self.expected += 1,
            Err(e) => {
                if self.failed == 0 {
                    eprintln!("ledgerbench: {} failed: {e}", query.name());
                }
                self.failed += 1;
            }
        }
    }

    fn attempted(&self) -> u64 {
        self.ok + self.expected + self.failed
    }

    fn add(&mut self, o: &Outcomes) {
        self.ok += o.ok;
        self.expected += o.expected;
        self.failed += o.failed;
        self.bulk_ops += o.bulk_ops;
        self.bulk_records += o.bulk_records;
    }
}

/// The GDPR outcomes the oracle predicts for a well-formed stream; any
/// other error is a failure.
fn expected_error(e: &GdprError) -> bool {
    use GdprError::*;
    matches!(e, NotFound(_) | AccessDenied { .. } | AlreadyExists(_))
}

/// A predicate op: it selects its records by metadata, not by key.
fn is_bulk(query: &GdprQuery) -> bool {
    let name = query.name();
    !name.ends_with("-by-key") && name != "create-record"
}

/// One fresh instance, loaded and driven through the stream once.
struct Episode {
    setup_s: f64,
    /// Wall time and per-op latencies of the timed ops, after warm-up.
    wall_s: f64,
    latencies_ns: Vec<u64>,
    /// Every op, warm-up included.
    outcomes: Outcomes,
    counters: Counters,
    footprint: Footprint,
    /// `(stage, sum_ns, count)` from the server's `GetMetrics`.
    stages: Vec<(String, u64, u64)>,
}

fn run_episode(
    w: Workload,
    ops: &[Op],
    tracer: Option<&Arc<Tracer>>,
    dir: &Path,
) -> Result<Episode, String> {
    let inst = Instance::build(w, tracer, dir)?;
    let before = inst.counters();
    let mut latencies_ns = Vec::with_capacity(ops.len());
    let mut outcomes = Outcomes::default();
    let mut start = Instant::now();
    for (i, (session, query)) in ops.iter().enumerate() {
        if i == w.warmup() {
            latencies_ns.clear();
            start = Instant::now();
        }
        let (result, ns) = match tracer {
            Some(t) => t.in_span(trace::CLIENT, query.name(), i as u64, 1, || {
                inst.conn.execute(session, query)
            }),
            None => {
                let start = Instant::now();
                let result = inst.conn.execute(session, query);
                (result, start.elapsed().as_nanos() as u64)
            }
        };
        latencies_ns.push(ns);
        outcomes.record(query, &result);
    }
    let wall_s = start.elapsed().as_secs_f64();
    Ok(Episode {
        setup_s: inst.setup_s,
        wall_s,
        latencies_ns,
        outcomes,
        counters: inst.counters().delta(before),
        footprint: inst.footprint(),
        stages: inst.server_stages()?,
    })
}

/// Wire and cipher cost of the run's ops, replayed outside any timed
/// phase: both codec directions and a seal/open of both frames.
struct CodecProbe {
    client: DuplexChannel,
    server: DuplexChannel,
    ops: u64,
    bytes: u64,
    codec_ns: u64,
    crypto_ns: u64,
}

impl CodecProbe {
    fn new() -> CodecProbe {
        let (client, server) = SecureChannel::pair(b"ledgerbench codec probe");
        CodecProbe {
            client,
            server,
            ops: 0,
            bytes: 0,
            codec_ns: 0,
            crypto_ns: 0,
        }
    }

    fn replay(
        &mut self,
        session: &Session,
        query: &GdprQuery,
        result: &GdprResult<GdprResponse>,
    ) -> Result<(), String> {
        let seq = self.ops;
        let request = RequestBody::Execute(session.clone(), query.clone());
        let response = match result {
            Ok(r) => ResponseBody::Response(r.clone()),
            Err(e) => ResponseBody::Error(e.clone()),
        };
        let start = Instant::now();
        let req = wire::encode_request(seq, &session.tenant, &request);
        let decoded_req = wire::decode_request(&req);
        let resp = wire::encode_response(seq, &response);
        let decoded_resp = wire::decode_response(&resp);
        let coded = Instant::now();
        let opened_req = self.server.open(&self.client.seal(&req));
        let opened_resp = self.client.open(&self.server.seal(&resp));
        let sealed = Instant::now();
        let roundtrips = matches!(decoded_req, Ok((_, _, ref b)) if *b == request)
            && matches!(decoded_resp, Ok((_, ref b)) if *b == response)
            && opened_req.as_deref() == Ok(&req[..])
            && opened_resp.as_deref() == Ok(&resp[..]);
        if !roundtrips {
            return Err(format!("{} does not survive the wire", query.name()));
        }
        self.ops += 1;
        self.bytes += (req.len() + resp.len()) as u64;
        self.codec_ns += (coded - start).as_nanos() as u64;
        self.crypto_ns += (sealed - coded).as_nanos() as u64;
        Ok(())
    }
}

/// Result of the single-client oracle pass.
struct Check {
    ops: u64,
    mismatches: u64,
    space_factor: f64,
    codec: Option<CodecProbe>,
}

/// Replay the stream against a fresh instance (over the wire for
/// `customer-tcp`) and compare each response with the oracle's.
fn correctness_pass(
    w: Workload,
    ops: &[Op],
    dir: &Path,
    probe_codec: bool,
) -> Result<Check, String> {
    let inst = Instance::build(w, None, dir)?;
    let corpus = w.corpus();
    let mut oracle = Oracle::new();
    oracle.load((0..corpus.records).map(|i| record_of(i, &corpus)));
    let mut codec = probe_codec.then(CodecProbe::new);
    let mut mismatches = 0;
    for (session, query) in ops {
        let actual = inst.conn.execute(session, query);
        let expected = oracle.apply(session, query);
        if !responses_match(query, &expected, &actual) {
            if mismatches == 0 {
                eprintln!(
                    "ledgerbench: oracle mismatch on {}: expected {expected:?}, got {actual:?}",
                    query.name()
                );
            }
            mismatches += 1;
        }
        if let Some(codec) = codec.as_mut() {
            codec.replay(session, query, &actual)?;
        }
    }
    // A graceful close checkpoints the disk store, so the space read
    // does not depend on where the stream left the WAL.
    inst.conn.close().map_err(|e| format!("close: {e}"))?;
    Ok(Check {
        ops: ops.len() as u64,
        mismatches,
        space_factor: inst.conn.space_report().overhead_factor(),
        codec,
    })
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

impl Episode {
    fn ops_per_s(&self) -> f64 {
        self.latencies_ns.len() as f64 / self.wall_s
    }
}

/// Median of the episodes' `ops_per_s`.
fn median_rate<'a>(episodes: impl IntoIterator<Item = &'a Episode>) -> f64 {
    median(
        &mut episodes
            .into_iter()
            .map(Episode::ops_per_s)
            .collect::<Vec<_>>(),
    )
}

/// Metrics in print order: `(name, value, unit)`.
type Metrics = Vec<(String, f64, &'static str)>;

struct Report {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
}

/// `ops_per_s` and `p99_us` are medians over the run's episodes, so a
/// burst of outside load that slows one episode does not move them.
/// `p50_us` pools every sample: a median is already robust to one slow
/// episode, and the disk workload has too few ops per episode for a
/// per-episode median to be steady.
fn end_to_end(episodes: &[Episode], check: &Check, rss: f64) -> Metrics {
    let (mut p99s, mut setups, mut all) = (vec![], vec![], vec![]);
    for (i, e) in episodes.iter().enumerate() {
        let mut lat = e.latencies_ns.clone();
        lat.sort_unstable();
        p99s.push(percentile(&lat, 0.99) as f64 / 1e3);
        setups.push(e.setup_s);
        println!(
            "episode {i}: setup {:.3} s, {:.1} ops/s, p50 {:.1} us, p99 {:.1} us \
             ({} samples, {} beyond p99)",
            setups[i],
            e.ops_per_s(),
            percentile(&lat, 0.50) as f64 / 1e3,
            p99s[i],
            lat.len(),
            lat.len() - (0.99 * lat.len() as f64).ceil() as usize
        );
        all.extend(lat);
    }
    all.sort_unstable();
    println!("p50 over {} samples", all.len());
    vec![
        ("ops_per_s".into(), median_rate(episodes), "1/s"),
        ("p50_us".into(), percentile(&all, 0.50) as f64 / 1e3, "us"),
        ("p99_us".into(), median(&mut p99s), "us"),
        ("space_factor".into(), check.space_factor, "x"),
        ("setup_s".into(), median(&mut setups), "s"),
        ("peak_rss_mb".into(), rss, "MB"),
    ]
}

#[derive(Clone, Copy, PartialEq)]
enum Arm {
    Plain,
    TelemetryOff,
    Traced,
}

fn per_layer(
    w: Workload,
    episodes: &[(Arm, Episode)],
    spans: &[trace::Span],
    check: &Check,
) -> Result<Metrics, String> {
    let arm = |a: Arm| -> Vec<&Episode> {
        episodes
            .iter()
            .filter(|(x, _)| *x == a)
            .map(|(_, e)| e)
            .collect()
    };
    let (plain, off, traced) = (arm(Arm::Plain), arm(Arm::TelemetryOff), arm(Arm::Traced));
    let mut b = trace::breakdown(spans)?;
    let ops = b.ops.max(1) as f64;
    let us = |ns: u64| ns as f64 / 1e3 / ops;
    let mut counters = Counters::default();
    let mut outcomes = Outcomes::default();
    let mut stages: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for e in &traced {
        counters.add(e.counters);
        outcomes.add(&e.outcomes);
        for (name, sum, count) in &e.stages {
            let s = stages.entry(name.clone()).or_default();
            s.0 += sum;
            s.1 += count;
        }
    }
    if outcomes.attempted() != b.ops {
        return Err(format!(
            "{} client spans for {} traced ops",
            b.ops,
            outcomes.attempted()
        ));
    }
    let stage_mean = |name: &str, scale: f64| {
        stages.get(name).map_or(0.0, |&(sum, count)| {
            sum as f64 / count.max(1) as f64 * scale
        })
    };
    let footprint = traced.last().map(|e| e.footprint).unwrap_or_default();
    let per_record = |bytes: f64| bytes / footprint.records.max(1) as f64;
    let codec = check
        .codec
        .as_ref()
        .ok_or("traced run without codec probe")?;
    let codec_ops = codec.ops.max(1) as f64;
    let pct = |base: f64, other: f64| (base / other - 1.0) * 100.0;
    let (plain_rate, off_rate, traced_rate) = (
        median_rate(plain),
        median_rate(off),
        median_rate(traced.iter().copied()),
    );

    let client_us = us(b.client_ns);
    let sum_us = us(b.transport_self_ns) + us(b.engine_self_ns) + us(b.store_self_ns);
    println!(
        "{}: layer self times sum to {sum_us:.3} us/op; client span {client_us:.3} us/op \
         (residual {:.6} us)",
        w.name(),
        client_us - sum_us
    );
    println!(
        "{}: ops/s plain {plain_rate:.1}, telemetry off {off_rate:.1}, traced {traced_rate:.1}",
        w.name()
    );
    if w != Workload::ControllerDisk {
        println!(
            "{}: store.* spans are unreachable from outside the program here: \
             the redis and postgres record stores have no public constructor to wrap, \
             so engine.self_us includes store time",
            w.name()
        );
    }

    let mut m: Metrics = vec![
        ("client.span_us".into(), client_us, "us"),
        ("server.engine_span_us".into(), us(b.server_ns), "us"),
        ("transport.self_us".into(), us(b.transport_self_ns), "us"),
        ("engine.self_us".into(), us(b.engine_self_ns), "us"),
        ("store.self_us".into(), us(b.store_self_ns), "us"),
        (
            "server.decode_wait_us".into(),
            stage_mean("decode_wait", 1e-3),
            "us",
        ),
        (
            "server.queue_wait_us".into(),
            stage_mean("queue_wait", 1e-3),
            "us",
        ),
        (
            "server.write_drain_us".into(),
            stage_mean("write_drain", 1e-3),
            "us",
        ),
        (
            "server.batch_size".into(),
            stage_mean("batch_size", 1.0),
            "count",
        ),
        (
            "wire.bytes_per_op".into(),
            codec.bytes as f64 / codec_ops,
            "B",
        ),
        (
            "wire.codec_us_per_op".into(),
            codec.codec_ns as f64 / 1e3 / codec_ops,
            "us",
        ),
        (
            "crypto.channel_us_per_op".into(),
            codec.crypto_ns as f64 / 1e3 / codec_ops,
            "us",
        ),
    ];
    for (name, _) in Workload::ALL.iter().flat_map(|w| w.mix()) {
        let p50 = b.engine_by_op.get_mut(name).map_or(0.0, |v| {
            v.sort_unstable();
            percentile(v, 0.5) as f64 / 1e3
        });
        m.push((format!("engine.exec_us.{name}"), p50, "us"));
    }
    let b_store = |name: &str| us(b.store_by_name.get(name).copied().unwrap_or(0));
    m.extend([
        (
            "engine.records_per_bulk_op".into(),
            outcomes.bulk_records as f64 / outcomes.bulk_ops.max(1) as f64,
            "count",
        ),
        (
            "audit.bytes_per_op".into(),
            counters.audit_bytes as f64 / ops,
            "B",
        ),
        (
            "metaindex.bytes_per_record".into(),
            per_record(footprint.metaindex_bytes as f64),
            "B",
        ),
        (
            "store.calls_per_op".into(),
            b.store_calls as f64 / ops,
            "count",
        ),
        (
            "store.self_us.fetch".into(),
            b_store(trace::STORE_FETCH),
            "us",
        ),
        ("store.self_us.put".into(), b_store(trace::STORE_PUT), "us"),
        (
            "store.self_us.rewrite".into(),
            b_store(trace::STORE_REWRITE),
            "us",
        ),
        (
            "store.self_us.delete".into(),
            b_store(trace::STORE_DELETE),
            "us",
        ),
        (
            "store.self_us.other".into(),
            b_store(trace::STORE_OTHER),
            "us",
        ),
        (
            "pagestore.pool_hit_ratio".into(),
            counters.pool_hits as f64 / (counters.pool_hits + counters.pool_misses).max(1) as f64,
            "ratio",
        ),
        (
            "pagestore.evictions_per_op".into(),
            counters.evictions as f64 / ops,
            "count",
        ),
        (
            "pagestore.wal_commits_per_op".into(),
            counters.wal_commits as f64 / ops,
            "count",
        ),
        (
            "pagestore.bytes_per_record".into(),
            per_record(footprint.page_bytes as f64),
            "B",
        ),
        (
            "relstore.statements_per_op".into(),
            counters.rel_statements as f64 / ops,
            "count",
        ),
        (
            "relstore.reads_per_op".into(),
            counters.rel_reads as f64 / ops,
            "count",
        ),
        (
            "relstore.bytes_per_record".into(),
            per_record(footprint.rel_bytes as f64),
            "B",
        ),
        (
            "relstore.wal_bytes_per_op".into(),
            counters.rel_wal_bytes as f64 / ops,
            "B",
        ),
        (
            "kvstore.commands_per_op".into(),
            counters.kv_commands as f64 / ops,
            "count",
        ),
        (
            "driver.expected_error_share".into(),
            outcomes.expected as f64 / outcomes.attempted().max(1) as f64,
            "ratio",
        ),
        (
            "trace.overhead_pct".into(),
            pct(plain_rate, traced_rate),
            "%",
        ),
        (
            "telemetry.overhead_pct".into(),
            pct(off_rate, plain_rate),
            "%",
        ),
    ]);
    Ok(m)
}

fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let w = args.workload;
    let ops = w.stream(args.seed);
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let ep_dir = |n: usize| dir.join(format!("episode-{n}"));
    let mut episodes: Vec<(Arm, Episode)> = Vec::new();
    let tracer = Tracer::new();
    let arms: &[Arm] = if args.trace {
        &[Arm::Plain, Arm::TelemetryOff, Arm::Traced]
    } else {
        &[Arm::Plain]
    };
    let min_episodes = if args.trace { arms.len() } else { MIN_EPISODES };
    let mut timed = Duration::ZERO;
    while (timed < budget || episodes.len() < min_episodes) && started.elapsed() < WALL_BUDGET {
        // Arms run in ABC CBA order, so no arm always runs first.
        let (cycle, pos) = (episodes.len() / arms.len(), episodes.len() % arms.len());
        let arm = arms[if cycle % 2 == 0 {
            pos
        } else {
            arms.len() - 1 - pos
        }];
        telemetry::set_recording(arm != Arm::TelemetryOff);
        let e = run_episode(
            w,
            &ops,
            (arm == Arm::Traced).then_some(&tracer),
            &ep_dir(episodes.len()),
        )?;
        telemetry::set_recording(true);
        timed += Duration::from_secs_f64(e.wall_s);
        episodes.push((arm, e));
    }
    let rss = peak_rss_mb()?;
    let check = correctness_pass(w, &ops, &ep_dir(episodes.len()), args.trace)?;
    let mut outcomes = Outcomes::default();
    for (_, e) in &episodes {
        outcomes.add(&e.outcomes);
    }
    println!(
        "{}: {} episodes of {} ops ({} of them warm-up) on one client, {:.2} s timed; \
         correctness pass {} ops, {} oracle mismatches",
        w.name(),
        episodes.len(),
        ops.len(),
        w.warmup(),
        timed.as_secs_f64(),
        check.ops,
        check.mismatches
    );
    let metrics = if args.trace {
        per_layer(w, &episodes, &tracer.take(), &check)?
    } else {
        let plain: Vec<Episode> = episodes.into_iter().map(|(_, e)| e).collect();
        end_to_end(&plain, &check, rss)
    };
    let attempted = outcomes.attempted() + check.ops;
    let failed = outcomes.failed + check.mismatches;
    println!(
        "failed_share = {} ratio ({failed} of {attempted}); expected GDPR errors {} of {}",
        failed as f64 / attempted as f64,
        outcomes.expected,
        outcomes.attempted()
    );
    Ok(Report {
        metrics,
        attempted,
        failed,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledgerbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(".ledgerbench_data").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("ledgerbench: {e}");
            std::process::exit(1);
        }
    };
    for (name, value, unit) in &report.metrics {
        println!("{name} = {value} {unit}");
    }
    let correct = report.failed == 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
