//! Machine-readable benchmark report: runs the `remote_throughput`,
//! encrypted-transport, `shard_scaling`, and open-loop `latency` suites in
//! one process and writes a suite → metric → value JSON file to the
//! required `--out PATH` alongside the usual text tables. There is no
//! default path, so a run can never overwrite a committed history file
//! by accident.
//!
//! ```sh
//! bench_report --records 20000 --ops 60000 --out bench-report.json
//! ```
//!
//! Accepts the common experiment flags (`--records`, `--ops`,
//! `--threads`, `--shards`; shards 0 = 4) plus `--out PATH`. The depth
//! sweep and connection-scaling runs use `--threads` clients; the mode
//! comparison runs the 1/4/16 client ladder unless `--threads` pins one.

use bench::cli::Params;
use bench::experiments::remote::{
    run_connection_scaling, run_depth_sweep, run_encryption_ladder, run_instrumentation_overhead,
    run_latency_profile, run_remote_comparison, DEFAULT_CLIENTS, DEPTH_SWEEP, IDLE_LADDER,
};
use bench::experiments::sharding::{run_point_op_scaling, DEFAULT_LADDER};
use bench::report::BenchReport;

fn main() {
    // Peel off `--out PATH`; everything else is the common flag set.
    let mut out_path = None;
    let mut rest = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--out" {
            match argv.next() {
                Some(path) => out_path = Some(path),
                None => {
                    eprintln!("--out requires a value");
                    std::process::exit(2);
                }
            }
        } else {
            rest.push(flag);
        }
    }
    let usage = "plus: --out PATH (required)";
    let params = match Params::parse_from(rest) {
        Ok(params) => params,
        Err(msg) => {
            eprintln!("{msg}\n{usage}");
            std::process::exit(2);
        }
    };
    let Some(out_path) = out_path else {
        eprintln!("bench_report: --out PATH is required\n{usage}");
        std::process::exit(2);
    };
    let shards = if params.shards == 0 { 4 } else { params.shards };
    let clients: Vec<usize> = if params.threads == Params::default().threads {
        DEFAULT_CLIENTS.to_vec()
    } else {
        vec![params.threads]
    };
    let mut report = BenchReport::new();
    report.record("workload", "records", params.records as f64);
    report.record("workload", "ops", params.ops as f64);
    report.record("workload", "shards", shards as f64);

    // Suite 1: in-process vs roundtrip vs pipelined TCP.
    let (table, series) = run_remote_comparison(&clients, shards, params.records, params.ops);
    println!("{}", table.render());
    for (mode, client_count, throughput) in &series {
        let metric = format!("{}_c{client_count}_ops_per_sec", mode.replace('/', "_"));
        report.record("remote_throughput", &metric, *throughput);
    }
    for &client_count in &clients {
        let find = |mode: &str| {
            series
                .iter()
                .find(|(m, c, _)| *m == mode && *c == client_count)
                .map(|&(_, _, tp)| tp)
        };
        if let (Some(roundtrip), Some(pipelined)) = (find("tcp/roundtrip"), find("tcp/pipelined")) {
            report.record(
                "remote_throughput",
                &format!("pipelined_vs_roundtrip_c{client_count}"),
                pipelined / roundtrip.max(1e-9),
            );
        }
    }

    // Suite 2: plaintext vs encrypted transport, pipelined.
    let (enc_table, enc_series) =
        run_encryption_ladder(&clients, shards, params.records, params.ops);
    println!("{}", enc_table.render());
    for (transport, client_count, throughput) in &enc_series {
        let metric = format!(
            "{}_c{client_count}_ops_per_sec",
            transport.replace('/', "_")
        );
        report.record("encrypted_transport", &metric, *throughput);
    }
    for &client_count in &clients {
        let find = |transport: &str| {
            enc_series
                .iter()
                .find(|(t, c, _)| *t == transport && *c == client_count)
                .map(|&(_, _, tp)| tp)
        };
        if let (Some(plain), Some(encrypted)) = (find("tcp/plaintext"), find("tcp/encrypted")) {
            report.record(
                "encrypted_transport",
                &format!("encrypted_vs_plaintext_c{client_count}"),
                encrypted / plain.max(1e-9),
            );
        }
    }

    // Suite 3: pipeline-depth sweep at a fixed client count.
    let (depth_table, depth_series) =
        run_depth_sweep(shards, params.records, params.ops, params.threads);
    println!("{}", depth_table.render());
    for (depth, throughput) in &depth_series {
        report.record(
            "pipeline_depth",
            &format!("depth_{depth}_ops_per_sec"),
            *throughput,
        );
    }
    if let (Some(&(_, base)), Some(&(deepest, top))) = (depth_series.first(), depth_series.last()) {
        report.record(
            "pipeline_depth",
            &format!("depth_{deepest}_vs_depth_{}", DEPTH_SWEEP[0]),
            top / base.max(1e-9),
        );
    }

    // Suite 4: active pipelined throughput vs idle-connection count.
    let (conn_table, conn_series) = run_connection_scaling(
        shards,
        params.records,
        params.ops,
        params.threads,
        &IDLE_LADDER,
    );
    println!("{}", conn_table.render());
    for (idle, throughput) in &conn_series {
        report.record(
            "connection_scaling",
            &format!("idle_{idle}_ops_per_sec"),
            *throughput,
        );
    }

    // Suite 5: shard-scaling ladder (in-process point ops).
    let (shard_table, shard_series) =
        run_point_op_scaling(&DEFAULT_LADDER, params.records, params.ops, params.threads);
    println!("{}", shard_table.render());
    for (shard_count, throughput) in &shard_series {
        report.record(
            "sharding",
            &format!("shards_{shard_count}_ops_per_sec"),
            *throughput,
        );
    }
    if let (Some(&(_, one)), Some(&(top_shards, top))) = (shard_series.first(), shard_series.last())
    {
        report.record(
            "sharding",
            &format!("shards_{top_shards}_speedup"),
            top / one.max(1e-9),
        );
    }

    // Suite 6: open-loop latency percentiles (coordinated-omission-safe)
    // for roundtrip/pipelined × plaintext/encrypted, plus the telemetry
    // instrumentation-overhead A/B on the pipelined ladder.
    let (lat_table, lat_series) = run_latency_profile(
        shards,
        params.records,
        params.ops.min(40_000),
        params.threads.max(4),
    );
    println!("{}", lat_table.render());
    for (metric, value) in &lat_series {
        report.record("latency", metric, *value);
    }
    let (tp_on, tp_off, overhead_pct) =
        run_instrumentation_overhead(shards, params.records, params.ops, params.threads.max(4));
    println!(
        "instrumentation overhead: {:.1} ops/s recording on vs {:.1} off ({overhead_pct:.2}%)\n",
        tp_on, tp_off
    );
    report.record("latency", "recording_on_ops_per_sec", tp_on);
    report.record("latency", "recording_off_ops_per_sec", tp_off);
    report.record("latency", "instrumentation_overhead_pct", overhead_pct);

    // Suite 7: the disk-native pagestore backend — both restart axes
    // (WAL-tail replay vs checkpointed reopen, snapshot restore vs scan
    // rebuild) and the indexed-vs-scan query ladder. Context metrics:
    // none are throughput floors, so the gate never fails on them, but
    // drift shows up in the report diff.
    let (disk_rec_table, disk_rec) = bench::experiments::recovery::run_disk(params.records);
    println!("{}", disk_rec_table.render());
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    report.record("pagestore", "wal_reopen_ms", ms(disk_rec.wal_reopen));
    report.record(
        "pagestore",
        "wal_frames_replayed",
        disk_rec.wal_frames as f64,
    );
    report.record(
        "pagestore",
        "checkpointed_reopen_ms",
        ms(disk_rec.checkpointed_reopen),
    );
    report.record("pagestore", "index_rebuild_ms", ms(disk_rec.rebuild));
    report.record("pagestore", "index_restore_ms", ms(disk_rec.restore));
    report.record(
        "pagestore",
        "snapshot_write_ms",
        ms(disk_rec.snapshot_write),
    );
    report.record("pagestore", "restore_speedup", disk_rec.speedup());
    let (disk_idx_table, disk_idx) =
        bench::experiments::metaindex::run_disk(params.records.min(20_000), 10);
    println!("{}", disk_idx_table.render());
    for point in &disk_idx {
        let metric = format!(
            "indexed_vs_scan_{}",
            point
                .query
                .replace("read-data-by-", "")
                .replace([' ', '(', ')'], "")
        );
        report.record("pagestore", &metric, point.speedup());
    }

    let json = report.to_json();
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("bench_report: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}
