//! The three workloads and the system instances they run against.
//!
//! Each instance is built from the program's public constructors exactly
//! as `drivers::build_connector` builds the same `--db` variant; the
//! traced form differs only by the benchmark's own span wrappers.

use crate::trace::{ServedSpans, TracedStore, Tracer};
use gdprbench_repro::clock;
use gdprbench_repro::connectors::{
    DiskConnector, DiskStore, PostgresConnector, RedisConnector, RemoteConnector,
};
use gdprbench_repro::gdpr_core::audit::AuditTrail;
use gdprbench_repro::gdpr_core::{
    ComplianceEngine, EngineHandle, GdprConnector, GdprQuery, MetadataIndex, Session,
};
use gdprbench_repro::gdpr_server::ServerConfig;
use gdprbench_repro::kvstore::{KvConfig, KvStore};
use gdprbench_repro::pagestore::{PageStore, PageStoreConfig};
use gdprbench_repro::relstore::{Database, RelConfig};
use gdprbench_repro::workload::datagen::CorpusConfig;
use gdprbench_repro::workload::gdpr::{load_corpus, stable_corpus};
use gdprbench_repro::workload::{GdprWorkload, GdprWorkloadKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub type Op = (Session, GdprQuery);

/// Pre-shared key of the encrypted loopback transport.
const PSK: &str = "ledgerbench-psk";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CustomerTcp,
    ProcessorPg,
    ControllerDisk,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CustomerTcp,
        Workload::ProcessorPg,
        Workload::ControllerDisk,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "customer-tcp" => Some(Workload::CustomerTcp),
            "processor-pg" => Some(Workload::ProcessorPg),
            "controller-disk" => Some(Workload::ControllerDisk),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::CustomerTcp => "customer-tcp",
            Workload::ProcessorPg => "processor-pg",
            Workload::ControllerDisk => "controller-disk",
        }
    }

    fn kind(self) -> GdprWorkloadKind {
        match self {
            Workload::CustomerTcp => GdprWorkloadKind::Customer,
            Workload::ProcessorPg => GdprWorkloadKind::Processor,
            Workload::ControllerDisk => GdprWorkloadKind::Controller,
        }
    }

    pub fn corpus(self) -> CorpusConfig {
        stable_corpus(match self {
            Workload::CustomerTcp => 20_000,
            Workload::ProcessorPg | Workload::ControllerDisk => 10_000,
        })
    }

    /// Timed ops per episode. Fixed, because the share of expected errors
    /// drifts with run length (deleted keys accumulate).
    fn ops(self) -> usize {
        match self {
            Workload::CustomerTcp => 10_000,
            Workload::ProcessorPg => 300,
            Workload::ControllerDisk => 192,
        }
    }

    /// Ops replayed before an episode's clock starts. Right after set-up
    /// the server threads, the connection and the caches are cold: on
    /// `customer-tcp`, in a run of 13 episodes, the first 100 ops of an
    /// episode held 2 to 9 times their share of the ops beyond p99. The
    /// in-process workloads' time goes to bulk ops of milliseconds each,
    /// which a cold start barely moves.
    pub fn warmup(self) -> usize {
        match self {
            Workload::CustomerTcp => 1_000,
            Workload::ProcessorPg | Workload::ControllerDisk => 0,
        }
    }

    /// Table 2a shares by query name. `GdprWorkload` draws ops from these
    /// weights; each stream keeps exactly these shares so that streams of
    /// different seeds carry the same amount of bulk work.
    pub fn mix(self) -> &'static [(&'static str, f64)] {
        match self {
            Workload::CustomerTcp => &[
                ("read-data-by-usr", 0.2),
                ("read-metadata-by-key", 0.2),
                ("update-data-by-key", 0.2),
                ("update-metadata-by-key", 0.2),
                ("delete-record-by-key", 0.2),
            ],
            Workload::ProcessorPg => &[
                ("read-data-by-key", 0.8),
                ("read-data-by-pur", 0.2 / 3.0),
                ("read-data-by-obj", 0.2 / 3.0),
                ("read-data-by-dec", 0.2 / 3.0),
            ],
            Workload::ControllerDisk => &[
                ("create-record", 0.25),
                ("delete-record-by-pur", 0.25 / 3.0),
                ("delete-record-by-ttl", 0.25 / 3.0),
                ("delete-record-by-usr", 0.25 / 3.0),
                ("update-metadata-by-pur", 0.5 / 3.0),
                ("update-metadata-by-usr", 1.0 / 3.0),
            ],
        }
    }

    /// The op stream, generated from `seed` before any clock starts: the
    /// warm-up ops, then the timed ones. Each part keeps exactly the mix
    /// shares; draws beyond a query class's share are skipped.
    pub fn stream(self, seed: u64) -> Vec<Op> {
        let corpus = self.corpus();
        let creates = Arc::new(AtomicU64::new(corpus.records as u64));
        let mut gen = GdprWorkload::new(self.kind(), corpus, creates);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ops = Vec::with_capacity(self.warmup() + self.ops());
        for part in [self.warmup(), self.ops()] {
            let mut quota: Vec<(&str, usize)> = self
                .mix()
                .iter()
                .map(|&(name, share)| (name, (share * part as f64).round() as usize))
                .collect();
            let mut left: usize = quota.iter().map(|(_, q)| q).sum();
            while left > 0 {
                let (session, query) = gen.next_op(&mut rng);
                let slot = quota
                    .iter_mut()
                    .find(|(name, _)| *name == query.name())
                    .unwrap_or_else(|| panic!("{} is outside the mix", query.name()));
                if slot.1 > 0 {
                    slot.1 -= 1;
                    left -= 1;
                    ops.push((session, query));
                }
            }
        }
        ops
    }
}

/// Counters read from the layers' own stats accessors.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub kv_commands: u64,
    pub rel_statements: u64,
    pub rel_reads: u64,
    pub rel_wal_bytes: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub evictions: u64,
    pub wal_commits: u64,
    pub audit_bytes: u64,
}

impl Counters {
    pub fn delta(self, before: Counters) -> Counters {
        Counters {
            kv_commands: self.kv_commands - before.kv_commands,
            rel_statements: self.rel_statements - before.rel_statements,
            rel_reads: self.rel_reads - before.rel_reads,
            rel_wal_bytes: self.rel_wal_bytes - before.rel_wal_bytes,
            pool_hits: self.pool_hits - before.pool_hits,
            pool_misses: self.pool_misses - before.pool_misses,
            evictions: self.evictions - before.evictions,
            wal_commits: self.wal_commits - before.wal_commits,
            audit_bytes: self.audit_bytes - before.audit_bytes,
        }
    }

    pub fn add(&mut self, d: Counters) {
        self.kv_commands += d.kv_commands;
        self.rel_statements += d.rel_statements;
        self.rel_reads += d.rel_reads;
        self.rel_wal_bytes += d.rel_wal_bytes;
        self.pool_hits += d.pool_hits;
        self.pool_misses += d.pool_misses;
        self.evictions += d.evictions;
        self.wal_commits += d.wal_commits;
        self.audit_bytes += d.audit_bytes;
    }
}

/// Sizes of the stored state.
#[derive(Debug, Default, Clone, Copy)]
pub struct Footprint {
    pub records: usize,
    pub metaindex_bytes: usize,
    pub rel_bytes: usize,
    pub page_bytes: u64,
}

/// The store below the engine, for its own stats.
enum Store {
    Kv(Arc<KvStore>),
    Rel(Arc<Database>),
    Pages(Arc<PageStore>),
}

/// A connector whose audit trail and metadata index can be read.
trait Audited: GdprConnector {
    fn audit(&self) -> &AuditTrail;
    fn metadata_index(&self) -> Option<&Arc<MetadataIndex>>;
}

impl Audited for RedisConnector {
    fn audit(&self) -> &AuditTrail {
        RedisConnector::audit(self)
    }
    fn metadata_index(&self) -> Option<&Arc<MetadataIndex>> {
        RedisConnector::metadata_index(self)
    }
}

impl Audited for PostgresConnector {
    fn audit(&self) -> &AuditTrail {
        PostgresConnector::audit(self)
    }
    fn metadata_index(&self) -> Option<&Arc<MetadataIndex>> {
        PostgresConnector::metadata_index(self)
    }
}

impl Audited for DiskConnector {
    fn audit(&self) -> &AuditTrail {
        DiskConnector::audit(self)
    }
    fn metadata_index(&self) -> Option<&Arc<MetadataIndex>> {
        DiskConnector::metadata_index(self)
    }
}

impl Audited for ComplianceEngine<TracedStore> {
    fn audit(&self) -> &AuditTrail {
        ComplianceEngine::audit(self)
    }
    fn metadata_index(&self) -> Option<&Arc<MetadataIndex>> {
        ComplianceEngine::metadata_index(self)
    }
}

pub struct Instance {
    /// What the client calls: the remote connector over loopback, or the
    /// engine in-process.
    pub conn: EngineHandle,
    /// The remote connector, when the client goes over the wire.
    remote: Option<Arc<RemoteConnector>>,
    engine: Arc<dyn Audited>,
    store: Store,
    /// The disk workload's data directory, removed on drop.
    dir: Option<PathBuf>,
    pub setup_s: f64,
}

impl Instance {
    /// Build a fresh instance, load the corpus and, for the wire workload,
    /// start the server and complete the handshake; `setup_s` times all
    /// of it. `dir` is the disk workload's data directory.
    pub fn build(
        w: Workload,
        tracer: Option<&Arc<Tracer>>,
        dir: &Path,
    ) -> Result<Instance, String> {
        let err = |e: &dyn std::fmt::Display| format!("{} setup: {e}", w.name());
        let corpus = w.corpus();
        let start = Instant::now();
        let (engine, store, dir): (Arc<dyn Audited>, Store, Option<PathBuf>) = match w {
            Workload::CustomerTcp => {
                let kv = KvStore::open_persistent(KvConfig::default(), clock::wall())
                    .map_err(|e| err(&e))?;
                let engine =
                    RedisConnector::with_metadata_index(Arc::clone(&kv)).map_err(|e| err(&e))?;
                (Arc::new(engine), Store::Kv(kv), None)
            }
            Workload::ProcessorPg => {
                let db =
                    Database::open(RelConfig::gdpr_compliant_in_memory()).map_err(|e| err(&e))?;
                let engine = PostgresConnector::with_metadata_indices(Arc::clone(&db))
                    .map_err(|e| err(&e))?;
                (Arc::new(engine), Store::Rel(db), None)
            }
            Workload::ControllerDisk => {
                if dir.exists() {
                    std::fs::remove_dir_all(dir).map_err(|e| err(&e))?;
                }
                let pages = PageStore::open(dir, PageStoreConfig::default(), clock::wall())
                    .map_err(|e| err(&e))?;
                let engine: Arc<dyn Audited> = match tracer {
                    Some(t) => Arc::new(
                        ComplianceEngine::with_metadata_index(TracedStore {
                            inner: DiskStore::over(Arc::clone(&pages), "disk"),
                            tracer: Arc::clone(t),
                        })
                        .map_err(|e| err(&e))?,
                    ),
                    None => Arc::new(
                        DiskConnector::with_metadata_index(Arc::clone(&pages))
                            .map_err(|e| err(&e))?,
                    ),
                };
                (engine, Store::Pages(pages), Some(dir.to_path_buf()))
            }
        };
        load_corpus(engine.as_ref(), &corpus).map_err(|e| err(&e))?;
        let remote = match w {
            Workload::CustomerTcp => {
                let served: EngineHandle = match tracer {
                    Some(t) => Arc::new(ServedSpans {
                        inner: engine.clone(),
                        tracer: Arc::clone(t),
                        seq: AtomicU64::new(0),
                    }),
                    None => engine.clone(),
                };
                let config = ServerConfig {
                    encrypt: Some(PSK.to_string()),
                    ..ServerConfig::default()
                };
                Some(Arc::new(
                    RemoteConnector::serve_in_process_with(served, 1, config)
                        .map_err(|e| err(&e))?,
                ))
            }
            _ => None,
        };
        Ok(Instance {
            conn: match &remote {
                Some(remote) => remote.clone(),
                None => engine.clone(),
            },
            remote,
            engine,
            store,
            dir,
            setup_s: start.elapsed().as_secs_f64(),
        })
    }

    pub fn counters(&self) -> Counters {
        let mut c = Counters {
            audit_bytes: self.engine.audit().size_bytes() as u64,
            ..Counters::default()
        };
        match &self.store {
            Store::Kv(kv) => c.kv_commands = kv.stats().commands.load(Ordering::Relaxed),
            Store::Rel(db) => {
                c.rel_statements = db.stats().statements.load(Ordering::Relaxed);
                c.rel_reads = db.stats().reads.load(Ordering::Relaxed);
                c.rel_wal_bytes = db.wal_bytes();
            }
            Store::Pages(pages) => {
                let pool = pages.pool_stats();
                c.pool_hits = pool.hits;
                c.pool_misses = pool.misses;
                c.evictions = pool.evictions;
                c.wal_commits = pages.generation();
            }
        }
        c
    }

    pub fn footprint(&self) -> Footprint {
        let mut f = Footprint {
            records: self.engine.record_count(),
            metaindex_bytes: self.engine.metadata_index().map_or(0, |i| i.size_bytes()),
            ..Footprint::default()
        };
        match &self.store {
            Store::Kv(_) => {}
            Store::Rel(db) => f.rel_bytes = db.total_size_bytes(),
            Store::Pages(pages) => f.page_bytes = pages.disk_bytes(),
        }
        f
    }

    /// Server pipeline stages from `GetMetrics`: `(name, sum_ns, count)`.
    pub fn server_stages(&self) -> Result<Vec<(String, u64, u64)>, String> {
        let Some(remote) = &self.remote else {
            return Ok(Vec::new());
        };
        let report = remote
            .client()
            .metrics()
            .map_err(|e| format!("GetMetrics: {e}"))?;
        Ok(report
            .stages
            .iter()
            .map(|s| (s.name.clone(), s.histogram.sum_ns, s.histogram.count))
            .collect())
    }
}

impl Drop for Instance {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_and_keep_the_mix_shares() {
        for w in Workload::ALL {
            let ops = w.stream(7);
            assert_eq!(ops.len(), w.warmup() + w.ops(), "{}", w.name());
            let (warmup, timed) = ops.split_at(w.warmup());
            for (part, len) in [(warmup, w.warmup()), (timed, w.ops())] {
                for &(name, share) in w.mix() {
                    let n = part.iter().filter(|(_, q)| q.name() == name).count();
                    assert_eq!(n, (share * len as f64).round() as usize, "{name}");
                }
            }
            let again = w.stream(7);
            assert!(ops.iter().zip(&again).all(|(a, b)| a.1 == b.1));
            assert!(ops.iter().zip(&w.stream(8)).any(|(a, b)| a.1 != b.1));
        }
    }
}
