//! Partition placement and the routing primitives of the
//! [`crate::ComplianceEngine`]'s router.
//!
//! Every query in the §3.3 taxonomy is either *key-scoped* or
//! *metadata-predicate-scoped*, and that dichotomy is the whole routing
//! story: point ops hash their storage key with [`shard_of`] and run on the
//! owning partition only, while predicate ops fan out to every partition
//! and merge. Group metadata updates additionally pre-validate on every
//! partition before any commits. Read fan-out and point-batch segments
//! overlap on a worker pool when there is more than one partition.

use crate::error::{GdprError, GdprResult};
use crate::query::{GdprQuery, MetadataUpdate};
use crate::response::GdprResponse;
use crate::store::RecordPredicate;
use parking_lot::Mutex;
use std::sync::{mpsc, Arc};

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
/// multi-partition engine, `min(partitions, cores)` threads, fed boxed
/// jobs over an mpsc channel. Hand-rolled on threads + a shared receiver
/// because the offline build has no executor crate — the same reason the
/// server crate's connection pool is hand-rolled.
pub(crate) struct FanoutPool {
    sender: Mutex<Option<mpsc::Sender<FanJob>>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

type FanJob = Box<dyn FnOnce() + Send + 'static>;

impl FanoutPool {
    pub(crate) fn new(threads: usize) -> FanoutPool {
        let (sender, receiver) = mpsc::channel::<FanJob>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads.max(1))
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                std::thread::spawn(move || loop {
                    // Hold the lock only to dequeue; run the job unlocked so
                    // partition probes genuinely overlap.
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

    pub(crate) fn submit(&self, job: FanJob) {
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

/// The routing key of a key-scoped (point) op, `None` for everything that
/// must act as a batch barrier (predicate fan-outs and system queries).
pub(crate) fn point_key(query: &GdprQuery) -> Option<&str> {
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
/// classes whose validate-all-then-commit guarantee spans partitions.
pub(crate) fn group_update_of(query: &GdprQuery) -> Option<(RecordPredicate, &MetadataUpdate)> {
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

/// Merge per-partition responses of one query class into the canonical
/// form: counts sum, result sets concatenate and sort by key (timestamp
/// for logs), so the merged response is independent of partition count
/// and order. A single response is returned unchanged: one partition's
/// answer is already the whole answer, and re-sorting a bulk read would
/// be pure cost.
pub(crate) fn merge_responses(results: Vec<GdprResponse>) -> GdprResult<GdprResponse> {
    use GdprResponse::*;
    let mut iter = results.into_iter();
    let mut acc = iter
        .next()
        .ok_or_else(|| GdprError::Store("merge of zero shard responses".to_string()))?;
    if iter.len() == 0 {
        return Ok(acc);
    }
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
