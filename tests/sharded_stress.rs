//! Concurrency stress for the sharded compliance engine: a multi-threaded
//! mixed workload (creates, rectifications, metadata updates, deletions,
//! cross-shard reads) against `RedisConnector`, asserting the three
//! properties a concurrency topology must not cost:
//!
//! * **no lost updates** — every write a thread performed is visible
//!   afterwards, with the last-written payload;
//! * **no cross-user visibility leaks** — a customer's reads, issued
//!   concurrently with other users' writes, only ever surface that
//!   customer's records (per-shard locking must not let a record transit
//!   through another user's result set);
//! * **audit-log completeness** — the unified trail holds exactly one
//!   event per executed query, whatever thread or shard ran it.

use gdprbench_repro::connectors::RedisConnector;
use gdprbench_repro::gdpr_core::record::{Metadata, PersonalRecord};
use gdprbench_repro::gdpr_core::{
    GdprConnector, GdprQuery, GdprResponse, MetadataField, MetadataUpdate, Session,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const WRITERS: usize = 4;
const READERS: usize = 2;
const KEYS_PER_WRITER: usize = 120;
const SHARDS: usize = 8;

fn user_of(thread: usize) -> String {
    format!("user-{thread}")
}

fn purpose_of(thread: usize) -> String {
    format!("pur-{thread}")
}

fn key_of(thread: usize, i: usize) -> String {
    format!("u{thread}-k{i:04}")
}

fn record(thread: usize, i: usize) -> PersonalRecord {
    PersonalRecord::new(
        key_of(thread, i),
        format!("v0-{thread}-{i}"),
        Metadata::new(
            user_of(thread),
            vec![purpose_of(thread)],
            Duration::from_secs(3600),
        ),
    )
}

#[test]
fn concurrent_mixed_workload_preserves_compliance_invariants() {
    let conn = Arc::new(RedisConnector::open_sharded(SHARDS).unwrap());
    let issued = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    // Writer t owns the disjoint key range u{t}-k*: creates every key,
    // rectifies half, registers objections on a third, deletes every
    // fourth. All through the shared connector, all concurrently.
    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            let conn = Arc::clone(&conn);
            let issued = Arc::clone(&issued);
            std::thread::spawn(move || {
                let controller = Session::controller();
                let customer = Session::customer(user_of(t));
                let mut ops = 0usize;
                for i in 0..KEYS_PER_WRITER {
                    conn.execute(&controller, &GdprQuery::CreateRecord(record(t, i)))
                        .unwrap();
                    ops += 1;
                }
                for i in 0..KEYS_PER_WRITER {
                    if i % 2 == 0 {
                        conn.execute(
                            &customer,
                            &GdprQuery::UpdateDataByKey {
                                key: key_of(t, i),
                                data: format!("final-{t}-{i}"),
                            },
                        )
                        .unwrap();
                        ops += 1;
                    }
                    if i % 3 == 0 {
                        conn.execute(
                            &customer,
                            &GdprQuery::UpdateMetadataByKey {
                                key: key_of(t, i),
                                update: MetadataUpdate::Add(
                                    MetadataField::Objections,
                                    "spam".to_string(),
                                ),
                            },
                        )
                        .unwrap();
                        ops += 1;
                    }
                }
                for i in 0..KEYS_PER_WRITER {
                    if i % 4 == 0 {
                        conn.execute(&customer, &GdprQuery::DeleteByKey(key_of(t, i)))
                            .unwrap();
                        ops += 1;
                    }
                }
                issued.fetch_add(ops, Ordering::SeqCst);
            })
        })
        .collect();

    // Readers hammer cross-shard fan-out queries concurrently with the
    // writers and assert the visibility invariant on every response.
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let conn = Arc::clone(&conn);
            let issued = Arc::clone(&issued);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut ops = 0usize;
                let mut t = r;
                while !stop.load(Ordering::SeqCst) {
                    t = (t + 1) % WRITERS;
                    let prefix = format!("u{t}-");
                    let customer = Session::customer(user_of(t));
                    let resp = conn
                        .execute(&customer, &GdprQuery::ReadDataByUser(user_of(t)))
                        .unwrap();
                    ops += 1;
                    for (key, _) in resp.as_data().unwrap() {
                        assert!(
                            key.starts_with(&prefix),
                            "cross-user leak: {key} surfaced for {}",
                            user_of(t)
                        );
                    }
                    let processor = Session::processor(purpose_of(t));
                    let resp = conn
                        .execute(&processor, &GdprQuery::ReadDataByPurpose(purpose_of(t)))
                        .unwrap();
                    ops += 1;
                    for (key, _) in resp.as_data().unwrap() {
                        assert!(
                            key.starts_with(&prefix),
                            "purpose leak: {key} surfaced for {}",
                            purpose_of(t)
                        );
                    }
                }
                issued.fetch_add(ops, Ordering::SeqCst);
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::SeqCst);
    for r in readers {
        r.join().unwrap();
    }

    // No lost updates: every surviving key is present with the payload its
    // owning thread wrote last; every deleted key is verifiably gone.
    let regulator = Session::regulator();
    for t in 0..WRITERS {
        let resp = conn
            .execute(
                &Session::customer(user_of(t)),
                &GdprQuery::ReadDataByUser(user_of(t)),
            )
            .unwrap();
        let mut got: Vec<(String, String)> = resp.as_data().unwrap().to_vec();
        got.sort();
        let mut want: Vec<(String, String)> = (0..KEYS_PER_WRITER)
            .filter(|i| i % 4 != 0)
            .map(|i| {
                let data = if i % 2 == 0 {
                    format!("final-{t}-{i}")
                } else {
                    format!("v0-{t}-{i}")
                };
                (key_of(t, i), data)
            })
            .collect();
        want.sort();
        assert_eq!(got, want, "thread {t} lost an update");

        for i in (0..KEYS_PER_WRITER).step_by(4) {
            assert_eq!(
                conn.execute(&regulator, &GdprQuery::VerifyDeletion(key_of(t, i)))
                    .unwrap(),
                GdprResponse::DeletionVerified(true),
                "deleted key resurfaced"
            );
        }
    }

    // Objections took effect atomically with their records: the processor
    // view under objection-carrying metadata stays self-consistent.
    for t in 0..WRITERS {
        let resp = conn
            .execute(
                &Session::processor(purpose_of(t)),
                &GdprQuery::ReadDataByPurpose(purpose_of(t)),
            )
            .unwrap();
        // Objections were to "spam", not pur-t, so everything live shows.
        assert_eq!(
            resp.cardinality(),
            KEYS_PER_WRITER - KEYS_PER_WRITER.div_ceil(4),
            "thread {t} purpose view"
        );
    }

    // Audit-log completeness: one event per executed query. The final
    // verification queries above are audited too, so count them.
    let post_ops = WRITERS // ReadDataByUser per writer
        + WRITERS * KEYS_PER_WRITER.div_ceil(4) // VerifyDeletion sweeps
        + WRITERS; // ReadDataByPurpose per writer
    let expected = issued.load(Ordering::SeqCst) + post_ops;
    assert_eq!(
        conn.audit().len(),
        expected,
        "audit trail must record every query exactly once"
    );

    // The workload really spread across shards.
    let populated = (0..conn.shard_count())
        .filter(|&i| conn.store(i).dbsize() > 0)
        .count();
    assert!(
        populated >= SHARDS / 2,
        "workload unexpectedly concentrated: {populated}/{SHARDS} shards populated"
    );
}
