//! The narrow storage interface the compliance engine drives.
//!
//! [`crate::engine::ComplianceEngine`] owns everything GDPR — authorization,
//! record visibility, audit logging, and the full [`crate::GdprQuery`]
//! dispatch — exactly once. What remains per backend is this trait: fetch,
//! put, rewrite, delete, scan, expiry purge, and space accounting, plus two
//! optional predicate-pushdown hooks for stores (like the relational one)
//! that can evaluate metadata predicates natively against their own
//! secondary indexes.

use crate::compliance::FeatureReport;
use crate::connector::SpaceReport;
use crate::error::GdprResult;
use crate::record::PersonalRecord;
use clock::SharedClock;
use std::sync::Arc;

/// A metadata predicate over personal records — the selection forms the
/// GDPR query taxonomy needs (§3.3 of the paper). Every metadata-conditioned
/// query reduces to exactly one of these, so backends and the
/// [`crate::metaindex::MetadataIndex`] only ever answer this closed set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordPredicate {
    /// Records belonging to a data subject (`USR = user`).
    User(String),
    /// Records that *declare* a purpose (`purpose ∈ PUR`), regardless of
    /// objections — the deletion/update grouping of G5.1b and G13.3.
    DeclaredPurpose(String),
    /// Records *usable* for a purpose: declared and not objected to
    /// (`purpose ∈ PUR ∧ purpose ∉ OBJ`) — the canonical READ-DATA-BY-PUR
    /// semantics (G5.1b + G21); see the conformance suite, which pins this
    /// behaviour for every backend.
    AllowsPurpose(String),
    /// Records whose subject has *not* objected to a usage (`usage ∉ OBJ`).
    NotObjecting(String),
    /// Records eligible for automated decision-making (no G22 opt-out).
    DecisionEligible,
    /// Records shared with a third party (`party ∈ SHR`).
    SharedWith(String),
}

impl RecordPredicate {
    /// Evaluate against one record. This is the reference semantics: index
    /// and pushdown paths must agree with a full scan filtered by this.
    pub fn matches(&self, record: &PersonalRecord) -> bool {
        let m = &record.metadata;
        match self {
            RecordPredicate::User(user) => m.user == *user,
            RecordPredicate::DeclaredPurpose(p) => m.purposes.iter().any(|x| x == p),
            RecordPredicate::AllowsPurpose(p) => m.allows_purpose(p),
            RecordPredicate::NotObjecting(usage) => !m.objections.iter().any(|o| o == usage),
            RecordPredicate::DecisionEligible => m.allows_automated_decisions(),
            RecordPredicate::SharedWith(party) => m.sharing.iter().any(|s| s == party),
        }
    }
}

/// Callback invoked (with the logical record key) when the store itself
/// expires a record — lazily on access or in an active expiration cycle —
/// so engine-side index entries can be invalidated.
pub type ExpiryListener = Arc<dyn Fn(&str) + Send + Sync>;

/// A storage backend for personal records.
///
/// Implementations are *mechanism only*: no authorization, no audit, no
/// query dispatch — [`crate::engine::ComplianceEngine`] provides those. The
/// required methods are deliberately narrow; the two `Option`-returning
/// hooks let a backend push predicate evaluation down to native indexes
/// (returning `None` falls back to the engine's index or full scan).
pub trait RecordStore: Send + Sync {
    /// The clock the backend runs on (drives audit timestamps and TTLs).
    fn clock(&self) -> SharedClock;

    /// Point lookup.
    ///
    /// Expiry enforcement is the backend's own: the key-value store hides
    /// past-due records immediately (lazy-on-access reaping), while the
    /// relational store serves rows until its sweep daemon's next pass —
    /// exactly the paper's retrofit designs, whose timeliness gap is the
    /// subject of its Figure 3a. Callers needing strict timeliness run the
    /// respective expiry machinery (strict cycles / `TtlDaemon`).
    fn fetch(&self, key: &str) -> GdprResult<Option<PersonalRecord>>;

    /// Insert a fresh record, arming its TTL. Fails with
    /// [`crate::GdprError::AlreadyExists`] on key collision — collision
    /// detection is the backend's job (the engine does not pre-fetch).
    fn put(&self, record: &PersonalRecord) -> GdprResult<()>;

    /// Rewrite an existing record in place. When `ttl_changed` is false the
    /// record's original expiry deadline is preserved; when true the
    /// deadline is re-armed from `record.metadata.ttl`.
    fn rewrite(&self, record: &PersonalRecord, ttl_changed: bool) -> GdprResult<()>;

    /// Erase one record. Returns whether it existed.
    fn delete(&self, key: &str) -> GdprResult<bool>;

    /// Every live record — the O(n) path the engine uses when neither
    /// pushdown nor a metadata index can answer a predicate.
    fn scan(&self) -> GdprResult<Vec<PersonalRecord>>;

    /// Synchronously erase every record past its TTL deadline, returning
    /// how many were reaped (DELETE-RECORD-BY-TTL without engine indexes).
    ///
    /// Deadlines are **inclusive**: a record whose deadline equals the
    /// current instant is already expired. Every expiry path in the
    /// workspace — this purge, lazy-on-access reaping, active cycles, the
    /// relational sweep daemon, and
    /// [`crate::metaindex::MetadataIndex::expired_keys`] — must agree on
    /// this boundary, or an index-driven purge and a scan-driven purge
    /// would delete different sets at the boundary instant (pinned by the
    /// conformance suite's boundary test).
    fn purge_expired(&self) -> GdprResult<usize>;

    /// Every key whose native deadline has already lapsed, **without
    /// reaping anything** — the multi-tenant purge path uses this to count
    /// and erase one tenant's expired records itself. The default derives
    /// the set from [`Self::scan`] + [`Self::deadline_ms`], which is
    /// correct for backends that serve past-due rows until their own sweep
    /// runs (the relational store). Backends whose reads lazily reap (the
    /// key-value store: a GET destroys the record *and* its deadline, so a
    /// scan-derived set silently loses every expired key) must override
    /// with a genuinely side-effect-free enumeration.
    fn expired_keys(&self) -> GdprResult<Vec<String>> {
        let now_ms = self.clock().now().as_millis();
        Ok(self
            .scan()?
            .into_iter()
            .map(|record| record.key)
            .filter(|key| {
                self.deadline_ms(key)
                    .is_some_and(|deadline| deadline <= now_ms)
            })
            .collect())
    }

    /// Every stored record's key — what the engine's open-time tenant
    /// discovery needs of a store. The default derives the set from
    /// [`Self::scan`]. Backends whose reads lazily reap (the key-value
    /// store) must override with a key-only walk, or opening an engine
    /// would destroy expired records before DELETE-RECORD-BY-TTL can count
    /// them.
    fn keys(&self) -> GdprResult<Vec<String>> {
        Ok(self.scan()?.into_iter().map(|record| record.key).collect())
    }

    /// The store's own absolute expiry deadline for `key`, in milliseconds
    /// on [`Self::clock`], when it tracks one natively. `None` means
    /// unknown — callers fall back to deriving a deadline from the
    /// record's declared TTL. Index backfill uses this so pre-existing
    /// records keep their *remaining* lifetime instead of being re-armed
    /// with the full declared TTL. The instant `deadline_ms == now` counts
    /// as expired (inclusive boundary; see [`Self::purge_expired`]).
    fn deadline_ms(&self, key: &str) -> Option<u64> {
        let _ = key;
        None
    }

    /// Insert a record whose expiry deadline is already known in absolute
    /// milliseconds on [`Self::clock`] — the shard-rebalance path, where a
    /// record migrates between stores and must keep its *remaining*
    /// lifetime rather than being re-armed with the full declared TTL
    /// (which would retain personal data up to twice as long). Backends
    /// that track native deadlines should override; the default arms from
    /// the declared TTL, which is correct for stores with no native expiry
    /// tracking (their engine index carries the deadline instead).
    fn put_with_deadline(
        &self,
        record: &PersonalRecord,
        deadline_ms: Option<u64>,
    ) -> GdprResult<()> {
        let _ = deadline_ms;
        self.put(record)
    }

    /// A monotone stamp of the store's *persisted mutation state* — the
    /// key-value backend's AOF write-frame sequence, the relational
    /// backend's WAL statement position. Two requirements make it usable
    /// as the generation stamp of an index snapshot
    /// ([`crate::snapshot`]):
    ///
    /// 1. every committed mutation advances it, however it entered the
    ///    store (through the engine or behind its back), and
    /// 2. replaying the store's persistence log reproduces the exact
    ///    value the live store had when the log was written.
    ///
    /// `None` (the default) means the store cannot stamp its state; index
    /// snapshots over such a store are written unstamped and are never
    /// trusted on restore — recovery always rebuilds.
    fn persistence_generation(&self) -> Option<u64> {
        None
    }

    /// Predicate pushdown for reads: `Some(records)` if the backend can
    /// evaluate `pred` natively (e.g. relational secondary indexes),
    /// `None` to let the engine resolve it.
    fn select(&self, pred: &RecordPredicate) -> Option<GdprResult<Vec<PersonalRecord>>> {
        let _ = pred;
        None
    }

    /// Predicate pushdown for deletes: `Some(count)` if the backend erased
    /// all matching records itself.
    fn delete_matching(&self, pred: &RecordPredicate) -> Option<GdprResult<usize>> {
        let _ = pred;
        None
    }

    /// Register a callback for store-side expirations. Backends whose store
    /// reaps TTLs autonomously (lazy-on-access, background cycles) must
    /// invoke it per reaped record; backends that only delete through the
    /// engine may keep the default no-op.
    fn on_expiry(&self, listener: ExpiryListener) {
        let _ = listener;
    }

    /// Make the store's own persistence durable on a graceful close (the
    /// key-value backend syncs its AOF, the relational one its WAL, the
    /// paged one checkpoints). Called by
    /// [`crate::engine::ComplianceEngine::close`] after the index snapshot;
    /// must tolerate repeated calls. Default no-op.
    fn close(&self) -> GdprResult<()> {
        Ok(())
    }

    /// Space accounting for the Table 3 metric.
    fn space_report(&self) -> SpaceReport;

    /// Live record count (scale experiments).
    fn record_count(&self) -> usize;

    /// The backend's compliance capability posture.
    fn features(&self) -> FeatureReport;

    /// Backend name (`redis`, `postgres`, ...).
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Metadata;
    use std::time::Duration;

    fn record() -> PersonalRecord {
        let mut m = Metadata::new(
            "neo",
            vec!["ads".into(), "2fa".into()],
            Duration::from_secs(60),
        );
        m.objections.push("ads".into());
        m.sharing.push("x-corp".into());
        PersonalRecord::new("k1", "d", m)
    }

    #[test]
    fn predicate_reference_semantics() {
        let r = record();
        assert!(RecordPredicate::User("neo".into()).matches(&r));
        assert!(!RecordPredicate::User("smith".into()).matches(&r));
        assert!(RecordPredicate::DeclaredPurpose("ads".into()).matches(&r));
        assert!(
            !RecordPredicate::AllowsPurpose("ads".into()).matches(&r),
            "objection vetoes"
        );
        assert!(RecordPredicate::AllowsPurpose("2fa".into()).matches(&r));
        assert!(!RecordPredicate::NotObjecting("ads".into()).matches(&r));
        assert!(RecordPredicate::NotObjecting("sales".into()).matches(&r));
        assert!(RecordPredicate::DecisionEligible.matches(&r));
        assert!(RecordPredicate::SharedWith("x-corp".into()).matches(&r));
        assert!(!RecordPredicate::SharedWith("y-corp".into()).matches(&r));
    }
}
