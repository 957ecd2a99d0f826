//! Persistent [`MetadataIndex`] snapshots with crash-consistent recovery.
//!
//! Without this module, every restart of an indexed engine pays the O(n)
//! backfill in [`crate::engine::ComplianceEngine::with_metadata_index`]: a
//! full scan-decrypt-parse of the backing store — exactly the cost profile
//! the paper's indexed variants exist to avoid. A snapshot makes recovery
//! O(index): the index dump is written as a checksummed image alongside
//! the store's own persistence (AOF/WAL), and
//! [`MetadataIndex::restore_or_rebuild`] loads it *only* when it provably
//! describes the reopened store, falling back loudly to the full rebuild
//! in every other case. An untrustworthy image must never be trusted —
//! a stale index can silently drop records from `READ-DATA-BY-USER`
//! (Article 15) or keep serving data whose subject has objected
//! (Article 21) — so the failure mode of every corruption class is
//! *rebuild*, never *wrong answers*.
//!
//! # File format (version 2)
//!
//! All integers little-endian. Strings are `u32 length ‖ UTF-8 bytes`.
//! One image holds **one section per tenant** (a single-tenant engine
//! writes exactly the default-tenant section), so all of an engine's
//! index partitions recover from one atomic file — a per-tenant sibling
//! file scheme was rejected because a deleted sibling is
//! indistinguishable from an empty partition. Within a section, the
//! metadata vocabulary (users, purposes, usage and party names) is
//! stored **once** in a term table; entries reference it by `u32` id —
//! which both halves the image and lets the restore path rebuild the
//! index without hashing a single term string (memberships become array
//! indexes into the parsed table).
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"GDPRIDX\x01"
//! 8       4     u32    format version (= 2)
//! 12      1     u8     flags (bit 0: generation stamp present)
//! 13      8     u64    generation stamp (0 when unstamped)
//! 21      4     u32    shard index of the engine that wrote the image
//! 25      4     u32    shard count of the topology it belonged to
//! 29      4     u32    section count
//! 33      ...          sections (strictly ascending by tenant name; the
//!                      default tenant's empty name sorts first), each:
//!                        tenant name (string, "" = default tenant)
//!                        u64 entry count
//!                        u32 term-table size, then the term table: the
//!                          distinct metadata terms, in first-use order
//!                        entries (strictly ascending by key, every key
//!                        owned by the section's tenant), each:
//!                          key (string), u32 user term id,
//!                          purposes / objections / sharing as
//!                            `u32 count ‖ u32 term ids`,
//!                          u8  flags (bit 0: decision-eligible,
//!                                     bit 1: deadline present)
//!                          u64 absolute deadline ms (iff bit 1)
//! end-8   8     u64    SipHash-2-4 over every preceding byte
//! ```
//!
//! Version-1 images (single tenant, no section framing) are rejected as
//! [`SnapshotInvalid::UnsupportedVersion`] and rebuild loudly — the
//! upgrade cost is one O(n) backfill, never a misread image.
//!
//! The **generation stamp** ties the image to the backing store's
//! persistence state ([`crate::store::RecordStore::persistence_generation`]:
//! the key-value store's AOF write-frame sequence, the relational store's
//! WAL statement position). Snapshots are written at write-quiescent
//! moments (graceful close, admin checkpoints); the writer captures the
//! generation before the export and re-checks it after, failing loudly
//! if a store write raced the window (see
//! [`crate::engine::ComplianceEngine::write_index_snapshot`]). On
//! restore the stamp must equal the reopened store's generation exactly:
//! a larger store generation means writes landed after the snapshot
//! (e.g. a `set_ex` behind the engine, or AOF replay past the stamp); a
//! smaller one means the store lost a tail the index still describes
//! (torn AOF). Both are staleness; both rebuild.
//!
//! The **shard topology** header makes a reopened partitioned
//! [`crate::engine::ComplianceEngine`] reject images written under a
//! different partition count (the key→partition map changed, so
//! per-partition images describe the wrong key population), consistent
//! with the router's misroute detection — the partitions rebuild, and
//! `rebalance()` handles the store side.
//!
//! Writes are atomic: the image goes to `<path>.tmp`, is fsynced, and is
//! renamed over the target (then the directory is fsynced), so a crash
//! mid-write leaves either the old image or none — never a torn file that
//! parses. Torn, truncated, bit-flipped, or trailing-garbage images fail
//! the checksum or the bounds-checked parse and rebuild instead; the
//! fault-injection harness (`tests/recovery_faults.rs`) sweeps every
//! byte-prefix truncation and flip class against this guarantee.

use crate::error::{GdprError, GdprResult};
use crate::metaindex::{IndexEntry, MetadataIndex, VocabIndexBuilder};
use crate::tenant::TenantId;
use crypto::SipHash24;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Leading magic: `GDPRIDX` plus a format byte.
pub const MAGIC: [u8; 8] = *b"GDPRIDX\x01";
/// Current format version.
pub const VERSION: u32 = 2;

/// Fixed SipHash-2-4 key for the integrity checksum. The checksum guards
/// against torn writes and bitrot, not adversaries — an attacker who can
/// rewrite the snapshot can rewrite the store beside it; at-rest secrecy
/// is the store volume's job (the snapshot holds keys and metadata terms
/// only, never record payloads).
const CHECKSUM_KEY: [u8; 16] = *b"gdpr-index-snap1";

/// What a snapshot must match to be trusted at restore time — and what
/// gets stamped into the header at write time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotStamp {
    /// The backing store's persistence generation
    /// ([`crate::store::RecordStore::persistence_generation`]). `None`
    /// means the store cannot stamp its state — such snapshots are
    /// written unstamped and are **never** trusted on restore.
    pub generation: Option<u64>,
    /// Which shard of the topology this index serves (0 unsharded).
    pub shard_index: u32,
    /// Total shard count of the topology (1 unsharded).
    pub shard_count: u32,
}

impl SnapshotStamp {
    /// The stamp of an unsharded engine over a store at `generation`.
    pub fn unsharded(generation: Option<u64>) -> SnapshotStamp {
        SnapshotStamp {
            generation,
            shard_index: 0,
            shard_count: 1,
        }
    }
}

/// Why a snapshot image cannot be trusted. Every variant ends in the same
/// place — a loud full rebuild — but the cause is surfaced so operators
/// (and the fault-injection suite) can tell a missing file from sabotage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotInvalid {
    /// No snapshot file at the configured path (first boot, or the store
    /// was moved without its index image).
    Missing,
    /// The file exists but could not be read.
    Io(String),
    /// Structurally unreadable: bad magic, torn/truncated data, hostile
    /// lengths, or trailing bytes after the checksum.
    Malformed(String),
    /// A version this build does not read.
    UnsupportedVersion(u32),
    /// A tenant section the opening engine cannot accept: an invalid
    /// tenant name in the image, or a partition the engine cannot
    /// materialize (e.g. restoring a tenant section into an unindexed
    /// engine).
    BadTenant(String),
    /// The SipHash integrity check failed (bitrot or tampering).
    ChecksumMismatch,
    /// Written under a different shard topology: `(shard_index,
    /// shard_count)` as recorded vs expected.
    TopologyMismatch {
        snapshot: (u32, u32),
        expected: (u32, u32),
    },
    /// The generation stamp does not equal the store's: the store moved
    /// past the image (writes behind the snapshot) or fell short of it
    /// (torn AOF/WAL replay) — or one side cannot stamp at all.
    StaleGeneration {
        snapshot: Option<u64>,
        store: Option<u64>,
    },
}

impl fmt::Display for SnapshotInvalid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotInvalid::Missing => write!(f, "no snapshot file"),
            SnapshotInvalid::Io(e) => write!(f, "unreadable snapshot: {e}"),
            SnapshotInvalid::Malformed(e) => write!(f, "malformed snapshot: {e}"),
            SnapshotInvalid::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotInvalid::BadTenant(e) => write!(f, "unacceptable tenant section: {e}"),
            SnapshotInvalid::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotInvalid::TopologyMismatch { snapshot, expected } => write!(
                f,
                "snapshot written for shard {}/{} but opened as shard {}/{}",
                snapshot.0, snapshot.1, expected.0, expected.1
            ),
            SnapshotInvalid::StaleGeneration { snapshot, store } => write!(
                f,
                "snapshot generation {snapshot:?} does not match store generation {store:?}"
            ),
        }
    }
}

/// How an indexed engine came back up: the O(index) restore, or the O(n)
/// rebuild with the cause that forced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexRecovery {
    /// The snapshot was trusted and loaded — O(index).
    Restored { entries: usize, generation: u64 },
    /// The snapshot was missing or untrustworthy; the index was rebuilt
    /// from a full store scan — O(n).
    Rebuilt {
        records: usize,
        cause: SnapshotInvalid,
    },
}

impl IndexRecovery {
    pub fn is_restored(&self) -> bool {
        matches!(self, IndexRecovery::Restored { .. })
    }
}

impl fmt::Display for IndexRecovery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexRecovery::Restored {
                entries,
                generation,
            } => write!(
                f,
                "restored {entries} index entries from snapshot (generation {generation})"
            ),
            IndexRecovery::Rebuilt { records, cause } => {
                write!(f, "rebuilt index from {records} store records ({cause})")
            }
        }
    }
}

// ---- encoding ----

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Serialize one tenant section: name, entry count, per-section term
/// table, entries.
fn encode_section(out: &mut Vec<u8>, tenant: &str, entries: &[IndexEntry]) {
    put_str(out, tenant);
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    // First pass: collect the term vocabulary in first-use order (terms
    // borrow from `entries`, which outlives both tables).
    let mut ids: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
    let mut vocab: Vec<&str> = Vec::new();
    for e in entries {
        for term in std::iter::once(e.user.as_str()).chain(
            e.purposes
                .iter()
                .chain(&e.objections)
                .chain(&e.sharing)
                .map(String::as_str),
        ) {
            if !ids.contains_key(term) {
                ids.insert(term, vocab.len() as u32);
                vocab.push(term);
            }
        }
    }
    out.extend_from_slice(&(vocab.len() as u32).to_le_bytes());
    for term in &vocab {
        put_str(out, term);
    }
    let put_ids = |out: &mut Vec<u8>, terms: &[String]| {
        out.extend_from_slice(&(terms.len() as u32).to_le_bytes());
        for t in terms {
            out.extend_from_slice(&ids[t.as_str()].to_le_bytes());
        }
    };
    for e in entries {
        put_str(out, &e.key);
        out.extend_from_slice(&ids[e.user.as_str()].to_le_bytes());
        put_ids(out, &e.purposes);
        put_ids(out, &e.objections);
        put_ids(out, &e.sharing);
        let flags = u8::from(e.decision_eligible) | (u8::from(e.deadline_ms.is_some()) << 1);
        out.push(flags);
        if let Some(at) = e.deadline_ms {
            out.extend_from_slice(&at.to_le_bytes());
        }
    }
}

/// Serialize tenant sections under a stamp (header + sections +
/// checksum). Callers pass sections in strictly ascending tenant order
/// with section keys owned by the section tenant — the engine's export
/// does so by construction, and both readers enforce it.
pub fn encode_sections(sections: &[(String, Vec<IndexEntry>)], stamp: &SnapshotStamp) -> Vec<u8> {
    let total: usize = sections.iter().map(|(_, e)| e.len()).sum();
    let mut out = Vec::with_capacity(64 + sections.len() * 16 + total * 48);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(u8::from(stamp.generation.is_some()));
    out.extend_from_slice(&stamp.generation.unwrap_or(0).to_le_bytes());
    out.extend_from_slice(&stamp.shard_index.to_le_bytes());
    out.extend_from_slice(&stamp.shard_count.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (tenant, entries) in sections {
        encode_section(&mut out, tenant, entries);
    }
    let sum = SipHash24::from_key_bytes(&CHECKSUM_KEY).hash(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Serialize a single default-tenant entry dump — the degenerate
/// single-tenant image (one section, empty tenant name).
pub fn encode(entries: &[IndexEntry], stamp: &SnapshotStamp) -> Vec<u8> {
    encode_sections(&[(String::new(), entries.to_vec())], stamp)
}

// ---- decoding (bounds-checked; never panics, never over-allocates) ----

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotInvalid> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|end| *end <= self.data.len())
            .ok_or_else(|| SnapshotInvalid::Malformed("truncated".into()))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotInvalid> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotInvalid> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotInvalid> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A string borrowed straight from the image buffer — the streaming
    /// restore path reads every string this way and allocates only what
    /// actually enters the index.
    fn str_ref(&mut self) -> Result<&'a str, SnapshotInvalid> {
        let len = self.u32()? as usize;
        // `take` bounds hostile lengths against the remaining bytes, so a
        // corrupt length can never drive a huge allocation.
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map_err(|_| SnapshotInvalid::Malformed("non-UTF-8 string".into()))
    }

    fn string(&mut self) -> Result<String, SnapshotInvalid> {
        self.str_ref().map(str::to_string)
    }

    /// Bounds-check a list/table count against the remaining bytes (each
    /// element needs ≥ 4 bytes), so a corrupt count can never drive a
    /// huge allocation.
    fn count(&mut self) -> Result<usize, SnapshotInvalid> {
        let n = self.u32()? as usize;
        if n > (self.data.len() - self.pos) / 4 {
            return Err(SnapshotInvalid::Malformed("hostile element count".into()));
        }
        Ok(n)
    }

    /// The term table: every distinct metadata term, borrowed from the
    /// buffer. Duplicate terms are rejected — two ids naming the same
    /// term would split its postings across map entries at restore time
    /// (one silently shadowing the other), so a duplicated table is a
    /// forgery even when the checksum holds, exactly like non-ascending
    /// keys.
    fn vocab(&mut self) -> Result<Vec<&'a str>, SnapshotInvalid> {
        let n = self.count()?;
        let terms: Vec<&'a str> = (0..n).map(|_| self.str_ref()).collect::<Result<_, _>>()?;
        let distinct: std::collections::HashSet<&str> = terms.iter().copied().collect();
        if distinct.len() != terms.len() {
            return Err(SnapshotInvalid::Malformed(
                "duplicate term in vocabulary table".into(),
            ));
        }
        Ok(terms)
    }

    /// A term-id list into a reusable scratch buffer, each id verified
    /// against the term-table size.
    fn id_list(&mut self, vocab_len: usize, out: &mut Vec<u32>) -> Result<(), SnapshotInvalid> {
        out.clear();
        let n = self.count()?;
        for _ in 0..n {
            let id = self.u32()?;
            if id as usize >= vocab_len {
                return Err(SnapshotInvalid::Malformed("term id out of range".into()));
            }
            out.push(id);
        }
        Ok(())
    }

    /// One term id, verified against the term-table size.
    fn id(&mut self, vocab_len: usize) -> Result<u32, SnapshotInvalid> {
        let id = self.u32()?;
        if id as usize >= vocab_len {
            return Err(SnapshotInvalid::Malformed("term id out of range".into()));
        }
        Ok(id)
    }
}

/// The verified fixed header: checksum true, magic/version right,
/// section count sane; the cursor sits at the first section.
struct VerifiedHeader<'a> {
    cur: Cursor<'a>,
    /// Tenant-section count (a v2 image is a sequence of sections).
    sections: usize,
    generation: Option<u64>,
    shard_index: u32,
    shard_count: u32,
    /// Length of the checksummed body (everything but the trailing sum).
    body_len: usize,
}

impl VerifiedHeader<'_> {
    fn stamp(&self) -> (Option<u64>, u32, u32) {
        (self.generation, self.shard_index, self.shard_count)
    }
}

fn check_stamp(
    (generation, shard_index, shard_count): (Option<u64>, u32, u32),
    expected: &SnapshotStamp,
) -> Result<(), SnapshotInvalid> {
    if (shard_index, shard_count) != (expected.shard_index, expected.shard_count) {
        return Err(SnapshotInvalid::TopologyMismatch {
            snapshot: (shard_index, shard_count),
            expected: (expected.shard_index, expected.shard_count),
        });
    }
    match (generation, expected.generation) {
        (Some(snap), Some(store)) if snap == store => Ok(()),
        (snapshot, store) => Err(SnapshotInvalid::StaleGeneration { snapshot, store }),
    }
}

/// Structure-and-checksum verification shared by both readers.
fn verify_header(data: &[u8]) -> Result<VerifiedHeader<'_>, SnapshotInvalid> {
    // Fixed header (33 bytes) + checksum (8).
    if data.len() < MAGIC.len() + 4 + 1 + 8 + 4 + 4 + 4 + 8 {
        return Err(SnapshotInvalid::Malformed("shorter than the header".into()));
    }
    if data[..MAGIC.len()] != MAGIC {
        return Err(SnapshotInvalid::Malformed("bad magic".into()));
    }
    let (body, sum_bytes) = data.split_at(data.len() - 8);
    let stored_sum = u64::from_le_bytes(sum_bytes.try_into().unwrap());
    if SipHash24::from_key_bytes(&CHECKSUM_KEY).hash(body) != stored_sum {
        return Err(SnapshotInvalid::ChecksumMismatch);
    }
    let mut cur = Cursor {
        data: body,
        pos: MAGIC.len(),
    };
    let version = cur.u32()?;
    if version != VERSION {
        return Err(SnapshotInvalid::UnsupportedVersion(version));
    }
    let flags = cur.u8()?;
    let generation_value = cur.u64()?;
    let generation = (flags & 1 != 0).then_some(generation_value);
    let shard_index = cur.u32()?;
    let shard_count = cur.u32()?;
    let sections = cur.u32()? as usize;
    if sections > (body.len() - cur.pos) / 16 {
        // Minimum section footprint: tenant-name prefix + u64 entry count
        // + term-table size = 16 bytes.
        return Err(SnapshotInvalid::Malformed("hostile section count".into()));
    }
    Ok(VerifiedHeader {
        cur,
        sections,
        generation,
        shard_index,
        shard_count,
        body_len: body.len(),
    })
}

/// Per-section validation shared by both readers: a well-formed tenant
/// name, strictly ascending across sections (the default tenant's empty
/// name sorts first).
fn check_section_tenant(tenant: &str, prev: Option<&str>) -> Result<(), SnapshotInvalid> {
    TenantId::check_name(tenant).map_err(SnapshotInvalid::BadTenant)?;
    if prev.is_some_and(|p| p >= tenant) {
        return Err(SnapshotInvalid::Malformed(
            "tenant sections not strictly ascending".into(),
        ));
    }
    Ok(())
}

/// Every entry key must live in its section's tenant partition — a
/// checksum-valid image whose keys leak across sections is a forgery
/// that would silently cross the isolation boundary at restore time.
fn check_section_key(tenant: &str, key: &str) -> Result<(), SnapshotInvalid> {
    if TenantId::split_storage_key(key).0 != tenant {
        return Err(SnapshotInvalid::Malformed(
            "entry key outside its tenant section".into(),
        ));
    }
    Ok(())
}

/// Parse and verify an image against `expected`, materializing the
/// sections. Validation order: structure and checksum first (is this
/// byte string a snapshot at all?), then topology, then the generation
/// stamp — so the error names the *first* reason the image cannot be
/// trusted.
pub fn decode_sections(
    data: &[u8],
    expected: &SnapshotStamp,
) -> Result<Vec<(String, Vec<IndexEntry>)>, SnapshotInvalid> {
    let header = verify_header(data)?;
    let stamp = header.stamp();
    let VerifiedHeader {
        mut cur,
        sections: section_count,
        body_len,
        ..
    } = header;
    let mut sections: Vec<(String, Vec<IndexEntry>)> = Vec::with_capacity(section_count);
    let mut ids: Vec<u32> = Vec::new();
    for _ in 0..section_count {
        let tenant = cur.string()?;
        check_section_tenant(&tenant, sections.last().map(|(t, _)| t.as_str()))?;
        let count = cur.u64()? as usize;
        if count > (body_len - cur.pos) / 11 {
            // Minimum entry footprint: 2 string prefixes + 3 list
            // prefixes + flags = 21 bytes; 11 is a safely small bound.
            return Err(SnapshotInvalid::Malformed("hostile entry count".into()));
        }
        let vocab = cur.vocab()?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let key = cur.string()?;
            // Same strictly-ascending rule as the engine's streaming
            // reader (`parse_sections`): both readers must agree on what
            // is a valid image, or diagnostics would accept files
            // recovery rejects.
            if entries
                .last()
                .is_some_and(|prev: &IndexEntry| prev.key >= key)
            {
                return Err(SnapshotInvalid::Malformed(
                    "keys not strictly ascending".into(),
                ));
            }
            check_section_key(&tenant, &key)?;
            let user = vocab[cur.id(vocab.len())? as usize].to_string();
            let mut resolve = |cur: &mut Cursor| -> Result<Vec<String>, SnapshotInvalid> {
                cur.id_list(vocab.len(), &mut ids)?;
                Ok(ids.iter().map(|&i| vocab[i as usize].to_string()).collect())
            };
            let purposes = resolve(&mut cur)?;
            let objections = resolve(&mut cur)?;
            let sharing = resolve(&mut cur)?;
            let eflags = cur.u8()?;
            let deadline_ms = if eflags & 2 != 0 {
                Some(cur.u64()?)
            } else {
                None
            };
            entries.push(IndexEntry {
                key,
                user,
                purposes,
                objections,
                sharing,
                decision_eligible: eflags & 1 != 0,
                deadline_ms,
            });
        }
        sections.push((tenant, entries));
    }
    if cur.pos != body_len {
        return Err(SnapshotInvalid::Malformed(
            "trailing bytes after the last entry".into(),
        ));
    }
    check_stamp(stamp, expected)?;
    Ok(sections)
}

/// Parse and verify an image, flattening every tenant section into one
/// entry list (storage keys are globally unique, so nothing collides).
/// Diagnostics and single-tenant tooling; the recovery path streams via
/// [`restore_or_rebuild_tenants`] instead.
pub fn decode(data: &[u8], expected: &SnapshotStamp) -> Result<Vec<IndexEntry>, SnapshotInvalid> {
    Ok(decode_sections(data, expected)?
        .into_iter()
        .flat_map(|(_, entries)| entries)
        .collect())
}

/// The streaming restore reader: verify, then feed each tenant section
/// straight into a [`VocabIndexBuilder`]. Each section's term table
/// becomes its partition's shared vocabulary (one allocation per
/// *distinct* term), entry keys are borrowed from the buffer until they
/// enter a builder, the stamp is checked *before* any building (a stale
/// image fails in microseconds instead of after a full load), and keys
/// must arrive strictly ascending within their section — the writer
/// sorts them, so anything else is a forgery even if the checksum holds.
///
/// Nothing is installed here: the staged builders come back only once
/// the **whole** image has parsed, so a section that fails late can
/// never leave an earlier tenant's partition half-restored.
fn parse_sections(
    data: &[u8],
    expected: &SnapshotStamp,
) -> Result<Vec<(String, VocabIndexBuilder)>, SnapshotInvalid> {
    let header = verify_header(data)?;
    check_stamp(header.stamp(), expected)?;
    let VerifiedHeader {
        mut cur,
        sections: section_count,
        body_len,
        ..
    } = header;
    let mut staged: Vec<(String, VocabIndexBuilder)> = Vec::with_capacity(section_count);
    let mut purposes: Vec<u32> = Vec::new();
    let mut objections: Vec<u32> = Vec::new();
    let mut sharing: Vec<u32> = Vec::new();
    for _ in 0..section_count {
        let tenant = cur.string()?;
        check_section_tenant(&tenant, staged.last().map(|(t, _)| t.as_str()))?;
        let count = cur.u64()? as usize;
        if count > (body_len - cur.pos) / 11 {
            return Err(SnapshotInvalid::Malformed("hostile entry count".into()));
        }
        let vocab_refs = cur.vocab()?;
        let vocab_len = vocab_refs.len();
        let vocab: Vec<Arc<str>> = vocab_refs.into_iter().map(Arc::from).collect();
        let mut builder = VocabIndexBuilder::new(vocab, count);
        let mut prev_key: Option<&str> = None;
        for _ in 0..count {
            let key = cur.str_ref()?;
            if prev_key.is_some_and(|prev| prev >= key) {
                return Err(SnapshotInvalid::Malformed(
                    "keys not strictly ascending".into(),
                ));
            }
            prev_key = Some(key);
            check_section_key(&tenant, key)?;
            let user_id = cur.id(vocab_len)?;
            cur.id_list(vocab_len, &mut purposes)?;
            cur.id_list(vocab_len, &mut objections)?;
            cur.id_list(vocab_len, &mut sharing)?;
            let eflags = cur.u8()?;
            let deadline_ms = if eflags & 2 != 0 {
                Some(cur.u64()?)
            } else {
                None
            };
            builder.add(
                key,
                user_id,
                &purposes,
                &objections,
                &sharing,
                eflags & 1 != 0,
                deadline_ms,
            );
        }
        staged.push((tenant, builder));
    }
    if cur.pos != body_len {
        return Err(SnapshotInvalid::Malformed(
            "trailing bytes after the last entry".into(),
        ));
    }
    Ok(staged)
}

/// Restore a **single-tenant** image into `index` — the default-tenant
/// section only. Any named-tenant section makes the image untrustworthy
/// for a single-index restore (nothing is installed).
fn decode_into(
    data: &[u8],
    expected: &SnapshotStamp,
    index: &MetadataIndex,
) -> Result<usize, SnapshotInvalid> {
    let staged = parse_sections(data, expected)?;
    if staged.iter().any(|(tenant, _)| !tenant.is_empty()) {
        return Err(SnapshotInvalid::BadTenant(
            "multi-tenant image restored into a single index".into(),
        ));
    }
    Ok(staged
        .into_iter()
        .map(|(_, builder)| builder.install(index))
        .sum())
}

/// Write every tenant partition's dump to `path` atomically: export each
/// section, encode, write `<path>.tmp`, fsync, rename over the target,
/// fsync the directory. Returns the total entry count. Sections must
/// arrive in strictly ascending tenant order (default tenant's `""`
/// first — [`crate::engine::ComplianceEngine`]'s export does so by
/// construction). **Capture the stamp before calling** (before the
/// export that happens inside): a write racing the snapshot then makes
/// the image look stale rather than falsely fresh.
pub fn write_snapshot(
    path: &Path,
    sections: &[(String, Arc<MetadataIndex>)],
    stamp: &SnapshotStamp,
) -> GdprResult<usize> {
    let exported: Vec<(String, Vec<IndexEntry>)> = sections
        .iter()
        .map(|(tenant, index)| (tenant.clone(), index.export_entries()))
        .collect();
    let total = exported.iter().map(|(_, e)| e.len()).sum();
    let bytes = encode_sections(&exported, stamp);
    let io = |e: std::io::Error| GdprError::Store(format!("index snapshot {path:?}: {e}"));
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        use std::io::Write;
        let mut file = std::fs::File::create(&tmp).map_err(io)?;
        file.write_all(&bytes).map_err(io)?;
        file.sync_all().map_err(io)?;
    }
    std::fs::rename(&tmp, path).map_err(io)?;
    // Make the rename itself durable. Directory fsync is advisory on some
    // filesystems; failure here cannot corrupt anything (the rename was
    // atomic), so it is not fatal.
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(total)
}

fn read_file(path: &Path) -> Result<Vec<u8>, SnapshotInvalid> {
    match std::fs::read(path) {
        Ok(data) => Ok(data),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(SnapshotInvalid::Missing),
        Err(e) => Err(SnapshotInvalid::Io(e.to_string())),
    }
}

/// Read and verify the image at `path` against `expected`, materializing
/// the entries (diagnostics and tooling; the engine's recovery path
/// streams via [`MetadataIndex::restore_or_rebuild`] instead).
pub fn read_snapshot(
    path: &Path,
    expected: &SnapshotStamp,
) -> Result<Vec<IndexEntry>, SnapshotInvalid> {
    read_file(path).and_then(|data| decode(&data, expected))
}

/// The tenant-aware crash-recovery entry point: load the image at `path`
/// when it is trustworthy, routing each tenant section into the index
/// `sink` hands back for that tenant name (the engine materializes the
/// tenant's partition there); otherwise complain on stderr and run
/// `rebuild` (the caller's O(n) store backfill across every tenant).
///
/// Installation is all-or-nothing: every section is parsed and every
/// sink resolved before a single partition is touched, so an image that
/// fails late never leaves one tenant restored and another empty.
/// Recovery never propagates a snapshot problem as an error — every
/// untrustworthy-image class degrades to the rebuild, so the only
/// failure surface is the rebuild's own store access.
pub fn restore_or_rebuild_tenants<E>(
    path: &Path,
    expected: &SnapshotStamp,
    sink: &mut dyn FnMut(&str) -> Result<Arc<MetadataIndex>, SnapshotInvalid>,
    rebuild: impl FnOnce() -> Result<usize, E>,
) -> Result<IndexRecovery, E> {
    let attempt = read_file(path)
        .and_then(|data| parse_sections(&data, expected))
        .and_then(|staged| {
            let mut resolved = Vec::with_capacity(staged.len());
            for (tenant, builder) in staged {
                resolved.push((sink(&tenant)?, builder));
            }
            Ok(resolved
                .into_iter()
                .map(|(index, builder)| builder.install(&index))
                .sum())
        });
    match attempt {
        Ok(n) => Ok(IndexRecovery::Restored {
            entries: n,
            generation: expected.generation.unwrap_or(0),
        }),
        Err(cause) => {
            eprintln!(
                "gdpr-core: index snapshot {path:?} not usable ({cause}); \
                 rebuilding the metadata index from a full store scan"
            );
            let records = rebuild()?;
            Ok(IndexRecovery::Rebuilt { records, cause })
        }
    }
}

impl MetadataIndex {
    /// The crash-recovery entry point: load the snapshot at `path` into
    /// this (fresh) index when it is trustworthy — present, structurally
    /// valid, checksum-true, written for `expected`'s shard topology, and
    /// stamped with exactly the store generation `expected` carries — in
    /// O(index); otherwise complain on stderr and run `rebuild` (the
    /// caller's O(n) store backfill) instead. The returned
    /// [`IndexRecovery`] says which path was taken and why.
    ///
    /// Recovery never propagates a snapshot problem as an error: every
    /// untrustworthy-image class degrades to the rebuild, so the only
    /// failure surface is the rebuild's own store access.
    pub fn restore_or_rebuild<E>(
        &self,
        path: &Path,
        expected: &SnapshotStamp,
        rebuild: impl FnOnce(&MetadataIndex) -> Result<usize, E>,
    ) -> Result<IndexRecovery, E> {
        let attempt = read_file(path).and_then(|data| decode_into(&data, expected, self));
        match attempt {
            Ok(n) => Ok(IndexRecovery::Restored {
                entries: n,
                generation: expected.generation.unwrap_or(0),
            }),
            Err(cause) => {
                eprintln!(
                    "gdpr-core: index snapshot {path:?} not usable ({cause}); \
                     rebuilding the metadata index from a full store scan"
                );
                let records = rebuild(self)?;
                Ok(IndexRecovery::Rebuilt { records, cause })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Metadata;
    use crate::store::RecordPredicate;
    use std::time::Duration;

    fn sample_index() -> MetadataIndex {
        let idx = MetadataIndex::new();
        let mut m = Metadata::new(
            "neo",
            vec!["ads".into(), "2fa".into()],
            Duration::from_secs(60),
        );
        m.objections.push("ads".into());
        m.sharing.push("x-corp".into());
        idx.upsert(
            &crate::record::PersonalRecord::new("k1", "d1", m),
            1_000,
            false,
        );
        let mut m2 = Metadata::new("trinity", vec!["ads".into()], Duration::from_secs(1));
        m2.ttl = None;
        m2.decisions.push(Metadata::DEC_OPT_OUT.to_string());
        idx.upsert(
            &crate::record::PersonalRecord::new("k2", "d2", m2),
            1_000,
            false,
        );
        idx
    }

    fn all_predicates() -> Vec<RecordPredicate> {
        vec![
            RecordPredicate::User("neo".into()),
            RecordPredicate::User("trinity".into()),
            RecordPredicate::DeclaredPurpose("ads".into()),
            RecordPredicate::AllowsPurpose("ads".into()),
            RecordPredicate::NotObjecting("ads".into()),
            RecordPredicate::DecisionEligible,
            RecordPredicate::SharedWith("x-corp".into()),
        ]
    }

    fn assert_equivalent(a: &MetadataIndex, b: &MetadataIndex) {
        for pred in all_predicates() {
            assert_eq!(a.keys_for(&pred), b.keys_for(&pred), "{pred:?}");
        }
        for key in ["k1", "k2"] {
            assert_eq!(a.deadline_of(key), b.deadline_of(key), "{key}");
        }
        assert_eq!(a.len(), b.len());
        assert_eq!(a.expired_keys(u64::MAX), b.expired_keys(u64::MAX));
    }

    #[test]
    fn export_load_roundtrip_reproduces_every_structure() {
        let idx = sample_index();
        let restored = MetadataIndex::new();
        assert_eq!(restored.load_entries(idx.export_entries()), 2);
        assert_equivalent(&idx, &restored);
        // Deterministic dump: two exports are byte-identical once encoded.
        let stamp = SnapshotStamp::unsharded(Some(7));
        assert_eq!(
            encode(&idx.export_entries(), &stamp),
            encode(&idx.export_entries(), &stamp)
        );
    }

    #[test]
    fn encode_decode_roundtrip_and_stamp_checks() {
        let idx = sample_index();
        let stamp = SnapshotStamp {
            generation: Some(42),
            shard_index: 3,
            shard_count: 8,
        };
        let bytes = encode(&idx.export_entries(), &stamp);
        let entries = decode(&bytes, &stamp).unwrap();
        let restored = MetadataIndex::new();
        restored.load_entries(entries);
        assert_equivalent(&idx, &restored);

        // Wrong generation → stale.
        assert!(matches!(
            decode(
                &bytes,
                &SnapshotStamp {
                    generation: Some(43),
                    ..stamp.clone()
                }
            ),
            Err(SnapshotInvalid::StaleGeneration {
                snapshot: Some(42),
                store: Some(43)
            })
        ));
        // A store that cannot stamp trusts nothing.
        assert!(matches!(
            decode(
                &bytes,
                &SnapshotStamp {
                    generation: None,
                    ..stamp.clone()
                }
            ),
            Err(SnapshotInvalid::StaleGeneration { .. })
        ));
        // Unstamped image is never trusted either.
        let unstamped = encode(
            &idx.export_entries(),
            &SnapshotStamp {
                generation: None,
                ..stamp.clone()
            },
        );
        assert!(matches!(
            decode(&unstamped, &stamp),
            Err(SnapshotInvalid::StaleGeneration { snapshot: None, .. })
        ));
        // Topology mismatch checked before generation can pass.
        assert!(matches!(
            decode(
                &bytes,
                &SnapshotStamp {
                    generation: Some(42),
                    shard_index: 3,
                    shard_count: 4
                }
            ),
            Err(SnapshotInvalid::TopologyMismatch { .. })
        ));
    }

    #[test]
    fn every_truncation_and_flip_is_rejected_without_panicking() {
        let idx = sample_index();
        let stamp = SnapshotStamp::unsharded(Some(1));
        let bytes = encode(&idx.export_entries(), &stamp);
        for len in 0..bytes.len() {
            assert!(
                decode(&bytes[..len], &stamp).is_err(),
                "prefix of {len} bytes must be rejected"
            );
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x55;
            assert!(
                decode(&bad, &stamp).is_err(),
                "flip at {i} must be rejected"
            );
        }
        // Trailing garbage after a valid image.
        let mut padded = bytes.clone();
        padded.extend_from_slice(b"zzzz");
        assert!(decode(&padded, &stamp).is_err());
        // A duplicated (self-concatenated) image is not a valid image.
        let mut doubled = bytes.clone();
        doubled.extend_from_slice(&bytes);
        assert!(decode(&doubled, &stamp).is_err());
        assert!(
            decode(&bytes, &stamp).is_ok(),
            "the intact image still loads"
        );
    }

    /// A checksum-valid image whose keys are not strictly ascending is a
    /// forgery (the writer always sorts) — both readers must reject it,
    /// and the recovery path must degrade to the rebuild, because a
    /// duplicate or reordered key stream can split postings and drop
    /// records from predicate answers.
    #[test]
    fn forged_key_order_is_rejected_by_both_readers() {
        let idx = sample_index();
        let stamp = SnapshotStamp::unsharded(Some(3));
        let mut entries = idx.export_entries();
        entries.reverse(); // k2 before k1: checksum-valid, order-forged
        let forged = encode(&entries, &stamp);
        assert!(matches!(
            decode(&forged, &stamp),
            Err(SnapshotInvalid::Malformed(_))
        ));
        let fresh = MetadataIndex::new();
        assert!(matches!(
            decode_into(&forged, &stamp, &fresh),
            Err(SnapshotInvalid::Malformed(_))
        ));
        assert!(fresh.is_empty(), "a rejected image must install nothing");
        // Duplicated keys are equally a forgery.
        let mut entries = idx.export_entries();
        let dup = entries[0].clone();
        entries.insert(1, dup);
        let forged = encode(&entries, &stamp);
        assert!(matches!(
            decode(&forged, &stamp),
            Err(SnapshotInvalid::Malformed(_))
        ));
    }

    #[test]
    fn atomic_write_and_restore_or_rebuild() {
        let dir = std::env::temp_dir().join(format!("gidx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.snap");
        let _ = std::fs::remove_file(&path);
        let idx = sample_index();
        let stamp = SnapshotStamp::unsharded(Some(5));

        // Missing file → rebuild (closure runs).
        let fresh = MetadataIndex::new();
        let outcome: Result<IndexRecovery, GdprError> =
            fresh.restore_or_rebuild(&path, &stamp, |_| Ok(9));
        assert_eq!(
            outcome.unwrap(),
            IndexRecovery::Rebuilt {
                records: 9,
                cause: SnapshotInvalid::Missing
            }
        );

        let sections = vec![(String::new(), Arc::new(sample_index()))];
        assert_eq!(write_snapshot(&path, &sections, &stamp).unwrap(), 2);
        let fresh = MetadataIndex::new();
        let outcome: Result<IndexRecovery, GdprError> =
            fresh.restore_or_rebuild(&path, &stamp, |_| panic!("must not rebuild"));
        assert!(outcome.unwrap().is_restored());
        assert_equivalent(&idx, &fresh);

        // A rebuild error propagates.
        let bad: Result<IndexRecovery, GdprError> = MetadataIndex::new().restore_or_rebuild(
            &path,
            &SnapshotStamp::unsharded(Some(6)),
            |_| Err(GdprError::Store("scan failed".into())),
        );
        assert!(bad.is_err());
        std::fs::remove_file(&path).unwrap();
    }

    fn tenant_index(tenant: &str) -> MetadataIndex {
        let t = TenantId::new(tenant).unwrap();
        let idx = MetadataIndex::new();
        let m = Metadata::new("neo", vec!["ads".into()], Duration::from_secs(60));
        idx.upsert(
            &crate::record::PersonalRecord::new(t.storage_key("k1"), "d", m),
            1_000,
            false,
        );
        idx
    }

    #[test]
    fn multi_tenant_sections_roundtrip_and_route() {
        let stamp = SnapshotStamp::unsharded(Some(9));
        let sections = vec![
            (String::new(), Arc::new(sample_index())),
            ("acme".to_string(), Arc::new(tenant_index("acme"))),
            ("zeta".to_string(), Arc::new(tenant_index("zeta"))),
        ];
        let exported: Vec<(String, Vec<IndexEntry>)> = sections
            .iter()
            .map(|(t, i)| (t.clone(), i.export_entries()))
            .collect();
        let bytes = encode_sections(&exported, &stamp);
        let decoded = decode_sections(&bytes, &stamp).unwrap();
        assert_eq!(
            decoded.iter().map(|(t, _)| t.as_str()).collect::<Vec<_>>(),
            vec!["", "acme", "zeta"]
        );
        assert_eq!(decoded[0].1.len(), 2);
        assert_eq!(decoded[1].1.len(), 1);
        assert_eq!(decoded[1].1[0].key, "acme\u{1d}k1");

        // The tenant-aware recovery routes each section to its partition.
        let dir = std::env::temp_dir().join(format!("gidx-mt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("multi.snap");
        write_snapshot(&path, &sections, &stamp).unwrap();
        let mut restored: Vec<(String, Arc<MetadataIndex>)> = Vec::new();
        let outcome: Result<IndexRecovery, GdprError> = restore_or_rebuild_tenants(
            &path,
            &stamp,
            &mut |tenant| {
                let idx = Arc::new(MetadataIndex::new());
                restored.push((tenant.to_string(), Arc::clone(&idx)));
                Ok(idx)
            },
            || panic!("must not rebuild"),
        );
        assert_eq!(
            outcome.unwrap(),
            IndexRecovery::Restored {
                entries: 4,
                generation: 9
            }
        );
        assert_eq!(restored.len(), 3);
        assert_eq!(restored[1].0, "acme");
        assert_eq!(restored[1].1.len(), 1);
        assert_equivalent(&sections[0].1, &restored[0].1);
        std::fs::remove_file(&path).unwrap();

        // A multi-tenant image never restores into a single bare index.
        let single = MetadataIndex::new();
        assert!(matches!(
            decode_into(&bytes, &stamp, &single),
            Err(SnapshotInvalid::BadTenant(_))
        ));
        assert!(single.is_empty());
    }

    #[test]
    fn cross_tenant_and_misordered_sections_are_forgeries() {
        let stamp = SnapshotStamp::unsharded(Some(2));
        // Section order must be strictly ascending.
        let misordered = encode_sections(
            &[
                ("zeta".to_string(), tenant_index("zeta").export_entries()),
                ("acme".to_string(), tenant_index("acme").export_entries()),
            ],
            &stamp,
        );
        assert!(matches!(
            decode_sections(&misordered, &stamp),
            Err(SnapshotInvalid::Malformed(_))
        ));
        // A key parked in the wrong tenant's section is rejected even
        // though the checksum holds.
        let leaked = encode_sections(
            &[("acme".to_string(), tenant_index("zeta").export_entries())],
            &stamp,
        );
        assert!(matches!(
            decode_sections(&leaked, &stamp),
            Err(SnapshotInvalid::Malformed(_))
        ));
        // An invalid tenant name in the image is rejected.
        let bad_name = encode_sections(&[("has space".to_string(), Vec::new())], &stamp);
        assert!(matches!(
            decode_sections(&bad_name, &stamp),
            Err(SnapshotInvalid::BadTenant(_))
        ));
        // A version this build does not read rebuilds loudly.
        let mut old = encode(&sample_index().export_entries(), &stamp);
        old[8..12].copy_from_slice(&1u32.to_le_bytes());
        let body_len = old.len() - 8;
        let sum = SipHash24::from_key_bytes(&CHECKSUM_KEY).hash(&old[..body_len]);
        old[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode(&old, &stamp),
            Err(SnapshotInvalid::UnsupportedVersion(1))
        ));
    }
}
