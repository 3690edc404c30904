//! Merge write-ahead log: crash-safe persistence of the §4.3 merge loop.
//!
//! The agglomeration phase is deterministic — given the same neighbor
//! graph, configuration and merge prefix, the loop continues identically
//! (heap ties break on keys, so peeks are pure functions of heap
//! *content*). That makes the merge sequence itself the ideal durable
//! artifact: logging every merge decision as it commits lets a crashed or
//! interrupted run be replayed to the exact state it died in and then
//! continued, with a final clustering, dendrogram and criterion profile
//! **bit-identical** to an uninterrupted run.
//!
//! ## Format
//!
//! A WAL is `b"ROCKWAL1"` followed by CRC-framed records:
//!
//! ```text
//! frame   := type:u8  len:u32le  payload[len]  crc32:u32le
//! crc32   := CRC-32/IEEE over type ‖ len ‖ payload
//! records := Begin (Merge | Snapshot)* Finish?
//! ```
//!
//! The frame codec is shared with the fitted-model artifact
//! ([`crate::artifact`]); see [`crate::util::frame`].
//!
//! * **Begin** — configuration fingerprint (k, goodness exponent/kind,
//!   outlier policy) plus the initial arena: point id of every
//!   post-pruning singleton and the pruned outliers.
//! * **Merge** — one [`MergeRecord`]: pair ids, minted id, sizes, cross
//!   links and the goodness value (exact f64 bits).
//! * **Snapshot** — a periodic full image of the live clustering state
//!   (arena occupancy, members, cross-link table, weed status). The
//!   two-level heaps of Fig. 3 are *not* stored: every heap entry is
//!   `goodness(link[i][j], |i|, |j|)` by invariant, so heaps are rebuilt
//!   from the link table on restore. A snapshot makes a WAL
//!   self-contained — resumption needs no neighbor graph.
//! * **Finish** — marks a run that completed; replaying it is optional.
//!
//! ## Update logs
//!
//! The online update path ([`crate::incremental`]) keeps its own log
//! under the same magic and frame codec, with a disjoint record grammar:
//!
//! ```text
//! records := UpdateBase Update*
//! ```
//!
//! * **UpdateBase** — the evolving model's fingerprint (θ, `f(θ)`,
//!   labeling fraction, hash seed — exact f64 bits), the
//!   [`crate::incremental::StalenessPolicy`] in force, and a CRC-32
//!   digest of the base model's canonical state image.
//! * **Update** — one applied update batch: its sequence number, the
//!   encoded arrival points (self-contained
//!   [`crate::artifact::ArtifactPoint`] blobs), and the digest of the
//!   canonical state image *after* the batch applied. Updates are
//!   deterministic, so replaying the blobs from the base model
//!   reproduces each digest bit-for-bit — [`parse_update_wal`] applies
//!   the merge-WAL torn-tail discipline (damage to magic/UpdateBase is
//!   [`RockError::WalCorrupt`]; later damage or an out-of-sequence
//!   record truncates).
//!
//! The record-type spaces are disjoint (Begin..Finish = 1..=4,
//! UpdateBase/Update = 5/6), so a log handed to the wrong parser
//! degrades into a typed error or an empty truncated replay — never a
//! misread record.
//!
//! ## Torn tails
//!
//! Crashes tear the last frame. [`parse_wal`] accepts any log whose
//! magic and Begin record are intact, and *truncates* at the first frame
//! that is incomplete, fails its CRC, or has an unknown type — reporting
//! [`WalReplay::truncated`] rather than an error. Only damage to the
//! magic/Begin prefix (nothing to resume from) is a
//! [`RockError::WalCorrupt`].
//!
//! Entry points: [`crate::algorithm::RockAlgorithm::run`] (writes),
//! [`crate::algorithm::RockAlgorithm::resume`] (replays), and
//! [`crate::rock::Rock::try_cluster`] / [`crate::rock::Rock::resume_cluster`].

use crate::cluster::MergeRecord;
use crate::error::RockError;
use crate::incremental::StalenessPolicy;
use crate::util::frame::{
    append_frame, put_f64, put_u32, put_u32_slice, put_u64, read_frame, Cursor,
};
use std::io::Write as _;
use std::path::Path;

/// The 8-byte magic prefix of every merge WAL.
pub const WAL_MAGIC: &[u8; 8] = b"ROCKWAL1";

const REC_BEGIN: u8 = 1;
const REC_MERGE: u8 = 2;
const REC_SNAPSHOT: u8 = 3;
const REC_FINISH: u8 = 4;
const REC_UBASE: u8 = 5;
const REC_UPDATE: u8 = 6;

/// Configuration fingerprint + initial arena, logged once at the head of
/// every WAL.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct WalBegin {
    /// Number of input points the run was started on.
    pub n_points: u32,
    /// Target cluster count `k`.
    pub k: u32,
    /// Bits of the goodness exponent `1 + 2·f(θ)`.
    pub exponent_bits: u64,
    /// Goodness kind discriminant (0 = normalized, 1 = raw links).
    pub kind: u8,
    /// `OutlierPolicy::min_neighbors`.
    pub min_neighbors: u32,
    /// Weed policy, if any: `(stop_multiple bits, min_cluster_size)`.
    pub weed: Option<(u64, u32)>,
    /// Point id of each initial (post-pruning) singleton cluster.
    pub initial_points: Vec<u32>,
    /// Points pruned up front as neighbor-less outliers.
    pub pruned_outliers: Vec<u32>,
}

/// A full image of the merge-loop state at `merges_done` merges.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct WalSnapshot {
    /// Merges applied when the snapshot was taken.
    pub merges_done: u64,
    /// Length of the cluster-id arena (initial clusters + merges done).
    pub arena_len: u64,
    /// Whether the §4.6 mid-flight weeding has already fired.
    pub weeded: bool,
    /// All outliers accumulated so far (pruned + weeded).
    pub outliers: Vec<u32>,
    /// Live clusters: `(arena id, member point ids)`.
    pub clusters: Vec<(u32, Vec<u32>)>,
    /// Cross-link table, upper triangle: `(i, j, count)` with `i < j`,
    /// sorted ascending. Heaps are derived from this on restore.
    pub links: Vec<(u32, u32, u64)>,
}

/// The evolving-model fingerprint logged once at the head of every
/// update WAL: the labeling parameters the model serves under, the
/// staleness policy in force, and a digest of the base model's
/// canonical state image.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct UpdateBase {
    /// Exact bits of the similarity threshold θ.
    pub theta_bits: u64,
    /// Exact bits of the resolved `f(θ)`.
    pub ftheta_bits: u64,
    /// Exact bits of the labeling fraction.
    pub fraction_bits: u64,
    /// The merge engine's hash seed, if one was configured.
    pub hash_seed: Option<u64>,
    /// The staleness/re-merge policy the updates were applied under.
    pub policy: StalenessPolicy,
    /// CRC-32 of the base model's canonical state image.
    pub base_digest: u32,
}

/// One applied update batch: sequence number, encoded arrival points,
/// and the digest of the canonical state image after it applied.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct UpdateRecord {
    /// 0-based batch index; must equal the number of updates before it.
    pub seq: u64,
    /// Self-contained [`crate::artifact::ArtifactPoint`] encodings of
    /// the arrivals, in arrival order.
    pub points: Vec<Vec<u8>>,
    /// CRC-32 of the canonical state image after this batch applied.
    pub post_digest: u32,
}

/// An append-only, CRC-framed merge log held in memory.
///
/// Obtain the bytes with [`as_bytes`](MergeWal::as_bytes) (persist them
/// however suits the deployment — [`write_to`](MergeWal::write_to) is
/// the simple file path) and hand them back to
/// [`crate::algorithm::RockAlgorithm::resume`] to continue an
/// interrupted run.
#[derive(Clone, Debug)]
pub struct MergeWal {
    buf: Vec<u8>,
    snapshot_every: u64,
}

impl Default for MergeWal {
    fn default() -> Self {
        MergeWal::new()
    }
}

impl MergeWal {
    /// An empty WAL (magic only), snapshotting every 512 merges.
    pub fn new() -> Self {
        MergeWal {
            buf: WAL_MAGIC.to_vec(),
            snapshot_every: 512,
        }
    }

    /// Sets the snapshot cadence: a full state image every `n` merges
    /// (`0` disables snapshots; such a WAL needs the neighbor graph to
    /// resume).
    pub fn with_snapshot_every(mut self, n: u64) -> Self {
        self.snapshot_every = n;
        self
    }

    /// The configured snapshot cadence (0 = disabled).
    pub fn snapshot_every(&self) -> u64 {
        self.snapshot_every
    }

    /// The encoded log bytes (magic + frames).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the WAL, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Encoded size in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the WAL holds no records yet (magic only).
    pub fn is_empty(&self) -> bool {
        self.buf.len() <= WAL_MAGIC.len()
    }

    /// Writes the encoded log to `path`, fsync'd.
    ///
    /// # Errors
    /// Any I/O error from create/write/sync.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(&self.buf)?;
        f.sync_all()
    }

    fn frame(&mut self, kind: u8, payload: &[u8]) {
        append_frame(&mut self.buf, kind, payload);
    }

    pub(crate) fn append_begin(&mut self, b: &WalBegin) {
        let mut p = Vec::new();
        put_u32(&mut p, b.n_points);
        put_u32(&mut p, b.k);
        put_u64(&mut p, b.exponent_bits);
        p.push(b.kind);
        put_u32(&mut p, b.min_neighbors);
        match b.weed {
            Some((mult_bits, min_size)) => {
                p.push(1);
                put_u64(&mut p, mult_bits);
                put_u32(&mut p, min_size);
            }
            None => p.push(0),
        }
        put_u32_slice(&mut p, &b.initial_points);
        put_u32_slice(&mut p, &b.pruned_outliers);
        self.frame(REC_BEGIN, &p);
    }

    pub(crate) fn append_merge(&mut self, m: &MergeRecord) {
        let mut p = Vec::with_capacity(44);
        put_u32(&mut p, m.left);
        put_u32(&mut p, m.right);
        put_u32(&mut p, m.merged);
        put_u64(&mut p, m.sizes.0 as u64);
        put_u64(&mut p, m.sizes.1 as u64);
        put_u64(&mut p, m.cross_links);
        put_u64(&mut p, m.goodness.to_bits());
        self.frame(REC_MERGE, &p);
    }

    pub(crate) fn append_snapshot(&mut self, s: &WalSnapshot) {
        let mut p = Vec::new();
        put_u64(&mut p, s.merges_done);
        put_u64(&mut p, s.arena_len);
        p.push(u8::from(s.weeded));
        put_u32_slice(&mut p, &s.outliers);
        put_u32(&mut p, s.clusters.len() as u32);
        for (id, members) in &s.clusters {
            put_u32(&mut p, *id);
            put_u32_slice(&mut p, members);
        }
        put_u64(&mut p, s.links.len() as u64);
        for &(i, j, c) in &s.links {
            put_u32(&mut p, i);
            put_u32(&mut p, j);
            put_u64(&mut p, c);
        }
        self.frame(REC_SNAPSHOT, &p);
    }

    pub(crate) fn append_finish(&mut self, merges_total: u64) {
        let mut p = Vec::with_capacity(8);
        put_u64(&mut p, merges_total);
        self.frame(REC_FINISH, &p);
    }
}

/// An append-only, CRC-framed update log held in memory — the
/// durability companion of the online update path
/// ([`crate::incremental::IncrementalRockState`]).
///
/// Encoding is deterministic, so replaying the same updates from the
/// same base model regenerates the log byte-for-byte: resumption never
/// needs to splice onto old bytes.
#[derive(Clone, Debug, Default)]
pub struct UpdateWal {
    buf: Vec<u8>,
}

impl UpdateWal {
    /// An empty update WAL (magic only).
    pub fn new() -> Self {
        UpdateWal {
            buf: WAL_MAGIC.to_vec(),
        }
    }

    /// The encoded log bytes (magic + frames).
    pub fn as_bytes(&self) -> &[u8] {
        if self.buf.is_empty() {
            // `Default` derives an empty buffer; expose it as a valid
            // (magic-only) image anyway.
            WAL_MAGIC
        } else {
            &self.buf
        }
    }

    /// Consumes the WAL, returning the encoded bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        if self.buf.is_empty() {
            self.buf = WAL_MAGIC.to_vec();
        }
        self.buf
    }

    /// Encoded size in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Whether the WAL holds no records yet (magic only).
    pub fn is_empty(&self) -> bool {
        self.len() <= WAL_MAGIC.len()
    }

    /// Writes the encoded log to `path`, fsync'd.
    ///
    /// # Errors
    /// Any I/O error from create/write/sync.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.as_bytes())?;
        f.sync_all()
    }

    fn frame(&mut self, kind: u8, payload: &[u8]) {
        if self.buf.is_empty() {
            self.buf = WAL_MAGIC.to_vec();
        }
        append_frame(&mut self.buf, kind, payload);
    }

    pub(crate) fn append_base(&mut self, b: &UpdateBase) {
        let mut p = Vec::new();
        put_u64(&mut p, b.theta_bits);
        put_u64(&mut p, b.ftheta_bits);
        put_u64(&mut p, b.fraction_bits);
        match b.hash_seed {
            None => p.push(0),
            Some(seed) => {
                p.push(1);
                put_u64(&mut p, seed);
            }
        }
        put_u64(&mut p, b.policy.max_pending);
        put_f64(&mut p, b.policy.max_dirty_fraction);
        put_f64(&mut p, b.policy.min_goodness);
        put_u64(&mut p, b.policy.max_merges);
        put_u64(&mut p, b.policy.min_clusters as u64);
        put_f64(&mut p, b.policy.max_cluster_fraction);
        put_u64(&mut p, b.policy.rep_cap as u64);
        put_u32(&mut p, b.base_digest);
        self.frame(REC_UBASE, &p);
    }

    pub(crate) fn append_update(&mut self, u: &UpdateRecord) {
        let mut p = Vec::new();
        put_u64(&mut p, u.seq);
        put_u32(&mut p, u.points.len() as u32);
        for blob in &u.points {
            put_u32(&mut p, blob.len() as u32);
            p.extend_from_slice(blob);
        }
        put_u32(&mut p, u.post_digest);
        self.frame(REC_UPDATE, &p);
    }
}

/// The replayable content of a parsed WAL.
#[derive(Clone, Debug)]
pub struct WalReplay {
    pub(crate) begin: WalBegin,
    /// Every logged merge, in commit order (complete from merge 0, even
    /// past snapshots — resumption re-logs the prefix into fresh WALs).
    pub(crate) merges: Vec<MergeRecord>,
    /// The latest intact snapshot, if any.
    pub(crate) snapshot: Option<WalSnapshot>,
    /// Whether a Finish record was seen (the run completed).
    pub finished: bool,
    /// Whether a torn tail was truncated during parsing.
    pub truncated: bool,
}

impl WalReplay {
    /// Number of merges recoverable from the log.
    pub fn num_merges(&self) -> usize {
        self.merges.len()
    }

    /// The logged merges, in commit order.
    pub fn merges(&self) -> &[MergeRecord] {
        &self.merges
    }

    /// Whether the log carries a snapshot (and can thus be resumed
    /// without recomputing the neighbor graph).
    pub fn has_snapshot(&self) -> bool {
        self.snapshot.is_some()
    }

    /// Number of input points the logged run started from.
    pub fn num_points(&self) -> usize {
        self.begin.n_points as usize
    }
}

fn parse_begin(payload: &[u8]) -> Option<WalBegin> {
    let mut c = Cursor::new(payload);
    let n_points = c.u32()?;
    let k = c.u32()?;
    let exponent_bits = c.u64()?;
    let kind = c.u8()?;
    let min_neighbors = c.u32()?;
    let weed = match c.u8()? {
        0 => None,
        1 => Some((c.u64()?, c.u32()?)),
        _ => return None,
    };
    let initial_points = c.u32_vec()?;
    let pruned_outliers = c.u32_vec()?;
    c.done().then_some(WalBegin {
        n_points,
        k,
        exponent_bits,
        kind,
        min_neighbors,
        weed,
        initial_points,
        pruned_outliers,
    })
}

fn parse_merge(payload: &[u8]) -> Option<MergeRecord> {
    let mut c = Cursor::new(payload);
    let rec = MergeRecord {
        left: c.u32()?,
        right: c.u32()?,
        merged: c.u32()?,
        sizes: (c.u64()? as usize, c.u64()? as usize),
        cross_links: c.u64()?,
        goodness: f64::from_bits(c.u64()?),
    };
    c.done().then_some(rec)
}

fn parse_snapshot(payload: &[u8]) -> Option<WalSnapshot> {
    let mut c = Cursor::new(payload);
    let merges_done = c.u64()?;
    let arena_len = c.u64()?;
    let weeded = match c.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let outliers = c.u32_vec()?;
    let num_clusters = c.u32()? as usize;
    let mut clusters = Vec::new();
    for _ in 0..num_clusters {
        let id = c.u32()?;
        let members = c.u32_vec()?;
        clusters.push((id, members));
    }
    let num_links = c.u64()? as usize;
    if num_links > payload.len() / 16 {
        return None; // each link entry is 16 bytes; length is lying
    }
    let mut links = Vec::with_capacity(num_links);
    for _ in 0..num_links {
        links.push((c.u32()?, c.u32()?, c.u64()?));
    }
    c.done().then_some(WalSnapshot {
        merges_done,
        arena_len,
        weeded,
        outliers,
        clusters,
        links,
    })
}

/// Parses a merge WAL, truncating any torn tail.
///
/// # Errors
/// [`RockError::WalCorrupt`] when the magic or the Begin record is
/// missing or damaged — there is nothing to resume from. Damage *after*
/// a valid Begin is treated as a torn tail: the valid prefix is kept and
/// [`WalReplay::truncated`] is set.
pub fn parse_wal(bytes: &[u8]) -> Result<WalReplay, RockError> {
    // tidy-allow(panic-reach): the length check short-circuits before the magic slice
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(RockError::WalCorrupt {
            offset: 0,
            detail: "missing ROCKWAL1 magic".into(),
        });
    }

    let mut at = WAL_MAGIC.len();
    let mut begin: Option<WalBegin> = None;
    let mut merges: Vec<MergeRecord> = Vec::new();
    let mut snapshot: Option<WalSnapshot> = None;
    let mut finished = false;
    let mut truncated = false;

    while at < bytes.len() {
        // Frame = type(1) + len(4) + payload + crc(4).
        let frame = read_frame(bytes, at);
        let Some((kind, payload, next)) = frame else {
            truncated = true;
            break;
        };
        let record_ok = match kind {
            REC_BEGIN if begin.is_none() && merges.is_empty() => {
                begin = parse_begin(payload);
                begin.is_some()
            }
            REC_MERGE if begin.is_some() && !finished => match parse_merge(payload) {
                Some(m) => {
                    merges.push(m);
                    true
                }
                None => false,
            },
            REC_SNAPSHOT if begin.is_some() && !finished => match parse_snapshot(payload) {
                // A snapshot claiming more merges than are logged before
                // it cannot be replayed; treat it as tail damage.
                Some(s) if s.merges_done as usize <= merges.len() => {
                    snapshot = Some(s);
                    true
                }
                _ => false,
            },
            REC_FINISH if begin.is_some() && !finished => {
                let mut c = Cursor::new(payload);
                match c.u64() {
                    Some(total) if c.done() && total as usize == merges.len() => {
                        finished = true;
                        true
                    }
                    _ => false,
                }
            }
            _ => false, // unknown type or record out of order
        };
        if !record_ok {
            if begin.is_none() {
                return Err(RockError::WalCorrupt {
                    offset: at as u64,
                    detail: "damaged Begin record".into(),
                });
            }
            truncated = true;
            break;
        }
        at = next;
    }

    let Some(begin) = begin else {
        return Err(RockError::WalCorrupt {
            offset: at as u64,
            detail: "log ends before a complete Begin record".into(),
        });
    };
    Ok(WalReplay {
        begin,
        merges,
        snapshot,
        finished,
        truncated,
    })
}

/// The replayable content of a parsed update WAL.
#[derive(Clone, Debug)]
pub struct UpdateReplay {
    pub(crate) base: UpdateBase,
    /// Every intact update record, in sequence order.
    pub(crate) updates: Vec<UpdateRecord>,
    /// Whether a torn tail was truncated during parsing.
    pub truncated: bool,
}

impl UpdateReplay {
    /// Number of update batches recoverable from the log.
    pub fn num_updates(&self) -> usize {
        self.updates.len()
    }
}

fn parse_update_base(payload: &[u8]) -> Option<UpdateBase> {
    let mut c = Cursor::new(payload);
    let theta_bits = c.u64()?;
    let ftheta_bits = c.u64()?;
    let fraction_bits = c.u64()?;
    let hash_seed = match c.u8()? {
        0 => None,
        1 => Some(c.u64()?),
        _ => return None,
    };
    let policy = StalenessPolicy {
        max_pending: c.u64()?,
        max_dirty_fraction: c.f64()?,
        min_goodness: c.f64()?,
        max_merges: c.u64()?,
        min_clusters: c.u64()? as usize,
        max_cluster_fraction: c.f64()?,
        rep_cap: c.u64()? as usize,
    };
    let base_digest = c.u32()?;
    if policy.check().is_err() {
        return None;
    }
    c.done().then_some(UpdateBase {
        theta_bits,
        ftheta_bits,
        fraction_bits,
        hash_seed,
        policy,
        base_digest,
    })
}

fn parse_update_record(payload: &[u8]) -> Option<UpdateRecord> {
    let mut c = Cursor::new(payload);
    let seq = c.u64()?;
    let n = c.u32()? as usize;
    if n > payload.len() / 4 {
        return None; // each blob costs at least a 4-byte length
    }
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        let blob_len = c.u32()? as usize;
        points.push(c.take(blob_len)?.to_vec());
    }
    let post_digest = c.u32()?;
    c.done().then_some(UpdateRecord {
        seq,
        points,
        post_digest,
    })
}

/// Parses an update WAL, truncating any torn tail.
///
/// The discipline mirrors [`parse_wal`]: damage to the magic or the
/// UpdateBase record (nothing to replay onto) is fatal, while a frame
/// after a valid base that is incomplete, fails its CRC, has an unknown
/// type, or carries an out-of-sequence number truncates the log there
/// with [`UpdateReplay::truncated`] set.
///
/// # Errors
/// [`RockError::WalCorrupt`] when the magic or the UpdateBase record is
/// missing or damaged.
pub fn parse_update_wal(bytes: &[u8]) -> Result<UpdateReplay, RockError> {
    // tidy-allow(panic-reach): the length check short-circuits before the magic slice
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(RockError::WalCorrupt {
            offset: 0,
            detail: "missing ROCKWAL1 magic".into(),
        });
    }

    let mut at = WAL_MAGIC.len();
    let mut base: Option<UpdateBase> = None;
    let mut updates: Vec<UpdateRecord> = Vec::new();
    let mut truncated = false;

    while at < bytes.len() {
        let frame = read_frame(bytes, at);
        let Some((kind, payload, next)) = frame else {
            truncated = true;
            break;
        };
        let record_ok = match kind {
            REC_UBASE if base.is_none() && updates.is_empty() => {
                base = parse_update_base(payload);
                base.is_some()
            }
            REC_UPDATE if base.is_some() => match parse_update_record(payload) {
                Some(u) if u.seq as usize == updates.len() => {
                    updates.push(u);
                    true
                }
                _ => false,
            },
            _ => false, // unknown type or record out of order
        };
        if !record_ok {
            if base.is_none() {
                return Err(RockError::WalCorrupt {
                    offset: at as u64,
                    detail: "damaged UpdateBase record".into(),
                });
            }
            truncated = true;
            break;
        }
        at = next;
    }

    let Some(base) = base else {
        return Err(RockError::WalCorrupt {
            offset: at as u64,
            detail: "log ends before a complete UpdateBase record".into(),
        });
    };
    Ok(UpdateReplay {
        base,
        updates,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_begin() -> WalBegin {
        WalBegin {
            n_points: 6,
            k: 2,
            exponent_bits: 1.5f64.to_bits(),
            kind: 0,
            min_neighbors: 1,
            weed: Some((2.0f64.to_bits(), 3)),
            initial_points: vec![0, 1, 2, 4, 5],
            pruned_outliers: vec![3],
        }
    }

    fn sample_merge(i: u32) -> MergeRecord {
        MergeRecord {
            left: i,
            right: i + 1,
            merged: 5 + i,
            sizes: (1, 2),
            cross_links: 7,
            goodness: 0.25 + f64::from(i),
        }
    }

    fn sample_snapshot() -> WalSnapshot {
        WalSnapshot {
            merges_done: 2,
            arena_len: 7,
            weeded: false,
            outliers: vec![3],
            clusters: vec![(4, vec![5]), (6, vec![0, 1, 2, 4])],
            links: vec![(4, 6, 9)],
        }
    }

    #[test]
    fn round_trips_all_record_types() {
        let mut wal = MergeWal::new();
        wal.append_begin(&sample_begin());
        wal.append_merge(&sample_merge(0));
        wal.append_merge(&sample_merge(1));
        wal.append_snapshot(&sample_snapshot());
        wal.append_finish(2);

        let replay = parse_wal(wal.as_bytes()).unwrap();
        assert_eq!(replay.begin, sample_begin());
        assert_eq!(replay.merges, vec![sample_merge(0), sample_merge(1)]);
        assert_eq!(replay.snapshot, Some(sample_snapshot()));
        assert!(replay.finished);
        assert!(!replay.truncated);
    }

    #[test]
    fn goodness_bits_survive_exactly() {
        let mut wal = MergeWal::new();
        wal.append_begin(&sample_begin());
        let mut m = sample_merge(0);
        m.goodness = f64::from_bits(0x3FF7_1234_5678_9ABC);
        wal.append_merge(&m);
        let replay = parse_wal(wal.as_bytes()).unwrap();
        assert_eq!(replay.merges[0].goodness.to_bits(), m.goodness.to_bits());
    }

    #[test]
    fn empty_or_bad_magic_is_corrupt() {
        assert!(matches!(
            parse_wal(b""),
            Err(RockError::WalCorrupt { .. })
        ));
        assert!(matches!(
            parse_wal(b"NOTAWAL!rest"),
            Err(RockError::WalCorrupt { .. })
        ));
    }

    #[test]
    fn torn_begin_is_corrupt_torn_tail_is_truncated() {
        let mut wal = MergeWal::new();
        wal.append_begin(&sample_begin());
        let begin_end = wal.len();
        wal.append_merge(&sample_merge(0));
        let merge0_end = wal.len();
        wal.append_merge(&sample_merge(1));
        let bytes = wal.as_bytes();

        // Any cut inside the Begin record (past the magic) is fatal.
        for cut in WAL_MAGIC.len()..begin_end {
            assert!(
                matches!(parse_wal(&bytes[..cut]), Err(RockError::WalCorrupt { .. })),
                "cut at {cut} should be corrupt"
            );
        }
        // Any cut after Begin only truncates; cuts landing exactly on a
        // frame boundary leave a clean (un-torn) shorter log.
        for cut in begin_end..bytes.len() {
            let replay = parse_wal(&bytes[..cut]).unwrap();
            let boundary = cut == begin_end || cut == merge0_end;
            assert_eq!(replay.truncated, !boundary, "cut at {cut}");
            assert!(replay.num_merges() <= 2);
        }
        // The full log parses both merges.
        assert_eq!(parse_wal(bytes).unwrap().num_merges(), 2);
    }

    #[test]
    fn bit_flip_in_a_merge_record_truncates_there() {
        let mut wal = MergeWal::new();
        wal.append_begin(&sample_begin());
        wal.append_merge(&sample_merge(0));
        let first_merge_end = wal.len();
        wal.append_merge(&sample_merge(1));
        let mut bytes = wal.into_bytes();
        bytes[first_merge_end + 7] ^= 0x40; // inside the second merge frame
        let replay = parse_wal(&bytes).unwrap();
        assert!(replay.truncated);
        assert_eq!(replay.merges, vec![sample_merge(0)]);
    }

    #[test]
    fn snapshot_claiming_unlogged_merges_is_tail_damage() {
        let mut wal = MergeWal::new();
        wal.append_begin(&sample_begin());
        wal.append_merge(&sample_merge(0));
        let mut snap = sample_snapshot();
        snap.merges_done = 5; // only 1 merge logged before it
        wal.append_snapshot(&snap);
        let replay = parse_wal(wal.as_bytes()).unwrap();
        assert!(replay.truncated);
        assert!(replay.snapshot.is_none());
        assert_eq!(replay.num_merges(), 1);
    }

    #[test]
    fn records_after_finish_are_truncated() {
        let mut wal = MergeWal::new();
        wal.append_begin(&sample_begin());
        wal.append_merge(&sample_merge(0));
        wal.append_finish(1);
        wal.append_merge(&sample_merge(1));
        let replay = parse_wal(wal.as_bytes()).unwrap();
        assert!(replay.finished);
        assert!(replay.truncated);
        assert_eq!(replay.num_merges(), 1);
    }

    fn sample_update_base() -> UpdateBase {
        UpdateBase {
            theta_bits: 0.5f64.to_bits(),
            ftheta_bits: 1.0f64.to_bits(),
            fraction_bits: 0.25f64.to_bits(),
            hash_seed: Some(7),
            policy: StalenessPolicy::default(),
            base_digest: 0xDEAD_BEEF,
        }
    }

    fn sample_update(seq: u64) -> UpdateRecord {
        UpdateRecord {
            seq,
            points: vec![vec![1, 2, 3], vec![], vec![9]],
            post_digest: 0x1234_0000 + seq as u32,
        }
    }

    #[test]
    fn update_log_round_trips() {
        let mut wal = UpdateWal::new();
        wal.append_base(&sample_update_base());
        wal.append_update(&sample_update(0));
        wal.append_update(&sample_update(1));
        let replay = parse_update_wal(wal.as_bytes()).unwrap();
        assert_eq!(replay.base, sample_update_base());
        assert_eq!(replay.updates, vec![sample_update(0), sample_update(1)]);
        assert!(!replay.truncated);
        assert_eq!(replay.num_updates(), 2);
    }

    #[test]
    fn default_update_wal_is_a_valid_empty_image() {
        let wal = UpdateWal::default();
        assert!(wal.is_empty());
        assert_eq!(wal.as_bytes(), WAL_MAGIC);
        assert!(matches!(
            parse_update_wal(wal.as_bytes()),
            Err(RockError::WalCorrupt { .. })
        ));
    }

    #[test]
    fn torn_update_base_is_corrupt_torn_tail_is_truncated() {
        let mut wal = UpdateWal::new();
        wal.append_base(&sample_update_base());
        let base_end = wal.len();
        wal.append_update(&sample_update(0));
        let bytes = wal.as_bytes();
        for cut in WAL_MAGIC.len()..base_end {
            assert!(
                matches!(
                    parse_update_wal(&bytes[..cut]),
                    Err(RockError::WalCorrupt { .. })
                ),
                "cut at {cut} should be corrupt"
            );
        }
        for cut in base_end..bytes.len() {
            let replay = parse_update_wal(&bytes[..cut]).unwrap();
            assert_eq!(replay.truncated, cut != base_end, "cut at {cut}");
            assert!(replay.updates.is_empty());
        }
        assert_eq!(parse_update_wal(bytes).unwrap().num_updates(), 1);
    }

    #[test]
    fn out_of_sequence_update_truncates() {
        let mut wal = UpdateWal::new();
        wal.append_base(&sample_update_base());
        wal.append_update(&sample_update(0));
        wal.append_update(&sample_update(2)); // gap: seq 1 missing
        let replay = parse_update_wal(wal.as_bytes()).unwrap();
        assert!(replay.truncated);
        assert_eq!(replay.updates, vec![sample_update(0)]);
    }

    #[test]
    fn bit_flip_in_an_update_record_truncates_there() {
        let mut wal = UpdateWal::new();
        wal.append_base(&sample_update_base());
        wal.append_update(&sample_update(0));
        let first_end = wal.len();
        wal.append_update(&sample_update(1));
        let mut bytes = wal.into_bytes();
        bytes[first_end + 7] ^= 0x40; // inside the second update frame
        let replay = parse_update_wal(&bytes).unwrap();
        assert!(replay.truncated);
        assert_eq!(replay.updates, vec![sample_update(0)]);
    }

    #[test]
    fn merge_records_in_an_update_log_truncate() {
        // Record-type spaces are disjoint: a Merge frame after the
        // UpdateBase reads as an unknown type and truncates.
        let mut wal = UpdateWal::new();
        wal.append_base(&sample_update_base());
        let mut p = Vec::new();
        put_u64(&mut p, 1);
        append_frame(&mut wal.buf, REC_MERGE, &p);
        let replay = parse_update_wal(wal.as_bytes()).unwrap();
        assert!(replay.truncated);
        assert!(replay.updates.is_empty());
        // And the other way round: an update log handed to the merge
        // parser fails on its (damaged-looking) head.
        assert!(matches!(
            parse_wal(wal.as_bytes()),
            Err(RockError::WalCorrupt { .. })
        ));
    }

    #[test]
    fn update_base_with_invalid_policy_is_corrupt() {
        let mut base = sample_update_base();
        base.policy.rep_cap = 0;
        let mut wal = UpdateWal::new();
        wal.append_base(&base);
        assert!(matches!(
            parse_update_wal(wal.as_bytes()),
            Err(RockError::WalCorrupt { .. })
        ));
    }

    #[test]
    fn update_file_round_trip() {
        let mut wal = UpdateWal::new();
        wal.append_base(&sample_update_base());
        wal.append_update(&sample_update(0));
        let dir = std::env::temp_dir().join("rock-wal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("update-roundtrip-{}.wal", std::process::id()));
        wal.write_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(bytes, wal.as_bytes());
        assert_eq!(parse_update_wal(&bytes).unwrap().num_updates(), 1);
    }

    #[test]
    fn file_round_trip() {
        let mut wal = MergeWal::new();
        wal.append_begin(&sample_begin());
        wal.append_merge(&sample_merge(0));
        let dir = std::env::temp_dir().join("rock-wal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("roundtrip-{}.wal", std::process::id()));
        wal.write_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(bytes, wal.as_bytes());
        assert_eq!(parse_wal(&bytes).unwrap().num_merges(), 1);
    }
}
