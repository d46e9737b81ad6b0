//! Durable node state: storage backends and crash-restart recovery.
//!
//! SecureCyclon's accountability cuts both ways: the signed artifacts that
//! convict a violator (§IV-B) convict an *amnesiac honest node* just as
//! readily. A node that crashes after minting its per-cycle descriptor and
//! restarts without remembering it will mint a second one inside the same
//! gossip period — two genesis signatures by one key, less than a period
//! apart, which is precisely a frequency-violation proof. Durability is
//! therefore a protocol-correctness requirement, not an operational nicety.
//!
//! This module provides the [`StateBackend`] trait and two
//! implementations:
//!
//! * [`MemoryBackend`] — in-RAM, used by the simulator's crash-restart
//!   scenarios (state survives the *node object*, not the process);
//! * [`FileBackend`] — an append-only log of checksummed records with
//!   truncated-tail recovery, used by the `sc-node` daemon behind
//!   `--state-dir`.
//!
//! # What is persisted
//!
//! A [`PersistentState`] checkpoint carries everything whose loss is
//! either self-incriminating or monotone protocol knowledge: the view and
//! reserve (owned descriptor tokens — losing one permanently destroys a
//! link), the redemption cache (§V-C), the blacklist's proofs (§IV-C),
//! the regular/NS redemption replay guards, and the per-cycle emission
//! marker (the frequency bugfix). Purely ephemeral machinery — open
//! sessions, the sample cache, pending floods — is deliberately rebuilt
//! from gossip.
//!
//! The spent-state ledger (re-signing an already-continued state is
//! self-made *cloning* evidence) is written once: each digest is its own
//! `spent` record, durable before the transfer that spends it leaves. A
//! node's checkpoint does not copy the ledger. It names the oldest stamp
//! the node still holds ([`StateBackend::save_checkpoint_naming`]): the
//! backend keeps its records from the first one stamped that or later,
//! and the records in front of it go, as the node's ring forgets them.
//!
//! # Log format
//!
//! Each record is framed as
//! `[u32 payload_len][u8 kind][u32 checksum][payload]` (big-endian),
//! where the checksum is the first four bytes of
//! `SHA-256(kind || payload)`. Small incremental records (`emit`,
//! `proof`, `spent`) are appended synchronously at the protocol points
//! where losing them would be incriminating; a checkpoint record is
//! appended once per cycle. Recovery replays the log in order — a
//! checkpoint *replaces* the folded state, incremental records *merge*
//! into it — and stops at the first torn or corrupt record, so a partial
//! final record (the normal shape of a `kill -9` mid-append) is never
//! resurrected. The load that finds one cuts the file back to the intact
//! prefix, so the records a restarted node appends are folded again.
//! When the log outgrows a threshold it is compacted to a single
//! checkpoint record via write-to-temp + rename.
//!
//! A checkpoint's payload starts with its format version. Version 2
//! writes, where version 1 listed the ledger, the stamp it names (`u8`
//! 0 for none, or 1 and a `u64`) and then the records it adds. The fold
//! keeps the `spent` records before the checkpoint from the first one
//! stamped the named stamp or later (none when it names none) and appends
//! the checkpoint's list after them. A node's checkpoint names its ring's
//! front and lists nothing; the one checkpoint a compaction leaves names
//! none and lists every live record. A version-1 checkpoint still folds
//! as it was written: its list is the whole ledger.
//!
//! Durability target: surviving process death (`kill -9`) requires only
//! that the `write` syscall returned — the page cache outlives the
//! process. Surviving power loss would additionally need `fsync`, which
//! this backend deliberately skips to keep the per-cycle cost at one
//! buffered write.

use crate::descriptor::{DescriptorId, SecureDescriptor};
use crate::proof::ViolationProof;
use crate::time::Timestamp;
use crate::wire::{Reader, WireError, WireLimits, Writer};
use sc_crypto::{sha256_concat, Digest, PUBLIC_KEY_LEN};
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Record kind: a full [`PersistentState`] checkpoint.
const REC_CHECKPOINT: u8 = 1;
/// Record kind: the per-cycle descriptor-emission marker (`u64` cycle).
const REC_EMIT: u8 = 2;
/// Record kind: a learned violation proof (`u64` cycle + proof).
const REC_PROOF: u8 = 3;
/// Record kind: a spent state digest (`32B` digest + `u64` cycle).
const REC_SPENT: u8 = 4;

/// Bytes of record framing before the payload.
const RECORD_HEADER_BYTES: usize = 4 + 1 + 4;

/// Serialized-state format version (first payload byte of a checkpoint):
/// the checkpoint names the spent records it keeps.
const STATE_VERSION: u8 = 2;
/// The version before it, still folded: the checkpoint lists the ledger.
const STATE_VERSION_LISTED: u8 = 1;

/// Everything a node persists across a crash.
///
/// Field order mirrors recovery priority: the emission marker is the
/// frequency bugfix, owned descriptors are irreplaceable tokens, the rest
/// is monotone knowledge that keeps the restarted node honest and
/// informed.
#[derive(Clone, Debug, Default)]
pub struct PersistentState {
    /// Cycle at which this checkpoint was taken.
    pub cycle: u64,
    /// Cycle whose fresh-descriptor budget was already spent (emission or
    /// sponsorship). Re-minting within this cycle would be a provable
    /// frequency violation.
    pub emitted_cycle: Option<u64>,
    /// View entries: owned descriptor + non-swappable marker (§V-A).
    pub view: Vec<(SecureDescriptor, bool)>,
    /// Owned descriptors waiting for a view slot.
    pub reserve: Vec<SecureDescriptor>,
    /// Redemption cache entries as `(redeemed_cycle, descriptor)` (§V-C).
    pub redemptions: Vec<(u64, SecureDescriptor)>,
    /// Blacklist evidence as `(learned_cycle, proof)` (§IV-C).
    pub proofs: Vec<(u64, ViolationProof)>,
    /// State digests already signed away, with the signing cycle. As
    /// [`StateBackend::load`] returns it, the whole ledger, in the order
    /// its records were written: a state spent twice is two records. As
    /// saved, the records a checkpoint adds after the ones it names (a
    /// node's checkpoint adds none). Recovery
    /// (`SecureCyclonNode::with_backend`) keeps every record and sorts
    /// them by cycle, so neither the order nor a repeat matters there.
    /// Every record refuses its state until it expires: a state spent
    /// again under an older stamp (an exchange that resolved late) is
    /// refused for as long as either record is held.
    pub spent: Vec<(Digest, u64)>,
    /// Regular-redemption replay guard: redeemed own-descriptor identities
    /// with the acceptance cycle.
    pub redeemed_regular: Vec<(DescriptorId, u64)>,
    /// Own-descriptor identities ever redeemed non-swappably (§V-A).
    pub ns_redeemed: Vec<DescriptorId>,
    /// `(cycle, count)` of NS redemptions accepted in `cycle`.
    pub ns_accepted: (u64, u32),
}

impl PersistentState {
    /// Whether the state carries nothing worth restoring.
    pub fn is_trivial(&self) -> bool {
        self.emitted_cycle.is_none()
            && self.view.is_empty()
            && self.reserve.is_empty()
            && self.redemptions.is_empty()
            && self.proofs.is_empty()
            && self.spent.is_empty()
            && self.redeemed_regular.is_empty()
            && self.ns_redeemed.is_empty()
    }

    /// Merges an incremental emission record.
    fn merge_emission(&mut self, cycle: u64) {
        self.emitted_cycle = Some(self.emitted_cycle.map_or(cycle, |c| c.max(cycle)));
    }

    /// Merges an incremental proof record (dedup by culprit, like the
    /// in-memory blacklist).
    fn merge_proof(&mut self, proof: ViolationProof, learned_cycle: u64) {
        let culprit = proof.culprit();
        if self.proofs.iter().any(|(_, p)| p.culprit() == culprit) {
            return;
        }
        self.proofs.push((learned_cycle, proof));
    }
}

/// A durable home for the incriminating-if-lost parts of a node's state.
///
/// All `record_*` methods are called synchronously at the protocol point
/// where the information becomes dangerous to forget — *before* the
/// corresponding artifact leaves the node. A checkpoint is saved once per
/// cycle and may compact. `load` is called once at construction.
pub trait StateBackend: Send {
    /// Records that `cycle`'s fresh-descriptor budget is spent. Must be
    /// durable before the descriptor (or sponsorship grant) is sent.
    fn record_emission(&mut self, cycle: u64) -> io::Result<()>;

    /// Records a validated violation proof learned at `learned_cycle`.
    fn record_proof(&mut self, proof: &ViolationProof, learned_cycle: u64) -> io::Result<()>;

    /// Records a state digest this node signed a continuation for.
    fn record_spent(&mut self, digest: &Digest, cycle: u64) -> io::Result<()>;

    /// Appends a full checkpoint whose spent ledger is `state.spent`
    /// alone: every spent record written before it goes. May compact the
    /// log behind it.
    fn save_checkpoint(&mut self, state: &PersistentState) -> io::Result<()> {
        self.save_checkpoint_naming(state, None)
    }

    /// Appends a full checkpoint that names the spent ledger instead of
    /// listing it. The spent records written before it stay the ledger
    /// from the first one stamped `spent_from` or later; those in front of
    /// it go, as a node's ring forgets them, so a late record waiting
    /// behind a younger one stays as long as the ring holds it. `None`
    /// names none. `state.spent` joins the ledger after the named records.
    /// May compact the log behind it.
    fn save_checkpoint_naming(
        &mut self,
        state: &PersistentState,
        spent_from: Option<u64>,
    ) -> io::Result<()>;

    /// Folds the stored records into the state to restore, or `None` when
    /// nothing was ever recorded. `period_ticks` re-validates recovered
    /// proofs; `limits` bounds decoder allocations exactly as on the wire.
    fn load(
        &mut self,
        period_ticks: u64,
        limits: &WireLimits,
    ) -> io::Result<Option<PersistentState>>;
}

/// The spent records a backend holds, in the order they were written.
type Ledger = VecDeque<(Digest, u64)>;

/// The spent ledger as a checkpoint leaves it: the records in front of
/// the first one stamped `from` or later go, as a node's ring forgets
/// them (every record when it names none), then the checkpoint's own
/// list joins.
fn checkpoint_ledger(spent: &mut Ledger, from: Option<u64>, listed: &[(Digest, u64)]) {
    match from {
        Some(from) => {
            while spent.front().is_some_and(|&(_, stamp)| stamp < from) {
                spent.pop_front();
            }
        }
        None => spent.clear(),
    }
    spent.extend(listed);
}

/// In-RAM backend: state survives the node *object*, not the process.
///
/// This is what the simulator's crash-restart scenarios use — the engine
/// rebuilds a `SecureCyclonNode` around the backend extracted from its
/// predecessor, modelling a daemon restarting from disk without any I/O.
#[derive(Debug, Default)]
pub struct MemoryBackend {
    /// The last checkpoint, updated in place; its `spent` stays empty.
    checkpoint: Option<PersistentState>,
    /// The spent ledger: every record the last checkpoint kept or added,
    /// then every one written since.
    spent: Ledger,
    /// Emission and proof records since the last checkpoint.
    tail: Vec<TailRecord>,
}

/// One incremental emission or proof record between checkpoints — what
/// [`MemoryBackend`] keeps in its tail and what [`FileBackend`]'s log
/// decodes to. Spent records go to the ledger instead.
#[derive(Debug)]
enum TailRecord {
    Emit(u64),
    Proof(ViolationProof, u64),
}

impl TailRecord {
    fn merge_into(&self, state: &mut PersistentState) {
        match self {
            TailRecord::Emit(c) => state.merge_emission(*c),
            TailRecord::Proof(p, c) => state.merge_proof(p.clone(), *c),
        }
    }
}

impl MemoryBackend {
    /// Creates an empty backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StateBackend for MemoryBackend {
    fn record_emission(&mut self, cycle: u64) -> io::Result<()> {
        self.tail.push(TailRecord::Emit(cycle));
        Ok(())
    }

    fn record_proof(&mut self, proof: &ViolationProof, learned_cycle: u64) -> io::Result<()> {
        self.tail
            .push(TailRecord::Proof(proof.clone(), learned_cycle));
        Ok(())
    }

    fn record_spent(&mut self, digest: &Digest, cycle: u64) -> io::Result<()> {
        self.spent.push_back((*digest, cycle));
        Ok(())
    }

    fn save_checkpoint_naming(
        &mut self,
        state: &PersistentState,
        spent_from: Option<u64>,
    ) -> io::Result<()> {
        checkpoint_ledger(&mut self.spent, spent_from, &state.spent);
        // A checkpoint subsumes every record before it: compact eagerly,
        // into the buffers the previous checkpoint left.
        let kept = self.checkpoint.get_or_insert_with(PersistentState::default);
        let PersistentState {
            cycle,
            emitted_cycle,
            view,
            reserve,
            redemptions,
            proofs,
            spent: _,
            redeemed_regular,
            ns_redeemed,
            ns_accepted,
        } = state;
        kept.cycle = *cycle;
        kept.emitted_cycle = *emitted_cycle;
        kept.view.clone_from(view);
        kept.reserve.clone_from(reserve);
        kept.redemptions.clone_from(redemptions);
        kept.proofs.clone_from(proofs);
        kept.redeemed_regular.clone_from(redeemed_regular);
        kept.ns_redeemed.clone_from(ns_redeemed);
        kept.ns_accepted = *ns_accepted;
        self.tail.clear();
        Ok(())
    }

    fn load(
        &mut self,
        _period_ticks: u64,
        _limits: &WireLimits,
    ) -> io::Result<Option<PersistentState>> {
        if self.checkpoint.is_none() && self.tail.is_empty() && self.spent.is_empty() {
            return Ok(None);
        }
        let mut state = self.checkpoint.clone().unwrap_or_default();
        state.spent = self.spent.iter().copied().collect();
        for rec in &self.tail {
            rec.merge_into(&mut state);
        }
        Ok(Some(state))
    }
}

/// Append-only log-file backend with checksummed records and
/// truncated-tail recovery. See the module docs for the format.
#[derive(Debug)]
pub struct FileBackend {
    path: PathBuf,
    file: File,
    /// Bytes currently in the log (drives compaction).
    written: u64,
    /// Compact when the log exceeds this many bytes.
    compact_threshold: u64,
    /// The spent ledger the log folds to, kept so that compaction can
    /// write it into the one checkpoint it leaves.
    spent: Ledger,
    /// Whether `spent` holds every record of the log: not from opening a
    /// log that has records until [`StateBackend::load`] reads them.
    /// Compaction waits until it does.
    spent_read: bool,
    /// The frame being written, reused from record to record.
    frame: Vec<u8>,
}

/// Default compaction threshold: a checkpoint of a full ℓ=20 view with
/// long chains is a few tens of KiB, so this keeps a handful of
/// checkpoints of slack before each rewrite.
const DEFAULT_COMPACT_THRESHOLD: u64 = 256 * 1024;

impl FileBackend {
    /// Opens (creating if absent) the log at `path` for appending.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (missing parent directory is created).
    pub fn open(path: impl Into<PathBuf>) -> io::Result<FileBackend> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let written = file.metadata()?.len();
        Ok(FileBackend {
            path,
            file,
            written,
            compact_threshold: DEFAULT_COMPACT_THRESHOLD,
            spent: Ledger::new(),
            spent_read: written == 0,
            frame: Vec::new(),
        })
    }

    /// Overrides the compaction threshold (tests use tiny values).
    pub fn with_compact_threshold(mut self, bytes: u64) -> FileBackend {
        self.compact_threshold = bytes.max(1);
        self
    }

    /// The log path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes currently in the log.
    pub fn log_bytes(&self) -> u64 {
        self.written
    }

    /// Appends one record whose payload `encode` writes.
    fn append(&mut self, kind: u8, encode: impl FnOnce(&mut Writer<'_>)) -> io::Result<()> {
        build_frame(&mut self.frame, kind, encode);
        self.file.write_all(&self.frame)?;
        self.written += self.frame.len() as u64;
        Ok(())
    }

    /// Rewrites the log as a single checkpoint record (temp + rename)
    /// that names no earlier record and lists the whole spent ledger.
    fn compact(&mut self, state: &PersistentState) -> io::Result<()> {
        let spent = &self.spent;
        build_frame(&mut self.frame, REC_CHECKPOINT, |w| {
            encode_checkpoint(w, state, None, spent.iter());
        });
        let tmp = self.path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&self.frame)?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // Reopen the append handle on the new inode.
        self.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        self.written = self.frame.len() as u64;
        Ok(())
    }
}

impl StateBackend for FileBackend {
    fn record_emission(&mut self, cycle: u64) -> io::Result<()> {
        self.append(REC_EMIT, |w| w.u64(cycle))
    }

    fn record_proof(&mut self, proof: &ViolationProof, learned_cycle: u64) -> io::Result<()> {
        self.append(REC_PROOF, |w| {
            w.u64(learned_cycle);
            w.proof(proof);
        })
    }

    fn record_spent(&mut self, digest: &Digest, cycle: u64) -> io::Result<()> {
        self.append(REC_SPENT, |w| {
            w.bytes(digest);
            w.u64(cycle);
        })?;
        self.spent.push_back((*digest, cycle));
        Ok(())
    }

    fn save_checkpoint_naming(
        &mut self,
        state: &PersistentState,
        spent_from: Option<u64>,
    ) -> io::Result<()> {
        checkpoint_ledger(&mut self.spent, spent_from, &state.spent);
        if self.written >= self.compact_threshold && self.spent_read {
            return self.compact(state);
        }
        self.append(REC_CHECKPOINT, |w| {
            encode_checkpoint(w, state, spent_from, state.spent.iter());
        })
    }

    fn load(
        &mut self,
        period_ticks: u64,
        limits: &WireLimits,
    ) -> io::Result<Option<PersistentState>> {
        let bytes = match std::fs::read(&self.path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let (state, intact) = fold_log(&bytes, period_ticks, limits);
        if intact < bytes.len() {
            // Records appended behind a torn or corrupt one would never
            // be folded again: cut the log back to what it can trust.
            self.file.set_len(intact as u64)?;
            self.written = intact as u64;
        }
        self.spent = state.iter().flat_map(|s| s.spent.iter().copied()).collect();
        self.spent_read = true;
        Ok(state)
    }
}

/// Builds one log record in `frame`: `len (4) | kind (1) | checksum (4) |
/// payload`. The header is reserved, `encode` writes the payload after
/// it, and the length and checksum are patched in.
fn build_frame(frame: &mut Vec<u8>, kind: u8, encode: impl FnOnce(&mut Writer<'_>)) {
    frame.clear();
    frame.resize(RECORD_HEADER_BYTES, 0);
    encode(&mut Writer::new(frame));
    let (header, payload) = frame.split_at_mut(RECORD_HEADER_BYTES);
    header[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    header[4] = kind;
    header[5..].copy_from_slice(&record_checksum(kind, payload));
}

/// One log record around `payload`.
#[cfg(test)]
fn record_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    build_frame(&mut frame, kind, |w| w.bytes(payload));
    frame
}

fn record_checksum(kind: u8, payload: &[u8]) -> [u8; 4] {
    let digest = sha256_concat(&[&[kind], payload]);
    [digest[0], digest[1], digest[2], digest[3]]
}

/// Folds a raw log into the recovered state, and returns it with the
/// length of the prefix it was folded from. Scanning stops at the first
/// record that is torn (frame extends past the buffer), checksum-corrupt,
/// or undecodable — everything before that prefix is kept, nothing after
/// it is trusted. The state is `None` when not even one record survived.
fn fold_log(
    bytes: &[u8],
    period_ticks: u64,
    limits: &WireLimits,
) -> (Option<PersistentState>, usize) {
    let (mut state, mut spent) = (None, Ledger::new());
    let mut log = Reader::with_limits(bytes, limits);
    let mut intact = 0;
    while fold_record(&mut log, &mut state, &mut spent, period_ticks).is_ok() {
        intact = log.position();
    }
    if let Some(state) = state.as_mut() {
        state.spent = spent.into();
    }
    (state, intact)
}

/// Folds the next record of `log` into `state` and the spent ledger
/// beside it; any error ends the scan with both as the records before it
/// left them.
fn fold_record(
    log: &mut Reader<'_>,
    state: &mut Option<PersistentState>,
    spent: &mut Ledger,
    period_ticks: u64,
) -> Result<(), WireError> {
    let len = log.u32()? as usize;
    let kind = log.u8()?;
    let sum = log.take(4)?;
    let mut r = log.sub(len)?; // a torn tail ends here
    if record_checksum(kind, r.rest()) != sum {
        // Bit rot / mid-record corruption: the trusted log ends here.
        return Err(WireError::UnexpectedEnd);
    }
    if kind == REC_CHECKPOINT {
        let (mut checkpoint, spent_from) = decode_checkpoint(r, period_ticks)?;
        let listed = std::mem::take(&mut checkpoint.spent);
        checkpoint_ledger(spent, spent_from, &listed);
        *state = Some(checkpoint);
        return Ok(());
    }
    if kind == REC_SPENT {
        let digest = r.digest()?;
        let cycle = r.u64()?;
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes);
        }
        spent.push_back((digest, cycle));
        state.get_or_insert_with(PersistentState::default);
        return Ok(());
    }
    let record = match kind {
        REC_EMIT => TailRecord::Emit(r.u64()?),
        REC_PROOF => {
            let cycle = r.u64()?;
            TailRecord::Proof(r.proof(period_ticks)?, cycle)
        }
        // Unknown kind: future format or corruption.
        t => return Err(WireError::BadMessageTag(t)),
    };
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes);
    }
    record.merge_into(state.get_or_insert_with(PersistentState::default));
    Ok(())
}

// ---- PersistentState (de)serialization -------------------------------
//
// Built on the wire codec's descriptor/proof encoders so the disk format
// inherits the same allocation bounds and validation the network path
// has. Counts are `u16`/`u32` big-endian; every length is re-checked
// against the remaining input before any buffer is reserved.

/// A checkpoint of `state` that names no earlier spent record and lists
/// `state.spent`.
#[cfg(test)]
fn encode_state(state: &PersistentState) -> Vec<u8> {
    let mut out = Vec::with_capacity(512);
    encode_checkpoint(&mut Writer::new(&mut out), state, None, state.spent.iter());
    out
}

/// A checkpoint of `state` that names the spent records from stamp
/// `spent_from` on and adds the records of `listed` after them;
/// `state.spent` itself is not written.
fn encode_checkpoint<'a>(
    w: &mut Writer<'_>,
    state: &PersistentState,
    spent_from: Option<u64>,
    listed: impl ExactSizeIterator<Item = &'a (Digest, u64)>,
) {
    w.u8(STATE_VERSION);
    w.u64(state.cycle);
    match state.emitted_cycle {
        Some(c) => {
            w.u8(1);
            w.u64(c);
        }
        None => w.u8(0),
    }
    w.list(2, &state.view, |w, (desc, ns)| {
        w.u8(u8::from(*ns));
        w.descriptor(desc);
    });
    w.list(2, &state.reserve, Writer::descriptor);
    w.list(2, &state.redemptions, |w, (cycle, desc)| {
        w.u64(*cycle);
        w.descriptor(desc);
    });
    w.list(2, &state.proofs, |w, (cycle, proof)| {
        w.u64(*cycle);
        w.proof(proof);
    });
    match spent_from {
        Some(from) => {
            w.u8(1);
            w.u64(from);
        }
        None => w.u8(0),
    }
    // Cut to what the `u32` count can say, as `Writer::list` cuts.
    let count = listed.len().min(u32::MAX as usize);
    w.u32(count as u32);
    for (digest, cycle) in listed.take(count) {
        w.bytes(digest);
        w.u64(*cycle);
    }
    w.list(4, &state.redeemed_regular, |w, (id, cycle)| {
        w.bytes(id.creator.as_bytes());
        w.u64(id.created_at.0);
        w.u64(*cycle);
    });
    w.list(4, &state.ns_redeemed, |w, id| {
        w.bytes(id.creator.as_bytes());
        w.u64(id.created_at.0);
    });
    w.u64(state.ns_accepted.0);
    w.u32(state.ns_accepted.1);
}

/// Decodes the checkpoint `c` holds, under the limits `c` carries: the
/// spent records it names are not part of what it returns.
#[cfg(test)]
fn decode_state(c: Reader<'_>, period_ticks: u64) -> Result<PersistentState, WireError> {
    decode_checkpoint(c, period_ticks).map(|(state, _)| state)
}

/// Decodes the checkpoint `c` holds, under the limits `c` carries, with
/// the stamp it names the spent records from (`None`: none, as every
/// version-1 checkpoint).
fn decode_checkpoint(
    mut c: Reader<'_>,
    period_ticks: u64,
) -> Result<(PersistentState, Option<u64>), WireError> {
    let version = c.u8()?;
    if version != STATE_VERSION && version != STATE_VERSION_LISTED {
        return Err(WireError::BadMessageTag(version));
    }
    let mut state = PersistentState {
        cycle: c.u64()?,
        ..Default::default()
    };
    if c.u8()? != 0 {
        state.emitted_cycle = Some(c.u64()?);
    }

    let n = c.u16()? as usize;
    c.list_count(n, 1)?;
    for _ in 0..n {
        let ns = c.u8()? != 0;
        state.view.push((c.descriptor()?, ns));
    }

    let n = c.u16()? as usize;
    c.list_count(n, 1)?;
    for _ in 0..n {
        state.reserve.push(c.descriptor()?);
    }

    let n = c.u16()? as usize;
    c.list_count(n, 8)?;
    for _ in 0..n {
        let cycle = c.u64()?;
        state.redemptions.push((cycle, c.descriptor()?));
    }

    // The blacklist is unbounded by design, so a checkpoint lists as
    // many proofs as its `u16` count says, not one message's
    // `max_proofs`; the remaining bytes still bound what is read.
    let n = c.u16()? as usize;
    c.fits(n, 8)?;
    for _ in 0..n {
        let cycle = c.u64()?;
        state.proofs.push((cycle, c.proof(period_ticks)?));
    }

    let spent_from = if version == STATE_VERSION && c.u8()? != 0 {
        Some(c.u64()?)
    } else {
        None
    };
    let n = c.u32()? as usize;
    c.list_count(n, 40)?;
    for _ in 0..n {
        let digest = c.digest()?;
        state.spent.push((digest, c.u64()?));
    }

    let n = c.u32()? as usize;
    c.list_count(n, PUBLIC_KEY_LEN + 16)?;
    for _ in 0..n {
        let creator = c.key()?;
        let created_at = Timestamp(c.u64()?);
        let cycle = c.u64()?;
        state.redeemed_regular.push((
            DescriptorId {
                creator,
                created_at,
            },
            cycle,
        ));
    }

    let n = c.u32()? as usize;
    c.list_count(n, PUBLIC_KEY_LEN + 8)?;
    for _ in 0..n {
        let creator = c.key()?;
        let created_at = Timestamp(c.u64()?);
        state.ns_redeemed.push(DescriptorId {
            creator,
            created_at,
        });
    }

    state.ns_accepted = (c.u64()?, c.u32()?);
    if c.remaining() != 0 {
        return Err(WireError::TrailingBytes);
    }
    Ok((state, spent_from))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::SecureDescriptor;
    use sc_crypto::{Keypair, Scheme};

    const PERIOD: u64 = 1000;

    fn kp(tag: u8) -> Keypair {
        Keypair::from_seed(Scheme::Schnorr61, [tag; 32])
    }

    fn owned_desc(creator_tag: u8, ts: u64, owner: &Keypair) -> SecureDescriptor {
        let c = kp(creator_tag);
        SecureDescriptor::create(&c, creator_tag as u32, Timestamp(ts))
            .transfer(&c, owner.public())
            .unwrap()
    }

    fn freq_proof(tag: u8) -> ViolationProof {
        let culprit = kp(tag);
        let d1 = SecureDescriptor::create(&culprit, 9, Timestamp(100));
        let d2 = SecureDescriptor::create(&culprit, 9, Timestamp(101));
        ViolationProof::frequency(d1, d2, PERIOD).unwrap()
    }

    fn sample_state() -> PersistentState {
        let me = kp(0);
        let d1 = owned_desc(1, 500, &me);
        let d2 = owned_desc(2, 900, &me);
        let spent = d1.state_digest();
        PersistentState {
            cycle: 42,
            emitted_cycle: Some(42),
            view: vec![(d1.clone(), false), (d2, true)],
            reserve: vec![owned_desc(3, 1200, &me)],
            redemptions: vec![(41, owned_desc(4, 1500, &me))],
            proofs: vec![(40, freq_proof(7))],
            spent: vec![(spent, 41)],
            redeemed_regular: vec![(d1.id(), 39)],
            ns_redeemed: vec![d1.id()],
            ns_accepted: (42, 1),
        }
    }

    fn assert_states_equal(a: &PersistentState, b: &PersistentState) {
        assert_eq!(a.cycle, b.cycle);
        assert_eq!(a.emitted_cycle, b.emitted_cycle);
        assert_eq!(a.view.len(), b.view.len());
        for ((da, nsa), (db, nsb)) in a.view.iter().zip(&b.view) {
            assert_eq!(da.state_digest(), db.state_digest());
            assert_eq!(nsa, nsb);
        }
        assert_eq!(a.reserve.len(), b.reserve.len());
        for (da, db) in a.reserve.iter().zip(&b.reserve) {
            assert_eq!(da.state_digest(), db.state_digest());
        }
        assert_eq!(a.redemptions.len(), b.redemptions.len());
        for ((ca, da), (cb, db)) in a.redemptions.iter().zip(&b.redemptions) {
            assert_eq!(ca, cb);
            assert_eq!(da.state_digest(), db.state_digest());
        }
        assert_eq!(a.proofs.len(), b.proofs.len());
        for ((ca, pa), (cb, pb)) in a.proofs.iter().zip(&b.proofs) {
            assert_eq!(ca, cb);
            assert_eq!(pa.culprit(), pb.culprit());
        }
        assert_eq!(a.spent, b.spent);
        assert_eq!(a.redeemed_regular, b.redeemed_regular);
        assert_eq!(a.ns_redeemed, b.ns_redeemed);
        assert_eq!(a.ns_accepted, b.ns_accepted);
    }

    #[test]
    fn state_roundtrips_through_the_codec() {
        let state = sample_state();
        let bytes = encode_state(&state);
        let back = decode_state(Reader::new(&bytes), PERIOD).unwrap();
        assert_states_equal(&state, &back);
    }

    #[test]
    fn empty_state_roundtrips() {
        let state = PersistentState::default();
        assert!(state.is_trivial());
        let bytes = encode_state(&state);
        let back = decode_state(Reader::new(&bytes), PERIOD).unwrap();
        assert_states_equal(&state, &back);
    }

    #[test]
    fn memory_backend_folds_tail_into_checkpoint() {
        let mut be = MemoryBackend::new();
        assert!(be.load(PERIOD, &WireLimits::DEFAULT).unwrap().is_none());

        be.record_emission(5).unwrap();
        let got = be.load(PERIOD, &WireLimits::DEFAULT).unwrap().unwrap();
        assert_eq!(got.emitted_cycle, Some(5));

        let state = sample_state();
        be.save_checkpoint(&state).unwrap();
        be.record_emission(43).unwrap();
        be.record_spent(&[9u8; 32], 43).unwrap();
        be.record_proof(&freq_proof(8), 43).unwrap();
        // A proof against an already-known culprit is deduped on fold.
        be.record_proof(&freq_proof(8), 44).unwrap();

        let got = be.load(PERIOD, &WireLimits::DEFAULT).unwrap().unwrap();
        assert_eq!(got.emitted_cycle, Some(43));
        assert!(got.spent.iter().any(|(d, c)| *d == [9u8; 32] && *c == 43));
        assert_eq!(got.proofs.len(), state.proofs.len() + 1);
    }

    #[test]
    fn file_backend_roundtrips_checkpoint_and_tail() {
        let dir = std::env::temp_dir().join(format!("sc-storage-rt-{}", std::process::id()));
        let path = dir.join("node.log");
        let _ = std::fs::remove_file(&path);
        let state = sample_state();
        {
            let mut be = FileBackend::open(&path).unwrap();
            assert!(be.load(PERIOD, &WireLimits::DEFAULT).unwrap().is_none());
            be.save_checkpoint(&state).unwrap();
            be.record_emission(43).unwrap();
            be.record_spent(&[7u8; 32], 43).unwrap();
            be.record_proof(&freq_proof(8), 43).unwrap();
        }
        // Fresh handle: the moral equivalent of a restart.
        let mut be = FileBackend::open(&path).unwrap();
        let got = be.load(PERIOD, &WireLimits::DEFAULT).unwrap().unwrap();
        assert_eq!(got.cycle, state.cycle);
        assert_eq!(got.emitted_cycle, Some(43));
        assert!(got.spent.iter().any(|(d, _)| *d == [7u8; 32]));
        assert_eq!(got.proofs.len(), state.proofs.len() + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_dropped_not_resurrected() {
        let dir = std::env::temp_dir().join(format!("sc-storage-torn-{}", std::process::id()));
        let path = dir.join("node.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut be = FileBackend::open(&path).unwrap();
            be.save_checkpoint(&sample_state()).unwrap();
            be.record_emission(50).unwrap();
        }
        // Tear the final record mid-payload (kill -9 mid-append).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&path, &bytes).unwrap();

        let mut be = FileBackend::open(&path).unwrap();
        let got = be.load(PERIOD, &WireLimits::DEFAULT).unwrap().unwrap();
        assert_eq!(got.emitted_cycle, Some(42), "torn emit record ignored");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksum_corruption_stops_the_fold() {
        let dir = std::env::temp_dir().join(format!("sc-storage-sum-{}", std::process::id()));
        let path = dir.join("node.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut be = FileBackend::open(&path).unwrap();
            be.record_emission(5).unwrap();
            be.record_emission(6).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload bit of the *second* record.
        let second = bytes.len() - 1;
        bytes[second] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let mut be = FileBackend::open(&path).unwrap();
        let got = be.load(PERIOD, &WireLimits::DEFAULT).unwrap().unwrap();
        assert_eq!(
            got.emitted_cycle,
            Some(5),
            "corrupt record and tail dropped"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_rewrites_to_one_checkpoint() {
        let dir = std::env::temp_dir().join(format!("sc-storage-compact-{}", std::process::id()));
        let path = dir.join("node.log");
        let _ = std::fs::remove_file(&path);
        let state = sample_state();
        let mut be = FileBackend::open(&path).unwrap().with_compact_threshold(64);
        for _ in 0..8 {
            be.save_checkpoint(&state).unwrap();
        }
        let one_record = {
            let payload = encode_state(&state);
            (RECORD_HEADER_BYTES + payload.len()) as u64
        };
        assert_eq!(be.log_bytes(), one_record, "log compacted to one record");
        let got = be.load(PERIOD, &WireLimits::DEFAULT).unwrap().unwrap();
        assert_states_equal(&state, &got);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_nonzero_signature_padding_byte_ends_the_fold() {
        // Every signature in a checkpoint record or a proof record, with
        // a byte past its stored ones set: the record decodes to
        // `BadSignature`, and the fold keeps only what came before it.
        let state = sample_state();
        let proof = freq_proof(8);
        fn sigs_of(d: &SecureDescriptor) -> impl Iterator<Item = [u8; 64]> {
            let links = d.chain().into_iter().map(|l| l.sig);
            std::iter::once(d.genesis().sig)
                .chain(links)
                .map(|s| s.to_bytes())
        }
        fn evidence(p: &ViolationProof) -> [&SecureDescriptor; 2] {
            [p.evidence().0, p.evidence().1]
        }
        let state_descs = (state.view.iter().map(|(d, _)| d))
            .chain(&state.reserve)
            .chain(state.redemptions.iter().map(|(_, d)| d))
            .chain(state.proofs.iter().flat_map(|(_, p)| evidence(p)));
        let mut proof_record = Vec::new();
        let mut w = Writer::new(&mut proof_record);
        w.u64(43);
        w.proof(&proof);
        let records = [
            (REC_CHECKPOINT, encode_state(&state), state_descs.collect()),
            (REC_PROOF, proof_record, evidence(&proof).to_vec()),
        ];
        for (kind, payload, descs) in records {
            let sigs: Vec<[u8; 64]> = descs.into_iter().flat_map(sigs_of).collect();
            let offsets: Vec<usize> = (0..payload.len() - 63)
                .filter(|&at| sigs.iter().any(|s| s[..] == payload[at..at + 64]))
                .collect();
            assert_eq!(
                offsets.len(),
                sigs.len(),
                "kind {kind}: every signature found"
            );
            for at in offsets {
                let mut padded = payload.clone();
                padded[at + 40] = 1;
                let decoded = match kind {
                    REC_CHECKPOINT => decode_state(Reader::new(&padded), PERIOD).err(),
                    _ => Reader::new(&padded[8..]).proof(PERIOD).err(),
                };
                assert_eq!(
                    decoded,
                    Some(WireError::BadSignature),
                    "kind {kind}, at {at}"
                );
                let mut log = record_frame(REC_EMIT, &5u64.to_be_bytes());
                log.extend(record_frame(kind, &padded));
                let folded = fold_log(&log, PERIOD, &WireLimits::DEFAULT).0.unwrap();
                assert_eq!(folded.emitted_cycle, Some(5));
                assert!(folded.view.is_empty() && folded.proofs.is_empty());
            }
        }
    }

    #[test]
    fn recovered_proofs_are_revalidated() {
        // A proof record whose evidence does not validate must not fold.
        let dir = std::env::temp_dir().join(format!("sc-storage-proof-{}", std::process::id()));
        let path = dir.join("node.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut be = FileBackend::open(&path).unwrap();
            be.record_emission(1).unwrap();
            be.record_proof(&freq_proof(3), 2).unwrap();
        }
        // Load with a *smaller* period: the same evidence still validates
        // only if the two creations are within the period — dt here is 1
        // tick, so it survives any period > 1; with period 1 it must not.
        let mut be = FileBackend::open(&path).unwrap();
        let got = be.load(1, &WireLimits::DEFAULT).unwrap().unwrap();
        assert_eq!(got.emitted_cycle, Some(1), "prefix before bad proof kept");
        assert!(got.proofs.is_empty(), "invalid proof evidence dropped");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One fixed record of each kind, pinned to the bytes the writer of
    /// version-1 checkpoints framed: a frame built in place is the same
    /// bytes, and a log that writer left still verifies and folds, its
    /// checkpoint's list the whole ledger.
    #[test]
    fn frames_are_pinned_and_a_version_1_checkpoint_folds_as_its_list() {
        use sc_crypto::hex::{from_hex, to_hex};
        // cycle 42, emitted 41, spent [(0x11…, 40), (0x22…, 41)], NS (42, 1).
        const V1_CHECKPOINT: &str = concat!(
            "0000008201e298dc7801000000000000002a0100000000000000290000000000",
            "0000000000000211111111111111111111111111111111111111111111111111",
            "1111111111111100000000000000282222222222222222222222222222222222",
            "2222222222222222222222222222220000000000000029000000000000000000",
            "0000000000002a00000001",
        );
        const EMIT: &str = "000000080267957dd7000000000000002b";
        const SPENT: &str = concat!(
            "0000002804a14f98615a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a",
            "5a5a5a5a5a5a5a5a5a000000000000002b",
        );
        const PROOF: &str = concat!(
            "000000e50358c3f7c2000000000000002b01020339fe7f9d2b79f362ca64e1ed",
            "3083b71d85684192fb4538eeec56af40ad3200000009000000000000006402eb",
            "cf51026ff862da72d398554e324e951fa5bce1df3543ee98ca7088dc0e07ee00",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "020339fe7f9d2b79f362ca64e1ed3083b71d85684192fb4538eeec56af40ad32",
            "000000090000000000000065022df1356385a721845ccaf1d6a48fc2e449b66f",
            "0f1917ec5ae8e7de59484a785200000000000000000000000000000000000000",
            "0000000000000000000000000000",
        );
        let culprit = Keypair::from_seed(Scheme::KeyedHash, [7; 32]);
        let proof = ViolationProof::frequency(
            SecureDescriptor::create(&culprit, 9, Timestamp(100)),
            SecureDescriptor::create(&culprit, 9, Timestamp(101)),
            PERIOD,
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("sc-storage-pin-{}", std::process::id()));
        let path = dir.join("node.log");
        let _ = std::fs::remove_file(&path);
        let mut be = FileBackend::open(&path).unwrap();
        be.record_emission(43).unwrap();
        be.record_spent(&[0x5a; 32], 43).unwrap();
        be.record_proof(&proof, 43).unwrap();
        let written = std::fs::read(&path).unwrap();
        assert_eq!(to_hex(&written), [EMIT, SPENT, PROOF].concat());

        let v1 = from_hex(V1_CHECKPOINT).unwrap();
        assert_eq!(record_frame(REC_CHECKPOINT, &v1[RECORD_HEADER_BYTES..]), v1);
        let mut log = v1;
        log.extend(written);
        let got = fold_log(&log, PERIOD, &WireLimits::DEFAULT).0.unwrap();
        assert_eq!((got.cycle, got.emitted_cycle), (42, Some(43)));
        assert_eq!(got.ns_accepted, (42, 1));
        assert_eq!(
            got.spent,
            [([0x11; 32], 40), ([0x22; 32], 41), ([0x5a; 32], 43)]
        );
        assert_eq!(got.proofs.len(), 1);
        // A version-2 checkpoint after it names the records from 41 on.
        std::fs::write(&path, &log).unwrap();
        let mut be = FileBackend::open(&path).unwrap();
        be.save_checkpoint_naming(&PersistentState::default(), Some(41))
            .unwrap();
        let got = be.load(PERIOD, &WireLimits::DEFAULT).unwrap().unwrap();
        assert_eq!(got.spent, [([0x22; 32], 41), ([0x5a; 32], 43)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A checkpoint that names a stamp keeps the records from the first
    /// one stamped that or later — a late record waiting behind a younger
    /// one included — and lets those in front of it go; one that names
    /// none keeps none. Both backends, the file one across a reopen.
    #[test]
    fn a_named_checkpoint_keeps_the_records_from_its_stamp_on() {
        let dir = std::env::temp_dir().join(format!("sc-storage-named-{}", std::process::id()));
        let path = dir.join("node.log");
        let _ = std::fs::remove_file(&path);
        let (a, b, late, c) = ([1u8; 32], [2u8; 32], [3u8; 32], [4u8; 32]);
        let backends: [Box<dyn StateBackend>; 2] = [
            Box::new(MemoryBackend::new()),
            Box::new(FileBackend::open(&path).unwrap()),
        ];
        for mut be in backends {
            for (digest, stamp) in [(a, 9), (b, 10), (late, 9), (c, 11)] {
                be.record_spent(&digest, stamp).unwrap();
            }
            let state = PersistentState {
                cycle: 11,
                ..Default::default()
            };
            be.save_checkpoint_naming(&state, Some(10)).unwrap();
            let got = be.load(PERIOD, &WireLimits::DEFAULT).unwrap().unwrap();
            assert_eq!(got.spent, [(b, 10), (late, 9), (c, 11)]);
            be.save_checkpoint_naming(&state, Some(11)).unwrap();
            let got = be.load(PERIOD, &WireLimits::DEFAULT).unwrap().unwrap();
            assert_eq!(got.spent, [(c, 11)]);
            be.save_checkpoint(&state).unwrap();
            let got = be.load(PERIOD, &WireLimits::DEFAULT).unwrap().unwrap();
            assert!(got.spent.is_empty());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A log reopened by a new handle keeps its spent records through the
    /// handle's first compaction: before `load` has read them the handle
    /// does not compact, after it the one checkpoint lists them.
    #[test]
    fn a_reopened_log_keeps_its_spent_records_through_compaction() {
        let dir = std::env::temp_dir().join(format!("sc-storage-reopen-{}", std::process::id()));
        let path = dir.join("node.log");
        let _ = std::fs::remove_file(&path);
        let state = PersistentState {
            spent: Vec::new(),
            ..sample_state()
        };
        let ledger = [([7u8; 32], 40), ([8u8; 32], 43)];
        {
            let mut be = FileBackend::open(&path).unwrap();
            be.record_spent(&ledger[0].0, 40).unwrap();
            be.save_checkpoint_naming(&state, Some(40)).unwrap();
        }
        let mut be = FileBackend::open(&path).unwrap().with_compact_threshold(1);
        be.record_spent(&ledger[1].0, 43).unwrap();
        let before = be.log_bytes();
        be.save_checkpoint_naming(&state, Some(40)).unwrap();
        assert!(be.log_bytes() > before, "appended, not compacted");
        let got = be.load(PERIOD, &WireLimits::DEFAULT).unwrap().unwrap();
        assert_eq!(got.spent, ledger);
        let before = be.log_bytes();
        be.save_checkpoint_naming(&state, Some(40)).unwrap();
        assert!(be.log_bytes() < before, "compacted once the log was read");
        let got = FileBackend::open(&path)
            .unwrap()
            .load(PERIOD, &WireLimits::DEFAULT)
            .unwrap()
            .unwrap();
        assert_eq!(got.spent, ledger);
        std::fs::remove_dir_all(&dir).ok();
    }
}
