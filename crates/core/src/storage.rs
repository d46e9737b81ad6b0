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
//! the spent-state digests (re-signing an already-continued state is
//! self-made *cloning* evidence), the regular/NS redemption replay
//! guards, and the per-cycle emission marker (the frequency bugfix).
//! Purely ephemeral machinery — open sessions, the sample cache,
//! pending floods — is deliberately rebuilt from gossip.
//!
//! # Log format
//!
//! Each record is framed as
//! `[u32 payload_len][u8 kind][u32 checksum][payload]` (big-endian),
//! where the checksum is the first four bytes of
//! `SHA-256(kind || payload)`. Small incremental records (`emit`,
//! `proof`, `spent`) are appended synchronously at the protocol points
//! where losing them would be incriminating; a full checkpoint record is
//! appended once per cycle. Recovery replays the log in order — a
//! checkpoint *replaces* the folded state, incremental records *merge*
//! into it — and stops at the first torn or corrupt record, so a partial
//! final record (the normal shape of a `kill -9` mid-append) is never
//! resurrected. When the log outgrows a threshold it is compacted to a
//! single checkpoint record via write-to-temp + rename.
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
use sc_crypto::{sha256, Digest, PUBLIC_KEY_LEN};
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

/// Serialized-state format version (first payload byte of a checkpoint).
const STATE_VERSION: u8 = 1;

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
    /// State digests already signed away, with the signing cycle. A
    /// checkpoint lists the node's ledger as it stands: in signing order,
    /// and a state spent twice within the window twice. Recovery
    /// (`SecureCyclonNode::with_backend`) keeps every record and sorts
    /// them by cycle, so neither the order nor a repeat matters here.
    /// Every record refuses its state until it expires: a state spent
    /// again under an older stamp (an exchange that resolved late) is
    /// refused for as long as either record is held, where the map this
    /// list used to be written from had forgotten the younger stamp.
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

    /// Merges an incremental spent-digest record.
    fn merge_spent(&mut self, digest: Digest, cycle: u64) {
        if self.spent.iter().any(|(d, _)| *d == digest) {
            return;
        }
        self.spent.push((digest, cycle));
    }
}

/// A durable home for the incriminating-if-lost parts of a node's state.
///
/// All `record_*` methods are called synchronously at the protocol point
/// where the information becomes dangerous to forget — *before* the
/// corresponding artifact leaves the node. `save_checkpoint` runs once
/// per cycle and may compact. `load` is called once at construction.
pub trait StateBackend: Send {
    /// Records that `cycle`'s fresh-descriptor budget is spent. Must be
    /// durable before the descriptor (or sponsorship grant) is sent.
    fn record_emission(&mut self, cycle: u64) -> io::Result<()>;

    /// Records a validated violation proof learned at `learned_cycle`.
    fn record_proof(&mut self, proof: &ViolationProof, learned_cycle: u64) -> io::Result<()>;

    /// Records a state digest this node signed a continuation for.
    fn record_spent(&mut self, digest: &Digest, cycle: u64) -> io::Result<()>;

    /// Appends a full checkpoint (and may compact the log behind it).
    fn save_checkpoint(&mut self, state: &PersistentState) -> io::Result<()>;

    /// Folds the stored records into the state to restore, or `None` when
    /// nothing was ever recorded. `period_ticks` re-validates recovered
    /// proofs; `limits` bounds decoder allocations exactly as on the wire.
    fn load(
        &mut self,
        period_ticks: u64,
        limits: &WireLimits,
    ) -> io::Result<Option<PersistentState>>;
}

/// In-RAM backend: state survives the node *object*, not the process.
///
/// This is what the simulator's crash-restart scenarios use — the engine
/// rebuilds a `SecureCyclonNode` around the backend extracted from its
/// predecessor, modelling a daemon restarting from disk without any I/O.
#[derive(Debug, Default)]
pub struct MemoryBackend {
    checkpoint: Option<PersistentState>,
    tail: Vec<TailRecord>,
}

/// One incremental record between checkpoints — what [`MemoryBackend`]
/// keeps in its tail and what [`FileBackend`]'s log decodes to.
#[derive(Debug)]
enum TailRecord {
    Emit(u64),
    Proof(ViolationProof, u64),
    Spent(Digest, u64),
}

impl TailRecord {
    fn merge_into(&self, state: &mut PersistentState) {
        match self {
            TailRecord::Emit(c) => state.merge_emission(*c),
            TailRecord::Proof(p, c) => state.merge_proof(p.clone(), *c),
            TailRecord::Spent(d, c) => state.merge_spent(*d, *c),
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
        self.tail.push(TailRecord::Spent(*digest, cycle));
        Ok(())
    }

    fn save_checkpoint(&mut self, state: &PersistentState) -> io::Result<()> {
        // A checkpoint subsumes every record before it: compact eagerly.
        self.checkpoint = Some(state.clone());
        self.tail.clear();
        Ok(())
    }

    fn load(
        &mut self,
        _period_ticks: u64,
        _limits: &WireLimits,
    ) -> io::Result<Option<PersistentState>> {
        if self.checkpoint.is_none() && self.tail.is_empty() {
            return Ok(None);
        }
        let mut state = self.checkpoint.clone().unwrap_or_default();
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
    file: Option<File>,
    /// Bytes currently in the log (drives compaction).
    written: u64,
    /// Compact when the log exceeds this many bytes.
    compact_threshold: u64,
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
            file: Some(file),
            written,
            compact_threshold: DEFAULT_COMPACT_THRESHOLD,
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

    fn append(&mut self, kind: u8, payload: &[u8]) -> io::Result<()> {
        let frame = record_frame(kind, payload);
        let file = match self.file.as_mut() {
            Some(f) => f,
            None => {
                self.file = Some(
                    OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(&self.path)?,
                );
                self.file.as_mut().expect("just opened")
            }
        };
        file.write_all(&frame)?;
        self.written += frame.len() as u64;
        Ok(())
    }

    /// Rewrites the log as a single checkpoint record (temp + rename).
    fn compact(&mut self, state: &PersistentState) -> io::Result<()> {
        let frame = record_frame(REC_CHECKPOINT, &encode_state(state));
        let tmp = self.path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&frame)?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // Reopen the append handle on the new inode.
        self.file = Some(
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)?,
        );
        self.written = frame.len() as u64;
        Ok(())
    }
}

impl StateBackend for FileBackend {
    fn record_emission(&mut self, cycle: u64) -> io::Result<()> {
        self.append(REC_EMIT, &cycle.to_be_bytes())
    }

    fn record_proof(&mut self, proof: &ViolationProof, learned_cycle: u64) -> io::Result<()> {
        let mut payload = Vec::new();
        let mut w = Writer::new(&mut payload);
        w.u64(learned_cycle);
        w.proof(proof);
        self.append(REC_PROOF, &payload)
    }

    fn record_spent(&mut self, digest: &Digest, cycle: u64) -> io::Result<()> {
        let mut payload = Vec::with_capacity(40);
        let mut w = Writer::new(&mut payload);
        w.bytes(digest);
        w.u64(cycle);
        self.append(REC_SPENT, &payload)
    }

    fn save_checkpoint(&mut self, state: &PersistentState) -> io::Result<()> {
        if self.written >= self.compact_threshold {
            return self.compact(state);
        }
        self.append(REC_CHECKPOINT, &encode_state(state))
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
        Ok(fold_log(&bytes, period_ticks, limits))
    }
}

/// One log record: `len (4) | kind (1) | checksum (4) | payload`.
fn record_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(RECORD_HEADER_BYTES + payload.len());
    let mut w = Writer::new(&mut frame);
    w.u32(payload.len() as u32);
    w.u8(kind);
    w.bytes(&record_checksum(kind, payload));
    w.bytes(payload);
    frame
}

fn record_checksum(kind: u8, payload: &[u8]) -> [u8; 4] {
    let digest = sha256(&{
        let mut msg = Vec::with_capacity(1 + payload.len());
        msg.push(kind);
        msg.extend_from_slice(payload);
        msg
    });
    [digest[0], digest[1], digest[2], digest[3]]
}

/// Folds a raw log into the recovered state. Scanning stops at the first
/// record that is torn (frame extends past the buffer), checksum-corrupt,
/// or undecodable — everything before that prefix is kept, nothing after
/// it is trusted. Returns `None` when not even one record survived.
fn fold_log(bytes: &[u8], period_ticks: u64, limits: &WireLimits) -> Option<PersistentState> {
    let mut state: Option<PersistentState> = None;
    let mut log = Reader::with_limits(bytes, limits);
    while fold_record(&mut log, &mut state, period_ticks).is_ok() {}
    state
}

/// Folds the next record of `log` into `state`; any error ends the scan
/// with `state` as the records before it left it.
fn fold_record(
    log: &mut Reader<'_>,
    state: &mut Option<PersistentState>,
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
        *state = Some(decode_state(r, period_ticks)?);
        return Ok(());
    }
    let record = match kind {
        REC_EMIT => TailRecord::Emit(r.u64()?),
        REC_PROOF => {
            let cycle = r.u64()?;
            TailRecord::Proof(r.proof(period_ticks)?, cycle)
        }
        REC_SPENT => {
            let digest = r.digest()?;
            TailRecord::Spent(digest, r.u64()?)
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

fn encode_state(state: &PersistentState) -> Vec<u8> {
    let mut out = Vec::with_capacity(512);
    let mut w = Writer::new(&mut out);
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
    w.list(4, &state.spent, |w, (digest, cycle)| {
        w.bytes(digest);
        w.u64(*cycle);
    });
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
    out
}

/// Decodes the checkpoint `c` holds, under the limits `c` carries.
fn decode_state(mut c: Reader<'_>, period_ticks: u64) -> Result<PersistentState, WireError> {
    let version = c.u8()?;
    if version != STATE_VERSION {
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
    Ok(state)
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
                let folded = fold_log(&log, PERIOD, &WireLimits::DEFAULT).unwrap();
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
}
