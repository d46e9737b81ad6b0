//! Durable-log corruption property tests: recovery from a damaged
//! `FileBackend` log must never panic and never resurrect a partial
//! record — for a torn final record, a bit-flip anywhere in the file,
//! and truncation at *every* byte offset, the fold recovers exactly the
//! longest intact prefix of records and nothing more.
//!
//! These mirror `wire_props.rs` for the disk format: the log inherits
//! the wire codec's allocation bounds, so a corrupt length prefix can
//! at most cost `min(file len, max_frame_bytes)` of memory.

use proptest::prelude::*;
use sc_core::wire::WireLimits;
use sc_core::MemoryBackend;
use sc_core::{
    FileBackend, Input, PersistentState, SecureConfig, SecureCyclonNode, SecureDescriptor,
    StateBackend, Timestamp, ViolationProof,
};
use sc_crypto::{sha256, Keypair, Scheme};
use std::collections::VecDeque;
use std::fs;
use std::path::{Path, PathBuf};

const PERIOD: u64 = 1000;

fn kp(tag: u8) -> Keypair {
    Keypair::from_seed(Scheme::KeyedHash, [tag.wrapping_add(1); 32])
}

/// A descriptor created by `kp(tag)` and owned by `kp(200)`.
fn owned(tag: u8, ts: u64) -> SecureDescriptor {
    let creator = kp(tag);
    let me = kp(200);
    SecureDescriptor::create(&creator, tag as u32, Timestamp(ts))
        .transfer(&creator, me.public())
        .expect("legal transfer")
}

fn frequency_proof(tag: u8, ts: u64) -> ViolationProof {
    let c = kp(tag);
    let d1 = SecureDescriptor::create(&c, 1, Timestamp(ts));
    let d2 = SecureDescriptor::create(&c, 1, Timestamp(ts + PERIOD / 2));
    ViolationProof::frequency(d1, d2, PERIOD).expect("genuine violation")
}

/// Builds a representative log — checkpoint plus a mixed tail — and
/// returns its raw bytes together with every record boundary offset
/// (including 0 and the full length).
fn reference_log(dir: &Path) -> (Vec<u8>, Vec<usize>) {
    let path = dir.join("reference.log");
    let _ = fs::remove_file(&path);
    let mut backend = FileBackend::open(&path).expect("open");
    let mut bounds = vec![0usize];
    let mut state = PersistentState {
        cycle: 7,
        emitted_cycle: Some(7),
        ..Default::default()
    };
    state.view.push((owned(1, 100), false));
    state.view.push((owned(2, 200), true));
    state.reserve.push(owned(3, 300));
    state.redemptions.push((5, owned(4, 400)));
    state.spent.push(([9u8; 32], 6));
    backend.save_checkpoint(&state).expect("checkpoint");
    bounds.push(backend.log_bytes() as usize);
    backend.record_emission(8).expect("emit");
    bounds.push(backend.log_bytes() as usize);
    backend
        .record_spent(&sha256(b"spent-state"), 8)
        .expect("spent");
    bounds.push(backend.log_bytes() as usize);
    backend
        .record_proof(&frequency_proof(100, 0), 8)
        .expect("proof");
    bounds.push(backend.log_bytes() as usize);
    backend.record_emission(9).expect("emit");
    bounds.push(backend.log_bytes() as usize);
    let bytes = fs::read(&path).expect("read back");
    assert_eq!(*bounds.last().unwrap(), bytes.len());
    (bytes, bounds)
}

/// Writes `bytes` as a log file and runs recovery over it.
fn recover(path: &Path, bytes: &[u8]) -> Option<PersistentState> {
    fs::write(path, bytes).expect("write corrupted log");
    let mut backend = FileBackend::open(path).expect("open");
    backend
        .load(PERIOD, &WireLimits::DEFAULT)
        .expect("load is Ok even on corrupt content")
}

/// Comparable digest of a recovery result (`PersistentState` itself has
/// no `PartialEq`; identity is checked through counts and spent set).
type Summary = Option<(
    u64,
    Option<u64>,
    usize,
    usize,
    usize,
    usize,
    Vec<([u8; 32], u64)>,
)>;

fn summarize(state: &Option<PersistentState>) -> Summary {
    state.as_ref().map(|s| {
        (
            s.cycle,
            s.emitted_cycle,
            s.view.len(),
            s.reserve.len(),
            s.redemptions.len(),
            s.proofs.len(),
            s.spent.clone(),
        )
    })
}

fn scratch_dir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sc-storage-props-{}-{}", test, std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Truncation at *every* byte offset — exhaustive, not sampled: the
/// recovered state is exactly the fold of the longest record-aligned
/// prefix. A torn final record is dropped, never half-applied.
#[test]
fn truncation_at_every_offset_recovers_the_longest_intact_prefix() {
    let dir = scratch_dir("trunc");
    let (bytes, bounds) = reference_log(&dir);
    let case = dir.join("case.log");
    // Expected result for each aligned prefix, computed once.
    let expected: Vec<Summary> = bounds
        .iter()
        .map(|&b| summarize(&recover(&case, &bytes[..b])))
        .collect();
    for cut in 0..=bytes.len() {
        let aligned = bounds.iter().rposition(|&b| b <= cut).unwrap();
        let got = summarize(&recover(&case, &bytes[..cut]));
        assert_eq!(
            got, expected[aligned],
            "truncation at byte {cut} must recover the prefix ending at record boundary {}",
            bounds[aligned]
        );
    }
    // Sanity: the full log actually recovers the tail records.
    let full = expected
        .last()
        .unwrap()
        .as_ref()
        .expect("full log recovers");
    assert_eq!(full.1, Some(9), "both emission records folded in");
    assert_eq!(full.5, 1, "proof record folded in");
    let _ = fs::remove_dir_all(&dir);
}

/// A checkpoint lists the spent-state ledger as the node holds it: in
/// signing order, a state spent twice listed twice. Recovery keeps both
/// records and puts them in cycle order, whatever order they come in —
/// the ledger expires from its front.
#[test]
fn a_state_spent_twice_is_restored_twice_and_in_cycle_order() {
    let dir = scratch_dir("respent");
    let path = dir.join("node.log");
    let _ = fs::remove_file(&path);
    let held = owned(1, 100);
    let (twice, once) = (held.state_digest(), sha256(b"another state"));
    let mut state = PersistentState {
        cycle: 9,
        emitted_cycle: Some(9),
        spent: vec![(once, 9), (twice, 2), (twice, 5)],
        ..Default::default()
    };
    state.view.push((held, false));
    let mut backend = FileBackend::open(&path).expect("open");
    backend.save_checkpoint(&state).expect("checkpoint");
    drop(backend);

    let cfg = SecureConfig::default();
    let backend = Box::new(FileBackend::open(&path).expect("reopen"));
    let mut node =
        SecureCyclonNode::with_backend(kp(200), 0, cfg, [1u8; 32], 0, backend).expect("recover");
    assert_eq!(node.footprint().spent_records, 3, "both records of `twice`");
    assert_eq!(node.view().len(), 0, "a spent state does not come back");
    // Horizons 3, 6 and 10 take the records of cycles 2, 5 and 9 — one
    // each, which they only do from a ledger in cycle order.
    let window = sc_core::node::SAMPLE_RETENTION_CYCLES;
    for (cycle, left) in [(window + 3, 2), (window + 6, 1), (window + 10, 0)] {
        node.step(Input::Tick { cycle });
        assert_eq!(node.footprint().spent_records, left, "cycle {cycle}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A `kill -9` mid-append leaves a torn record at the end of the log,
/// and the reborn process appends behind it. The first load must cut the
/// log back to its intact prefix: otherwise the fold stops at the torn
/// bytes on every later load, and a second restart forgets every record
/// written since the first — its emission markers included, so it would
/// mint again in a cycle it already emitted in.
#[test]
fn records_appended_after_a_torn_tail_are_recovered() {
    let dir = scratch_dir("torn-append");
    let path = dir.join("node.log");
    let _ = fs::remove_file(&path);
    let load = |path: &Path| {
        let mut backend = FileBackend::open(path).expect("reopen");
        let state = backend.load(PERIOD, &WireLimits::DEFAULT).expect("load");
        (backend, state.expect("the log folds"))
    };
    let mut backend = FileBackend::open(&path).expect("open");
    backend.record_emission(3).expect("emit");
    let state = PersistentState {
        cycle: 3,
        emitted_cycle: Some(3),
        ..Default::default()
    };
    backend.save_checkpoint(&state).expect("checkpoint");
    backend.record_emission(4).expect("emit");
    drop(backend);
    let intact = fs::read(&path).expect("read back");

    // Tear: five bytes of a record that never finished.
    let mut torn = intact.clone();
    torn.extend_from_slice(&[0, 0, 0, 9, 1]);
    fs::write(&path, &torn).expect("tear");
    let (mut backend, state) = load(&path);
    assert_eq!(state.emitted_cycle, Some(4), "the torn bytes are ignored");
    assert_eq!(backend.log_bytes(), intact.len() as u64);
    assert_eq!(fs::read(&path).expect("read back"), intact, "cut back");

    // Append behind where the tear was, restart again.
    backend.record_emission(7).expect("emit");
    backend
        .record_spent(&sha256(b"spent after the tear"), 7)
        .expect("spent");
    drop(backend);
    let (_, state) = load(&path);
    assert_eq!(
        state.emitted_cycle,
        Some(7),
        "the later marker is recovered"
    );
    assert_eq!(state.spent, vec![(sha256(b"spent after the tear"), 7)]);
    let _ = fs::remove_dir_all(&dir);
}

/// The blacklist is unbounded by design, and a checkpoint lists every
/// proof it holds: one with more proofs than a message may carry
/// (`max_proofs`) recovers all of them, into the log and into the node.
#[test]
fn a_checkpoint_with_more_proofs_than_a_message_carries_recovers_them_all() {
    let dir = scratch_dir("proofs");
    let path = dir.join("node.log");
    let _ = fs::remove_file(&path);
    let n = WireLimits::DEFAULT.max_proofs + 1;
    let proofs = (0..n as u16).map(|i| {
        let mut seed = [0xc0; 32];
        seed[..2].copy_from_slice(&i.to_be_bytes());
        let culprit = Keypair::from_seed(Scheme::KeyedHash, seed);
        let d1 = SecureDescriptor::create(&culprit, 1, Timestamp(0));
        let d2 = SecureDescriptor::create(&culprit, 1, Timestamp(PERIOD / 2));
        (
            1,
            ViolationProof::frequency(d1, d2, PERIOD).expect("genuine violation"),
        )
    });
    let state = PersistentState {
        cycle: 3,
        emitted_cycle: Some(3),
        proofs: proofs.collect(),
        ..Default::default()
    };
    let mut backend = FileBackend::open(&path).expect("open");
    backend.save_checkpoint(&state).expect("checkpoint");
    drop(backend);

    let recovered = FileBackend::open(&path)
        .expect("reopen")
        .load(PERIOD, &WireLimits::DEFAULT)
        .expect("load")
        .expect("the checkpoint folds");
    let culprits: std::collections::HashSet<_> =
        recovered.proofs.iter().map(|(_, p)| p.culprit()).collect();
    assert_eq!((recovered.proofs.len(), culprits.len()), (n, n));

    let backend = Box::new(FileBackend::open(&path).expect("reopen"));
    let cfg = SecureConfig::default();
    let node =
        SecureCyclonNode::with_backend(kp(200), 0, cfg, [1u8; 32], 0, backend).expect("recover");
    assert_eq!(node.blacklist().len(), n);
    assert_eq!(node.last_emission(), Some(3));
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A single flipped byte anywhere in the log: recovery never panics
    /// and the result is the fold of SOME record-aligned prefix of the
    /// original — corruption can only shorten history, never invent it.
    #[test]
    fn bit_flips_never_panic_and_never_extend_recovery(
        pos_seed in proptest::any::<u64>(),
        flip in 1u8..=255,
    ) {
        let dir = scratch_dir("flip");
        let (bytes, bounds) = reference_log(&dir);
        let case = dir.join("case.log");
        let prefixes: Vec<Summary> = bounds
            .iter()
            .map(|&b| summarize(&recover(&case, &bytes[..b])))
            .collect();
        let mut corrupt = bytes.clone();
        let pos = (pos_seed % corrupt.len() as u64) as usize;
        corrupt[pos] ^= flip;
        let got = summarize(&recover(&case, &corrupt));
        prop_assert!(
            prefixes.contains(&got),
            "flip at byte {pos} produced a state that matches no intact prefix"
        );
    }

    /// Garbage appended after the intact log (a crash mid-append wrote
    /// junk) leaves the recovered state identical to the clean log's.
    #[test]
    fn appended_garbage_never_changes_the_recovered_state(
        junk in proptest::collection::vec(proptest::any::<u8>(), 1..64),
    ) {
        let dir = scratch_dir("junk");
        let (bytes, _) = reference_log(&dir);
        let case = dir.join("case.log");
        let clean = summarize(&recover(&case, &bytes));
        let mut extended = bytes.clone();
        extended.extend_from_slice(&junk);
        let got = summarize(&recover(&case, &extended));
        prop_assert_eq!(got, clean);
    }

    /// A log of pure random bytes: recovery never panics and almost
    /// always finds nothing (a 4-byte checksum guards every record).
    #[test]
    fn random_bytes_never_panic(
        bytes in proptest::collection::vec(proptest::any::<u8>(), 0..512),
    ) {
        let dir = scratch_dir("random");
        let case = dir.join("case.log");
        let _ = recover(&case, &bytes);
    }
}

/// Window of the differential test's model ring: the stamps a node-style
/// checkpoint names are its front after expiring records this old.
const MODEL_WINDOW: u64 = 4;

/// Runs one differential case: each `(op, arg)` is applied to a
/// `MemoryBackend` and a `FileBackend`, whose loads must agree.
fn backends_agree(ops: Vec<(u8, u8)>) -> Result<(), TestCaseError> {
    let dir = scratch_dir("diff");
    let path = dir.join("node.log");
    let _ = fs::remove_file(&path);
    let open = || {
        FileBackend::open(&path)
            .expect("open")
            .with_compact_threshold(300)
    };
    let load =
        |b: &mut dyn StateBackend| summarize(&b.load(PERIOD, &WireLimits::DEFAULT).expect("load"));
    let mut file = open();
    let mut mem = MemoryBackend::new();
    let held = [owned(1, 100), owned(2, 200), owned(3, 300)];
    let mut model: VecDeque<u64> = VecDeque::new();
    let (mut cycle, mut spent) = (1u64, Vec::new());
    for (op, arg) in ops {
        let both: [&mut dyn StateBackend; 2] = [&mut mem, &mut file];
        match op {
            0 | 1 => cycle += u64::from(arg % 3),
            2 => both
                .into_iter()
                .for_each(|b| b.record_emission(cycle).expect("emit")),
            3..=6 => {
                // A fresh state, or one of the last few spent again; one
                // in five stamped a cycle or two back.
                let digest = match spent.len() {
                    n if n > 0 && op == 6 => spent[n - 1 - usize::from(arg) % n.min(4)],
                    n => sha256(&(n as u64).to_be_bytes()),
                };
                spent.push(digest);
                let late = if arg % 5 == 0 { u64::from(arg % 3) } else { 0 };
                let stamp = cycle.saturating_sub(late);
                model.push_back(stamp);
                both.into_iter()
                    .for_each(|b| b.record_spent(&digest, stamp).expect("spent"));
            }
            7 => {
                let proof = frequency_proof(100 + arg % 3, 0);
                both.into_iter()
                    .for_each(|b| b.record_proof(&proof, cycle).expect("proof"));
            }
            8..=10 => {
                let view = held[..usize::from(arg) % 4].iter();
                let mut state = PersistentState {
                    cycle,
                    emitted_cycle: Some(cycle),
                    view: view.map(|d| (d.clone(), false)).collect(),
                    ..Default::default()
                };
                let named = match arg % 8 {
                    // As a node names it: the front of its ring.
                    0..=5 => {
                        let horizon = cycle.saturating_sub(MODEL_WINDOW);
                        while model.front().is_some_and(|&s| s < horizon) {
                            model.pop_front();
                        }
                        model.front().copied()
                    }
                    // Naming none, listing what it restores.
                    6 => {
                        let last = spent.iter().rev().take(2);
                        state.spent = last.map(|d| (*d, cycle)).collect();
                        model = state.spent.iter().map(|&(_, s)| s).collect();
                        None
                    }
                    // A stamp past every record.
                    _ => {
                        model.clear();
                        Some(cycle + 1)
                    }
                };
                for b in both {
                    b.save_checkpoint_naming(&state, named).expect("checkpoint");
                }
            }
            _ => {
                drop(file);
                file = open();
                if arg % 2 == 0 {
                    prop_assert_eq!(load(&mut mem), load(&mut file));
                }
            }
        }
    }
    prop_assert_eq!(load(&mut mem), load(&mut file));
    let _ = fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The two backends are one contract: the same sequence of records and
    /// checkpoints — monotone cycles, now and then a spent record stamped
    /// late, checkpoints naming the front of a node-style ring, naming
    /// none or listing records — loads to the same state from a
    /// `MemoryBackend` and from a `FileBackend` that compacts at a few
    /// hundred bytes and is reopened mid-sequence, read back or not.
    #[test]
    fn memory_and_file_backends_load_the_same_state(
        ops in proptest::collection::vec((0u8..12, any::<u8>()), 1..80),
    ) {
        backends_agree(ops)?;
    }
}
