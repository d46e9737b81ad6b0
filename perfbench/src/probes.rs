//! Layer probes: unit costs of single layers, timed from outside around
//! their public calls. A probe whose target signature changes is updated
//! in its own benchmark PR, never in a PR that claims a gain.
//!
//! Descriptor probes run on chains whose lengths were harvested from the
//! workload's own warmed network, so they see the real length
//! distribution under the workload's own signature scheme.

use crate::spec::Metrics;
use crate::trace::Tracer;
use sc_core::wire::{decode_message, descriptor_wire_bytes, encode_message, WireLimits};
use sc_core::{
    FileBackend, LinkKind, MemoryBackend, PersistentState, RequestBody, SecureConfig,
    SecureDescriptor, SecureMsg, StateBackend, Timestamp, VerifyMemo,
};
use sc_crypto::{sha256, verify_batch, Keypair, Scheme};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Keys the synthetic chains cycle through.
const POOL: usize = 16;
/// Most descriptors a probe set holds.
const MAX_SET: usize = 256;
/// Memo capacity of the memo probes: every prefix digest of a full set
/// of long chains stays resident, so a "hit" is never an eviction.
const MEMO_CAPACITY: usize = 64 * MAX_SET;
/// Cycles of durable records in the log `file_recover_us` replays.
const RECOVER_LOG_CYCLES: u64 = 200;

fn pool(scheme: Scheme) -> Vec<Keypair> {
    (0..POOL)
        .map(|i| {
            let mut seed = [0x3cu8; 32];
            seed[0] = i as u8;
            Keypair::from_seed(scheme, seed)
        })
        .collect()
}

/// A descriptor created by `keys[0]` at time `serial` (so every chain
/// of a set is distinct) and carried through `transfers` ownership hops
/// around the pool: hop `i` is signed by `keys[i % POOL]`.
fn chained(keys: &[Keypair], transfers: usize, serial: u64) -> SecureDescriptor {
    let mut d = SecureDescriptor::create(&keys[0], 0, Timestamp(serial));
    for i in 0..transfers {
        d = d
            .transfer(&keys[i % POOL], keys[(i + 1) % POOL].public())
            .expect("pool chains are legal");
    }
    d
}

struct Prober<'a> {
    tracer: &'a mut Tracer,
    parent: Option<usize>,
    /// Least time spent on one probe, in nanoseconds.
    budget_ns: u64,
    out: &'a mut Metrics,
}

impl Prober<'_> {
    /// Times `batch` (which performs `ops` operations) repeatedly, with
    /// `setup` untimed before each, and reports the fastest batch in
    /// nanoseconds per operation divided by `unit_ns`. Noise on the
    /// bench box only ever adds time, so the minimum is the estimate.
    fn run<S>(
        &mut self,
        name: &'static str,
        unit_ns: f64,
        ops: usize,
        mut setup: impl FnMut() -> S,
        mut batch: impl FnMut(&mut S),
    ) {
        let span = self.tracer.open(format!("probe.{name}"), self.parent, 0);
        let started = Instant::now();
        let mut best = f64::MAX;
        let mut batches = 0u64;
        while batches < 5 || (started.elapsed().as_nanos() as u64) < self.budget_ns {
            let mut state = setup();
            let t = Instant::now();
            batch(&mut state);
            best = best.min(t.elapsed().as_nanos() as f64 / ops as f64);
            batches += 1;
        }
        self.tracer.close(span);
        self.tracer.spans[span].iterations = batches * ops as u64;
        self.out.set(name, best / unit_ns);
    }

    /// [`Prober::run`] for a batch that needs no set-up.
    fn time(&mut self, name: &'static str, unit_ns: f64, ops: usize, mut batch: impl FnMut()) {
        self.run(name, unit_ns, ops, || (), |()| batch());
    }
}

/// What the probes are sized by: the workload they run for.
pub struct ProbeInput<'a> {
    /// Signature scheme of the workload's descriptors.
    pub scheme: Scheme,
    /// Transfer counts harvested from the workload's views.
    pub chain_lens: &'a [usize],
    pub view_len: usize,
    pub quick: bool,
    /// A directory the file probes may write in.
    pub scratch: &'a Path,
}

/// Runs every layer probe and sets the `crypto.*`, `core.desc.*`,
/// `core.wire.*` and `core.storage.*` metrics.
pub fn run_all(
    input: ProbeInput<'_>,
    tracer: &mut Tracer,
    parent: Option<usize>,
    out: &mut Metrics,
) -> std::io::Result<()> {
    let ProbeInput {
        scheme,
        chain_lens,
        view_len,
        quick,
        scratch,
    } = input;
    let mut p = Prober {
        tracer,
        parent,
        budget_ns: if quick { 2_000_000 } else { 30_000_000 },
        out,
    };

    // -- crypto ---------------------------------------------------------
    let data = vec![0xabu8; 1024];
    p.time("crypto.sha256_1k_ns", 1.0, 64, || {
        for _ in 0..64 {
            black_box(sha256(black_box(&data)));
        }
    });
    let msg = [0x5au8; 128];
    for (scheme, sign_name, verify_name) in [
        (
            Scheme::KeyedHash,
            "crypto.keyed_sign_ns",
            "crypto.keyed_verify_ns",
        ),
        (
            Scheme::Schnorr61,
            "crypto.schnorr_sign_ns",
            "crypto.schnorr_verify_ns",
        ),
    ] {
        let kp = Keypair::from_seed(scheme, [7; 32]);
        let (pk, sig) = (kp.public(), kp.sign(&msg));
        p.time(sign_name, 1.0, 64, || {
            for _ in 0..64 {
                black_box(kp.sign(black_box(&msg)));
            }
        });
        p.time(verify_name, 1.0, 64, || {
            for _ in 0..64 {
                assert!(pk.verify(black_box(&msg), black_box(&sig)));
            }
        });
    }
    // Distinct keys and messages, like one exchange's intake.
    let batch: Vec<_> = (0..64u8)
        .map(|i| {
            let kp = Keypair::from_seed(Scheme::Schnorr61, [i + 1; 32]);
            let m = [i; 32];
            (kp.public(), m, kp.sign(&m))
        })
        .collect();
    let checks: Vec<_> = batch.iter().map(|(pk, m, sig)| (pk, &m[..], sig)).collect();
    p.time("crypto.schnorr_batch64_ns_per_sig", 1.0, 64, || {
        assert!(verify_batch(black_box(&checks)).is_ok());
    });

    // -- descriptors ----------------------------------------------------
    let keys = pool(scheme);
    let lens: Vec<usize> = if chain_lens.is_empty() {
        vec![2 * SecureConfig::default().swap_len]
    } else {
        // An even subsample keeps the harvested distribution.
        let step = chain_lens.len().div_ceil(MAX_SET);
        chain_lens.iter().copied().step_by(step).collect()
    };
    let set: Vec<SecureDescriptor> = lens
        .iter()
        .zip(0u64..)
        .map(|(&t, serial)| chained(&keys, t, serial))
        .collect();
    let n = set.len();
    p.out.set(
        "core.desc.chain_len_mean",
        chain_lens.iter().sum::<usize>() as f64 / chain_lens.len().max(1) as f64,
    );
    p.time("core.desc.clone_ns", 1.0, n, || {
        for d in &set {
            black_box(d.clone());
        }
    });
    p.time("core.desc.transfer_ns", 1.0, n, || {
        for (d, &t) in set.iter().zip(&lens) {
            black_box(d.transfer(&keys[t % POOL], keys[(t + 1) % POOL].public()))
                .expect("owner signs");
        }
    });
    p.time("core.desc.verify_cold_ns", 1.0, n, || {
        for d in &set {
            d.verify().expect("pool chains verify");
        }
    });
    let mut memo = VerifyMemo::new(MEMO_CAPACITY);
    for d in &set {
        d.verify_with(&mut memo).expect("pool chains verify");
    }
    p.time("core.desc.verify_memo_ns", 1.0, n, || {
        for d in &set {
            d.verify_with(&mut memo).expect("pool chains verify");
        }
    });
    // Extend-by-one: only the prefix is memoized, as when a descriptor
    // comes back one hop older. The memo is rebuilt untimed per batch so
    // no verification ever becomes an exact hit.
    let extended: Vec<&SecureDescriptor> = set.iter().filter(|d| !d.chain().is_empty()).collect();
    let prefixes: Vec<SecureDescriptor> = extended
        .iter()
        .map(|d| {
            let chain = d.chain();
            SecureDescriptor::from_parts(*d.genesis(), chain[..chain.len() - 1].to_vec())
        })
        .collect();
    if extended.is_empty() {
        p.out.set("core.desc.verify_extend_ns", 0.0);
    } else {
        p.run(
            "core.desc.verify_extend_ns",
            1.0,
            extended.len(),
            || {
                let mut memo = VerifyMemo::new(MEMO_CAPACITY);
                for d in &prefixes {
                    d.verify_with(&mut memo).expect("prefixes verify");
                }
                memo
            },
            |memo| {
                for d in &extended {
                    d.verify_with(memo).expect("pool chains verify");
                }
            },
        );
    }

    // -- wire -----------------------------------------------------------
    // A paper-shaped request: redeemed + fresh + ℓ−1 samples.
    let redeemable = chained(&keys, 3, u64::MAX);
    let request = SecureMsg::Request(Box::new(RequestBody {
        redeemed: redeemable
            .redeem(&keys[3 % POOL], LinkKind::Redeem)
            .expect("owner redeems"),
        fresh: chained(&keys, 1, u64::MAX - 1),
        offered: Vec::new(),
        samples: set
            .iter()
            .cycle()
            .take(view_len.saturating_sub(1))
            .cloned()
            .collect(),
        proofs: Vec::new(),
    }));
    let mut encoded = Vec::new();
    encode_message(&request, &mut encoded);
    let period = SecureConfig::default().ticks_per_cycle;
    p.out.set("core.wire.request_bytes", encoded.len() as f64);
    p.out.set(
        "core.wire.desc_bytes_mean",
        set.iter().map(descriptor_wire_bytes).sum::<usize>() as f64 / n as f64,
    );
    p.time("core.wire.encode_request_ns", 1.0, 16, || {
        for _ in 0..16 {
            let mut buf = Vec::new();
            encode_message(black_box(&request), &mut buf);
            black_box(buf);
        }
    });
    p.time("core.wire.decode_request_ns", 1.0, 16, || {
        for _ in 0..16 {
            black_box(decode_message(black_box(&encoded), period)).expect("own encoding decodes");
        }
    });

    // -- storage --------------------------------------------------------
    let state = PersistentState {
        cycle: 1,
        emitted_cycle: Some(1),
        view: set
            .iter()
            .cycle()
            .take(view_len)
            .map(|d| (d.clone(), false))
            .collect(),
        ..PersistentState::default()
    };
    let digest = sha256(b"spent");
    let mut mem = MemoryBackend::new();
    p.time("core.storage.mem_record_ns", 1.0, 256, || {
        for c in 0..256u64 {
            mem.record_spent(black_box(&digest), c)
                .expect("memory backend");
        }
        // A checkpoint subsumes the tail, as once per cycle in a node.
        mem.save_checkpoint(&PersistentState::default())
            .expect("memory backend");
    });
    std::fs::create_dir_all(scratch)?;
    let log = scratch.join("probe.log");
    let _ = std::fs::remove_file(&log);
    let mut file = FileBackend::open(&log)?;
    p.time("core.storage.file_record_us", 1000.0, 64, || {
        for c in 0..64u64 {
            file.record_spent(black_box(&digest), c)
                .expect("scratch log append");
        }
    });
    p.time("core.storage.file_checkpoint_us", 1000.0, 8, || {
        for _ in 0..8 {
            file.save_checkpoint(black_box(&state))
                .expect("scratch log append");
        }
    });
    // The log a node leaves after RECOVER_LOG_CYCLES cycles: per cycle one
    // emission marker, one spent digest per transfer, one checkpoint
    // (compacting at the backend's own threshold, as in a daemon).
    drop(file);
    std::fs::remove_file(&log)?;
    let mut file = FileBackend::open(&log)?;
    for c in 0..RECOVER_LOG_CYCLES {
        file.record_emission(c)?;
        for _ in 0..SecureConfig::default().swap_len {
            file.record_spent(&digest, c)?;
        }
        file.save_checkpoint(&state)?;
    }
    drop(file);
    p.time("core.storage.file_recover_us", 1000.0, 1, || {
        let mut reopened = FileBackend::open(&log).expect("scratch log reopens");
        let recovered = reopened
            .load(period, &WireLimits::DEFAULT)
            .expect("scratch log loads");
        assert!(black_box(recovered).is_some());
    });
    std::fs::remove_file(&log)?;
    Ok(())
}
