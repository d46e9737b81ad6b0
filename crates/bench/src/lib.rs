//! Shared helpers of the `bench-report` runner: deterministic keypair
//! pools, chain builders, and a tiny timing/JSON harness for
//! machine-readable baselines. `bench-report` measures only what no other
//! harness can (the population sweep, the cost of one more transfer, the
//! steady-state sample cache); per-layer costs are `perfbench/`'s probes.
#![forbid(unsafe_code)]

pub mod report;

use sc_core::{SecureDescriptor, Timestamp};
use sc_crypto::{Keypair, Scheme};

/// A deterministic pool of keypairs under `scheme`.
pub fn pool(scheme: Scheme, n: usize) -> Vec<Keypair> {
    (0..n)
        .map(|i| {
            let mut seed = [0u8; 32];
            seed[..8].copy_from_slice(&(i as u64).to_le_bytes());
            Keypair::from_seed(scheme, seed)
        })
        .collect()
}

/// A descriptor carried through `transfers` ownership hops over `keys`
/// (cyclically), starting from `keys[0]`.
pub fn chained(keys: &[Keypair], transfers: usize) -> SecureDescriptor {
    let mut d = SecureDescriptor::create(&keys[0], 0, Timestamp(0));
    for i in 0..transfers {
        let owner = &keys[i % keys.len()];
        let next = &keys[(i + 1) % keys.len()];
        d = d.transfer(owner, next.public()).unwrap();
    }
    d
}

/// The `BENCH_<n>.json` baselines in the current directory as
/// `(n, file name)`, lowest `n` first.
pub fn baselines() -> Vec<(u32, String)> {
    let mut found: Vec<(u32, String)> = std::fs::read_dir(".")
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().to_string_lossy().into_owned();
            let n = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
            Some((n.parse().ok()?, name))
        })
        .collect();
    found.sort_unstable();
    found
}
