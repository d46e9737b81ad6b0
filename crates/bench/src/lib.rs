//! Shared helpers for the benchmark suite (see the `benches/` directory)
//! and the `bench-report` runner: deterministic keypair pools, chain
//! builders, and a tiny timing/JSON harness for machine-readable
//! baselines.
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

/// Chain lengths the verification benches and the bench-report runner
/// agree on (the paper's average descriptor sees 2s = 6 transfers; 64 is
/// the stress tail).
pub const CHAIN_LENGTHS: [usize; 4] = [1, 4, 16, 64];
