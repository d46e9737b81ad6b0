//! Verification benchmarks: full-chain verification parameterized by
//! chain length, and the Schnorr paths under it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sc_bench::{chained, pool, CHAIN_LENGTHS};
use sc_crypto::{schnorr61, Keypair, Scheme};

fn bench_cold_verify(c: &mut Criterion) {
    let keys = pool(Scheme::Schnorr61, 16);
    let mut group = c.benchmark_group("verify/cold");
    for t in CHAIN_LENGTHS {
        let d = chained(&keys, t);
        group.bench_with_input(BenchmarkId::from_parameter(t), &d, |b, d| {
            b.iter(|| d.verify().unwrap())
        });
    }
    group.finish();
}

fn bench_schnorr_paths(c: &mut Criterion) {
    let kp = Keypair::from_seed(Scheme::Schnorr61, [7; 32]);
    let msg = [0x5au8; 128];
    let sig = kp.sign(&msg);
    let bytes = sig.as_bytes();
    let pk = u64::from_be_bytes(kp.public().as_bytes()[1..9].try_into().unwrap());
    let r = u64::from_be_bytes(bytes[1..9].try_into().unwrap());
    let s = u64::from_be_bytes(bytes[9..17].try_into().unwrap());
    c.bench_function("schnorr61/verify_legacy", |b| {
        b.iter(|| {
            assert!(schnorr61::reference::verify(
                pk,
                std::hint::black_box(&msg),
                r,
                s
            ))
        })
    });
    c.bench_function("schnorr61/verify_fast", |b| {
        b.iter(|| assert!(schnorr61::verify_fast(pk, std::hint::black_box(&msg), r, s)))
    });
    c.bench_function("schnorr61/powmod_g", |b| {
        let mut e = 1u64;
        b.iter(|| {
            e = e.wrapping_mul(6364136223846793005).wrapping_add(1);
            schnorr61::powmod(schnorr61::G, std::hint::black_box(e))
        })
    });
    c.bench_function("schnorr61/g_powmod", |b| {
        let mut e = 1u64;
        b.iter(|| {
            e = e.wrapping_mul(6364136223846793005).wrapping_add(1);
            schnorr61::g_powmod(std::hint::black_box(e))
        })
    });
}

criterion_group!(benches, bench_cold_verify, bench_schnorr_paths);
criterion_main!(benches);
