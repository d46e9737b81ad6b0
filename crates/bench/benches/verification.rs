//! Verification benchmarks parameterized by chain length: cold
//! full-chain verification, memoized re-verification (exact copy), and
//! incremental verification of a one-link extension — the §VI-A cost
//! story that the verified-chain memo is built to win.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sc_bench::{chained, pool, warmed_memo, CHAIN_LENGTHS};
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

fn bench_memoized_reverify(c: &mut Criterion) {
    let keys = pool(Scheme::Schnorr61, 16);
    let mut group = c.benchmark_group("verify/memoized");
    for t in CHAIN_LENGTHS {
        let d = chained(&keys, t);
        let mut memo = warmed_memo(&d, 1024);
        group.bench_with_input(BenchmarkId::from_parameter(t), &d, |b, d| {
            b.iter(|| d.verify_with(&mut memo).unwrap())
        });
    }
    group.finish();
}

fn bench_incremental_extend(c: &mut Criterion) {
    // Chain of length t+1 verified against a memo holding the t-link
    // prefix: only the appended link pays signature checks. The memo is
    // cloned per iteration so the extension never becomes an exact hit.
    let keys = pool(Scheme::Schnorr61, 16);
    let mut group = c.benchmark_group("verify/extend_by_1");
    for t in CHAIN_LENGTHS {
        let prefix = chained(&keys, t);
        let owner = &keys[t % keys.len()];
        let next = keys[(t + 1) % keys.len()].public();
        let extended = prefix.transfer(owner, next).unwrap();
        let memo = warmed_memo(&prefix, 1024);
        group.bench_with_input(BenchmarkId::from_parameter(t), &extended, |b, d| {
            b.iter(|| {
                let mut m = memo.clone();
                d.verify_with(&mut m).unwrap()
            })
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

criterion_group!(
    benches,
    bench_cold_verify,
    bench_memoized_reverify,
    bench_incremental_extend,
    bench_schnorr_paths
);
criterion_main!(benches);
