//! Committed golden end-state hashes for the quick scenario matrix.
//!
//! Every quick-tier scenario × matrix seed is run to completion and the
//! protocol-visible end state of every honest node is hashed: its view
//! (state digest + non-swappable flag per entry, in view order), its
//! blacklist (culprits sorted), every `SecureStats` counter, and the
//! sizes of its sample and redemption caches. The hashes below were
//! recorded on the commit *before* the one-pointer-descriptor /
//! one-index-sample-cache refactor (PR 12) and must never move under a
//! change that claims to keep protocol behaviour: a refactor of
//! descriptor storage, cache indexing, expiry or housekeeping that alters
//! any verdict, any eviction or any counter shows up here as a mismatch
//! naming the scenario and seed.
//!
//! A change that *intends* to alter behaviour re-records the table: on a
//! mismatch the test prints every row of its seed in source form.
//!
//! The quick matrix ends before any sample is 60 cycles old, so no row
//! above sees a sample expire. [`GOLDEN_FULL`] runs the full sizing (80
//! cycles), whose runs cross that window, and hashes the protocol state
//! alone — views, blacklists and counters, not cache sizes — so a change
//! to *when* a cached sample expires moves it only if a verdict moves.

use securecyclon::crypto::hex::to_hex;
use securecyclon::crypto::Sha256;
use securecyclon::testkit::{
    run_scenario_with_net, standard_matrix, MatrixSize, SecureNetwork, MATRIX_SEEDS,
};

/// `(scenario, seed, sha256 of the end state)`, one row per line — the
/// shape the test prints on a mismatch.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, &str)] = &[
    ("honest-reliable", 1, "261093f24e018cccc221060fbd4752a02be111c461711d36059c363fa1312dab"),
    ("honest-lossy-10", 1, "889b89a35d38b02e94ce86261708fa69ce44a6a13bef15d816b9a6819edd502f"),
    ("honest-asymmetric-loss", 1, "5336e14cfdbdd9280642e919b007179318a5b652521434a4390cf8d89b185676"),
    // Every `honest-partition-heal`, `honest-churn`, `partition-cloning`
    // and `lossy-churn-hub` row (and its `GOLDEN_FULL` row) was
    // re-recorded when a sponsorship began to reach a node only as the
    // `JoinGrant` one-way it is stepped with: a churn joiner now verifies
    // its grant and samples it, a heal-reintroduced node receives its
    // sponsor's proofs (`proofs_duplicate`, `bytes_received`), and a
    // `lossy-churn-hub` joiner re-floods the grant's proofs at once, which
    // shifts later loss rolls. Every view and blacklist but
    // `lossy-churn-hub`'s is as before.
    ("honest-partition-heal", 1, "22ab4307f39be7b29861e8cbc022037c99da02449a6f5dfa853403b258d6c16c"),
    ("honest-island-rejoin", 1, "d9589d6980e35e389bf9a163a18c5956100ae83488fe7fab243dbc68e4005481"),
    ("honest-crash-restart", 1, "99d49458a4e1cfaf52b94c2005d1461f37f64437742350f9e39bf6fe8840ece6"),
    ("honest-churn", 1, "cd76cdddd7f85a1c0a67136a0226c4b7e5e3466a56ff58f3c886fe546b0f7563"),
    ("honest-mass-failure", 1, "ef12a525a900c8352852200da7083e86bfbc27817b65244733922ffd4231edc3"),
    ("hub-attack", 1, "573b904266e58d9a2c31151a3824b3b10b0caac85f3eb8ef351aff2ce8ab848d"),
    ("cloning-attack", 1, "dfdd8767cf5c9f4c25ce8569ca7a71870b802cabe49da97128b39e20d3984675"),
    ("frequency-attack", 1, "58e5f9190fdf0929dcf5639d109fceb8ad4d4d591fe00bef00293a59624cda27"),
    ("depletion-attack", 1, "39ff774b2a1da4096ba05489b43ac887fa27d6a348d5176c6985b267a263ed4a"),
    ("partition-cloning", 1, "4070ad599db0db11e747e1c1ec42fee8a3614b7ad8415cf804d5e46aa974faaf"),
    // Re-recorded when a ping's grant began to carry every proof its
    // sponsor holds: one rejoiner here receives 4 it already knew
    // (`proofs_duplicate`, `bytes_received`); views and blacklists as before.
    // All `honest-lossy-10`, `honest-asymmetric-loss` and `lossy-churn-hub`
    // rows (and their `GOLDEN_FULL` rows) were re-recorded again when the
    // engine began to decide loss as a socket's receiver does: per link
    // and frame index, not from the shuffle's RNG, so other messages are
    // lost and every later turn order is the reliable run's.
    ("lossy-churn-hub", 1, "bcc38cfef2cd6284587a709100768072367984c9c8a08555a0451e398d056199"),
    ("honest-reliable", 2, "03ed64129c3f34328ac3e256d3c7c4438d8ae4047a145ac97b1fa1c0d9795d0b"),
    ("honest-lossy-10", 2, "a9d745a510dda55753729b9e387afe3ff38fb5bf0caa65e0abe9e171bc689290"),
    ("honest-asymmetric-loss", 2, "25dc81df63c57036f9fdd1f6f2d432a4f72d653d2d03065d00a1e88b96baf09c"),
    ("honest-partition-heal", 2, "de06d9d6067934a99e0e05de110ef181905253eed41632f575b7b1113db5eba4"),
    ("honest-island-rejoin", 2, "f453c82e14b9bfff7101bc899bf48b07464ea1790dd9df5a922c7cd3b34d4da0"),
    ("honest-crash-restart", 2, "b71d3db9ad3a2928ef8679d3e0671dd364cab662f5e3d14181a2b45e85594641"),
    ("honest-churn", 2, "cb3b60cc6a3785f3bc2195d23529fa973dd0939fa1784f0fdc7a8dfd917aae9e"),
    ("honest-mass-failure", 2, "ee3633a7fa3685a50413eec3a691c6a377ef82be9f52e74417f976966d38ee52"),
    ("hub-attack", 2, "fcee2968a80c453a65616a4399f6d4fbea4a87e8e4f098599711f34692a96ccf"),
    ("cloning-attack", 2, "595dcea7e23ea01cfd6ebbd4a514939ca567cfd8b032563e8ceb46337b217594"),
    ("frequency-attack", 2, "366a8dddc681389173a66bb522910aa86ce4c5a7b9ff03689e92a4a72bb65eb3"),
    ("depletion-attack", 2, "0a871d789c6f02f79c8d93b9ddb0e383969ca1ed01054eccf73c55e8d4953ace"),
    ("partition-cloning", 2, "25c4f199d63e275cc4574c3ec18ecabf63866a4d27c058e1628592867b06c67e"),
    ("lossy-churn-hub", 2, "bfb55023a10e528b59e27bb72af25b4f2823d16d53c535227c39a0da148cf4eb"),
    ("honest-reliable", 3, "f63e048eab5395e53c0265eadad24b78ac34f210d94b99ea03c5c16f11c56e17"),
    ("honest-lossy-10", 3, "0b51a10ae0053eaf00880e73375642e6b1bdc5002eda973db20609f59cf714d8"),
    ("honest-asymmetric-loss", 3, "51aaa13a79c1867bbce96641e30106704a4afaaee1fcb331373d5738c89bcc71"),
    ("honest-partition-heal", 3, "99ad730181714cf173c5adf72e7311c1f0e89e804576172432e656e11580ec08"),
    ("honest-island-rejoin", 3, "62fe62e7f1d93fdc77ad972dc7a897446695c8071b850c05bbfef926e24fdf70"),
    ("honest-crash-restart", 3, "d2838eadba55351ad00ca56b6485f9713244688135ac4487ee157f126dd77363"),
    ("honest-churn", 3, "5b262ce7c1a59df036fb3c76e4619237ec2c4632a54ac76150319c5807a73a49"),
    ("honest-mass-failure", 3, "4f681b5d3dc085ff0a14fe6ed54815b1e541eafd0068693f110b8cbe733983e0"),
    ("hub-attack", 3, "32c051b27d73c24783d85a21d731e15cfb4bf26e889284978b615b441375e51d"),
    ("cloning-attack", 3, "c0b5e58e0de66cd0db717c76e7195e30ede917669efd6d8d0ada25ee65ed8dbf"),
    ("frequency-attack", 3, "db8c5de876e48acb306a7e70c3841620bbee966f9a3725c627536ba622a49e14"),
    ("depletion-attack", 3, "cdd412ceee413df2874cb5ef54d404883776ac048dc8203ccb99192d01ce35f3"),
    ("partition-cloning", 3, "dcf789a2fa2b5571bc7158b3373eac9fea9170ee314af0797b1a44a0f44c7aeb"),
    ("lossy-churn-hub", 3, "cdcabeca08ed038099903af1eae968d073dbe07f6461d6ca79bf554371a7e3b8"),
];

/// `(scenario, seed, sha256 of the protocol state)` at full sizing, seed
/// 1: [`GOLDEN`]'s hash without the two cache sizes.
#[rustfmt::skip]
const GOLDEN_FULL: &[(&str, u64, &str)] = &[
    ("honest-reliable", 1, "40ec28f25694f2d2d2c48363fcd60f3643a7dbbe50a8099e0621f520d32aebc4"),
    ("honest-lossy-10", 1, "6f578cdffffe09dd9ee752d5bc23870d442280e9ef13f7aa112c38881769052a"),
    ("honest-asymmetric-loss", 1, "ad60f801d82168fbe4d48f3c4a470bb63f16700353af8778a792c6038785bef3"),
    // Re-recorded with `GOLDEN`'s four sponsorship rows: see the comment
    // there.
    ("honest-partition-heal", 1, "4ab16e31cb74032e8feeecda1a8e38bb96a8e3bfcc81b6c6949fdd883823dc88"),
    ("honest-island-rejoin", 1, "672739d9a8938f76dff2b24eb5932372d56c79a626d42b22bd2eaa981803d547"),
    ("honest-crash-restart", 1, "f47cd9320f02d78c524be1f5024232e364bbc6bdb7bd52134bdfd8e1d9ed3a65"),
    ("honest-churn", 1, "3dab23d54053a5e07e959fdb7bc51d1fa86ed37c69b1be9f53ce7854446bdf0f"),
    ("honest-mass-failure", 1, "ac2f2a4c2a66dbebddfb75d30a3c93f9427c662dd9e7f1730031603e01d0b4a0"),
    ("hub-attack", 1, "93b9686bf27f2286ebf18f00941401ef7a33381b00cc3d69ebc8b432f4136e84"),
    ("cloning-attack", 1, "efec498e1477c6448dcbd2022bb48ef1d40098e1b0a891b5fe46defb2d653161"),
    ("frequency-attack", 1, "2263a35cf71ecc37f3c73512a5b595d3f677886efa8c6f5a40d6ca911aba36ff"),
    ("depletion-attack", 1, "d3ac0c4be1596c6a8f1d7bc15fb51d7bc97f4423d7ab29713538eae2cae1fd34"),
    ("partition-cloning", 1, "5bac9f603df1d73427fb858b4964b2bade1ffd02e5068e6ee5565c4f1e17dc72"),
    ("lossy-churn-hub", 1, "516e4ac161ffa6f82126306b63e68b2031c87a0c200c253d5ff9627f58c3ac11"),
];

fn end_state_hash(net: &SecureNetwork, with_cache_sizes: bool) -> String {
    let mut h = Sha256::new();
    for (addr, node) in net.engine.nodes() {
        let Some(n) = node.honest() else { continue };
        h.update(&addr.to_be_bytes());
        h.update(&(n.view().len() as u64).to_be_bytes());
        for e in n.view().iter() {
            h.update(&e.desc.state_digest());
            h.update(&[e.non_swappable as u8]);
        }
        let mut culprits: Vec<_> = n.blacklist().culprits().copied().collect();
        culprits.sort_unstable();
        h.update(&(culprits.len() as u64).to_be_bytes());
        for c in &culprits {
            h.update(c.as_bytes());
        }
        h.update(format!("{:?}", n.stats()).as_bytes());
        if with_cache_sizes {
            h.update(&(n.sample_count() as u64).to_be_bytes());
            h.update(&(n.redemption_count() as u64).to_be_bytes());
        }
    }
    to_hex(&h.finalize())
}

fn check_seed(seed: u64) {
    check(MatrixSize::quick(), seed, GOLDEN, true);
}

fn check(size: MatrixSize, seed: u64, golden: &[(&str, u64, &str)], with_cache_sizes: bool) {
    assert!(MATRIX_SEEDS.contains(&seed));
    let mut rows = Vec::new();
    let mut mismatches = Vec::new();
    for scenario in standard_matrix(size) {
        let (_, net) = run_scenario_with_net(&scenario, seed)
            .unwrap_or_else(|v| panic!("oracle violation: {v}"));
        let got = end_state_hash(&net, with_cache_sizes);
        let want = golden
            .iter()
            .find(|(name, s, _)| *name == scenario.name && *s == seed)
            .map(|(_, _, hash)| *hash);
        if want != Some(got.as_str()) {
            mismatches.push(format!(
                "{} seed {seed}: recorded {want:?}, got {got}",
                scenario.name
            ));
        }
        rows.push(format!("    (\"{}\", {seed}, \"{got}\"),", scenario.name));
    }
    assert!(
        mismatches.is_empty(),
        "end state moved:\n{}\n\nrows for seed {seed}:\n{}",
        mismatches.join("\n"),
        rows.join("\n")
    );
}

#[test]
fn golden_end_state_seed_1() {
    check_seed(1);
}

#[test]
fn golden_end_state_seed_2() {
    check_seed(2);
}

#[test]
fn golden_end_state_seed_3() {
    check_seed(3);
}

#[test]
fn golden_full_size_protocol_state_seed_1() {
    check(MatrixSize::full(), 1, GOLDEN_FULL, false);
}
