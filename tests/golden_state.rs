//! Committed golden end-state hashes for the quick scenario matrix.
//!
//! Every quick-tier scenario × matrix seed is run to completion and the
//! protocol-visible end state of every honest node is hashed: its view
//! (state digest + non-swappable flag per entry, in view order), its
//! blacklist (culprits sorted), every `SecureStats` counter, and the
//! sizes of its sample and redemption caches. Each row holds two hashes
//! of that end state. The *state* hash covers all of it but three
//! counters, `bytes_sent`, `bytes_received` and `proofs_duplicate`, which
//! it hashes as zero; the *traffic* hash covers those three. A change
//! that only trims what a message carries — a payload its receiver
//! already holds, or evidence that proves nothing more than what is
//! kept — moves the traffic column alone, and the unchanged
//! state column is the proof that no verdict, eviction or other counter
//! moved. Neither column may move under a change that claims to keep
//! protocol behaviour: a refactor of descriptor storage, cache indexing,
//! expiry or housekeeping that alters any of it shows up here as a
//! mismatch naming the scenario, the seed and the column.
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

/// `(scenario, seed, state hash, traffic hash)`: the two sha256 columns
/// of [`Hashes`], one row per line — the shape the test prints on a
/// mismatch.
type Row = (&'static str, u64, &'static str, &'static str);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    // Both columns of every row here and in `GOLDEN_FULL` were recorded
    // on the tree before an answer stopped carrying the proofs its
    // request brought and a request its certificate's second copy. That
    // change then moved every traffic column and no state column.
    // The traffic column alone of every `hub-attack`, `cloning-attack`,
    // `frequency-attack`, `partition-cloning` and `lossy-churn-hub` row
    // (and of their `GOLDEN_FULL` rows) was re-recorded when a proof
    // began to keep only its minimal evidence: each side cut back to its
    // link at the fork, or to its genesis. These are the rows that build
    // proofs; no state column moved.
    ("honest-reliable", 1, "b00a0b58d6a01efe2f9a84296e043b72f094f910e5b1ebb647eeea57806c36f4", "72e1ee02539235d131e68ee6688e26ada9fc8637133b3825fb224e739028dc27"),
    ("honest-lossy-10", 1, "6e32720480e4badc72d1834c633eae6c39203bd094a014b95273abced4f7e3d2", "c7ccc35fb97c0f5f4880e0eb2e1faf48cd09c03f40d62117cf59ed1ce8e4618e"),
    ("honest-asymmetric-loss", 1, "c8ffd353ed9c3b296d82054bf00584a4e42294fd247e181a8b013c3ef911a77b", "41af3c7bce19783d9748cb26d609fa01ff76dab67a811266ecf1e3991b6b63db"),
    // Every `honest-partition-heal`, `honest-churn`, `partition-cloning`
    // and `lossy-churn-hub` row (and its `GOLDEN_FULL` row) was
    // re-recorded when a sponsorship began to reach a node only as the
    // `JoinGrant` one-way it is stepped with: a churn joiner now verifies
    // its grant and samples it, a heal-reintroduced node receives its
    // sponsor's proofs (`proofs_duplicate`, `bytes_received`), and a
    // `lossy-churn-hub` joiner re-floods the grant's proofs at once, which
    // shifts later loss rolls. Every view and blacklist but
    // `lossy-churn-hub`'s is as before.
    ("honest-partition-heal", 1, "c99cdbba529f6f59516f148023122437c8137a345a09f1cfc93e9e8b615e7ca8", "bfde06a22fa5de3e8b963cbae5e0a39354277012c303f65a26de0e31015bfd50"),
    ("honest-island-rejoin", 1, "899967b59befb8f703f3d20053c1f42d68a82814b263b00895708f175e4d03ba", "46bab663c15016e9990446d11600c2fafe30ab704d2f792d8d87a1e8503ac596"),
    ("honest-crash-restart", 1, "4c485509f788fce26bc612fb33672d172d91d4620c1ac06921ab01a828ad0c1f", "e9bff9aaed6f9cb084318e7b77724167039f6a5fcc788b56d15489d1f2523be0"),
    ("honest-churn", 1, "28c3a734e0571285d4a7f4dbc678fecd27225ff6b98460bf173b5a6275be93e8", "dda98687a3297d29b31222287d48056c83eaf7b25a7c7f3edd931ebe9e984c94"),
    ("honest-mass-failure", 1, "914d2f41425908633ba8ece50459c8b2fa2958d48160776ca3e9e3c18ca89ba1", "32e41fd3f89d9beb0f5c53f2bc9fbc0f9d30e76f644a8acb5767d9810589cfd8"),
    ("hub-attack", 1, "aace695a2a3d1554158845412031238c98897e681fcb78da854dafa7b86cbf6e", "2d090fea4104ef292b55e7e60aa9716caf37558505a25819dde795977006bcda"),
    ("cloning-attack", 1, "46cc9cec1f2a05b75860f65ee53ba7012cb20af7c1157cc20b07bad5ae211a21", "34c1d4758195a33283cf65ae3242883b65f781bac901dabf7987063ebab462bc"),
    ("frequency-attack", 1, "d4fa2e4a1c9f8a089294f635b3e74ce8989c271fdd78286c84a6f97c4563ab74", "2a083d3e9d2353720101f8b32dc3a392fbd2cc961d4a1b039f8f7a35c5e039c1"),
    ("depletion-attack", 1, "c68aaae5a76e4cd30c5cd7fdef95e356ca3c5dd8c29900d9373369df57280b57", "feedaab72f3118ee816a7d73aa97b2c36f6820a7c7ef57d13af8a0b29926e307"),
    ("partition-cloning", 1, "9c4e2c65fbbc42db79af6a5f391e5fd49344b562b887a846ff0f1bd97b3e504a", "33f72de24ad46f3c984cd7cdb7cdd15e1024da6334b79c5365da44c3cd2735e7"),
    // Re-recorded when a ping's grant began to carry every proof its
    // sponsor holds: one rejoiner here receives 4 it already knew
    // (`proofs_duplicate`, `bytes_received`); views and blacklists as before.
    // All `honest-lossy-10`, `honest-asymmetric-loss` and `lossy-churn-hub`
    // rows (and their `GOLDEN_FULL` rows) were re-recorded again when the
    // engine began to decide loss as a socket's receiver does: per link
    // and frame index, not from the shuffle's RNG, so other messages are
    // lost and every later turn order is the reliable run's.
    ("lossy-churn-hub", 1, "ba26febdb109b5125978728af2c8b698856810f6fe745d90b45d9120bd880ba1", "a82793ee9a972e30d17edf3319443c9e494b55a83d0e2747d99378e96673ae83"),
    ("honest-reliable", 2, "fb4c96c251a0d998ffef40fb6d42a47aae797fd940f4bc62202eaa8957e452ba", "b261f4be69b4d0b615b753f520876b6827806f62b7962be6182ca31866a99c45"),
    ("honest-lossy-10", 2, "f6a7c0e049d32e9a6e1220f73704ac758980e46729238a8c53c53bbcd5234a9c", "88f4b924b4847a9543eecb72b3657f53856b2d5a63fba5cd8120cff395ff1041"),
    ("honest-asymmetric-loss", 2, "993c0f9a3b4273da5ce69f6402bbb6347e6fb259444690487082dd870f7a8564", "1fb15ccbe117b7f72029a3442da43ce78c76f4f1c8277d871c95572734f1a1b2"),
    ("honest-partition-heal", 2, "a6616404be9567bb31c76a9dced2dd00e6d079cb7be92210ca82a5e3fb23abf7", "54d2c0852a60457e5ae2f712b8d33e0654ac477dee0a65ef8e466b995bd1e0ca"),
    ("honest-island-rejoin", 2, "62fccf44e55859d1317af2d9579f41ff9ce61e7a385d1f2883e10d06bfbcb0ef", "efa7a82c270d63552f9b42666fe85ac384cce14f9a19d2eafc452ae656336df3"),
    ("honest-crash-restart", 2, "081bac4eb322c86953064a409b8a47eadc8cfaceb315956d0d5efe301e2440b3", "ffa61f5d5c7a3d62b15083e32a1348fc1fd18cb6c904827d5c0668a16f62ec7a"),
    ("honest-churn", 2, "5888f67de292d79d5cb41aef9e97817f0adbd3799f72cce25c545b069318b481", "2571cd0fc5d510c2195368692e0366ace73ec171edb9c472a7c2ea42984e8bc7"),
    ("honest-mass-failure", 2, "e0ce272459d5f35e7b4053fd08aac39a06957385fc9942ee5380d1bc4b59cdfb", "d83a061d704f0efa9f41b0f849a1b84212ecfcb316fcb72104aff9eac7c1df94"),
    ("hub-attack", 2, "55dddf14c42d6ed407c3f774c4c9dd26e4121466621d062daad11fadca171428", "1600b4a67e75ec6cd91a89a51355258ac40e96e5829f167033d660218548dfd8"),
    ("cloning-attack", 2, "6d8b079b765d47c7c55cfbd73f15169d12ecbf98d641886a55a1b2eeb9a165a5", "0cd5b50e7871270d954c2d930a63dcc0ac1bea494d3d890ba941e3d45c3474d1"),
    ("frequency-attack", 2, "c9b590e1daa05896394c0d1608fb681a8014d05779525764232e39a371e02687", "ad3a37da30f82acfaf8e4bbc53a04226626a7f87f96c363a310d1f92a539cc9f"),
    ("depletion-attack", 2, "db1900a180cb43f3fac089d763586f6d43bad8ade7a0c0bec7d22549a6f31c0d", "82cadb6789438426ed7a6797d637d8c86c3cd88f223c29de2f2a8bd56342d3af"),
    ("partition-cloning", 2, "a58d8116e4d23c54fe929e4acdfa0eea2acee8106fb9256e636bab52bad7971b", "d622529929eda1d670657801833a2f2d7deb3ff5eeade2207c7fa89a1a8f2925"),
    ("lossy-churn-hub", 2, "059a36cc22ede32c792718418f48bce4e4e6ba526c0a4d309665eab77773ce4a", "635f8562cce5e683c86b38d22938a70762c02d6d0851a13910dba13130c4dd16"),
    ("honest-reliable", 3, "664a0fd99722f6ba557f0b37957fdc64d03f74d5b5e11f40391f78a508b67a44", "4ce4d0bc2ff1a63456589593169ba113e309d98ab6ee91effc076330b92b1751"),
    ("honest-lossy-10", 3, "6c31f9f8097b156ff8feaa52afa0b1fd51d98adf7bc2a7e5988444d248ff3664", "a5c1b1968b421c8188c45e1aa01c8154f637f3fc3e019e26e87ef3172bb29fa4"),
    ("honest-asymmetric-loss", 3, "34abd36d0d4d8e6281b0a4c9ad506a67eb8ae859718ca481bfb8f35541c22089", "90b793f8dc8654234c97f85f2138fce062096526da285e6e632ec5af0e71d6ab"),
    ("honest-partition-heal", 3, "db4f9e2b67bf0f4c44c82bafb3147beb93db7ad8ce3c10ed4534aeee6dc626c2", "2280a32fa00cc3b5728a72ff5cdf05aca883100b771f64609f2934790ce30eb0"),
    ("honest-island-rejoin", 3, "247e21ff4c85ce47c2f9394b19e300967f284ec2778aec4e0d7b784edda3ada7", "b1fe8967b214b7f3df1f2693bb0fac79dac38ad7b106af85790c01caa7b1d345"),
    ("honest-crash-restart", 3, "4a7619fc4dbfabe2c8d2895fa46971b661b1c728a2676eb832e82851eae947d7", "d327712276bd643e4ae61960072db0d26807ce1a415c0031a8dfeeebe955d811"),
    ("honest-churn", 3, "ff4ff035b364f533d31f4d842e08d21384853d44b5207c953770812039b11656", "d50fd096eafd299e2a18b44794b7e2a0f42db3277cda833cbb72cf660185b3d8"),
    ("honest-mass-failure", 3, "2a0d736037beae9a02157d26668ed3b01a6562410f2519215e74cfe24e1a248c", "f512ccec6bcf4e5c3e001cd711af212a233adfc69acdf2b4cf389a0b52b771ab"),
    ("hub-attack", 3, "f177b55993082b936051d4e290be4575a34249f8c1b8c7c07c08be6afffcb203", "2c60901007e7d4ebd69491f56d2aeb5e809a2b34c5d2412a686f3d39535ace83"),
    ("cloning-attack", 3, "96d264c2104db99e959be2a276449a72a8500939f06db0502fefb0d8af874561", "37c52ce80baef4fd1877c2c332aefc6ceb1d5ac214b82b77d10b356a96d1a9ff"),
    ("frequency-attack", 3, "085a08ea20139998a96be5c389b52bf95a4ce23ad3168a9a840b76f70d95a329", "572fb3d24597dbe149662bafe7e0533f44679f20faf436c3d569fdfdfb912da6"),
    ("depletion-attack", 3, "047c9658a21f5e278f20c4ed564f07ebebfdc91255adbeafa05efe3f3a6ddf06", "4d316e0facd1076acb5ae9abbafdc54dc99c4f23c3fd5bcd9f5f68d17bd8b04b"),
    ("partition-cloning", 3, "6d482db07f709a07b90147e0690420abd56652f83325272d4a227eb581c4f1d7", "4fc7d9c179d607492de4696cfa8e556f4f5342df66b88756a0ffe9c40f0e5d07"),
    ("lossy-churn-hub", 3, "b7c7b9a0ab96ad3002718d6770ae6ff923167aee64df61eb78134e33bf321ef9", "690b939038310529963148cefb6f03bdee14f9ed88017ff357b1905b9410239c"),
];

/// Full sizing, seed 1: [`GOLDEN`]'s rows with the two cache sizes left
/// out of the state hash.
#[rustfmt::skip]
const GOLDEN_FULL: &[Row] = &[
    // Five traffic columns re-recorded with `GOLDEN`'s for minimal
    // proof evidence: see the comment there.
    ("honest-reliable", 1, "254c9de44426145802ad3b1e6fa1719f4a6fa609c679a99192747f31c0b76f69", "b0fec4bfdb76b6cb743c26b9eddcf65a6594cd442d968a134e2ad1f141c81922"),
    ("honest-lossy-10", 1, "ab4cd51f03270041fab1942be66e17417c8195b1600687ed5b78ac268cc53601", "bc109962ab4904ba8ad5402179e121b9268a3e1a22a4989ed33d5241e6f5bf9e"),
    ("honest-asymmetric-loss", 1, "6c09192d21880a7e8029981e46ec08813f67cdb516597393712a8a1aa613e488", "d042493f209872b09ffef560192f0746ab613fd50013aa6844927e8808530df5"),
    // Re-recorded with `GOLDEN`'s four sponsorship rows: see the comment
    // there.
    ("honest-partition-heal", 1, "e9ba7d66a71b6bf3eb162f2a1cf2109f90537ac7a6e39ece73170f9960932453", "00a8a6c2efbb7257e11a187fca3304305f483d0418ec508f16d31395744679ea"),
    ("honest-island-rejoin", 1, "9b1890adc7cbcc12907d8610c8109657ccba373b863a7ecf124d9bdfb67556b6", "1d6b1f7baf013d5dd39bfbe2a16541cb0ea14065112a038bfce2d7ac4dadf693"),
    ("honest-crash-restart", 1, "521cdc601a040e53c695ec0154bee11afa694bd8a13ccd7f99f3c719b68c9d6a", "5aae04567dd286d121ea2d23ec1289eabc6fad917d2086d2173ccecbfe882a37"),
    ("honest-churn", 1, "89fdde1cd59c514f40c73e4130e4fad45db4da6aa6ef5a06313ec367e8c73da5", "7b730c9917fd0cceabead528b7648b296898f1278b059eb1b39eaceb0644e54a"),
    ("honest-mass-failure", 1, "54bac5383ee8eff87da2f7ba7d1139851d7143e814e1c85ce9a86aaf574d63ac", "64d53d5b43ebf3f731233786592f9de466693bd2a3c37897bd19a5ba5709e744"),
    ("hub-attack", 1, "82e476f334849aace8e7b97b3e58e1514376cb22b18b611d26970c83929ec537", "d056305547b21eac17cb3c3716178c813ba0458cfb56fbfab476b14b6cbc9360"),
    ("cloning-attack", 1, "5591743a57c579b3fa94bd08b565a2e087ae6c7ed9934de45234cd4ddb6316c7", "00825db4429bacb228c04d0b6f78d61ccfe26cc6abd034b35673e7365a5b40fe"),
    ("frequency-attack", 1, "b6c42027d301167413d25fe647d2e43e182332180b8977f3b4d6922f4e78a0ac", "6f67c171d8e75c7ceb625bd80863d4c31e2212eb39676a3ae1c6244db0237930"),
    ("depletion-attack", 1, "6d1bf0786ba1e1cdac307786b34bbea5b61d0eec263d8b8631a9363a6f850223", "4799ae1de2096320b17a52956720c15bcc6647f5fabebfce344a6df01eacf3f8"),
    ("partition-cloning", 1, "615bbf9d55ab57bd9c4c7bbfe4e6dd64942397f31c6957d0a0547f5f37d6fcab", "16db274bf864e59679938d677c00d3eacca641c2bcebdfa6e4fb306a0cc67f55"),
    ("lossy-churn-hub", 1, "a1a97111b9756b36b9c14864e283b8adb47e30fd09a6bc11cf701c285ffc6302", "245756d4df157b28847781af89faf79731ffcfa8baf17f0a0cd86f42eb850655"),
];

/// A row's two hashes of the end state of every honest node.
struct Hashes {
    /// Views, blacklists, every `SecureStats` counter but the three of
    /// [`Hashes::traffic`] (hashed as zero), and optionally the cache sizes.
    state: String,
    /// `bytes_sent`, `bytes_received` and `proofs_duplicate`: what the
    /// exchanges carried, which a change to their payload may move alone.
    traffic: String,
}

fn end_state_hashes(net: &SecureNetwork, with_cache_sizes: bool) -> Hashes {
    let mut state = Sha256::new();
    let mut traffic = Sha256::new();
    for (addr, node) in net.engine.nodes() {
        let Some(n) = node.honest() else { continue };
        state.update(&addr.to_be_bytes());
        state.update(&(n.view().len() as u64).to_be_bytes());
        for e in n.view().iter() {
            state.update(&e.desc.state_digest());
            state.update(&[e.non_swappable as u8]);
        }
        let mut culprits: Vec<_> = n.blacklist().culprits().copied().collect();
        culprits.sort_unstable();
        state.update(&(culprits.len() as u64).to_be_bytes());
        for c in &culprits {
            state.update(c.as_bytes());
        }
        let mut stats = n.stats();
        traffic.update(&addr.to_be_bytes());
        for moved in [
            &mut stats.bytes_sent,
            &mut stats.bytes_received,
            &mut stats.proofs_duplicate,
        ] {
            traffic.update(&moved.to_be_bytes());
            *moved = 0;
        }
        state.update(format!("{stats:?}").as_bytes());
        if with_cache_sizes {
            state.update(&(n.sample_count() as u64).to_be_bytes());
            state.update(&(n.redemption_count() as u64).to_be_bytes());
        }
    }
    Hashes {
        state: to_hex(&state.finalize()),
        traffic: to_hex(&traffic.finalize()),
    }
}

fn check_seed(seed: u64) {
    check(MatrixSize::quick(), seed, GOLDEN, true);
}

fn check(size: MatrixSize, seed: u64, golden: &[Row], with_cache_sizes: bool) {
    assert!(MATRIX_SEEDS.contains(&seed));
    let mut rows = Vec::new();
    let mut mismatches = Vec::new();
    for scenario in standard_matrix(size) {
        let (_, net) = run_scenario_with_net(&scenario, seed)
            .unwrap_or_else(|v| panic!("oracle violation: {v}"));
        let got = end_state_hashes(&net, with_cache_sizes);
        let want = golden
            .iter()
            .find(|(name, s, _, _)| *name == scenario.name && *s == seed);
        let (want_state, want_traffic) = want.map_or((None, None), |r| (Some(r.2), Some(r.3)));
        for (column, want, got) in [
            ("state", want_state, &got.state),
            ("traffic", want_traffic, &got.traffic),
        ] {
            if want != Some(got.as_str()) {
                mismatches.push(format!(
                    "{} seed {seed}: {column} moved: recorded {want:?}, got {got}",
                    scenario.name
                ));
            }
        }
        rows.push(format!(
            "    (\"{}\", {seed}, \"{}\", \"{}\"),",
            scenario.name, got.state, got.traffic
        ));
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
