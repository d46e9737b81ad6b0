//! The loopback cluster tier: real `sc-node` processes on 127.0.0.1,
//! audited by the same invariant oracles as the simulated matrix.
//!
//! The quick test spawns 16 OS processes, drives them through churn
//! (a kill plus a sponsored rejoin) and a hostile wire-speaking peer,
//! scrapes live state over the control sockets every few hundred
//! milliseconds, and runs the per-node oracles on every scrape. At the
//! shared `--stop-cycle` boundary the whole cluster quiesces (turns stop,
//! control stays up), which makes the cross-node oracles — unique
//! ownership, bounded in-degree, connectivity — sound to check.
//!
//! Replay: runs are parameterized by one seed. On failure the printed
//! line reruns the identical cluster:
//!
//! ```text
//! SC_SEED=1 cargo test --release -p sc-node --test loopback -- --nocapture
//! ```
//!
//! Wall-clock scheduling is the one non-deterministic input left, which
//! is why assertions are floors (completion fraction, connectivity) and
//! protocol invariants, never exact trajectories.

use sc_core::wire;
use sc_core::{Addr, JoinPingBody, LinkKind, RequestBody, SecureDescriptor, SecureMsg, Timestamp};
use sc_crypto::{Keypair, PublicKey, Scheme};
use sc_node::frame::FrameReader;
use sc_node::{ControlClient, Frame, FrameKind, NodeConfig, StatusReport};
use sc_testkit::live::{check_final, drive, env_seed};
use sc_testkit::{ClusterConfig, ProcessCluster};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddrV4, TcpListener, TcpStream};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

fn replay_line(seed: u64, extra: &str) -> String {
    sc_testkit::live::replay_line("loopback", seed, extra)
}

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_sc-node")
}

/// A wire-speaking attacker: opens raw TCP connections to `target` and
/// sends (1) bytes that are not a frame, (2) a frame header declaring an
/// oversized payload, (3) a well-formed frame whose payload is not a
/// decodable message, and (4) a decodable gossip request built from a
/// foreign identity whose descriptors carry no valid redemption for the
/// target. The daemon must poison (1) and (2), drop (3), and refuse (4)
/// at the protocol layer — never crash, and never blacklist anyone.
fn hostile_blast(target: Addr) {
    let sock = SocketAddrV4::new(Ipv4Addr::LOCALHOST, target as u16);
    let connect = || TcpStream::connect_timeout(&sock.into(), Duration::from_millis(500));

    // (1) not a frame at all
    if let Ok(mut s) = connect() {
        let _ = s.write_all(&[0xde, 0xad, 0xbe, 0xef].repeat(64));
    }
    // (2) valid magic/kind, 256 MiB declared payload
    if let Ok(mut s) = connect() {
        let mut f = Frame::new(FrameKind::Request, 1, vec![0u8; 8]);
        f.req_id = 7;
        let mut bytes = f.encode();
        bytes[13..17].copy_from_slice(&(256u32 << 20).to_be_bytes());
        let _ = s.write_all(&bytes[..17]);
    }
    // (3) a perfectly framed payload that is not a SecureMsg
    if let Ok(mut s) = connect() {
        let mut f = Frame::new(FrameKind::Request, 1, vec![0xa5; 200]);
        f.req_id = 8;
        let _ = s.write_all(&f.encode());
    }
    // (4) a decodable request from an identity outside the cluster: the
    // descriptors are self-consistent but were never created by the
    // target, so §IV-A redemption validation must refuse the exchange
    if let Ok(mut s) = connect() {
        let attacker = Keypair::from_seed(Scheme::KeyedHash, [0xEE; 32]);
        let d = SecureDescriptor::create(&attacker, 1, Timestamp(0));
        let msg = SecureMsg::Request(Box::new(RequestBody {
            redeemed: d.clone(),
            fresh: d,
            offered: Vec::new(),
            samples: Vec::new(),
            proofs: Vec::new(),
        }));
        let mut payload = Vec::new();
        wire::encode_message(&msg, &mut payload);
        let mut f = Frame::new(FrameKind::Request, 1, payload);
        f.req_id = 9;
        let _ = s.write_all(&f.encode());
    }
}

/// The frame of a §V-A join ping under `joiner`, sent from `from`.
fn join_ping(from: Addr, joiner: PublicKey) -> Vec<u8> {
    let ping = SecureMsg::JoinPing(Box::new(JoinPingBody { joiner }));
    let mut payload = Vec::new();
    wire::encode_message(&ping, &mut payload);
    Frame::new(FrameKind::Oneway, from, payload).encode()
}

/// A join flood: 1 000 well-formed §V-A join pings, each under a key
/// nobody has seen, down one connection. Every grant costs the sponsor a
/// cycle's fresh-descriptor budget — the turn that grants does not
/// initiate — so what the flood buys is what the node's own throttle
/// allows, and the daemon holds at most 8 for its next turn.
fn join_flood(target: Addr) {
    let sock = SocketAddrV4::new(Ipv4Addr::LOCALHOST, target as u16);
    let mut s = TcpStream::connect_timeout(&sock.into(), Duration::from_millis(500))
        .expect("connect to the flood target");
    for i in 0..1000u32 {
        let mut seed = [0xF1; 32];
        seed[..4].copy_from_slice(&i.to_le_bytes());
        let key = Keypair::from_seed(Scheme::KeyedHash, seed).public();
        s.write_all(&join_ping(1, key)).expect("flood the target");
    }
}

/// The frames of `kind` a daemon has written to `stream` so far.
fn frames_of(stream: &mut TcpStream, kind: FrameKind) -> usize {
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut reader = FrameReader::new(1 << 20);
    let mut chunk = [0u8; 4096];
    let mut seen = 0;
    loop {
        while let Some(f) = reader.next_frame().expect("a well-framed stream") {
            seen += usize::from(f.kind == kind);
        }
        match stream.read(&mut chunk) {
            Ok(n) if n > 0 => reader.feed(&chunk[..n]),
            _ => return seen,
        }
    }
}

#[test]
fn loopback_cluster_survives_churn_and_hostile_peer() {
    let seed = env_seed();
    let replay = replay_line(seed, "");
    println!("replay: {replay}");

    let n = 16;
    let mut cfg = ClusterConfig::quick(n, seed);
    // A debug binary cannot hold the release-tuned 50 ms schedule; slow
    // the shared clock instead of weakening the oracles or the floors.
    if cfg!(debug_assertions) {
        cfg.cycle_ms = 200;
    }
    let start = cfg.view_len as u64; // ring-bootstrap start cycle
    let stop = start + 40;
    cfg.stop_cycle = stop;
    let view_len = cfg.view_len;
    let mut cluster = ProcessCluster::launch(bin(), cfg).expect("spawn cluster");
    let base = cluster.addrs()[0];

    assert!(
        cluster.wait_cycle(start + 4, Duration::from_secs(20)),
        "cluster never started gossiping\n  replay: {replay}"
    );

    let kill_target = base + (n as Addr) - 1;
    let sponsor = base + 1;
    let hostile_target = base + 2;
    let flood_target = base + 3;
    let mut killed = false;
    let mut joiner: Option<Addr> = None;
    let mut blasted = false;
    let mut flooded_at: Vec<u64> = Vec::new();

    let out = drive(
        &mut cluster,
        "loopback-quick",
        stop,
        view_len,
        &replay,
        |cluster, cycle| {
            if !killed && cycle >= start + 12 {
                assert!(cluster.kill(kill_target), "kill target already gone");
                killed = true;
            }
            if killed && joiner.is_none() {
                joiner = Some(cluster.spawn_joiner(sponsor).expect("spawn joiner"));
            }
            // The flood goes on for eight cycles, the same 1 000 keys
            // each: a joiner pings again until it is granted.
            if (start + 16..start + 24).contains(&cycle) && flooded_at.last() != Some(&cycle) {
                join_flood(flood_target);
                flooded_at.push(cycle);
            }
            if !blasted && cycle >= start + 20 {
                hostile_blast(hostile_target);
                blasted = true;
            }
        },
    );

    assert!(
        killed && blasted && !flooded_at.is_empty(),
        "scenario actions never fired"
    );
    let joiner = joiner.expect("joiner spawned");
    assert!(out.scrapes >= 5, "too few live scrapes ({})", out.scrapes);

    // The cluster ends at full strength: 16 founders − 1 killed + 1 joiner.
    let snap = &out.final_snap;
    assert_eq!(snap.nodes.len(), n, "final membership\n  replay: {replay}");
    let joined = snap.nodes.iter().find(|nd| nd.addr == joiner).unwrap();
    assert!(
        !joined.view.is_empty(),
        "sponsored joiner never acquired a view\n  replay: {replay}"
    );
    assert!(
        joined.stats.initiated > 0,
        "joiner never gossiped\n  replay: {replay}"
    );

    // Full oracle suite on the quiescent state.
    check_final(snap, "loopback-quick", seed, view_len, 0.85, &replay);

    // The hostile peer left marks on the transport — and nothing else:
    // the unframeable connections were poisoned, the daemon kept serving
    // (it answered the quiescent scrape above), and nobody was
    // blacklisted over unattributable wire noise.
    let target = out
        .reports
        .iter()
        .find(|r| r.addr == hostile_target)
        .expect("hostile target report");
    assert!(
        target.transport.poisoned_conns >= 2,
        "hostile connections not poisoned (got {})\n  replay: {replay}",
        target.transport.poisoned_conns
    );
    for nd in &snap.nodes {
        assert!(
            nd.blacklist.is_empty(),
            "node {} blacklisted someone in an honest run\n  replay: {replay}",
            nd.addr
        );
    }

    // The join flood bought what the node's own throttle allows — one
    // grant per `JOIN_GRANT_GAP_CYCLES` (4) turns at most — not one a
    // turn for as long as it lasted: its target went on initiating.
    let flooded = out
        .reports
        .iter()
        .find(|r| r.addr == flood_target)
        .expect("flood target report");
    let granted = flooded.stats.rejoin_grants;
    println!(
        "join flood: {} volleys of 1 000 pings, {granted} grants in {} turns",
        flooded_at.len(),
        flooded.cycles_run
    );
    assert!(
        (1..=flooded.cycles_run / 4 + 1).contains(&granted),
        "{} volleys of 1 000 join pings were granted {granted} sponsorships \
         in {} turns\n  replay: {replay}",
        flooded_at.len(),
        flooded.cycles_run
    );
    assert!(
        flooded.stats.initiated + granted + 2 >= flooded.cycles_run,
        "the flooded sponsor initiated {} exchanges in {} turns: the flood \
         kept its turns\n  replay: {replay}",
        flooded.stats.initiated,
        flooded.cycles_run
    );

    // Liveness floor: most exchanges complete (phase-staggered turns keep
    // collisions rare; the timed-out remainder is §V-A-tolerated noise).
    let (ok, initiated) = snap.nodes.iter().fold((0, 0), |(c, i), nd| {
        (c + nd.stats.completed, i + nd.stats.initiated)
    });
    assert!(initiated > 0, "no exchanges initiated");
    let completion = ok as f64 / initiated as f64;
    assert!(
        completion >= 0.5,
        "exchange completion {completion:.2} below floor 0.5\n  replay: {replay}"
    );

    assert_eq!(
        out.summaries.len(),
        n,
        "every process prints its run summary"
    );
    println!(
        "loopback-quick: {n} nodes, {} scrapes, completion {completion:.2}, \
         final component {}/{}",
        out.scrapes,
        sc_testkit::largest_component(snap).0,
        snap.nodes.len(),
    );
}

/// Kills the wrapped daemon when the test ends, pass or fail.
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn unix_ms() -> u64 {
    let since = SystemTime::now().duration_since(UNIX_EPOCH);
    since.map_or(0, |d| d.as_millis() as u64)
}

/// Founding member 0 of a five-ring at `base` (ℓ = 4, s = 2, keyed
/// hashes) — the lone real daemon of the tests that play its peers
/// themselves — killed when the handle drops.
fn lone_founder(base: Addr, cycle_ms: u64, epoch_ms: u64, more: &[&str]) -> KillOnDrop {
    let child = std::process::Command::new(bin())
        .args(["--addr", &base.to_string(), "--index", "0"])
        .args(["--base-addr", &base.to_string(), "--cluster-size", "5"])
        .args(["--seed", &env_seed().to_string(), "--scheme", "keyed"])
        .args(["--view-len", "4", "--swap-len", "2"])
        .args(["--cycle-ms", &cycle_ms.to_string()])
        .args(["--epoch-millis", &epoch_ms.to_string()])
        .args(more)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn sc-node");
    KillOnDrop(child)
}

/// A raw connection to the daemon at `base`, retried until it listens or
/// the wall clock passes `give_up_ms`.
fn dial(base: Addr, give_up_ms: u64) -> TcpStream {
    let sock = SocketAddrV4::new(Ipv4Addr::LOCALHOST, base as u16);
    loop {
        match TcpStream::connect_timeout(&sock.into(), Duration::from_millis(200)) {
            Ok(s) => return s,
            Err(_) if unix_ms() < give_up_ms => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("daemon never listened: {e}"),
        }
    }
}

/// A block of free loopback ports for one hand-started daemon and the
/// peers a test plays itself: `base` (probed, then released for the
/// daemon to bind) and listeners held on `base + 1 ..= base + peers`.
/// `salt` keeps tests of this binary, which run in parallel, apart.
fn port_block(salt: u32, peers: u32) -> (Addr, Vec<TcpListener>) {
    (0..64u32)
        .find_map(|attempt| {
            let base = 23_000 + (std::process::id() % 30_000) + salt * 4_001 + attempt * 131;
            let bind = |i: u32| {
                TcpListener::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, (base + i) as u16))
            };
            bind(0).ok()?;
            let held = (1..=peers).map(bind).collect::<Result<_, _>>().ok()?;
            Some((base as Addr, held))
        })
        .expect("no free loopback port block")
}

/// The next frame on a raw connection to a daemon (the stream's read
/// timeout bounds the wait).
fn read_frame(stream: &mut TcpStream, reader: &mut FrameReader) -> Frame {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(f) = reader.next_frame().expect("a well-framed stream") {
            return f;
        }
        let n = stream
            .read(&mut chunk)
            .expect("no frame before the timeout");
        assert!(n > 0, "daemon closed the connection");
        reader.feed(&chunk[..n]);
    }
}

#[test]
fn daemon_serves_requests_while_its_own_exchange_is_in_flight() {
    // One real daemon — founding member 0 of a five-member ring — whose
    // four peers are black holes: they accept its connection and never
    // answer, so each of its turns waits out the whole RPC deadline
    // (raised to 400 ms). In the middle of such a wait the test, posing
    // as ring member 1 on a raw TCP connection, redeems a descriptor the
    // daemon created. The daemon must run that exchange at once — well
    // inside its own deadline — instead of leaving the caller unanswered
    // until its turn is over (by when a real caller has timed out and
    // spent both descriptors for nothing, §V-A).
    const N: usize = 5;
    const VIEW_LEN: usize = 4;
    const CYCLE_MS: u64 = 1000;
    const RPC_TIMEOUT_MS: u64 = 400;
    let seed = env_seed();

    // A free block of N loopback ports. The test holds 1..N as black
    // holes: listeners it never accepts from. The kernel completes the
    // daemon's connect and buffers its request; nobody ever answers.
    let (base, _holes) = port_block(0, N as u32 - 1);

    let epoch_ms = unix_ms() + 700;
    let rpc_timeout = RPC_TIMEOUT_MS.to_string();
    let _daemon = lone_founder(
        base,
        CYCLE_MS,
        epoch_ms,
        &["--rpc-timeout-ms", &rpc_timeout],
    );

    // The ring plan every founding member computes: member 1 owns one
    // descriptor created by member 0.
    let mut cfg = NodeConfig::new(base, 0);
    cfg.seed = seed;
    cfg.scheme = Scheme::KeyedHash;
    let tpc = cfg.secure.ticks_per_cycle;
    let kps: Vec<Keypair> = (0..N).map(|i| cfg.keypair_for(i)).collect();
    let addrs: Vec<Addr> = (0..N as Addr).map(|i| base + i).collect();
    let phases: Vec<u64> = (0..N).map(|i| sc_core::default_phase(i, tpc)).collect();
    let plan = sc_core::ring_bootstrap(&kps, &addrs, &phases, VIEW_LEN, tpc);
    let (daemon_kp, me) = (&kps[0], &kps[1]);
    let token = plan.per_node[1]
        .iter()
        .find(|d| d.creator() == daemon_kp.public())
        .expect("member 1 holds a descriptor of member 0");
    let redeemed = token.redeem(me, LinkKind::Redeem).unwrap();

    // The daemon's second turn fires at epoch + one cycle and then waits
    // on a black hole for RPC_TIMEOUT_MS; call 100 ms into that wait.
    let call_at = epoch_ms + CYCLE_MS + 100;
    let mut stream = dial(base, call_at - 50);
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(call_at.saturating_sub(unix_ms())));

    let cycle = plan.start_cycle + (unix_ms() - epoch_ms) / CYCLE_MS;
    let fresh = SecureDescriptor::create(me, base + 1, Timestamp(cycle * tpc + phases[1]))
        .transfer(me, daemon_kp.public())
        .unwrap();
    let msg = SecureMsg::Request(Box::new(RequestBody {
        redeemed,
        fresh,
        offered: Vec::new(),
        samples: Vec::new(),
        proofs: Vec::new(),
    }));
    let mut payload = Vec::new();
    wire::encode_message(&msg, &mut payload);
    let mut request = Frame::new(FrameKind::Request, base + 1, payload);
    request.req_id = 77;

    let sent = Instant::now();
    stream.write_all(&request.encode()).unwrap();
    let reply = read_frame(&mut stream, &mut FrameReader::new(1 << 20));
    let latency = sent.elapsed();
    println!("answered mid-exchange after {latency:?}");

    // Scraped straight after: the daemon's own exchange is still out.
    let status = ControlClient::connect(base, Duration::from_millis(500))
        .and_then(|mut c| c.status(Duration::from_secs(2)))
        .expect("status scrape");

    assert_eq!((reply.kind, reply.req_id), (FrameKind::Reply, 77));
    let answer = wire::decode_message(&reply.payload, tpc).expect("a decodable answer");
    let SecureMsg::Accept(accept) = answer else {
        panic!("the exchange was refused: {answer:?}");
    };
    assert_eq!(accept.transfers.len(), 1, "tit-for-tat: one transfer first");
    assert!(
        latency < Duration::from_millis(150),
        "answered after {latency:?}: deaf while waiting on its own {RPC_TIMEOUT_MS} ms RPC"
    );
    assert_eq!(status.stats.answered, 1);
    assert_eq!(status.stats.completed, 0, "black holes never answer");
    assert_eq!(
        status.stats.initiated,
        status.stats.timeouts + 1,
        "the call was served while the daemon's own exchange was in flight"
    );
}

#[test]
fn join_ping_after_the_turn_is_granted_at_the_next_turn() {
    // §V-A rejoin: a starved node pings members for a sponsorship, and a
    // grant costs the sponsor its cycle's fresh-descriptor budget. A ping
    // that arrives after the sponsor's turn for the cycle finds that
    // budget spent. The daemon used to answer such a ping with nothing —
    // so only members whose turn was still ahead ever answered. It must
    // hold the ping and grant it right before its next turn.
    //
    // One real daemon, founding member 0 of a five-ring whose other
    // members are black holes; the test, a stranger at `base + 5`, pings
    // it 100 ms after its second turn and listens for the grant.
    const N: usize = 5;
    const CYCLE_MS: u64 = 400;
    let (base, mut held) = port_block(2, N as u32);
    let me_sock = held.pop().expect("the pinger's own listener");
    let me_addr = base + N as Addr;
    let me = Keypair::from_seed(Scheme::KeyedHash, [0xA7; 32]);

    let epoch_ms = unix_ms() + 500;
    let _daemon = lone_founder(base, CYCLE_MS, epoch_ms, &[]);

    // Member 0's phase is 0: its turns fire on the cycle boundaries.
    let ping_at = epoch_ms + CYCLE_MS + 100;
    let mut stream = dial(base, ping_at - 50);
    stream.set_nodelay(true).unwrap();
    std::thread::sleep(Duration::from_millis(ping_at.saturating_sub(unix_ms())));
    let ping = SecureMsg::JoinPing(Box::new(sc_core::JoinPingBody {
        joiner: me.public(),
    }));
    let mut payload = Vec::new();
    wire::encode_message(&ping, &mut payload);
    stream
        .write_all(&Frame::new(FrameKind::Oneway, me_addr, payload).encode())
        .unwrap();
    let pinged = Instant::now();

    // The grant is a one-way of the daemon's own: it dials the pinger.
    me_sock.set_nonblocking(true).unwrap();
    let deadline = pinged + Duration::from_millis(2 * CYCLE_MS);
    let mut answer = loop {
        match me_sock.accept() {
            Ok((s, _)) => break s,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Err(_) => panic!("a ping after the turn got no answer within two cycles"),
        }
    };
    answer.set_nonblocking(false).unwrap();
    answer
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let frame = read_frame(&mut answer, &mut FrameReader::new(1 << 20));
    println!("granted {:?} after the ping", pinged.elapsed());
    assert_eq!((frame.kind, frame.from), (FrameKind::Oneway, base));
    let tpc = NodeConfig::new(base, 0).secure.ticks_per_cycle;
    let msg = wire::decode_message(&frame.payload, tpc).expect("a decodable one-way");
    let SecureMsg::JoinGrant(grant) = msg else {
        panic!("expected a sponsorship, got {msg:?}");
    };
    assert_eq!(grant.descriptor.owner(), me.public());
    assert_eq!(grant.descriptor.chain().len(), 1, "fresh, handed over once");
    grant.descriptor.verify().expect("a valid sponsorship");

    // The grant spent the next cycle's budget instead of an exchange:
    // still one creation per period.
    let status = ControlClient::connect(base, Duration::from_millis(500))
        .and_then(|mut c| c.status(Duration::from_secs(2)))
        .expect("status scrape");
    assert_eq!(status.stats.rejoin_grants, 1);
}

#[test]
fn join_ping_under_a_blacklisted_key_is_never_held() {
    // A join ping that finds this cycle's budget spent is held for the
    // next turn — eight of them at most, one a key, from peers nobody has
    // authenticated. A key the node holds a proof against gets no grant,
    // and must not take a slot either: eight culprits pinging after the
    // turn would otherwise crowd out the stranger pinging beside them.
    //
    // One real daemon, founding member 0 of a five-ring of black holes.
    // The test floods it frequency proofs against eight culprits, then,
    // 100 ms after its second turn, pings under every culprit's key and
    // a stranger's, and listens at `base + 5` for the grants.
    const N: usize = 5;
    const CYCLE_MS: u64 = 400;
    let (base, mut held) = port_block(3, N as u32);
    let me_sock = held.pop().expect("the pinger's own listener");
    let me_addr = base + N as Addr;
    let epoch_ms = unix_ms() + 500;
    let _daemon = lone_founder(base, CYCLE_MS, epoch_ms, &[]);
    let tpc = NodeConfig::new(base, 0).secure.ticks_per_cycle;

    let culprits: Vec<Keypair> = (0..8u8)
        .map(|i| Keypair::from_seed(Scheme::KeyedHash, [0xC0 + i; 32]))
        .collect();
    let stranger = Keypair::from_seed(Scheme::KeyedHash, [0x57; 32]);
    let mut frames = Vec::new();
    for culprit in &culprits {
        let proof = sc_core::ViolationProof::frequency(
            SecureDescriptor::create(culprit, base + 9, Timestamp(0)),
            SecureDescriptor::create(culprit, base + 9, Timestamp(tpc / 2)),
            tpc,
        )
        .expect("two creations inside one period");
        let mut payload = Vec::new();
        wire::encode_message(&SecureMsg::Proof(proof), &mut payload);
        frames.extend(Frame::new(FrameKind::Oneway, base + 1, payload).encode());
    }
    for joiner in culprits.iter().chain([&stranger]) {
        frames.extend(join_ping(me_addr, joiner.public()));
    }

    // Member 0's phase is 0: its turns fire on the cycle boundaries.
    let ping_at = epoch_ms + CYCLE_MS + 100;
    let mut stream = dial(base, ping_at - 50);
    std::thread::sleep(Duration::from_millis(ping_at.saturating_sub(unix_ms())));
    stream.write_all(&frames).unwrap();

    // The stranger was held, so it is granted at the next turn.
    me_sock.set_nonblocking(true).unwrap();
    let deadline = Instant::now() + Duration::from_millis(2 * CYCLE_MS);
    let mut answer = loop {
        match me_sock.accept() {
            Ok((s, _)) => break s,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Err(_) => panic!("the stranger's ping was crowded out: no grant within two cycles"),
        }
    };
    answer.set_nonblocking(false).unwrap();
    answer
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let frame = read_frame(&mut answer, &mut FrameReader::new(1 << 20));
    let msg = wire::decode_message(&frame.payload, tpc).expect("a decodable one-way");
    let SecureMsg::JoinGrant(grant) = msg else {
        panic!("expected a sponsorship, got {msg:?}");
    };
    assert_eq!(
        grant.descriptor.owner(),
        stranger.public(),
        "the sponsorship went to a blacklisted key"
    );
    assert_eq!(grant.proofs.len(), culprits.len(), "every proof it holds");

    // Three more turns: no culprit is ever granted.
    std::thread::sleep(Duration::from_millis(3 * CYCLE_MS));
    assert_eq!(
        frames_of(&mut answer, FrameKind::Oneway),
        0,
        "a blacklisted key was sponsored"
    );
    let status = ControlClient::connect(base, Duration::from_millis(500))
        .and_then(|mut c| c.status(Duration::from_secs(2)))
        .expect("status scrape");
    assert_eq!(status.blacklist.len(), culprits.len());
    assert_eq!(status.stats.rejoin_grants, 1);

    // Each proof was flooded to the node's neighbours as it was learned:
    // a black hole it named got eight proof frames, one a proof, in the
    // order the proofs came in.
    let flooded: Vec<Vec<PublicKey>> = held
        .iter()
        .map(|hole| proofs_written_to(hole, tpc))
        .filter(|proofs| !proofs.is_empty())
        .collect();
    assert!(!flooded.is_empty(), "no neighbour was sent a proof");
    let learned: Vec<PublicKey> = culprits.iter().map(Keypair::public).collect();
    for proofs in flooded {
        assert_eq!(proofs, learned, "eight proofs, in learning order");
    }
}

/// The culprits of the proofs the daemon wrote, one-way, on every
/// connection it opened to the peer `hole` plays, in writing order. Every
/// one-way frame must decode.
fn proofs_written_to(hole: &TcpListener, tpc: u64) -> Vec<PublicKey> {
    hole.set_nonblocking(true).unwrap();
    let mut culprits = Vec::new();
    while let Ok((mut stream, _)) = hole.accept() {
        stream.set_nonblocking(false).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut reader = FrameReader::new(1 << 20);
        let mut chunk = [0u8; 4096];
        loop {
            while let Some(f) = reader.next_frame().expect("a well-framed stream") {
                if f.kind != FrameKind::Oneway {
                    continue;
                }
                let msg = wire::decode_message(&f.payload, tpc).expect("a decodable one-way");
                if let SecureMsg::Proof(proof) = msg {
                    culprits.push(proof.culprit());
                }
            }
            match stream.read(&mut chunk) {
                Ok(n) if n > 0 => reader.feed(&chunk[..n]),
                _ => break,
            }
        }
    }
    culprits
}

#[test]
fn loopback_crash_restart_recovers_from_state_dir() {
    let seed = env_seed();
    let replay = replay_line(seed, "");
    println!("replay: {replay}");

    let n = 12;
    let mut cfg = ClusterConfig::quick(n, seed);
    // Slow cycles so the kill → respawn window fits inside one descriptor
    // period with margin: an amnesiac replacement would re-emit a fresh
    // descriptor for a period it already served, handing every peer a
    // frequency-violation proof against an honest node. The durable
    // emission marker is what makes the assertions below hold.
    cfg.cycle_ms = 500;
    let state_dir =
        std::env::temp_dir().join(format!("sc-loopback-state-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&state_dir).expect("create state dir");
    let start = cfg.view_len as u64;
    let stop = start + 16;
    cfg.stop_cycle = stop;
    let view_len = cfg.view_len;
    let cfg = cfg.with_state_dir(&state_dir);
    let mut cluster = ProcessCluster::launch(bin(), cfg).expect("spawn cluster");
    let base = cluster.addrs()[0];

    assert!(
        cluster.wait_cycle(start + 2, Duration::from_secs(30)),
        "cluster never started gossiping\n  replay: {replay}"
    );

    let victim = base + (n as Addr) - 1;
    let mut pre: Option<StatusReport> = None;
    let mut post: Option<StatusReport> = None;

    let out = drive(
        &mut cluster,
        "loopback-restart",
        stop,
        view_len,
        &replay,
        |cluster, cycle| {
            if pre.is_none() && cycle >= start + 6 {
                // Scrape the victim's live state, `kill -9` it mid-cycle,
                // and respawn it on the same address from the state dir.
                let before = cluster.status_of(victim).expect("victim alive pre-kill");
                let kill_at = Instant::now();
                assert!(
                    cluster.restart(victim).expect("restart victim"),
                    "victim vanished before the kill"
                );
                // First answer after respawn: recovery happens at boot, so
                // the very first report already shows the reloaded state.
                let deadline = Instant::now() + Duration::from_secs(10);
                let after = loop {
                    if let Some(r) = cluster.status_of(victim) {
                        break r;
                    }
                    assert!(
                        Instant::now() < deadline,
                        "restarted daemon never answered control scrapes\n  replay: {replay}"
                    );
                    std::thread::sleep(Duration::from_millis(50));
                };
                println!(
                    "restart window (kill → recovered control answer): {} ms",
                    kill_at.elapsed().as_millis()
                );
                pre = Some(before);
                post = Some(after);
            }
        },
    );

    let pre = pre.expect("restart fired");
    let post = post.expect("restart fired");

    // Identity and membership survived the kill: same key, still joined.
    assert_eq!(
        pre.id, post.id,
        "identity lost across restart\n  replay: {replay}"
    );
    assert!(
        post.joined,
        "restarted daemon did not come back a member\n  replay: {replay}"
    );
    // So did its chain state — nearly always a non-empty view. The
    // checkpoint is as old as the victim's last turn, though, and now and
    // then passive exchanges have signed every checkpointed descriptor
    // away since: the recovered view is then empty *because* the spent
    // guard survived, and the daemon pings its way back in (§V-A; pinned
    // in `restart_with_a_wholly_spent_view_pings_its_way_back_in`). The
    // "never gossiped again" assertion below covers that path here.
    let viewless = post.view.is_empty();
    if viewless {
        println!("recovered a wholly spent view; rejoining by ping");
    }
    // When the first control answer beat the reborn daemon's first
    // exchange, its view is exactly the recovered checkpoint: it must
    // share token identities with the pre-kill holdings — an amnesiac
    // replacement would either come up viewless or re-install the
    // long-since-transferred bootstrap slice. Once gossip has resumed
    // (possible under debug-build timing), a single exchange can
    // legitimately turn over the whole recovery-trimmed view, so the
    // survived log itself is audited below instead.
    let gossiped = post.stats.initiated + post.stats.answered > 0;
    // A victim killed starved held nothing to compare with: passive
    // exchanges had spent every checkpointed descriptor, and its last turn
    // sent a §V-A rejoin ping, whose grant can reach the reborn daemon
    // before the first scrape — its view then holds the granted
    // descriptor alone.
    let starved = pre.view.is_empty() && pre.reserve.is_empty();
    let overlap = if gossiped || viewless || starved {
        println!("no pristine recovered view in the first scrape; auditing the log only");
        usize::MAX
    } else {
        let held_before: Vec<_> = pre
            .view
            .iter()
            .map(|(d, _)| d.id())
            .chain(pre.reserve.iter().map(|d| d.id()))
            .collect();
        let overlap = post
            .view
            .iter()
            .map(|(d, _)| d.id())
            .chain(post.reserve.iter().map(|d| d.id()))
            .filter(|id| held_before.contains(id))
            .count();
        assert!(
            overlap > 0,
            "recovered view shares no descriptor with the pre-kill state\n  replay: {replay}"
        );
        overlap
    };

    // The survived log replays on its own (the processes are dead by now,
    // so the fold sees exactly what the daemon left): the emission marker
    // and a non-trivial chain checkpoint must both be there — the two
    // things whose loss would make the reborn daemon provably Byzantine.
    let log = state_dir.join(format!("sc-node-{victim}.log"));
    let log_len = std::fs::metadata(&log).map(|m| m.len()).unwrap_or(0);
    assert!(
        log_len > 0,
        "state log {} is missing or empty",
        log.display()
    );
    let mut backend = sc_core::FileBackend::open(&log).expect("reopen survived log");
    let recovered = sc_core::StateBackend::load(
        &mut backend,
        sc_core::SecureConfig::default().ticks_per_cycle,
        &wire::WireLimits::DEFAULT,
    )
    .expect("fold survived log")
    .expect("survived log holds state");
    assert!(
        recovered.emitted_cycle.is_some(),
        "no durable emission marker in the survived log\n  replay: {replay}"
    );
    assert!(
        !recovered.view.is_empty(),
        "no durable view checkpoint in the survived log\n  replay: {replay}"
    );

    // Full oracle suite on the quiescent end state, at full strength.
    let snap = &out.final_snap;
    assert_eq!(snap.nodes.len(), n, "final membership\n  replay: {replay}");
    check_final(snap, "loopback-restart", seed, view_len, 0.85, &replay);

    // The heart of the bugfix: restarting an honest daemon mid-period must
    // not make a frequency (or cloning) violation provable against it.
    // Nobody generated or learned a proof, and every blacklist is empty.
    for r in &out.reports {
        assert_eq!(
            r.stats.proofs_generated_frequency, 0,
            "node {} proved a frequency violation in an honest run\n  replay: {replay}",
            r.addr
        );
        assert_eq!(
            r.stats.proofs_generated_cloning, 0,
            "node {} proved cloning in an honest run\n  replay: {replay}",
            r.addr
        );
        assert_eq!(
            r.stats.proofs_received, 0,
            "node {} learned a proof in an honest run\n  replay: {replay}",
            r.addr
        );
    }
    for nd in &snap.nodes {
        assert!(
            nd.blacklist.is_empty(),
            "node {} blacklisted someone after an honest restart\n  replay: {replay}",
            nd.addr
        );
    }

    // The reborn process kept gossiping (its counters restart at zero, so
    // any activity here is strictly post-restart).
    let reborn = out
        .reports
        .iter()
        .find(|r| r.addr == victim)
        .expect("victim report");
    assert!(
        reborn.stats.initiated > 0,
        "restarted daemon never gossiped again\n  replay: {replay}"
    );

    println!(
        "loopback-restart: {n} nodes, {} scrapes, victim {victim} recovered \
         {} view entries ({} overlapping pre-kill), log {log_len} B",
        out.scrapes,
        post.view.len(),
        if gossiped || viewless {
            "n/a".to_string()
        } else {
            overlap.to_string()
        },
    );
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn a_joiner_restarted_before_its_first_turn_joins_again() {
    // `ProcessCluster::restart` used to respawn every member as a
    // founder: a joiner came back without `--sponsor` and with an index
    // past `--cluster-size`, and — its log still empty — died at boot on
    // the ring bootstrap's index assertion, while `restart` said `Ok`.
    let seed = env_seed();
    let replay = replay_line(seed, "");
    let mut cfg = ClusterConfig::quick(8, seed);
    cfg.cycle_ms = 100;
    cfg.view_len = 4;
    cfg.swap_len = 2;
    let start = cfg.view_len as u64;
    let state_dir =
        std::env::temp_dir().join(format!("sc-loopback-joiner-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&state_dir).expect("create state dir");
    let mut cluster =
        ProcessCluster::launch(bin(), cfg.with_state_dir(&state_dir)).expect("spawn cluster");
    assert!(
        cluster.wait_cycle(start + 2, Duration::from_secs(20)),
        "cluster never started gossiping\n  replay: {replay}"
    );

    let sponsor = cluster.addrs()[1];
    let joiner = cluster.spawn_joiner(sponsor).expect("spawn joiner");
    assert!(cluster.restart(joiner).expect("restart the joiner"));
    let deadline = Instant::now() + Duration::from_secs(10);
    let reborn = loop {
        if let Some(r) = cluster.status_of(joiner).filter(|r| !r.view.is_empty()) {
            break r;
        }
        assert!(
            Instant::now() < deadline,
            "the restarted joiner never answered with a view\n  replay: {replay}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(reborn.joined);
    cluster.shutdown_all();
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// Voluntary context switches of process `pid` so far: each is one time
/// it went to sleep in the kernel, so one wake-up.
#[cfg(target_os = "linux")]
fn voluntary_switches(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("live process");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .expect("a Linux /proc status");
    line.trim().parse().expect("a count")
}

#[test]
#[cfg(target_os = "linux")]
fn ring_fires_every_turn_then_sleeps_when_quiescent() {
    // An event-driven daemon wakes for a frame or a deadline and for
    // nothing else. Two things follow, checked on a plain eight-member
    // ring over 40 cycles: blocking until the next turn point (instead of
    // looking at the clock every 500 µs) loses no turn, and a joined
    // member with nothing to do stays asleep — the sleep-poll loop this
    // replaced made ≈ 2 000 wake-ups a second doing nothing. (100 ms
    // cycles: the other loopback tests run some forty processes beside
    // this one on what may be two cores, and a turn is only *skipped*
    // when a member loses the processor for a whole cycle.)
    const CYCLES: u64 = 40;
    let seed = env_seed();
    let replay = replay_line(seed, "");
    let mut cfg = ClusterConfig::quick(8, seed);
    cfg.cycle_ms = 100;
    cfg.view_len = 4;
    cfg.swap_len = 2;
    let start = cfg.view_len as u64;
    cfg.stop_cycle = start + CYCLES;
    let cycle_ms = cfg.cycle_ms;
    let stop = cfg.stop_cycle;
    let mut cluster = ProcessCluster::launch(bin(), cfg).expect("spawn cluster");
    assert!(
        cluster.wait_cycle(start + 2, Duration::from_secs(30)),
        "cluster never started gossiping\n  replay: {replay}"
    );
    while cluster.wall_cycle() < stop {
        std::thread::sleep(Duration::from_millis(cycle_ms));
    }
    // Exchanges in flight at the stop boundary settle.
    std::thread::sleep(Duration::from_millis(300));

    let pids: Vec<u32> = cluster
        .addrs()
        .into_iter()
        .map(|a| cluster.pid_of(a).expect("member alive"))
        .collect();
    let before: Vec<u64> = pids.iter().map(|&p| voluntary_switches(p)).collect();
    std::thread::sleep(Duration::from_secs(2));
    for (pid, before) in pids.iter().zip(before) {
        let woke = voluntary_switches(*pid) - before;
        assert!(
            woke < 1000,
            "idle member (pid {pid}) woke {woke} times in 2 s\n  replay: {replay}"
        );
    }

    let reports = cluster.statuses();
    assert_eq!(reports.len(), 8, "a member died\n  replay: {replay}");
    for r in &reports {
        assert!(r.joined);
        assert_eq!(
            r.turns_skipped, 0,
            "node {} skipped a turn\n  replay: {replay}",
            r.addr
        );
        assert!(
            r.cycles_run >= CYCLES - 1,
            "node {} fired {} of {CYCLES} turns\n  replay: {replay}",
            r.addr,
            r.cycles_run
        );
    }
    cluster.shutdown_all();
}

#[test]
fn restart_with_a_wholly_spent_view_pings_its_way_back_in() {
    // A checkpoint is as old as the daemon's last turn; every passive
    // exchange after it signs a checkpointed descriptor away. `kill -9`
    // late in a cycle and the log can give back an identity, an emission
    // marker, a redemption cache — and an empty view (≈ 1 restart in 40
    // at ℓ=4). A founder has no sponsor to ask again; it used to sit
    // there, unjoined, for ever. It must run its turns, whose §V-A rejoin
    // ping to the creators in its redemption cache gets it sponsored.
    //
    // The log is made by hand, with the protocol core itself: founder 0
    // of a six-ring takes a turn in cycle 19 (redeeming at member 1,
    // which never answers), then serves member 1 a passive exchange that
    // costs it its only other descriptor. The daemon is then started on
    // that log in cycle 20, with this test listening as member 1.
    const N: usize = 6;
    const CYCLE_MS: u64 = 200;
    let seed = env_seed();
    let (base, mut held) = port_block(1, 1);
    let partner_sock = held.pop().expect("one peer");
    let state_dir =
        std::env::temp_dir().join(format!("sc-loopback-spent-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&state_dir).expect("create state dir");
    // The daemon's clock: cycle `view_len + 16 = 20` starts now.
    let epoch_ms = unix_ms() - 16 * CYCLE_MS;
    let args: Vec<String> = [
        ("--addr", base.to_string()),
        ("--base-addr", base.to_string()),
        ("--index", "0".into()),
        ("--cluster-size", N.to_string()),
        ("--seed", seed.to_string()),
        ("--scheme", "keyed".into()),
        ("--view-len", "4".into()),
        ("--swap-len", "2".into()),
        ("--cycle-ms", CYCLE_MS.to_string()),
        ("--epoch-millis", epoch_ms.to_string()),
        ("--state-dir", state_dir.display().to_string()),
    ]
    .into_iter()
    .flat_map(|(flag, value)| [flag.to_string(), value])
    .collect();
    let cfg = NodeConfig::parse(&args).expect("the daemon's own flags");
    let tpc = cfg.secure.ticks_per_cycle;
    let (me, partner, other) = (cfg.keypair(), cfg.keypair_for(1), cfg.keypair_for(2));

    {
        let log = state_dir.join(format!("sc-node-{base}.log"));
        let backend = Box::new(sc_core::FileBackend::open(log).expect("open log"));
        let mut node = sc_core::SecureCyclonNode::with_backend(
            me.clone(),
            base,
            cfg.secure,
            cfg.rng_seed(),
            cfg.phase(),
            backend,
        )
        .expect("fresh log");
        for (kp, addr, at) in [(&partner, base + 1, 17), (&other, base + 2, 18)] {
            let d = SecureDescriptor::create(kp, addr, Timestamp(at * tpc))
                .transfer(kp, me.public())
                .unwrap();
            assert!(node.accept_bootstrap(d));
        }
        let fx = node.step(sc_core::Input::Tick { cycle: 19 });
        let Some((_, SecureMsg::Request(sent))) = fx.rpc else {
            panic!("the turn opened no exchange");
        };
        node.step(sc_core::Input::Timeout);
        let at = 19 * tpc + tpc / 2;
        let mut fx = node.step(sc_core::Input::Request {
            from: base + 1,
            msg: SecureMsg::Request(Box::new(RequestBody {
                redeemed: sent.fresh.redeem(&partner, LinkKind::Redeem).unwrap(),
                fresh: SecureDescriptor::create(&partner, base + 1, Timestamp(at))
                    .transfer(&partner, me.public())
                    .unwrap(),
                offered: Vec::new(),
                samples: Vec::new(),
                proofs: Vec::new(),
            })),
            cycle: 19,
        });
        assert!(
            matches!(fx.reply.take(), Some(SecureMsg::Accept(a)) if a.transfers.len() == 1),
            "the passive exchange did not spend the checkpointed descriptor"
        );
    }

    let child = std::process::Command::new(bin())
        .args(&args)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn sc-node");
    let _daemon = KillOnDrop(child);

    // Member 1's side: the reborn daemon dials in with a rejoin ping.
    partner_sock.set_nonblocking(true).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut stream = loop {
        match partner_sock.accept() {
            Ok((s, _)) => break s,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("the restarted daemon never pinged anyone: {e}"),
        }
    };
    stream.set_nonblocking(false).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let ping = read_frame(&mut stream, &mut FrameReader::new(1 << 20));
    assert_eq!((ping.kind, ping.from), (FrameKind::Oneway, base));
    let msg = wire::decode_message(&ping.payload, tpc).expect("a decodable one-way");
    let SecureMsg::JoinPing(body) = msg else {
        panic!("expected a rejoin ping, got {msg:?}");
    };
    assert_eq!(body.joiner, me.public());

    let scrape = || {
        ControlClient::connect(base, Duration::from_millis(500))
            .and_then(|mut c| c.status(Duration::from_secs(2)))
            .expect("status scrape")
    };
    let status = scrape();
    assert!(status.joined, "a recovered founder is a member");
    assert!(status.cycles_run >= 1 && status.stats.rejoin_pings >= 1);
    assert!(status.view.is_empty(), "nothing sponsored it yet");

    // Sponsor it, as a pinged member would: the view fills again.
    let now = (status.cycle + 1) * tpc;
    let grant = SecureMsg::JoinGrant(Box::new(sc_core::JoinGrantBody {
        descriptor: SecureDescriptor::create(&partner, base + 1, Timestamp(now))
            .transfer(&partner, me.public())
            .unwrap(),
        proofs: Vec::new(),
    }));
    let mut payload = Vec::new();
    wire::encode_message(&grant, &mut payload);
    stream
        .write_all(&Frame::new(FrameKind::Oneway, base + 1, payload).encode())
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while scrape().view.is_empty() {
        assert!(
            Instant::now() < deadline,
            "the grant never reached the view"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
#[ignore = "multi-minute soak; run via CI node-integration or with -- --ignored"]
fn loopback_soak_under_churn() {
    let seed = env_seed();
    let replay = replay_line(seed, " --ignored");
    println!("replay: {replay}");

    let cycles: u64 = std::env::var("SC_SOAK_CYCLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(220)
        .max(100);
    let n = 20;
    let mut cfg = ClusterConfig::quick(n, seed);
    let start = cfg.view_len as u64;
    let stop = start + cycles;
    cfg.stop_cycle = stop;
    let view_len = cfg.view_len;
    let cycle_ms = cfg.cycle_ms;
    let mut cluster = ProcessCluster::launch(bin(), cfg).expect("spawn cluster");
    let base = cluster.addrs()[0];

    assert!(
        cluster.wait_cycle(start + 4, Duration::from_secs(20)),
        "cluster never started gossiping\n  replay: {replay}"
    );

    // Three churn waves spread across the run: kill a member, rejoin a
    // fresh identity through a §V-A sponsorship.
    let sponsor = base + 1;
    let mut waves: Vec<u64> = (1..=3).map(|i| start + i * cycles / 4).collect();
    let mut victims: Vec<Addr> = (0..3).map(|i| base + (n as Addr) - 1 - i).collect();
    let started = Instant::now();

    let out = drive(
        &mut cluster,
        "loopback-soak",
        stop,
        view_len,
        &replay,
        |cluster, cycle| {
            if waves.first().is_some_and(|&w| cycle >= w) {
                waves.remove(0);
                let victim = victims.pop().expect("victim list");
                if cluster.kill(victim) {
                    cluster
                        .spawn_joiner(sponsor)
                        .expect("rejoin via sponsorship");
                }
            }
        },
    );
    let elapsed = started.elapsed().as_secs_f64();

    let snap = &out.final_snap;
    assert_eq!(
        snap.nodes.len(),
        n,
        "kills balanced by rejoins\n  replay: {replay}"
    );
    check_final(snap, "loopback-soak", seed, view_len, 0.85, &replay);

    // No fault spec was configured, so every injected-fault counter must
    // read zero — a nonzero here means the injection layer fired on a
    // clean network. Likewise nobody starved, so no §V-A rejoin pings.
    // (`retransmits`/`turns_skipped` are NOT asserted: lost RPCs and a
    // busy scheduler produce both legitimately on a clean run.)
    for r in &out.reports {
        for (counter, v) in [
            (
                "frames_dropped_injected",
                r.transport.frames_dropped_injected,
            ),
            ("frames_delayed", r.transport.frames_delayed),
            ("frames_duplicated", r.transport.frames_duplicated),
            ("rejoin_pings", r.stats.rejoin_pings),
        ] {
            assert_eq!(
                v, 0,
                "node {}: {counter} = {v} on a clean network\n  replay: {replay}",
                r.addr
            );
        }
    }

    // ---- measured soak numbers (ROADMAP anchors) ----------------------
    // Founders that survived the whole run fired nearly every cycle.
    for r in &out.reports {
        let is_surviving_founder = r.addr < base + n as Addr;
        if is_surviving_founder {
            assert!(
                r.cycles_run >= cycles * 7 / 10,
                "founder {} fired only {} of {cycles} cycles\n  replay: {replay}",
                r.addr,
                r.cycles_run,
            );
        }
    }
    let (ok, initiated) = snap.nodes.iter().fold((0, 0), |(c, i), nd| {
        (c + nd.stats.completed, i + nd.stats.initiated)
    });
    let completion = ok as f64 / initiated.max(1) as f64;
    assert!(
        completion >= 0.6,
        "soak completion {completion:.2} below floor\n  replay: {replay}"
    );

    // Connection pressure: the soak exercises a multi-hundred-connection
    // footprint across the fleet over its lifetime.
    let peak_conns: u64 = out.reports.iter().map(|r| r.transport.peak_conns).sum();
    assert!(
        peak_conns >= 100,
        "aggregate peak connections {peak_conns} below soak floor\n  replay: {replay}"
    );

    // Bytes accounting: the paper's §VI-A size model (stats.bytes_sent)
    // versus what actually crossed the framed TCP sockets.
    let mut paper_per_cycle = sc_metrics::Histogram::new();
    for r in &out.reports {
        paper_per_cycle.record(r.stats.bytes_sent / r.cycles_run.max(1));
    }
    let paper_total: u64 = out.reports.iter().map(|r| r.stats.bytes_sent).sum();
    let framed_total: u64 = out.reports.iter().map(|r| r.transport.bytes_out).sum();
    let overhead = framed_total as f64 / paper_total.max(1) as f64;
    let cycles_per_sec = cycles as f64 / elapsed;
    println!(
        "loopback-soak: {n} nodes, {cycles} cycles at {cycle_ms} ms \
         ({cycles_per_sec:.1} cycles/s wall), completion {completion:.2}, \
         aggregate peak conns {peak_conns}, paper bytes/cycle mean {:.0} \
         (p90 {}), framed/paper byte ratio {overhead:.2}, {} scrapes",
        paper_per_cycle.mean(),
        paper_per_cycle.quantile(0.9).unwrap_or(0),
        out.scrapes,
    );
    for line in &out.summaries {
        println!("  {line}");
    }
    assert_eq!(out.summaries.len(), n);
}
