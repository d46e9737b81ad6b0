//! Real-process loopback clusters: spawn, scrape, churn, and stop a
//! fleet of `sc-node` daemons on 127.0.0.1.
//!
//! This is the live-cluster counterpart of [`crate::net`]: instead of
//! nodes inside one engine, each member is an OS process speaking the
//! daemon's framed TCP protocol, and state is scraped over the control
//! socket into [`NetSnapshot`]s that the very same [`crate::oracles`]
//! audit. The harness owns process lifecycle — members are killed on
//! drop, so a panicking test cannot leak daemons.
//!
//! Everything is parameterized by one seed (the `SC_SEED` of the replay
//! lines), which fixes the key schedule, the port search, and the
//! protocol RNG of every member — the moral equivalent of the scenario
//! matrix's replay coordinates for a wall-clock-driven cluster.

use crate::snapshot::NetSnapshot;
use sc_node::{ControlClient, StatusReport};
use sc_sim::Addr;
use std::collections::BTreeMap;
use std::io::Read;
use std::net::{Ipv4Addr, SocketAddrV4, TcpListener};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Sizing and timing for a loopback cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Founding members (ring bootstrap).
    pub n: usize,
    /// Cluster seed: key schedule, RNG, and port search derive from it.
    pub seed: u64,
    /// Wall-clock gossip period per member.
    pub cycle_ms: u64,
    /// View size ℓ.
    pub view_len: usize,
    /// Gossip length g.
    pub swap_len: usize,
    /// Signature scheme flag value (`keyed` or `schnorr`).
    pub scheme: &'static str,
    /// Per-RPC reply deadline.
    pub rpc_timeout_ms: u64,
    /// Shared-clock cycle at which members stop gossiping and linger for
    /// quiescent scraping (`0` = run until shutdown).
    pub stop_cycle: u64,
    /// How far in the future the shared epoch starts (start-up slack for
    /// process spawning).
    pub start_delay_ms: u64,
    /// Durable-state directory passed to every member as `--state-dir`.
    /// Required for [`ProcessCluster::restart`]: a killed member's
    /// replacement recovers from `<dir>/sc-node-<addr>.log`.
    pub state_dir: Option<PathBuf>,
    /// Fault spec every member boots with (`--fault-spec`). `None` spawns
    /// clean; [`ProcessCluster::broadcast_fault`] can still inject faults
    /// mid-run over the control channel.
    pub fault_spec: Option<sc_core::FaultSpec>,
}

impl ClusterConfig {
    /// A quick-tier sizing: `n` members, 50 ms cycles, small views, and
    /// the fast keyed-hash scheme.
    pub fn quick(n: usize, seed: u64) -> ClusterConfig {
        ClusterConfig {
            n,
            seed,
            cycle_ms: 50,
            view_len: 6,
            swap_len: 3,
            scheme: "keyed",
            rpc_timeout_ms: 40,
            stop_cycle: 0,
            start_delay_ms: 800,
            state_dir: None,
            fault_spec: None,
        }
    }

    /// Runs every member with durable state under `dir`.
    pub fn with_state_dir(mut self, dir: impl Into<PathBuf>) -> ClusterConfig {
        self.state_dir = Some(dir.into());
        self
    }

    /// Boots every member with `spec` already installed.
    pub fn with_fault_spec(mut self, spec: sc_core::FaultSpec) -> ClusterConfig {
        self.fault_spec = Some(spec);
        self
    }
}

/// A fleet of live `sc-node` processes.
pub struct ProcessCluster {
    bin: PathBuf,
    cfg: ClusterConfig,
    base_addr: Addr,
    epoch_ms: u64,
    start_cycle: u64,
    members: BTreeMap<Addr, Child>,
    /// The sponsor each joiner was spawned with: a restart respawns it
    /// as the joiner it is, not as a founder it is not.
    sponsors: BTreeMap<Addr, Addr>,
    next_index: usize,
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn port_free(port: Addr) -> bool {
    TcpListener::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, port as u16)).is_ok()
}

impl ProcessCluster {
    /// Spawns `cfg.n` founding members of a fresh cluster.
    ///
    /// The base port is searched deterministically from the seed, probing
    /// until a contiguous block of `n + 32` loopback ports binds cleanly.
    /// The PID is folded in so concurrent test processes diverge, and a
    /// process-wide launch counter so concurrent launches *within* one
    /// process do: tests of one binary run on parallel threads with the
    /// same default seed, and two of them probing the same block at the
    /// same moment both find it free, then race their children's `bind`.
    ///
    /// # Errors
    ///
    /// No free port block, or a spawn failure.
    pub fn launch(bin: impl Into<PathBuf>, cfg: ClusterConfig) -> std::io::Result<ProcessCluster> {
        static LAUNCHES: AtomicU64 = AtomicU64::new(0);
        let launch = LAUNCHES.fetch_add(1, Ordering::Relaxed);
        let bin = bin.into();
        let want = cfg.n + 32;
        let mut base = 0;
        for attempt in 0..64u64 {
            let h = cfg
                .seed
                .wrapping_mul(0x9e37_79b9)
                .wrapping_add(std::process::id() as u64)
                .wrapping_add(launch.wrapping_mul(7919))
                .wrapping_add(attempt.wrapping_mul(977));
            let candidate = 21_000 + (h % 40_000) as Addr;
            if (candidate..candidate + want as Addr).all(port_free) {
                base = candidate;
                break;
            }
        }
        if base == 0 {
            return Err(std::io::Error::other("no free loopback port block"));
        }
        let epoch_ms = unix_ms() + cfg.start_delay_ms;
        let mut cluster = ProcessCluster {
            bin,
            base_addr: base,
            epoch_ms,
            start_cycle: cfg.view_len as u64,
            members: BTreeMap::new(),
            sponsors: BTreeMap::new(),
            next_index: cfg.n,
            cfg,
        };
        for i in 0..cluster.cfg.n {
            let addr = base + i as Addr;
            let child = cluster.spawn(addr, i, None)?;
            cluster.members.insert(addr, child);
        }
        Ok(cluster)
    }

    fn spawn(&self, addr: Addr, index: usize, sponsor: Option<Addr>) -> std::io::Result<Child> {
        let c = &self.cfg;
        let mut cmd = Command::new(&self.bin);
        cmd.args(["--addr", &addr.to_string()])
            .args(["--seed", &c.seed.to_string()])
            .args(["--index", &index.to_string()])
            .args(["--cycle-ms", &c.cycle_ms.to_string()])
            .args(["--epoch-millis", &self.epoch_ms.to_string()])
            .args(["--view-len", &c.view_len.to_string()])
            .args(["--swap-len", &c.swap_len.to_string()])
            .args(["--scheme", c.scheme])
            .args(["--rpc-timeout-ms", &c.rpc_timeout_ms.to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if c.stop_cycle > 0 {
            cmd.args(["--stop-cycle", &c.stop_cycle.to_string()]);
        }
        if let Some(dir) = &c.state_dir {
            cmd.arg("--state-dir").arg(dir);
        }
        if let Some(spec) = &c.fault_spec {
            cmd.args(["--fault-spec", &spec.to_string()]);
        }
        match sponsor {
            Some(s) => {
                cmd.args(["--sponsor", &s.to_string()]);
            }
            None => {
                cmd.args(["--cluster-size", &c.n.to_string()])
                    .args(["--base-addr", &self.base_addr.to_string()]);
            }
        }
        cmd.spawn()
    }

    /// Addresses of members the harness has not killed.
    pub fn addrs(&self) -> Vec<Addr> {
        self.members.keys().copied().collect()
    }

    /// The OS process behind a live member (for `/proc/<pid>` readings).
    pub fn pid_of(&self, addr: Addr) -> Option<u32> {
        self.members.get(&addr).map(Child::id)
    }

    /// The cluster seed (for replay lines).
    pub fn seed(&self) -> u64 {
        self.cfg.seed
    }

    /// The wall-clock gossip period.
    pub fn cycle(&self) -> Duration {
        Duration::from_millis(self.cfg.cycle_ms)
    }

    /// The shared-clock cycle the cluster is currently in.
    pub fn wall_cycle(&self) -> u64 {
        self.start_cycle + unix_ms().saturating_sub(self.epoch_ms) / self.cfg.cycle_ms
    }

    /// Scrapes one member's status.
    pub fn status_of(&self, addr: Addr) -> Option<StatusReport> {
        let timeout = Duration::from_millis(500);
        let mut client = ControlClient::connect(addr, timeout).ok()?;
        client.status(timeout).ok()
    }

    /// Scrapes every live member, skipping any that fail to answer.
    pub fn statuses(&self) -> Vec<StatusReport> {
        self.addrs()
            .into_iter()
            .filter_map(|a| self.status_of(a))
            .collect()
    }

    /// Scrapes every live member into a snapshot; `None` unless *all*
    /// members answered (partial snapshots would fake ownership holes).
    pub fn snapshot(&self) -> Option<NetSnapshot> {
        let addrs = self.addrs();
        let reports: Vec<StatusReport> = addrs.iter().filter_map(|&a| self.status_of(a)).collect();
        (reports.len() == addrs.len()).then(|| NetSnapshot::from_reports(reports))
    }

    /// Reconfigures one member's fault injection over the control channel.
    /// The daemon installs the new spec at its next cycle boundary, so no
    /// gossip cycle straddles two specs. Control frames themselves are
    /// exempt from injection, so this works even through a full partition.
    pub fn set_fault(&self, addr: Addr, spec: &sc_core::FaultSpec) -> bool {
        let timeout = Duration::from_millis(500);
        let Ok(mut client) = ControlClient::connect(addr, timeout) else {
            return false;
        };
        client.set_fault(spec, timeout).is_ok()
    }

    /// [`Self::set_fault`] for every live member; returns how many acked.
    pub fn broadcast_fault(&self, spec: &sc_core::FaultSpec) -> usize {
        self.addrs()
            .into_iter()
            .filter(|&a| self.set_fault(a, spec))
            .count()
    }

    /// Waits until every member reports `joined` and a cycle ≥ `cycle`,
    /// or the deadline passes. Returns whether the cluster got there.
    pub fn wait_cycle(&self, cycle: u64, deadline: Duration) -> bool {
        let until = Instant::now() + deadline;
        while Instant::now() < until {
            let reports = self.statuses();
            if reports.len() == self.members.len()
                && reports.iter().all(|r| r.joined && r.cycle >= cycle)
            {
                return true;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        false
    }

    /// Kills one member outright (no goodbye — real churn).
    pub fn kill(&mut self, addr: Addr) -> bool {
        let Some(mut child) = self.members.remove(&addr) else {
            return false;
        };
        let _ = child.kill();
        let _ = child.wait();
        true
    }

    /// `kill -9`s one member and respawns it on the same address with the
    /// same identity index — a joiner with the same sponsor, so one whose
    /// log holds nothing yet asks to join again. With a
    /// [`ClusterConfig::state_dir`] the replacement recovers its view,
    /// blacklist, and emission marker from the survived log; without one
    /// it comes back amnesiac (which is exactly the self-incrimination bug
    /// the durable backends fix).
    ///
    /// # Errors
    ///
    /// Spawn failure, or the port not freeing up after the kill.
    pub fn restart(&mut self, addr: Addr) -> std::io::Result<bool> {
        if !self.kill(addr) {
            return Ok(false);
        }
        // The dead process's listener can linger briefly; wait for the
        // kernel to release the port before respawning on it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !port_free(addr) {
            if Instant::now() >= deadline {
                return Err(std::io::Error::other("port still bound after kill"));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let index = (addr - self.base_addr) as usize;
        let child = self.spawn(addr, index, self.sponsors.get(&addr).copied())?;
        self.members.insert(addr, child);
        Ok(true)
    }

    /// Spawns a joiner that enters through `sponsor`: it pings the sponsor
    /// until the sponsor's node grants it a §V-A sponsorship.
    /// The joiner gets the next fresh identity index and the next free
    /// port above the founders' block.
    ///
    /// # Errors
    ///
    /// Spawn failures or no free port.
    pub fn spawn_joiner(&mut self, sponsor: Addr) -> std::io::Result<Addr> {
        for _ in 0..32 {
            let index = self.next_index;
            self.next_index += 1;
            let addr = self.base_addr + index as Addr;
            if !port_free(addr) {
                continue;
            }
            let child = self.spawn(addr, index, Some(sponsor))?;
            self.members.insert(addr, child);
            self.sponsors.insert(addr, sponsor);
            return Ok(addr);
        }
        Err(std::io::Error::other("no free joiner port"))
    }

    /// Sends every member a shutdown frame, waits for the processes to
    /// exit, and returns their stdout summaries (one line per member).
    pub fn shutdown_all(&mut self) -> Vec<String> {
        for addr in self.addrs() {
            if let Ok(mut client) = ControlClient::connect(addr, Duration::from_millis(500)) {
                let _ = client.shutdown();
            }
        }
        let mut summaries = Vec::new();
        let members = std::mem::take(&mut self.members);
        for (_, mut child) in members {
            // The daemon exits promptly on CtrlShutdown; if the frame was
            // lost, kill rather than hang the test run.
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() >= deadline => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                    Err(_) => break,
                }
            }
            if let Some(mut out) = child.stdout.take() {
                let mut s = String::new();
                let _ = out.read_to_string(&mut s);
                let line = s.trim();
                if !line.is_empty() {
                    summaries.push(line.to_string());
                }
            }
        }
        summaries
    }
}

impl Drop for ProcessCluster {
    fn drop(&mut self) {
        for (_, child) in self.members.iter_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
