//! Daemon configuration and the `sc-node` flag parser.
//!
//! Addresses are protocol [`Addr`]s *and* TCP ports: a node at protocol
//! address `a` listens on `127.0.0.1:a`. That keeps the protocol
//! core (whose effects are routed by `Addr`) and the socket layer in
//! exact correspondence for loopback clusters.

use sc_core::Addr;
use sc_core::{FaultSpec, SecureConfig};
use sc_crypto::{Keypair, Scheme};
use std::path::PathBuf;
use std::time::Duration;

/// Everything an `sc-node` process needs to run.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Protocol address == loopback TCP port.
    pub addr: Addr,
    /// Cluster seed; all key material derives from it.
    pub seed: u64,
    /// This node's index in the deterministic key schedule.
    pub index: usize,
    /// Number of ring-bootstrap members (indices `0..cluster_size` at
    /// ports `base_addr..base_addr+cluster_size`).
    pub cluster_size: usize,
    /// Port of ring member 0.
    pub base_addr: Addr,
    /// Join a running cluster through this sponsor instead of holding a
    /// ring-bootstrap slice (`None` for founding members).
    pub sponsor: Option<Addr>,
    /// Wall-clock gossip period.
    pub cycle_ms: u64,
    /// Shared UNIX-epoch offset (milliseconds) cycle numbers count from.
    pub epoch_millis: u64,
    /// Stop firing turns once the shared clock reaches this cycle
    /// (`0` = never). The daemon then *lingers*: it keeps serving passive
    /// RPCs and control scrapes, so a harness can read a quiescent
    /// cluster's final state without torn cross-process snapshots, then
    /// shut everything down.
    pub stop_cycle: u64,
    /// Signature scheme for the whole cluster.
    pub scheme: Scheme,
    /// Protocol sizing.
    pub secure: SecureConfig,
    /// How long an in-turn RPC waits for its reply.
    pub rpc_timeout: Duration,
    /// Fault-injection spec the transport starts under (`--fault-spec`;
    /// defaults to no faults). Reconfigurable at cycle boundaries
    /// through `CtrlFault` control frames.
    pub fault_spec: FaultSpec,
    /// Durable-state directory. When set, the daemon appends its
    /// incriminating-if-lost state to `<dir>/sc-node-<addr>.log` and
    /// recovers from it on boot, so a `kill -9` mid-cycle cannot make a
    /// restarted honest node accuse itself (`None` = in-memory only).
    pub state_dir: Option<PathBuf>,
}

impl NodeConfig {
    /// Baseline configuration for `addr`/`index` with everything else at
    /// defaults (100 ms cycles, Schnorr signatures, paper-default view).
    pub fn new(addr: Addr, index: usize) -> NodeConfig {
        NodeConfig {
            addr,
            seed: 1,
            index,
            cluster_size: 0,
            base_addr: addr.saturating_sub(index as Addr),
            sponsor: None,
            cycle_ms: 100,
            epoch_millis: 0,
            stop_cycle: 0,
            scheme: Scheme::Schnorr61,
            secure: SecureConfig::default(),
            rpc_timeout: Duration::from_millis(40),
            fault_spec: FaultSpec::default(),
            state_dir: None,
        }
    }

    /// The keypair of the node at `index` under this cluster's seed.
    ///
    /// Every process derives the same schedule, so founding members can
    /// compute the entire ring bootstrap locally — a zero-message legal
    /// bootstrap, exactly like the simulator's.
    pub fn keypair_for(&self, index: usize) -> Keypair {
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&self.seed.to_le_bytes());
        seed[8..16].copy_from_slice(&(index as u64).to_le_bytes());
        seed[16] = 0x5c;
        Keypair::from_seed(self.scheme, seed)
    }

    /// This node's own keypair.
    pub fn keypair(&self) -> Keypair {
        self.keypair_for(self.index)
    }

    /// This node's deterministic timestamp phase.
    pub fn phase(&self) -> u64 {
        sc_core::default_phase(self.index, self.secure.ticks_per_cycle)
    }

    /// The RNG seed for the node's protocol randomness.
    pub fn rng_seed(&self) -> [u8; 32] {
        let mut s = [0u8; 32];
        s[..8].copy_from_slice(&self.seed.to_le_bytes());
        s[8..16].copy_from_slice(&(self.index as u64).to_le_bytes());
        s[16] = 0xa7;
        s
    }

    /// Parses command-line flags (`--flag value` pairs).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending flag.
    pub fn parse(args: &[String]) -> Result<NodeConfig, String> {
        let mut addr: Option<Addr> = None;
        let mut cfg = NodeConfig::new(0, 0);
        let mut view_len = None;
        let mut swap_len = None;
        let mut base_addr = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut val = |name: &str| -> Result<&String, String> {
                it.next().ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--addr" => addr = Some(parse_num(val("--addr")?, "--addr")?),
                "--seed" => cfg.seed = parse_num(val("--seed")?, "--seed")?,
                "--index" => cfg.index = parse_num(val("--index")?, "--index")?,
                "--cluster-size" => {
                    cfg.cluster_size = parse_num(val("--cluster-size")?, "--cluster-size")?;
                }
                "--base-addr" => base_addr = Some(parse_num(val("--base-addr")?, "--base-addr")?),
                "--sponsor" => cfg.sponsor = Some(parse_num(val("--sponsor")?, "--sponsor")?),
                "--cycle-ms" => cfg.cycle_ms = parse_num(val("--cycle-ms")?, "--cycle-ms")?,
                "--epoch-millis" => {
                    cfg.epoch_millis = parse_num(val("--epoch-millis")?, "--epoch-millis")?;
                }
                "--stop-cycle" => cfg.stop_cycle = parse_num(val("--stop-cycle")?, "--stop-cycle")?,
                "--view-len" => view_len = Some(parse_num(val("--view-len")?, "--view-len")?),
                "--swap-len" => swap_len = Some(parse_num(val("--swap-len")?, "--swap-len")?),
                "--scheme" => {
                    cfg.scheme = match val("--scheme")?.as_str() {
                        "keyed" => Scheme::KeyedHash,
                        "schnorr" => Scheme::Schnorr61,
                        other => return Err(format!("unknown --scheme '{other}'")),
                    };
                }
                "--rpc-timeout-ms" => {
                    cfg.rpc_timeout = Duration::from_millis(parse_num(
                        val("--rpc-timeout-ms")?,
                        "--rpc-timeout-ms",
                    )?);
                }
                "--fault-spec" => {
                    cfg.fault_spec = FaultSpec::parse(val("--fault-spec")?)?;
                }
                "--state-dir" => cfg.state_dir = Some(PathBuf::from(val("--state-dir")?)),
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        let addr = addr.ok_or("--addr is required")?;
        cfg.addr = addr;
        cfg.base_addr = base_addr.unwrap_or_else(|| addr.saturating_sub(cfg.index as Addr));
        if let Some(v) = view_len {
            cfg.secure = cfg.secure.with_view_len(v);
        }
        if let Some(s) = swap_len {
            cfg.secure = cfg.secure.with_swap_len(s);
        }
        if cfg.cycle_ms == 0 {
            return Err("--cycle-ms must be positive".into());
        }
        if addr > u16::MAX as Addr || addr == 0 {
            return Err("--addr must be a TCP port (1..=65535)".into());
        }
        Ok(cfg)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: '{s}' is not a valid number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_founding_member() {
        let cfg = NodeConfig::parse(&args(
            "--addr 41003 --base-addr 41000 --index 3 --cluster-size 16 \
             --seed 42 --cycle-ms 50 --view-len 8 --swap-len 3 --scheme keyed",
        ))
        .unwrap();
        assert_eq!(cfg.addr, 41003);
        assert_eq!(cfg.base_addr, 41000);
        assert_eq!(cfg.cluster_size, 16);
        assert_eq!(cfg.secure.view_len, 8);
        assert_eq!(cfg.scheme, Scheme::KeyedHash);
        assert!(cfg.sponsor.is_none());
        assert!(cfg.state_dir.is_none());
    }

    #[test]
    fn parses_a_state_dir() {
        let cfg = NodeConfig::parse(&args(
            "--addr 41000 --state-dir /tmp/sc-state --scheme keyed",
        ))
        .unwrap();
        assert_eq!(
            cfg.state_dir.as_deref(),
            Some(std::path::Path::new("/tmp/sc-state"))
        );
    }

    #[test]
    fn parses_a_fault_spec() {
        let cfg = NodeConfig::parse(&args(
            "--addr 41000 --scheme keyed --fault-spec seed=5,drop=0.2:0.05:0.1,sever=41003",
        ))
        .unwrap();
        assert_eq!(cfg.fault_spec.seed, 5);
        assert_eq!(cfg.fault_spec.loss, sc_core::Loss::new(0.2, 0.05, 0.1));
        assert!(cfg.fault_spec.severs(41003));
        assert!(NodeConfig::parse(&args("--addr 41000 --fault-spec drop=2")).is_err());
        // The default spec injects nothing.
        let plain = NodeConfig::parse(&args("--addr 41000")).unwrap();
        assert!(plain.fault_spec.is_noop());
    }

    #[test]
    fn key_schedule_is_shared_and_distinct() {
        let a = NodeConfig::parse(&args("--addr 41000 --seed 7 --scheme keyed")).unwrap();
        let b = NodeConfig::parse(&args("--addr 41001 --index 1 --seed 7 --scheme keyed")).unwrap();
        assert_eq!(a.keypair_for(1).public(), b.keypair().public());
        assert_ne!(a.keypair().public(), b.keypair().public());
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(NodeConfig::parse(&args("--addr nope")).is_err());
        assert!(NodeConfig::parse(&args("--port 1")).is_err());
        assert!(NodeConfig::parse(&args("")).is_err());
        assert!(NodeConfig::parse(&args("--addr 70000")).is_err());
    }
}
