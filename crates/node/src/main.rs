//! The `sc-node` binary: run one SecureCyclon daemon process.
//!
//! ```text
//! sc-node --addr 41000 --base-addr 41000 --index 0 --cluster-size 16 \
//!         --seed 7 --cycle-ms 50 --view-len 8 --scheme keyed \
//!         --epoch-millis 1754650000000 --stop-cycle 208
//! ```
//!
//! Founding members (`--index < --cluster-size`, no `--sponsor`) derive
//! the whole ring bootstrap from `--seed` locally. A fresh process joins
//! a running cluster with `--sponsor <addr>` instead; it acquires its
//! first descriptor the way a starved node re-enters — a §V-A join ping
//! the sponsor's node answers with a grant.
//!
//! The same port serves gossip *and* the control channel: a harness
//! scrapes live state with `ControlClient::status` and stops the daemon
//! with `ControlClient::shutdown`.

use sc_node::{Daemon, NodeConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", HELP);
        return;
    }
    let cfg = match NodeConfig::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("sc-node: {e}");
            eprintln!("run `sc-node --help` for usage");
            std::process::exit(2);
        }
    };
    let addr = cfg.addr;
    let mut daemon = match Daemon::new(cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("sc-node: bind 127.0.0.1:{addr} failed: {e}");
            std::process::exit(1);
        }
    };
    let summary = daemon.run();
    println!(
        "sc-node {addr}: {} cycles in {:.1}s ({:.1} cycles/s), \
         exchanges {}/{} ok, {} timeouts, peak {} conns, \
         {} frames in / {} out, {} wire bytes in / {} out",
        summary.cycles_run,
        summary.elapsed_secs,
        summary.cycles_run as f64 / summary.elapsed_secs.max(f64::EPSILON),
        summary.stats.completed,
        summary.stats.initiated,
        summary.stats.timeouts,
        summary.transport.peak_conns,
        summary.transport.frames_in,
        summary.transport.frames_out,
        summary.transport.bytes_in,
        summary.transport.bytes_out,
    );
}

const HELP: &str = "\
sc-node — run one SecureCyclon daemon on 127.0.0.1

Usage: sc-node --addr <port> [flags]

Identity and bootstrap:
  --addr <port>          protocol address == TCP port (required)
  --seed <u64>           cluster seed; all keys derive from it (default 1)
  --index <n>            this node's key-schedule index (default 0)
  --cluster-size <n>     ring-bootstrap member count (founding members)
  --base-addr <port>     port of ring member 0 (default: addr - index)
  --sponsor <port>       join through this sponsor instead of the ring:
                         send it a join ping each cycle until its grant
                         arrives

Timing:
  --cycle-ms <n>         wall-clock gossip period in ms (default 100)
  --epoch-millis <n>     shared UNIX-ms epoch for cycle numbering
                         (default: process start; clusters must share one)
  --stop-cycle <n>       stop gossiping at shared-clock cycle n, then
                         linger serving control scrapes for up to 30 s
                         (default 0 = off)
  --rpc-timeout-ms <n>   per-RPC reply deadline; an unanswered request is
                         resent once, byte-identical, halfway through it
                         (default 40)

Protocol:
  --view-len <n>         view size l (default 20)
  --swap-len <n>         gossip length g (default 3)
  --scheme keyed|schnorr signature scheme (default schnorr)

Durability:
  --state-dir <dir>      append durable state to <dir>/sc-node-<addr>.log
                         and recover from it on boot; a kill -9'd daemon
                         restarted here cannot self-incriminate
                         (default: in-memory only)

Fault injection (deterministic; every decision replays from the seed):
  --fault-spec <spec>    comma-separated key=value entries:
                           seed=<u64>        decision seed
                           drop=<p>          drop probability of a received
                                             frame, any kind
                           drop=<r>:<s>:<o>  of a received request, reply,
                                             oneway
                           delay=<p>:<w>     delay probability : max held
                                             receive polls (reorder bound)
                           dup=<p>           outbound duplication
                           sever=<p1>+<p2>   cut these peers off entirely
                         control frames are always exempt; harnesses can
                         replace the spec mid-run via CtrlFault frames,
                         applied at the next cycle boundary
";
