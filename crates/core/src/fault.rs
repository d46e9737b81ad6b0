//! Deterministic fault injection: the one loss model of both tiers.
//!
//! A [`FaultSpec`] describes everything a fault-injecting transport may
//! do to gossip frames — per-kind drop ([`Loss`]), bounded
//! delay/reorder, duplication and partition severing — plus the seed
//! every decision derives from. The spec itself makes the decisions:
//! [`FaultSpec::decide`] is a pure counter-mode PRNG keyed by
//! `(seed, direction, src, dst, frame_index)`, so a failing live run
//! reproduces exactly from the printed seed and two transports holding
//! the same spec agree on every frame's fate.
//!
//! A frame is lost, if at all, on its receiving side: by the inbound
//! roll, held to the rate of its [`MsgKind`]. The simulator's engine
//! decides its messages by the same roll ([`Loss::drops`]).
//!
//! A spec has one serialization, the textual grammar of
//! [`FaultSpec::parse`] / `Display`: the daemon parses it from
//! `--fault-spec`, and a harness ships it mid-run as the payload of a
//! `CtrlFault` control frame.
//!
//! # Grammar
//!
//! Comma-separated `key=value` entries, all optional (an empty string is
//! the no-fault spec):
//!
//! ```text
//! seed=7,drop=0.15:0.05:0.1,delay=0.2:4,dup=0.02,sever=41007+41008
//! ```
//!
//! * `seed` — decision seed (default 0)
//! * `drop=p` — drop probability of every received frame; `drop=r:s:o`
//!   — of a received request, response and oneway
//! * `delay=p:w` — with probability `p`, hold an inbound frame for
//!   1..=`w` polls of 500 µs each (bounded reorder)
//! * `dup` — outbound duplication probability
//! * `sever` — `+`-separated peer addresses cut off entirely (partition)

use crate::Addr;

/// Default reorder window when `delay=p` omits the `:w` suffix.
pub const DEFAULT_DELAY_WINDOW: u32 = 4;

/// Direction of a frame relative to the transport applying faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDir {
    /// A frame arriving from a peer.
    Inbound,
    /// A frame this node is sending.
    Outbound,
}

/// What a gossip frame carries, as far as loss is concerned: the rate a
/// [`Loss`] holds it to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// An exchange request: lost, the target never processes it.
    Request,
    /// The answer to a request: lost, the target *did* process it.
    Response,
    /// A fire-and-forget message (proof floods, §V-A join pings, grants).
    Oneway,
}

/// Per-kind drop probabilities: the paper's §V-A repair is argued under
/// loss that differs by message kind. Every tier carries this one type —
/// a scenario's loss, the simulator's engine and a socket's [`FaultSpec`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Loss {
    /// Probability a request is lost.
    pub request: f64,
    /// Probability a response is lost.
    pub response: f64,
    /// Probability a oneway message is lost.
    pub oneway: f64,
}

impl Loss {
    /// Independent per-kind probabilities.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub fn new(request: f64, response: f64, oneway: f64) -> Loss {
        for p in [request, response, oneway] {
            assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        }
        Loss {
            request,
            response,
            oneway,
        }
    }

    /// The same probability `p` for every kind (panics as [`Loss::new`]).
    pub fn uniform(p: f64) -> Loss {
        Loss::new(p, p, p)
    }

    /// Whether nothing is ever lost.
    pub fn is_none(&self) -> bool {
        self.request == 0.0 && self.response == 0.0 && self.oneway == 0.0
    }

    /// Whether the `index`-th frame `dst` received from `src`, of `kind`,
    /// is lost under `seed`: the inbound roll of [`FaultSpec::decide`],
    /// held to the kind's rate. Pure, like every decision.
    pub fn drops(&self, seed: u64, kind: MsgKind, src: Addr, dst: Addr, index: u64) -> bool {
        let p = match kind {
            MsgKind::Request => self.request,
            MsgKind::Response => self.response,
            MsgKind::Oneway => self.oneway,
        };
        p > 0.0 && unit(seed, SALT_DROP, DIR_IN, src, dst, index) < p
    }
}

/// The fate [`FaultSpec::decide`] assigns one frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultDecision {
    /// Drop the frame silently (inbound only).
    pub drop: bool,
    /// Send the frame twice (outbound only; ignored inbound).
    pub duplicate: bool,
    /// Hold the frame for this many polls — 500 µs each, the period of
    /// the receive loop that first implemented it — before release
    /// (inbound only; 0 = deliver immediately).
    pub delay_polls: u32,
}

/// A deterministic fault-injection specification.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Seed all per-frame decisions derive from.
    pub seed: u64,
    /// Per-kind probabilities a received frame is dropped.
    pub loss: Loss,
    /// Probability an inbound frame is delayed.
    pub delay_prob: f64,
    /// Maximum delay in polls of 500 µs (the reorder bound).
    pub delay_max_polls: u32,
    /// Probability an outbound frame is duplicated.
    pub dup_prob: f64,
    /// Peer addresses severed entirely (both directions), kept sorted.
    pub severed: Vec<Addr>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0,
            loss: Loss::default(),
            delay_prob: 0.0,
            delay_max_polls: DEFAULT_DELAY_WINDOW,
            dup_prob: 0.0,
            severed: Vec::new(),
        }
    }
}

/// SplitMix64 finalizer: the counter-mode mixing primitive.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform value in `[0, 1)` from the decision counter
/// `(seed, salt, dir, src, dst, index)`. Pure: same inputs, same value.
fn unit(seed: u64, salt: u64, dir: u64, src: Addr, dst: Addr, index: u64) -> f64 {
    let mut h = mix64(seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(salt | 1));
    h = mix64(h ^ (((src as u64) << 32) | dst as u64) ^ (dir << 62));
    h = mix64(h ^ index);
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const SALT_DROP: u64 = 1;
const SALT_DELAY: u64 = 2;
const SALT_DELAY_LEN: u64 = 3;
const SALT_DUP: u64 = 4;
const DIR_IN: u64 = 0;
const DIR_OUT: u64 = 1;

impl FaultSpec {
    /// Whether the spec injects nothing at all (exact pass-through).
    pub fn is_noop(&self) -> bool {
        self.loss.is_none()
            && self.delay_prob == 0.0
            && self.dup_prob == 0.0
            && self.severed.is_empty()
    }

    /// Whether `peer` is on the severed side of the partition set.
    pub fn severs(&self, peer: Addr) -> bool {
        self.severed.binary_search(&peer).is_ok()
    }

    /// The fate of the `index`-th frame of `kind` between `src` and
    /// `dst` in direction `dir`: inbound it may be dropped (by
    /// [`Loss::drops`]) or held, outbound duplicated. Pure counter-mode
    /// PRNG: identical `(spec, dir, kind, src, dst, index)` always yields
    /// the identical decision, independent of call order or wall clock.
    pub fn decide(
        &self,
        dir: FaultDir,
        kind: MsgKind,
        src: Addr,
        dst: Addr,
        index: u64,
    ) -> FaultDecision {
        let d = match dir {
            FaultDir::Inbound => DIR_IN,
            FaultDir::Outbound => DIR_OUT,
        };
        let roll = |salt| unit(self.seed, salt, d, src, dst, index);
        let drop = dir == FaultDir::Inbound && self.loss.drops(self.seed, kind, src, dst, index);
        let delay_polls = if !drop && self.delay_prob > 0.0 && roll(SALT_DELAY) < self.delay_prob {
            let w = self.delay_max_polls.max(1);
            1 + (roll(SALT_DELAY_LEN) * w as f64) as u32
        } else {
            0
        };
        FaultDecision {
            drop,
            duplicate: self.dup_prob > 0.0 && roll(SALT_DUP) < self.dup_prob,
            delay_polls: delay_polls.min(self.delay_max_polls.max(1)),
        }
    }

    /// Clamps probabilities into `[0, 1]` (NaN → 0) and sorts the
    /// severed set; applied after parse so hostile or sloppy
    /// input cannot produce out-of-contract decisions.
    pub fn sanitized(mut self) -> FaultSpec {
        let clamp = |p: f64| {
            if p.is_finite() {
                p.clamp(0.0, 1.0)
            } else {
                0.0
            }
        };
        self.loss = Loss {
            request: clamp(self.loss.request),
            response: clamp(self.loss.response),
            oneway: clamp(self.loss.oneway),
        };
        self.delay_prob = clamp(self.delay_prob);
        self.dup_prob = clamp(self.dup_prob);
        self.delay_max_polls = self.delay_max_polls.clamp(1, 1 << 16);
        self.severed.sort_unstable();
        self.severed.dedup();
        self
    }

    /// Parses the textual grammar (see module docs). Empty input is the
    /// no-fault spec.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending entry.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::default();
        for entry in s.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (key, val) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault-spec entry '{entry}' is not key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                v.parse::<f64>()
                    .ok()
                    .filter(|p| p.is_finite() && (0.0..=1.0).contains(p))
                    .ok_or_else(|| format!("fault-spec {key}: '{v}' is not a probability"))
            };
            match key {
                "seed" => {
                    spec.seed = val
                        .parse()
                        .map_err(|_| format!("fault-spec seed: '{val}' is not a u64"))?;
                }
                "drop" => {
                    let rates: Vec<f64> = val.split(':').map(prob).collect::<Result<_, _>>()?;
                    spec.loss = match rates[..] {
                        [p] => Loss::uniform(p),
                        [request, response, oneway] => Loss::new(request, response, oneway),
                        _ => return Err(format!("fault-spec drop: '{val}' is not p or r:s:o")),
                    };
                }
                "delay" => {
                    let (p, w) = match val.split_once(':') {
                        Some((p, w)) => (
                            p,
                            w.parse::<u32>().ok().filter(|&w| w >= 1).ok_or_else(|| {
                                format!("fault-spec delay window '{w}' is not a positive int")
                            })?,
                        ),
                        None => (val, DEFAULT_DELAY_WINDOW),
                    };
                    spec.delay_prob = prob(p)?;
                    spec.delay_max_polls = w;
                }
                "dup" => spec.dup_prob = prob(val)?,
                "sever" => {
                    for a in val.split('+').filter(|a| !a.is_empty()) {
                        let addr: Addr = a
                            .parse()
                            .map_err(|_| format!("fault-spec sever: '{a}' is not an address"))?;
                        spec.severed.push(addr);
                    }
                }
                other => return Err(format!("unknown fault-spec key '{other}'")),
            }
        }
        Ok(spec.sanitized())
    }
}

impl core::fmt::Display for FaultSpec {
    /// Renders the spec in its own parse grammar (replay lines).
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if self.seed != 0 {
            parts.push(format!("seed={}", self.seed));
        }
        let Loss {
            request,
            response,
            oneway,
        } = self.loss;
        if request == response && response == oneway {
            if request > 0.0 {
                parts.push(format!("drop={request}"));
            }
        } else {
            parts.push(format!("drop={request}:{response}:{oneway}"));
        }
        if self.delay_prob > 0.0 {
            parts.push(format!(
                "delay={}:{}",
                self.delay_prob, self.delay_max_polls
            ));
        }
        if self.dup_prob > 0.0 {
            parts.push(format!("dup={}", self.dup_prob));
        }
        if !self.severed.is_empty() {
            let addrs: Vec<String> = self.severed.iter().map(|a| a.to_string()).collect();
            parts.push(format!("sever={}", addrs.join("+")));
        }
        write!(f, "{}", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_grammar_roundtrips_through_display() {
        let spec =
            FaultSpec::parse("seed=7,drop=0.1:0.05:0.2,delay=0.2:3,dup=0.02,sever=41008+41007")
                .unwrap();
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.loss, Loss::new(0.1, 0.05, 0.2));
        assert_eq!(spec.delay_max_polls, 3);
        assert_eq!(spec.severed, vec![41007, 41008], "severed set sorted");
        let again = FaultSpec::parse(&spec.to_string()).unwrap();
        assert_eq!(again, spec);

        assert_eq!(FaultSpec::parse("").unwrap(), FaultSpec::default());
        assert!(FaultSpec::default().is_noop());
        let uniform = FaultSpec::parse("drop=0.5").unwrap();
        assert_eq!(uniform.loss, Loss::uniform(0.5));
        assert_eq!(uniform.to_string(), "drop=0.5");
        assert_eq!(FaultSpec::parse("drop=0.5:0.5:0.5").unwrap(), uniform);
        assert_eq!(
            FaultSpec::parse("drop=0:0.3:0").unwrap().to_string(),
            "drop=0:0.3:0"
        );
        assert_eq!(
            FaultSpec::parse("delay=0.5").unwrap().delay_max_polls,
            DEFAULT_DELAY_WINDOW
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultSpec::parse("drop=1.5").is_err());
        assert!(FaultSpec::parse("drop=nan").is_err());
        assert!(FaultSpec::parse("drop=0.1:0.2").is_err(), "two rates");
        assert!(
            FaultSpec::parse("drop=0.1:0.2:0.3:0.4").is_err(),
            "four rates"
        );
        assert!(FaultSpec::parse("drop=0.1:x:0.3").is_err());
        assert!(FaultSpec::parse("drop=0.1:1.5:0.3").is_err());
        assert!(FaultSpec::parse("drop=0.1::0.3").is_err());
        assert!(FaultSpec::parse("nonsense").is_err());
        assert!(FaultSpec::parse("unknown=1").is_err());
        assert_eq!(
            FaultSpec::parse("bw=65536").unwrap_err(),
            "unknown fault-spec key 'bw'",
            "the bandwidth throttle is gone"
        );
        assert_eq!(
            FaultSpec::parse("reset=0.1").unwrap_err(),
            "unknown fault-spec key 'reset'",
            "the connection-reset knob is gone"
        );
        assert!(FaultSpec::parse("delay=0.5:0").is_err());
        assert!(FaultSpec::parse("sever=abc").is_err());
    }

    #[test]
    fn decisions_are_pure_counter_mode() {
        let spec = FaultSpec::parse("seed=3,drop=0.3,delay=0.4:6,dup=0.2").unwrap();
        let decide = |spec: &FaultSpec, dir| -> Vec<FaultDecision> {
            (0..500)
                .map(|i| spec.decide(dir, MsgKind::Oneway, 10, 20, i))
                .collect()
        };
        let a = decide(&spec, FaultDir::Inbound);
        assert_eq!(
            a,
            decide(&spec, FaultDir::Inbound),
            "same counter, same decisions"
        );

        // The streams actually vary across indices, directions, pairs,
        // and seeds (a constant PRNG would also be "deterministic").
        assert!(a.iter().any(|d| d.drop) && a.iter().any(|d| !d.drop));
        let out = decide(&spec, FaultDir::Outbound);
        assert_ne!(a, out);
        assert!(
            out.iter().all(|d| !d.drop),
            "loss is decided on the receiving side"
        );
        let other_seed = FaultSpec {
            seed: 4,
            ..spec.clone()
        };
        assert_ne!(a, decide(&other_seed, FaultDir::Inbound));

        // Delays respect the reorder bound.
        assert!(a.iter().all(|d| d.delay_polls <= 6));
        assert!(a.iter().any(|d| d.delay_polls > 0));
    }

    #[test]
    fn the_kind_picks_the_threshold_not_the_roll() {
        let loss = Loss::new(0.1, 0.5, 0.3);
        let spec = FaultSpec {
            seed: 9,
            loss,
            ..FaultSpec::default()
        };
        let kinds = [MsgKind::Request, MsgKind::Response, MsgKind::Oneway];
        let mut dropped = [0u32; 3];
        for i in 0..2_000 {
            let drops = kinds.map(|k| loss.drops(9, k, 10, 20, i));
            // One roll per frame: whatever a lower rate drops, every
            // higher rate drops too.
            assert!(!drops[0] || drops[2], "frame {i}");
            assert!(!drops[2] || drops[1], "frame {i}");
            for (k, &kind) in kinds.iter().enumerate() {
                let decided = spec.decide(FaultDir::Inbound, kind, 10, 20, i).drop;
                assert_eq!(decided, drops[k], "decide is Loss::drops inbound");
                dropped[k] += u32::from(drops[k]);
            }
        }
        // Each kind is held to its own rate (±4σ at n = 2 000).
        for (got, rate) in dropped.into_iter().zip([0.1f64, 0.5, 0.3]) {
            let expected = 2_000.0 * rate;
            let sigma = (2_000.0 * rate * (1.0 - rate)).sqrt();
            assert!(
                (f64::from(got) - expected).abs() < 4.0 * sigma,
                "{got} at {rate}"
            );
        }
    }

    #[test]
    fn zero_rates_decide_nothing() {
        let spec = FaultSpec::default();
        for i in 0..100 {
            for dir in [FaultDir::Inbound, FaultDir::Outbound] {
                assert_eq!(
                    spec.decide(dir, MsgKind::Request, 1, 2, i),
                    FaultDecision::default()
                );
            }
        }
        assert!(!spec.severs(7));
        assert!(FaultSpec::parse("sever=7").unwrap().severs(7));
    }
}
