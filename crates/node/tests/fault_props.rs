//! Fault-injection property tests.
//!
//! Two guarantees back the live matrix tier's replayability claim:
//!
//! 1. **Determinism** — [`FaultSpec::decide`] is a pure counter-mode
//!    function of `(spec, direction, kind, src, dst, frame_index)`: the same
//!    spec over the same frame sequence makes byte-identical decisions,
//!    in any evaluation order. This is what lets a failing live run
//!    replay exactly from the printed seed.
//! 2. **Zero-rate transparency** — a spec with every rate at zero is an
//!    *exact* pass-through: decisions are all no-ops over arbitrary
//!    inputs, and over real sockets a [`FaultTransport`] delivers the
//!    identical frames a bare [`TcpTransport`] would, counting zero
//!    injected faults.
//!
//! The textual grammar also round-trips (`Display` → `parse`) for
//! arbitrary sanitized specs, uniform (`drop=p`) or per-kind
//! (`drop=r:s:o`) loss alike, so a spec printed in a failure message is
//! always a valid replay input.

use proptest::prelude::*;
use sc_core::Addr;
use sc_core::{FaultDir, FaultSpec, Loss, MsgKind};
use sc_node::{FaultTransport, Frame, FrameKind, TcpTransport, Transport};
use std::net::TcpListener;
use std::time::Duration;

/// A spec from raw knobs, sanitized the way parse/decode would.
fn spec(
    seed: u64,
    (request, response, oneway): (f64, f64, f64),
    delay_prob: f64,
    delay_max_polls: u32,
    dup_prob: f64,
    severed: Vec<Addr>,
) -> FaultSpec {
    FaultSpec {
        seed,
        loss: Loss {
            request,
            response,
            oneway,
        },
        delay_prob,
        delay_max_polls,
        dup_prob,
        severed,
    }
    .sanitized()
}

/// One frame's fault-relevant coordinates: inbound or not, its kind
/// (request, response, oneway), the link and the frame's index on it.
type FrameCoord = (bool, usize, Addr, Addr, u64);

const KINDS: [MsgKind; 3] = [MsgKind::Request, MsgKind::Response, MsgKind::Oneway];

fn dir(inbound: bool) -> FaultDir {
    if inbound {
        FaultDir::Inbound
    } else {
        FaultDir::Outbound
    }
}

fn decide_all(s: &FaultSpec, frames: &[FrameCoord]) -> Vec<String> {
    frames
        .iter()
        .map(|&(inbound, kind, src, dst, index)| {
            format!("{:?}", s.decide(dir(inbound), KINDS[kind], src, dst, index))
        })
        .collect()
}

fn frame_coords() -> impl Strategy<Value = Vec<FrameCoord>> {
    proptest::collection::vec(
        (
            proptest::any::<bool>(),
            0usize..3,
            1u32..1000,
            1u32..1000,
            0u64..10_000,
        ),
        1..64,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decisions_replay_byte_identically(
        seed in proptest::any::<u64>(),
        loss in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        delay_prob in 0.0f64..1.0,
        delay_max_polls in 1u32..64,
        dup_prob in 0.0f64..1.0,
        frames in frame_coords(),
    ) {
        let s = spec(seed, loss, delay_prob, delay_max_polls, dup_prob, Vec::new());
        // Same spec, same frames → byte-identical decision sequence.
        let first = decide_all(&s, &frames);
        prop_assert_eq!(&first, &decide_all(&s.clone(), &frames));
        // Pure counter mode: evaluation order is irrelevant — deciding
        // the frames in reverse yields the same per-frame decisions.
        let reversed: Vec<FrameCoord> = frames.iter().rev().copied().collect();
        let mut back = decide_all(&s, &reversed);
        back.reverse();
        prop_assert_eq!(&first, &back);
        // The seed is load-bearing: some long-enough sequence under a
        // different seed diverges unless every rate rounds to inert.
        let other = FaultSpec { seed: seed.wrapping_add(1), ..s.clone() };
        if frames.len() >= 32 && (loss.0.min(loss.1).min(loss.2) > 0.05 || delay_prob > 0.05) {
            prop_assert_ne!(&first, &decide_all(&other, &frames));
        }
    }

    #[test]
    fn zero_rates_decide_nothing_anywhere(
        seed in proptest::any::<u64>(),
        frames in frame_coords(),
    ) {
        let s = spec(seed, (0.0, 0.0, 0.0), 0.0, 4, 0.0, Vec::new());
        prop_assert!(s.is_noop());
        for &(inbound, kind, src, dst, index) in &frames {
            let d = s.decide(dir(inbound), KINDS[kind], src, dst, index);
            prop_assert!(!d.drop && !d.duplicate && d.delay_polls == 0);
        }
    }

    #[test]
    fn grammar_roundtrips_for_arbitrary_specs(
        seed in proptest::any::<u64>(),
        loss in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        uniform in proptest::any::<bool>(),
        delay_prob in 0.0f64..1.0,
        delay_max_polls in 1u32..512,
        dup_prob in 0.0f64..1.0,
        severed in proptest::collection::vec(1u32..100_000, 0..8),
    ) {
        let loss = if uniform { (loss.0, loss.0, loss.0) } else { loss };
        let s = spec(seed, loss, delay_prob, delay_max_polls, dup_prob, severed);
        let text = s.to_string();
        let back = FaultSpec::parse(&text);
        prop_assert!(back.is_ok(), "{text:?} failed to re-parse: {:?}", back.err());
        prop_assert_eq!(back.unwrap(), s);
        // A uniform rate prints as one probability, any other as three.
        let (r, q, o) = loss;
        let drop = text.split(',').find(|e| e.starts_with("drop="));
        if r == q && q == o {
            prop_assert_eq!(drop.map(String::from), (r > 0.0).then(|| format!("drop={r}")));
        } else {
            prop_assert_eq!(drop.map(String::from), Some(format!("drop={r}:{q}:{o}")));
        }
        // The same rates as two or four fields are refused.
        for bad in [format!("drop={r}:{q}"), format!("drop={r}:{q}:{o}:{o}")] {
            prop_assert!(FaultSpec::parse(&bad).is_err(), "{bad:?} parsed");
        }
    }
}

// -- zero-rate pass-through over real sockets ---------------------------
// Few cases: each spins up loopback listeners.

fn bind_any() -> TcpTransport {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = listener.local_addr().unwrap().port();
    drop(listener);
    TcpTransport::bind(port as Addr, Duration::from_millis(200), 1 << 20).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn zero_rate_transport_is_exact_pass_through(
        seed in proptest::any::<u64>(),
        payloads in proptest::collection::vec(
            proptest::collection::vec(proptest::any::<u8>(), 0..256),
            1..12,
        ),
    ) {
        // One faulted sender/receiver pair, one bare pair, fed the same
        // frame sequence: deliveries must match byte for byte and the
        // injected-fault counters must stay at zero.
        let noop = spec(seed, (0.0, 0.0, 0.0), 0.0, 4, 0.0, Vec::new());
        let mut faulted_tx = FaultTransport::new(bind_any(), noop.clone());
        let mut faulted_rx = FaultTransport::new(bind_any(), noop);
        let mut bare_tx = bind_any();
        let mut bare_rx = bind_any();

        for (i, p) in payloads.iter().enumerate() {
            let mut f = Frame::new(FrameKind::Oneway, faulted_tx.local_addr(), p.clone());
            f.req_id = i as u32;
            prop_assert!(faulted_tx.send_to(faulted_rx.local_addr(), &f));
            let mut g = Frame::new(FrameKind::Oneway, bare_tx.local_addr(), p.clone());
            g.req_id = i as u32;
            prop_assert!(bare_tx.send_to(bare_rx.local_addr(), &g));

            let via_fault = faulted_rx.recv(Duration::from_millis(500));
            let via_bare = bare_rx.recv(Duration::from_millis(500));
            prop_assert!(via_fault.is_some() && via_bare.is_some());
            let (a, b) = (via_fault.unwrap().frame, via_bare.unwrap().frame);
            prop_assert_eq!(a.kind, b.kind);
            prop_assert_eq!(a.req_id, b.req_id);
            prop_assert_eq!(&a.payload, &b.payload);
            prop_assert_eq!(&a.payload, p);
        }

        for stats in [faulted_tx.stats(), faulted_rx.stats()] {
            prop_assert_eq!(stats.frames_dropped_injected, 0);
            prop_assert_eq!(stats.frames_delayed, 0);
            prop_assert_eq!(stats.frames_duplicated, 0);
        }
        prop_assert_eq!(faulted_rx.stats().frames_in, payloads.len() as u64);
        prop_assert_eq!(bare_rx.stats().frames_in, payloads.len() as u64);
    }
}
