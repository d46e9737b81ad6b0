//! The control-socket protocol: how a harness scrapes a live daemon.
//!
//! A control client connects to the daemon's one TCP port like any peer,
//! but speaks [`FrameKind::CtrlStatus`] / [`FrameKind::CtrlStatusReply`]
//! frames. The reply payload is a [`StatusReport`]: enough of the node's
//! protocol state (view descriptors with NS flags, reserve, blacklist,
//! counters) for the invariant oracles in `sc-testkit` to run against
//! live processes exactly as they run against simulated ones.

use crate::frame::{Frame, FrameKind, FrameReader, FRAME_HEADER_BYTES};
use crate::transport::TransportStats;
use sc_core::wire::{Reader, WireError, WireLimits, Writer};
use sc_core::Addr;
use sc_core::{SecureDescriptor, SecureStats};
use sc_crypto::PublicKey;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, TcpStream};
use std::time::{Duration, Instant};

/// A live daemon's scraped state.
#[derive(Clone, Debug)]
pub struct StatusReport {
    /// Protocol address.
    pub addr: Addr,
    /// Node identity (public key).
    pub id: PublicKey,
    /// The daemon's current cycle number.
    pub cycle: u64,
    /// Whether the node holds a view (bootstrap or sponsorship done).
    pub joined: bool,
    /// Gossip cycles the daemon has fired.
    pub cycles_run: u64,
    /// View entries with their non-swappable flags.
    pub view: Vec<(SecureDescriptor, bool)>,
    /// Owned descriptors parked in the reserve.
    pub reserve: Vec<SecureDescriptor>,
    /// Blacklisted culprits.
    pub blacklist: Vec<PublicKey>,
    /// Redemption-cache entry count (for the cache-bound oracle).
    pub redemptions: usize,
    /// Protocol counters.
    pub stats: SecureStats,
    /// Transport counters.
    pub transport: TransportStats,
    /// RPC request frames retransmitted inside their deadline (the same
    /// encoded frame, never a re-emission — §IV-B forbids a second
    /// descriptor per period).
    pub retransmits: u64,
    /// Turn deadlines that passed without firing (daemon fell behind the
    /// shared clock or was partitioned off it).
    pub turns_skipped: u64,
}

/// The [`SecureStats`] counters in wire order. New counters append at
/// the end so older readers (which index with a default of 0) keep
/// decoding newer reports.
fn stats_to_array(s: &SecureStats) -> [u64; 23] {
    [
        s.initiated,
        s.completed,
        s.timeouts,
        s.answered,
        s.refused,
        s.idle_cycles,
        s.transfers_sent,
        s.transfers_received,
        s.transfers_rejected,
        s.dup_drops,
        s.samples_processed,
        s.invalid_descriptors,
        s.proofs_generated_cloning,
        s.proofs_generated_frequency,
        s.proofs_received,
        s.proofs_duplicate,
        s.proofs_invalid,
        s.ns_backfills,
        s.ns_redemptions_accepted,
        s.bytes_sent,
        s.bytes_received,
        s.rejoin_pings,
        s.rejoin_grants,
    ]
}

/// The [`TransportStats`] counters in wire order — same append-only
/// discipline as [`stats_to_array`].
fn transport_to_array(t: &TransportStats) -> [u64; 12] {
    [
        t.frames_in,
        t.frames_out,
        t.bytes_in,
        t.bytes_out,
        t.active_conns,
        t.peak_conns,
        t.connect_failures,
        t.poisoned_conns,
        t.frames_dropped_injected,
        t.frames_delayed,
        t.frames_duplicated,
        t.resets_injected,
    ]
}

fn transport_from_array(a: &[u64]) -> TransportStats {
    let g = |i: usize| a.get(i).copied().unwrap_or(0);
    TransportStats {
        frames_in: g(0),
        frames_out: g(1),
        bytes_in: g(2),
        bytes_out: g(3),
        active_conns: g(4),
        peak_conns: g(5),
        connect_failures: g(6),
        poisoned_conns: g(7),
        frames_dropped_injected: g(8),
        frames_delayed: g(9),
        frames_duplicated: g(10),
        resets_injected: g(11),
    }
}

fn stats_from_array(a: &[u64]) -> SecureStats {
    let g = |i: usize| a.get(i).copied().unwrap_or(0);
    SecureStats {
        initiated: g(0),
        completed: g(1),
        timeouts: g(2),
        answered: g(3),
        refused: g(4),
        idle_cycles: g(5),
        transfers_sent: g(6),
        transfers_received: g(7),
        transfers_rejected: g(8),
        dup_drops: g(9),
        samples_processed: g(10),
        invalid_descriptors: g(11),
        proofs_generated_cloning: g(12),
        proofs_generated_frequency: g(13),
        proofs_received: g(14),
        proofs_duplicate: g(15),
        proofs_invalid: g(16),
        ns_backfills: g(17),
        ns_redemptions_accepted: g(18),
        bytes_sent: g(19),
        bytes_received: g(20),
        rejoin_pings: g(21),
        rejoin_grants: g(22),
    }
}

/// A `u16` list count: within the reader's list cap, and of elements
/// (one byte each at the very least) that the remaining input can still
/// hold.
fn count(c: &mut Reader<'_>) -> Result<usize, WireError> {
    let n = c.u16()? as usize;
    c.list_count(n, 1)?;
    Ok(n)
}

/// A counted array of `u64` counters (at most 64 of them).
fn counters(c: &mut Reader<'_>) -> Result<Vec<u64>, WireError> {
    let n = count(c)?;
    if n > 64 {
        return Err(WireError::ListTooLong(n as u16));
    }
    (0..n).map(|_| c.u64()).collect()
}

impl StatusReport {
    /// Serializes the report for a `CtrlStatusReply` payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        let mut w = Writer::new(&mut out);
        w.u32(self.addr);
        w.bytes(self.id.as_bytes());
        w.u64(self.cycle);
        w.u8(self.joined as u8);
        w.u64(self.cycles_run);
        w.list(2, &stats_to_array(&self.stats), |w, v| w.u64(*v));
        w.list(2, &transport_to_array(&self.transport), |w, v| w.u64(*v));
        w.list(2, &self.view, |w, (desc, ns)| {
            w.u8(*ns as u8);
            w.descriptor(desc);
        });
        w.list(2, &self.reserve, Writer::descriptor);
        w.list(2, &self.blacklist, |w, id| w.bytes(id.as_bytes()));
        // Trailing extensions (older decoders treat them as optional,
        // and everything after a tear decodes as zero).
        w.u16(u16::try_from(self.redemptions).unwrap_or(u16::MAX));
        w.u64(self.retransmits);
        w.u64(self.turns_skipped);
        out
    }

    /// Deserializes a report.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on malformed payloads.
    pub fn decode(buf: &[u8], limits: &WireLimits) -> Result<StatusReport, WireError> {
        let mut c = Reader::with_limits(buf, limits);
        let addr = c.u32()?;
        let id = c.key()?;
        let cycle = c.u64()?;
        let joined = c.u8()? != 0;
        let cycles_run = c.u64()?;
        let stats = stats_from_array(&counters(&mut c)?);
        let transport = transport_from_array(&counters(&mut c)?);
        let n_view = count(&mut c)?;
        let mut view = Vec::with_capacity(n_view.min(1024));
        for _ in 0..n_view {
            let ns = c.u8()? != 0;
            view.push((c.descriptor()?, ns));
        }
        let n_res = count(&mut c)?;
        let mut reserve = Vec::with_capacity(n_res.min(1024));
        for _ in 0..n_res {
            reserve.push(c.descriptor()?);
        }
        let n_bl = count(&mut c)?;
        let mut blacklist = Vec::with_capacity(n_bl.min(1024));
        for _ in 0..n_bl {
            blacklist.push(c.key()?);
        }
        // Optional trailing extensions from newer daemons.
        let redemptions = c.u16().unwrap_or(0) as usize;
        let retransmits = c.u64().unwrap_or(0);
        let turns_skipped = c.u64().unwrap_or(0);
        Ok(StatusReport {
            addr,
            id,
            cycle,
            joined,
            cycles_run,
            view,
            reserve,
            blacklist,
            redemptions,
            stats,
            transport,
            retransmits,
            turns_skipped,
        })
    }
}

/// A blocking client for the daemon's control channel. It owns exactly
/// one socket, so it needs no readiness machinery: the socket stays in
/// blocking mode and the kernel's own send/receive timeouts bound every
/// call.
pub struct ControlClient {
    stream: TcpStream,
    reader: FrameReader,
    addr: Addr,
}

impl ControlClient {
    /// Connects to the daemon at loopback `addr`.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: Addr, timeout: Duration) -> std::io::Result<ControlClient> {
        let sock = SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, addr as u16));
        let stream = TcpStream::connect_timeout(&sock, timeout)?;
        stream.set_nodelay(true)?;
        Ok(ControlClient {
            stream,
            reader: FrameReader::new(64 << 20),
            addr,
        })
    }

    /// Sends one frame and waits for a reply of `want` kind; `timeout`
    /// bounds the whole round.
    fn round(&mut self, send: Frame, want: FrameKind, timeout: Duration) -> std::io::Result<Frame> {
        let deadline = Instant::now() + timeout;
        self.stream.set_write_timeout(Some(timeout))?;
        self.stream.write_all(&send.encode())?;
        let mut chunk = [0u8; 4096];
        loop {
            match self.reader.next_frame() {
                Ok(Some(f)) if f.kind == want => return Ok(f),
                Ok(Some(_)) => continue,
                Ok(None) => {}
                Err(_) => return Err(ErrorKind::InvalidData.into()),
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ErrorKind::TimedOut.into());
            }
            self.stream.set_read_timeout(Some(left))?;
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.reader.feed(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // A receive timeout surfaces as either, by platform.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(ErrorKind::TimedOut.into());
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Scrapes the daemon's status.
    ///
    /// # Errors
    ///
    /// IO failures, timeouts, or an undecodable report.
    pub fn status(&mut self, timeout: Duration) -> std::io::Result<StatusReport> {
        let req = Frame::new(FrameKind::CtrlStatus, 0, Vec::new());
        let reply = self.round(req, FrameKind::CtrlStatusReply, timeout)?;
        StatusReport::decode(&reply.payload, &WireLimits::DEFAULT)
            .map_err(|_| ErrorKind::InvalidData.into())
    }

    /// Installs a fault-injection spec on the daemon. The daemon
    /// acknowledges immediately but applies the spec at its next cycle
    /// boundary, so every cycle runs under exactly one spec.
    ///
    /// # Errors
    ///
    /// IO failures or timeout waiting for the acknowledgement.
    pub fn set_fault(
        &mut self,
        spec: &sc_core::FaultSpec,
        timeout: Duration,
    ) -> std::io::Result<()> {
        let req = Frame::new(FrameKind::CtrlFault, 0, spec.to_string().into_bytes());
        self.round(req, FrameKind::CtrlFaultReply, timeout)?;
        Ok(())
    }

    /// Asks the daemon to exit its run loop. Fire-and-forget.
    ///
    /// # Errors
    ///
    /// IO failures while writing the frame.
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        self.stream
            .set_write_timeout(Some(Duration::from_millis(500)))?;
        self.stream
            .write_all(&Frame::new(FrameKind::CtrlShutdown, 0, Vec::new()).encode())
    }

    /// The daemon address this client targets.
    pub fn target(&self) -> Addr {
        self.addr
    }
}

// Suppress an unused-constant lint path: header size is part of the
// public framing contract re-exported at the crate root.
const _: usize = FRAME_HEADER_BYTES;

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::Timestamp;
    use sc_crypto::{Keypair, Scheme};

    #[test]
    fn status_report_roundtrips() {
        let kp = Keypair::from_seed(Scheme::KeyedHash, [9; 32]);
        let peer = Keypair::from_seed(Scheme::KeyedHash, [8; 32]);
        let owned = SecureDescriptor::create(&peer, 7, Timestamp(12))
            .transfer(&peer, kp.public())
            .unwrap();
        let report = StatusReport {
            addr: 41017,
            id: kp.public(),
            cycle: 230,
            joined: true,
            cycles_run: 222,
            view: vec![(owned.clone(), true), (owned.clone(), false)],
            reserve: vec![owned],
            blacklist: vec![peer.public()],
            redemptions: 5,
            stats: SecureStats {
                initiated: 230,
                completed: 200,
                bytes_sent: 123_456,
                ..SecureStats::default()
            },
            transport: TransportStats {
                frames_in: 9000,
                peak_conns: 37,
                frames_dropped_injected: 41,
                frames_delayed: 11,
                ..TransportStats::default()
            },
            retransmits: 17,
            turns_skipped: 3,
        };
        let bytes = report.encode();
        let back = StatusReport::decode(&bytes, &WireLimits::DEFAULT).unwrap();
        assert_eq!(back.addr, report.addr);
        assert_eq!(back.id, report.id);
        assert_eq!(back.cycle, 230);
        assert!(back.joined);
        assert_eq!(back.view.len(), 2);
        assert!(back.view[0].1);
        assert!(!back.view[1].1);
        assert_eq!(back.view[0].0, report.view[0].0);
        assert_eq!(back.reserve.len(), 1);
        assert_eq!(back.blacklist, vec![peer.public()]);
        assert_eq!(back.redemptions, 5);
        assert_eq!(back.stats, report.stats);
        assert_eq!(back.transport, report.transport);
        assert_eq!(back.retransmits, 17);
        assert_eq!(back.turns_skipped, 3);
    }

    fn small_report() -> StatusReport {
        StatusReport {
            addr: 1,
            id: Keypair::from_seed(Scheme::KeyedHash, [9; 32]).public(),
            cycle: 0,
            joined: false,
            cycles_run: 0,
            view: vec![],
            reserve: vec![],
            blacklist: vec![],
            redemptions: 0,
            stats: SecureStats::default(),
            transport: TransportStats::default(),
            retransmits: 9,
            turns_skipped: 9,
        }
    }

    #[test]
    fn oversized_list_never_decodes_to_wrong_fields() {
        // 65 537 entries do not fit the u16 count. A wrapped count (1)
        // in front of the full body would decode `Ok`, with the trailing
        // fields read out of key bytes; the encoder must cut the list to
        // what the count can say instead.
        let peer = Keypair::from_seed(Scheme::KeyedHash, [8; 32]).public();
        let report = StatusReport {
            blacklist: vec![peer; 65_537],
            redemptions: 5,
            ..small_report()
        };
        let bytes = report.encode();
        assert_eq!(
            StatusReport::decode(&bytes, &WireLimits::DEFAULT).unwrap_err(),
            WireError::ListTooLong(u16::MAX)
        );
        let wide = WireLimits {
            max_list_len: usize::MAX,
            ..WireLimits::DEFAULT
        };
        let back = StatusReport::decode(&bytes, &wide).unwrap();
        assert_eq!(back.blacklist, report.blacklist[..usize::from(u16::MAX)]);
        assert_eq!(
            (back.redemptions, back.retransmits, back.turns_skipped),
            (5, 9, 9)
        );
    }

    #[test]
    fn truncated_reports_error_cleanly() {
        let bytes = small_report().encode();
        // The last 18 bytes are the optional extensions (redemptions u16,
        // retransmits u64, turns_skipped u64); cuts inside the required
        // prefix must error.
        let tail = 2 + 8 + 8;
        for cut in [0, 10, bytes.len() - tail - 1] {
            assert!(StatusReport::decode(&bytes[..cut], &WireLimits::DEFAULT).is_err());
        }
        // A torn optional tail still decodes (as an older daemon's
        // report, with the torn counters zeroed).
        let old = StatusReport::decode(&bytes[..bytes.len() - tail], &WireLimits::DEFAULT).unwrap();
        assert_eq!(old.redemptions, 0);
        assert_eq!(old.retransmits, 0);
        let torn = StatusReport::decode(&bytes[..bytes.len() - 8], &WireLimits::DEFAULT).unwrap();
        assert_eq!(torn.retransmits, 9);
        assert_eq!(torn.turns_skipped, 0);
    }
}
