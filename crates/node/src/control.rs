//! The control-socket protocol: how a harness scrapes a live daemon.
//!
//! A control client connects to the daemon's one TCP port like any peer,
//! but speaks [`FrameKind::CtrlStatus`] / [`FrameKind::CtrlStatusReply`]
//! frames. The reply payload is a [`StatusReport`]: enough of the node's
//! protocol state (view descriptors with NS flags, reserve, blacklist,
//! counters) for the invariant oracles in `sc-testkit` to run against
//! live processes exactly as they run against simulated ones. One
//! constructor, [`StatusReport::of`], reads every protocol field off a
//! node; the daemon and the simulator's snapshot both call it.

use crate::frame::{Frame, FrameKind, FrameReader};
use crate::transport::TransportStats;
use sc_core::wire::{Reader, WireError, WireLimits, Writer};
use sc_core::Addr;
use sc_core::{Causes, SecureCyclonNode, SecureDescriptor, SecureStats};
use sc_crypto::PublicKey;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, TcpStream};
use std::time::{Duration, Instant};

/// A node's scraped state: what a live daemon serves, and what the
/// simulator reads off each honest node for the same oracles.
#[derive(Clone, Debug, PartialEq)]
pub struct StatusReport {
    /// Protocol address.
    pub addr: Addr,
    /// Node identity (public key).
    pub id: PublicKey,
    /// The daemon's current cycle number.
    pub cycle: u64,
    /// Whether the node has joined: it holds a view, or held one in this
    /// life or a recovered one ([`sc_core::SecureCyclonNode::joined`]).
    pub joined: bool,
    /// Gossip cycles the daemon has fired (0 off a daemon, as are the
    /// transport, retransmit and skipped-turn counters).
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
    /// What intake refused, rejected and discarded, by cause.
    pub causes: Causes,
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

/// Writes and reads a counter struct as its `u64` fields, each named
/// once, in the order listed.
macro_rules! counter_codec {
    ($ty:ident, $put:ident, $get:ident: $($field:ident),+ $(,)?) => {
        fn $put(w: &mut Writer<'_>, c: &$ty) {
            $(w.u64(c.$field);)+
        }

        fn $get(r: &mut Reader<'_>) -> Result<$ty, WireError> {
            Ok($ty { $($field: r.u64()?),+ })
        }
    };
}

counter_codec!(SecureStats, put_stats, get_stats:
    initiated, completed, timeouts, answered, refused, idle_cycles,
    transfers_sent, transfers_received, transfers_rejected, dup_drops,
    samples_processed, invalid_descriptors, proofs_generated_cloning,
    proofs_generated_frequency, proofs_received, proofs_duplicate,
    proofs_invalid, ns_backfills, ns_redemptions_accepted, bytes_sent,
    bytes_received, rejoin_pings, rejoin_grants,
);

/// Writes and reads [`Causes`] as its counts: refusals, rejections, then
/// discards, each in its cause's declaration order.
fn put_causes(w: &mut Writer<'_>, c: &Causes) {
    for n in c.refused.iter().chain(&c.rejected).chain(&c.discarded) {
        w.u64(*n);
    }
}

fn get_causes(r: &mut Reader<'_>) -> Result<Causes, WireError> {
    let mut c = Causes::default();
    let counts = c.refused.iter_mut().chain(&mut c.rejected);
    for n in counts.chain(&mut c.discarded) {
        *n = r.u64()?;
    }
    Ok(c)
}

counter_codec!(TransportStats, put_transport, get_transport:
    frames_in, frames_out, bytes_in, bytes_out, active_conns, peak_conns,
    connect_failures, poisoned_conns, frames_dropped_injected,
    frames_delayed, frames_duplicated,
);

/// A `u16`-counted list, each element read by `each`. The count is held
/// to the reader's list cap, and to what the remaining input can still
/// hold at one byte an element, before anything is allocated.
fn list<'a, T>(
    c: &mut Reader<'a>,
    mut each: impl FnMut(&mut Reader<'a>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let n = usize::from(c.u16()?);
    c.list_count(n, 1)?;
    (0..n).map(|_| each(c)).collect()
}

impl StatusReport {
    /// Every field a scrape reads off `node` at `cycle`. The daemon-only
    /// counters (`cycles_run`, `transport`, `retransmits`,
    /// `turns_skipped`) are zero: the daemon fills them in, a simulated
    /// node has none.
    pub fn of(node: &SecureCyclonNode, cycle: u64) -> StatusReport {
        StatusReport {
            addr: node.addr(),
            id: node.id(),
            cycle,
            joined: node.joined(),
            cycles_run: 0,
            view: node
                .view()
                .iter()
                .map(|e| (e.desc.clone(), e.non_swappable))
                .collect(),
            reserve: node.reserve().cloned().collect(),
            blacklist: node.blacklist().culprits().copied().collect(),
            redemptions: node.redemption_count(),
            stats: node.stats(),
            causes: node.causes(),
            transport: TransportStats::default(),
            retransmits: 0,
            turns_skipped: 0,
        }
    }

    /// Serializes the report for a `CtrlStatusReply` payload: every
    /// field in declaration order.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        let mut w = Writer::new(&mut out);
        w.u32(self.addr);
        w.bytes(self.id.as_bytes());
        w.u64(self.cycle);
        w.u8(self.joined as u8);
        w.u64(self.cycles_run);
        w.list(2, &self.view, |w, (desc, ns)| {
            w.u8(*ns as u8);
            w.descriptor(desc);
        });
        w.list(2, &self.reserve, Writer::descriptor);
        w.list(2, &self.blacklist, |w, id| w.bytes(id.as_bytes()));
        w.u16(u16::try_from(self.redemptions).unwrap_or(u16::MAX));
        put_stats(&mut w, &self.stats);
        put_causes(&mut w, &self.causes);
        put_transport(&mut w, &self.transport);
        w.u64(self.retransmits);
        w.u64(self.turns_skipped);
        out
    }

    /// Deserializes a report written by [`StatusReport::encode`].
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on malformed payloads — a report cut anywhere
    /// short is [`WireError::UnexpectedEnd`], one with bytes after its
    /// last field [`WireError::TrailingBytes`].
    pub fn decode(buf: &[u8], limits: &WireLimits) -> Result<StatusReport, WireError> {
        let mut c = Reader::with_limits(buf, limits);
        let report = StatusReport {
            addr: c.u32()?,
            id: c.key()?,
            cycle: c.u64()?,
            joined: c.u8()? != 0,
            cycles_run: c.u64()?,
            view: list(&mut c, |c| {
                let ns = c.u8()? != 0;
                Ok((c.descriptor()?, ns))
            })?,
            reserve: list(&mut c, Reader::descriptor)?,
            blacklist: list(&mut c, Reader::key)?,
            redemptions: usize::from(c.u16()?),
            stats: get_stats(&mut c)?,
            causes: get_causes(&mut c)?,
            transport: get_transport(&mut c)?,
            retransmits: c.u64()?,
            turns_skipped: c.u64()?,
        };
        if c.remaining() != 0 {
            return Err(WireError::TrailingBytes);
        }
        Ok(report)
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

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::Timestamp;
    use sc_crypto::{Keypair, Scheme};

    /// A report with something in every field.
    fn full_report() -> StatusReport {
        let kp = Keypair::from_seed(Scheme::KeyedHash, [9; 32]);
        let peer = Keypair::from_seed(Scheme::KeyedHash, [8; 32]);
        let owned = SecureDescriptor::create(&peer, 7, Timestamp(12))
            .transfer(&peer, kp.public())
            .unwrap();
        StatusReport {
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
            // A distinct count for every cause: a codec that swapped two
            // would not round-trip.
            causes: Causes {
                refused: [1, 2, 3, 4, 5, 6, 7, 8],
                rejected: [9, 10, 11],
                discarded: [12, 13, 14, 15, 16],
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
        }
    }

    #[test]
    fn status_report_roundtrips() {
        let report = full_report();
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
        assert_eq!(back.blacklist, report.blacklist);
        assert_eq!(back.redemptions, 5);
        assert_eq!(back.stats, report.stats);
        assert_eq!(back.causes, report.causes);
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
            causes: Causes::default(),
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
        let bytes = full_report().encode();
        // Every cut, those inside the 16 counts of the causes section
        // included: it lies before the 11 transport and 2 daemon counters.
        let causes = bytes.len() - (16 + 13) * 8;
        assert_eq!(bytes[causes..][..8], 1u64.to_be_bytes());
        for cut in 0..bytes.len() {
            assert_eq!(
                StatusReport::decode(&bytes[..cut], &WireLimits::DEFAULT).unwrap_err(),
                WireError::UnexpectedEnd,
                "a report cut at byte {cut} of {}",
                bytes.len()
            );
        }
        let mut long = bytes;
        long.push(0);
        assert_eq!(
            StatusReport::decode(&long, &WireLimits::DEFAULT).unwrap_err(),
            WireError::TrailingBytes
        );
    }
}
