//! Why intake said no: every refusal, transfer rejection and intake
//! discard is a value, counted once by cause in a [`Causes`] record.

use core::fmt;
use core::ops::{AddAssign, Index};

/// Why the passive side refused a request
/// ([`super::SecureStats::refused`]): the gates of admission, in the
/// order they are checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// The redemption certificate fails verification or is not a
    /// descriptor this node minted (§IV-A).
    Certificate,
    /// The certificate's last link is a transfer, not a redemption.
    NotRedeemed,
    /// The initiator's fresh descriptor fails verification, is not the
    /// redeemer's own, is not handed to this node in its one link, is
    /// redeemed, or is stamped off this node's clock.
    Fresh,
    /// The redeemer is blacklisted: known before, or proven by the
    /// request's own proofs or samples.
    Blacklisted,
    /// A second regular redemption of one descriptor.
    Replayed,
    /// A second non-swappable redemption of one descriptor (§V-A rule 1).
    NsReplayed,
    /// This cycle's non-swappable redemption is already taken (§V-A
    /// rule 2).
    NsBudget,
    /// The §IV-B intake checks discarded the certificate or the fresh
    /// descriptor ([`Discard`]).
    Discarded,
}

/// Why an incoming ownership transfer failed validation
/// ([`super::SecureStats::transfers_rejected`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rejection {
    /// Redeemed, owned by another node, or created by this one.
    NotOurs,
    /// A state this node has already continued: accepting it again would
    /// make this node a cloning culprit.
    Spent,
    /// Not signed over by the peer that handed it over.
    WrongSender,
}

/// Why intake discarded a descriptor before relying on it or caching it
/// as a sample. [`Discard::Unverified`] and [`Discard::Forged`] are
/// [`super::SecureStats::invalid_descriptors`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discard {
    /// Its creator is blacklisted.
    Blacklisted,
    /// It failed this step's verification pass.
    Unverified,
    /// It conflicted with a cached sample, and one of the two copies is
    /// forged ([`crate::Observation::Forged`]).
    Forged,
    /// It was created outside the sample window
    /// ([`crate::Observation::Expired`]). No honest peer sends one, so in
    /// an all-honest network this stays 0.
    Expired,
    /// It conflicted with a cached sample: a violation, now proven
    /// ([`crate::Observation::Violation`]).
    Violation,
}

impl Refusal {
    /// Every refusal, in declaration order (the order of
    /// [`Causes::refused`]).
    pub const ALL: [Refusal; 8] = [
        Refusal::Certificate,
        Refusal::NotRedeemed,
        Refusal::Fresh,
        Refusal::Blacklisted,
        Refusal::Replayed,
        Refusal::NsReplayed,
        Refusal::NsBudget,
        Refusal::Discarded,
    ];
}

impl Rejection {
    /// Every rejection, in declaration order.
    pub const ALL: [Rejection; 3] = [Rejection::NotOurs, Rejection::Spent, Rejection::WrongSender];
}

impl Discard {
    /// Every discard, in declaration order.
    pub const ALL: [Discard; 5] = [
        Discard::Blacklisted,
        Discard::Unverified,
        Discard::Forged,
        Discard::Expired,
        Discard::Violation,
    ];
}

/// Per-cause counts, kept beside [`super::SecureStats`] (whose rendering
/// pins recorded end states) and read by
/// [`super::SecureCyclonNode::causes`]. Each array is indexed by its
/// cause as `usize`, or by the cause itself (`causes[Discard::Expired]`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Causes {
    /// Requests refused, by [`Refusal`]; they sum to
    /// [`super::SecureStats::refused`].
    pub refused: [u64; Refusal::ALL.len()],
    /// Transfers rejected, by [`Rejection`]; they sum to
    /// [`super::SecureStats::transfers_rejected`].
    pub rejected: [u64; Rejection::ALL.len()],
    /// Descriptors discarded at intake, by [`Discard`].
    pub discarded: [u64; Discard::ALL.len()],
}

impl Index<Refusal> for Causes {
    type Output = u64;
    fn index(&self, cause: Refusal) -> &u64 {
        &self.refused[cause as usize]
    }
}

impl Index<Rejection> for Causes {
    type Output = u64;
    fn index(&self, cause: Rejection) -> &u64 {
        &self.rejected[cause as usize]
    }
}

impl Index<Discard> for Causes {
    type Output = u64;
    fn index(&self, cause: Discard) -> &u64 {
        &self.discarded[cause as usize]
    }
}

/// Cause by cause: how a network's totals are summed.
impl AddAssign<&Causes> for Causes {
    fn add_assign(&mut self, other: &Causes) {
        for (n, m) in self.refused.iter_mut().zip(other.refused) {
            *n += m;
        }
        for (n, m) in self.rejected.iter_mut().zip(other.rejected) {
            *n += m;
        }
        for (n, m) in self.discarded.iter_mut().zip(other.discarded) {
            *n += m;
        }
    }
}

/// One line: each kind's total, then its non-zero causes.
impl fmt::Display for Causes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn kind<C: fmt::Debug>(
            f: &mut fmt::Formatter<'_>,
            name: &str,
            causes: &[C],
            counts: &[u64],
        ) -> fmt::Result {
            write!(f, "{name} {}", counts.iter().sum::<u64>())?;
            let mut sep = " (";
            for (cause, n) in causes.iter().zip(counts).filter(|(_, &n)| n > 0) {
                write!(f, "{sep}{cause:?} {n}")?;
                sep = ", ";
            }
            if sep == ", " {
                f.write_str(")")?;
            }
            Ok(())
        }
        kind(f, "refused", &Refusal::ALL, &self.refused)?;
        kind(f, "; rejected", &Rejection::ALL, &self.rejected)?;
        kind(f, "; discarded", &Discard::ALL, &self.discarded)
    }
}
