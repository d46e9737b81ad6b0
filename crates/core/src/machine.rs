//! The one interface anything takes a turn through: a sans-IO state
//! machine that maps an [`Input`] to [`Effects`].
//!
//! A [`Machine`] does no I/O and reads no clock. A driver — the
//! simulator's engine or the `sc-node` event loop — feeds it one input at
//! a time and routes what comes back. The honest
//! [`SecureCyclonNode`](crate::SecureCyclonNode), the adversaries and the
//! legacy Cyclon baseline are all machines; they differ in their message
//! type, which defaults to the SecureCyclon wire message.
//!
//! A machine is handed the *cycle*, never a tick. Whatever it stamps or
//! compares in ticks it computes itself, as `cycle · ticks_per_cycle`
//! from its own configuration (plus its phase, for what it mints), so no
//! driver can hand it a tick that makes two of its own descriptors a
//! frequency violation (§IV-B).
//!
//! The contract every machine keeps, and every driver may rely on:
//!
//! * at most one `rpc` effect is outstanding; it is answered by exactly
//!   one [`Input::Reply`] or [`Input::Timeout`];
//! * `rpc` effects come out of [`Input::Tick`], [`Input::Reply`] and
//!   [`Input::Timeout`] steps only — a machine serving an
//!   [`Input::Request`] or an [`Input::Oneway`] never blocks on a third
//!   party;
//! * a tick while an exchange is in flight is a no-op, a reply nobody
//!   awaits is dropped, and a reply of the wrong kind counts as a timeout;
//! * requests and one-way messages are served in any state, also between
//!   the round trips of the machine's own exchange;
//! * a step's one-way messages leave in one order: its `sends`, then its
//!   `flood` message by message — each message to every address of the
//!   flood before the next message.

use crate::msg::SecureMsg;
use crate::Addr;

/// One thing that happens to a machine. Cycle numbers come from the
/// driver's clock (the engine's cycle counter, or the daemon's shared
/// wall clock); a machine that needs ticks derives them from the cycle
/// with its own tick resolution.
#[derive(Debug)]
pub enum Input<M = SecureMsg> {
    /// The node's gossip period came round: run the active turn.
    Tick {
        /// The cycle whose turn this is.
        cycle: u64,
    },
    /// A peer's RPC arrived (the server side): the effects carry the
    /// `reply`, if the node gives one.
    Request {
        /// The caller's address.
        from: Addr,
        /// The request.
        msg: M,
        /// The current cycle.
        cycle: u64,
    },
    /// A one-way message arrived (a proof flood, a rejoin ping or grant).
    Oneway {
        /// The sender's address.
        from: Addr,
        /// The message.
        msg: M,
        /// The current cycle.
        cycle: u64,
    },
    /// The answer to the node's outstanding `rpc` effect.
    Reply(M),
    /// The outstanding `rpc` effect will never be answered. Dead peer,
    /// lost request, lost reply and refusal all look the same (§V-A).
    Timeout,
}

impl<M> Input<M> {
    /// The message this input delivers, if any.
    pub(crate) fn msg(&self) -> Option<&M> {
        match self {
            Input::Request { msg, .. } | Input::Oneway { msg, .. } | Input::Reply(msg) => Some(msg),
            Input::Tick { .. } | Input::Timeout => None,
        }
    }
}

/// What a [`Machine::step`] asks its driver to do.
#[derive(Debug)]
pub struct Effects<M = SecureMsg> {
    /// Perform this RPC and feed the outcome back as [`Input::Reply`] or
    /// [`Input::Timeout`]. A node has at most one RPC outstanding.
    pub rpc: Option<(Addr, M)>,
    /// The answer to the [`Input::Request`] just stepped (`None`: the
    /// caller sees a timeout).
    pub reply: Option<M>,
    /// One-way messages, in sending order.
    pub sends: Vec<(Addr, M)>,
    /// One-way messages for a list of addresses, sent after `sends`.
    pub flood: Option<Flood<M>>,
}

impl<M> Default for Effects<M> {
    fn default() -> Self {
        Effects {
            rpc: None,
            reply: None,
            sends: Vec::new(),
            flood: None,
        }
    }
}

/// The same messages for every address of a list (§IV-C's proof flood),
/// sent message by message: `msgs[0]` to each of `to` in order, then
/// `msgs[1]`, and so on. A driver queues or encodes each message once,
/// not once per address.
#[derive(Debug)]
pub struct Flood<M = SecureMsg> {
    /// The addresses, in sending order.
    pub to: Vec<Addr>,
    /// The messages, in sending order.
    pub msgs: Vec<M>,
}

impl<M> Flood<M> {
    /// The one-way sends the flood stands for, in sending order.
    pub fn sends(&self) -> impl Iterator<Item = (Addr, &M)> {
        self.msgs
            .iter()
            .flat_map(|msg| self.to.iter().map(move |&to| (to, msg)))
    }
}

/// A sans-IO protocol participant (see the module docs for the contract).
pub trait Machine {
    /// The protocol's wire message type.
    type Msg;

    /// Advances the state machine by one input and returns what the
    /// driver must do about it. Performs no I/O and reads no clock.
    fn step(&mut self, input: Input<Self::Msg>) -> Effects<Self::Msg>;
}
