//! Engine-level traffic accounting.

/// Counters of message-level events, accumulated over an engine's lifetime.
///
/// Protocol-level byte accounting (descriptor sizes, §VI-A of the paper)
/// lives with the protocol nodes; the engine only counts events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// RPCs initiated.
    pub rpcs_sent: u64,
    /// RPCs that returned a reply to the initiator.
    pub rpcs_completed: u64,
    /// RPCs whose target was dead, never allocated, or the caller itself.
    pub rpcs_unreachable: u64,
    /// RPC requests lost by the network.
    pub rpcs_request_dropped: u64,
    /// RPC responses lost, though the target processed the request: by the
    /// network, or to a hook's crash of either side.
    pub rpcs_response_dropped: u64,
    /// RPCs the target processed but declined to answer.
    pub rpcs_refused: u64,
    /// RPCs severed by an active partition (never reached the target).
    pub rpcs_severed: u64,
    /// One-way messages queued for delivery.
    pub oneways_sent: u64,
    /// One-way messages delivered to a handler.
    pub oneways_delivered: u64,
    /// One-way messages lost by the network.
    pub oneways_dropped: u64,
    /// One-way messages addressed to dead nodes.
    pub oneways_to_dead: u64,
    /// One-way messages severed by an active partition.
    pub oneways_severed: u64,
}
