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
    /// RPCs whose target was dead, never allocated, or the caller itself
    /// (the only node that is mid-turn when an RPC runs).
    pub rpcs_unreachable: u64,
    /// RPC requests lost by the network.
    pub rpcs_request_dropped: u64,
    /// RPC responses lost by the network (the target processed the request).
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

impl TrafficStats {
    /// Fraction of initiated RPCs that completed with a reply.
    pub fn rpc_success_rate(&self) -> f64 {
        if self.rpcs_sent == 0 {
            return 0.0;
        }
        self.rpcs_completed as f64 / self.rpcs_sent as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_rate_handles_zero() {
        assert_eq!(TrafficStats::default().rpc_success_rate(), 0.0);
    }

    #[test]
    fn success_rate_ratio() {
        let s = TrafficStats {
            rpcs_sent: 8,
            rpcs_completed: 2,
            ..Default::default()
        };
        assert!((s.rpc_success_rate() - 0.25).abs() < 1e-12);
    }
}
