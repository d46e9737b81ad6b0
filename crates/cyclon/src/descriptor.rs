//! Legacy Cyclon node descriptors.
//!
//! In the original Cyclon protocol (Voulgaris et al., 2005) a descriptor is
//! a plain record: the node's ID, its network address, and an *age* counter
//! incremented once per cycle. Nothing is signed — which is precisely the
//! weakness SecureCyclon addresses. This type is the baseline against which
//! the paper's Figure 3 attack is demonstrated.

use sc_core::Addr;
use sc_crypto::NodeId;

/// A legacy (unsecured) Cyclon descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LegacyDescriptor {
    /// Unique ID of the node this descriptor points at.
    pub id: NodeId,
    /// Network address of that node.
    pub addr: Addr,
    /// Cycles since the descriptor was created (0 = fresh).
    pub age: u32,
}

impl LegacyDescriptor {
    /// Creates a fresh (age 0) descriptor.
    pub fn fresh(id: NodeId, addr: Addr) -> Self {
        LegacyDescriptor { id, addr, age: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_crypto::{Keypair, Scheme};

    #[test]
    fn fresh_has_zero_age() {
        let id = Keypair::from_seed(Scheme::KeyedHash, [1; 32]).public();
        let d = LegacyDescriptor::fresh(id, 4);
        assert_eq!(d.age, 0);
        assert_eq!(d.addr, 4);
        assert_eq!(d.id, id);
    }
}
