//! Arena-style node storage for the engine.
//!
//! The engine hosts up to hundreds of thousands of protocol nodes and
//! steps them where they lie: no node ever leaves its slot. [`Arena`] is
//! laid out so that per-cycle setup costs O(alive) rather than O(every
//! address ever allocated):
//!
//! * **Boxed payloads.** Each node is boxed once at spawn, so the slot
//!   array holds one pointer per address ever allocated, dead ones
//!   included, however large a node is; a node's body is never moved or
//!   reallocated while it lives. An empty slot is a dead address.
//! * **Maintained live list.** The set of alive addresses is kept as a
//!   sorted `Vec<Addr>`, compacted lazily after kills, so building a
//!   cycle's turn order is a copy of the live list instead of a scan of
//!   the whole address space.
//! * **Addresses are never reused.** The arena only ever grows; a killed
//!   address stays dead forever, so descriptors pointing at departed
//!   nodes dangle — exactly as in a real overlay (and as the protocol's
//!   aliveness rules assume).

use sc_core::Addr;

/// Index-based node storage: monotonically allocated addresses, O(1)
/// liveness checks, nodes boxed in place. See the module docs for the
/// layout rationale.
#[derive(Debug)]
pub struct Arena<N> {
    /// Node payloads by address; `None` means departed.
    nodes: Vec<Option<Box<N>>>,
    /// Alive addresses in ascending order; may contain stale (killed)
    /// entries until the next [`Arena::live_addrs`] compaction.
    live: Vec<Addr>,
    /// Whether `live` contains stale entries.
    live_dirty: bool,
    /// Number of alive addresses (exact, maintained eagerly).
    n_alive: usize,
}

impl<N> Default for Arena<N> {
    fn default() -> Self {
        Arena {
            nodes: Vec::new(),
            live: Vec::new(),
            live_dirty: false,
            n_alive: 0,
        }
    }
}

impl<N> Arena<N> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates the next address and stores the node `make` builds for it.
    /// Addresses are handed out in ascending order and never reused.
    pub fn insert_with(&mut self, make: impl FnOnce(Addr) -> N) -> Addr {
        let addr = self.nodes.len() as Addr;
        let node = Box::new(make(addr));
        self.nodes.push(Some(node));
        self.live.push(addr);
        self.n_alive += 1;
        addr
    }

    /// Kills the node at `addr` (crash / departure). The address is
    /// retired permanently; later messages to it dangle. Killing a dead
    /// or never-allocated address is a no-op.
    pub fn kill(&mut self, addr: Addr) {
        if let Some(Some(_)) = self.nodes.get_mut(addr as usize).map(Option::take) {
            self.n_alive -= 1;
            self.live_dirty = true;
        }
    }

    /// Whether `addr` is alive (killed and never-allocated addresses are
    /// both dead).
    pub fn is_alive(&self, addr: Addr) -> bool {
        self.get(addr).is_some()
    }

    /// Number of alive nodes. O(1).
    pub fn alive_count(&self) -> usize {
        self.n_alive
    }

    /// Total number of addresses ever allocated (alive or dead).
    pub fn capacity(&self) -> usize {
        self.nodes.len()
    }

    /// Borrows the node at `addr`, if alive.
    pub fn get(&self, addr: Addr) -> Option<&N> {
        self.nodes.get(addr as usize)?.as_deref()
    }

    /// Mutably borrows the node at `addr`, if alive.
    pub fn get_mut(&mut self, addr: Addr) -> Option<&mut N> {
        self.nodes.get_mut(addr as usize)?.as_deref_mut()
    }

    /// Replaces the node at `addr` with what `f` makes of it, at the same
    /// address. Returns `false`, calling nothing, when `addr` is not
    /// alive.
    pub fn replace_with(&mut self, addr: Addr, f: impl FnOnce(N) -> N) -> bool {
        let Some(node) = self.nodes.get_mut(addr as usize).and_then(Option::take) else {
            return false;
        };
        self.nodes[addr as usize] = Some(Box::new(f(*node)));
        true
    }

    /// The alive addresses in ascending order. Compacts the maintained
    /// live list if kills happened since the last call; O(alive) then,
    /// O(1) otherwise.
    pub fn live_addrs(&mut self) -> &[Addr] {
        if self.live_dirty {
            let nodes = &self.nodes;
            self.live.retain(|&a| nodes[a as usize].is_some());
            self.live_dirty = false;
        }
        &self.live
    }

    /// Iterates over `(addr, node)` for all alive nodes in ascending
    /// address order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, &N)> {
        let nodes = self.nodes.iter().enumerate();
        nodes.filter_map(|(i, slot)| slot.as_deref().map(|n| (i as Addr, n)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_ascend_and_never_recycle() {
        let mut a: Arena<u32> = Arena::new();
        let x = a.insert_with(|_| 10);
        let y = a.insert_with(|_| 20);
        assert_eq!((x, y), (0, 1));
        a.kill(x);
        let z = a.insert_with(|_| 30);
        assert_eq!(z, 2, "killed address must not be recycled");
        assert!(!a.is_alive(x));
        assert_eq!(a.capacity(), 3);
        assert_eq!(a.alive_count(), 2);
    }

    #[test]
    fn live_list_compacts_lazily() {
        let mut a: Arena<u32> = Arena::new();
        for i in 0..5 {
            a.insert_with(|_| i);
        }
        a.kill(1);
        a.kill(3);
        assert_eq!(a.live_addrs(), &[0, 2, 4]);
        // A second call takes the clean path and agrees.
        assert_eq!(a.live_addrs(), &[0, 2, 4]);
        a.insert_with(|_| 9);
        assert_eq!(a.live_addrs(), &[0, 2, 4, 5]);
    }

    #[test]
    fn replace_with_keeps_the_address_alive() {
        let mut a: Arena<String> = Arena::new();
        let addr = a.insert_with(|ad| format!("node-{ad}"));
        assert!(a.replace_with(addr, |old| old + "'"));
        assert_eq!(a.get(addr).unwrap(), "node-0'");
        assert!(a.is_alive(addr));
        assert_eq!(a.live_addrs(), &[addr]);
        a.kill(addr);
        assert!(!a.replace_with(addr, |_| unreachable!("dead")));
        assert!(a.get(addr).is_none());
    }

    #[test]
    fn dead_and_unallocated_addresses_are_inert() {
        let mut a: Arena<u32> = Arena::new();
        let addr = a.insert_with(|_| 1);
        a.kill(addr);
        a.kill(addr); // double kill: no-op
        a.kill(99); // never allocated: no-op
        assert_eq!(a.alive_count(), 0);
        assert!(a.get(99).is_none());
        assert!(a.get_mut(99).is_none());
        assert!(!a.replace_with(99, |n| n));
        assert!(!a.is_alive(99));
    }

    #[test]
    fn iter_skips_dead() {
        let mut a: Arena<u32> = Arena::new();
        for i in 0..4 {
            a.insert_with(|_| i * 10);
        }
        a.kill(1);
        a.kill(2);
        let seen: Vec<_> = a.iter().map(|(ad, v)| (ad, *v)).collect();
        assert_eq!(seen, vec![(0, 0), (3, 30)]);
    }
}
