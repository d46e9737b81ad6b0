//! Arena-style node storage for the engine.
//!
//! The engine hosts up to hundreds of thousands of protocol nodes and
//! moves them in and out of storage constantly — once per turn, plus once
//! per RPC served and once per one-way delivered. [`Arena`] is laid out so
//! all of those moves are pointer-sized, and so per-cycle setup costs
//! O(alive) rather than O(every address ever allocated):
//!
//! * **Struct-of-arrays layout.** Node payloads (`Vec<Option<Box<N>>>`)
//!   and liveness flags (`Vec<bool>`) live in separate parallel arrays,
//!   both indexed by [`Addr`]. Liveness checks — the hot path of every
//!   RPC admission — touch only the densely packed flag array.
//! * **Boxed payloads.** Each node is boxed once at spawn; taking a node
//!   out for its turn (or to serve an RPC) moves 8 bytes, not the node
//!   body, and nothing is reallocated over a node's lifetime.
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
/// liveness checks, pointer-sized node moves. See the module docs for the
/// layout rationale.
#[derive(Debug)]
pub struct Arena<N> {
    /// Node payloads by address. `None` means departed *or* temporarily
    /// checked out (mid-turn / serving a handler).
    nodes: Vec<Option<Box<N>>>,
    /// Liveness flags by address. A checked-out node stays `true`; only
    /// [`Arena::kill`] clears the flag.
    alive: Vec<bool>,
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
            alive: Vec::new(),
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
        self.alive.push(true);
        self.live.push(addr);
        self.n_alive += 1;
        addr
    }

    /// Kills the node at `addr` (crash / departure). The address is
    /// retired permanently; later messages to it dangle. Killing a dead
    /// or never-allocated address is a no-op.
    pub fn kill(&mut self, addr: Addr) {
        let i = addr as usize;
        if let Some(flag) = self.alive.get_mut(i) {
            if *flag {
                *flag = false;
                self.nodes[i] = None;
                self.n_alive -= 1;
                self.live_dirty = true;
            }
        }
    }

    /// Whether `addr` is alive (killed and never-allocated addresses are
    /// both dead). A node temporarily checked out for its turn is still
    /// alive.
    pub fn is_alive(&self, addr: Addr) -> bool {
        self.alive.get(addr as usize).copied().unwrap_or(false)
    }

    /// Number of alive nodes. O(1).
    pub fn alive_count(&self) -> usize {
        self.n_alive
    }

    /// Total number of addresses ever allocated (alive or dead).
    pub fn capacity(&self) -> usize {
        self.nodes.len()
    }

    /// Borrows the node at `addr`, if alive and not checked out.
    pub fn get(&self, addr: Addr) -> Option<&N> {
        let i = addr as usize;
        if self.alive.get(i).copied().unwrap_or(false) {
            self.nodes[i].as_deref()
        } else {
            None
        }
    }

    /// Mutably borrows the node at `addr`, if alive and not checked out.
    pub fn get_mut(&mut self, addr: Addr) -> Option<&mut N> {
        let i = addr as usize;
        if self.alive.get(i).copied().unwrap_or(false) {
            self.nodes[i].as_deref_mut()
        } else {
            None
        }
    }

    /// Checks the node at `addr` out of the arena (for its turn, or to run
    /// a handler). Returns `None` if the address is dead or the node is
    /// already checked out. The address stays alive; pair with
    /// [`Arena::put_back`].
    pub fn take(&mut self, addr: Addr) -> Option<Box<N>> {
        let i = addr as usize;
        if self.alive.get(i).copied().unwrap_or(false) {
            self.nodes[i].take()
        } else {
            None
        }
    }

    /// Returns a checked-out node to its slot.
    ///
    /// If the address was killed while the node was out, the returned node
    /// is dropped (the kill wins — the address stays dead).
    pub fn put_back(&mut self, addr: Addr, node: Box<N>) {
        let i = addr as usize;
        if self.alive.get(i).copied().unwrap_or(false) {
            debug_assert!(self.nodes[i].is_none(), "slot re-filled while node out");
            self.nodes[i] = Some(node);
        }
    }

    /// The alive addresses in ascending order. Compacts the maintained
    /// live list if kills happened since the last call; O(alive) then,
    /// O(1) otherwise.
    pub fn live_addrs(&mut self) -> &[Addr] {
        if self.live_dirty {
            let alive = &self.alive;
            self.live.retain(|&a| alive[a as usize]);
            self.live_dirty = false;
        }
        &self.live
    }

    /// Iterates over `(addr, node)` for all alive, checked-in nodes in
    /// ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, &N)> {
        self.nodes.iter().enumerate().filter_map(move |(i, slot)| {
            if self.alive[i] {
                slot.as_deref().map(|n| (i as Addr, n))
            } else {
                None
            }
        })
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
    fn take_put_back_round_trips() {
        let mut a: Arena<String> = Arena::new();
        let addr = a.insert_with(|ad| format!("node-{ad}"));
        let node = a.take(addr).expect("alive node can be taken");
        assert!(a.get(addr).is_none(), "checked out");
        assert!(a.is_alive(addr), "still alive while out");
        assert!(a.take(addr).is_none(), "double take fails");
        a.put_back(addr, node);
        assert_eq!(a.get(addr).unwrap(), "node-0");
    }

    #[test]
    fn kill_while_checked_out_wins() {
        let mut a: Arena<u32> = Arena::new();
        let addr = a.insert_with(|_| 7);
        let node = a.take(addr).unwrap();
        a.kill(addr);
        a.put_back(addr, node);
        assert!(!a.is_alive(addr));
        assert!(a.get(addr).is_none());
        assert_eq!(a.alive_count(), 0);
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
        assert!(a.take(99).is_none());
        assert!(!a.is_alive(99));
    }

    #[test]
    fn iter_skips_dead_and_checked_out() {
        let mut a: Arena<u32> = Arena::new();
        for i in 0..4 {
            a.insert_with(|_| i * 10);
        }
        a.kill(1);
        let _out = a.take(2).unwrap();
        let seen: Vec<_> = a.iter().map(|(ad, v)| (ad, *v)).collect();
        assert_eq!(seen, vec![(0, 0), (3, 30)]);
    }
}
