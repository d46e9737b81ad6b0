//! What a node forgets on a schedule.
//!
//! An [`ExpiryRing`] holds `(cycle, record)` pairs in the order they were
//! stamped and forgets them from the front: [`ExpiryRing::expire`] pops
//! while the oldest stamp is behind the horizon. Everything else scans —
//! the rings a node keeps hold a few dozen to a few hundred small
//! records, read in order, where a hash table of the same records and an
//! expiry schedule beside it cost several times the memory.
//!
//! Records are in cycle order except that an exchange resolving late (its
//! `Reply` arrives after a `Request` of the next cycle was served) pushes
//! records stamped with its own, older cycle. A late record waits behind
//! the younger one ahead of it, so it expires late by the cycles the
//! exchange overran — never early, and never not at all. Only the socket
//! driver stamps late; the simulator's cycles are in order.

use std::collections::VecDeque;

/// A ring of `(cycle, record)` pairs, oldest stamp first.
#[derive(Debug)]
pub(crate) struct ExpiryRing<T> {
    records: VecDeque<(u64, T)>,
}

impl<T> Default for ExpiryRing<T> {
    fn default() -> Self {
        ExpiryRing {
            records: VecDeque::new(),
        }
    }
}

impl<T> ExpiryRing<T> {
    /// Most records a full ring grows by: it holds what one retention
    /// window produced, which settles, so doubling a large ring would
    /// strand up to half of it.
    const GROW_RECORDS: usize = 32;

    pub(crate) fn push(&mut self, cycle: u64, record: T) {
        if self.records.len() == self.records.capacity() {
            let more = self.records.len().clamp(4, Self::GROW_RECORDS);
            self.records.reserve_exact(more);
        }
        self.records.push_back((cycle, record));
    }

    /// Forgets the records stamped before `horizon` that no younger
    /// record stands in front of.
    pub(crate) fn expire(&mut self, horizon: u64) {
        while self.records.front().is_some_and(|&(c, _)| c < horizon) {
            self.records.pop_front();
        }
    }

    /// Forgets the oldest record (an entry cap's eviction).
    pub(crate) fn pop_front(&mut self) {
        self.records.pop_front();
    }

    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// `(stamp, record)` of every record held, oldest first.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = (u64, &T)> + '_ {
        self.records.iter().map(|(cycle, record)| (*cycle, record))
    }

    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> + '_ {
        self.records.iter_mut().map(|(_, record)| record)
    }

    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.records.retain(|(_, record)| keep(record));
    }

    /// Whether any record held equals `record`. A record pushed again is
    /// held for as long as its youngest copy.
    pub(crate) fn contains(&self, record: &T) -> bool
    where
        T: PartialEq,
    {
        self.records.iter().any(|(_, held)| held == record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;

    /// What the ring replaced, three times over — a record → cycle map, a
    /// `(cycle, record)` expiry schedule and this walk of it — kept as the
    /// reference: the entries recorded before `horizon` leave `map`, the
    /// cycle stored in the map deciding (an entry re-recorded since stays;
    /// its newer schedule record comes up later).
    fn expire_reference(
        schedule: &mut VecDeque<(u64, u16)>,
        map: &mut HashMap<u16, u64>,
        horizon: u64,
    ) {
        while let Some(&(cycle, key)) = schedule.front() {
            if cycle >= horizon {
                break;
            }
            schedule.pop_front();
            if let Entry::Occupied(entry) = map.entry(key) {
                if *entry.get() < horizon {
                    entry.remove();
                }
            }
        }
    }

    #[test]
    fn rewriting_a_record_in_place_keeps_its_stamp() {
        let mut ring = ExpiryRing::default();
        for (cycle, left) in [(3, 2usize), (4, 2), (5, 2)] {
            ring.push(cycle, left);
        }
        *ring.iter_mut().nth(1).expect("three records") -= 1;
        let held: Vec<(u64, usize)> = ring.iter().map(|(c, r)| (c, *r)).collect();
        assert_eq!(held, [(3, 2), (4, 1), (5, 2)]);
        ring.retain(|left| *left > 1);
        ring.expire(4);
        assert_eq!(ring.iter().map(|(c, _)| c).collect::<Vec<_>>(), [5]);
    }

    #[test]
    fn a_full_ring_grows_by_a_step_not_by_half() {
        let mut ring = ExpiryRing::default();
        for i in 0..1000u64 {
            ring.push(i, i);
            let spare = ring.records.capacity() - ring.len();
            assert!(spare < ExpiryRing::<u64>::GROW_RECORDS, "{spare} spare");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `contains` agrees with the map for every record ever pushed, at
        /// every step, with one exception, held to the records it can
        /// touch: a record pushed *again* under a *late* stamp. The map
        /// remembered only the cycle written last, so the old pair dropped
        /// such a record as soon as an earlier schedule entry of it came
        /// up; the ring keeps it while the late copy waits behind a
        /// younger record — later, never earlier. `retain` is held to the
        /// same model: removing a key from the map.
        #[test]
        fn ring_matches_the_map_and_schedule_it_replaced(
            ops in proptest::collection::vec((0u8..9, any::<u64>()), 1..400),
            lateness in 0u64..2,
            window in 2u64..60,
        ) {
            let mut ring: ExpiryRing<u16> = ExpiryRing::default();
            let mut map: HashMap<u16, u64> = HashMap::new();
            let mut schedule: VecDeque<(u64, u16)> = VecDeque::new();
            let mut ever: Vec<u16> = Vec::new();
            let mut repushed_late: Vec<u16> = Vec::new();
            let (mut cycle, mut horizon) = (0u64, 0u64);
            for (step, (selector, arg)) in ops.into_iter().enumerate() {
                match selector {
                    // Push a record: a new one, or one of the last few
                    // again; now and then stamped a few cycles back.
                    0..=5 => {
                        let r = match ever.len() {
                            n if n > 0 && selector >= 4 => ever[n - 1 - (arg as usize % n.min(40))],
                            n => n as u16,
                        };
                        let late = if arg % 5 == 0 { lateness * (1 + arg % 3) } else { 0 };
                        let stamped = cycle.saturating_sub(late);
                        if stamped < cycle && ever.contains(&r) {
                            repushed_late.push(r);
                        }
                        ring.push(stamped, r);
                        map.insert(r, stamped);
                        schedule.push_back((stamped, r));
                        if !ever.contains(&r) {
                            ever.push(r);
                        }
                    }
                    // Drop every copy of one record (a closed session, a
                    // purged creator). The reference drops its schedule
                    // entries too: one left behind would stand in front
                    // of a late record the ring no longer holds back.
                    6 if !ever.is_empty() => {
                        let r = ever[arg as usize % ever.len()];
                        ring.retain(|held| *held != r);
                        map.remove(&r);
                        schedule.retain(|(_, key)| *key != r);
                    }
                    // Let up to a fifth of a window pass, then expire.
                    _ => {
                        cycle += arg % window.div_ceil(5);
                        horizon = cycle.saturating_sub(window);
                        ring.expire(horizon);
                        expire_reference(&mut schedule, &mut map, horizon);
                    }
                }
                for r in &ever {
                    let (new, old) = (ring.contains(r), map.contains_key(r));
                    if new == old {
                        continue;
                    }
                    prop_assert!(new, "step {}: dropped early", step);
                    prop_assert!(repushed_late.contains(r), "step {}: no late re-push", step);
                    let waiting = ring.iter().any(|(c, held)| held == r && c < horizon);
                    prop_assert!(waiting, "step {}: kept with no late record", step);
                }
            }
        }
    }
}
