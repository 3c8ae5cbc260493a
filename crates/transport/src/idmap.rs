//! Per-stream state by stream id.
//!
//! A connection opens its streams in ascending id order (5, 7, 9, …),
//! and a server answers them roughly in that order, so an id-sorted
//! `Vec` appends at the back, finds by binary search and iterates in
//! id order — what an ordered map gives, without a node per stream.

/// Values keyed by a `u64` id, ascending.
#[derive(Debug)]
pub(crate) struct IdMap<T> {
    entries: Vec<(u64, T)>,
}

/// A set of ids, ascending.
pub(crate) type IdSet = IdMap<()>;

impl<T> Default for IdMap<T> {
    fn default() -> Self {
        IdMap {
            entries: Vec::new(),
        }
    }
}

impl<T> IdMap<T> {
    /// Where `id` is (`Ok`) or would go (`Err`).
    fn find(&self, id: u64) -> Result<usize, usize> {
        match self.entries.last() {
            Some(last) if id > last.0 => Err(self.entries.len()),
            Some(last) if id == last.0 => Ok(self.entries.len() - 1),
            _ => self.entries.binary_search_by_key(&id, |e| e.0),
        }
    }

    pub(crate) fn get(&self, id: u64) -> Option<&T> {
        let i = self.find(id).ok()?;
        self.entries.get(i).map(|e| &e.1)
    }

    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let i = self.find(id).ok()?;
        self.entries.get_mut(i).map(|e| &mut e.1)
    }

    /// The value at `id`, inserted by `make` if absent.
    #[expect(
        clippy::indexing_slicing,
        reason = "`i` was just found, or just filled by the insert"
    )]
    pub(crate) fn get_or_insert_with(&mut self, id: u64, make: impl FnOnce() -> T) -> &mut T {
        let i = match self.find(id) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (id, make()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Take `id` out, if present.
    pub(crate) fn remove(&mut self, id: u64) -> Option<T> {
        let i = self.find(id).ok()?;
        Some(self.entries.remove(i).1)
    }

    /// The lowest id.
    pub(crate) fn first(&self) -> Option<u64> {
        self.entries.first().map(|e| e.0)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl IdSet {
    /// Add `id` (no-op when present).
    pub(crate) fn insert(&mut self, id: u64) {
        self.get_or_insert_with(id, || ());
    }

    /// Ids in ascending order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|e| e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    proptest! {
        /// The map agrees with a `BTreeMap<u64, _>` and the set with a
        /// `BTreeSet<u64>` under inserts (ascending runs and arbitrary
        /// ids), updates, lookups and removals: same answers, same
        /// first id, same iteration order.
        #[test]
        fn match_btree_models(
            ops in prop::collection::vec((0u8..8, 0u64..48, 0u64..1000), 1..200)
        ) {
            let mut map: IdMap<u64> = IdMap::default();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut set = IdSet::default();
            let mut set_model: BTreeSet<u64> = BTreeSet::new();
            let mut next = 5u64;
            for (op, id, v) in ops {
                match op {
                    // Open the next stream (ids ascend by two).
                    0..=1 => {
                        *map.get_or_insert_with(next, || v) += 1;
                        *model.entry(next).or_insert(v) += 1;
                        set.insert(next);
                        set_model.insert(next);
                        next += 2;
                    }
                    // Touch any id, present or not.
                    2..=3 => {
                        *map.get_or_insert_with(id, || v) += v;
                        *model.entry(id).or_insert(v) += v;
                        set.insert(id);
                        set_model.insert(id);
                    }
                    4 => {
                        if let Some(x) = map.get_mut(id) {
                            *x ^= v;
                        }
                        if let Some(x) = model.get_mut(&id) {
                            *x ^= v;
                        }
                    }
                    5..=6 => {
                        prop_assert_eq!(map.remove(id), model.remove(&id));
                        prop_assert_eq!(set.remove(id).is_some(), set_model.remove(&id));
                    }
                    // Drain the lowest, as retransmission does.
                    _ => {
                        let first = set.first();
                        prop_assert_eq!(first, set_model.first().copied());
                        if let Some(f) = first {
                            set.remove(f);
                            set_model.remove(&f);
                        }
                    }
                }
                prop_assert_eq!(map.first(), model.keys().next().copied());
                prop_assert_eq!(map.is_empty(), model.is_empty());
                let got: Vec<(u64, u64)> = map.entries.clone();
                let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
                prop_assert_eq!(got, want);
                for probe in [id, next, next.saturating_sub(2)] {
                    prop_assert_eq!(map.get(probe), model.get(&probe));
                }
                let ids: Vec<u64> = set.ids().collect();
                let want_ids: Vec<u64> = set_model.iter().copied().collect();
                prop_assert_eq!(ids, want_ids);
                prop_assert_eq!(set.is_empty(), set_model.is_empty());
            }
        }
    }
}
