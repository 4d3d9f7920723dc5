//! Dataset construction.

use bda_core::{Dataset, Key, Record, Result};

use crate::dictionary::Dictionary;
use crate::rng::{distinct_sorted, Prng};

/// Builds key-sorted datasets that mimic the paper's dictionary database.
///
/// Keys are distinct pseudo-random 64-bit ordinals (so simple hashing's
/// modulo function sees a well-spread key population, like a real key
/// attribute after encoding), and each record carries the dictionary-entry
/// attributes that signature indexing superimposes. The builder also hands
/// out an *absent-key pool*: keys guaranteed not to be broadcast, used to
/// drive the data-availability experiments of Fig. 5.
///
/// ```
/// use bda_datagen::DatasetBuilder;
///
/// let (dataset, absent) = DatasetBuilder::new(1_000, 42)
///     .build_with_absent_pool(100)
///     .unwrap();
/// assert_eq!(dataset.len(), 1_000);
/// assert!(absent.iter().all(|k| !dataset.contains(*k)));
/// // Same seed, same dataset — experiments are reproducible.
/// assert_eq!(dataset, DatasetBuilder::new(1_000, 42).build().unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    num_records: usize,
    seed: u64,
    attrs_per_record: usize,
}

impl DatasetBuilder {
    /// A builder for `num_records` records from `seed`.
    pub fn new(num_records: usize, seed: u64) -> Self {
        DatasetBuilder {
            num_records,
            seed,
            attrs_per_record: 4,
        }
    }

    /// Override how many attributes each record carries (default 4 — a
    /// dictionary entry's content hash, length, initial and category).
    /// Signature indexing superimposes one hash per attribute, so this is
    /// the paper's "number of attributes" false-drop knob.
    pub fn attrs_per_record(mut self, n: usize) -> Self {
        self.attrs_per_record = n.max(1);
        self
    }

    /// Generate the dataset.
    pub fn build(&self) -> Result<Dataset> {
        let (dataset, _) = self.build_with_absent_pool(0)?;
        Ok(dataset)
    }

    /// Generate the dataset plus `absent` keys that are guaranteed not to
    /// appear in it (for availability < 100 % workloads).
    pub fn build_with_absent_pool(&self, absent: usize) -> Result<(Dataset, Vec<Key>)> {
        let mut rng = Prng::new(self.seed);
        let mut key_rng = rng.fork();
        let dict = Dictionary::generate(self.num_records, rng.next_u64());

        // Distinct pseudo-random keys for the broadcast records. Keys are
        // unrestricted 64-bit values so modulo-style hash functions see the
        // same residue distribution a real key attribute would.
        let keys = distinct_sorted(self.num_records, || key_rng.next_u64());

        let records = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let base = dict.attrs(i);
                let mut attrs = Vec::with_capacity(self.attrs_per_record);
                attrs.push(k); // attribute 0: the key itself
                for j in 1..self.attrs_per_record {
                    attrs.push(base[(j - 1) % base.len()].wrapping_add(j as u64));
                }
                Record::new(Key(k), attrs)
            })
            .collect();
        let dataset = Dataset::new(records)?;

        // Absent keys come from the same distribution, rejected on the
        // (astronomically unlikely) event of colliding with a broadcast key
        // so that queries for them behave statistically like real misses.
        let mut pool = Vec::with_capacity(absent);
        let mut pool_seen = std::collections::HashSet::new();
        while pool.len() < absent {
            let k = key_rng.next_u64();
            if keys.binary_search(&k).is_err() && pool_seen.insert(k) {
                pool.push(Key(k));
            }
        }
        Ok((dataset, pool))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_requested_size_sorted_unique() {
        let ds = DatasetBuilder::new(1000, 7).build().unwrap();
        assert_eq!(ds.len(), 1000);
        for i in 1..ds.len() {
            assert!(ds.record(i - 1).key < ds.record(i).key);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = DatasetBuilder::new(256, 9).build().unwrap();
        let b = DatasetBuilder::new(256, 9).build().unwrap();
        assert_eq!(a, b);
        let c = DatasetBuilder::new(256, 10).build().unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn absent_pool_never_intersects_dataset() {
        let (ds, pool) = DatasetBuilder::new(500, 11)
            .build_with_absent_pool(500)
            .unwrap();
        assert_eq!(pool.len(), 500);
        for k in &pool {
            assert!(!ds.contains(*k));
        }
        // Pool keys are distinct.
        let set: std::collections::HashSet<_> = pool.iter().collect();
        assert_eq!(set.len(), pool.len());
    }

    #[test]
    fn attribute_count_is_respected() {
        let ds = DatasetBuilder::new(50, 13)
            .attrs_per_record(6)
            .build()
            .unwrap();
        for r in ds.records() {
            assert_eq!(r.attrs.len(), 6);
            assert_eq!(r.attrs[0], r.key.value(), "attribute 0 is the key");
        }
    }

    #[test]
    fn keys_are_well_spread_for_hashing() {
        // Modulo-style hashing should see a near-uniform slot distribution.
        let ds = DatasetBuilder::new(2000, 15).build().unwrap();
        let slots = 100u64;
        let mut counts = vec![0u32; slots as usize];
        for r in ds.records() {
            counts[(r.key.value() % slots) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max < 40 && min > 5, "spread min={min} max={max}");
    }
}
