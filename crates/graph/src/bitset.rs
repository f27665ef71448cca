//! A small fixed-capacity bit set.
//!
//! Used throughout the workspace for fault sets, visited markers and
//! candidate filtering in the subgraph-embedding search. Implemented from
//! scratch so the workspace does not pull in an external bitset crate.

/// A fixed-capacity set of `usize` values in `0..len`.
///
/// The capacity is fixed at construction time; inserting an out-of-range
/// value panics. All operations are O(1) except the iterators and the
/// whole-set operations, which are O(len / 64).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty bit set with capacity for values in `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a bit set with capacity `len` containing every value in the
    /// iterator.
    pub fn from_iter<I: IntoIterator<Item = usize>>(len: usize, iter: I) -> Self {
        let mut s = Self::new(len);
        for v in iter {
            s.insert(v);
        }
        s
    }

    /// Creates a bit set containing all values in `0..len`.
    pub fn full(len: usize) -> Self {
        let mut s = Self::new(len);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.trim();
        s
    }

    /// The capacity (universe size) of the set.
    pub fn capacity(&self) -> usize {
        self.len
    }

    fn trim(&mut self) {
        let extra = self.words.len() * 64 - self.len;
        if extra > 0 && !self.words.is_empty() {
            let last = self.words.len() - 1;
            self.words[last] &= u64::MAX >> extra;
        }
    }

    /// Inserts `value`, returning `true` if it was not already present.
    ///
    /// # Panics
    /// Panics if `value >= capacity`.
    pub fn insert(&mut self, value: usize) -> bool {
        assert!(
            value < self.len,
            "BitSet: value {value} out of range {}",
            self.len
        );
        let (w, b) = (value / 64, value % 64);
        let present = self.words[w] >> b & 1 == 1;
        self.words[w] |= 1 << b;
        !present
    }

    /// Removes `value`, returning `true` if it was present.
    pub fn remove(&mut self, value: usize) -> bool {
        assert!(
            value < self.len,
            "BitSet: value {value} out of range {}",
            self.len
        );
        let (w, b) = (value / 64, value % 64);
        let present = self.words[w] >> b & 1 == 1;
        self.words[w] &= !(1 << b);
        present
    }

    /// Returns whether `value` is in the set. Out-of-range values are never
    /// contained.
    pub fn contains(&self, value: usize) -> bool {
        if value >= self.len {
            return false;
        }
        self.words[value / 64] >> (value % 64) & 1 == 1
    }

    /// Number of values currently in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every value from the set.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Iterates over the values in the set in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Iterates over the values of `0..capacity` that are *not* in the set,
    /// in increasing order. Word-wise like [`BitSet::iter`] — `O(len / 64)`
    /// plus one step per yielded value, not one `contains` per candidate.
    pub fn iter_complement(&self) -> impl Iterator<Item = usize> + '_ {
        let last = self.words.len().wrapping_sub(1);
        let tail = self.len % 64;
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let mut bits = !w;
            if wi == last && tail != 0 {
                bits &= u64::MAX >> (64 - tail);
            }
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// In-place union with `other`. Both sets must have the same capacity.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "BitSet capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(!s.contains(0));
        assert!(s.insert(0));
        assert!(!s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(s.contains(0));
        assert!(s.contains(64));
        assert!(s.contains(129));
        assert!(!s.contains(128));
        assert_eq!(s.count(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn iter_is_sorted() {
        let mut s = BitSet::new(200);
        for v in [199, 3, 77, 64, 65, 0] {
            s.insert(v);
        }
        let out: Vec<usize> = s.iter().collect();
        assert_eq!(out, vec![0, 3, 64, 65, 77, 199]);
    }

    #[test]
    fn complement_iter() {
        let s = BitSet::from_iter(6, [1, 3, 5]);
        let out: Vec<usize> = s.iter_complement().collect();
        assert_eq!(out, vec![0, 2, 4]);
    }

    #[test]
    fn full_and_clear() {
        let mut s = BitSet::full(70);
        assert_eq!(s.count(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_iter(10, [1, 2, 3]);
        let b = BitSet::from_iter(10, [3, 4]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_insert_panics() {
        let mut s = BitSet::new(4);
        s.insert(4);
    }
}
