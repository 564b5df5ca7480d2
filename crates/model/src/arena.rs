//! Copy-on-write chunked storage for the node and annotation arenas of an
//! [`Instance`](crate::instance::Instance).
//!
//! An [`Arena`] is a growable array kept as fixed chunks of [`CHUNK`]
//! slots, each behind an `Arc`. Cloning an arena copies the chunk
//! pointers; a write goes through `Arc::make_mut`, which copies the one
//! chunk it lands in if a clone still shares it. A snapshot and the
//! instance it was taken from therefore share every chunk neither side
//! has written since, and what a write costs depends on how many chunks
//! it touches, not on the size of the arena.

use std::fmt;
use std::sync::Arc;

/// log2 of [`CHUNK`].
const CHUNK_BITS: usize = 7;
/// Slots per chunk: small enough that copying a written chunk is cheap,
/// large enough that cloning the chunk table is too.
pub(crate) const CHUNK: usize = 1 << CHUNK_BITS;
const MASK: usize = CHUNK - 1;

/// A growable array of `T` in `Arc`-shared chunks of [`CHUNK`] slots: a
/// list of full, fixed-size chunks and one growing tail chunk. Fixed-size
/// chunks keep a lookup to one bounds check and two pointer hops.
#[derive(Clone)]
pub(crate) struct Arena<T> {
    full: Vec<Arc<[T; CHUNK]>>,
    /// The slots after the full chunks; fewer than [`CHUNK`] of them.
    tail: Arc<Vec<T>>,
}

impl<T: Clone> Arena<T> {
    /// An empty arena.
    pub(crate) fn new() -> Self {
        Arena {
            full: Vec::new(),
            tail: Arc::new(Vec::new()),
        }
    }

    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        self.full.len() * CHUNK + self.tail.len()
    }

    /// The slot at `i`. Panics when `i` is out of range.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> &T {
        match self.full.get(i >> CHUNK_BITS) {
            Some(chunk) => &chunk[i & MASK],
            None => &self.tail[i - self.full.len() * CHUNK],
        }
    }

    /// The slot at `i` for writing; copies its chunk first if a clone
    /// shares it. Panics when `i` is out of range.
    #[inline]
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut T {
        let offset = self.full.len() * CHUNK;
        match self.full.get_mut(i >> CHUNK_BITS) {
            Some(chunk) => &mut Arc::make_mut(chunk)[i & MASK],
            None => &mut Arc::make_mut(&mut self.tail)[i - offset],
        }
    }

    /// Appends a slot. A tail that fills up becomes a full chunk.
    pub(crate) fn push(&mut self, v: T) {
        let tail = Arc::make_mut(&mut self.tail);
        tail.push(v);
        if tail.len() == CHUNK {
            match <[T; CHUNK]>::try_from(std::mem::replace(tail, Vec::with_capacity(CHUNK))) {
                Ok(chunk) => self.full.push(Arc::new(chunk)),
                Err(slots) => *tail = slots,
            }
        }
    }

    /// Keeps the first `len` slots. Whole chunks past `len` are dropped
    /// (or merely released, when a clone shares them); a chunk cut in the
    /// middle becomes the tail, a copy of its kept slots.
    pub(crate) fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        let keep = len / CHUNK;
        let rest = len % CHUNK;
        match self.full.get(keep) {
            Some(cut) => {
                self.tail = Arc::new(cut[..rest].to_vec());
                self.full.truncate(keep);
            }
            None => Arc::make_mut(&mut self.tail).truncate(rest),
        }
    }

    /// Every slot, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.full
            .iter()
            .flat_map(|c| c.iter())
            .chain(self.tail.iter())
    }

    /// How many chunks this arena shares with `other`, position by
    /// position, the tail included.
    #[cfg(test)]
    pub(crate) fn shared_chunks(&self, other: &Self) -> usize {
        let full = self.full.iter().zip(&other.full);
        full.filter(|(a, b)| Arc::ptr_eq(a, b)).count()
            + usize::from(Arc::ptr_eq(&self.tail, &other.tail))
    }

    /// Number of chunks, the tail included.
    #[cfg(test)]
    pub(crate) fn chunk_count(&self) -> usize {
        self.full.len() + 1
    }

    /// Applies `update` to every slot `stale` selects, copying only the
    /// chunks that hold such a slot.
    pub(crate) fn update_where(&mut self, stale: impl Fn(&T) -> bool, update: impl Fn(&mut T)) {
        for chunk in &mut self.full {
            if chunk.iter().any(&stale) {
                Arc::make_mut(chunk)
                    .iter_mut()
                    .filter(|v| stale(v))
                    .for_each(&update);
            }
        }
        if self.tail.iter().any(&stale) {
            let tail = Arc::make_mut(&mut self.tail);
            tail.iter_mut().filter(|v| stale(v)).for_each(&update);
        }
    }
}

impl<T: Clone + fmt::Debug> fmt::Debug for Arena<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize) -> Arena<usize> {
        let mut a = Arena::new();
        for i in 0..n {
            a.push(i);
        }
        a
    }

    #[test]
    fn push_get_and_len_across_chunks() {
        let a = filled(3 * CHUNK + 5);
        assert_eq!(a.len(), 3 * CHUNK + 5);
        assert_eq!((a.full.len(), a.tail.len()), (3, 5));
        assert!((0..a.len()).all(|i| *a.get(i) == i));
        assert_eq!(
            a.iter().copied().collect::<Vec<_>>(),
            (0..a.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic]
    fn reading_past_the_end_panics() {
        filled(CHUNK + 5).get(2 * CHUNK + 1);
    }

    #[test]
    fn a_write_copies_only_its_chunk() {
        let mut a = filled(3 * CHUNK + 2);
        let b = a.clone();
        *a.get_mut(CHUNK + 1) = 999;
        assert_eq!(*b.get(CHUNK + 1), CHUNK + 1);
        assert_eq!(*a.get(CHUNK + 1), 999);
        for c in [0, 2] {
            assert!(Arc::ptr_eq(&a.full[c], &b.full[c]), "chunk {c} copied");
        }
        assert!(!Arc::ptr_eq(&a.full[1], &b.full[1]));
        assert!(Arc::ptr_eq(&a.tail, &b.tail));
        *a.get_mut(3 * CHUNK + 1) = 7;
        assert_eq!(*b.get(3 * CHUNK + 1), 3 * CHUNK + 1);
        assert_eq!(a.shared_chunks(&b), 2);
    }

    #[test]
    fn truncate_at_and_inside_a_chunk_boundary() {
        for cut in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK] {
            let mut a = filled(2 * CHUNK + 3);
            let b = a.clone();
            a.truncate(cut);
            assert_eq!(a.len(), cut);
            assert_eq!(a.iter().count(), cut);
            assert_eq!(b.len(), 2 * CHUNK + 3);
            assert!((0..b.len()).all(|i| *b.get(i) == i));
            // Appending after the cut lands at the cut, in either layout.
            a.push(7);
            assert_eq!(*a.get(cut), 7);
            assert_eq!(*b.get(cut), cut);
        }
    }

    #[test]
    fn update_where_leaves_clean_chunks_shared() {
        let mut a = filled(3 * CHUNK);
        let b = a.clone();
        a.update_where(|&v| v == 2 * CHUNK + 4, |v| *v = 0);
        assert_eq!(*a.get(2 * CHUNK + 4), 0);
        assert_eq!(*b.get(2 * CHUNK + 4), 2 * CHUNK + 4);
        assert!(Arc::ptr_eq(&a.full[0], &b.full[0]));
        assert!(Arc::ptr_eq(&a.full[1], &b.full[1]));
        assert_eq!(a.shared_chunks(&b), 3);
    }

    #[test]
    fn debug_renders_like_a_flat_list() {
        let a = filled(CHUNK + 2);
        let flat: Vec<usize> = (0..CHUNK + 2).collect();
        assert_eq!(format!("{a:?}"), format!("{flat:?}"));
    }
}
