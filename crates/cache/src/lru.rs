//! A true-LRU cache set.

/// One line's state within a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineState {
    /// The line's tag (full line address divided by the set count).
    pub tag: u64,
    /// Whether the line differs from the copy below.
    pub dirty: bool,
    /// Whether the line was cleaned by an Eager Mellow Write and has not
    /// been re-dirtied since (used to account wasted/saved writebacks).
    pub eager_cleaned: bool,
}

/// A victim evicted from a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The evicted line's tag.
    pub tag: u64,
    /// Whether it must be written back.
    pub dirty: bool,
    /// Whether it had been eagerly cleaned (and stayed clean).
    pub eager_cleaned: bool,
}

/// A true-LRU stack of at most `assoc` lines; index 0 is the MRU
/// position, index `assoc − 1` the LRU position.
///
/// # Examples
///
/// ```
/// use mellow_cache::LruSet;
///
/// let mut set = LruSet::new(2);
/// assert!(set.insert(10).is_none());
/// assert!(set.insert(11).is_none());
/// assert_eq!(set.probe(10), Some(1)); // 10 is now LRU
/// set.touch(10);                      // promote to MRU
/// let victim = set.insert(12).unwrap();
/// assert_eq!(victim.tag, 11);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LruSet {
    /// Lines ordered MRU → LRU.
    lines: Vec<LineState>,
    assoc: usize,
}

impl LruSet {
    /// Creates an empty set with `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is zero.
    pub fn new(assoc: usize) -> Self {
        assert!(assoc > 0, "associativity must be non-zero");
        LruSet {
            lines: Vec::with_capacity(assoc),
            assoc,
        }
    }

    /// Returns the LRU stack position of `tag`, without promoting it.
    pub fn probe(&self, tag: u64) -> Option<usize> {
        self.lines.iter().position(|l| l.tag == tag)
    }

    /// Promotes `tag` to the MRU position.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is not present.
    pub fn touch(&mut self, tag: u64) {
        let pos = self.probe(tag).expect("touch of absent tag");
        let line = self.lines.remove(pos);
        self.lines.insert(0, line);
    }

    /// Inserts `tag` (clean) at the MRU position, returning the evicted
    /// victim when the set was full.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is already present (install must be preceded by a
    /// probe).
    pub fn insert(&mut self, tag: u64) -> Option<Victim> {
        assert!(self.probe(tag).is_none(), "insert of present tag");
        let victim = if self.lines.len() == self.assoc {
            let v = self.lines.pop().expect("full set has a last line");
            Some(Victim {
                tag: v.tag,
                dirty: v.dirty,
                eager_cleaned: v.eager_cleaned,
            })
        } else {
            None
        };
        self.lines.insert(
            0,
            LineState {
                tag,
                dirty: false,
                eager_cleaned: false,
            },
        );
        victim
    }

    /// Returns a mutable reference to the state of `tag`, if present.
    pub fn state_mut(&mut self, tag: u64) -> Option<&mut LineState> {
        self.lines.iter_mut().find(|l| l.tag == tag)
    }

    /// Returns the state of `tag`, if present.
    pub fn state(&self, tag: u64) -> Option<&LineState> {
        self.lines.iter().find(|l| l.tag == tag)
    }

    /// Removes `tag` from the set, returning its state.
    pub fn remove(&mut self, tag: u64) -> Option<LineState> {
        let pos = self.probe(tag)?;
        Some(self.lines.remove(pos))
    }

    /// Returns the position and tag of the dirty line nearest the LRU
    /// end, if any. It is the set's Eager Mellow Write candidate
    /// (§IV-B1) exactly when its position is at or past the utility
    /// monitor's first useless position.
    pub fn deepest_dirty(&self) -> Option<(usize, u64)> {
        self.lines
            .iter()
            .rposition(|l| l.dirty)
            .map(|pos| (pos, self.lines[pos].tag))
    }

    /// Returns the number of resident lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Returns `true` when the set holds no lines.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Returns the configured associativity.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Iterates over resident lines from MRU to LRU.
    pub fn iter(&self) -> impl Iterator<Item = &LineState> {
        self.lines.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_order_tracks_recency() {
        let mut s = LruSet::new(4);
        for t in 0..4 {
            s.insert(t);
        }
        // 3 is MRU, 0 is LRU.
        assert_eq!(s.probe(3), Some(0));
        assert_eq!(s.probe(0), Some(3));
        s.touch(0);
        assert_eq!(s.probe(0), Some(0));
        assert_eq!(s.probe(3), Some(1));
    }

    #[test]
    fn insert_evicts_lru() {
        let mut s = LruSet::new(2);
        s.insert(1);
        s.insert(2);
        let v = s.insert(3).unwrap();
        assert_eq!(v.tag, 1);
        assert!(!v.dirty);
        assert_eq!(s.len(), 2);
        assert!(s.probe(1).is_none());
    }

    #[test]
    fn dirty_victim_reported() {
        let mut s = LruSet::new(1);
        s.insert(7);
        s.state_mut(7).unwrap().dirty = true;
        let v = s.insert(8).unwrap();
        assert!(v.dirty);
        assert_eq!(v.tag, 7);
    }

    #[test]
    fn deepest_dirty_prefers_highest_position() {
        let mut s = LruSet::new(4);
        for t in [1, 2, 3, 4] {
            s.insert(t);
        }
        // Stack: 4(MRU) 3 2 1(LRU). Dirty 3 and 1.
        s.state_mut(3).unwrap().dirty = true;
        s.state_mut(1).unwrap().dirty = true;
        // The LRU-most dirty line: tag 1 at position 3.
        assert_eq!(s.deepest_dirty(), Some((3, 1)));
        s.state_mut(1).unwrap().dirty = false;
        // Now only tag 3 at position 1 is dirty.
        assert_eq!(s.deepest_dirty(), Some((1, 3)));
        // Promoting a clean line above it pushes it one position down.
        s.touch(1);
        assert_eq!(s.deepest_dirty(), Some((2, 3)));
    }

    #[test]
    fn deepest_dirty_ignores_clean_lines() {
        let mut s = LruSet::new(2);
        s.insert(1);
        s.insert(2);
        assert_eq!(s.deepest_dirty(), None);
    }

    #[test]
    fn remove_returns_state() {
        let mut s = LruSet::new(2);
        s.insert(5);
        s.state_mut(5).unwrap().dirty = true;
        let st = s.remove(5).unwrap();
        assert!(st.dirty);
        assert!(s.is_empty());
        assert!(s.remove(5).is_none());
    }

    #[test]
    fn partial_set_inserts_without_eviction() {
        let mut s = LruSet::new(8);
        for t in 0..5 {
            assert!(s.insert(t).is_none());
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.assoc(), 8);
        assert_eq!(s.iter().count(), 5);
    }

    #[test]
    #[should_panic(expected = "insert of present tag")]
    fn duplicate_insert_rejected() {
        let mut s = LruSet::new(2);
        s.insert(1);
        s.insert(1);
    }

    #[test]
    #[should_panic(expected = "absent tag")]
    fn touch_absent_rejected() {
        let mut s = LruSet::new(2);
        s.touch(9);
    }
}
