//! Table identifiers and table-set bitsets.

use std::fmt;

/// A table's position in a view's ordered table list.
///
/// The paper restricts views to reference each table at most once (§2), so a
/// position identifies a table unambiguously. Views are limited to 32 tables,
/// which keeps [`TableSet`] a `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u8);

impl TableId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A set of tables, used for term source sets (`T_i`), null-extension sets
/// (`S_i`), and predicate reference sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TableSet(u32);

impl TableSet {
    pub const EMPTY: TableSet = TableSet(0);

    /// Maximum number of tables in a view.
    pub const MAX_TABLES: usize = 32;

    pub fn empty() -> Self {
        TableSet(0)
    }

    pub fn singleton(t: TableId) -> Self {
        debug_assert!((t.0 as usize) < Self::MAX_TABLES);
        TableSet(1 << t.0)
    }

    /// The set {T0, …, T_{n-1}}.
    pub fn first_n(n: usize) -> Self {
        assert!(n <= Self::MAX_TABLES);
        if n == 32 {
            TableSet(u32::MAX)
        } else {
            TableSet((1u32 << n) - 1)
        }
    }

    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(iter: impl IntoIterator<Item = TableId>) -> Self {
        let mut s = TableSet::empty();
        for t in iter {
            s = s.insert(t);
        }
        s
    }

    #[must_use]
    pub fn insert(self, t: TableId) -> Self {
        TableSet(self.0 | (1 << t.0))
    }

    #[must_use]
    pub fn remove(self, t: TableId) -> Self {
        TableSet(self.0 & !(1 << t.0))
    }

    pub fn contains(self, t: TableId) -> bool {
        self.0 & (1 << t.0) != 0
    }

    #[must_use]
    pub fn union(self, other: TableSet) -> Self {
        TableSet(self.0 | other.0)
    }

    #[must_use]
    pub fn intersect(self, other: TableSet) -> Self {
        TableSet(self.0 & other.0)
    }

    #[must_use]
    pub fn difference(self, other: TableSet) -> Self {
        TableSet(self.0 & !other.0)
    }

    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    pub fn is_subset_of(self, other: TableSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Strict subset.
    pub fn is_proper_subset_of(self, other: TableSet) -> bool {
        self.is_subset_of(other) && self != other
    }

    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    pub fn iter(self) -> impl Iterator<Item = TableId> {
        (0..32u8)
            .filter(move |i| self.0 & (1 << i) != 0)
            .map(TableId)
    }

    /// The single element of a singleton set.
    pub fn only(self) -> Option<TableId> {
        if self.len() == 1 {
            self.iter().next()
        } else {
            None
        }
    }
}

impl FromIterator<TableId> for TableSet {
    fn from_iter<I: IntoIterator<Item = TableId>>(iter: I) -> Self {
        TableSet::from_iter(iter)
    }
}

impl fmt::Display for TableSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_set_ops() {
        let a = TableSet::from_iter([TableId(0), TableId(2)]);
        let b = TableSet::singleton(TableId(2));
        assert!(a.contains(TableId(0)));
        assert!(!a.contains(TableId(1)));
        assert!(b.is_subset_of(a));
        assert!(b.is_proper_subset_of(a));
        assert!(!a.is_proper_subset_of(a));
        assert_eq!(a.union(b), a);
        assert_eq!(a.intersect(b), b);
        assert_eq!(a.difference(b), TableSet::singleton(TableId(0)));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn first_n() {
        assert_eq!(TableSet::first_n(3).len(), 3);
        assert!(TableSet::first_n(3).contains(TableId(2)));
        assert!(!TableSet::first_n(3).contains(TableId(3)));
        assert_eq!(TableSet::first_n(0), TableSet::EMPTY);
        assert_eq!(TableSet::first_n(32).len(), 32);
    }

    #[test]
    fn iter_and_only() {
        let a = TableSet::from_iter([TableId(1), TableId(4)]);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![TableId(1), TableId(4)]);
        assert_eq!(a.only(), None);
        assert_eq!(TableSet::singleton(TableId(7)).only(), Some(TableId(7)));
        assert_eq!(TableSet::EMPTY.only(), None);
    }

    #[test]
    fn display() {
        let a = TableSet::from_iter([TableId(0), TableId(3)]);
        assert_eq!(a.to_string(), "{T0,T3}");
    }
}
