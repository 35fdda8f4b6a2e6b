//! Structured, null-rejecting predicates.
//!
//! The paper requires every selection and join predicate of a view to be
//! *null-rejecting* (strong): it evaluates to false as soon as any referenced
//! column is null (§2). Keeping predicates as structured conjunctions of
//! atoms lets the normalizer, `SimplifyTree`, and the §5.3 predicate
//! splitting reason about exactly which tables each conjunct references.

use std::fmt;

use ojv_rel::Datum;

use crate::table_set::{TableId, TableSet};

/// A reference to column `col` (positional within the base table's schema)
/// of the view table at position `table`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColRef {
    pub table: TableId,
    pub col: usize,
}

impl ColRef {
    pub fn new(table: TableId, col: usize) -> Self {
        ColRef { table, col }
    }
}

impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.c{}", self.table, self.col)
    }
}

/// Comparison operators for scalar atoms. All comparisons follow SQL
/// three-valued logic and are therefore null-rejecting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Evaluate against a three-valued comparison result.
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// One null-rejecting conjunct.
#[derive(Debug, Clone, PartialEq)]
pub enum Atom {
    /// `left ⋈ right` between columns of two (usually different) tables.
    /// `CmpOp::Eq` atoms are the equijoins hash joins key on.
    Cols(ColRef, CmpOp, ColRef),
    /// `col ⋈ literal`.
    Const(ColRef, CmpOp, Datum),
    /// `col BETWEEN lo AND hi` (inclusive).
    Between(ColRef, Datum, Datum),
}

impl Atom {
    /// Equijoin atom `a = b`.
    pub fn eq(a: ColRef, b: ColRef) -> Self {
        Atom::Cols(a, CmpOp::Eq, b)
    }

    /// The set of tables the atom references.
    pub fn tables(&self) -> TableSet {
        match self {
            Atom::Cols(a, _, b) => TableSet::singleton(a.table).insert(b.table),
            Atom::Const(c, _, _) | Atom::Between(c, _, _) => TableSet::singleton(c.table),
        }
    }

    /// All column references in the atom.
    pub fn col_refs(&self) -> Vec<ColRef> {
        match self {
            Atom::Cols(a, _, b) => vec![*a, *b],
            Atom::Const(c, _, _) | Atom::Between(c, _, _) => vec![*c],
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Cols(a, op, b) => write!(f, "{a} {op} {b}"),
            Atom::Const(c, op, d) => write!(f, "{c} {op} {d}"),
            Atom::Between(c, lo, hi) => write!(f, "{c} BETWEEN {lo} AND {hi}"),
        }
    }
}

/// A conjunction of atoms. The empty conjunction is `TRUE`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pred {
    atoms: Vec<Atom>,
}

impl Pred {
    /// The always-true predicate.
    pub fn true_() -> Self {
        Pred { atoms: Vec::new() }
    }

    pub fn new(atoms: Vec<Atom>) -> Self {
        Pred { atoms }
    }

    pub fn atom(a: Atom) -> Self {
        Pred { atoms: vec![a] }
    }

    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    pub fn is_true(&self) -> bool {
        self.atoms.is_empty()
    }

    /// All tables referenced by any conjunct.
    pub fn tables(&self) -> TableSet {
        self.atoms
            .iter()
            .fold(TableSet::empty(), |s, a| s.union(a.tables()))
    }

    /// Conjoin with another predicate.
    #[must_use]
    pub fn and(&self, other: &Pred) -> Pred {
        let mut atoms = self.atoms.clone();
        atoms.extend(other.atoms.iter().cloned());
        Pred { atoms }
    }

    /// True iff the conjunction references table `t` — since every atom is
    /// null-rejecting, this means the whole predicate is null-rejecting on
    /// `t`.
    pub fn null_rejecting_on(&self, t: TableId) -> bool {
        self.atoms.iter().any(|a| a.tables().contains(t))
    }

    /// True iff the predicate is null-rejecting on any table in `ts`.
    pub fn null_rejecting_on_any(&self, ts: TableSet) -> bool {
        self.atoms
            .iter()
            .any(|a| !a.tables().intersect(ts).is_empty())
    }

    /// Split the conjunction into the atoms satisfying `f` and the rest.
    pub fn partition(&self, f: impl Fn(&Atom) -> bool) -> (Pred, Pred) {
        let (yes, no) = self.atoms.iter().cloned().partition(|a| f(a));
        (Pred { atoms: yes }, Pred { atoms: no })
    }

    /// The equijoin atoms (`Cols` with `Eq`) between `left` tables and
    /// `right` tables, returned as `(left_col, right_col)` pairs; plus the
    /// remaining atoms as a residual predicate.
    ///
    /// Used by hash joins to derive their key columns.
    pub fn equi_split(&self, left: TableSet, right: TableSet) -> (Vec<(ColRef, ColRef)>, Pred) {
        let mut keys = Vec::new();
        let mut residual = Vec::new();
        for a in &self.atoms {
            match a {
                Atom::Cols(x, CmpOp::Eq, y) => {
                    if left.contains(x.table) && right.contains(y.table) {
                        keys.push((*x, *y));
                    } else if left.contains(y.table) && right.contains(x.table) {
                        keys.push((*y, *x));
                    } else {
                        residual.push(a.clone());
                    }
                }
                _ => residual.push(a.clone()),
            }
        }
        (keys, Pred { atoms: residual })
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return f.write_str("TRUE");
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cr(t: u8, c: usize) -> ColRef {
        ColRef::new(TableId(t), c)
    }

    #[test]
    fn atom_tables() {
        let a = Atom::eq(cr(0, 1), cr(2, 0));
        assert_eq!(a.tables(), TableSet::from_iter([TableId(0), TableId(2)]));
        let b = Atom::Const(cr(1, 0), CmpOp::Lt, Datum::Int(5));
        assert_eq!(b.tables(), TableSet::singleton(TableId(1)));
    }

    #[test]
    fn pred_null_rejection() {
        let p = Pred::new(vec![
            Atom::eq(cr(0, 0), cr(1, 0)),
            Atom::Const(cr(2, 0), CmpOp::Ge, Datum::Int(0)),
        ]);
        assert!(p.null_rejecting_on(TableId(0)));
        assert!(p.null_rejecting_on(TableId(2)));
        assert!(!p.null_rejecting_on(TableId(3)));
        assert!(p.null_rejecting_on_any(TableSet::from_iter([TableId(3), TableId(2)])));
        assert!(!p.null_rejecting_on_any(TableSet::singleton(TableId(3))));
    }

    #[test]
    fn equi_split_orients_keys() {
        let left = TableSet::singleton(TableId(0));
        let right = TableSet::singleton(TableId(1));
        let p = Pred::new(vec![
            Atom::eq(cr(1, 3), cr(0, 2)), // reversed orientation
            Atom::Const(cr(1, 0), CmpOp::Lt, Datum::Int(9)),
        ]);
        let (keys, residual) = p.equi_split(left, right);
        assert_eq!(keys, vec![(cr(0, 2), cr(1, 3))]);
        assert_eq!(residual.atoms().len(), 1);
    }

    #[test]
    fn true_pred() {
        assert!(Pred::true_().is_true());
        assert_eq!(Pred::true_().to_string(), "TRUE");
        assert_eq!(Pred::true_().tables(), TableSet::EMPTY);
    }

    #[test]
    fn cmp_op_eval() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Le.eval(Equal));
        assert!(CmpOp::Le.eval(Less));
        assert!(!CmpOp::Le.eval(Greater));
        assert!(CmpOp::Ne.eval(Less));
        assert!(!CmpOp::Eq.eval(Less));
        assert!(CmpOp::Ge.eval(Greater));
        assert!(CmpOp::Gt.eval(Greater));
        assert!(CmpOp::Lt.eval(Less));
    }
}
