//! The subsumption graph (paper §2.3, Definition 2.1).

use std::fmt;

use crate::normal_form::Term;

/// The DAG of subsumption relationships among the terms of a normal form.
///
/// There is an edge from node `i` to node `j` when `S_i` is a *minimal*
/// superset of `S_j` among the term source sets: tuples of term `j` can only
/// be subsumed by tuples of (transitive) superset terms, and checking the
/// immediate parents suffices (paper, Lemma 2 of \[6\]).
#[derive(Debug, Clone)]
pub struct SubsumptionGraph {
    terms: Vec<Term>,
    /// `parents[i]` — indexes of the minimal-superset terms of term `i`.
    parents: Vec<Vec<usize>>,
    /// `children[i]` — inverse of `parents`.
    children: Vec<Vec<usize>>,
}

impl SubsumptionGraph {
    pub fn new(terms: Vec<Term>) -> Self {
        let n = terms.len();
        let mut parents = vec![Vec::new(); n];
        let mut children = vec![Vec::new(); n];
        for i in 0..n {
            for j in 0..n {
                if i == j || !terms[j].tables.is_proper_subset_of(terms[i].tables) {
                    continue;
                }
                // i ⊃ j; minimal iff no k with j ⊂ k ⊂ i.
                let minimal = !(0..n).any(|k| {
                    k != i
                        && k != j
                        && terms[j].tables.is_proper_subset_of(terms[k].tables)
                        && terms[k].tables.is_proper_subset_of(terms[i].tables)
                });
                if minimal {
                    parents[j].push(i);
                    children[i].push(j);
                }
            }
        }
        SubsumptionGraph {
            terms,
            parents,
            children,
        }
    }

    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    pub fn len(&self) -> usize {
        self.terms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    pub fn term(&self, i: usize) -> &Term {
        &self.terms[i]
    }

    /// Minimal-superset parents of term `i`.
    pub fn parents(&self, i: usize) -> &[usize] {
        &self.parents[i]
    }

    /// Terms whose minimal superset is term `i`.
    pub fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }
}

impl fmt::Display for SubsumptionGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.terms.iter().enumerate() {
            write!(f, "{}: {}", i, t.tables)?;
            if !self.parents[i].is_empty() {
                write!(f, " -> parents ")?;
                for (k, p) in self.parents[i].iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", self.terms[*p].tables)?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::Pred;
    use crate::table_set::{TableId, TableSet};

    fn term(ids: &[u8]) -> Term {
        Term {
            tables: TableSet::from_iter(ids.iter().map(|&i| TableId(i))),
            pred: Pred::true_(),
        }
    }

    /// Figure 1(a): the subsumption graph of V1 with terms
    /// {T,U,R,S}, {T,U,R}, {T,R,S}, {T,R}, {R,S}, {R}, {S}.
    /// Ids: R=0, S=1, T=2, U=3.
    #[test]
    fn v1_subsumption_graph_matches_figure_1a() {
        let terms = vec![
            term(&[0, 1, 2, 3]), // TURS (0)
            term(&[0, 2, 3]),    // TUR  (1)
            term(&[0, 1, 2]),    // TRS  (2)
            term(&[0, 2]),       // TR   (3)
            term(&[0, 1]),       // RS   (4)
            term(&[0]),          // R    (5)
            term(&[1]),          // S    (6)
        ];
        let g = SubsumptionGraph::new(terms);
        // TR's minimal supersets: TUR and TRS (not TURS).
        assert_eq!(sorted(g.parents(3)), vec![1, 2]);
        // RS's minimal superset: TRS.
        assert_eq!(sorted(g.parents(4)), vec![2]);
        // R's minimal supersets: TR and RS.
        assert_eq!(sorted(g.parents(5)), vec![3, 4]);
        // S's minimal supersets: TRS? no — RS is smaller: S ⊂ RS ⊂ TRS.
        assert_eq!(sorted(g.parents(6)), vec![4]);
        // Top term has no parents; TUR and TRS point to TURS.
        assert!(g.parents(0).is_empty());
        assert_eq!(sorted(g.parents(1)), vec![0]);
        assert_eq!(sorted(g.parents(2)), vec![0]);
        // Children are the inverse relation.
        assert_eq!(sorted(g.children(0)), vec![1, 2]);
        assert_eq!(sorted(g.children(4)), vec![5, 6]);
    }

    #[test]
    fn incomparable_terms_have_no_edges() {
        let g = SubsumptionGraph::new(vec![term(&[0]), term(&[1])]);
        assert!(g.parents(0).is_empty());
        assert!(g.parents(1).is_empty());
    }

    fn sorted(v: &[usize]) -> Vec<usize> {
        let mut v = v.to_vec();
        v.sort_unstable();
        v
    }
}
