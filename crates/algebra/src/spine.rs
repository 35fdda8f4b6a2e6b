//! Left-spine decomposition of delta plans for cross-view sharing.
//!
//! After left-deep conversion (§4.1) every primary-delta plan is a chain:
//! a leaf (usually `ΔT`) followed by joins whose *left* input is the chain
//! so far, interleaved with the unary operators (`σ`, `λ`, `δ`). The batch
//! maintenance layer factors out work shared between views by comparing
//! these chains step by step: two views whose spines agree on a prefix can
//! evaluate that prefix once and fan the rows out into their remainders.
//!
//! [`Spine::of`] peels an arbitrary plan into `leaf ∘ step₁ ∘ … ∘ stepₙ`
//! (bushy right subtrees stay whole inside their [`SpineStep::Join`]), and
//! [`Spine::prefix_expr`] reassembles any prefix back into an [`Expr`] so
//! unshared chains still run through the ordinary executor — including its
//! narrow-left delta index join fast path.

use crate::expr::{Expr, JoinKind};
use crate::fingerprint::{fingerprint_expr, fold_expr, fold_pred, Fingerprinter};
use crate::pred::Pred;
use crate::table_set::TableSet;

/// One step of a left spine, applied to the rows produced by the prefix
/// before it.
#[derive(Debug, Clone, PartialEq)]
pub enum SpineStep {
    /// `prefix ⋈ right`; `right` is an arbitrary (usually leaf) subtree.
    Join {
        kind: JoinKind,
        pred: Pred,
        right: Expr,
    },
    /// `σ[pred](prefix)`.
    Select(Pred),
    /// `λ`: null out `null_tables` on rows failing `pred`.
    NullIf { null_tables: TableSet, pred: Pred },
    /// `δ↓` duplicate/subsumption cleanup.
    CleanDup,
}

impl SpineStep {
    /// Stable structural hash of this step (join right subtrees included).
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fingerprinter::new();
        match self {
            SpineStep::Join { kind, pred, right } => {
                f.write_u8(0x51);
                f.write_u8(match kind {
                    JoinKind::Inner => 1,
                    JoinKind::LeftOuter => 2,
                    JoinKind::RightOuter => 3,
                    JoinKind::FullOuter => 4,
                    JoinKind::LeftSemi => 5,
                    JoinKind::LeftAnti => 6,
                });
                fold_pred(&mut f, pred);
                fold_expr(&mut f, right);
            }
            SpineStep::Select(pred) => {
                f.write_u8(0x52);
                fold_pred(&mut f, pred);
            }
            SpineStep::NullIf { null_tables, pred } => {
                f.write_u8(0x53);
                f.write_u64(u64::from(null_tables.len() as u32));
                for t in null_tables.iter() {
                    f.write_u8(t.0);
                }
                fold_pred(&mut f, pred);
            }
            SpineStep::CleanDup => f.write_u8(0x54),
        }
        f.finish()
    }

    /// The source set after applying this step to rows with sources `s`.
    pub fn apply_sources(&self, s: TableSet) -> TableSet {
        match self {
            SpineStep::Join { kind, right, .. } => match kind {
                JoinKind::LeftSemi | JoinKind::LeftAnti => s,
                _ => s.union(right.sources()),
            },
            SpineStep::Select(_) | SpineStep::NullIf { .. } | SpineStep::CleanDup => s,
        }
    }

    /// Re-wrap `input` under this step, rebuilding the original operator.
    pub fn reapply(&self, input: Expr) -> Expr {
        match self {
            SpineStep::Join { kind, pred, right } => {
                Expr::join(*kind, pred.clone(), input, right.clone())
            }
            SpineStep::Select(pred) => Expr::select(pred.clone(), input),
            SpineStep::NullIf { null_tables, pred } => Expr::NullIf {
                null_tables: *null_tables,
                pred: pred.clone(),
                input: Box::new(input),
            },
            SpineStep::CleanDup => Expr::CleanDup(Box::new(input)),
        }
    }
}

/// A plan decomposed into its leftmost leaf and the chain of steps above it.
#[derive(Debug, Clone, PartialEq)]
pub struct Spine {
    pub leaf: Expr,
    /// Steps in application order: `steps[0]` applies directly to `leaf`.
    pub steps: Vec<SpineStep>,
    /// The leaf's fingerprint, then each step's: `fps[d]` keys the prefix
    /// of depth `d` among prefixes that agree on `fps[..d]`. Recorded once,
    /// when the plan is decomposed.
    pub fps: Vec<u64>,
}

impl Spine {
    /// Decompose `expr`. Total: `spine.prefix_expr(spine.steps.len())`
    /// rebuilds a tree structurally equal to the input.
    pub fn of(expr: &Expr) -> Spine {
        let mut steps = Vec::new();
        let mut cur = expr;
        loop {
            match cur {
                Expr::Select(p, input) => {
                    steps.push(SpineStep::Select(p.clone()));
                    cur = input;
                }
                Expr::Join {
                    kind,
                    pred,
                    left,
                    right,
                } => {
                    steps.push(SpineStep::Join {
                        kind: *kind,
                        pred: pred.clone(),
                        right: (**right).clone(),
                    });
                    cur = left;
                }
                Expr::NullIf {
                    null_tables,
                    pred,
                    input,
                } => {
                    steps.push(SpineStep::NullIf {
                        null_tables: *null_tables,
                        pred: pred.clone(),
                    });
                    cur = input;
                }
                Expr::CleanDup(input) => {
                    steps.push(SpineStep::CleanDup);
                    cur = input;
                }
                Expr::Table(_) | Expr::Delta(_) | Expr::OldState(_) | Expr::Empty => {
                    steps.reverse();
                    let fps = std::iter::once(fingerprint_expr(cur))
                        .chain(steps.iter().map(SpineStep::fingerprint))
                        .collect();
                    return Spine {
                        leaf: cur.clone(),
                        steps,
                        fps,
                    };
                }
            }
        }
    }

    /// Fingerprint of the leaf alone.
    pub fn leaf_fingerprint(&self) -> u64 {
        self.fps[0]
    }

    /// Rebuild the expression for `leaf ∘ steps[..n]`.
    pub fn prefix_expr(&self, n: usize) -> Expr {
        let mut e = self.leaf.clone();
        for step in &self.steps[..n] {
            e = step.reapply(e);
        }
        e
    }

    /// Source set of the prefix `leaf ∘ steps[..n]`.
    pub fn prefix_sources(&self, n: usize) -> TableSet {
        let mut s = self.leaf.sources();
        for step in &self.steps[..n] {
            s = step.apply_sources(s);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint_expr;
    use crate::pred::{Atom, ColRef};
    use crate::table_set::TableId;

    fn t(i: u8) -> TableId {
        TableId(i)
    }

    fn p(a: u8, b: u8) -> Pred {
        Pred::atom(Atom::eq(ColRef::new(t(a), 0), ColRef::new(t(b), 0)))
    }

    fn chain() -> Expr {
        // δ↓(λ(σ((ΔT0 ⋈ T1) ⟕ T2)))
        let join1 = Expr::inner(p(0, 1), Expr::Delta(t(0)), Expr::table(t(1)));
        let join2 = Expr::left_outer(p(1, 2), join1, Expr::table(t(2)));
        let sel = Expr::select(p(0, 2), join2);
        let nullif = Expr::NullIf {
            null_tables: TableSet::singleton(t(2)),
            pred: p(1, 2),
            input: Box::new(sel),
        };
        Expr::CleanDup(Box::new(nullif))
    }

    #[test]
    fn decompose_and_reassemble_round_trips() {
        let e = chain();
        let s = Spine::of(&e);
        assert_eq!(s.leaf, Expr::Delta(t(0)));
        assert_eq!(s.steps.len(), 5);
        let rebuilt = s.prefix_expr(s.steps.len());
        assert_eq!(rebuilt, e);
        assert_eq!(fingerprint_expr(&rebuilt), fingerprint_expr(&e));
    }

    #[test]
    fn prefix_sources_track_joins_and_semijoins() {
        let semi = Expr::join(
            JoinKind::LeftAnti,
            p(0, 1),
            Expr::inner(p(0, 2), Expr::Delta(t(0)), Expr::table(t(2))),
            Expr::table(t(1)),
        );
        let s = Spine::of(&semi);
        assert_eq!(s.prefix_sources(0), TableSet::singleton(t(0)));
        assert_eq!(s.prefix_sources(1), TableSet::from_iter([t(0), t(2)]));
        // Anti-join keeps left sources only.
        assert_eq!(s.prefix_sources(2), TableSet::from_iter([t(0), t(2)]));
    }

    #[test]
    fn shared_prefix_has_equal_step_fingerprints() {
        let a = Spine::of(&chain());
        let b = Spine::of(&chain());
        assert_eq!(a.leaf_fingerprint(), b.leaf_fingerprint());
        for (x, y) in a.steps.iter().zip(&b.steps) {
            assert_eq!(x.fingerprint(), y.fingerprint());
        }
        // Divergent final step ⇒ different fingerprint there.
        let mut c = chain();
        if let Expr::CleanDup(inner) = &mut c {
            if let Expr::NullIf { pred, .. } = inner.as_mut() {
                *pred = p(0, 1);
            }
        }
        let cs = Spine::of(&c);
        assert_eq!(
            a.steps[..3]
                .iter()
                .map(|s| s.fingerprint())
                .collect::<Vec<_>>(),
            cs.steps[..3]
                .iter()
                .map(|s| s.fingerprint())
                .collect::<Vec<_>>()
        );
        assert_ne!(a.steps[3].fingerprint(), cs.steps[3].fingerprint());
    }
}
