//! Resolution of a [`ViewDef`] against the catalog, and the static analysis
//! the maintenance procedure is driven by: normal form, subsumption graph,
//! and cached delta plans.

use ojv_algebra::{
    derive_primary_delta, normalize, simplify_tree, to_left_deep, Atom, Expr, FkEdge,
    MaintenanceGraph, Pred, SubsumptionGraph, TableId, Term,
};
use ojv_exec::ViewLayout;
use ojv_storage::Catalog;

use crate::error::{CoreError, Result};
use crate::view_def::{NamedAtom, ViewDef, ViewExpr};

/// The resolved, analyzed form of a view: everything the maintenance
/// procedure needs that does not depend on a particular update.
#[derive(Debug, Clone)]
pub struct ViewAnalysis {
    /// Wide-row layout over the view's tables, in leaf order.
    pub layout: ViewLayout,
    /// The view's operator tree in positional form.
    pub expr: Expr,
    /// Usable foreign-key edges among the view's tables.
    pub fks: Vec<FkEdge>,
    /// The FK-pruned join-disjunctive normal form (§2.2, §6).
    pub terms: Vec<Term>,
    /// Subsumption graph over `terms` (§2.3).
    pub graph: SubsumptionGraph,
    /// Wide-row indexes of the view's unique key: the concatenated keys of
    /// all referenced tables.
    pub view_key: Vec<usize>,
    /// Wide-row indexes of the output columns.
    pub projection: Vec<usize>,
}

/// Resolve and analyze a view definition.
pub fn analyze(catalog: &Catalog, def: &ViewDef) -> Result<ViewAnalysis> {
    let tables = def.expr().tables();
    // §2: a view can reference the same table only once.
    for (i, t) in tables.iter().enumerate() {
        if tables[..i].contains(t) {
            return Err(CoreError::InvalidView {
                view: def.name().to_string(),
                detail: format!("table {t} referenced more than once"),
            });
        }
    }
    if tables.len() > ojv_algebra::TableSet::MAX_TABLES {
        return Err(CoreError::InvalidView {
            view: def.name().to_string(),
            detail: format!(
                "view references more than {} tables",
                ojv_algebra::TableSet::MAX_TABLES
            ),
        });
    }
    let table_refs: Vec<&str> = tables.iter().map(String::as_str).collect();
    let layout = ViewLayout::new(catalog, &table_refs)?;

    let expr = resolve_expr(def, &layout, def.expr())?;
    let fks = resolve_fks(catalog, &layout);
    let terms = normalize(&expr, &fks);
    let graph = SubsumptionGraph::new(terms.clone());

    let view_key = layout.term_key_cols(layout.all_tables());
    let projection = match def.projection() {
        None => (0..layout.width()).collect(),
        Some(cols) => {
            let mut out = Vec::with_capacity(cols.len());
            for (t, c) in cols {
                let col = layout.col(t, c).map_err(|_| CoreError::InvalidView {
                    view: def.name().to_string(),
                    detail: format!("projection column {t}.{c} not found"),
                })?;
                out.push(layout.global(col));
            }
            out
        }
    };

    let analysis = ViewAnalysis {
        layout,
        expr,
        fks,
        terms,
        graph,
        view_key,
        projection,
    };
    // Debug builds verify every analysis at build time, turning the whole
    // test suite into a sweep over the §2 invariants. Every build verifies
    // again when it compiles a maintenance plan (`compile::compile_uncached`).
    if cfg!(debug_assertions) {
        analysis.verify_static(catalog)?;
    }
    Ok(analysis)
}

impl ViewAnalysis {
    /// Static verification of the update-independent artifacts: layout
    /// strides against the catalog, JDNF/subsumption well-formedness, and
    /// the resolved view expression. Returns the number of checks passed.
    pub fn verify_static(&self, catalog: &Catalog) -> Result<usize> {
        let mut checks = ojv_analysis::verify_layout(&self.layout, Some(catalog))?;
        checks += ojv_analysis::verify_jdnf(&self.graph)?;
        checks += ojv_analysis::verify_plan(&self.layout, &self.expr, None)?;
        Ok(checks)
    }

    /// Verify one update's compiled maintenance artifacts: the (possibly
    /// reduced) maintenance graph, the primary-delta plan with its left-deep
    /// side conditions, and — for terms maintained from the view — the §5.2
    /// key-projection requirement. Returns the number of checks passed.
    pub fn verify_maintenance(
        &self,
        t: TableId,
        use_fk: bool,
        left_deep: bool,
        mgraph: &MaintenanceGraph,
        plan: Option<&Expr>,
    ) -> Result<usize> {
        let fks: &[FkEdge] = if use_fk { &self.fks } else { &[] };
        let mut checks = ojv_analysis::verify_maintenance_graph(&self.graph, mgraph, fks)?;
        if let Some(plan) = plan {
            checks += ojv_analysis::verify_plan(&self.layout, plan, Some(t))?;
            if left_deep {
                checks += ojv_analysis::verify_left_deep(plan)?;
            }
        }
        Ok(checks)
    }

    /// Verify the §5.2 availability condition behind a from-view secondary
    /// delta of `term_idx`. Returns the number of checks passed.
    pub fn verify_from_view(&self, term_idx: usize) -> Result<usize> {
        Ok(ojv_analysis::verify_secondary_from_view(
            &self.layout,
            &self.terms[term_idx],
            &self.projection,
        )?)
    }

    /// The (possibly FK-reduced) maintenance graph for an update of `t`.
    pub fn maintenance_graph(&self, t: TableId, use_fk: bool) -> MaintenanceGraph {
        let fks: &[FkEdge] = if use_fk { &self.fks } else { &[] };
        MaintenanceGraph::build(&self.graph, t, fks)
    }

    /// The `ΔV^D` plan for an update of `t`: derivation (§4), optional
    /// `SimplifyTree` (§6.1), optional left-deep conversion (§4.1).
    pub fn primary_delta_plan(&self, t: TableId, use_fk: bool, left_deep: bool) -> Expr {
        let mut plan = derive_primary_delta(&self.expr, t);
        if use_fk {
            plan = simplify_tree(plan, t, &self.fks);
        }
        if left_deep {
            plan = to_left_deep(plan);
        }
        plan
    }

    /// §5.2 column availability: can the secondary delta of term `term_idx`
    /// be computed from the view's *output*?
    ///
    /// Requires (a) a non-nullable base column of every view table in the
    /// output (to evaluate the `null(X)`/`¬null(X)` pattern predicates) and
    /// (b) the key columns of the term's source tables (for `eq(T_i)`).
    pub fn from_view_available(&self, term_idx: usize) -> bool {
        let term = &self.terms[term_idx];
        for (i, slot) in self.layout.slots().iter().enumerate() {
            let t = TableId(i as u8);
            let has_non_nullable = slot
                .schema
                .columns()
                .iter()
                .enumerate()
                .any(|(ci, c)| !c.nullable && self.projection.contains(&(slot.offset + ci)));
            if !has_non_nullable {
                return false;
            }
            if term.tables.contains(t) {
                let keys_out = slot.key_cols.iter().all(|k| self.projection.contains(k));
                if !keys_out {
                    return false;
                }
            }
        }
        true
    }
}

fn resolve_atom(def: &ViewDef, layout: &ViewLayout, atom: &NamedAtom) -> Result<Atom> {
    let col = |t: &str, c: &str| {
        layout.col(t, c).map_err(|_| CoreError::InvalidView {
            view: def.name().to_string(),
            detail: format!("column {t}.{c} not found"),
        })
    };
    Ok(match atom {
        NamedAtom::Cols { left, op, right } => {
            Atom::Cols(col(&left.0, &left.1)?, *op, col(&right.0, &right.1)?)
        }
        NamedAtom::Const { col: c, op, value } => Atom::Const(col(&c.0, &c.1)?, *op, value.clone()),
        NamedAtom::Between { col: c, lo, hi } => {
            Atom::Between(col(&c.0, &c.1)?, lo.clone(), hi.clone())
        }
    })
}

fn resolve_pred(def: &ViewDef, layout: &ViewLayout, atoms: &[NamedAtom]) -> Result<Pred> {
    let mut out = Vec::with_capacity(atoms.len());
    for a in atoms {
        out.push(resolve_atom(def, layout, a)?);
    }
    Ok(Pred::new(out))
}

fn resolve_expr(def: &ViewDef, layout: &ViewLayout, e: &ViewExpr) -> Result<Expr> {
    Ok(match e {
        ViewExpr::Table(name) => {
            let t = layout
                .table_id(name)
                .ok_or_else(|| CoreError::InvalidView {
                    view: def.name().to_string(),
                    detail: format!("table {name} not in layout"),
                })?;
            Expr::Table(t)
        }
        ViewExpr::Select(atoms, input) => Expr::select(
            resolve_pred(def, layout, atoms)?,
            resolve_expr(def, layout, input)?,
        ),
        ViewExpr::Join(kind, atoms, l, r) => {
            if !kind.is_spoj() {
                return Err(CoreError::InvalidView {
                    view: def.name().to_string(),
                    detail: format!("join kind {kind} not allowed in view definitions"),
                });
            }
            if atoms.is_empty() {
                return Err(CoreError::InvalidView {
                    view: def.name().to_string(),
                    detail: "join without predicate (cross joins not supported)".to_string(),
                });
            }
            Expr::join(
                *kind,
                resolve_pred(def, layout, atoms)?,
                resolve_expr(def, layout, l)?,
                resolve_expr(def, layout, r)?,
            )
        }
    })
}

fn resolve_fks(catalog: &Catalog, layout: &ViewLayout) -> Vec<FkEdge> {
    let mut out = Vec::new();
    for fk in catalog.foreign_keys() {
        let (Some(child), Some(parent)) = (layout.table_id(&fk.child), layout.table_id(&fk.parent))
        else {
            continue;
        };
        let child_schema = &layout.slot(child).schema;
        let child_cols_non_null = fk
            .child_cols
            .iter()
            .all(|&c| !child_schema.column(c).nullable);
        out.push(FkEdge {
            child,
            child_cols: fk.child_cols.clone(),
            parent,
            parent_cols: fk.parent_key.clone(),
            child_cols_non_null,
            cascade_delete: fk.cascade_delete,
            deferrable: fk.deferrable,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{example1_catalog, oj_view_def};
    use ojv_algebra::TableSet;

    #[test]
    fn analyze_example_1() {
        let catalog = example1_catalog();
        let a = analyze(&catalog, &oj_view_def()).unwrap();
        assert_eq!(a.layout.table_count(), 3);
        // FK pruning leaves {P,O,L}, {O}, {P}.
        assert_eq!(a.terms.len(), 3);
        assert_eq!(a.fks.len(), 2);
        // View key = p_partkey, o_orderkey, l_orderkey, l_linenumber.
        assert_eq!(a.view_key.len(), 4);
        // Full projection.
        assert_eq!(a.projection.len(), a.layout.width());
    }

    #[test]
    fn duplicate_table_rejected() {
        let catalog = example1_catalog();
        let def = crate::view_def::ViewDef::new(
            "dup",
            ViewExpr::inner(
                vec![crate::view_def::col_eq(
                    "part",
                    "p_partkey",
                    "part",
                    "p_partkey",
                )],
                ViewExpr::table("part"),
                ViewExpr::table("part"),
            ),
        );
        assert!(matches!(
            analyze(&catalog, &def),
            Err(CoreError::InvalidView { .. })
        ));
    }

    #[test]
    fn unknown_column_rejected() {
        let catalog = example1_catalog();
        let def = crate::view_def::ViewDef::new(
            "bad",
            ViewExpr::inner(
                vec![crate::view_def::col_eq(
                    "part",
                    "nope",
                    "orders",
                    "o_orderkey",
                )],
                ViewExpr::table("part"),
                ViewExpr::table("orders"),
            ),
        );
        assert!(analyze(&catalog, &def).is_err());
    }

    #[test]
    fn maintenance_graph_for_lineitem_update() {
        let catalog = example1_catalog();
        let a = analyze(&catalog, &oj_view_def()).unwrap();
        let t = a.layout.table_id("lineitem").unwrap();
        let m = a.maintenance_graph(t, true);
        // Direct: {P,O,L}; indirect: {O} and {P}.
        assert_eq!(m.direct.len(), 1);
        assert_eq!(m.indirect.len(), 2);
    }

    #[test]
    fn part_insert_graph_is_fk_reduced() {
        let catalog = example1_catalog();
        let a = analyze(&catalog, &oj_view_def()).unwrap();
        let t = a.layout.table_id("part").unwrap();
        let with_fk = a.maintenance_graph(t, true);
        // {P,O,L} is FK-reduced; only the {P} term remains, no indirect.
        assert_eq!(with_fk.direct.len(), 1);
        let d = &a.terms[with_fk.direct[0]];
        assert_eq!(d.tables, TableSet::singleton(t));
        assert!(with_fk.indirect.is_empty());
        let without = a.maintenance_graph(t, false);
        assert_eq!(without.direct.len(), 2);
    }

    #[test]
    fn primary_plan_for_part_insert_collapses_to_delta_scan() {
        let catalog = example1_catalog();
        let a = analyze(&catalog, &oj_view_def()).unwrap();
        let t = a.layout.table_id("part").unwrap();
        let plan = a.primary_delta_plan(t, true, true);
        assert_eq!(plan, Expr::Delta(t));
        let unoptimized = a.primary_delta_plan(t, false, true);
        assert_ne!(unoptimized, Expr::Delta(t));
    }

    #[test]
    fn column_availability_full_projection() {
        let catalog = example1_catalog();
        let a = analyze(&catalog, &oj_view_def()).unwrap();
        for i in 0..a.terms.len() {
            assert!(a.from_view_available(i));
        }
    }

    #[test]
    fn column_availability_with_restricted_projection() {
        let catalog = example1_catalog();
        // Project away lineitem's key columns: terms containing lineitem can
        // no longer be maintained from the view.
        let def = oj_view_def().with_projection(vec![
            ("part", "p_partkey"),
            ("orders", "o_orderkey"),
            ("lineitem", "l_quantity"),
        ]);
        let a = analyze(&catalog, &def).unwrap();
        for (i, term) in a.terms.iter().enumerate() {
            let has_lineitem = term.tables.contains(a.layout.table_id("lineitem").unwrap());
            // l_quantity is nullable, so lineitem lacks a non-nullable
            // output column entirely → nothing is available from the view.
            assert!(!a.from_view_available(i) || !has_lineitem);
        }
    }
}
