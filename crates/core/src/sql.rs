//! Rendering of maintenance plans as SQL — the form the paper presents its
//! procedure in (§1's oj_view statements and §7's Q1–Q4).
//!
//! The engine executes [`ojv_algebra::Expr`] trees directly; this module
//! pretty-prints the compiled plan (the primary delta's tree and each
//! indirect term's secondary-delta statements) as the SQL a trigger-based
//! implementation would run, for inspection, documentation, and the `repro`
//! binary.

use ojv_algebra::{Atom, Expr, JoinKind, Pred, TableSet};
use ojv_exec::ViewLayout;
use ojv_storage::{Catalog, UpdateOp};

use crate::analyze::ViewAnalysis;
use crate::compile::{compile_uncached, ChainStep, PlanConfig};
use crate::error::Result;

/// Render a column reference as `table.column`.
fn col_sql(layout: &ViewLayout, c: ojv_algebra::ColRef) -> String {
    let slot = layout.slot(c.table);
    format!("{}.{}", slot.name, slot.schema.column(c.col).name)
}

/// Render one atom.
pub fn atom_sql(layout: &ViewLayout, atom: &Atom) -> String {
    match atom {
        Atom::Cols(a, op, b) => format!("{} {op} {}", col_sql(layout, *a), col_sql(layout, *b)),
        Atom::Const(c, op, v) => format!("{} {op} {v}", col_sql(layout, *c)),
        Atom::Between(c, lo, hi) => {
            format!("{} BETWEEN {lo} AND {hi}", col_sql(layout, *c))
        }
    }
}

/// Render a conjunction (`1=1` for the empty conjunction).
pub fn pred_sql(layout: &ViewLayout, pred: &Pred) -> String {
    if pred.is_true() {
        return "1=1".to_string();
    }
    pred.atoms()
        .iter()
        .map(|a| atom_sql(layout, a))
        .collect::<Vec<_>>()
        .join(" AND ")
}

fn join_kind_sql(kind: JoinKind) -> &'static str {
    match kind {
        JoinKind::Inner => "JOIN",
        JoinKind::LeftOuter => "LEFT OUTER JOIN",
        JoinKind::RightOuter => "RIGHT OUTER JOIN",
        JoinKind::FullOuter => "FULL OUTER JOIN",
        JoinKind::LeftSemi => "LEFT SEMI JOIN",
        JoinKind::LeftAnti => "LEFT ANTI JOIN",
    }
}

/// Render an expression as a SQL `FROM` clause fragment.
///
/// Every leaf — a scan, `ΔT`, the pre-insert state `T ▷ ΔT`, a filtered
/// scan — is aliased by its table's name, so the predicates around it,
/// which say `<table>.<column>`, resolve as written. Selections over joins
/// become derived tables; the null-if/cleanup wrappers (which plain SQL has
/// no operator for) are rendered as annotated derived tables, matching the
/// paper's remark that `λ` "can be implemented using a project with the case
/// statement of SQL".
pub fn from_clause_sql(layout: &ViewLayout, expr: &Expr, indent: usize) -> String {
    let pad = "  ".repeat(indent);
    match expr {
        Expr::Table(t) => format!("{pad}{}", layout.slot(*t).name),
        Expr::Delta(t) => {
            let name = &layout.slot(*t).name;
            format!("{pad}delta_{name} AS {name}")
        }
        Expr::OldState(t) => {
            // The pre-insert state `T ▷ ΔT`: the rows whose key no
            // inserted row carries.
            let slot = layout.slot(*t);
            let keys = slot
                .key_cols
                .iter()
                .map(|k| slot.schema.column(k - slot.offset).name.as_str())
                .collect::<Vec<_>>()
                .join(", ");
            let name = &slot.name;
            format!(
                "{pad}(SELECT * FROM {name} WHERE ({keys}) NOT IN \
                 (SELECT {keys} FROM delta_{name})) AS {name}"
            )
        }
        Expr::Empty => format!("{pad}(SELECT * FROM (VALUES (NULL)) v WHERE 1=0) AS empty"),
        Expr::Select(p, input) => match input.as_ref() {
            Expr::Table(t) | Expr::Delta(t) | Expr::OldState(t) => format!(
                "{pad}(SELECT * FROM {} WHERE {}) AS {}",
                from_clause_sql(layout, input, 0),
                pred_sql(layout, p),
                layout.slot(*t).name
            ),
            _ => format!(
                "{pad}(SELECT * FROM\n{}\n{pad} WHERE {}) AS filtered",
                from_clause_sql(layout, input, indent + 1),
                pred_sql(layout, p)
            ),
        },
        Expr::Join {
            kind,
            pred,
            left,
            right,
        } => {
            format!(
                "{}\n{pad}{} (\n{}\n{pad}) ON {}",
                from_clause_sql(layout, left, indent),
                join_kind_sql(*kind),
                from_clause_sql(layout, right, indent + 1),
                pred_sql(layout, pred)
            )
        }
        Expr::NullIf {
            null_tables,
            pred,
            input,
        } => {
            let tables: Vec<String> = null_tables
                .iter()
                .map(|t| layout.slot(t).name.clone())
                .collect();
            format!(
                "{pad}-- λ: CASE WHEN NOT ({}) THEN NULL all columns of {} END\n{}",
                pred_sql(layout, pred),
                tables.join(", "),
                from_clause_sql(layout, input, indent)
            )
        }
        Expr::CleanDup(input) => format!(
            "{pad}-- δ↓: remove duplicates and subsumed rows\n{}",
            from_clause_sql(layout, input, indent)
        ),
    }
}

/// `IS NOT NULL` on a key column of every table in `present` and `IS NULL`
/// on one of every table in `absent`, in table order.
fn null_pattern_sql(layout: &ViewLayout, present: TableSet, absent: TableSet) -> String {
    let parts: Vec<String> = present
        .union(absent)
        .iter()
        .map(|t| {
            let slot = layout.slot(t);
            let key = &slot.schema.column(slot.key_cols[0] - slot.offset).name;
            let not = if present.contains(t) { "NOT " } else { "" };
            format!("{}.{key} IS {not}NULL", slot.name)
        })
        .collect();
    parts.join(" AND ")
}

/// The `IS NULL` / `IS NOT NULL` pattern predicate identifying a term's rows
/// in the view (the paper's `null(T)`/`¬null(T)` via a key column).
pub fn term_pattern_sql(layout: &ViewLayout, tables: TableSet) -> String {
    null_pattern_sql(layout, tables, layout.all_tables().difference(tables))
}

/// A compiled §5.3 chain as the subquery its anti join tests: the parent
/// tuples of the rest expression `E'_{ip}` that join the candidate.
fn chain_sql(layout: &ViewLayout, chain: &[ChainStep], insert: bool) -> String {
    let leaves: Vec<String> = chain
        .iter()
        .map(|s| from_clause_sql(layout, s.leaf(insert), 0))
        .collect();
    let on = Pred::new(chain.iter().flat_map(|s| s.pred.atoms().to_vec()).collect());
    format!(
        "SELECT 1 FROM {} WHERE {}",
        leaves.join(", "),
        pred_sql(layout, &on)
    )
}

/// Render the full maintenance script for an update of `table` — the
/// equivalent of the paper's Q1–Q4 sequence for V3 (§7) — from the plan
/// [`compile_uncached`] compiles for it under `cfg`, so each indirect term
/// takes the strategy maintenance takes: §5.2 from the view when the view
/// outputs the columns the term needs, §5.3 from base tables otherwise.
pub fn maintenance_script(
    analysis: &ViewAnalysis,
    catalog: &Catalog,
    view_name: &str,
    table: &str,
    op: UpdateOp,
    cfg: PlanConfig,
) -> Result<String> {
    let layout = &analysis.layout;
    let Some(t) = layout.table_id(table) else {
        return Ok(format!(
            "-- view {view_name} does not reference {table}; nothing to do\n"
        ));
    };
    let compiled = compile_uncached(analysis, catalog, t, cfg)?;
    let Some(plan) = &compiled.plan else {
        return Ok(format!(
            "-- maintenance graph for {view_name} / update {table} is empty\n-- (foreign keys prove the view is unaffected); nothing to do\n"
        ));
    };
    let insert = op == UpdateOp::Insert;
    let mut out = String::new();

    out.push_str("-- Q1: compute primary delta\n");
    out.push_str("INSERT INTO #delta1\nSELECT *\nFROM\n");
    out.push_str(&from_clause_sql(layout, plan, 1));
    out.push_str(";\n\n");

    out.push_str("-- Q2: apply primary delta\n");
    match op {
        UpdateOp::Insert => out.push_str(&format!(
            "INSERT INTO {view_name} SELECT * FROM #delta1;\n\n"
        )),
        UpdateOp::Delete => out.push_str(&format!(
            "DELETE FROM {view_name} WHERE view_key IN (SELECT view_key FROM #delta1);\n\n"
        )),
    }

    for (i, ind) in compiled.indirect.iter().enumerate() {
        let q = i + 3;
        let label: String = ind
            .tables
            .iter()
            .map(|x| {
                layout
                    .slot(x)
                    .name
                    .chars()
                    .next()
                    .unwrap_or('?')
                    .to_ascii_uppercase()
            })
            .collect();
        let names = ind
            .tables
            .iter()
            .map(|x| layout.slot(x).name.clone())
            .collect::<Vec<_>>()
            .join(", ");
        if !ind.from_view_ok {
            // §5.3: anti join the candidates against every directly
            // affected parent's rest expression, then apply the orphans.
            out.push_str(&format!(
                "-- Q{q}: update term {label} from base tables (§5.3)\nINSERT INTO #orphans{q}\nSELECT DISTINCT {names}.* FROM #delta1\nWHERE {}",
                null_pattern_sql(layout, ind.tables, ind.unchanged)
            ));
            for parent in &ind.pard {
                let anti = chain_sql(layout, &parent.chain, insert);
                out.push_str(&format!("\n  AND NOT EXISTS ({anti})"));
            }
            out.push_str(&match op {
                UpdateOp::Insert => format!(";\nDELETE FROM {view_name} WHERE view_key IN (SELECT view_key FROM #orphans{q});\n\n"),
                UpdateOp::Delete => format!(";\nINSERT INTO {view_name} SELECT * FROM #orphans{q};\n\n"),
            });
            continue;
        }
        out.push_str(&format!("-- Q{q}: update term {label}\n"));
        // Key columns of the term, used for the IN (...) subqueries.
        let keys: Vec<String> = ind
            .tables
            .iter()
            .flat_map(|x| {
                let slot = layout.slot(x);
                slot.key_cols.iter().map(move |k| {
                    format!("{}.{}", slot.name, slot.schema.column(k - slot.offset).name)
                })
            })
            .collect();
        let keys = keys.join(", ");
        match op {
            UpdateOp::Insert => out.push_str(&format!(
                "DELETE FROM {view_name}\nWHERE {}\n  AND ({keys}) IN (SELECT {keys} FROM #delta1);\n\n",
                term_pattern_sql(layout, ind.tables),
            )),
            UpdateOp::Delete => out.push_str(&format!(
                "INSERT INTO {view_name}\nSELECT DISTINCT {names}.* FROM #delta1 d\nWHERE NOT EXISTS (SELECT 1 FROM {view_name} v WHERE ({keys}) = d.term_key);\n\n",
            )),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::fixtures::*;
    use crate::view_def::{col_cmp, col_eq, ViewDef, ViewExpr};
    use std::collections::BTreeSet;

    fn analysis() -> ViewAnalysis {
        let catalog = example1_catalog();
        analyze(&catalog, &oj_view_def()).unwrap()
    }

    /// `oj_view`'s script for an update of `table` under the paper policy.
    fn script(a: &ViewAnalysis, table: &str, op: UpdateOp) -> String {
        let cfg = PlanConfig {
            use_fk: true,
            left_deep: true,
        };
        maintenance_script(a, &example1_catalog(), "oj_view", table, op, cfg).unwrap()
    }

    #[test]
    fn pred_and_atom_rendering() {
        let a = analysis();
        let term = a
            .terms
            .iter()
            .find(|t| t.tables.len() == 3)
            .expect("full term");
        let sql = pred_sql(&a.layout, &term.pred);
        assert!(sql.contains("orders.o_orderkey = lineitem.l_orderkey"));
        assert!(sql.contains("part.p_partkey = lineitem.l_partkey"));
        assert_eq!(pred_sql(&a.layout, &Pred::true_()), "1=1");
    }

    #[test]
    fn term_pattern_mirrors_paper_q3_q4() {
        let a = analysis();
        let part = a.layout.table_id("part").unwrap();
        let sql = term_pattern_sql(&a.layout, TableSet::singleton(part));
        // The paper's Q4: "where c_custkey is null and o_orderkey is null
        // and l_orderkey is null and p_partkey in (...)" — our pattern
        // includes the NOT NULL side explicitly.
        assert!(sql.contains("part.p_partkey IS NOT NULL"));
        assert!(sql.contains("orders.o_orderkey IS NULL"));
        assert!(sql.contains("lineitem.l_orderkey IS NULL"));
    }

    #[test]
    fn lineitem_insert_script_has_q1_through_q4() {
        let a = analysis();
        let sql = script(&a, "lineitem", UpdateOp::Insert);
        assert!(sql.contains("-- Q1: compute primary delta"));
        assert!(sql.contains("INSERT INTO #delta1"));
        assert!(sql.contains("delta_lineitem"));
        assert!(sql.contains("-- Q2: apply primary delta"));
        assert!(sql.contains("-- Q3: update term"));
        assert!(sql.contains("-- Q4: update term"));
        assert!(sql.contains("DELETE FROM oj_view"));
    }

    #[test]
    fn part_insert_script_collapses_to_view_insert() {
        let a = analysis();
        let sql = script(&a, "part", UpdateOp::Insert);
        // FK fast path: the delta expression is just the delta scan, and
        // there are no Q3/Q4 statements.
        assert!(sql.contains("delta_part"));
        assert!(!sql.contains("Q3"));
        assert!(!sql.contains("JOIN"));
    }

    /// With orders inner-joined to lineitem, as in V3, every term holding
    /// an order holds one of its lineitems, and the lineitem → orders FK
    /// proves a new order has none: an orders insert leaves the view as it
    /// is, and the script says so.
    #[test]
    fn orders_script_is_a_noop_with_fk() {
        let def = ViewDef::new(
            "oj_view",
            ViewExpr::full_outer(
                vec![col_eq("part", "p_partkey", "lineitem", "l_partkey")],
                ViewExpr::table("part"),
                ViewExpr::inner(
                    vec![col_eq("orders", "o_orderkey", "lineitem", "l_orderkey")],
                    ViewExpr::table("orders"),
                    ViewExpr::table("lineitem"),
                ),
            ),
        );
        let a = analyze(&example1_catalog(), &def).unwrap();
        let sql = script(&a, "orders", UpdateOp::Insert);
        assert!(sql.contains("is empty"), "{sql}");
        assert!(!sql.contains("Q1"), "{sql}");
        let sql = script(&a, "nation", UpdateOp::Insert);
        assert!(sql.contains("does not reference"), "{sql}");
    }

    /// A projected twin of `oj_view` outputs no non-nullable lineitem
    /// column, so §5.2 is unavailable for every term and maintenance takes
    /// §5.3. So does the script: each term anti-joins base tables into a
    /// temporary table, and no statement that writes the view names a
    /// column the view does not output.
    #[test]
    fn projected_view_script_takes_base_tables() {
        let a = analyze(
            &example1_catalog(),
            &oj_view_def().with_projection(vec![
                ("part", "p_partkey"),
                ("orders", "o_orderkey"),
                ("lineitem", "l_quantity"),
            ]),
        )
        .unwrap();
        let hidden: Vec<String> = a
            .layout
            .slots()
            .iter()
            .flat_map(|slot| {
                slot.schema
                    .columns()
                    .iter()
                    .enumerate()
                    .filter(|&(ci, _)| !a.projection.contains(&(slot.offset + ci)))
                    .map(|(_, c)| format!("{}.{}", slot.name, c.name))
            })
            .collect();
        assert!(hidden.contains(&"lineitem.l_orderkey".to_string()));
        for op in [UpdateOp::Insert, UpdateOp::Delete] {
            let sql = script(&a, "lineitem", op);
            let terms = sql.matches("-- Q").count() - 2;
            assert!(terms > 0, "{sql}");
            assert_eq!(
                sql.matches("from base tables (§5.3)").count(),
                terms,
                "{sql}"
            );
            assert!(sql.contains("AND NOT EXISTS (SELECT 1 FROM"), "{sql}");
            let writes_view = |stmt: &&str| {
                stmt.lines().any(|l| {
                    l.starts_with("DELETE FROM oj_view") || l.starts_with("INSERT INTO oj_view")
                })
            };
            for stmt in sql.split(";\n").filter(writes_view) {
                for col in &hidden {
                    assert!(!stmt.contains(col.as_str()), "{col} in {stmt}");
                }
            }
        }
    }

    /// Identifiers `x` of every `x.y` / `x.*` qualifier in `sql`.
    fn qualifiers(sql: &str) -> BTreeSet<&str> {
        let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
        let mut out = BTreeSet::new();
        for (dot, _) in sql.match_indices('.') {
            let start = sql[..dot].rfind(|c| !ident(c)).map_or(0, |i| i + 1);
            let word = &sql[start..dot];
            let next = sql[dot + 1..].chars().next();
            if word.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
                && next.is_some_and(|c| ident(c) || c == '*')
            {
                out.insert(word);
            }
        }
        out
    }

    /// Words of `sql`, with `,` kept as a word of its own.
    fn words(sql: &str) -> Vec<&str> {
        sql.split(|c: char| c.is_whitespace() || c == '(' || c == ')' || c == ';')
            .flat_map(|w| w.split_inclusive(','))
            .flat_map(|w| match w.strip_suffix(',') {
                Some(head) => vec![head, ","],
                None => vec![w],
            })
            .filter(|w| !w.is_empty())
            .collect()
    }

    /// The names `sql` brings into scope: each leaf's alias (`AS x`) and
    /// each bare table leaf (after `FROM`, `JOIN` or a `,`).
    fn aliases(sql: &str) -> BTreeSet<&str> {
        let w = words(sql);
        w.windows(2)
            .filter(|p| matches!(p[0], "AS" | "FROM" | "JOIN" | ","))
            .map(|p| p[1])
            .collect()
    }

    /// The body of each `NOT EXISTS (…)` subquery in `sql`.
    fn not_exists_bodies(sql: &str) -> Vec<&str> {
        let mut out = Vec::new();
        for (at, opener) in sql.match_indices("NOT EXISTS (") {
            let body = at + opener.len();
            let mut depth = 1;
            for (i, c) in sql[body..].char_indices() {
                depth += match c {
                    '(' => 1,
                    ')' => -1,
                    _ => 0,
                };
                if depth == 0 {
                    out.push(&sql[body..body + i]);
                    break;
                }
            }
        }
        out
    }

    /// The rendered SQL runs as written: every leaf is aliased by its
    /// table's name, so each `x.` qualifier of Q1 names a leaf of Q1, and
    /// each qualifier of a §5.3 `NOT EXISTS` subquery names one of its
    /// leaves or the candidate term's tables (read from `#delta1`). No
    /// placeholder alias (`old_`, `f_`) or key column (`key`) remains.
    #[test]
    fn rendered_sql_names_only_aliases_in_scope() {
        let c = example1_catalog();
        // A filtered scan of part, and a projection that sends every term
        // of a lineitem update through §5.3.
        let filtered = ViewDef::new(
            "fv",
            ViewExpr::full_outer(
                vec![col_eq("part", "p_partkey", "lineitem", "l_partkey")],
                ViewExpr::select(
                    vec![col_cmp("part", "p_retailprice", ojv_algebra::CmpOp::Lt, 5)],
                    ViewExpr::table("part"),
                ),
                ViewExpr::left_outer(
                    vec![col_eq("orders", "o_orderkey", "lineitem", "l_orderkey")],
                    ViewExpr::table("orders"),
                    ViewExpr::table("lineitem"),
                ),
            ),
        )
        .with_projection(vec![
            ("part", "p_partkey"),
            ("orders", "o_orderkey"),
            ("lineitem", "l_quantity"),
        ]);
        let (oj, fv) = (analysis(), analyze(&c, &filtered).unwrap());
        let scripts = [
            (&oj, "lineitem", UpdateOp::Delete),
            (&fv, "lineitem", UpdateOp::Insert),
            (&fv, "lineitem", UpdateOp::Delete),
            (&fv, "part", UpdateOp::Insert),
        ];
        let (mut chains, mut filtered_scans) = (0, 0);
        for (a, table, op) in scripts {
            let sql = script(a, table, op);
            let q1 = sql.split(";\n").next().unwrap();
            assert!(q1.starts_with("-- Q1"), "{sql}");
            filtered_scans += q1.matches("(SELECT * FROM").count();
            let out_of_scope: Vec<_> = qualifiers(q1).difference(&aliases(q1)).copied().collect();
            assert!(out_of_scope.is_empty(), "{out_of_scope:?} in\n{q1}");
            for stmt in sql
                .split(";\n")
                .filter(|s| s.contains("INSERT INTO #orphans"))
            {
                let candidate = stmt.split("SELECT DISTINCT ").nth(1).unwrap();
                let candidate = candidate.split(".* FROM").next().unwrap();
                for body in not_exists_bodies(stmt) {
                    chains += 1;
                    let mut scope = aliases(body);
                    scope.extend(candidate.split(", "));
                    let out_of_scope: Vec<_> =
                        qualifiers(body).difference(&scope).copied().collect();
                    assert!(out_of_scope.is_empty(), "{out_of_scope:?} in\n{body}");
                }
            }
            assert!(!sql.contains("old_") && !sql.contains("f_"), "{sql}");
            assert!(!sql.contains("AS filtered"), "{sql}");
            assert!(
                !sql.split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                    .any(|w| w == "key"),
                "{sql}"
            );
        }
        assert!(
            chains >= 4,
            "the lineitem scripts of fv take §5.3 for both terms"
        );
        assert!(filtered_scans >= 3, "part is scanned through its filter");
    }

    #[test]
    fn delete_script_uses_inverse_operations() {
        let a = analysis();
        let sql = script(&a, "lineitem", UpdateOp::Delete);
        assert!(sql.contains("DELETE FROM oj_view WHERE view_key IN"));
        assert!(sql.contains("INSERT INTO oj_view\nSELECT DISTINCT"));
    }

    #[test]
    fn null_if_renders_as_comment_annotation() {
        // Updating part without FK knowledge leaves the bushy
        // `(L ⋈ O) ro C` right operand; left-deep conversion introduces the
        // λ/δ pair, which must surface in the SQL rendering.
        let catalog = crate::fixtures::v1_catalog();
        let a = analyze(&catalog, &crate::fixtures::v1_view_def()).unwrap();
        let t = a.layout.table_id("s").unwrap();
        let plan = a.primary_delta_plan(t, false, true);
        let sql = from_clause_sql(&a.layout, &plan, 0);
        assert!(sql.contains("λ") || !format!("{plan:?}").contains("NullIf"));
    }
}
