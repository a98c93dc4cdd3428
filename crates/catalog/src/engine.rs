//! Query execution over the shredded store (§4, Fig 4).
//!
//! A query is first *shredded* like a document: each `AttrQuery` node
//! resolves to an attribute definition, each `ElemCond` to an element
//! definition, and the query tree's required counts are computed. The
//! match then runs as set-based relational plans over the `elems`,
//! `attrs` and `attr_anc` tables — the instance-level inverted list is
//! what keeps nested dynamic-attribute criteria join-depth-constant
//! instead of one self-join per nesting level (contrast the edge-table
//! baseline).
//!
//! Two strategies are provided:
//!
//! - [`MatchStrategy::Exact`] — hierarchical semi-joins bottom-up over
//!   the query tree; equivalent to the XQuery FLWOR the paper shows.
//! - [`MatchStrategy::Counted`] — Fig 4's flat formulation: every query
//!   node links *directly to the top attribute instance* through the
//!   inverted list and satisfaction is decided by counts. One join
//!   level cheaper; diverges from XQuery semantics only when a query
//!   nests sub-attributes two+ levels deep **and** partial matches are
//!   split across sibling instances (see `counted_vs_exact` test).

use crate::defs::{AttrId, DefsRegistry, ElemId};
use crate::error::{CatalogError, Result};
use crate::query::{AttrQuery, ElemCond, ObjectQuery, QOp, QValue};
use minidb::limits::Budget;
use minidb::{CmpOp, Database, Expr, Plan};

/// Matching strategy (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchStrategy {
    /// Hierarchical semi-join; XQuery-equivalent semantics.
    #[default]
    Exact,
    /// Fig-4 count-based matching through top-instance links.
    Counted,
}

/// Physical style of the generated match plans.
///
/// Both styles compute the same answer for every strategy; they differ
/// only in the operators used. [`PlanStyle::SemiJoin`] is the default
/// and what the catalog's plan cache holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanStyle {
    /// Semi-join pipelines with trailing `Distinct`s folded in — the
    /// probe side is filtered by key-set membership, never widened, so
    /// the executor's set-oriented `(object_id, seq)` fast path applies
    /// end to end.
    #[default]
    SemiJoin,
    /// The original fully-materializing hash-join chains (one `Distinct
    /// ∘ Project ∘ HashJoin` stage per criterion). Kept for ablations
    /// and for agreement testing against the semi-join pipelines.
    Materialized,
}

/// A query node resolved against the definition registry.
#[derive(Debug, Clone)]
struct ResolvedNode {
    attr_id: AttrId,
    elems: Vec<(ElemId, ElemCond)>,
    children: Vec<ResolvedNode>,
    direct_subs: bool,
}

/// Resolve the query tree to definition ids.
fn resolve(defs: &DefsRegistry, q: &AttrQuery, parent: Option<AttrId>) -> Result<ResolvedNode> {
    // Sub-attribute criteria may skip intervening definition levels
    // (the inverted list links instances across any distance).
    let def = match parent {
        None => defs.find_attr(&q.name, q.source.as_deref(), None),
        Some(p) => defs.find_attr_under(&q.name, q.source.as_deref(), p),
    }
    .ok_or_else(|| {
        CatalogError::BadQuery(format!(
            "unknown attribute ({}, {})",
            q.name,
            q.source.as_deref().unwrap_or("-")
        ))
    })?;
    if !def.queryable {
        return Err(CatalogError::BadQuery(format!("attribute {} is not queryable", q.name)));
    }
    let attr_id = def.id;
    let mut elems = Vec::with_capacity(q.elems.len());
    for c in &q.elems {
        let elem_id = defs.resolve_elem(attr_id, &c.name).ok_or_else(|| {
            CatalogError::BadQuery(format!("unknown element {} on attribute {}", c.name, q.name))
        })?;
        elems.push((elem_id, c.clone()));
    }
    let mut children = Vec::with_capacity(q.subs.len());
    for s in &q.subs {
        children.push(resolve(defs, s, Some(attr_id))?);
    }
    Ok(ResolvedNode { attr_id, elems, children, direct_subs: q.direct_subs })
}

// Column order of `elems`:   object_id=0 attr_id=1 attr_seq=2 elem_id=3 elem_seq=4 value_str=5 value_num=6
// Column order of `attrs`:   object_id=0 attr_id=1 seq=2 clob_seq=3
// Column order of `attr_anc`: object_id=0 attr_id=1 seq=2 anc_attr_id=3 anc_seq=4 distance=5

/// Predicate over the `elems` table for one element condition.
fn elem_pred(elem_id: ElemId, cond: &ElemCond) -> Expr {
    let id_eq = Expr::col_eq(3, elem_id);
    let value_pred = match cond.op {
        QOp::Exists => Expr::lit(true),
        QOp::Like => {
            let QValue::Str(p) = &cond.value else {
                return Expr::lit(false);
            };
            Expr::Like(Box::new(Expr::col(5)), p.clone())
        }
        QOp::Between => {
            let (QValue::Num(lo), Some(QValue::Num(hi))) = (&cond.value, &cond.value2) else {
                return Expr::lit(false);
            };
            Expr::Between(
                Box::new(Expr::col(6)),
                Box::new(Expr::lit(*lo)),
                Box::new(Expr::lit(*hi)),
            )
        }
        QOp::Eq | QOp::Ne | QOp::Lt | QOp::Le | QOp::Gt | QOp::Ge => {
            let op = match cond.op {
                QOp::Eq => CmpOp::Eq,
                QOp::Ne => CmpOp::Ne,
                QOp::Lt => CmpOp::Lt,
                QOp::Le => CmpOp::Le,
                QOp::Gt => CmpOp::Gt,
                QOp::Ge => CmpOp::Ge,
                _ => unreachable!(),
            };
            match &cond.value {
                QValue::Num(n) => Expr::Cmp(op, Box::new(Expr::col(6)), Box::new(Expr::lit(*n))),
                QValue::Str(s) => {
                    Expr::Cmp(op, Box::new(Expr::col(5)), Box::new(Expr::lit(s.clone())))
                }
            }
        }
    };
    Expr::and(id_eq, value_pred)
}

/// `(object_id, seq)` key pair over the `elems` / `attrs` tables.
fn key_cols() -> Vec<(Expr, String)> {
    vec![(Expr::col(0), "object_id".into()), (Expr::col(2), "seq".into())]
}

/// Plan yielding distinct `(object_id, seq)` of instances of
/// `node.attr_id` that satisfy all *direct* element conditions.
fn direct_instances_plan(node: &ResolvedNode, style: PlanStyle) -> Plan {
    if node.elems.is_empty() {
        // No element conditions: every instance of the definition.
        return Plan::Distinct {
            input: Box::new(
                Plan::Scan { table: "attrs".into(), filter: Some(Expr::col_eq(1, node.attr_id)) }
                    .project(key_cols()),
            ),
        };
    }
    match style {
        PlanStyle::SemiJoin => {
            // First condition probes; every further condition becomes a
            // semi-join build side. The probe is filtered in place —
            // nothing is widened — and a single trailing Distinct
            // replaces the per-stage ones.
            let mut conds = node.elems.iter();
            let (elem_id, cond) = conds.next().expect("at least one condition");
            let mut plan =
                Plan::Scan { table: "elems".into(), filter: Some(elem_pred(*elem_id, cond)) }
                    .project(key_cols());
            for (elem_id, cond) in conds {
                let build =
                    Plan::Scan { table: "elems".into(), filter: Some(elem_pred(*elem_id, cond)) }
                        .project(key_cols());
                plan = plan.semi_join(build, vec![0, 1], vec![0, 1]);
            }
            Plan::Distinct { input: Box::new(plan) }
        }
        PlanStyle::Materialized => {
            let mut plan: Option<Plan> = None;
            for (elem_id, cond) in &node.elems {
                let cond_plan = Plan::Distinct {
                    input: Box::new(
                        Plan::Scan {
                            table: "elems".into(),
                            filter: Some(elem_pred(*elem_id, cond)),
                        }
                        .project(key_cols()),
                    ),
                };
                plan = Some(match plan {
                    None => cond_plan,
                    Some(acc) => Plan::Distinct {
                        input: Box::new(acc.hash_join(cond_plan, vec![0, 1], vec![0, 1]).project(
                            vec![(Expr::col(0), "object_id".into()), (Expr::col(1), "seq".into())],
                        )),
                    },
                });
            }
            plan.expect("at least one condition")
        }
    }
}

/// Inverted-list scan restricted to one (child, ancestor) definition
/// pair; `distance = 1` when the query demands direct children.
fn link_scan(child: AttrId, ancestor: AttrId, direct_only: bool) -> Plan {
    let mut link_pred = Expr::and(Expr::col_eq(1, child), Expr::col_eq(3, ancestor));
    if direct_only {
        link_pred = Expr::and(link_pred, Expr::col_eq(5, 1i64));
    }
    Plan::Scan { table: "attr_anc".into(), filter: Some(link_pred) }
}

/// Ancestor instances `(object_id, anc_seq)` reachable from satisfied
/// child instances through the inverted list.
fn ancestors_of(child_sat: Plan, link: Plan, style: PlanStyle) -> Plan {
    match style {
        // Filter the link scan by child-key membership *during the
        // scan*, then project the ancestor key — the executor fuses
        // this shape into one pass over `attr_anc`.
        PlanStyle::SemiJoin => {
            Plan::Distinct {
                input: Box::new(link.semi_join(child_sat, vec![0, 2], vec![0, 1]).project(vec![
                    (Expr::col(0), "object_id".into()),
                    (Expr::col(4), "seq".into()),
                ])),
            }
        }
        // child_sat (obj, seq) ⋈ link (obj=0, child seq=2) → (obj=2, anc_seq=6)
        PlanStyle::Materialized => {
            Plan::Distinct {
                input: Box::new(child_sat.hash_join(link, vec![0, 1], vec![0, 2]).project(vec![
                    (Expr::col(2), "object_id".into()),
                    (Expr::col(6), "seq".into()),
                ])),
            }
        }
    }
}

/// Intersect two `(object_id, seq)` instance sets.
fn intersect_instances(acc: Plan, other: Plan, style: PlanStyle) -> Plan {
    match style {
        PlanStyle::SemiJoin => acc.semi_join(other, vec![0, 1], vec![0, 1]),
        PlanStyle::Materialized => {
            Plan::Distinct {
                input: Box::new(acc.hash_join(other, vec![0, 1], vec![0, 1]).project(vec![
                    (Expr::col(0), "object_id".into()),
                    (Expr::col(1), "seq".into()),
                ])),
            }
        }
    }
}

/// Exact strategy: bottom-up hierarchical semi-join.
///
/// Returns a plan yielding distinct `(object_id, seq)` for instances of
/// `node.attr_id` satisfying the node's whole subtree.
fn exact_plan(node: &ResolvedNode, style: PlanStyle) -> Plan {
    let mut plan = direct_instances_plan(node, style);
    for child in &node.children {
        let child_sat = exact_plan(child, style);
        let link = link_scan(child.attr_id, node.attr_id, node.direct_subs);
        let parents = ancestors_of(child_sat, link, style);
        plan = intersect_instances(plan, parents, style);
    }
    plan
}

/// Counted strategy: every descendant query node links straight to the
/// top attribute instance (Fig 4's inverted-list shortcut).
fn counted_plan(top: &ResolvedNode, style: PlanStyle) -> Plan {
    let mut plan = direct_instances_plan(top, style);
    fn visit(top_attr: AttrId, node: &ResolvedNode, plan: Plan, style: PlanStyle) -> Plan {
        let mut plan = plan;
        for child in &node.children {
            let child_sat = direct_instances_plan(child, style);
            let link = link_scan(child.attr_id, top_attr, false);
            let tops = ancestors_of(child_sat, link, style);
            plan = intersect_instances(plan, tops, style);
            plan = visit(top_attr, child, plan, style);
        }
        plan
    }
    plan = visit(top.attr_id, top, plan, style);
    plan
}

/// Intersect two distinct `object_id` sets.
fn intersect_objects(acc: Plan, other: Plan, style: PlanStyle) -> Plan {
    match style {
        PlanStyle::SemiJoin => acc.semi_join(other, vec![0], vec![0]),
        PlanStyle::Materialized => Plan::Distinct {
            input: Box::new(
                acc.hash_join(other, vec![0], vec![0])
                    .project(vec![(Expr::col(0), "object_id".into())]),
            ),
        },
    }
}

/// Build the full match plan for an [`ObjectQuery`] without executing
/// it. The catalog caches plans in the default [`PlanStyle`] and its
/// `EXPLAIN ANALYZE` path profiles the cached plan, so the analyzed
/// plan is exactly the executed plan.
pub fn build_query_plan(
    defs: &DefsRegistry,
    query: &ObjectQuery,
    strategy: MatchStrategy,
    style: PlanStyle,
) -> Result<Plan> {
    if query.attrs.is_empty() {
        return Err(CatalogError::BadQuery("query has no attribute criteria".into()));
    }
    let mut obj_plan: Option<Plan> = None;
    for aq in &query.attrs {
        let node = resolve(defs, aq, None)?;
        let sat = match strategy {
            MatchStrategy::Exact => exact_plan(&node, style),
            MatchStrategy::Counted => counted_plan(&node, style),
        };
        let objs = Plan::Distinct {
            input: Box::new(sat.project(vec![(Expr::col(0), "object_id".into())])),
        };
        obj_plan = Some(match obj_plan {
            None => objs,
            Some(acc) => intersect_objects(acc, objs, style),
        });
    }
    Ok(Plan::Sort { input: Box::new(obj_plan.expect("non-empty query")), keys: vec![(0, false)] })
}

/// Execute an already-built match plan; returns sorted matching object
/// ids. With a `budget`, the executor checks its deadline cooperatively
/// and charges the rows/bytes it materializes against the request's
/// caps.
pub fn execute_match_plan(db: &Database, plan: &Plan, budget: Option<&Budget>) -> Result<Vec<i64>> {
    let reg = obs::global();
    let rs = {
        let _span = reg.span("catalog.query.match");
        match budget {
            Some(b) => db.begin_read().execute_with(plan, b)?,
            None => db.execute(plan)?,
        }
    };
    reg.counter("catalog.query.count").incr();
    // The leading column of a match result is the `object_id`.
    Ok(rs.rows.iter().filter_map(|r| r.first()?.as_i64()).collect())
}

/// The simplification the paper notes (§4): when no criterion has
/// sub-attributes and no queried attribute repeats within an object,
/// matching collapses to an `elems ⋈ criteria` pass grouped by object.
/// Exposed for the E2 ablation; produces the same answer as
/// [`MatchStrategy::Exact`] whenever its preconditions hold.
pub fn run_flat_query(db: &Database, defs: &DefsRegistry, query: &ObjectQuery) -> Result<Vec<i64>> {
    let style = PlanStyle::default();
    let mut per_attr_plans: Vec<Plan> = Vec::new();
    for aq in &query.attrs {
        let node = resolve(defs, aq, None)?;
        if !node.children.is_empty() {
            return Err(CatalogError::BadQuery(
                "flat matching does not support sub-attribute criteria".into(),
            ));
        }
        per_attr_plans.push(Plan::Distinct {
            input: Box::new(
                direct_instances_plan(&node, style)
                    .project(vec![(Expr::col(0), "object_id".into())]),
            ),
        });
    }
    let mut it = per_attr_plans.into_iter();
    let mut plan = it.next().ok_or_else(|| CatalogError::BadQuery("empty query".into()))?;
    for next in it {
        plan = intersect_objects(plan, next, style);
    }
    execute_match_plan(db, &Plan::Sort { input: Box::new(plan), keys: vec![(0, false)] }, None)
}
