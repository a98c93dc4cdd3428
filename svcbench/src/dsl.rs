//! Render an [`ObjectQuery`] as query-DSL text (`catalog::qparse`).
//!
//! The service takes DSL text, and the catalog's `normalize_query` is a
//! cache key that cannot be parsed back, so the benchmark renders its
//! generated queries itself. `parse_query(&render(q)?) == q` holds for
//! every query this returns text for.

use catalog::query::{AttrQuery, ElemCond, ObjectQuery, QOp, QValue};

/// DSL text for `q`, or `None` when the DSL cannot express it (no
/// criteria, `direct()` sub-attribute linkage, a name outside the DSL's
/// name characters, a non-finite number, or a string holding both
/// quote characters).
pub fn render(q: &ObjectQuery) -> Option<String> {
    if q.attrs.is_empty() {
        return None;
    }
    let attrs: Option<Vec<String>> = q.attrs.iter().map(render_attr).collect();
    Some(attrs?.join(";"))
}

fn render_attr(a: &AttrQuery) -> Option<String> {
    if a.direct_subs || !is_name(&a.name) {
        return None;
    }
    let mut out = a.name.clone();
    if let Some(source) = &a.source {
        if !is_name(source) {
            return None;
        }
        out.push('@');
        out.push_str(source);
    }
    for cond in &a.elems {
        out.push_str(&render_cond(cond)?);
    }
    if !a.subs.is_empty() {
        let subs: Option<Vec<String>> = a.subs.iter().map(render_attr).collect();
        out.push('{');
        out.push_str(&subs?.join(","));
        out.push('}');
    }
    Some(out)
}

fn render_cond(c: &ElemCond) -> Option<String> {
    if !is_name(&c.name) {
        return None;
    }
    let name = &c.name;
    let text = match (c.op, &c.value, &c.value2) {
        // The parser gives `[name]` this exact value.
        (QOp::Exists, QValue::Num(v), None) if *v == 0.0 => format!("[{name}]"),
        (QOp::Between, QValue::Num(lo), Some(QValue::Num(hi))) => {
            format!("[{name}={}..{}]", num(*lo)?, num(*hi)?)
        }
        (QOp::Like, QValue::Str(s), None) => format!("[{name}~{}]", string(s)?),
        (op, value, None) => {
            let op = match op {
                QOp::Eq => "=",
                QOp::Ne => "!=",
                QOp::Lt => "<",
                QOp::Le => "<=",
                QOp::Gt => ">",
                QOp::Ge => ">=",
                QOp::Like | QOp::Between | QOp::Exists => return None,
            };
            let value = match value {
                QValue::Num(v) => num(*v)?,
                QValue::Str(s) => string(s)?,
            };
            format!("[{name}{op}{value}]")
        }
        _ => return None,
    };
    Some(text)
}

/// `f64`'s `Display` is the shortest text that parses back to the same
/// value, and never uses an exponent.
fn num(v: f64) -> Option<String> {
    v.is_finite().then(|| v.to_string())
}

fn string(s: &str) -> Option<String> {
    if !s.contains('\'') {
        Some(format!("'{s}'"))
    } else if !s.contains('"') {
        Some(format!("\"{s}\""))
    } else {
        None
    }
}

/// The parser's name characters.
fn is_name(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_alphanumeric() || matches!(c, '_' | '-' | '.'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::{QueryGen, SHAPES};
    use catalog::qparse::parse_query;
    use workload::{DocGenerator, QueryGenerator, QueryShape, WorkloadConfig};

    fn roundtrip(q: &ObjectQuery) {
        let text = render(q).unwrap_or_else(|| panic!("not renderable: {q:?}"));
        let back = parse_query(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(&back, q, "{text}");
    }

    #[test]
    fn benchmark_shapes_roundtrip() {
        let docs = DocGenerator::new(WorkloadConfig::default());
        let mut gen = QueryGen::new(&docs.corpus(40), docs.config().value_cardinality, 9);
        for shape in SHAPES {
            for q in gen.distinct(shape, 50) {
                roundtrip(&q);
            }
        }
        for _ in 0..200 {
            roundtrip(&gen.fresh_search());
        }
    }

    #[test]
    fn workload_shapes_roundtrip() {
        let docs = DocGenerator::new(WorkloadConfig { sub_depth: 3, ..Default::default() });
        let mut gen = QueryGenerator::new(&docs, 5);
        for shape in [
            QueryShape::ThemeEq,
            QueryShape::DynamicEq,
            QueryShape::DynamicRange(1),
            QueryShape::DynamicRange(37),
            QueryShape::Nested(1),
            QueryShape::Nested(3),
            QueryShape::Conjunctive(2),
            QueryShape::Conjunctive(4),
        ] {
            for q in gen.batch(shape, 20) {
                roundtrip(&q);
            }
        }
    }

    #[test]
    fn every_operator_roundtrips() {
        let q = ObjectQuery::new()
            .attr(
                AttrQuery::new("a.b-c_d")
                    .source("S")
                    .elem(ElemCond::exists("e"))
                    .elem(ElemCond::like("f", "%rain%"))
                    .elem(ElemCond::num("g", QOp::Ne, -0.25))
                    .elem(ElemCond::num("h", QOp::Le, 1e21))
                    .elem(ElemCond::str("i", QOp::Gt, "it's"))
                    .elem(ElemCond::between("j", -3.5, 7.0))
                    .sub(
                        AttrQuery::new("k")
                            .sub(AttrQuery::new("l").elem(ElemCond::eq_num("m", 0.1))),
                    )
                    .sub(AttrQuery::new("n").elem(ElemCond::str("o", QOp::Ge, "CF NetCDF"))),
            )
            .attr(AttrQuery::new("theme").elem(ElemCond::eq_str("themekey", "x_1")));
        roundtrip(&q);
    }

    #[test]
    fn inexpressible_queries_are_refused() {
        assert_eq!(render(&ObjectQuery::new()), None);
        let direct = AttrQuery::new("a").sub(AttrQuery::new("b")).direct();
        assert_eq!(render(&ObjectQuery::new().attr(direct)), None);
        let quotes = AttrQuery::new("a").elem(ElemCond::eq_str("x", "'\""));
        assert_eq!(render(&ObjectQuery::new().attr(quotes)), None);
        let nan = AttrQuery::new("a").elem(ElemCond::eq_num("x", f64::NAN));
        assert_eq!(render(&ObjectQuery::new().attr(nan)), None);
        let bad_name = AttrQuery::new("a b");
        assert_eq!(render(&ObjectQuery::new().attr(bad_name)), None);
    }
}
