//! Seeded queries built from the preloaded documents themselves, so
//! every query class is non-empty by construction: each query is cut
//! from one document's own values, and that document matches it.

use catalog::qparse::normalize_query;
use catalog::query::{AttrQuery, ElemCond, ObjectQuery, QOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use xmlkit::{Document, NodeId};

/// The `QUERY` classes of the `query-mix` pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One dynamic attribute, equality on one parameter (keyed path).
    DynEq,
    /// Structural `theme` attribute, equality on a `themekey` string.
    ThemeEq,
    /// Dynamic attribute with a one-level sub-attribute range criterion.
    NestedD1,
    /// Two adjacent pool definitions, one range criterion each.
    ConjX2,
}

/// Every pool class, in reporting order.
pub const SHAPES: [Shape; 4] = [Shape::DynEq, Shape::ThemeEq, Shape::NestedD1, Shape::ConjX2];

impl Shape {
    /// Name used in metric names (`match.<name>_us`).
    pub fn name(self) -> &'static str {
        match self {
            Shape::DynEq => "dyn-eq",
            Shape::ThemeEq => "theme-eq",
            Shape::NestedD1 => "nested-d1",
            Shape::ConjX2 => "conj-x2",
        }
    }

    /// Request label of a `QUERY` of this class.
    pub fn label(self) -> &'static str {
        match self {
            Shape::DynEq => "query/dyn-eq",
            Shape::ThemeEq => "query/theme-eq",
            Shape::NestedD1 => "query/nested-d1",
            Shape::ConjX2 => "query/conj-x2",
        }
    }
}

/// One dynamic attribute instance of a document.
struct DynFacts {
    name: String,
    source: String,
    /// Scalar parameters and their values.
    params: Vec<(String, f64)>,
    /// First sub-attribute: its name, its parameter, the value.
    sub: Option<(String, String, f64)>,
}

/// What a query needs to know about one document.
struct DocFacts {
    themekeys: Vec<String>,
    /// In document order; `DocGenerator` gives document `i` the pool
    /// definitions `i, i+1, i+2`, so neighbours here are adjacent specs.
    dynamics: Vec<DynFacts>,
}

/// Query generator over a preloaded corpus.
pub struct QueryGen {
    docs: Vec<DocFacts>,
    /// Parameter values are integers in `0..card`.
    card: u64,
    rng: StdRng,
    issued: HashSet<String>,
}

impl QueryGen {
    /// Build from the preloaded documents (`corpus[i]` is object `i+1`)
    /// and the generator's value cardinality.
    pub fn new(corpus: &[String], card: u64, seed: u64) -> QueryGen {
        let docs = corpus.iter().map(|xml| doc_facts(xml)).collect();
        QueryGen { docs, card, rng: StdRng::seed_from_u64(seed), issued: HashSet::new() }
    }

    /// `n` distinct queries of `shape`.
    pub fn distinct(&mut self, shape: Shape, n: usize) -> Vec<ObjectQuery> {
        (0..n).map(|_| self.fresh(|g| g.pool_query(shape))).collect()
    }

    /// A `search-fetch` query never issued by this generator before
    /// (so its plan is never cached): dyn-eq plus a narrow range on a
    /// second parameter of the same instance.
    pub fn fresh_search(&mut self) -> ObjectQuery {
        self.fresh(|g| g.search_query())
    }

    fn fresh(&mut self, mut make: impl FnMut(&mut QueryGen) -> ObjectQuery) -> ObjectQuery {
        loop {
            let q = make(self);
            if self.issued.insert(normalize_query(&q)) {
                return q;
            }
        }
    }

    /// One query of `shape`, matching at least the document it is cut from.
    fn pool_query(&mut self, shape: Shape) -> ObjectQuery {
        let (rng, card) = (&mut self.rng, self.card);
        let doc = pick(rng, &self.docs);
        let d = pick(rng, &doc.dynamics);
        match shape {
            Shape::DynEq => {
                let (p, v) = pick(rng, &d.params);
                ObjectQuery::new().attr(dyn_attr(d).elem(ElemCond::eq_num(p, *v)))
            }
            Shape::ThemeEq => {
                let key = pick(rng, &doc.themekeys);
                ObjectQuery::new()
                    .attr(AttrQuery::new("theme").elem(ElemCond::eq_str("themekey", key)))
            }
            Shape::NestedD1 => {
                let (sub, p, v) = d.sub.as_ref().expect("pool definitions carry a sub-attribute");
                let t = above(rng, *v, card);
                let inner =
                    AttrQuery::new(sub).source(&d.source).elem(ElemCond::num(p, QOp::Lt, t));
                ObjectQuery::new().attr(dyn_attr(d).sub(inner))
            }
            Shape::ConjX2 => {
                let first = rng.gen_range(0..doc.dynamics.len() - 1);
                let mut q = ObjectQuery::new();
                for d in &doc.dynamics[first..first + 2] {
                    let (p, v) = pick(rng, &d.params);
                    let t = above(rng, *v, card);
                    q = q.attr(dyn_attr(d).elem(ElemCond::num(p, QOp::Lt, t)));
                }
                q
            }
        }
    }

    fn search_query(&mut self) -> ObjectQuery {
        let rng = &mut self.rng;
        let doc = pick(rng, &self.docs);
        let d = pick(rng, &doc.dynamics);
        let n = d.params.len();
        let a = rng.gen_range(0..n);
        let b = (a + rng.gen_range(1..n)) % n;
        let (pa, va) = &d.params[a];
        let (pb, vb) = &d.params[b];
        let lo = vb - rng.gen_range(0..=25) as f64;
        let hi = vb + rng.gen_range(0..=25) as f64;
        ObjectQuery::new()
            .attr(dyn_attr(d).elem(ElemCond::eq_num(pa, *va)).elem(ElemCond::between(pb, lo, hi)))
    }
}

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// A bound in `v+1..=card`, so `p < bound` keeps the value `v`.
fn above(rng: &mut StdRng, v: f64, card: u64) -> f64 {
    rng.gen_range(v as u64 + 1..=card) as f64
}

fn dyn_attr(d: &DynFacts) -> AttrQuery {
    AttrQuery::new(&d.name).source(&d.source)
}

/// Extract themekeys and dynamic attribute values from a generated
/// LEAD document (`workload::DocGenerator` layout).
fn doc_facts(xml: &str) -> DocFacts {
    let doc = Document::parse(xml).expect("generated documents parse");
    let text = |id: NodeId, child: &str| -> String {
        doc.child_named(id, child).map(|c| doc.direct_text(c)).unwrap_or_default()
    };
    let mut facts = DocFacts { themekeys: Vec::new(), dynamics: Vec::new() };
    for id in doc.descendants(doc.root()) {
        match doc.node(id).name() {
            Some("themekey") => facts.themekeys.push(doc.direct_text(id)),
            Some("detailed") => {
                let enttyp = doc.child_named(id, "enttyp").expect("dynamic attributes have enttyp");
                let mut d = DynFacts {
                    name: text(enttyp, "enttypl"),
                    source: text(enttyp, "enttypds"),
                    params: Vec::new(),
                    sub: None,
                };
                for attr in doc.children_named(id, "attr") {
                    let label = text(attr, "attrlabl");
                    match doc.child_named(attr, "attrv") {
                        Some(v) => d.params.push((label, number(&doc.direct_text(v)))),
                        None => {
                            let inner =
                                doc.child_named(attr, "attr").expect("sub-attribute parameter");
                            let v = number(&text(inner, "attrv"));
                            d.sub.get_or_insert((label, text(inner, "attrlabl"), v));
                        }
                    }
                }
                facts.dynamics.push(d);
            }
            _ => {}
        }
    }
    facts
}

fn number(s: &str) -> f64 {
    s.trim().parse().expect("generated parameter values are numbers")
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::catalog::CatalogConfig;
    use workload::{DocGenerator, WorkloadConfig};

    #[test]
    fn every_class_has_hits() {
        let docs = DocGenerator::new(WorkloadConfig { seed: 3, ..Default::default() });
        let cat = docs.catalog(CatalogConfig::default()).unwrap();
        let corpus = docs.corpus(60);
        for xml in &corpus {
            cat.ingest(xml).unwrap();
        }
        let mut gen = QueryGen::new(&corpus, docs.config().value_cardinality, 1);
        for shape in SHAPES {
            for q in gen.distinct(shape, 20) {
                assert!(!cat.query(&q).unwrap().is_empty(), "{} without hits: {q:?}", shape.name());
            }
        }
        for _ in 0..50 {
            let q = gen.fresh_search();
            assert!(!cat.query(&q).unwrap().is_empty(), "search without hits: {q:?}");
        }
    }

    #[test]
    fn conjunctions_use_adjacent_definitions() {
        let docs = DocGenerator::new(WorkloadConfig::default());
        let names: Vec<&str> = docs.specs().iter().map(|s| s.name.as_str()).collect();
        let mut gen = QueryGen::new(&docs.corpus(30), docs.config().value_cardinality, 2);
        for q in gen.distinct(Shape::ConjX2, 20) {
            let at: Vec<usize> = q
                .attrs
                .iter()
                .map(|a| names.iter().position(|n| *n == a.name).unwrap())
                .collect();
            assert_eq!((at[0] + 1) % names.len(), at[1], "{q:?}");
        }
    }

    #[test]
    fn queries_are_seeded() {
        let docs = DocGenerator::new(WorkloadConfig::default());
        let corpus = docs.corpus(20);
        let a = QueryGen::new(&corpus, 100, 4).distinct(Shape::NestedD1, 5);
        let b = QueryGen::new(&corpus, 100, 4).distinct(Shape::NestedD1, 5);
        assert_eq!(a, b);
    }
}
