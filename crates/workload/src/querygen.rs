//! Seeded attribute-query generator with controlled shapes.
//!
//! Queries are generated against the same [`super::docgen`] pool, so
//! every generated query resolves against the registered definitions.
//! Selectivity is tuned through the value predicates: parameter values
//! are uniform over `0..value_cardinality`, so `p < t` selects roughly
//! `t / cardinality` of the instances carrying that parameter.

use crate::docgen::DocGenerator;
use catalog::query::{AttrQuery, ElemCond, ObjectQuery, QOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The query shapes the evaluation sweeps over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryShape {
    /// One structural attribute: theme keyword equality.
    ThemeEq,
    /// One dynamic attribute, equality on one parameter.
    DynamicEq,
    /// One dynamic attribute, range predicate with the given selectivity
    /// percentage of the value domain (1–100).
    DynamicRange(u8),
    /// Nested sub-attribute chain of the given depth.
    Nested(usize),
    /// Conjunction of the given number of attribute criteria.
    Conjunctive(usize),
}

/// Deterministic query generator bound to a document generator's pool.
pub struct QueryGenerator<'a> {
    gen: &'a DocGenerator,
    rng: StdRng,
}

impl<'a> QueryGenerator<'a> {
    /// Create with its own seed (queries are reproducible).
    pub fn new(gen: &'a DocGenerator, seed: u64) -> QueryGenerator<'a> {
        QueryGenerator { gen, rng: StdRng::seed_from_u64(seed) }
    }

    /// Generate one query of the requested shape.
    pub fn generate(&mut self, shape: QueryShape) -> ObjectQuery {
        let card = self.gen.config().value_cardinality;
        match shape {
            QueryShape::ThemeEq => {
                let term = ["air_pressure", "wind_speed", "cloud_base"][self.rng.gen_range(0..3)];
                let idx = self.rng.gen_range(0..self.gen.config().vocab_size);
                ObjectQuery::new().attr(
                    AttrQuery::new("theme")
                        .elem(ElemCond::eq_str("themekey", format!("{term}_{idx}"))),
                )
            }
            QueryShape::DynamicEq => {
                let spec = &self.gen.specs()[self.rng.gen_range(0..self.gen.specs().len())];
                let (pname, _) = &spec.elements[self.rng.gen_range(0..spec.elements.len().max(1))];
                let v = self.rng.gen_range(0..card) as f64;
                ObjectQuery::new().attr(
                    AttrQuery::new(spec.name.clone())
                        .source(spec.source.clone())
                        .elem(ElemCond::eq_num(pname.clone(), v)),
                )
            }
            QueryShape::DynamicRange(pct) => {
                let spec = &self.gen.specs()[self.rng.gen_range(0..self.gen.specs().len())];
                let (pname, _) = &spec.elements[self.rng.gen_range(0..spec.elements.len().max(1))];
                let width = (card as f64 * pct.min(100) as f64 / 100.0).max(1.0);
                let lo = self.rng.gen_range(0.0..(card as f64 - width).max(1.0));
                ObjectQuery::new().attr(
                    AttrQuery::new(spec.name.clone())
                        .source(spec.source.clone())
                        .elem(ElemCond::between(pname.clone(), lo, lo + width)),
                )
            }
            QueryShape::Nested(depth) => {
                let spec = &self.gen.specs()[self.rng.gen_range(0..self.gen.specs().len())];
                // Chain sub0 → sub1 → ... → sub{depth-1}, condition on
                // the innermost level's parameter.
                fn chain(
                    source: &str,
                    level: usize,
                    depth: usize,
                    card: u64,
                    rng: &mut StdRng,
                ) -> AttrQuery {
                    let mut q = AttrQuery::new(format!("sub{level}")).source(source.to_string());
                    if level + 1 < depth {
                        q = q.sub(chain(source, level + 1, depth, card, rng));
                    } else {
                        let t = rng.gen_range(1..=card) as f64;
                        q = q.elem(ElemCond::num(format!("v{level}"), QOp::Lt, t));
                    }
                    q
                }
                let depth = depth.max(1);
                let top = AttrQuery::new(spec.name.clone()).source(spec.source.clone()).sub(chain(
                    &spec.source,
                    0,
                    depth,
                    card,
                    &mut self.rng,
                ));
                ObjectQuery::new().attr(top)
            }
            QueryShape::Conjunctive(k) => {
                // Document `i` carries specs `i .. i + dynamics_per_doc`
                // (mod pool), so criteria from one such window co-occur;
                // criteria past the window reuse it on the next parameter.
                let specs = self.gen.specs();
                let window = self.gen.config().dynamics_per_doc.clamp(1, specs.len());
                let base = self.rng.gen_range(0..specs.len());
                let mut q = ObjectQuery::new();
                for j in 0..k.max(1) {
                    let spec = &specs[(base + j % window) % specs.len()];
                    let (pname, _) = &spec.elements[(j / window) % spec.elements.len().max(1)];
                    let t = self.rng.gen_range(card / 4..card) as f64;
                    q = q.attr(
                        AttrQuery::new(spec.name.clone())
                            .source(spec.source.clone())
                            .elem(ElemCond::num(pname.clone(), QOp::Lt, t)),
                    );
                }
                q
            }
        }
    }

    /// Generate a batch of queries of one shape.
    pub fn batch(&mut self, shape: QueryShape, n: usize) -> Vec<ObjectQuery> {
        (0..n).map(|_| self.generate(shape)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docgen::WorkloadConfig;
    use catalog::catalog::CatalogConfig;

    fn setup(sub_depth: usize) -> (DocGenerator, catalog::catalog::MetadataCatalog) {
        let g = DocGenerator::new(WorkloadConfig { sub_depth, ..Default::default() });
        let cat = g.catalog(CatalogConfig::default()).unwrap();
        for i in 0..30 {
            cat.ingest(&g.generate(i)).unwrap();
        }
        (g, cat)
    }

    #[test]
    fn queries_resolve_and_run() {
        let (g, cat) = setup(1);
        let mut qg = QueryGenerator::new(&g, 7);
        for shape in [
            QueryShape::ThemeEq,
            QueryShape::DynamicEq,
            QueryShape::DynamicRange(10),
            QueryShape::DynamicRange(90),
            QueryShape::Nested(1),
            QueryShape::Conjunctive(2),
            QueryShape::Conjunctive(4),
        ] {
            let mut hits = 0;
            for q in qg.batch(shape, 5) {
                hits += cat.query(&q).unwrap_or_else(|e| panic!("{shape:?}: {e}")).len();
            }
            // Conjunctions draw co-occurring criteria, so they have hits.
            assert!(hits > 0 || !matches!(shape, QueryShape::Conjunctive(_)), "{shape:?}: no hits");
        }
    }

    #[test]
    fn range_selectivity_ordering() {
        let (g, cat) = setup(0);
        let mut narrow_hits = 0usize;
        let mut wide_hits = 0usize;
        let mut qg = QueryGenerator::new(&g, 11);
        for q in qg.batch(QueryShape::DynamicRange(5), 20) {
            narrow_hits += cat.query(&q).unwrap().len();
        }
        let mut qg = QueryGenerator::new(&g, 11);
        for q in qg.batch(QueryShape::DynamicRange(95), 20) {
            wide_hits += cat.query(&q).unwrap().len();
        }
        assert!(
            wide_hits > narrow_hits,
            "wide ranges ({wide_hits}) should match more than narrow ({narrow_hits})"
        );
    }

    #[test]
    fn nested_queries_match_deeper_corpora() {
        let (g, cat) = setup(3);
        let mut qg = QueryGenerator::new(&g, 3);
        let q = qg.generate(QueryShape::Nested(3));
        // Should at least run; with Lt over the whole domain most docs
        // carrying the spec match.
        let hits = cat.query(&q).unwrap();
        assert!(!hits.is_empty());
    }

    #[test]
    fn deterministic_batches() {
        let g = DocGenerator::new(WorkloadConfig::default());
        let a = QueryGenerator::new(&g, 5).batch(QueryShape::DynamicEq, 4);
        let b = QueryGenerator::new(&g, 5).batch(QueryShape::DynamicEq, 4);
        assert_eq!(a, b);
    }
}
