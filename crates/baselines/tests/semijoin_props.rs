//! Property tests for the set-oriented match path: on random
//! document/query pairs the semi-join pipelines (default
//! [`PlanStyle::SemiJoin`], which the executor runs through its
//! zero-clone keyed fast path) must agree with the old materializing
//! hash-join plans ([`PlanStyle::Materialized`]) under *both* match
//! strategies, and with the DOM baseline under [`MatchStrategy::Exact`]
//! (XQuery semantics). Includes split partial matches, where Exact and
//! Counted legitimately diverge — the two plan styles must still agree
//! per strategy.

use baselines::{CatalogBackend, DomStoreBackend};
use catalog::lead::{lead_catalog, DETAILED_PATH};
use catalog::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;

/// Options running one strategy in one plan style (uncached).
fn styled(strategy: MatchStrategy, style: PlanStyle) -> QueryOptions {
    QueryOptions { strategy: Some(strategy), style: Some(style), ..Default::default() }
}

/// LEAD document parameterized like the bench corpus: `dx` grid
/// spacing, optional `dzmin` nested sub-attribute, one theme keyword.
fn doc(i: usize, dx: u8, dzmin: Option<u8>, key: u8) -> String {
    let dx = 250.0 * ((dx % 4) + 1) as f64;
    let key = ["rain", "snow", "wind"][key as usize % 3];
    let stretching = match dzmin {
        Some(v) => {
            let v = 50.0 * ((v % 3) + 1) as f64;
            format!(
                "<attr><attrlabl>grid-stretching</attrlabl><attrdefs>ARPS</attrdefs>\
                 <attr><attrlabl>dzmin</attrlabl><attrdefs>ARPS</attrdefs><attrv>{v}</attrv></attr>\
                 </attr>"
            )
        }
        None => String::new(),
    };
    format!(
        "<LEADresource><resourceID>run-{i}</resourceID><data>\
         <idinfo><keywords><theme><themekt>CF</themekt><themekey>{key}</themekey>\
         <themekey>extra_{i}</themekey></theme></keywords></idinfo>\
         <geospatial><eainfo><detailed>\
         <enttyp><enttypl>grid</enttypl><enttypds>ARPS</enttypds></enttyp>\
         {stretching}\
         <attr><attrlabl>dx</attrlabl><attrdefs>ARPS</attrdefs><attrv>{dx}</attrv></attr>\
         </detailed></eainfo></geospatial></data></LEADresource>"
    )
}

/// Random single- or multi-criterion query over the same vocabulary.
fn query(kind: u8, a: u8, b: u8) -> ObjectQuery {
    let dx = 250.0 * ((a % 6) as f64); // sometimes misses every document
    let key = ["rain", "snow", "wind", "hail"][b as usize % 4];
    let grid = |cond| AttrQuery::new("grid").source("ARPS").elem(cond);
    match kind % 7 {
        0 => ObjectQuery::new().attr(grid(ElemCond::eq_num("dx", dx))),
        1 => {
            ObjectQuery::new().attr(grid(ElemCond::between("dx", dx, dx + 250.0 * (b % 4) as f64)))
        }
        2 => {
            ObjectQuery::new().attr(AttrQuery::new("theme").elem(ElemCond::eq_str("themekey", key)))
        }
        3 => ObjectQuery::new().attr(AttrQuery::new("grid").source("ARPS").sub(
            AttrQuery::new("grid-stretching").source("ARPS").elem(ElemCond::num(
                "dzmin",
                QOp::Ge,
                50.0 * ((b % 4) as f64),
            )),
        )),
        4 => ObjectQuery::new()
            .attr(AttrQuery::new("theme").elem(ElemCond::eq_str("themekey", key)))
            .attr(grid(ElemCond::num("dx", QOp::Le, dx))),
        5 => ObjectQuery::new().attr(grid(ElemCond::exists("dx"))),
        _ => ObjectQuery::new()
            .attr(AttrQuery::new("theme").elem(ElemCond::like("themekey", "extra%"))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Semi-join == materialized == DOM (Exact); semi-join ==
    /// materialized (Counted) on random corpora and queries.
    #[test]
    fn plan_styles_and_dom_agree(
        docs in vec((0u8..8, proptest::option::of(0u8..6), 0u8..6), 1..8),
        queries in vec((0u8..7, 0u8..8, 0u8..8), 1..6),
    ) {
        let cat = lead_catalog(CatalogConfig::default()).unwrap();
        let dom = DomStoreBackend::new(DynamicConvention::default());
        for (i, (dx, dzmin, key)) in docs.iter().enumerate() {
            let d = doc(i, *dx, *dzmin, *key);
            let id = cat.ingest(&d).unwrap();
            prop_assert_eq!(dom.ingest(&d).unwrap(), id, "backends must assign equal ids");
        }
        for (kind, a, b) in queries {
            let q = query(kind, a, b);
            let semi = cat.query_with(&q, &styled(MatchStrategy::Exact, PlanStyle::SemiJoin)).unwrap();
            let mat = cat.query_with(&q, &styled(MatchStrategy::Exact, PlanStyle::Materialized)).unwrap();
            prop_assert_eq!(&semi, &mat, "Exact: semi-join vs materialized on {:?}", q);
            let dom_ids = dom.query(&q).unwrap();
            prop_assert_eq!(&semi, &dom_ids, "Exact: semi-join vs DOM baseline on {:?}", q);

            let semi_c = cat.query_with(&q, &styled(MatchStrategy::Counted, PlanStyle::SemiJoin)).unwrap();
            let mat_c =
                cat.query_with(&q, &styled(MatchStrategy::Counted, PlanStyle::Materialized)).unwrap();
            prop_assert_eq!(&semi_c, &mat_c, "Counted: semi-join vs materialized on {:?}", q);
        }
    }

    /// Split partial matches: each `layer` carries a random subset of
    /// the queried condition and sub-attribute, so Exact and Counted
    /// legitimately diverge — but the plan styles must agree per
    /// strategy, and Exact hits are always a subset of Counted hits.
    #[test]
    fn plan_styles_agree_on_split_partial_matches(
        docs in vec(vec((any::<bool>(), any::<bool>()), 0..4), 1..6),
    ) {
        let cat = lead_catalog(CatalogConfig::default()).unwrap();
        cat.register_dynamic(
            DETAILED_PATH,
            &DynamicAttrSpec::new("model", "T").sub(
                DynamicAttrSpec::new("layer", "T")
                    .element("a", xmlkit::ValueType::Float)
                    .sub(DynamicAttrSpec::new("inner", "T").element("b", xmlkit::ValueType::Float)),
            ),
            DefLevel::Admin,
        )
        .unwrap();
        for (i, layers) in docs.iter().enumerate() {
            let mut body = String::new();
            for (has_a, has_inner) in layers {
                body.push_str("<attr><attrlabl>layer</attrlabl><attrdefs>T</attrdefs>");
                let a = if *has_a { 1 } else { 9 };
                body.push_str(&format!(
                    "<attr><attrlabl>a</attrlabl><attrdefs>T</attrdefs><attrv>{a}</attrv></attr>"
                ));
                if *has_inner {
                    body.push_str(
                        "<attr><attrlabl>inner</attrlabl><attrdefs>T</attrdefs>\
                         <attr><attrlabl>b</attrlabl><attrdefs>T</attrdefs><attrv>2</attrv></attr>\
                         </attr>",
                    );
                }
                body.push_str("</attr>");
            }
            cat.ingest(&format!(
                "<LEADresource><resourceID>split-{i}</resourceID><data>\
                 <idinfo><keywords/></idinfo>\
                 <geospatial><eainfo><detailed>\
                 <enttyp><enttypl>model</enttypl><enttypds>T</enttypds></enttyp>\
                 {body}</detailed></eainfo></geospatial></data></LEADresource>"
            ))
            .unwrap();
        }
        let q = ObjectQuery::new().attr(
            AttrQuery::new("model").source("T").sub(
                AttrQuery::new("layer")
                    .source("T")
                    .elem(ElemCond::eq_num("a", 1.0))
                    .sub(AttrQuery::new("inner").source("T").elem(ElemCond::eq_num("b", 2.0))),
            ),
        );
        let exact_semi = cat.query_with(&q, &styled(MatchStrategy::Exact, PlanStyle::SemiJoin)).unwrap();
        let exact_mat =
            cat.query_with(&q, &styled(MatchStrategy::Exact, PlanStyle::Materialized)).unwrap();
        prop_assert_eq!(&exact_semi, &exact_mat);
        let counted_semi =
            cat.query_with(&q, &styled(MatchStrategy::Counted, PlanStyle::SemiJoin)).unwrap();
        let counted_mat =
            cat.query_with(&q, &styled(MatchStrategy::Counted, PlanStyle::Materialized)).unwrap();
        prop_assert_eq!(&counted_semi, &counted_mat);
        // Fig-4 counting only ever over-accepts relative to XQuery
        // semantics: every exact hit is a counted hit.
        prop_assert!(exact_semi.iter().all(|id| counted_semi.contains(id)));
    }
}
