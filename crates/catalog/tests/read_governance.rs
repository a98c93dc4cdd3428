//! Every governed read form honours its request context. With a
//! deadline that has already passed, the match (every strategy and plan
//! style), the search envelope and the document fetch each fail with
//! `DeadlineExceeded` and bump `catalog.cancelled.deadline` exactly
//! once. This file is its own test binary, so no other test moves the
//! process-global counter underneath it.

use catalog::lead::{fig4_query, lead_catalog, FIG3_DOCUMENT};
use catalog::prelude::*;
use std::time::Duration;

/// Run `run` under a context whose deadline has passed: it must fail
/// with `DeadlineExceeded` and bump `catalog.cancelled.deadline` once.
fn expect_deadline<T: std::fmt::Debug>(what: &str, run: impl FnOnce(RequestCtx) -> Result<T>) {
    let cancelled = || obs::global().counter("catalog.cancelled.deadline").get();
    let before = cancelled();
    let r = run(RequestCtx::deadline_in(Duration::ZERO));
    assert!(matches!(r, Err(CatalogError::DeadlineExceeded(_))), "{what}: {r:?}");
    assert_eq!(cancelled(), before + 1, "{what}: catalog.cancelled.deadline not bumped once");
}

#[test]
fn expired_deadline_cancels_every_read_form() {
    let cat = lead_catalog(CatalogConfig::default()).unwrap();
    let id = cat.ingest(FIG3_DOCUMENT).unwrap();
    let q = fig4_query();
    assert_eq!(cat.query(&q).unwrap(), vec![id]);

    for strategy in [MatchStrategy::Exact, MatchStrategy::Counted] {
        for style in [None, Some(PlanStyle::SemiJoin), Some(PlanStyle::Materialized)] {
            expect_deadline(&format!("query_with {strategy:?} {style:?}"), |ctx| {
                let opts = QueryOptions { ctx: Some(ctx), strategy: Some(strategy), style };
                cat.query_with(&q, &opts)
            });
        }
    }
    expect_deadline("search_envelope_with", |ctx| {
        cat.search_envelope_with(&q, &QueryOptions { ctx: Some(ctx), ..Default::default() })
    });
    expect_deadline("fetch_documents_with", |ctx| cat.fetch_documents_with(&[id], Some(&ctx)));

    // With room to run, the governed envelope equals the plain one.
    let roomy = QueryOptions {
        ctx: Some(RequestCtx::deadline_in(Duration::from_secs(60))),
        ..Default::default()
    };
    assert_eq!(cat.search_envelope_with(&q, &roomy).unwrap(), cat.search_envelope(&q).unwrap());
}
