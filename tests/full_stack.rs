//! Workspace-level integration tests: workload → catalog → baselines.

use mylead::baselines::{CatalogBackend, DomStoreBackend, HybridBackend};
use mylead::catalog::prelude::*;
use mylead::workload::{DocGenerator, QueryGenerator, QueryShape, WorkloadConfig};

fn make(cfg: WorkloadConfig) -> (DocGenerator, HybridBackend, DomStoreBackend) {
    let generator = DocGenerator::new(cfg);
    let hybrid = HybridBackend::from_catalog(generator.catalog(CatalogConfig::default()).unwrap());
    let dom = DomStoreBackend::new(DynamicConvention::default());
    (generator, hybrid, dom)
}

#[test]
fn hybrid_agrees_with_dom_oracle_across_shapes_and_seeds() {
    for seed in [1u64, 7, 23] {
        let cfg = WorkloadConfig { seed, sub_depth: 2, ..Default::default() };
        let (generator, hybrid, dom) = make(cfg);
        for d in generator.corpus(25) {
            hybrid.ingest(&d).unwrap();
            dom.ingest(&d).unwrap();
        }
        let mut qg = QueryGenerator::new(&generator, seed * 31);
        for shape in [
            QueryShape::ThemeEq,
            QueryShape::DynamicEq,
            QueryShape::DynamicRange(15),
            QueryShape::DynamicRange(70),
            QueryShape::Nested(1),
            QueryShape::Nested(2),
            QueryShape::Conjunctive(2),
            QueryShape::Conjunctive(3),
        ] {
            for q in qg.batch(shape, 4) {
                let h = hybrid.query(&q).unwrap();
                let o = dom.query(&q).unwrap();
                assert_eq!(h, o, "seed {seed}, shape {shape:?}, query {q:?}");
            }
        }
    }
}

#[test]
fn every_generated_document_roundtrips() {
    let cfg = WorkloadConfig { seed: 5, sub_depth: 2, dynamics_per_doc: 4, ..Default::default() };
    let (generator, hybrid, _) = make(cfg);
    let corpus = generator.corpus(20);
    let mut ids = Vec::new();
    for d in &corpus {
        ids.push(hybrid.ingest(d).unwrap());
    }
    let rebuilt = hybrid.reconstruct(&ids).unwrap();
    for ((orig, (_, new)), i) in corpus.iter().zip(rebuilt.iter()).zip(0..) {
        let a = mylead::xmlkit::Document::parse(orig).unwrap();
        let b = mylead::xmlkit::Document::parse(new).unwrap();
        assert_eq!(
            mylead::xmlkit::writer::to_string(&a, a.root()),
            mylead::xmlkit::writer::to_string(&b, b.root()),
            "document {i} did not round-trip"
        );
    }
}

#[test]
fn strategies_and_flat_path_agree_on_generated_workloads() {
    let cfg = WorkloadConfig { seed: 9, sub_depth: 1, ..Default::default() };
    let generator = DocGenerator::new(cfg);
    let cat = generator.catalog(CatalogConfig::default()).unwrap();
    for d in generator.corpus(30) {
        cat.ingest(&d).unwrap();
    }
    let mut qg = QueryGenerator::new(&generator, 77);
    let with = |s| QueryOptions { strategy: Some(s), ..Default::default() };
    // Flat queries: all three paths agree.
    for q in qg.batch(QueryShape::DynamicEq, 6) {
        let exact = cat.query_with(&q, &with(MatchStrategy::Exact)).unwrap();
        let counted = cat.query_with(&q, &with(MatchStrategy::Counted)).unwrap();
        let flat = cat.query_flat(&q).unwrap();
        assert_eq!(exact, counted);
        assert_eq!(exact, flat);
    }
    // Single-level nesting: Exact and Counted agree (divergence needs
    // two+ levels with split partial matches).
    for q in qg.batch(QueryShape::Nested(1), 6) {
        let exact = cat.query_with(&q, &with(MatchStrategy::Exact)).unwrap();
        let counted = cat.query_with(&q, &with(MatchStrategy::Counted)).unwrap();
        assert_eq!(exact, counted);
    }
}

#[test]
fn deletion_keeps_catalog_consistent() {
    let cfg = WorkloadConfig::default();
    let generator = DocGenerator::new(cfg);
    let cat = generator.catalog(CatalogConfig::default()).unwrap();
    let ids: Vec<i64> = generator.corpus(10).iter().map(|d| cat.ingest(d).unwrap()).collect();
    // Delete every other object.
    for &id in ids.iter().step_by(2) {
        cat.delete_object(id).unwrap();
    }
    let mut qg = QueryGenerator::new(&generator, 13);
    for q in qg.batch(QueryShape::DynamicRange(90), 5) {
        for hit in cat.query(&q).unwrap() {
            assert!(
                ids.iter().position(|&i| i == hit).map(|p| p % 2 == 1).unwrap_or(false),
                "deleted object {hit} still matched"
            );
        }
    }
    // Remaining objects still reconstruct.
    let remaining: Vec<i64> = ids.iter().copied().skip(1).step_by(2).collect();
    let docs = cat.fetch_documents(&remaining).unwrap();
    assert_eq!(docs.len(), remaining.len());
    assert!(docs.iter().all(|(_, d)| !d.is_empty()));
}

#[test]
fn service_restart_recovers_acked_ingests_from_wal() {
    use mylead::catalog::lead::{lead_partition, register_arps_defs, FIG3_DOCUMENT};
    use mylead::service::{CatalogClient, CatalogServer};
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("mylead-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // First server generation: durable catalog, ingest over the wire,
    // no checkpoint — then kill the server.
    let cat = mylead::catalog::catalog::MetadataCatalog::open(
        &dir,
        lead_partition(),
        CatalogConfig::default(),
    )
    .unwrap();
    register_arps_defs(&cat).unwrap();
    let mut server = CatalogServer::start(Arc::new(cat), "127.0.0.1:0").unwrap();
    let mut client = CatalogClient::connect(server.addr()).unwrap();
    let mut ids = Vec::new();
    for _ in 0..6 {
        ids.push(client.ingest(FIG3_DOCUMENT).unwrap());
    }
    client.quit().unwrap();
    // Graceful stop drains and checkpoints: the WAL is compacted into
    // the snapshot before the process goes away.
    server.stop();
    drop(server);

    // A crashed writer generation: ingest one more document straight
    // into the store and vanish without a checkpoint, leaving the
    // commit only in the WAL tail.
    let cat = mylead::catalog::catalog::MetadataCatalog::open(
        &dir,
        lead_partition(),
        CatalogConfig::default(),
    )
    .unwrap();
    ids.push(cat.ingest(FIG3_DOCUMENT).unwrap());
    drop(cat);

    // Second server generation on the same directory: everything acked
    // before the stop must come back — the gracefully stopped server's
    // writes from its drain checkpoint, the crashed writer's from WAL
    // replay.
    let cat = mylead::catalog::catalog::MetadataCatalog::open(
        &dir,
        lead_partition(),
        CatalogConfig::default(),
    )
    .unwrap();
    let server = CatalogServer::start(Arc::new(cat), "127.0.0.1:0").unwrap();
    let mut client = CatalogClient::connect(server.addr()).unwrap();
    let stats = client.stats().unwrap();
    let recovered = stats
        .iter()
        .find(|(k, _)| k == "wal.recovered_records")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert!(recovered > 0, "STATS must report WAL records replayed, got {stats:?}");
    assert_eq!(client.query("grid@ARPS[dx=1000]").unwrap(), ids);
    let envelope = client.fetch(&ids).unwrap();
    assert_eq!(envelope.matches("<LEADresource>").count(), ids.len());
    // New writes keep flowing through the recovered log, and an
    // explicit CHECKPOINT compacts it.
    let id7 = client.ingest(FIG3_DOCUMENT).unwrap();
    assert_eq!(id7, ids[ids.len() - 1] + 1);
    let lsn = client.checkpoint().unwrap();
    assert!(lsn > 0, "checkpoint must cover the committed log");
    client.quit().unwrap();
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn envelope_of_generated_corpus_parses() {
    let generator = DocGenerator::new(WorkloadConfig::default());
    let cat = generator.catalog(CatalogConfig::default()).unwrap();
    for d in generator.corpus(8) {
        cat.ingest(&d).unwrap();
    }
    let mut qg = QueryGenerator::new(&generator, 3);
    let env = cat.search_envelope(&qg.generate(QueryShape::DynamicRange(80))).unwrap();
    let doc = mylead::xmlkit::Document::parse(&env).unwrap();
    assert_eq!(doc.node(doc.root()).name(), Some("results"));
}
