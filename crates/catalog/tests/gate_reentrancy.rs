//! Gate re-entrancy under a writer storm.
//!
//! The commit-visibility gate is a writer-preferring `RwLock`: a thread
//! that takes the shared gate while it already holds it queues behind
//! any waiting writer, and that writer waits for the first hold — a
//! deadlock that only shows under write load. Here one thread commits
//! ingests back to back, so a writer is nearly always queued, while one
//! reader thread per read path loops over every path that holds the
//! gate across several steps. A watchdog fails the test (instead of
//! letting it hang) as soon as any thread makes no progress for 5 s.
//!
//! The documents ingested and the objects read are drawn from one seed
//! (`STRESS_SEED` env var overrides; the seed is printed and embedded
//! in every failure message).

use catalog::lead::{lead_partition, register_arps_defs};
use catalog::prelude::*;
use minidb::{MemVfs, Plan, Value, WalOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the storm runs.
const RUN: Duration = Duration::from_secs(3);
/// A thread without progress for this long is treated as deadlocked.
const STALL: Duration = Duration::from_secs(5);
/// Objects ingested before the storm, so every read path has data.
const PRELOAD: i64 = 20;

const READ_PATHS: [&str; 6] =
    ["stats", "approx_bytes", "fetch_documents", "explain_analyze", "sql_select", "read_txn"];

fn seed_from_env() -> u64 {
    std::env::var("STRESS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x6A7E)
}

fn doc(rng: &mut StdRng) -> String {
    let dx = [1000, 2000, 3000][rng.gen_range(0..3usize)];
    format!(
        "<LEADresource><resourceID>storm</resourceID><data>\
         <idinfo><keywords><theme><themekt>CF</themekt><themekey>rain</themekey></theme>\
         </keywords></idinfo><geospatial><eainfo><detailed>\
         <enttyp><enttypl>grid</enttypl><enttypds>ARPS</enttypds></enttyp>\
         <attr><attrlabl>dx</attrlabl><attrdefs>ARPS</attrdefs><attrv>{dx}</attrv></attr>\
         </detailed></eainfo></geospatial></data></LEADresource>"
    )
}

/// One pass over read path `k`; panics on a wrong answer.
fn read_once(cat: &MetadataCatalog, k: usize, rng: &mut StdRng, seed: u64) {
    let id = rng.gen_range(1..=PRELOAD);
    match READ_PATHS[k] {
        "stats" => {
            let s = cat.stats();
            assert!(s.objects as i64 >= PRELOAD, "seed {seed}: stats lost objects");
            assert!(s.clob_bytes > 0 && s.table_count > 0, "seed {seed}: empty stats");
        }
        "approx_bytes" => assert!(cat.approx_bytes() > 0, "seed {seed}: zero footprint"),
        "fetch_documents" => {
            let docs = cat.fetch_documents(&[id]).unwrap();
            assert!(docs[0].1.contains("<LEADresource>"), "seed {seed}: object {id} not rebuilt");
        }
        "explain_analyze" => {
            let q = parse_query("grid@ARPS[dx=1000]").unwrap();
            assert!(cat.explain_analyze(&q).unwrap().contains("rows="), "seed {seed}");
        }
        "sql_select" => {
            let rs = cat
                .db()
                .execute_sql(&format!("SELECT COUNT(*) FROM attrs WHERE object_id = {id}"))
                .unwrap();
            assert!(rs.rows[0][0].as_i64().unwrap() > 0, "seed {seed}: object {id} has no attrs");
        }
        "read_txn" => {
            // Several plans plus row counts, names and CLOB bytes under
            // one read transaction: all must describe one state.
            let rt = cat.db().begin_read();
            let objects = rt.row_count("objects").unwrap();
            let scanned =
                rt.execute(&Plan::Scan { table: "objects".into(), filter: None }).unwrap();
            assert_eq!(scanned.rows.len(), objects, "seed {seed}: torn read");
            assert!(rt.table_names().iter().any(|t| t == "clobs"), "seed {seed}");
            let clobs = rt
                .execute(&Plan::IndexLookup {
                    table: "clobs".into(),
                    index: "clobs_by_obj".into(),
                    key: vec![Value::Int(id)],
                    filter: None,
                })
                .unwrap();
            let loc = clobs.rows[0][4].as_i64().unwrap();
            assert!(!rt.clob_str(loc as u64).unwrap().is_empty(), "seed {seed}: empty CLOB");
            assert!(rt.clob_bytes() > 0, "seed {seed}");
        }
        other => unreachable!("unknown read path {other}"),
    }
}

#[test]
fn read_paths_progress_under_writer_storm() {
    let seed = seed_from_env();
    eprintln!("gate re-entrancy seed = {seed} (set STRESS_SEED to replay)");
    let cat = Arc::new(
        MetadataCatalog::open_with(
            Arc::new(MemVfs::new()),
            WalOptions::default(),
            lead_partition(),
            CatalogConfig::default(),
        )
        .unwrap(),
    );
    register_arps_defs(&cat).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..PRELOAD {
        cat.ingest(&doc(&mut rng)).unwrap();
    }

    // Thread k is reader k and counts into progress[k]; the last
    // thread is the writer.
    let progress: Arc<Vec<AtomicU64>> =
        Arc::new((0..=READ_PATHS.len()).map(|_| AtomicU64::new(0)).collect());
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();
    for k in 0..=READ_PATHS.len() {
        let (cat, progress, stop) = (cat.clone(), progress.clone(), stop.clone());
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(k as u64 + 1));
        threads.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if k < READ_PATHS.len() {
                    read_once(&cat, k, &mut rng, seed);
                } else {
                    cat.ingest(&doc(&mut rng)).unwrap();
                }
                progress[k].fetch_add(1, Ordering::Relaxed);
            }
        }));
    }

    let name = |k: usize| READ_PATHS.get(k).copied().unwrap_or("writer");
    let started = Instant::now();
    let mut last: Vec<(u64, Instant)> = (0..progress.len()).map(|_| (0, started)).collect();
    while started.elapsed() < RUN {
        std::thread::sleep(Duration::from_millis(50));
        for (k, (seen, at)) in last.iter_mut().enumerate() {
            let now = progress[k].load(Ordering::Relaxed);
            if now != *seen {
                *seen = now;
                *at = Instant::now();
            }
            assert!(
                at.elapsed() < STALL,
                "seed {seed}: {} made no progress for {STALL:?} (gate deadlock?)",
                name(k)
            );
        }
    }
    stop.store(true, Ordering::Relaxed);
    // A deadlocked thread never finishes: bound the join instead of
    // hanging on it.
    let deadline = Instant::now() + STALL;
    while threads.iter().any(|t| !t.is_finished()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stuck: Vec<&str> =
        (0..threads.len()).filter(|&k| !threads[k].is_finished()).map(name).collect();
    assert!(stuck.is_empty(), "seed {seed}: {stuck:?} did not finish (gate deadlock?)");
    for (k, t) in threads.into_iter().enumerate() {
        if t.join().is_err() {
            panic!("seed {seed}: {} panicked", name(k));
        }
    }
    for (k, p) in progress.iter().enumerate() {
        assert!(p.load(Ordering::Relaxed) > 0, "seed {seed}: {} never completed", name(k));
    }
}
