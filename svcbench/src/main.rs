//! End-to-end benchmark of the catalog TCP service.
//!
//! ```text
//! cargo run --release --manifest-path svcbench/Cargo.toml -- \
//!     --workload <query-mix|search-fetch|ingest-read> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run preloads the seeded 2000-document corpus through the catalog
//! API into a durable catalog in a fresh directory under
//! `.svcbench_tmp/`, checkpoints it and reopens it with
//! `MetadataCatalog::open` (fsync on every commit); that set-up is timed
//! as `setup_s`, the median of five. It serves the catalog with `CatalogServer`
//! on loopback with the default `ServerConfig`, and drives it with
//! `CatalogClient`s for `--seconds`, in half-second rounds between which
//! it times a fixed reference kernel to normalize latencies to the host's
//! speed (see `host.rs`). It prints a table of the metrics and, as its
//! last line, one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Any failed
//! request or correctness check makes it exit with status 1.

mod drive;
mod dsl;
mod host;
mod layers;
mod queries;
mod stats;
mod workloads;

use catalog::catalog::{CatalogConfig, MetadataCatalog};
use catalog::lead::lead_partition;
use drive::Op;
use host::HostClock;
use layers::{delta, stats, Metric, Probe};
use minidb::wal::WAL_FILE;
use minidb::{StdVfs, SyncPolicy, WalOptions};
use queries::{QueryGen, Shape, SHAPES};
use service::server::CatalogServer;
use stats::{geomean, median, Samples};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{DocGenerator, WorkloadConfig};
use workloads::{prepare, Workload, POOL_PER_SHAPE};

/// Documents preloaded before every run.
const PRELOAD_DOCS: usize = 2000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Distinct dyn-eq queries the `ingest-read` reader cycles through.
const READER_QUERIES: usize = 64;
/// Traced probes ingest documents from this index on, far past any
/// the workloads use.
const PROBE_DOCS_FROM: usize = 1_000_000;
/// How long `ingest-read`, whose open-loop schedule cannot pause, times
/// the host reference kernel before and after its client phase.
const HOST_BLOCK: Duration = Duration::from_secs(1);
/// Counters that must not move: the service shed or refused work.
const SHED_COUNTERS: [&str; 4] = [
    "service.shed.queue_wait",
    "service.shed.priority",
    "service.shed.draining",
    "service.pool.rejected",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(at + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let number = |flag: &str, v: String| v.parse::<u64>().map_err(|_| format!("bad {flag} {v:?}"));
    Ok(Args {
        workload: Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: number("--seed", get("--seed")?)?,
        seconds: number("--seconds", get("--seconds")?)?.max(1),
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other:?}")),
        },
    })
}

/// A directory removed, with everything in it, when dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svcbench: {e}");
            eprintln!(
                "usage: svcbench --workload <query-mix|search-fetch|ingest-read> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("svcbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Open a durable catalog in `dir`, preload `corpus` through the catalog
/// API with group commit, checkpoint it, and reopen the directory with
/// the default fsync-per-commit policy. Returns the reopened catalog, the
/// seconds all that took, and the WAL bytes the preload wrote. Group
/// commit keeps 2000 fsyncs of a shared disk out of `setup_s`.
fn setup(
    gen: &DocGenerator,
    corpus: &[String],
    dir: &Path,
) -> Result<(MetadataCatalog, f64, u64), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let t = Instant::now();
    let vfs = Arc::new(StdVfs::new(dir).map_err(|e| format!("open: {e}"))?);
    let batched = WalOptions { sync: SyncPolicy::Batched(corpus.len() as u32) };
    let cat = MetadataCatalog::open_with(vfs, batched, lead_partition(), CatalogConfig::default())
        .map_err(|e| format!("open: {e}"))?;
    gen.register_defs(&cat).map_err(|e| format!("register: {e}"))?;
    for (i, xml) in corpus.iter().enumerate() {
        let id = cat.ingest(xml).map_err(|e| format!("preload document {i}: {e}"))?;
        if id != i as i64 + 1 {
            return Err(format!("preload document {i} got object id {id}"));
        }
    }
    let wal_bytes = wal_len(dir)?;
    cat.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    drop(cat);
    let cat = MetadataCatalog::open(dir, lead_partition(), CatalogConfig::default())
        .map_err(|e| format!("reopen: {e}"))?;
    Ok((cat, t.elapsed().as_secs_f64(), wal_bytes))
}

fn wal_len(dir: &Path) -> Result<u64, String> {
    Ok(std::fs::metadata(dir.join(WAL_FILE)).map_err(|e| e.to_string())?.len())
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let seconds = Duration::from_secs(args.seconds);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "svcbench workload={} seed={} seconds={} trace={} nproc={nproc}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let tmp =
        TempDir(Path::new(".svcbench_tmp").join(format!("{}-{}", w.name(), std::process::id())));
    let gen = DocGenerator::new(WorkloadConfig { seed: args.seed, ..Default::default() });
    let corpus = gen.corpus(PRELOAD_DOCS);
    let corpus_bytes: usize = corpus.iter().map(String::len).sum();
    let mut failures: Vec<String> = Vec::new();

    // Set up SETUPS times from scratch; measure on the last catalog.
    // Earlier set-ups' directories stay until the run ends: deleting
    // them would make later fsyncs pay for the freed blocks (the file
    // system may discard them at its next journal commit).
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut last = None;
    for i in 0..SETUPS {
        drop(last.take());
        let dir = tmp.0.join(format!("catalog-{i}"));
        let (cat, secs, wal_bytes) = setup(&gen, &corpus, &dir)?;
        setup_s.push(secs);
        last = Some((cat, dir, wal_bytes));
    }
    let (cat, dir, preload_wal_bytes) = last.expect("at least one set-up");
    // Serving starts from the live heap only: what the set-ups freed is
    // handed back, so `peak_rss_mb` does not depend on how the allocator
    // happened to reuse it. The set-ups' own peak is in the table.
    let setup_rss = host::rss_mb("VmHWM")?;
    host::trim_heap();
    let cat = Arc::new(cat);
    let objects = PRELOAD_DOCS as i64;

    // search-fetch keeps one request in flight: pin it, server included,
    // to one CPU (see host::pin_to_one_cpu). The threads the server
    // starts now inherit the pin.
    let mut notes = Vec::new();
    let unpinned = if w == Workload::SearchFetch {
        match host::pin_to_one_cpu() {
            Ok((cpu, before)) => {
                notes.push(format!("client and server pinned to CPU {cpu}"));
                Some(before)
            }
            Err(e) => {
                notes.push(format!("not pinned: {e}"));
                None
            }
        }
    } else {
        None
    };
    let mut server = CatalogServer::start(cat.clone(), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = server.addr();
    let mut queries = QueryGen::new(&corpus, gen.config().value_cardinality, args.seed ^ 0x5EED);
    let pool = if w == Workload::QueryMix || args.trace {
        let pool = SHAPES
            .into_iter()
            .flat_map(|s| queries.distinct(s, POOL_PER_SHAPE).into_iter().map(move |q| (s, q)));
        prepare(&cat, pool.collect())?
    } else {
        Vec::new()
    };
    let readers = if w == Workload::IngestRead {
        let qs = queries.distinct(Shape::DynEq, READER_QUERIES);
        prepare(&cat, qs.into_iter().map(|q| (Shape::DynEq, q)).collect())?
    } else {
        Vec::new()
    };
    // Every class is non-empty by construction; a query without hits
    // means the generator or the match path is wrong.
    for p in pool.iter().chain(&readers) {
        if p.hits.is_empty() {
            failures.push(format!("{} query {} has no hits", p.shape.name(), p.text));
        }
    }

    // The client phase.
    let mut control = drive::connect(addr).map_err(|e| e.to_string())?;
    let before = stats(&mut control)?;
    // Closed-loop workloads time the host between their rounds;
    // ingest-read's open loop cannot pause, so it does so around them.
    let mut host = HostClock::default();
    let open_loop = w == Workload::IngestRead;
    if open_loop {
        host.pause_for(HOST_BLOCK);
    }
    let paused = host.spent;
    let start = Instant::now();
    let (tally, mut extra) = match w {
        Workload::QueryMix => workloads::query_mix(addr, &pool, seconds, &mut host),
        Workload::SearchFetch => {
            workloads::search_fetch(addr, &mut queries, objects, args.seed, seconds, &mut host)
        }
        Workload::IngestRead => workloads::ingest_read(addr, &gen, PRELOAD_DOCS, &readers, seconds),
    }
    .map_err(|e| format!("client: {e}"))?;
    // Requests were sent for `elapsed`, the kernel pauses left out.
    let elapsed = tally
        .last_reply
        .map_or(seconds, |t| t - start)
        .saturating_sub(host.spent - paused);
    if open_loop {
        host.pause_for(HOST_BLOCK);
    }
    let after = stats(&mut control)?;
    let wal_bytes = preload_wal_bytes + wal_len(&dir)?;
    let rss = host.rss_peak_mb.max(host::rss_mb("VmRSS")?);

    extra.verify(&cat)?;
    let (attempted, failed) = tally.totals();
    if failed > 0 {
        failures.push(format!("{failed} of {attempted} requests failed"));
    }
    if tally.wrong > 0 || !extra.wrong.is_empty() {
        failures.push(format!("{} wrong replies", tally.wrong as usize + extra.wrong.len()));
    }
    failures.extend(tally.notes.iter().cloned());
    failures.extend(extra.wrong.iter().take(8).cloned());
    for name in SHED_COUNTERS {
        let d = delta(&before, &after, name);
        if d > 0 {
            failures.push(format!("{name} rose by {d}"));
        }
    }
    let hits = delta(&before, &after, "catalog.plan_cache.hit");
    let misses = delta(&before, &after, "catalog.plan_cache.miss");
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;

    let traced = if args.trace {
        let probe = Probe {
            workload: w,
            cat: &cat,
            addr,
            gen: &gen,
            queries: &mut queries,
            pool: &pool,
            readers: &readers,
            searches: &extra.searches,
            objects,
            next_doc: PROBE_DOCS_FROM,
            seed: args.seed,
            tally: &tally,
            plan_hit_ratio: hit_ratio,
            unpinned: unpinned.as_ref(),
        };
        Some(probe.run()?)
    } else {
        None
    };

    // Acked implies durable: stop (drain + checkpoint), reopen, count.
    drop(control);
    server.stop();
    drop(server);
    drop(cat);
    let written = traced.as_ref().map_or(0, |t| t.written);
    let reopened = MetadataCatalog::open(&dir, lead_partition(), CatalogConfig::default())
        .map_err(|e| format!("reopen: {e}"))?;
    let want = PRELOAD_DOCS + extra.acked + written;
    let have = reopened.stats().objects;
    if have != want {
        failures.push(format!("reopened catalog holds {have} objects, expected {want}"));
    }
    drop(reopened);

    // Report.
    let ops_s = (attempted - failed) as f64 / elapsed.as_secs_f64();
    let wal_per_user = wal_bytes as f64 / (corpus_bytes + extra.acked_bytes) as f64;
    println!("{:<32} {:>12} {:<6} note", "metric", "value", "unit");
    let line = |name: &str, value: f64, unit: &str, note: String| {
        println!("{name:<32} {value:>12.3} {unit:<6} {note}");
    };
    line("setup_s", median(&setup_s), "s", format!("median of {SETUPS} set-ups {setup_s:.3?}"));
    line("peak_rss_mb", rss, "MiB", "largest resident set seen while serving".into());
    line("setup_rss_mb", setup_rss, "MiB", "peak resident set of the set-ups".into());
    line(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        format!("{failed} of {attempted}"),
    );
    // Per operation (the request label up to '/'), then per request class.
    let mut by_op: BTreeMap<&str, Op> = BTreeMap::new();
    for (label, op) in &tally.ops {
        let mine = by_op.entry(label.split('/').next().unwrap_or(label)).or_default();
        mine.attempted += op.attempted;
        mine.failed += op.failed;
        mine.lat.extend(&op.lat);
    }
    let classes = tally.ops.iter().filter(|(label, _)| label.contains('/'));
    for (name, op) in by_op.iter().chain(classes) {
        let (tail, pct) = op.lat.tail_us();
        let n = op.lat.len();
        let counts = format!(
            "attempted {} succeeded {} failed {}",
            op.attempted,
            op.attempted - op.failed,
            op.failed
        );
        line(&format!("{name}_p50_us"), op.lat.median_us(), "us", format!("n={n} {counts}"));
        line(&format!("{name}_p99_us"), tail, "us", format!("p{pct} n={n}"));
    }
    // The gated latency weighs every request class equally, and is
    // normalized to the host's speed during the run (see host.rs).
    let p50s: Vec<f64> = tally.ops.values().map(|op| op.lat.median_us()).collect();
    let p50_geomean = geomean(&p50s);
    line("p50_geomean_us", p50_geomean, "us", format!("geomean of {} class p50s", p50s.len()));
    // Closed-loop rounds are normalized one by one; an open loop as a whole.
    let p50_geomean_norm = if tally.norm.is_empty() {
        host.normalize(p50_geomean)
    } else {
        geomean(&tally.norm.values().map(Samples::median_us).collect::<Vec<_>>())
    };
    line("p50_geomean_norm_us", p50_geomean_norm, "us", "host-normalized".into());
    line(
        "host.reference_us",
        host.median_us(),
        "us",
        format!("median of {} reference-kernel runs {}", host.len(), notes.join("; ")),
    );
    if w == Workload::QueryMix {
        line("query_ops_s", ops_s, "1/s", format!("over {:.3} s", elapsed.as_secs_f64()));
    }
    line("wal_bytes_per_user_byte", wal_per_user, "ratio", format!("{wal_bytes} WAL bytes"));
    line(
        "catalog.plan_cache.hit_ratio",
        hit_ratio,
        "ratio",
        format!("{hits} hits, {misses} misses"),
    );

    let metrics: Vec<Metric> = match &traced {
        Some(t) => {
            for row in &t.rows {
                println!("{row}");
            }
            t.metrics.clone()
        }
        None => vec![
            ("setup_s".to_string(), median(&setup_s), "s"),
            ("peak_rss_mb".to_string(), rss, "MiB"),
            ("wal_bytes_per_user_byte".to_string(), wal_per_user, "ratio"),
            ("p50_geomean_norm_us".to_string(), p50_geomean_norm, "us"),
        ],
    };
    println!("{}", if args.trace { "per-layer metrics" } else { "end-to-end metrics" });
    for (name, value, unit) in &metrics {
        line(name, *value, unit, String::new());
    }
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            failures.push(format!("{name} is not a number"));
        }
    }
    for f in &failures {
        eprintln!("svcbench: check failed: {f}");
    }
    let correct = failures.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}
