//! The traced run's per-layer numbers. Each is timed from here, around
//! a call into one layer's public API, on the workload's own catalog
//! after its client phase; counters come from `STATS` deltas.

use crate::drive::{connect, open_loop, Tally};
use crate::dsl::render;
use crate::host::{set_affinity, CpuMask};
use crate::queries::{QueryGen, Shape, SHAPES};
use crate::stats::Samples;
use crate::workloads::{distinct_ids, Prepared, Workload, FETCH_SIZES, INGEST_RATE};
use catalog::catalog::MetadataCatalog;
use catalog::qparse::parse_query;
use catalog::query::ObjectQuery;
use rand::rngs::StdRng;
use rand::SeedableRng;
use service::client::CatalogClient;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use workload::DocGenerator;

/// Samples per timed layer call site.
const REPS: usize = 300;
/// How long the visibility-gate probe reads, with and without a writer,
/// and at what rate.
const GATE_PROBE: Duration = Duration::from_secs(1);
const GATE_READ_RATE: f64 = 5000.0;

/// A metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// What the probes measured.
pub struct Layers {
    pub metrics: Vec<Metric>,
    /// Reconciliation rows, one line each, for the report.
    pub rows: Vec<String>,
    /// Objects the probes added to the catalog.
    pub written: usize,
}

/// Inputs of the probes.
pub struct Probe<'a> {
    pub workload: Workload,
    pub cat: &'a MetadataCatalog,
    pub addr: SocketAddr,
    pub gen: &'a DocGenerator,
    pub queries: &'a mut QueryGen,
    /// The `query-mix` pool, prepared on this catalog.
    pub pool: &'a [Prepared],
    /// The dyn-eq queries the `ingest-read` reader sends.
    pub readers: &'a [Prepared],
    /// `SEARCH`es of the client phase, with the ids they returned.
    pub searches: &'a [(ObjectQuery, Vec<i64>, Option<String>)],
    /// Objects `1..=objects` exist.
    pub objects: i64,
    /// Documents from this index on were never ingested.
    pub next_doc: usize,
    pub seed: u64,
    /// The client phase.
    pub tally: &'a Tally,
    pub plan_hit_ratio: f64,
    /// The CPU mask before the client phase was pinned, if it was.
    pub unpinned: Option<&'a CpuMask>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let t = Instant::now();
    let out = black_box(f());
    (t.elapsed(), out)
}

/// `STATS` as a map.
pub fn stats(client: &mut CatalogClient) -> Result<HashMap<String, u64>, String> {
    Ok(client.stats().map_err(|e| format!("STATS: {e}"))?.into_iter().collect())
}

/// `after - before` for counter `name` (missing counts as 0).
pub fn delta(before: &HashMap<String, u64>, after: &HashMap<String, u64>, name: &str) -> u64 {
    after
        .get(name)
        .copied()
        .unwrap_or(0)
        .saturating_sub(before.get(name).copied().unwrap_or(0))
}

fn parse_samples(texts: &[String]) -> Samples {
    let mut s = Samples::default();
    while s.len() < 10 * REPS {
        for t in texts {
            let (d, q) = timed(|| parse_query(t));
            q.expect("benchmark queries parse");
            s.push(d);
        }
    }
    s
}

impl Probe<'_> {
    /// Time one in-process `MetadataCatalog::query`; returns the time
    /// and the hit count.
    fn query(&self, q: &ObjectQuery) -> Result<(Duration, usize), String> {
        let (d, r) = timed(|| self.cat.query(q));
        Ok((d, r.map_err(|e| e.to_string())?.len()))
    }

    /// Run every probe.
    pub fn run(self) -> Result<Layers, String> {
        let mut m: Vec<Metric> = Vec::new();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x1A7E);
        let mut client = connect(self.addr).map_err(|e| e.to_string())?;

        // service: the PING round trip.
        let mut ping = Samples::default();
        for i in 0..10 * REPS {
            let (d, r) = timed(|| client.ping());
            r.map_err(|e| format!("PING: {e}"))?;
            if i >= REPS {
                ping.push(d);
            }
        }
        let ping_us = ping.median_us();

        // qparse, over the texts of each request class this workload sends.
        let mut texts: BTreeMap<&str, Vec<String>> = BTreeMap::new();
        match self.workload {
            Workload::QueryMix => {
                for p in self.pool {
                    texts.entry(p.shape.label()).or_default().push(p.text.clone());
                }
            }
            Workload::SearchFetch => {
                let search =
                    (0..REPS).map(|_| render(&self.queries.fresh_search()).expect("renders"));
                texts.insert("search", search.collect());
            }
            Workload::IngestRead => {
                texts.insert(
                    Shape::DynEq.label(),
                    self.readers.iter().map(|p| p.text.clone()).collect(),
                );
            }
        }
        let mut parse: HashMap<&str, Samples> = HashMap::new();
        let mut all_parse = Samples::default();
        for (label, t) in &texts {
            let s = parse_samples(t);
            all_parse.extend(&s);
            parse.insert(label, s);
        }

        // Plan cache: a new text (plan build) versus the same text again.
        let mut miss = Samples::default();
        let mut hit = Samples::default();
        for _ in 0..REPS {
            let q = self.queries.fresh_search();
            miss.push(self.query(&q)?.0);
            hit.push(self.query(&q)?.0);
        }

        // Match, per pool class (plans cached by a first pass).
        let mut by_shape: HashMap<&str, Samples> = HashMap::new();
        for p in self.pool {
            self.query(&p.query)?;
        }
        for _ in 0..REPS / 10 {
            for p in self.pool {
                by_shape.entry(p.shape.name()).or_default().push(self.query(&p.query)?.0);
            }
        }
        let (mut rows, mut hits) = (0u64, 0u64);
        for p in self.pool {
            let plan = self.cat.explain_analyze(&p.query).map_err(|e| e.to_string())?;
            rows += explained_rows(&plan);
            hits += self.query(&p.query)?.1 as u64;
        }

        // Response building: documents for 1, 10 and 100 objects.
        let mut fetch: HashMap<usize, Samples> = HashMap::new();
        let (mut doc_bytes, mut docs) = (0usize, 0usize);
        for _ in 0..REPS / 2 {
            for n in FETCH_SIZES {
                let ids = distinct_ids(&mut rng, n, self.objects);
                let (d, r) = timed(|| self.cat.fetch_documents(&ids));
                let r = r.map_err(|e| e.to_string())?;
                docs += r.len();
                doc_bytes += r.iter().map(|(_, x)| x.len()).sum::<usize>();
                fetch.entry(n).or_default().push(d);
            }
        }
        let mut envelope = Samples::default();
        for (_, ids, _) in self.searches.iter().take(REPS) {
            let (d, r) = timed(|| catalog::response::build_response_envelope(self.cat.db(), ids));
            r.map_err(|e| e.to_string())?;
            envelope.push(d);
        }

        // Shred, then apply on the durable catalog with WAL counters.
        let mut shred = Samples::default();
        let mut shredded = Vec::with_capacity(REPS);
        for k in 0..REPS {
            let xml = self.gen.generate(self.next_doc + k);
            let (d, r) = timed(|| self.cat.shred_only(&xml));
            shred.push(d);
            shredded.push(r.map_err(|e| e.to_string())?);
        }
        let before = stats(&mut client)?;
        let mut apply = Samples::default();
        for s in &shredded {
            let (d, r) = timed(|| self.cat.apply(s, None, None));
            r.map_err(|e| e.to_string())?;
            apply.push(d);
        }
        let after = stats(&mut client)?;
        let per_ingest = |name: &str| delta(&before, &after, name) as f64 / REPS as f64;
        let mut written = REPS;

        // Visibility gate: open-loop dyn-eq reads alone, then beside an
        // open-loop writer ingesting at the `ingest-read` rate, on every
        // CPU the process may use.
        if let Some(mask) = self.unpinned {
            set_affinity(mask)?;
        }
        let dyn_eq: Vec<&Prepared> = self.pool.iter().filter(|p| p.shape == Shape::DynEq).collect();
        let reads = |start: Instant| {
            let tally = open_loop(start, start + GATE_PROBE, GATE_READ_RATE, |i, clock, t| {
                t.record("read", clock, &self.cat.query(&dyn_eq[i % dyn_eq.len()].query));
            });
            let op = &tally.ops["read"];
            (op.failed == 0).then(|| op.lat.clone()).ok_or("gate probe read failed")
        };
        let idle = reads(Instant::now())?;
        let new_docs: Vec<String> = (0..(INGEST_RATE * GATE_PROBE.as_secs_f64()) as usize)
            .map(|k| self.gen.generate(self.next_doc + REPS + k))
            .collect();
        let start = Instant::now();
        let (busy, writes) = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                open_loop(start, start + GATE_PROBE, INGEST_RATE, |i, clock, t| {
                    t.record("ingest", clock, &self.cat.ingest(&new_docs[i]));
                })
            });
            (reads(start), writer.join().expect("gate probe writer panicked"))
        });
        let busy = busy?;
        let ingest = &writes.ops["ingest"];
        if ingest.failed > 0 {
            return Err("gate probe ingest failed".into());
        }
        written += ingest.attempted as usize;

        // Reconcile each request class of the client phase: the layer
        // medians on its path plus an unattributed rest make up the
        // client-observed median.
        let mut unattributed = Vec::new();
        let mut rows_out = Vec::new();
        for (label, op) in &self.tally.ops {
            let layers: Vec<(&str, f64)> = match *label {
                "search" => vec![
                    ("qparse.parse", parse[label].median_us()),
                    ("catalog.plan_miss", miss.median_us()),
                    ("response.envelope", envelope.median_us()),
                ],
                "ingest" => vec![("shred", shred.median_us()), ("store.apply", apply.median_us())],
                _ => match label.split_once('/') {
                    Some(("query", shape)) => vec![
                        ("qparse.parse", parse[label].median_us()),
                        ("match", by_shape[shape].median_us()),
                    ],
                    Some(("fetch", n)) => {
                        let n: usize = n.parse().expect("fetch labels carry the id count");
                        vec![("response.fetch", fetch[&n].median_us())]
                    }
                    _ => return Err(format!("no layer path for {label}")),
                },
            };
            let client = op.lat.median_us();
            let rest = client - ping_us - layers.iter().map(|(_, v)| v).sum::<f64>();
            let parts: Vec<String> = layers.iter().map(|(n, v)| format!(" + {n} {v:.2}")).collect();
            rows_out.push(format!(
                "reconcile {label}: client p50 {client:.2} us = service.ping_rtt {ping_us:.2}{} \
                 + unattributed {rest:.2}",
                parts.concat()
            ));
            unattributed.push(rest);
        }
        let unattributed = unattributed.iter().sum::<f64>() / unattributed.len().max(1) as f64;
        rows_out.push(format!(
            "gate probe: dyn-eq reads alone p99 {:.2} us n={}, beside {} ingests p99 {:.2} us n={}",
            idle.pct_us(99),
            idle.len(),
            ingest.attempted,
            busy.pct_us(99),
            busy.len()
        ));

        let mut put =
            |name: &str, value: f64, unit: &'static str| m.push((name.to_string(), value, unit));
        put("service.ping_rtt_us", ping_us, "us");
        put("service.unattributed_us", unattributed, "us");
        put("qparse.parse_us", all_parse.median_us(), "us");
        put("catalog.plan_cache.hit_ratio", self.plan_hit_ratio, "ratio");
        put("catalog.plan_miss_us", miss.median_us(), "us");
        put("catalog.plan_hit_us", hit.median_us(), "us");
        for shape in SHAPES {
            put(&format!("match.{}_us", shape.name()), by_shape[shape.name()].median_us(), "us");
        }
        put("match.rows_per_hit", rows as f64 / hits.max(1) as f64, "rows");
        for n in FETCH_SIZES {
            put(&format!("response.fetch_{n}_us"), fetch[&n].median_us(), "us");
        }
        put("response.bytes_per_doc", doc_bytes as f64 / docs.max(1) as f64, "B");
        put("shred.us", shred.median_us(), "us");
        put("store.apply_us", apply.median_us(), "us");
        put("wal.fsyncs_per_ingest", per_ingest("wal.fsyncs"), "count");
        put("wal.appends_per_ingest", per_ingest("wal.appends"), "count");
        put("wal.bytes_per_ingest", per_ingest("wal.bytes"), "B");
        put("gate.read_stall_us", busy.pct_us(99) - idle.pct_us(99), "us");
        put("generator.late_ms", self.tally.late.as_secs_f64() * 1e3, "ms");
        Ok(Layers { metrics: m, rows: rows_out, written })
    }
}

/// Sum of the `rows=<n>` annotations of an `EXPLAIN ANALYZE` tree.
fn explained_rows(plan: &str) -> u64 {
    plan.split("rows=")
        .skip(1)
        .filter_map(|s| s.split(|c: char| !c.is_ascii_digit()).next()?.parse::<u64>().ok())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explained_rows_sums_every_operator() {
        let plan = "HashSemiJoin (rows=3 time=1us)\n  Scan a (rows=40 time=1us)\n  Scan b (rows=7 time=1us)\n";
        assert_eq!(explained_rows(plan), 50);
    }
}
