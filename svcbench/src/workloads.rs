//! The three workloads: what the clients send, and the correctness
//! checks on their replies.

use crate::drive::{closed_loop, connect, envelope_ids, in_rounds, open_loop, Tally};
use crate::dsl::render;
use crate::host::HostClock;
use crate::queries::{QueryGen, Shape};
use catalog::catalog::MetadataCatalog;
use catalog::query::ObjectQuery;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use service::client::ClientError;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use workload::DocGenerator;

/// Distinct queries per class in the `query-mix` pool (4 classes, 64
/// queries: inside the catalog's 128-entry plan cache).
pub const POOL_PER_SHAPE: usize = 16;
/// `ingest-read` writer rate, documents per second.
pub const INGEST_RATE: f64 = 200.0;
/// `ingest-read` reader rate, queries per second.
pub const READ_RATE: f64 = 1000.0;
/// `FETCH` id-list sizes `search-fetch` cycles through.
pub const FETCH_SIZES: [usize; 3] = [1, 10, 100];
/// Every `CHECK_EVERY`-th `SEARCH`/`FETCH` envelope, up to `CHECKED`
/// of each, is kept and compared byte for byte with the in-process one.
/// The cap keeps the benchmark's own memory the same however fast the
/// service runs, so `peak_rss_mb` measures the catalog.
const CHECK_EVERY: usize = 25;
const CHECKED: usize = 40;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    QueryMix,
    SearchFetch,
    IngestRead,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "query-mix" => Some(Workload::QueryMix),
            "search-fetch" => Some(Workload::SearchFetch),
            "ingest-read" => Some(Workload::IngestRead),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryMix => "query-mix",
            Workload::SearchFetch => "search-fetch",
            Workload::IngestRead => "ingest-read",
        }
    }
}

/// A query with its DSL text and in-process answer.
pub struct Prepared {
    pub shape: Shape,
    pub query: ObjectQuery,
    pub text: String,
    pub hits: Vec<i64>,
}

/// Render the queries and answer them in process. This runs every query
/// once, so its plan is cached before timing starts.
pub fn prepare(
    cat: &MetadataCatalog,
    pool: Vec<(Shape, ObjectQuery)>,
) -> Result<Vec<Prepared>, String> {
    pool.into_iter()
        .map(|(shape, query)| {
            let text = render(&query).ok_or_else(|| format!("cannot render {query:?}"))?;
            let hits = cat.query(&query).map_err(|e| format!("{text}: {e}"))?;
            Ok(Prepared { shape, query, text, hits })
        })
        .collect()
}

/// `n` distinct ids in `1..=objects`.
pub fn distinct_ids(rng: &mut StdRng, n: usize, objects: i64) -> Vec<i64> {
    let mut ids: Vec<i64> = Vec::with_capacity(n);
    while ids.len() < n {
        let id = rng.gen_range(1..=objects);
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids
}

/// What a workload's client phase produced beyond its tally.
#[derive(Default)]
pub struct Extra {
    /// Each `SEARCH`: the query, the ids of its envelope, and for the
    /// sampled ones the whole envelope.
    pub searches: Vec<(ObjectQuery, Vec<i64>, Option<String>)>,
    /// The sampled `FETCH`es: the ids and the whole envelope.
    pub fetches: Vec<(Vec<i64>, String)>,
    /// Documents the service acknowledged, and their XML bytes.
    pub acked: usize,
    pub acked_bytes: usize,
    /// Replies found wrong.
    pub wrong: Vec<String>,
}

impl Extra {
    /// Check the recorded `SEARCH` and `FETCH` replies against the
    /// in-process answers on the same (unchanged) catalog: every
    /// `SEARCH` envelope must hold exactly the matched ids, and sampled
    /// envelopes must equal the in-process ones byte for byte.
    pub fn verify(&mut self, cat: &MetadataCatalog) -> Result<(), String> {
        for (q, ids, env) in &self.searches {
            let want = cat.query(q).map_err(|e| e.to_string())?;
            if *ids != want {
                self.wrong.push(format!("SEARCH {q:?}: envelope {ids:?}, matches {want:?}"));
            }
            if let Some(env) = env {
                if *env != cat.search_envelope(q).map_err(|e| e.to_string())? {
                    self.wrong.push(format!("SEARCH {q:?}: envelope differs from in-process"));
                }
            }
        }
        for (ids, env) in &self.fetches {
            let want = catalog::response::build_response_envelope(cat.db(), ids)
                .map_err(|e| e.to_string())?;
            if *env != want {
                self.wrong.push(format!("FETCH {ids:?}: envelope differs from in-process"));
            }
        }
        Ok(())
    }
}

/// `query-mix`: two closed-loop clients cycle through the pool, each
/// from its own offset, in rounds with the host timed between them (see
/// [`in_rounds`]); every reply must equal the in-process answer.
pub fn query_mix(
    addr: SocketAddr,
    pool: &[Prepared],
    seconds: Duration,
    host: &mut HostClock,
) -> Result<(Tally, Extra), ClientError> {
    let mut clients = [connect(addr)?, connect(addr)?];
    // Each client cycles from its own offset into the pool.
    let next = [0, pool.len() / 2];
    let clients: Vec<_> = clients
        .iter_mut()
        .zip(next)
        .map(|(client, mut next)| {
            move |until| {
                closed_loop(until, &mut next, |i, tally| {
                    let p = &pool[i % pool.len()];
                    let clock = Instant::now();
                    let reply = client.query(&p.text);
                    tally.record(p.shape.label(), clock, &reply);
                    if let Ok(ids) = reply {
                        if ids != p.hits {
                            tally.mismatch(format!("QUERY {} gave {ids:?}", p.text));
                        }
                    }
                })
            }
        })
        .collect();
    let tally = in_rounds(Instant::now() + seconds, host, clients);
    Ok((tally, Extra::default()))
}

/// `search-fetch`: one closed-loop client alternates a never-repeated
/// `SEARCH` with a `FETCH` of 1, 10 or 100 random objects. Every
/// `FETCH` envelope must hold exactly the requested objects; the rest
/// is checked by [`Extra::verify`]. It runs in rounds with the host
/// timed between them (see [`in_rounds`]).
pub fn search_fetch(
    addr: SocketAddr,
    queries: &mut QueryGen,
    objects: i64,
    seed: u64,
    seconds: Duration,
    host: &mut HostClock,
) -> Result<(Tally, Extra), ClientError> {
    let mut client = connect(addr)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFE7C);
    let mut searches: Vec<(ObjectQuery, Vec<i64>, Option<String>)> = Vec::new();
    let mut fetches: Vec<(Vec<i64>, String)> = Vec::new();
    let mut bad = Vec::new();
    let mut next = 0;
    let end = Instant::now() + seconds;
    let client = |until| {
        closed_loop(until, &mut next, |i, tally| {
            let keep = (i / 2) % CHECK_EVERY == 0 && i / 2 < CHECK_EVERY * CHECKED;
            if i % 2 == 0 {
                let q = queries.fresh_search();
                let text = render(&q).expect("search queries render");
                let clock = Instant::now();
                let reply = client.search(&text);
                tally.record("search", clock, &reply);
                if let Ok(env) = reply {
                    match envelope_ids(&env) {
                        Some(ids) => searches.push((q, ids, keep.then_some(env))),
                        None => bad.push(format!("SEARCH {text}: malformed envelope")),
                    }
                }
            } else {
                let n = FETCH_SIZES[(i / 2) % FETCH_SIZES.len()];
                let mut ids = distinct_ids(&mut rng, n, objects);
                let label = match n {
                    1 => "fetch/1",
                    10 => "fetch/10",
                    _ => "fetch/100",
                };
                let clock = Instant::now();
                let reply = client.fetch(&ids);
                tally.record(label, clock, &reply);
                if let Ok(env) = reply {
                    ids.sort_unstable();
                    match envelope_ids(&env) {
                        Some(got) if got == ids => {
                            if keep {
                                fetches.push((ids, env));
                            }
                        }
                        _ => bad.push(format!("FETCH {ids:?}: envelope holds other objects")),
                    }
                }
            }
        })
    };
    let tally = in_rounds(end, host, vec![client]);
    Ok((tally, Extra { searches, fetches, wrong: bad, ..Extra::default() }))
}

/// `ingest-read`: an open-loop writer `INGEST`s new documents at
/// [`INGEST_RATE`] while an open-loop reader sends dyn-eq `QUERY`s at
/// [`READ_RATE`] on a second connection. Only documents are added, so
/// every reply must contain the preload-state answer.
pub fn ingest_read(
    addr: SocketAddr,
    gen: &DocGenerator,
    first_doc: usize,
    readers: &[Prepared],
    seconds: Duration,
) -> Result<(Tally, Extra), ClientError> {
    let docs: Vec<String> = (0..(INGEST_RATE * seconds.as_secs_f64()).ceil() as usize)
        .map(|k| gen.generate(first_doc + k))
        .collect();
    let mut writer = connect(addr)?;
    let mut reader = connect(addr)?;
    let start = Instant::now();
    let end = start + seconds;
    let mut acked_bytes = 0;
    let (mut tally, read_tally) = std::thread::scope(|s| {
        let reads = s.spawn(|| {
            open_loop(start, end, READ_RATE, |i, clock, tally| {
                let p = &readers[i % readers.len()];
                let reply = reader.query(&p.text);
                tally.record(Shape::DynEq.label(), clock, &reply);
                if let Ok(ids) = reply {
                    if !p.hits.iter().all(|id| ids.binary_search(id).is_ok()) {
                        tally.mismatch(format!("QUERY {} lost preload matches: {ids:?}", p.text));
                    }
                }
            })
        });
        let writes = open_loop(start, end, INGEST_RATE, |i, clock, tally| {
            let reply = writer.ingest(&docs[i]);
            tally.record("ingest", clock, &reply);
            if reply.is_ok() {
                acked_bytes += docs[i].len();
            }
        });
        (writes, reads.join().expect("ingest-read reader panicked"))
    });
    let acked = tally.ops.get("ingest").map_or(0, |op| (op.attempted - op.failed) as usize);
    tally.merge(read_tally);
    Ok((tally, Extra { acked, acked_bytes, ..Extra::default() }))
}
