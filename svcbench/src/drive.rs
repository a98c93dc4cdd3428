//! Load generators: closed-loop and open-loop clients over
//! `CatalogClient`, and what they record.

use crate::host::{HostClock, REFERENCE_US};
use crate::stats::Samples;
use service::client::{CatalogClient, ClientError};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Attempts, failures and latencies of one request label.
#[derive(Debug, Default)]
pub struct Op {
    pub attempted: u64,
    pub failed: u64,
    pub lat: Samples,
}

/// Everything the clients of one run recorded.
#[derive(Debug, Default)]
pub struct Tally {
    /// Keyed by label: `query/<shape>`, `search`, `fetch/<n>`, `ingest`.
    pub ops: BTreeMap<&'static str, Op>,
    /// Largest lateness of the load generator (see [`open_loop`] and
    /// [`closed_loop`]).
    pub late: Duration,
    /// Replies that disagreed with the expected answer.
    pub wrong: u64,
    /// The first few failure and mismatch messages.
    pub notes: Vec<String>,
    /// When the last reply arrived.
    pub last_reply: Option<Instant>,
    /// Latencies per label in host-normalized time (see `host.rs`),
    /// filled by [`in_rounds`].
    pub norm: BTreeMap<&'static str, Samples>,
}

impl Tally {
    /// Count one request of `label` whose latency clock started at
    /// `clock`; the reply has just arrived.
    pub fn record<T, E: std::fmt::Display>(
        &mut self,
        label: &'static str,
        clock: Instant,
        reply: &Result<T, E>,
    ) {
        let now = Instant::now();
        self.last_reply = Some(now);
        let op = self.ops.entry(label).or_default();
        op.attempted += 1;
        match reply {
            Ok(_) => op.lat.push(now - clock),
            Err(e) => {
                op.failed += 1;
                self.note(format!("{label} failed: {e}"));
            }
        }
    }

    /// Count a reply that disagreed with the expected answer.
    pub fn mismatch(&mut self, msg: String) {
        self.wrong += 1;
        self.note(msg);
    }

    fn note(&mut self, msg: String) {
        if self.notes.len() < 8 {
            self.notes.push(msg);
        }
    }

    /// Fold another client's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        for (label, op) in other.ops {
            let mine = self.ops.entry(label).or_default();
            mine.attempted += op.attempted;
            mine.failed += op.failed;
            mine.lat.extend(&op.lat);
        }
        self.late = self.late.max(other.late);
        self.wrong += other.wrong;
        for n in other.notes {
            self.note(n);
        }
        self.last_reply = self.last_reply.max(other.last_reply);
        for (label, lat) in other.norm {
            self.norm.entry(label).or_default().extend(&lat);
        }
    }

    /// Requests attempted and failed, over every label.
    pub fn totals(&self) -> (u64, u64) {
        self.ops.values().fold((0, 0), |(a, f), op| (a + op.attempted, f + op.failed))
    }
}

/// Connect a client whose replies may not take longer than a run.
pub fn connect(addr: SocketAddr) -> Result<CatalogClient, ClientError> {
    CatalogClient::connect_with_timeout(addr, Duration::from_secs(30))
}

/// Length of one round of a closed-loop client phase.
pub const ROUND: Duration = Duration::from_millis(500);

/// Run `clients` in rounds until `end`, each on a thread of its own:
/// every client's `round(until)` sends requests until `until`, at most
/// [`ROUND`] after the round began. Between rounds, once every client is
/// idle, each client thread times the host reference kernel on the CPU
/// it ran on and keeps its round's latencies also normalized to that
/// time (see [`Tally::norm`]). Returns the clients' tallies merged, and
/// adds their kernel times to `host`. A client that panics fails the
/// run instead of hanging it.
pub fn in_rounds<F>(end: Instant, host: &mut HostClock, clients: Vec<F>) -> Tally
where
    F: FnMut(Instant) -> Tally + Send,
{
    let begin = Barrier::new(clients.len() + 1);
    let finish = Barrier::new(clients.len() + 1);
    let over = AtomicBool::new(false);
    let mut tally = Tally::default();
    std::thread::scope(|s| {
        let threads: Vec<_> = clients
            .into_iter()
            .map(|mut round| {
                let (begin, finish, over) = (&begin, &finish, &over);
                s.spawn(move || {
                    let (mut tally, mut clock) = (Tally::default(), HostClock::default());
                    loop {
                        begin.wait();
                        if over.load(Ordering::Acquire) {
                            return (tally, clock);
                        }
                        let until = (Instant::now() + ROUND).min(end);
                        let mut r =
                            catch_unwind(AssertUnwindSafe(|| round(until))).unwrap_or_else(|_| {
                                let mut t = Tally::default();
                                t.mismatch("client panicked".to_string());
                                t
                            });
                        finish.wait();
                        let scale = REFERENCE_US / clock.pause();
                        for (label, op) in &r.ops {
                            r.norm.entry(label).or_default().extend(&op.lat.scaled(scale));
                        }
                        tally.merge(r);
                    }
                })
            })
            .collect();
        loop {
            over.store(Instant::now() >= end, Ordering::Release);
            let paused = Instant::now();
            begin.wait();
            if over.load(Ordering::Acquire) {
                break;
            }
            host.spent += paused.elapsed();
            finish.wait();
        }
        for t in threads {
            let (t, clock) = t.join().expect("client threads catch their panics");
            tally.merge(t);
            host.merge(clock);
        }
    });
    tally
}

/// Closed loop until `end`: each request is sent as soon as the
/// previous reply arrived. `request(i, tally)` sends request `i`, from
/// `*next` on, and records it; `*next` is left at the request after the
/// last sent. Lateness is the longest gap between a reply and the next
/// send, the generator's own overhead.
pub fn closed_loop(
    end: Instant,
    next: &mut usize,
    mut request: impl FnMut(usize, &mut Tally),
) -> Tally {
    let mut tally = Tally::default();
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        if let Some(prev) = tally.last_reply {
            tally.late = tally.late.max(now - prev);
        }
        request(*next, &mut tally);
        *next += 1;
    }
    tally
}

/// Open loop at `rate` requests per second from `start` until `end`.
/// `request(i, clock, tally)` sends request `i` and records it with its
/// latency clock started at `clock`. The clock starts at the due time
/// when the previous reply came after it (the stall counts against the
/// request), and at the actual send otherwise, so the generator's own
/// sleep overshoot is not billed to the system; that overshoot is the
/// lateness recorded.
pub fn open_loop(
    start: Instant,
    end: Instant,
    rate: f64,
    mut request: impl FnMut(usize, Instant, &mut Tally),
) -> Tally {
    let mut tally = Tally::default();
    let mut prev_reply = start;
    for i in 0.. {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        if due >= end {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let clock = if prev_reply > due {
            due
        } else {
            let sent = Instant::now();
            tally.late = tally.late.max(sent - due);
            sent
        };
        request(i, clock, &mut tally);
        prev_reply = tally.last_reply.unwrap_or(prev_reply);
    }
    tally
}

/// Object ids of a `<results><object id="..">..</object>..</results>`
/// envelope, in order; `None` if the envelope is malformed.
pub fn envelope_ids(env: &str) -> Option<Vec<i64>> {
    let body = env.strip_prefix("<results>")?.strip_suffix("</results>")?;
    let mut ids = Vec::new();
    let mut rest = body;
    while let Some(at) = rest.find("<object id=\"") {
        rest = &rest[at + "<object id=\"".len()..];
        let end = rest.find('"')?;
        ids.push(rest[..end].parse().ok()?);
        rest = &rest[end..];
    }
    Some(ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_ids_in_order() {
        let env = r#"<results><object id="3"><a/></object><object id="12">x</object></results>"#;
        assert_eq!(envelope_ids(env), Some(vec![3, 12]));
        assert_eq!(envelope_ids("<results></results>"), Some(vec![]));
        assert_eq!(envelope_ids("<results>"), None);
    }

    #[test]
    fn open_loop_keeps_its_schedule() {
        let start = Instant::now();
        let tally = open_loop(start, start + Duration::from_millis(50), 1000.0, |_, clock, t| {
            t.record("ping", clock, &Ok::<(), ClientError>(()));
        });
        let sent = tally.ops["ping"].attempted;
        assert!((45..=50).contains(&sent), "{sent}");
    }
}
