//! Closed-loop TCP clients: each client sends its next op only after
//! the previous one was answered.
//!
//! Ops come from a shared `next` function, so a fixed schedule is
//! issued in order across clients. In the traced run every round trip
//! is a `serve.tcp.roundtrip` span carrying the server's
//! `ResponseMeta`, and each search's frames are re-encoded and decoded
//! through `serve::proto` under `serve.proto.encode`/`decode` spans.

use crate::schedule::{Op, Rng};
use crate::trace::{SpanBuf, Tracer};
use dataset::{Dataset, VectorStore};
use knn::topk::Neighbor;
use serve::proto::{decode_request, decode_response, encode_ok, encode_request, Request};
use serve::{Client, ClientError, Response, ResponseMeta};
use std::net::SocketAddr;
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// What one op came back with.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// A search answered `Ok`.
    Searched {
        /// Pool index of the query.
        query: u32,
        /// The served neighbors.
        neighbors: Vec<Neighbor>,
        /// How the server says it served the request.
        meta: ResponseMeta,
    },
    /// An insert acknowledged with its new id.
    Inserted {
        /// Held-out vector index.
        vector: u32,
        /// Assigned external id.
        id: u32,
    },
    /// A delete acknowledged (`removed` = the id was live).
    Deleted {
        /// The id.
        id: u32,
        /// Whether it was live.
        removed: bool,
    },
    /// Shed by admission control.
    Refused,
    /// Anything else; the message says what.
    Failed(String),
}

/// One op as the client saw it.
#[derive(Clone, Debug)]
pub struct Record {
    /// The op sent.
    pub op: Op,
    /// Send time, ns since the phase started.
    pub sent_ns: u64,
    /// Answer time, ns since the phase started.
    pub done_ns: u64,
    /// The answer.
    pub outcome: Outcome,
}

impl Record {
    /// Client-observed round trip in ms.
    pub fn rtt_ms(&self) -> f64 {
        (self.done_ns - self.sent_ns) as f64 / 1e6
    }
}

/// Inputs of one measured phase.
pub struct Phase<'a> {
    /// Server address.
    pub addr: SocketAddr,
    /// Closed-loop clients (one connection each).
    pub clients: usize,
    /// Neighbors per search.
    pub k: usize,
    /// Query pool.
    pub queries: &'a Dataset,
    /// Held-out vectors for inserts.
    pub inserts: Option<&'a Dataset>,
    /// Untimed searches each client sends before the phase starts.
    pub warmup: usize,
    /// Upper bound of each client's think time before every op; the
    /// pause is uniform in `0..think` and seeded.
    pub think: Duration,
    /// Seed of the think times.
    pub seed: u64,
}

/// Result of a phase.
pub struct PhaseRun {
    /// Every op, per client in send order, clients concatenated.
    pub records: Vec<Record>,
    /// First send to last answer.
    pub elapsed: Duration,
}

/// Run one phase: connect and warm up every client, start them
/// together, and let each pull ops from `next` (given the phase start)
/// until it returns `None`.
pub fn run(
    phase: &Phase<'_>,
    tracer: &Tracer,
    next: &(dyn Fn(Instant) -> Option<Op> + Sync),
) -> Result<PhaseRun, String> {
    let barrier = Barrier::new(phase.clients + 1);
    let start_cell: OnceLock<Instant> = OnceLock::new();
    let per_client: Vec<Result<Vec<Record>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..phase.clients)
            .map(|c| {
                let (barrier, start_cell) = (&barrier, &start_cell);
                s.spawn(move || {
                    let ready = connect_and_warm(phase, c);
                    barrier.wait();
                    let mut client = ready?;
                    let start = *start_cell.get().expect("start is set before the barrier");
                    Ok(client_loop(phase, tracer, &mut client, c, start, next))
                })
            })
            .collect();
        start_cell.set(Instant::now()).expect("start is set once");
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
            .collect()
    });
    let mut records = Vec::new();
    for r in per_client {
        records.extend(r?);
    }
    let last = records.iter().map(|r| r.done_ns).max().unwrap_or(0);
    Ok(PhaseRun { records, elapsed: Duration::from_nanos(last) })
}

fn connect_and_warm(phase: &Phase<'_>, c: usize) -> Result<Client, String> {
    let mut client = Client::connect(phase.addr).map_err(|e| format!("connect: {e}"))?;
    let n = phase.queries.len();
    for w in 0..phase.warmup {
        let q = phase.queries.row((c * phase.warmup + w) % n);
        client.search(q, phase.k).map_err(|e| format!("warm-up search: {e}"))?;
    }
    Ok(client)
}

fn client_loop(
    phase: &Phase<'_>,
    tracer: &Tracer,
    client: &mut Client,
    c: usize,
    start: Instant,
    next: &(dyn Fn(Instant) -> Option<Op> + Sync),
) -> Vec<Record> {
    let mut spans = tracer.buf();
    let mut records = Vec::new();
    let mut think = Rng::new(phase.seed ^ (c as u64 + 1).wrapping_mul(0x2545_f491_4f6c_dd1d));
    let think_ns = phase.think.as_nanos() as u64;
    let ns = |t: Instant| t.duration_since(start).as_nanos() as u64;
    while let Some(op) = next(start) {
        if think_ns > 0 {
            std::thread::sleep(Duration::from_nanos(think.below(think_ns)));
        }
        let sent = Instant::now();
        let mut outcome = match op {
            Op::Search(q) => match client.search(phase.queries.row(q as usize), phase.k) {
                Ok(Response { neighbors, meta }) => Outcome::Searched { query: q, neighbors, meta },
                Err(e) => rejected(&e),
            },
            Op::Insert(v) => {
                let rows = phase.inserts.expect("insert ops need held-out vectors");
                match client.insert(rows.row(v as usize)) {
                    Ok(id) => Outcome::Inserted { vector: v, id },
                    Err(e) => rejected(&e),
                }
            }
            Op::Delete(id) => match client.delete(id) {
                Ok(removed) => Outcome::Deleted { id, removed },
                Err(e) => rejected(&e),
            },
        };
        let done = Instant::now();
        if tracer.enabled() {
            let req = tracer.next_id();
            let args = match &outcome {
                Outcome::Searched { meta, .. } => vec![
                    ("e2e_ns", meta.e2e_ns),
                    ("queue_ns", meta.queue_ns),
                    ("batch_size", u64::from(meta.batch_size)),
                ],
                _ => Vec::new(),
            };
            let name = if matches!(op, Op::Search(_)) {
                "serve.tcp.roundtrip"
            } else {
                "serve.tcp.mutation"
            };
            let rt = spans.record(name, 0, req, sent, done, args);
            if let (Op::Search(q), Outcome::Searched { neighbors, meta, .. }) = (op, &outcome) {
                if !replay_proto(
                    &mut spans,
                    rt,
                    req,
                    phase.queries.row(q as usize),
                    phase.k,
                    neighbors,
                    *meta,
                ) {
                    outcome = Outcome::Failed("proto replay did not round-trip".into());
                }
            }
        }
        records.push(Record { op, sent_ns: ns(sent), done_ns: ns(done), outcome });
    }
    spans.flush();
    records
}

/// Re-run the frame work of one search through `serve::proto`: the
/// request and the response encoded (one span), then both decoded
/// (another span). Returns whether both decode to what was sent.
fn replay_proto(
    spans: &mut SpanBuf<'_>,
    parent: u64,
    req: u64,
    query: &[f32],
    k: usize,
    neighbors: &[Neighbor],
    meta: ResponseMeta,
) -> bool {
    let resp = Response { neighbors: neighbors.to_vec(), meta };
    let (req_frame, resp_frame) = spans
        .time("serve.proto.encode", parent, req, || (encode_request(query, k), encode_ok(&resp)));
    let (decoded_req, decoded_resp) = spans.time("serve.proto.decode", parent, req, || {
        (decode_request(&req_frame), decode_response(&resp_frame))
    });
    let same_req =
        matches!(decoded_req, Ok(Request::Query { query: ref q, k: kk }) if q == query && kk == k);
    let same_resp =
        decoded_resp.ok().and_then(|s| s.response).is_some_and(|r| r.neighbors == resp.neighbors);
    same_req && same_resp
}

fn rejected(e: &ClientError) -> Outcome {
    if e.is_overloaded() {
        Outcome::Refused
    } else {
        Outcome::Failed(e.to_string())
    }
}
