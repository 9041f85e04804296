//! serve-zipf: an in-process `sufsat-serve` daemon with two workers and
//! its default result cache, driven over two connections.
//!
//! The untraced run is one closed-loop phase. It sends the checked-in
//! suite with Zipf-drawn repeats through a daemon whose cache starts
//! empty each pass, so most requests are solved and some are answered
//! from the cache or coalesced onto an identical solve in flight. Both
//! connections always have a request in flight, so both workers stay
//! busy, and the completion rate is the daemon's capacity for this mix.
//!
//! The traced run measures the cache shares on closed-loop passes, then
//! sends the Zipf pool open loop at a fixed rate: every request is timed
//! from the moment it was *due*, so a stall also delays every request
//! scheduled behind it, and the generator's own lateness is reported. A
//! sub-millisecond cache hit's round trip varies by half between runs on
//! a 2-core host with scheduler wake-up delays, which is why the gated
//! latency comes from the solve-dominated closed-loop phase.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sufsat_cache::{canonicalize, CacheValue, CachedVerdict, ResultCache, StatsDigest};
use sufsat_obs::json::{self, Json};
use sufsat_prng::Prng;
use sufsat_serve::protocol::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use sufsat_serve::{Client, ServeOptions, Server, ServerHandle};
use sufsat_suf::{parse_problem, TermManager};

use crate::batch::{layer_metrics, PassWork, Passes};
use crate::inputs::{alpha_rename, serve_instance, shuffle, Query, HYBRID};
use crate::pipeline::{check, decide_parsed, staged_from, Verdict, Work, WrongVerdict};
use crate::stats::{quantile, InputHash, Metrics, RunResult};
use crate::trace::Tracer;

/// Deadline of every Zipf-pool request, counted by the daemon from
/// admission and by the benchmark from the send (or, open loop, the
/// scheduled) time.
pub const DEADLINE: Duration = Duration::from_secs(2);
/// Deadline of the closed-loop phase's suite requests: far above the
/// slowest instance (0.9 s alone), so only a regression misses it, not
/// two heavy instances landing on both workers at once.
pub const SUITE_DEADLINE: Duration = Duration::from_secs(10);
/// Zipf exponent of request popularity.
pub const ZIPF_S: f64 = 1.1;
/// Popularity ranks the pool is drawn from. Far more than a run sends,
/// so the tail keeps producing first-time queries and misses keep flowing
/// while the head is served from the cache.
pub const POOL_RANKS: usize = 100_000;
/// Most popular ranks answered once during set-up, so measurement starts
/// with the head of the distribution cached.
pub const WARM_RANKS: usize = 64;
/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// Share of `--seconds` the traced run spends in the closed-loop phase.
pub const CLOSED_SHARE: f64 = 0.6;
/// Repeats per closed-loop pass, as a share of its distinct instances:
/// three per pass of 47. Cache answers are fast, so each repeat moves the
/// median one half-rank down the suite's solve times; three keep it inside
/// the 48–75 ms group of instances, clear of the gap below it (24–48 ms)
/// where it would jump between runs.
pub const REPEAT_SHARE: f64 = 1.0 / 16.0;
/// Rate of the traced run's open-loop phase. Most of the pool's requests
/// hit the cache and its misses take at most about 100 ms, so two workers
/// keep up, and queue wait or late replies point at a regression.
pub const FIXED_RPS: f64 = 150.0;
/// Share of `--seconds` the traced run spends in its open-loop phase.
pub const FIXED_SHARE: f64 = 0.3;
/// Share of `--seconds` each of the traced run's in-process replays gets
/// at most.
pub const REPLAY_SHARE: f64 = 0.25;

/// One request of the Zipf pool.
pub struct Request {
    /// Due time of an open-loop request, seconds after the start.
    pub at_s: f64,
    /// Index of the instance in the run's pool.
    pub item: usize,
    /// Alpha-renaming key.
    pub key: u64,
}

/// The seeded open-loop schedule over the Zipf pool.
pub struct Schedule {
    /// Open-loop requests in due order.
    pub open: Vec<Request>,
}

impl Schedule {
    /// Draws the schedule for a run of `seconds` and generates the pool of
    /// instances it asks for; the pool starts with the [`WARM_RANKS`] most
    /// popular ranks. Open-loop arrivals are a Poisson process conditioned
    /// on its count: `rate × length` arrivals at uniform random times.
    pub fn new(seed: u64, seconds: f64) -> (Schedule, Vec<Query>) {
        let mut rng = Prng::seed_from_u64(seed ^ 0x21bf_0000);
        let cdf = zipf_cdf(POOL_RANKS, ZIPF_S);
        let mut ranks: Vec<usize> = (0..WARM_RANKS).collect();
        let mut index: HashMap<usize, usize> = ranks.iter().map(|&r| (r, r)).collect();
        let mut draw = |rng: &mut Prng, at_s: f64| {
            let u = unit(rng);
            let rank = cdf.partition_point(|&c| c < u).min(POOL_RANKS - 1);
            let item = *index.entry(rank).or_insert_with(|| {
                ranks.push(rank);
                ranks.len() - 1
            });
            Request {
                at_s,
                item,
                key: rng.next_u64(),
            }
        };
        let length = seconds * FIXED_SHARE;
        let n = (FIXED_RPS * length).round() as usize;
        let mut times: Vec<f64> = (0..n).map(|_| unit(&mut rng) * length).collect();
        times.sort_by(f64::total_cmp);
        let open = times.into_iter().map(|t| draw(&mut rng, t)).collect();
        let pool = ranks.iter().map(|&r| serve_instance(seed, r)).collect();
        (Schedule { open }, pool)
    }

    /// Mixes the traffic into `hash`.
    pub fn hash_into(&self, hash: &mut InputHash) {
        for r in &self.open {
            hash.add(&r.at_s.to_bits().to_le_bytes());
            hash.add(&(r.item as u64).to_le_bytes());
            hash.add(&r.key.to_le_bytes());
        }
    }
}

fn unit(rng: &mut Prng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn bind_daemon() -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            workers: WORKERS,
            ..ServeOptions::default()
        },
    )
    .expect("bind the daemon on a loopback port")
}

/// Starts a daemon, answers the three shortest suite queries through it
/// and stops it, so the code paths every closed-loop pass takes are warm.
pub fn warm_up(suite: &[Query]) {
    let handle = bind_daemon();
    let mut client = Client::connect(handle.local_addr()).expect("connect to the daemon");
    let mut by_len: Vec<&Query> = suite.iter().collect();
    by_len.sort_by_key(|q| q.text.len());
    for q in by_len.into_iter().take(3) {
        let reply = client
            .decide(&q.text, Some(SUITE_DEADLINE))
            .expect("warm-up reply");
        assert_eq!(
            sufsat_serve::reply_status(&reply),
            "ok",
            "warm-up of {}",
            q.name
        );
    }
    drop(client);
    stop(handle);
}

/// A started daemon, warmed up.
pub struct Daemon {
    handle: ServerHandle,
    addr: SocketAddr,
}

impl Daemon {
    /// Starts the daemon and answers the [`WARM_RANKS`] most popular
    /// instances once each, so threads, allocator and the hottest cache
    /// entries are warm before measurement.
    pub fn start(pool: &[Query]) -> Daemon {
        let handle = bind_daemon();
        let addr = handle.local_addr();
        let mut client = Client::connect(addr).expect("connect to the daemon");
        for q in pool.iter().take(WARM_RANKS) {
            let reply = client
                .decide(&q.text, Some(DEADLINE))
                .expect("warm-up reply");
            assert_eq!(
                sufsat_serve::reply_status(&reply),
                "ok",
                "warm-up of {}",
                q.name
            );
        }
        Daemon { handle, addr }
    }

    /// Drains and stops the daemon.
    pub fn stop(self) {
        stop(self.handle);
    }
}

fn stop(handle: ServerHandle) {
    let report = handle.shutdown();
    assert_eq!(report.inflight, 0, "daemon stopped with work in flight");
}

/// The body of a `decide` request for `q` under renaming `key`.
fn request_body(id: usize, q: &Query, key: u64, deadline: Duration) -> String {
    let mode = if q.mode == HYBRID { "hybrid" } else { "sd" };
    let mut body = format!(
        "{{\"id\":{id},\"op\":\"decide\",\"mode\":\"{mode}\",\"timeout_ms\":{},\"problem\":",
        deadline.as_millis()
    );
    json::escape_into(&mut body, &alpha_rename(&q.text, key));
    body.push('}');
    body
}

/// One reply as the client saw it.
struct Reply {
    id: usize,
    recv: Instant,
    ok: bool,
    overloaded: bool,
    verdict: Verdict,
    cache: String,
    time_us: f64,
    queue_us: f64,
}

fn parse_reply(payload: &[u8], recv: Instant) -> Reply {
    let text = std::str::from_utf8(payload).expect("replies are UTF-8");
    let j: Json = json::parse(text).expect("replies are JSON");
    let id = j
        .get("id")
        .and_then(Json::as_u64)
        .expect("replies echo the id") as usize;
    let status = j.get("status").and_then(Json::as_str).unwrap_or("?");
    let verdict = match j.get("verdict").and_then(Json::as_str) {
        Some("valid") => Verdict::Valid,
        Some("invalid") => Verdict::Invalid,
        _ => Verdict::Unknown,
    };
    let num = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    Reply {
        id,
        recv,
        ok: status == "ok",
        overloaded: status == "overloaded",
        verdict,
        cache: j
            .get("cache")
            .and_then(Json::as_str)
            .unwrap_or("none")
            .to_owned(),
        time_us: num("time_us"),
        queue_us: num("queue_us"),
    }
}

/// Replies judged against the answers their inputs were built with.
#[derive(Default)]
struct Judged {
    attempted: u64,
    ok: u64,
    late: u64,
    overloaded: u64,
    hits: u64,
    coalesced: u64,
    /// Latency of each request; a failed one reads infinite.
    latencies_ms: Vec<f64>,
}

impl Judged {
    /// Adds the counts and latencies of `other`.
    fn merge(&mut self, other: Judged) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.late += other.late;
        self.overloaded += other.overloaded;
        self.hits += other.hits;
        self.coalesced += other.coalesced;
        self.latencies_ms.extend(other.latencies_ms);
    }

    /// Judges one request: `reply` is `None` when none arrived.
    fn add(
        &mut self,
        q: &Query,
        reply: Option<&Reply>,
        latency_ms: f64,
        deadline: Duration,
    ) -> Result<(), WrongVerdict> {
        self.attempted += 1;
        let Some(reply) = reply else {
            self.latencies_ms.push(f64::INFINITY);
            return Ok(());
        };
        self.overloaded += u64::from(reply.overloaded);
        self.hits += u64::from(reply.cache == "hit");
        self.coalesced += u64::from(reply.cache == "coalesced");
        let definitive = reply.ok
            && check(
                &format!("{} ({})", q.name, reply.cache),
                q.valid,
                reply.verdict,
            )?;
        let late = latency_ms > deadline.as_secs_f64() * 1e3;
        self.late += u64::from(late);
        let ok = definitive && !late;
        self.ok += u64::from(ok);
        self.latencies_ms
            .push(if ok { latency_ms } else { f64::INFINITY });
        Ok(())
    }
}

/// Sends requests `0..count`, built by `body`, over two connections, each
/// sending its next request once its previous reply arrived, and returns
/// every reply.
fn two_connections(
    addr: SocketAddr,
    count: usize,
    body: &(dyn Fn(usize) -> String + Sync),
) -> Vec<Reply> {
    let next = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let conns: Vec<_> = (0..2)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect to the daemon");
                    stream.set_nodelay(true).expect("set TCP_NODELAY");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone the stream"));
                    let mut writer = BufWriter::new(stream);
                    let mut got = Vec::new();
                    loop {
                        let id = next.fetch_add(1, Ordering::Relaxed) as usize;
                        if id >= count {
                            return got;
                        }
                        write_frame(&mut writer, body(id).as_bytes()).expect("send a request");
                        let payload =
                            read_frame(&mut reader, DEFAULT_MAX_FRAME).expect("read a reply");
                        got.push(parse_reply(&payload, Instant::now()));
                    }
                })
            })
            .collect();
        conns
            .into_iter()
            .flat_map(|c| c.join().expect("connection thread"))
            .collect()
    })
}

/// One pass of the closed-loop phase: every suite instance once, plus
/// Zipf-drawn repeats, in a seeded order, each with a renaming key. A
/// repeat follows right behind the instance's first request, as
/// duplicates sent together do: the other connection picks it up, and it
/// coalesces onto the solve if that is still in flight, or hits the cache
/// if the solve already finished.
fn closed_pass(n: usize, rng: &mut Prng) -> Vec<(usize, u64)> {
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, rng);
    let position: HashMap<usize, usize> = order.iter().enumerate().map(|(p, &i)| (i, p)).collect();
    let mut slots: Vec<Vec<usize>> = order.iter().map(|&i| vec![i]).collect();
    let cdf = zipf_cdf(n, ZIPF_S);
    let repeats = (n as f64 * REPEAT_SHARE).round() as usize;
    for _ in 0..repeats {
        let u = unit(rng);
        let item = order[cdf.partition_point(|&c| c < u).min(n - 1)];
        slots[position[&item]].push(item);
    }
    slots
        .into_iter()
        .flatten()
        .map(|i| (i, rng.next_u64()))
        .collect()
}

/// Closed-loop phase: whole passes for about `seconds`. Each pass starts
/// a daemon with an empty cache; each connection sends its next request
/// as soon as its previous reply arrives. Returns the passes and every
/// reply judged.
fn closed_loop(suite: &[Query], seed: u64, seconds: f64) -> Result<(Passes, Judged), WrongVerdict> {
    let mut rng = Prng::seed_from_u64(seed ^ 0xc105_ed00);
    let mut passes = Passes::default();
    let mut all = Judged::default();
    while passes.want_more(seconds) {
        let stream = closed_pass(suite.len(), &mut rng);
        let handle = bind_daemon();
        let sent: Vec<std::sync::OnceLock<Instant>> =
            stream.iter().map(|_| std::sync::OnceLock::new()).collect();
        let t = Instant::now();
        let replies = two_connections(handle.local_addr(), stream.len(), &|id| {
            let (item, key) = stream[id];
            let body = request_body(id, &suite[item], key, SUITE_DEADLINE);
            let _ = sent[id].set(Instant::now());
            body
        });
        let wall_s = t.elapsed().as_secs_f64();
        stop(handle);
        let mut by_id: Vec<Option<Reply>> = (0..stream.len()).map(|_| None).collect();
        for r in replies {
            let id = r.id;
            by_id[id] = Some(r);
        }
        let mut pass = Judged::default();
        for (id, reply) in by_id.iter().enumerate() {
            let sent_at = *sent[id].get().expect("every request was sent");
            let latency_ms = reply.as_ref().map_or(f64::INFINITY, |r| {
                r.recv.duration_since(sent_at).as_secs_f64() * 1e3
            });
            pass.add(
                &suite[stream[id].0],
                reply.as_ref(),
                latency_ms,
                SUITE_DEADLINE,
            )?;
        }
        passes.record(wall_s, pass.ok, &pass.latencies_ms);
        all.merge(pass);
    }
    Ok((passes, all))
}

/// End-to-end run: the closed-loop phase for the whole run. Capacity is
/// the rate at which the daemon completes requests while both
/// connections keep both workers busy.
pub fn run(suite: &[Query], seed: u64, seconds: f64) -> Result<RunResult, WrongVerdict> {
    Ok(closed_loop(suite, seed, seconds)?.0.result())
}

/// What the open-loop phase observed.
struct Observed {
    start: Instant,
    sent: Vec<Option<Instant>>,
    replies: Vec<Option<Reply>>,
}

/// Sends the open-loop schedule over two pipelined connections, each
/// request at its due time, and collects the replies.
fn open_loop(daemon: &Daemon, pool: &[Query], schedule: &Schedule) -> Observed {
    let streams: Vec<TcpStream> = (0..2)
        .map(|_| {
            let s = TcpStream::connect(daemon.addr).expect("connect to the daemon");
            s.set_nodelay(true).expect("set TCP_NODELAY");
            s
        })
        .collect();
    let received = AtomicU64::new(0);
    let n = schedule.open.len();
    let mut sent: Vec<Option<Instant>> = vec![None; n];
    let start = Instant::now();
    let replies = std::thread::scope(|scope| {
        let readers: Vec<_> = streams
            .iter()
            .map(|s| {
                let mut r = BufReader::new(s.try_clone().expect("clone the stream"));
                let received = &received;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while let Ok(payload) = read_frame(&mut r, DEFAULT_MAX_FRAME) {
                        out.push(parse_reply(&payload, Instant::now()));
                        received.fetch_add(1, Ordering::Relaxed);
                    }
                    out
                })
            })
            .collect();
        let mut writers: Vec<BufWriter<TcpStream>> = streams
            .iter()
            .map(|s| BufWriter::new(s.try_clone().expect("clone the stream")))
            .collect();
        for (id, req) in schedule.open.iter().enumerate() {
            sleep_until(start + Duration::from_secs_f64(req.at_s));
            let body = request_body(id, &pool[req.item], req.key, DEADLINE);
            sent[id] = Some(Instant::now());
            write_frame(&mut writers[id % 2], body.as_bytes()).expect("send a request");
        }
        // Every reply is due within its deadline; allow a margin for
        // replies that arrive late, which count as failed, not missing.
        let give_up = Instant::now() + DEADLINE + Duration::from_secs(3);
        while (received.load(Ordering::Relaxed) as usize) < n && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(2));
        }
        for s in &streams {
            let _ = s.shutdown(Shutdown::Both);
        }
        let mut replies: Vec<Option<Reply>> = (0..n).map(|_| None).collect();
        for r in readers {
            for reply in r.join().expect("reader thread") {
                let id = reply.id;
                replies[id] = Some(reply);
            }
        }
        replies
    });
    Observed {
        start,
        sent,
        replies,
    }
}

fn sleep_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Traced run: the open-loop phase against the daemon for the reply-side
/// layer metrics, then the same request stream replayed in process twice
/// through a fresh result cache — once with whole `decide` calls, once
/// layer by layer under spans — for the per-layer times.
pub fn run_traced(
    daemon: &Daemon,
    suite: &[Query],
    pool: &[Query],
    schedule: &Schedule,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
) -> Result<RunResult, WrongVerdict> {
    // The closed-loop phase, as in the untraced run, gives the cache
    // shares: its repeats meet their first solve in flight often enough to
    // coalesce, which the open-loop tail rarely does.
    let (_, closed) = closed_loop(suite, seed, seconds * CLOSED_SHARE)?;
    let obs = open_loop(daemon, pool, schedule);
    let mut fixed = Judged::default();
    let mut queue_ms = Vec::new();
    let mut service_ms = Vec::new();
    let mut wire_ms = Vec::new();
    let mut lag_ms = Vec::new();
    for (id, req) in schedule.open.iter().enumerate() {
        let due = obs.start + Duration::from_secs_f64(req.at_s);
        let reply = obs.replies[id].as_ref();
        let latency_ms = reply.map_or(f64::INFINITY, |r| {
            r.recv.saturating_duration_since(due).as_secs_f64() * 1e3
        });
        fixed.add(&pool[req.item], reply, latency_ms, DEADLINE)?;
        let (Some(sent), Some(reply)) = (obs.sent[id], reply) else {
            continue;
        };
        lag_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        if reply.ok {
            let client_ms = reply.recv.duration_since(sent).as_secs_f64() * 1e3;
            queue_ms.push(reply.queue_us / 1e3);
            service_ms.push(reply.time_us / 1e3);
            wire_ms.push(client_ms - (reply.queue_us + reply.time_us) / 1e3);
        }
    }

    // The replay covers the prefix of the stream that the untraced half
    // answers within its budget; the traced half replays the same prefix.
    let stream = &schedule.open;
    let budget = seconds * REPLAY_SHARE;
    let cache = ResultCache::new(ServeOptions::default().cache_bytes);
    let t = Instant::now();
    let mut plain_work = Work::default();
    let mut plain_verdicts = Vec::new();
    for req in stream {
        if t.elapsed().as_secs_f64() >= budget {
            break;
        }
        let q = &pool[req.item];
        let text = alpha_rename(&q.text, req.key);
        let mut tm = TermManager::new();
        let phi = parse_problem(&mut tm, &text).expect("generated inputs parse");
        let canonical = canonicalize(&tm, phi);
        let verdict = match cache.lookup(canonical.fingerprint, &canonical.bytes) {
            Some(v) => cached_verdict(&v),
            None => {
                let (verdict, work) = decide_parsed(&mut tm, phi, q.mode);
                plain_work.add(&work);
                insert(&cache, &canonical, verdict);
                verdict
            }
        };
        check(&q.name, q.valid, verdict)?;
        plain_verdicts.push(verdict);
    }
    let plain_s = t.elapsed().as_secs_f64();

    let cache = ResultCache::new(ServeOptions::default().cache_bytes);
    let t = Instant::now();
    let mut traced_work = Work::default();
    for (qid, (req, &plain)) in stream.iter().zip(&plain_verdicts).enumerate() {
        let qid = qid as u64;
        let q = &pool[req.item];
        let text = alpha_rename(&q.text, req.key);
        tr.enter("query", qid);
        let mut tm = TermManager::new();
        let phi = tr
            .span("suf.parse", qid, || parse_problem(&mut tm, &text))
            .expect("generated inputs parse");
        let canonical = tr.span("cache.canonicalize", qid, || canonicalize(&tm, phi));
        let hit = tr.span("cache.lookup", qid, || {
            cache.lookup(canonical.fingerprint, &canonical.bytes)
        });
        let verdict = match hit {
            Some(v) => cached_verdict(&v),
            None => {
                let (verdict, work) = staged_from(tr, qid, &mut tm, phi, q.mode);
                traced_work.add(&work);
                insert(&cache, &canonical, verdict);
                verdict
            }
        };
        tr.exit();
        if verdict != plain {
            return Err(WrongVerdict(format!(
                "{}: layer-by-layer replay answered {verdict:?}, decide answered {plain:?}",
                q.name
            )));
        }
    }
    let traced_s = t.elapsed().as_secs_f64();
    let replayed = plain_verdicts.len() as f64;

    let decide_replies = (closed.attempted - closed.overloaded) as f64;
    let mut m = Metrics::default();
    layer_metrics(tr, replayed, &mut m);
    m.put(
        "cache.canonicalize_ms",
        tr.total_ms("cache.canonicalize") / replayed,
        "ms",
    );
    m.put(
        "cache.hit_share",
        closed.hits as f64 / decide_replies,
        "ratio",
    );
    m.put(
        "cache.coalesced_share",
        closed.coalesced as f64 / decide_replies,
        "ratio",
    );
    m.put("serve.queue_wait_ms_p90", quantile(&queue_ms, 0.9), "ms");
    m.put("serve.service_ms_p50", quantile(&service_ms, 0.5), "ms");
    m.put("serve.wire_ms_p50", quantile(&wire_ms, 0.5), "ms");
    m.put(
        "serve.overloaded_share",
        fixed.overloaded as f64 / fixed.attempted as f64,
        "ratio",
    );
    m.put(
        "serve.late_share",
        fixed.late as f64 / fixed.attempted as f64,
        "ratio",
    );
    m.put("serve.send_lag_ms_p90", quantile(&lag_ms, 0.9), "ms");
    let mut works = PassWork::default();
    works.push(plain_work);
    works.push(traced_work);
    works.put_metrics(&mut m);
    m.put("core.decide_ms", plain_s * 1e3 / replayed, "ms");
    m.put("trace.overhead_share", 1.0 - plain_s / traced_s, "ratio");
    Ok(RunResult {
        attempted: closed.attempted + fixed.attempted + 2 * plain_verdicts.len() as u64,
        failed: closed.attempted - closed.ok + fixed.attempted - fixed.ok,
        metrics: m,
    })
}

fn cached_verdict(v: &CacheValue) -> Verdict {
    match v.verdict {
        CachedVerdict::Valid => Verdict::Valid,
        CachedVerdict::Invalid => Verdict::Invalid,
    }
}

fn insert(cache: &ResultCache, canonical: &sufsat_cache::Canonical, verdict: Verdict) {
    let verdict = match verdict {
        Verdict::Valid => CachedVerdict::Valid,
        Verdict::Invalid => CachedVerdict::Invalid,
        Verdict::Unknown => return,
    };
    cache.insert(
        canonical.fingerprint,
        &canonical.bytes,
        CacheValue {
            verdict,
            int_model: Vec::new(),
            bool_model: Vec::new(),
            digest: StatsDigest::default(),
        },
    );
}
