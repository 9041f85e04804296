//! End-to-end battery for the serve introspection layer: the `metrics`,
//! `health` and `debug` protocol ops, the plain-HTTP Prometheus
//! exposition listener, the slow-request log and the drain-state flip.
//!
//! Drives a real server over real TCP: quick decides to populate the
//! latency histograms, one hard pigeonhole decide so the solver
//! publishes progress heartbeats and lands in the slow log, then a
//! scrape of `GET /metrics` and `GET /health` before and during a
//! graceful drain.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sufsat::serve::{reply_status, reply_verdict, Client, ServeOptions, Server};
use sufsat_obs::json::{self, Json};

/// An EUF pigeonhole instance: `pigeons` pigeons into `pigeons - 1`
/// holes — exponentially hard for CDCL, so a bounded-timeout decide is
/// guaranteed to rack up conflicts and heartbeats before expiring.
fn php_problem(pigeons: usize) -> String {
    let holes = pigeons - 1;
    let mut vars = String::new();
    for i in 0..pigeons {
        vars.push_str(&format!(" p{i}"));
    }
    for j in 0..holes {
        vars.push_str(&format!(" h{j}"));
    }
    let mut conj = String::new();
    for i in 0..pigeons {
        let mut alt = String::new();
        for j in 0..holes {
            alt.push_str(&format!(" (= p{i} h{j})"));
        }
        conj.push_str(&format!(" (or{alt})"));
    }
    for i in 0..pigeons {
        for k in i + 1..pigeons {
            conj.push_str(&format!(" (not (= p{i} p{k}))"));
        }
    }
    format!("(vars{vars}) (formula (not (and{conj})))")
}

/// One HTTP/1.1 GET against the metrics listener; returns (head, body).
fn http_get(addr: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("metrics listener connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: sufsat\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("http response");
    let split = raw.find("\r\n\r\n").expect("http head/body split");
    (raw[..split].to_owned(), raw[split + 4..].to_owned())
}

fn obj_u64(reply: &Json, outer: &str, key: &str) -> u64 {
    reply
        .get(outer)
        .and_then(|o| o.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("reply lacks `{outer}.{key}`: {reply:?}"))
}

/// Polls the `metrics` op until it reports `n` requests in flight.
fn wait_for_inflight(client: &mut Client, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let metrics = client.metrics().unwrap();
        if metrics.get("inflight").and_then(Json::as_u64) == Some(n) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {n} in flight; last metrics: {metrics:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn introspection_layer_end_to_end() {
    let handle = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            workers: 2,
            queue_cap: 16,
            metrics_addr: Some("127.0.0.1:0".to_owned()),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr().to_string();
    let metrics_addr = handle
        .metrics_addr()
        .expect("metrics listener bound")
        .to_string();

    let mut client = Client::connect(&*addr).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();

    // Populate the latency histograms with quick decides…
    const QUICK: usize = 6;
    for _ in 0..QUICK {
        let reply = client
            .decide(
                "(vars a b) (funs (f 1)) (formula (=> (= a b) (= (f a) (f b))))",
                Some(Duration::from_secs(30)),
            )
            .unwrap();
        assert_eq!(reply_status(&reply), "ok");
        assert_eq!(reply_verdict(&reply), "valid");
    }

    // …then one hard decide whose timeout lands mid-search, so the
    // solver heartbeats real progress and the request tops the slow log.
    // Twelve pigeons: an optimised build can prove eleven in under 1.2 s.
    let reply = client
        .decide(&php_problem(12), Some(Duration::from_millis(1200)))
        .unwrap();
    assert_eq!(reply_status(&reply), "ok");
    assert_eq!(reply_verdict(&reply), "unknown", "expected timeout: {reply:?}");

    // The `metrics` op sees every request in its distributions.
    let metrics = client.metrics().unwrap();
    assert_eq!(reply_status(&metrics), "ok");
    assert_eq!(
        metrics.get("state").and_then(Json::as_str),
        Some("running")
    );
    let seen = obj_u64(&metrics, "latency_us", "count");
    assert!(seen >= (QUICK + 1) as u64, "histogram missed requests: {metrics:?}");
    assert!(
        obj_u64(&metrics, "latency_us", "max") >= 1_000_000,
        "hard decide should dominate max latency: {metrics:?}"
    );
    assert_eq!(obj_u64(&metrics, "queue_wait_us", "count"), seen);
    let workers = match metrics.get("workers") {
        Some(Json::Arr(items)) => items.len(),
        other => panic!("metrics reply lacks workers array: {other:?}"),
    };
    assert_eq!(workers, 2);

    // The `health` op reports a running server with live workers.
    let health = client.health().unwrap();
    assert_eq!(reply_status(&health), "ok");
    assert_eq!(health.get("state").and_then(Json::as_str), Some("running"));
    assert_eq!(health.get("workers_alive").and_then(Json::as_u64), Some(2));

    // The slow log captured the hard request, worst first, with the
    // solver's final progress snapshot attached.
    let debug = client.debug_dump("slow_requests").unwrap();
    assert_eq!(reply_status(&debug), "ok");
    let slow = match debug.get("slow_requests") {
        Some(Json::Arr(items)) if !items.is_empty() => items,
        other => panic!("slow log empty: {other:?}"),
    };
    let worst = &slow[0];
    assert!(
        worst.get("latency_us").and_then(Json::as_u64).unwrap() >= 1_000_000,
        "worst entry is not the hard decide: {worst:?}"
    );
    let conflicts = worst
        .get("progress")
        .and_then(|p| p.get("conflicts"))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("worst entry lacks progress: {worst:?}"));
    assert!(conflicts > 0, "slow entry progress snapshot is empty: {worst:?}");

    // An unknown debug dump is a clean error.
    let reply = client.debug_dump("nonsense").unwrap();
    assert_eq!(reply_status(&reply), "error");

    // The Prometheus scrape exposes all the key families.
    let (head, body) = http_get(&metrics_addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "bad scrape status: {head}");
    for family in [
        "sufsat_requests_total",
        "sufsat_request_latency_us_bucket",
        "sufsat_request_latency_us_count",
        "sufsat_queue_wait_us_bucket",
        "sufsat_queue_depth",
        "sufsat_inflight",
        "sufsat_workers_alive",
        "sufsat_sat_conflicts{worker=\"0\"}",
    ] {
        assert!(body.contains(family), "scrape lacks `{family}`:\n{body}");
    }
    let (head, hbody) = http_get(&metrics_addr, "/health");
    assert!(head.starts_with("HTTP/1.1 200"), "bad health status: {head}");
    assert!(hbody.contains("\"state\":\"running\""), "health body: {hbody}");
    let (head, _) = http_get(&metrics_addr, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "expected 404: {head}");

    // Start a drain with work still inflight: health (on the protocol
    // connection that already exists and over HTTP) must flip to
    // draining while the admitted job finishes.
    let mut inflight = Client::connect(&*addr).unwrap();
    inflight
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut msg = String::from("{\"id\":7,\"op\":\"decide\",\"problem\":");
    json::escape_into(&mut msg, &php_problem(12));
    msg.push_str(",\"timeout_ms\":2000}");
    inflight.send_raw(msg.as_bytes()).unwrap();
    // A shutdown that overtook the decide would rightly reject it: wait
    // until the server has admitted it.
    wait_for_inflight(&mut client, 1);

    let mut admin = Client::connect(&*addr).unwrap();
    let reply = admin.shutdown_server().unwrap();
    assert_eq!(reply_status(&reply), "ok");

    let health = client.health().unwrap();
    assert_eq!(
        health.get("state").and_then(Json::as_str),
        Some("draining"),
        "protocol health did not flip: {health:?}"
    );
    let (_, hbody) = http_get(&metrics_addr, "/health");
    assert!(
        hbody.contains("\"state\":\"draining\""),
        "http health did not flip: {hbody}"
    );
    let (_, body) = http_get(&metrics_addr, "/metrics");
    assert!(body.contains("sufsat_draining 1"), "scrape during drain:\n{body}");

    // The admitted job still gets its answer, and the final report obeys
    // the counter invariant.
    let reply = inflight.read_reply().unwrap();
    assert_eq!(reply_status(&reply), "ok");
    let report = handle.wait();
    assert_eq!(report.inflight, 0);
    assert_eq!(
        report.counters.requests,
        report.counters.ok + report.counters.errors + report.counters.overloaded,
        "counter invariant violated: {:?}",
        report.counters
    );
}
