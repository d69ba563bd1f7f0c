//! End-to-end integration of the TCP query service, through the public
//! facade: an on-disk SR-tree served over localhost, hammered by eight
//! concurrent client threads mixing k-NN, range, and insert traffic —
//! every query answer checked oracle-exact against a brute-force scan —
//! plus the admission-control and graceful-shutdown contracts: an
//! over-capacity connection gets a typed `Overloaded` (never a hang or
//! a silent drop), and a `Shutdown` request drains and flushes so the
//! reopened index replays zero WAL frames.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use sr_testkit::TempDir;
use srtree::dataset::{sample_queries, uniform};
use srtree::obs::{Counter, StatsRecorder};
use srtree::query::{brute_force_knn, brute_force_range, QuerySpec, SpatialIndex};
use srtree::serve::{Client, ServeConfig, ServeError, Server};
use srtree::tree::SrTree;
use srtree::wire::{RemoteError, Request, Response};

const DIM: usize = 8;
const N: usize = 2_000;
const K: usize = 9;
const THREADS: usize = 8;
const PAGE: usize = 8192;

fn cfg(threads: usize, max_conns: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        max_conns,
        ..ServeConfig::default()
    }
}

/// Inserted points live at +100 per coordinate: farther from any
/// unit-cube query than every original point, so concurrent inserts
/// cannot perturb the k-NN/range oracle.
fn shifted(coords: &[f32]) -> Vec<f32> {
    coords.iter().map(|c| c + 100.0).collect()
}

#[test]
fn eight_threads_mixed_load_is_oracle_exact_and_shutdown_is_clean() {
    let points = uniform(N, DIM, 41);
    let queries = sample_queries(&points, 24, 43);
    let dir = TempDir::new("srtree-serve").unwrap();
    let path = dir.file("serve.pages");
    {
        let mut tree = SrTree::create(&path, DIM).unwrap();
        for (i, p) in points.iter().enumerate() {
            tree.insert(p.clone(), i as u64).unwrap();
        }
        tree.flush().unwrap();
    }

    let tree = SrTree::open(&path).unwrap();
    let server = Server::start(Box::new(tree), cfg(4, 2 * THREADS)).unwrap();
    let addr = server.local_addr().to_string();

    let coords: Arc<Vec<Vec<f32>>> = Arc::new(points.iter().map(|p| p.coords().to_vec()).collect());
    let queries: Arc<Vec<Vec<f32>>> =
        Arc::new(queries.iter().map(|q| q.coords().to_vec()).collect());

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let addr = addr.clone();
        let coords = Arc::clone(&coords);
        let queries = Arc::clone(&queries);
        handles.push(thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap();
            let oracle = || {
                coords
                    .iter()
                    .enumerate()
                    .map(|(i, c)| (c.as_slice(), i as u64))
            };
            for (qi, q) in queries.iter().enumerate() {
                if (qi + t) % 2 == 0 {
                    let want = brute_force_knn(oracle(), q, K);
                    let got = client.knn(q, K as u32).unwrap();
                    assert_eq!(
                        got.iter().map(|r| r.data).collect::<Vec<_>>(),
                        want.iter().map(|n| n.data).collect::<Vec<_>>(),
                        "thread {t} query {qi}: k-NN ids diverged from oracle"
                    );
                    for (row, n) in got.iter().zip(want.iter()) {
                        assert!(
                            (row.dist - n.dist2.sqrt()).abs() <= 1e-9 * (1.0 + n.dist2.sqrt()),
                            "thread {t} query {qi}: distance diverged"
                        );
                    }
                } else {
                    // Radius just past the 5th neighbor: a non-trivial,
                    // query-dependent result set.
                    let ref_knn = brute_force_knn(oracle(), q, 5);
                    let radius = ref_knn.last().map(|n| n.dist2.sqrt()).unwrap_or(0.1) * 1.001;
                    let want = brute_force_range(oracle(), q, radius);
                    let got = client.range(q, radius).unwrap();
                    assert_eq!(
                        got.iter().map(|r| r.data).collect::<Vec<_>>(),
                        want.iter().map(|n| n.data).collect::<Vec<_>>(),
                        "thread {t} query {qi}: range ids diverged from oracle"
                    );
                }
                // Interleave writes: far-away points that cannot enter
                // any unit-cube answer, unique payload per thread/query.
                if qi < 4 {
                    let p = shifted(q);
                    client
                        .insert(&p, 1_000_000 + (t * 100 + qi) as u64)
                        .unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // The service stats document carries the schema marker and the
    // service-lifetime query metrics.
    let mut client = Client::connect(&addr).unwrap();
    client.ping().unwrap();
    let stats = client.stats().unwrap();
    assert!(
        stats.contains("\"schema_version\":1"),
        "stats missing schema_version: {stats}"
    );
    assert!(
        stats.contains("\"metrics\""),
        "stats missing metrics: {stats}"
    );
    assert!(
        stats.contains("\"wal\""),
        "stats missing wal block: {stats}"
    );

    // Graceful shutdown: the ack arrives, the server drains and exits.
    client.shutdown().unwrap();
    server.wait().unwrap();

    // The flush-on-shutdown contract: reopening replays nothing, and
    // every acknowledged insert is present.
    let tree = SrTree::open(&path).unwrap();
    assert_eq!(
        tree.pager().wal_stats().replays,
        0,
        "clean shutdown must leave an empty WAL"
    );
    assert_eq!(tree.len(), (N + THREADS * 4) as u64);
    let probe = shifted(&queries[0]);
    let hit = &tree.knn(&probe, 1).unwrap()[0];
    assert!(hit.dist2 < 1e-9, "inserted point not found after reopen");
    assert_eq!(hit.data, 1_000_000);
}

#[test]
fn pipelined_batches_match_individual_calls_and_drain_before_shutdown() {
    let points = uniform(400, DIM, 47);
    let mut tree = SrTree::create_in_memory(DIM, PAGE).unwrap();
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    let server = Server::start(Box::new(tree), cfg(2, 8)).unwrap();
    let addr = server.local_addr().to_string();

    // Individual calls first.
    let mut one = Client::connect(&addr).unwrap();
    let qs: Vec<Vec<f32>> = points.iter().take(6).map(|p| p.coords().to_vec()).collect();
    let mut individual = Vec::new();
    for q in &qs {
        individual.push(Response::Rows(one.knn(q, 5).unwrap()));
        individual.push(Response::Rows(one.range(q, 0.4).unwrap()));
    }

    // The same twelve queries pipelined as one adjacent run (the shape
    // the server coalesces into a single sr-exec batch), with a
    // Shutdown frame buffered behind them: all twelve answers must
    // drain, in order, before the ack.
    let mut reqs = Vec::new();
    for q in &qs {
        reqs.push(Request::Knn {
            query: q.clone(),
            k: 5,
        });
        reqs.push(Request::Range {
            query: q.clone(),
            radius: 0.4,
        });
    }
    reqs.push(Request::Shutdown);
    let mut piped = Client::connect(&addr).unwrap();
    let resps = piped.pipeline(&reqs).unwrap();
    assert_eq!(resps.len(), individual.len() + 1);
    assert_eq!(resps[..individual.len()], individual[..]);
    assert_eq!(resps[individual.len()], Response::Ack { n: 0 });
    server.wait().unwrap();
}

/// A request pipelined behind a `Shutdown` gets its own typed refusal,
/// not a closed connection: in the `Shutdown`'s batch, and (at
/// `max_batch` 1) still buffered past it.
#[test]
fn a_request_pipelined_behind_shutdown_is_refused_not_dropped() {
    for max_batch in [ServeConfig::default().max_batch, 1] {
        let tree = SrTree::create_in_memory(DIM, PAGE).unwrap();
        let config = ServeConfig {
            max_batch,
            ..cfg(1, 4)
        };
        let server = Server::start(Box::new(tree), config).unwrap();
        let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
        // One write, so the server reads both frames at once.
        let resps = client.pipeline(&[Request::Shutdown, Request::Ping]);
        let want = [
            Response::Ack { n: 0 },
            Response::Error(RemoteError::ShuttingDown),
        ];
        assert_eq!(resps.unwrap(), want, "max_batch {max_batch}");
        server.wait().unwrap();
    }
}

/// The unsigned integer member `key` of a stats document (every key the
/// tests read appears once in it).
fn stats_field(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {json}"))
        + pat.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

/// A wrong-dimension k-NN in the middle of a pipelined run is answered
/// with its own `BadRequest` and does not disturb its neighbours: every
/// other request gets the rows an offline `execute_read` gives, and each
/// runs exactly once — the service's pager reads equal its query
/// metrics' expansions, at one worker and at four.
#[test]
fn a_bad_query_in_a_pipelined_run_fails_alone_and_every_query_runs_once() {
    use srtree::wire::execute_read;
    for threads in [1, 4] {
        let points = uniform(N, DIM, 61);
        let mut tree = SrTree::create_in_memory(DIM, PAGE).unwrap();
        for (i, p) in points.iter().enumerate() {
            tree.insert(p.clone(), i as u64).unwrap();
        }
        let mut reqs: Vec<Request> = sample_queries(&points, 8, 67)
            .iter()
            .map(|q| Request::Knn {
                query: q.coords().to_vec(),
                k: K as u32,
            })
            .collect();
        let bad = reqs.len() / 2;
        reqs.insert(
            bad,
            Request::Knn {
                query: vec![0.5; DIM + 1],
                k: K as u32,
            },
        );
        let offline: Vec<Response> = (reqs.iter())
            .map(|r| execute_read(r, &tree, &srtree::obs::Noop))
            .collect();
        tree.pager().reset_stats();
        let server = Server::start(Box::new(tree), cfg(threads, 4)).unwrap();
        let mut client = Client::connect(&server.local_addr().to_string()).unwrap();

        let resps = client.pipeline(&reqs).unwrap();
        assert_eq!(resps.len(), reqs.len());
        for (i, (got, want)) in resps.iter().zip(&offline).enumerate() {
            if i == bad {
                assert!(
                    matches!(got, Response::Error(RemoteError::BadRequest(_))),
                    "T={threads}: the 9-d query got {got:?}"
                );
            } else {
                assert!(
                    matches!(got, Response::Rows(_)),
                    "T={threads} #{i}: {got:?}"
                );
                assert_eq!(got, want, "T={threads}: request {i} diverged from offline");
            }
        }

        let stats = client.stats().unwrap();
        for (io, metric) in [
            ("node_reads", "node_expansions"),
            ("leaf_reads", "leaf_expansions"),
        ] {
            assert!(stats_field(&stats, metric) > 0, "T={threads}: {stats}");
            assert_eq!(
                stats_field(&stats, io),
                stats_field(&stats, metric),
                "T={threads}: {io} != {metric}: a query ran more than once"
            );
        }
        server.stop();
        server.wait().unwrap();
    }
}

/// A served k-NN costs the service's metrics what an offline one costs a
/// `StatsRecorder`: a pipelined burst (the run the server hands to one
/// `sr-exec` batch) and a lone k-NN (answered through `execute_read`)
/// add to the server's `Stats` exactly the work counters the same
/// queries add in process — expansions, branches, prunes by shape,
/// points scored and abandons.
#[test]
fn served_query_metrics_equal_offline_metrics() {
    // Past the early-abandon kernel's head dimensions, so leaf scans
    // abandon entries.
    let dim = 16;
    let points = uniform(N, dim, 71);
    let mut tree = SrTree::create_in_memory(dim, PAGE).unwrap();
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    let queries = sample_queries(&points, 9, 73);
    let rec = StatsRecorder::new();
    for q in &queries {
        tree.query(&QuerySpec::knn(q.coords(), K), &rec).unwrap();
    }
    let offline = rec.snapshot();
    let server = Server::start(Box::new(tree), cfg(2, 4)).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();

    let before = client.stats().unwrap();
    let (lone, burst) = queries.split_last().unwrap();
    let reqs: Vec<Request> = (burst.iter())
        .map(|q| Request::Knn {
            query: q.coords().to_vec(),
            k: K as u32,
        })
        .collect();
    let resps = client.pipeline(&reqs).unwrap();
    assert!(resps.iter().all(|r| matches!(r, Response::Rows(_))));
    client.knn(lone.coords(), K as u32).unwrap();
    let after = client.stats().unwrap();

    for c in [
        Counter::NodeExpansions,
        Counter::LeafExpansions,
        Counter::BranchesConsidered,
        Counter::PruneEvents,
        Counter::PruneSphere,
        Counter::PruneRect,
        Counter::PointsScored,
        Counter::EarlyAbandons,
    ] {
        let served = stats_field(&after, c.name()) - stats_field(&before, c.name());
        assert_eq!(served, offline.counter(c), "{}: {after}", c.name());
    }
    assert!(offline.counter(Counter::PruneEvents) > 0);
    assert!(offline.counter(Counter::EarlyAbandons) > 0);
    server.stop();
    server.wait().unwrap();
}

#[test]
fn over_capacity_connections_get_typed_overloaded_and_slots_recycle() {
    let points = uniform(200, DIM, 53);
    let mut tree = SrTree::create_in_memory(DIM, PAGE).unwrap();
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    let server = Server::start(Box::new(tree), cfg(2, 2)).unwrap();
    let addr = server.local_addr().to_string();

    // Fill both admission slots; the pings prove both connections are
    // fully admitted before the third arrives.
    let mut a = Client::connect(&addr).unwrap();
    let mut b = Client::connect(&addr).unwrap();
    a.ping().unwrap();
    b.ping().unwrap();

    // The third connection is answered — not hung, not dropped — with
    // the typed backpressure error naming the cap.
    let mut c = Client::connect(&addr).unwrap();
    match c.ping() {
        Err(ServeError::Remote(RemoteError::Overloaded { max, .. })) => assert_eq!(max, 2),
        other => panic!("expected typed Overloaded, got {other:?}"),
    }

    // Slots recycle once the admitted connections hang up.
    drop(a);
    drop(b);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut d = Client::connect(&addr).unwrap();
        match d.ping() {
            Ok(()) => break,
            Err(ServeError::Remote(RemoteError::Overloaded { .. }))
                if Instant::now() < deadline =>
            {
                thread::sleep(Duration::from_millis(20));
            }
            other => panic!("slot never recycled: {other:?}"),
        }
    }

    server.stop();
    server.wait().unwrap();
}

/// A `Knn` frame carries `k: u32`, so any peer can ask for `u32::MAX`
/// neighbors. The server answers with every stored point, nearest
/// first, and keeps serving (the candidate heap once preallocated `k`
/// slots and aborted the process).
#[test]
fn huge_k_request_answers_every_point_and_the_server_survives() {
    let points = uniform(300, DIM, 59);
    let mut tree = SrTree::create_in_memory(DIM, PAGE).unwrap();
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u64).unwrap();
    }
    let server = Server::start(Box::new(tree), cfg(2, 4)).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let q = points[0].coords().to_vec();
    let rows = client.knn(&q, u32::MAX).unwrap();
    let want = brute_force_knn(
        points
            .iter()
            .enumerate()
            .map(|(i, p)| (p.coords(), i as u64)),
        &q,
        points.len(),
    );
    assert_eq!(rows.len(), points.len());
    assert_eq!(
        rows.iter().map(|r| r.data).collect::<Vec<_>>(),
        want.iter().map(|n| n.data).collect::<Vec<_>>()
    );
    client.ping().unwrap();
    server.stop();
    server.wait().unwrap();
}
