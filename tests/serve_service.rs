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
use srtree::query::{brute_force_knn, brute_force_range};
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
