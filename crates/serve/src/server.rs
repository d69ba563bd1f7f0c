//! The accept loop, per-connection workers, admission control, and
//! graceful shutdown.
//!
//! One [`Server`] owns one index behind a reader-writer lock. Reads
//! (k-NN, range, stats) run under the shared lock — concurrently
//! across connections — while inserts and deletes take the exclusive
//! lock. Adjacent k-NN/range requests pipelined on one connection are
//! lowered once by [`sr_wire::lower`] and coalesced into a single
//! [`sr_exec::run_query_batch`] fan-out, whose merged metrics snapshot
//! is folded into the service-lifetime recorder. Every other request, a
//! lone query included, is answered on the connection thread by
//! [`sr_wire::execute`] (a `Stats` request adds the recorder's metrics).

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use sr_obs::StatsRecorder;
use sr_query::{QuerySpec, SpatialIndex};
use sr_wire::{Decoded, RemoteError, Request, Response, WireError};

use crate::error::ServeError;

// srlint: ordering -- serve-wide control plane: `shutdown` is a SeqCst flag so a Shutdown observed by any connection thread is seen by the accept loop and every poll loop at their next check; `active` is a SeqCst admission counter whose increment must not reorder around the capacity test. No data is published through these atomics — the index itself is behind the RwLock.

/// How long a connection thread blocks in `read` before re-checking
/// the shutdown flag. Bounds shutdown latency, not throughput: bytes
/// arriving earlier wake the read immediately.
const POLL: Duration = Duration::from_millis(50);

/// Upper bound on one response write. A peer that stops draining its
/// socket loses the connection instead of pinning a worker forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Socket read chunk size.
const READ_CHUNK: usize = 16 * 1024;

/// Tunables for [`Server::start`]. The CLI maps `srtool serve` flags
/// onto this one-to-one.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (port 0 picks one).
    pub addr: String,
    /// Worker threads for one coalesced query batch; 0 is taken as 1,
    /// as `max_batch` is.
    pub threads: usize,
    /// Admission cap: connections beyond this are answered with a
    /// typed `Overloaded` error and closed.
    pub max_conns: usize,
    /// Most requests coalesced into one batch per connection round.
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            max_conns: 64,
            max_batch: 128,
        }
    }
}

/// State shared between the accept loop and every connection thread.
struct Shared {
    index: sr_pager::RwLock<Box<dyn SpatialIndex>>,
    recorder: StatsRecorder,
    shutdown: AtomicBool,
    active: AtomicU64,
    cfg: ServeConfig,
    local: SocketAddr,
}

/// A running query service. Dropping the handle does not stop it; call
/// [`Server::wait`] to block until a `Shutdown` request (or
/// [`Server::stop`]) has drained it.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<Result<(), ServeError>>>,
}

impl Server {
    /// Bind `cfg.addr` and start serving `index`. Returns once the
    /// listener is live; queries are answered on background threads.
    pub fn start(index: Box<dyn SpatialIndex>, cfg: ServeConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&cfg.addr).map_err(|source| ServeError::Bind {
            addr: cfg.addr.clone(),
            source,
        })?;
        let local = listener.local_addr().map_err(ServeError::Io)?;
        let shared = Arc::new(Shared {
            index: sr_pager::RwLock::new(index),
            recorder: StatsRecorder::new(),
            shutdown: AtomicBool::new(false),
            active: AtomicU64::new(0),
            cfg,
            local,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::spawn(move || accept_loop(&accept_shared, &listener));
        Ok(Server {
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local
    }

    /// Request shutdown from the owning side, as if a `Shutdown` frame
    /// had arrived: stop admitting, drain, flush. Pair with
    /// [`Server::wait`].
    pub fn stop(&self) {
        begin_shutdown(&self.shared);
    }

    /// Block until the service has shut down and the index is flushed.
    /// After an error-free `wait`, reopening the index replays zero
    /// WAL frames.
    pub fn wait(mut self) -> Result<(), ServeError> {
        match self.accept.take() {
            Some(handle) => match handle.join() {
                Ok(result) => result,
                Err(_) => Err(ServeError::Protocol("accept loop panicked".to_string())),
            },
            None => Ok(()),
        }
    }
}

/// Accept until shutdown, then drain workers and flush the index.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) -> Result<(), ServeError> {
    let mut workers: Vec<thread::JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // The wake-up self-connect, or a client racing shutdown:
            // either way admissions are closed.
            drop(stream);
            break;
        }
        reap(&mut workers);
        let active = shared.active.fetch_add(1, Ordering::SeqCst) + 1;
        let max = shared.cfg.max_conns as u64;
        if active > max {
            shared.active.fetch_sub(1, Ordering::SeqCst);
            refuse(stream, active, max);
            continue;
        }
        let conn_shared = Arc::clone(shared);
        workers.push(thread::spawn(move || {
            serve_conn(&conn_shared, stream);
            conn_shared.active.fetch_sub(1, Ordering::SeqCst);
        }));
    }
    for handle in workers {
        let _ = handle.join();
    }
    // All workers are gone, so the exclusive lock is immediate; flush
    // checkpoints the pager and truncates the WAL, making the
    // subsequent open replay-free.
    let guard = shared.index.write();
    guard.flush().map_err(ServeError::Index)
}

/// Join finished workers so the handle list stays bounded under churn.
fn reap(workers: &mut Vec<thread::JoinHandle<()>>) {
    let mut live = Vec::with_capacity(workers.len());
    for handle in workers.drain(..) {
        if handle.is_finished() {
            let _ = handle.join();
        } else {
            live.push(handle);
        }
    }
    *workers = live;
}

/// Answer an over-capacity connection with a typed `Overloaded` frame
/// and close it. Best-effort: the refusal itself must never block the
/// accept loop.
fn refuse(mut stream: TcpStream, active: u64, max: u64) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let resp = Response::Error(RemoteError::Overloaded { active, max });
    if let Ok(bytes) = sr_wire::encode_response(&resp) {
        let _ = stream.write_all(&bytes);
    }
}

/// Flip the shutdown flag and wake the accept loop out of `accept()`
/// with a throwaway self-connection.
fn begin_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(shared.local);
}

/// What the connection loop should do after a processed batch.
enum Flow {
    Continue,
    Close,
    Shutdown,
}

/// Serve one connection until EOF, error, or shutdown. Every complete
/// frame is answered in order; buffered requests are drained before
/// the shutdown flag closes the connection.
fn serve_conn(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    loop {
        let mut batch: Vec<Request> = Vec::new();
        loop {
            if batch.len() >= shared.cfg.max_batch.max(1) {
                break;
            }
            match sr_wire::decode_request(&buf, sr_wire::DEFAULT_MAX_BODY) {
                Ok(Decoded::Frame { msg, consumed }) => {
                    buf.drain(..consumed);
                    let shutdown = matches!(msg, Request::Shutdown);
                    batch.push(msg);
                    if shutdown {
                        break;
                    }
                }
                Ok(Decoded::Incomplete) => break,
                Err(WireError::TooLarge { len, max }) => {
                    let resp = Response::Error(RemoteError::TooLarge { len, max });
                    let _ = write_response(&mut stream, &resp);
                    return;
                }
                Err(WireError::Corrupt { detail }) => {
                    let resp = Response::Error(RemoteError::BadRequest(format!(
                        "corrupt frame: {detail}"
                    )));
                    let _ = write_response(&mut stream, &resp);
                    return;
                }
            }
        }
        if !batch.is_empty() {
            match process_batch(shared, &mut stream, &batch) {
                Flow::Continue => continue,
                Flow::Close => return,
                Flow::Shutdown => {
                    begin_shutdown(shared);
                    // A `Shutdown` ends its batch: every complete frame
                    // already read behind it is refused, so each frame
                    // still gets its response.
                    while let Ok(Decoded::Frame { consumed, .. }) =
                        sr_wire::decode_request(&buf, sr_wire::DEFAULT_MAX_BODY)
                    {
                        buf.drain(..consumed);
                        let refusal = Response::Error(RemoteError::ShuttingDown);
                        if write_response(&mut stream, &refusal).is_err() {
                            break;
                        }
                    }
                    return;
                }
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

/// Answer one decoded batch in request order. A run of two or more
/// adjacent k-NN/range requests goes out as one [`fan_out`]; every
/// other request, a lone query included, is answered on this thread.
fn process_batch(shared: &Shared, stream: &mut TcpStream, batch: &[Request]) -> Flow {
    let mut rest = batch;
    while let Some(req) = rest.first() {
        let run = (rest.iter())
            .take_while(|r| matches!(r, Request::Knn { .. } | Request::Range { .. }))
            .count();
        let answers = match rest.get(..run) {
            Some(reads) if run > 1 => fan_out(shared, reads),
            _ => vec![answer_one(shared, req)],
        };
        rest = rest.get(answers.len()..).unwrap_or_default();
        for resp in &answers {
            if write_response(stream, resp).is_err() {
                return Flow::Close;
            }
        }
        if matches!(req, Request::Shutdown) {
            return Flow::Shutdown;
        }
    }
    Flow::Continue
}

/// Answer one request under the lock it needs.
fn answer_one(shared: &Shared, req: &Request) -> Response {
    match req {
        Request::Insert { .. } | Request::Delete { .. } => {
            let mut guard = shared.index.write();
            sr_wire::execute(req, guard.as_mut(), &shared.recorder)
        }
        Request::Stats => {
            let guard = shared.index.read();
            Response::Stats {
                json: sr_wire::stats_json_with(guard.as_ref(), &shared.recorder.snapshot()),
            }
        }
        read => {
            let guard = shared.index.read();
            sr_wire::execute_read(read, guard.as_ref(), &shared.recorder)
        }
    }
}

/// Answer a run of k-NN/range requests under one shared read lock: each
/// is lowered once, the specs go out in one `sr-exec` fan-out, and each
/// request gets its own answer, in order. A request refused while
/// lowering is answered with its refusal and does not stop its
/// neighbours from running.
fn fan_out(shared: &Shared, reads: &[Request]) -> Vec<Response> {
    let guard = shared.index.read();
    let index = guard.as_ref();
    let lowered: Vec<Result<QuerySpec<'_>, RemoteError>> = (reads.iter())
        .filter_map(|req| sr_wire::lower(req, index))
        .collect();
    let specs: Vec<QuerySpec<'_>> = lowered
        .iter()
        .filter_map(|l| l.as_ref().ok().copied())
        .collect();
    let threads = shared.cfg.threads.max(1);
    let answers: Vec<Response> = match sr_exec::run_query_batch(index, &specs, threads) {
        Ok(out) => {
            shared.recorder.absorb(&out.metrics);
            out.results.into_iter().map(sr_wire::answer).collect()
        }
        // Nothing to run (every request was refused), or the batch
        // itself failed: each spec gets the same typed failure.
        Err(e) => vec![Response::Error(RemoteError::Failed(e.to_string())); specs.len()],
    };
    let mut answers = answers.into_iter();
    (lowered.into_iter())
        .map(|l| match l {
            Ok(_) => answers.next().unwrap_or_else(|| {
                Response::Error(RemoteError::Failed("batch answer missing".to_string()))
            }),
            Err(refused) => Response::Error(refused),
        })
        .collect()
}

/// Encode and send one response. An unencodable payload (e.g. a rows
/// body past the frame size limit) degrades to an in-band `TooLarge`
/// error so the client always sees one response per request.
fn write_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    let bytes = match sr_wire::encode_response(resp) {
        Ok(bytes) => bytes,
        Err(WireError::TooLarge { len, max }) => {
            let fallback = Response::Error(RemoteError::TooLarge { len, max });
            sr_wire::encode_response(&fallback)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?
        }
        Err(e) => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                e.to_string(),
            ))
        }
    };
    stream.write_all(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use sr_obs::Recorder;
    use sr_pager::IoStats;
    use sr_pager::PageFile;
    use sr_query::{IndexError, Neighbor, QueryOutput, QueryShape};
    use std::sync::Mutex;

    /// What [`Huge`] saw happen, in order.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Seen {
        /// A query ran.
        Query,
        /// Something read the I/O counters: `sr-exec` does so once before
        /// and once after each batch, and nothing else on the read path
        /// does.
        Window,
    }

    /// An index that claims more points than one frame can answer and
    /// answers a k-NN with one row whose id is `k`, logging each query
    /// and each read of its I/O counters.
    struct Huge {
        pager: PageFile,
        seen: Arc<Mutex<Vec<Seen>>>,
    }

    impl SpatialIndex for Huge {
        fn kind_name(&self) -> &'static str {
            "huge"
        }
        fn dim(&self) -> usize {
            2
        }
        fn len(&self) -> u64 {
            u64::from(u32::MAX)
        }
        fn height(&self) -> u32 {
            1
        }
        fn num_leaves(&self) -> Result<u64, IndexError> {
            Ok(1)
        }
        fn insert(&mut self, _point: &[f32], _data: u64) -> Result<(), IndexError> {
            Err(IndexError::Unsupported("insert"))
        }
        fn query(
            &self,
            spec: &QuerySpec<'_>,
            _rec: &dyn Recorder,
        ) -> Result<QueryOutput, IndexError> {
            self.seen.lock().unwrap().push(Seen::Query);
            let QueryShape::Knn { k } = spec.shape else {
                return Err(IndexError::Unsupported("range"));
            };
            let rows = vec![Neighbor {
                dist2: 0.0,
                data: k as u64,
            }];
            Ok(QueryOutput::from_rows(rows))
        }
        fn pager(&self) -> &PageFile {
            &self.pager
        }
        fn io_stats(&self) -> IoStats {
            self.seen.lock().unwrap().push(Seen::Window);
            self.pager.stats()
        }
        fn flush(&self) -> Result<(), IndexError> {
            Ok(())
        }
    }

    fn knn(k: u32) -> Request {
        Request::Knn {
            query: vec![0.0, 0.0],
            k,
        }
    }

    fn row(data: u64) -> Response {
        Response::Rows(vec![sr_wire::Row { data, dist: 0.0 }])
    }

    #[test]
    fn a_refused_knn_between_two_good_ones_leaves_them_one_fan_out() {
        for threads in [0, 1] {
            refused_knn_between_two_good_ones(threads);
        }
    }

    fn refused_knn_between_two_good_ones(threads: usize) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let index = Huge {
            pager: PageFile::create_in_memory(512).unwrap(),
            seen: Arc::clone(&seen),
        };
        let cfg = ServeConfig {
            threads,
            ..ServeConfig::default()
        };
        let server = Server::start(Box::new(index), cfg).unwrap();
        let mut client = Client::connect(&server.local_addr().to_string()).unwrap();

        // A lone query is answered on its own, outside any batch.
        assert_eq!(client.call(&knn(3)).unwrap(), row(3));
        // u32::MAX rows cannot fit one frame: refused before it runs,
        // while both its neighbours are answered, in order.
        let resps = client.pipeline(&[knn(1), knn(u32::MAX), knn(2)]).unwrap();
        assert_eq!(resps.first(), Some(&row(1)));
        assert!(matches!(
            resps.get(1),
            Some(Response::Error(RemoteError::TooLarge { .. }))
        ));
        assert_eq!(resps.get(2), Some(&row(2)));

        let seen = seen.lock().unwrap().clone();
        let queries = seen.iter().filter(|&&s| s == Seen::Query).count();
        assert_eq!(queries, 3, "the refused query ran, or one ran twice");
        use Seen::{Query, Window};
        assert_eq!(seen.first(), Some(&Query), "the lone query was batched");
        assert_eq!(
            seen.get(1..),
            Some(&[Window, Query, Query, Window][..]),
            "the good queries were not one fan-out"
        );
        server.stop();
        server.wait().unwrap();
    }
}
