//! The accept loop, per-connection workers, admission control, and
//! graceful shutdown.
//!
//! One [`Server`] owns one index behind a reader-writer lock. Reads
//! (k-NN, range, stats) run under the shared lock — concurrently
//! across connections — while inserts and deletes take the exclusive
//! lock. Adjacent read requests pipelined on one connection are
//! coalesced into a single [`sr_exec::run_query_batch`] fan-out, whose
//! merged metrics snapshot is folded into the service-lifetime
//! recorder.

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
    /// Worker threads for one coalesced query batch.
    pub threads: usize,
    /// Admission cap: connections beyond this are answered with a
    /// typed `Overloaded` error and closed.
    pub max_conns: usize,
    /// Most requests coalesced into one batch per connection round.
    pub max_batch: usize,
    /// Largest accepted frame body in bytes.
    pub max_body: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            max_conns: 64,
            max_batch: 128,
            max_body: sr_wire::DEFAULT_MAX_BODY,
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
            match sr_wire::decode_request(&buf, shared.cfg.max_body) {
                Ok(Decoded::Frame { msg, consumed }) => {
                    buf.drain(..consumed);
                    batch.push(msg);
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

/// Answer one decoded batch in request order. Maximal runs of k-NN and
/// range requests are coalesced into a single `sr-exec` fan-out;
/// writes and stats are answered individually.
fn process_batch(shared: &Shared, stream: &mut TcpStream, batch: &[Request]) -> Flow {
    let mut i = 0usize;
    while i < batch.len() {
        let Some(req) = batch.get(i) else { break };
        if matches!(req, Request::Knn { .. } | Request::Range { .. }) {
            let mut j = i;
            let mut specs: Vec<QuerySpec<'_>> = Vec::new();
            while let Some(run) = batch.get(j) {
                match run {
                    Request::Knn { query, k } => specs.push(QuerySpec::knn(query, *k as usize)),
                    Request::Range { query, radius } => {
                        specs.push(QuerySpec::range(query, *radius));
                    }
                    _ => break,
                }
                j += 1;
            }
            for resp in run_reads(shared, &specs, batch, i, j) {
                if write_response(stream, &resp).is_err() {
                    return Flow::Close;
                }
            }
            i = j;
            continue;
        }
        let resp = match req {
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
            Request::Shutdown => Response::Ack { n: 0 },
            other => {
                let guard = shared.index.read();
                sr_wire::execute_read(other, guard.as_ref(), &shared.recorder)
            }
        };
        let closing = matches!(req, Request::Shutdown);
        if write_response(stream, &resp).is_err() {
            return Flow::Close;
        }
        if closing {
            return Flow::Shutdown;
        }
        i += 1;
    }
    Flow::Continue
}

/// Answer `batch[start..end]` (all k-NN/range, pre-lowered to `specs`)
/// under one shared read lock. Two or more queries go through the
/// `sr-exec` pool as one batch; if the pool rejects the batch, or a
/// request's answer cannot fit one frame (refused before it runs), fall
/// back to per-request execution so each request still gets its own
/// typed answer.
fn run_reads(
    shared: &Shared,
    specs: &[QuerySpec<'_>],
    batch: &[Request],
    start: usize,
    end: usize,
) -> Vec<Response> {
    let guard = shared.index.read();
    let reqs = batch.get(start..end).unwrap_or(&[]);
    let fits = |req: &Request| sr_wire::oversized_answer(req, guard.as_ref()).is_none();
    if specs.len() > 1 && reqs.iter().all(fits) {
        if let Ok(out) = sr_exec::run_query_batch(guard.as_ref(), specs, shared.cfg.threads) {
            shared.recorder.absorb(&out.metrics);
            return out
                .results
                .iter()
                .map(|rows| sr_wire::rows_response(rows))
                .collect();
        }
    }
    reqs.iter()
        .map(|req| sr_wire::execute_read(req, guard.as_ref(), &shared.recorder))
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
