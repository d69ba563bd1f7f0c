//! Blocking client for the query service: one TCP connection, typed
//! calls, and a pipelining helper that lets the server coalesce.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;

use sr_wire::{Decoded, Request, Response, Row};

use crate::error::ServeError;

/// Socket read chunk size.
const READ_CHUNK: usize = 16 * 1024;

/// A blocking connection to a [`Server`](crate::Server).
///
/// The typed helpers ([`Client::knn`], [`Client::insert`], ...) send
/// one request and demand the matching response kind; a typed server
/// error comes back as [`ServeError::Remote`]. [`Client::pipeline`]
/// writes a whole batch before reading any response — the shape the
/// server coalesces into one `sr-exec` fan-out.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:7878`).
    pub fn connect(addr: &str) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr).map_err(ServeError::Io)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Send one request frame without waiting for the response.
    pub fn send(&mut self, req: &Request) -> Result<(), ServeError> {
        let bytes = sr_wire::encode_request(req)?;
        self.stream.write_all(&bytes).map_err(ServeError::Io)
    }

    /// Read the next response frame, blocking until it is complete.
    pub fn recv(&mut self) -> Result<Response, ServeError> {
        let mut chunk = vec![0u8; READ_CHUNK];
        loop {
            match sr_wire::decode_response(&self.buf, sr_wire::DEFAULT_MAX_BODY)? {
                Decoded::Frame { msg, consumed } => {
                    self.buf.drain(..consumed);
                    return Ok(msg);
                }
                Decoded::Incomplete => {}
            }
            let n = self.stream.read(&mut chunk).map_err(ServeError::Io)?;
            if n == 0 {
                return Err(ServeError::Closed);
            }
            self.buf.extend_from_slice(chunk.get(..n).unwrap_or(&[]));
        }
    }

    /// One request, one response.
    pub fn call(&mut self, req: &Request) -> Result<Response, ServeError> {
        self.send(req)?;
        self.recv()
    }

    /// Send every request before reading any response; responses come
    /// back in request order. Adjacent k-NN/range requests in `reqs`
    /// reach the server as one coalescible run.
    pub fn pipeline(&mut self, reqs: &[Request]) -> Result<Vec<Response>, ServeError> {
        let mut bytes = Vec::new();
        for req in reqs {
            bytes.extend_from_slice(&sr_wire::encode_request(req)?);
        }
        self.stream.write_all(&bytes).map_err(ServeError::Io)?;
        reqs.iter().map(|_| self.recv()).collect()
    }

    /// k nearest neighbors of `query`, nearest first.
    pub fn knn(&mut self, query: &[f32], k: u32) -> Result<Vec<Row>, ServeError> {
        let req = Request::Knn {
            query: query.to_vec(),
            k,
        };
        match self.call(&req)? {
            Response::Rows(rows) => Ok(rows),
            Response::Error(e) => Err(ServeError::Remote(e)),
            other => Err(ServeError::Protocol(format!(
                "expected rows, got {other:?}"
            ))),
        }
    }

    /// All points within `radius` of `query`, nearest first.
    pub fn range(&mut self, query: &[f32], radius: f64) -> Result<Vec<Row>, ServeError> {
        let req = Request::Range {
            query: query.to_vec(),
            radius,
        };
        match self.call(&req)? {
            Response::Rows(rows) => Ok(rows),
            Response::Error(e) => Err(ServeError::Remote(e)),
            other => Err(ServeError::Protocol(format!(
                "expected rows, got {other:?}"
            ))),
        }
    }

    /// Insert one point.
    pub fn insert(&mut self, point: &[f32], data: u64) -> Result<(), ServeError> {
        let req = Request::Insert {
            point: point.to_vec(),
            data,
        };
        match self.call(&req)? {
            Response::Ack { .. } => Ok(()),
            Response::Error(e) => Err(ServeError::Remote(e)),
            other => Err(ServeError::Protocol(format!("expected ack, got {other:?}"))),
        }
    }

    /// Delete one `(point, data)` entry; `Ok(true)` if it existed.
    pub fn delete(&mut self, point: &[f32], data: u64) -> Result<bool, ServeError> {
        let req = Request::Delete {
            point: point.to_vec(),
            data,
        };
        match self.call(&req)? {
            Response::Ack { n } => Ok(n > 0),
            Response::Error(e) => Err(ServeError::Remote(e)),
            other => Err(ServeError::Protocol(format!("expected ack, got {other:?}"))),
        }
    }

    /// The service stats document: `srtool stats --json` plus a
    /// `"metrics"` member with service-lifetime query counters.
    pub fn stats(&mut self) -> Result<String, ServeError> {
        match self.call(&Request::Stats)? {
            Response::Stats { json } => Ok(json),
            Response::Error(e) => Err(ServeError::Remote(e)),
            other => Err(ServeError::Protocol(format!(
                "expected stats, got {other:?}"
            ))),
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        match self.call(&Request::Ping)? {
            Response::Ack { .. } => Ok(()),
            Response::Error(e) => Err(ServeError::Remote(e)),
            other => Err(ServeError::Protocol(format!("expected ack, got {other:?}"))),
        }
    }

    /// Ask the server to drain, flush, and exit. The acknowledgement
    /// arrives before the listener closes.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.call(&Request::Shutdown)? {
            Response::Ack { .. } => Ok(()),
            Response::Error(e) => Err(ServeError::Remote(e)),
            other => Err(ServeError::Protocol(format!("expected ack, got {other:?}"))),
        }
    }
}
