//! The one place [`Request`] values are interpreted.
//!
//! Both the server's per-connection dispatch and the CLI's offline
//! `knn` / `range` / `insert` subcommands call [`execute`] (or
//! [`execute_read`] on the shared read path), so "what does a Knn
//! request do" has exactly one answer regardless of transport. Every
//! failure comes back as a [`Response::Error`] with a typed
//! [`RemoteError`] — executing a request cannot fail out-of-band.
//!
//! That includes an answer too large for one frame: a `Rows` body past
//! [`DEFAULT_MAX_BODY`], the cap a client decodes with, is answered with
//! [`RemoteError::TooLarge`] instead of a frame the client would reject.
//! A k-NN request whose answer is bound to exceed the cap is refused
//! before the index does any work.

use sr_obs::Recorder;
use sr_query::{IndexError, Neighbor, QuerySpec, SpatialIndex};

use crate::error::RemoteError;
use crate::frame::DEFAULT_MAX_BODY;
use crate::message::{Request, Response, Row};
use crate::stats::stats_json;

/// Fold an [`IndexError`] into the remote taxonomy: caller mistakes
/// become `BadRequest`/`Unsupported`, everything else `Failed`.
fn remote(e: IndexError) -> RemoteError {
    match e {
        IndexError::Unsupported(what) => RemoteError::Unsupported(what.to_string()),
        IndexError::DimensionMismatch { .. } | IndexError::InvalidRadius(_) => {
            RemoteError::BadRequest(e.to_string())
        }
        other => RemoteError::Failed(other.to_string()),
    }
}

/// The typed refusal for a `Rows` answer of `rows` rows, if its body —
/// a `u32` count, then a `u64` id and an `f64` distance per row — would
/// exceed [`DEFAULT_MAX_BODY`].
fn rows_too_large(rows: u64) -> Option<RemoteError> {
    let len = rows.saturating_mul(16).saturating_add(4);
    let max = DEFAULT_MAX_BODY as u64;
    (len > max).then_some(RemoteError::TooLarge { len, max })
}

/// The typed refusal for a request whose answer cannot fit one frame,
/// decided before any work is done: a k-NN request answers
/// `min(k, index.len())` rows. `None` for every other request; a range
/// answer's size is known only after it runs.
pub fn oversized_answer(req: &Request, index: &dyn SpatialIndex) -> Option<RemoteError> {
    match req {
        Request::Knn { k, .. } => rows_too_large(u64::from(*k).min(index.len())),
        _ => None,
    }
}

/// Fold a neighbor list into a `Rows` response. Distances cross the
/// wire as Euclidean (`sqrt(dist2)`) `f64`s, so a client printing them
/// matches the offline CLI byte for byte. A list too long for one frame
/// becomes a typed `TooLarge` error.
pub fn rows_response(rows: &[Neighbor]) -> Response {
    if let Some(e) = rows_too_large(rows.len() as u64) {
        return Response::Error(e);
    }
    Response::Rows(
        rows.iter()
            .map(|n| Row {
                data: n.data,
                dist: n.dist2.sqrt(),
            })
            .collect(),
    )
}

fn run_query(index: &dyn SpatialIndex, spec: &QuerySpec<'_>, rec: &dyn Recorder) -> Response {
    match index.query(spec, rec) {
        Ok(out) => rows_response(&out.rows),
        Err(e) => Response::Error(remote(e)),
    }
}

/// Execute one request against an index, reads and writes alike.
pub fn execute(req: &Request, index: &mut dyn SpatialIndex, rec: &dyn Recorder) -> Response {
    match req {
        Request::Insert { point, data } => match index.insert(point, *data) {
            Ok(()) => Response::Ack { n: 1 },
            Err(e) => Response::Error(remote(e)),
        },
        Request::Delete { point, data } => match index.delete(point, *data) {
            Ok(found) => Response::Ack {
                n: u64::from(found),
            },
            Err(e) => Response::Error(remote(e)),
        },
        read => execute_read(read, index, rec),
    }
}

/// Execute a read-only request over `&dyn SpatialIndex` — the path the
/// server runs under a shared read lock and coalesces into `sr-exec`
/// batches. A write request arriving here is answered with a typed
/// `BadRequest`, not executed.
pub fn execute_read(req: &Request, index: &dyn SpatialIndex, rec: &dyn Recorder) -> Response {
    if let Some(e) = oversized_answer(req, index) {
        return Response::Error(e);
    }
    match req {
        // Shutdown's side effects (drain + flush) belong to the server
        // loop; as a request *per se* it acknowledges like a ping.
        Request::Ping | Request::Shutdown => Response::Ack { n: 0 },
        Request::Knn { query, k } => run_query(index, &QuerySpec::knn(query, *k as usize), rec),
        Request::Range { query, radius } => {
            run_query(index, &QuerySpec::range(query, *radius), rec)
        }
        Request::Stats => Response::Stats {
            json: stats_json(index),
        },
        Request::Insert { .. } | Request::Delete { .. } => Response::Error(
            RemoteError::BadRequest("write request on a read-only execution path".to_string()),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_pager::PageFile;
    use sr_query::{brute_force_knn, brute_force_range, QueryOutput, QueryShape};

    struct Brute {
        pager: PageFile,
        points: Vec<(Vec<f32>, u64)>,
    }

    impl Brute {
        fn sample() -> Brute {
            Brute {
                pager: PageFile::create_in_memory(512).expect("in-memory pager"),
                points: vec![
                    (vec![0.0, 0.0], 0),
                    (vec![1.0, 0.0], 1),
                    (vec![0.0, 2.0], 2),
                ],
            }
        }
    }

    impl SpatialIndex for Brute {
        fn kind_name(&self) -> &'static str {
            "brute"
        }
        fn dim(&self) -> usize {
            2
        }
        fn len(&self) -> u64 {
            self.points.len() as u64
        }
        fn height(&self) -> u32 {
            1
        }
        fn num_leaves(&self) -> Result<u64, IndexError> {
            Ok(1)
        }
        fn insert(&mut self, point: &[f32], data: u64) -> Result<(), IndexError> {
            if point.len() != 2 {
                return Err(IndexError::DimensionMismatch {
                    expected: 2,
                    got: point.len(),
                });
            }
            self.points.push((point.to_vec(), data));
            Ok(())
        }
        fn delete(&mut self, point: &[f32], data: u64) -> Result<bool, IndexError> {
            let before = self.points.len();
            self.points.retain(|(p, d)| !(p == point && *d == data));
            Ok(self.points.len() < before)
        }
        fn query(
            &self,
            spec: &QuerySpec<'_>,
            _rec: &dyn Recorder,
        ) -> Result<QueryOutput, IndexError> {
            let flat = self.points.iter().map(|(p, id)| (p.as_slice(), *id));
            let rows = match spec.shape {
                QueryShape::Knn { k } => brute_force_knn(flat, spec.point, k),
                QueryShape::Range { radius } => {
                    if radius.is_nan() || radius < 0.0 {
                        return Err(IndexError::InvalidRadius(radius));
                    }
                    brute_force_range(flat, spec.point, radius)
                }
            };
            Ok(QueryOutput::from_rows(rows))
        }
        fn pager(&self) -> &PageFile {
            &self.pager
        }
        fn flush(&self) -> Result<(), IndexError> {
            Ok(self.pager.flush()?)
        }
    }

    #[test]
    fn knn_and_range_return_rows_with_sqrt_distances() {
        let mut ix = Brute::sample();
        let resp = execute(
            &Request::Knn {
                query: vec![0.0, 0.0],
                k: 2,
            },
            &mut ix,
            &sr_obs::Noop,
        );
        match resp {
            Response::Rows(rows) => {
                assert_eq!(rows.len(), 2);
                assert_eq!(rows.first().map(|r| r.data), Some(0));
                assert_eq!(rows.get(1).map(|r| (r.data, r.dist)), Some((1, 1.0)));
            }
            other => panic!("expected rows, got {other:?}"),
        }
        let resp = execute_read(
            &Request::Range {
                query: vec![0.0, 0.0],
                radius: 1.5,
            },
            &ix,
            &sr_obs::Noop,
        );
        match resp {
            Response::Rows(rows) => {
                assert_eq!(rows.iter().map(|r| r.data).collect::<Vec<_>>(), vec![0, 1])
            }
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn max_k_request_answers_every_row() {
        // `k` travels as a u32; the largest one must be answered with
        // every point, not abort the process preallocating for it.
        let mut ix = Brute::sample();
        let req = Request::Knn {
            query: vec![0.0, 0.0],
            k: u32::MAX,
        };
        match execute(&req, &mut ix, &sr_obs::Noop) {
            Response::Rows(rows) => {
                assert_eq!(
                    rows.iter().map(|r| r.data).collect::<Vec<_>>(),
                    vec![0, 1, 2]
                )
            }
            other => panic!("expected rows, got {other:?}"),
        }
        assert_eq!(
            execute_read(&Request::Ping, &ix, &sr_obs::Noop),
            Response::Ack { n: 0 }
        );
    }

    /// An index that claims 300k points and answers every query with
    /// `rows` rows, counting the queries it is asked to run.
    struct Huge {
        pager: PageFile,
        rows: usize,
        queries: std::sync::atomic::AtomicUsize,
    }

    impl Huge {
        fn new(rows: usize) -> Huge {
            Huge {
                pager: PageFile::create_in_memory(512).expect("in-memory pager"),
                rows,
                queries: std::sync::atomic::AtomicUsize::new(0),
            }
        }

        fn queries(&self) -> usize {
            self.queries.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl SpatialIndex for Huge {
        fn kind_name(&self) -> &'static str {
            "huge"
        }
        fn dim(&self) -> usize {
            2
        }
        fn len(&self) -> u64 {
            300_000
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
        fn delete(&mut self, _point: &[f32], _data: u64) -> Result<bool, IndexError> {
            Err(IndexError::Unsupported("delete"))
        }
        fn query(
            &self,
            _spec: &QuerySpec<'_>,
            _rec: &dyn Recorder,
        ) -> Result<QueryOutput, IndexError> {
            self.queries
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let rows = (0..self.rows as u64)
                .map(|data| Neighbor { dist2: 0.0, data })
                .collect();
            Ok(QueryOutput::from_rows(rows))
        }
        fn pager(&self) -> &PageFile {
            &self.pager
        }
        fn flush(&self) -> Result<(), IndexError> {
            Ok(())
        }
    }

    #[test]
    fn knn_answer_past_the_frame_cap_is_refused_before_the_query_runs() {
        let ix = Huge::new(0);
        let req = Request::Knn {
            query: vec![0.0, 0.0],
            k: u32::MAX,
        };
        // min(k, len) = 300k rows of 16 bytes, plus the 4-byte count.
        let too_large = RemoteError::TooLarge {
            len: 4 + 16 * 300_000,
            max: DEFAULT_MAX_BODY as u64,
        };
        assert_eq!(oversized_answer(&req, &ix), Some(too_large.clone()));
        assert_eq!(
            execute_read(&req, &ix, &sr_obs::Noop),
            Response::Error(too_large)
        );
        assert_eq!(ix.queries(), 0, "the index must not run the query");
        // The largest k whose answer fits one frame still runs.
        let fits = Request::Knn {
            query: vec![0.0, 0.0],
            k: u32::try_from((DEFAULT_MAX_BODY - 4) / 16).unwrap(),
        };
        assert_eq!(oversized_answer(&fits, &ix), None);
        assert!(matches!(
            execute_read(&fits, &ix, &sr_obs::Noop),
            Response::Rows(_)
        ));
        assert_eq!(ix.queries(), 1);
    }

    #[test]
    fn range_answer_past_the_frame_cap_is_a_typed_error() {
        let ix = Huge::new(300_000);
        let req = Request::Range {
            query: vec![0.0, 0.0],
            radius: 1.0,
        };
        assert_eq!(
            oversized_answer(&req, &ix),
            None,
            "known only after it runs"
        );
        assert_eq!(
            execute_read(&req, &ix, &sr_obs::Noop),
            Response::Error(RemoteError::TooLarge {
                len: 4 + 16 * 300_000,
                max: DEFAULT_MAX_BODY as u64,
            })
        );
        assert_eq!(ix.queries(), 1);
        let fits = Huge::new((DEFAULT_MAX_BODY - 4) / 16);
        let resp = execute_read(&req, &fits, &sr_obs::Noop);
        match &resp {
            Response::Rows(rows) => assert_eq!(rows.len(), (DEFAULT_MAX_BODY - 4) / 16),
            other => panic!("expected rows, got {other:?}"),
        }
        // The largest answer that passes still decodes under the cap.
        let frame = crate::encode_response(&resp).unwrap();
        assert!(matches!(
            crate::decode_response(&frame, DEFAULT_MAX_BODY),
            Ok(crate::Decoded::Frame { .. })
        ));
    }

    #[test]
    fn writes_execute_and_are_refused_on_the_read_path() {
        let mut ix = Brute::sample();
        let ins = Request::Insert {
            point: vec![5.0, 5.0],
            data: 9,
        };
        assert_eq!(
            execute(&ins, &mut ix, &sr_obs::Noop),
            Response::Ack { n: 1 }
        );
        assert_eq!(ix.len(), 4);
        let del = Request::Delete {
            point: vec![5.0, 5.0],
            data: 9,
        };
        assert_eq!(
            execute(&del, &mut ix, &sr_obs::Noop),
            Response::Ack { n: 1 }
        );
        assert_eq!(
            execute(&del, &mut ix, &sr_obs::Noop),
            Response::Ack { n: 0 }
        );
        assert!(matches!(
            execute_read(&ins, &ix, &sr_obs::Noop),
            Response::Error(RemoteError::BadRequest(_))
        ));
    }

    #[test]
    fn errors_come_back_typed() {
        let mut ix = Brute::sample();
        let bad_dim = Request::Knn {
            query: vec![1.0, 2.0, 3.0],
            k: 1,
        };
        // brute_force_knn ignores dim, so exercise the taxonomy through
        // insert (DimensionMismatch) and range (InvalidRadius).
        let _ = bad_dim;
        assert!(matches!(
            execute(
                &Request::Insert {
                    point: vec![1.0],
                    data: 0
                },
                &mut ix,
                &sr_obs::Noop
            ),
            Response::Error(RemoteError::BadRequest(_))
        ));
        assert!(matches!(
            execute_read(
                &Request::Range {
                    query: vec![0.0, 0.0],
                    radius: -1.0
                },
                &ix,
                &sr_obs::Noop
            ),
            Response::Error(RemoteError::BadRequest(_))
        ));
        assert_eq!(
            execute_read(&Request::Ping, &ix, &sr_obs::Noop),
            Response::Ack { n: 0 }
        );
    }

    #[test]
    fn stats_carries_the_schema_version() {
        let ix = Brute::sample();
        match execute_read(&Request::Stats, &ix, &sr_obs::Noop) {
            Response::Stats { json } => {
                assert!(json.starts_with("{\"schema_version\":"), "{json}");
                assert!(json.contains("\"kind\":\"brute\""), "{json}");
                assert!(json.contains("\"wal\":"), "{json}");
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }
}
