//! Wire frame-format contract, exercised through the public `srtree`
//! facade: encode/decode round-trips for every request and response
//! kind, checksum rejection of *every* single-bit corruption of a
//! seeded frame corpus, and classification of every strict prefix as
//! `Incomplete` — never `Corrupt`, never a spurious frame.
//!
//! These are black-box guarantees remote clients in other languages may
//! rely on, so they pin the byte-level format — not just the behavior
//! of `sr_serve`'s own client, which `crates/serve`'s integration tests
//! cover end to end. The structure deliberately mirrors
//! `tests/wal_format.rs`: the wire frame is the WAL frame's trick
//! (salted CRCs, total decoding) applied to the network.

use srtree::wire::{
    decode_request, decode_response, encode_request, encode_response, Decoded, RemoteError,
    Request, Response, Row, WireError, DEFAULT_MAX_BODY,
};

/// Every request kind, with bodies covering empty, small, and
/// non-trivial float payloads.
fn request_corpus() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Knn {
            query: vec![0.25, -1.5, 3.0e-9, f32::MAX],
            k: 21,
        },
        Request::Range {
            query: vec![0.0; 16],
            radius: 0.327,
        },
        Request::Insert {
            point: vec![1.0, 2.0, 3.0],
            data: u64::MAX,
        },
        Request::Delete {
            point: vec![-4.5; 8],
            data: 0,
        },
        Request::Stats,
        Request::Shutdown,
    ]
}

/// Every response kind, including every error variant.
fn response_corpus() -> Vec<Response> {
    vec![
        Response::Rows(vec![
            Row {
                data: 17,
                dist: 0.0625,
            },
            Row {
                data: u64::MAX,
                dist: f64::MAX,
            },
        ]),
        Response::Rows(Vec::new()),
        Response::Ack { n: 800 },
        Response::Stats {
            json: "{\"schema_version\":1,\"kind\":\"sr\"}".to_string(),
        },
        Response::Error(RemoteError::Overloaded {
            active: 65,
            max: 64,
        }),
        Response::Error(RemoteError::ShuttingDown),
        Response::Error(RemoteError::TooLarge {
            len: 5 << 20,
            max: 4 << 20,
        }),
        Response::Error(RemoteError::Unsupported("static index".to_string())),
        Response::Error(RemoteError::BadRequest("dimension mismatch".to_string())),
        Response::Error(RemoteError::Failed("page I/O".to_string())),
    ]
}

#[test]
fn request_frames_round_trip_bit_exactly() {
    for req in request_corpus() {
        let bytes = encode_request(&req).unwrap();
        match decode_request(&bytes, DEFAULT_MAX_BODY).unwrap() {
            Decoded::Frame { msg, consumed } => {
                assert_eq!(msg, req);
                assert_eq!(
                    consumed,
                    bytes.len(),
                    "frame must consume exactly its bytes"
                );
            }
            Decoded::Incomplete => panic!("whole frame reported incomplete: {req:?}"),
        }
        // Trailing bytes belong to the next pipelined frame and must not
        // change the decode.
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0xAB; 7]);
        assert!(matches!(
            decode_request(&padded, DEFAULT_MAX_BODY).unwrap(),
            Decoded::Frame { consumed, .. } if consumed == bytes.len()
        ));
    }
}

#[test]
fn response_frames_round_trip_bit_exactly() {
    for resp in response_corpus() {
        let bytes = encode_response(&resp).unwrap();
        match decode_response(&bytes, DEFAULT_MAX_BODY).unwrap() {
            Decoded::Frame { msg, consumed } => {
                assert_eq!(msg, resp);
                assert_eq!(consumed, bytes.len());
            }
            Decoded::Incomplete => panic!("whole frame reported incomplete: {resp:?}"),
        }
    }
}

/// Every single-bit flip anywhere in a frame — kind byte, length
/// prefix, either checksum, body — must decode to `Corrupt`. Nothing
/// may decode to a valid frame (the server dispatches whatever
/// decodes), and no flip may hang the decoder waiting for more bytes
/// (the header checksum is verified before the length is trusted).
#[test]
fn every_single_bit_flip_is_rejected() {
    for req in request_corpus() {
        let bytes = encode_request(&req).unwrap();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                match decode_request(&flipped, DEFAULT_MAX_BODY) {
                    Err(WireError::Corrupt { .. }) => {}
                    other => {
                        panic!("{req:?}: flip of byte {byte} bit {bit} was not rejected: {other:?}")
                    }
                }
            }
        }
    }
    for resp in response_corpus() {
        let bytes = encode_response(&resp).unwrap();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                match decode_response(&flipped, DEFAULT_MAX_BODY) {
                    Err(WireError::Corrupt { .. }) => {}
                    other => panic!(
                        "{resp:?}: flip of byte {byte} bit {bit} was not rejected: {other:?}"
                    ),
                }
            }
        }
    }
}

/// Every strict prefix of a frame is `Incomplete` — the read-more-bytes
/// signal a streaming connection relies on — never `Corrupt` and never
/// a spurious short frame.
#[test]
fn every_strict_prefix_is_incomplete() {
    assert_eq!(
        decode_request(&[], DEFAULT_MAX_BODY).unwrap(),
        Decoded::Incomplete
    );
    for req in request_corpus() {
        let bytes = encode_request(&req).unwrap();
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_request(&bytes[..cut], DEFAULT_MAX_BODY).unwrap(),
                Decoded::Incomplete,
                "{req:?}: prefix of {cut} bytes misclassified"
            );
        }
    }
    for resp in response_corpus() {
        let bytes = encode_response(&resp).unwrap();
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_response(&bytes[..cut], DEFAULT_MAX_BODY).unwrap(),
                Decoded::Incomplete,
                "{resp:?}: prefix of {cut} bytes misclassified"
            );
        }
    }
}

/// The header layout is pinned: `kind:u8 | body_len:u32le | hcrc:u32le
/// | bcrc:u32le | body`, 13 header bytes. A Ping carries no body.
#[test]
fn header_layout_is_pinned() {
    let ping = encode_request(&Request::Ping).unwrap();
    assert_eq!(ping.len(), 13, "Ping is a bare 13-byte header");
    assert_eq!(ping[0], 0x01, "Ping request kind");
    assert_eq!(u32::from_le_bytes(ping[1..5].try_into().unwrap()), 0);

    let knn = encode_request(&Request::Knn {
        query: vec![1.0, 2.0],
        k: 5,
    })
    .unwrap();
    assert_eq!(knn[0], 0x02, "Knn request kind");
    // Body: k:u32 | dim:u32 | dim × f32.
    assert_eq!(u32::from_le_bytes(knn[1..5].try_into().unwrap()), 4 + 4 + 8);
    assert_eq!(u32::from_le_bytes(knn[13..17].try_into().unwrap()), 5);
    assert_eq!(u32::from_le_bytes(knn[17..21].try_into().unwrap()), 2);

    let ack = encode_response(&Response::Ack { n: 3 }).unwrap();
    assert_eq!(ack[0], 0x42, "Ack response kind");
    assert_eq!(u64::from_le_bytes(ack[13..21].try_into().unwrap()), 3);
}

/// A body larger than the decoder's cap is a typed `TooLarge` before
/// any body bytes are buffered — the admission-control contract that
/// stops one connection from ballooning server memory.
#[test]
fn oversized_bodies_are_typed_too_large() {
    let req = Request::Insert {
        point: vec![0.5; 256],
        data: 1,
    };
    let bytes = encode_request(&req).unwrap();
    // Hand the decoder only the 13-byte header: the cap must trip on the
    // declared length alone, without waiting for the body.
    assert!(matches!(
        decode_request(&bytes[..13], 64),
        Err(WireError::TooLarge { max: 64, .. })
    ));
}

/// Request and response kinds live in disjoint namespaces: a replayed
/// or cross-wired frame is `Corrupt`, never a confused misparse.
#[test]
fn kind_namespaces_are_disjoint() {
    for req in request_corpus() {
        let bytes = encode_request(&req).unwrap();
        assert!(matches!(
            decode_response(&bytes, DEFAULT_MAX_BODY),
            Err(WireError::Corrupt { .. })
        ));
    }
    for resp in response_corpus() {
        let bytes = encode_response(&resp).unwrap();
        assert!(matches!(
            decode_request(&bytes, DEFAULT_MAX_BODY),
            Err(WireError::Corrupt { .. })
        ));
    }
}

/// The frame format carries any `f32`, so a NaN or infinite coordinate
/// decodes; the index refuses it. Each such request is answered
/// `BadRequest` — on the write path and the read path alike — and the
/// index it was sent to still verifies and keeps serving writes.
#[test]
fn non_finite_coordinates_are_bad_requests_and_leave_the_index_whole() {
    use srtree::query::SpatialIndex;
    use srtree::wire::{execute, execute_read};

    let mut tree = srtree::tree::SrTree::create_in_memory(2, 4096).unwrap();
    for i in 0..40u64 {
        let p = [i as f32 * 0.25, (i % 7) as f32];
        SpatialIndex::insert(&mut tree, &p, i).unwrap();
    }
    let decode =
        |req: &Request| match decode_request(&encode_request(req).unwrap(), DEFAULT_MAX_BODY) {
            Ok(Decoded::Frame { msg, .. }) => msg,
            other => panic!("frame must decode: {other:?}"),
        };
    let bad_request = |resp: Response| match resp {
        Response::Error(RemoteError::BadRequest(msg)) => {
            assert!(msg.contains("non-finite"), "{msg}")
        }
        other => panic!("expected BadRequest, got {other:?}"),
    };
    for x in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let insert = decode(&Request::Insert {
            point: vec![x, 1.0],
            data: 999,
        });
        bad_request(execute(&insert, &mut tree, &srtree::obs::Noop));
        let knn = decode(&Request::Knn {
            query: vec![1.0, x],
            k: 3,
        });
        bad_request(execute_read(&knn, &tree, &srtree::obs::Noop));
        let range = decode(&Request::Range {
            query: vec![x, x],
            radius: 1.0,
        });
        bad_request(execute_read(&range, &tree, &srtree::obs::Noop));
    }
    assert_eq!(tree.len(), 40);
    tree.verify().unwrap();
    // Still writable and readable: delete a live point, insert a new one.
    assert!(SpatialIndex::delete(&mut tree, &[0.5, 2.0], 2).unwrap());
    SpatialIndex::insert(&mut tree, &[3.0, 3.0], 1000).unwrap();
    tree.verify().unwrap();
    let got = tree.knn(&[3.0, 3.0], 1).unwrap();
    assert_eq!(got[0].data, 1000);
}
