//! Protocol fuzz/property tests: malformed bytes against the wire decoders
//! and against a live server connection.
//!
//! Every case must yield a typed `ServeError`/`StoreError` — never a panic —
//! and the connection must survive every *recoverable* fault (wrong
//! version, checksum mismatch, bad payload) to serve the next well-formed
//! request.  Fatal faults (bad magic, oversized length prefix, truncation)
//! may close the connection, but the server itself must keep accepting.

use std::io::{Read, Write};
use std::net::TcpStream;

use partial_info_estimators::{CatalogEntry, Scheme};
use pie_datagen::{paper_example, Xoshiro256pp};
use pie_serve::wire::{
    read_request, read_response, write_message, write_message_traced, Request, SketchConfig,
    EXT_TRACE_CONTEXT, MAX_FRAME_BYTES, WIRE_MAGIC, WIRE_VERSION,
};
use pie_serve::{Response, ServeClient, ServeError, Server, TraceContext};
use pie_store::frame::write_frame;
use pie_store::{Encode, StoreError};

/// One well-formed frame per request type, as the mutation corpus.
fn corpus() -> Vec<Vec<u8>> {
    let requests = [
        Request::ListCatalog,
        Request::LoadSnapshot {
            name: "traffic".into(),
            path: "/tmp/t.pies".into(),
        },
        Request::IngestBatch {
            sketch: "live".into(),
            config: SketchConfig {
                scheme: Scheme::pps(150.0),
                shards: 2,
                trials: 6,
                base_salt: 1,
            },
            records: vec![pie_serve::IngestRecord {
                instance: 0,
                key: 7,
                value: 2.5,
            }],
            last: false,
        },
        Request::Estimate {
            sketch: "traffic".into(),
            estimator: "max_weighted".into(),
            statistic: "max_dominance".into(),
        },
        Request::Identify {
            tenant: "acme".into(),
        },
        Request::BatchEstimate {
            sketch: "traffic".into(),
            queries: vec![
                pie_serve::BatchQuery {
                    estimator: "max_weighted".into(),
                    statistic: "max_dominance".into(),
                },
                pie_serve::BatchQuery {
                    estimator: "max_weighted".into(),
                    statistic: "distinct_count".into(),
                },
            ],
        },
        Request::Stats,
        Request::PutSnapshot {
            name: "replica".into(),
            snapshot: vec![0xDE, 0xAD, 0xBE, 0xEF],
        },
        Request::Ping,
        Request::Metrics,
        Request::QueryTrace { trace_id: u64::MAX },
    ];
    let mut frames: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| {
            let mut bytes = Vec::new();
            write_message(&mut bytes, r).unwrap();
            bytes
        })
        .collect();
    // A trace-context extension frame with hostile ids, so mutations and
    // truncations also land inside the extension block.
    let mut traced = Vec::new();
    write_message_traced(
        &mut traced,
        &Request::Ping,
        Some(&TraceContext::new(u64::MAX, u64::MAX)),
    )
    .unwrap();
    frames.push(traced);
    frames
}

#[test]
fn seeded_random_mutations_never_panic_the_request_decoder() {
    let corpus = corpus();
    let mut rng = Xoshiro256pp::seed_from_u64(0xF055_AA11);
    let mut decoded_ok = 0usize;
    let mut faulted = 0usize;
    for round in 0..4000 {
        let base = &corpus[round % corpus.len()];
        let mut bytes = base.clone();
        // 1–4 random single-byte mutations anywhere in the frame.
        for _ in 0..rng.gen_range(1usize..5) {
            let i = rng.gen_range(0usize..bytes.len());
            bytes[i] ^= 1 << rng.gen_range(0u32..8);
        }
        match read_request(&mut bytes.as_slice()) {
            // A mutation may cancel out or hit a don't-care byte; a decoded
            // request is fine as long as nothing panicked.
            Ok(_) => decoded_ok += 1,
            Err(fault) => {
                faulted += 1;
                // The error is typed, displayable, and classified.
                let _ = fault.error.to_string();
                let _ = fault.fatal;
            }
        }
    }
    assert!(faulted > 0, "mutations never produced a fault?");
    // The checksum catches essentially everything; decoded_ok only counts
    // lucky identity mutations.
    assert!(decoded_ok < faulted);
}

#[test]
fn every_truncation_of_every_request_is_a_typed_fault() {
    for base in corpus() {
        for cut in 0..base.len() {
            match read_request(&mut &base[..cut]) {
                Ok(None) => assert_eq!(cut, 0, "clean EOF only before the first byte"),
                Ok(Some(_)) => panic!("truncated frame decoded at cut {cut}"),
                Err(fault) => {
                    assert!(
                        matches!(
                            fault.error,
                            StoreError::Truncated { .. } | StoreError::Io(_)
                        ),
                        "cut {cut}: {}",
                        fault.error
                    );
                    assert!(fault.fatal, "a truncated stream cannot be resynced");
                }
            }
        }
    }
}

#[test]
fn oversized_and_hostile_length_prefixes_are_rejected_up_front() {
    for claimed in [
        MAX_FRAME_BYTES + 1,
        u64::from(u32::MAX),
        u64::MAX / 2,
        u64::MAX,
    ] {
        let mut bytes = Vec::new();
        write_message(&mut bytes, &Request::ListCatalog).unwrap();
        bytes[8..16].copy_from_slice(&claimed.to_le_bytes());
        let fault = read_request(&mut bytes.as_slice()).unwrap_err();
        assert!(
            matches!(fault.error, StoreError::FrameTooLarge { len, .. } if len == claimed),
            "claimed {claimed}: {}",
            fault.error
        );
        assert!(fault.fatal);
    }
}

#[test]
fn wrong_version_and_wrong_magic_are_distinct_typed_faults() {
    let mut bytes = Vec::new();
    write_message(&mut bytes, &Request::ListCatalog).unwrap();
    let mut wrong_version = bytes.clone();
    wrong_version[4] = 0xEE;
    let fault = read_request(&mut wrong_version.as_slice()).unwrap_err();
    assert!(matches!(
        fault.error,
        StoreError::UnsupportedVersion { found: 0xEE, .. }
    ));
    assert!(!fault.fatal, "wrong version is survivable");

    let mut wrong_magic = bytes;
    wrong_magic[..4].copy_from_slice(b"HTTP");
    let fault = read_request(&mut wrong_magic.as_slice()).unwrap_err();
    assert!(matches!(fault.error, StoreError::BadMagic { .. }));
    assert!(fault.fatal, "an unframed stream cannot be resynced");
}

#[test]
fn random_garbage_never_panics_either_decoder() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xDEAD_BEEF);
    for _ in 0..2000 {
        let len = rng.gen_range(0usize..256);
        let garbage: Vec<u8> = (0..len).map(|_| (rng.gen::<u32>() & 0xFF) as u8).collect();
        let _ = read_request(&mut garbage.as_slice());
        let _ = read_response(&mut garbage.as_slice());
        // Garbage wrapped in a *valid* frame exercises the payload decoders
        // specifically (the frame layer validates clean, so the decoders
        // must reject on their own).
        let mut framed = Vec::new();
        write_frame(&mut framed, WIRE_MAGIC, WIRE_VERSION, &garbage).unwrap();
        let _ = read_request(&mut framed.as_slice());
        let _ = read_response(&mut framed.as_slice());
    }
}

/// Sends raw bytes on a fresh connection, then checks the server still
/// accepts a well-formed request on a *new* connection.
fn send_raw_then_expect_alive(server: &Server, raw: &[u8]) {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(raw).unwrap();
    stream.flush().unwrap();
    // Read whatever the server answers (possibly nothing) until it closes
    // or responds; either way it must not bring the server down.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = Vec::new();
    let _ = (&mut stream).take(1 << 20).read_to_end(&mut sink);
    drop(stream);
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    client.list_catalog().expect("server must stay alive");
}

#[test]
fn live_server_survives_recoverable_faults_on_the_same_connection() {
    let server = Server::bind("127.0.0.1:0").unwrap();
    let entry = CatalogEntry::build(
        paper_example().take_instances(2),
        Scheme::oblivious(0.5),
        1,
        10,
        0,
    )
    .unwrap();
    server.catalog().insert("example", entry);

    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let well_formed = {
        let mut bytes = Vec::new();
        write_message(&mut bytes, &Request::ListCatalog).unwrap();
        bytes
    };

    // Recoverable fault class 1: corrupted payload byte (checksum catches).
    let mut corrupted = well_formed.clone();
    let last = corrupted.len() - 9; // a payload byte, not the checksum
    corrupted[last] ^= 0x10;
    // Class 2: wrong protocol version.
    let mut wrong_version = well_formed.clone();
    wrong_version[4] = 42;
    // Class 3: valid frame, invalid request tag.
    let bad_tag = {
        let mut payload = Vec::new();
        9999u32.encode(&mut payload).unwrap();
        let mut bytes = Vec::new();
        write_frame(&mut bytes, WIRE_MAGIC, WIRE_VERSION, &payload).unwrap();
        bytes
    };
    // Class 4: valid frame, trailing bytes after a valid request.
    let trailing = {
        let mut payload = Vec::new();
        Request::ListCatalog.encode(&mut payload).unwrap();
        payload.extend_from_slice(b"junk");
        let mut bytes = Vec::new();
        write_frame(&mut bytes, WIRE_MAGIC, WIRE_VERSION, &payload).unwrap();
        bytes
    };

    for (what, malformed) in [
        ("corrupted payload", &corrupted),
        ("wrong version", &wrong_version),
        ("invalid tag", &bad_tag),
        ("trailing bytes", &trailing),
    ] {
        writer.write_all(malformed).unwrap();
        writer.flush().unwrap();
        let response = read_response(&mut reader)
            .unwrap_or_else(|f| panic!("{what}: fault instead of response: {}", f.error))
            .expect("server closed unexpectedly");
        assert!(
            matches!(response, Response::Error(ServeError::Protocol { .. })),
            "{what}: got {response:?}"
        );
        // The SAME connection serves the next well-formed request.
        writer.write_all(&well_formed).unwrap();
        writer.flush().unwrap();
        let response = read_response(&mut reader).unwrap().unwrap();
        assert!(
            matches!(response, Response::Catalog(ref rows) if rows.len() == 1),
            "{what}: connection did not survive, got {response:?}"
        );
    }
    drop(writer);
    server.shutdown();
}

#[test]
fn hostile_trace_extensions_are_typed_faults_that_never_kill_the_connection() {
    let server = Server::bind("127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let ping_payload = {
        let mut payload = Vec::new();
        Request::Ping.encode(&mut payload).unwrap();
        payload
    };
    let framed = |payload: &[u8]| {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, WIRE_MAGIC, WIRE_VERSION, payload).unwrap();
        bytes
    };
    let ext = |tag: u32, claimed_len: u64, body: &[u8]| {
        let mut bytes = Vec::new();
        tag.encode(&mut bytes).unwrap();
        claimed_len.encode(&mut bytes).unwrap();
        bytes.extend_from_slice(body);
        bytes
    };

    // Every malformed extension block is a *recoverable* typed fault: the
    // frame was already consumed whole, so the same connection keeps
    // serving traced requests afterwards.
    let mut truncated_header = ping_payload.clone();
    truncated_header.extend_from_slice(&[1, 0, 0, 0, 16]); // 5 bytes < 12
    let mut runaway_length = ping_payload.clone();
    runaway_length.extend_from_slice(&ext(EXT_TRACE_CONTEXT, 1 << 20, &[]));
    let mut hostile_length = ping_payload.clone();
    hostile_length.extend_from_slice(&ext(EXT_TRACE_CONTEXT, u64::MAX, &[]));
    let mut wrong_size_body = ping_payload.clone();
    wrong_size_body.extend_from_slice(&ext(EXT_TRACE_CONTEXT, 8, &[0xAB; 8]));
    let mut duplicate_context = ping_payload.clone();
    duplicate_context.extend_from_slice(&ext(EXT_TRACE_CONTEXT, 16, &[0x11; 16]));
    duplicate_context.extend_from_slice(&ext(EXT_TRACE_CONTEXT, 16, &[0x22; 16]));

    let traced_ping = {
        let mut bytes = Vec::new();
        write_message_traced(
            &mut bytes,
            &Request::Ping,
            Some(&TraceContext::new(u64::MAX, u64::MAX)),
        )
        .unwrap();
        bytes
    };

    for (what, payload) in [
        ("truncated extension header", &truncated_header),
        ("length past payload end", &runaway_length),
        ("hostile u64::MAX length", &hostile_length),
        ("wrong-size trace body", &wrong_size_body),
        ("duplicate trace context", &duplicate_context),
    ] {
        writer.write_all(&framed(payload)).unwrap();
        writer.flush().unwrap();
        let response = read_response(&mut reader)
            .unwrap_or_else(|f| panic!("{what}: fault instead of response: {}", f.error))
            .expect("server closed unexpectedly");
        assert!(
            matches!(response, Response::Error(ServeError::Protocol { .. })),
            "{what}: got {response:?}"
        );
        // The SAME connection serves a traced request with hostile (but
        // well-formed) ids: trace ids are opaque data, never interpreted.
        writer.write_all(&traced_ping).unwrap();
        writer.flush().unwrap();
        let response = read_response(&mut reader).unwrap().unwrap();
        assert!(
            matches!(response, Response::Pong),
            "{what}: connection did not survive, got {response:?}"
        );
    }

    // Unknown extension tags are skipped for forward compatibility, not
    // faulted: the request underneath is served normally.
    let mut unknown_tag = ping_payload.clone();
    unknown_tag.extend_from_slice(&ext(0xDEAD_BEEF, 4, b"junk"));
    writer.write_all(&framed(&unknown_tag)).unwrap();
    writer.flush().unwrap();
    let response = read_response(&mut reader).unwrap().unwrap();
    assert!(
        matches!(response, Response::Pong),
        "unknown tag: got {response:?}"
    );

    drop(writer);
    server.shutdown();
}

#[test]
fn live_server_survives_fatal_faults_on_fresh_connections() {
    let server = Server::bind("127.0.0.1:0").unwrap();

    // Bad magic: server answers (if it can) and closes; must stay up.
    let mut http = Vec::new();
    http.extend_from_slice(b"GET / HTTP/1.1\r\n\r\n");
    send_raw_then_expect_alive(&server, &http);

    // Oversized length prefix.
    let mut oversized = Vec::new();
    write_message(&mut oversized, &Request::ListCatalog).unwrap();
    oversized[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    send_raw_then_expect_alive(&server, &oversized);

    // Truncated frame then hang-up.
    let mut whole = Vec::new();
    write_message(&mut whole, &Request::ListCatalog).unwrap();
    send_raw_then_expect_alive(&server, &whole[..whole.len() / 2]);

    // Seeded-random garbage connections.
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    for _ in 0..20 {
        let len = rng.gen_range(1usize..128);
        let garbage: Vec<u8> = (0..len).map(|_| (rng.gen::<u32>() & 0xFF) as u8).collect();
        send_raw_then_expect_alive(&server, &garbage);
    }
    server.shutdown();
}

/// Drip-feeds `frames` to the server over one connection in `chunks`-sized
/// slices (with a flush and a pause between writes so the event loop sees
/// genuinely partial frames), then reads back `expected` responses.
fn send_in_chunks(
    addr: std::net::SocketAddr,
    bytes: &[u8],
    chunk: usize,
    expected: usize,
) -> Vec<Response> {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for piece in bytes.chunks(chunk.max(1)) {
        writer.write_all(piece).unwrap();
        writer.flush().unwrap();
        // Give the event loop a chance to wake and observe the partial
        // frame before the next piece lands.
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    (0..expected)
        .map(|i| {
            read_response(&mut reader)
                .unwrap_or_else(|f| panic!("response {i}: fault {}", f.error))
                .unwrap_or_else(|| panic!("response {i}: server closed early"))
        })
        .collect()
}

#[test]
fn byte_at_a_time_delivery_decodes_and_serves_every_request() {
    let server = Server::bind("127.0.0.1:0").unwrap();
    let entry = CatalogEntry::build(
        paper_example().take_instances(2),
        Scheme::oblivious(0.5),
        1,
        5,
        0,
    )
    .unwrap();
    server.catalog().insert("example", entry);

    // Three pipelined requests, delivered one byte per write: the server's
    // incremental decoder must buffer across reads and answer all three,
    // in order.
    let mut bytes = Vec::new();
    write_message(&mut bytes, &Request::Ping).unwrap();
    write_message(&mut bytes, &Request::ListCatalog).unwrap();
    write_message(
        &mut bytes,
        &Request::Estimate {
            sketch: "example".into(),
            estimator: "max_oblivious".into(),
            statistic: "max_dominance".into(),
        },
    )
    .unwrap();
    let responses = send_in_chunks(server.local_addr(), &bytes, 1, 3);
    assert!(matches!(responses[0], Response::Pong));
    assert!(matches!(&responses[1], Response::Catalog(rows) if rows.len() == 1));
    assert!(matches!(responses[2], Response::Estimated(_)));
    server.shutdown();
}

#[test]
fn every_split_offset_of_a_pipelined_pair_serves_both_requests() {
    let server = Server::bind("127.0.0.1:0").unwrap();

    // Two back-to-back frames split into exactly two writes at EVERY byte
    // offset: every possible partial-frame boundary (mid-magic, mid-length,
    // mid-payload, mid-checksum, and across the frame seam) must decode to
    // the same two responses.
    let mut bytes = Vec::new();
    write_message(&mut bytes, &Request::ListCatalog).unwrap();
    write_message(&mut bytes, &Request::Ping).unwrap();
    for cut in 0..=bytes.len() {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(&bytes[..cut]).unwrap();
        writer.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_micros(200));
        writer.write_all(&bytes[cut..]).unwrap();
        writer.flush().unwrap();
        for (i, want_catalog) in [(0usize, true), (1, false)] {
            let response = read_response(&mut reader)
                .unwrap_or_else(|f| panic!("cut {cut}, response {i}: fault {}", f.error))
                .unwrap_or_else(|| panic!("cut {cut}, response {i}: closed early"));
            match (want_catalog, response) {
                (true, Response::Catalog(_)) | (false, Response::Pong) => {}
                (_, other) => panic!("cut {cut}, response {i}: got {other:?}"),
            }
        }
    }
    server.shutdown();
}

#[test]
fn mid_frame_hangup_is_answered_with_a_typed_truncation_error() {
    let server = Server::bind("127.0.0.1:0").unwrap();
    let mut whole = Vec::new();
    write_message(&mut whole, &Request::ListCatalog).unwrap();

    // Cut everywhere INSIDE the frame (cut 0 is a clean close, not a
    // truncation).  The server must answer with a typed protocol error
    // before closing — never silently drop the connection.
    for cut in 1..whole.len() {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(&whole[..cut]).unwrap();
        writer.flush().unwrap();
        writer.shutdown(std::net::Shutdown::Write).unwrap();
        let response = read_response(&mut reader)
            .unwrap_or_else(|f| panic!("cut {cut}: fault {}", f.error))
            .unwrap_or_else(|| panic!("cut {cut}: closed without a typed error"));
        assert!(
            matches!(response, Response::Error(ServeError::Protocol { .. })),
            "cut {cut}: got {response:?}"
        );
        // And the connection closes after it (fatal fault).
        assert!(read_response(&mut reader).unwrap().is_none(), "cut {cut}");
    }
    server.shutdown();
}

#[test]
fn response_decoder_survives_mutations_of_real_responses() {
    // Exercise the client-side decoder against mutated server output.
    let server = Server::bind("127.0.0.1:0").unwrap();
    let entry = CatalogEntry::build(
        paper_example().take_instances(2),
        Scheme::oblivious(0.5),
        1,
        5,
        0,
    )
    .unwrap();
    server.catalog().insert("example", entry);
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let report = client
        .estimate("example", "max_oblivious", "max_dominance")
        .unwrap();
    server.shutdown();

    let mut frame = Vec::new();
    write_message(&mut frame, &Response::Estimated(report)).unwrap();
    let mut rng = Xoshiro256pp::seed_from_u64(99);
    for _ in 0..2000 {
        let mut mutated = frame.clone();
        let i = rng.gen_range(0usize..mutated.len());
        mutated[i] ^= 1 << rng.gen_range(0u32..8);
        let _ = read_response(&mut mutated.as_slice());
        // Truncations too.
        let cut = rng.gen_range(0usize..mutated.len());
        let _ = read_response(&mut &mutated[..cut]);
    }
}
