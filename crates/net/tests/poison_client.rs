//! Poison-pill clients: the server must survive clients that send garbage,
//! disconnect mid-request, or speak the wrong protocol version. The
//! affected connection gets a clean typed error ([`WireError`] echoed in a
//! `BAD_REQUEST` frame) or is dropped; *other* sessions keep rendering as
//! if nothing happened.

use std::borrow::Cow;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use mgpu_net::wire::{self, opcode, read_frame, write_frame, Reply, Request, HEADER_BYTES, MAGIC};
use mgpu_net::{NetSceneRequest, RenderClient, RenderServer, ServerConfig};
use mgpu_serve::ServiceConfig;
use mgpu_voldata::Dataset;
use mgpu_volren::{RenderConfig, TransferFunction};

fn tiny_server() -> RenderServer {
    RenderServer::start(ServerConfig {
        shards: 2,
        service: ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind loopback server")
}

fn tiny_request(azimuth: f32) -> NetSceneRequest {
    NetSceneRequest::orbit_dataset(
        Dataset::Skull,
        8,
        1,
        azimuth,
        0.0,
        &TransferFunction::bone(),
    )
    .with_config(RenderConfig::test_size(8))
}

/// Read one frame off a raw connection and decode it as a reply.
fn read_reply(stream: &mut TcpStream) -> (u64, Reply<'static>) {
    let (op, id, payload) = read_frame(stream, wire::DEFAULT_MAX_PAYLOAD).expect("reply frame");
    (id, Reply::decode(op, &payload).expect("reply decodes"))
}

/// A healthy render on a separate connection — the "other sessions are
/// unaffected" probe used after each poisoning.
fn assert_service_healthy(server: &RenderServer, azimuth: f32) {
    let client = RenderClient::connect(server.addr()).expect("healthy connect");
    let frame = client
        .render(&tiny_request(azimuth))
        .expect("healthy render");
    assert_eq!(frame.image.width(), 8);
}

#[test]
fn garbage_bytes_get_a_typed_error_and_the_connection_closed() {
    let server = tiny_server();
    // A healthy session opened BEFORE the poison, kept open across it.
    let survivor = RenderClient::connect(server.addr()).expect("survivor connect");

    let mut poison = TcpStream::connect(server.addr()).expect("poison connect");
    poison
        .write_all(b"GET / HTTP/1.1\r\nHost: not-a-render-service\r\n\r\n")
        .expect("write garbage");
    poison.flush().unwrap();
    // The server answers with a BAD_REQUEST frame carrying the WireError…
    // tagged with request id 0 (no request could be framed to echo an id).
    let (id, reply) = read_reply(&mut poison);
    assert_eq!(id, 0);
    let Reply::BadRequest { message } = reply else {
        panic!("expected BAD_REQUEST, got {reply:?}");
    };
    assert!(message.contains("magic"), "unexpected echo: {message}");
    // …then closes the poisoned connection.
    match read_frame(&mut poison, wire::DEFAULT_MAX_PAYLOAD) {
        Err(wire::WireError::ConnectionClosed) | Err(wire::WireError::Io(_)) => {}
        other => panic!("poisoned connection should be closed, got {other:?}"),
    }

    // Both the pre-existing session and a fresh one are unaffected.
    let frame = survivor
        .render(&tiny_request(10.0))
        .expect("survivor render");
    assert!(!frame.from_cache);
    assert_service_healthy(&server, 20.0);
    server.shutdown();
}

#[test]
fn disconnect_mid_request_is_reaped_quietly() {
    let server = tiny_server();
    let survivor = RenderClient::connect(server.addr()).expect("survivor connect");

    // A syntactically valid header promising 64 payload bytes… of which
    // only 5 ever arrive before the client vanishes.
    let mut header = Vec::with_capacity(HEADER_BYTES + 5);
    header.extend_from_slice(&MAGIC.to_le_bytes());
    header.extend_from_slice(&wire::VERSION.to_le_bytes());
    header.push(opcode::RENDER);
    header.extend_from_slice(&64u32.to_le_bytes());
    header.extend_from_slice(&[1, 2, 3, 4, 5]);
    {
        let mut poison = TcpStream::connect(server.addr()).expect("poison connect");
        poison.write_all(&header).expect("write torn frame");
        poison.flush().unwrap();
        // Dropping the stream closes the socket mid-payload.
    }
    // Give the handler a moment to hit the EOF.
    std::thread::sleep(Duration::from_millis(120));

    let frame = survivor
        .render(&tiny_request(30.0))
        .expect("survivor render");
    assert_eq!(frame.image.height(), 8);
    assert_service_healthy(&server, 40.0);
    let report = server.shutdown();
    assert_eq!(report.frames_failed, 0, "torn frames never reach the queue");
}

/// An un-redeeming client cannot grow server memory without bound: the
/// per-session ticket table refuses submits past its cap until the client
/// redeems, and redemption frees capacity.
#[test]
fn outstanding_tickets_are_bounded_per_session() {
    let server = RenderServer::start(ServerConfig {
        shards: 1,
        max_tickets_per_session: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let client = mgpu_net::RenderClient::connect(server.addr()).expect("connect");
    let t0 = client.submit(&tiny_request(0.0)).expect("submit 1");
    let _t1 = client.submit(&tiny_request(10.0)).expect("submit 2");
    match client.submit(&tiny_request(20.0)) {
        Err(mgpu_net::ClientError::TicketsFull { outstanding, limit }) => {
            assert_eq!((outstanding, limit), (2, 2));
        }
        other => panic!("expected typed ticket-bound refusal, got {other:?}"),
    }
    // Redeeming frees a slot; the connection is still healthy.
    let frame = client.redeem(t0).expect("redeem");
    assert_eq!(frame.image.width(), 8);
    client
        .submit(&tiny_request(20.0))
        .expect("submit after redeem");
    server.shutdown();
}

/// Shutdown drains a *paused* service instead of deadlocking: a blocking
/// RENDER admitted while the queue is paused still resolves because
/// shutdown resumes the shards before joining the connection handlers.
#[test]
fn shutdown_drains_paused_service_with_blocked_render() {
    let server = RenderServer::start(ServerConfig {
        shards: 1,
        service: ServiceConfig {
            workers: 1,
            start_paused: true,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    let renderer = std::thread::spawn(move || {
        let client = RenderClient::connect(addr).expect("connect");
        client
            .render(&tiny_request(5.0))
            .expect("render resolves at shutdown")
    });
    // Let the request reach the paused queue, then shut down: the frame
    // must render during the drain and the join must not hang.
    std::thread::sleep(Duration::from_millis(150));
    let report = server.shutdown();
    assert_eq!(report.frames_completed, 1);
    let frame = renderer.join().expect("client thread");
    assert!(!frame.from_cache);
}

#[test]
fn wrong_version_and_malformed_payloads_are_clean_errors() {
    let server = tiny_server();

    // Wrong protocol version (a v2 frame has the same 11-byte header
    // layout): a typed UNSUPPORTED_VERSION reply naming both versions,
    // then a clean close — not a silent drop.
    let mut old = TcpStream::connect(server.addr()).expect("connect");
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.extend_from_slice(&999u16.to_le_bytes());
    frame.push(opcode::PING);
    frame.extend_from_slice(&0u32.to_le_bytes());
    old.write_all(&frame).unwrap();
    let (id, reply) = read_reply(&mut old);
    assert_eq!(id, 0);
    assert_eq!(
        reply,
        Reply::UnsupportedVersion {
            got: 999,
            want: wire::VERSION
        }
    );
    match read_frame(&mut old, wire::DEFAULT_MAX_PAYLOAD) {
        Err(wire::WireError::ConnectionClosed) | Err(wire::WireError::Io(_)) => {}
        other => panic!("wrong-version connection should be closed, got {other:?}"),
    }

    // A well-framed RENDER whose payload is junk: the connection SURVIVES
    // (framing is intact) and the next request on it succeeds.
    let mut junk = TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut junk, opcode::RENDER, 7, &[0xDE, 0xAD, 0xBE, 0xEF]).unwrap();
    let (id, reply) = read_reply(&mut junk);
    assert_eq!(id, 7, "echoes the request id");
    assert!(matches!(reply, Reply::BadRequest { .. }), "{reply:?}");
    junk.write_all(&Request::Ping { token: 9 }.encode(8))
        .unwrap();
    let (id, reply) = read_reply(&mut junk);
    assert_eq!(id, 8);
    assert!(matches!(reply, Reply::Pong { token: 9, .. }), "{reply:?}");

    // An oversized declared length: typed TooLarge echo, then close.
    let mut huge = TcpStream::connect(server.addr()).expect("connect");
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.extend_from_slice(&wire::VERSION.to_le_bytes());
    frame.push(opcode::RENDER);
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    huge.write_all(&frame).unwrap();
    let (id, reply) = read_reply(&mut huge);
    assert_eq!(id, 0);
    let Reply::BadRequest { message } = reply else {
        panic!("expected BAD_REQUEST, got {reply:?}");
    };
    assert!(message.contains("exceeds"), "unexpected echo: {message}");

    assert_service_healthy(&server, 50.0);
    server.shutdown();
}

// --- reply precedence at the RENDER/SUBMIT door -------------------------
//
// The server answers RENDER/SUBMIT refusals in a fixed order: draining,
// then a duplicate request id, then the per-session ticket bound, and only
// then decodes the payload. Each case below sends a *truncated* RENDER
// payload, so a dispatch that decoded first would answer a BAD_REQUEST
// about truncation instead of the refusal pinned here.

fn truncated_render_payload() -> Vec<u8> {
    let bytes = wire::encode_request(&tiny_request(0.0));
    bytes[..6].to_vec()
}

/// A server bounded at one outstanding request per session, plus a raw
/// connection that already holds that one request: an unredeemed ticket
/// under request id 1.
fn server_with_one_outstanding_ticket() -> (RenderServer, TcpStream) {
    let server = RenderServer::start(ServerConfig {
        shards: 1,
        max_tickets_per_session: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    let submit = Request::Submit(Cow::Owned(tiny_request(0.0)));
    raw.write_all(&submit.encode(1)).expect("submit");
    assert_eq!(read_reply(&mut raw), (1, Reply::Submitted { ticket: 1 }));
    (server, raw)
}

#[test]
fn draining_refusal_precedes_every_other_render_check() {
    let (server, mut raw) = server_with_one_outstanding_ticket();
    let control = RenderClient::connect(server.addr()).expect("control connect");
    control.drain(5).expect("drain");
    // Id 1 is a duplicate and the session is at its bound, yet the typed
    // DRAINING refusal (carrying the epoch) wins.
    write_frame(&mut raw, opcode::RENDER, 1, &truncated_render_payload()).expect("render");
    assert_eq!(read_reply(&mut raw), (1, Reply::Draining { epoch: 5 }));
    control.resume(6).expect("resume");
    server.shutdown();
}

#[test]
fn duplicate_id_precedes_ticket_bound_and_payload_decode() {
    let (server, mut raw) = server_with_one_outstanding_ticket();
    write_frame(&mut raw, opcode::RENDER, 1, &truncated_render_payload()).expect("render");
    let (id, reply) = read_reply(&mut raw);
    assert_eq!(id, 1);
    let Reply::BadRequest { message } = reply else {
        panic!("expected BAD_REQUEST, got {reply:?}");
    };
    assert!(
        message.contains("duplicate request id 1"),
        "unexpected echo: {message}"
    );
    server.shutdown();
}

#[test]
fn ticket_bound_precedes_payload_decode() {
    let (server, mut raw) = server_with_one_outstanding_ticket();
    write_frame(&mut raw, opcode::RENDER, 2, &truncated_render_payload()).expect("render");
    assert_eq!(
        read_reply(&mut raw),
        (
            2,
            Reply::TicketsFull {
                outstanding: 1,
                limit: 1
            }
        )
    );
    server.shutdown();
}
