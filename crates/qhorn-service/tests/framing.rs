//! Request framing does not depend on how the bytes arrive. On both
//! transports, the replies to a fixed sequence of three requests are
//! recorded once with one request per write (each reply read before the
//! next request goes out). Then the same requests arrive in other
//! shapes, each on a fresh connection, and the reply bytes must equal
//! the recorded ones exactly, with nothing extra:
//!
//! - all three pipelined in one write;
//! - the same bytes, one byte per write;
//! - (HTTP) the second head ended by LF only (`\n\n`);
//! - (HTTP) the third body chunked, its chunks split across reads.
//!
//! These pin the frame reader's consumed offset (several frames taken
//! from one read), its compaction (a frame's start moved to the front
//! before a refill), and the resumable head scan.
//!
//! Every request has a reply that does not change between runs: no
//! session is created, and HTTP requests carry their own trace id, which
//! the reply header echoes.

use qhorn_service::registry::{Registry, RegistryConfig};
use qhorn_service::{HttpServer, Server};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// The JSON-lines requests: a listing, an unknown session, and a bad
/// request (an error reply that keeps the connection).
const LINES: [&str; 3] = [
    "{\"type\":\"list_datasets\"}\n",
    "{\"type\":\"next_question\",\"session\":999}\n",
    "{\"type\":\"no_such_message\"}\n",
];

/// The HTTP requests as `(path, body)`: the same three messages.
const HTTP: [(&str, &str); 3] = [
    ("/v1/datasets", ""),
    ("/v1/session/next", "{\"session\":999}"),
    (
        "/v1/session/answer",
        "{\"session\":999,\"response\":\"Answer\"}",
    ),
];

/// One HTTP request for `HTTP[i]`: its head lines end in `eol`, and its
/// body is `Content-Length`-framed, or chunked at `cuts` when given.
fn http_request(i: usize, eol: &str, cuts: Option<&[usize]>) -> Vec<u8> {
    let (path, body) = HTTP[i];
    let mut head = format!("POST {path} HTTP/1.1{eol}Host: qhorn{eol}");
    head.push_str(&format!("X-Qhorn-Trace-Id: 00000000000000a{i}{eol}"));
    let Some(cuts) = cuts else {
        head.push_str(&format!("Content-Length: {}{eol}{eol}{body}", body.len()));
        return head.into_bytes();
    };
    head.push_str(&format!("Transfer-Encoding: chunked{eol}{eol}"));
    let mut bounds = vec![0];
    bounds.extend_from_slice(cuts);
    bounds.push(body.len());
    for w in bounds.windows(2) {
        let chunk = &body[w[0]..w[1]];
        head.push_str(&format!("{:x}\r\n{chunk}\r\n", chunk.len()));
    }
    head.push_str("0\r\n\r\n");
    head.into_bytes()
}

/// The length of the first complete reply in `buf`, if there is one: a
/// line, or an HTTP head plus its `Content-Length` body.
fn reply_len(buf: &[u8], http: bool) -> Option<usize> {
    if !http {
        return buf.iter().position(|&b| b == b'\n').map(|i| i + 1);
    }
    let head = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let text = std::str::from_utf8(&buf[..head]).expect("UTF-8 head");
    let body: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length")
        .parse()
        .expect("numeric Content-Length");
    (buf.len() >= head + body).then_some(head + body)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

/// The reference: each request in its own write, its reply read in full
/// before the next request is sent.
fn one_per_write(addr: SocketAddr, requests: &[Vec<u8>], http: bool) -> Vec<u8> {
    let mut stream = connect(addr);
    let mut replies = Vec::new();
    for request in requests {
        stream.write_all(request).expect("write");
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        while reply_len(&buf, http).is_none() {
            let n = stream.read(&mut chunk).expect("read reply");
            assert!(n > 0, "server closed mid-reply");
            buf.extend_from_slice(&chunk[..n]);
        }
        assert_eq!(reply_len(&buf, http), Some(buf.len()), "one reply each");
        replies.extend_from_slice(&buf);
    }
    replies
}

/// Sends `bytes` on a fresh connection in pieces ending at `cuts`,
/// pausing `pause` after each write, then reads `len` reply bytes and
/// checks that nothing follows them.
fn replies_to_pieces(
    addr: SocketAddr,
    bytes: &[u8],
    cuts: &[usize],
    pause: Duration,
    len: usize,
) -> Vec<u8> {
    let mut stream = connect(addr);
    let mut from = 0;
    for &cut in cuts.iter().chain([&bytes.len()]) {
        stream.write_all(&bytes[from..cut]).expect("write piece");
        from = cut;
        std::thread::sleep(pause);
    }
    let mut got = vec![0; len];
    stream.read_exact(&mut got).expect("read the replies");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("read timeout");
    match stream.read(&mut [0u8; 64]) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("expected no bytes after the replies, got {other:?}"),
    }
    got
}

fn every_byte(bytes: &[u8]) -> Vec<usize> {
    (1..bytes.len()).collect()
}

fn servers() -> (Server, HttpServer) {
    let registry = Arc::new(Registry::open(RegistryConfig::default()).expect("registry"));
    let lines = Server::start("127.0.0.1:0", Arc::clone(&registry), 2).expect("lines");
    let http = HttpServer::start("127.0.0.1:0", registry, 2).expect("http");
    (lines, http)
}

#[test]
fn json_lines_replies_do_not_depend_on_how_requests_arrive() {
    let (lines, http) = servers();
    let addr = lines.addr();
    let requests: Vec<Vec<u8>> = LINES.iter().map(|l| l.as_bytes().to_vec()).collect();
    let want = one_per_write(addr, &requests, false);
    let stream = requests.concat();
    let send = |cuts: &[usize]| replies_to_pieces(addr, &stream, cuts, Duration::ZERO, want.len());

    assert_eq!(send(&[]), want, "three requests in one write");
    assert_eq!(send(&every_byte(&stream)), want, "one byte per write");

    lines.shutdown();
    http.shutdown();
}

#[test]
fn http_replies_do_not_depend_on_how_requests_arrive() {
    let (lines, http) = servers();
    let addr = http.addr();
    let canonical: Vec<Vec<u8>> = (0..3).map(|i| http_request(i, "\r\n", None)).collect();
    let want = one_per_write(addr, &canonical, true);
    let text = String::from_utf8(want.clone()).expect("UTF-8 replies");
    assert_eq!(text.matches("HTTP/1.1 200 ").count(), 1, "{text}");
    assert_eq!(text.matches("HTTP/1.1 404 ").count(), 2, "{text}");
    let send = |stream: &[u8], cuts: &[usize], pause: Duration| {
        replies_to_pieces(addr, stream, cuts, pause, want.len())
    };

    let stream = canonical.concat();
    assert_eq!(
        send(&stream, &[], Duration::ZERO),
        want,
        "three requests in one write"
    );
    assert_eq!(
        send(&stream, &every_byte(&stream), Duration::ZERO),
        want,
        "one byte per write"
    );

    let lf_head = http_request(1, "\n", None);
    assert!(!lf_head.contains(&b'\r'));
    let lf_only = [canonical[0].clone(), lf_head, canonical[2].clone()].concat();
    assert_eq!(
        send(&lf_only, &[], Duration::ZERO),
        want,
        "second head ended by LF only"
    );

    // The third body in three chunks, the stream cut inside the first
    // chunk's size line, inside its data, between the data and its CRLF,
    // and inside the CRLF, with a pause so each piece reaches the server
    // on its own.
    let chunked_request = http_request(2, "\r\n", Some(&[7, 20]));
    let head_len = chunked_request
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("chunked head")
        + 4;
    let body = canonical[0].len() + canonical[1].len() + head_len;
    assert_eq!(&chunked_request[head_len..head_len + 3], b"7\r\n");
    let cuts = [body + 1, body + 3 + 3, body + 3 + 7, body + 3 + 7 + 1];
    let chunked = [canonical[0].clone(), canonical[1].clone(), chunked_request].concat();
    assert_eq!(
        send(&chunked, &cuts, Duration::from_millis(30)),
        want,
        "chunked body split across reads"
    );

    lines.shutdown();
    http.shutdown();
}
