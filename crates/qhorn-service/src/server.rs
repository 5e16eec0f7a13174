//! The TCP front end: a JSON-lines server over [`std::net::TcpListener`]
//! with a fixed worker thread pool, graceful shutdown, and a blocking
//! [`Client`] helper (which also speaks the HTTP transport; see
//! [`Client::connect_http`]). Request semantics live in
//! [`crate::dispatch`], shared with the HTTP frontend.
//!
//! An acceptor thread feeds connections into a channel drained by
//! `workers` handler threads, so at most `workers` connections are served
//! concurrently (excess connections queue). Handlers poll a shutdown flag
//! between requests via a read timeout, so [`Server::shutdown`] drains
//! promptly even with idle keep-alive connections.
//!
//! ## Tracing
//!
//! A request line may carry an optional `"trace_id"` envelope field (a
//! hex id). The request's trace adopts it (and is then always journaled),
//! and the reply line echoes the id back in its own `"trace_id"` field.
//! Requests without the field are traced under a server-minted id but
//! their replies stay byte-identical to an untraced server's — the
//! envelope field never appears unsolicited, so tracing cannot change
//! reply bytes (the conformance suite pins this).

use crate::dispatch::dispatch_traced;
use crate::error::ServiceError;
use crate::http::HttpClient;
use crate::proto::{Reply, Request, StepReply};
use crate::registry::Registry;
use crate::trace;
use qhorn_json::{FromJson, Json, ToJson};
use qhorn_lockdep::{LockClass, OrderedMutex};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running server; dropping it without [`Server::shutdown`] detaches
/// the threads (they exit with the process).
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    registry: Arc<Registry>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts the accept loop and
    /// `workers` handler threads over `registry`.
    ///
    /// # Errors
    /// I/O errors from binding.
    pub fn start(addr: &str, registry: Arc<Registry>, workers: usize) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        // Accepted connections carry their accept instant so the pool
        // telemetry can measure queue wait.
        let (conn_tx, conn_rx) = mpsc::channel::<(TcpStream, std::time::Instant)>();
        let conn_rx = Arc::new(OrderedMutex::new(LockClass::new("pool.receiver"), conn_rx));
        let pool = registry.register_pool("lines", workers.max(1));

        let mut handles = Vec::with_capacity(workers.max(1));
        for i in 0..workers.max(1) {
            let rx = Arc::clone(&conn_rx);
            let reg = Arc::clone(&registry);
            let stop = Arc::clone(&shutdown);
            let pool = Arc::clone(&pool);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("qhorn-worker-{i}"))
                    .spawn(move || {
                        crate::pool::run_worker(&rx, &pool, |s| handle_connection(s, &reg, &stop));
                    })
                    .expect("spawn worker"),
            );
        }

        let stop = Arc::clone(&shutdown);
        let accept_pool = Arc::clone(&pool);
        let acceptor = std::thread::Builder::new()
            .name("qhorn-acceptor".into())
            .spawn(move || {
                // conn_tx lives here: when the acceptor exits, the channel
                // closes and idle workers drain out.
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        Ok(s) => {
                            accept_pool.enqueue();
                            if conn_tx.send((s, std::time::Instant::now())).is_err() {
                                break;
                            }
                        }
                        Err(_) => {
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                        }
                    }
                }
            })
            .expect("spawn acceptor");
        crate::log::info(
            "server",
            "json-lines server listening",
            &[
                ("addr", Json::Str(local.to_string())),
                ("workers", (workers.max(1) as u64).to_json()),
            ],
        );

        Ok(Server {
            addr: local,
            shutdown,
            acceptor: Some(acceptor),
            workers: handles,
            registry,
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared registry.
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Stops accepting, drains the workers, and joins every thread.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Serves one connection: read a line, dispatch, write a line.
fn handle_connection(stream: TcpStream, registry: &Arc<Registry>, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_nodelay(true);
    let mut reader = LineReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    // One reply buffer per connection: each reply is encoded into it in
    // one pass and leaves in one write.
    let mut out = String::new();
    loop {
        match reader.next_line(stop) {
            LineEvent::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                let (reply, echo) = match decode_line(&line) {
                    Ok((req, incoming, carried)) => {
                        let (reply, id) = dispatch_traced(registry, req, incoming);
                        // Echo the id only when the client opted in by
                        // sending the envelope field.
                        (reply, carried.then(|| trace::format_id(id)))
                    }
                    Err(e) => (
                        Reply::Error {
                            message: format!("bad request: {e}"),
                        },
                        None,
                    ),
                };
                out.clear();
                encode_reply(&reply, echo.as_deref(), &mut out);
                if writer.write_all(out.as_bytes()).is_err() {
                    return;
                }
            }
            LineEvent::Closed => return,
            LineEvent::Stopped => return,
        }
    }
}

/// Encodes one reply line into `out`: the reply object, with the echoed
/// `"trace_id"` spliced in before its closing brace (the same bytes as
/// appending the pair to the reply's object), then the newline.
fn encode_reply(reply: &Reply, echo: Option<&str>, out: &mut String) {
    reply.write_json(out);
    if let Some(id) = echo {
        // A reply always encodes as an object, so it ends in `}`.
        out.pop();
        out.push_str(",\"trace_id\":");
        id.write_json(out);
        out.push('}');
    }
    out.push('\n');
}

/// Decodes one request line: the [`Request`] plus the optional
/// `"trace_id"` envelope field (the parsed id, and whether the field was
/// present at all — a malformed id still opts into the echo, but a fresh
/// id is minted). Splitting `Json::parse` from `Request::from_json`
/// matches `qhorn_json::from_str` exactly, so error text is unchanged.
fn decode_line(line: &str) -> Result<(Request, Option<u64>, bool), qhorn_json::JsonError> {
    let json = Json::parse(line)?;
    let envelope = json.get("trace_id");
    let incoming = envelope.and_then(Json::as_str).and_then(trace::parse_id);
    let req = Request::from_json(&json)?;
    Ok((req, incoming, envelope.is_some()))
}

enum LineEvent {
    Line(String),
    Closed,
    Stopped,
}

/// Largest accepted request/reply line; a peer exceeding it is cut off
/// rather than allowed to grow the buffer without bound.
const MAX_LINE_BYTES: usize = 1 << 20;

/// A `\n`-framed reader that survives read timeouts without losing
/// partial lines (a plain `BufReader::read_line` would).
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl LineReader {
    fn new(stream: TcpStream) -> Self {
        LineReader {
            stream,
            buf: Vec::new(),
        }
    }

    fn next_line(&mut self, stop: &AtomicBool) -> LineEvent {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop(); // the newline
                return match String::from_utf8(line) {
                    Ok(s) => LineEvent::Line(s),
                    Err(_) => LineEvent::Closed, // non-UTF-8 peer: drop it
                };
            }
            if stop.load(Ordering::SeqCst) {
                return LineEvent::Stopped;
            }
            if self.buf.len() > MAX_LINE_BYTES {
                return LineEvent::Closed; // newline-free flood: drop the peer
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return LineEvent::Closed,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    // Timeout tick: loop to re-check the stop flag.
                }
                Err(_) => return LineEvent::Closed,
            }
        }
    }
}

/// A blocking protocol client over either transport: JSON-lines TCP
/// ([`Client::connect`]) or HTTP/1.1 keep-alive ([`Client::connect_http`]).
/// Both speak the same [`Request`]/[`Reply`] enums — the conformance
/// suite asserts the servers behind them are indistinguishable.
pub struct Client {
    transport: Transport,
}

enum Transport {
    Lines { stream: TcpStream, buf: Vec<u8> },
    Http(HttpClient),
}

impl Client {
    /// Connects to a JSON-lines TCP server.
    ///
    /// # Errors
    /// Connection failures as [`ServiceError::Transport`].
    pub fn connect(addr: SocketAddr) -> Result<Client, ServiceError> {
        let stream =
            TcpStream::connect(addr).map_err(|e| ServiceError::Transport(e.to_string()))?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            transport: Transport::Lines {
                stream,
                buf: Vec::new(),
            },
        })
    }

    /// Connects to an HTTP/1.1 gateway ([`crate::http::HttpServer`]);
    /// requests go out as `POST /v1/...` with a persistent connection.
    ///
    /// # Errors
    /// Connection failures as [`ServiceError::Transport`].
    pub fn connect_http(addr: SocketAddr) -> Result<Client, ServiceError> {
        Ok(Client {
            transport: Transport::Http(HttpClient::connect(addr)?),
        })
    }

    /// Sends one request and reads one reply.
    ///
    /// # Errors
    /// Transport failures and malformed replies.
    pub fn request(&mut self, req: &Request) -> Result<Reply, ServiceError> {
        match &mut self.transport {
            Transport::Lines { stream, .. } => {
                let mut line = qhorn_json::to_string(req);
                line.push('\n');
                stream
                    .write_all(line.as_bytes())
                    .map_err(|e| ServiceError::Transport(e.to_string()))?;
                let line = self.read_line()?;
                qhorn_json::from_str(&line).map_err(|e| ServiceError::Transport(e.to_string()))
            }
            Transport::Http(http) => http.request(req),
        }
    }

    /// Like [`Client::request`], but opts into tracing: sends `trace_id`
    /// on the transport envelope (the JSON-lines field or the
    /// `X-Qhorn-Trace-Id` header) and returns the server's echoed trace
    /// id alongside the reply. Note the HTTP transport echoes an id even
    /// when none was sent (the header is always set); the JSON-lines
    /// transport echoes only when one was sent.
    ///
    /// # Errors
    /// Transport failures and malformed replies.
    pub fn request_traced(
        &mut self,
        req: &Request,
        trace_id: Option<&str>,
    ) -> Result<(Reply, Option<String>), ServiceError> {
        match &mut self.transport {
            Transport::Lines { stream, .. } => {
                let mut json = req.to_json();
                if let (Json::Obj(pairs), Some(id)) = (&mut json, trace_id) {
                    pairs.push(("trace_id".to_string(), Json::Str(id.to_string())));
                }
                let mut line = qhorn_json::to_string(&json);
                line.push('\n');
                stream
                    .write_all(line.as_bytes())
                    .map_err(|e| ServiceError::Transport(e.to_string()))?;
                let line = self.read_line()?;
                let parsed =
                    Json::parse(&line).map_err(|e| ServiceError::Transport(e.to_string()))?;
                let echoed = parsed
                    .get("trace_id")
                    .and_then(Json::as_str)
                    .map(str::to_string);
                let reply = Reply::from_json(&parsed)
                    .map_err(|e| ServiceError::Transport(e.to_string()))?;
                Ok((reply, echoed))
            }
            Transport::Http(http) => http.request_traced(req, trace_id),
        }
    }

    /// Like [`Client::request`], but unwraps a step reply.
    ///
    /// # Errors
    /// Transport failures and protocol-level `error` replies.
    pub fn step(&mut self, req: &Request) -> Result<(u64, StepReply), ServiceError> {
        match self.request(req)? {
            Reply::Created { session, step } | Reply::Step { session, step } => Ok((session, step)),
            Reply::Error { message } => Err(ServiceError::Transport(message)),
            other => Err(ServiceError::Transport(format!(
                "unexpected reply {other:?}"
            ))),
        }
    }

    fn read_line(&mut self) -> Result<String, ServiceError> {
        let Transport::Lines { stream, buf } = &mut self.transport else {
            unreachable!("read_line is only called on the lines transport");
        };
        loop {
            if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                let rest = buf.split_off(pos + 1);
                let mut line = std::mem::replace(buf, rest);
                line.pop();
                return String::from_utf8(line).map_err(|e| ServiceError::Transport(e.to_string()));
            }
            if buf.len() > MAX_LINE_BYTES {
                return Err(ServiceError::Transport("reply line too long".into()));
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => return Err(ServiceError::Transport("server closed connection".into())),
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(ServiceError::Transport(e.to_string())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trace-id splice gives the bytes of pushing the `trace_id` pair
    /// onto the reply's tree, for a reply of every kind (the wire corpus
    /// holds at least one of each), with and without an echo.
    #[test]
    fn trace_id_splice_matches_the_tree_push_for_every_reply_kind() {
        let corpus = include_str!("../tests/wire_corpus.txt");
        let mut kinds = std::collections::BTreeSet::new();
        for json in corpus.lines().filter_map(|l| l.strip_prefix("Reply ")) {
            let reply: Reply = qhorn_json::from_str(json).expect("corpus reply decodes");
            for echo in [None, Some("00000000000000ab"), Some("q\"uote\\")] {
                let mut tree = reply.to_json();
                if let (Json::Obj(pairs), Some(id)) = (&mut tree, echo) {
                    pairs.push(("trace_id".to_string(), Json::Str(id.to_string())));
                }
                let mut out = String::from("stale bytes are not cleared here\n");
                let start = out.len();
                encode_reply(&reply, echo, &mut out);
                assert_eq!(out[start..], format!("{}\n", tree.to_compact()), "{json}");
            }
            kinds.insert(reply.kind());
        }
        assert_eq!(kinds.len(), Reply::KINDS.len(), "{kinds:?}");
    }
}
