//! The TCP front end: a JSON-lines server and a blocking [`Client`]
//! helper (which also speaks the HTTP transport; see
//! [`Client::connect_http`]). Request semantics live in
//! [`crate::dispatch`], shared with the HTTP frontend.
//!
//! [`Server`] is the shared frontend skeleton (`pool::Frontend`: bind,
//! acceptor, `workers` handler threads, graceful shutdown) plus this
//! module's `handle_connection`, which reads `\n`-framed request lines
//! through the shared `frame::FrameReader` and writes one reply line
//! each.
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
use crate::frame::FrameReader;
use crate::http::HttpClient;
use crate::pool::Frontend;
use crate::proto::{Reply, Request, StepReply};
use crate::registry::Registry;
use crate::trace;
use qhorn_json::{FromJson, Json, ToJson};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Largest accepted request/reply line; a peer exceeding it is cut off
/// rather than allowed to grow the buffer without bound.
const MAX_LINE_BYTES: usize = 1 << 20;

/// A running JSON-lines server; dropping it without [`Server::shutdown`]
/// detaches the threads (they exit with the process).
pub struct Server(Frontend);

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts the accept loop and
    /// `workers` handler threads over `registry`.
    ///
    /// # Errors
    /// I/O errors from binding.
    pub fn start(addr: &str, registry: Arc<Registry>, workers: usize) -> io::Result<Server> {
        Frontend::start(addr, registry, workers, "lines", "qhorn", handle_connection).map(Server)
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// The shared registry.
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        self.0.registry()
    }

    /// Stops accepting, drains the workers, and joins every thread.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// Serves one connection: read a line, dispatch, write a line. A
/// non-UTF-8 line, a newline-free flood past [`MAX_LINE_BYTES`], a
/// closed or failed socket, or the stop flag ends it.
fn handle_connection(stream: TcpStream, registry: &Arc<Registry>, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_nodelay(true);
    let mut conn = FrameReader::new(stream, Some(stop));
    // One reply buffer per connection: each reply is encoded into it in
    // one pass and leaves in one write.
    let mut out = String::new();
    while let Ok(Ok(line)) = conn.line(MAX_LINE_BYTES).map(std::str::from_utf8) {
        if line.trim().is_empty() {
            continue;
        }
        let (reply, echo) = match decode_line(line) {
            Ok((req, incoming, carried)) => {
                let (reply, id) = dispatch_traced(registry, req, incoming);
                // Echo the id only when the client opted in by sending
                // the envelope field.
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
        if conn.write_all(out.as_bytes()).is_err() {
            return;
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

/// A blocking protocol client over either transport: JSON-lines TCP
/// ([`Client::connect`]) or HTTP/1.1 keep-alive ([`Client::connect_http`]).
/// Both speak the same [`Request`]/[`Reply`] enums — the conformance
/// suite asserts the servers behind them are indistinguishable.
pub struct Client {
    transport: Transport,
}

enum Transport {
    Lines(FrameReader<'static>),
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
            transport: Transport::Lines(FrameReader::new(stream, None)),
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
            Transport::Lines(conn) => {
                let line = exchange_line(conn, qhorn_json::to_string(req))?;
                qhorn_json::from_str(line).map_err(|e| ServiceError::Transport(e.to_string()))
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
            Transport::Lines(conn) => {
                let mut json = req.to_json();
                if let (Json::Obj(pairs), Some(id)) = (&mut json, trace_id) {
                    pairs.push(("trace_id".to_string(), Json::Str(id.to_string())));
                }
                let line = exchange_line(conn, qhorn_json::to_string(&json))?;
                let parsed =
                    Json::parse(line).map_err(|e| ServiceError::Transport(e.to_string()))?;
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
}

/// Sends one request line (`line`, without its newline) and reads the
/// reply line.
fn exchange_line<'c>(
    conn: &'c mut FrameReader<'static>,
    mut line: String,
) -> Result<&'c str, ServiceError> {
    line.push('\n');
    conn.write_all(line.as_bytes())
        .map_err(|e| ServiceError::Transport(e.to_string()))?;
    let reply = conn.line(MAX_LINE_BYTES)?;
    std::str::from_utf8(reply).map_err(|e| ServiceError::Transport(e.to_string()))
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
