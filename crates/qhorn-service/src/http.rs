//! The HTTP/1.1 gateway: the same protocol the JSON-lines TCP server
//! speaks, reachable from ordinary web clients (`curl`, browsers, load
//! balancers), plus the Prometheus scrape endpoint.
//!
//! Implemented on `std` only. [`HttpServer`] is the shared frontend
//! skeleton (`pool::Frontend`: bind, acceptor, `workers` handler threads,
//! graceful shutdown) plus this module's `handle_connection`, which
//! parses HTTP/1.1 requests through the shared `frame::FrameReader`:
//! keep-alive, `Content-Length` **and** `Transfer-Encoding: chunked`
//! bodies, and bounded head/body sizes.
//! Every API route funnels through [`crate::dispatch::try_dispatch`] —
//! the same function the TCP frontend calls — so the two frontends cannot
//! drift (the conformance suite asserts it).
//!
//! ## Routes
//!
//! | Route                       | Protocol message  |
//! |-----------------------------|-------------------|
//! | `POST /v1/session/create`   | `create_session`  |
//! | `POST /v1/session/next`     | `next_question`   |
//! | `POST /v1/session/answer`   | `answer`          |
//! | `POST /v1/session/correct`  | `correct`         |
//! | `POST /v1/session/verify`   | `verify`          |
//! | `POST /v1/session/export`   | `export_query`    |
//! | `POST /v1/session/close`    | `close_session`   |
//! | `POST /v1/dataset/upload`   | `upload_dataset`  |
//! | `POST /v1/dataset/drop`     | `drop_dataset`    |
//! | `GET`/`POST /v1/datasets`   | `list_datasets`   |
//! | `POST /v1/evaluate`         | `evaluate_batch`  |
//! | `GET`/`POST /v1/stats`      | `stats`           |
//! | `GET`/`POST /v1/metrics`    | `metrics` (JSON)  |
//! | `GET /v1/trace/{id}`        | `get_trace`       |
//! | `POST /v1/trace`            | `get_trace`       |
//! | `GET`/`POST /v1/traces`     | `list_traces`     |
//! | `GET /v1/session/{id}/timeline` | `session_timeline` |
//! | `POST /v1/session/timeline` | `session_timeline`|
//! | `GET`/`POST /v1/health`     | `health`          |
//! | `GET`/`POST /v1/debug/profile` | `profile`      |
//! | `GET /v1/session/{id}/resources` | `session_resources` |
//! | `POST /v1/session/resources`| `session_resources` |
//! | `POST /v1/trace/config`     | `set_trace_config`|
//! | `GET /metrics`              | Prometheus text   |
//!
//! Dataset uploads ride the same body framing as every other route, so
//! the existing 1 MiB body cap bounds them on both framings
//! (`Content-Length` and chunked).
//!
//! The request body is the message's JSON object **without** the `"type"`
//! field (the route implies it); a body that does carry `"type"` must
//! agree with the route. Replies are the same JSON objects the TCP
//! frontend writes, one per response, `Content-Length`-framed. Errors map
//! onto status codes ([`status_for`]) with a `Reply::Error` JSON body.
//!
//! ## Tracing
//!
//! Every API response carries an `X-Qhorn-Trace-Id` header with the
//! request's trace id. A client may supply its own id in the same
//! request header — such traces are always journaled (they bypass the
//! head sampler); a malformed id is ignored and a fresh one minted.
//! `GET /v1/traces` accepts query-string filters: `min_nanos`/`min_ms`,
//! `kind`, `session`, `slow`, `limit`. Trace ids never appear in reply
//! bodies, so tracing cannot change reply bytes (the conformance suite
//! pins this).

use crate::dispatch::try_dispatch_traced;
use crate::error::ServiceError;
use crate::frame::{FrameReader, Short};
use crate::pool::Frontend;
use crate::proto::{Reply, Request, DEFAULT_TRACE_LIMIT};
use crate::registry::Registry;
use crate::trace;
use qhorn_json::{FromJson, Json, ToJson};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Largest accepted request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Largest accepted request body (either framing).
const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest accepted chunk-size or trailer line.
const MAX_CHUNK_LINE_BYTES: usize = 1024;

/// Route table: request path → protocol message type.
const ROUTES: &[(&str, &str)] = &[
    ("/v1/session/create", "create_session"),
    ("/v1/session/next", "next_question"),
    ("/v1/session/answer", "answer"),
    ("/v1/session/correct", "correct"),
    ("/v1/session/verify", "verify"),
    ("/v1/session/export", "export_query"),
    ("/v1/session/close", "close_session"),
    ("/v1/dataset/upload", "upload_dataset"),
    ("/v1/dataset/drop", "drop_dataset"),
    ("/v1/datasets", "list_datasets"),
    ("/v1/evaluate", "evaluate_batch"),
    ("/v1/stats", "stats"),
    ("/v1/metrics", "metrics"),
    ("/v1/trace", "get_trace"),
    ("/v1/traces", "list_traces"),
    ("/v1/session/timeline", "session_timeline"),
    ("/v1/health", "health"),
    ("/v1/debug/profile", "profile"),
    ("/v1/session/resources", "session_resources"),
    ("/v1/trace/config", "set_trace_config"),
];

/// The request path carrying a protocol message kind (client side).
#[must_use]
pub fn route_for_kind(kind: &str) -> &'static str {
    ROUTES
        .iter()
        .find(|(_, k)| *k == kind)
        .map(|(path, _)| *path)
        .expect("every request kind has a route")
}

/// The HTTP status an error maps onto.
#[must_use]
pub fn status_for(e: &ServiceError) -> u16 {
    match e {
        ServiceError::UnknownSession(_)
        | ServiceError::UnknownDataset(_)
        | ServiceError::UnknownTrace(_) => 404,
        ServiceError::WrongState { .. } | ServiceError::DatasetConflict(_) => 409,
        ServiceError::Parse(_) => 400,
        // Semantic (not syntactic) rejections: the request parsed fine
        // but names an impossible computation (or config).
        ServiceError::Engine(_)
        | ServiceError::InvalidDataset(_)
        | ServiceError::InvalidSize(_)
        | ServiceError::InvalidConfig(_) => 422,
        ServiceError::Store(_) => 500,
        ServiceError::Transport(_) => 502,
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// A running HTTP gateway; dropping it without [`HttpServer::shutdown`]
/// detaches the threads (they exit with the process).
pub struct HttpServer(Frontend);

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts the accept loop and
    /// `workers` handler threads over `registry`.
    ///
    /// # Errors
    /// I/O errors from binding.
    pub fn start(addr: &str, registry: Arc<Registry>, workers: usize) -> io::Result<HttpServer> {
        Frontend::start(
            addr,
            registry,
            workers,
            "http",
            "qhorn-http",
            handle_connection,
        )
        .map(HttpServer)
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

/// One parsed request.
struct HttpRequest {
    method: String,
    /// Path with any query string stripped.
    path: String,
    /// The query string (without the `?`), empty when absent.
    query: String,
    /// `true` for HTTP/1.1, `false` for HTTP/1.0.
    http11: bool,
    /// Lowercased header names.
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl HttpRequest {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn header_count(&self, name: &str) -> usize {
        self.headers.iter().filter(|(k, _)| k == name).count()
    }

    /// Keep-alive per HTTP/1.x defaults and the `Connection` header.
    fn keep_alive(&self) -> bool {
        let conn = self.header("connection").unwrap_or("").to_ascii_lowercase();
        if self.http11 {
            !conn.split(',').any(|t| t.trim() == "close")
        } else {
            conn.split(',').any(|t| t.trim() == "keep-alive")
        }
    }
}

/// Why no request was read.
enum NoRequest {
    /// The request could not be parsed: answered with a 4xx/5xx and a
    /// closed connection, since framing cannot be trusted afterwards.
    Bad { status: u16, message: String },
    /// The connection is over: the peer closed it (or flooded past a
    /// limit mid-frame), the socket failed, or the server is stopping.
    Gone,
}

impl NoRequest {
    fn bad(status: u16, message: impl Into<String>) -> Self {
        NoRequest::Bad {
            status,
            message: message.into(),
        }
    }
}

/// Maps a read that ended early: a frame past its limit is answered with
/// `status` and `message`; any other end closes the connection.
fn ended(short: Short, status: u16, message: &str) -> NoRequest {
    match short {
        Short::TooLong => NoRequest::bad(status, message),
        Short::Closed | Short::Failed(_) => NoRequest::Gone,
    }
}

/// Serves one connection: parse a request, dispatch, write a response,
/// repeat while keep-alive holds.
fn handle_connection(stream: TcpStream, registry: &Arc<Registry>, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_nodelay(true);
    let mut conn = FrameReader::new(stream, Some(stop));
    // One response buffer per connection: head and body leave in one
    // write.
    let mut out = String::new();
    loop {
        match read_request(&mut conn) {
            Ok(req) => {
                let keep_alive = req.keep_alive();
                let response = respond(registry, &req);
                if write_response(&conn, &mut out, &response, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            Err(NoRequest::Bad { status, message }) => {
                // Framing is unreliable after a parse failure: answer (so
                // the peer learns why) and close.
                crate::log::warn(
                    "http",
                    "rejected unparseable http request",
                    &[
                        ("status", u64::from(status).to_json()),
                        ("reason", Json::Str(message.clone())),
                    ],
                );
                let response = HttpResponse {
                    status,
                    content_type: "application/json",
                    body: qhorn_json::to_string(&Reply::Error { message }),
                    allow: None,
                    trace_id: None,
                };
                let _ = write_response(&conn, &mut out, &response, false);
                return;
            }
            Err(NoRequest::Gone) => return,
        }
    }
}

/// One response, ready to frame onto the wire.
struct HttpResponse {
    status: u16,
    content_type: &'static str,
    body: String,
    /// `Allow` header value, required on every 405 (RFC 9110 §15.5.6).
    allow: Option<&'static str>,
    /// `X-Qhorn-Trace-Id` header value, set on every dispatched request.
    trace_id: Option<String>,
}

/// Maps one request onto a response.
fn respond(registry: &Arc<Registry>, req: &HttpRequest) -> HttpResponse {
    // The Prometheus scrape endpoint is plain text, not a protocol route.
    if req.path == "/metrics" {
        if req.method != "GET" {
            return error_response(405, format!("method {} not allowed", req.method))
                .with_allow("GET");
        }
        return HttpResponse {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: crate::metrics::scrape(registry),
            allow: None,
            trace_id: None,
        };
    }
    // Path-parameter routes, ahead of the exact-route table.
    // `GET /v1/trace/{id}`: the span tree for one trace (`/v1/trace/config`
    // is an exact route, not a trace id).
    if let Some(id) = req.path.strip_prefix("/v1/trace/") {
        if id != "config" {
            if req.method != "GET" {
                return error_response(405, format!("method {} not allowed", req.method))
                    .with_allow("GET");
            }
            return dispatch_api(registry, req, Request::GetTrace { id: id.to_string() });
        }
    }
    // `GET /v1/session/{id}/timeline`: one session's dialogue timeline.
    if let Some(id_text) = req
        .path
        .strip_prefix("/v1/session/")
        .and_then(|rest| rest.strip_suffix("/timeline"))
    {
        if req.method != "GET" {
            return error_response(405, format!("method {} not allowed", req.method))
                .with_allow("GET");
        }
        let Ok(session) = id_text.parse::<u64>() else {
            return error_response(400, format!("bad session id `{id_text}`"));
        };
        return dispatch_api(registry, req, Request::SessionTimeline { session });
    }
    // `GET /v1/session/{id}/resources`: one session's resource accounting.
    if let Some(id_text) = req
        .path
        .strip_prefix("/v1/session/")
        .and_then(|rest| rest.strip_suffix("/resources"))
    {
        if !id_text.is_empty() {
            if req.method != "GET" {
                return error_response(405, format!("method {} not allowed", req.method))
                    .with_allow("GET");
            }
            let Ok(session) = id_text.parse::<u64>() else {
                return error_response(400, format!("bad session id `{id_text}`"));
            };
            return dispatch_api(registry, req, Request::SessionResources { session });
        }
    }
    let Some((_, kind)) = ROUTES.iter().find(|(path, _)| *path == req.path) else {
        return error_response(404, format!("no route for `{}`", req.path));
    };
    // GET works for the read-only routes; everything else is POST.
    let read_only = matches!(
        *kind,
        "stats" | "metrics" | "list_datasets" | "list_traces" | "health" | "profile"
    );
    if !(req.method == "POST" || (req.method == "GET" && read_only)) {
        return error_response(405, format!("method {} not allowed", req.method))
            .with_allow(if read_only { "GET, POST" } else { "POST" });
    }
    // `GET /v1/traces` filters arrive as query parameters; every other
    // route reads its message from the body.
    let request = if *kind == "list_traces" && req.method == "GET" {
        match list_traces_from_query(&req.query) {
            Ok(request) => request,
            Err(message) => return error_response(400, message),
        }
    } else {
        match decode_body(kind, &req.body) {
            Ok(request) => request,
            Err(message) => return error_response(400, message),
        }
    };
    dispatch_api(registry, req, request)
}

/// Dispatches one decoded protocol message, adopting the client's
/// `X-Qhorn-Trace-Id` when it parses (a malformed id is ignored and a
/// fresh one minted), and stamps the response with the trace id.
fn dispatch_api(registry: &Arc<Registry>, req: &HttpRequest, request: Request) -> HttpResponse {
    let incoming = req.header("x-qhorn-trace-id").and_then(trace::parse_id);
    let (result, trace_id) = try_dispatch_traced(registry, request, incoming);
    let hex = trace::format_id(trace_id);
    match result {
        Ok(reply) => HttpResponse {
            status: 200,
            content_type: "application/json",
            body: qhorn_json::to_string(&reply),
            allow: None,
            trace_id: Some(hex),
        },
        Err(e) => HttpResponse {
            status: status_for(&e),
            content_type: "application/json",
            body: qhorn_json::to_string(&Reply::from(e)),
            allow: None,
            trace_id: Some(hex),
        },
    }
}

/// Builds a `list_traces` message from `GET /v1/traces` query parameters.
fn list_traces_from_query(query: &str) -> Result<Request, String> {
    let mut min_duration_nanos = None;
    let mut kind = None;
    let mut session = None;
    let mut slow_only = false;
    let mut limit = DEFAULT_TRACE_LIMIT;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("bad query value `{k}={v}`"))
        };
        match k {
            "min_nanos" => min_duration_nanos = Some(number(v)?),
            "min_ms" => min_duration_nanos = Some(number(v)?.saturating_mul(1_000_000)),
            "kind" => kind = Some(v.to_string()),
            "session" => session = Some(number(v)?),
            "slow" => slow_only = matches!(v, "" | "1" | "true"),
            "limit" => limit = number(v)?,
            other => return Err(format!("unknown query parameter `{other}`")),
        }
    }
    Ok(Request::ListTraces {
        min_duration_nanos,
        kind,
        session,
        slow_only,
        limit,
    })
}

impl HttpResponse {
    fn with_allow(mut self, allow: &'static str) -> Self {
        self.allow = Some(allow);
        self
    }
}

fn error_response(status: u16, message: String) -> HttpResponse {
    HttpResponse {
        status,
        content_type: "application/json",
        body: qhorn_json::to_string(&Reply::Error { message }),
        allow: None,
        trace_id: None,
    }
}

/// Decodes a request body into the route's protocol message: the body is
/// the message object without `"type"` (the route implies it); an
/// explicit `"type"` must agree.
fn decode_body(kind: &str, body: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let parsed = if text.trim().is_empty() {
        Json::Obj(Vec::new())
    } else {
        Json::parse(text).map_err(|e| format!("bad JSON body: {e}"))?
    };
    let Json::Obj(mut pairs) = parsed else {
        return Err("body must be a JSON object".into());
    };
    let explicit = parsed_type(&pairs).map(str::to_string);
    match explicit.as_deref() {
        Some(t) if t != kind => {
            return Err(format!(
                "body type `{t}` does not match the route (`{kind}`)"
            ));
        }
        Some(_) => {}
        None => pairs.insert(0, ("type".to_string(), Json::Str(kind.to_string()))),
    }
    Request::from_json(&Json::Obj(pairs)).map_err(|e| format!("bad request: {e}"))
}

fn parsed_type(pairs: &[(String, Json)]) -> Option<&str> {
    pairs
        .iter()
        .find(|(k, _)| k == "type")
        .and_then(|(_, v)| v.as_str())
}

fn write_response(
    conn: &FrameReader,
    out: &mut String,
    response: &HttpResponse,
    keep_alive: bool,
) -> io::Result<()> {
    out.clear();
    frame_response(response, keep_alive, out);
    conn.write_all(out.as_bytes())
}

/// Frames a response, head and body, into `out`. Numbers go through
/// `write_json`, which writes an integer as its decimal digits.
fn frame_response(response: &HttpResponse, keep_alive: bool, out: &mut String) {
    out.push_str("HTTP/1.1 ");
    response.status.write_json(out);
    out.push(' ');
    out.push_str(reason(response.status));
    out.push_str("\r\nContent-Type: ");
    out.push_str(response.content_type);
    out.push_str("\r\nContent-Length: ");
    response.body.len().write_json(out);
    out.push_str(if keep_alive {
        "\r\nConnection: keep-alive\r\n"
    } else {
        "\r\nConnection: close\r\n"
    });
    if let Some(allow) = response.allow {
        out.push_str("Allow: ");
        out.push_str(allow);
        out.push_str("\r\n");
    }
    if let Some(id) = &response.trace_id {
        out.push_str("X-Qhorn-Trace-Id: ");
        out.push_str(id);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.push_str(&response.body);
}

/// Reads and parses one request off the connection.
fn read_request(conn: &mut FrameReader) -> Result<HttpRequest, NoRequest> {
    let head = conn
        .head(MAX_HEAD_BYTES)
        .map_err(|e| ended(e, 431, "request head too large"))?;
    let head =
        std::str::from_utf8(head).map_err(|_| NoRequest::bad(400, "request head is not UTF-8"))?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(NoRequest::bad(
            400,
            format!("malformed request line `{request_line}`"),
        ));
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => {
            return Err(NoRequest::bad(
                505,
                format!("unsupported version `{version}`"),
            ))
        }
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // the blank terminator line
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(NoRequest::bad(400, format!("malformed header `{line}`")));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(NoRequest::bad(400, format!("malformed header `{line}`")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut request = HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        http11,
        headers,
        body: Vec::new(),
    };
    request.body = read_body(conn, &request)?;
    Ok(request)
}

/// Reads the request body per its framing headers.
fn read_body(conn: &mut FrameReader, req: &HttpRequest) -> Result<Vec<u8>, NoRequest> {
    // Duplicate framing headers are a request-smuggling vector (RFC 9112
    // §6.3): two Content-Lengths desync this server from any intermediary
    // that honors the other one. Unrecoverable — reject, close.
    if req.header_count("content-length") > 1 || req.header_count("transfer-encoding") > 1 {
        return Err(NoRequest::bad(400, "duplicate body-framing headers"));
    }
    let transfer_encoding = req.header("transfer-encoding").map(str::to_ascii_lowercase);
    let content_length = req.header("content-length");
    match (transfer_encoding.as_deref(), content_length) {
        (Some(_), Some(_)) => Err(NoRequest::bad(
            400,
            "both Transfer-Encoding and Content-Length",
        )),
        (Some("chunked"), None) => read_chunked(conn),
        (Some(other), None) => Err(NoRequest::bad(
            501,
            format!("unsupported transfer encoding `{other}`"),
        )),
        (None, Some(len)) => {
            let Ok(len) = len.parse::<usize>() else {
                return Err(NoRequest::bad(400, format!("bad Content-Length `{len}`")));
            };
            if len > MAX_BODY_BYTES {
                return Err(NoRequest::bad(413, "body too large"));
            }
            Ok(conn.exact(len).map_err(|_| NoRequest::Gone)?.to_vec())
        }
        (None, None) => Ok(Vec::new()),
    }
}

/// Reads a `Transfer-Encoding: chunked` body (sizes in hex, optional
/// chunk extensions, trailer section discarded).
fn read_chunked(conn: &mut FrameReader) -> Result<Vec<u8>, NoRequest> {
    // One chunk-framing line, without its `\r\n` (or bare `\n`).
    fn chunk_line<'c>(conn: &'c mut FrameReader, too_long: &str) -> Result<&'c [u8], NoRequest> {
        let line = conn
            .line(MAX_CHUNK_LINE_BYTES)
            .map_err(|e| ended(e, 400, too_long))?;
        Ok(line.strip_suffix(b"\r").unwrap_or(line))
    }
    let mut body = Vec::new();
    loop {
        let line = String::from_utf8_lossy(chunk_line(conn, "chunk size line too long")?);
        let size_text = line.trim().split(';').next().unwrap_or("").trim();
        let Ok(size) = usize::from_str_radix(size_text, 16) else {
            return Err(NoRequest::bad(400, format!("bad chunk size `{size_text}`")));
        };
        if size == 0 {
            // Trailer section: lines until the blank terminator.
            while !chunk_line(conn, "trailer too long")?.is_empty() {}
            return Ok(body);
        }
        if body.len().saturating_add(size) > MAX_BODY_BYTES {
            return Err(NoRequest::bad(413, "body too large"));
        }
        body.extend_from_slice(conn.exact(size).map_err(|_| NoRequest::Gone)?);
        // The CRLF closing the chunk.
        if !chunk_line(conn, "chunk not CRLF-terminated")?.is_empty() {
            return Err(NoRequest::bad(400, "chunk not CRLF-terminated"));
        }
    }
}

// ---------------------------------------------------------------------------
// Client transport
// ---------------------------------------------------------------------------

/// A blocking HTTP/1.1 keep-alive transport speaking the protocol enums;
/// used through [`crate::server::Client::connect_http`].
pub struct HttpClient {
    conn: FrameReader<'static>,
}

impl HttpClient {
    /// Connects to an [`HttpServer`].
    ///
    /// # Errors
    /// Connection failures as [`ServiceError::Transport`].
    pub fn connect(addr: SocketAddr) -> Result<HttpClient, ServiceError> {
        let stream =
            TcpStream::connect(addr).map_err(|e| ServiceError::Transport(e.to_string()))?;
        let _ = stream.set_nodelay(true);
        Ok(HttpClient {
            conn: FrameReader::new(stream, None),
        })
    }

    /// Sends one protocol request as `POST <route>` and decodes the JSON
    /// reply (both success and error bodies decode as [`Reply`]).
    ///
    /// # Errors
    /// Transport failures and malformed replies.
    pub fn request(&mut self, req: &Request) -> Result<Reply, ServiceError> {
        self.request_traced(req, None).map(|(reply, _)| reply)
    }

    /// Like [`HttpClient::request`], but sends `trace_id` in the
    /// `X-Qhorn-Trace-Id` request header (such traces are always
    /// journaled) and returns the server's echoed trace id alongside the
    /// reply.
    ///
    /// # Errors
    /// Transport failures and malformed replies.
    pub fn request_traced(
        &mut self,
        req: &Request,
        trace_id: Option<&str>,
    ) -> Result<(Reply, Option<String>), ServiceError> {
        let path = route_for_kind(req.kind());
        let body = qhorn_json::to_string(req);
        let mut head = format!(
            "POST {path} HTTP/1.1\r\nHost: qhorn\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        );
        if let Some(id) = trace_id {
            head.push_str(&format!("X-Qhorn-Trace-Id: {id}\r\n"));
        }
        head.push_str("\r\n");
        // One write for head and body: on a `TCP_NODELAY` socket two
        // writes go out as two segments.
        head.push_str(&body);
        self.conn
            .write_all(head.as_bytes())
            .map_err(|e| ServiceError::Transport(e.to_string()))?;
        let (_, headers, body) = self.read_response()?;
        let echoed = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("x-qhorn-trace-id"))
            .map(|(_, v)| v.clone());
        let reply =
            qhorn_json::from_str(&body).map_err(|e| ServiceError::Transport(e.to_string()))?;
        Ok((reply, echoed))
    }

    /// Scrapes `GET /metrics` as Prometheus text.
    ///
    /// # Errors
    /// Transport failures.
    pub fn scrape_metrics(&mut self) -> Result<String, ServiceError> {
        self.conn
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: qhorn\r\n\r\n")
            .map_err(|e| ServiceError::Transport(e.to_string()))?;
        let (status, _, body) = self.read_response()?;
        if status != 200 {
            return Err(ServiceError::Transport(format!("scrape failed: {status}")));
        }
        Ok(body)
    }

    /// Reads one `Content-Length`-framed response: status, headers, body.
    #[allow(clippy::type_complexity)]
    fn read_response(&mut self) -> Result<(u16, Vec<(String, String)>, String), ServiceError> {
        let transport = |m: String| ServiceError::Transport(m);
        let head = self.conn.head(MAX_HEAD_BYTES)?;
        let head = std::str::from_utf8(head).map_err(|e| transport(e.to_string()))?;
        let mut lines = head.lines();
        let status_line = lines.next().unwrap_or("");
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| transport(format!("bad status line `{status_line}`")))?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.to_string(), v.trim().to_string()))
            .collect();
        let content_length = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.parse::<usize>().ok())
            .ok_or_else(|| transport("response without Content-Length".into()))?;
        let body = self.conn.exact(content_length)?;
        let body = std::str::from_utf8(body).map_err(|e| transport(e.to_string()))?;
        Ok((status, headers, body.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhorn_engine::session::LearnerKind;

    #[test]
    fn every_request_kind_has_a_route_and_back() {
        for (path, kind) in ROUTES {
            assert_eq!(route_for_kind(kind), *path);
        }
        assert_eq!(route_for_kind("answer"), "/v1/session/answer");
    }

    #[test]
    fn decode_body_injects_and_checks_the_route_type() {
        // Route implies the type.
        let req = decode_body("next_question", br#"{"session":3}"#).unwrap();
        assert_eq!(req, Request::NextQuestion { session: 3 });
        // Explicit matching type is fine.
        let req = decode_body("stats", br#"{"type":"stats"}"#).unwrap();
        assert_eq!(req, Request::Stats);
        // Mismatch is rejected.
        assert!(decode_body("stats", br#"{"type":"answer","session":1}"#).is_err());
        // Garbage is rejected.
        assert!(decode_body("stats", b"\xff\xfe").is_err());
        assert!(decode_body("stats", b"[1,2]").is_err());
        // Empty body works for field-free messages…
        assert_eq!(decode_body("stats", b"").unwrap(), Request::Stats);
        // …and fails with a missing-field error for ones with fields.
        let err = decode_body("answer", b"").unwrap_err();
        assert!(err.contains("session"), "{err}");
        // Full create body round-trips through the decode path.
        let req = decode_body(
            "create_session",
            br#"{"dataset":"chocolates","size":30,"learner":"qhorn1"}"#,
        )
        .unwrap();
        assert_eq!(
            req,
            Request::CreateSession {
                dataset: "chocolates".into(),
                size: 30,
                learner: LearnerKind::Qhorn1,
                max_questions: None,
            }
        );
    }

    #[test]
    fn status_mapping_is_total_and_sane() {
        assert_eq!(status_for(&ServiceError::UnknownSession(1)), 404);
        assert_eq!(status_for(&ServiceError::Parse("x".into())), 400);
        assert_eq!(
            status_for(&ServiceError::WrongState {
                state: "done",
                needed: "x"
            }),
            409
        );
        assert_eq!(status_for(&ServiceError::Store("x".into())), 500);
        assert_eq!(status_for(&ServiceError::DatasetConflict("x".into())), 409);
        assert_eq!(status_for(&ServiceError::InvalidDataset("x".into())), 422);
        assert_eq!(status_for(&ServiceError::InvalidSize("x".into())), 422);
        assert_eq!(status_for(&ServiceError::InvalidConfig("x".into())), 422);
    }

    #[test]
    fn observability_routes_resolve() {
        assert_eq!(route_for_kind("health"), "/v1/health");
        assert_eq!(route_for_kind("profile"), "/v1/debug/profile");
        assert_eq!(route_for_kind("session_resources"), "/v1/session/resources");
        assert_eq!(route_for_kind("set_trace_config"), "/v1/trace/config");
        // Empty bodies decode for the field-free reads; the config route
        // with an empty body is a no-op update (both knobs absent).
        assert_eq!(decode_body("health", b"").unwrap(), Request::Health);
        assert_eq!(
            decode_body("profile", b"").unwrap(),
            Request::Profile { reset: false }
        );
        assert_eq!(
            decode_body("profile", br#"{"reset":true}"#).unwrap(),
            Request::Profile { reset: true }
        );
        assert_eq!(
            decode_body("set_trace_config", br#"{"slow_threshold_ms":250}"#).unwrap(),
            Request::SetTraceConfig {
                slow_threshold_ms: Some(250),
                sample_every: None,
            }
        );
    }

    #[test]
    fn trace_routes_resolve_and_queries_parse() {
        assert_eq!(route_for_kind("get_trace"), "/v1/trace");
        assert_eq!(route_for_kind("list_traces"), "/v1/traces");
        assert_eq!(route_for_kind("session_timeline"), "/v1/session/timeline");
        // A bare query defaults every filter.
        assert_eq!(
            list_traces_from_query("").unwrap(),
            Request::ListTraces {
                min_duration_nanos: None,
                kind: None,
                session: None,
                slow_only: false,
                limit: DEFAULT_TRACE_LIMIT,
            }
        );
        assert_eq!(
            list_traces_from_query("min_ms=5&kind=answer&session=3&slow=1&limit=7").unwrap(),
            Request::ListTraces {
                min_duration_nanos: Some(5_000_000),
                kind: Some("answer".into()),
                session: Some(3),
                slow_only: true,
                limit: 7,
            }
        );
        assert!(matches!(
            list_traces_from_query("min_nanos=250&slow").unwrap(),
            Request::ListTraces {
                min_duration_nanos: Some(250),
                slow_only: true,
                ..
            }
        ));
        assert!(list_traces_from_query("limit=x").is_err());
        assert!(list_traces_from_query("bogus=1").is_err());
    }

    #[test]
    fn dataset_routes_resolve_and_list_is_read_only() {
        assert_eq!(route_for_kind("upload_dataset"), "/v1/dataset/upload");
        assert_eq!(route_for_kind("drop_dataset"), "/v1/dataset/drop");
        assert_eq!(route_for_kind("list_datasets"), "/v1/datasets");
        assert_eq!(
            decode_body("list_datasets", b"").unwrap(),
            Request::ListDatasets
        );
    }

    /// One buffer carries head and body: the same bytes the head's
    /// `format!` followed by the body used to put on the wire in two
    /// writes.
    #[test]
    fn framed_response_matches_the_formatted_head_and_body() {
        let cases = [
            (
                200,
                "application/json",
                "{\"type\":\"closed\",\"session\":7}",
                None,
                Some("00000000000000ab"),
                true,
            ),
            (405, "application/json", "", Some("GET, POST"), None, false),
            (
                200,
                "text/plain; version=0.0.4",
                "# HELP x\n",
                None,
                None,
                true,
            ),
            (503, "application/json", "∀x1 — é", None, Some("ff"), false),
        ];
        for (status, content_type, body, allow, trace_id, keep_alive) in cases {
            let response = HttpResponse {
                status,
                content_type,
                body: body.to_string(),
                allow,
                trace_id: trace_id.map(str::to_string),
            };
            let connection = if keep_alive { "keep-alive" } else { "close" };
            let mut want = format!(
                "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
                status,
                reason(status),
                content_type,
                body.len(),
            );
            if let Some(allow) = allow {
                want.push_str(&format!("Allow: {allow}\r\n"));
            }
            if let Some(id) = trace_id {
                want.push_str(&format!("X-Qhorn-Trace-Id: {id}\r\n"));
            }
            want.push_str("\r\n");
            want.push_str(body);
            let mut out = String::new();
            frame_response(&response, keep_alive, &mut out);
            assert_eq!(out, want);
        }
    }
}
