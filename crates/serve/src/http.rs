//! A minimal HTTP/1.1 layer over `std::io` streams: request parsing with
//! `Content-Length` bodies, response writing, and keep-alive semantics.
//!
//! This is deliberately a small subset of the protocol — exactly what the
//! planning service needs and nothing more. No chunked transfer encoding
//! (requests carrying `Transfer-Encoding` are rejected with 411/400), no
//! multipart, no TLS. Limits are enforced while reading so a hostile peer
//! cannot make the server buffer unbounded data: the request line and each
//! header line are capped, the header count is capped, and bodies larger
//! than the configured maximum fail *before* allocation with
//! [`HttpError::PayloadTooLarge`].

use std::io::{self, BufRead, Write};
use std::time::Instant;

/// Hard cap on one request/header line (bytes, including CRLF).
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Hard cap on the number of headers per request.
const MAX_HEADERS: usize = 64;
/// The `Retry-After` hint, in seconds, on every `503` the servers send.
const RETRY_AFTER_SECS: u32 = 1;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request method, uppercased (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// The decoded path without the query string (e.g. `/jobs/3/plan`).
    pub path: String,
    /// Query parameters in order of appearance (`?a=1&b=2`).
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// The first query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange (HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The connection closed cleanly before a request line arrived — the
    /// normal end of a keep-alive session, not an error to report.
    Closed,
    /// The bytes on the wire are not a request this layer accepts; the
    /// message is safe to echo back in a 400 body.
    BadRequest(String),
    /// The declared body exceeds the configured limit (maps to 413).
    PayloadTooLarge {
        /// The declared `Content-Length`.
        declared: u64,
        /// The configured maximum body size.
        limit: usize,
    },
    /// The socket read timed out (per-read `set_read_timeout`) or the
    /// request head overran its total deadline (slowloris protection).
    Timeout {
        /// Whether part of a request had already arrived. A timeout on an
        /// idle keep-alive connection (`false`) is a quiet close; a
        /// timeout mid-request (`true`) maps to `408 Request Timeout`.
        mid_request: bool,
    },
    /// The underlying socket failed mid-request.
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => f.write_str("connection closed"),
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::PayloadTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
            HttpError::Timeout { mid_request: true } => f.write_str("request timed out"),
            HttpError::Timeout { mid_request: false } => f.write_str("idle connection timed out"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// Whether an i/o error is a socket read/write timeout. `set_read_timeout`
/// surfaces as `WouldBlock` on Unix and `TimedOut` on Windows.
fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Reads one line terminated by `\n`, enforcing the line-length cap and —
/// when a deadline is given — the total header deadline. Returns `None`
/// on clean EOF at a line boundary.
fn read_line(
    stream: &mut impl BufRead,
    deadline: Option<Instant>,
) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            // The deadline caps the *total* time spent on a request head,
            // so a peer dripping one byte per read (slowloris) cannot
            // dodge the per-read socket timeout indefinitely.
            return Err(HttpError::Timeout { mid_request: !line.is_empty() });
        }
        let buf = stream.fill_buf().map_err(|e| {
            if is_timeout(&e) {
                HttpError::Timeout { mid_request: !line.is_empty() }
            } else {
                HttpError::Io(e)
            }
        })?;
        if buf.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(HttpError::BadRequest("connection closed mid-line".into()))
            };
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map_or(buf.len(), |i| i + 1);
        if line.len() + take > MAX_LINE_BYTES {
            return Err(HttpError::BadRequest("header line too long".into()));
        }
        line.extend_from_slice(&buf[..take]);
        stream.consume(take);
        if newline.is_some() {
            while line.last() == Some(&b'\n') || line.last() == Some(&b'\r') {
                line.pop();
            }
            let text = String::from_utf8(line)
                .map_err(|_| HttpError::BadRequest("non-UTF-8 header data".into()))?;
            return Ok(Some(text));
        }
    }
}

/// Decodes `%xx` escapes and `+` (as space) in a query component.
fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Reads and parses one request from `stream`, with an optional total
/// deadline on the request head (request line + headers). The deadline
/// defends against slowloris peers that drip bytes slowly enough to reset
/// the per-read socket timeout; body reads are bounded by the socket
/// timeout alone.
///
/// # Errors
///
/// [`HttpError::Closed`] on clean EOF before any bytes (keep-alive end),
/// [`HttpError::BadRequest`] for malformed or truncated requests,
/// [`HttpError::PayloadTooLarge`] when the declared body exceeds
/// `max_body`, [`HttpError::Timeout`] when a socket read times out or the
/// deadline passes, and [`HttpError::Io`] for socket failures.
pub fn read_request_deadline(
    stream: &mut impl BufRead,
    max_body: usize,
    deadline: Option<Instant>,
) -> Result<Request, HttpError> {
    let request_line = match read_line(stream, deadline)? {
        None => return Err(HttpError::Closed),
        Some(l) => l,
    };
    // Any timeout past this point happens with a request on the wire.
    let mid = |e| match e {
        HttpError::Timeout { .. } => HttpError::Timeout { mid_request: true },
        other => other,
    };
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!("unsupported version {version}")));
    }

    let (path, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query: Vec<(String, String)> = query_raw
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (url_decode(k), url_decode(v)),
            None => (url_decode(pair), String::new()),
        })
        .collect();

    let mut headers = Vec::new();
    loop {
        let line = read_line(stream, deadline)
            .map_err(mid)?
            .ok_or_else(|| HttpError::BadRequest("connection closed in headers".into()))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::BadRequest("too many headers".into()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header '{line}'")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request =
        Request { method, path: url_decode(path), query, headers, body: Vec::new() };
    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::BadRequest("chunked bodies are not supported".into()));
    }
    if let Some(cl) = request.header("content-length") {
        let declared: u64 = cl
            .parse()
            .map_err(|_| HttpError::BadRequest(format!("invalid Content-Length '{cl}'")))?;
        if declared > max_body as u64 {
            return Err(HttpError::PayloadTooLarge { declared, limit: max_body });
        }
        let mut body = vec![0u8; declared as usize];
        io::Read::read_exact(stream, &mut body).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                HttpError::BadRequest("request body shorter than Content-Length".into())
            } else if is_timeout(&e) {
                HttpError::Timeout { mid_request: true }
            } else {
                HttpError::Io(e)
            }
        })?;
        request.body = body;
    }
    Ok(request)
}

/// The canonical reason phrase for the status codes the service emits.
pub fn status_reason(code: u16) -> &'static str {
    match code {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The `Content-Type` of the body.
    pub content_type: &'static str,
    /// The response body.
    pub body: Vec<u8>,
    /// Extra headers (e.g. `Retry-After`).
    pub extra_headers: Vec<(String, String)>,
    /// Whether the server will close the connection after this response.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            extra_headers: Vec::new(),
            close: false,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            extra_headers: Vec::new(),
            close: false,
        }
    }

    /// A JSON error envelope: `{"error":"..."}`.
    pub fn error(status: u16, message: &str) -> Response {
        let mut obj = nptsn_format::json::Object::new();
        obj.str("error", message);
        Response::json(status, obj.finish())
    }

    /// A `503` error envelope with the `Retry-After` hint: backpressure or
    /// a transient outage, which a retry may get past.
    pub fn unavailable(message: &str) -> Response {
        Response::error(503, message).retry_later()
    }

    /// Returns this response with the `Retry-After` hint attached.
    pub fn retry_later(self) -> Response {
        self.with_header("Retry-After", RETRY_AFTER_SECS.to_string())
    }

    /// Returns this response with an extra header attached.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.extra_headers.push((name.to_string(), value.into()));
        self
    }

    /// Serializes the response (status line, headers, body) to `w`.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len(),
            if self.close { "close" } else { "keep-alive" },
        )?;
        for (name, value) in &self.extra_headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request_deadline(&mut BufReader::new(raw.as_bytes()), 1024, None)
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse("GET /jobs/3?verbose=1&q=a%20b HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/jobs/3");
        assert_eq!(req.query_param("verbose"), Some("1"));
        assert_eq!(req.query_param("q"), Some("a b"));
        assert_eq!(req.header("host"), Some("x"));
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_post_body_exactly() {
        let req =
            parse("POST /jobs/plan HTTP/1.1\r\nContent-Length: 5\r\n\r\nhellotrailing").unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn truncated_body_is_a_bad_request() {
        let err = parse("POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort").unwrap_err();
        assert!(matches!(err, HttpError::BadRequest(m) if m.contains("shorter")));
    }

    #[test]
    fn oversized_body_rejected_before_reading() {
        let err = parse("POST /x HTTP/1.1\r\nContent-Length: 4096\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::PayloadTooLarge { declared: 4096, limit: 1024 }));
    }

    #[test]
    fn clean_eof_reads_as_closed() {
        assert!(matches!(parse(""), Err(HttpError::Closed)));
    }

    #[test]
    fn malformed_requests_rejected() {
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET /x SPDY/3\r\n\r\n",
            "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::BadRequest(_))),
                "{raw:?} should be a bad request"
            );
        }
    }

    #[test]
    fn connection_close_honored() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(req.wants_close());
    }

    #[test]
    fn header_limits_enforced() {
        let long = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "a".repeat(9000));
        assert!(matches!(parse(&long), Err(HttpError::BadRequest(m)) if m.contains("too long")));
        let many = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            (0..70).map(|i| format!("H{i}: v\r\n")).collect::<String>()
        );
        assert!(matches!(parse(&many), Err(HttpError::BadRequest(m)) if m.contains("too many")));
    }

    /// Serves a fixed prefix, then every further read times out — the
    /// shape of a slowloris peer behind `set_read_timeout`.
    struct StallAfter<'a> {
        data: &'a [u8],
    }

    impl io::Read for StallAfter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let take = self.data.len().min(buf.len());
            if take == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled"));
            }
            buf[..take].copy_from_slice(&self.data[..take]);
            self.data = &self.data[take..];
            Ok(take)
        }
    }

    impl BufRead for StallAfter<'_> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            if self.data.is_empty() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled"));
            }
            Ok(self.data)
        }

        fn consume(&mut self, amt: usize) {
            self.data = &self.data[amt..];
        }
    }

    #[test]
    fn expired_deadline_times_out_an_idle_connection_quietly() {
        let past = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let err = read_request_deadline(&mut BufReader::new(&b""[..]), 1024, Some(past))
            .unwrap_err();
        assert!(matches!(err, HttpError::Timeout { mid_request: false }), "{err}");
    }

    #[test]
    fn stall_after_the_request_line_is_a_mid_request_timeout() {
        // Idle stall before any byte: quiet close, no 408.
        let err = read_request_deadline(&mut StallAfter { data: b"" }, 1024, None).unwrap_err();
        assert!(matches!(err, HttpError::Timeout { mid_request: false }), "{err}");
        // Stall once the request line is in: maps to 408.
        let err = read_request_deadline(&mut StallAfter { data: b"GET / HTTP/1.1\r\n" }, 1024, None)
            .unwrap_err();
        assert!(matches!(err, HttpError::Timeout { mid_request: true }), "{err}");
        // Stall inside the declared body: still mid-request.
        let err = read_request_deadline(
            &mut StallAfter { data: b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\nhi" },
            1024,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::Timeout { mid_request: true }), "{err}");
    }

    #[test]
    fn timeout_reason_phrase_exists() {
        assert_eq!(status_reason(408), "Request Timeout");
    }

    #[test]
    fn responses_serialize_with_headers() {
        let mut out = Vec::new();
        Response::json(503, "{}".into())
            .with_header("Retry-After", "1")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn url_decoding_handles_escapes() {
        assert_eq!(url_decode("a+b%2Fc"), "a b/c");
        assert_eq!(url_decode("100%"), "100%");
    }
}
