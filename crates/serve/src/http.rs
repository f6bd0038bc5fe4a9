//! Minimal HTTP/1.1 framing over a [`TcpStream`].
//!
//! Hand-rolled on purpose: the service has no external dependencies,
//! and the subset it needs — request line, headers, `Content-Length`
//! bodies, keep-alive — fits in a few hundred lines that can be
//! hardened directly. Every read is bounded twice (byte caps and
//! socket timeouts) so a slow or malicious client can never pin a
//! connection thread.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Per-connection byte caps and socket timeouts.
#[derive(Debug, Clone)]
pub struct HttpLimits {
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum `Content-Length` accepted.
    pub max_body_bytes: usize,
    /// Socket read timeout (slow-client protection).
    pub read_timeout: Duration,
    /// Socket write timeout (slow-reader protection).
    pub write_timeout: Duration,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// A parsed request: method, path, lower-cased headers, body.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method token (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent (no query parsing; the API uses none).
    pub path: String,
    /// Header name/value pairs; names lower-cased at parse time.
    pub headers: Vec<(String, String)>,
    /// Request body (`Content-Length` framed; no chunked support).
    pub body: String,
}

impl Request {
    /// First value of a header, by lower-case name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to drop the connection after this
    /// exchange (`Connection: close`).
    #[must_use]
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes on the wire are not an HTTP/1.1 request we accept.
    Malformed(String),
    /// Head or body exceeded its byte cap.
    TooLarge { what: &'static str, limit: usize },
    /// The socket read timed out mid-request (slow client).
    Timeout,
    /// Any other socket error.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            HttpError::TooLarge { what, limit } => {
                write!(f, "request {what} exceeds the {limit}-byte limit")
            }
            HttpError::Timeout => f.write_str("client read timed out"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

fn io_error(e: std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Io(e),
    }
}

/// Reads one request from the stream. `Ok(None)` means the client
/// closed cleanly before sending anything (normal keep-alive end).
///
/// # Errors
///
/// [`HttpError`] on malformed framing, byte-cap overflow, slow-client
/// timeout, or any socket error.
pub fn read_request(
    stream: &mut TcpStream,
    limits: &HttpLimits,
) -> Result<Option<Request>, HttpError> {
    stream.set_read_timeout(Some(limits.read_timeout)).map_err(HttpError::Io)?;
    stream.set_write_timeout(Some(limits.write_timeout)).map_err(HttpError::Io)?;

    // Accumulate until the blank line that ends the head.
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > limits.max_head_bytes {
            return Err(HttpError::TooLarge { what: "head", limit: limits.max_head_bytes });
        }
        let n = stream.read(&mut chunk).map_err(io_error)?;
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::Malformed("connection closed mid-head".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => {
            (m.to_string(), p.to_string(), v)
        }
        _ => return Err(HttpError::Malformed(format!("bad request line `{request_line}`"))),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed(format!("unsupported version `{version}`")));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let mut req = Request { method, path, headers, body: String::new() };

    if req.header("transfer-encoding").is_some() {
        return Err(HttpError::Malformed("chunked bodies are not supported".into()));
    }
    let content_length: usize = match req.header("content-length") {
        None => 0,
        Some(v) => {
            v.parse().map_err(|_| HttpError::Malformed(format!("bad content-length `{v}`")))?
        }
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError::TooLarge { what: "body", limit: limits.max_body_bytes });
    }

    // Body bytes already read past the head, then the remainder.
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(io_error)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    req.body =
        String::from_utf8(body).map_err(|_| HttpError::Malformed("body is not UTF-8".into()))?;
    Ok(Some(req))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Canonical reason phrase for the status codes the service emits.
#[must_use]
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes one response. `extra` carries response-specific headers
/// (e.g. `Retry-After`); `Content-Length` and `Connection` are always
/// emitted here.
///
/// Head and body go out as one buffer in a single `write_all`: split
/// into two writes, the body segment would wait for the client's
/// delayed ACK of the head (Nagle), ~40 ms per keep-alive exchange.
///
/// # Errors
///
/// Propagates socket write errors (including write-timeout trips).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra: &[(&str, String)],
    body: &str,
    close: bool,
) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        status_reason(status),
        body.len(),
    );
    for (k, v) in extra {
        out.push_str(k);
        out.push_str(": ");
        out.push_str(v);
        out.push_str("\r\n");
    }
    out.push_str(if close {
        "Connection: close\r\n\r\n"
    } else {
        "Connection: keep-alive\r\n\r\n"
    });
    out.push_str(body);
    stream.write_all(out.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn round_trip(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        round_trip_holding(raw, Duration::from_millis(50))
    }

    fn round_trip_holding(raw: &[u8], hold: Duration) -> Result<Option<Request>, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            // Keep the socket open so a short body is a timeout, not EOF.
            std::thread::sleep(hold);
        });
        let (mut stream, _) = listener.accept().unwrap();
        let limits = HttpLimits { read_timeout: Duration::from_millis(200), ..Default::default() };
        let r = read_request(&mut stream, &limits);
        client.join().unwrap();
        r
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            round_trip(b"POST /v1/solve HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"")
                .unwrap()
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/solve");
        assert_eq!(req.body, "{\"a\"");
        assert_eq!(req.header("host"), Some("x"));
        assert!(!req.wants_close());
    }

    #[test]
    fn malformed_request_lines_are_typed() {
        for raw in
            [&b"GARBAGE\r\n\r\n"[..], b"GET nothing HTTP/1.1\r\n\r\n", b"GET / SPDY/9\r\n\r\n"]
        {
            assert!(matches!(round_trip(raw), Err(HttpError::Malformed(_))), "{raw:?}");
        }
    }

    #[test]
    fn oversized_body_is_rejected_up_front() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        assert!(matches!(round_trip(raw), Err(HttpError::TooLarge { what: "body", .. })));
    }

    #[test]
    fn slow_client_trips_the_read_timeout() {
        // Promised 10 body bytes, sent 2, socket held open past the
        // server's 200 ms read timeout: the server must bail out with
        // a typed timeout rather than pinning the thread.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nab";
        let r = round_trip_holding(raw, Duration::from_millis(500));
        assert!(matches!(r, Err(HttpError::Timeout)));
    }

    #[test]
    fn clean_eof_before_any_bytes_is_none() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            drop(TcpStream::connect(addr).unwrap());
        });
        let (mut stream, _) = listener.accept().unwrap();
        let limits = HttpLimits { read_timeout: Duration::from_millis(200), ..Default::default() };
        assert!(read_request(&mut stream, &limits).unwrap().is_none());
        client.join().unwrap();
    }
}
