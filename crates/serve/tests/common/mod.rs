//! Shared test harness: start a real server on a free port, speak
//! HTTP/1.1 to it over a plain socket.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use rascad_serve::{ServeConfig, Server, ShutdownHandle};

/// A running server plus the bits tests need to drive and stop it.
pub struct TestServer {
    pub addr: SocketAddr,
    pub handle: ShutdownHandle,
    runner: Option<std::thread::JoinHandle<rascad_serve::ServeSummary>>,
}

impl TestServer {
    /// Binds on a free port and serves on a background thread.
    pub fn start(cfg: ServeConfig) -> TestServer {
        let cfg = ServeConfig { addr: "127.0.0.1:0".to_string(), ..cfg };
        let server = Server::bind(cfg).expect("bind 127.0.0.1:0");
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        let runner = std::thread::spawn(move || server.run());
        TestServer { addr, handle, runner: Some(runner) }
    }

    /// Graceful shutdown; returns the run summary.
    pub fn stop(mut self) -> rascad_serve::ServeSummary {
        self.handle.shutdown();
        self.runner.take().unwrap().join().expect("server thread")
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(r) = self.runner.take() {
            r.join().ok();
        }
    }
}

/// One HTTP exchange on a fresh connection. Returns status, headers
/// (lower-cased names), body.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    parse_response(&raw)
}

/// A keep-alive connection: each request goes out in one write, each
/// response is read by its `Content-Length`.
pub struct KeepAlive {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl KeepAlive {
    pub fn connect(addr: SocketAddr) -> KeepAlive {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        KeepAlive { stream, buf: Vec::new() }
    }

    /// One exchange on the open connection. Returns status and body.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(raw.as_bytes()).unwrap();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let (_, headers, _) = parse_response(&self.buf[..head_end + 4]);
                let len: usize = header(&headers, "content-length").unwrap().parse().unwrap();
                let end = head_end + 4 + len;
                if self.buf.len() >= end {
                    let (status, _, body) = parse_response(&self.buf[..end]);
                    self.buf.drain(..end);
                    return (status, body);
                }
            }
            let n = self.stream.read(&mut chunk).expect("read response");
            assert!(n > 0, "server closed a keep-alive connection");
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Splits a raw HTTP/1.1 response into status, headers, body.
pub fn parse_response(raw: &[u8]) -> (u16, Vec<(String, String)>, String) {
    let text = String::from_utf8_lossy(raw);
    let (head, body) = text.split_once("\r\n\r\n").expect("response has a head");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap();
    let status: u16 = status_line.split(' ').nth(1).expect("status code").parse().unwrap();
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, body.to_string())
}

/// Header lookup by lower-case name.
pub fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
}

/// A tiny two-block spec, JSON-escaped into a `/v1/specs` body.
pub fn spec_dsl() -> String {
    use rascad_spec::units::Hours;
    use rascad_spec::{BlockParams, Diagram, GlobalParams, SystemSpec};
    let mut root = Diagram::new("SrvSpec");
    root.push(BlockParams::new("A", 2, 1).with_mtbf(Hours(10_000.0)));
    root.push(BlockParams::new("B", 1, 1).with_mtbf(Hours(50_000.0)));
    SystemSpec::new(root, GlobalParams::default()).to_dsl()
}

/// JSON-string-escapes a DSL payload for embedding in a body.
pub fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}
