//! The in-process daemon and the closed-loop HTTP clients that drive it.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rascad_serve::{ServeConfig, ServeSummary, Server, ShutdownHandle};

use crate::gen::Op;

/// A running `rascad_serve::Server` (the code `rascad serve` runs) on a
/// loopback port of its own.
pub struct Daemon {
    pub addr: SocketAddr,
    handle: ShutdownHandle,
    thread: JoinHandle<ServeSummary>,
}

impl Daemon {
    /// Binds on a free loopback port and starts serving.
    ///
    /// # Errors
    ///
    /// The bind error.
    pub fn start() -> std::io::Result<Daemon> {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            drain_timeout: Duration::from_secs(5),
            ..ServeConfig::default()
        };
        let server = Server::bind(cfg)?;
        let addr = server.local_addr()?;
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon { addr, handle, thread })
    }

    /// Drains and stops the daemon, waiting for its accept loop to end.
    pub fn stop(self) -> ServeSummary {
        self.handle.shutdown();
        self.thread.join().expect("server thread ended cleanly")
    }
}

/// One HTTP answer.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// Bytes received, head included.
    pub wire_bytes: usize,
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// Sends `request` and reads one `Content-Length`-framed response.
///
/// # Errors
///
/// Socket errors and malformed responses.
pub fn exchange(stream: &mut TcpStream, request: &[u8]) -> std::io::Result<Response> {
    stream.write_all(request)?;
    read_response(stream)
}

/// Reads one `Content-Length`-framed response.
///
/// # Errors
///
/// Socket errors and malformed responses.
pub fn read_response(stream: &mut TcpStream) -> std::io::Result<Response> {
    let mut buf = Vec::with_capacity(4096);
    let mut chunk = [0u8; 8192];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed before the response head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("head is not UTF-8"))?;
    let status =
        head.split(' ').nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| bad("no status code"))?;
    let length: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length").then(|| v.trim().parse().ok())?
        })
        .ok_or_else(|| bad("no content-length"))?;
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(length);
    Ok(Response { status, body, wire_bytes: head_end + 4 + length })
}

/// One answer kept for checking after the run. `body` is `None` when it
/// repeats, byte for byte, the first answer seen for the op's key.
pub struct Record {
    pub op: usize,
    pub status: u16,
    pub body: Option<String>,
}

/// What one client saw.
#[derive(Default)]
pub struct ClientLog {
    pub latencies_ms: Vec<f64>,
    pub records: Vec<Record>,
    /// Ops that got no answer at all, with the error.
    pub transport_errors: Vec<(usize, String)>,
    pub connects: u64,
    /// From the start barrier to this client's last answer.
    pub busy: Duration,
}

/// How clients talk to the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One connection per client, opened before timing starts.
    KeepAlive,
    /// A new connection per request, `Connection: close`.
    ConnectionPerRequest,
}

/// Connections for [`Mode::KeepAlive`] clients, opened at set-up.
///
/// # Errors
///
/// Connect errors.
pub fn open_connections(addr: SocketAddr, clients: usize) -> std::io::Result<Vec<TcpStream>> {
    (0..clients).map(|_| TcpStream::connect(addr)).collect()
}

/// Runs `clients` closed-loop clients for `seconds`: client `c` sends
/// ops `c, c + clients, …` of the list (cycling), each after the
/// previous answer arrived.
pub fn run_clients(
    addr: SocketAddr,
    ops: &[Op],
    requests: &[Vec<u8>],
    mode: Mode,
    mut conns: Vec<TcpStream>,
    clients: usize,
    seconds: f64,
) -> Vec<ClientLog> {
    let barrier = Barrier::new(clients);
    let window = Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mut conn = conns.pop();
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut first_body: HashMap<u32, Vec<u8>> = HashMap::new();
                    barrier.wait();
                    let start = Instant::now();
                    let mut i = c;
                    while start.elapsed() < window {
                        let idx = i % ops.len();
                        i += clients;
                        let t = Instant::now();
                        let answer = match mode {
                            Mode::KeepAlive => {
                                let stream = conn.as_mut().expect("keep-alive connection");
                                exchange(stream, &requests[idx])
                            }
                            Mode::ConnectionPerRequest => {
                                log.connects += 1;
                                TcpStream::connect(addr)
                                    .and_then(|mut s| exchange(&mut s, &requests[idx]))
                            }
                        };
                        match answer {
                            Ok(resp) => {
                                log.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                                let key = ops[idx].key;
                                let body = match first_body.get(&key) {
                                    Some(seen) if *seen == resp.body => None,
                                    Some(_) => {
                                        Some(String::from_utf8_lossy(&resp.body).into_owned())
                                    }
                                    None => {
                                        first_body.insert(key, resp.body.clone());
                                        Some(String::from_utf8_lossy(&resp.body).into_owned())
                                    }
                                };
                                log.records.push(Record { op: idx, status: resp.status, body });
                            }
                            Err(e) => {
                                log.transport_errors.push((idx, e.to_string()));
                                if mode == Mode::KeepAlive {
                                    log.connects += 1;
                                    conn = TcpStream::connect(addr).ok();
                                    if conn.is_none() {
                                        break;
                                    }
                                }
                            }
                        }
                    }
                    log.busy = start.elapsed();
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    })
}
