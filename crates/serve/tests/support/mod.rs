//! Helpers shared by the daemon end-to-end suites: `serve_e2e`,
//! `observability_e2e`, `spec_e2e`, and `router_e2e` (which includes this
//! file by path).  Parsed exchanges go through the workspace's one HTTP
//! client and response parser, [`wec_serve::http`]; raw ones exist for
//! the tests that check bytes on the wire.

// Each suite uses its own subset.
#![allow(dead_code)]

use std::io::{Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wec_serve::http::{read_response, Client, Response};
use wec_serve::{ServeConfig, Server, ServerState};
use wec_telemetry::json::{self, Json};

/// Per-exchange timeout: far above any answer a test daemon gives.
pub const TIMEOUT: Duration = Duration::from_secs(120);

/// A fresh directory unique to this suite, this process and `name`.
pub fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wec-{}-{}-{name}",
        env!("CARGO_CRATE_NAME"),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

pub type ServerHandle = (
    Arc<ServerState>,
    SocketAddr,
    JoinHandle<std::io::Result<()>>,
);

/// A serve daemon on an ephemeral loopback port.
pub fn start(cfg: ServeConfig) -> ServerHandle {
    start_on("127.0.0.1:0", cfg)
}

pub fn start_on(bind: &str, cfg: ServeConfig) -> ServerHandle {
    let server = Server::bind(bind, cfg).unwrap();
    let state = server.state();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run());
    (state, addr, handle)
}

/// Join a daemon thread, failing (instead of hanging) if it has not
/// returned within `secs`.
pub fn join_within(handle: JoinHandle<std::io::Result<()>>, secs: u64) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !handle.is_finished() {
        assert!(
            Instant::now() < deadline,
            "daemon did not drain within {secs} s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.join().unwrap().unwrap();
}

/// A request's bytes, asking the daemon to close the connection after it.
pub fn raw_request(method: &str, path: &str, body: Option<&str>) -> String {
    let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: e2e\r\nConnection: close\r\n");
    if let Some(b) = body {
        raw.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            b.len()
        ));
    }
    raw.push_str("\r\n");
    if let Some(b) = body {
        raw.push_str(b);
    }
    raw
}

/// Write raw bytes, half-close, read the whole response.  Writes and the
/// final read are best-effort: a server that rejects early (oversized
/// request) may close the connection while the client is still sending.
pub fn send_raw(addr: SocketAddr, raw: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    let _ = s.write_all(raw);
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match s.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Send one request on an open connection and read its whole answer,
/// which must be complete: no reset, and exactly `Content-Length` body
/// bytes.  Returns (status, head, body).
pub fn full_answer(mut s: TcpStream, raw: &str) -> (u16, String, String) {
    s.write_all(raw.as_bytes()).unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out)
        .unwrap_or_else(|e| panic!("answer cut off after {out:?}: {e}"));
    let (head, body) = out.split_once("\r\n\r\n").expect("no header terminator");
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length")
        .parse()
        .unwrap();
    assert_eq!(body.len(), len, "truncated body in {out:?}");
    let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, head.to_string(), body.to_string())
}

/// Read exactly one answer off a kept connection: the answer and its
/// size on the wire.
pub fn read_answer(s: &mut TcpStream) -> (Response, u64) {
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let n = s.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed mid-answer after {buf:?}");
        buf.extend_from_slice(&chunk[..n]);
        let mut c = Cursor::new(&buf[..]);
        if let Ok(resp) = read_response(&mut c) {
            assert_eq!(c.position(), buf.len() as u64, "bytes beyond one answer");
            return (resp, c.position());
        }
    }
}

/// The status and (de-chunked) body of a raw response.
pub fn parse_response(text: &str) -> (u16, String) {
    let resp = read_response(&mut Cursor::new(text.as_bytes())).expect("a well-framed response");
    (resp.status, String::from_utf8(resp.body).unwrap())
}

/// One exchange through the workspace's HTTP client: (status, body).
pub fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let resp = Client::new(&addr.to_string())
        .request(method, path, body.map(str::as_bytes), TIMEOUT)
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"));
    (resp.status, String::from_utf8(resp.body).unwrap())
}

/// Poll `/jobs/<id>` until the job is done or failed.
pub fn poll_terminal(addr: SocketAddr, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), None);
        assert_eq!(status, 200, "{body}");
        let v = json::parse(&body).unwrap();
        let state = v.get("state").and_then(Json::as_str).unwrap().to_string();
        if state == "done" || state == "failed" {
            return v;
        }
        assert!(Instant::now() < deadline, "job {id} stuck in {state}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

pub fn u64_at(v: &Json, path: &[&str]) -> u64 {
    let mut cur = v;
    for p in path {
        cur = cur.get(p).unwrap_or_else(|| panic!("missing {p}"));
    }
    cur.as_u64().unwrap()
}
