//! The benchmark's own HTTP/1.1 client.
//!
//! It keeps a connection open between requests unless the response says
//! `Connection: close` (or has no length and runs to EOF), so when the
//! daemons learn keep-alive the benchmark measures it without an edit.
//! Every exchange returns the instants a request passed through: start,
//! connected, request written, first response byte, body read.  The
//! connect / write / first-byte / body spans and the client per-layer
//! metrics come from those.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Per-exchange timeout: far above any answer the daemons give, far below
/// the benchmark's own run limit.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One finished request/response exchange.
pub struct Exchange {
    pub status: u16,
    pub body: String,
    pub start: Instant,
    /// Whether this exchange opened a new TCP connection.
    pub connected_new: bool,
    pub connected: Instant,
    pub written: Instant,
    pub first_byte: Instant,
    pub done: Instant,
}

/// A client bound to one address, holding at most one open connection.
pub struct Client {
    addr: String,
    conn: Option<BufReader<TcpStream>>,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Client {
    pub fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            conn: None,
        }
    }

    /// Send one request and read the whole response.  A request on a
    /// reused connection that fails before any response byte arrives is
    /// retried once on a fresh connection (the server may have closed an
    /// idle keep-alive connection).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<Exchange> {
        let start = Instant::now();
        let reused = self.conn.is_some();
        match self.exchange(start, method, path, body) {
            Err((_, false)) if reused => {
                self.conn = None;
                self.exchange(start, method, path, body).map_err(|(e, _)| e)
            }
            r => r.map_err(|(e, _)| e),
        }
    }

    /// One attempt; the error carries whether any response byte was read.
    fn exchange(
        &mut self,
        start: Instant,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Exchange, (io::Error, bool)> {
        let connected_new = self.conn.is_none();
        if connected_new {
            let stream = TcpStream::connect(&self.addr).map_err(|e| (e, false))?;
            let setup = || -> io::Result<()> {
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(IO_TIMEOUT))?;
                stream.set_write_timeout(Some(IO_TIMEOUT))
            };
            setup().map_err(|e| (e, false))?;
            self.conn = Some(BufReader::new(stream));
        }
        let connected = Instant::now();
        let conn = self.conn.as_mut().expect("connection opened above");
        let mut req = format!("{method} {path} HTTP/1.1\r\nHost: {}\r\n", self.addr);
        if let Some(b) = body {
            req.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                b.len()
            ));
        }
        req.push_str("\r\n");
        if let Some(b) = body {
            req.push_str(b);
        }
        let sent = conn.get_mut().write_all(req.as_bytes());
        sent.map_err(|e| (e, false))?;
        let written = Instant::now();
        if conn.fill_buf().map_err(|e| (e, false))?.is_empty() {
            self.conn = None;
            return Err((invalid("connection closed before a response"), false));
        }
        let first_byte = Instant::now();
        let read = read_response(conn);
        let (status, body, keep) = match read {
            Ok(r) => r,
            Err(e) => {
                self.conn = None;
                return Err((e, true));
            }
        };
        if !keep {
            self.conn = None;
        }
        Ok(Exchange {
            status,
            body,
            start,
            connected_new,
            connected,
            written,
            first_byte,
            done: Instant::now(),
        })
    }
}

/// Read a status line, headers and a body framed by `Content-Length` (or
/// running to EOF).  Returns the status, the body, and whether the
/// connection may carry another request.
fn read_response(r: &mut BufReader<TcpStream>) -> io::Result<(u16, String, bool)> {
    let mut line = String::new();
    r.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
    let http11 = line.starts_with("HTTP/1.1");
    let mut length: Option<usize> = None;
    let mut close = !http11;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(invalid("headers ended without a blank line"));
        }
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        let Some((name, value)) = h.split_once(':') else {
            return Err(invalid(format!("bad header {h:?}")));
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                length = Some(
                    value
                        .parse()
                        .map_err(|_| invalid(format!("bad Content-Length {value:?}")))?,
                )
            }
            "connection" => close = value.eq_ignore_ascii_case("close"),
            "transfer-encoding" => {
                return Err(invalid("chunked responses are not used by the benchmark"))
            }
            _ => {}
        }
    }
    let mut body = Vec::new();
    match length {
        Some(n) => {
            body.resize(n, 0);
            r.read_exact(&mut body)?;
        }
        None => {
            r.read_to_end(&mut body)?;
            close = true;
        }
    }
    let body = String::from_utf8(body).map_err(|_| invalid("response body is not UTF-8"))?;
    Ok((status, body, !close))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-thread server answering `answers` in order, each on whatever
    /// connection the client uses; returns how many connections it saw.
    fn serve(answers: Vec<&'static str>) -> (String, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            let mut connections = 0;
            let mut answers = answers.into_iter().peekable();
            while answers.peek().is_some() {
                let (stream, _) = listener.accept().unwrap();
                connections += 1;
                let mut r = BufReader::new(stream.try_clone().unwrap());
                let mut w = stream;
                loop {
                    let mut line = String::new();
                    // Read one request head (bodies are empty in these tests).
                    loop {
                        line.clear();
                        if r.read_line(&mut line).unwrap() == 0 || line == "\r\n" {
                            break;
                        }
                    }
                    let Some(a) = answers.next() else { break };
                    w.write_all(a.as_bytes()).unwrap();
                    if a.contains("Connection: close") || answers.peek().is_none() {
                        break;
                    }
                }
            }
            connections
        });
        (addr, h)
    }

    #[test]
    fn reuses_a_connection_until_the_server_closes_it() {
        let keep = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
        let close = "HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: close\r\n\r\nbye";
        let (addr, h) = serve(vec![keep, keep, close, keep]);
        let mut c = Client::new(&addr);
        let a = c.request("GET", "/a", None).unwrap();
        let b = c.request("GET", "/b", None).unwrap();
        let d = c.request("GET", "/c", None).unwrap();
        let e = c.request("GET", "/d", None).unwrap();
        assert_eq!((a.status, a.body.as_str()), (200, "ok"));
        assert_eq!(d.body, "bye");
        assert!(a.connected_new && !b.connected_new && !d.connected_new);
        assert!(e.connected_new, "a closed connection is never reused");
        assert!(a.start <= a.connected && a.written <= a.first_byte && a.first_byte <= a.done);
        assert_eq!(h.join().unwrap(), 2);
    }
}
