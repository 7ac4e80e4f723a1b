//! The outbound HTTP/1.1 client: how the router talks to its backends.
//!
//! Mirrors the inbound framing in [`wec_serve::http`]: one request per
//! connection, `Connection: close`, fixed-length request bodies, and
//! responses read either by `Content-Length`, by chunked
//! transfer-decoding, or to EOF (legal under close semantics).  Every
//! read and write is bounded by the caller's timeout, every line and the
//! header count by the inbound side's limits, and every parse failure is
//! an `io::Error` — a misbehaving backend must register as a health
//! failure, never hang or crash a proxy thread.
//!
//! [`relay`] is the exception to "parse everything": the proxied
//! `/jobs/<id>/events` stream is forwarded to the client byte-for-byte —
//! status line, headers, chunk framing and all — so the routed stream is
//! exactly what the backend produced.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use wec_serve::http::{MAX_HEADERS, MAX_HEADER_LINE};

/// Largest response body the client will buffer (matches the serve
/// daemon's request-side cap; `/stats` documents are far smaller).
pub const MAX_RESPONSE_BODY: usize = 8 << 20;

/// One parsed backend response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    pub fn body_utf8(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "response body is not UTF-8".to_string())
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Connect to `addr` within `timeout`, trying each resolved address.
pub fn connect(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let mut last = bad(format!("{addr:?} resolved to no addresses"));
    for sa in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sa, timeout) {
            Ok(s) => {
                s.set_nodelay(true)?;
                s.set_read_timeout(Some(timeout))?;
                s.set_write_timeout(Some(timeout))?;
                return Ok(s);
            }
            Err(e) => last = e,
        }
    }
    Err(last)
}

fn write_request(
    s: &mut TcpStream,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> io::Result<()> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: wec-router\r\nConnection: close\r\n");
    if let Some(b) = body {
        head.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            b.len()
        ));
    }
    head.push_str("\r\n");
    s.write_all(head.as_bytes())?;
    if let Some(b) = body {
        s.write_all(b)?;
    }
    s.flush()
}

/// Read one `\n`-terminated line of at most [`MAX_HEADER_LINE`] bytes
/// (terminator excluded), stripping the line ending.
fn read_line<R: BufRead>(r: &mut R, what: &str) -> io::Result<String> {
    let mut line = String::new();
    let n = r
        .by_ref()
        .take(MAX_HEADER_LINE as u64 + 1)
        .read_line(&mut line)?;
    if n == 0 {
        return Err(bad(format!("EOF before {what}")));
    }
    if !line.ends_with('\n') {
        return Err(bad(format!(
            "{what} truncated or longer than {MAX_HEADER_LINE} bytes"
        )));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Parse one response off `r` (which must be positioned at the status
/// line).  Public for the e2e tests, which speak to backends directly.
pub fn read_response<R: BufRead>(r: &mut R) -> io::Result<Response> {
    let status_line = read_line(r, "status line")?;
    let mut parts = status_line.split_whitespace();
    let (version, status) = match (parts.next(), parts.next()) {
        (Some(v), Some(s)) => (v, s),
        _ => return Err(bad(format!("malformed status line {status_line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("unsupported version {version:?}")));
    }
    let status: u16 = status
        .parse()
        .map_err(|_| bad(format!("non-numeric status in {status_line:?}")))?;

    let mut headers = Vec::new();
    loop {
        let line = read_line(r, "header line")?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(bad(format!("more than {MAX_HEADERS} headers")));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad(format!("header without colon {line:?}")));
        };
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
    let resp = Response {
        status,
        headers,
        body: Vec::new(),
    };

    let chunked = resp
        .header("Transfer-Encoding")
        .map(|v| v.eq_ignore_ascii_case("chunked"))
        .unwrap_or(false);
    let body = if chunked {
        read_chunked(r)?
    } else if let Some(v) = resp.header("Content-Length") {
        let len: usize = v
            .parse()
            .map_err(|_| bad(format!("bad Content-Length {v:?}")))?;
        if len > MAX_RESPONSE_BODY {
            return Err(bad(format!("response body of {len} bytes exceeds cap")));
        }
        let mut body = vec![0u8; len];
        r.read_exact(&mut body)?;
        body
    } else {
        // Connection: close and no framing: the body runs to EOF.
        let mut body = Vec::new();
        r.take(MAX_RESPONSE_BODY as u64 + 1).read_to_end(&mut body)?;
        if body.len() > MAX_RESPONSE_BODY {
            return Err(bad("unframed response body exceeds cap"));
        }
        body
    };
    Ok(Response { body, ..resp })
}

fn read_chunked<R: BufRead>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        let line = read_line(r, "chunk size")?;
        let len = usize::from_str_radix(line.trim(), 16)
            .map_err(|_| bad(format!("bad chunk size {line:?}")))?;
        if out.len() + len > MAX_RESPONSE_BODY {
            return Err(bad("chunked response body exceeds cap"));
        }
        let mut chunk = vec![0u8; len + 2]; // data + trailing CRLF
        r.read_exact(&mut chunk)?;
        if &chunk[len..] != b"\r\n" {
            return Err(bad("chunk not CRLF-terminated"));
        }
        if len == 0 {
            return Ok(out);
        }
        out.extend_from_slice(&chunk[..len]);
    }
}

/// One complete exchange: connect, send, parse the response.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    timeout: Duration,
) -> io::Result<Response> {
    let mut s = connect(addr, timeout)?;
    write_request(&mut s, method, path, body)?;
    let _ = s.shutdown(std::net::Shutdown::Write);
    read_response(&mut BufReader::new(s))
}

/// Forward `GET path` to `addr` and copy the backend's entire response —
/// status line, headers, body framing — to `w` verbatim, until the
/// backend closes.  Returns the bytes relayed.  The caller must not have
/// written anything to `w`: the backend's response *is* the response.
///
/// `read_timeout` bounds each read (the gap between progress chunks),
/// not the whole stream — the backend's own events deadline bounds that.
pub fn relay<W: Write>(
    addr: &str,
    path: &str,
    w: &mut W,
    connect_timeout: Duration,
    read_timeout: Duration,
) -> io::Result<u64> {
    let mut s = connect(addr, connect_timeout)?;
    write_request(&mut s, "GET", path, None)?;
    s.set_read_timeout(Some(read_timeout))?;
    let mut total = 0u64;
    let mut buf = [0u8; 8192];
    loop {
        match s.read(&mut buf) {
            Ok(0) => return Ok(total),
            Ok(n) => {
                w.write_all(&buf[..n])?;
                w.flush()?;
                total += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                // Mid-stream backend failure: the client already has our
                // (i.e. the backend's) status line, so all we can do is
                // close — which, under chunked framing, the client sees
                // as truncation.
                return if total > 0 { Ok(total) } else { Err(e) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(text: &str) -> io::Result<Response> {
        read_response(&mut Cursor::new(text.as_bytes().to_vec()))
    }

    #[test]
    fn parses_fixed_length_responses() {
        let r = parse("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\ncontent-length: 2\r\n\r\n{}").unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.header("Content-Type"), Some("application/json"));
        assert_eq!(r.body, b"{}");
    }

    #[test]
    fn parses_chunked_responses() {
        let r = parse(
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n",
        )
        .unwrap();
        assert_eq!(r.body_utf8().unwrap(), "abcde");
    }

    #[test]
    fn unframed_bodies_run_to_eof() {
        let r = parse("HTTP/1.1 503 Service Unavailable\r\nRetry-After: 7\r\n\r\nbusy").unwrap();
        assert_eq!(r.status, 503);
        assert_eq!(r.header("retry-after"), Some("7"));
        assert_eq!(r.body, b"busy");
    }

    #[test]
    fn malformed_responses_are_errors_not_panics() {
        let many_headers = format!(
            "HTTP/1.1 200 OK\r\n{}\r\n",
            (0..=MAX_HEADERS)
                .map(|i| format!("X-{i}: v\r\n"))
                .collect::<String>()
        );
        let long_header = format!(
            "HTTP/1.1 200 OK\r\nX: {}\r\n\r\n",
            "v".repeat(MAX_HEADER_LINE)
        );
        let long_chunk_size = format!(
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n{}\r\n\r\n",
            "0".repeat(MAX_HEADER_LINE + 1)
        );
        for text in [
            many_headers.as_str(),
            long_header.as_str(),
            long_chunk_size.as_str(),
            "",
            "garbage\r\n\r\n",
            "HTTP/1.1 abc OK\r\n\r\n",
            "SPDY/3 200 OK\r\n\r\n",
            "HTTP/1.1 200 OK\r\nno colon\r\n\r\n",
            "HTTP/1.1 200 OK\r\nContent-Length: zap\r\n\r\n",
            "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabcXY",
        ] {
            assert!(parse(text).is_err(), "{text:?}");
        }
    }
}
