//! Hand-rolled HTTP/1.1 framing, inbound and outbound.
//!
//! The workspace carries no HTTP library, so the daemons and the router
//! speak the small subset they need directly: `Content-Length` request
//! bodies, fixed-length or chunked responses, and persistent connections
//! (HTTP/1.1 keep-alive) on every hop.  Because one connection carries
//! many messages, framing is exact: a length is ASCII digits only, a
//! chunk size hex digits only, and a message with two `Content-Length`
//! headers is refused — a lenient reading would let one message's bytes
//! be taken for the next one's.  The parsers enforce hard limits on every
//! dimension and return an error — never panic — on malformed, oversized
//! or truncated input; the daemons answer every such request error with
//! a `400` and stay up.
//!
//! * inbound: [`read_request`] and [`Reply`], the one response writer.
//!   [`Reply`] is also the one place that decides whether a response ends
//!   its connection (`Connection: close`); the connection loop that drives
//!   both is [`crate::daemon`]'s.
//! * outbound: [`Client`], one address plus a few idle connections kept
//!   for reuse, and [`read_response`].  [`Client::relay`] is the exception
//!   to "parse everything": the router forwards a `/jobs/<id>/events`
//!   stream byte for byte, so the routed stream is exactly what the
//!   backend produced.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use wec_telemetry::json::escape_into;

use crate::lock;

/// Longest accepted request line (method + path + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Longest accepted single header line (and response status line).
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Most headers accepted on one message.
pub const MAX_HEADERS: usize = 100;
/// Largest accepted request body.
pub const MAX_BODY: usize = 1 << 20;
/// Largest response body the client will buffer (`/stats` documents are
/// far smaller).
pub const MAX_RESPONSE_BODY: usize = 8 << 20;
/// Idle connections one [`Client`] keeps for reuse; more concurrent
/// exchanges than this open connections that are closed afterwards.
pub const POOL_CAP: usize = 8;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    /// `HTTP/1.0`, `HTTP/1.1`, ... as sent.
    pub version: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// The body as UTF-8, or a client-blamed error.
    pub fn body_utf8(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "request body is not UTF-8".to_string())
    }

    /// Whether the client lets its connection carry another request:
    /// HTTP/1.1 without `Connection: close`.
    pub fn keep_alive(&self) -> bool {
        self.version == "HTTP/1.1" && !says_close(&self.headers)
    }
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

fn says_close(headers: &[(String, String)]) -> bool {
    header(headers, "Connection")
        .is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case("close")))
}

/// Why a message could not be parsed.
#[derive(Debug)]
pub enum ParseError {
    /// The peer closed the connection before sending anything — not an
    /// error, just the end of the connection.
    Closed,
    /// Transport failure (timeout, reset) — nothing useful to answer.
    Io(io::Error),
    /// Malformed, oversized or truncated message — answered with `400`.
    Bad(String),
}

impl ParseError {
    /// The message to put in a `400` response, if this error deserves one.
    pub fn client_message(&self) -> Option<&str> {
        match self {
            ParseError::Bad(msg) => Some(msg),
            _ => None,
        }
    }
}

impl From<ParseError> for io::Error {
    fn from(e: ParseError) -> io::Error {
        match e {
            ParseError::Closed => io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"),
            ParseError::Io(e) => e,
            ParseError::Bad(msg) => bad(msg),
        }
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Read one `\n`-terminated line of at most `max` bytes (terminator
/// excluded), stripping the `\r\n` / `\n`.  `Ok(None)` on immediate EOF.
fn read_line<R: BufRead>(r: &mut R, max: usize, what: &str) -> Result<Option<String>, ParseError> {
    let mut line = Vec::new();
    // Two bytes of room for the terminator, so an over-long line reads as
    // over-long rather than as truncated.
    r.by_ref()
        .take(max as u64 + 2)
        .read_until(b'\n', &mut line)
        .map_err(ParseError::Io)?;
    match line.last() {
        None => return Ok(None),
        Some(b'\n') => {
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
        }
        Some(_) if line.len() <= max => return Err(ParseError::Bad(format!("truncated {what}"))),
        Some(_) => {}
    }
    if line.len() > max {
        return Err(ParseError::Bad(format!("{what} exceeds {max} bytes")));
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| ParseError::Bad(format!("{what} is not UTF-8")))
}

/// Read header lines up to the blank line that ends them.
fn read_headers<R: BufRead>(r: &mut R) -> Result<Vec<(String, String)>, ParseError> {
    let mut headers = Vec::new();
    loop {
        let Some(line) = read_line(r, MAX_HEADER_LINE, "header line")? else {
            return Err(ParseError::Bad("truncated headers".to_string()));
        };
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ParseError::Bad(format!("more than {MAX_HEADERS} headers")));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Bad(format!("header without colon {line:?}")));
        };
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
}

/// A number of `radix` digits and nothing else.  `str::parse` and
/// `from_str_radix` also take a leading `+`, which no framing field may
/// carry.
fn digits(s: &str, radix: u32) -> Option<usize> {
    if s.is_empty() || !s.chars().all(|c| c.is_digit(radix)) {
        return None;
    }
    usize::from_str_radix(s, radix).ok()
}

/// The message's one `Content-Length`, if it has one.
fn content_length(headers: &[(String, String)]) -> Result<Option<usize>, String> {
    let mut values = headers
        .iter()
        .filter(|(k, _)| k.eq_ignore_ascii_case("Content-Length"));
    let Some((_, v)) = values.next() else {
        return Ok(None);
    };
    if values.next().is_some() {
        return Err("more than one Content-Length header".to_string());
    }
    digits(v, 10)
        .map(Some)
        .ok_or_else(|| format!("bad Content-Length {v:?}"))
}

/// Parse one request from the stream, honouring every `MAX_*` limit.
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Request, ParseError> {
    let line = match read_line(r, MAX_REQUEST_LINE, "request line")? {
        Some(l) => l,
        None => return Err(ParseError::Closed),
    };
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => return Err(ParseError::Bad(format!("malformed request line {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Bad(format!("unsupported version {version:?}")));
    }
    if !path.starts_with('/') {
        return Err(ParseError::Bad(format!("malformed request path {path:?}")));
    }
    let (method, path, version) = (method.to_string(), path.to_string(), version.to_string());

    let headers = read_headers(r)?;
    if header(&headers, "Transfer-Encoding").is_some() {
        return Err(ParseError::Bad(
            "chunked request bodies are not supported".to_string(),
        ));
    }
    let len = content_length(&headers)
        .map_err(ParseError::Bad)?
        .unwrap_or(0);
    if len > MAX_BODY {
        return Err(ParseError::Bad(format!(
            "body of {len} bytes exceeds the {MAX_BODY}-byte limit"
        )));
    }
    let mut body = vec![0u8; len];
    if let Err(e) = r.read_exact(&mut body) {
        return match e.kind() {
            io::ErrorKind::UnexpectedEof => {
                Err(ParseError::Bad("truncated request body".to_string()))
            }
            _ => Err(ParseError::Io(e)),
        };
    }
    Ok(Request {
        method,
        path,
        version,
        headers,
        body,
    })
}

/// `{"error": msg}`, the body of every error answer.
pub fn error_json(msg: &str) -> String {
    let mut out = String::from("{\"error\":");
    escape_into(&mut out, msg);
    out.push('}');
    out
}

/// A pass-through writer that counts bytes, so the access log can record
/// each response's wire size without the handlers threading it back.
pub struct CountingWriter<W: Write> {
    w: W,
    written: u64,
}

impl<W: Write> CountingWriter<W> {
    pub fn new(w: W) -> CountingWriter<W> {
        CountingWriter { w, written: 0 }
    }

    pub fn bytes_written(&self) -> u64 {
        self.written
    }
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.w.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

/// Where one response goes.  Every response head is written here, so
/// this is the one place that decides whether the response ends its
/// connection: it does when the request asked for that (`keep_alive`
/// false), when the daemon is draining by the time the head is written,
/// and for a streamed or relayed response.  Only a response that ends
/// its connection carries `Connection: close`; HTTP/1.1 keeps the rest
/// open.  Each method returns the status it wrote, for the request
/// metrics and the access log.
pub struct Reply<'a, W: Write> {
    w: CountingWriter<W>,
    keep_alive: bool,
    draining: &'a AtomicBool,
}

impl<'a, W: Write> Reply<'a, W> {
    pub fn new(w: W, keep_alive: bool, draining: &'a AtomicBool) -> Reply<'a, W> {
        Reply {
            w: CountingWriter::new(w),
            keep_alive,
            draining,
        }
    }

    /// Whether the response written ends its connection.
    pub fn closes(&self) -> bool {
        !self.keep_alive
    }

    /// Bytes written for this response.
    pub fn bytes_written(&self) -> u64 {
        self.w.bytes_written()
    }

    pub fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }

    /// The status line and the headers every response has: a body of
    /// `length` bytes, or chunked (`None`).
    fn head(
        &mut self,
        status: u16,
        reason: &str,
        content_type: &str,
        length: Option<usize>,
    ) -> io::Result<()> {
        if self.draining.load(Ordering::SeqCst) {
            self.keep_alive = false;
        }
        write!(
            self.w,
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n"
        )?;
        match length {
            Some(n) => write!(self.w, "Content-Length: {n}\r\n")?,
            None => self.w.write_all(b"Transfer-Encoding: chunked\r\n")?,
        }
        if !self.keep_alive {
            self.w.write_all(b"Connection: close\r\n")?;
        }
        Ok(())
    }

    /// A complete fixed-length response.
    pub fn send(
        &mut self,
        status: u16,
        reason: &str,
        content_type: &str,
        body: &[u8],
        extra_headers: &[(&str, String)],
    ) -> io::Result<u16> {
        self.head(status, reason, content_type, Some(body.len()))?;
        for (name, value) in extra_headers {
            write!(self.w, "{name}: {value}\r\n")?;
        }
        self.w.write_all(b"\r\n")?;
        self.w.write_all(body)?;
        Ok(status)
    }

    pub fn json(&mut self, status: u16, reason: &str, body: &str) -> io::Result<u16> {
        self.send(status, reason, "application/json", body.as_bytes(), &[])
    }

    /// An `{"error": msg}` answer.
    pub fn error(&mut self, status: u16, reason: &str, msg: &str) -> io::Result<u16> {
        self.json(status, reason, &error_json(msg))
    }

    pub fn method_not_allowed(&mut self, allow: &str) -> io::Result<u16> {
        self.send(
            405,
            "Method Not Allowed",
            "application/json",
            error_json("method not allowed").as_bytes(),
            &[("Allow", allow.to_string())],
        )
    }

    /// The `HEAD` twin of a JSON `GET`: the same status line and headers —
    /// including the `Content-Length` the body *would* have — and no body
    /// bytes (RFC 9110 §9.3.2).
    pub fn json_head(&mut self, body: &str) -> io::Result<u16> {
        self.head(200, "OK", "application/json", Some(body.len()))?;
        self.w.write_all(b"\r\n")?;
        Ok(200)
    }

    /// Begin a chunked response (the `/jobs/<id>/events` stream).  A
    /// stream ends its connection.
    pub fn chunked(
        &mut self,
        status: u16,
        reason: &str,
        content_type: &str,
    ) -> io::Result<ChunkedWriter<&mut CountingWriter<W>>> {
        self.keep_alive = false;
        self.head(status, reason, content_type, None)?;
        self.w.write_all(b"\r\n")?;
        self.w.flush()?;
        Ok(ChunkedWriter { w: &mut self.w })
    }

    /// The raw connection, for a caller that writes a whole response
    /// itself (the router's verbatim `events` relay).  This writer cannot
    /// vouch for that response's framing, so the connection ends after it.
    pub fn raw(&mut self) -> &mut CountingWriter<W> {
        self.keep_alive = false;
        &mut self.w
    }
}

/// A chunked-transfer response in progress.  Each
/// [`ChunkedWriter::chunk`] is flushed immediately so clients see
/// progress lines as they happen.
pub struct ChunkedWriter<W: Write> {
    w: W,
}

impl<W: Write> ChunkedWriter<W> {
    /// Send one chunk (empty input is skipped — an empty chunk would
    /// terminate the stream).
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.w, "{:x}\r\n", data.len())?;
        self.w.write_all(data)?;
        self.w.write_all(b"\r\n")?;
        self.w.flush()
    }

    /// Send the terminating zero-length chunk.
    pub fn finish(mut self) -> io::Result<()> {
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()
    }
}

/// One parsed response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Whether the connection may carry another exchange: an HTTP/1.1
    /// answer framed by `Content-Length`, without `Connection: close`.
    pub reusable: bool,
}

impl Response {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    pub fn body_utf8(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "response body is not UTF-8".to_string())
    }
}

/// Parse one response off `r` (positioned at the status line): a body
/// framed by `Content-Length`, by chunked transfer coding, or — with
/// neither — running to EOF.  Not for answers to `HEAD`, which carry a
/// length but no body.
pub fn read_response<R: BufRead>(r: &mut R) -> io::Result<Response> {
    let Some(status_line) = read_line(r, MAX_HEADER_LINE, "status line")? else {
        return Err(bad("EOF before status line"));
    };
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
    let http11 = version == "HTTP/1.1";

    let headers = read_headers(r)?;
    let chunked =
        header(&headers, "Transfer-Encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
    let length = content_length(&headers).map_err(bad)?;
    let (body, framed) = match (chunked, length) {
        (true, Some(_)) => return Err(bad("both chunked and Content-Length")),
        (true, None) => (read_chunked(r)?, false),
        (false, Some(len)) => {
            if len > MAX_RESPONSE_BODY {
                return Err(bad(format!("response body of {len} bytes exceeds cap")));
            }
            let mut body = vec![0u8; len];
            r.read_exact(&mut body)?;
            (body, true)
        }
        (false, None) => {
            let mut body = Vec::new();
            r.take(MAX_RESPONSE_BODY as u64 + 1)
                .read_to_end(&mut body)?;
            if body.len() > MAX_RESPONSE_BODY {
                return Err(bad("unframed response body exceeds cap"));
            }
            (body, false)
        }
    };
    let reusable = http11 && framed && !says_close(&headers);
    Ok(Response {
        status,
        headers,
        body,
        reusable,
    })
}

fn read_chunked<R: BufRead>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        let line = read_line(r, MAX_HEADER_LINE, "chunk size")?
            .ok_or_else(|| bad("EOF before chunk size"))?;
        let len = digits(&line, 16).ok_or_else(|| bad(format!("bad chunk size {line:?}")))?;
        if len > MAX_RESPONSE_BODY - out.len() {
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

/// The workspace's HTTP client: one address plus up to [`POOL_CAP`] idle
/// connections kept for reuse.  Every read and write is bounded by the
/// caller's timeout, and every parse failure is an `io::Error` — a
/// misbehaving server must register as a failed exchange, never hang or
/// crash the caller.
pub struct Client {
    addr: String,
    idle: Mutex<Vec<BufReader<TcpStream>>>,
}

impl Client {
    pub fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            idle: Mutex::new(Vec::new()),
        }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// One exchange, on an idle connection when there is one.  The
    /// connection goes back to the pool only after an answer
    /// [`Response::reusable`] vouches for.  A reused connection that fails
    /// before the first response byte was most likely closed by the server
    /// while idle, so the request is sent once more on a fresh one; a
    /// timeout is not retried, since then the server has the request.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        timeout: Duration,
    ) -> io::Result<Response> {
        let pooled = lock(&self.idle).pop();
        if let Some(mut conn) = pooled.filter(|c| set_timeouts(c.get_ref(), timeout).is_ok()) {
            match self.exchange(&mut conn, method, path, body, false) {
                Ok(resp) => {
                    self.keep(conn, &resp);
                    return Ok(resp);
                }
                Err((e, answered)) => {
                    let timed_out = matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    );
                    if answered || timed_out {
                        return Err(e);
                    }
                }
            }
        }
        let mut conn = BufReader::new(self.connect(timeout)?);
        let resp = self
            .exchange(&mut conn, method, path, body, false)
            .map_err(|(e, _)| e)?;
        self.keep(conn, &resp);
        Ok(resp)
    }

    /// `GET path` on a fresh connection closed after the answer — a health
    /// probe, which must exercise the server's accept path that a pooled
    /// exchange would skip.
    pub fn probe(&self, path: &str, timeout: Duration) -> io::Result<Response> {
        let mut conn = BufReader::new(self.connect(timeout)?);
        self.exchange(&mut conn, "GET", path, None, true)
            .map_err(|(e, _)| e)
    }

    /// Forward `GET path` on a fresh connection and copy the server's
    /// entire response — status line, headers, body framing — to `w`
    /// verbatim, until the server closes.  Returns the bytes relayed.  The
    /// caller must not have written anything to `w`: the server's response
    /// *is* the response.
    ///
    /// `read_timeout` bounds each read (the gap between progress chunks),
    /// not the whole stream — the server's own events deadline bounds that.
    pub fn relay<W: Write>(
        &self,
        path: &str,
        w: &mut W,
        connect_timeout: Duration,
        read_timeout: Duration,
    ) -> io::Result<u64> {
        let mut s = self.connect(connect_timeout)?;
        s.write_all(&request_bytes(&self.addr, "GET", path, None, true))?;
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
                    // Mid-stream server failure: the client already has
                    // the server's status line, so all that is left is to
                    // close — which, under chunked framing, the client
                    // sees as truncation.
                    return if total > 0 { Ok(total) } else { Err(e) };
                }
            }
        }
    }

    /// Connect within `timeout`, trying each resolved address.
    fn connect(&self, timeout: Duration) -> io::Result<TcpStream> {
        let mut last = bad(format!("{:?} resolved to no addresses", self.addr));
        for sa in self.addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sa, timeout) {
                Ok(s) => {
                    s.set_nodelay(true)?;
                    set_timeouts(&s, timeout)?;
                    return Ok(s);
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Send one request and read its answer.  The error carries whether
    /// any response byte had arrived.
    fn exchange(
        &self,
        conn: &mut BufReader<TcpStream>,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        close: bool,
    ) -> Result<Response, (io::Error, bool)> {
        let msg = request_bytes(&self.addr, method, path, body, close);
        conn.get_mut().write_all(&msg).map_err(|e| (e, false))?;
        match conn.fill_buf() {
            Ok([]) => {
                let e = io::Error::new(io::ErrorKind::UnexpectedEof, "closed before a response");
                return Err((e, false));
            }
            Ok(_) => {}
            Err(e) => return Err((e, false)),
        }
        read_response(conn).map_err(|e| (e, true))
    }

    /// Return a connection to the pool if `resp` left it clean.
    fn keep(&self, conn: BufReader<TcpStream>, resp: &Response) {
        // Bytes beyond the response would be read as the next answer.
        if !resp.reusable || !conn.buffer().is_empty() {
            return;
        }
        let mut idle = lock(&self.idle);
        if idle.len() < POOL_CAP {
            idle.push(conn);
        }
    }
}

fn set_timeouts(s: &TcpStream, timeout: Duration) -> io::Result<()> {
    s.set_read_timeout(Some(timeout))?;
    s.set_write_timeout(Some(timeout))
}

/// A request's bytes, head and body in one buffer so they leave in one
/// write.
fn request_bytes(
    host: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    close: bool,
) -> Vec<u8> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {host}\r\n");
    if close {
        head.push_str("Connection: close\r\n");
    }
    if let Some(b) = body {
        head.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            b.len()
        ));
    }
    head.push_str("\r\n");
    let mut msg = head.into_bytes();
    msg.extend_from_slice(body.unwrap_or_default());
    msg
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn parse(text: &str) -> Result<Request, ParseError> {
        read_request(&mut Cursor::new(text.as_bytes().to_vec()))
    }

    fn parse_response(text: &str) -> io::Result<Response> {
        read_response(&mut Cursor::new(text.as_bytes().to_vec()))
    }

    /// The whole text a reply writes.
    fn written(
        keep_alive: bool,
        draining: bool,
        f: impl FnOnce(&mut Reply<&mut Vec<u8>>),
    ) -> String {
        let flag = AtomicBool::new(draining);
        let mut out = Vec::new();
        let mut reply = Reply::new(&mut out, keep_alive, &flag);
        f(&mut reply);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse("POST /jobs HTTP/1.1\r\nHost: x\r\ncontent-length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.version, "HTTP/1.1");
        assert_eq!(req.header("Content-Length"), Some("4"), "case-insensitive");
        assert_eq!(req.body, b"abcd");
        assert_eq!(req.body_utf8().unwrap(), "abcd");
    }

    #[test]
    fn get_without_content_length_has_empty_body() {
        let req = parse("GET /stats HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn immediate_eof_is_a_clean_close() {
        assert!(matches!(parse(""), Err(ParseError::Closed)));
    }

    #[test]
    fn only_http11_without_close_keeps_the_connection() {
        let keeps = |text: &str| parse(text).unwrap().keep_alive();
        assert!(keeps("GET / HTTP/1.1\r\n\r\n"));
        assert!(keeps("GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n"));
        assert!(!keeps("GET / HTTP/1.1\r\nconnection: Close\r\n\r\n"));
        assert!(!keeps("GET / HTTP/1.1\r\nConnection: TE, close\r\n\r\n"));
        assert!(!keeps("GET / HTTP/1.0\r\n\r\n"));
        assert!(!keeps("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
    }

    #[test]
    fn garbage_request_lines_are_client_errors() {
        for bad in [
            "NOT A VALID REQUEST LINE AT ALL\r\n\r\n",
            "GET /x\r\n\r\n",
            "GET /x SPDY/3\r\n\r\n",
            "GET x HTTP/1.1\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.client_message().is_some(), "{bad:?}: {err:?}");
        }
    }

    #[test]
    fn oversized_request_line_is_rejected_not_buffered() {
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        let err = parse(&huge).unwrap_err();
        assert!(err.client_message().unwrap().contains("request line"));
    }

    #[test]
    fn header_limits_are_enforced() {
        let mut many = String::from("GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            many.push_str(&format!("X-H{i}: v\r\n"));
        }
        many.push_str("\r\n");
        assert!(parse(&many).unwrap_err().client_message().is_some());

        let long = format!(
            "GET / HTTP/1.1\r\nX-H: {}\r\n\r\n",
            "v".repeat(MAX_HEADER_LINE)
        );
        assert!(parse(&long).unwrap_err().client_message().is_some());

        assert!(parse("GET / HTTP/1.1\r\nno colon here\r\n\r\n")
            .unwrap_err()
            .client_message()
            .unwrap()
            .contains("colon"));
    }

    #[test]
    fn body_errors_are_client_errors() {
        // Non-numeric length.
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n")
            .unwrap_err()
            .client_message()
            .is_some());
        // Over the limit — rejected before any allocation.
        let big = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(parse(&big)
            .unwrap_err()
            .client_message()
            .unwrap()
            .contains("limit"));
        // Truncated: promises 10 bytes, delivers 3.
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
            .unwrap_err()
            .client_message()
            .unwrap()
            .contains("truncated"));
        // Truncated mid-headers.
        assert!(parse("POST / HTTP/1.1\r\nHost: x\r\n")
            .unwrap_err()
            .client_message()
            .unwrap()
            .contains("truncated"));
        // Chunked request bodies are out of scope.
        assert!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
                .unwrap_err()
                .client_message()
                .unwrap()
                .contains("chunked")
        );
    }

    #[test]
    fn request_lengths_are_plain_digits_and_given_once() {
        // `"+5".parse::<usize>()` is Ok(5); framing must not be.
        let signed = parse("POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello").unwrap_err();
        assert!(signed.client_message().unwrap().contains("Content-Length"));
        let twice = "POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!";
        let err = parse(twice).unwrap_err();
        assert!(
            err.client_message().unwrap().contains("more than one"),
            "{err:?}"
        );
        // Even two that agree: the rule is "one", not "consistent".
        assert!(
            parse("POST / HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\nhello")
                .is_err()
        );
    }

    #[test]
    fn requests_on_one_stream_are_framed_exactly() {
        // Two requests back to back: each ends exactly where its length says.
        let mut stream = Cursor::new(
            b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nokGET /b HTTP/1.1\r\n\r\n".to_vec(),
        );
        let a = read_request(&mut stream).unwrap();
        assert_eq!((a.path.as_str(), a.body.as_slice()), ("/a", &b"ok"[..]));
        assert_eq!(read_request(&mut stream).unwrap().path, "/b");
        assert!(matches!(read_request(&mut stream), Err(ParseError::Closed)));

        // A first-header-wins parser would frame this as an empty POST
        // followed by a second request, `GET /smuggled`, that its sender
        // never made visible to anything checking the first one's length.
        let mut smuggle = Cursor::new(
            b"POST /a HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 27\r\n\r\n\
              GET /smuggled HTTP/1.1\r\n\r\n"
                .to_vec(),
        );
        let err = read_request(&mut smuggle).unwrap_err();
        assert!(err.client_message().is_some(), "{err:?}");
    }

    #[test]
    fn response_writer_frames_correctly() {
        let text = written(true, false, |r| {
            let status = r
                .send(
                    503,
                    "Service Unavailable",
                    "application/json",
                    b"{}",
                    &[("Retry-After", "1".to_string())],
                )
                .unwrap();
            assert_eq!(status, 503);
            assert!(!r.closes());
        });
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(
            !text.contains("Connection"),
            "a kept connection says nothing: {text}"
        );
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn only_a_response_that_ends_its_connection_says_close() {
        let json = |r: &mut Reply<&mut Vec<u8>>| {
            r.json(200, "OK", "{}").unwrap();
        };
        assert!(!written(true, false, json).contains("Connection"));
        // Asked to close, or the daemon is draining: close.
        assert!(written(false, false, json).contains("Connection: close\r\n"));
        assert!(written(true, true, json).contains("Connection: close\r\n"));
        // Draining is read when the head is written, so a drain that
        // begins while a request is handled still closes its connection.
        let flag = AtomicBool::new(false);
        let mut out = Vec::new();
        let mut r = Reply::new(&mut out, true, &flag);
        flag.store(true, Ordering::SeqCst);
        r.error(404, "Not Found", "no").unwrap();
        assert!(r.closes());
        // A stream, or a relayed response, always ends its connection.
        let text = written(true, false, |r| {
            r.chunked(200, "OK", "application/jsonl")
                .unwrap()
                .finish()
                .unwrap();
            assert!(r.closes());
        });
        assert!(text.contains("Connection: close\r\n"));
        written(true, false, |r| {
            r.raw();
            assert!(r.closes());
        });
    }

    #[test]
    fn head_only_response_has_the_get_content_length_and_no_body() {
        let text = written(true, false, |r| {
            r.json_head("{\"ok\":true}").unwrap();
        });
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(
            text.ends_with("\r\n\r\n"),
            "no body after headers: {text:?}"
        );
    }

    #[test]
    fn counting_writer_tallies_every_byte() {
        let flag = AtomicBool::new(false);
        let mut sink = Vec::new();
        let n = {
            let mut r = Reply::new(&mut sink, true, &flag);
            r.json(200, "OK", "{}").unwrap();
            r.flush().unwrap();
            r.bytes_written()
        };
        assert_eq!(n as usize, sink.len());
        assert!(sink.ends_with(b"{}"));
    }

    #[test]
    fn chunked_writer_emits_the_wire_format() {
        let text = written(true, false, |r| {
            let mut cw = r.chunked(200, "OK", "application/jsonl").unwrap();
            cw.chunk(b"abc").unwrap();
            cw.chunk(b"").unwrap(); // skipped, not a terminator
            cw.chunk(&[b'x'; 16]).unwrap();
            cw.finish().unwrap();
        });
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        let body = text.split_once("\r\n\r\n").unwrap().1;
        assert_eq!(
            body,
            format!("3\r\nabc\r\n10\r\n{}\r\n0\r\n\r\n", "x".repeat(16))
        );
    }

    #[test]
    fn parses_fixed_length_responses() {
        let r = parse_response(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\ncontent-length: 2\r\n\r\n{}",
        )
        .unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.header("Content-Type"), Some("application/json"));
        assert_eq!(r.body, b"{}");
        assert!(r.reusable);
        let closing =
            parse_response("HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n");
        assert!(!closing.unwrap().reusable);
        assert!(
            !parse_response("HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n")
                .unwrap()
                .reusable
        );
    }

    #[test]
    fn parses_chunked_responses() {
        let r = parse_response(
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n",
        )
        .unwrap();
        assert_eq!(r.body_utf8().unwrap(), "abcde");
        assert!(!r.reusable, "only Content-Length framing is pooled");
    }

    #[test]
    fn unframed_bodies_run_to_eof() {
        let r = parse_response("HTTP/1.1 503 Service Unavailable\r\nRetry-After: 7\r\n\r\nbusy")
            .unwrap();
        assert_eq!(r.status, 503);
        assert_eq!(r.header("retry-after"), Some("7"));
        assert_eq!(r.body, b"busy");
        assert!(!r.reusable);
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
            // Framing a lenient parser would accept.
            "HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\n{}",
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}x",
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n+a\r\n0123456789\r\n0\r\n\r\n",
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n0\r\n\r\n",
        ] {
            assert!(parse_response(text).is_err(), "{text:?}");
        }
    }

    /// A server answering `answer` to every request, on a thread per
    /// connection, closing each connection after one answer when
    /// `close_after_each`.  Returns its address and a count of the
    /// connections it accepted.  Detached: it dies with the test process.
    fn server(answer: &'static str, close_after_each: bool) -> (String, Arc<AtomicU64>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let conns = Arc::new(AtomicU64::new(0));
        let seen = conns.clone();
        std::thread::spawn(move || {
            for s in listener.incoming() {
                let Ok(s) = s else { continue };
                seen.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || {
                    let mut r = BufReader::new(&s);
                    while read_request(&mut r).is_ok() {
                        if (&s).write_all(answer.as_bytes()).is_err() || close_after_each {
                            break;
                        }
                    }
                });
            }
        });
        (addr, conns)
    }

    #[test]
    fn the_client_reuses_its_connection_and_retries_a_stale_one_fresh() {
        let t = Duration::from_secs(5);
        let keep = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
        let (addr, conns) = server(keep, false);
        let c = Client::new(&addr);
        for _ in 0..5 {
            assert_eq!(c.request("GET", "/", None, t).unwrap().body, b"ok");
        }
        assert_eq!(conns.load(Ordering::SeqCst), 1);

        // The server drops every connection after one answer that looks
        // reusable: each later request finds its pooled connection dead
        // and goes through on a fresh one.
        let (addr, conns) = server(keep, true);
        let c = Client::new(&addr);
        for _ in 0..5 {
            assert_eq!(c.request("POST", "/", Some(b"{}"), t).unwrap().body, b"ok");
        }
        assert!(conns.load(Ordering::SeqCst) >= 5);

        // A probe never uses the pool.
        let (addr, conns) = server(keep, false);
        let c = Client::new(&addr);
        c.request("GET", "/", None, t).unwrap();
        c.probe("/healthz", t).unwrap();
        c.probe("/healthz", t).unwrap();
        assert_eq!(conns.load(Ordering::SeqCst), 3);
    }
}
