//! The accept-and-drain loop and the connection loop shared by
//! `wec_serve` and `wec_router`.
//!
//! The listener stays blocking, so a connection is handed to its thread
//! the moment it arrives — nothing on the request path ever sleeps.  That
//! leaves one problem: ending a blocking `accept`.  glibc's `signal(2)`
//! installs handlers with `SA_RESTART`, so SIGTERM/SIGINT alone never
//! interrupt it.  Instead a small watcher thread, off the request path,
//! folds the signal flag into the daemon's draining flag and checks the
//! daemon's "drained?" predicate every [`WATCH_PERIOD`].  Once both hold
//! it wakes `accept` by connecting to the listener itself (over loopback
//! when the listener is bound to a wildcard address).
//!
//! The accept loop keeps serving until it accepts that wake-up
//! connection, so every connection queued ahead of it gets its normal
//! answer (a draining daemon answers submissions `503`).  Connection
//! threads are scoped to [`run`]: it returns only after every accepted
//! connection has been answered, so no accepted connection is dropped by
//! the process exiting behind it.
//!
//! Each connection thread answers requests until the connection ends
//! (HTTP/1.1 keep-alive): the client asks to close or speaks HTTP/1.0, a
//! response streams, a request fails to parse, a write fails, the daemon
//! drains, or no further request arrives within `io_timeout`.  The first
//! request is awaited for the whole `io_timeout`, as before keep-alive;
//! a further one in [`WATCH_PERIOD`] slices that watch the draining flag,
//! so an idle kept connection holds a drain up by one period at most.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::http::{self, Reply, Request};
use crate::lock;

/// How often the watcher re-checks the signal flag and the drained
/// predicate, and an idle kept connection the draining flag.  Bounds how
/// late a drain finishes, never a request.
const WATCH_PERIOD: Duration = Duration::from_millis(10);

/// Set by the SIGTERM/SIGINT handler; the watcher folds it into the
/// draining flag of every daemon running in the process.
static TERMINATE: AtomicBool = AtomicBool::new(false);

/// Route SIGTERM and SIGINT into a graceful drain.  Raw `signal(2)` via
/// the C runtime already linked into every binary — the workspace carries
/// no libc crate, and a handler that stores one atomic is async-safe.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        TERMINATE.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

#[cfg(not(unix))]
pub fn install_signal_handlers() {}

/// What a daemon plugs into the shared connection loop.
pub trait Service: Sync {
    /// Answer one request through `reply`; returns the status written.
    fn route<W: Write>(&self, req: &Request, reply: &mut Reply<'_, W>) -> io::Result<u16>;

    /// One request answered in full: `req` is `None` for the `400` a
    /// request that failed to parse gets.  `dur_us` runs from the
    /// request's first byte to its flushed answer, and `bytes` counts that
    /// one answer.
    fn answered(&self, req: Option<&Request>, status: u16, dur_us: u64, bytes: u64);
}

/// Accept on `listener` until drained: each connection is served by
/// `service` on its own thread (named `{name}-conn`); once `draining` is
/// set (by the daemon or a signal) and `drained()` holds, the watcher
/// wakes the loop, the loop answers everything queued ahead of the
/// wake-up, and `run` returns after the last connection thread has
/// finished.  `io_timeout` bounds every read and write, and how long a
/// connection may sit idle.
pub fn run<D, S>(
    listener: &TcpListener,
    name: &str,
    draining: &AtomicBool,
    io_timeout: Duration,
    drained: D,
    service: &S,
) -> io::Result<()>
where
    D: Fn() -> bool + Sync,
    S: Service,
{
    let wake_to = loopback_if_wildcard(listener.local_addr()?);
    // The wake-up connection's local address.  The watcher holds the lock
    // from before its connect until the address is stored, so the loop
    // can never accept the wake-up without recognising it.
    let wake_from: Mutex<Option<SocketAddr>> = Mutex::new(None);
    let conn_name = format!("{name}-conn");
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name(format!("{name}-watcher"))
            .spawn_scoped(s, || watch(name, wake_to, &wake_from, draining, &drained))?;
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    if *lock(&wake_from) == Some(peer) {
                        return Ok(());
                    }
                    // A failed spawn drops the stream: that client sees a
                    // closed connection, the daemon lives on.
                    let _ = std::thread::Builder::new()
                        .name(conn_name.clone())
                        .spawn_scoped(s, move || {
                            // A panicking handler costs its own connection
                            // only; the hook has already reported it.
                            let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                                serve_conn(service, &stream, draining, io_timeout)
                            }));
                        });
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    // Typically descriptor exhaustion: back off instead of
                    // spinning until connections close.
                    eprintln!("{name}: accept error: {e}");
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
    })
}

/// Answer requests on one connection until it ends (see the module docs).
fn serve_conn<S: Service>(
    service: &S,
    stream: &TcpStream,
    draining: &AtomicBool,
    io_timeout: Duration,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(io_timeout));
    let _ = stream.set_write_timeout(Some(io_timeout));
    let mut reader = BufReader::new(stream);
    let mut w = BufWriter::new(stream);
    if !matches!(reader.fill_buf(), Ok(b) if !b.is_empty()) {
        return;
    }
    loop {
        // The request's first byte is buffered: its clock starts here.
        let t = Instant::now();
        let parsed = http::read_request(&mut reader);
        let keep_alive = parsed.as_ref().is_ok_and(Request::keep_alive);
        let mut reply = Reply::new(&mut w, keep_alive, draining);
        let status = match &parsed {
            Ok(req) => service.route(req, &mut reply),
            // Malformed input gets a 400; transport errors and clean
            // closes get nothing (there is no one left to answer).
            Err(e) => match e.client_message() {
                Some(msg) => reply.error(400, "Bad Request", msg),
                None => return,
            },
        };
        let Ok(status) = status.and_then(|s| reply.flush().map(|()| s)) else {
            return;
        };
        let dur_us = t.elapsed().as_micros() as u64;
        service.answered(parsed.as_ref().ok(), status, dur_us, reply.bytes_written());
        if reply.closes() || !await_next(stream, &mut reader, draining, io_timeout) {
            return;
        }
    }
}

/// Wait for the first byte of a further request on a kept connection:
/// true once it is buffered; false when the client closes, the
/// connection idles for `io_timeout`, or the daemon is draining (seen
/// within one [`WATCH_PERIOD`]).
fn await_next(
    stream: &TcpStream,
    reader: &mut BufReader<&TcpStream>,
    draining: &AtomicBool,
    io_timeout: Duration,
) -> bool {
    if !reader.buffer().is_empty() {
        return true;
    }
    let _ = stream.set_read_timeout(Some(WATCH_PERIOD));
    let idle = Instant::now();
    let ready = loop {
        match reader.fill_buf() {
            Ok(b) => break !b.is_empty(),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if draining.load(Ordering::SeqCst) || idle.elapsed() >= io_timeout {
                    break false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break false,
        }
    };
    let _ = stream.set_read_timeout(Some(io_timeout));
    ready
}

/// The watcher: fold signals into `draining`, and once drained, connect to
/// the listener so the blocked `accept` returns the wake-up connection.
fn watch(
    name: &str,
    wake_to: SocketAddr,
    wake_from: &Mutex<Option<SocketAddr>>,
    draining: &AtomicBool,
    drained: &dyn Fn() -> bool,
) {
    loop {
        std::thread::sleep(WATCH_PERIOD);
        if TERMINATE.load(Ordering::SeqCst) {
            draining.store(true, Ordering::SeqCst);
        }
        if !draining.load(Ordering::SeqCst) || !drained() {
            continue;
        }
        let mut from = lock(wake_from);
        match TcpStream::connect(wake_to).and_then(|s| s.local_addr()) {
            Ok(addr) => {
                *from = Some(addr);
                return;
            }
            Err(e) => eprintln!("{name}: drain wake-up failed, retrying: {e}"),
        }
    }
}

/// Where to connect to reach a listener bound to `addr`: a wildcard
/// (`0.0.0.0` / `::`) is reached over loopback.
fn loopback_if_wildcard(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wildcard_listeners_are_woken_over_loopback() {
        let v4: SocketAddr = "0.0.0.0:8407".parse().unwrap();
        assert_eq!(loopback_if_wildcard(v4), "127.0.0.1:8407".parse().unwrap());
        let v6: SocketAddr = "[::]:8407".parse().unwrap();
        assert_eq!(loopback_if_wildcard(v6), "[::1]:8407".parse().unwrap());
        let bound: SocketAddr = "10.1.2.3:80".parse().unwrap();
        assert_eq!(loopback_if_wildcard(bound), bound);
    }
}
