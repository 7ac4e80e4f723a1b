//! Spawning and stopping the real `wec_serve` / `wec_router` binaries.
//!
//! Daemons bind `127.0.0.1:0`; the bound address is parsed from the
//! `listening on` banner each prints to stderr (redirected to a file in the
//! run directory).  [`Daemon::shutdown`] drains through `POST /shutdown`
//! and waits for the process to exit by itself; a daemon that is dropped
//! instead (an error or a panic on the way) is killed and reaped.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http::Client;

const START_TIMEOUT: Duration = Duration::from_secs(30);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Daemon {
    child: Child,
    pub addr: String,
    pub log: PathBuf,
}

/// `cargo build` the daemon binaries into the target directory this
/// benchmark was built in, so they sit beside it and come from the same
/// source tree.  Quick when they are up to date.
pub fn build_daemons(repo: &Path, target_dir: &Path) -> io::Result<()> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(repo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--bin",
            "wec_serve",
            "--bin",
            "wec_router",
        ])
        .arg("--manifest-path")
        .arg(repo.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir)
        .stdout(Stdio::null())
        .status()?;
    if status.success() {
        Ok(())
    } else {
        Err(io::Error::other(format!(
            "building wec_serve/wec_router failed: {status}"
        )))
    }
}

impl Daemon {
    /// Start `bin` with `args` plus `--addr 127.0.0.1:0`, and wait for its
    /// banner.  `banner` is the text before the address, e.g.
    /// `"wec-serve listening on "`.
    pub fn spawn(bin: &Path, args: &[String], log: PathBuf, banner: &str) -> io::Result<Daemon> {
        let child = Command::new(bin)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::create(&log)?)
            .spawn()
            .map_err(|e| io::Error::other(format!("cannot start {}: {e}", bin.display())))?;
        let mut d = Daemon {
            child,
            addr: String::new(),
            log,
        };
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            let text = std::fs::read_to_string(&d.log).unwrap_or_default();
            if let Some(rest) = text.split(banner).nth(1) {
                if let Some(addr) = rest.split_whitespace().next() {
                    d.addr = addr.to_string();
                    return Ok(d);
                }
            }
            if let Some(status) = d.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "{} exited before listening ({status}): {text}",
                    bin.display()
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other(format!(
                    "{} never listened",
                    bin.display()
                )));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Drain: `POST /shutdown`, then wait for the process to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let answer = Client::new(&self.addr).request("POST", "/shutdown", Some(""));
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        loop {
            if let Some(status) = self.child.try_wait()? {
                answer?;
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!(
                        "daemon at {} exited with {status}",
                        self.addr
                    )))
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::other(format!(
                    "daemon at {} did not drain",
                    self.addr
                )));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
