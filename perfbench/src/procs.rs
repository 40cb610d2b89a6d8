//! The processes under test: `tristream-cli serve` daemons and
//! `tristream-cli count` runs, spawned as children and always reaped.
//!
//! Every child's pid is registered while it runs, so the watchdog can kill
//! them all if a run overstays its limit.

use crate::now;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use tristream_serve::Client;

static CHILDREN: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn children() -> std::sync::MutexGuard<'static, Vec<u32>> {
    CHILDREN.lock().unwrap_or_else(|p| p.into_inner())
}

fn register(pid: u32) {
    children().push(pid);
}

fn unregister(pid: u32) {
    children().retain(|&p| p != pid);
}

/// Kills every registered child and exits with code 3 once `limit` has
/// passed, so a hung daemon or client can never outlive the run's budget.
pub fn start_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: run exceeded {limit:?}; killing its children");
        for pid in children().iter() {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
        std::process::exit(3);
    });
}

/// The peak resident set (`VmHWM`) of a live process, in KiB.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// The line `serve` prints once its listener is bound.
const BANNER: &str = "tristream serve: listening on ";

/// A running `tristream-cli serve --addr 127.0.0.1:0`. Dropping it kills
/// and reaps the process.
pub struct Daemon {
    child: Child,
    /// The address read back from the banner.
    pub addr: SocketAddr,
    /// Drains the daemon's stdout after the banner until it exits.
    stdout_drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral loopback port and waits (up to
    /// 30 s) for its banner.
    pub fn spawn(cli: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(cli)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {} serve: {e}", cli.display()))?;
        register(child.id());
        let stdout = child.stdout.take();
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            let Some(stdout) = stdout else {
                let _ = tx.send(None);
                return;
            };
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            let addr = loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break None,
                    Ok(_) => {
                        if let Some(addr) = line.trim().strip_prefix(BANNER) {
                            break Some(addr.to_string());
                        }
                    }
                }
            };
            let found = addr.is_some();
            let _ = tx.send(addr);
            if found {
                let _ = std::io::copy(&mut reader, &mut std::io::sink());
            }
        });
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout_drain: Some(drain),
        };
        let banner = rx.recv_timeout(Duration::from_secs(30));
        match banner.ok().flatten().map(|a| a.parse::<SocketAddr>()) {
            Some(Ok(addr)) => {
                daemon.addr = addr;
                Ok(daemon)
            }
            other => Err(format!("serve printed no usable banner: {other:?}")),
        }
    }

    /// The daemon's peak resident set so far, in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        vm_hwm_kib(self.child.id()).map(|kib| kib as f64 / 1024.0)
    }

    /// Sends SHUTDOWN on `client` and waits up to 20 s for the daemon to
    /// drain and exit; [`Drop`] kills it if it has not.
    pub fn shutdown(mut self, client: &mut Client) -> Result<(), String> {
        client.shutdown().map_err(|e| format!("SHUTDOWN: {e}"))?;
        let deadline = now() + Duration::from_secs(20);
        while now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("serve exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for serve: {e}")),
            }
        }
        Err("serve did not exit within 20 s of SHUTDOWN".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        unregister(self.child.id());
        if let Some(drain) = self.stdout_drain.take() {
            let _ = drain.join();
        }
    }
}

/// One finished `count` run.
#[derive(Debug)]
pub struct CountRun {
    /// Spawn to exit.
    pub wall: Duration,
    /// Exit status.
    pub status: ExitStatus,
    /// Everything it printed on stdout.
    pub stdout: String,
    /// The last `VmHWM` read while polling for its exit, in KiB.
    pub peak_kib: Option<u64>,
}

/// Runs `cli args…` to completion, polling its `VmHWM` every 2 ms. The
/// exit time is taken by a thread blocked in `wait`, so polling does not
/// quantise the wall time.
pub fn run_count(cli: &Path, args: &[String]) -> Result<CountRun, String> {
    let start = now();
    let mut child = Command::new(cli)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", cli.display()))?;
    let pid = child.id();
    register(pid);
    let stdout = child.stdout.take();
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let status = child.wait();
        let end = now();
        let _ = tx.send(());
        (status, end)
    });
    let mut peak_kib = None;
    while let Err(mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(Duration::from_millis(2)) {
        if let Some(kib) = vm_hwm_kib(pid) {
            peak_kib = Some(kib);
        }
    }
    let joined = waiter.join();
    unregister(pid);
    let (status, end) = joined.map_err(|_| "count waiter thread panicked".to_string())?;
    let status = status.map_err(|e| format!("waiting for count: {e}"))?;
    let mut out = String::new();
    if let Some(mut stdout) = stdout {
        stdout
            .read_to_string(&mut out)
            .map_err(|e| format!("reading count output: {e}"))?;
    }
    Ok(CountRun {
        wall: end - start,
        status,
        stdout: out,
        peak_kib,
    })
}
