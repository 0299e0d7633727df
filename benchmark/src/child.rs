//! The system under test: a child `pm-server` process on a free loopback
//! port, killed and reaped when its guard drops (normal exit, error return
//! or panic alike).

use std::fs::File;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// Where the harness finds the server binary and keeps its scratch files.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `pm-server` release binary (`run.sh` builds it).
    pub server_bin: PathBuf,
    /// `benchmark/out`: traces, reports, server logs, temporary WAL dirs.
    pub out_dir: PathBuf,
}

/// A running `pm-server` child. Dropping it sends `SIGKILL` and waits.
pub struct Server {
    child: Child,
    /// The address it listens on.
    pub addr: SocketAddr,
    /// When it was spawned (`setup_s` counts from here).
    pub spawned: Instant,
}

/// Asks the kernel for a currently free loopback port. Another process
/// could grab it before the server binds; the server then fails to start
/// and the caller's connect deadline reports it.
fn free_port() -> std::io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

impl Server {
    /// Spawns `pm-server` with `flags` on a free port; its stderr (startup
    /// banner, recovery report, slow-op warnings) goes to `log`.
    pub fn spawn(env: &Env, flags: &[String], log: &Path) -> std::io::Result<Self> {
        let port = free_port()?;
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let spawned = Instant::now();
        let child = Command::new(&env.server_bin)
            .arg("--addr")
            .arg(addr.to_string())
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::create(log)?)
            .spawn()?;
        Ok(Self {
            child,
            addr,
            spawned,
        })
    }

    /// Whether the child has already exited (it should not have).
    pub fn has_exited(&mut self) -> bool {
        !matches!(self.child.try_wait(), Ok(None))
    }

    /// Peak resident set size (`VmHWM`) of the child in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib / 1024.0)
    }

    /// `kill -9` and reap, as a crash would.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // Both fail only when the child is already gone, which is the goal.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A directory under `out_dir` removed when the guard drops.
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// Creates (emptying any leftover) `out_dir/<name>`.
    pub fn create(out_dir: &Path, name: &str) -> std::io::Result<Self> {
        let path = out_dir.join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// CPU time (user + system) this process has used so far, in seconds, over
/// all its threads, exited ones included: `utime + stime` of
/// `/proc/self/stat`, in the 100 Hz ticks every Linux ABI reports them in.
pub fn self_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields resume after `)`.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|field| field.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}
