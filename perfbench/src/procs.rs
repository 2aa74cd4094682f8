//! Process hygiene: building the CLI, spawning daemons in private
//! working directories on free ports, readiness by `GET /v1/health`,
//! SIGTERM shutdown with reaping, and peak RSS from `wait4(2)`.

use crate::http::Conn;
use std::fs::File;
use std::io;
use std::net::SocketAddr;
use std::os::raw::{c_int, c_long, c_uint};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then 14 longs
/// of which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn waitid(idtype: c_int, id: c_uint, info: *mut SigInfo, options: c_int) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
}

/// `siginfo_t`, of which only the size matters here.
#[repr(C)]
struct SigInfo([u64; 16]);

const P_PID: c_int = 1;
const WEXITED: c_int = 4;
const WNOWAIT: c_int = 0x0100_0000;
const SIGKILL: c_int = 9;
const SIGTERM: c_int = 15;

/// How a reaped child ended.
pub struct Exit {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// Peak resident set size in kilobytes.
    pub maxrss_kb: u64,
}

/// Send `sig` to `pid`; a process that already exited is not an error.
fn signal(pid: u32, sig: c_int) {
    // SAFETY: kill(2) takes plain integers and touches no memory of
    // ours; `pid` is a child we spawned and have not reaped yet, so the
    // id cannot have been recycled for another process.
    unsafe {
        kill(pid as c_int, sig);
    }
}

/// Retry a syscall wrapper until it is not interrupted by a signal.
fn retry_eintr(mut call: impl FnMut() -> c_int) -> io::Result<c_int> {
    loop {
        let r = call();
        if r >= 0 {
            return Ok(r);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// Reap `pid`, killing it with SIGKILL if it outlives `limit`. The
/// wait blocks, so a child's end is seen the moment it happens (a
/// polling wait would round millisecond runs up to its poll period).
/// The child must not be reaped any other way (e.g. `Child::wait`).
pub fn reap(pid: u32, limit: Duration) -> io::Result<Exit> {
    let (done, finished) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if finished.recv_timeout(limit) == Err(RecvTimeoutError::Timeout) {
            signal(pid, SIGKILL);
        }
    });
    let mut info = SigInfo([0; 16]);
    // Wait for the exit without reaping (WNOWAIT): the pid stays ours
    // until the watchdog is gone, so it never signals a recycled id.
    // SAFETY: `info` is a live, aligned buffer the size of siginfo_t.
    let exited = retry_eintr(|| unsafe { waitid(P_PID, pid, &mut info, WEXITED | WNOWAIT) });
    drop(done);
    watchdog
        .join()
        .expect("the watchdog only waits and signals");
    exited?;
    let mut status: c_int = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: both out-pointers reference live, properly aligned locals
    // of the C layout wait4(2) writes.
    retry_eintr(|| unsafe { wait4(pid as c_int, &mut status, 0, &mut usage) })?;
    Ok(Exit {
        code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        maxrss_kb: usage.maxrss.max(0) as u64,
    })
}

/// Run `bin args…` in `cwd` with stdout captured to `out` and stderr
/// to `err`; returns the exit and the wall time from spawn to reap.
pub fn run_to_files(
    bin: &Path,
    args: &[&str],
    cwd: &Path,
    out: &Path,
    err: &Path,
    limit: Duration,
) -> io::Result<(Exit, f64)> {
    let t0 = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(File::create(out)?)
        .stderr(File::create(err)?)
        .spawn()?;
    let exit = reap(child.id(), limit)?;
    Ok((exit, t0.elapsed().as_secs_f64()))
}

/// Run `bin args…` in `cwd` with stderr captured to `err`, reading
/// stdout through a pipe and stamping every line with its arrival, in
/// seconds since spawn. Returns the exit, the wall time from spawn to
/// reap, the whole stdout, and one stamp per line.
pub fn run_stamping_lines(
    bin: &Path,
    args: &[&str],
    cwd: &Path,
    err: &Path,
    limit: Duration,
) -> io::Result<(Exit, f64, Vec<u8>, Vec<f64>)> {
    let t0 = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(File::create(err)?)
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout is piped");
    // Drained until end of file, which the child's exit (or SIGKILL
    // from `reap`'s watchdog) brings.
    let reader = std::thread::spawn(move || {
        let mut stdout = io::BufReader::new(stdout);
        let (mut text, mut stamps) = (Vec::new(), Vec::new());
        loop {
            match io::BufRead::read_until(&mut stdout, b'\n', &mut text) {
                Ok(0) | Err(_) => break,
                Ok(_) => stamps.push(t0.elapsed().as_secs_f64()),
            }
        }
        (text, stamps)
    });
    let exit = reap(child.id(), limit)?;
    let wall = t0.elapsed().as_secs_f64();
    let (text, stamps) = reader.join().expect("the reader only reads");
    Ok((exit, wall, text, stamps))
}

/// A running `spechpc serve` or `spechpc fleet`.
pub struct Daemon {
    child: Option<Child>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawn `bin args… --addr 127.0.0.1:0` in `dir` (created; the
    /// daemon's cache lands in `dir/results/cache`), read the bound
    /// port from its log, and wait until `GET /v1/health` answers 200.
    pub fn spawn(bin: &Path, args: &[&str], dir: PathBuf) -> io::Result<Daemon> {
        std::fs::create_dir_all(&dir)?;
        let log = dir.join("daemon.log");
        let child = Command::new(bin)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .current_dir(&dir)
            .stdin(Stdio::null())
            .stdout(File::create(dir.join("daemon.out"))?)
            .stderr(File::create(&log)?)
            .spawn()?;
        let mut d = Daemon {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        d.addr = wait_bound(&log, Duration::from_secs(30))?;
        wait_healthy(d.addr, Duration::from_secs(30))?;
        Ok(d)
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Current resident set size in kilobytes (`VmRSS`).
    pub fn rss_kb(&self) -> u64 {
        proc_status_kb(self.pid(), "VmRSS:")
    }

    /// SIGTERM (graceful drain), then reap; SIGKILL after 10 s.
    // The child is reaped by `reap` (wait4, for its rusage), which
    // clippy cannot see.
    #[allow(clippy::zombie_processes)]
    pub fn stop(mut self) -> io::Result<Exit> {
        let child = self.child.take().expect("a daemon is stopped once");
        signal(child.id(), SIGTERM);
        reap(child.id(), Duration::from_secs(10))
    }
}

impl Drop for Daemon {
    /// Error paths still leave no process behind.
    fn drop(&mut self) {
        if let Some(child) = self.child.take() {
            signal(child.id(), SIGKILL);
            let _ = reap(child.id(), Duration::from_secs(5));
        }
    }
}

/// Poll the daemon log for its `listening on http://HOST:PORT` (or
/// `coordinating on …`) line.
fn wait_bound(log: &Path, limit: Duration) -> io::Result<SocketAddr> {
    let deadline = Instant::now() + limit;
    loop {
        let text = std::fs::read_to_string(log).unwrap_or_default();
        if let Some(addr) = text
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
        {
            return Ok(addr);
        }
        if Instant::now() >= deadline {
            return Err(io::Error::other(format!(
                "no listening line in {} after {limit:?}",
                log.display()
            )));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn wait_healthy(addr: SocketAddr, limit: Duration) -> io::Result<()> {
    let deadline = Instant::now() + limit;
    loop {
        if let Ok(r) = Conn::connect(addr).and_then(|mut c| c.get("/v1/health")) {
            if r.status == 200 {
                return Ok(());
            }
        }
        if Instant::now() >= deadline {
            return Err(io::Error::other(format!("{addr} never became healthy")));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A `/proc/<pid>/status` field in kilobytes (0 when unreadable).
fn proc_status_kb(pid: u32, field: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Sockets in TIME_WAIT on this host (IPv4 and IPv6).
pub fn time_wait_count() -> u64 {
    ["/proc/net/tcp", "/proc/net/tcp6"]
        .iter()
        .filter_map(|p| std::fs::read_to_string(p).ok())
        .map(|t| {
            t.lines()
                .skip(1)
                .filter(|l| l.split_whitespace().nth(3) == Some("06"))
                .count()
        })
        .sum::<usize>() as u64
}

/// Build the `spechpc` CLI from source in `root` and return its path.
/// The repository's tier-1 build does not produce the binary, so every
/// run rebuilds (a no-op when fresh) instead of trusting a stale one.
pub fn build_cli(root: &Path) -> io::Result<PathBuf> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "-p", "spechpc-cli"])
        .current_dir(root)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "building spechpc failed: {status}"
        )));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = root.join(target).join("release").join("spechpc");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(io::Error::other(format!(
            "{} missing after build",
            bin.display()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spawn(script: &str) -> u32 {
        Command::new("sh")
            .args(["-c", script])
            .spawn()
            .expect("sh runs")
            .id()
    }

    #[test]
    fn reap_reports_the_exit_code_and_kills_overtime_children() {
        assert_eq!(
            reap(spawn("exit 3"), Duration::from_secs(30)).unwrap().code,
            Some(3)
        );
        let t = Instant::now();
        let killed = reap(spawn("sleep 30"), Duration::from_millis(100)).unwrap();
        assert_eq!(killed.code, None, "SIGKILL ends it");
        assert!(t.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn stdout_lines_are_stamped_in_arrival_order() {
        let (exit, wall, text, stamps) = run_stamping_lines(
            Path::new("sh"),
            &["-c", "echo a; sleep 0.2; printf 'b\\nc\\n'"],
            Path::new("."),
            Path::new("/dev/null"),
            Duration::from_secs(30),
        )
        .unwrap();
        assert_eq!(exit.code, Some(0));
        assert_eq!(text, b"a\nb\nc\n");
        assert_eq!(stamps.len(), 3);
        assert!(stamps[1] - stamps[0] >= 0.15, "{stamps:?}");
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]) && stamps[2] <= wall);
    }
}
