//! Spawning the `hibd` binary: wall time from spawn to exit, peak resident
//! set from `/proc/<pid>/status`, stdout captured through a file.

use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Interval between reads of the child's `VmHWM`.
pub const POLL: Duration = Duration::from_millis(50);

pub struct ChildRun {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// Last `VmHWM` read while the child ran, KiB (`None`: never read, the
    /// child was gone before the first poll, or polling was off).
    pub peak_rss_kib: Option<u64>,
    pub success: bool,
    pub stdout: String,
    pub stderr: String,
}

/// Pull `VmHWM` (KiB) out of the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// What to do while the child runs.
pub enum Watch<'a> {
    /// Just wait (set-up children: too short to poll).
    Nothing,
    /// Poll `VmHWM` every [`POLL`]; `tick` also runs on each poll with the
    /// seconds since spawn (the serve workload watches job commits with it).
    Rss { tick: &'a mut (dyn FnMut(f64) + Send) },
}

/// Run `exe args..` in `cwd` with `RAYON_NUM_THREADS = threads`, closed
/// loop: returns when the child has exited and been reaped.
pub fn run(
    exe: &Path,
    args: &[&str],
    cwd: &Path,
    threads: usize,
    watch: Watch<'_>,
) -> io::Result<ChildRun> {
    let out_path = cwd.join("child.stdout");
    let err_path = cwd.join("child.stderr");
    let mut cmd = Command::new(exe);
    cmd.args(args)
        .current_dir(cwd)
        .env("RAYON_NUM_THREADS", threads.to_string())
        .stdin(Stdio::null())
        .stdout(File::create(&out_path)?)
        .stderr(File::create(&err_path)?);
    let t0 = Instant::now();
    let mut child = cmd.spawn()?;
    let status_path = format!("/proc/{}/status", child.id());

    let (status, wall_s, peak_rss_kib) = match watch {
        Watch::Nothing => {
            let status = child.wait()?;
            (status, t0.elapsed().as_secs_f64(), None)
        }
        Watch::Rss { tick } => std::thread::scope(|scope| {
            let (done_tx, done_rx) = mpsc::channel::<()>();
            let poller = scope.spawn(move || {
                let mut peak = None;
                loop {
                    if let Some(kib) =
                        std::fs::read_to_string(&status_path).ok().as_deref().and_then(parse_vm_hwm)
                    {
                        peak = Some(kib);
                    }
                    tick(t0.elapsed().as_secs_f64());
                    // Wakes at once when the waiter below signals the exit.
                    if done_rx.recv_timeout(POLL) != Err(mpsc::RecvTimeoutError::Timeout) {
                        return peak;
                    }
                }
            });
            let status = child.wait();
            let wall_s = t0.elapsed().as_secs_f64();
            drop(done_tx);
            let peak = poller.join().expect("VmHWM poller thread panicked");
            status.map(|s| (s, wall_s, peak))
        })?,
    };
    Ok(ChildRun {
        wall_s,
        peak_rss_kib,
        success: status.success(),
        stdout: std::fs::read_to_string(&out_path).unwrap_or_default(),
        stderr: std::fs::read_to_string(&err_path).unwrap_or_default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parser_reads_the_status_format() {
        let status =
            "Name:\thibd\nVmPeak:\t  123456 kB\nVmHWM:\t   45678 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(45678));
        assert_eq!(parse_vm_hwm("VmHWM:\t12 kB\n"), Some(12));
        assert_eq!(parse_vm_hwm("Name:\tx\nVmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t12 MB\n"), None);
        // The kernel's own file parses.
        let own = std::fs::read_to_string("/proc/self/status").unwrap();
        assert!(parse_vm_hwm(&own).unwrap() > 0);
    }

    #[test]
    fn runs_a_child_and_reports_wall_status_and_output() {
        let dir = std::env::temp_dir().join(format!("hibd_ladder_child_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sh = Path::new("/bin/sh");
        let mut ticks = 0usize;
        let mut tick = |_t: f64| ticks += 1;
        let ok = run(
            sh,
            &["-c", "echo $RAYON_NUM_THREADS; sleep 0.12"],
            &dir,
            2,
            Watch::Rss { tick: &mut tick },
        )
        .unwrap();
        assert!(ok.success);
        assert_eq!(ok.stdout.trim(), "2");
        assert!(ok.wall_s >= 0.12 && ok.wall_s < 5.0, "{}", ok.wall_s);
        assert!(ok.peak_rss_kib.unwrap() > 0);
        assert!(ticks >= 2, "{ticks}");
        let bad = run(sh, &["-c", "echo oops >&2; exit 3"], &dir, 1, Watch::Nothing).unwrap();
        assert!(!bad.success);
        assert_eq!(bad.stderr.trim(), "oops");
        assert!(bad.peak_rss_kib.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
