//! What the harness reads from the operating system: process CPU time, peak
//! resident memory, syscall byte counts, and the host fingerprint.

use crate::json::Json;
use std::path::Path;

/// Kernel clock ticks per second as `/proc/self/stat` reports them. Linux
/// fixes the user-visible value at 100 on every architecture.
const TICKS_PER_SECOND: f64 = 100.0;

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

/// User plus system CPU seconds this process (all threads, including ones
/// that have exited) has used so far.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = read("/proc/self/stat")?;
    // The command name (field 2) may contain spaces; the fields after its
    // closing parenthesis are fixed: state is field 3, utime 14, stime 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let field = |n: usize| {
        rest.split_whitespace()
            .nth(n - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("/proc/self/stat has no field {n}"))
    };
    Ok((field(14)? + field(15)?) / TICKS_PER_SECOND)
}

/// Peak resident set size (`VmHWM`) in bytes.
pub fn peak_rss_bytes() -> Result<f64, String> {
    read("/proc/self/status")?
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Reset the peak-RSS watermark to the current resident size, so set-up
/// allocations do not count against the measured region. Returns whether the
/// kernel accepted it; where it does not, `peak_rss_mb` covers set-up too and
/// the result says so (`rss_reset: false`).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Bytes this process has moved through read- and write-class system calls
/// (`rchar + wchar`): files and sockets alike, cached or not. A count, so it
/// repeats exactly for a deterministic run.
pub fn syscall_io_bytes() -> Result<f64, String> {
    let io = read("/proc/self/io")?;
    let field = |name: &str| {
        io.lines()
            .find_map(|line| line.strip_prefix(name))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("no {name} in /proc/self/io"))
    };
    Ok(field("rchar:")? + field("wchar:")?)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/self/mountinfo`), or `"unknown"`.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = read("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            // "<id> <parent> <maj:min> <root> <mount point> ... - <fstype> ..."
            let (head, tail) = line.split_once(" - ")?;
            let mount_point = head.split_whitespace().nth(4)?;
            let fstype = tail.split_whitespace().next()?;
            path.starts_with(mount_point)
                .then_some((mount_point.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fstype)| fstype.to_string())
}

/// Revision of the git checkout the harness runs in, or `"unknown"` (the
/// benchmark driver's checkout is not a git repository).
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |rev| rev.trim().to_string())
}

/// The machine and checkout a result was measured on.
pub fn fingerprint(work_dir: &Path) -> Json {
    let cpu_model = read("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = read("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |k| k.trim().to_string());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::str(cpu_model)),
        ("kernel", Json::str(kernel)),
        ("work_fs", Json::str(fs_type(work_dir))),
        ("git_revision", Json::str(git_revision())),
    ])
}
