//! Host-side measurement helpers: order statistics, resident-set
//! readings from `/proc`, and reaping a child with its resource usage.

use std::process::Child;
use std::time::Duration;

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One `kB` field (`VmHWM`, `VmRSS`, ...) of `/proc/<pid>/status`, in MB.
fn status_mb(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set (`VmHWM`) of a live process, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    status_mb(&pid.to_string(), "VmHWM:")
}

/// Current resident set of this process, in MB.
pub fn self_rss_mb() -> Option<f64> {
    status_mb("self", "VmRSS:")
}

/// How a reaped child ended.
pub struct Reaped {
    /// Exit code, or `None` if a signal ended it.
    pub code: Option<i32>,
    /// Peak resident set over the child's life (`ru_maxrss`), in MB.
    pub peak_rss_mb: f64,
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Waits for `child` to end and returns its exit code with the peak
/// resident set the kernel recorded for it. `std` exposes no
/// per-child rusage, so this reaps through `wait4`; the `Child` is
/// consumed so that nothing waits on the reaped pid again.
pub fn reap(child: Child) -> std::io::Result<Reaped> {
    let pid = i32::try_from(child.id()).expect("pid fits in pid_t");
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // Linux's `int` and `struct rusage` (two timevals, then fourteen
        // longs); `pid` is our own unreaped child, so the call reaps
        // exactly it and writes nothing else.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    drop(child);
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Reaped {
        code,
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
    }

    #[test]
    fn reap_reports_exit_code_and_rss() {
        let child = std::process::Command::new("sh")
            .args(["-c", "exit 3"])
            .spawn()
            .unwrap();
        let r = reap(child).unwrap();
        assert_eq!(r.code, Some(3));
        assert!(r.peak_rss_mb > 0.0);
    }
}
