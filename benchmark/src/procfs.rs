//! Process and host facts read from `/proc` (Linux only; every reader
//! degrades to `None` elsewhere, which the correctness gate reports).

use std::path::Path;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` has been 100 on every Linux architecture
/// since 2.6; std offers no `sysconf`, and the crate forbids FFI.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds out of one `/proc/<pid>/stat` line.
///
/// The second field (`comm`) may itself contain spaces and parentheses, so
/// fields are counted from the *last* `)`: after it come `state` (field 3)
/// and onwards, making `utime`/`stime` (fields 14/15) the 12th and 13th.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size in MiB out of `/proc/<pid>/status` (`VmHWM`, kB).
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_ascii_whitespace();
    let value: f64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") | None => Some(value / 1024.0),
        Some(_) => None,
    }
}

/// The filesystem type of the mount holding `path`, out of
/// `/proc/self/mounts` text: the entry with the longest mount point that is a
/// path-prefix of `path` (later entries win ties, as later mounts shadow).
pub fn parse_fs_type(mounts: &str, path: &Path) -> Option<String> {
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_ascii_whitespace();
        let (Some(_dev), Some(point), Some(fs)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if path.starts_with(point) && best.map_or(true, |(len, _)| point.len() >= len) {
            best = Some((point.len(), fs));
        }
    }
    best.map(|(_, fs)| fs.to_string())
}

/// CPU seconds this process has consumed so far.
pub fn cpu_seconds() -> Option<f64> {
    parse_stat_cpu_seconds(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// This process's peak resident set size so far, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Filesystem type under `path` (which must exist so it can be made absolute).
pub fn fs_type(path: &Path) -> Option<String> {
    let absolute = path.canonicalize().ok()?;
    parse_fs_type(
        &std::fs::read_to_string("/proc/self/mounts").ok()?,
        &absolute,
    )
}

/// `rustc --version` of the toolchain on `PATH` (the one `cargo run` built
/// this binary with), or `"unknown"`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Cores the scheduler will give this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_spaces_and_parens_in_comm() {
        let stat = "4242 (bamboo (bench) x) S 1 4242 4242 0 -1 4194304 1571 0 0 0 \
                    250 50 0 0 20 0 9 0 12345 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_stat_cpu_seconds("garbage"), None);
        assert_eq!(parse_stat_cpu_seconds("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_converted_from_kb() {
        let status = "Name:\tx\nVmPeak:\t  999999 kB\nVmHWM:\t  262144 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(256.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn fs_type_takes_the_longest_mount_prefix() {
        let mounts = "/dev/vda / ext4 rw 0 0\n\
                      tmpfs /tmp tmpfs rw 0 0\n\
                      /dev/vdb /tmp/work xfs rw 0 0\n";
        let fs = |p: &str| parse_fs_type(mounts, Path::new(p));
        assert_eq!(fs("/tmp/work/out").as_deref(), Some("xfs"));
        assert_eq!(fs("/tmp/other").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/root/repo").as_deref(), Some("ext4"));
        // `/tmpfoo` is not under `/tmp`.
        assert_eq!(fs("/tmpfoo").as_deref(), Some("ext4"));
    }

    #[test]
    fn live_readers_work_on_this_host() {
        assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
