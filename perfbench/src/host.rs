//! Host-side process measurements read from `/proc` (Linux).

/// Clock ticks per second of `/proc/<pid>/stat` CPU times. `USER_HZ` is
/// fixed at 100 on Linux x86-64 and arm64 whatever the kernel's `HZ`.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used, all threads
/// included (exited ones too: the scoped worker threads are joined).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields after it are
    // counted from the closing parenthesis. utime and stime are fields
    // 14 and 15, i.e. the 12th and 13th after it.
    let rest = &stat[stat.rfind(')').ok_or("malformed /proc/self/stat")? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("malformed /proc/self/stat field {}", i + 3))
    };
    Ok((ticks(11)? + ticks(12)?) / USER_HZ)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Worker threads the library's rayon shim runs on.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
