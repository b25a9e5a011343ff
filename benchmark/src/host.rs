//! Host-side measurement: wall and CPU time, peak memory, and the host
//! reference kernel. Everything here reads the host, never the simulator.

use std::hint::black_box;
use std::time::Instant;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat`. The kernel ABI fixes this `USER_HZ` at 100
/// whatever the kernel's internal tick rate.
const USER_HZ: f64 = 100.0;

/// The host reference kernel's time, in ms, at the speed every
/// calibrated time is scaled to: a round figure near its typical time on
/// the host the first baseline was recorded on.
pub const HOST_REF_NOMINAL_MS: f64 = 240.0;

/// The reference kernel's two buffers: one the size of a core's L2
/// cache, chased word by word, and one far larger than any last-level
/// cache, chased a cache line (16 words) at a time.
const SMALL_BYTES: usize = 2 << 20;
const BIG_BYTES: usize = 64 << 20;
const LINE_WORDS: usize = 16;

/// Hops through each buffer and streaming passes over the big one per
/// timing: about 50 to 100, 150 and 30 ms on the recording host. A
/// shorter kernel times too noisily to calibrate a repetition.
const SMALL_HOPS: usize = 4_000_000;
const BIG_HOPS: usize = 1_000_000;
const STREAM_PASSES: usize = 4;

/// Wall and process CPU time of one measured call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timing {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs `f` and measures its wall time and the CPU time of the whole
/// process (every thread) while it ran.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    (out, Timing { wall_s, cpu_s })
}

/// CPU seconds (user + system) this process has used so far.
///
/// # Panics
///
/// Panics if `/proc/self/stat` is unreadable; [`check_proc`] reports that
/// as an error before any measurement starts.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("checked by check_proc");
    parse_stat_cpu_ticks(&stat).expect("checked by check_proc") as f64 / USER_HZ
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_status_kib(&status, "VmHWM")? as f64 / 1024.0)
}

/// Verifies that the `/proc` files the measurements read are present and
/// parse, so a run on an unsupported host fails before it starts.
pub fn check_proc() -> Result<(), String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    parse_stat_cpu_ticks(&stat).ok_or("cannot parse /proc/self/stat")?;
    peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
    Ok(())
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) is parenthesised and may itself hold
/// spaces or parentheses, so fields are counted from the last `)`:
/// the state (field 3) comes first, `utime` and `stime` are fields 14
/// and 15.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The value in kB of a `Key:   123 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// The host reference: a fixed memory-bound kernel that touches no ocin
/// code. It follows a random cycle through an L2-sized buffer and one
/// through a 64 MiB buffer, then streams the big one, so it waits on the
/// same caches and memory the simulator waits on. On a shared host those
/// are what other tenants contend for, and the kernel slows when the
/// simulator does.
pub struct HostRef {
    small: Vec<u32>,
    big: Vec<u32>,
}

impl HostRef {
    /// Memory the kernel keeps resident for its whole life, in MiB.
    pub const MIB: f64 = ((SMALL_BYTES + BIG_BYTES) >> 20) as f64;

    pub fn new() -> HostRef {
        HostRef {
            small: cycle(SMALL_BYTES / 4, 1, 0x5EED_0001),
            big: cycle(BIG_BYTES / 4, LINE_WORDS, 0x5EED_0002),
        }
    }

    /// Runs the kernel once; returns its wall time in ms.
    pub fn time_ms(&self) -> f64 {
        let t0 = Instant::now();
        let mut sum = chase(&self.small, SMALL_HOPS).wrapping_add(chase(&self.big, BIG_HOPS));
        for _ in 0..STREAM_PASSES {
            sum = black_box(&self.big)
                .iter()
                .fold(sum, |s, &w| s.wrapping_add(w));
        }
        black_box(sum);
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// The factor that scales a time measured between two reference
/// timings to the speed of [`HOST_REF_NOMINAL_MS`]: below 1 when the
/// host ran slow.
pub fn host_scale(before_ms: f64, after_ms: f64) -> f64 {
    2.0 * HOST_REF_NOMINAL_MS / (before_ms + after_ms)
}

/// A buffer of `words` words in which every `step`-th word is a link of
/// one cycle through all of them in a random order: each holds the index
/// of the next.
fn cycle(words: usize, step: usize, seed: u64) -> Vec<u32> {
    let links = words / step;
    let mut order: Vec<u32> = (0..links as u32).collect();
    let mut x = seed;
    // Fisher–Yates with an xorshift generator.
    for i in (1..links).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    let mut buf = vec![0u32; words];
    for (i, &link) in order.iter().enumerate() {
        buf[link as usize * step] = order[(i + 1) % links] * step as u32;
    }
    buf
}

/// Follows `hops` links of a [`cycle`] from word 0.
fn chase(buf: &[u32], hops: usize) -> u32 {
    let mut i = 0u32;
    for _ in 0..hops {
        i = buf[i as usize];
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_counts_from_the_last_parenthesis() {
        // A command name holding spaces and a ')' must not shift fields.
        let stat = "4242 (bench (x) y) R 1 4242 4242 0 -1 4194304 1502 0 0 0 \
                    731 29 0 0 20 0 3 0 123456 104857600 2048 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(731 + 29));
        assert_eq!(parse_stat_cpu_ticks("4242 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn status_parser_reads_the_named_key() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  300000 kB\nVmHWM:\t  147456 kB\nVmRSS:\t   60000 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(147_456));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(60_000));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
        assert_eq!(parse_status_kib("VmHWM:\tlots kB\n", "VmHWM"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert_eq!(check_proc(), Ok(()));
        let (_, t) = timed(|| black_box(cpu_seconds()));
        assert!(t.wall_s > 0.0 && t.cpu_s >= 0.0);
    }

    #[test]
    fn cycle_visits_every_link_once() {
        for step in [1, LINE_WORDS] {
            let buf = cycle(64 * step, step, 7);
            let mut seen = [false; 64];
            let mut i = 0u32;
            for _ in 0..seen.len() {
                assert_eq!(i as usize % step, 0, "links sit every {step} words");
                let link = i as usize / step;
                assert!(!seen[link], "link {link} visited twice");
                seen[link] = true;
                i = buf[i as usize];
            }
            assert_eq!(i, 0, "the cycle closes");
            assert_eq!(chase(&buf, seen.len()), 0);
        }
    }

    #[test]
    fn host_scale_is_one_at_nominal_speed() {
        assert_eq!(host_scale(HOST_REF_NOMINAL_MS, HOST_REF_NOMINAL_MS), 1.0);
        // Twice the nominal time on average: the host ran at half speed.
        let nominal = HOST_REF_NOMINAL_MS;
        assert_eq!(host_scale(nominal, 3.0 * nominal), 0.5);
    }
}
