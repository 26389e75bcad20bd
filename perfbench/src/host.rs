//! What the host contributes to a measurement: its fingerprint, steal
//! time, process CPU time and peak memory, read from `/proc`, and the
//! client thread's CPU pinning, asked of the C library the standard
//! library already links, so the benchmark needs no other dependency.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Facts about the machine and build that a result depends on, so drift
/// between sets of runs is seen as the host's and not the program's.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub parallelism: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_sha: String,
}

impl Fingerprint {
    pub fn collect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Self {
            parallelism: parallelism(),
            cpu_model,
            rustc: first_line(Command::new("rustc").arg("--version")),
            // Only the run directory's own repository counts, never one
            // that happens to enclose it.
            git_sha: first_line(
                Command::new("git")
                    .env("GIT_DIR", ".git")
                    .args(["rev-parse", "HEAD"]),
            ),
        }
    }
}

/// First line of a command's standard output, or `"unknown"` if it
/// cannot run (the benchmark's checkout need not be a git repository).
/// `output` waits for the child, so no process outlives the call.
fn first_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A fixed integer loop, in million iterations per second: a host that
/// runs it slower runs everything slower.
pub fn calibration_mops() -> f64 {
    const ITERS: u64 = 20_000_000;
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..ITERS {
        x = (x ^ (x >> 31))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    black_box(x);
    ITERS as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// Aggregate CPU counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    pub total: u64,
    pub steal: u64,
}

impl CpuTicks {
    pub fn read() -> Self {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(parse_cpu_line))
            .unwrap_or_default()
    }

    /// Share of CPU time stolen by other guests between `self` and `later`.
    pub fn steal_frac_until(&self, later: &Self) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

fn parse_cpu_line(line: &str) -> CpuTicks {
    // cpu user nice system idle iowait irq softirq steal guest guest_nice
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // guest time is already counted in user time, so only the first
    // eight fields add up to the total.
    CpuTicks {
        total: fields.iter().take(8).sum(),
        steal: fields.get(7).copied().unwrap_or(0),
    }
}

/// CPU time (user + system) this process has used, in seconds, at the
/// kernel's clock-tick resolution.
pub fn process_cpu_s() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = &s[s.rfind(')')? + 1..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let utime: u64 = f.get(11)?.parse().ok()?;
            let stime: u64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) as f64 / TICKS_PER_S)
        })
        .unwrap_or(0.0)
}

/// CPU set as the kernel's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn sched_getcpu() -> i32;
}

/// Keeps the calling thread on the CPU it is running on until dropped,
/// then restores its previous CPU set. A single client thread that
/// migrates between cores starts each time with a cold private cache,
/// which on a two-core host moved per-batch latency by a third from run
/// to run; pinned, it does not. Threads spawned while a pin is held
/// inherit it (and `available_parallelism` reads 1), so multi-threaded
/// engines run only outside a pin. Where the calls fail the thread
/// simply stays unpinned.
pub struct Pin {
    saved: Option<CpuSet>,
}

impl Pin {
    pub fn here() -> Self {
        let mut saved: CpuSet = [0; 16];
        // SAFETY: `saved` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut saved) };
        // SAFETY: no arguments; returns the current CPU or -1.
        let cpu = unsafe { sched_getcpu() };
        let Ok(cpu) = usize::try_from(cpu) else {
            return Self { saved: None };
        };
        if got != 0 || cpu >= 1024 {
            return Self { saved: None };
        }
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a readable buffer of exactly the size passed.
        let set = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
        Self {
            saved: (set == 0).then_some(saved),
        }
    }

    pub fn pinned(&self) -> bool {
        self.saved.is_some()
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        if let Some(saved) = &self.saved {
            // SAFETY: `saved` is a readable buffer of exactly the size
            // passed. A failure leaves the thread pinned, which only
            // narrows where later threads run; it is ignored here
            // because a destructor must not panic.
            let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), saved) };
        }
    }
}

/// The rise of peak resident memory above what the process held when
/// [`start`](Self::start) was called (the generated inputs).
///
/// Writing `5` to `clear_refs` resets the kernel's high-water mark
/// (`VmHWM`) to the current RSS, so the mark read at the end is the peak
/// of the measured phase alone. Where `/proc` cannot be written the mark
/// still holds the input generation's transient peak, so the meter falls
/// back to the largest RSS seen at [`sample`](Self::sample) points.
#[derive(Debug)]
pub struct PeakMem {
    status: PathBuf,
    base_kb: u64,
    reset: bool,
    max_sampled_kb: u64,
}

impl PeakMem {
    pub fn start() -> Self {
        Self::start_at(Path::new("/proc/self"))
    }

    /// [`start`](Self::start) against another `/proc/<pid>`-shaped
    /// directory.
    pub fn start_at(proc_dir: &Path) -> Self {
        let reset = std::fs::write(proc_dir.join("clear_refs"), "5").is_ok();
        let status = proc_dir.join("status");
        let base_kb = status_kb(&status, "VmRSS:").unwrap_or(0);
        Self {
            status,
            base_kb,
            reset,
            max_sampled_kb: base_kb,
        }
    }

    /// Whether the high-water mark was reset (false: RSS sampling).
    pub fn reset_worked(&self) -> bool {
        self.reset
    }

    /// Note the current RSS (used only by the fallback).
    pub fn sample(&mut self) {
        if let Some(kb) = status_kb(&self.status, "VmRSS:") {
            self.max_sampled_kb = self.max_sampled_kb.max(kb);
        }
    }

    /// Peak rise in MiB.
    pub fn rise_mib(&mut self) -> f64 {
        self.sample();
        let peak_kb = if self.reset {
            status_kb(&self.status, "VmHWM:").unwrap_or(self.max_sampled_kb)
        } else {
            self.max_sampled_kb
        };
        peak_kb.saturating_sub(self.base_kb) as f64 / 1024.0
    }
}

fn status_kb(path: &Path, key: &str) -> Option<u64> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_proc(name: &str, rss_kb: u64, hwm_kb: u64) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("status"),
            format!("Name:\tx\nVmHWM:\t{hwm_kb} kB\nVmRSS:\t{rss_kb} kB\n"),
        )
        .unwrap();
        dir
    }

    #[test]
    fn clear_refs_reset_reads_the_high_water_mark() {
        let dir = fake_proc("reset", 1024, 1024);
        let mut m = PeakMem::start_at(&dir);
        assert!(m.reset_worked());
        std::fs::write(dir.join("status"), "VmHWM:\t5120 kB\nVmRSS:\t2048 kB\n").unwrap();
        assert_eq!(m.rise_mib(), 4.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unwritable_clear_refs_falls_back_to_sampled_rss() {
        let dir = fake_proc("fallback", 1024, 9_999_999);
        // A directory where the file should be makes the write fail, as
        // a read-only /proc does.
        std::fs::create_dir_all(dir.join("clear_refs")).unwrap();
        let mut m = PeakMem::start_at(&dir);
        assert!(!m.reset_worked());
        std::fs::write(dir.join("status"), "VmHWM:\t9999999 kB\nVmRSS:\t4096 kB\n").unwrap();
        m.sample();
        std::fs::write(dir.join("status"), "VmHWM:\t9999999 kB\nVmRSS:\t2048 kB\n").unwrap();
        // The stale high-water mark from before start is ignored; the
        // largest sampled RSS (4 MiB) minus the 1 MiB base is reported.
        assert_eq!(m.rise_mib(), 3.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pin_holds_one_cpu_and_restores_the_set() {
        let before = parallelism();
        {
            let pin = Pin::here();
            if pin.pinned() {
                assert_eq!(parallelism(), 1);
            }
        }
        assert_eq!(parallelism(), before);
    }

    #[test]
    fn steal_share_comes_from_the_eighth_field() {
        let a = parse_cpu_line("cpu  100 0 100 700 0 0 0 100 50 0");
        let b = parse_cpu_line("cpu  200 0 200 1400 0 0 0 200 90 0");
        assert_eq!(a.total, 1000);
        assert_eq!(a.steal_frac_until(&b), 0.1);
    }
}
