//! Facts about the box and the build, recorded in every result file so that
//! numbers taken on different hosts (or at one pool worker) are not compared
//! blindly.

use crate::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Cores the process may run on (1 when unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 off Linux.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// GB/s of a 64 MiB `copy_from_slice`, median of `reps` copies — the base of
/// `nn.spmm_bw_frac`.
pub fn memcpy_gbps(reps: usize) -> f64 {
    const BYTES: usize = 64 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
            BYTES as f64 / start.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    crate::stats::median(&samples)
}

/// First line of `program args...`, or "unknown" (not installed, not a git
/// checkout, ...). The child is waited for before this returns.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The benchmark package's directory (where `out/` lives).
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/out`, created on demand.
pub fn out_dir() -> PathBuf {
    let dir = package_dir().join("out");
    // A failure here surfaces when the first file is written.
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// The serving workloads drive the server from one load thread of this same
/// process. With `GCOD_WORKERS` unset the server's pool would take every core
/// and its worker would share one with the load thread, which then measures
/// the scheduler (on the two-core reference box the median of
/// `serve_local_open` moves between 3.4 and 4.8 ms from run to run, against
/// 3.40-3.49 ms with the core left free). So, for those workloads and only
/// when the variable is unset, the pool gets the cores the load does not
/// use. The setting is part of every result's provenance. Call before any
/// thread starts.
pub fn leave_a_core_to_the_load(workload: &str) {
    if workload.starts_with("serve_") && std::env::var_os("GCOD_WORKERS").is_none() {
        let lanes = nproc().saturating_sub(1).max(1);
        std::env::set_var("GCOD_WORKERS", lanes.to_string());
    }
}

/// What [`keep_freed_memory`] set, for the provenance block.
static MALLOC_SETTING: std::sync::OnceLock<&'static str> = std::sync::OnceLock::new();

/// Tells glibc's allocator to keep the memory the process frees: grow the
/// heap 256 MiB at a time, never trim it, and map no request under 32 MiB on
/// its own. With the defaults every forward pass returns its tensors to the
/// kernel and faults fresh pages in on the next, and on the reference VM the
/// price of a page fault is the host's: `infer_comb`'s fp32 op, which writes
/// a fresh 15 MB output, takes 31-40 ms with the memory kept and 49-67 ms
/// without, the spread of the latter following the host's state from minute
/// to minute while the former stands still. The benchmark measures the
/// repository's code, so it takes the host's page-fault path out of the
/// steady state; first touches still happen in set-up and show in
/// `setup_s` and `peak_rss_mb`. Call before any thread starts.
pub fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        // <malloc.h>
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_TOP_PAD: c_int = -2;
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` takes two integers and stores them in the
        // allocator's parameters under its own lock; any value is allowed
        // (an out-of-range one is refused with a 0 return).
        let accepted = unsafe {
            mallopt(M_TOP_PAD, 256 << 20) != 0
                && mallopt(M_TRIM_THRESHOLD, c_int::MAX) != 0
                && mallopt(M_MMAP_THRESHOLD, 32 << 20) != 0
        };
        let _ = MALLOC_SETTING.set(if accepted {
            "glibc, freed memory kept (top pad 256 MiB, no trim, mmap from 32 MiB)"
        } else {
            "glibc, mallopt refused"
        });
    }
}

/// Provenance block of a result file.
pub fn provenance(seed: u64, pool_workers: usize) -> Json {
    Json::obj([
        ("seed", Json::from(seed)),
        ("nproc", Json::from(nproc() as u64)),
        ("pool_workers", Json::from(pool_workers as u64)),
        (
            "gcod_workers_env",
            std::env::var("GCOD_WORKERS").map_or(Json::Null, Json::Str),
        ),
        (
            "malloc",
            Json::str(MALLOC_SETTING.get().copied().unwrap_or("platform default")),
        ),
        ("rustc", Json::Str(first_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::Str(first_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            )),
        ),
    ])
}

/// Points `TMPDIR` at `benchmark/out/tmp`, so the Unix sockets thread-mode
/// shard workers bind (under `std::env::temp_dir()`) stay inside the
/// benchmark's directory. The path is made relative to the working directory
/// when it lies under it, which keeps it inside the socket-path length limit
/// however deep the checkout is. Call before any thread starts.
pub fn keep_sockets_in_out_dir() {
    let dir = out_dir().join("tmp");
    let _ = std::fs::create_dir_all(&dir);
    let relative = std::env::current_dir()
        .ok()
        .and_then(|cwd| dir.strip_prefix(cwd).ok().map(Path::to_path_buf));
    std::env::set_var("TMPDIR", relative.unwrap_or(dir));
}
