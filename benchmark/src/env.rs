//! The header every output carries: what ran where. Timings from this
//! benchmark are this machine's, so a report without these is not
//! comparable with anything.

use crate::json::Value;
use std::path::Path;
use std::process::Command;

fn stdout_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Commit of the checkout, read from `.git` without running git (the
/// driver's checkouts are not repositories: those report `unknown`).
fn git_rev(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// File system holding `dir`: the longest mount point that prefixes it.
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut parts = line.split(' ');
            let (device, mount, kind) = (parts.next()?, parts.next()?, parts.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), format!("{kind} on {device}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn simd_level() -> &'static str {
    if quit_core::simd_force_disabled() {
        return "scalar (QUIT_FORCE_SCALAR)";
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
        if std::arch::is_x86_feature_detected!("sse2") {
            return "sse2";
        }
    }
    "scalar"
}

pub fn header(repo_root: &Path, out_dir: &Path, seed: u64, seconds: f64, quick: bool) -> Value {
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    Value::obj(vec![
        ("benchmark", Value::str("quit-benchmark")),
        ("git_rev", Value::str(git_rev(repo_root))),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("quick", Value::Bool(quick)),
        (
            "nproc",
            Value::str(stdout_of("nproc", &[]).unwrap_or_else(|| "unknown".into())),
        ),
        ("available_parallelism", (parallelism as u64).into()),
        (
            "rustc",
            Value::str(stdout_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("simd", Value::str(simd_level())),
        ("scratch_filesystem", Value::str(filesystem_of(out_dir))),
        (
            "flush_policy",
            Value::str("GroupCommit on every durable workload"),
        ),
    ])
}
