//! The host fingerprint stamped into every result and trace file, so a
//! number is never read without the machine and tree that produced it.

use crate::json;
use std::path::Path;

#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    pub avx512f: bool,
    /// The PRF lane width the scan kernels pick on this CPU
    /// (`probe_lane_width`); the benchmark never overrides it while
    /// measuring.
    pub lane_width: usize,
    /// The commit checked out in the working directory (`git rev-parse
    /// HEAD`, read from `.git` directly), or `unknown` outside a clone.
    pub git_rev: String,
    /// Filesystem type holding the benchmark's scratch (and WAL) files.
    pub scratch_fs: String,
}

pub fn fingerprint(scratch: &Path) -> Host {
    Host {
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        avx512f: avx512f(),
        lane_width: psketch_core::probe_lane_width(),
        git_rev: git_head(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
        scratch_fs: filesystem_of(scratch).unwrap_or_else(|| "unknown".into()),
    }
}

impl Host {
    pub fn to_json(&self, seed: u64) -> String {
        format!(
            "{{\"nproc\": {}, \"avx512f\": {}, \"probe_lane_width\": {}, \"seed\": {seed}, \
             \"git_rev\": {}, \"wal_fs\": {}}}",
            self.nproc,
            self.avx512f,
            self.lane_width,
            json::string(&self.git_rev),
            json::string(&self.scratch_fs),
        )
    }
}

fn avx512f() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Resolves `HEAD` the way `git rev-parse HEAD` does for the common
/// layouts: a detached hash, a loose ref, or a packed ref.
fn git_head(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

/// The type of the filesystem mounted at the longest mount point that
/// contains `path` (Linux `/proc/self/mountinfo`).
fn filesystem_of(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let mountinfo = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    mountinfo
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            let fs_type = right.split(' ').next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs_type.to_string()))
        })
        .max_by_key(|&(len, _)| len)
        .map(|(_, fs_type)| fs_type)
}
