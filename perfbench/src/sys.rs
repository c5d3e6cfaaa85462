//! What the benchmark reads from the operating system: process memory
//! and CPU, filesystem type, and bytes on disk.

use std::fs;
use std::path::Path;

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of this process so far, in milliseconds.
pub fn cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of them, in clock ticks (USER_HZ = 100).
    let rest = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 * 10.0
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Type of the filesystem holding `path` (longest mount-point match in
/// `/proc/mounts`), or `unknown`.
pub fn fs_type(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best = (0, "unknown".to_owned());
    for line in mounts.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() >= 3 && path.starts_with(f[1]) && f[1].len() >= best.0 {
            best = (f[1].len(), f[2].to_owned());
        }
    }
    best.1
}

/// Mount a memory-backed tmpfs of at most `max_bytes` on `dir`, in a
/// mount namespace private to this process, so the repository data of a
/// run stays at its path in the working directory but never touches the
/// disk, and vanishes with the process. Must be called before the
/// process starts a thread (a mount namespace is per thread until then).
/// Returns false, leaving `dir` on the disk, where the process may not
/// create mount namespaces.
pub fn private_tmpfs(dir: &Path, max_bytes: u64) -> bool {
    use std::ffi::CString;
    use std::os::raw::{c_char, c_int, c_ulong, c_void};
    use std::os::unix::ffi::OsStrExt;
    extern "C" {
        fn unshare(flags: c_int) -> c_int;
        fn mount(
            source: *const c_char,
            target: *const c_char,
            fstype: *const c_char,
            flags: c_ulong,
            data: *const c_void,
        ) -> c_int;
    }
    const CLONE_NEWNS: c_int = 0x0002_0000;
    const MS_NOSUID: c_ulong = 2;
    const MS_NODEV: c_ulong = 4;
    const MS_REC: c_ulong = 0x4000;
    const MS_PRIVATE: c_ulong = 0x4_0000;
    let (Ok(target), Ok(root)) = (CString::new(dir.as_os_str().as_bytes()), CString::new("/"))
    else {
        return false;
    };
    let (tmpfs, opts) = (
        c"tmpfs",
        CString::new(format!("size={max_bytes},mode=0700")).expect("no NUL"),
    );
    // SAFETY: plain system calls on NUL-terminated strings that outlive
    // them; they change only this process's own view of the mounts.
    unsafe {
        unshare(CLONE_NEWNS) == 0
            && mount(
                std::ptr::null(),
                root.as_ptr(),
                std::ptr::null(),
                MS_REC | MS_PRIVATE,
                std::ptr::null(),
            ) == 0
            && mount(
                tmpfs.as_ptr(),
                target.as_ptr(),
                tmpfs.as_ptr(),
                MS_NOSUID | MS_NODEV,
                opts.as_ptr().cast(),
            ) == 0
    }
}

/// Unmount what [`private_tmpfs`] mounted on `dir` (its data goes with
/// it), so the empty mount point can be removed.
pub fn release_tmpfs(dir: &Path) {
    use std::ffi::CString;
    use std::os::raw::{c_char, c_int};
    use std::os::unix::ffi::OsStrExt;
    extern "C" {
        fn umount2(target: *const c_char, flags: c_int) -> c_int;
    }
    const MNT_DETACH: c_int = 2;
    if let Ok(target) = CString::new(dir.as_os_str().as_bytes()) {
        // SAFETY: a system call on a NUL-terminated string that outlives it.
        unsafe { umount2(target.as_ptr(), MNT_DETACH) };
    }
}

/// Apparent size of every regular file under `dir`, recursively (links
/// are not followed). Missing directories count as empty.
pub fn tree_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    let mut total = 0;
    for entry in entries.flatten() {
        let Ok(meta) = fs::symlink_metadata(entry.path()) else {
            continue;
        };
        if meta.is_dir() {
            total += tree_bytes(&entry.path());
        } else if meta.is_file() {
            total += meta.len();
        }
    }
    total
}

/// Bytes on disk under every node's directory per live user byte.
pub fn disk_ratio(node_dirs: &[&Path], user_bytes: u64) -> f64 {
    let disk: u64 = node_dirs.iter().map(|d| tree_bytes(d)).sum();
    disk as f64 / user_bytes.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_accounting_on_a_hand_built_tree() {
        let root = std::env::temp_dir().join(format!("perfbench-disk-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("a/b")).unwrap();
        fs::create_dir_all(root.join("c")).unwrap();
        fs::write(root.join("top"), vec![0u8; 100]).unwrap();
        fs::write(root.join("a/one"), vec![0u8; 20]).unwrap();
        fs::write(root.join("a/b/two"), vec![0u8; 5]).unwrap();
        fs::write(root.join("c/three"), b"").unwrap();
        assert_eq!(tree_bytes(&root), 125);
        assert_eq!(tree_bytes(&root.join("a")), 25);
        assert_eq!(tree_bytes(&root.join("missing")), 0);
        // Two nodes, 125 + 25 bytes, holding 50 user bytes.
        assert_eq!(disk_ratio(&[&root, &root.join("a")], 50), 3.0);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn process_readings_are_positive() {
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
        assert_ne!(fs_type(Path::new("/")), "");
    }
}
