//! Thread names for per-thread CPU attribution.
//!
//! The runtime gives every task its own OS thread, all created under one
//! generic name. Naming each thread after its role once, at the top of
//! the task, lets `/proc/<pid>/task/*/comm` (and `top -H`, `perf`) say
//! which stage of the pipeline spent the CPU.

/// Longest name the kernel keeps (`TASK_COMM_LEN` minus the NUL).
#[cfg(target_os = "linux")]
const MAX_NAME: usize = 15;

/// Names the calling thread; longer names are cut to 15 bytes.
/// A no-op off Linux or when the kernel refuses.
pub fn set_name(name: &str) {
    #[cfg(target_os = "linux")]
    {
        let mut buf = [0u8; MAX_NAME + 1];
        let n = name.len().min(MAX_NAME);
        buf[..n].copy_from_slice(&name.as_bytes()[..n]);
        // SAFETY: PR_SET_NAME reads a NUL-terminated string of at most 16
        // bytes; `buf` is 16 bytes and its last byte is always NUL.
        unsafe {
            libc::prctl(libc::PR_SET_NAME, buf.as_ptr());
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = name;
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    fn comm_of(name: &'static str) -> String {
        std::thread::spawn(move || {
            set_name(name);
            std::fs::read_to_string("/proc/thread-self/comm").unwrap_or_default()
        })
        .join()
        .unwrap()
        .trim_end()
        .to_string()
    }

    #[test]
    fn names_the_calling_thread() {
        assert_eq!(comm_of("querier-3"), "querier-3");
    }

    #[test]
    fn long_names_are_cut_to_the_kernel_limit() {
        assert_eq!(comm_of("a-name-longer-than-fifteen"), "a-name-longer-t");
    }
}
