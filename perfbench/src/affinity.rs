//! CPU placement. The server and the replay each run on their own share
//! of the CPUs the benchmark may use, as they would on separate hosts
//! (the paper's set-up). Left to the scheduler, the two processes'
//! threads land on shared cores differently from step to step, and
//! microsecond timings then measure that placement rather than the code.

use std::io;

/// Words of the CPU mask: room for 1024 CPUs.
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Which process a set of CPUs is for.
#[derive(Debug, Clone, Copy)]
pub enum Side {
    Server,
    Replay,
}

/// The CPUs this process may run on, ascending.
fn allowed() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// `side`'s CPUs: the server gets the upper half of the allowed CPUs
/// (at least one), the replay the rest; with one CPU both share it.
pub fn cpus(side: Side) -> io::Result<Vec<usize>> {
    let all = allowed()?;
    if all.len() < 2 {
        return Ok(all);
    }
    let (replay, server) = all.split_at(all.len() - (all.len() / 2).max(1));
    Ok(match side {
        Side::Server => server.to_vec(),
        Side::Replay => replay.to_vec(),
    })
}

/// Pins the calling thread, and every thread it starts afterwards, to
/// `side`'s CPUs. Call it before the process starts any thread.
pub fn pin(side: Side) -> io::Result<()> {
    let mut mask = [0u64; WORDS];
    for cpu in cpus(side)? {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}
