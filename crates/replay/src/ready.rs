//! Which of a querier's sockets have answers queued.
//!
//! A querier reads its own answers at each wake. It asks the kernel once
//! which sockets are readable — one `epoll_wait` with a zero timeout and
//! a slot for every watched socket — so a wake costs one syscall whether
//! the querier holds one socket or hundreds. Each socket is registered
//! under a caller-chosen token, and closing a socket drops its
//! registration. Off Linux, or for a socket the kernel would not
//! register, the token is reported at every wake instead and the
//! non-blocking read finds out.

#[cfg(target_os = "linux")]
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};

pub(crate) struct Readiness {
    #[cfg(target_os = "linux")]
    epoll: Option<OwnedFd>,
    /// One slot per registration, so one wait reports every ready socket.
    #[cfg(target_os = "linux")]
    events: Vec<libc::epoll_event>,
    /// Tokens reported at every wake: those epoll does not watch.
    always: Vec<u64>,
}

impl Readiness {
    pub(crate) fn new() -> Readiness {
        #[cfg(target_os = "linux")]
        // SAFETY: epoll_create1 takes no pointers.
        let fd = unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) };
        Readiness {
            #[cfg(target_os = "linux")]
            // SAFETY: a non-negative return is a fresh fd nothing else owns.
            epoll: (fd >= 0).then(|| unsafe { OwnedFd::from_raw_fd(fd) }),
            #[cfg(target_os = "linux")]
            events: Vec::new(),
            always: Vec::new(),
        }
    }

    /// Watches `socket` for readable data under `token`.
    #[cfg(target_os = "linux")]
    pub(crate) fn add(&mut self, socket: &impl AsRawFd, token: u64) {
        let mut event = libc::epoll_event {
            events: libc::EPOLLIN as u32,
            u64: token,
        };
        let watched = self.epoll.as_ref().is_some_and(|ep| {
            // SAFETY: both fds are live; the kernel copies `event`.
            unsafe {
                libc::epoll_ctl(
                    ep.as_raw_fd(),
                    libc::EPOLL_CTL_ADD,
                    socket.as_raw_fd(),
                    &mut event,
                ) == 0
            }
        });
        if watched {
            self.events.push(event);
        } else if !self.always.contains(&token) {
            self.always.push(token);
        }
    }

    #[cfg(not(target_os = "linux"))]
    pub(crate) fn add<S>(&mut self, _socket: &S, token: u64) {
        if !self.always.contains(&token) {
            self.always.push(token);
        }
    }

    /// Refills `out` with the tokens of sockets that may have data queued,
    /// without waiting.
    pub(crate) fn ready(&mut self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.always);
        #[cfg(target_os = "linux")]
        if let Some(ep) = self.epoll.as_ref().filter(|_| !self.events.is_empty()) {
            let slots = i32::try_from(self.events.len()).unwrap_or(i32::MAX);
            // SAFETY: `events` outlives the call and holds `slots` entries.
            let n = unsafe { libc::epoll_wait(ep.as_raw_fd(), self.events.as_mut_ptr(), slots, 0) };
            let n = usize::try_from(n).unwrap_or(0);
            out.extend(self.events[..n].iter().map(|e| e.u64));
        }
    }
}
