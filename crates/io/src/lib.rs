//! Socket calls the standard library lacks, for the replay engine and the
//! live server: extension methods on `std::net::UdpSocket` and
//! `std::net::TcpStream`. On Linux each is one syscall; elsewhere it falls
//! back as noted.
//!
//! | call | what it does |
//! |------|--------------|
//! | [`bind_udp`] | `UdpSocket::bind`, then 4 MiB `SO_RCVBUF`/`SO_SNDBUF` (best effort), so the kernel absorbs a burst while the socket's reader is busy |
//! | [`UdpSocketExt::send_one_to`] | `send_to`, which the [`fault`] hooks can fail |
//! | [`UdpSocketExt::send_many_to`], [`UdpSocketExt::send_many_to_each`] | one `sendmmsg(2)` per batch (per-datagram `send_to` elsewhere); `send_many_to_each` takes each datagram as a range of one buffer plus its destination, up to [`SEND_BATCH`] per call. Batches are described in fixed arrays, so a call allocates nothing |
//! | [`UdpSocketExt::recv_many`] | blocking `recvmmsg(2)` of up to [`RECV_BATCH`] datagrams: waits for the first, then takes what is queued; lengths and peers go into a caller-owned `Vec` (no allocation; one `recv_from` elsewhere) |
//! | [`UdpSocketExt::set_arrival_stamps`], [`TcpStreamExt::set_arrival_stamps`] | `SO_TIMESTAMPNS`: the kernel stamps each arriving datagram or segment (no-op elsewhere) |
//! | [`UdpSocketExt::try_recv_many_stamped`] | non-blocking `recvmmsg(2)` (`MSG_DONTWAIT`) of up to [`RECV_BATCH`] queued datagrams, each with its arrival stamp; `WouldBlock` when none is queued (non-blocking `recv_from`s without stamps elsewhere) |
//! | [`TcpStreamExt::try_read_stamped`] | non-blocking `recvmsg(2)` of whatever bytes are queued, with the arrival stamp of the last segment the read returns; `Ok(0)` at EOF, `WouldBlock` when nothing is queued (a non-blocking read without a stamp elsewhere) |
//!
//! The syscalls are declared here directly, so the crate has no
//! dependencies.

#![deny(rust_2018_idioms, unsafe_op_in_unsafe_fn, unreachable_pub)]

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs, UdpSocket};
use std::ops::Range;
use std::time::SystemTime;

#[cfg(target_os = "linux")]
mod mmsg;

/// Most datagrams one [`UdpSocketExt::recv_many`] or
/// [`UdpSocketExt::try_recv_many_stamped`] call reads.
pub const RECV_BATCH: usize = 64;

/// Most datagrams one `sendmmsg(2)` of [`UdpSocketExt::send_many_to_each`]
/// carries.
pub const SEND_BATCH: usize = 64;

/// Test-only fault injection: arm N transient failures and the next N
/// matching calls fail with a synthetic error, then everything recovers.
/// Process-global, so tests that arm faults must serialize against other
/// socket-creating tests. Disarmed (the default) costs one relaxed atomic
/// load per call.
pub mod fault {
    use std::io;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static UDP_BIND_FAULTS: AtomicUsize = AtomicUsize::new(0);
    static UDP_SEND_FAULTS: AtomicUsize = AtomicUsize::new(0);

    /// Arms `n` transient failures for upcoming [`crate::bind_udp`] calls.
    pub fn inject_udp_bind_failures(n: usize) {
        UDP_BIND_FAULTS.store(n, Ordering::SeqCst);
    }

    /// Arms `n` transient failures for upcoming
    /// [`crate::UdpSocketExt::send_one_to`] calls. The batch sends (one
    /// `sendmmsg`) are not affected.
    pub fn inject_udp_send_failures(n: usize) {
        UDP_SEND_FAULTS.store(n, Ordering::SeqCst);
    }

    /// Disarms all pending socket faults.
    pub fn clear() {
        UDP_BIND_FAULTS.store(0, Ordering::SeqCst);
        UDP_SEND_FAULTS.store(0, Ordering::SeqCst);
    }

    fn take(counter: &AtomicUsize) -> bool {
        if counter.load(Ordering::Relaxed) == 0 {
            return false;
        }
        counter
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
    }

    pub(crate) fn udp_bind_fault() -> Option<io::Error> {
        take(&UDP_BIND_FAULTS)
            .then(|| io::Error::new(io::ErrorKind::AddrNotAvailable, "injected udp bind fault"))
    }

    pub(crate) fn udp_send_fault() -> Option<io::Error> {
        take(&UDP_SEND_FAULTS)
            .then(|| io::Error::new(io::ErrorKind::ConnectionRefused, "injected udp send fault"))
    }
}

/// Binds a UDP socket and asks for 4 MiB send and receive buffers, so the
/// kernel can absorb a burst while the socket's reader is busy elsewhere.
/// The buffer request is best effort: the socket works without it.
pub fn bind_udp<A: ToSocketAddrs>(addr: A) -> io::Result<UdpSocket> {
    if let Some(e) = fault::udp_bind_fault() {
        return Err(e);
    }
    let socket = UdpSocket::bind(addr)?;
    #[cfg(unix)]
    {
        use std::os::fd::AsRawFd;
        const SO_SNDBUF: i32 = 7;
        const SO_RCVBUF: i32 = 8;
        for opt in [SO_RCVBUF, SO_SNDBUF] {
            let _ = set_int_opt(socket.as_raw_fd(), SOL_SOCKET, opt, 4 * 1024 * 1024);
        }
    }
    Ok(socket)
}

/// Batched and stamped calls on a UDP socket.
pub trait UdpSocketExt {
    /// `send_to`, which [`fault::inject_udp_send_failures`] can fail.
    fn send_one_to(&self, buf: &[u8], target: SocketAddr) -> io::Result<usize>;

    /// Sends each buffer as one datagram to `target`, up to 256 per
    /// `sendmmsg(2)` kernel entry. Returns how many datagrams the kernel
    /// accepted; a short count means it refused the tail (e.g. buffer
    /// pressure) and the caller may retry the remainder.
    fn send_many_to<B: AsRef<[u8]>>(&self, bufs: &[B], target: SocketAddr) -> io::Result<usize>;

    /// Like [`UdpSocketExt::send_many_to`], but each datagram carries its
    /// own destination (a server answering a batch of distinct peers):
    /// datagram `i` is `buf[msgs[i].0]`, sent to `msgs[i].1`, up to
    /// [`SEND_BATCH`] per `sendmmsg(2)`. Every range must lie within `buf`
    /// (`InvalidInput` otherwise, before anything is sent).
    fn send_many_to_each(
        &self,
        buf: &[u8],
        msgs: &[(Range<usize>, SocketAddr)],
    ) -> io::Result<usize>;

    /// Receives up to `bufs.len()` datagrams (at most [`RECV_BATCH`]):
    /// blocks until at least one arrives, then takes whatever else is
    /// already queued. Datagram `i` lands in `bufs[i]`; `out` is refilled
    /// with its `(length, peer)`, in order (length 0 for a sender whose
    /// address family is neither IPv4 nor IPv6). Returns the count. The
    /// call allocates nothing beyond growing `out`.
    fn recv_many(
        &self,
        bufs: &mut [Vec<u8>],
        out: &mut Vec<(usize, SocketAddr)>,
    ) -> io::Result<usize>;

    /// Asks the kernel to stamp every datagram with its arrival time
    /// (`SO_TIMESTAMPNS`), which [`UdpSocketExt::try_recv_many_stamped`]
    /// returns.
    fn set_arrival_stamps(&self) -> io::Result<()>;

    /// Reads the datagrams already queued, never waiting: up to
    /// `bufs.len()` of them (at most [`RECV_BATCH`]). Datagram `i` lands
    /// in `bufs[i]`; `out` is refilled with its length and its kernel
    /// arrival stamp (`None` without
    /// [`UdpSocketExt::set_arrival_stamps`], and always off Linux).
    /// Returns the count; `WouldBlock` when nothing is queued.
    fn try_recv_many_stamped(
        &self,
        bufs: &mut [Vec<u8>],
        out: &mut Vec<(usize, Option<SystemTime>)>,
    ) -> io::Result<usize>;
}

impl UdpSocketExt for UdpSocket {
    fn send_one_to(&self, buf: &[u8], target: SocketAddr) -> io::Result<usize> {
        if let Some(e) = fault::udp_send_fault() {
            return Err(e);
        }
        self.send_to(buf, target)
    }

    fn send_many_to<B: AsRef<[u8]>>(&self, bufs: &[B], target: SocketAddr) -> io::Result<usize> {
        #[cfg(target_os = "linux")]
        {
            mmsg::send_many(self, bufs, target)
        }
        #[cfg(not(target_os = "linux"))]
        {
            for buf in bufs {
                self.send_to(buf.as_ref(), target)?;
            }
            Ok(bufs.len())
        }
    }

    fn send_many_to_each(
        &self,
        buf: &[u8],
        msgs: &[(Range<usize>, SocketAddr)],
    ) -> io::Result<usize> {
        if msgs.iter().any(|(at, _)| buf.get(at.clone()).is_none()) {
            return Err(io::Error::from(io::ErrorKind::InvalidInput));
        }
        #[cfg(target_os = "linux")]
        {
            mmsg::send_many_each(self, buf, msgs)
        }
        #[cfg(not(target_os = "linux"))]
        {
            for (at, target) in msgs {
                self.send_to(buf.get(at.clone()).unwrap_or_default(), *target)?;
            }
            Ok(msgs.len())
        }
    }

    fn recv_many(
        &self,
        bufs: &mut [Vec<u8>],
        out: &mut Vec<(usize, SocketAddr)>,
    ) -> io::Result<usize> {
        out.clear();
        #[cfg(target_os = "linux")]
        {
            mmsg::recv_many(self, bufs, out)
        }
        #[cfg(not(target_os = "linux"))]
        {
            let Some(first) = bufs.first_mut() else {
                return Ok(0);
            };
            out.push(self.recv_from(first)?);
            Ok(1)
        }
    }

    fn set_arrival_stamps(&self) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            use std::os::fd::AsRawFd;
            set_int_opt(self.as_raw_fd(), SOL_SOCKET, mmsg::SO_TIMESTAMPNS, 1)
        }
        #[cfg(not(target_os = "linux"))]
        {
            Ok(())
        }
    }

    fn try_recv_many_stamped(
        &self,
        bufs: &mut [Vec<u8>],
        out: &mut Vec<(usize, Option<SystemTime>)>,
    ) -> io::Result<usize> {
        out.clear();
        #[cfg(target_os = "linux")]
        {
            mmsg::try_recv_stamped(self, bufs, out)
        }
        #[cfg(not(target_os = "linux"))]
        {
            self.set_nonblocking(true)?;
            let mut result = Ok(());
            for buf in bufs.iter_mut().take(RECV_BATCH) {
                match self.recv_from(buf) {
                    Ok((len, _)) => out.push((len, None)),
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            self.set_nonblocking(false)?;
            match result {
                Err(e) if out.is_empty() => Err(e),
                _ => Ok(out.len()),
            }
        }
    }
}

/// Stamped reads on a TCP stream.
pub trait TcpStreamExt {
    /// Asks the kernel to stamp arriving segments (`SO_TIMESTAMPNS`),
    /// which [`TcpStreamExt::try_read_stamped`] returns.
    fn set_arrival_stamps(&self) -> io::Result<()>;

    /// Reads whatever bytes are already queued, never waiting, with the
    /// kernel arrival stamp of the last segment the read returns (`None`
    /// without [`TcpStreamExt::set_arrival_stamps`], and always off
    /// Linux). `Ok((0, _))` means the peer closed; `WouldBlock` means
    /// nothing is queued. Writes on the stream stay blocking.
    fn try_read_stamped(&self, buf: &mut [u8]) -> io::Result<(usize, Option<SystemTime>)>;
}

impl TcpStreamExt for TcpStream {
    fn set_arrival_stamps(&self) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            use std::os::fd::AsRawFd;
            set_int_opt(self.as_raw_fd(), SOL_SOCKET, mmsg::SO_TIMESTAMPNS, 1)
        }
        #[cfg(not(target_os = "linux"))]
        {
            Ok(())
        }
    }

    fn try_read_stamped(&self, buf: &mut [u8]) -> io::Result<(usize, Option<SystemTime>)> {
        #[cfg(target_os = "linux")]
        {
            use std::os::fd::AsRawFd;
            mmsg::try_read_stamped(self.as_raw_fd(), buf)
        }
        #[cfg(not(target_os = "linux"))]
        {
            use std::io::Read;
            self.set_nonblocking(true)?;
            let read = (&*self).read(buf);
            self.set_nonblocking(false)?;
            Ok((read?, None))
        }
    }
}

#[cfg(unix)]
const SOL_SOCKET: i32 = 1;

/// `setsockopt(2)` with an `int` value.
#[cfg(unix)]
fn set_int_opt(fd: std::os::fd::RawFd, level: i32, name: i32, value: i32) -> io::Result<()> {
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const core::ffi::c_void,
            optlen: u32,
        ) -> i32;
    }
    let ptr = &value as *const i32 as *const core::ffi::c_void;
    let len = std::mem::size_of::<i32>() as u32;
    // SAFETY: fd is a live socket; optval points at an i32 that outlives
    // the call.
    if unsafe { setsockopt(fd, level, name, ptr, len) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    /// Two loopback UDP sockets.
    fn pair() -> (UdpSocket, UdpSocket) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        (a, b)
    }

    #[test]
    fn a_range_outside_the_buffer_sends_nothing() {
        let (tx, rx) = pair();
        let to = rx.local_addr().unwrap();
        let err = tx.send_many_to_each(b"abc", &[(0..1, to), (2..9, to)]);
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::InvalidInput);
        rx.set_nonblocking(true).unwrap();
        assert!(rx.recv(&mut [0u8; 8]).is_err(), "a datagram went out");
    }

    #[test]
    fn stamped_udp_reads_take_what_is_queued_and_never_wait() {
        let (tx, rx) = pair();
        rx.set_arrival_stamps().unwrap();
        let mut bufs = vec![vec![0u8; 16]; 4];
        let mut got = Vec::new();
        let err = rx.try_recv_many_stamped(&mut bufs, &mut got).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        let to = rx.local_addr().unwrap();
        for i in 0..3u8 {
            tx.send_to(&[i; 2], to).unwrap();
        }
        let mut seen = 0;
        while seen < 3 {
            // Blocks until a datagram is queued; the stamped read then
            // takes every queued one without waiting.
            rx.peek_from(&mut [0u8; 2]).unwrap();
            rx.try_recv_many_stamped(&mut bufs, &mut got).unwrap();
            let now = SystemTime::now();
            for (buf, &(len, stamp)) in bufs.iter().zip(&got) {
                assert_eq!(buf[..len], [seen; 2]);
                if cfg!(target_os = "linux") {
                    assert!(
                        stamp.is_some_and(|s| s <= now),
                        "datagram {seen}: {stamp:?}"
                    );
                }
                seen += 1;
            }
        }
    }

    #[test]
    fn stamped_tcp_reads_would_block_then_see_bytes_then_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_arrival_stamps().unwrap();
        let mut buf = [0u8; 16];
        let err = server.try_read_stamped(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        client.write_all(b"hello").unwrap();
        server.peek(&mut [0u8; 1]).unwrap();
        let (n, stamp) = server.try_read_stamped(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello");
        // The kernel turns receive stamping on a moment after the first
        // socket asks for it, and a TCP segment that arrived unstamped
        // carries none, so only a stamp that is there can be checked.
        assert!(stamp.is_none_or(|s| s <= SystemTime::now()), "{stamp:?}");
        drop(client);
        assert_eq!(server.peek(&mut [0u8; 1]).unwrap(), 0, "no EOF seen");
        assert_eq!(server.try_read_stamped(&mut buf).unwrap().0, 0);
    }
}
