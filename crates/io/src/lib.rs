//! Socket calls the standard library lacks, for the replay engine and the
//! live server: extension methods on `std::net::UdpSocket` and
//! `std::net::TcpStream`. On Linux each is one syscall; elsewhere it falls
//! back as noted.
//!
//! | call | what it does |
//! |------|--------------|
//! | [`bind_udp`] | `UdpSocket::bind`, then 4 MiB `SO_RCVBUF`/`SO_SNDBUF` (best effort), so the kernel absorbs a burst while the socket's reader is busy |
//! | [`UdpSocketExt::send_one_to`] | `send_to`, which the [`fault`] hooks can fail |
//! | [`UdpSocketExt::send_many_to`], [`UdpSocketExt::send_many_to_each`] | each run of datagrams to one destination with one length (the last may be shorter; 2–64 of them) is one `sendmsg(2)` with `UDP_SEGMENT` (UDP GSO), the rest one `sendmmsg(2)` per batch (per-datagram `send_to` elsewhere); `send_many_to_each` takes each datagram as a range of one buffer plus its destination, up to [`SEND_BATCH`] per `sendmmsg`. Batches are described in fixed arrays, so a call allocates nothing |
//! | [`UdpSocketExt::recv_many`] | blocking `recvmmsg(2)` of up to [`RECV_BATCH`] datagrams: waits for the first, then takes what is queued; lengths and peers go into a caller-owned `Vec` (no allocation; one `recv_from` elsewhere) |
//! | [`UdpSocketExt::set_arrival_stamps`], [`TcpStreamExt::set_arrival_stamps`] | `SO_TIMESTAMPNS`: the kernel stamps each arriving datagram or segment (no-op elsewhere) |
//! | [`UdpSocketExt::try_recv_many_stamped`] | non-blocking `recvmmsg(2)` (`MSG_DONTWAIT`) of up to [`RECV_BATCH`] queued datagrams, each with its arrival stamp; `WouldBlock` when none is queued (non-blocking `recv_from`s without stamps elsewhere) |
//! | [`hold_arrival_stamps`] | asks for stamps and waits (about 100 ms at most) until a loopback TCP probe comes back stamped; the guard it returns keeps stamping on |
//! | [`TcpStreamExt::try_read_stamped`] | non-blocking `recvmsg(2)` of whatever bytes are queued, with the arrival stamp of the last segment the read returns; `Ok(0)` at EOF, `WouldBlock` when nothing is queued (a non-blocking read without a stamp elsewhere) |
//!
//! Why GSO: `sendmmsg` saves syscall entries, but each datagram it
//! carries still makes its own trip through the kernel's UDP stack, and on
//! loopback that trip costs many times the syscall. On a 2-core x86-64 VM,
//! 32 × 33-byte datagrams to loopback cost 2.3–2.6 µs of sender CPU per
//! datagram through `sendmmsg` and 0.4–0.8 µs as one GSO send, against
//! 0.12–0.13 µs for a bare syscall. A GSO send makes one trip for the
//! whole run and the kernel cuts it into datagrams at the device, or at
//! the receiving socket on loopback, so each is still its own datagram on
//! the wire and a receiver sees no difference. Support is asked once per
//! process (`getsockopt(SOL_UDP, UDP_SEGMENT)`): an older kernel ignores
//! the control message and would send the run as one datagram. A run the
//! kernel refuses (`EINVAL`: a segment over the route's MTU; `EIO`: no
//! checksum offload) goes out through `sendmmsg`.
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
    static UDP_GSO_FAULTS: AtomicUsize = AtomicUsize::new(0);

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

    /// Arms `n` refusals of upcoming GSO sends (a run of equal-length
    /// datagrams that [`crate::UdpSocketExt::send_many_to`] or
    /// [`crate::UdpSocketExt::send_many_to_each`] would send as one),
    /// each failing as `EIO`, as on a device without checksum offload;
    /// the run then goes out through `sendmmsg`.
    pub fn inject_udp_gso_failures(n: usize) {
        UDP_GSO_FAULTS.store(n, Ordering::SeqCst);
    }

    /// Disarms all pending socket faults.
    pub fn clear() {
        UDP_BIND_FAULTS.store(0, Ordering::SeqCst);
        UDP_SEND_FAULTS.store(0, Ordering::SeqCst);
        UDP_GSO_FAULTS.store(0, Ordering::SeqCst);
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

    #[cfg(target_os = "linux")]
    pub(crate) fn udp_gso_fault() -> Option<io::Error> {
        const EIO: i32 = 5;
        take(&UDP_GSO_FAULTS).then(|| io::Error::from_raw_os_error(EIO))
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

/// Keeps the kernel's receive stamping on while held: it holds a socket
/// that asked for stamps. See [`hold_arrival_stamps`].
#[derive(Debug)]
pub struct ArrivalStamps {
    live: bool,
    _probe: Option<TcpStream>,
}

impl ArrivalStamps {
    /// Whether a probe segment came back stamped: while this is held, so
    /// does every segment and datagram that arrives on a socket that asked
    /// for stamps. Always `false` off Linux.
    pub fn live(&self) -> bool {
        self.live
    }
}

/// Most [`hold_arrival_stamps`] waits for a stamped probe.
const STAMP_WAIT: std::time::Duration = std::time::Duration::from_millis(100);

/// Asks the kernel for arrival stamps and returns once a loopback TCP
/// probe comes back stamped, or after about 100 ms. Linux turns receive
/// stamping on a moment after the first socket asks for it, and a TCP
/// segment that arrived before then never carries a stamp (a datagram
/// is stamped at its read instead), so a process that measures TCP
/// arrivals calls this before its clock starts and holds the guard
/// throughout: stamping stays on while any socket that asked for it is
/// open.
pub fn hold_arrival_stamps() -> ArrivalStamps {
    #[cfg(target_os = "linux")]
    if let Ok((probe, live)) = stamped_probe() {
        return ArrivalStamps {
            live,
            _probe: Some(probe),
        };
    }
    ArrivalStamps {
        live: false,
        _probe: None,
    }
}

/// Sends one byte at a time over a loopback connection whose receiving
/// end asked for stamps, until one arrives stamped or [`STAMP_WAIT`] has
/// passed. Returns the receiving end and whether a stamp came.
#[cfg(target_os = "linux")]
fn stamped_probe() -> io::Result<(TcpStream, bool)> {
    use std::io::Write;
    use std::time::{Duration, Instant};
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let mut client = TcpStream::connect(listener.local_addr()?)?;
    client.set_nodelay(true)?;
    let (probe, _) = listener.accept()?;
    probe.set_arrival_stamps()?;
    probe.set_read_timeout(Some(STAMP_WAIT))?;
    let deadline = Instant::now() + STAMP_WAIT;
    let mut byte = [0u8; 1];
    loop {
        client.write_all(&byte)?;
        probe.peek(&mut byte)?;
        let (_, stamp) = probe.try_read_stamped(&mut byte)?;
        if stamp.is_some() || Instant::now() >= deadline {
            return Ok((probe, stamp.is_some()));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Batched and stamped calls on a UDP socket.
pub trait UdpSocketExt {
    /// `send_to`, which [`fault::inject_udp_send_failures`] can fail.
    fn send_one_to(&self, buf: &[u8], target: SocketAddr) -> io::Result<usize>;

    /// Sends each buffer as one datagram to `target`, in order. Each run
    /// of equal-length buffers (the last may be shorter) is one GSO send,
    /// one trip through the kernel's UDP stack; the others go out up to
    /// 256 per `sendmmsg(2)` kernel entry. Returns how many datagrams the
    /// kernel accepted; a short count means it refused the tail (e.g.
    /// buffer pressure) and the caller may retry the remainder.
    fn send_many_to<B: AsRef<[u8]>>(&self, bufs: &[B], target: SocketAddr) -> io::Result<usize>;

    /// Like [`UdpSocketExt::send_many_to`], but each datagram carries its
    /// own destination (a server answering a batch of distinct peers):
    /// datagram `i` is `buf[msgs[i].0]`, sent to `msgs[i].1`, up to
    /// [`SEND_BATCH`] per `sendmmsg(2)`; a run to one peer with one
    /// length (packet-cache answers to a burst of one query) is one GSO
    /// send. Every range must lie within `buf`
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
        let stamps = hold_arrival_stamps();
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
        // Once stamping is live, a segment carries a stamp.
        assert!(stamp.is_some() || !stamps.live(), "no stamp");
        assert!(stamp.is_none_or(|s| s <= SystemTime::now()), "{stamp:?}");
        drop(client);
        assert_eq!(server.peek(&mut [0u8; 1]).unwrap(), 0, "no EOF seen");
        assert_eq!(server.try_read_stamped(&mut buf).unwrap().0, 0);
    }
}
