//! Batched UDP syscalls (`sendmmsg`/`recvmmsg`) and stamped reads
//! (`recvmsg` with `SO_TIMESTAMPNS` control data): one kernel entry moves
//! a whole batch of datagrams, which is the difference between
//! syscall-bound and CPU-bound replay on a single core.

use std::io;
use std::mem::MaybeUninit;
use std::net::{SocketAddr, UdpSocket};
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::time::{Duration, SystemTime};

use crate::{RECV_BATCH, SEND_BATCH, SOL_SOCKET};

/// Datagrams per `sendmmsg(2)` of [`send_many`]: a replay run is at
/// most one pipeline batch (256 records by default), so one kernel
/// entry carries it.
const MAX_BATCH: usize = 256;

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
/// recvmmsg: block for the first datagram, then return what's queued.
const MSG_WAITFORONE: i32 = 0x10000;
/// Per-call non-blocking receive (the fd itself stays blocking).
const MSG_DONTWAIT: i32 = 0x40;
/// `SO_TIMESTAMPNS`; its control message type `SCM_TIMESTAMPNS` has
/// the same value.
pub(crate) const SO_TIMESTAMPNS: i32 = 35;

#[repr(C)]
struct IoVec {
    base: *mut u8,
    len: usize,
}

/// glibc x86-64 `struct msghdr` layout; repr(C) reproduces the padding
/// after `namelen` and `flags`.
#[repr(C)]
struct MsgHdr {
    name: *mut u8,
    namelen: u32,
    iov: *mut IoVec,
    iovlen: usize,
    control: *mut u8,
    controllen: usize,
    flags: i32,
}

#[repr(C)]
struct MMsgHdr {
    hdr: MsgHdr,
    len: u32,
}

extern "C" {
    fn recvmsg(fd: i32, msg: *mut MsgHdr, flags: i32) -> isize;
    fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
    fn recvmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32, timeout: *mut u8) -> i32;
}

/// Raw sockaddr storage: sized for sockaddr_in6, the larger of the two.
const SOCKADDR_LEN: usize = 28;

fn encode_sockaddr(target: SocketAddr) -> ([u8; SOCKADDR_LEN], u32) {
    let mut out = [0u8; SOCKADDR_LEN];
    match target {
        SocketAddr::V4(v4) => {
            out[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
            out[2..4].copy_from_slice(&v4.port().to_be_bytes());
            out[4..8].copy_from_slice(&v4.ip().octets());
            (out, 16)
        }
        SocketAddr::V6(v6) => {
            out[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
            out[2..4].copy_from_slice(&v6.port().to_be_bytes());
            out[4..8].copy_from_slice(&v6.flowinfo().to_ne_bytes());
            out[8..24].copy_from_slice(&v6.ip().octets());
            out[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
            (out, 28)
        }
    }
}

fn decode_sockaddr(raw: &[u8; SOCKADDR_LEN]) -> Option<SocketAddr> {
    let family = u16::from_ne_bytes([raw[0], raw[1]]);
    let port = u16::from_be_bytes([raw[2], raw[3]]);
    if family == AF_INET {
        let ip: [u8; 4] = raw[4..8].try_into().ok()?;
        Some(SocketAddr::from((ip, port)))
    } else if family == AF_INET6 {
        let ip: [u8; 16] = raw[8..24].try_into().ok()?;
        Some(SocketAddr::from((ip, port)))
    } else {
        None
    }
}

pub(crate) fn send_many<B: AsRef<[u8]>>(
    socket: &UdpSocket,
    bufs: &[B],
    target: SocketAddr,
) -> io::Result<usize> {
    send_batches::<MAX_BATCH>(socket, bufs.len(), |i| (bufs[i].as_ref(), target))
}

pub(crate) fn send_many_each(
    socket: &UdpSocket,
    buf: &[u8],
    msgs: &[(Range<usize>, SocketAddr)],
) -> io::Result<usize> {
    send_batches::<SEND_BATCH>(socket, msgs.len(), |i| {
        let (at, target) = &msgs[i];
        (buf.get(at.clone()).unwrap_or_default(), *target)
    })
}

/// Sends `count` datagrams, `BATCH` per `sendmmsg(2)`: datagram `i` is
/// `datagram(i)`, its bytes and its destination. Each batch is described in fixed arrays on the stack, of
/// which only the entries in use are written, so a call allocates
/// nothing. Returns how many the kernel accepted; it stops at the
/// first short batch.
fn send_batches<'a, const BATCH: usize>(
    socket: &UdpSocket,
    count: usize,
    datagram: impl Fn(usize) -> (&'a [u8], SocketAddr),
) -> io::Result<usize> {
    let fd = socket.as_raw_fd();
    let mut sent = 0usize;
    while sent < count {
        let len = (count - sent).min(BATCH);
        let mut names = [const { MaybeUninit::<[u8; SOCKADDR_LEN]>::uninit() }; BATCH];
        let mut iovs = [const { MaybeUninit::<IoVec>::uninit() }; BATCH];
        let mut msgs = [const { MaybeUninit::<MMsgHdr>::uninit() }; BATCH];
        for i in 0..len {
            let (bytes, target) = datagram(sent + i);
            let (raw, namelen) = encode_sockaddr(target);
            let name = names[i].write(raw).as_mut_ptr();
            let iov: *mut IoVec = iovs[i].write(IoVec {
                base: bytes.as_ptr() as *mut u8,
                len: bytes.len(),
            });
            msgs[i].write(MMsgHdr {
                hdr: MsgHdr {
                    name,
                    namelen,
                    iov,
                    iovlen: 1,
                    control: std::ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            });
        }
        // SAFETY: the first `len` messages are written, and point at
        // sockaddr storage, iovecs and buffer bytes that outlive the
        // call; `MaybeUninit<MMsgHdr>` has `MMsgHdr`'s layout.
        let n = unsafe { sendmmsg(fd, msgs.as_mut_ptr().cast(), len as u32, 0) };
        if n < 0 {
            if sent > 0 {
                return Ok(sent);
            }
            return Err(io::Error::last_os_error());
        }
        sent += n as usize;
        if (n as usize) < len {
            return Ok(sent);
        }
    }
    Ok(sent)
}

/// Control-message space per read: one `cmsghdr` (16 bytes) plus a
/// `timespec` (16 bytes), with room to skip one unexpected message.
const CONTROL_LEN: usize = 64;

/// Control buffer aligned for `cmsghdr`.
#[repr(C, align(8))]
struct Control([u8; CONTROL_LEN]);

/// The `SCM_TIMESTAMPNS` stamp among the first `len` control bytes.
fn arrival_stamp(control: &Control, len: usize) -> Option<SystemTime> {
    let bytes = control.0.get(..len.min(CONTROL_LEN))?;
    let word = |at: usize| -> Option<[u8; 8]> { bytes.get(at..at + 8)?.try_into().ok() };
    let mut at = 0;
    while let Some(cmsg_len) = word(at).map(usize::from_ne_bytes) {
        if cmsg_len < 16 {
            return None;
        }
        let kind = word(at + 8)?;
        let level = i32::from_ne_bytes([kind[0], kind[1], kind[2], kind[3]]);
        let ty = i32::from_ne_bytes([kind[4], kind[5], kind[6], kind[7]]);
        if level == SOL_SOCKET && ty == SO_TIMESTAMPNS {
            let sec = u64::try_from(i64::from_ne_bytes(word(at + 16)?)).ok()?;
            let nsec = u32::try_from(i64::from_ne_bytes(word(at + 24)?)).ok()?;
            return SystemTime::UNIX_EPOCH.checked_add(Duration::new(sec, nsec));
        }
        at += (cmsg_len + 7) & !7;
    }
    None
}

pub(crate) fn try_recv_stamped(
    socket: &UdpSocket,
    bufs: &mut [Vec<u8>],
    out: &mut Vec<(usize, Option<SystemTime>)>,
) -> io::Result<usize> {
    let count = bufs.len().min(RECV_BATCH);
    let mut bufs = bufs.iter_mut();
    let mut iovs: [IoVec; RECV_BATCH] = std::array::from_fn(|_| match bufs.next() {
        Some(b) => IoVec {
            base: b.as_mut_ptr(),
            len: b.len(),
        },
        None => IoVec {
            base: std::ptr::null_mut(),
            len: 0,
        },
    });
    let mut controls: [Control; RECV_BATCH] = std::array::from_fn(|_| Control([0; CONTROL_LEN]));
    let mut msgs: [MMsgHdr; RECV_BATCH] = std::array::from_fn(|i| MMsgHdr {
        hdr: MsgHdr {
            name: std::ptr::null_mut(),
            namelen: 0,
            iov: &mut iovs[i],
            iovlen: 1,
            control: controls[i].0.as_mut_ptr(),
            controllen: CONTROL_LEN,
            flags: 0,
        },
        len: 0,
    });
    // SAFETY: the first `count` messages point at live buffers,
    // iovecs and control blocks that outlive the call; MSG_DONTWAIT
    // makes it return at once when nothing is queued.
    let n = unsafe {
        recvmmsg(
            socket.as_raw_fd(),
            msgs.as_mut_ptr(),
            count as u32,
            MSG_DONTWAIT,
            std::ptr::null_mut(),
        )
    };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    for (msg, control) in msgs.iter().zip(&controls).take(n as usize) {
        out.push((msg.len as usize, arrival_stamp(control, msg.hdr.controllen)));
    }
    Ok(out.len())
}

/// One non-blocking `recvmsg(2)` on a stream socket, with the arrival
/// stamp of the last segment the read returns.
pub(crate) fn try_read_stamped(fd: i32, buf: &mut [u8]) -> io::Result<(usize, Option<SystemTime>)> {
    let mut iov = IoVec {
        base: buf.as_mut_ptr(),
        len: buf.len(),
    };
    let mut control = Control([0; CONTROL_LEN]);
    let mut hdr = MsgHdr {
        name: std::ptr::null_mut(),
        namelen: 0,
        iov: &mut iov,
        iovlen: 1,
        control: control.0.as_mut_ptr(),
        controllen: CONTROL_LEN,
        flags: 0,
    };
    // SAFETY: the buffer, iovec and control block outlive the call.
    let n = unsafe { recvmsg(fd, &mut hdr, MSG_DONTWAIT) };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((n as usize, arrival_stamp(&control, hdr.controllen)))
}

pub(crate) fn recv_many(
    socket: &UdpSocket,
    bufs: &mut [Vec<u8>],
    out: &mut Vec<(usize, SocketAddr)>,
) -> io::Result<usize> {
    let count = bufs.len().min(RECV_BATCH);
    if count == 0 {
        return Ok(0);
    }
    let mut names = [[0u8; SOCKADDR_LEN]; RECV_BATCH];
    let mut bufs = bufs.iter_mut();
    let mut iovs: [IoVec; RECV_BATCH] = std::array::from_fn(|_| match bufs.next() {
        Some(b) => IoVec {
            base: b.as_mut_ptr(),
            len: b.len(),
        },
        None => IoVec {
            base: std::ptr::null_mut(),
            len: 0,
        },
    });
    let mut msgs: [MMsgHdr; RECV_BATCH] = std::array::from_fn(|i| MMsgHdr {
        hdr: MsgHdr {
            name: names[i].as_mut_ptr(),
            namelen: SOCKADDR_LEN as u32,
            iov: &mut iovs[i],
            iovlen: 1,
            control: std::ptr::null_mut(),
            controllen: 0,
            flags: 0,
        },
        len: 0,
    });
    // SAFETY: the first `count` messages point at live buffers,
    // iovecs and sockaddr slots that outlive the call; MSG_WAITFORONE
    // blocks for the first datagram only.
    let n = unsafe {
        recvmmsg(
            socket.as_raw_fd(),
            msgs.as_mut_ptr(),
            count as u32,
            MSG_WAITFORONE,
            std::ptr::null_mut(),
        )
    };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    let unknown = SocketAddr::from(([0, 0, 0, 0], 0));
    for (msg, name) in msgs.iter().zip(&names).take(n as usize) {
        out.push(match decode_sockaddr(name) {
            Some(peer) => (msg.len as usize, peer),
            None => (0, unknown),
        });
    }
    Ok(out.len())
}
