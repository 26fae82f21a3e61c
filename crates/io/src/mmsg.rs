//! Batched UDP syscalls (`sendmmsg`/`recvmmsg`), UDP GSO sends
//! (`sendmsg` with `UDP_SEGMENT` control data) and stamped reads
//! (`recvmsg` with `SO_TIMESTAMPNS` control data). One kernel entry moves
//! a whole batch of datagrams, which saves the syscalls; a run of
//! equal-length datagrams to one destination also makes one trip through
//! the UDP stack, which saves most of the rest, since on loopback that
//! trip costs several times a syscall per datagram.

use std::io;
use std::mem::MaybeUninit;
use std::net::{SocketAddr, UdpSocket};
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, SystemTime};

use crate::{RECV_BATCH, SEND_BATCH, SOL_SOCKET};

/// Datagrams per `sendmmsg(2)` of [`send_many`]: a replay run is at
/// most one pipeline batch (256 records by default), so one kernel
/// entry carries it.
const MAX_BATCH: usize = 256;
/// Most datagrams one GSO send carries: every kernel with UDP GSO takes
/// this many (its `UDP_MAX_SEGMENTS` is 64, or 128 on recent ones).
const MAX_SEGMENTS: usize = 64;
/// Most payload bytes one GSO send carries: an IPv4 datagram's limit.
const MAX_GSO_BYTES: usize = 65_507;

const SOL_UDP: i32 = 17;
/// The UDP GSO socket option and control message type.
const UDP_SEGMENT: i32 = 103;
const EIO: i32 = 5;
const EINVAL: i32 = 22;

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
    fn getsockopt(
        fd: i32,
        level: i32,
        optname: i32,
        optval: *mut core::ffi::c_void,
        optlen: *mut u32,
    ) -> i32;
    fn recvmsg(fd: i32, msg: *mut MsgHdr, flags: i32) -> isize;
    fn sendmsg(fd: i32, msg: *const MsgHdr, flags: i32) -> isize;
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

/// Sends `count` datagrams in order: datagram `i` is `datagram(i)`, its
/// bytes and its destination. Each maximal run of datagrams to one
/// destination with one length (see [`run_len`]) is one GSO send
/// ([`send_run`]); the rest go out `BATCH` per `sendmmsg(2)`. Every call
/// is described in fixed arrays on the stack, of which only the entries
/// in use are written, so a call allocates nothing. Returns how many the
/// kernel accepted; it stops at the first refusal. A run refused as a
/// GSO send (`EINVAL`, `EIO`) goes out through `sendmmsg` instead.
fn send_batches<'a, const BATCH: usize>(
    socket: &UdpSocket,
    count: usize,
    datagram: impl Fn(usize) -> (&'a [u8], SocketAddr),
) -> io::Result<usize> {
    let fd = socket.as_raw_fd();
    let gso = count > 1 && gso_supported(fd);
    // Datagrams before `plain_until` (a run the kernel refused as one GSO
    // send) go out through `sendmmsg`; `run_at(i)` is the length of the
    // run starting at `i`, 1 for none.
    let mut plain_until = 0usize;
    let run_at = |i: usize, plain_until: usize| {
        if gso && i >= plain_until {
            run_len(i, count, &datagram)
        } else {
            1
        }
    };
    let mut sent = 0usize;
    while sent < count {
        let run = run_at(sent, plain_until);
        if run > 1 {
            match send_run(fd, sent, run, &datagram) {
                Ok(()) => sent += run,
                Err(e) if matches!(e.raw_os_error(), Some(EINVAL | EIO)) => {
                    plain_until = sent + run;
                }
                Err(_) if sent > 0 => return Ok(sent),
                Err(e) => return Err(e),
            }
            continue;
        }
        let mut names = [const { MaybeUninit::<[u8; SOCKADDR_LEN]>::uninit() }; BATCH];
        let mut iovs = [const { MaybeUninit::<IoVec>::uninit() }; BATCH];
        let mut msgs = [const { MaybeUninit::<MMsgHdr>::uninit() }; BATCH];
        let mut len = 0usize;
        // Up to `BATCH` datagrams, ending before the next run.
        while len < BATCH
            && sent + len < count
            && (len == 0 || run_at(sent + len, plain_until) == 1)
        {
            let (bytes, target) = datagram(sent + len);
            let (raw, namelen) = encode_sockaddr(target);
            let name = names[len].write(raw).as_mut_ptr();
            let iov: *mut IoVec = iovs[len].write(IoVec {
                base: bytes.as_ptr() as *mut u8,
                len: bytes.len(),
            });
            msgs[len].write(MMsgHdr {
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
            len += 1;
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

/// How many datagrams from `first` on make one GSO run: the same
/// destination, the same nonzero length but for a shorter (nonzero) last
/// one, at most [`MAX_SEGMENTS`] of them and [`MAX_GSO_BYTES`] in all.
/// 1 means no run starts there.
fn run_len<'a>(
    first: usize,
    count: usize,
    datagram: &impl Fn(usize) -> (&'a [u8], SocketAddr),
) -> usize {
    let (head, to) = datagram(first);
    let size = head.len();
    let mut n = 1;
    let mut bytes = size;
    while size > 0 && n < MAX_SEGMENTS && first + n < count {
        let (next, next_to) = datagram(first + n);
        if next_to != to || next.is_empty() || next.len() > size {
            break;
        }
        bytes += next.len();
        if bytes > MAX_GSO_BYTES {
            break;
        }
        n += 1;
        if next.len() < size {
            break;
        }
    }
    n
}

/// Sends datagrams `first..first + run` (one run, see [`run_len`]) as
/// one `sendmsg(2)` with a `UDP_SEGMENT` control message: the kernel
/// takes the run through its UDP stack once and cuts it into datagrams of
/// the first one's length at the device, or at the receiving socket on
/// loopback. Each is still its own datagram on the wire; what is saved
/// is the per-datagram trip through the stack, which costs several times
/// a syscall.
fn send_run<'a>(
    fd: i32,
    first: usize,
    run: usize,
    datagram: &impl Fn(usize) -> (&'a [u8], SocketAddr),
) -> io::Result<()> {
    if let Some(e) = crate::fault::udp_gso_fault() {
        return Err(e);
    }
    let (head, target) = datagram(first);
    let size = u16::try_from(head.len()).map_err(|_| io::Error::from_raw_os_error(EINVAL))?;
    let mut iovs = [const { MaybeUninit::<IoVec>::uninit() }; MAX_SEGMENTS];
    for (i, iov) in iovs.iter_mut().enumerate().take(run) {
        let (bytes, _) = datagram(first + i);
        iov.write(IoVec {
            base: bytes.as_ptr() as *mut u8,
            len: bytes.len(),
        });
    }
    let (mut name, namelen) = encode_sockaddr(target);
    // One `cmsghdr` (length, level, type) and the segment size, padded
    // to `CMSG_SPACE(2)`.
    let mut control = Control([0; CONTROL_LEN]);
    control.0[..8].copy_from_slice(&(16usize + 2).to_ne_bytes());
    control.0[8..12].copy_from_slice(&SOL_UDP.to_ne_bytes());
    control.0[12..16].copy_from_slice(&UDP_SEGMENT.to_ne_bytes());
    control.0[16..18].copy_from_slice(&size.to_ne_bytes());
    let hdr = MsgHdr {
        name: name.as_mut_ptr(),
        namelen,
        iov: iovs.as_mut_ptr().cast(),
        iovlen: run.min(MAX_SEGMENTS),
        control: control.0.as_mut_ptr(),
        controllen: 24,
        flags: 0,
    };
    // SAFETY: the first `min(run, MAX_SEGMENTS)` iovecs are written and
    // point at buffer bytes that outlive the call, as do the sockaddr and
    // control storage; `MaybeUninit<IoVec>` has `IoVec`'s layout.
    if unsafe { sendmsg(fd, &hdr, 0) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Whether the kernel segments UDP sends (`UDP_SEGMENT`, Linux 4.18 and
/// later), asked once per process with `getsockopt(2)`: a kernel without
/// it ignores the control message and would send a whole run as one
/// datagram.
fn gso_supported(fd: i32) -> bool {
    const UNKNOWN: u8 = 0;
    const YES: u8 = 1;
    const NO: u8 = 2;
    static GSO: AtomicU8 = AtomicU8::new(UNKNOWN);
    match GSO.load(Ordering::Relaxed) {
        YES => true,
        NO => false,
        _ => {
            let mut value = 0i32;
            let mut len = std::mem::size_of::<i32>() as u32;
            let ptr = (&mut value as *mut i32).cast();
            // SAFETY: fd is a live socket; optval and optlen point at an
            // i32 and its size, which outlive the call.
            let yes = unsafe { getsockopt(fd, SOL_UDP, UDP_SEGMENT, ptr, &mut len) } == 0;
            GSO.store(if yes { YES } else { NO }, Ordering::Relaxed);
            yes
        }
    }
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
