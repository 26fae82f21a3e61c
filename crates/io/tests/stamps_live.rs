//! Receive stamping is on once `hold_arrival_stamps` returns. A binary
//! of its own, so the process is fresh: no earlier socket in it has asked
//! the kernel for stamps.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::SystemTime;

use ldp_io::TcpStreamExt;

#[test]
fn the_first_tcp_segment_after_the_wait_carries_a_stamp() {
    let stamps = ldp_io::hold_arrival_stamps();
    assert_eq!(stamps.live(), cfg!(target_os = "linux"));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (server, _) = listener.accept().unwrap();
    server.set_arrival_stamps().unwrap();
    client.write_all(b"first").unwrap();
    server.peek(&mut [0u8; 1]).unwrap();
    let mut buf = [0u8; 16];
    let (n, stamp) = server.try_read_stamped(&mut buf).unwrap();
    assert_eq!(&buf[..n], b"first");
    if stamps.live() {
        assert!(stamp.is_some_and(|s| s <= SystemTime::now()), "{stamp:?}");
    }
}
