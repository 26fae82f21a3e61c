//! A run the kernel refuses as one GSO send goes out through `sendmmsg`,
//! datagram by datagram, with the same result. A binary of its own: the
//! injected refusals are process-global, and no other send here may take
//! them.

use std::net::UdpSocket;
use std::time::Duration;

use ldp_io::UdpSocketExt;

#[test]
fn refused_gso_sends_go_out_through_sendmmsg() {
    let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    let rx = ldp_io::bind_udp("127.0.0.1:0").unwrap();
    rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let to = rx.local_addr().unwrap();
    // Five runs (64, 64, 64, 64, 44): the first three are refused.
    let queries: Vec<Vec<u8>> = (0..300).map(|i| vec![(i % 251) as u8; 33]).collect();
    ldp_io::fault::inject_udp_gso_failures(3);
    let sent = tx.send_many_to(&queries, to);
    ldp_io::fault::clear();
    assert_eq!(sent.unwrap(), 300);
    let mut buf = [0u8; 64];
    for (i, query) in queries.iter().enumerate() {
        let len = rx
            .recv(&mut buf)
            .unwrap_or_else(|e| panic!("datagram {i}: {e}"));
        assert_eq!(buf[..len], query[..], "datagram {i}");
    }
    rx.set_nonblocking(true).unwrap();
    assert!(rx.recv(&mut buf).is_err(), "more than 300 datagrams");
}
