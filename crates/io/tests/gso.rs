//! Batch sends whose runs of equal-length datagrams go out as one GSO send
//! (`UDP_SEGMENT`): the receiver, which does not ask for `UDP_GRO`, must
//! see exactly the datagrams it would see from one `sendmmsg`, in order.

use std::net::{SocketAddr, UdpSocket};
use std::ops::Range;
use std::time::Duration;

use ldp_io::UdpSocketExt;

/// A receiver with room for a few hundred small datagrams, and its
/// address.
fn receiver() -> (UdpSocket, SocketAddr) {
    let rx = ldp_io::bind_udp("127.0.0.1:0").unwrap();
    rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let to = rx.local_addr().unwrap();
    (rx, to)
}

/// Reads `n` datagrams and then checks that nothing more is queued.
fn take(rx: &UdpSocket, n: usize) -> Vec<Vec<u8>> {
    let mut buf = [0u8; 2048];
    let got: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            let len = rx
                .recv(&mut buf)
                .unwrap_or_else(|e| panic!("datagram {i}: {e}"));
            buf[..len].to_vec()
        })
        .collect();
    rx.set_nonblocking(true).unwrap();
    assert!(rx.recv(&mut buf).is_err(), "more than {n} datagrams");
    rx.set_nonblocking(false).unwrap();
    got
}

/// `n` datagrams of `len` bytes, each filled with its own index.
fn datagrams(n: usize, len: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| vec![(i % 251) as u8; len]).collect()
}

#[test]
fn a_run_with_a_shorter_last_datagram_arrives_datagram_by_datagram() {
    let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    let (rx, to) = receiver();
    let mut queries = datagrams(40, 33);
    queries.push(vec![0xee; 12]);
    assert_eq!(tx.send_many_to(&queries, to).unwrap(), 41);
    assert_eq!(take(&rx, 41), queries);
}

#[test]
fn more_than_one_run_of_equal_datagrams_arrives_in_order() {
    let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    let (rx, to) = receiver();
    let queries = datagrams(300, 20);
    assert_eq!(tx.send_many_to(&queries, to).unwrap(), 300);
    assert_eq!(take(&rx, 300), queries);
}

#[test]
fn a_new_destination_or_a_longer_datagram_splits_the_run() {
    let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    let (a, to_a) = receiver();
    let (b, to_b) = receiver();
    // Answers to two peers, as a server's sweep lays them out: a run to
    // `a`, one to `b`, a longer one to `a`, then `a` again at the first
    // length.
    let mut buf = Vec::new();
    let mut msgs: Vec<(Range<usize>, SocketAddr)> = Vec::new();
    let mut push = |len: usize, to: SocketAddr| {
        let at = buf.len();
        buf.extend(std::iter::repeat_n((msgs.len() % 251) as u8, len));
        msgs.push((at..buf.len(), to));
    };
    for (n, len, to) in [(5, 40, to_a), (7, 40, to_b), (3, 90, to_a), (4, 40, to_a)] {
        for _ in 0..n {
            push(len, to);
        }
    }
    assert_eq!(tx.send_many_to_each(&buf, &msgs).unwrap(), msgs.len());
    for (rx, to) in [(&a, to_a), (&b, to_b)] {
        let want: Vec<Vec<u8>> = msgs
            .iter()
            .filter(|(_, dest)| *dest == to)
            .map(|(at, _)| buf[at.clone()].to_vec())
            .collect();
        assert_eq!(take(rx, want.len()), want, "to {to}");
    }
}

#[test]
fn equal_answers_to_one_peer_arrive_one_by_one() {
    let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    let (rx, to) = receiver();
    let answers: Vec<u8> = (0..64 * 49).map(|i| (i % 251) as u8).collect();
    let msgs: Vec<(Range<usize>, SocketAddr)> =
        (0..64).map(|i| (i * 49..i * 49 + 49, to)).collect();
    assert_eq!(tx.send_many_to_each(&answers, &msgs).unwrap(), 64);
    let want: Vec<Vec<u8>> = answers.chunks(49).map(<[u8]>::to_vec).collect();
    assert_eq!(take(&rx, 64), want);
}
