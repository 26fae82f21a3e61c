//! TLS session emulation over the simulated TCP stream.
//!
//! The paper's TLS experiments (§5.2) measure handshake round trips, record
//! overhead, per-session memory, and crypto CPU cost — never
//! confidentiality. This layer therefore emulates TLS 1.2 *framing*:
//!
//! * a 2-round-trip handshake with realistically-sized flights
//!   (ClientHello ≈ 289 B; ServerHello+Certificate+Done ≈ 3 kB;
//!   ClientKeyExchange+Finished ≈ 196 B; ServerFinished ≈ 51 B), so a TLS
//!   query over a fresh connection costs 4 RTTs total (1 TCP + 2 TLS + 1
//!   query), matching the paper's Figure 15b analysis,
//! * 5-byte record headers plus a 24-byte MAC/padding charge per
//!   application record (bandwidth accounting),
//! * application data queued during the handshake and flushed on
//!   completion.
//!
//! Both endpoints embed a [`TlsEndpoint`] above their `TcpStack`
//! connection; bytes produced here ride as ordinary TCP data.

/// Handshake flight sizes (bytes), modeled on a typical RSA-2048
/// certificate exchange.
pub const CLIENT_HELLO_LEN: usize = 289;
pub const SERVER_HELLO_LEN: usize = 3075;
pub const CLIENT_FINISH_LEN: usize = 196;
pub const SERVER_FINISH_LEN: usize = 51;

/// Per-record overhead: 5-byte header + MAC/padding.
pub const RECORD_OVERHEAD: usize = 29;

/// Which side of the session this endpoint is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlsRole {
    Client,
    Server,
}

/// Outputs from feeding the endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsOutput {
    /// Bytes to write to the underlying TCP connection.
    SendBytes(Vec<u8>),
    /// Handshake finished; application data may now flow.
    HandshakeComplete,
    /// Decrypted (well, unframed) application bytes.
    AppData(Vec<u8>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Client: waiting for TCP connect; Server: waiting for ClientHello.
    Idle,
    /// Client sent ClientHello, awaiting ServerHello flight.
    AwaitServerHello,
    /// Server sent its flight, awaiting ClientKeyExchange+Finished.
    AwaitClientFinish,
    /// Client sent Finished, awaiting ServerFinished.
    AwaitServerFinish,
    Established,
}

/// Wire frame types (1-byte tag + 4-byte length + filler body).
const TAG_CLIENT_HELLO: u8 = 1;
const TAG_SERVER_HELLO: u8 = 2;
const TAG_CLIENT_FINISH: u8 = 3;
const TAG_SERVER_FINISH: u8 = 4;
const TAG_APPDATA: u8 = 5;

/// One endpoint of an emulated TLS session.
#[derive(Debug)]
pub struct TlsEndpoint {
    role: TlsRole,
    state: State,
    /// Reassembly buffer for incoming TCP bytes.
    inbuf: Vec<u8>,
    /// Application writes queued during the handshake.
    queued: Vec<Vec<u8>>,
    /// Bytes of handshake traffic sent (CPU/bandwidth accounting).
    pub handshake_bytes_sent: usize,
}

impl TlsEndpoint {
    pub fn new(role: TlsRole) -> TlsEndpoint {
        TlsEndpoint {
            role,
            state: State::Idle,
            inbuf: Vec::new(),
            queued: Vec::new(),
            handshake_bytes_sent: 0,
        }
    }

    /// True once application data can flow.
    pub fn is_established(&self) -> bool {
        self.state == State::Established
    }

    /// Client-side: the TCP connection is up — send ClientHello.
    pub fn on_tcp_connected(&mut self) -> Vec<TlsOutput> {
        if self.role != TlsRole::Client || self.state != State::Idle {
            return Vec::new();
        }
        self.state = State::AwaitServerHello;
        vec![self.frame_out(TAG_CLIENT_HELLO, CLIENT_HELLO_LEN)]
    }

    /// Queues (or frames) application bytes for sending.
    pub fn write_app_data(&mut self, data: &[u8]) -> Vec<TlsOutput> {
        if self.state == State::Established {
            vec![TlsOutput::SendBytes(frame(TAG_APPDATA, data.to_vec()))]
        } else {
            self.queued.push(data.to_vec());
            Vec::new()
        }
    }

    /// Feeds received TCP bytes; returns handshake progress and app data.
    pub fn on_bytes(&mut self, bytes: &[u8]) -> Vec<TlsOutput> {
        self.inbuf.extend_from_slice(bytes);
        let mut out = Vec::new();
        while let Some((tag, body)) = self.pop_frame() {
            match (self.role, self.state, tag) {
                (TlsRole::Server, State::Idle, TAG_CLIENT_HELLO) => {
                    self.state = State::AwaitClientFinish;
                    out.push(self.frame_out(TAG_SERVER_HELLO, SERVER_HELLO_LEN));
                }
                (TlsRole::Client, State::AwaitServerHello, TAG_SERVER_HELLO) => {
                    self.state = State::AwaitServerFinish;
                    out.push(self.frame_out(TAG_CLIENT_FINISH, CLIENT_FINISH_LEN));
                }
                (TlsRole::Server, State::AwaitClientFinish, TAG_CLIENT_FINISH) => {
                    self.state = State::Established;
                    out.push(self.frame_out(TAG_SERVER_FINISH, SERVER_FINISH_LEN));
                    out.push(TlsOutput::HandshakeComplete);
                    out.extend(self.flush_queued());
                }
                (TlsRole::Client, State::AwaitServerFinish, TAG_SERVER_FINISH) => {
                    self.state = State::Established;
                    out.push(TlsOutput::HandshakeComplete);
                    out.extend(self.flush_queued());
                }
                (_, State::Established, TAG_APPDATA) => {
                    out.push(TlsOutput::AppData(body));
                }
                // Anything else is a protocol violation; in emulation we
                // silently drop the frame (a real stack would alert).
                _ => {}
            }
        }
        out
    }

    fn flush_queued(&mut self) -> Vec<TlsOutput> {
        std::mem::take(&mut self.queued)
            .into_iter()
            .map(|d| TlsOutput::SendBytes(frame(TAG_APPDATA, d)))
            .collect()
    }

    fn frame_out(&mut self, tag: u8, body_len: usize) -> TlsOutput {
        self.handshake_bytes_sent += body_len + 5;
        TlsOutput::SendBytes(frame(tag, vec![0u8; body_len]))
    }

    fn pop_frame(&mut self) -> Option<(u8, Vec<u8>)> {
        if self.inbuf.len() < 5 {
            return None;
        }
        let tag = self.inbuf[0];
        let len = u32::from_be_bytes(self.inbuf[1..5].try_into().unwrap()) as usize;
        if self.inbuf.len() < 5 + len {
            return None;
        }
        let body = self.inbuf[5..5 + len].to_vec();
        self.inbuf.drain(..5 + len);
        Some((tag, body))
    }
}

/// Frames a body with the 1-byte tag + 4-byte length header. Application
/// frames additionally charge [`RECORD_OVERHEAD`] filler to model record
/// MAC/padding on the wire.
fn frame(tag: u8, mut body: Vec<u8>) -> Vec<u8> {
    if tag == TAG_APPDATA {
        body.extend(std::iter::repeat_n(0u8, RECORD_OVERHEAD - 5));
    }
    let mut out = Vec::with_capacity(body.len() + 5);
    out.push(tag);
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(&body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the two endpoints against each other in-memory, counting
    /// half-round-trips until both are established.
    #[test]
    fn handshake_takes_two_round_trips() {
        let mut client = TlsEndpoint::new(TlsRole::Client);
        let mut server = TlsEndpoint::new(TlsRole::Server);

        let mut to_server: Vec<Vec<u8>> = Vec::new();
        let mut to_client: Vec<Vec<u8>> = Vec::new();
        for o in client.on_tcp_connected() {
            if let TlsOutput::SendBytes(b) = o {
                to_server.push(b);
            }
        }
        let mut half_trips = 0;
        while !(client.is_established() && server.is_established()) {
            assert!(half_trips < 10, "handshake did not converge");
            // Deliver client→server flight.
            let batch: Vec<_> = std::mem::take(&mut to_server);
            for b in batch {
                for o in server.on_bytes(&b) {
                    if let TlsOutput::SendBytes(r) = o {
                        to_client.push(r);
                    }
                }
            }
            half_trips += 1;
            if client.is_established() && server.is_established() {
                break;
            }
            let batch: Vec<_> = std::mem::take(&mut to_client);
            for b in batch {
                for o in client.on_bytes(&b) {
                    if let TlsOutput::SendBytes(r) = o {
                        to_server.push(r);
                    }
                }
            }
            half_trips += 1;
        }
        // client→server, server→client, client→server(Finished) establishes
        // the server; final server→client Finished establishes the client:
        // 4 half-trips = 2 RTT.
        assert_eq!(half_trips, 4);
    }

    fn established_pair() -> (TlsEndpoint, TlsEndpoint) {
        let mut client = TlsEndpoint::new(TlsRole::Client);
        let mut server = TlsEndpoint::new(TlsRole::Server);
        let mut c2s: Vec<Vec<u8>> = client
            .on_tcp_connected()
            .into_iter()
            .filter_map(|o| match o {
                TlsOutput::SendBytes(b) => Some(b),
                _ => None,
            })
            .collect();
        for _ in 0..3 {
            let mut s2c = Vec::new();
            for b in c2s.drain(..) {
                for o in server.on_bytes(&b) {
                    if let TlsOutput::SendBytes(r) = o {
                        s2c.push(r);
                    }
                }
            }
            for b in s2c {
                for o in client.on_bytes(&b) {
                    if let TlsOutput::SendBytes(r) = o {
                        c2s.push(r);
                    }
                }
            }
        }
        assert!(client.is_established() && server.is_established());
        (client, server)
    }

    #[test]
    fn app_data_roundtrip() {
        let (mut client, mut server) = established_pair();
        let outs = client.write_app_data(b"\x00\x05query");
        assert_eq!(outs.len(), 1);
        let TlsOutput::SendBytes(wire) = &outs[0] else {
            panic!("expected bytes");
        };
        assert!(
            wire.len() > 7 + RECORD_OVERHEAD - 5,
            "record overhead charged"
        );
        let got = server.on_bytes(wire);
        assert_eq!(got.len(), 1);
        match &got[0] {
            TlsOutput::AppData(data) => {
                assert_eq!(&data[..7], b"\x00\x05query");
            }
            other => panic!("expected app data, got {other:?}"),
        }
    }

    #[test]
    fn early_writes_queued_until_established() {
        let mut client = TlsEndpoint::new(TlsRole::Client);
        assert!(client.write_app_data(b"early").is_empty());
        let mut server = TlsEndpoint::new(TlsRole::Server);
        // Drive the handshake; the queued write must flush with the final
        // client flight.
        let mut c2s: Vec<Vec<u8>> = client
            .on_tcp_connected()
            .into_iter()
            .filter_map(|o| match o {
                TlsOutput::SendBytes(b) => Some(b),
                _ => None,
            })
            .collect();
        let mut app_seen = false;
        for _ in 0..4 {
            let mut s2c = Vec::new();
            for b in c2s.drain(..) {
                for o in server.on_bytes(&b) {
                    match o {
                        TlsOutput::SendBytes(r) => s2c.push(r),
                        TlsOutput::AppData(d) => {
                            assert_eq!(&d[..5], b"early");
                            app_seen = true;
                        }
                        _ => {}
                    }
                }
            }
            for b in s2c {
                for o in client.on_bytes(&b) {
                    if let TlsOutput::SendBytes(r) = o {
                        c2s.push(r);
                    }
                }
            }
        }
        assert!(app_seen, "queued write must arrive after handshake");
    }

    #[test]
    fn split_delivery_reassembles() {
        let (mut client, mut server) = established_pair();
        let outs = client.write_app_data(b"chunked");
        let TlsOutput::SendBytes(wire) = &outs[0] else {
            panic!();
        };
        let mut results = Vec::new();
        for chunk in wire.chunks(3) {
            results.extend(server.on_bytes(chunk));
        }
        assert_eq!(results.len(), 1);
        assert!(matches!(&results[0], TlsOutput::AppData(d) if &d[..7] == b"chunked"));
    }

    #[test]
    fn handshake_bytes_accounted() {
        let (client, server) = established_pair();
        assert_eq!(
            client.handshake_bytes_sent,
            CLIENT_HELLO_LEN + CLIENT_FINISH_LEN + 10
        );
        assert_eq!(
            server.handshake_bytes_sent,
            SERVER_HELLO_LEN + SERVER_FINISH_LEN + 10
        );
    }

    #[test]
    fn out_of_order_handshake_frames_dropped() {
        let mut server = TlsEndpoint::new(TlsRole::Server);
        // An app-data frame before the handshake is dropped silently.
        let junk = frame(TAG_APPDATA, b"junk".to_vec());
        assert!(server.on_bytes(&junk).is_empty());
        assert!(!server.is_established());
    }
}
