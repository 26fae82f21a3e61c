//! DNS over stream transports: 2-byte length framing (RFC 1035 §4.2.2).
//!
//! Used by the TCP/TLS queriers and by the simulator's stream endpoints.
//! [`FrameDecoder`] is an incremental decoder: feed arbitrary byte chunks,
//! get whole DNS messages out — exactly the shape needed for event-driven
//! connection handling where segment boundaries are arbitrary (the paper's
//! §5.2.4 observes latency artifacts from segment reassembly; the decoder is
//! where that reassembly happens).

use crate::error::WireError;

/// Maximum frame payload (the length prefix is 16 bits).
pub const MAX_FRAME: usize = u16::MAX as usize;

/// Prepends the 2-byte length prefix to a DNS message.
pub fn frame_message(msg: &[u8]) -> Result<Vec<u8>, WireError> {
    let len = u16::try_from(msg.len()).map_err(|_| WireError::MessageTooLong(msg.len()))?;
    let mut out = Vec::with_capacity(msg.len() + 2);
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(msg);
    Ok(out)
}

/// Splits the first whole frame off `bytes`: its message and the bytes
/// after it. `None` while that frame has not fully arrived. Lets a reader
/// answer every whole frame in a buffer without copying any of them.
pub fn split_frame(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let (len, rest) = bytes.split_first_chunk::<2>()?;
    let len = usize::from(u16::from_be_bytes(*len));
    (rest.len() >= len).then(|| rest.split_at(len))
}

/// Incremental decoder for a stream of length-prefixed DNS messages.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    pub fn new() -> Self {
        FrameDecoder { buf: Vec::new() }
    }

    /// Bytes buffered but not yet forming a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Appends received bytes to the internal buffer.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Pops the next complete message, if one is buffered.
    pub fn next_frame(&mut self) -> Option<Vec<u8>> {
        let (msg, rest) = split_frame(&self.buf)?;
        let (frame, used) = (msg.to_vec(), self.buf.len() - rest.len());
        self.buf.drain(..used);
        Some(frame)
    }

    /// Drains all complete frames currently buffered.
    pub fn drain_frames(&mut self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(f) = self.next_frame() {
            out.push(f);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_frame_walks_whole_frames_and_stops_at_a_partial_one() {
        let mut bytes = frame_message(b"one").unwrap();
        bytes.extend(frame_message(b"").unwrap());
        bytes.extend(&frame_message(b"three").unwrap()[..4]);
        let (first, rest) = split_frame(&bytes).unwrap();
        assert_eq!(first, b"one");
        let (second, rest) = split_frame(rest).unwrap();
        assert_eq!(second, b"");
        assert_eq!(rest, &[0, 5, b't', b'h']);
        assert!(split_frame(rest).is_none());
        assert!(split_frame(&[0]).is_none());
    }

    #[test]
    fn frame_and_decode() {
        let framed = frame_message(b"hello").unwrap();
        assert_eq!(&framed[..2], &[0, 5]);
        let mut d = FrameDecoder::new();
        d.feed(&framed);
        assert_eq!(d.next_frame().unwrap(), b"hello");
        assert!(d.next_frame().is_none());
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn byte_at_a_time() {
        let framed = frame_message(b"abc").unwrap();
        let mut d = FrameDecoder::new();
        for (i, b) in framed.iter().enumerate() {
            d.feed(std::slice::from_ref(b));
            if i + 1 < framed.len() {
                assert!(d.next_frame().is_none(), "premature frame at byte {i}");
            }
        }
        assert_eq!(d.next_frame().unwrap(), b"abc");
    }

    #[test]
    fn multiple_frames_in_one_chunk() {
        let mut chunk = frame_message(b"one").unwrap();
        chunk.extend(frame_message(b"two").unwrap());
        chunk.extend(frame_message(b"three").unwrap());
        let mut d = FrameDecoder::new();
        d.feed(&chunk);
        let frames = d.drain_frames();
        assert_eq!(
            frames,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
    }

    #[test]
    fn split_across_chunks() {
        let framed = frame_message(&vec![7u8; 1000]).unwrap();
        let mut d = FrameDecoder::new();
        d.feed(&framed[..500]);
        assert!(d.next_frame().is_none());
        d.feed(&framed[500..]);
        assert_eq!(d.next_frame().unwrap().len(), 1000);
    }

    #[test]
    fn empty_frame_allowed() {
        let framed = frame_message(b"").unwrap();
        let mut d = FrameDecoder::new();
        d.feed(&framed);
        assert_eq!(d.next_frame().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn oversized_rejected() {
        let big = vec![0u8; MAX_FRAME + 1];
        assert!(frame_message(&big).is_err());
        assert!(frame_message(&big[..MAX_FRAME]).is_ok());
    }
}
