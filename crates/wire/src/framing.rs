//! DNS over stream transports: 2-byte length framing (RFC 1035 §4.2.2).
//!
//! Used by the TCP/TLS queriers and servers, live and simulated. Each keeps
//! a per-connection buffer of the bytes received so far and walks the whole
//! frames in it with [`split_frame`], keeping a partial frame for the next
//! segment — segment boundaries are arbitrary (the paper's §5.2.4 observes
//! latency artifacts from segment reassembly; this is where it happens).

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

    /// The whole frames of `buf` and the length of the partial one.
    fn frames(buf: &[u8]) -> (Vec<&[u8]>, usize) {
        let (mut out, mut rest) = (Vec::new(), buf);
        while let Some((msg, tail)) = split_frame(rest) {
            out.push(msg);
            rest = tail;
        }
        (out, rest.len())
    }

    #[test]
    fn frame_and_decode() {
        let framed = frame_message(b"hello").unwrap();
        assert_eq!(&framed[..2], &[0, 5]);
        assert_eq!(frames(&framed), (vec![&b"hello"[..]], 0));
    }

    #[test]
    fn byte_at_a_time() {
        let framed = frame_message(b"abc").unwrap();
        for i in 0..framed.len() {
            assert_eq!(
                frames(&framed[..i]),
                (vec![], i),
                "premature frame at byte {i}"
            );
        }
        assert_eq!(frames(&framed), (vec![&b"abc"[..]], 0));
    }

    #[test]
    fn multiple_frames_in_one_chunk() {
        let mut chunk = frame_message(b"one").unwrap();
        chunk.extend(frame_message(b"two").unwrap());
        chunk.extend(frame_message(b"three").unwrap());
        assert_eq!(
            frames(&chunk),
            (vec![&b"one"[..], &b"two"[..], &b"three"[..]], 0)
        );
    }

    #[test]
    fn empty_frame_allowed() {
        let framed = frame_message(b"").unwrap();
        assert_eq!(frames(&framed), (vec![&b""[..]], 0));
    }

    #[test]
    fn split_across_chunks() {
        let framed = frame_message(&[7u8; 1000]).unwrap();
        assert_eq!(frames(&framed[..500]), (vec![], 500));
        assert_eq!(frames(&framed).0[0].len(), 1000);
    }

    #[test]
    fn oversized_rejected() {
        let big = vec![0u8; MAX_FRAME + 1];
        assert!(frame_message(&big).is_err());
        assert!(frame_message(&big[..MAX_FRAME]).is_ok());
    }
}
