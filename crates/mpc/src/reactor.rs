//! Nonblocking framed-TCP primitives — the readiness seam under the
//! serving gateway's poll-based event loop (`blindfl::gateway`).
//!
//! The blocking [`crate::transport::Endpoint`] owns one thread per
//! link; a gateway multiplexing hundreds of client connections cannot
//! afford that, so this module speaks the same byte-exact frame codec
//! ([`crate::wire`], `docs/WIRE_PROTOCOL.md`) over *nonblocking*
//! sockets instead:
//!
//! * [`FrameAcceptor`] — a nonblocking listener whose
//!   [`FrameAcceptor::try_accept`] never parks the event loop;
//! * [`FrameConn`] — one nonblocking connection with explicit read
//!   and write staging buffers: [`FrameConn::try_recv`] returns a
//!   complete decoded [`Msg`] or `None` (frame still in flight) and
//!   refuses a header claiming more payload than the connection's
//!   owner accepts before buffering any of it,
//!   [`FrameConn::enqueue`] serializes a reply into the write buffer,
//!   and [`FrameConn::try_flush`] drains as much as the socket will
//!   take without blocking.
//!
//! No epoll/kqueue binding is vendored: the gateway's connection
//! counts (hundreds, not hundreds of thousands) are comfortably
//! served by a level-triggered scan over nonblocking sockets with a
//! short idle sleep, which keeps this crate std-only. The seam to a
//! real readiness API is confined to the two `try_*` entry points.
//!
//! Interop is total: a [`FrameConn`] peer can be a plain blocking
//! [`crate::transport::Endpoint`] — same magic, same version byte,
//! same per-kind payloads (the unit tests pin this).

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

use crate::transport::{Msg, TransportError, TransportResult};
use crate::wire::{self, HEADER_LEN};

/// How many bytes one nonblocking `read` call pulls at most.
const READ_CHUNK: usize = 64 * 1024;

/// A nonblocking TCP listener producing [`FrameConn`]s.
pub struct FrameAcceptor {
    listener: TcpListener,
    max_payload: u32,
}

impl FrameAcceptor {
    /// Wrap an existing listener, switching it to nonblocking mode.
    /// Every accepted connection refuses a frame whose payload exceeds
    /// `max_payload` bytes (see [`FrameConn::from_stream`]).
    pub fn from_listener(
        listener: TcpListener,
        max_payload: u32,
    ) -> TransportResult<FrameAcceptor> {
        listener.set_nonblocking(true)?;
        Ok(FrameAcceptor {
            listener,
            max_payload,
        })
    }

    /// The bound address (port 0 resolves to the assigned port).
    pub fn local_addr(&self) -> TransportResult<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// Accept one pending connection, or `None` if none is waiting.
    /// Never blocks.
    pub fn try_accept(&self) -> TransportResult<Option<FrameConn>> {
        match self.listener.accept() {
            Ok((stream, _)) => Ok(Some(FrameConn::from_stream(stream, self.max_payload)?)),
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

/// One nonblocking framed connection with explicit staging buffers.
///
/// Read side: bytes accumulate in an internal buffer until a complete
/// frame (header + payload) is present, then decode; a header claiming
/// more than the connection's `max_payload` is refused as soon as it
/// arrives, so a peer can make this end buffer at most that much per
/// frame. Write side:
/// [`FrameConn::enqueue`] serializes eagerly, [`FrameConn::try_flush`]
/// drains opportunistically — the caller bounds memory by checking
/// [`FrameConn::pending_out`] before enqueuing more.
pub struct FrameConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    eof: bool,
    max_payload: u32,
}

impl FrameConn {
    /// Wrap an accepted stream, switching it to nonblocking + nodelay.
    /// `max_payload` is the largest frame payload the owner accepts: a
    /// header claiming more (or more than [`wire::MAX_PAYLOAD`]) is
    /// answered with [`wire::WireError::OversizedPayload`] before any
    /// payload byte is read.
    pub fn from_stream(stream: TcpStream, max_payload: u32) -> TransportResult<FrameConn> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(FrameConn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            eof: false,
            max_payload,
        })
    }

    /// Decode one message if a complete frame is buffered or readable
    /// right now; `None` means "no complete frame yet, try later".
    /// A peer that closed the connection (with no partial frame
    /// pending) surfaces as [`TransportError::Disconnected`].
    pub fn try_recv(&mut self) -> TransportResult<Option<Msg>> {
        loop {
            if let Some(msg) = self.parse_frame()? {
                return Ok(Some(msg));
            }
            if self.eof {
                // No complete frame can ever arrive. A clean close on
                // a frame boundary and a mid-frame cut are both
                // "peer is gone" to the event loop.
                return Err(TransportError::Disconnected);
            }
            let mut chunk = [0u8; READ_CHUNK];
            match self.stream.read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Pop one complete frame off the read buffer, if present.
    fn parse_frame(&mut self) -> TransportResult<Option<Msg>> {
        if self.rbuf.len() < HEADER_LEN {
            return Ok(None);
        }
        let header: [u8; HEADER_LEN] = self.rbuf[..HEADER_LEN].try_into().unwrap();
        let (kind, len) = wire::decode_header(&header)?;
        if len > self.max_payload {
            return Err(wire::WireError::OversizedPayload(len).into());
        }
        let total = HEADER_LEN + len as usize;
        if self.rbuf.len() < total {
            return Ok(None);
        }
        let msg = wire::decode_payload(kind, &self.rbuf[HEADER_LEN..total])?;
        self.rbuf.drain(..total);
        Ok(Some(msg))
    }

    /// Serialize `msg` into the write buffer (no I/O — call
    /// [`FrameConn::try_flush`] to drain).
    pub fn enqueue(&mut self, msg: &Msg) {
        let payload = wire::encode_payload(msg);
        self.wbuf
            .extend_from_slice(&wire::frame_header(msg, &payload));
        self.wbuf.extend_from_slice(&payload);
    }

    /// Write as much buffered output as the socket accepts without
    /// blocking. `Ok(true)` means the buffer fully drained.
    pub fn try_flush(&mut self) -> TransportResult<bool> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(TransportError::Disconnected),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
            return Ok(true);
        }
        // Compact occasionally so a slow reader cannot pin the whole
        // history of its replies in memory.
        if self.wpos > 64 * 1024 {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        Ok(false)
    }

    /// Bytes enqueued but not yet written to the socket.
    pub fn pending_out(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Endpoint;
    use std::time::{Duration, Instant};

    /// A loopback acceptor taking any frame the codec allows.
    fn acceptor() -> FrameAcceptor {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        FrameAcceptor::from_listener(listener, wire::MAX_PAYLOAD).unwrap()
    }

    /// Poll `try_recv` until a message lands (bounded).
    fn recv_blocking(conn: &mut FrameConn) -> Msg {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(m) = conn.try_recv().unwrap() {
                return m;
            }
            assert!(Instant::now() < deadline, "no frame within 10s");
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Poll `try_flush` until drained (bounded).
    fn flush_blocking(conn: &mut FrameConn) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !conn.try_flush().unwrap() {
            assert!(Instant::now() < deadline, "flush stuck for 10s");
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    #[test]
    fn interops_with_a_blocking_endpoint_peer() {
        let acceptor = acceptor();
        let addr = acceptor.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let ep = Endpoint::tcp_connect(addr).unwrap();
            ep.send(Msg::U64(7)).unwrap();
            ep.send(Msg::Support(vec![1, 2, 3])).unwrap();
            // Read the replies the nonblocking side enqueues.
            let m = ep.recv_mat().unwrap();
            assert_eq!((m.rows(), m.cols()), (1, 2));
            assert_eq!(ep.recv_u64().unwrap(), 99);
        });
        let mut conn = loop {
            if let Some(c) = acceptor.try_accept().unwrap() {
                break c;
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        assert!(matches!(recv_blocking(&mut conn), Msg::U64(7)));
        match recv_blocking(&mut conn) {
            Msg::Support(s) => assert_eq!(s, vec![1, 2, 3]),
            other => panic!("expected Support, got {:?}", other.kind()),
        }
        conn.enqueue(&Msg::Mat(bf_tensor::Dense::from_vec(
            1,
            2,
            vec![0.25, -1.5],
        )));
        conn.enqueue(&Msg::U64(99));
        assert!(conn.pending_out() > 0);
        flush_blocking(&mut conn);
        assert_eq!(conn.pending_out(), 0);
        peer.join().unwrap();
    }

    #[test]
    fn reassembles_partial_and_coalesced_frames() {
        let acceptor = acceptor();
        let addr = acceptor.local_addr().unwrap();
        let (half_sent_tx, half_sent_rx) = std::sync::mpsc::channel();
        let (resume_tx, resume_rx) = std::sync::mpsc::channel();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_nodelay(true).unwrap();
            let frame = wire::encode_frame(&Msg::Support(vec![10, 20, 30, 40]));
            // First half only, then wait for the reader to observe
            // "no complete frame yet".
            s.write_all(&frame[..5]).unwrap();
            s.flush().unwrap();
            half_sent_tx.send(()).unwrap();
            resume_rx.recv().unwrap();
            // Rest of frame 1 plus two complete frames in one write.
            let mut tail = frame[5..].to_vec();
            tail.extend_from_slice(&wire::encode_frame(&Msg::U64(1)));
            tail.extend_from_slice(&wire::encode_frame(&Msg::U64(2)));
            s.write_all(&tail).unwrap();
            s.flush().unwrap();
            s
        });
        let mut conn = loop {
            if let Some(c) = acceptor.try_accept().unwrap() {
                break c;
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        half_sent_rx.recv().unwrap();
        // Give the half-frame time to land, then confirm it does not
        // decode early.
        std::thread::sleep(Duration::from_millis(20));
        assert!(conn.try_recv().unwrap().is_none());
        resume_tx.send(()).unwrap();
        match recv_blocking(&mut conn) {
            Msg::Support(s) => assert_eq!(s, vec![10, 20, 30, 40]),
            other => panic!("expected Support, got {:?}", other.kind()),
        }
        assert!(matches!(recv_blocking(&mut conn), Msg::U64(1)));
        assert!(matches!(recv_blocking(&mut conn), Msg::U64(2)));
        let _stream = writer.join().unwrap();
    }

    #[test]
    fn rejects_oversized_and_garbage_headers() {
        let acceptor = acceptor();
        let addr = acceptor.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Valid magic/version/kind but a length past MAX_PAYLOAD.
            let len = (wire::MAX_PAYLOAD + 1).to_le_bytes();
            let hdr = [
                b'B',
                b'F',
                wire::VERSION,
                wire::KIND_U64,
                len[0],
                len[1],
                len[2],
                len[3],
            ];
            s.write_all(&hdr).unwrap();
            s.flush().unwrap();
            s
        });
        let mut conn = loop {
            if let Some(c) = acceptor.try_accept().unwrap() {
                break c;
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        let err = loop {
            match conn.try_recv() {
                Ok(None) => {
                    assert!(Instant::now() < deadline, "no error within 10s");
                    std::thread::sleep(Duration::from_micros(200));
                }
                Ok(Some(m)) => panic!("oversized frame decoded as {:?}", m.kind()),
                Err(e) => break e,
            }
        };
        assert!(matches!(
            err,
            TransportError::Wire(wire::WireError::OversizedPayload(_))
        ));
        let _stream = writer.join().unwrap();
    }

    #[test]
    fn peer_close_surfaces_as_disconnected() {
        let acceptor = acceptor();
        let addr = acceptor.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&wire::encode_frame(&Msg::U64(5))).unwrap();
            // Drop: clean close after one whole frame.
        });
        let mut conn = loop {
            if let Some(c) = acceptor.try_accept().unwrap() {
                break c;
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        writer.join().unwrap();
        assert!(matches!(recv_blocking(&mut conn), Msg::U64(5)));
        let deadline = Instant::now() + Duration::from_secs(10);
        let err = loop {
            match conn.try_recv() {
                Ok(None) => {
                    assert!(Instant::now() < deadline, "no disconnect within 10s");
                    std::thread::sleep(Duration::from_micros(200));
                }
                Ok(Some(m)) => panic!("unexpected frame {:?}", m.kind()),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, TransportError::Disconnected));
    }
}
