//! Blocking frame client over `std::net::TcpStream` — the load-generator
//! side of the protocol. The server side never uses this module; it lives
//! here so the TCP loadgen, the chaos injector and the tests all speak
//! the exact same frames through one implementation.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::error::NetError;
use crate::frame::{Frame, FrameDecoder};

/// One client connection with an incremental decoder for responses.
#[derive(Debug)]
pub struct FrameClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    buf: Vec<u8>,
}

impl FrameClient {
    /// Connects to the reactor on loopback.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] on connect/option failures.
    pub fn connect(port: u16, read_timeout: Duration) -> Result<FrameClient, NetError> {
        let stream = TcpStream::connect(("127.0.0.1", port)).map_err(NetError::io("connect"))?;
        stream.set_nodelay(true).map_err(NetError::io("nodelay"))?;
        stream
            .set_read_timeout(Some(read_timeout))
            .map_err(NetError::io("read_timeout"))?;
        Ok(FrameClient {
            stream,
            decoder: FrameDecoder::new(),
            buf: vec![0u8; 64 * 1024],
        })
    }

    /// Connects with `SO_RCVBUF` capped *before* the TCP handshake, so
    /// the advertised receive window stays small. A client built this
    /// way that never reads models a slow reader: the server's replies
    /// back up in its own outbox instead of vanishing into kernel
    /// buffers. Used by the slow-reader chaos fault.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] on connect/option failures.
    pub fn connect_with_rcvbuf(
        port: u16,
        read_timeout: Duration,
        rcvbuf: usize,
    ) -> Result<FrameClient, NetError> {
        let stream =
            crate::sys::connect_tcp_rcvbuf(port, rcvbuf).map_err(NetError::io("connect"))?;
        stream.set_nodelay(true).map_err(NetError::io("nodelay"))?;
        stream
            .set_read_timeout(Some(read_timeout))
            .map_err(NetError::io("read_timeout"))?;
        Ok(FrameClient {
            stream,
            decoder: FrameDecoder::new(),
            buf: vec![0u8; 64 * 1024],
        })
    }

    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the write fails (peer gone).
    pub fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        self.stream
            .write_all(&frame.encode())
            .map_err(NetError::io("send"))
    }

    /// Sends raw pre-encoded bytes — the chaos injector uses this to put
    /// deliberately malformed or truncated data on the wire.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the write fails.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        self.stream
            .write_all(bytes)
            .map_err(NetError::io("send_raw"))
    }

    /// Receives the next frame, blocking up to the connect-time read
    /// timeout per read.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] on EOF, [`NetError::Frame`] on malformed
    /// bytes, [`NetError::Io`] on timeout or socket failure.
    pub fn recv(&mut self) -> Result<Frame, NetError> {
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(frame);
            }
            let n = self
                .stream
                .read(&mut self.buf)
                .map_err(NetError::io("recv"))?;
            if n == 0 {
                return Err(NetError::Closed);
            }
            self.decoder.push(&self.buf[..n]);
        }
    }

    /// Shuts down the write half so the server sees a clean EOF while
    /// responses can still drain. Used by disconnect-fault injection.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the socket refuses the shutdown.
    pub fn shutdown_write(&mut self) -> Result<(), NetError> {
        self.stream
            .shutdown(std::net::Shutdown::Write)
            .map_err(NetError::io("shutdown"))
    }
}
