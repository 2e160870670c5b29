//! A pipelined RPBS client: the load generator's side of the wire.
//!
//! One generator thread drives every connection. Requests are appended
//! to a per-connection write buffer and flushed in one `write_all`, so a
//! burst of requests reaches the shard in one readiness event; replies
//! are read only when `serve::reactor::Poller` reports the socket
//! readable, so the thread sleeps in `epoll_wait` instead of spinning on
//! the cores the server needs.

use serve::reactor::{self, Event, Interest, Poller};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One binary-mode connection with buffered, pipelined frames.
pub struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    rpos: usize,
    scratch: Box<[u8]>,
    wbuf: Vec<u8>,
}

impl Conn {
    /// Connects and sends the binary-mode handshake.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&serve::protocol::HANDSHAKE)?;
        Ok(Conn {
            stream,
            rbuf: Vec::with_capacity(1 << 16),
            rpos: 0,
            scratch: vec![0; 1 << 16].into_boxed_slice(),
            wbuf: Vec::with_capacity(1 << 16),
        })
    }

    /// Appends one length-prefixed request frame to the write buffer.
    pub fn queue(&mut self, payload: &[u8]) {
        let len = u32::try_from(payload.len()).expect("request frame fits u32");
        self.wbuf.extend_from_slice(&len.to_le_bytes());
        self.wbuf.extend_from_slice(payload);
    }

    /// Writes every queued frame.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if !self.wbuf.is_empty() {
            self.stream.write_all(&self.wbuf)?;
            self.wbuf.clear();
        }
        Ok(())
    }

    /// Reads what the socket holds (one `read`; call after a readiness
    /// event). Returns `false` when the peer closed the connection.
    pub fn fill(&mut self) -> std::io::Result<bool> {
        if self.rpos > 0 {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
        match self.stream.read(&mut self.scratch) {
            Ok(n) => {
                self.rbuf.extend_from_slice(&self.scratch[..n]);
                Ok(n > 0)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(true),
            Err(e) => Err(e),
        }
    }

    /// The next complete reply frame's payload, if buffered.
    pub fn next_frame(&mut self) -> Option<&[u8]> {
        let avail = &self.rbuf[self.rpos..];
        if avail.len() < 4 {
            return None;
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("four bytes")) as usize;
        if avail.len() < 4 + len {
            return None;
        }
        let start = self.rpos + 4;
        self.rpos = start + len;
        Some(&self.rbuf[start..start + len])
    }

    /// Sends one request and blocks for its reply (set-up and tear-down
    /// only; the timed phases pipeline).
    pub fn round_trip(&mut self, payload: &[u8]) -> std::io::Result<Vec<u8>> {
        self.queue(payload);
        self.flush()?;
        loop {
            if let Some(frame) = self.next_frame() {
                return Ok(frame.to_vec());
            }
            if !self.fill()? {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
        }
    }
}

/// Readiness over a fixed set of connections, token = index.
pub struct Readiness {
    poller: Poller,
    events: Vec<Event>,
}

impl Readiness {
    pub fn new(conns: &[Conn]) -> std::io::Result<Readiness> {
        let mut poller = Poller::new()?;
        for (i, c) in conns.iter().enumerate() {
            poller.add(reactor::stream_fd(&c.stream), i, Interest::READ)?;
        }
        Ok(Readiness {
            poller,
            events: Vec::with_capacity(conns.len()),
        })
    }

    /// Waits up to `timeout` and returns the indices of readable
    /// connections.
    pub fn wait(&mut self, timeout: Duration) -> std::io::Result<Vec<usize>> {
        self.events.clear();
        self.poller.wait(&mut self.events, Some(timeout))?;
        Ok(self
            .events
            .iter()
            .filter(|e| e.readable || e.hangup)
            .map(|e| e.token)
            .collect())
    }
}

/// Wire code of an `ok` reply's status byte.
pub const STATUS_OK: u8 = 0;
