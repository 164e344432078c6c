//! A small abstraction over the two stream kinds the server speaks:
//! TCP sockets and unix-domain sockets.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// One accepted (or dialed) connection, TCP or unix-domain.
pub(crate) enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    /// Bound how long a blocking `read` may wait, so idle handler
    /// threads periodically come up for air and observe shutdown.
    pub(crate) fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(dur),
            Conn::Unix(s) => s.set_read_timeout(dur),
        }
    }

    /// Switch the socket between blocking and non-blocking reads. The
    /// server flips it for one read to check for an inbound `Cancel`
    /// without waiting.
    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nonblocking(nonblocking),
            Conn::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// A second handle on the same socket. The client reads through one
    /// handle and writes (and shuts down) through the other.
    pub(crate) fn try_clone(&self) -> std::io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    /// Half/full-close the connection. Used by the client to abandon a
    /// stream mid-flight: the server's next write fails, dropping its
    /// cursor and stopping the raw scan early.
    pub(crate) fn shutdown(&self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}
