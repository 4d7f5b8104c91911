//! A minimal blocking client for the daemon's frame protocol, shared by
//! the integration tests and perfbench's `serve_closed` workload.

use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, FrameError, Request, Response,
    ScheduleRequest,
};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Connection or framing I/O failed.
    Frame(FrameError),
    /// The daemon sent a frame that does not decode to a [`Response`].
    BadResponse,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "client framing failed: {e}"),
            ClientError::BadResponse => write!(f, "daemon sent an undecodable response"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Frame(FrameError::Io(e))
    }
}

/// One connection to the daemon (TCP or Unix socket).
pub struct ServeClient {
    stream: Stream,
}

enum Stream {
    /// TCP transport.
    Tcp(TcpStream),
    /// Unix-socket transport.
    Uds(UnixStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Uds(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Uds(s) => s.flush(),
        }
    }
}

impl ServeClient {
    /// Connects over TCP with a read timeout (so a dead daemon cannot
    /// wedge the client).
    ///
    /// # Errors
    ///
    /// Connection or socket-option I/O errors.
    pub fn connect_tcp(addr: &str, timeout: Duration) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        Ok(ServeClient { stream: Stream::Tcp(stream) })
    }

    /// Connects over a Unix socket with a read timeout.
    ///
    /// # Errors
    ///
    /// Connection or socket-option I/O errors.
    pub fn connect_uds(path: &Path, timeout: Duration) -> Result<Self, ClientError> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(timeout))?;
        Ok(ServeClient { stream: Stream::Uds(stream) })
    }

    /// Sends one request and waits for its response.
    ///
    /// # Errors
    ///
    /// Framing I/O (including read timeout) or an undecodable response.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &encode_request(req)).map_err(FrameError::Io)?;
        let payload = read_frame(&mut self.stream)?;
        decode_response(&payload).ok_or(ClientError::BadResponse)
    }

    /// Convenience wrapper for a schedule request.
    ///
    /// # Errors
    ///
    /// Same as [`Self::request`].
    pub fn schedule(&mut self, req: ScheduleRequest) -> Result<Response, ClientError> {
        self.request(&Request::Schedule(req))
    }

    /// Sends raw bytes as one frame (fault injection: malformed payloads).
    ///
    /// # Errors
    ///
    /// Underlying I/O errors.
    pub fn send_raw(&mut self, payload: &[u8]) -> Result<(), ClientError> {
        write_frame(&mut self.stream, payload).map_err(FrameError::Io)?;
        Ok(())
    }

    /// Reads one response frame without sending anything first.
    ///
    /// # Errors
    ///
    /// Same as [`Self::request`].
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        let payload = read_frame(&mut self.stream)?;
        decode_response(&payload).ok_or(ClientError::BadResponse)
    }

    /// Writes a partial (truncated) frame and stalls — fault injection for
    /// the wedged-client path. The daemon's read timeout must eventually
    /// drop this connection without affecting others.
    ///
    /// # Errors
    ///
    /// Underlying I/O errors.
    pub fn wedge(&mut self) -> Result<(), ClientError> {
        // Claim 64 bytes, send only 3.
        let prefix = 64u32.to_le_bytes();
        match &mut self.stream {
            Stream::Tcp(s) => {
                s.write_all(&prefix)?;
                s.write_all(&[1, 2, 3])?;
                s.flush()?;
            }
            Stream::Uds(s) => {
                s.write_all(&prefix)?;
                s.write_all(&[1, 2, 3])?;
                s.flush()?;
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for ServeClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.stream {
            Stream::Tcp(_) => "tcp",
            Stream::Uds(_) => "uds",
        };
        f.debug_struct("ServeClient").field("transport", &kind).finish()
    }
}
