//! The benchmark's own closed-loop HTTP/1.1 client: one keep-alive
//! connection, one request in flight, `Content-Length` framing only.
//!
//! Deliberately independent of the program's HTTP code, so the
//! benchmark does not change when the code it measures does.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest response the client accepts.
const MAX_BODY: usize = 64 << 20;

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A complete response: status code and body bytes.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Encode a request with a body (`Content-Length` framed, keep-alive).
pub fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        // Without this, Nagle on the client and delayed ACK on the
        // server stall every small exchange by ~40 ms.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(128 << 10),
        })
    }

    /// Send pre-encoded request bytes and read one whole response.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Response> {
        self.stream.write_all(request)?;
        self.read_response()
    }

    /// `GET path` with an empty body.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.exchange(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            if self.buf.len() > 64 << 10 {
                return Err(bad("response head over 64 KiB"));
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let len = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse::<usize>().ok())?
            })
            .ok_or_else(|| bad("no Content-Length"))?;
        if len > MAX_BODY {
            return Err(bad("response body over 64 MiB"));
        }
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        Ok(Response { status, body })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 << 10];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}
