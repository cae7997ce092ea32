//! A small blocking HTTP/1.1 client for the benchmark: one keep-alive
//! connection, `Content-Length` request bodies, fixed or chunked response
//! bodies. It reconnects when the server ends a connection (its
//! keep-alive budget ran out, or it answered `Connection: close`) and
//! retries a request once when a reused connection turns out to be dead
//! before any response byte arrived.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long one request may take before it counts as a timeout.
const TIMEOUT: Duration = Duration::from_secs(60);

/// One complete response.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes (de-chunked).
    pub body: Vec<u8>,
    /// When the first body byte arrived; `None` for an empty body.
    pub first_byte: Option<Instant>,
}

impl Response {
    /// The body as text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A keep-alive client bound to one server address.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// Connections opened, the first one included.
    pub connects: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            connects: 0,
        }
    }

    fn connect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect_timeout(&self.addr, TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        self.conn = Some(BufReader::with_capacity(64 * 1024, stream));
        self.connects += 1;
        Ok(())
    }

    /// Sends one request and reads the whole response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let reused = self.conn.is_some();
        match self.try_request(method, path, body) {
            Ok(resp) => Ok(resp),
            // A kept-alive connection the server already closed fails
            // before the first response byte; the request was never
            // processed, so retrying on a fresh connection is safe.
            Err(Failure::Stale(_)) if reused => {
                self.conn = None;
                self.try_request(method, path, body).map_err(|e| {
                    self.conn = None;
                    e.into_inner()
                })
            }
            Err(e) => {
                self.conn = None;
                Err(e.into_inner())
            }
        }
    }

    fn try_request(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Response, Failure> {
        if self.conn.is_none() {
            self.connect().map_err(Failure::Hard)?;
        }
        let conn = self.conn.as_mut().expect("connected above");
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        )
        .into_bytes();
        head.extend_from_slice(body);
        conn.get_mut().write_all(&head).map_err(Failure::classify)?;
        if conn.fill_buf().map_err(Failure::classify)?.is_empty() {
            return Err(Failure::Stale(io::ErrorKind::UnexpectedEof.into()));
        }
        let (resp, close) = read_response(conn).map_err(Failure::Hard)?;
        if close {
            self.conn = None;
        }
        Ok(resp)
    }
}

/// Why a request attempt failed: before any response byte arrived on a
/// connection the peer had closed (`Stale`), or otherwise.
enum Failure {
    Stale(io::Error),
    Hard(io::Error),
}

impl Failure {
    fn classify(e: io::Error) -> Failure {
        if is_stale(&e) {
            Failure::Stale(e)
        } else {
            Failure::Hard(e)
        }
    }

    fn into_inner(self) -> io::Error {
        match self {
            Failure::Stale(e) | Failure::Hard(e) => e,
        }
    }
}

fn is_stale(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

fn read_line<R: BufRead>(r: &mut R, line: &mut String) -> io::Result<()> {
    line.clear();
    if r.read_line(line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    Ok(())
}

/// Reads one response; the flag is `true` when the connection must not
/// be reused (`Connection: close`).
pub fn read_response<R: BufRead>(r: &mut R) -> io::Result<(Response, bool)> {
    let mut line = String::new();
    read_line(r, &mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(&format!("bad status line {line:?}")))?;
    let mut length: Option<usize> = None;
    let mut chunked = false;
    let mut close = false;
    loop {
        read_line(r, &mut line)?;
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        let Some((name, value)) = h.split_once(':') else {
            return Err(bad(&format!("bad header {h:?}")));
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                length = Some(value.parse().map_err(|_| bad("bad Content-Length"))?);
            }
            "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
            "connection" => close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let mut first_byte = None;
    let body = if chunked {
        read_chunked(r, &mut first_byte)?
    } else {
        let n = length.ok_or_else(|| bad("response without length"))?;
        let mut body = vec![0; n];
        if n > 0 {
            r.read_exact(&mut body[..1])?;
            first_byte = Some(Instant::now());
            r.read_exact(&mut body[1..])?;
        }
        body
    };
    Ok((
        Response {
            status,
            body,
            first_byte,
        },
        close,
    ))
}

/// Decodes a chunked body, noting when its first data byte arrived.
pub fn read_chunked<R: BufRead>(
    r: &mut R,
    first_byte: &mut Option<Instant>,
) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    let mut line = String::new();
    loop {
        read_line(r, &mut line)?;
        let size_text = line.trim_end().split(';').next().unwrap_or("");
        let size = usize::from_str_radix(size_text.trim(), 16)
            .map_err(|_| bad(&format!("bad chunk size {line:?}")))?;
        if size == 0 {
            // Trailers (none expected) up to the blank line.
            loop {
                read_line(r, &mut line)?;
                if line.trim_end().is_empty() {
                    return Ok(body);
                }
            }
        }
        let start = body.len();
        body.resize(start + size, 0);
        r.read_exact(&mut body[start..start + 1])?;
        first_byte.get_or_insert_with(Instant::now);
        r.read_exact(&mut body[start + 1..])?;
        let mut crlf = [0u8; 2];
        r.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(bad("chunk not followed by CRLF"));
        }
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

/// The unsigned integer in field `key` of a flat JSON answer, such as the
/// `id` of a `POST /query` or the `rows` of a write acknowledgement.
pub fn json_uint(body: &str, key: &str) -> Option<u64> {
    let pattern = format!("\"{key}\":");
    let rest = &body[body.find(&pattern)? + pattern.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Cursor, Read};
    use std::net::TcpListener;

    #[test]
    fn chunked_body_is_decoded_across_chunks() {
        let wire =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n\
                     4\r\n1,2\n\r\na;ext=1\r\n3,4\n5,6\n77\r\n0\r\n\r\nNEXT";
        let mut r = Cursor::new(&wire[..]);
        let (resp, close) = read_response(&mut r).unwrap();
        assert_eq!(resp.status, 200);
        assert!(!close);
        assert_eq!(resp.body, b"1,2\n3,4\n5,6\n77");
        assert!(resp.first_byte.is_some());
        // The stream is positioned at the next response.
        let mut rest = String::new();
        r.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "NEXT");
    }

    #[test]
    fn empty_chunked_body_has_no_first_byte() {
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n";
        let (resp, _) = read_response(&mut Cursor::new(&wire[..])).unwrap();
        assert!(resp.body.is_empty());
        assert!(resp.first_byte.is_none());
    }

    #[test]
    fn truncated_chunk_is_an_error() {
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n10\r\nshort";
        assert!(read_response(&mut Cursor::new(&wire[..])).is_err());
    }

    #[test]
    fn json_fields_are_extracted() {
        assert_eq!(json_uint("{\"id\":17,\"columns\":[\"x\"]}", "id"), Some(17));
        assert_eq!(
            json_uint("{\"relation\":\"E\",\"appended\":50,\"rows\":6050}", "rows"),
            Some(6050)
        );
        assert_eq!(json_uint("{\"error\":\"nope\"}", "id"), None);
    }

    /// A one-shot server that answers every request with `Connection:
    /// close`: the client must open a fresh connection per request.
    #[test]
    fn reconnects_after_connection_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for _ in 0..3 {
                let (stream, _) = listener.accept().unwrap();
                let mut r = BufReader::new(stream);
                let mut line = String::new();
                loop {
                    line.clear();
                    r.read_line(&mut line).unwrap();
                    if line.trim_end().is_empty() {
                        break;
                    }
                }
                r.get_mut()
                    .write_all(
                        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
                    )
                    .unwrap();
            }
        });
        let mut client = Client::new(addr);
        for _ in 0..3 {
            let resp = client.request("GET", "/healthz", b"").unwrap();
            assert_eq!(resp.body, b"ok");
        }
        assert_eq!(client.connects, 3);
        server.join().unwrap();
    }

    /// Against the real server with its default 32-request keep-alive
    /// budget: 70 requests need exactly three connections, and none
    /// fails at the budget boundary.
    #[test]
    fn reconnects_after_keep_alive_budget() {
        let cfg = wcoj_server::ServerConfig {
            bind: "127.0.0.1:0".parse().unwrap(),
            conn_threads: 1,
            ..wcoj_server::ServerConfig::default()
        };
        assert_eq!(cfg.keep_alive_max, 32);
        let server = wcoj_server::Server::start(cfg).unwrap();
        let mut client = Client::new(server.addr());
        for _ in 0..70 {
            let resp = client.request("GET", "/healthz", b"").unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body, b"ok\n");
        }
        assert_eq!(client.connects, 3);
    }
}
