//! Minimal std-only HTTP/1.1 framing shared by the telemetry endpoint
//! ([`crate::serve`]) and the `rckt-serve` inference service: one request
//! per connection, `Content-Length` bodies, `Connection: close`, no TLS.
//! Ambiguous framing is a [`ReadError::Malformed`]: a repeated or
//! non-digit `Content-Length`, any `Transfer-Encoding`, or whitespace
//! before a header's colon.
//!
//! [`read_request`] sets no socket timeouts; each caller sets its own on
//! the stream before calling it.

use std::io::{Read as _, Write as _};
use std::net::{Shutdown, TcpStream};

/// Cap on the header block; a client exceeding it gets a 400.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Cap on request bodies; micro-batch bodies are small JSON documents.
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// One parsed request: method, path (query string stripped), headers
/// (names lowercased), raw body.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, looked up case-insensitively (names are
    /// stored lowercased at parse time).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Errors surfaced to the client as a 400 before any routing happens.
#[derive(Debug)]
pub enum ReadError {
    Io(std::io::Error),
    TooLarge,
    Malformed(&'static str),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
            ReadError::TooLarge => write!(f, "request too large"),
            ReadError::Malformed(what) => write!(f, "malformed request: {what}"),
        }
    }
}

/// Read one HTTP/1.1 request (header block + `Content-Length` body).
pub fn read_request(stream: &mut TcpStream) -> Result<Request, ReadError> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    // Bytes already scanned for the header terminator. Rewound by 3 on
    // every new chunk in case `\r\n\r\n` straddles the chunk boundary, so
    // a slow client trickling bytes costs O(n) total, not O(n²).
    let mut scanned = 0usize;
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf, scanned) {
            break pos;
        }
        scanned = buf.len().saturating_sub(3);
        if buf.len() > MAX_HEADER_BYTES {
            return Err(ReadError::TooLarge);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(ReadError::Malformed("connection closed mid-headers")),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(ReadError::Io(e)),
        }
    };

    let head = String::from_utf8_lossy(&buf[..header_end]).to_string();
    let mut lines = head.lines();
    let mut first = lines.next().unwrap_or("").split_whitespace();
    let method = first
        .next()
        .ok_or(ReadError::Malformed("missing method"))?
        .to_string();
    let path = first
        .next()
        .ok_or(ReadError::Malformed("missing path"))?
        .split('?')
        .next()
        .unwrap_or("")
        .to_string();

    let mut content_length: Option<usize> = None;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            // RFC 9112 §5.1: a server must reject whitespace between a
            // header name and its colon rather than guess the name.
            if name.ends_with([' ', '\t']) {
                return Err(ReadError::Malformed("whitespace before header colon"));
            }
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            // Bodies are framed by Content-Length alone, so a chunked body
            // would be read as empty or as its first Content-Length bytes
            // while another parser frames it differently: refused, like a
            // duplicate Content-Length below.
            if name == "transfer-encoding" {
                return Err(ReadError::Malformed("Transfer-Encoding not supported"));
            }
            if name == "content-length" {
                // A repeated Content-Length — even one agreeing with the
                // first — is rejected outright: it is the header a
                // request-smuggling attack equivocates on, and honoring
                // "last one wins" silently would let two parsers read two
                // different bodies from the same bytes.
                if content_length.is_some() {
                    return Err(ReadError::Malformed("duplicate Content-Length"));
                }
                // Digits only: `usize::from_str` would also take a `+`.
                content_length = match value.parse() {
                    Ok(n) if value.bytes().all(|b| b.is_ascii_digit()) => Some(n),
                    _ => return Err(ReadError::Malformed("bad Content-Length")),
                };
            }
            headers.push((name, value));
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::TooLarge);
    }

    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(ReadError::Malformed("connection closed mid-body")),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    body.truncate(content_length);
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Find `\r\n\r\n` at or after `from`, returning its offset in `buf`.
fn find_header_end(buf: &[u8], from: usize) -> Option<usize> {
    let from = from.min(buf.len());
    buf[from..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + from)
}

/// Write a complete response and close the connection. `extra_headers`
/// lets handlers attach e.g. `Retry-After` on a 503.
pub fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) {
    let mut headers = String::new();
    for (k, v) in extra_headers {
        headers.push_str(&format!("{k}: {v}\r\n"));
    }
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{headers}Connection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn roundtrip(raw: &[u8]) -> Result<Request, ReadError> {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = listener.local_addr().unwrap().port();
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
            s.write_all(&raw).unwrap();
            let _ = s.shutdown(Shutdown::Write);
            s
        });
        let (mut server_side, _) = listener.accept().unwrap();
        let req = read_request(&mut server_side);
        let _ = client.join();
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req = roundtrip(
            b"POST /predict?x=1 HTTP/1.1\r\nHost: l\r\nContent-Length: 11\r\n\r\nhello world",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/predict");
        assert_eq!(req.body, b"hello world");
        assert_eq!(req.header("Host"), Some("l"));
        assert_eq!(req.header("content-length"), Some("11"));
        assert_eq!(req.header("x-request-id"), None);
    }

    #[test]
    fn header_lookup_is_case_insensitive_and_trimmed() {
        let req =
            roundtrip(b"POST /p HTTP/1.1\r\nX-Request-Id:  abc-123 \r\nContent-Length: 0\r\n\r\n")
                .unwrap();
        assert_eq!(req.header("X-REQUEST-ID"), Some("abc-123"));
        assert_eq!(req.header("x-request-id"), Some("abc-123"));
    }

    #[test]
    fn parses_get_without_body() {
        let req = roundtrip(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn body_split_across_header_read_is_kept() {
        // Entire request arrives in one packet: body bytes already sit in
        // the header buffer and must not be lost.
        let req = roundtrip(b"POST /p HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn rejects_bad_content_length() {
        assert!(matches!(
            roundtrip(b"POST /p HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_duplicate_and_conflicting_content_length() {
        // Conflicting values: two parsers could disagree on where the
        // body ends (request smuggling); must be a parse error, not
        // last-one-wins.
        assert!(matches!(
            roundtrip(b"POST /p HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 11\r\n\r\nabcd"),
            Err(ReadError::Malformed("duplicate Content-Length"))
        ));
        // Even agreeing duplicates are rejected.
        assert!(matches!(
            roundtrip(b"POST /p HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd"),
            Err(ReadError::Malformed("duplicate Content-Length"))
        ));
        // Case variants are the same header.
        assert!(matches!(
            roundtrip(b"POST /p HTTP/1.1\r\ncontent-length: 4\r\nCONTENT-LENGTH: 4\r\n\r\nabcd"),
            Err(ReadError::Malformed("duplicate Content-Length"))
        ));
    }

    #[test]
    fn rejects_signed_content_length() {
        assert!(matches!(
            roundtrip(b"POST /p HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello"),
            Err(ReadError::Malformed("bad Content-Length"))
        ));
    }

    #[test]
    fn rejects_any_transfer_encoding() {
        // A chunked body must not be read as empty, nor as its first
        // Content-Length bytes.
        for raw in [
            &b"POST /p HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"[..],
            b"POST /p HTTP/1.1\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
            b"POST /p HTTP/1.1\r\ntransfer-encoding: identity\r\nContent-Length: 5\r\n\r\nhello",
        ] {
            assert!(matches!(
                roundtrip(raw),
                Err(ReadError::Malformed("Transfer-Encoding not supported"))
            ));
        }
    }

    #[test]
    fn rejects_whitespace_before_header_colon() {
        for raw in [
            &b"POST /p HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello"[..],
            b"POST /p HTTP/1.1\r\nContent-Length\t: 5\r\n\r\nhello",
        ] {
            assert!(matches!(
                roundtrip(raw),
                Err(ReadError::Malformed("whitespace before header colon"))
            ));
        }
    }

    #[test]
    fn slow_client_trickling_header_bytes_parses() {
        // One byte per write, with the terminator split across writes:
        // exercises the incremental `find_header_end` resume-from-len-3
        // path rather than the single-packet fast path.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = listener.local_addr().unwrap().port();
        let raw: &[u8] = b"POST /slow HTTP/1.1\r\nContent-Length: 5\r\nX-Drip: 1\r\n\r\nhello";
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
            for b in raw {
                s.write_all(std::slice::from_ref(b)).unwrap();
                s.flush().unwrap();
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            let _ = s.shutdown(Shutdown::Write);
            s
        });
        let (mut server_side, _) = listener.accept().unwrap();
        let req = read_request(&mut server_side).unwrap();
        let _ = client.join();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/slow");
        assert_eq!(req.header("x-drip"), Some("1"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn find_header_end_resumes_mid_terminator() {
        let buf = b"abc\r\n\r\nrest";
        // Scanning from any offset at or before the terminator finds it.
        for from in 0..=3 {
            assert_eq!(find_header_end(buf, from), Some(3), "from={from}");
        }
        // Scanning from past it does not.
        assert_eq!(find_header_end(buf, 4), None);
        // `from` beyond the buffer is clamped, not a panic.
        assert_eq!(find_header_end(b"ab", 10), None);
    }
}
