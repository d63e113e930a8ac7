//! The submit client: one connection, one request line, one response
//! line. `simgen submit` is a thin wrapper over [`submit`]; `simgen
//! status` wraps [`query_status`]; `simgen health` wraps
//! [`query_health`].

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

use crate::protocol::{
    health_request, parse_health_response, parse_status_response, status_request, HealthReport,
    JobRequest, StatusReport,
};

/// Reads one newline-terminated response from `r`, reassembling it
/// from however many partial reads the kernel hands back and retrying
/// reads interrupted by signals (`EINTR`).
///
/// `BufRead::read_line` would stop at the first `Interrupted` error
/// from a raw stream wrapped at the wrong layer, and a naive
/// `read`-once client drops the tail of responses larger than one
/// socket buffer; this loop handles both. EOF before any byte is an
/// error (the daemon died without answering); EOF after a partial
/// line returns what arrived — the caller's JSON parse rejects a
/// truncated response with a better message than `UnexpectedEof`.
fn read_response<R: Read>(r: &mut R) -> std::io::Result<String> {
    let mut line: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match r.read(&mut chunk) {
            Ok(0) => {
                if line.is_empty() {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "daemon closed the connection without responding",
                    ));
                }
                break;
            }
            Ok(n) => {
                if let Some(at) = chunk[..n].iter().position(|&b| b == b'\n') {
                    line.extend_from_slice(&chunk[..at]);
                    break;
                }
                line.extend_from_slice(&chunk[..n]);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    String::from_utf8(line)
        .map(|s| s.trim_end().to_string())
        .map_err(|_| std::io::Error::new(ErrorKind::InvalidData, "response is not utf-8"))
}

/// Sends one raw JSONL line to the daemon at `socket` and returns the
/// raw response line. (`write_all` already resumes after `EINTR`; the
/// read side goes through [`read_response`].)
fn send_line(socket: &Path, line: &str) -> std::io::Result<String> {
    let mut stream = UnixStream::connect(socket)?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    read_response(&mut stream)
}

/// Sends `request` to the daemon at `socket` and returns the raw
/// response line (JSON; `error` key present on failure).
///
/// # Errors
///
/// I/O errors connecting or talking to the socket; a daemon-reported
/// job failure is a *successful* submit whose response carries an
/// `error` field.
pub fn submit(socket: &Path, request: &JobRequest) -> std::io::Result<String> {
    send_line(socket, &request.to_line())
}

/// Asks the daemon at `socket` for its health snapshot.
pub fn query_status(socket: &Path) -> std::io::Result<StatusReport> {
    let line = send_line(socket, &status_request())?;
    parse_status_response(&line).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("malformed status response: {line}"),
        )
    })
}

/// Asks the daemon at `socket` for its resource-governance snapshot:
/// queue depth, breaker state, shed/cancel totals, memory headroom.
pub fn query_health(socket: &Path) -> std::io::Result<HealthReport> {
    let line = send_line(socket, &health_request())?;
    parse_health_response(&line).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("malformed health response: {line}"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that scripts what each `read` call returns: a chunk
    /// of bytes or an injected `EINTR`.
    struct Scripted {
        steps: Vec<Result<Vec<u8>, ErrorKind>>,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.steps.is_empty() {
                return Ok(0);
            }
            match self.steps.remove(0) {
                Ok(bytes) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Err(kind) => Err(std::io::Error::new(kind, "injected")),
            }
        }
    }

    #[test]
    fn partial_reads_are_reassembled_into_one_line() {
        let mut r = Scripted {
            steps: vec![
                Ok(b"{\"id\":".to_vec()),
                Ok(b"\"j1\",\"status\":".to_vec()),
                Ok(b"\"shed\"}\n".to_vec()),
            ],
        };
        assert_eq!(
            read_response(&mut r).unwrap(),
            "{\"id\":\"j1\",\"status\":\"shed\"}"
        );
    }

    #[test]
    fn interrupted_reads_are_retried_not_fatal() {
        let mut r = Scripted {
            steps: vec![
                Err(ErrorKind::Interrupted),
                Ok(b"{\"ok\":".to_vec()),
                Err(ErrorKind::Interrupted),
                Ok(b"true}\n".to_vec()),
            ],
        };
        assert_eq!(read_response(&mut r).unwrap(), "{\"ok\":true}");
    }

    #[test]
    fn reading_stops_at_the_first_newline() {
        // A second response queued behind the first must not be
        // swallowed into this read.
        let mut r = Scripted {
            steps: vec![Ok(b"first\nsecond\n".to_vec())],
        };
        assert_eq!(read_response(&mut r).unwrap(), "first");
    }

    #[test]
    fn eof_before_any_byte_is_an_error_after_a_partial_line_is_not() {
        let mut empty = Scripted { steps: vec![] };
        let err = read_response(&mut empty).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        let mut partial = Scripted {
            steps: vec![Ok(b"{\"trunc".to_vec())],
        };
        assert_eq!(read_response(&mut partial).unwrap(), "{\"trunc");
    }

    #[test]
    fn other_errors_propagate() {
        let mut r = Scripted {
            steps: vec![Ok(b"{".to_vec()), Err(ErrorKind::ConnectionReset)],
        };
        assert_eq!(
            read_response(&mut r).unwrap_err().kind(),
            ErrorKind::ConnectionReset
        );
    }
}
