//! Byte-level fuzzing of the HTTP request-head parser every serving
//! endpoint runs on untrusted peers.
//!
//! `read_request_head` is generic over `BufRead` + `Write`, so the
//! fuzzer drives it with in-memory buffers: arbitrary bytes, mutations
//! of well-formed heads (byte flips, insertions, deletions, oversized
//! runs), and a reader that stalls with `WouldBlock` the way a socket
//! read timeout does. Every input must satisfy the parser contract:
//!
//! * it never panics;
//! * `Some(path)` comes back only for a well-formed `GET` whose path
//!   starts with `/`, with nothing written to the peer;
//! * otherwise the peer gets exactly one complete `4xx` response, or —
//!   only when it sent nothing at all — a clean drop with no response;
//! * no line is buffered beyond `max_line_bytes + 1` bytes.

use apollo_introspect::server::{read_line_bounded, read_request_head, LineRead};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::io::{BufRead, BufReader, ErrorKind, Read};

/// Line cap used by every property (small, so oversized lines are
/// common in random input).
const CAP: usize = 48;

/// Well-formed request heads the mutation strategy starts from.
const HEADS: [&str; 4] = [
    "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n",
    "GET /events HTTP/1.0\r\n\r\n",
    "POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    "GET /cores/c0-dhrystone/metrics HTTP/1.1\n\n",
];

/// A peer: hands out at most `chunk` bytes per read and, once `stall`
/// bytes were read, fails with `WouldBlock` like a timed-out socket.
struct Peer {
    data: Vec<u8>,
    pos: usize,
    chunk: usize,
    stall: Option<usize>,
}

impl Read for Peer {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let end = self.stall.unwrap_or(usize::MAX).min(self.data.len());
        if self.pos >= end && self.stall.is_some_and(|s| s <= self.data.len()) {
            return Err(ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(self.chunk).min(end - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A `BufRead` wrapper that records the longest run of consumed bytes
/// without a `\n` — the most the parser ever buffered for one line.
struct Tracked<R> {
    inner: R,
    consumed: Vec<u8>,
}

impl<R: BufRead> Tracked<R> {
    fn longest_line(&self) -> usize {
        self.consumed.split(|&b| b == b'\n').map(<[u8]>::len).max().unwrap_or(0)
    }
}

impl<R: BufRead> Read for Tracked<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.consumed.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

impl<R: BufRead> BufRead for Tracked<R> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        if amt > 0 {
            if let Ok(buf) = self.inner.fill_buf() {
                self.consumed.extend_from_slice(&buf[..amt.min(buf.len())]);
            }
        }
        self.inner.consume(amt);
    }
}

/// Parses `out` as exactly one complete HTTP response and returns its
/// status code.
fn one_response(out: &[u8]) -> Result<u16, String> {
    let text = std::str::from_utf8(out).map_err(|e| format!("non-UTF-8 response: {e}"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("no end of head in {text:?}"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|s| s.get(..3))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let length: usize = lines
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no Content-Length in {head:?}"))?;
    if body.len() != length {
        return Err(format!("body is {} bytes, Content-Length {length}", body.len()));
    }
    Ok(status)
}

/// The request line the parser saw: bytes up to the first `\n`.
fn first_line(data: &[u8]) -> String {
    let line = data.split(|&b| b == b'\n').next().unwrap_or_default();
    String::from_utf8_lossy(line).trim_end_matches('\r').to_owned()
}

/// Runs the parser on one peer and checks the whole contract.
fn check(data: &[u8], chunk: usize, stall: Option<usize>) -> Result<(), TestCaseError> {
    let peer = Peer {
        data: data.to_vec(),
        pos: 0,
        chunk: chunk.max(1),
        stall,
    };
    let mut reader = Tracked {
        inner: BufReader::with_capacity(64, peer),
        consumed: Vec::new(),
    };
    let mut out = Vec::new();
    let got = read_request_head(&mut reader, &mut out, CAP)
        .map_err(|e| TestCaseError::Fail(format!("in-memory peer cannot fail: {e}")))?;
    prop_assert!(
        reader.longest_line() <= CAP + 1,
        "buffered a {}-byte line past the {CAP}-byte cap",
        reader.longest_line()
    );
    match got {
        Some(path) => {
            prop_assert!(out.is_empty(), "answered and accepted at once");
            let line = first_line(data);
            let parts: Vec<&str> = line.split_whitespace().collect();
            prop_assert!(parts.len() >= 3, "accepted {line:?}");
            prop_assert_eq!(parts[0], "GET");
            prop_assert_eq!(parts[1], path.as_str());
            prop_assert!(path.starts_with('/') && parts[2].starts_with("HTTP/"));
        }
        None if out.is_empty() => {
            let silent = data.is_empty() && stall.is_none_or(|s| s > 0);
            prop_assert!(silent, "dropped a peer that sent {} bytes unanswered", data.len());
        }
        None => {
            let status = one_response(&out).map_err(TestCaseError::Fail)?;
            prop_assert!(
                [400, 405, 408].contains(&status),
                "unexpected status {status}"
            );
            prop_assert!(status != 408 || stall.is_some(), "408 without a stall");
        }
    }
    Ok(())
}

/// One mutation of a byte string: replace, insert, delete, or insert
/// an oversized run.
fn mutate(mut data: Vec<u8>, edits: &[(usize, u8, u8)]) -> Vec<u8> {
    for &(pos, byte, op) in edits {
        let at = if data.is_empty() { 0 } else { pos % (data.len() + 1) };
        match op % 4 {
            0 if at < data.len() => data[at] = byte,
            1 => data.insert(at, byte),
            2 if at < data.len() => {
                data.remove(at);
            }
            3 => {
                data.splice(at..at, std::iter::repeat_n(byte, CAP + 8));
            }
            _ => {}
        }
    }
    data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, delivered in arbitrary chunk sizes.
    #[test]
    fn arbitrary_bytes_meet_the_contract(
        data in prop::collection::vec(any::<u8>(), 0..240),
        chunk in 1usize..40,
    ) {
        check(&data, chunk, None)?;
    }

    /// Well-formed heads with random byte edits: near-valid input is
    /// where a parser accepts what it should reject.
    #[test]
    fn mutated_heads_meet_the_contract(
        head in 0usize..HEADS.len(),
        edits in prop::collection::vec((any::<usize>(), any::<u8>(), any::<u8>()), 0..6),
        chunk in 1usize..40,
    ) {
        check(&mutate(HEADS[head].as_bytes().to_vec(), &edits), chunk, None)?;
    }

    /// Peers that stall mid-head (a `WouldBlock` read, as a socket
    /// timeout reports it) get a complete `408`, never a panic or a
    /// half-written answer.
    #[test]
    fn stalled_peers_meet_the_contract(
        head in 0usize..HEADS.len(),
        edits in prop::collection::vec((any::<usize>(), any::<u8>(), any::<u8>()), 0..3),
        chunk in 1usize..40,
        stall in any::<usize>(),
    ) {
        let data = mutate(HEADS[head].as_bytes().to_vec(), &edits);
        let stall = stall % (data.len() + 1);
        check(&data, chunk, Some(stall))?;
    }

    /// Each bounded line read consumes at most `cap + 1` bytes, and an
    /// `Oversize` verdict means exactly `cap + 1` bytes with no `\n`.
    #[test]
    fn bounded_lines_never_buffer_past_the_cap(
        data in prop::collection::vec(prop::sample::select(vec![b'a', b'\n', b'\r', 0xff]), 0..400),
        cap in 1usize..64,
    ) {
        let mut reader = std::io::Cursor::new(data.clone());
        loop {
            let before = reader.position() as usize;
            let res = read_line_bounded(&mut reader, cap).unwrap();
            let took = reader.position() as usize - before;
            prop_assert!(took <= cap + 1, "took {took} bytes with cap {cap}");
            match res {
                LineRead::Eof => {
                    prop_assert_eq!(before, data.len());
                    break;
                }
                LineRead::Oversize => {
                    prop_assert_eq!(took, cap + 1);
                    prop_assert!(!data[before..before + took].contains(&b'\n'));
                }
                LineRead::Line(_) => {}
            }
        }
    }
}

#[test]
fn well_formed_get_is_accepted_and_post_is_405() {
    check(HEADS[0].as_bytes(), 7, None).unwrap();
    let mut out = Vec::new();
    let got = read_request_head(&mut HEADS[0].as_bytes(), &mut out, CAP).unwrap();
    assert_eq!(got.as_deref(), Some("/metrics"));
    let got = read_request_head(&mut HEADS[2].as_bytes(), &mut out, CAP).unwrap();
    assert_eq!(got, None);
    assert_eq!(one_response(&out), Ok(405));
}
