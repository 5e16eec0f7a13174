//! The one buffered frame reader behind both frontends and both clients.
//!
//! A [`FrameReader`] owns a connection's socket and one read buffer for
//! the connection's whole life. Frames are taken off the front of the
//! buffer by advancing a consumed offset, so a frame costs no copy and
//! no allocation; the consumed prefix is dropped (and the unread tail
//! moved to the front) only before the next socket read. Three frame
//! shapes cover every framing the crate speaks:
//!
//! - [`FrameReader::line`] — a `\n`-terminated line (JSON-lines
//!   requests and replies, HTTP chunk-size lines and trailers);
//! - [`FrameReader::head`] — an HTTP head up to the earliest `\r\n\r\n`
//!   or lenient `\n\n`;
//! - [`FrameReader::exact`] — a fixed number of bytes (`Content-Length`
//!   bodies and chunk data).
//!
//! A server connection polls its stop flag between reads: its socket has
//! a read timeout, and a timeout is a tick, not a failure, so the
//! reader keeps partial frames across it. A client has no stop flag, and
//! any read error ends the read.

use crate::error::ServiceError;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};

/// Bytes asked of the socket per read.
const READ_CHUNK: usize = 4096;

/// Why a read ended without a frame.
pub(crate) enum Short {
    /// The peer closed the connection, or the server is stopping.
    Closed,
    /// More than the frame's limit is buffered without its terminator.
    TooLong,
    /// The socket failed.
    Failed(io::Error),
}

/// A client's read that ended early is a transport failure.
impl From<Short> for ServiceError {
    fn from(short: Short) -> Self {
        ServiceError::Transport(match short {
            Short::Closed => "server closed connection".to_string(),
            Short::TooLong => "reply frame exceeds its size limit".to_string(),
            Short::Failed(e) => e.to_string(),
        })
    }
}

/// One connection's socket and read buffer.
pub(crate) struct FrameReader<'s> {
    stream: TcpStream,
    /// Bytes read so far; `buf[start..]` is not yet consumed.
    buf: Vec<u8>,
    start: usize,
    /// The server's stop flag, polled before every read.
    stop: Option<&'s AtomicBool>,
}

impl<'s> FrameReader<'s> {
    /// A reader over `stream`; `stop` is `Some` on a server connection.
    pub(crate) fn new(stream: TcpStream, stop: Option<&'s AtomicBool>) -> Self {
        FrameReader {
            stream,
            buf: Vec::new(),
            start: 0,
            stop,
        }
    }

    /// Writes `bytes` to the connection.
    pub(crate) fn write_all(&self, bytes: &[u8]) -> io::Result<()> {
        (&self.stream).write_all(bytes)
    }

    /// The next `\n`-terminated line, without the `\n`. `TooLong` once
    /// more than `limit` bytes are buffered without one.
    pub(crate) fn line(&mut self, limit: usize) -> Result<&[u8], Short> {
        let mut scanned = 0;
        loop {
            let pending = &self.buf[self.start..];
            if let Some(i) = pending[scanned..].iter().position(|&b| b == b'\n') {
                return Ok(self.take(scanned + i, 1));
            }
            scanned = pending.len();
            if scanned > limit {
                return Err(Short::TooLong);
            }
            self.fill()?;
        }
    }

    /// The next HTTP head, without its terminator. `TooLong` once more
    /// than `limit` bytes are buffered without one.
    pub(crate) fn head(&mut self, limit: usize) -> Result<&[u8], Short> {
        let mut scanned = 0;
        loop {
            let pending = &self.buf[self.start..];
            if let Some((len, terminator)) = head_end(pending, &mut scanned) {
                return Ok(self.take(len, terminator));
            }
            if pending.len() > limit {
                return Err(Short::TooLong);
            }
            self.fill()?;
        }
    }

    /// The next `len` bytes.
    pub(crate) fn exact(&mut self, len: usize) -> Result<&[u8], Short> {
        while self.buf.len() - self.start < len {
            self.fill()?;
        }
        Ok(self.take(len, 0))
    }

    /// Consumes a frame of `len` bytes plus its `skip`-byte terminator.
    fn take(&mut self, len: usize, skip: usize) -> &[u8] {
        let frame = self.start..self.start + len;
        self.start += len + skip;
        &self.buf[frame]
    }

    /// One socket read onto the end of the buffer, after dropping the
    /// consumed prefix. A server connection's read timeout returns with
    /// nothing read, so the caller re-checks its frame and the stop flag.
    fn fill(&mut self) -> Result<(), Short> {
        if self.stop.is_some_and(|stop| stop.load(Ordering::SeqCst)) {
            return Err(Short::Closed);
        }
        self.buf.drain(..self.start);
        self.start = 0;
        let end = self.buf.len();
        self.buf.resize(end + READ_CHUNK, 0);
        let read = self.stream.read(&mut self.buf[end..]);
        self.buf.truncate(end + read.as_ref().map_or(0, |&n| n));
        match read {
            Ok(0) => Err(Short::Closed),
            Ok(_) => Ok(()),
            Err(e)
                if self.stop.is_some()
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                Ok(())
            }
            Err(e) => Err(Short::Failed(e)),
        }
    }
}

/// Finds the end of an HTTP head in `pending`: the earliest `\r\n\r\n` or
/// lenient `\n\n`, as `(head length, terminator length)`. Both contain a
/// `\n`, so one pass over the `\n`s finds either; `*scanned` keeps the
/// offset of the first `\n` whose deciding bytes have not arrived, so the
/// next call, on a longer buffer, resumes there. At a given `\n` the
/// `\r\n\r\n` starts one byte earlier than the `\n\n` would, so CRLF wins
/// a tie.
fn head_end(pending: &[u8], scanned: &mut usize) -> Option<(usize, usize)> {
    while let Some(i) = pending[*scanned..].iter().position(|&b| b == b'\n') {
        let i = *scanned + i;
        let before = i.checked_sub(1).map(|j| pending[j]);
        match (before, pending.get(i + 1), pending.get(i + 2)) {
            (Some(b'\r'), Some(b'\r'), Some(b'\n')) => return Some((i - 1, 4)),
            (_, Some(b'\n'), _) => return Some((i, 2)),
            // The bytes that decide this `\n` are still to come.
            (Some(b'\r'), Some(b'\r'), None) | (_, None, _) => {
                *scanned = i;
                return None;
            }
            _ => *scanned = i + 1,
        }
    }
    *scanned = pending.len();
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two-search rule the resumable scan replaces: find each
    /// terminator over the whole buffer, earliest start wins, CRLF on a
    /// tie.
    fn two_searches(buf: &[u8]) -> Option<(usize, usize)> {
        let find = |needle: &[u8]| buf.windows(needle.len()).position(|w| w == needle);
        match (find(b"\r\n\r\n"), find(b"\n\n")) {
            (Some(c), Some(l)) if c <= l => Some((c, 4)),
            (_, Some(l)) => Some((l, 2)),
            (Some(c), None) => Some((c, 4)),
            (None, None) => None,
        }
    }

    /// Every buffer over `\r`, `\n` and `a` up to length 7, delivered in
    /// every split into two reads: the resumable scan stops where the
    /// two-search rule does, on the first read that completes the head.
    #[test]
    fn head_scan_matches_the_two_search_rule_across_every_split() {
        let alphabet = [b'\r', b'\n', b'a'];
        for len in 0..=7u32 {
            for code in 0..3usize.pow(len) {
                let buf: Vec<u8> = (0..len)
                    .map(|k| alphabet[code / 3usize.pow(k) % 3])
                    .collect();
                for split in 0..=buf.len() {
                    let mut scanned = 0;
                    let first = head_end(&buf[..split], &mut scanned);
                    let found = first.or_else(|| head_end(&buf, &mut scanned));
                    let want = two_searches(&buf[..split]).or_else(|| two_searches(&buf));
                    assert_eq!(found, want, "{buf:?} split at {split}");
                }
            }
        }
    }
}
