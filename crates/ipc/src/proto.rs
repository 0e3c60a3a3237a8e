//! The versioned control-plane line protocol.
//!
//! One request line, one response line, UTF-8, newline-terminated —
//! the same shape as the runtime introspection endpoint this protocol
//! grew out of, so `nc -U` remains a debugging tool.  The only binary
//! element is the shared-segment descriptor riding the attach ack as an
//! `SCM_RIGHTS` control message, and the only line without a response
//! is `bell`: the datapath's wake-up request (see `server`), written
//! from `emit` when the daemon has parked, where a reply would be
//! one more thing to wait for.
//!
//! ```text
//! client → daemon                      daemon → client
//! ---------------                      ---------------
//! attach insane-ipc-v2 <tenant> <qos>  ok attach <session> <slot_size>
//!                                        <slot_count> <ring_cap>
//!                                        <pool_off> <tx_off> <bell_off>
//!                                        <rx_off> <seg_len>   (+ fd)
//! stream-create <name>                 ok stream <id>
//! stream-destroy <id>                  ok
//! hb                                   ok
//! probe                                ok probe insane-ipc-v2
//! stats                                ok stats k=v k=v …
//! bell                                 (nothing)
//! shutdown                             ok   (exit once this connection ends)
//! detach                               ok
//! anything else                        err <reason>
//! ```
//!
//! The attach line carries the protocol version; a daemon refuses a
//! mismatched client with a typed `err`, so an old library never maps a
//! segment whose layout it misreads — nor, since v2, attaches to a
//! daemon that parks without knowing it has to ring.

use std::io::Read;

use crate::shm::SessionLayout;
use crate::IpcError;

/// Protocol identifier sent in every `attach` and answered by `probe`.
pub const PROTO_VERSION: &str = "insane-ipc-v2";

/// Hard cap on a control line; anything longer is a protocol error.
pub const MAX_LINE: usize = 4096;

/// Everything a client needs to join a session: the pool's shape and
/// where the shared segment's regions are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttachAck {
    /// Daemon-assigned session id.
    pub session: u64,
    /// Slot size of the session pool, bytes.
    pub slot_size: usize,
    /// Slot count of the session pool.
    pub slot_count: usize,
    /// Segment-relative offsets of the pool, the two rings and the bell.
    pub layout: SessionLayout,
}

impl AttachAck {
    /// Formats the ack as its response line (without the fd).
    pub fn to_line(&self) -> String {
        let SessionLayout {
            ring_capacity,
            pool_off,
            tx_off,
            bell_off,
            rx_off,
            seg_len,
        } = self.layout;
        format!(
            "ok attach {} {} {} {ring_capacity} {pool_off} {tx_off} {bell_off} {rx_off} {seg_len}",
            self.session, self.slot_size, self.slot_count
        )
    }

    /// Parses an `ok attach …` response line.  The layout it carries is
    /// [`validate`](SessionLayout::validate)d before it is returned, so
    /// no offset of a parsed ack needs checking again.
    ///
    /// # Errors
    ///
    /// [`IpcError::Protocol`] on a malformed or non-attach line, or a
    /// layout that is inconsistent with itself.
    pub fn parse(line: &str) -> Result<Self, IpcError> {
        let mut words = line.split_ascii_whitespace();
        if words.next() != Some("ok") || words.next() != Some("attach") {
            return Err(IpcError::Protocol(format!("not an attach ack: {line:?}")));
        }
        let mut field = || -> Result<usize, IpcError> {
            words
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| IpcError::Protocol(format!("malformed attach ack: {line:?}")))
        };
        Ok(Self {
            session: field()? as u64,
            slot_size: field()?,
            slot_count: field()?,
            layout: SessionLayout {
                ring_capacity: field()?,
                pool_off: field()?,
                tx_off: field()?,
                bell_off: field()?,
                rx_off: field()?,
                seg_len: field()?,
            }
            .validate()?,
        })
    }
}

/// Incremental line reader over a byte stream (control sockets are
/// `SOCK_STREAM`: one logical line may arrive in several reads, or two
/// lines in one).
#[derive(Debug, Default)]
pub struct LineBuf {
    pending: Vec<u8>,
}

impl LineBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the next buffered line without reading, if one is
    /// complete.
    ///
    /// # Errors
    ///
    /// [`IpcError::Protocol`] on non-UTF-8 lines or lines over
    /// [`MAX_LINE`].
    pub fn take_line(&mut self) -> Result<Option<String>, IpcError> {
        if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
            let rest = self.pending.split_off(pos + 1);
            let mut line = core::mem::replace(&mut self.pending, rest);
            line.pop(); // the newline
            let line = String::from_utf8(line)
                .map_err(|_| IpcError::Protocol("non-UTF-8 control line".into()))?;
            return Ok(Some(line));
        }
        if self.pending.len() > MAX_LINE {
            return Err(IpcError::Protocol("control line exceeds MAX_LINE".into()));
        }
        Ok(None)
    }

    /// Appends raw bytes received out-of-band (e.g. alongside an
    /// `SCM_RIGHTS` message).
    pub fn extend(&mut self, bytes: &[u8]) {
        self.pending.extend_from_slice(bytes);
    }

    /// Reads from `stream` until a full line is available or EOF.
    /// Returns `Ok(None)` on EOF; I/O timeouts surface as `Io` errors
    /// for the caller to interpret.
    ///
    /// # Errors
    ///
    /// [`IpcError::Io`] on read failures (including timeouts),
    /// [`IpcError::Protocol`] on malformed lines.
    pub fn read_line(&mut self, stream: &mut impl Read) -> Result<Option<String>, IpcError> {
        loop {
            if let Some(line) = self.take_line()? {
                return Ok(Some(line));
            }
            let mut chunk = [0u8; 256];
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Ok(None);
            }
            self.pending.extend_from_slice(&chunk[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attach_ack_round_trips() {
        let ack = AttachAck {
            session: 42,
            slot_size: 2048,
            slot_count: 256,
            layout: SessionLayout {
                ring_capacity: 64,
                pool_off: 0,
                tx_off: 4096,
                bell_off: 8128,
                rx_off: 8192,
                seg_len: 12288,
            },
        };
        assert_eq!(AttachAck::parse(&ack.to_line()).unwrap(), ack);
    }

    #[test]
    fn malformed_acks_are_typed_errors() {
        let inconsistent = "ok attach 1 2048 256 64 0 4096 8128 8192 8200";
        let v1_without_a_bell = "ok attach 1 2048 256 64 0 4096 8192 12288";
        for bad in [
            "",
            "ok",
            "err no",
            "ok attach 1 2 three",
            "ok attach 1",
            inconsistent,
            v1_without_a_bell,
        ] {
            assert!(matches!(AttachAck::parse(bad), Err(IpcError::Protocol(_))));
        }
    }

    #[test]
    fn line_buf_splits_coalesced_and_partial_lines() {
        let mut buf = LineBuf::new();
        buf.extend(b"first\nsec");
        assert_eq!(buf.take_line().unwrap().as_deref(), Some("first"));
        assert_eq!(buf.take_line().unwrap(), None);
        buf.extend(b"ond\n");
        assert_eq!(buf.take_line().unwrap().as_deref(), Some("second"));
    }

    #[test]
    fn oversized_lines_are_rejected() {
        let mut buf = LineBuf::new();
        buf.extend(&vec![b'x'; MAX_LINE + 1]);
        assert!(buf.take_line().is_err());
    }
}
