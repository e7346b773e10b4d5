//! The crate error type.

use std::error::Error;
use std::fmt;

use crate::frame::FrameError;

/// Typed failures from the seal-net client/reactor surface.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// An OS-level socket failure, tagged with the operation that failed.
    Io {
        /// Which operation failed (`connect`, `send`, `recv`, …).
        op: &'static str,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// The peer closed the connection.
    Closed,
    /// The byte stream violated the frame protocol.
    Frame(FrameError),
}

impl NetError {
    /// Adapter for `map_err`: tags an [`std::io::Error`] with its
    /// operation name.
    pub fn io(op: &'static str) -> impl Fn(std::io::Error) -> NetError {
        move |source| NetError::Io { op, source }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io { op, source } => write!(f, "net io failure in `{op}`: {source}"),
            NetError::Closed => write!(f, "connection closed by peer"),
            NetError::Frame(e) => write!(f, "frame protocol violation: {e}"),
        }
    }
}

impl Error for NetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NetError::Io { source, .. } => Some(source),
            NetError::Frame(e) => Some(e),
            NetError::Closed => None,
        }
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}
