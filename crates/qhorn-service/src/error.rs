//! Service-level errors.

use std::fmt;

/// Anything the service can refuse or fail to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The session id is not (or no longer) registered and has no
    /// snapshot to restore from.
    UnknownSession(u64),
    /// The request is not legal in the session's current state.
    WrongState {
        /// What the session was doing.
        state: &'static str,
        /// What the request needed.
        needed: &'static str,
    },
    /// The dataset name is not in the catalog.
    UnknownDataset(String),
    /// The dataset name is already taken (uploading over a built-in or an
    /// existing upload) or names a built-in that cannot be dropped.
    DatasetConflict(String),
    /// An uploaded dataset definition failed semantic validation
    /// (propositions vs schema, name rules, proposition count).
    InvalidDataset(String),
    /// A requested dataset size is outside `1..=MAX_SIZE`. The wire
    /// layer defaults an *absent* size; an explicit `0` is rejected here
    /// rather than silently coerced.
    InvalidSize(String),
    /// A query or request failed to parse.
    Parse(String),
    /// The underlying engine/learner failed.
    Engine(String),
    /// The trace id is not (or no longer) in the span journal.
    UnknownTrace(String),
    /// The durable session store failed.
    Store(String),
    /// Transport-level failure (client helper).
    Transport(String),
    /// A runtime configuration change was out of bounds.
    InvalidConfig(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServiceError::WrongState { state, needed } => {
                write!(f, "session is {state}, request needs {needed}")
            }
            ServiceError::UnknownDataset(name) => write!(f, "unknown dataset `{name}`"),
            ServiceError::DatasetConflict(msg) => write!(f, "dataset conflict: {msg}"),
            ServiceError::InvalidDataset(msg) => write!(f, "invalid dataset: {msg}"),
            ServiceError::InvalidSize(msg) => write!(f, "invalid size: {msg}"),
            ServiceError::Parse(msg) => write!(f, "parse error: {msg}"),
            ServiceError::Engine(msg) => write!(f, "engine error: {msg}"),
            ServiceError::UnknownTrace(id) => write!(f, "unknown trace `{id}`"),
            ServiceError::Store(msg) => write!(f, "store error: {msg}"),
            ServiceError::Transport(msg) => write!(f, "transport error: {msg}"),
            ServiceError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}
