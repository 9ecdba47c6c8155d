//! A minimal blocking client for the wire protocol — one request in flight
//! per connection, which is exactly the shape the open-loop load generator
//! and the tests need.
//!
//! Connection establishment is the one place the client retries:
//! *transient* connect failures (refused, reset, timed out — the shapes a
//! restarting or momentarily overloaded server produces) are retried with
//! bounded exponential backoff per [`ClientConfig`]. Everything after the
//! connection is strict: a read timeout or torn response surfaces as a
//! typed [`ClientError`] and the caller decides, because blindly resending
//! a non-idempotent request (an insert) could double-apply it.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use tsunami_core::{AggResult, Aggregation, Point, Predicate};

use crate::protocol::{
    self, read_frame, write_frame, FrameError, FrameRead, Request, Response, WireError,
};

/// Connection tuning for [`Client::connect_with_config`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Maximum accepted response frame payload, bytes.
    pub max_frame: usize,
    /// Per-attempt connect timeout; `None` blocks until the OS gives up.
    pub connect_timeout: Option<Duration>,
    /// Socket read timeout for responses; `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Retries after the first failed connect attempt (`0` = single
    /// attempt). Only transient failures are retried.
    pub connect_retries: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub retry_backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            max_frame: protocol::DEFAULT_MAX_FRAME,
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(30)),
            connect_retries: 3,
            retry_backoff: Duration::from_millis(20),
        }
    }
}

/// What a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, EOF mid-response).
    Io(std::io::Error),
    /// Every connect attempt failed; `last` is the final attempt's error.
    ConnectExhausted {
        /// Connect attempts made (1 + retries performed).
        attempts: u32,
        /// The last attempt's failure.
        last: std::io::Error,
    },
    /// The server's bytes did not decode.
    Wire(WireError),
    /// The server answered with a typed error.
    Server {
        /// One of [`protocol::code`]'s constants.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// The server answered with the wrong response kind for the request.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::ConnectExhausted { attempts, last } => {
                write!(f, "connect failed after {attempts} attempts: {last}")
            }
            ClientError::Wire(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response kind: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::Oversized { len, max } => ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("response frame of {len} bytes exceeds the {max}-byte limit"),
            )),
        }
    }
}

/// A blocking connection to a `tsunami-server`.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    max_frame: usize,
}

impl Client {
    /// Connects with the default max frame size
    /// ([`protocol::DEFAULT_MAX_FRAME`]) and no timeouts or retries.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_with(addr, protocol::DEFAULT_MAX_FRAME)
    }

    /// Connects with an explicit max frame size and no timeouts or retries.
    pub fn connect_with(addr: impl ToSocketAddrs, max_frame: usize) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream, max_frame })
    }

    /// Connects with per-attempt connect timeouts, a response read timeout,
    /// and bounded exponential-backoff retry of **transient** connect
    /// failures ([`transient_connect_error`]). Address resolution failures
    /// and non-transient errors (e.g. permission denied) fail immediately;
    /// exhausting the retry budget yields
    /// [`ClientError::ConnectExhausted`].
    pub fn connect_with_config(
        addr: impl ToSocketAddrs,
        config: &ClientConfig,
    ) -> Result<Self, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs().map_err(ClientError::Io)?.collect();
        if addrs.is_empty() {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::AddrNotAvailable,
                "address resolved to nothing",
            )));
        }
        let attempts = config.connect_retries.saturating_add(1);
        let mut backoff = config.retry_backoff;
        let mut last = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            match connect_once(&addrs, config.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true).map_err(ClientError::Io)?;
                    stream
                        .set_read_timeout(config.read_timeout)
                        .map_err(ClientError::Io)?;
                    return Ok(Self {
                        stream,
                        max_frame: config.max_frame,
                    });
                }
                Err(e) if transient_connect_error(&e) => last = Some(e),
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
        Err(ClientError::ConnectExhausted {
            attempts,
            last: last.expect("at least one attempt ran"),
        })
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Executes `aggregation` over the rows of `table` matching every
    /// predicate and returns the typed result.
    pub fn query(
        &mut self,
        table: &str,
        predicates: Vec<Predicate>,
        aggregation: Aggregation,
    ) -> Result<AggResult, ClientError> {
        let request = Request::Query {
            table: table.to_string(),
            predicates,
            aggregation,
        };
        match self.call(&request)? {
            Response::Result(r) => Ok(r),
            other => Err(unexpected(other)),
        }
    }

    /// Appends rows to `table`; returns the number of rows the server
    /// acknowledged.
    pub fn insert(&mut self, table: &str, rows: Vec<Point>) -> Result<u64, ClientError> {
        let request = Request::Insert {
            table: table.to_string(),
            rows,
        };
        match self.call(&request)? {
            Response::Inserted(n) => Ok(n),
            other => Err(unexpected(other)),
        }
    }

    /// Sends one request frame and reads one response frame.
    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let payload = request.encode()?;
        write_frame(&mut self.stream, &payload)?;
        match read_frame(&mut self.stream, self.max_frame)? {
            FrameRead::Frame(payload) => Ok(Response::decode(&payload)?),
            FrameRead::Eof => Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ))),
        }
    }
}

/// One connect pass over every resolved address; the last error wins.
fn connect_once(addrs: &[SocketAddr], timeout: Option<Duration>) -> std::io::Result<TcpStream> {
    let mut last = None;
    for addr in addrs {
        let attempt = match timeout {
            Some(t) => TcpStream::connect_timeout(addr, t),
            None => TcpStream::connect(addr),
        };
        match attempt {
            Ok(stream) => return Ok(stream),
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("addrs is non-empty"))
}

/// Whether a connect failure is worth retrying: the server may simply not
/// be (re)started yet or momentarily overloaded. Everything else — address
/// errors, permission errors — will not heal with time.
pub fn transient_connect_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::Interrupted
    )
}

fn unexpected(response: Response) -> ClientError {
    match response {
        Response::Error { code, message } => ClientError::Server { code, message },
        Response::Result(_) => ClientError::Unexpected("result"),
        Response::Pong => ClientError::Unexpected("pong"),
        Response::Inserted(_) => ClientError::Unexpected("inserted"),
    }
}
