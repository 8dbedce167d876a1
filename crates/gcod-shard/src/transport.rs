//! Socket transport for shard workers: Unix-domain sockets where the
//! platform has them, TCP loopback as the portable fallback.
//!
//! Addresses render as `uds:<path>` / `tcp:<ip>:<port>` so a worker
//! process can receive its endpoint as a single CLI argument. Unix socket
//! paths are derived from the process id plus a monotonic counter — no
//! wall-clock or RNG involved, keeping the crate deterministic under the
//! `gcod-check` wall-clock lint.

use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;

use crate::error::{Result, ShardError};

/// Which socket family to use for the shard fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Unix-domain sockets (unix only; the default there).
    #[cfg(unix)]
    Uds,
    /// TCP over loopback — the portable fallback.
    Tcp,
}

// Not derivable portably: the default variant differs per platform (Uds
// does not exist off unix).
#[allow(clippy::derivable_impls)]
impl Default for TransportKind {
    fn default() -> Self {
        #[cfg(unix)]
        {
            TransportKind::Uds
        }
        #[cfg(not(unix))]
        {
            TransportKind::Tcp
        }
    }
}

/// A shard endpoint address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardAddr {
    /// Filesystem path of a Unix-domain socket.
    #[cfg(unix)]
    Uds(PathBuf),
    /// TCP socket address (loopback in practice).
    Tcp(SocketAddr),
}

impl fmt::Display for ShardAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            #[cfg(unix)]
            ShardAddr::Uds(path) => write!(f, "uds:{}", path.display()),
            ShardAddr::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

impl ShardAddr {
    /// Parse the `uds:<path>` / `tcp:<ip>:<port>` rendering produced by
    /// [`Display`](fmt::Display).
    pub fn parse(s: &str) -> Result<ShardAddr> {
        if let Some(path) = s.strip_prefix("uds:") {
            #[cfg(unix)]
            {
                if path.is_empty() {
                    return Err(ShardError::InvalidConfig {
                        context: "empty unix socket path".to_string(),
                    });
                }
                return Ok(ShardAddr::Uds(PathBuf::from(path)));
            }
            #[cfg(not(unix))]
            {
                return Err(ShardError::InvalidConfig {
                    context: format!("unix sockets unavailable on this platform: uds:{path}"),
                });
            }
        }
        if let Some(addr) = s.strip_prefix("tcp:") {
            let parsed: SocketAddr = addr.parse().map_err(|_| ShardError::InvalidConfig {
                context: format!("invalid tcp address '{addr}'"),
            })?;
            return Ok(ShardAddr::Tcp(parsed));
        }
        Err(ShardError::InvalidConfig {
            context: format!("shard address '{s}' must start with 'uds:' or 'tcp:'"),
        })
    }
}

fn spawn_err(context: &str, e: std::io::Error) -> ShardError {
    ShardError::Spawn {
        context: format!("{context}: {e}"),
    }
}

/// Counter making Unix socket paths unique within one process without
/// consulting the clock or an RNG.
static UDS_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A listening shard endpoint the router binds before spawning workers.
#[derive(Debug)]
pub enum ShardListener {
    /// Listening Unix-domain socket plus its path (removed on drop).
    #[cfg(unix)]
    Uds(UnixListener, PathBuf),
    /// Listening TCP socket on loopback.
    Tcp(TcpListener),
}

impl ShardListener {
    /// Bind a fresh endpoint of the requested kind. UDS paths live in the
    /// system temp directory and are unique per process + bind; TCP binds
    /// `127.0.0.1:0` (ephemeral port).
    pub fn bind(kind: TransportKind) -> Result<ShardListener> {
        match kind {
            #[cfg(unix)]
            TransportKind::Uds => {
                let n = UDS_COUNTER.fetch_add(1, Ordering::Relaxed);
                let path = std::env::temp_dir()
                    .join(format!("gcod-shard-{}-{n}.sock", std::process::id()));
                // A stale file from a crashed run with a recycled pid
                // would make bind fail; it is ours by construction.
                let _ = std::fs::remove_file(&path);
                let listener = UnixListener::bind(&path)
                    .map_err(|e| spawn_err(&format!("bind uds {}", path.display()), e))?;
                Ok(ShardListener::Uds(listener, path))
            }
            TransportKind::Tcp => {
                let listener = TcpListener::bind(("127.0.0.1", 0))
                    .map_err(|e| spawn_err("bind tcp 127.0.0.1:0", e))?;
                Ok(ShardListener::Tcp(listener))
            }
        }
    }

    /// The address a worker should dial to reach this listener.
    pub fn local_addr(&self) -> Result<ShardAddr> {
        match self {
            #[cfg(unix)]
            ShardListener::Uds(_, path) => Ok(ShardAddr::Uds(path.clone())),
            ShardListener::Tcp(listener) => {
                let addr = listener
                    .local_addr()
                    .map_err(|e| spawn_err("query tcp local addr", e))?;
                Ok(ShardAddr::Tcp(addr))
            }
        }
    }

    /// Block until one worker connects.
    pub fn accept(&self) -> Result<ShardConn> {
        match self {
            #[cfg(unix)]
            ShardListener::Uds(listener, path) => {
                let (stream, _) = listener
                    .accept()
                    .map_err(|e| spawn_err(&format!("accept on uds {}", path.display()), e))?;
                Ok(ShardConn::Uds(stream))
            }
            ShardListener::Tcp(listener) => {
                let (stream, _) = listener
                    .accept()
                    .map_err(|e| spawn_err("accept on tcp listener", e))?;
                stream
                    .set_nodelay(true)
                    .map_err(|e| spawn_err("set tcp nodelay", e))?;
                Ok(ShardConn::Tcp(stream))
            }
        }
    }
}

#[cfg(unix)]
impl Drop for ShardListener {
    fn drop(&mut self) {
        if let ShardListener::Uds(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One established shard connection; [`Read`]/[`Write`] delegate to the
/// underlying stream so the frame layer is
/// transport-agnostic.
#[derive(Debug)]
pub enum ShardConn {
    /// Unix-domain stream.
    #[cfg(unix)]
    Uds(UnixStream),
    /// TCP stream (nodelay enabled).
    Tcp(TcpStream),
}

impl ShardConn {
    /// Connect to a listening shard endpoint.
    pub fn dial(addr: &ShardAddr) -> Result<ShardConn> {
        match addr {
            #[cfg(unix)]
            ShardAddr::Uds(path) => {
                let stream = UnixStream::connect(path)
                    .map_err(|e| spawn_err(&format!("dial uds {}", path.display()), e))?;
                Ok(ShardConn::Uds(stream))
            }
            ShardAddr::Tcp(addr) => {
                let stream = TcpStream::connect(addr)
                    .map_err(|e| spawn_err(&format!("dial tcp {addr}"), e))?;
                stream
                    .set_nodelay(true)
                    .map_err(|e| spawn_err("set tcp nodelay", e))?;
                Ok(ShardConn::Tcp(stream))
            }
        }
    }

    /// Sets (or clears, with `None`) the read deadline: a blocked read
    /// returns an error the frame layer maps to
    /// [`WireError::TimedOut`](crate::WireError::TimedOut) once the
    /// duration elapses.
    ///
    /// # Errors
    ///
    /// [`ShardError::Spawn`] when the OS rejects
    /// the option (e.g. a zero duration).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        match self {
            #[cfg(unix)]
            ShardConn::Uds(s) => s.set_read_timeout(timeout),
            ShardConn::Tcp(s) => s.set_read_timeout(timeout),
        }
        .map_err(|e| spawn_err("set read timeout", e))
    }

    /// Sets (or clears, with `None`) the write deadline; see
    /// [`set_read_timeout`](ShardConn::set_read_timeout).
    ///
    /// # Errors
    ///
    /// [`ShardError::Spawn`] when the OS rejects
    /// the option.
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        match self {
            #[cfg(unix)]
            ShardConn::Uds(s) => s.set_write_timeout(timeout),
            ShardConn::Tcp(s) => s.set_write_timeout(timeout),
        }
        .map_err(|e| spawn_err("set write timeout", e))
    }

    /// Severs both directions of the connection immediately. The peer's
    /// next read observes EOF; used by the chaos harness to simulate a
    /// crash at a scripted frame, and by the supervisor to fence off a
    /// worker it is about to respawn.
    pub fn shutdown_both(&self) {
        let _ = match self {
            #[cfg(unix)]
            ShardConn::Uds(s) => s.shutdown(std::net::Shutdown::Both),
            ShardConn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for ShardConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            ShardConn::Uds(s) => s.read(buf),
            ShardConn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for ShardConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            ShardConn::Uds(s) => s.write(buf),
            ShardConn::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            ShardConn::Uds(s) => s.flush(),
            ShardConn::Tcp(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame};

    #[test]
    fn addr_display_parse_roundtrip_tcp() {
        let addr = ShardAddr::Tcp("127.0.0.1:4242".parse().expect("socket addr"));
        let rendered = addr.to_string();
        assert_eq!(rendered, "tcp:127.0.0.1:4242");
        assert_eq!(ShardAddr::parse(&rendered).expect("parse"), addr);
    }

    #[cfg(unix)]
    #[test]
    fn addr_display_parse_roundtrip_uds() {
        let addr = ShardAddr::Uds(PathBuf::from("/tmp/x.sock"));
        let rendered = addr.to_string();
        assert_eq!(rendered, "uds:/tmp/x.sock");
        assert_eq!(ShardAddr::parse(&rendered).expect("parse"), addr);
    }

    #[test]
    fn garbage_addresses_rejected() {
        assert!(ShardAddr::parse("http://nope").is_err());
        assert!(ShardAddr::parse("tcp:not-an-addr").is_err());
        assert!(ShardAddr::parse("").is_err());
    }

    fn exchange_one_frame(kind: TransportKind) {
        let listener = ShardListener::bind(kind).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut conn = ShardConn::dial(&addr).expect("dial");
            write_frame(&mut conn, &String::from("ping over the wire")).expect("client write");
            let (reply, _): (String, usize) = read_frame(&mut conn).expect("client read");
            reply
        });
        let mut server_conn = listener.accept().expect("accept");
        let (msg, _): (String, usize) = read_frame(&mut server_conn).expect("server read");
        assert_eq!(msg, "ping over the wire");
        write_frame(&mut server_conn, &format!("echo: {msg}")).expect("server write");
        let reply = client.join().expect("client thread");
        assert_eq!(reply, "echo: ping over the wire");
    }

    #[test]
    fn tcp_frames_cross_a_real_socket() {
        exchange_one_frame(TransportKind::Tcp);
    }

    #[cfg(unix)]
    #[test]
    fn uds_frames_cross_a_real_socket_and_path_is_cleaned_up() {
        let listener = ShardListener::bind(TransportKind::Uds).expect("bind");
        let path = match listener.local_addr().expect("addr") {
            ShardAddr::Uds(p) => p,
            other => panic!("expected uds addr, got {other}"),
        };
        assert!(path.exists());
        drop(listener);
        assert!(!path.exists(), "socket file must be removed on drop");
        exchange_one_frame(TransportKind::Uds);
    }
}
