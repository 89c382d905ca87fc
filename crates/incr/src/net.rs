//! The TCP front-end of `canvas serve --listen`.
//!
//! A hand-rolled, zero-dependency listener speaking the same NDJSON
//! protocol as the stdio loop in [`crate::service`]: thread-per-connection
//! readers feed the shared bounded queue, the shared worker pool answers,
//! and every connection gets its own in-order response sequencer. All the
//! overload machinery — admission control, tenant buckets, deadline
//! propagation, shedding — lives in [`crate::service`] and applies
//! identically here; this module only owns sockets and signals.
//!
//! # Graceful drain
//!
//! The accept loop polls with a short accept timeout so it can notice a
//! drain promptly. A drain starts when any connection submits `shutdown`
//! or the process receives `SIGTERM`; the listener then stops accepting,
//! every connection reader stops at its next idle tick, queued work is
//! finished (or shed on its deadline), the store persists, and the
//! `drain complete` log record is the last thing out.
//!
//! # Slow clients
//!
//! Sockets get a write timeout (`--write-timeout-ms`). A client that stops
//! reading long enough to stall a response write gets its connection
//! poisoned — later responses for it are computed but discarded — and
//! affects nothing else.

use std::io::{BufReader, Write};
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use canvas_core::{CanvasError, ErrorKind, Stage};

use crate::service::{boxed_writer, run_connection, worker_loop, Conn, Daemon, Job, ServeConfig};

/// Set by the `SIGTERM` handler; checked by the accept loop each tick.
static SIGTERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sigterm_handler() {
    // zero-dep signal(2): the handler only flips an AtomicBool, which is
    // async-signal-safe. SIG_ERR is ignored — worst case the daemon only
    // drains on `shutdown` requests.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_sigterm(_signum: i32) {
        SIGTERM.store(true, Ordering::SeqCst);
    }
    const SIGTERM_NO: i32 = 15;
    unsafe {
        signal(SIGTERM_NO, on_sigterm as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

/// Binds `addr` and serves until drain. Prints the bound address on
/// stdout (so scripts binding port 0 learn the real port) before
/// accepting.
///
/// # Errors
///
/// A `cli`-stage error when the bind fails; a `cache`-stage error when the
/// final persist fails. Per-connection failures never end the loop.
pub fn serve_listen(addr: impl ToSocketAddrs, config: &ServeConfig) -> Result<(), CanvasError> {
    let listener = TcpListener::bind(addr).map_err(|e| {
        CanvasError::new(Stage::Cli, ErrorKind::Io, format!("cannot bind listener: {e}"))
    })?;
    if let Ok(local) = listener.local_addr() {
        println!("canvas serve: listening on {local}");
        let _ = std::io::stdout().flush();
    }
    serve_listener(listener, config)
}

/// Serves an already-bound listener until drain. Split out so tests and
/// the overload harness can bind port 0 in-process and learn the port
/// from `local_addr()` before the loop starts.
///
/// # Errors
///
/// A `cache`-stage error when the final persist fails.
pub fn serve_listener(listener: TcpListener, config: &ServeConfig) -> Result<(), CanvasError> {
    install_sigterm_handler();
    SIGTERM.store(false, Ordering::SeqCst);
    let daemon = Daemon::new(config);
    // non-blocking accepts + a sleep tick keep the loop responsive to
    // drain without a second wake-up mechanism
    let _ = listener.set_nonblocking(true);
    let (tx, rx) = mpsc::sync_channel::<Job<'_>>(daemon.tuning.queue_cap);
    let rx = Mutex::new(rx);
    std::thread::scope(|scope| {
        for _ in 0..daemon.tuning.workers {
            scope.spawn(|| worker_loop(&daemon, &rx));
        }
        loop {
            if daemon.draining() {
                break;
            }
            if SIGTERM.load(Ordering::SeqCst) {
                daemon.begin_drain("SIGTERM");
                break;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // one-line responses must not sit in Nagle's buffer
                    let _ = stream.set_nodelay(true);
                    // short read timeouts turn blocked reads into idle
                    // ticks so connection readers also notice the drain
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(
                        daemon.tuning.write_timeout_ms.max(1),
                    )));
                    let Ok(write_half) = stream.try_clone() else {
                        continue;
                    };
                    let conn = Arc::new(Conn::new(daemon.next_conn_id(), boxed_writer(write_half)));
                    let tx = tx.clone();
                    let daemon = &daemon;
                    scope.spawn(move || {
                        daemon.metrics().conn_opened();
                        let mut reader = BufReader::new(stream);
                        run_connection(daemon, &mut reader, &conn, &tx);
                        daemon.metrics().conn_closed();
                    });
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // a broken listener can't accept anyone else: drain
                    daemon.begin_drain("listener error");
                    break;
                }
            }
        }
        drop(tx);
    });
    daemon.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader as StdBufReader};
    use std::net::TcpStream;

    const FIG3: &str = "class Main { static void main() { Set v = new Set(); Iterator i = v.iterator(); v.add(\\\"x\\\"); i.next(); } }";

    fn spawn_server(config: ServeConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let handle = std::thread::spawn(move || {
            serve_listener(listener, &config).expect("serve");
        });
        (addr, handle)
    }

    #[test]
    fn tcp_round_trip_and_graceful_drain() {
        let _faults = crate::fault_lock::shared();
        let (addr, handle) = spawn_server(ServeConfig::default());
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(
            stream,
            "{{\"id\":1,\"cmd\":\"certify\",\"source\":\"{FIG3}\",\"tenant\":\"acme\"}}"
        )
        .expect("write");
        writeln!(stream, "{{\"id\":2,\"cmd\":\"shutdown\"}}").expect("write");
        let mut reader = StdBufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read certify response");
        assert!(line.contains("\"verdict\":\"violations\""), "{line}");
        line.clear();
        reader.read_line(&mut line).expect("read shutdown response");
        assert!(line.contains("\"shutdown\":true"), "{line}");
        handle.join().expect("server drains");
    }

    #[test]
    fn second_connection_survives_first_connections_torn_input() {
        let _faults = crate::fault_lock::shared();
        let config = ServeConfig { workers: 2, ..ServeConfig::default() };
        let (addr, handle) = spawn_server(config);
        // connection A sends a torn record (no newline) and hangs up
        let mut torn = TcpStream::connect(addr).expect("connect torn");
        torn.write_all(b"{\"id\":1,\"cmd\":\"cert").expect("write");
        drop(torn);
        // connection B still gets full service
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "{{\"id\":1,\"cmd\":\"health\"}}").expect("write");
        let mut reader = StdBufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read health response");
        assert!(line.contains("\"status\":\"ok\""), "{line}");
        writeln!(stream, "{{\"id\":2,\"cmd\":\"shutdown\"}}").expect("write");
        line.clear();
        reader.read_line(&mut line).expect("read shutdown response");
        assert!(line.contains("\"shutdown\":true"), "{line}");
        handle.join().expect("server drains");
    }
}
