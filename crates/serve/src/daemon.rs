//! The daemon: shard supervision, the TCP listener, and graceful
//! drain.
//!
//! One listener serves both surfaces: a line that starts with `GET `
//! is HTTP (the Prometheus `/metrics` endpoint, rendered from the
//! global obs registry); anything else is one line-delimited protocol
//! request (see [`crate::proto`]). Connections are handled one at a
//! time on the accept thread — the protocol is one request per
//! connection and every handler is bounded, so a serialized accept
//! loop keeps the daemon free of per-connection thread churn.
//!
//! `quiesce` is the graceful-shutdown contract: raise the stop flag,
//! join every generator, let each worker drain its channel to the
//! closed end and finish the stream, then answer with the final
//! snapshot + cumulative tables and stop accepting. Because the
//! generators only stop at batch boundaries and the workers consume
//! to the very last queued batch, nothing in flight is lost — which
//! is what makes the drained cumulative table equal the batch run in
//! lossless mode.

use crate::proto::{self, Request};
use crate::shard::{spawn_shard, ShardCounters, ShardHandle};
use crate::ServeConfig;
use fluctrace_core::WindowedIntegrator;
use fluctrace_obs as obs;
use fluctrace_rt::WaitLog;
use parking_lot::Mutex;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Read-side view of one shard, shared with the protocol handlers.
#[derive(Clone)]
pub struct ShardView {
    /// Shard index.
    pub id: u32,
    /// The shard's windowed integrator.
    pub integrator: Arc<Mutex<WindowedIntegrator>>,
    /// The shard's `ring_empty` wait log.
    pub wait: Arc<Mutex<WaitLog>>,
    /// The shard's live counters.
    pub counters: Arc<ShardCounters>,
}

impl ShardView {
    fn of(handle: &ShardHandle) -> ShardView {
        ShardView {
            id: handle.id,
            integrator: Arc::clone(&handle.integrator),
            wait: Arc::clone(&handle.wait),
            counters: Arc::clone(&handle.counters),
        }
    }
}

struct DaemonState {
    shards: Vec<ShardView>,
    stop: Arc<AtomicBool>,
    handles: Mutex<Vec<ShardHandle>>,
    quiesced: AtomicBool,
}

impl DaemonState {
    /// Stop traffic and drain every shard. Idempotent; returns once
    /// all shard threads have exited and the streams are finished.
    fn quiesce(&self) {
        self.stop.store(true, Ordering::Release);
        let mut handles = self.handles.lock();
        for handle in handles.iter_mut() {
            handle.join();
        }
        handles.clear();
        self.quiesced.store(true, Ordering::Release);
    }
}

/// A running daemon: N shards plus the accept thread.
pub struct Daemon {
    addr: SocketAddr,
    state: Arc<DaemonState>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Start shards and the listener on `addr` (use port 0 for an
    /// ephemeral port; the bound address is [`Daemon::addr`]).
    pub fn start(config: ServeConfig, addr: &str) -> Result<Daemon, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let bound = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;

        let symtab = crate::build_symtab(config.funcs);
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        let mut shards = Vec::new();
        for id in 0..config.shards.max(1) as u32 {
            let handle = spawn_shard(&config, id, Arc::clone(&symtab), Arc::clone(&stop));
            shards.push(ShardView::of(&handle));
            handles.push(handle);
        }
        let state = Arc::new(DaemonState {
            shards,
            stop,
            handles: Mutex::new(handles),
            quiesced: AtomicBool::new(false),
        });

        let accept = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if state.quiesced.load(Ordering::Acquire) {
                        break;
                    }
                    let keep_going = match stream {
                        Ok(s) => handle_connection(s, &state),
                        Err(_) => true,
                    };
                    if !keep_going {
                        break;
                    }
                }
            })
        };

        Ok(Daemon {
            addr: bound,
            state,
            accept: Some(accept),
        })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Read-side shard views (for embedding the daemon in tests and
    /// benchmarks without going through the socket).
    pub fn shards(&self) -> &[ShardView] {
        &self.state.shards
    }

    /// Block until every shard has drained — only meaningful for
    /// bounded configs (`max_batches: Some`), where the generators
    /// retire on their own.
    pub fn wait_drained(&self) {
        for view in &self.state.shards {
            while !view.counters.drained.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }
    }

    /// Programmatic quiesce: stop traffic, drain shards, stop the
    /// accept loop. Equivalent to the `quiesce` protocol request.
    pub fn quiesce(&self) {
        self.state.quiesce();
        // Poke the accept loop so it observes the quiesced flag even
        // if no client ever connects again.
        if let Ok(stream) = TcpStream::connect(self.addr) {
            drop(stream);
        }
    }

    /// Join the accept thread (returns after a quiesce).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Longest request line the daemon reads, in bytes. Every protocol verb
/// and a scraper's `GET /metrics` line fit many times over; a client
/// that sends this much without a newline gets an error document and is
/// dropped, instead of growing a `String` on the accept thread until the
/// read timeout.
const MAX_REQUEST_LINE: u64 = 4096;

/// Handle one connection; `false` stops the accept loop (quiesce).
fn handle_connection(stream: TcpStream, state: &DaemonState) -> bool {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let mut reader = BufReader::new(stream);
    let mut raw = Vec::new();
    let read = reader
        .by_ref()
        .take(MAX_REQUEST_LINE)
        .read_until(b'\n', &mut raw);
    if read.is_err() {
        return true;
    }
    let mut stream = reader.into_inner();
    // Bytes, not `read_line`: a non-UTF-8 line (or a cut inside a
    // multi-byte character) must still get an answer.
    let line = if raw.len() as u64 == MAX_REQUEST_LINE && !raw.ends_with(b"\n") {
        Err("request line too long")
    } else {
        std::str::from_utf8(&raw).map_err(|_| "request line is not UTF-8")
    };
    let line = match line {
        Ok(line) => line,
        Err(detail) => {
            let _ = stream.write_all(proto::error_doc(detail).as_bytes());
            let _ = stream.write_all(b"\n");
            return true;
        }
    };
    if let Some(path) = http_request_path(line) {
        let response = http_response(&path);
        let _ = stream.write_all(response.as_bytes());
        return true;
    }
    let line = line.trim();
    if line.is_empty() {
        // Bare poke (or EOF): nothing to answer.
        return true;
    }
    let (body, keep_going) = match proto::parse(line) {
        Err(detail) => (proto::error_doc(&detail), true),
        Ok(Request::Snapshot) => (proto::snapshot_doc(&state.shards).to_json(), true),
        Ok(Request::Windows(k)) => (proto::windows_doc(&state.shards, k), true),
        Ok(Request::Episodes) => (proto::episodes_doc(&state.shards), true),
        Ok(Request::Loss) => (proto::loss_doc(&state.shards), true),
        Ok(Request::Table) => (proto::tables_doc(&state.shards), true),
        Ok(Request::Drained) => (proto::drained_doc(&state.shards), true),
        Ok(Request::Quiesce) => {
            state.quiesce();
            let snapshot = proto::snapshot_doc(&state.shards).to_json();
            let tables = proto::tables_doc(&state.shards);
            (
                format!("{{\"quiesced\":true,\"snapshot\":{snapshot},\"tables\":{tables}}}"),
                false,
            )
        }
    };
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.write_all(b"\n");
    keep_going
}

/// `Some(path)` when the first line is an HTTP request line.
fn http_request_path(line: &str) -> Option<String> {
    let rest = line.strip_prefix("GET ")?;
    let path = rest.split_whitespace().next().unwrap_or("/");
    Some(path.to_string())
}

/// Minimal HTTP/1.0-style response; `/metrics` serves the Prometheus
/// rendering of the global obs registry (pinned catalog + `serve.*`).
fn http_response(path: &str) -> String {
    if path == "/metrics" {
        let body = obs::snapshot_prometheus();
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    } else {
        let body = "not found; scrape /metrics\n";
        format!(
            "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    }
}

/// One-shot protocol client: connect, send `request` as a single line,
/// return the response body. Used by tests, the CI smoke script (via
/// the bin's `query` subcommand), and scripted clients.
pub fn query(addr: &str, request: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    stream
        .write_all(request.trim().as_bytes())
        .and_then(|_| stream.write_all(b"\n"))
        .map_err(|e| format!("send: {e}"))?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("recv: {e}"))?;
    Ok(response)
}
