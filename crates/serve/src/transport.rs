//! Transports that feed the daemon core: a Unix-domain socket speaking
//! newline-delimited JSON, and a spool directory of job files.
//!
//! The socket protocol is strictly line-oriented: a client connects,
//! writes one request per line ([`crate::envelope::parse_request`]'s
//! grammar), closes its write half, and reads one response line per
//! request, in request order. Several clients may be connected at once:
//! an acceptor thread and one reader thread per connection feed a
//! single event channel, and the main loop — the only thread that ever
//! touches the [`ServeCore`] — applies events in arrival order. The
//! core stays single-threaded and deterministic; concurrency lives
//! entirely in the byte-shoveling layer. Responses are routed back to
//! the submitting connection by acceptance seq (see [`MuxServer`]).
//!
//! A connection that fails — mid-line disconnect, garbage that breaks
//! the stream, a broken pipe on the write-back — is dropped and counted
//! (`connection_errors`); it never terminates the daemon. The control
//! line `{"op":"shutdown"}` drains outstanding work, answers the
//! requesting connection, then stops the listener (graceful drain).
//!
//! The spool transport scans a directory for `*.json` job files
//! (sorted by name for determinism), admits each, drains, and writes
//! `<name>.response` next to every input, renaming the input to
//! `<name>.done` so a rescan never double-submits. Inputs whose
//! `.response` already exists (a crash landed between the response
//! write and the rename) are skipped and counted (`spool_skipped`)
//! instead of re-executed; files carrying more than one request line,
//! and files that cannot be read at all, are rejected with a typed
//! response rather than aborting the scan.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

use repute_core::ReputeError;

use crate::envelope::{parse_request, JobResponse, JobStatus, Request};
use crate::server::ServeCore;

fn io_at(path: &Path, e: std::io::Error) -> ReputeError {
    ReputeError::io_at(path, e)
}

/// One connection slot: either an already-answered refusal or an
/// accepted job waiting for the response of the given acceptance seq.
enum Slot {
    Ready(JobResponse),
    Pending(u64),
}

/// The connection-multiplexing state machine between the byte layer and
/// the deterministic core.
///
/// `MuxServer` owns no sockets and spawns no threads — it is driven by
/// events (`open` / [`MuxServer::on_line`] / [`MuxServer::on_eof`] /
/// [`MuxServer::on_error`]) and all core access happens inside the
/// caller's thread, in event order. That makes the daemon's behavior a
/// pure function of the event sequence (the fixed-seed interleaving
/// test in `tests/serve_concurrent.rs` exploits exactly this), and
/// lets the socket driver stay a thin shoveling layer.
///
/// Responses are routed by the server-assigned acceptance seq, not the
/// client-chosen job id: concurrent clients are free to reuse ids.
#[derive(Default)]
pub struct MuxServer {
    conns: HashMap<u64, Vec<Slot>>,
    // Responses produced by a drain before their connection reached
    // EOF, keyed by acceptance seq.
    undelivered: HashMap<u64, JobResponse>,
    // Seqs whose connection died before delivery: their responses are
    // discarded on arrival instead of accumulating forever.
    orphaned: HashSet<u64>,
}

impl MuxServer {
    /// A mux with no connections.
    pub fn new() -> MuxServer {
        MuxServer::default()
    }

    /// Registers a new connection.
    pub fn open(&mut self, conn: u64) {
        self.conns.entry(conn).or_default();
    }

    /// Feeds one request line from a connection. Returns `true` when
    /// the line asked for a shutdown (the caller should answer the
    /// connection via [`MuxServer::on_eof`] and stop accepting).
    ///
    /// # Errors
    ///
    /// Journal I/O errors propagate from admission; a malformed line is
    /// *not* an error (the connection gets a `REJECTED` response).
    pub fn on_line(
        &mut self,
        core: &mut ServeCore,
        conn: u64,
        line: &str,
    ) -> Result<bool, ReputeError> {
        if line.trim().is_empty() {
            return Ok(false);
        }
        self.on_request(core, conn, line)
    }

    /// [`on_line`](MuxServer::on_line) for a line known to be a request:
    /// a blank one is malformed, not skipped.
    fn on_request(
        &mut self,
        core: &mut ServeCore,
        conn: u64,
        line: &str,
    ) -> Result<bool, ReputeError> {
        let slot = match parse_request(line) {
            Err(e) => {
                self.refuse(core, conn, e.to_string());
                return Ok(false);
            }
            Ok(Request::Shutdown) => return Ok(true),
            Ok(Request::Job(envelope)) => match core.submit(envelope)? {
                Some(refusal) => Slot::Ready(refusal),
                None => Slot::Pending(core.last_accepted_seq()),
            },
        };
        self.conns.entry(conn).or_default().push(slot);
        Ok(false)
    }

    /// Answers `conn`'s next request `REJECTED` with `message`, counted.
    fn refuse(&mut self, core: &mut ServeCore, conn: u64, message: impl Into<String>) {
        core.note_rejected();
        let refusal = JobResponse::refusal("", JobStatus::Rejected, message);
        self.conns
            .entry(conn)
            .or_default()
            .push(Slot::Ready(refusal));
    }

    /// Handles a connection's clean EOF: drains the core, stashes every
    /// produced response by seq, and returns this connection's response
    /// lines in request order. The connection is forgotten.
    ///
    /// # Errors
    ///
    /// Batch-execution and journal errors propagate from the drain.
    pub fn on_eof(&mut self, core: &mut ServeCore, conn: u64) -> Result<Vec<String>, ReputeError> {
        self.drain(core)?;
        let slots = self.conns.remove(&conn).unwrap_or_default();
        let mut lines = Vec::with_capacity(slots.len());
        for slot in slots {
            let response = match slot {
                Slot::Ready(response) => response,
                Slot::Pending(seq) => self.undelivered.remove(&seq).unwrap_or_else(|| {
                    JobResponse::refusal("", JobStatus::Rejected, "response was not produced")
                }),
            };
            lines.push(response.to_json_line());
        }
        Ok(lines)
    }

    /// Runs the core until its queue is empty and stashes every produced
    /// response by seq.
    fn drain(&mut self, core: &mut ServeCore) -> Result<(), ReputeError> {
        // Refusals carry no seq and are answered at submit time; only
        // accepted jobs' responses flow through here.
        for response in core.drain()? {
            if let Some(seq) = response.seq {
                if !self.orphaned.remove(&seq) {
                    self.undelivered.insert(seq, response);
                }
            }
        }
        Ok(())
    }

    /// Handles a connection failure (read error or undeliverable
    /// write): the connection is forgotten, its pending responses are
    /// marked orphaned (discarded when produced — the jobs themselves
    /// still run, they were journaled at admission), and the
    /// `connection_errors` counter is bumped. The daemon keeps serving.
    pub fn on_error(&mut self, core: &mut ServeCore, conn: u64) {
        core.note_connection_error();
        for slot in self.conns.remove(&conn).unwrap_or_default() {
            if let Slot::Pending(seq) = slot {
                if self.undelivered.remove(&seq).is_none() {
                    self.orphaned.insert(seq);
                }
            }
        }
    }

    /// Open connections (test observability).
    pub fn open_connections(&self) -> usize {
        self.conns.len()
    }
}

enum Event {
    Open(u64, UnixStream),
    Line(u64, String),
    Eof(u64),
    ReadError(u64),
    AcceptFailed,
}

fn spawn_reader(id: u64, stream: UnixStream, tx: mpsc::Sender<Event>) {
    std::thread::spawn(move || {
        let reader = BufReader::new(stream);
        for line in reader.lines() {
            let event = match line {
                Ok(line) => Event::Line(id, line),
                Err(_) => {
                    let _ = tx.send(Event::ReadError(id));
                    return;
                }
            };
            if tx.send(event).is_err() {
                return;
            }
        }
        let _ = tx.send(Event::Eof(id));
    });
}

fn spawn_acceptor(listener: UnixListener, tx: mpsc::Sender<Event>, stop: Arc<AtomicBool>) {
    std::thread::spawn(move || {
        let mut next_id = 0u64;
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) => {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    if tx.send(Event::AcceptFailed).is_err() {
                        return;
                    }
                    continue;
                }
            };
            if stop.load(Ordering::Relaxed) {
                return; // the wake-up connection of a shutdown
            }
            let id = next_id;
            next_id += 1;
            // The reader thread owns one handle; the main loop keeps the
            // original for the write-back.
            let read_half = match stream.try_clone() {
                Ok(half) => half,
                Err(_) => {
                    if tx.send(Event::AcceptFailed).is_err() {
                        return;
                    }
                    continue;
                }
            };
            if tx.send(Event::Open(id, stream)).is_err() {
                return;
            }
            spawn_reader(id, read_half, tx.clone());
        }
    });
}

fn write_lines(stream: &UnixStream, lines: &[String]) -> std::io::Result<()> {
    let mut writer = BufWriter::new(stream);
    for line in lines {
        writeln!(writer, "{line}")?;
    }
    writer.flush()
}

/// Binds `path` and serves connections — several at a time — until a
/// client sends `{"op":"shutdown"}`. A stale socket file at `path` is
/// removed before binding; the file is removed again on exit, clean or
/// not.
///
/// # Errors
///
/// [`ReputeError::Io`] on bind failures; admission and batch errors
/// propagate from the core. Per-connection I/O failures do *not*
/// propagate — the connection is dropped and counted.
pub fn serve_socket(core: &mut ServeCore, path: &Path) -> Result<(), ReputeError> {
    if path.exists() {
        std::fs::remove_file(path).map_err(|e| io_at(path, e))?;
    }
    let listener = UnixListener::bind(path).map_err(|e| io_at(path, e))?;
    let stop = Arc::new(AtomicBool::new(false));
    let result = serve_socket_loop(core, listener, &stop);
    // Unblock the acceptor (it may be parked in accept) and remove the
    // socket file on *every* exit path, error included.
    stop.store(true, Ordering::Relaxed);
    let _ = UnixStream::connect(path);
    let _ = std::fs::remove_file(path);
    result
}

fn serve_socket_loop(
    core: &mut ServeCore,
    listener: UnixListener,
    stop: &Arc<AtomicBool>,
) -> Result<(), ReputeError> {
    let (tx, rx) = mpsc::channel();
    spawn_acceptor(listener, tx, Arc::clone(stop));
    let mut mux = MuxServer::new();
    let mut writers: HashMap<u64, UnixStream> = HashMap::new();
    loop {
        // The acceptor holds the sender for the daemon's life; a closed
        // channel means the acceptor died, which only happens on stop.
        let Ok(event) = rx.recv() else {
            return Ok(());
        };
        match event {
            Event::Open(id, stream) => {
                mux.open(id);
                writers.insert(id, stream);
            }
            Event::AcceptFailed => core.note_connection_error(),
            Event::Line(id, line) => {
                if mux.on_line(core, id, &line)? {
                    // Graceful shutdown: answer the requesting
                    // connection's earlier requests, then stop. Other
                    // still-open connections are dropped — the daemon
                    // is going away.
                    let lines = mux.on_eof(core, id)?;
                    if let Some(stream) = writers.remove(&id) {
                        if write_lines(&stream, &lines).is_err() {
                            core.note_connection_error();
                        }
                    }
                    return Ok(());
                }
            }
            Event::Eof(id) => {
                let lines = mux.on_eof(core, id)?;
                if let Some(stream) = writers.remove(&id) {
                    if write_lines(&stream, &lines).is_err() {
                        // The client vanished between asking and the
                        // answer; its jobs completed and were journaled,
                        // only the delivery failed.
                        core.note_connection_error();
                    }
                }
                if core.is_unavailable() {
                    // Every simulated device has been lost. The queue
                    // was already flushed with SERVICE_UNAVAILABLE
                    // responses; answer the connections that are still
                    // open and exit instead of refusing forever.
                    let mut open: Vec<u64> = writers.keys().copied().collect();
                    open.sort_unstable();
                    for id in open {
                        let lines = mux.on_eof(core, id)?;
                        if let Some(stream) = writers.remove(&id) {
                            if write_lines(&stream, &lines).is_err() {
                                core.note_connection_error();
                            }
                        }
                    }
                    return Ok(());
                }
            }
            Event::ReadError(id) => {
                mux.on_error(core, id);
                writers.remove(&id);
            }
        }
    }
}

/// Client side of the line protocol: connects to `socket`, writes every
/// request line, half-closes, and returns the parsed response lines.
///
/// # Errors
///
/// [`ReputeError::Io`] on connection failures,
/// [`ReputeError::InputParse`] when the server answers with something
/// that is not a response line.
pub fn submit_over_socket(
    socket: &Path,
    lines: &[String],
) -> Result<Vec<JobResponse>, ReputeError> {
    let stream = UnixStream::connect(socket).map_err(|e| io_at(socket, e))?;
    {
        let mut writer = BufWriter::new(&stream);
        for line in lines {
            writeln!(writer, "{line}").map_err(|e| io_at(socket, e))?;
        }
        writer.flush().map_err(|e| io_at(socket, e))?;
    }
    stream
        .shutdown(std::net::Shutdown::Write)
        .map_err(|e| io_at(socket, e))?;
    let reader = BufReader::new(&stream);
    let mut responses = Vec::new();
    for line in reader.lines() {
        let line = line.map_err(|e| io_at(socket, e))?;
        if line.trim().is_empty() {
            continue;
        }
        responses.push(JobResponse::parse(&line)?);
    }
    Ok(responses)
}

/// Asks a running daemon to drain and shut down.
///
/// # Errors
///
/// [`ReputeError::Io`] when the socket cannot be reached.
pub fn shutdown_over_socket(socket: &Path) -> Result<(), ReputeError> {
    let stream = UnixStream::connect(socket).map_err(|e| io_at(socket, e))?;
    let mut writer = BufWriter::new(&stream);
    writer
        .write_all(b"{\"op\":\"shutdown\"}\n")
        .map_err(|e| io_at(socket, e))?;
    writer.flush().map_err(|e| io_at(socket, e))?;
    Ok(())
}

/// Scans `dir` once for `*.json` job files (name-sorted), admits each,
/// drains, writes `<name>.response` beside every input, and renames
/// inputs to `<name>.done`. Returns how many job files were processed
/// (skipped crash-window leftovers count as processed — their rename is
/// completed).
///
/// A job file is a connection that sends one line: it goes through a
/// [`MuxServer`] under its index in the scan, which also gives the
/// spool the socket's refusals and its response routing.
///
/// # Errors
///
/// [`ReputeError::Io`] on directory or file failures; admission and
/// batch errors propagate from the core.
pub fn process_spool_once(core: &mut ServeCore, dir: &Path) -> Result<usize, ReputeError> {
    let entries = std::fs::read_dir(dir).map_err(|e| io_at(dir, e))?;
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_at(dir, e))?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some("json") {
            files.push(path);
        }
    }
    files.sort();
    let mut mux = MuxServer::new();
    let mut submitted = Vec::new();
    let mut processed = 0usize;
    for (conn, path) in (0u64..).zip(&files) {
        // Crash-window idempotence: a response written before the crash
        // means the job already ran and committed. Re-submitting it
        // would re-execute admitted work; finish the interrupted
        // rename instead.
        if response_path(path).exists() {
            core.note_spool_skipped();
            rename_done(path)?;
            processed += 1;
            continue;
        }
        // An unreadable job file (permissions, I/O decay, a directory
        // masquerading as a file) is that one job's problem, not the
        // scan loop's: it gets a typed rejection response and the
        // daemon keeps serving the rest of the spool.
        match std::fs::read_to_string(path) {
            Err(e) => mux.refuse(core, conn, format!("unreadable spool job file: {e}")),
            Ok(text) => {
                let mut lines = text.lines().filter(|l| !l.trim().is_empty());
                let line = lines.next().unwrap_or("");
                if lines.next().is_some() {
                    let message = "spool job files must contain exactly one request line";
                    mux.refuse(core, conn, message);
                } else if mux.on_request(core, conn, line)? {
                    mux.refuse(core, conn, "spool files carry jobs, not control messages");
                }
            }
        }
        submitted.push((conn, path));
    }
    // One drain for the whole scan, new files or not: it is also what
    // runs the jobs a resumed journal put back in the queue.
    mux.drain(core)?;
    processed += submitted.len();
    for (conn, path) in submitted {
        for line in mux.on_eof(core, conn)? {
            repute_core::write_atomic(&response_path(path), format!("{line}\n").as_bytes())?;
        }
        rename_done(path)?;
    }
    Ok(processed)
}

fn response_path(path: &Path) -> std::path::PathBuf {
    let mut out = path.as_os_str().to_os_string();
    out.push(".response");
    std::path::PathBuf::from(out)
}

fn rename_done(path: &Path) -> Result<(), ReputeError> {
    let mut done = path.as_os_str().to_os_string();
    done.push(".done");
    std::fs::rename(path, std::path::PathBuf::from(done)).map_err(|e| io_at(path, e))
}
