//! Framed TCP transport on the epoll reactor core.
//!
//! Mirrors the paper's Thrift deployment (§4.2.2): every connection
//! carries length-prefixed frames (see [`jiffy_proto::frame`]) and many
//! client threads multiplex concurrent in-flight requests over one
//! connection, with server pushes ([`Envelope::Push`]) arriving on the
//! same socket at any time.
//!
//! The transport is **readiness-driven and run-to-completion** (see
//! [`crate::reactor`] and DESIGN.md §12): a request is executed on the
//! thread that read it, and a reply is read by the thread waiting for it.
//!
//! - each [`serve_tcp`] server runs one acceptor [`Reactor`] thread for
//!   the listener and a fixed set of [`Executors`] (size
//!   [`jiffy_common::rpc_workers`]) that all block in `epoll_wait` on one
//!   epoll fd holding every session socket, armed `EPOLLONESHOT`. The
//!   executor that receives a session's readiness reads it, reassembles
//!   frames with [`FrameAssembler`], executes the complete ones in order,
//!   replies, and re-arms the session — thousands of idle sessions cost
//!   zero threads. A session is not read while it is being served, so a
//!   slow handler pushes back on its peer through TCP flow control, and
//!   requests on one session execute serially, exactly like the old
//!   per-connection thread;
//! - outgoing frames go through a per-socket [`EgressQueue`] — the PR 4
//!   corked writer adapted to nonblocking sockets: concurrent senders
//!   still collapse into single large writes, and on `WouldBlock` the
//!   frames park until the socket reports writability (the executor
//!   serving a session, which would receive that report, drains its own
//!   socket instead when over the cap);
//! - on a client connection, a caller that has sent its request and
//!   finds the reader role free takes it and polls the socket against
//!   its own deadline, demuxing every frame it reads: other callers'
//!   replies go into their [`WaiterTable`] slots and pushes to the
//!   [`PushSlot`]. Once its own reply is in, it hands the role to
//!   another live waiter whose request is sent. A small
//!   process-wide pool of client reactors
//!   ([`jiffy_common::rpc_client_reactors`] threads) reads only the
//!   connections no caller is waiting on — pushes to idle listeners.
//!
//! Push callbacks therefore run on whichever thread reads the
//! connection: a caller's or a client reactor's. They must not call on
//! the connection that delivered them (the nested call would wait for a
//! reader that is itself).
//!
//! The data-plane fast path survives unchanged: encodes go through a
//! reusable scratch buffer ([`jiffy_proto::to_bytes_into`]), steady-state
//! calls park in pooled waiter slots without allocating, and frame
//! payload buffers are reused per session.

use std::cell::RefCell;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

use jiffy_common::config::call_timeout;
use jiffy_common::{JiffyError, Result};
use jiffy_proto::{from_bytes, to_bytes, to_bytes_into, Envelope, FrameAssembler};
use jiffy_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use jiffy_sync::{Arc, Mutex, Weak};

use crate::reactor::{
    EgressQueue, EventHandler, Executors, Interest, Reactor, Reader, SendStatus, ServeGate,
    Session, WaiterTable, Wake,
};
use crate::service::{ClientConn, Connection, PushCallback, PushSlot, Service, SessionHandle};

/// How many bytes one readiness dispatch reads per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// How long a serving executor waits on its full session socket before
/// it re-checks for shutdown (see [`EgressQueue::send_draining`]).
const EGRESS_POLL_MS: i32 = 100;

/// Counters for the TCP transport itself (the accept path and its
/// sessions), in the same snapshot style as the fault injector's
/// `FaultStats`. Snapshot via [`TcpServerHandle::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Connections accepted by the listener.
    pub accepted: u64,
    /// Accepted connections dropped because the session could not be
    /// registered with the executors (the analogue of the old
    /// session-thread spawn failure — previously a silent `let _ =`).
    pub spawn_failures: u64,
    /// Transient accept-loop errors.
    pub accept_errors: u64,
    /// Sessions torn down (peer EOF, decode error, or write failure).
    pub sessions_closed: u64,
}

#[derive(Default)]
struct TransportCells {
    accepted: AtomicU64,
    spawn_failures: AtomicU64,
    accept_errors: AtomicU64,
    sessions_closed: AtomicU64,
    spawn_failure_logged: AtomicBool,
    /// Test hook: pending synthetic accept errors (see
    /// [`TcpServerHandle::inject_accept_errors`]).
    inject_accept_errors: AtomicU64,
    /// Test hook: pending synthetic session-registration failures.
    inject_session_failures: AtomicU64,
}

impl TransportCells {
    fn snapshot(&self) -> TransportStats {
        TransportStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            spawn_failures: self.spawn_failures.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            sessions_closed: self.sessions_closed.load(Ordering::Relaxed),
        }
    }
}

/// Decrements `counter` if positive; true when a unit was taken.
fn take_one(counter: &AtomicU64) -> bool {
    counter
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
        .is_ok()
}

/// Handle to a running TCP server; dropping it (or calling
/// [`TcpServerHandle::shutdown`]) closes the listener and tears down the
/// acceptor, the sessions, and the executors.
pub struct TcpServerHandle {
    addr: String,
    stop: Arc<AtomicBool>,
    acceptor: Arc<Reactor>,
    executors: Arc<Executors>,
    listener: Arc<ListenerHandler>,
    listener_token: u64,
    cells: Arc<TransportCells>,
}

impl TcpServerHandle {
    /// The address clients should dial, in Jiffy `tcp:host:port` form.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// A snapshot of the transport counters (connections accepted,
    /// session-registration failures, accept errors, sessions closed).
    pub fn stats(&self) -> TransportStats {
        self.cells.snapshot()
    }

    /// Sessions currently registered with the server's executors.
    pub fn live_sessions(&self) -> usize {
        self.executors.registered()
    }

    /// Makes the accept path report `n` synthetic transient errors (one
    /// per readiness pass, before touching the real backlog) so tests can
    /// prove the listener survives accept errors. Test hook.
    #[doc(hidden)]
    pub fn inject_accept_errors(&self, n: u64) {
        self.cells
            .inject_accept_errors
            .fetch_add(n, Ordering::SeqCst);
    }

    /// Makes the next `n` accepted connections fail session registration
    /// (counted in [`TransportStats::spawn_failures`], peer sees a
    /// reset), mirroring the old session-thread spawn failure. Test hook.
    #[doc(hidden)]
    pub fn fail_next_sessions(&self, n: u64) {
        self.cells
            .inject_session_failures
            .fetch_add(n, Ordering::SeqCst);
    }

    /// Stops the server: the listener closes (new dials are refused), the
    /// acceptor is joined, and the executors shut down, dropping every
    /// session. Clients with pooled connections observe broken sockets
    /// and evict them — exactly what a server crash looks like.
    pub fn shutdown(&mut self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            // Closing the listener fd refuses new dials immediately and
            // unblocks nothing: the accept path is readiness-driven.
            *self.listener.listener.lock() = None;
            self.acceptor
                .deregister(self.listener_token, self.listener.fd);
            self.acceptor.shutdown();
            // Joins idle executors (detaching any stuck in a handler after
            // a grace period) and drops the sessions: their sockets close
            // and peers see EOF/reset.
            self.executors.shutdown();
        }
    }
}

impl Drop for TcpServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts a TCP server for `service` on `bind` (e.g. `127.0.0.1:0` for an
/// ephemeral port) and returns its handle.
///
/// # Errors
///
/// Fails if the listener cannot bind or the acceptor/executor threads
/// cannot be spawned.
pub fn serve_tcp(bind: &str, service: Arc<dyn Service>) -> Result<TcpServerHandle> {
    let listener = TcpListener::bind(bind)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let executors = Executors::start(
        jiffy_common::rpc_workers(),
        &format!("jiffy-rpc-exec-{}", local.port()),
    )?;
    let acceptor = match Reactor::start(&format!("srv-{}", local.port())) {
        Ok(r) => r,
        Err(e) => {
            executors.shutdown();
            return Err(e);
        }
    };
    let cells = Arc::new(TransportCells::default());
    let stop = Arc::new(AtomicBool::new(false));
    let fd = listener.as_raw_fd();
    let handler = Arc::new(ListenerHandler {
        fd,
        local: local.to_string(),
        listener: Mutex::new(Some(listener)),
        cells: cells.clone(),
        service,
        executors: executors.clone(),
        stop: stop.clone(),
    });
    let listener_token = match acceptor.register(handler.clone(), true, false) {
        Ok(t) => t,
        Err(e) => {
            acceptor.shutdown();
            executors.shutdown();
            return Err(e);
        }
    };
    Ok(TcpServerHandle {
        addr: format!("tcp:{local}"),
        stop,
        acceptor,
        executors,
        listener: handler,
        listener_token,
        cells,
    })
}

/// The listener's event handler: accepts ready connections and registers
/// each as a [`ServerSession`] with the executors.
struct ListenerHandler {
    fd: RawFd,
    local: String,
    /// Taken (closed) at shutdown so new dials are refused immediately.
    listener: Mutex<Option<TcpListener>>,
    cells: Arc<TransportCells>,
    service: Arc<dyn Service>,
    executors: Arc<Executors>,
    stop: Arc<AtomicBool>,
}

impl ListenerHandler {
    fn register_session(&self, stream: TcpStream) -> Result<()> {
        if take_one(&self.cells.inject_session_failures) {
            return Err(JiffyError::Rpc("injected session failure".into()));
        }
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true)?;
        let egress_stream = stream.try_clone()?;
        let fd = stream.as_raw_fd();
        let token = self.executors.token();
        let sess = Arc::new_cyclic(|weak: &Weak<ServerSession>| {
            let w = weak.clone();
            let session = SessionHandle::new(Arc::new(move |n| {
                // Pushes are off the request hot path; a fresh encode is
                // fine. Best-effort: a dead session drops them.
                if let Some(s) = w.upgrade() {
                    if s.closed.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Ok(bytes) = to_bytes(&Envelope::Push(n)) {
                        if matches!(s.egress.send(&bytes), Ok(SendStatus::Parked)) {
                            // Re-arms for writability only if no executor
                            // is serving the session; one that is re-arms
                            // from live state on its way out.
                            let _ = s.gate.kick(|| s.executors.rearm(s.token, s.as_ref()));
                        }
                    }
                }
            }));
            ServerSession {
                stream,
                fd,
                executors: self.executors.clone(),
                token,
                cells: self.cells.clone(),
                service: self.service.clone(),
                session,
                egress: EgressQueue::new(egress_stream),
                gate: ServeGate::default(),
                scratch: Mutex::new(Scratch::default()),
                closed: AtomicBool::new(false),
            }
        });
        self.executors.register_at(token, sess)
    }
}

impl EventHandler for ListenerHandler {
    fn fd(&self) -> RawFd {
        self.fd
    }

    fn on_ready(&self, readable: bool, _writable: bool) -> bool {
        if self.stop.load(Ordering::SeqCst) {
            return false;
        }
        if !readable {
            return true;
        }
        let guard = self.listener.lock();
        let Some(listener) = guard.as_ref() else {
            return false;
        };
        loop {
            if take_one(&self.cells.inject_accept_errors) {
                // Synthetic transient error: count it and yield without
                // touching the backlog — level-triggered epoll re-reports
                // the pending connection on the next pass, proving the
                // listener survives accept errors without losing conns.
                self.cells.accept_errors.fetch_add(1, Ordering::Relaxed);
                return true;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    self.cells.accepted.fetch_add(1, Ordering::Relaxed);
                    if let Err(e) = self.register_session(stream) {
                        // The stream drops here: the peer sees a reset,
                        // not a silent hang.
                        self.cells.spawn_failures.fetch_add(1, Ordering::Relaxed);
                        if !self
                            .cells
                            .spawn_failure_logged
                            .swap(true, Ordering::Relaxed)
                        {
                            eprintln!(
                                "jiffy-rpc: dropping accepted connection on {}: \
                                 session registration failed: {e} (further failures \
                                 counted, not logged)",
                                self.local
                            );
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.cells.accept_errors.fetch_add(1, Ordering::Relaxed);
                    // Transient kernel errors (e.g. EMFILE) can report the
                    // listener readable forever; yield briefly so a
                    // level-triggered storm cannot monopolize the reactor.
                    // xtask-allow(no-blocking-in-reactor): bounded 1 ms backoff is the throttle itself
                    std::thread::sleep(Duration::from_millis(1));
                    return true;
                }
            }
        }
    }
}

/// Frame reassembly state and scratch buffers of one session. Only the
/// executor serving the session touches them: it takes them out of the
/// mutex for the whole serve and puts them back after.
#[derive(Default)]
struct Scratch {
    assembler: FrameAssembler,
    /// Request payload, reused across frames.
    payload: Vec<u8>,
    /// Encoded reply, reused across frames.
    out: Vec<u8>,
}

/// One accepted connection, served run-to-completion: the executor that
/// receives its readiness reads it, executes each complete request frame
/// in order and replies through the egress queue. The [`ServeGate`]
/// keeps it on one executor at a time, so requests on one session
/// execute serially, exactly like the old per-connection thread.
struct ServerSession {
    stream: TcpStream,
    fd: RawFd,
    executors: Arc<Executors>,
    token: u64,
    cells: Arc<TransportCells>,
    service: Arc<dyn Service>,
    session: SessionHandle,
    egress: EgressQueue<TcpStream>,
    gate: ServeGate,
    scratch: Mutex<Scratch>,
    /// Finalized (fd deregistered, on_disconnect ran). Terminal.
    closed: AtomicBool,
}

impl ServerSession {
    /// Reads the socket until it is drained, executing every complete
    /// frame as it arrives. Returns `false` when the session must close
    /// (peer EOF, read error, oversized frame, or a failed request).
    fn read_and_execute(&self, sc: &mut Scratch) -> bool {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match (&self.stream).read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => {
                    sc.assembler.push(&chunk[..n]);
                    loop {
                        match sc.assembler.next_frame_into(&mut sc.payload) {
                            Ok(Some(_)) => {
                                if !self.execute(&sc.payload, &mut sc.out) {
                                    return false;
                                }
                            }
                            Ok(None) => break,
                            // Oversized frame prefix: protocol violation.
                            Err(_) => return false,
                        }
                    }
                    // A short read means the socket buffer is drained —
                    // skip the would-be-EAGAIN syscall. Bytes that race
                    // in are reported again once the session is re-armed.
                    if n < READ_CHUNK {
                        return true;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Runs one request; false breaks the session (decode, encode or
    /// write errors).
    fn execute(&self, payload: &[u8], out: &mut Vec<u8>) -> bool {
        let Ok(env) = from_bytes::<Envelope>(payload) else {
            return false;
        };
        let resp = self.service.handle(env, &self.session);
        if to_bytes_into(&resp, out).is_err() {
            return false;
        }
        // A parked reply needs no action here: the serving executor
        // re-arms with write interest when it finishes. Over the egress
        // cap it cannot wait for that event — it is the thread that would
        // receive it — so it drains its own socket until there is room.
        self.egress
            .send_draining(out, || {
                if self.executors.is_stopped() {
                    return Err(JiffyError::Rpc("server shutting down".into()));
                }
                crate::reactor::poll_writable(self.fd, EGRESS_POLL_MS)
                    .map(|_| ())
                    .map_err(|e| JiffyError::Rpc(format!("poll for writability: {e}")))
            })
            .is_ok()
    }

    /// Tears the session down exactly once: deregisters the fd, runs
    /// `on_disconnect`, breaks the egress queue.
    fn finalize(&self) {
        if !self.closed.swap(true, Ordering::SeqCst) {
            self.executors.deregister(self.token, self.fd);
            self.service.on_disconnect(&self.session);
            self.egress.fail("session closed");
            self.cells.sessions_closed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Session for ServerSession {
    fn fd(&self) -> RawFd {
        self.fd
    }

    fn gate(&self) -> &ServeGate {
        &self.gate
    }

    fn serve(&self, readable: bool, writable: bool) -> bool {
        if self.closed.load(Ordering::SeqCst) {
            return false;
        }
        let mut alive = !writable || self.egress.on_writable().is_ok();
        if alive && readable {
            let mut sc = std::mem::take(&mut *self.scratch.lock());
            alive = self.read_and_execute(&mut sc);
            *self.scratch.lock() = sc;
        }
        if !alive {
            self.finalize();
        }
        alive
    }

    fn wants_write(&self) -> bool {
        self.egress.needs_write()
    }
}

thread_local! {
    /// Per-thread encode scratch: steady-state calls serialize into this
    /// buffer instead of allocating a fresh `Vec` per request.
    static ENCODE_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// The process-wide pool of client-side reactors. Dialed connections are
/// assigned round-robin; the threads live for the process lifetime (like
/// a global runtime's IO driver), so fd accounting in tests must
/// baseline *after* the first dial.
struct ClientReactors {
    reactors: Vec<Arc<Reactor>>,
    next: usize,
}

static CLIENT_REACTORS: Mutex<Option<ClientReactors>> = Mutex::new(None);

fn client_reactor() -> Result<Arc<Reactor>> {
    let mut guard = CLIENT_REACTORS.lock();
    if guard.is_none() {
        let n = jiffy_common::rpc_client_reactors().max(1);
        let mut reactors = Vec::with_capacity(n);
        for i in 0..n {
            reactors.push(Reactor::start(&format!("client-{i}"))?);
        }
        *guard = Some(ClientReactors { reactors, next: 0 });
    }
    let Some(pool) = guard.as_mut() else {
        return Err(JiffyError::Rpc("client reactor pool unavailable".into()));
    };
    let r = pool.reactors[pool.next % pool.reactors.len()].clone();
    pool.next = pool.next.wrapping_add(1);
    Ok(r)
}

/// Dials a Jiffy TCP address (`tcp:host:port`).
///
/// # Errors
///
/// Fails on malformed addresses or connection errors.
pub fn connect_tcp(addr: &str) -> Result<ClientConn> {
    let hostport = addr
        .strip_prefix("tcp:")
        .ok_or_else(|| JiffyError::Rpc(format!("bad tcp address: {addr}")))?;
    let stream = TcpStream::connect(hostport)?;
    let _ = stream.set_nodelay(true);
    stream.set_nonblocking(true)?;
    let egress_stream = stream.try_clone()?;
    let reactor = client_reactor()?;
    let fd = stream.as_raw_fd();
    let token = reactor.token();
    let shared = Arc::new(ClientShared {
        stream,
        fd,
        token,
        reactor: reactor.clone(),
        egress: EgressQueue::new(egress_stream),
        interest: Interest::new(true, false),
        waiters: WaiterTable::new(),
        push: PushSlot::new(),
        assembler: Mutex::new(ClientAssembler::default()),
        closed: AtomicBool::new(false),
    });
    reactor.register_at(token, shared.clone(), true, false)?;
    Ok(ClientConn(Arc::new(TcpConn {
        shared,
        next_id: AtomicU64::new(1),
    })))
}

#[derive(Default)]
struct ClientAssembler {
    assembler: FrameAssembler,
    /// Payload scratch reused across frames and reads.
    payload: Vec<u8>,
}

/// Client-side connection state shared between the caller-facing
/// [`TcpConn`] — whose callers read the socket while they hold the
/// reader role — and the client reactor, which reads it only while the
/// role is free (this type's [`EventHandler`] impl).
struct ClientShared {
    stream: TcpStream,
    fd: RawFd,
    token: u64,
    reactor: Arc<Reactor>,
    egress: EgressQueue<TcpStream>,
    interest: Interest,
    waiters: WaiterTable,
    push: PushSlot,
    assembler: Mutex<ClientAssembler>,
    closed: AtomicBool,
}

impl ClientShared {
    /// Queues one encoded request frame, arming writability if it parked.
    fn send_frame(&self, bytes: &[u8]) -> Result<()> {
        if matches!(self.egress.send(bytes)?, SendStatus::Parked) {
            self.refresh_interest()?;
        }
        Ok(())
    }

    /// Recomputes the reactor's interest from live state: read while no
    /// caller holds the reader role, write while egress owes a drain.
    fn refresh_interest(&self) -> Result<()> {
        self.interest
            .update(&self.reactor, self.token, self.fd, |_, _| {
                (!self.waiters.caller_reads(), self.egress.needs_write())
            })
    }

    /// Marks the connection dead and wakes everyone; returns `false` so
    /// `on_ready` callers deregister in the same breath.
    fn dead(&self) -> bool {
        self.closed.store(true, Ordering::SeqCst);
        self.egress.fail("connection dropped");
        self.waiters
            .fail_all("connection dropped while awaiting response");
        false
    }

    fn close_conn(&self) {
        if !self.closed.swap(true, Ordering::SeqCst) {
            // The reader (a caller's poll, or the reactor once the role
            // is free) observes the shutdown as EOF.
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
            self.egress.fail("connection closed");
            // Wake all pending waiters promptly.
            self.waiters.fail_all("connection closed");
        }
    }

    /// Reads everything the socket holds and demuxes every complete
    /// frame. Only the reader-role holder calls this. Returns `false`
    /// once the connection is dead (every waiter has been failed).
    fn pump(&self) -> bool {
        let mut chunk = [0u8; READ_CHUNK];
        let mut saw_eof = false;
        loop {
            match (&self.stream).read(&mut chunk) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                Ok(n) => {
                    self.assembler.lock().assembler.push(&chunk[..n]);
                    // Short read ⇒ socket drained; skip the EAGAIN
                    // syscall (the next poll or readiness report sees
                    // bytes that race in).
                    if n < READ_CHUNK {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    saw_eof = true;
                    break;
                }
            }
        }
        // Deliver outside the assembler lock: waiter delivery and push
        // callbacks must not nest under it.
        let mut payload = std::mem::take(&mut self.assembler.lock().payload);
        loop {
            let got = self
                .assembler
                .lock()
                .assembler
                .next_frame_into(&mut payload);
            match got {
                Ok(Some(_)) => {
                    if self.dispatch(&payload).is_err() {
                        return self.dead();
                    }
                }
                Ok(None) => break,
                Err(_) => return self.dead(),
            }
        }
        self.assembler.lock().payload = payload;
        if saw_eof {
            return self.dead();
        }
        true
    }

    /// Dispatches one decoded envelope: a reply to its waiter (whoever
    /// that is — possibly the reading caller itself), a push to the
    /// callback.
    fn dispatch(&self, payload: &[u8]) -> Result<()> {
        match from_bytes::<Envelope>(payload)? {
            Envelope::Push(n) => self.push.deliver(n),
            env @ (Envelope::ControlResp { .. } | Envelope::DataResp { .. }) => {
                let id = match &env {
                    Envelope::ControlResp { id, .. } | Envelope::DataResp { id, .. } => *id,
                    _ => 0,
                };
                // An unclaimed id means the caller already timed out;
                // the late reply is discarded.
                if let Some(slot) = self.waiters.claim(id) {
                    slot.deliver(Ok(env));
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Caller side, while holding the reader role: waits up to
    /// `remaining` for the socket to turn readable, then pumps it.
    fn read_for(&self, remaining: Duration) {
        let ms = remaining
            .as_micros()
            .div_ceil(1000)
            .clamp(1, i32::MAX as u128) as i32;
        match crate::reactor::poll_readable(self.fd, ms) {
            Ok(true) => {
                self.pump();
            }
            Ok(false) => {}
            Err(_) => {
                self.dead();
            }
        }
    }

    /// Hands the reader role on if `who` holds it, re-arming the
    /// reactor's read interest when the role went free.
    fn release_reader(&self, who: Reader) {
        if self.waiters.release_reader(who) {
            let _ = self.refresh_interest();
        }
    }
}

impl EventHandler for ClientShared {
    fn fd(&self) -> RawFd {
        self.fd
    }

    fn on_ready(&self, readable: bool, writable: bool) -> bool {
        if self.closed.load(Ordering::SeqCst) {
            // close_conn already failed the waiters; just deregister.
            return false;
        }
        if writable {
            match self.egress.on_writable() {
                Ok(SendStatus::Flushed) => {
                    let _ = self.refresh_interest();
                }
                Ok(SendStatus::Parked) => {}
                Err(_) => return self.dead(),
            }
        }
        if readable {
            if !self.waiters.take_reader(Reader::Reactor) {
                // A caller is reading this socket: stop reporting it here
                // until the role comes back.
                let _ = self.refresh_interest();
                return true;
            }
            let alive = self.pump();
            self.release_reader(Reader::Reactor);
            if !alive {
                return false;
            }
        }
        true
    }
}

/// Caller-facing TCP connection: stamps correlation ids, parks in the
/// waiter table or reads the socket itself, and enforces the call
/// timeout.
struct TcpConn {
    shared: Arc<ClientShared>,
    next_id: AtomicU64,
}

impl Connection for TcpConn {
    fn call(&self, req: Envelope) -> Result<Envelope> {
        let shared = &self.shared;
        if shared.closed.load(Ordering::SeqCst) {
            return Err(JiffyError::Rpc("connection closed".into()));
        }
        // Correlation id: callers that stamped a non-zero id keep it (so a
        // retry can reuse the id and hit the server's replay cache);
        // unstamped requests get a connection-unique id.
        let (id, req) = match req {
            Envelope::ControlReq { id: 0, req, tenant } => {
                let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                (id, Envelope::ControlReq { id, req, tenant })
            }
            Envelope::DataReq { id: 0, req, tenant } => {
                let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                (id, Envelope::DataReq { id, req, tenant })
            }
            Envelope::ControlReq { id, req, tenant } => {
                (id, Envelope::ControlReq { id, req, tenant })
            }
            Envelope::DataReq { id, req, tenant } => (id, Envelope::DataReq { id, req, tenant }),
            other => {
                return Err(JiffyError::Rpc(format!(
                    "cannot call with non-request envelope {other:?}"
                )))
            }
        };
        let slot = shared.waiters.register(id);
        if shared.closed.load(Ordering::SeqCst) {
            // The connection died between the check above and
            // registration; fail fast instead of waiting out the deadline.
            shared.waiters.unregister(id, &slot);
            return Err(JiffyError::Rpc("connection closed".into()));
        }
        let me = Reader::Caller(id);
        let sent = ENCODE_BUF.with(|b| -> Result<()> {
            let mut buf = b.borrow_mut();
            to_bytes_into(&req, &mut buf)?;
            shared.send_frame(&buf)
        });
        if let Err(e) = sent {
            if shared.waiters.unregister(id, &slot) {
                shared.waiters.recycle(id, slot);
            }
            return Err(e);
        }
        // Take the reader role only once the request is on its way: a
        // send can wait on the egress cap, and a sender must never hold
        // the role meanwhile — nobody would read the connection, so the
        // server could not drain its replies and the two sides would
        // block on each other. A reply the reactor reads first is in our
        // slot, where the loop below finds it.
        slot.mark_sent();
        let mut reading = shared.waiters.take_reader(me);
        if reading {
            let _ = shared.refresh_interest();
        }
        let timeout = call_timeout();
        let deadline = Instant::now() + timeout;
        let outcome = loop {
            if reading {
                if let Some(r) = slot.take_reply() {
                    break Some(r);
                }
                let now = Instant::now();
                if now >= deadline {
                    break None;
                }
                shared.read_for(deadline - now);
                continue;
            }
            match slot.wait(Some(deadline)) {
                Wake::Reply(r) => break Some(r),
                // The lead is a hint; the table says who really reads.
                Wake::Lead => reading = shared.waiters.reader() == me,
                Wake::Timeout => break None,
            }
        };
        let resp = match outcome {
            Some(r) => {
                shared.waiters.recycle(id, slot);
                r
            }
            None if shared.waiters.unregister(id, &slot) => {
                // A late reply is discarded by whoever reads it.
                shared.waiters.recycle(id, slot);
                Err(JiffyError::Timeout {
                    after_ms: timeout.as_millis() as u64,
                })
            }
            None => {
                // The demux side claimed the slot right as the deadline
                // expired; delivery is imminent.
                let r = slot.wait_reply();
                shared.waiters.recycle(id, slot);
                r
            }
        };
        // Our slot has left the table, so the role (if we hold it) goes
        // to another live, sent waiter, or back to the reactor.
        shared.release_reader(me);
        resp
    }

    fn set_push_callback(&self, cb: PushCallback) {
        self.shared.push.set(cb);
    }

    fn close(&self) {
        self.shared.close_conn();
    }
}

impl Drop for TcpConn {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    use jiffy_common::BlockId;
    use jiffy_proto::{DataRequest, DataResponse, Notification, OpKind};
    use jiffy_sync::atomic::AtomicUsize;

    struct Echo;

    impl Service for Echo {
        fn handle(&self, req: Envelope, session: &SessionHandle) -> Envelope {
            match req {
                Envelope::DataReq {
                    id,
                    req: DataRequest::Ping,
                    ..
                } => {
                    session.push(Notification {
                        block: BlockId(0),
                        op: OpKind::Write,
                        size: 0,
                        seq: id,
                    });
                    Envelope::DataResp {
                        id,
                        resp: Ok(DataResponse::Pong),
                    }
                }
                Envelope::DataReq { id, req, .. } => Envelope::DataResp {
                    id,
                    resp: Err(JiffyError::Internal(format!("unexpected {req:?}"))),
                },
                _ => Envelope::DataResp {
                    id: 0,
                    resp: Err(JiffyError::Internal("bad envelope".into())),
                },
            }
        }
    }

    /// A service that never answers, for exercising call deadlines.
    struct BlackHole;

    impl Service for BlackHole {
        fn handle(&self, _req: Envelope, _session: &SessionHandle) -> Envelope {
            std::thread::sleep(Duration::from_secs(3600));
            Envelope::DataResp {
                id: 0,
                resp: Err(JiffyError::Internal("unreachable".into())),
            }
        }
    }

    #[test]
    fn tcp_round_trip_and_push() {
        let mut server = serve_tcp("127.0.0.1:0", Arc::new(Echo)).unwrap();
        let conn = connect_tcp(server.addr()).unwrap();
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = seen.clone();
        conn.set_push_callback(Arc::new(move |_| {
            seen2.fetch_add(1, Ordering::SeqCst);
        }));
        for _ in 0..10 {
            let resp = conn
                .call(Envelope::DataReq {
                    id: 0,
                    req: DataRequest::Ping,
                    tenant: jiffy_common::TenantId::ANONYMOUS,
                })
                .unwrap();
            assert!(matches!(
                resp,
                Envelope::DataResp {
                    resp: Ok(DataResponse::Pong),
                    ..
                }
            ));
        }
        // Pushes arrive asynchronously; poll briefly.
        for _ in 0..100 {
            if seen.load(Ordering::SeqCst) == 10 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(seen.load(Ordering::SeqCst), 10);
        assert_eq!(server.stats().accepted, 1);
        assert_eq!(server.stats().spawn_failures, 0);
        server.shutdown();
    }

    #[test]
    fn concurrent_calls_multiplex_on_one_connection() {
        let server = serve_tcp("127.0.0.1:0", Arc::new(Echo)).unwrap();
        let conn = connect_tcp(server.addr()).unwrap();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = conn.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let resp = c
                        .call(Envelope::DataReq {
                            id: 0,
                            req: DataRequest::Ping,
                            tenant: jiffy_common::TenantId::ANONYMOUS,
                        })
                        .unwrap();
                    assert!(matches!(
                        resp,
                        Envelope::DataResp {
                            resp: Ok(DataResponse::Pong),
                            ..
                        }
                    ));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn unanswered_call_times_out() {
        jiffy_common::set_call_timeout(Duration::from_millis(200));
        let server = serve_tcp("127.0.0.1:0", Arc::new(BlackHole)).unwrap();
        let conn = connect_tcp(server.addr()).unwrap();
        let start = Instant::now();
        let err = conn
            .call(Envelope::DataReq {
                id: 0,
                req: DataRequest::Ping,
                tenant: jiffy_common::TenantId::ANONYMOUS,
            })
            .unwrap_err();
        assert!(matches!(err, JiffyError::Timeout { .. }), "got {err:?}");
        assert!(start.elapsed() < Duration::from_secs(5));
        jiffy_common::set_call_timeout(jiffy_common::DEFAULT_CALL_TIMEOUT);
        drop(server);
    }

    #[test]
    fn bad_address_is_rejected() {
        assert!(connect_tcp("inproc:1").is_err());
        assert!(connect_tcp("tcp:").is_err());
    }

    #[test]
    fn call_after_close_fails() {
        let server = serve_tcp("127.0.0.1:0", Arc::new(Echo)).unwrap();
        let conn = connect_tcp(server.addr()).unwrap();
        conn.close();
        assert!(conn
            .call(Envelope::DataReq {
                id: 0,
                req: DataRequest::Ping,
                tenant: jiffy_common::TenantId::ANONYMOUS,
            })
            .is_err());
        drop(server);
    }

    #[test]
    fn server_shutdown_refuses_new_connections() {
        let mut server = serve_tcp("127.0.0.1:0", Arc::new(Echo)).unwrap();
        let addr = server.addr().to_string();
        server.shutdown();
        // The listener is gone; dialing should now fail (or the accepted
        // socket is immediately closed, failing the first call).
        match connect_tcp(&addr) {
            Err(_) => {}
            Ok(conn) => {
                assert!(conn
                    .call(Envelope::DataReq {
                        id: 0,
                        req: DataRequest::Ping,
                        tenant: jiffy_common::TenantId::ANONYMOUS,
                    })
                    .is_err());
            }
        }
    }

    #[test]
    fn session_close_is_counted_and_disconnect_runs() {
        struct CountDisc(AtomicUsize);
        impl Service for CountDisc {
            fn handle(&self, req: Envelope, _s: &SessionHandle) -> Envelope {
                match req {
                    Envelope::DataReq { id, .. } => Envelope::DataResp {
                        id,
                        resp: Ok(DataResponse::Pong),
                    },
                    _ => Envelope::DataResp {
                        id: 0,
                        resp: Err(JiffyError::Internal("bad".into())),
                    },
                }
            }
            fn on_disconnect(&self, _s: &SessionHandle) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let svc = Arc::new(CountDisc(AtomicUsize::new(0)));
        let server = serve_tcp("127.0.0.1:0", svc.clone()).unwrap();
        let conn = connect_tcp(server.addr()).unwrap();
        conn.call(Envelope::DataReq {
            id: 0,
            req: DataRequest::Ping,
            tenant: jiffy_common::TenantId::ANONYMOUS,
        })
        .unwrap();
        assert_eq!(server.live_sessions(), 1);
        conn.close();
        let deadline = Instant::now() + Duration::from_secs(5);
        while (svc.0.load(Ordering::SeqCst) != 1 || server.stats().sessions_closed != 1)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(svc.0.load(Ordering::SeqCst), 1, "on_disconnect ran once");
        assert_eq!(server.stats().sessions_closed, 1);
        assert_eq!(server.live_sessions(), 0);
        drop(server);
    }
}
