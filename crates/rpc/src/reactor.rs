//! A small vendored epoll reactor — the c10k core under the TCP
//! transport.
//!
//! The thread-per-connection transport this replaces spawned one OS
//! thread per accepted session with blocking reads: fine for dozens of
//! connections, fatal for the paper's workload of thousands of
//! short-lived serverless lambdas fanning into one memory server. This
//! module provides the readiness-driven machinery [`crate::tcp`] is
//! built on, with **no async runtime dependency** — just nonblocking
//! sockets, `epoll` and `poll`:
//!
//! - [`Reactor`] — one thread around `epoll_wait`; nonblocking fds are
//!   registered with an [`EventHandler`] and a level-triggered interest
//!   set, and readiness callbacks run on the reactor thread, which must
//!   never block. A server's acceptor and the process-wide client event
//!   loops are reactors.
//! - [`Executors`] — run-to-completion serving: a fixed set of executor
//!   threads all block in `epoll_wait` on one epoll fd holding every
//!   server session, armed `EPOLLONESHOT`. The thread that receives a
//!   session's readiness reads it, executes its complete frames in
//!   order, replies, and re-arms it — no hand-off between reading and
//!   executing. [`ServeGate`] keeps one session on one executor at a
//!   time even when a push re-arms the fd concurrently.
//! - [`EgressQueue`] — the PR 4 corked writer evolved into a per-socket
//!   egress queue: senders append length-prefixed frames under a short
//!   lock and the queue drains through the nonblocking socket, parking
//!   on `WouldBlock` until writability is reported. Frame ordering is
//!   the append order; frames are never torn or reordered. An executor
//!   serving a session is its socket's only drainer, so over the cap it
//!   drains the socket itself rather than wait for a report.
//! - [`WaiterTable`] / [`WaiterSlot`] — the sharded rendezvous for
//!   pending client calls, plus the connection's **reader role**: the
//!   caller holding it reads the socket itself and demuxes every frame
//!   (other callers' replies into their slots), then hands the role to
//!   another live waiter whose request is sent. Only when no such caller
//!   waits does the client reactor read the connection.
//!
//! The syscall surface is six functions (`epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `poll`, `close`, plus a `UnixStream` self-wake pipe)
//! declared directly against the platform libc — nothing to vendor,
//! nothing to install.
//!
//! Concurrency invariants (verified by `tests/loom_reactor.rs` models):
//!
//! - a registered waiter always observes exactly one terminal outcome —
//!   delivery, connection-failure, or its own timeout unregistration —
//!   and its pooled slot is recycled at most once;
//! - while any waiter whose request is sent is live, some thread holds
//!   the reader role or has been woken to take it, and a caller still
//!   sending is never handed the role;
//! - egress frames drain in append order across any interleaving of
//!   senders and writability events, without loss or tearing;
//! - a session is never served by two executors at once, and a push
//!   that parks egress mid-serve never strands its frame.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::RawFd;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use jiffy_common::{JiffyError, Result};
use jiffy_proto::{frame, Envelope};
use jiffy_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use jiffy_sync::{Arc, Condvar, Mutex};

/// Raw epoll bindings. The symbols live in the platform libc, which
/// every Rust binary on Linux links already; declaring them here avoids
/// both an external crate and a vendored stand-in.
mod sys {
    use std::io;
    use std::os::unix::io::RawFd;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLONESHOT: u32 = 1 << 30;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;

    /// `EPOLL_CLOEXEC` == `O_CLOEXEC` (same value on every Linux arch).
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// The kernel ABI packs `struct epoll_event` on x86-64 (and only
    /// there); everywhere else it has natural layout.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    pub fn create() -> io::Result<RawFd> {
        // SAFETY: epoll_create1 takes a flag word and returns an fd or
        // -1; no pointers are involved.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(fd)
        }
    }

    pub fn ctl(epfd: RawFd, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a valid epoll_event for the duration of the
        // call; DEL ignores the pointer on modern kernels but passing a
        // valid one is correct on all of them.
        let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    pub fn wait(epfd: RawFd, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the buffer pointer/length pair describes `events`,
            // which outlives the call.
            let n =
                unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) };
            if n >= 0 {
                return Ok(n as usize);
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }

    /// Waits up to `timeout_ms` for `fd` to turn readable (or report an
    /// error/hangup). `Ok(false)` means the timeout passed; a signal
    /// interruption reports `Ok(true)` so the caller re-reads and
    /// recomputes its deadline.
    pub fn poll_readable(fd: RawFd, timeout_ms: i32) -> io::Result<bool> {
        poll_one(fd, POLLIN, timeout_ms)
    }

    /// [`poll_readable`] for writability: the socket has buffer room (or
    /// an error/hangup to report through the next write).
    pub fn poll_writable(fd: RawFd, timeout_ms: i32) -> io::Result<bool> {
        poll_one(fd, POLLOUT, timeout_ms)
    }

    fn poll_one(fd: RawFd, events: i16, timeout_ms: i32) -> io::Result<bool> {
        let mut p = PollFd {
            fd,
            events,
            revents: 0,
        };
        // SAFETY: `p` is one valid pollfd for the duration of the call.
        let n = unsafe { poll(&mut p, 1, timeout_ms) };
        if n >= 0 {
            return Ok(n > 0);
        }
        let e = io::Error::last_os_error();
        if e.kind() == io::ErrorKind::Interrupted {
            Ok(true)
        } else {
            Err(e)
        }
    }

    pub fn close_fd(fd: RawFd) {
        // SAFETY: the caller owns `fd` and never uses it again.
        let _ = unsafe { close(fd) };
    }
}

/// How a caller holding a connection's reader role waits for its reply,
/// and how a serving executor waits out its own session's full socket.
pub(crate) use sys::{poll_readable, poll_writable};

/// Reserved token for the reactor's self-wake pipe.
const WAKE_TOKEN: u64 = u64::MAX;

/// How many readiness events one `epoll_wait` call collects.
const EVENT_BATCH: usize = 256;

/// Readiness callback target: one registered nonblocking fd (a server's
/// listener, or a client connection no caller is reading).
///
/// `on_ready` runs on the reactor thread, so implementations must only
/// move bytes — never execute a request or block.
pub trait EventHandler: Send + Sync {
    /// The fd this handler was registered with. Must stay valid until
    /// the handler is deregistered (the handler owns the socket).
    fn fd(&self) -> RawFd;

    /// Called with the readiness of the fd (level-triggered; error/hangup
    /// conditions report as both readable and writable so both paths
    /// observe the failure). Return `false` to have the reactor
    /// deregister the fd and drop its handler reference.
    fn on_ready(&self, readable: bool, writable: bool) -> bool;
}

/// A readiness-driven event loop: one thread multiplexing any number of
/// nonblocking fds through `epoll_wait`.
pub struct Reactor {
    epfd: RawFd,
    wake_w: UnixStream,
    handlers: Mutex<HashMap<u64, Arc<dyn EventHandler>>>,
    next_token: AtomicU64,
    stop: AtomicBool,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Reactor {
    /// Creates the epoll instance, the self-wake pipe, and the reactor
    /// thread (named `jiffy-reactor-{name}`).
    ///
    /// # Errors
    ///
    /// Fails if the epoll instance, the wake pipe, or the thread cannot
    /// be created.
    pub fn start(name: &str) -> Result<Arc<Self>> {
        let epfd = sys::create().map_err(|e| JiffyError::Rpc(format!("epoll_create1: {e}")))?;
        let (wake_r, wake_w) = match UnixStream::pair() {
            Ok(p) => p,
            Err(e) => {
                sys::close_fd(epfd);
                return Err(JiffyError::Rpc(format!("wake pipe: {e}")));
            }
        };
        let arm = (|| -> std::io::Result<()> {
            wake_r.set_nonblocking(true)?;
            wake_w.set_nonblocking(true)?;
            sys::ctl(
                epfd,
                sys::EPOLL_CTL_ADD,
                std::os::unix::io::AsRawFd::as_raw_fd(&wake_r),
                sys::EPOLLIN,
                WAKE_TOKEN,
            )
        })();
        if let Err(e) = arm {
            sys::close_fd(epfd);
            return Err(JiffyError::Rpc(format!("arm wake pipe: {e}")));
        }
        let reactor = Arc::new(Self {
            epfd,
            wake_w,
            handlers: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(1),
            stop: AtomicBool::new(false),
            thread: Mutex::new(None),
        });
        let r2 = reactor.clone();
        let thread = std::thread::Builder::new()
            .name(format!("jiffy-reactor-{name}"))
            .spawn(move || r2.run(wake_r))
            .map_err(|e| JiffyError::Rpc(format!("spawn reactor thread: {e}")))?;
        *reactor.thread.lock() = Some(thread);
        Ok(reactor)
    }

    fn run(&self, mut wake_r: UnixStream) {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
        let mut drain = [0u8; 64];
        while let Ok(n) = sys::wait(self.epfd, &mut events, -1) {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            for ev in &events[..n] {
                let token = ev.data;
                let bits = ev.events;
                if token == WAKE_TOKEN {
                    while matches!(wake_r.read(&mut drain), Ok(n) if n > 0) {}
                    continue;
                }
                let handler = self.handlers.lock().get(&token).cloned();
                let Some(h) = handler else { continue };
                let failed = bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
                let readable = failed || bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0;
                let writable = failed || bits & sys::EPOLLOUT != 0;
                if !h.on_ready(readable, writable) {
                    self.deregister(token, h.fd());
                }
            }
        }
    }

    /// Reserves a registration token. Handing the token out *before*
    /// [`Reactor::register_at`] lets a handler learn its own token prior
    /// to the first readiness dispatch (which can arrive the instant the
    /// fd is armed).
    pub fn token(&self) -> u64 {
        self.next_token.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers `handler`'s fd under a token from [`Reactor::token`]
    /// with the given initial interest.
    ///
    /// # Errors
    ///
    /// Fails if the reactor is stopped or the kernel rejects the fd.
    pub fn register_at(
        &self,
        token: u64,
        handler: Arc<dyn EventHandler>,
        read: bool,
        write: bool,
    ) -> Result<()> {
        if self.stop.load(Ordering::SeqCst) {
            return Err(JiffyError::Rpc("reactor stopped".into()));
        }
        let fd = handler.fd();
        self.handlers.lock().insert(token, handler);
        if let Err(e) = sys::ctl(
            self.epfd,
            sys::EPOLL_CTL_ADD,
            fd,
            interest_bits(read, write),
            token,
        ) {
            self.handlers.lock().remove(&token);
            return Err(JiffyError::Rpc(format!("epoll register: {e}")));
        }
        Ok(())
    }

    /// Registers `handler`'s fd with the given initial interest and
    /// returns its token.
    ///
    /// # Errors
    ///
    /// Fails if the reactor is stopped or the kernel rejects the fd.
    pub fn register(&self, handler: Arc<dyn EventHandler>, read: bool, write: bool) -> Result<u64> {
        let token = self.token();
        self.register_at(token, handler, read, write)?;
        Ok(token)
    }

    /// Replaces the interest set of a registered fd. Callable from any
    /// thread (epoll is thread-safe); used by callers taking or handing
    /// back a connection's reader role and by egress senders, without
    /// bouncing through the reactor.
    ///
    /// # Errors
    ///
    /// Fails if the fd is no longer registered (e.g. torn down
    /// concurrently) — callers treat that as connection death.
    pub fn rearm(&self, token: u64, fd: RawFd, read: bool, write: bool) -> Result<()> {
        sys::ctl(
            self.epfd,
            sys::EPOLL_CTL_MOD,
            fd,
            interest_bits(read, write),
            token,
        )
        .map_err(|e| JiffyError::Rpc(format!("epoll rearm: {e}")))
    }

    /// Removes an fd from the epoll set and drops the reactor's handler
    /// reference (the fd itself closes when the last handler `Arc` does).
    pub fn deregister(&self, token: u64, fd: RawFd) {
        let _ = sys::ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, token);
        self.handlers.lock().remove(&token);
    }

    /// Number of currently registered handlers (excluding the wake pipe).
    pub fn registered(&self) -> usize {
        self.handlers.lock().len()
    }

    /// Wakes the reactor thread out of `epoll_wait`.
    pub fn wake(&self) {
        let _ = (&self.wake_w).write(&[1]);
    }

    /// Stops and joins the reactor thread, then drops every handler
    /// reference. Idempotent.
    pub fn shutdown(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            self.wake();
            if let Some(t) = self.thread.lock().take() {
                let _ = t.join();
            }
            self.handlers.lock().clear();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        // The reactor thread holds an Arc, so Drop can only run after it
        // exited (or was never joined because shutdown was not called —
        // impossible, since the thread's Arc would still be live).
        sys::close_fd(self.epfd);
    }
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Reactor(handlers={})", self.registered())
    }
}

/// Tracks the desired interest set of one registered fd so that
/// arm/disarm requests racing from different threads (a caller parking
/// egress or taking the reader role, the reactor draining egress or
/// handing the role back) serialize into a coherent final state instead
/// of clobbering each other's epoll `MOD`s.
pub struct Interest {
    state: Mutex<(bool, bool)>,
}

impl Interest {
    /// Creates a cell mirroring the interest the fd was registered with.
    pub fn new(read: bool, write: bool) -> Self {
        Self {
            state: Mutex::new((read, write)),
        }
    }

    /// Recomputes the interest set under the cell's lock and pushes it to
    /// the kernel if it changed.
    ///
    /// `f` receives the currently recorded `(read, write)` interest and
    /// returns the desired one. Crucially, `f` runs *inside* the lock, so
    /// callers derive the decision from **live** state (e.g. "does the
    /// egress queue hold parked bytes *right now*") rather than from a
    /// stale operation result — with stale inputs, a drain's disarm can
    /// race a sender's arm and strand queued frames with writability
    /// disarmed. With live inputs, whichever update serializes last wins
    /// with a decision that matches the state it observed.
    ///
    /// # Errors
    ///
    /// Propagates [`Reactor::rearm`] failures (fd already torn down).
    pub fn update<F>(&self, reactor: &Reactor, token: u64, fd: RawFd, f: F) -> Result<()>
    where
        F: FnOnce(bool, bool) -> (bool, bool),
    {
        let mut g = self.state.lock();
        let next = f(g.0, g.1);
        if next == *g {
            return Ok(());
        }
        *g = next;
        reactor.rearm(token, fd, next.0, next.1)
    }
}

fn interest_bits(read: bool, write: bool) -> u32 {
    let mut bits = sys::EPOLLRDHUP;
    if read {
        bits |= sys::EPOLLIN;
    }
    if write {
        bits |= sys::EPOLLOUT;
    }
    bits
}

/// Where [`EgressQueue`] bytes go: a nonblocking byte sink. Implemented
/// for `TcpStream`; loom models substitute a scripted sink that injects
/// short writes and `WouldBlock` at chosen points.
pub trait EgressSink {
    /// Writes a prefix of `buf`, returning how many bytes were accepted.
    ///
    /// # Errors
    ///
    /// `WouldBlock` parks the queue until writability; other errors break
    /// the connection.
    fn sink_write(&self, buf: &[u8]) -> std::io::Result<usize>;
}

impl EgressSink for TcpStream {
    fn sink_write(&self, buf: &[u8]) -> std::io::Result<usize> {
        let mut s: &TcpStream = self;
        s.write(buf)
    }
}

/// Outcome of a send or drain on an [`EgressQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendStatus {
    /// Everything queued so far is on the wire.
    Flushed,
    /// The socket would block; bytes remain queued and the caller must
    /// (keep) the fd armed for writability so the reactor drains them.
    Parked,
}

struct EgressState {
    /// Length-prefixed frames packed back to back; `[head..]` is unsent.
    buf: Vec<u8>,
    head: usize,
    /// `Some(reason)` once the sink failed or the connection closed.
    broken: Option<String>,
    /// A `WouldBlock` left bytes queued; the drain is owed to the next
    /// writability event rather than to senders.
    parked: bool,
}

/// Per-socket egress queue: the PR 4 corked writer adapted to
/// nonblocking sockets.
///
/// Senders append one length-prefixed frame under the lock and drain the
/// queue through the sink while they hold it (the sink never blocks, so
/// the critical section is bounded by a kernel buffer copy). A burst of
/// concurrent small sends still collapses into one big write. When the
/// socket's buffer fills, the queue parks: bytes stay queued, senders
/// return immediately, and the next writability event drains. Senders
/// block (on a condvar, not the socket) only once the queue holds more
/// than `cap` unsent bytes — backpressure for peers that stop reading.
/// The one sender that must not wait for a writability event, because it
/// is the one that would receive it, uses [`EgressQueue::send_draining`].
pub struct EgressQueue<S> {
    sink: S,
    state: Mutex<EgressState>,
    drained: Condvar,
    cap: usize,
}

impl<S: EgressSink> EgressQueue<S> {
    /// Creates a queue with the process-wide default cap
    /// ([`jiffy_common::config::rpc_egress_cap`]).
    pub fn new(sink: S) -> Self {
        Self::with_cap(sink, jiffy_common::rpc_egress_cap())
    }

    /// Creates a queue with an explicit unsent-byte cap (tests/models).
    pub fn with_cap(sink: S, cap: usize) -> Self {
        Self {
            sink,
            state: Mutex::new(EgressState {
                buf: Vec::new(),
                head: 0,
                broken: None,
                parked: false,
            }),
            drained: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// The sink this queue writes to.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Unsent bytes currently queued.
    pub fn pending(&self) -> usize {
        let st = self.state.lock();
        st.buf.len() - st.head
    }

    /// True while a drain is owed to a writability event: the queue hit
    /// `WouldBlock` and holds bytes the reactor must flush. This is the
    /// *live* input for [`Interest::update`] write-interest decisions.
    pub fn needs_write(&self) -> bool {
        let st = self.state.lock();
        st.parked && st.broken.is_none()
    }

    /// Queues `payload` as one frame and drains as far as the socket
    /// allows. `Ok(Parked)` means bytes remain queued and the caller must
    /// ensure the fd is armed for writability.
    ///
    /// Blocks (without holding the socket) while more than the cap of
    /// unsent bytes is queued; a frame destined for an empty queue is
    /// always admitted, so frames up to `MAX_FRAME_LEN` pass any cap.
    ///
    /// # Errors
    ///
    /// Fails if the connection is broken or the frame exceeds
    /// [`frame`]'s `MAX_FRAME_LEN`.
    pub fn send(&self, payload: &[u8]) -> Result<SendStatus> {
        let mut st = self.state.lock();
        loop {
            if let Some(reason) = &st.broken {
                return Err(JiffyError::Rpc(reason.clone()));
            }
            let pending = st.buf.len() - st.head;
            if pending == 0 || pending <= self.cap {
                break;
            }
            self.drained.wait(&mut st);
        }
        frame::encode_frame(payload, &mut st.buf)?;
        if st.parked {
            // A drain is owed to the reactor's next writability event;
            // this frame rides it.
            return Ok(SendStatus::Parked);
        }
        self.drain_locked(&mut st)
    }

    /// [`EgressQueue::send`] for the thread that is the socket's only
    /// drainer — the executor serving a session, which holds the
    /// session's `EPOLLONESHOT` registration disarmed, so no writability
    /// event would ever reach anyone else. Over the cap it does not wait
    /// for a drain that would never come: it drains the socket itself,
    /// calling `wait_writable` whenever the socket is full, until the
    /// queue is back under the cap. Senders blocked in
    /// [`EgressQueue::send`] are woken by those drains as usual.
    ///
    /// # Errors
    ///
    /// As [`EgressQueue::send`], plus whatever `wait_writable` returns
    /// (the caller's way to give up, e.g. at shutdown).
    pub fn send_draining(
        &self,
        payload: &[u8],
        mut wait_writable: impl FnMut() -> Result<()>,
    ) -> Result<SendStatus> {
        loop {
            {
                let mut st = self.state.lock();
                if let Some(reason) = &st.broken {
                    return Err(JiffyError::Rpc(reason.clone()));
                }
                let pending = st.buf.len() - st.head;
                if pending == 0 || pending <= self.cap {
                    frame::encode_frame(payload, &mut st.buf)?;
                    if st.parked {
                        return Ok(SendStatus::Parked);
                    }
                    return self.drain_locked(&mut st);
                }
                st.parked = false;
                if self.drain_locked(&mut st)? == SendStatus::Flushed {
                    continue;
                }
            }
            wait_writable()?;
        }
    }

    /// Reactor side: the socket reported writable — drain queued bytes.
    ///
    /// # Errors
    ///
    /// Propagates sink failures; the caller tears the connection down.
    pub fn on_writable(&self) -> Result<SendStatus> {
        let mut st = self.state.lock();
        if let Some(reason) = &st.broken {
            return Err(JiffyError::Rpc(reason.clone()));
        }
        st.parked = false;
        self.drain_locked(&mut st)
    }

    /// Marks the queue broken (connection teardown), waking any sender
    /// blocked on the cap.
    pub fn fail(&self, reason: &str) {
        let mut st = self.state.lock();
        if st.broken.is_none() {
            st.broken = Some(reason.to_string());
        }
        st.buf.clear();
        st.head = 0;
        self.drained.notify_all();
    }

    fn drain_locked(&self, st: &mut jiffy_sync::MutexGuard<'_, EgressState>) -> Result<SendStatus> {
        while st.head < st.buf.len() {
            let wrote = {
                let window = &st.buf[st.head..];
                self.sink.sink_write(window)
            };
            match wrote {
                Ok(0) => {
                    st.broken = Some("connection closed by peer".into());
                    self.drained.notify_all();
                    return Err(JiffyError::Rpc("connection closed by peer".into()));
                }
                Ok(n) => {
                    st.head += n;
                    self.drained.notify_all();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    st.parked = true;
                    // Reclaim the dead prefix so a long park does not pin
                    // already-sent bytes.
                    if st.head >= 64 * 1024 {
                        let head = st.head;
                        st.buf.drain(..head);
                        st.head = 0;
                    }
                    return Ok(SendStatus::Parked);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    let msg = format!("egress write failed: {e}");
                    st.broken = Some(msg.clone());
                    self.drained.notify_all();
                    return Err(JiffyError::Rpc(msg));
                }
            }
        }
        st.buf.clear();
        st.head = 0;
        self.drained.notify_all();
        Ok(SendStatus::Flushed)
    }
}

/// A server session served run-to-completion by [`Executors`].
pub trait Session: Send + Sync {
    /// The session socket. Must stay valid until the session is
    /// deregistered (the session owns the socket).
    fn fd(&self) -> RawFd;

    /// The gate that keeps this session on one executor at a time.
    fn gate(&self) -> &ServeGate;

    /// Serves one readiness report on the executor thread that received
    /// it: drain egress if writable; if readable, read the socket and
    /// execute every complete frame in order, replying as it goes.
    /// Handlers may block here (a blocked executor stalls only its own
    /// session). Returns `false` once the session is torn down; the
    /// pool then deregisters it instead of re-arming.
    fn serve(&self, readable: bool, writable: bool) -> bool;

    /// Live write interest: true while egress owes a drain.
    fn wants_write(&self) -> bool;
}

/// Per-session serving flag — the mutual exclusion behind
/// run-to-completion serving.
///
/// `EPOLLONESHOT` alone hands a session to one executor per arming, but
/// a push that parks egress must re-arm an idle session (to get write
/// interest), and that re-arm can land just after the kernel delivered
/// the session to an executor that has not yet started serving. The
/// gate closes that window: an executor serves only after
/// [`ServeGate::begin`] succeeds (a loser drops its event — the winner
/// re-arms when it finishes, and level-triggered readiness re-reports
/// anything still pending), pushes re-arm only while nobody serves
/// ([`ServeGate::kick`]), and the serving thread clears the flag and
/// re-arms in one critical section ([`ServeGate::end`]), with interest
/// computed from live state inside it — the [`Interest::update`] rule.
#[derive(Default)]
pub struct ServeGate {
    serving: Mutex<bool>,
}

impl ServeGate {
    /// Claims the session for the calling executor; `false` when another
    /// executor is serving it.
    pub fn begin(&self) -> bool {
        let mut serving = self.serving.lock();
        !std::mem::replace(&mut *serving, true)
    }

    /// Releases the session and re-arms it (`rearm` runs under the gate,
    /// so it serializes with [`ServeGate::kick`]).
    pub fn end<R>(&self, rearm: impl FnOnce() -> R) -> R {
        let mut serving = self.serving.lock();
        *serving = false;
        rearm()
    }

    /// Re-arms the session only if no executor is serving it — the
    /// serving thread re-arms on its way out. `None` when skipped.
    pub fn kick<R>(&self, rearm: impl FnOnce() -> R) -> Option<R> {
        let serving = self.serving.lock();
        if *serving {
            None
        } else {
            Some(rearm())
        }
    }

    /// True while an executor serves the session (model introspection).
    pub fn is_serving(&self) -> bool {
        *self.serving.lock()
    }
}

struct Executor {
    handle: std::thread::JoinHandle<()>,
    exited: Arc<AtomicBool>,
}

/// A fixed set of executor threads serving [`Session`]s
/// run-to-completion.
///
/// Every executor blocks in `epoll_wait` (one event at a time) on the
/// pool's single epoll fd; sessions are armed `EPOLLONESHOT`, so a
/// readiness report goes to exactly one executor, which serves the
/// session and re-arms it with read interest plus write interest while
/// egress is parked. The executor count bounds execution concurrency no
/// matter how many sessions are registered.
pub struct Executors {
    epfd: RawFd,
    /// Registered on `epfd`; kept open for the pool's lifetime.
    _wake_r: UnixStream,
    wake_w: UnixStream,
    sessions: Mutex<HashMap<u64, Arc<dyn Session>>>,
    next_token: AtomicU64,
    stop: AtomicBool,
    threads: Mutex<Vec<Executor>>,
}

impl Executors {
    /// Creates the epoll instance and spawns `n` executor threads (named
    /// `{name}-{i}`).
    ///
    /// # Errors
    ///
    /// Fails if the epoll instance or wake pipe cannot be created, or no
    /// executor thread could be spawned; a partially spawned pool (rare)
    /// proceeds with the threads it got.
    pub fn start(n: usize, name: &str) -> Result<Arc<Self>> {
        let epfd = sys::create().map_err(|e| JiffyError::Rpc(format!("epoll_create1: {e}")))?;
        let (wake_r, wake_w) = match UnixStream::pair() {
            Ok(p) => p,
            Err(e) => {
                sys::close_fd(epfd);
                return Err(JiffyError::Rpc(format!("wake pipe: {e}")));
            }
        };
        // Level-triggered and never drained: once written at shutdown it
        // wakes every executor, each of which sees `stop` and exits.
        if let Err(e) = sys::ctl(
            epfd,
            sys::EPOLL_CTL_ADD,
            std::os::unix::io::AsRawFd::as_raw_fd(&wake_r),
            sys::EPOLLIN,
            WAKE_TOKEN,
        ) {
            sys::close_fd(epfd);
            return Err(JiffyError::Rpc(format!("arm wake pipe: {e}")));
        }
        let pool = Arc::new(Self {
            epfd,
            _wake_r: wake_r,
            wake_w,
            sessions: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(1),
            stop: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
        });
        let mut threads = Vec::new();
        let mut first_err = None;
        for i in 0..n.max(1) {
            let p = pool.clone();
            let exited = Arc::new(AtomicBool::new(false));
            let ex2 = exited.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(move || {
                    p.run();
                    ex2.store(true, Ordering::SeqCst);
                });
            match spawned {
                Ok(handle) => threads.push(Executor { handle, exited }),
                Err(e) => first_err = Some(e),
            }
        }
        if threads.is_empty() {
            // Dropping `pool` closes the epoll fd.
            return Err(JiffyError::Rpc(format!(
                "spawn executors: {}",
                first_err.map(|e| e.to_string()).unwrap_or_default()
            )));
        }
        *pool.threads.lock() = threads;
        Ok(pool)
    }

    fn run(&self) {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 1];
        while let Ok(n) = sys::wait(self.epfd, &mut events, -1) {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            if n == 0 {
                continue;
            }
            let token = events[0].data;
            let bits = events[0].events;
            if token == WAKE_TOKEN {
                continue;
            }
            let session = self.sessions.lock().get(&token).cloned();
            let Some(s) = session else { continue };
            if !s.gate().begin() {
                continue;
            }
            let failed = bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
            let readable = failed || bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0;
            let writable = failed || bits & sys::EPOLLOUT != 0;
            if s.serve(readable, writable) {
                let _ = s.gate().end(|| self.rearm(token, s.as_ref()));
            } else {
                self.deregister(token, s.fd());
            }
        }
    }

    /// Reserves a registration token (see [`Reactor::token`]).
    pub fn token(&self) -> u64 {
        self.next_token.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers `session` under a token from [`Executors::token`],
    /// armed for read.
    ///
    /// # Errors
    ///
    /// Fails if the pool is stopped or the kernel rejects the fd.
    pub fn register_at(&self, token: u64, session: Arc<dyn Session>) -> Result<()> {
        if self.stop.load(Ordering::SeqCst) {
            return Err(JiffyError::Rpc("executors stopped".into()));
        }
        let fd = session.fd();
        self.sessions.lock().insert(token, session);
        if let Err(e) = sys::ctl(
            self.epfd,
            sys::EPOLL_CTL_ADD,
            fd,
            oneshot_bits(false),
            token,
        ) {
            self.sessions.lock().remove(&token);
            return Err(JiffyError::Rpc(format!("epoll register: {e}")));
        }
        Ok(())
    }

    /// Re-arms a session for one more readiness report: read interest
    /// always, write interest while [`Session::wants_write`]. Callers go
    /// through the session's [`ServeGate`].
    ///
    /// # Errors
    ///
    /// Fails if the fd is no longer registered (torn down concurrently).
    pub fn rearm(&self, token: u64, session: &dyn Session) -> Result<()> {
        sys::ctl(
            self.epfd,
            sys::EPOLL_CTL_MOD,
            session.fd(),
            oneshot_bits(session.wants_write()),
            token,
        )
        .map_err(|e| JiffyError::Rpc(format!("epoll rearm: {e}")))
    }

    /// Removes a session from the epoll set and drops the pool's
    /// reference (the socket closes when the last `Arc` does).
    pub fn deregister(&self, token: u64, fd: RawFd) {
        let _ = sys::ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, token);
        self.sessions.lock().remove(&token);
    }

    /// Number of registered sessions.
    pub fn registered(&self) -> usize {
        self.sessions.lock().len()
    }

    /// True once [`Executors::shutdown`] has begun.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Number of executor threads.
    pub fn threads(&self) -> usize {
        self.threads.lock().len()
    }

    /// Stops the pool: every registered session is dropped (closing its
    /// socket unless an executor still serves it), and idle executors
    /// wake, exit and are joined. An executor stuck inside a blocking
    /// handler is *detached* after a 500 ms grace period instead of
    /// wedging shutdown; it exits once its handler returns. Idempotent.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = (&self.wake_w).write(&[1]);
        // Dropped first, so peers see EOF without waiting out the grace.
        let sessions = std::mem::take(&mut *self.sessions.lock());
        drop(sessions);
        let threads = std::mem::take(&mut *self.threads.lock());
        let deadline = Instant::now() + Duration::from_millis(500);
        while Instant::now() < deadline && !threads.iter().all(|t| t.exited.load(Ordering::SeqCst))
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        for t in threads {
            if t.exited.load(Ordering::SeqCst) {
                let _ = t.handle.join();
            }
            // else: detached — the thread exits when its handler returns.
        }
    }
}

impl Drop for Executors {
    fn drop(&mut self) {
        // Every executor thread holds an Arc, so this runs only after
        // they all exited.
        sys::close_fd(self.epfd);
    }
}

impl std::fmt::Debug for Executors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Executors(sessions={})", self.registered())
    }
}

fn oneshot_bits(write: bool) -> u32 {
    interest_bits(true, write) | sys::EPOLLONESHOT
}

/// How a parked waiter was woken (see [`WaiterSlot::wait`]).
#[derive(Debug)]
pub enum Wake {
    /// The terminal outcome: a reply, or the connection's failure.
    Reply(Result<Envelope>),
    /// The reader role was handed to this waiter's call.
    Lead,
    /// The deadline passed first.
    Timeout,
}

#[derive(Default)]
struct SlotState {
    reply: Option<Result<Envelope>>,
    lead: bool,
}

/// One parked call: the calling thread blocks on `cv` until the
/// connection's reader deposits the reply, hands it the reader role, or
/// the deadline passes. Slots are pooled per shard, so a steady-state
/// call registers a waiter without allocating.
#[derive(Default)]
pub struct WaiterSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
    /// The call's request is on the wire, so its caller may be handed the
    /// reader role; a caller still sending (possibly waiting on the
    /// egress cap) must not be, or nobody would read the connection.
    sent: AtomicBool,
}

impl WaiterSlot {
    /// Marks the call's request as sent: from now on its caller can take
    /// the reader role or be handed it.
    pub fn mark_sent(&self) {
        self.sent.store(true, Ordering::SeqCst);
    }

    /// Deposits a terminal outcome and wakes the waiter.
    pub fn deliver(&self, r: Result<Envelope>) {
        self.state.lock().reply = Some(r);
        self.cv.notify_one();
    }

    /// Tells the waiter it may now hold the reader role, and wakes it.
    pub fn lead(&self) {
        self.state.lock().lead = true;
        self.cv.notify_one();
    }

    /// Takes a deposited outcome without waiting.
    pub fn take_reply(&self) -> Option<Result<Envelope>> {
        self.state.lock().reply.take()
    }

    /// Waits until an outcome is deposited, the waiter is handed the
    /// lead, or `deadline` passes — in that order of precedence. `None`
    /// waits without a deadline (models use it so that a lost hand-off
    /// shows up as a deadlock).
    pub fn wait(&self, deadline: Option<Instant>) -> Wake {
        let mut g = self.state.lock();
        loop {
            if let Some(r) = g.reply.take() {
                return Wake::Reply(r);
            }
            if std::mem::take(&mut g.lead) {
                return Wake::Lead;
            }
            match deadline {
                None => self.cv.wait(&mut g),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Wake::Timeout;
                    }
                    self.cv.wait_for(&mut g, deadline - now);
                }
            }
        }
    }

    /// Waits without a deadline for the outcome. Used only once the
    /// demux side has claimed this slot, when delivery is imminent.
    pub fn wait_reply(&self) -> Result<Envelope> {
        let mut g = self.state.lock();
        loop {
            if let Some(r) = g.reply.take() {
                return r;
            }
            self.cv.wait(&mut g);
        }
    }
}

const WAITER_SHARDS: u64 = 8;
const SLOT_POOL_PER_SHARD: usize = 32;

struct WaiterShard {
    live: HashMap<u64, Arc<WaiterSlot>>,
    free: Vec<Arc<WaiterSlot>>,
}

/// Who reads a client connection's socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reader {
    /// Nobody: the client reactor reads the connection when it turns
    /// readable (pushes to an idle listener, late replies).
    Free,
    /// The client reactor, inside one readiness callback.
    Reactor,
    /// The caller waiting on this request id.
    Caller(u64),
}

/// Pending calls keyed by request id, sharded to keep the register /
/// claim handoff off a single hot mutex, with a per-shard slab of free
/// slots so completed calls donate their parking spot to the next one.
///
/// The table also owns the connection's **reader role**. A caller takes
/// it when it is free ([`WaiterTable::take_reader`]), polls the socket
/// against its own deadline and demuxes every frame it reads; when it
/// leaves — reply, timeout or failure — [`WaiterTable::release_reader`]
/// hands the role straight to another live waiter and wakes it with
/// [`WaiterSlot::lead`]. Only a waiter whose request is on the wire
/// takes or is handed the role, so a caller waiting on the egress cap
/// never holds it. The role goes back to [`Reader::Free`] — the client
/// reactor reads — only when no such waiter is live, so while any is,
/// some thread holds the role or has been woken to take it. The `loom_reactor` models
/// drive the claim / unregister / fail-all races and the hand-off
/// directly.
pub struct WaiterTable {
    shards: Vec<Mutex<WaiterShard>>,
    reader: Mutex<Reader>,
    /// Mirror of "a caller holds the reader role", readable without the
    /// lock: the live input for the client reactor's read interest.
    caller_reads: AtomicBool,
}

impl Default for WaiterTable {
    fn default() -> Self {
        Self::new()
    }
}

impl WaiterTable {
    /// Creates an empty table with the reader role free.
    pub fn new() -> Self {
        Self {
            shards: (0..WAITER_SHARDS)
                .map(|_| {
                    Mutex::new(WaiterShard {
                        live: HashMap::new(),
                        free: Vec::new(),
                    })
                })
                .collect(),
            reader: Mutex::new(Reader::Free),
            caller_reads: AtomicBool::new(false),
        }
    }

    fn shard(&self, id: u64) -> &Mutex<WaiterShard> {
        &self.shards[(id % WAITER_SHARDS) as usize]
    }

    /// Parks a new waiter for `id`, reusing a pooled slot when possible.
    pub fn register(&self, id: u64) -> Arc<WaiterSlot> {
        let mut sh = self.shard(id).lock();
        let slot = sh
            .free
            .pop()
            .unwrap_or_else(|| Arc::new(WaiterSlot::default()));
        sh.live.insert(id, slot.clone());
        slot
    }

    /// Demux side: claims (removes) the waiter for a reply id. `None`
    /// means the caller already timed out and the reply is discarded.
    pub fn claim(&self, id: u64) -> Option<Arc<WaiterSlot>> {
        self.shard(id).lock().live.remove(&id)
    }

    /// Caller side: unregisters `slot` after a timeout or send failure.
    /// Returns `false` if the demux side claimed it concurrently (a
    /// reply is in the middle of being delivered).
    pub fn unregister(&self, id: u64, slot: &Arc<WaiterSlot>) -> bool {
        let mut sh = self.shard(id).lock();
        match sh.live.get(&id) {
            Some(s) if Arc::ptr_eq(s, slot) => {
                sh.live.remove(&id);
                true
            }
            _ => false,
        }
    }

    /// Returns a completed (and no longer registered) slot to its pool.
    pub fn recycle(&self, id: u64, slot: Arc<WaiterSlot>) {
        *slot.state.lock() = SlotState::default();
        slot.sent.store(false, Ordering::SeqCst);
        let mut sh = self.shard(id).lock();
        if sh.free.len() < SLOT_POOL_PER_SHARD {
            sh.free.push(slot);
        }
    }

    /// Connection death: wakes every pending call with an error.
    pub fn fail_all(&self, msg: &str) {
        for shard in &self.shards {
            let drained: Vec<_> = shard.lock().live.drain().collect();
            for (_, slot) in drained {
                slot.deliver(Err(JiffyError::Rpc(msg.into())));
            }
        }
    }

    /// Takes the reader role for `who` if nobody holds it.
    pub fn take_reader(&self, who: Reader) -> bool {
        let mut reader = self.reader.lock();
        if *reader != Reader::Free {
            return false;
        }
        *reader = who;
        self.caller_reads
            .store(matches!(who, Reader::Caller(_)), Ordering::SeqCst);
        true
    }

    /// Releases the reader role if `who` holds it, handing it to a live
    /// waiter whose request is sent ([`WaiterSlot::mark_sent`]) when
    /// there is one. A caller must unregister (or have had
    /// claimed) its own slot first, so it never hands the role to
    /// itself. Returns whether `who` held the role.
    pub fn release_reader(&self, who: Reader) -> bool {
        let successor = {
            let mut reader = self.reader.lock();
            if *reader != who {
                return false;
            }
            let successor = self.any_live();
            *reader = match &successor {
                Some((id, _)) => Reader::Caller(*id),
                None => Reader::Free,
            };
            self.caller_reads
                .store(successor.is_some(), Ordering::SeqCst);
            successor
        };
        // Woken outside the locks. The slot may have been unregistered
        // and recycled meanwhile; a lead is therefore only a hint, which
        // its receiver checks against [`WaiterTable::reader`], while the
        // unregistering caller finds itself the holder and passes the
        // role on.
        if let Some((_, slot)) = successor {
            slot.lead();
        }
        true
    }

    /// Any live waiter whose request is sent, scanning shards in order.
    fn any_live(&self) -> Option<(u64, Arc<WaiterSlot>)> {
        self.shards.iter().find_map(|shard| {
            shard
                .lock()
                .live
                .iter()
                .find(|(_, slot)| slot.sent.load(Ordering::SeqCst))
                .map(|(id, slot)| (*id, slot.clone()))
        })
    }

    /// The current reader.
    pub fn reader(&self) -> Reader {
        *self.reader.lock()
    }

    /// True while a caller holds the reader role (lock-free; the client
    /// reactor drops read interest while this holds).
    pub fn caller_reads(&self) -> bool {
        self.caller_reads.load(Ordering::SeqCst)
    }

    /// Pooled free slots across all shards (model/test introspection).
    #[doc(hidden)]
    pub fn free_slots(&self) -> usize {
        self.shards.iter().map(|s| s.lock().free.len()).sum()
    }

    /// Live (pending) waiters across all shards.
    pub fn live(&self) -> usize {
        self.shards.iter().map(|s| s.lock().live.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jiffy_sync::atomic::AtomicUsize;

    /// Counts readiness reports on one end of a socket pair and drains
    /// what it reads.
    struct Counting {
        sock: UnixStream,
        gate: ServeGate,
        served: AtomicUsize,
    }

    impl Session for Counting {
        fn fd(&self) -> RawFd {
            std::os::unix::io::AsRawFd::as_raw_fd(&self.sock)
        }
        fn gate(&self) -> &ServeGate {
            &self.gate
        }
        fn serve(&self, _readable: bool, _writable: bool) -> bool {
            let mut buf = [0u8; 64];
            while matches!((&self.sock).read(&mut buf), Ok(n) if n > 0) {}
            self.served.fetch_add(1, Ordering::SeqCst);
            true
        }
        fn wants_write(&self) -> bool {
            false
        }
    }

    #[test]
    fn executors_serve_rearm_and_shut_down() {
        let pool = Executors::start(3, "test-exec").unwrap();
        assert_eq!(pool.threads(), 3);
        let (mine, theirs) = UnixStream::pair().unwrap();
        theirs.set_nonblocking(true).unwrap();
        let session = Arc::new(Counting {
            sock: theirs,
            gate: ServeGate::default(),
            served: AtomicUsize::new(0),
        });
        let token = pool.token();
        pool.register_at(token, session.clone()).unwrap();
        assert_eq!(pool.registered(), 1);
        // Each write is served once and the session re-armed for the
        // next one.
        for round in 1..=5 {
            (&mine).write_all(b"x").unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            while session.served.load(Ordering::SeqCst) < round && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(session.served.load(Ordering::SeqCst), round);
        }
        pool.shutdown();
        pool.shutdown();
        assert_eq!(pool.registered(), 0);
        assert!(
            pool.register_at(pool.token(), session).is_err(),
            "stopped pool refuses sessions"
        );
    }

    #[test]
    fn serve_gate_admits_one_server_and_defers_kicks() {
        let gate = ServeGate::default();
        assert_eq!(gate.kick(|| 1), Some(1), "idle session re-arms");
        assert!(gate.begin());
        assert!(!gate.begin(), "second executor must back off");
        assert_eq!(gate.kick(|| 1), None, "no re-arm while serving");
        assert_eq!(gate.end(|| 2), 2);
        assert!(!gate.is_serving());
    }

    #[test]
    fn reader_role_hands_off_to_a_live_waiter() {
        let t = WaiterTable::new();
        let a = t.register(1);
        let b = t.register(2);
        // Caller 3 is still sending: it must not be handed the role.
        let c = t.register(3);
        a.mark_sent();
        b.mark_sent();
        assert!(t.take_reader(Reader::Caller(1)));
        assert!(t.caller_reads());
        assert!(!t.take_reader(Reader::Reactor));
        // Caller 1's reply arrived (claimed by its own demux).
        t.claim(1).unwrap().deliver(Ok(Envelope::DataResp {
            id: 1,
            resp: Ok(jiffy_proto::DataResponse::Pong),
        }));
        assert!(t.release_reader(Reader::Caller(1)));
        assert_eq!(t.reader(), Reader::Caller(2));
        assert!(matches!(b.wait(Some(Instant::now())), Wake::Lead));
        assert!(matches!(a.wait(Some(Instant::now())), Wake::Reply(Ok(_))));
        assert!(!t.release_reader(Reader::Caller(1)), "not the holder");
        // The last sent waiter times out and leaves: the role goes free
        // (the reactor reads), not to the caller still sending.
        assert!(t.unregister(2, &b));
        assert!(t.release_reader(Reader::Caller(2)));
        assert_eq!(t.reader(), Reader::Free);
        assert!(!t.caller_reads());
        assert!(matches!(c.wait(Some(Instant::now())), Wake::Timeout));
        // Once its request is out, it takes the free role itself.
        c.mark_sent();
        assert!(t.take_reader(Reader::Caller(3)));
        assert!(t.unregister(3, &c));
        t.recycle(3, c);
        assert!(t.release_reader(Reader::Caller(3)));
        assert_eq!(t.reader(), Reader::Free);
    }

    #[test]
    fn egress_queue_caps_and_fails_cleanly() {
        struct NullSink;
        impl EgressSink for NullSink {
            fn sink_write(&self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
        }
        let q = EgressQueue::with_cap(NullSink, 1024);
        assert_eq!(q.send(b"hello").unwrap(), SendStatus::Flushed);
        assert_eq!(q.pending(), 0);
        q.fail("teardown");
        assert!(q.send(b"x").is_err(), "broken queue refuses frames");
    }

    #[test]
    fn egress_queue_parks_on_wouldblock_and_drains_on_writable() {
        use jiffy_sync::Mutex as M;
        /// Accepts `budget` bytes, then `WouldBlock`s until topped up.
        struct Throttled {
            budget: M<usize>,
            out: M<Vec<u8>>,
        }
        impl EgressSink for Throttled {
            fn sink_write(&self, buf: &[u8]) -> std::io::Result<usize> {
                let mut b = self.budget.lock();
                if *b == 0 {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                let n = buf.len().min(*b);
                *b -= n;
                self.out.lock().extend_from_slice(&buf[..n]);
                Ok(n)
            }
        }
        let q = EgressQueue::with_cap(
            Throttled {
                budget: M::new(6),
                out: M::new(Vec::new()),
            },
            1 << 20,
        );
        // 4-byte prefix + 5 payload bytes = 9 > 6: parks mid-frame.
        assert_eq!(q.send(b"hello").unwrap(), SendStatus::Parked);
        assert_eq!(q.pending(), 3);
        // Another frame while parked just queues.
        assert_eq!(q.send(b"ab").unwrap(), SendStatus::Parked);
        *q.sink().budget.lock() = usize::MAX;
        assert_eq!(q.on_writable().unwrap(), SendStatus::Flushed);
        assert_eq!(q.pending(), 0);
        // The wire holds both frames, in order, byte-for-byte.
        let mut expect = Vec::new();
        frame::encode_frame(b"hello", &mut expect).unwrap();
        frame::encode_frame(b"ab", &mut expect).unwrap();
        assert_eq!(*q.sink().out.lock(), expect);

        // Over the cap, the queue's owner drains the socket itself,
        // waiting for room in between, instead of waiting for a drain.
        let q = EgressQueue::with_cap(
            Throttled {
                budget: M::new(2),
                out: M::new(Vec::new()),
            },
            4,
        );
        assert_eq!(q.send(b"0123456789").unwrap(), SendStatus::Parked);
        let mut waits = 0;
        let status = q
            .send_draining(b"xy", || {
                waits += 1;
                *q.sink().budget.lock() += 3;
                Ok(())
            })
            .unwrap();
        // 12 bytes left: drained 3 per wait down to 3 (under the cap),
        // then the 6-byte frame queued behind them.
        assert_eq!(waits, 4);
        assert_eq!(status, SendStatus::Parked);
        assert_eq!(q.pending(), 3 + 6);
        *q.sink().budget.lock() = usize::MAX;
        assert_eq!(q.on_writable().unwrap(), SendStatus::Flushed);
        let mut expect = Vec::new();
        frame::encode_frame(b"0123456789", &mut expect).unwrap();
        frame::encode_frame(b"xy", &mut expect).unwrap();
        assert_eq!(*q.sink().out.lock(), expect);
        // A failed wait gives up with the wait's error.
        let q = EgressQueue::with_cap(
            Throttled {
                budget: M::new(0),
                out: M::new(Vec::new()),
            },
            4,
        );
        assert_eq!(q.send(b"0123456789").unwrap(), SendStatus::Parked);
        assert!(q
            .send_draining(b"xy", || Err(JiffyError::Rpc("stop".into())))
            .is_err());
    }

    #[test]
    fn reactor_starts_registers_and_shuts_down() {
        let reactor = Reactor::start("unit").unwrap();
        assert_eq!(reactor.registered(), 0);
        reactor.wake();
        reactor.shutdown();
        assert!(
            reactor.register(Arc::new(NeverReady), true, false).is_err(),
            "stopped reactor refuses registration"
        );
    }

    struct NeverReady;
    impl EventHandler for NeverReady {
        fn fd(&self) -> RawFd {
            -1
        }
        fn on_ready(&self, _r: bool, _w: bool) -> bool {
            true
        }
    }
}
