//! Loom models for the transport's hand-offs (DESIGN.md §12): the
//! [`WaiterTable`] claim / unregister / fail-all races on the demux path,
//! the reader-role hand-off between callers, the [`EgressQueue`] enqueue
//! vs writability-drain race on the egress path, and the [`ServeGate`]
//! oneshot re-arm racing a push that parks egress.
//!
//! Exhaustive model checking (bounded preemption, see `vendor/loom`):
//!
//! ```text
//! cargo test -p jiffy-rpc --features loom --test loom_reactor
//! ```
//!
//! Without the feature, `jiffy_sync::model` runs each body once with real
//! threads, so these double as plain smoke tests in ordinary `cargo test`
//! runs.

use std::collections::VecDeque;
use std::io;

use jiffy_proto::{encode_frame, DataResponse, Envelope};
use jiffy_rpc::{EgressQueue, EgressSink, Reader, SendStatus, ServeGate, WaiterTable, Wake};
use jiffy_sync::atomic::{AtomicUsize, Ordering};
use jiffy_sync::{model, thread, Arc, Condvar, Mutex};

fn reply(id: u64) -> Envelope {
    Envelope::DataResp {
        id,
        resp: Ok(DataResponse::Pong),
    }
}

/// Readiness event (reply demux) racing session close (`fail_all`): the
/// parked caller must receive exactly one terminal outcome — the reply
/// if the demux claims first, the close error if teardown drains first —
/// and never hang on a slot both sides forgot.
#[test]
fn reply_delivery_vs_session_close_never_loses_the_waiter() {
    model(|| {
        let table = Arc::new(WaiterTable::new());
        let slot = table.register(1);

        let demux = {
            let t = Arc::clone(&table);
            thread::spawn(move || {
                // The reactor read a frame for id 1 off the socket.
                if let Some(s) = t.claim(1) {
                    s.deliver(Ok(reply(1)));
                    true
                } else {
                    false
                }
            })
        };
        let closer = {
            let t = Arc::clone(&table);
            thread::spawn(move || t.fail_all("connection closed"))
        };

        // The caller parked on the slot: exactly one of the racing sides
        // owns it, so this must always return.
        let outcome = slot.wait_reply();
        let claimed = demux.join().unwrap();
        closer.join().unwrap();

        match outcome {
            Ok(e) => {
                assert!(claimed, "reply delivered but demux never claimed");
                assert_eq!(e, reply(1));
            }
            Err(_) => assert!(!claimed, "claimed reply must win over the close error"),
        }
        assert_eq!(table.live(), 0, "the slot must leave the live map");
    });
}

/// Caller timeout (`unregister`) racing reply demux (`claim`): ownership
/// of the slot transfers to exactly one side, the claimed reply is still
/// delivered (the caller falls back to `wait_reply`, as `TcpConn::call`
/// does), and the slot is recycled into the pool exactly once — a
/// double-free would show up as two pooled copies of one slot.
#[test]
fn timeout_unregister_vs_claim_recycles_the_slot_exactly_once() {
    model(|| {
        let table = Arc::new(WaiterTable::new());
        let slot = table.register(1);

        let demux = {
            let t = Arc::clone(&table);
            thread::spawn(move || match t.claim(1) {
                Some(s) => {
                    s.deliver(Ok(reply(1)));
                    true
                }
                None => false,
            })
        };

        // The caller's deadline passed; it tries to retract the waiter.
        let mine = table.unregister(1, &slot);
        let claimed = demux.join().unwrap();
        assert!(
            mine != claimed,
            "slot ownership must transfer to exactly one side"
        );
        if !mine {
            // Demux won the race: delivery is imminent, the reply must
            // not be lost.
            assert_eq!(slot.wait_reply().unwrap(), reply(1));
        }
        table.recycle(1, slot);

        assert_eq!(table.live(), 0);
        assert_eq!(
            table.free_slots(),
            1,
            "the slot must be pooled exactly once"
        );
    });
}

/// A sink whose write calls follow a script — `Accept(n)` takes up to
/// `n` bytes, `Park` reports `WouldBlock` — then accept everything.
/// Records every byte it accepted, in order.
struct ScriptedSink {
    state: Mutex<SinkState>,
}

struct SinkState {
    script: VecDeque<Step>,
    wrote: Vec<u8>,
}

enum Step {
    Accept(usize),
    Park,
}

impl ScriptedSink {
    fn new(script: Vec<Step>) -> Self {
        Self {
            state: Mutex::new(SinkState {
                script: script.into(),
                wrote: Vec::new(),
            }),
        }
    }

    fn wrote(&self) -> Vec<u8> {
        self.state.lock().wrote.clone()
    }
}

impl EgressSink for ScriptedSink {
    fn sink_write(&self, buf: &[u8]) -> io::Result<usize> {
        let mut st = self.state.lock();
        match st.script.pop_front() {
            Some(Step::Park) => Err(io::ErrorKind::WouldBlock.into()),
            Some(Step::Accept(n)) => {
                // The drain never writes an empty window, so `n >= 1`
                // keeps this from faking a peer close (`Ok(0)`).
                let n = n.min(buf.len());
                st.wrote.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            None => {
                st.wrote.extend_from_slice(buf);
                Ok(buf.len())
            }
        }
    }
}

/// Sender enqueue racing the reactor's writability drain across a
/// partial write and a `WouldBlock` park: whatever the interleaving, the
/// sink must end up with both frames, byte-exact and in order — never a
/// torn, reordered or dropped frame.
#[test]
fn egress_enqueue_vs_drain_never_reorders_or_drops_frames() {
    model(|| {
        // First write takes 2 bytes (mid-header tear), then the socket
        // blocks once, then opens up.
        let sink = ScriptedSink::new(vec![Step::Accept(2), Step::Park]);
        let egress = Arc::new(EgressQueue::with_cap(sink, 1 << 20));

        let f1 = b"first-frame".as_slice();
        let f2 = b"second".as_slice();

        let sender = {
            let e = Arc::clone(&egress);
            thread::spawn(move || e.send(b"first-frame").unwrap())
        };
        let reactor = {
            let e = Arc::clone(&egress);
            thread::spawn(move || e.on_writable().unwrap())
        };
        sender.join().unwrap();
        reactor.join().unwrap();

        // The session sends one more frame, then the reactor's next
        // writability event drains whatever is still parked.
        egress.send(f2).unwrap();
        let mut spins = 0;
        while egress.needs_write() {
            assert!(spins < 4, "drain must terminate");
            spins += 1;
            egress.on_writable().unwrap();
        }
        assert_eq!(egress.pending(), 0);

        let mut expect = Vec::new();
        encode_frame(f1, &mut expect).unwrap();
        encode_frame(f2, &mut expect).unwrap();
        assert_eq!(
            egress.sink().wrote(),
            expect,
            "frames must reach the wire byte-exact and in enqueue order"
        );
    });
}

/// The parked flag must hand the drain to the reactor exactly once: a
/// send that lands while the queue is parked returns `Parked` without
/// touching the sink, and the next writability event flushes both the
/// parked and the newly queued frame.
#[test]
fn send_while_parked_rides_the_next_writability_event() {
    model(|| {
        let sink = ScriptedSink::new(vec![Step::Park]);
        let egress = Arc::new(EgressQueue::with_cap(sink, 1 << 20));
        assert_eq!(egress.send(b"parked").unwrap(), SendStatus::Parked);

        let sender = {
            let e = Arc::clone(&egress);
            thread::spawn(move || e.send(b"rider").unwrap())
        };
        let reactor = {
            let e = Arc::clone(&egress);
            thread::spawn(move || e.on_writable().unwrap())
        };
        let rider = sender.join().unwrap();
        reactor.join().unwrap();
        // Whichever side took the lock last drained everything: a rider
        // that observed `parked` is flushed by the (necessarily later)
        // drain, and a rider after the drain flushes itself.
        if rider == SendStatus::Parked {
            assert!(!egress.needs_write(), "parked rider left undrained");
        }
        assert_eq!(egress.pending(), 0, "no frame may be stranded");

        let mut expect = Vec::new();
        encode_frame(b"parked", &mut expect).unwrap();
        encode_frame(b"rider", &mut expect).unwrap();
        assert_eq!(egress.sink().wrote(), expect);
    });
}

/// What one caller's `call` returned.
#[derive(Debug, PartialEq)]
enum Outcome {
    Reply,
    Failed,
    Timeout,
}

/// The socket of the hand-off model: caller 2's reply arrives at some
/// point, and a close makes a blocked poll return.
#[derive(Default)]
struct Socket {
    data: Option<Envelope>,
    closed: bool,
}

/// Demuxes whatever the socket holds (the reply for caller 2).
fn pump(table: &WaiterTable, socket: &Mutex<Socket>) {
    let data = socket.lock().data.take();
    if let Some(env) = data {
        if let Some(s) = table.claim(2) {
            s.deliver(Ok(env));
        }
    }
}

/// Reader-role hand-off: while any waiter is live, some thread holds the
/// reader role or is woken to take it — caller 2 parks without a
/// deadline, so a hand-off that reaches nobody is a deadlock the checker
/// reports — and each caller sees exactly one outcome: its reply (read
/// by itself once it leads, or by caller 1 before it gave up), the
/// connection failure, or its own timeout. The role ends free.
#[test]
fn reader_role_hand_off_never_strands_a_live_waiter() {
    // One scenario per pass: caller 1 holds the reader role, reads once
    // and then its deadline expires; caller 2 parks until it is handed
    // the role (then polls the socket until its reply or EOF) or its
    // outcome is delivered; the server's reply lands at any point; with
    // `close`, the connection also closes at any point.
    for close in [false, true] {
        model(move || {
            let table = Arc::new(WaiterTable::new());
            let socket = Arc::new((Mutex::new(Socket::default()), Condvar::new()));
            let s1 = table.register(1);
            let s2 = table.register(2);
            // Both requests are on the wire.
            s1.mark_sent();
            s2.mark_sent();
            assert!(table.take_reader(Reader::Caller(1)));

            let caller1 = {
                let (t, sock) = (Arc::clone(&table), Arc::clone(&socket));
                thread::spawn(move || {
                    pump(&t, &sock.0);
                    // The deadline fires.
                    let outcome = if t.unregister(1, &s1) {
                        Outcome::Timeout
                    } else {
                        match s1.wait_reply() {
                            Ok(_) => Outcome::Reply,
                            Err(_) => Outcome::Failed,
                        }
                    };
                    t.release_reader(Reader::Caller(1));
                    outcome
                })
            };
            let caller2 = {
                let (t, sock) = (Arc::clone(&table), Arc::clone(&socket));
                thread::spawn(move || {
                    // No deadline: a hand-off that reaches nobody deadlocks here.
                    let outcome = loop {
                        match s2.wait(None) {
                            Wake::Reply(Ok(_)) => break Outcome::Reply,
                            Wake::Reply(Err(_)) => break Outcome::Failed,
                            Wake::Lead if t.reader() == Reader::Caller(2) => {
                                // Poll until readable, then pump.
                                let mut g = sock.0.lock();
                                while g.data.is_none() && !g.closed {
                                    sock.1.wait(&mut g);
                                }
                                drop(g);
                                pump(&t, &sock.0);
                            }
                            Wake::Lead => {}
                            Wake::Timeout => unreachable!("no deadline"),
                        }
                    };
                    t.release_reader(Reader::Caller(2));
                    outcome
                })
            };
            let server = {
                let sock = Arc::clone(&socket);
                thread::spawn(move || {
                    sock.0.lock().data = Some(reply(2));
                    sock.1.notify_all();
                })
            };
            if close {
                // Shutting the socket down wakes a blocked poll (EOF), and the
                // closer fails every waiter.
                socket.0.lock().closed = true;
                socket.1.notify_all();
                table.fail_all("connection closed");
            }

            let o1 = caller1.join().unwrap();
            let o2 = caller2.join().unwrap();
            server.join().unwrap();
            assert_ne!(o1, Outcome::Reply, "caller 1's reply never arrives");
            if !close {
                assert_eq!(o1, Outcome::Timeout);
                assert_eq!(o2, Outcome::Reply, "caller 2 must get its own reply");
            }
            assert_eq!(table.live(), 0, "every waiter left the table");
            assert_eq!(table.reader(), Reader::Free, "the role ends free");
            assert!(!table.caller_reads());
        });
    }
}

/// The kernel side of one `EPOLLONESHOT` registration, reduced to what
/// the race needs: whether the fd is armed and with write interest, and
/// whether a request is waiting to be read.
struct Kernel {
    armed: bool,
    write: bool,
    readable: bool,
}

impl Kernel {
    fn arm(k: &Mutex<Kernel>, write: bool) {
        let mut k = k.lock();
        k.armed = true;
        k.write = write;
    }

    /// Delivers a readiness report `(readable, writable)` if one is due
    /// (the socket is always writable here), disarming the fd as oneshot
    /// does.
    fn deliver(k: &Mutex<Kernel>) -> Option<(bool, bool)> {
        let mut k = k.lock();
        if !k.armed || !(k.readable || k.write) {
            return None;
        }
        k.armed = false;
        Some((k.readable, k.write))
    }
}

/// A oneshot re-arm racing a push that parks egress. The session is
/// armed with a request waiting; two executors race for the report
/// while a pusher on another thread queues a notification for the same
/// session. The socket blocks on the first write, so whichever frame
/// goes first parks — and a push that parks re-arms the session for
/// writability, possibly right after the kernel handed the request to
/// an executor that has not started serving yet. Whatever the
/// interleaving, no two executors serve the session at once, a parked
/// frame always has write interest armed (none is stranded), and both
/// frames reach the wire whole.
#[test]
fn oneshot_rearm_vs_parking_push_never_strands_or_double_serves() {
    model(|| {
        let egress = Arc::new(EgressQueue::with_cap(
            ScriptedSink::new(vec![Step::Park]),
            1 << 20,
        ));
        let gate = Arc::new(ServeGate::default());
        let kernel = Arc::new(Mutex::new(Kernel {
            armed: true,
            write: false,
            readable: true,
        }));
        let serving = Arc::new(AtomicUsize::new(0));
        // What an executor does with one readiness report: claim the
        // session through the gate, drain and read (the request's reply
        // goes out), then release and re-arm from live state. `n` counts
        // executors inside the session at once.
        let serve = |g: &ServeGate,
                     e: &EgressQueue<ScriptedSink>,
                     k: &Mutex<Kernel>,
                     n: &AtomicUsize,
                     (readable, writable): (bool, bool)| {
            if !g.begin() {
                return;
            }
            assert_eq!(
                n.fetch_add(1, Ordering::SeqCst),
                0,
                "session served twice at once"
            );
            if writable {
                e.on_writable().unwrap();
            }
            if readable && std::mem::take(&mut k.lock().readable) {
                e.send(b"reply").unwrap();
            }
            n.fetch_sub(1, Ordering::SeqCst);
            g.end(|| Kernel::arm(k, e.needs_write()));
        };

        let executors: Vec<_> = (0..2)
            .map(|_| {
                let (g, e, k, n) = (
                    Arc::clone(&gate),
                    Arc::clone(&egress),
                    Arc::clone(&kernel),
                    Arc::clone(&serving),
                );
                thread::spawn(move || {
                    if let Some(report) = Kernel::deliver(&k) {
                        serve(&g, &e, &k, &n, report);
                    }
                })
            })
            .collect();
        let pusher = {
            let (g, e, k) = (Arc::clone(&gate), Arc::clone(&egress), Arc::clone(&kernel));
            thread::spawn(move || {
                if e.send(b"push").unwrap() == SendStatus::Parked {
                    g.kick(|| Kernel::arm(&k, e.needs_write()));
                }
            })
        };
        for e in executors {
            e.join().unwrap();
        }
        pusher.join().unwrap();

        // Quiesced: pending work must have an armed report, and the
        // reports that follow finish it.
        {
            let k = kernel.lock();
            if egress.needs_write() || k.readable {
                assert!(k.armed, "pending work stranded on a disarmed fd");
            }
            if egress.needs_write() {
                assert!(k.write, "parked frame stranded without write interest");
            }
        }
        let mut reports = 0;
        while let Some(report) = Kernel::deliver(&kernel) {
            assert!(reports < 4, "drain must terminate");
            reports += 1;
            serve(&gate, &egress, &kernel, &serving, report);
        }
        assert!(!gate.is_serving());
        assert_eq!(egress.pending(), 0, "no frame may be stranded");

        let wire = egress.sink().wrote();
        let framed = |a: &[u8], b: &[u8]| {
            let mut v = Vec::new();
            encode_frame(a, &mut v).unwrap();
            encode_frame(b, &mut v).unwrap();
            v
        };
        assert!(
            wire == framed(b"reply", b"push") || wire == framed(b"push", b"reply"),
            "both frames reach the wire whole"
        );
    });
}
