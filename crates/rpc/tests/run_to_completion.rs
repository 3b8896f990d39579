//! End-to-end checks of run-to-completion RPC over real sockets
//! (DESIGN.md §12): callers that read their own replies hand the reader
//! role on when their deadline expires, a session's pipelined frames
//! execute in the order they were sent, replies larger than the egress
//! cap reach a slow reader without wedging the serving executor, and a
//! caller waiting on the client's egress cap never holds the reader role.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use jiffy_common::{BlockId, JiffyError, TenantId};
use jiffy_proto::{
    encode_frame, to_bytes, DataRequest, DataResponse, DsOp, DsResult, Envelope, FrameAssembler,
    Notification, OpKind,
};
use jiffy_rpc::tcp::{connect_tcp, serve_tcp};
use jiffy_rpc::{Service, SessionHandle};
use jiffy_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use jiffy_sync::{Arc, Mutex};

/// The block id that asks [`EchoPush`] to answer under a wrong id, so
/// its caller never sees a reply.
const SILENT: BlockId = BlockId(u64::MAX);

/// Pushes a notification on every call, then answers a `Get` with its
/// key — except on [`SILENT`], whose answer carries an id nobody awaits.
struct EchoPush;

impl Service for EchoPush {
    fn handle(&self, req: Envelope, session: &SessionHandle) -> Envelope {
        let Envelope::DataReq {
            id,
            req: DataRequest::Op { block, op },
            ..
        } = req
        else {
            unreachable!("tests only send data ops")
        };
        session.push(Notification {
            block,
            op: OpKind::Put,
            size: 0,
            seq: id,
        });
        let DsOp::Get { key } = op else {
            unreachable!("tests only send gets")
        };
        Envelope::DataResp {
            id: if block == SILENT { u64::MAX } else { id },
            resp: Ok(DataResponse::OpResult(DsResult::Data(key))),
        }
    }
}

fn get(id: u64, block: BlockId, key: &str) -> Envelope {
    Envelope::DataReq {
        id,
        req: DataRequest::Op {
            block,
            op: DsOp::Get { key: key.into() },
        },
        tenant: TenantId::ANONYMOUS,
    }
}

/// Eight threads share one connection to a service that pushes on every
/// call. The first call is never answered: its caller takes the reader
/// role on the idle connection, reads everyone else's replies and
/// pushes while it waits, and its deadline expires while it holds the
/// role. Every other call must still get its own reply, and every push
/// must be delivered — before, during and after the hand-off.
#[test]
fn reader_timeout_hands_off_without_losing_replies_or_pushes() {
    jiffy_common::set_call_timeout(Duration::from_millis(600));
    let server = serve_tcp("127.0.0.1:0", Arc::new(EchoPush)).expect("serve");
    let conn = connect_tcp(server.addr()).expect("dial");
    let pushes = Arc::new(AtomicUsize::new(0));
    {
        let p = pushes.clone();
        conn.set_push_callback(Arc::new(move |_| {
            p.fetch_add(1, Ordering::SeqCst);
        }));
    }

    let silent_done = Arc::new(AtomicBool::new(false));
    let silent = {
        let (c, done) = (conn.clone(), silent_done.clone());
        std::thread::spawn(move || {
            let r = c.call(get(0, SILENT, "silent"));
            done.store(true, Ordering::SeqCst);
            r
        })
    };
    // Let the silent call take the role on the idle connection first.
    std::thread::sleep(Duration::from_millis(50));

    let calls = Arc::new(AtomicUsize::new(0));
    let workers: Vec<_> = (0..7)
        .map(|t| {
            let (c, done, calls) = (conn.clone(), silent_done.clone(), calls.clone());
            std::thread::spawn(move || {
                let mut after = 0;
                let mut i = 0u64;
                // Keep calling until well past the silent call's timeout.
                while after < 50 {
                    let key = format!("t{t}-{i}");
                    let resp = c
                        .call(get(0, BlockId(t), &key))
                        .unwrap_or_else(|e| panic!("call {key} failed: {e}"));
                    match resp {
                        Envelope::DataResp {
                            resp: Ok(DataResponse::OpResult(DsResult::Data(got))),
                            ..
                        } => assert_eq!(&got[..], key.as_bytes(), "reply for another call"),
                        other => panic!("unexpected reply {other:?}"),
                    }
                    calls.fetch_add(1, Ordering::SeqCst);
                    i += 1;
                    if done.load(Ordering::SeqCst) {
                        after += 1;
                    }
                }
            })
        })
        .collect();

    let err = silent.join().expect("silent caller").unwrap_err();
    assert!(matches!(err, JiffyError::Timeout { .. }), "got {err:?}");
    for w in workers {
        w.join().expect("worker");
    }
    // One push per executed call, the silent one included.
    let expected = calls.load(Ordering::SeqCst) + 1;
    let deadline = Instant::now() + Duration::from_secs(10);
    while pushes.load(Ordering::SeqCst) < expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        pushes.load(Ordering::SeqCst),
        expected,
        "every push delivered"
    );
    jiffy_common::set_call_timeout(jiffy_common::DEFAULT_CALL_TIMEOUT);
}

/// Records the order in which a session's requests execute.
struct Recorder {
    executed: Mutex<Vec<u64>>,
}

impl Service for Recorder {
    fn handle(&self, req: Envelope, _session: &SessionHandle) -> Envelope {
        let Envelope::DataReq { id, .. } = req else {
            unreachable!("tests only send data requests")
        };
        self.executed.lock().push(id);
        // An occasional slow request lets frames pile up behind it, so
        // one read brings in many.
        if id % 16 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        Envelope::DataResp {
            id,
            resp: Ok(DataResponse::Pong),
        }
    }
}

/// Several threads pipeline frames on one session without waiting for
/// replies; the order in which their writes hit the socket is the send
/// order. The server must execute them, and reply, in exactly that
/// order.
#[test]
fn pipelined_frames_from_many_threads_execute_in_send_order() {
    let svc = Arc::new(Recorder {
        executed: Mutex::new(Vec::new()),
    });
    let server = serve_tcp("127.0.0.1:0", svc.clone()).expect("serve");
    let stream = TcpStream::connect(server.addr().strip_prefix("tcp:").unwrap()).expect("dial");
    let mut reader = stream.try_clone().expect("clone");
    // The writer lock orders the writes; the log under it records them.
    let writer = Arc::new(Mutex::new((stream, Vec::new())));
    let next = Arc::new(AtomicUsize::new(1));
    const PER_THREAD: usize = 200;
    let senders: Vec<_> = (0..4)
        .map(|_| {
            let (w, next) = (writer.clone(), next.clone());
            std::thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    let mut g = w.lock();
                    let id = next.fetch_add(1, Ordering::SeqCst) as u64;
                    let env = Envelope::DataReq {
                        id,
                        req: DataRequest::Ping,
                        tenant: TenantId::ANONYMOUS,
                    };
                    let mut frame = Vec::new();
                    encode_frame(&to_bytes(&env).unwrap(), &mut frame).unwrap();
                    g.0.write_all(&frame).expect("send");
                    g.1.push(id);
                }
            })
        })
        .collect();
    let total = 4 * PER_THREAD;
    let mut replies = Vec::with_capacity(total);
    let (mut asm, mut chunk) = (FrameAssembler::new(), [0u8; 4096]);
    while replies.len() < total {
        let n = reader.read(&mut chunk).expect("read");
        assert!(n > 0, "server closed the session");
        asm.push(&chunk[..n]);
        while let Some(payload) = asm.next_frame().expect("frame") {
            match jiffy_proto::from_bytes::<Envelope>(&payload).expect("decode") {
                Envelope::DataResp { id, .. } => replies.push(id),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    for s in senders {
        s.join().expect("sender");
    }
    let sent = writer.lock().1.clone();
    assert_eq!(sent.len(), total);
    assert_eq!(*svc.executed.lock(), sent, "executed out of send order");
    assert_eq!(replies, sent, "replied out of send order");
}

/// Answers a `Get` for [`BIG_KEY`] with [`BIG_REPLY`] bytes and any other
/// `Get` with its key.
struct BigReplies;

const BIG_KEY: &str = "big";

/// Half as large again as the default egress cap (8 MiB), so one reply
/// leaves more than the cap queued behind a slow reader.
const BIG_REPLY: usize = 12 << 20;

impl Service for BigReplies {
    fn handle(&self, req: Envelope, _session: &SessionHandle) -> Envelope {
        let Envelope::DataReq {
            id,
            req:
                DataRequest::Op {
                    op: DsOp::Get { key },
                    ..
                },
            ..
        } = req
        else {
            unreachable!("tests only send gets")
        };
        let data = if &key[..] == BIG_KEY.as_bytes() {
            vec![7u8; BIG_REPLY].into()
        } else {
            key
        };
        Envelope::DataResp {
            id,
            resp: Ok(DataResponse::OpResult(DsResult::Data(data))),
        }
    }
}

/// A client pipelines big and small requests on one session and then
/// reads slowly. The first big reply leaves more than the egress cap
/// queued, so every later reply finds the queue over the cap while the
/// executor that serves the session is the only thread that could drain
/// it. Every reply must arrive, in order, and the session must keep
/// serving afterwards.
#[test]
fn replies_over_the_egress_cap_reach_a_slow_reader() {
    let server = serve_tcp("127.0.0.1:0", Arc::new(BigReplies)).expect("serve");
    let mut stream = TcpStream::connect(server.addr().strip_prefix("tcp:").unwrap()).expect("dial");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    let keys = [BIG_KEY, "small-1", BIG_KEY, "small-2"];
    let mut frames = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        encode_frame(
            &to_bytes(&get(i as u64 + 1, BlockId(0), key)).unwrap(),
            &mut frames,
        )
        .unwrap();
    }
    writer.write_all(&frames).expect("send");

    let mut asm = FrameAssembler::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut replies = Vec::new();
    let mut read_one = |replies: &mut Vec<(u64, usize)>, slow: bool| {
        let n = stream
            .read(&mut chunk)
            .unwrap_or_else(|e| panic!("server stalled after {} replies: {e}", replies.len()));
        assert!(n > 0, "server closed the session");
        asm.push(&chunk[..n]);
        while let Some(payload) = asm.next_frame().expect("frame") {
            match jiffy_proto::from_bytes::<Envelope>(&payload).expect("decode") {
                Envelope::DataResp {
                    id,
                    resp: Ok(DataResponse::OpResult(DsResult::Data(d))),
                } => replies.push((id, d.len())),
                other => panic!("unexpected {other:?}"),
            }
        }
        if slow {
            std::thread::sleep(Duration::from_micros(200));
        }
    };
    while replies.len() < keys.len() {
        read_one(&mut replies, true);
    }
    let expected: Vec<(u64, usize)> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            (
                i as u64 + 1,
                if *k == BIG_KEY { BIG_REPLY } else { k.len() },
            )
        })
        .collect();
    assert_eq!(replies, expected, "every reply, in order");

    // The serving executor was not lost: the session still answers.
    let mut frame = Vec::new();
    encode_frame(
        &to_bytes(&get(99, BlockId(0), "after")).unwrap(),
        &mut frame,
    )
    .unwrap();
    writer.write_all(&frame).expect("send");
    while replies.len() < keys.len() + 1 {
        read_one(&mut replies, false);
    }
    assert_eq!(replies.last(), Some(&(99, "after".len())));
}

/// Reads exactly one frame from a blocking socket.
fn read_frame_blocking(stream: &mut TcpStream) -> Result<Envelope, JiffyError> {
    let payload = jiffy_proto::read_frame(stream)?
        .ok_or_else(|| JiffyError::Rpc("client closed the connection".into()))?;
    jiffy_proto::from_bytes(&payload)
}

fn pong(id: u64) -> Result<Vec<u8>, JiffyError> {
    let mut frame = Vec::new();
    let env = Envelope::DataResp {
        id,
        resp: Ok(DataResponse::Pong),
    };
    encode_frame(&to_bytes(&env)?, &mut frame)?;
    Ok(frame)
}

/// A hand-driven server stops reading the connection, so a 32 MiB request
/// leaves the client's egress queue over its cap and the next caller's
/// send waits on the cap. When the caller holding the reader role gets
/// its reply, the role must go to a caller whose request is on the wire —
/// never to the one still waiting to send, which would read nothing — so
/// a reply the server writes meanwhile is read at once, before the
/// server reads anything more.
#[test]
fn a_caller_waiting_on_the_egress_cap_never_holds_the_reader_role() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = format!("tcp:{}", listener.local_addr().unwrap());
    let conn = connect_tcp(&addr).expect("dial");
    let (mut server, _) = listener.accept().expect("accept");
    // Ids chosen so that the waiter table lists the blocked sender (id 8)
    // before the sent caller (id 2) when it looks for a successor.
    let (first, sent, blocked) = (1u64, 2u64, 8u64);
    let call = |id: u64, key: String| {
        let c = conn.clone();
        std::thread::spawn(move || {
            let r = c.call(get(id, BlockId(0), &key));
            (r, Instant::now())
        })
    };

    let first_call = call(first, "first".into());
    match read_frame_blocking(&mut server).expect("request") {
        Envelope::DataReq { id, .. } => assert_eq!(id, first),
        other => panic!("unexpected {other:?}"),
    }
    // The server now reads nothing: the big request fills the socket and
    // parks the rest of itself, which leaves the queue over the cap.
    let sent_call = call(sent, "x".repeat(32 << 20));
    std::thread::sleep(Duration::from_millis(200));
    let blocked_call = call(blocked, "blocked".into());
    std::thread::sleep(Duration::from_millis(200));

    server.write_all(&pong(first).unwrap()).expect("reply");
    let (r, _) = first_call.join().expect("first caller");
    r.expect("first reply");
    server.write_all(&pong(sent).unwrap()).expect("reply");
    // Give the reply up to five seconds to be read before the server
    // reads on (which would unblock the waiting sender).
    let deadline = Instant::now() + Duration::from_secs(5);
    while !sent_call.is_finished() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let drain_started = Instant::now();
    assert!(
        sent_call.is_finished(),
        "a reply sat unread while a caller waited on the egress cap"
    );

    let mut drain = server.try_clone().expect("clone");
    let drainer = std::thread::spawn(move || loop {
        match read_frame_blocking(&mut drain).expect("request") {
            Envelope::DataReq { id, .. } if id == blocked => return,
            _ => {}
        }
    });
    drainer.join().expect("drain");
    server.write_all(&pong(blocked).unwrap()).expect("reply");
    let (r, done) = sent_call.join().expect("sent caller");
    r.expect("sent reply");
    assert!(done < drain_started);
    let (r, _) = blocked_call.join().expect("blocked caller");
    r.expect("blocked reply");
}
