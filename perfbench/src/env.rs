//! The cluster under test, its counters, and the host anchor.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use jiffy::JiffyCluster;
use jiffy_client::rid::next_request_id;
use jiffy_client::JiffyClient;
use jiffy_common::clock::SystemClock;
use jiffy_common::{JiffyConfig, TenantId};
use jiffy_persistent::{MemObjectStore, ObjectStore};
use jiffy_proto::{DataRequest, DataResponse, Envelope};
use jiffy_rpc::ClientConn;
use jiffy_sync::atomic::{AtomicU64, Ordering};
use jiffy_sync::Arc;

use crate::stats::us;
use crate::trace::timed;

/// How a workload's cluster is built.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub block_size: usize,
    pub blocks_per_server: u32,
    pub chain_length: usize,
    /// Value or record size of the workload's typical call, used to shape
    /// the per-layer probes.
    pub value_len: usize,
}

/// Memory servers in every cluster.
pub const SERVERS: usize = 2;

/// One running cluster: a one-shard controller and [`SERVERS`] memory
/// servers on TCP loopback, with an in-memory persistent tier.
pub struct Env {
    pub cluster: JiffyCluster,
    pub store: Arc<Journal>,
    pub shape: Shape,
}

/// The persistent tier: an in-memory object store that also counts the
/// journal batches the controller writes to it, apart from snapshots,
/// whose size and timing depend on everything journaled before.
#[derive(Default)]
pub struct Journal {
    store: MemObjectStore,
    objects: AtomicU64,
    bytes: AtomicU64,
}

impl ObjectStore for Journal {
    fn put(&self, path: &str, data: &[u8]) -> jiffy_common::Result<()> {
        if path.contains("/journal/") {
            self.objects.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        self.store.put(path, data)
    }

    fn get(&self, path: &str) -> jiffy_common::Result<Vec<u8>> {
        self.store.get(path)
    }

    fn delete(&self, path: &str) -> jiffy_common::Result<()> {
        self.store.delete(path)
    }

    fn exists(&self, path: &str) -> bool {
        self.store.exists(path)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.store.list(prefix)
    }
}

impl Env {
    /// Boots a cluster. Leases outlive every run, so no prefix expires
    /// unless the workload removes it, and heartbeats are an hour apart,
    /// so the control-op counts per task contain only the workload's own
    /// traffic; no failure detector runs to miss them.
    pub fn boot(shape: Shape) -> Result<Self, String> {
        let cfg = JiffyConfig::default()
            .with_block_size(shape.block_size)
            .with_chain_length(shape.chain_length)
            .with_lease_duration(Duration::from_secs(3600))
            .with_heartbeats(Duration::from_secs(3600), Duration::from_secs(7200));
        let store = Arc::new(Journal::default());
        let cluster = JiffyCluster::build(
            cfg,
            SERVERS,
            shape.blocks_per_server,
            SystemClock::shared(),
            store.clone(),
            true,
            true,
        )
        .map_err(|e| format!("cluster boot: {e}"))?;
        Ok(Self {
            cluster,
            store,
            shape,
        })
    }

    pub fn client(&self) -> JiffyClient {
        self.cluster
            .client()
            .expect("a client connects to a running cluster")
    }

    /// Blocks the controller has handed out, replicas included.
    pub fn allocated_blocks(&self) -> u64 {
        let (s, _) = timed("controller.stats", || self.cluster.controller().stats());
        s.total_blocks - s.free_blocks
    }

    /// A pooled connection to the first memory server.
    pub fn server_conn(&self) -> ClientConn {
        let (_, addr) = self.cluster.servers()[0]
            .identity()
            .expect("a booted server is registered");
        self.cluster
            .fabric()
            .connect(&addr)
            .expect("loopback connect")
    }

    pub fn counters(&self, clients: &[JiffyClient]) -> Counters {
        let mut c = Counters::default();
        for s in self.cluster.servers() {
            let st = s.stats();
            c.server_ops += st.ops;
            c.server_splits += st.splits;
            c.server_merges += st.merges;
            c.server_imports += st.imports;
            c.window_replays += st.window_replays;
        }
        let ctl = self.cluster.controller().stats();
        c.control_ops = ctl.ops_served;
        c.control_splits = ctl.splits;
        for cl in clients {
            let cs = cl.metadata_cache().stats();
            c.cache_hits += cs.hits();
            c.cache_misses += cs.misses();
            c.resolves += cs.resolves();
        }
        c.journal_objects = self.store.objects.load(Ordering::Relaxed);
        c.journal_bytes = self.store.bytes.load(Ordering::Relaxed);
        c
    }
}

/// Monotone counters read from every layer before and after the timed
/// phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub server_ops: u64,
    pub server_splits: u64,
    pub server_merges: u64,
    pub server_imports: u64,
    pub window_replays: u64,
    pub control_ops: u64,
    pub control_splits: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub resolves: u64,
    pub journal_objects: u64,
    pub journal_bytes: u64,
}

impl Counters {
    pub fn since(&self, before: &Self) -> Self {
        Self {
            server_ops: self.server_ops - before.server_ops,
            server_splits: self.server_splits - before.server_splits,
            server_merges: self.server_merges - before.server_merges,
            server_imports: self.server_imports - before.server_imports,
            window_replays: self.window_replays - before.window_replays,
            control_ops: self.control_ops - before.control_ops,
            control_splits: self.control_splits - before.control_splits,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            resolves: self.resolves - before.resolves,
            journal_objects: self.journal_objects - before.journal_objects,
            journal_bytes: self.journal_bytes - before.journal_bytes,
        }
    }
}

/// Round trips in each burst of an anchor probe.
const ANCHOR_ROUNDS: usize = 1000;

/// Host anchor: round trips of 64 B over a plain `std::net` loopback
/// socket, with no Jiffy code on the path, in microseconds.
pub fn tcp_echo_us() -> Vec<f64> {
    echo(|n| n < ANCHOR_ROUNDS)
}

/// Runs loopback round trips for `d` before anything is measured. A
/// virtual machine's wake-up latency follows the load of the last few
/// seconds, so without this the first set-ups of a run would take after
/// whatever ran before it.
pub fn warm_host(d: Duration) {
    let until = Instant::now() + d;
    echo(|_| Instant::now() < until);
}

/// Round trips while `more(done)`, each timed.
fn echo(mut more: impl FnMut(usize) -> bool) -> Vec<f64> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let echo = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept loopback");
        s.set_nodelay(true).expect("nodelay");
        let mut buf = [0u8; 64];
        while s.read_exact(&mut buf).is_ok() {
            s.write_all(&buf).expect("echo write");
        }
    });
    let mut s = TcpStream::connect(addr).expect("connect loopback");
    s.set_nodelay(true).expect("nodelay");
    let mut buf = [7u8; 64];
    let mut lat = Vec::new();
    while more(lat.len()) {
        let ((), d) = timed("host.tcp_echo", || {
            s.write_all(&buf).expect("echo send");
            s.read_exact(&mut buf).expect("echo reply");
        });
        lat.push(us(d));
    }
    drop(s);
    echo.join().expect("echo thread");
    lat
}

/// One raw `Ping` on `conn`.
pub fn ping(conn: &ClientConn) {
    let reply = conn.call(Envelope::DataReq {
        id: next_request_id(),
        req: DataRequest::Ping,
        tenant: TenantId::ANONYMOUS,
    });
    assert!(
        matches!(
            reply,
            Ok(Envelope::DataResp {
                resp: Ok(DataResponse::Pong),
                ..
            })
        ),
        "ping answered {reply:?}"
    );
}

/// Latencies in microseconds of raw pings on a pooled connection to a
/// memory server.
pub fn ping_us(env: &Env) -> Vec<f64> {
    let conn = env.server_conn();
    (0..ANCHOR_ROUNDS)
        .map(|_| us(timed("rpc.ping", || ping(&conn)).1))
        .collect()
}
