//! RPC layer for Jiffy.
//!
//! The paper builds its data plane on Apache Thrift with asynchronous
//! framed IO so that many client sessions multiplex over non-blocking
//! connections (§4.2.2). This crate provides the equivalent:
//!
//! - [`service`] — the [`Service`] trait implemented by the controller
//!   and the memory servers, plus per-session push handles used by the
//!   notification subsystem.
//! - [`inproc`] — a zero-copy in-process transport (used by tests, the
//!   simulator and single-process deployments).
//! - [`reactor`] — the vendored epoll reactor core: readiness-driven
//!   event loop, run-to-completion session executors, per-socket egress
//!   queues and the sharded waiter table with its reader role
//!   (DESIGN.md §12).
//! - [`tcp`] — a framed TCP transport on the reactor: a fixed set of
//!   executors serves every session, so thousands of concurrent
//!   connections cost zero threads, with concurrent in-flight requests
//!   per connection whose callers read their own replies.
//! - [`fabric`] — unified addressing (`inproc:N` / `tcp:host:port`),
//!   connection pooling and an optional latency injector for experiments.
//! - [`fault`] — seeded, deterministic fault injection ([`FaultInjector`]
//!   / [`ChaosConn`]): per-address drop, delay, duplicate, transient
//!   error and partition rules, togglable at runtime.
//! - [`retry`] — exponential-backoff [`RetryPolicy`] for transport-level
//!   faults.
//! - [`dedup`] — server-side replay cache ([`Deduplicated`]) making
//!   same-id retries execute exactly once per session.
//!
//! [`Service`]: service::Service

pub mod dedup;
pub mod fabric;
pub mod fault;
pub mod inproc;
pub mod reactor;
pub mod retry;
pub mod service;
pub mod tcp;

pub use dedup::{Deduplicated, ReplayWindow};
pub use fabric::{Fabric, LatencyInjector};
pub use fault::{ChaosConn, FaultInjector, FaultRule, FaultStats};
pub use inproc::InprocHub;
pub use reactor::{
    EgressQueue, EgressSink, EventHandler, Executors, Interest, Reactor, Reader, SendStatus,
    ServeGate, Session, WaiterSlot, WaiterTable, Wake,
};
pub use retry::RetryPolicy;
pub use service::{ClientConn, PushCallback, Service, SessionHandle};
pub use tcp::{TcpServerHandle, TransportStats};
