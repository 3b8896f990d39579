//! System-wide configuration with the paper's default parameters.

use std::time::Duration;

use jiffy_sync::atomic::{AtomicU64, Ordering};
use serde::{Deserialize, Serialize};

use crate::size::MB;

/// Default deadline for one RPC request/response round trip.
pub const DEFAULT_CALL_TIMEOUT: Duration = Duration::from_secs(10);

/// Cached call-timeout override in milliseconds; 0 means "not yet
/// resolved" (the first [`call_timeout`] reads the environment).
static CALL_TIMEOUT_MS: AtomicU64 = AtomicU64::new(0);

/// The RPC round-trip deadline: [`DEFAULT_CALL_TIMEOUT`] unless
/// overridden by the `JIFFY_CALL_TIMEOUT_MS` environment variable (read
/// once, then cached) or programmatically via [`set_call_timeout`].
///
/// Chaos and slow-CI runs lower this so dropped replies fail fast
/// instead of riding the edge of the 10 s default.
pub fn call_timeout() -> Duration {
    let cached = CALL_TIMEOUT_MS.load(Ordering::Relaxed);
    if cached != 0 {
        return Duration::from_millis(cached);
    }
    let ms = std::env::var("JIFFY_CALL_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(DEFAULT_CALL_TIMEOUT.as_millis() as u64);
    CALL_TIMEOUT_MS.store(ms, Ordering::Relaxed);
    Duration::from_millis(ms)
}

/// Overrides the RPC call timeout process-wide. Preferred over setting
/// the environment variable from tests (`set_var` is racy once threads
/// exist); sub-millisecond durations round up to 1 ms.
pub fn set_call_timeout(timeout: Duration) {
    CALL_TIMEOUT_MS.store((timeout.as_millis() as u64).max(1), Ordering::Relaxed);
}

/// Resolves a cached `u64` knob: the atomic holds the value once known,
/// `0` meaning "not yet resolved" (first call reads `env_var`, falling
/// back to `default`). All the reactor knobs below share this shape with
/// [`call_timeout`].
fn cached_env_u64(cell: &AtomicU64, env_var: &str, default: u64) -> u64 {
    let cached = cell.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let v = std::env::var(env_var)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default);
    cell.store(v, Ordering::Relaxed);
    v
}

static RPC_WORKERS: AtomicU64 = AtomicU64::new(0);
static RPC_EGRESS_CAP: AtomicU64 = AtomicU64::new(0);
static RPC_CLIENT_REACTORS: AtomicU64 = AtomicU64::new(0);

/// Number of executor threads behind each TCP server: they read,
/// execute and reply to requests run-to-completion (the listener has its
/// own acceptor thread). Default: the machine's available parallelism
/// clamped to `[2, 8]`; override with `JIFFY_RPC_WORKERS` (read once,
/// then cached) or [`set_rpc_workers`].
pub fn rpc_workers() -> usize {
    let default = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8) as u64;
    cached_env_u64(&RPC_WORKERS, "JIFFY_RPC_WORKERS", default) as usize
}

/// Overrides the server executor count process-wide (existing servers
/// keep the executors they started with; new `serve_tcp` calls see the
/// new value). Values round up to 1.
pub fn set_rpc_workers(n: usize) {
    RPC_WORKERS.store((n as u64).max(1), Ordering::Relaxed);
}

/// Per-socket egress-queue cap in bytes: senders whose peer stops
/// draining block once this many encoded-but-unsent bytes are queued
/// (a single frame larger than the cap is always admitted into an empty
/// queue, so `MAX_FRAME_LEN` frames still pass). Default 8 MiB; override
/// with `JIFFY_RPC_EGRESS_CAP_BYTES` or [`set_rpc_egress_cap`].
pub fn rpc_egress_cap() -> usize {
    cached_env_u64(
        &RPC_EGRESS_CAP,
        "JIFFY_RPC_EGRESS_CAP_BYTES",
        8 * 1024 * 1024,
    ) as usize
}

/// Overrides the egress cap process-wide. Values round up to 1.
pub fn set_rpc_egress_cap(bytes: usize) {
    RPC_EGRESS_CAP.store((bytes as u64).max(1), Ordering::Relaxed);
}

/// Number of shared client-side reactor threads behind *all* outbound
/// TCP connections of this process (connections are assigned round-robin
/// at dial time). A reactor reads a connection only while no caller is
/// waiting on it — callers read their own replies. Default: available parallelism / 4 clamped
/// to `[1, 4]`; override with `JIFFY_CLIENT_REACTORS`. Read once at the
/// first dial — there is no setter, because resizing a live pool would
/// strand registered connections.
pub fn rpc_client_reactors() -> usize {
    let default = (std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        / 4)
    .clamp(1, 4) as u64;
    cached_env_u64(&RPC_CLIENT_REACTORS, "JIFFY_CLIENT_REACTORS", default) as usize
}

/// Tunable parameters of a Jiffy deployment.
///
/// Defaults follow §6 of the paper: 128 MB blocks, 1 s lease duration,
/// 5 % / 95 % low/high repartition thresholds. Tests and the simulator
/// shrink the block size so experiments fit on one machine; the
/// sensitivity harness (Fig. 14) sweeps each parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JiffyConfig {
    /// Capacity of every memory block in bytes (paper default: 128 MB).
    pub block_size: usize,
    /// How long a lease lives without renewal (paper default: 1 s).
    pub lease_duration: Duration,
    /// How often the expiry worker scans the address hierarchies.
    pub lease_scan_interval: Duration,
    /// Fraction of block capacity above which the block signals overload
    /// and triggers a split (paper default: 0.95).
    pub high_threshold: f64,
    /// Fraction of block capacity below which the block becomes a merge
    /// candidate (paper default: 0.05).
    pub low_threshold: f64,
    /// Number of hash slots in the KV-store keyspace (paper default: 1024).
    pub kv_hash_slots: u32,
    /// Replication chain length for blocks that request fault tolerance
    /// (1 = no replication).
    pub chain_length: usize,
    /// How often each memory server heartbeats the controller.
    pub heartbeat_interval: Duration,
    /// The controller's failure detector marks a server dead once this
    /// much time passes without a heartbeat from it.
    pub heartbeat_timeout: Duration,
    /// How often the controller's elasticity worker runs the failure
    /// detector and the autoscaler.
    pub elasticity_interval: Duration,
    /// Low free-block watermark: when the fraction of free blocks across
    /// alive servers drops below this, the autoscaler requests a new
    /// server from the pluggable `ServerProvider`.
    pub scale_up_free_fraction: f64,
    /// High free-block watermark: when the fraction of free blocks rises
    /// above this (and the pool is above its minimum size), the
    /// autoscaler drains the emptiest server and releases it.
    pub scale_down_free_fraction: f64,
    /// The controller writes a metadata snapshot (and truncates the
    /// journal) after this many journal records. 0 disables snapshots:
    /// recovery then replays the whole journal.
    pub meta_snapshot_every: u64,
    /// Multi-tenant QoS: quotas, weighted-fair allocation and data-plane
    /// admission control (DESIGN.md §14). Disabled by default so
    /// single-tenant deployments behave exactly as before.
    pub qos: QosConfig,
}

/// Multi-tenant QoS parameters (DESIGN.md §14). The `default_*` fields
/// apply to every tenant without an explicit override (set at runtime
/// through `SetTenantShare` / `JiffyCluster::set_tenant_share`).
///
/// A rate or quota of `0` means "unlimited" for that dimension. The
/// anonymous tenant (internal RPCs, replication fan-down) is always
/// exempt from admission control.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QosConfig {
    /// Master switch. When false, all tenant traffic is treated
    /// identically (the pre-QoS behavior).
    pub enabled: bool,
    /// Weighted-fair share for tenants without an override (relative
    /// weight; must be >= 1 when QoS is enabled).
    pub default_share: u32,
    /// Hard memory cap in bytes for tenants without an override
    /// (enforced at block allocation); 0 = unlimited.
    pub default_quota_bytes: u64,
    /// Data-plane op-rate limit for tenants without an override; 0 =
    /// unlimited.
    pub default_ops_per_sec: u64,
    /// Data-plane byte-rate limit (request payload plus response/egress
    /// bytes) for tenants without an override; 0 = unlimited.
    pub default_bytes_per_sec: u64,
    /// Token-bucket burst capacity as a multiple of the per-second rate
    /// (a bucket holds `rate * burst_factor` tokens when full).
    pub burst_factor: f64,
    /// Weighted-fair arbitration of block allocations kicks in once the
    /// cluster's free-block fraction drops below this watermark; above
    /// it, any under-quota allocation is granted first-come-first-served.
    pub pressure_free_fraction: f64,
}

impl Default for QosConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            default_share: 1,
            default_quota_bytes: 0,
            default_ops_per_sec: 0,
            default_bytes_per_sec: 0,
            burst_factor: 2.0,
            pressure_free_fraction: 0.25,
        }
    }
}

impl QosConfig {
    /// An enabled config with the given default per-tenant rate limits
    /// (0 = unlimited for either dimension).
    pub fn enabled_with_rates(ops_per_sec: u64, bytes_per_sec: u64) -> Self {
        Self {
            enabled: true,
            default_ops_per_sec: ops_per_sec,
            default_bytes_per_sec: bytes_per_sec,
            ..Self::default()
        }
    }

    /// Builder-style override of the default hard memory quota.
    pub fn with_quota_bytes(mut self, bytes: u64) -> Self {
        self.default_quota_bytes = bytes;
        self
    }

    /// Builder-style override of the fairness pressure watermark.
    pub fn with_pressure_free_fraction(mut self, f: f64) -> Self {
        self.pressure_free_fraction = f;
        self
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> crate::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        if self.default_share == 0 {
            return Err(crate::JiffyError::Internal(
                "qos.default_share must be >= 1 when QoS is enabled".into(),
            ));
        }
        if !self.burst_factor.is_finite() || self.burst_factor < 1.0 {
            return Err(crate::JiffyError::Internal(format!(
                "qos.burst_factor must be finite and >= 1.0, got {}",
                self.burst_factor
            )));
        }
        if !(0.0..=1.0).contains(&self.pressure_free_fraction) {
            return Err(crate::JiffyError::Internal(format!(
                "qos.pressure_free_fraction must be in [0, 1], got {}",
                self.pressure_free_fraction
            )));
        }
        Ok(())
    }
}

impl Default for JiffyConfig {
    fn default() -> Self {
        Self {
            block_size: 128 * MB,
            lease_duration: Duration::from_secs(1),
            lease_scan_interval: Duration::from_millis(100),
            high_threshold: 0.95,
            low_threshold: 0.05,
            kv_hash_slots: 1024,
            chain_length: 1,
            heartbeat_interval: Duration::from_secs(1),
            heartbeat_timeout: Duration::from_secs(5),
            elasticity_interval: Duration::from_secs(1),
            scale_up_free_fraction: 0.1,
            scale_down_free_fraction: 0.6,
            meta_snapshot_every: 256,
            qos: QosConfig::default(),
        }
    }
}

impl JiffyConfig {
    /// A configuration with small (64 KB) blocks suitable for unit and
    /// integration tests on a single machine.
    pub fn for_testing() -> Self {
        Self {
            block_size: 64 * 1024,
            lease_duration: Duration::from_secs(1),
            lease_scan_interval: Duration::from_millis(20),
            heartbeat_interval: Duration::from_millis(20),
            heartbeat_timeout: Duration::from_millis(100),
            elasticity_interval: Duration::from_millis(20),
            meta_snapshot_every: 32,
            ..Self::default()
        }
    }

    /// Builder-style override of the journal-records-per-snapshot
    /// threshold (0 disables snapshots).
    pub fn with_meta_snapshot_every(mut self, records: u64) -> Self {
        self.meta_snapshot_every = records;
        self
    }

    /// Builder-style override of the heartbeat interval and the failure
    /// detector's timeout.
    pub fn with_heartbeats(mut self, interval: Duration, timeout: Duration) -> Self {
        self.heartbeat_interval = interval;
        self.heartbeat_timeout = timeout;
        self
    }

    /// Builder-style override of the autoscaler's free-block watermarks:
    /// scale up when the free fraction drops below `up_below`, scale
    /// down when it rises above `down_above`.
    pub fn with_scale_watermarks(mut self, up_below: f64, down_above: f64) -> Self {
        self.scale_up_free_fraction = up_below;
        self.scale_down_free_fraction = down_above;
        self
    }

    /// Builder-style override of the block size.
    pub fn with_block_size(mut self, bytes: usize) -> Self {
        self.block_size = bytes;
        self
    }

    /// Builder-style override of the lease duration.
    pub fn with_lease_duration(mut self, d: Duration) -> Self {
        self.lease_duration = d;
        self
    }

    /// Builder-style override of the repartition thresholds.
    pub fn with_thresholds(mut self, low: f64, high: f64) -> Self {
        self.low_threshold = low;
        self.high_threshold = high;
        self
    }

    /// Builder-style override of the replication chain length.
    pub fn with_chain_length(mut self, n: usize) -> Self {
        self.chain_length = n;
        self
    }

    /// Builder-style override of the multi-tenant QoS section.
    pub fn with_qos(mut self, qos: QosConfig) -> Self {
        self.qos = qos;
        self
    }

    /// Validates internal consistency (thresholds ordered and in `[0, 1]`,
    /// non-zero block size, chain length at least 1).
    pub fn validate(&self) -> crate::Result<()> {
        if self.block_size == 0 {
            return Err(crate::JiffyError::Internal("block_size must be > 0".into()));
        }
        if !(0.0..=1.0).contains(&self.low_threshold)
            || !(0.0..=1.0).contains(&self.high_threshold)
            || self.low_threshold >= self.high_threshold
        {
            return Err(crate::JiffyError::Internal(format!(
                "invalid thresholds: low={} high={}",
                self.low_threshold, self.high_threshold
            )));
        }
        if self.chain_length == 0 {
            return Err(crate::JiffyError::Internal(
                "chain_length must be >= 1".into(),
            ));
        }
        if self.kv_hash_slots == 0 {
            return Err(crate::JiffyError::Internal(
                "kv_hash_slots must be >= 1".into(),
            ));
        }
        if self.heartbeat_timeout <= self.heartbeat_interval {
            return Err(crate::JiffyError::Internal(format!(
                "heartbeat_timeout ({:?}) must exceed heartbeat_interval ({:?})",
                self.heartbeat_timeout, self.heartbeat_interval
            )));
        }
        if !(0.0..=1.0).contains(&self.scale_up_free_fraction)
            || !(0.0..=1.0).contains(&self.scale_down_free_fraction)
            || self.scale_up_free_fraction >= self.scale_down_free_fraction
        {
            return Err(crate::JiffyError::Internal(format!(
                "invalid scale watermarks: up_below={} down_above={}",
                self.scale_up_free_fraction, self.scale_down_free_fraction
            )));
        }
        self.qos.validate()?;
        Ok(())
    }

    /// Bytes above which a block is considered overloaded.
    pub fn high_watermark(&self) -> usize {
        (self.block_size as f64 * self.high_threshold) as usize
    }

    /// Bytes below which a block is considered underloaded.
    pub fn low_watermark(&self) -> usize {
        (self.block_size as f64 * self.low_threshold) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = JiffyConfig::default();
        assert_eq!(c.block_size, 128 * MB);
        assert_eq!(c.lease_duration, Duration::from_secs(1));
        assert_eq!(c.high_threshold, 0.95);
        assert_eq!(c.low_threshold, 0.05);
        assert_eq!(c.kv_hash_slots, 1024);
        c.validate().unwrap();
    }

    #[test]
    fn watermarks_scale_with_block_size() {
        let c = JiffyConfig::default().with_block_size(1000);
        assert_eq!(c.high_watermark(), 950);
        assert_eq!(c.low_watermark(), 50);
    }

    #[test]
    fn validate_rejects_inverted_thresholds() {
        let c = JiffyConfig::default().with_thresholds(0.9, 0.1);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_block() {
        let c = JiffyConfig::default().with_block_size(0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_chain() {
        let c = JiffyConfig::default().with_chain_length(0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_heartbeats_and_watermarks() {
        let c =
            JiffyConfig::default().with_heartbeats(Duration::from_secs(5), Duration::from_secs(1));
        assert!(c.validate().is_err());
        let c = JiffyConfig::default().with_scale_watermarks(0.7, 0.2);
        assert!(c.validate().is_err());
        let c = JiffyConfig::for_testing()
            .with_heartbeats(Duration::from_millis(10), Duration::from_millis(50))
            .with_scale_watermarks(0.2, 0.8);
        c.validate().unwrap();
    }

    #[test]
    fn call_timeout_defaults_and_overrides() {
        // First read resolves from the environment and caches the
        // default; the programmatic override wins afterwards.
        if std::env::var("JIFFY_CALL_TIMEOUT_MS").is_err() {
            assert_eq!(call_timeout(), DEFAULT_CALL_TIMEOUT);
        }
        set_call_timeout(Duration::from_millis(250));
        assert_eq!(call_timeout(), Duration::from_millis(250));
        set_call_timeout(Duration::from_micros(10));
        assert_eq!(call_timeout(), Duration::from_millis(1));
        set_call_timeout(DEFAULT_CALL_TIMEOUT);
    }

    #[test]
    fn qos_defaults_off_and_validates() {
        let c = JiffyConfig::default();
        assert!(!c.qos.enabled);
        c.validate().unwrap();
        let c = c.with_qos(QosConfig::enabled_with_rates(100, 0).with_quota_bytes(1 << 20));
        assert!(c.qos.enabled);
        assert_eq!(c.qos.default_ops_per_sec, 100);
        c.validate().unwrap();
        // Enabled configs reject nonsense parameters.
        let mut bad = QosConfig::enabled_with_rates(10, 10);
        bad.default_share = 0;
        assert!(JiffyConfig::default().with_qos(bad).validate().is_err());
        let mut bad = QosConfig::enabled_with_rates(10, 10);
        bad.burst_factor = 0.5;
        assert!(JiffyConfig::default().with_qos(bad).validate().is_err());
        let bad = QosConfig::enabled_with_rates(10, 10).with_pressure_free_fraction(1.5);
        assert!(JiffyConfig::default().with_qos(bad).validate().is_err());
    }

    #[test]
    fn builders_compose() {
        let c = JiffyConfig::for_testing()
            .with_lease_duration(Duration::from_millis(100))
            .with_thresholds(0.1, 0.8)
            .with_chain_length(3);
        assert_eq!(c.lease_duration, Duration::from_millis(100));
        assert_eq!(c.low_threshold, 0.1);
        assert_eq!(c.chain_length, 3);
        c.validate().unwrap();
    }
}
