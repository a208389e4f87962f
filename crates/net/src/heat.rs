//! Shard heat over the wire: the `STATS` request's payload — the node's
//! observability snapshot plus one snapshot per shard — and a client-side
//! view with the imbalance arithmetic a rebalancer (or an operator reading
//! a dashboard) starts from.

use mgpu_obs::{Snapshot, HIST_BUCKETS};
use mgpu_serve::{ServiceReport, ShardHeat};

use crate::wire::{Reader, WireError, Writer};

/// What `STATS` returns. On the wire it is only the epoch, the node's
/// snapshot and one `(wall time, snapshot)` pair per shard; `merged` and
/// `shards` are rebuilt from the shard snapshots by [`NetStats::new`], so
/// the shard counters always sum to the merged ones.
#[derive(Debug, Clone, PartialEq)]
pub struct NetStats {
    /// The directory epoch this node last heard about (wire v4). Every
    /// placement change — a node joining or leaving the pool, a
    /// `BatchKey` migration, a drain — bumps the pool's epoch, and the
    /// pool announces it with `DRAIN`/`RESUME`/`PREWARM`. A client whose
    /// directory epoch lags the value echoed here is routing on a stale
    /// placement.
    pub epoch: u64,
    /// All shards folded together (see [`ServiceReport::merged`]).
    pub merged: ServiceReport,
    /// Per-shard heat, indexed by shard.
    pub shards: Vec<ShardHeat>,
    /// The node's observability snapshot: the server's own `net.*`
    /// registry, every shard's `serve.*` registry, and the process-global
    /// `volren.*`/`pool.*` metrics. Merges exactly across nodes via
    /// [`Snapshot::merge`].
    pub obs: Snapshot,
}

impl NetStats {
    /// Assemble from the node snapshot and the per-shard reports (indexed
    /// by shard); the merged report is their [`ServiceReport::merged`].
    pub fn new(epoch: u64, obs: Snapshot, shard_reports: Vec<ServiceReport>) -> NetStats {
        NetStats {
            epoch,
            merged: ServiceReport::merged(&shard_reports),
            shards: shard_reports
                .into_iter()
                .enumerate()
                .map(|(shard, report)| ShardHeat { shard, report })
                .collect(),
            obs,
        }
    }

    /// The busiest shard by completed frames (`None` with zero shards —
    /// never the case for a live server).
    pub fn hottest(&self) -> Option<&ShardHeat> {
        self.shards.iter().max_by_key(|h| h.report.frames_completed)
    }

    /// Max-over-mean completed frames across shards: 1.0 is a perfectly
    /// even spread; large values say rendezvous routing is fighting a
    /// skewed key distribution and a rebalancer would help.
    pub fn imbalance(&self) -> f64 {
        let max = self
            .shards
            .iter()
            .map(|h| h.report.frames_completed)
            .max()
            .unwrap_or(0);
        let total: u64 = self.shards.iter().map(|h| h.report.frames_completed).sum();
        if total == 0 || self.shards.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.shards.len() as f64;
        max as f64 / mean
    }
}

impl std::fmt::Display for NetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "epoch {}", self.epoch)?;
        writeln!(f, "{}", self.merged)?;
        writeln!(
            f,
            "{:>5} {:>7} {:>9} {:>9} {:>11} {:>11} {:>9}",
            "shard", "queued", "frames", "frames/s", "cache", "plans", "p90 wait"
        )?;
        for h in &self.shards {
            let r = &h.report;
            writeln!(
                f,
                "{:>5} {:>7} {:>9} {:>9.2} {:>6}/{:<4} {:>6}/{:<4} {:>7.2}ms",
                h.shard,
                h.queue_depth(),
                r.frames_completed,
                r.frames_per_sec(),
                r.frame_cache.entries,
                r.frame_cache.capacity,
                r.plan_cache.entries,
                r.plan_cache.capacity,
                r.queue_wait_p90().as_secs_f64() * 1e3,
            )?;
        }
        write!(f, "imbalance (max/mean frames): {:.2}", self.imbalance())
    }
}

/// Encode an [`mgpu_obs::Snapshot`] — name-keyed counters, gauges and
/// histograms. Names are written in the snapshot's stable sorted order, so
/// equal snapshots encode to equal bytes.
pub fn encode_snapshot(snap: &Snapshot) -> Vec<u8> {
    let mut w = Writer::new();
    put_snapshot(&mut w, snap);
    w.into_bytes()
}

fn put_snapshot(w: &mut Writer, snap: &Snapshot) {
    let counters = snap.counters();
    w.u32(counters.len() as u32);
    for (name, value) in counters {
        w.str(name);
        w.u64(*value);
    }
    let gauges = snap.gauges();
    w.u32(gauges.len() as u32);
    for (name, value) in gauges {
        w.str(name);
        w.u64(*value as u64); // i64 by bit pattern
    }
    let histograms = snap.histograms();
    w.u32(histograms.len() as u32);
    for (name, buckets) in histograms {
        w.str(name);
        for bucket in buckets {
            w.u64(*bucket);
        }
    }
}

/// Decode an [`mgpu_obs::Snapshot`] payload; consumes the whole payload.
pub fn decode_snapshot(payload: &[u8]) -> Result<Snapshot, WireError> {
    let mut r = Reader::new(payload);
    let snap = get_snapshot(&mut r)?;
    r.finish()?;
    Ok(snap)
}

fn get_snapshot(r: &mut Reader) -> Result<Snapshot, WireError> {
    let mut snap = Snapshot::new();
    // Each entry is at least a name length prefix plus one u64.
    let counters = r.count(4 + 8)?;
    for _ in 0..counters {
        let name = r.str()?;
        let value = r.u64()?;
        snap.add_counter(&name, value);
    }
    let gauges = r.count(4 + 8)?;
    for _ in 0..gauges {
        let name = r.str()?;
        let value = r.u64()? as i64; // i64 by bit pattern
        snap.add_gauge(&name, value);
    }
    let histograms = r.count(4 + 8 * HIST_BUCKETS)?;
    for _ in 0..histograms {
        let name = r.str()?;
        let mut buckets = [0u64; HIST_BUCKETS];
        for bucket in &mut buckets {
            *bucket = r.u64()?;
        }
        snap.add_histogram(&name, &buckets);
    }
    Ok(snap)
}

/// Encode a `STATS_REPORT` payload (wire v5): the epoch, the node
/// snapshot, then each shard's wall time (ns) and snapshot in shard order.
pub fn encode_stats(stats: &NetStats) -> Vec<u8> {
    let mut w = Writer::new();
    put_stats(&mut w, stats);
    w.into_bytes()
}

/// Decode a `STATS_REPORT` payload; consumes the whole payload.
pub fn decode_stats(payload: &[u8]) -> Result<NetStats, WireError> {
    let mut r = Reader::new(payload);
    let stats = get_stats(&mut r)?;
    r.finish()?;
    Ok(stats)
}

pub(crate) fn put_stats(w: &mut Writer, stats: &NetStats) {
    w.u64(stats.epoch);
    put_snapshot(w, &stats.obs);
    w.u32(stats.shards.len() as u32);
    for h in &stats.shards {
        w.u64(u64::try_from(h.report.wall_elapsed.as_nanos()).unwrap_or(u64::MAX));
        put_snapshot(w, &h.report.snapshot);
    }
}

pub(crate) fn get_stats(r: &mut Reader) -> Result<NetStats, WireError> {
    let epoch = r.u64()?;
    let obs = get_snapshot(r)?;
    // Each shard is at least its wall time plus three empty section counts.
    let n = r.count(8 + 3 * 4)?;
    let mut shard_reports = Vec::with_capacity(n);
    for _ in 0..n {
        let wall = std::time::Duration::from_nanos(r.u64()?);
        shard_reports.push(ServiceReport::from_snapshot(get_snapshot(r)?, wall));
    }
    Ok(NetStats::new(epoch, obs, shard_reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_obs::names;

    /// A shard snapshot shaped like a service registry's export.
    fn shard_report(frames: u64) -> ServiceReport {
        let mut snap = Snapshot::new();
        snap.add_counter(names::SERVE_FRAMES_COMPLETED, frames);
        snap.add_counter(names::SERVE_FRAMES_RENDERED, frames - 2);
        snap.add_counter(names::SERVE_FRAME_CACHE_HITS, 2);
        snap.add_gauge(names::SERVE_FRAME_CACHE_ENTRIES, 3);
        snap.add_gauge(names::SERVE_FRAME_CACHE_CAPACITY, 64);
        snap.add_gauge(names::SERVE_QUEUE_DEPTH_NORMAL, 2);
        let mut buckets = [0u64; HIST_BUCKETS];
        buckets[12] = frames;
        buckets[HIST_BUCKETS - 1] = 1;
        snap.add_histogram(names::SERVE_QUEUE_WAIT_NS, &buckets);
        ServiceReport::from_snapshot(snap, std::time::Duration::from_millis(1500 + frames))
    }

    fn sample_stats() -> NetStats {
        let mut obs = Snapshot::new();
        obs.add_counter(names::NET_FRAMES_IN, 24);
        obs.add_counter(names::SERVE_FRAMES_RENDERED, 20);
        obs.add_gauge(names::NET_CONNECTIONS, -1); // negative survives the cast
        NetStats::new(7, obs, vec![shard_report(18), shard_report(6)])
    }

    #[test]
    fn stats_roundtrip_bit_exact() {
        let stats = sample_stats();
        let decoded = decode_stats(&encode_stats(&stats)).unwrap();
        assert_eq!(decoded, stats);
        // The merged report is rebuilt from the shard snapshots: shard
        // counters sum to it, and wall time merges as the maximum.
        assert_eq!(decoded.merged.frames_completed, 24);
        assert_eq!(decoded.merged.queue_depths, [0, 4, 0]);
        assert_eq!(decoded.merged.wall_elapsed.as_millis(), 1518);
        assert_eq!(decoded.shards[1].shard, 1);
        assert_eq!(decoded.shards[1].queue_depth(), 2);
    }

    #[test]
    fn snapshot_roundtrips_and_reencodes_byte_equal() {
        let stats = sample_stats();
        let bytes = encode_snapshot(&stats.obs);
        let decoded = decode_snapshot(&bytes).unwrap();
        assert_eq!(decoded, stats.obs);
        // Stable sorted keys: re-encoding the decoded snapshot reproduces
        // the exact bytes, which is what lets merged pool snapshots be
        // compared bit-for-bit.
        assert_eq!(encode_snapshot(&decoded), bytes);
        for cut in 0..bytes.len() {
            assert!(decode_snapshot(&bytes[..cut]).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn truncations_never_panic() {
        let bytes = encode_stats(&sample_stats());
        for cut in 0..bytes.len() {
            assert!(decode_stats(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }
    }

    #[test]
    fn imbalance_and_hottest() {
        let stats = sample_stats();
        assert_eq!(stats.hottest().unwrap().shard, 0);
        // max 18, mean 12 → 1.5
        assert!((stats.imbalance() - 1.5).abs() < 1e-12);
        let empty = NetStats::new(0, Snapshot::new(), vec![]);
        assert_eq!(empty.imbalance(), 1.0);
        assert!(empty.hottest().is_none());
        // The display table renders without panicking.
        assert!(format!("{stats}").contains("imbalance"));
    }
}
