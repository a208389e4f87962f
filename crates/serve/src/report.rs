//! Service-level accounting. Every service owns one [`Registry`]; every
//! `serve.*` event is recorded exactly once into it through the handles in
//! `ServiceMetrics`, and a [`ServiceReport`] is a typed view read out of a
//! [`Snapshot`] of that registry by [`ServiceReport::from_snapshot`].
//!
//! This sits *above* the per-frame [`mgpu_volren::RenderReport`]: the frame
//! report times one frame on the modeled cluster; the service report
//! measures how the front-end behaves under load — queue latency, batch
//! occupancy, cache and plan-cache hit rates, brick staging reuse, admission
//! shedding, failures, wall-clock throughput.

use std::sync::Arc;
use std::time::Duration;

use mgpu_obs::names;
use mgpu_obs::{Counter, Gauge, Histogram, Registry, Snapshot};

use crate::cache::{CacheCounters, CacheSnapshot};

/// A service's own registry and the handles its call sites record
/// through. The frame and plan caches count their hits, misses and
/// evictions into `frame_cache`/`plan_cache`; the gauges are sampled when a
/// snapshot is taken ([`crate::RenderService::snapshot`]).
#[derive(Debug)]
pub(crate) struct ServiceMetrics {
    pub registry: Registry,
    pub frames_submitted: Arc<Counter>,
    pub frames_completed: Arc<Counter>,
    pub frames_rendered: Arc<Counter>,
    pub frames_failed: Arc<Counter>,
    pub admission_rejected: Arc<Counter>,
    pub batches: Arc<Counter>,
    pub brick_stagings: Arc<Counter>,
    pub brick_reuses: Arc<Counter>,
    pub plan_prewarms: Arc<Counter>,
    pub queue_wait_total_ns: Arc<Counter>,
    pub sim_frame_total_ns: Arc<Counter>,
    pub queue_wait_ns: Arc<Histogram>,
    pub plan_prepare_ns: Arc<Histogram>,
    pub render_ns: Arc<Histogram>,
    pub frame_cache: CacheCounters,
    pub plan_cache: CacheCounters,
    /// Queued jobs per class, `[batch, normal, interactive]`.
    pub queue_depths: [Arc<Gauge>; 3],
    pub frame_cache_entries: Arc<Gauge>,
    pub plan_cache_entries: Arc<Gauge>,
}

impl ServiceMetrics {
    /// Register every `serve.*` metric in a fresh registry, so even an idle
    /// service's snapshot names them all (at zero).
    pub fn new(frame_cache_capacity: usize, plan_cache_capacity: usize) -> ServiceMetrics {
        let reg = Registry::new();
        reg.gauge(names::SERVE_FRAME_CACHE_CAPACITY)
            .set(frame_cache_capacity as i64);
        reg.gauge(names::SERVE_PLAN_CACHE_CAPACITY)
            .set(plan_cache_capacity as i64);
        ServiceMetrics {
            frames_submitted: reg.counter(names::SERVE_FRAMES_SUBMITTED),
            frames_completed: reg.counter(names::SERVE_FRAMES_COMPLETED),
            frames_rendered: reg.counter(names::SERVE_FRAMES_RENDERED),
            frames_failed: reg.counter(names::SERVE_FRAMES_FAILED),
            admission_rejected: reg.counter(names::SERVE_ADMISSION_REJECTED),
            batches: reg.counter(names::SERVE_BATCHES),
            brick_stagings: reg.counter(names::SERVE_BRICK_STAGINGS),
            brick_reuses: reg.counter(names::SERVE_BRICK_REUSES),
            plan_prewarms: reg.counter(names::SERVE_PLAN_PREWARMS),
            queue_wait_total_ns: reg.counter(names::SERVE_QUEUE_WAIT_TOTAL_NS),
            sim_frame_total_ns: reg.counter(names::SERVE_SIM_FRAME_TOTAL_NS),
            queue_wait_ns: reg.histogram(names::SERVE_QUEUE_WAIT_NS),
            plan_prepare_ns: reg.histogram(names::SERVE_PLAN_PREPARE_NS),
            render_ns: reg.histogram(names::SERVE_RENDER_NS),
            frame_cache: CacheCounters {
                hits: reg.counter(names::SERVE_FRAME_CACHE_HITS),
                misses: reg.counter(names::SERVE_FRAME_CACHE_MISSES),
                evictions: reg.counter(names::SERVE_FRAME_CACHE_EVICTIONS),
            },
            plan_cache: CacheCounters {
                hits: reg.counter(names::SERVE_PLAN_CACHE_HITS),
                misses: reg.counter(names::SERVE_PLAN_CACHE_MISSES),
                evictions: reg.counter(names::SERVE_PLAN_CACHE_EVICTIONS),
            },
            queue_depths: [
                reg.gauge(names::SERVE_QUEUE_DEPTH_BATCH),
                reg.gauge(names::SERVE_QUEUE_DEPTH_NORMAL),
                reg.gauge(names::SERVE_QUEUE_DEPTH_INTERACTIVE),
            ],
            frame_cache_entries: reg.gauge(names::SERVE_FRAME_CACHE_ENTRIES),
            plan_cache_entries: reg.gauge(names::SERVE_PLAN_CACHE_ENTRIES),
            registry: reg,
        }
    }
}

/// A point-in-time summary of service behaviour, alongside the per-frame
/// `RenderReport`s the tickets deliver. Every field is read out of
/// `snapshot` by [`ServiceReport::from_snapshot`]; wall time, which merges
/// as a maximum rather than a sum, travels beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    pub frames_submitted: u64,
    /// Frames answered: rendered or replayed from the frame cache.
    pub frames_completed: u64,
    pub frames_rendered: u64,
    /// Frames that resolved to an explicit [`crate::FrameError`] after a
    /// caught render panic (the worker survived).
    pub frames_failed: u64,
    /// Frames answered from the frame cache (submit-side or worker-side);
    /// the same count as `frame_cache.hits`.
    pub cache_hits: u64,
    /// Submissions shed by admission control (never queued).
    pub admission_rejected: u64,
    pub batches: u64,
    /// Frames rendered as part of some batch — every rendered frame is.
    pub batched_frames: u64,
    /// Jobs that actually left the queue (rendered or coalesced).
    pub jobs_popped: u64,
    pub brick_stagings: u64,
    pub brick_reuses: u64,
    /// Cross-batch plan cache counters (hits = lookups that found a warm
    /// plan, from batches and prewarms alike).
    pub plan_cache: CacheSnapshot,
    /// Frame-cache occupancy and counters (merged reports sum entries and
    /// capacities across shards).
    pub frame_cache: CacheSnapshot,
    /// Queued jobs per class, `[batch, normal, interactive]`, when the
    /// snapshot was taken.
    pub queue_depths: [usize; 3],
    /// Mean time a job waited in the queue before a worker picked it up —
    /// averaged over every popped job, coalesced cache hits included.
    pub mean_queue_wait: Duration,
    /// Real elapsed time since the service started.
    pub wall_elapsed: Duration,
    /// Sum of simulated per-frame runtimes.
    pub sim_frame_total: Duration,
    /// The `serve.*` snapshot every field above was read from.
    pub snapshot: Snapshot,
}

impl ServiceReport {
    /// The one constructor: read every field out of a `serve.*` snapshot.
    /// Names the snapshot lacks read as zero.
    pub fn from_snapshot(snapshot: Snapshot, wall_elapsed: Duration) -> ServiceReport {
        let count = |name: &str| snapshot.counter(name).unwrap_or(0);
        let level = |name: &str| snapshot.gauge(name).unwrap_or(0).max(0) as usize;
        let cache = |[hits, misses, evictions, entries, capacity]: [&str; 5]| CacheSnapshot {
            entries: level(entries),
            capacity: level(capacity),
            hits: count(hits),
            misses: count(misses),
            evictions: count(evictions),
        };
        // One queue-wait sample is recorded per popped job (rendered or
        // coalesced); cache fast-path frames never enter the queue.
        let jobs_popped = snapshot
            .histogram(names::SERVE_QUEUE_WAIT_NS)
            .map_or(0, |buckets| buckets.iter().sum());
        let waited = count(names::SERVE_QUEUE_WAIT_TOTAL_NS);
        let frames_rendered = count(names::SERVE_FRAMES_RENDERED);
        ServiceReport {
            frames_submitted: count(names::SERVE_FRAMES_SUBMITTED),
            frames_completed: count(names::SERVE_FRAMES_COMPLETED),
            frames_rendered,
            frames_failed: count(names::SERVE_FRAMES_FAILED),
            cache_hits: count(names::SERVE_FRAME_CACHE_HITS),
            admission_rejected: count(names::SERVE_ADMISSION_REJECTED),
            batches: count(names::SERVE_BATCHES),
            batched_frames: frames_rendered,
            jobs_popped,
            brick_stagings: count(names::SERVE_BRICK_STAGINGS),
            brick_reuses: count(names::SERVE_BRICK_REUSES),
            plan_cache: cache([
                names::SERVE_PLAN_CACHE_HITS,
                names::SERVE_PLAN_CACHE_MISSES,
                names::SERVE_PLAN_CACHE_EVICTIONS,
                names::SERVE_PLAN_CACHE_ENTRIES,
                names::SERVE_PLAN_CACHE_CAPACITY,
            ]),
            frame_cache: cache([
                names::SERVE_FRAME_CACHE_HITS,
                names::SERVE_FRAME_CACHE_MISSES,
                names::SERVE_FRAME_CACHE_EVICTIONS,
                names::SERVE_FRAME_CACHE_ENTRIES,
                names::SERVE_FRAME_CACHE_CAPACITY,
            ]),
            queue_depths: [
                level(names::SERVE_QUEUE_DEPTH_BATCH),
                level(names::SERVE_QUEUE_DEPTH_NORMAL),
                level(names::SERVE_QUEUE_DEPTH_INTERACTIVE),
            ],
            mean_queue_wait: Duration::from_nanos(waited.checked_div(jobs_popped).unwrap_or(0)),
            wall_elapsed,
            sim_frame_total: Duration::from_nanos(count(names::SERVE_SIM_FRAME_TOTAL_NS)),
            snapshot,
        }
    }

    /// Combine reports from independent service instances (the shards of a
    /// [`crate::ShardedService`], or the nodes of a pool): the snapshots
    /// merge with [`Snapshot::merge`] — counters, gauges and histogram
    /// buckets add — and wall time is the maximum (shards run
    /// concurrently).
    pub fn merged<'a>(reports: impl IntoIterator<Item = &'a ServiceReport>) -> ServiceReport {
        let mut snapshot = Snapshot::new();
        let mut wall_elapsed = Duration::ZERO;
        for r in reports {
            snapshot.merge(&r.snapshot);
            wall_elapsed = wall_elapsed.max(r.wall_elapsed);
        }
        ServiceReport::from_snapshot(snapshot, wall_elapsed)
    }

    /// Fraction of completed frames answered from the frame cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.frames_completed == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.frames_completed as f64
        }
    }

    /// Fraction of plan lookups answered by the cross-batch plan cache.
    pub fn plan_cache_hit_rate(&self) -> f64 {
        let total = self.plan_cache.hits + self.plan_cache.misses;
        if total == 0 {
            0.0
        } else {
            self.plan_cache.hits as f64 / total as f64
        }
    }

    /// Mean frames per batch (1.0 = batching bought nothing).
    pub fn batch_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_frames as f64 / self.batches as f64
        }
    }

    /// Completed frames per wall-clock second since service start.
    pub fn frames_per_sec(&self) -> f64 {
        let s = self.wall_elapsed.as_secs_f64();
        if s > 0.0 {
            self.frames_completed as f64 / s
        } else {
            0.0
        }
    }

    /// Queue-wait quantile from the log₂ histogram: the upper edge of the
    /// bucket holding the q-th popped job, so it never under-reports. Zero
    /// while nothing has been popped.
    pub fn queue_wait_quantile(&self, q: f64) -> Duration {
        self.snapshot
            .hist_quantile(names::SERVE_QUEUE_WAIT_NS, q)
            .unwrap_or(Duration::ZERO)
    }

    /// Median queue wait (see [`ServiceReport::queue_wait_quantile`]).
    pub fn queue_wait_p50(&self) -> Duration {
        self.queue_wait_quantile(0.5)
    }

    /// 90th-percentile queue wait — the overload-tail number the heat
    /// metrics watch per shard.
    pub fn queue_wait_p90(&self) -> Duration {
        self.queue_wait_quantile(0.9)
    }

    /// Mean simulated frame time across rendered frames.
    pub fn mean_sim_frame(&self) -> Duration {
        if self.frames_rendered == 0 {
            Duration::ZERO
        } else {
            self.sim_frame_total / self.frames_rendered as u32
        }
    }
}

impl std::fmt::Display for ServiceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "frames: {} submitted, {} completed ({} rendered, {} cache hits, {:.1}% hit rate)",
            self.frames_submitted,
            self.frames_completed,
            self.frames_rendered,
            self.cache_hits,
            self.cache_hit_rate() * 100.0
        )?;
        if self.frames_failed > 0 || self.admission_rejected > 0 {
            writeln!(
                f,
                "shed/failed: {} rejected at admission, {} frames failed (caught panics)",
                self.admission_rejected, self.frames_failed
            )?;
        }
        writeln!(
            f,
            "batching: {} batches, mean occupancy {:.2} frames/batch",
            self.batches,
            self.batch_occupancy()
        )?;
        writeln!(
            f,
            "plan cache: {} hits, {} misses ({:.1}% hit rate), {} evictions",
            self.plan_cache.hits,
            self.plan_cache.misses,
            self.plan_cache_hit_rate() * 100.0,
            self.plan_cache.evictions
        )?;
        writeln!(
            f,
            "bricks: {} staged, {} reused from shared stores",
            self.brick_stagings, self.brick_reuses
        )?;
        writeln!(
            f,
            "frame cache: {}/{} entries, {} hits, {} misses, {} evictions",
            self.frame_cache.entries,
            self.frame_cache.capacity,
            self.frame_cache.hits,
            self.frame_cache.misses,
            self.frame_cache.evictions
        )?;
        write!(
            f,
            "throughput: {:.1} frames/s wall ({:.3} s elapsed), queue wait mean {:.2} ms \
             / p50 {:.2} ms / p90 {:.2} ms, mean sim frame {:.2} ms",
            self.frames_per_sec(),
            self.wall_elapsed.as_secs_f64(),
            self.mean_queue_wait.as_secs_f64() * 1e3,
            self.queue_wait_p50().as_secs_f64() * 1e3,
            self.queue_wait_p90().as_secs_f64() * 1e3,
            self.mean_sim_frame().as_secs_f64() * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `serve.*` snapshot shaped like a service registry's export: the
    /// given counters and gauges plus one queue-wait sample per popped job.
    fn snap(counters: &[(&str, u64)], gauges: &[(&str, i64)], waits_ns: &[u64]) -> Snapshot {
        let mut s = Snapshot::new();
        for (name, v) in counters {
            s.add_counter(name, *v);
        }
        for (name, v) in gauges {
            s.add_gauge(name, *v);
        }
        let hist = Histogram::new();
        for w in waits_ns {
            hist.record(*w);
        }
        s.add_histogram(names::SERVE_QUEUE_WAIT_NS, &hist.load());
        s.add_counter(names::SERVE_QUEUE_WAIT_TOTAL_NS, waits_ns.iter().sum());
        s
    }

    #[test]
    fn derived_rates() {
        // 8 rendered + 2 worker-side coalesced pops: the wait mean divides
        // by popped jobs, not rendered frames.
        let s = snap(
            &[
                (names::SERVE_FRAMES_SUBMITTED, 10),
                (names::SERVE_FRAMES_COMPLETED, 10),
                (names::SERVE_FRAMES_RENDERED, 8),
                (names::SERVE_FRAME_CACHE_HITS, 2),
                (names::SERVE_FRAME_CACHE_MISSES, 8),
                (names::SERVE_BATCHES, 2),
                (names::SERVE_PLAN_CACHE_HITS, 1),
                (names::SERVE_PLAN_CACHE_MISSES, 1),
            ],
            &[
                (names::SERVE_PLAN_CACHE_ENTRIES, 1),
                (names::SERVE_PLAN_CACHE_CAPACITY, 8),
                (names::SERVE_FRAME_CACHE_ENTRIES, 2),
                (names::SERVE_FRAME_CACHE_CAPACITY, 4),
                (names::SERVE_QUEUE_DEPTH_NORMAL, 3),
            ],
            &[1_000_000; 10],
        );
        let r = ServiceReport::from_snapshot(s, Duration::from_secs(2));
        assert_eq!(r.cache_hit_rate(), 0.2);
        assert_eq!(r.frame_cache.hits, r.cache_hits, "one counter, two views");
        assert_eq!(r.batch_occupancy(), 4.0);
        assert_eq!(r.frames_per_sec(), 5.0);
        assert_eq!(r.jobs_popped, 10);
        assert_eq!(r.mean_queue_wait, Duration::from_nanos(1_000_000));
        assert_eq!(r.plan_cache_hit_rate(), 0.5);
        assert_eq!(r.frame_cache.occupancy(), 0.5);
        assert_eq!(r.queue_depths, [0, 3, 0]);
    }

    #[test]
    fn empty_report_has_no_nans() {
        let r = ServiceReport::from_snapshot(Snapshot::new(), Duration::ZERO);
        assert_eq!(r.cache_hit_rate(), 0.0);
        assert_eq!(r.batch_occupancy(), 0.0);
        assert_eq!(r.frames_per_sec(), 0.0);
        assert_eq!(r.plan_cache_hit_rate(), 0.0);
        assert_eq!(r.mean_sim_frame(), Duration::ZERO);
        assert_eq!(r.queue_wait_p50(), Duration::ZERO);
        assert_eq!(r.mean_queue_wait, Duration::ZERO);
        let text = r.to_string();
        assert!(text.contains("0 submitted"));
    }

    #[test]
    fn merged_sums_and_reweights() {
        let mk = |rendered: u64, popped: usize, wait_ms: u64, wall: u64| {
            let s = snap(
                &[
                    (names::SERVE_FRAMES_RENDERED, rendered),
                    (names::SERVE_FRAMES_COMPLETED, rendered),
                    (names::SERVE_PLAN_CACHE_HITS, 2),
                    (names::SERVE_PLAN_CACHE_MISSES, 1),
                    (names::SERVE_FRAME_CACHE_HITS, 1),
                    (names::SERVE_FRAME_CACHE_MISSES, 2),
                    (names::SERVE_FRAME_CACHE_EVICTIONS, 1),
                ],
                &[
                    (names::SERVE_PLAN_CACHE_ENTRIES, 1),
                    (names::SERVE_PLAN_CACHE_CAPACITY, 8),
                    (names::SERVE_FRAME_CACHE_ENTRIES, 3),
                    (names::SERVE_FRAME_CACHE_CAPACITY, 16),
                ],
                &vec![wait_ms * 1_000_000; popped],
            );
            ServiceReport::from_snapshot(s, Duration::from_secs(wall))
        };
        let a = mk(4, 4, 2, 3);
        let b = mk(8, 12, 6, 5);
        let m = ServiceReport::merged([&a, &b]);
        assert_eq!(m.frames_rendered, 12);
        assert_eq!(m.jobs_popped, 16);
        assert_eq!(m.plan_cache.hits, 4);
        assert_eq!(m.plan_cache.capacity, 16);
        assert_eq!(m.frame_cache.entries, 6);
        assert_eq!(m.frame_cache.capacity, 32);
        assert_eq!(m.frame_cache.evictions, 2);
        assert_eq!(m.wall_elapsed, Duration::from_secs(5), "shards overlap");
        // Weighted mean: (4·2ms + 12·6ms) / 16 = 5ms.
        assert_eq!(m.mean_queue_wait, Duration::from_millis(5));
        // Histogram buckets add: 16 samples total, p50 falls in the 6 ms
        // bucket's range because 12 of 16 samples sit there.
        let waits = m.snapshot.histogram(names::SERVE_QUEUE_WAIT_NS).unwrap();
        assert_eq!(waits.iter().sum::<u64>(), 16);
        assert!(m.queue_wait_p50() >= Duration::from_millis(4));
        // Merging is the snapshot merge: re-deriving from the merged
        // snapshot reproduces the merged report.
        assert_eq!(
            ServiceReport::from_snapshot(m.snapshot.clone(), m.wall_elapsed),
            m
        );
        assert_eq!(ServiceReport::merged([]).jobs_popped, 0);
    }

    #[test]
    fn quantiles_are_thin_views_over_the_obs_histogram() {
        // Bucketing and quantile math live in mgpu-obs (tested there); this
        // checks the report plumbing: the mean, the popped count and the
        // quantile views all read the one `serve.queue_wait_ns` sample set.
        let mut waits = vec![1_000; 9]; // ≈ 1 µs
        waits.push(1_000_000_000); // one 1 s outlier
        let r = ServiceReport::from_snapshot(snap(&[], &[], &waits), Duration::from_secs(1));
        assert_eq!(r.jobs_popped, 10);
        assert_eq!(r.mean_queue_wait, Duration::from_nanos(100_000_900));
        let p50 = r.queue_wait_p50();
        assert!(p50 <= Duration::from_nanos(2048), "median ignores outlier");
        assert!(
            r.queue_wait_quantile(0.99) >= Duration::from_millis(500),
            "tail sees the outlier"
        );
        assert_eq!(
            r.queue_wait_quantile(0.0),
            p50,
            "q=0 clamps to first bucket"
        );
    }
}
