//! Property: for ANY mix of scenes, worker counts, batch limits, cache
//! sizes, plan-cache sizes and admission bounds — i.e. any concurrent
//! interleaving the service can produce — every frame delivered by the
//! service is bit-identical to a sequential direct `render` call with the
//! same request, and the service's accounting agrees with itself: the
//! typed report equals the registry snapshot it is read from, and per-shard
//! heat sums to the merged report.

use proptest::prelude::*;

use mgpu_cluster::ClusterSpec;
use mgpu_obs::{names, Snapshot};
use mgpu_serve::{
    Priority, QueueBounds, RenderBackend, RenderService, SceneRequest, ServiceConfig,
    ServiceReport, ShardedService,
};
use mgpu_voldata::Dataset;
use mgpu_volren::camera::Scene;
use mgpu_volren::renderer::render;
use mgpu_volren::{RenderConfig, TransferFunction};

/// Every counter the report exposes, beside the registry name it is
/// read from.
fn counters_by_name(r: &ServiceReport) -> [(&'static str, u64); 15] {
    [
        (names::SERVE_FRAMES_SUBMITTED, r.frames_submitted),
        (names::SERVE_FRAMES_COMPLETED, r.frames_completed),
        (names::SERVE_FRAMES_RENDERED, r.frames_rendered),
        (names::SERVE_FRAMES_FAILED, r.frames_failed),
        (names::SERVE_FRAME_CACHE_HITS, r.cache_hits),
        (names::SERVE_FRAME_CACHE_MISSES, r.frame_cache.misses),
        (names::SERVE_FRAME_CACHE_EVICTIONS, r.frame_cache.evictions),
        (names::SERVE_PLAN_CACHE_HITS, r.plan_cache.hits),
        (names::SERVE_PLAN_CACHE_MISSES, r.plan_cache.misses),
        (names::SERVE_PLAN_CACHE_EVICTIONS, r.plan_cache.evictions),
        (names::SERVE_ADMISSION_REJECTED, r.admission_rejected),
        (names::SERVE_BATCHES, r.batches),
        (names::SERVE_BRICK_STAGINGS, r.brick_stagings),
        (names::SERVE_BRICK_REUSES, r.brick_reuses),
        (
            names::SERVE_SIM_FRAME_TOTAL_NS,
            r.sim_frame_total.as_nanos() as u64,
        ),
    ]
}

fn priority_of(bits: u32) -> Priority {
    match bits {
        0 => Priority::Batch,
        1 => Priority::Normal,
        _ => Priority::Interactive,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn any_interleaving_matches_sequential_direct_renders(
        azimuth_steps in prop::collection::vec(0u32..12, 3..9),
        workers in 1usize..4,
        max_batch in 1usize..5,
        cache_frames in 0usize..3,
        plan_cache_plans in 0usize..3,
        queue_bound in 1usize..6,
        priority_bits in prop::collection::vec(0u32..3, 3..9),
    ) {
        let spec = ClusterSpec::accelerator_cluster(2);
        let cfg = RenderConfig::test_size(24);
        let volume = Dataset::Skull.volume(16);
        let scene_of = |step: u32| {
            Scene::orbit(&volume, step as f32 * 30.0, 15.0, TransferFunction::bone())
        };

        // Sequential ground truth, one direct render per request (duplicate
        // azimuths included: the service may serve them from cache, direct
        // renders recompute them — outputs must match either way).
        let direct: Vec<_> = azimuth_steps
            .iter()
            .map(|s| render(&spec, &volume, &scene_of(*s), &cfg).image)
            .collect();

        let service = RenderService::start(ServiceConfig {
            workers,
            max_batch,
            cache_frames,
            plan_cache_plans,
            // A tight bound exercises the blocking submit path: the test
            // thread stalls at the bound until the workers free capacity.
            queue_bounds: QueueBounds {
                batch: queue_bound,
                normal: queue_bound + 1,
                interactive: queue_bound + 2,
            },
            start_paused: false,
        });
        let session = service.session(spec.clone(), volume.clone(), cfg.clone());
        let tickets: Vec<_> = azimuth_steps
            .iter()
            .zip(priority_bits.iter().cycle())
            .map(|(s, p)| session.request_with_priority(scene_of(*s), priority_of(*p)))
            .collect();

        for (i, ticket) in tickets.into_iter().enumerate() {
            let frame = ticket.wait();
            prop_assert_eq!(
                &*frame.image,
                &direct[i],
                "frame {} (azimuth step {}) diverged under workers={} max_batch={} cache={} plans={} bound={}",
                i, azimuth_steps[i], workers, max_batch, cache_frames, plan_cache_plans, queue_bound
            );
        }
        // Every ticket has resolved, so the service is quiescent: the
        // registry snapshot and the typed report must tell the same story.
        let snapshot: Snapshot = service.snapshot();
        let report = service.shutdown();
        prop_assert!(
            snapshot.counters().iter().all(|(name, _)| name.starts_with("serve.")),
            "a service registry holds serve.* metrics only"
        );
        for (name, typed) in counters_by_name(&report) {
            prop_assert_eq!(snapshot.counter(name).unwrap_or(0), typed, "{}", name);
        }
        let waits = snapshot.histogram(names::SERVE_QUEUE_WAIT_NS).expect("registered");
        prop_assert_eq!(waits.iter().sum::<u64>(), report.jobs_popped);
        prop_assert_eq!(report.frames_completed, report.cache_hits + report.frames_rendered);
        prop_assert_eq!(report.frames_completed, azimuth_steps.len() as u64);
        prop_assert_eq!(report.frames_failed, 0);
        prop_assert_eq!(report.admission_rejected, 0, "blocking submit never sheds");

        // The same views over two shards, on two cluster shapes so both
        // batch keys can land on different shards: frames stay
        // bit-identical, and each shard counts only its own work.
        let spec_of = |step: u32| ClusterSpec::accelerator_cluster(1 + step % 2);
        let sharded = ShardedService::start(2, ServiceConfig {
            workers,
            max_batch,
            cache_frames,
            plan_cache_plans,
            queue_bounds: QueueBounds {
                batch: queue_bound,
                normal: queue_bound + 1,
                interactive: queue_bound + 2,
            },
            start_paused: false,
        });
        let tickets: Vec<_> = azimuth_steps
            .iter()
            .zip(priority_bits.iter().cycle())
            .map(|(s, p)| {
                sharded.submit(SceneRequest {
                    spec: spec_of(*s),
                    volume: volume.clone(),
                    scene: scene_of(*s),
                    config: cfg.clone(),
                    priority: priority_of(*p),
                })
            })
            .collect();
        for (s, ticket) in azimuth_steps.iter().zip(tickets) {
            let direct = render(&spec_of(*s), &volume, &scene_of(*s), &cfg).image;
            prop_assert_eq!(&*ticket.wait().image, &direct);
        }
        let heat = sharded.heat();
        let merged = sharded.shutdown();
        prop_assert_eq!(
            heat.iter().map(|h| h.report.frames_completed).sum::<u64>(),
            merged.frames_completed
        );
        prop_assert_eq!(merged.frames_completed, azimuth_steps.len() as u64);
    }
}
