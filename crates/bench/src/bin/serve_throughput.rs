//! Render-service throughput experiment, in three parts:
//!
//! 1. **Mode sweep** — concurrent clients × queued scenes, comparing the
//!    full service (plan cache + batching + frame cache) against batching
//!    alone and the bare per-frame path on the same workload. Reports wall
//!    frames/sec, batch occupancy, cache hit rate and brick stagings.
//! 2. **Cross-batch plan reuse** — repeated same-volume waves (each wave a
//!    separate batch): with the plan cache on, later waves reuse the warm
//!    brick store instead of re-staging, and the report's plan-cache hit
//!    rate shows it.
//! 3. **Shard sweep** — the same many-volume workload through a
//!    [`ShardedService`] with 1..N shards: rendezvous routing spreads
//!    distinct volumes over independent queues/plan caches.
//!
//!     cargo run --release -p mgpu-bench --bin serve_throughput [-- --smoke] [--shards N]

use mgpu_bench::JsonObject;
use mgpu_cluster::ClusterSpec;
use mgpu_serve::{RenderBackend, RenderService, ServiceConfig, ServiceReport, ShardedService};
use mgpu_voldata::Dataset;
use mgpu_volren::{RenderConfig, TransferFunction};

struct Workload {
    clients: usize,
    frames_per_client: usize,
    /// Distinct azimuths per client; fewer than `frames_per_client` means
    /// repeated views that exercise the frame cache.
    distinct_views: usize,
}

fn run(w: &Workload, volume_size: u32, image: u32, service_cfg: ServiceConfig) -> ServiceReport {
    let service = RenderService::start(ServiceConfig {
        start_paused: true, // enqueue the full workload, then release
        ..service_cfg
    });
    let cfg = RenderConfig::test_size(image);
    // Clients alternate over two datasets: same-volume batching happens
    // across clients, not only within one.
    let volumes = [
        Dataset::Skull.volume(volume_size),
        Dataset::Supernova.volume(volume_size),
    ];
    let transfers = [TransferFunction::bone(), TransferFunction::fire()];

    let sessions: Vec<_> = (0..w.clients)
        .map(|c| {
            service.session(
                ClusterSpec::accelerator_cluster(2),
                volumes[c % volumes.len()].clone(),
                cfg.clone(),
            )
        })
        .collect();

    let mut tickets = Vec::new();
    for f in 0..w.frames_per_client {
        for (c, session) in sessions.iter().enumerate() {
            let view = f % w.distinct_views;
            let az = view as f32 * (360.0 / w.distinct_views as f32);
            tickets.push(session.request_orbit(az, 20.0, transfers[c % transfers.len()].clone()));
        }
    }
    service.resume();
    for t in tickets {
        t.wait();
    }
    service.shutdown()
}

fn print_row(clients: usize, mode: &str, r: &ServiceReport) {
    println!(
        "{:>7} {:>7} {:>9.2} {:>7.2} {:>8.1}% {:>8.1}% {:>9} {:>9} {:>9}",
        clients,
        mode,
        r.frames_per_sec(),
        r.batch_occupancy(),
        r.cache_hit_rate() * 100.0,
        r.plan_cache_hit_rate() * 100.0,
        r.brick_stagings,
        r.brick_reuses,
        r.frames_completed
    );
}

/// Part 2: repeated same-volume waves, each wave its own batch. The plan
/// cache carries the warm store across waves; the baseline re-stages.
fn cross_batch_reuse(volume_size: u32, image: u32, waves: usize, frames_per_wave: usize) {
    let run_waves = |plan_cache_plans: usize| -> ServiceReport {
        let service = RenderService::start(ServiceConfig {
            workers: 1,
            max_batch: frames_per_wave,
            cache_frames: 0, // isolate plan reuse from frame caching
            plan_cache_plans,
            ..ServiceConfig::default()
        });
        let volume = Dataset::Skull.volume(volume_size);
        let session = service.session(
            ClusterSpec::accelerator_cluster(2),
            volume.clone(),
            RenderConfig::test_size(image),
        );
        for wave in 0..waves {
            let tickets: Vec<_> = (0..frames_per_wave)
                .map(|f| {
                    let az = (wave * frames_per_wave + f) as f32 * 17.0;
                    session.request_orbit(az, 20.0, TransferFunction::bone())
                })
                .collect();
            // Waiting out the wave forces a batch boundary before the next.
            for t in tickets {
                t.wait();
            }
        }
        service.shutdown()
    };

    let warm = run_waves(8);
    let cold = run_waves(0);
    println!("\ncross-batch plan reuse — {waves} waves × {frames_per_wave} frames, same volume:");
    println!(
        "  plan cache ON : {:>4} stagings, {:>4} reuses, plan hit rate {:>5.1}% ({} batches)",
        warm.brick_stagings,
        warm.brick_reuses,
        warm.plan_cache_hit_rate() * 100.0,
        warm.batches
    );
    println!(
        "  plan cache OFF: {:>4} stagings, {:>4} reuses, plan hit rate {:>5.1}% ({} batches)",
        cold.brick_stagings,
        cold.brick_reuses,
        cold.plan_cache_hit_rate() * 100.0,
        cold.batches
    );
    assert!(
        warm.brick_stagings < cold.brick_stagings,
        "plan cache must cut cross-batch stagings ({} vs {})",
        warm.brick_stagings,
        cold.brick_stagings
    );
    assert!(
        warm.brick_reuses > cold.brick_reuses,
        "plan cache must raise staging reuse ({} vs {})",
        warm.brick_reuses,
        cold.brick_reuses
    );
    assert!(warm.plan_cache_hit_rate() > 0.0);
}

/// Part 3: many distinct volumes through 1..max_shards shards.
fn shard_sweep(
    volume_size: u32,
    image: u32,
    volumes: usize,
    frames_each: usize,
    max_shards: usize,
) {
    println!("\nshard sweep — {volumes} distinct volumes × {frames_each} frames:");
    let mut shard_counts = vec![1usize];
    let mut s = 2;
    while s <= max_shards {
        shard_counts.push(s);
        s *= 2;
    }
    for &shards in &shard_counts {
        let sharded = ShardedService::start(
            shards,
            ServiceConfig {
                workers: 2,
                start_paused: true,
                ..ServiceConfig::default()
            },
        );
        let cfg = RenderConfig::test_size(image);
        let datasets = [Dataset::Skull, Dataset::Supernova, Dataset::Plume];
        let sessions: Vec<_> = (0..volumes)
            .map(|v| {
                // Distinct (dataset, cluster) pairs: different batch keys,
                // so rendezvous routing has something to spread.
                let base = datasets[v % datasets.len()].volume(volume_size);
                sharded.session(
                    ClusterSpec::accelerator_cluster(1 + (v % 2) as u32),
                    base,
                    cfg.clone(),
                )
            })
            .collect();
        let mut tickets = Vec::new();
        for f in 0..frames_each {
            for session in &sessions {
                tickets.push(session.request_orbit(
                    f as f32 * 31.0,
                    10.0,
                    TransferFunction::bone(),
                ));
            }
        }
        sharded.resume();
        for t in tickets {
            t.wait();
        }
        let per_shard: Vec<u64> = sharded
            .shard_reports()
            .iter()
            .map(|r| r.frames_completed)
            .collect();
        let merged = sharded.shutdown();
        println!(
            "  {shards} shard(s): {:>8.2} frames/s, per-shard frames {:?}, mean queue wait {:.2} ms",
            merged.frames_per_sec(),
            per_shard,
            merged.mean_queue_wait.as_secs_f64() * 1e3
        );
        assert_eq!(merged.frames_completed as usize, volumes * frames_each);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let max_shards = args
        .iter()
        .position(|a| a == "--shards")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(if smoke { 2 } else { 4 });
    let (volume_size, image, client_sweep, frames): (u32, u32, &[usize], usize) = if smoke {
        (16, 64, &[2], 6)
    } else {
        (32, 128, &[1, 2, 4], 8)
    };

    println!(
        "render-service throughput — {volume_size}^3 volumes, {image}^2 frames, \
         {frames} frames/client (2 repeated views each)\n"
    );
    println!(
        "{:>7} {:>7} {:>9} {:>7} {:>9} {:>8} {:>9} {:>9} {:>9}",
        "clients", "mode", "frames/s", "occ", "hit rate", "plan", "stagings", "reuses", "frames"
    );

    let mut smoke_summary: Option<(usize, ServiceReport)> = None;
    for &clients in client_sweep {
        let w = Workload {
            clients,
            frames_per_client: frames,
            distinct_views: frames - 2, // two repeats per client → cache hits
        };
        let svc = |max_batch: usize, cache_frames: usize, plans: usize| ServiceConfig {
            workers: 2,
            max_batch,
            cache_frames,
            plan_cache_plans: plans,
            start_paused: true,
            ..ServiceConfig::default()
        };
        // Four modes so each effect is attributable: plan cache + batching +
        // frame cache, batching + frame cache, batching alone, and the bare
        // per-frame path.
        let full = run(&w, volume_size, image, svc(8, 256, 8));
        let no_plans = run(&w, volume_size, image, svc(8, 256, 0));
        let batch_only = run(&w, volume_size, image, svc(8, 0, 0));
        let bare = run(&w, volume_size, image, svc(1, 0, 0));
        for (mode, r) in [
            ("p+b+c", &full),
            ("b+c", &no_plans),
            ("batch", &batch_only),
            ("none", &bare),
        ] {
            print_row(clients, mode, r);
        }
        // Cache disabled in both operands: this is batching's effect alone.
        assert!(
            batch_only.brick_stagings < bare.brick_stagings,
            "batching must reduce stagings ({} vs {})",
            batch_only.brick_stagings,
            bare.brick_stagings
        );
        // Plan cache on top of batching+cache never stages more.
        assert!(
            full.brick_stagings <= no_plans.brick_stagings,
            "plan cache must not add stagings ({} vs {})",
            full.brick_stagings,
            no_plans.brick_stagings
        );
        if smoke {
            // `BENCH_serve.json` records the full-featured mode at the
            // widest client count; its `frames_per_sec` is the gated one.
            smoke_summary = Some((clients, full));
        }
    }
    if let Some((clients, report)) = &smoke_summary {
        JsonObject::new()
            .str("bench", "serve_throughput")
            .int("clients", *clients as u64)
            .int("frames", report.frames_completed)
            .num("frames_per_sec", report.frames_per_sec())
            .num("cache_hit_rate", report.cache_hit_rate())
            .num("plan_cache_hit_rate", report.plan_cache_hit_rate())
            .num("batch_occupancy", report.batch_occupancy())
            .num(
                "p50_queue_wait_ms",
                report.queue_wait_p50().as_secs_f64() * 1e3,
            )
            .num(
                "mean_queue_wait_ms",
                report.mean_queue_wait.as_secs_f64() * 1e3,
            )
            .int("brick_stagings", report.brick_stagings)
            .write("BENCH_serve.json")
            .expect("write BENCH_serve.json");
    }
    println!(
        "\nbatched mode stages each brick once per batch (shared store); the plan \
         cache extends that across batches (warm store, 'plan' hit-rate column); \
         unbatched mode re-stages per frame — the stagings column is the paper's \
         disk/host traffic the service front-end removes"
    );

    let (waves, per_wave) = if smoke { (3, 2) } else { (4, 4) };
    cross_batch_reuse(volume_size, image, waves, per_wave);

    let (nvol, each) = if smoke { (4, 2) } else { (8, 4) };
    shard_sweep(volume_size, image, nvol, each, max_shards);
}
