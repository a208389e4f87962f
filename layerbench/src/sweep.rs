//! `sweep-tiny`: one caller bulk-submits a seeded `Priority::Batch` sweep
//! of distinct 64² views of four 16³/32³ volumes (2 modeled GPUs) to an
//! in-process `RenderService` with default config, then waits for every
//! ticket. Frames take 1–2 ms, so fixed per-frame costs dominate: job
//! spawn, channels and sort, DES replay, batching and plan-cache lookups.
//! The frame cache only ever takes inserts here.
//!
//! Each repetition of the sweep runs on a fresh service, started and shut
//! down outside the timed interval, so no service state carries from one
//! repetition to the next.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mgpu_cluster::ClusterSpec;
use mgpu_serve::{Priority, RenderService, SceneRequest, ServiceConfig, ServiceReport};
use mgpu_voldata::Dataset;
use mgpu_volren::{render, FramePlan, RenderConfig, Scene, TransferFunction};

use crate::report::Report;
use crate::rng::{digest, Rng};
use crate::stats::{mean, median, quantile};
use crate::trace::{render_parts, Parts, Plan, Tracer};
use crate::Args;

const VOLUMES: [(Dataset, u32); 4] = [
    (Dataset::Skull, 16),
    (Dataset::Supernova, 16),
    (Dataset::Skull, 32),
    (Dataset::Supernova, 32),
];
const VIEWS_PER_VOLUME: usize = 100;
const GPUS: u32 = 2;
const IMAGE: u32 = 64;

/// The seeded sweep: per volume, `VIEWS_PER_VOLUME` distinct orbit views
/// (evenly spaced azimuths from a seeded start, seeded elevations),
/// submitted with the volumes interleaved, so every seed forms batches the
/// same way. Returns `(volume index, request)`.
pub fn sweep(seed: u64) -> Vec<(usize, SceneRequest)> {
    let mut rng = Rng::fork(seed, 0x5ee9);
    let spec = ClusterSpec::accelerator_cluster(GPUS);
    let per_volume: Vec<Vec<SceneRequest>> = VOLUMES
        .iter()
        .map(|&(dataset, base)| {
            let volume = dataset.volume(base);
            let start = rng.range(0.0, 360.0);
            (0..VIEWS_PER_VOLUME)
                .map(|j| {
                    let az = (start + j as f32 * 360.0 / VIEWS_PER_VOLUME as f32) % 360.0;
                    let el = rng.range(-40.0, 40.0);
                    let tf = TransferFunction::for_dataset(dataset.name());
                    SceneRequest {
                        spec: spec.clone(),
                        volume: volume.clone(),
                        scene: Scene::orbit(&volume, az, el, tf),
                        config: RenderConfig::test_size(IMAGE),
                        priority: Priority::Batch,
                    }
                })
                .collect()
        })
        .collect();
    (0..VIEWS_PER_VOLUME)
        .flat_map(|j| {
            per_volume
                .iter()
                .enumerate()
                .map(move |(v, reqs)| (v, reqs[j].clone()))
        })
        .collect()
}

struct Repetition {
    wall: Duration,
    traced: bool,
    /// Per request (sweep order): digest and submit-to-delivery latency, or
    /// `None` when the ticket failed.
    delivered: Vec<Option<(u64, f64)>>,
    report: ServiceReport,
}

impl Repetition {
    fn latencies(&self) -> Vec<f64> {
        self.delivered.iter().flatten().map(|(_, ms)| *ms).collect()
    }
}

/// One sweep on a fresh service: submit everything, then wait in order.
/// With a tracer, each request's submit-to-delivery interval is a span.
fn repetition(requests: &[(usize, SceneRequest)], tracer: Option<&Tracer>) -> Repetition {
    let service = RenderService::start(ServiceConfig::default());
    let batch: Vec<SceneRequest> = requests.iter().map(|(_, r)| r.clone()).collect();
    let start = Instant::now();
    let tickets: Vec<_> = batch
        .into_iter()
        .map(|req| (Instant::now(), service.submit(req)))
        .collect();
    let mut delivered = Vec::with_capacity(tickets.len());
    for (i, (t0, ticket)) in tickets.into_iter().enumerate() {
        let result = ticket.wait_result();
        let end = Instant::now();
        if let Some(tracer) = tracer {
            // Request `i` of every repetition is the same request: its spans,
            // and those of its in-process re-render, share the id `i`.
            tracer.record(i as u64, None, "serve.submit_wait", t0, end);
        }
        delivered.push(
            result
                .ok()
                .map(|f| (digest(&f.image), (end - t0).as_secs_f64() * 1e3)),
        );
    }
    let wall = start.elapsed();
    Repetition {
        wall,
        traced: tracer.is_some(),
        delivered,
        report: service.shutdown(),
    }
}

struct Phase {
    reps: Vec<Repetition>,
}

impl Phase {
    /// Repeat the sweep until `seconds` of sweeping are measured. With a
    /// tracer, repetitions alternate untraced and traced in ABBA order so
    /// slow drift cancels out of the tracing overhead.
    fn run(requests: &[(usize, SceneRequest)], seconds: f64, tracer: Option<&Tracer>) -> Phase {
        let mut reps: Vec<Repetition> = Vec::new();
        let mut measured = 0.0;
        while measured < seconds || reps.len() < if tracer.is_some() { 4 } else { 1 } {
            let k = reps.len();
            let traced = tracer.filter(|_| matches!(k % 4, 1 | 2));
            let rep = repetition(requests, traced);
            measured += rep.wall.as_secs_f64();
            reps.push(rep);
        }
        Phase { reps }
    }

    /// Median over repetitions of each sweep's frames per second: a sweep
    /// slowed by a burst of outside load moves the median little.
    fn frames_per_s(&self, traced: bool) -> f64 {
        let per_rep: Vec<f64> = self
            .reps
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.delivered.len() as f64 / r.wall.as_secs_f64())
            .collect();
        median(&per_rep).unwrap_or(0.0)
    }

    /// Median over repetitions of each sweep's latency quantile `q`.
    fn latency_quantile(&self, q: f64) -> f64 {
        let per_rep: Vec<f64> = self
            .reps
            .iter()
            .filter_map(|r| quantile(&r.latencies(), q))
            .collect();
        median(&per_rep).unwrap_or(0.0)
    }

    fn report(&self, traced: bool) -> ServiceReport {
        ServiceReport::merged(
            self.reps
                .iter()
                .filter(|r| r.traced == traced)
                .map(|r| &r.report),
        )
    }
}

fn setup(seed: u64) -> (RenderService, Vec<(usize, SceneRequest)>) {
    let service = RenderService::start(ServiceConfig::default());
    let requests = sweep(seed);
    // Warm-up: one full batch per volume, so first-use costs (plans, thread
    // and allocator start-up) land here rather than in the first sweep.
    let max_batch = ServiceConfig::default().max_batch;
    let mut seen = [0; VOLUMES.len()];
    let tickets: Vec<_> = requests
        .iter()
        .filter(|(v, _)| {
            seen[*v] += 1;
            seen[*v] <= max_batch
        })
        .map(|(_, r)| service.submit(r.clone()))
        .collect();
    for t in tickets {
        std::hint::black_box(t.wait_result().ok());
    }
    (service, requests)
}

/// Direct-render reference digests, one per request, made after timing.
fn references(requests: &[(usize, SceneRequest)]) -> Vec<u64> {
    requests
        .iter()
        .map(|(_, r)| digest(&render(&r.spec, &r.volume, &r.scene, &r.config).image))
        .collect()
}

fn check(phase: &Phase, refs: &[u64]) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for rep in &phase.reps {
        for (i, got) in rep.delivered.iter().enumerate() {
            attempted += 1;
            failed += u64::from(got.map(|(d, _)| d) != Some(refs[i]));
        }
    }
    (attempted, failed)
}

pub fn run_workload(args: &Args) -> Report {
    let mut r = Report::default();
    let mut setup_s = Vec::new();
    let mut requests = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let (service, reqs) = setup(args.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        service.shutdown();
        requests = reqs;
    }
    r.line(format!(
        "sweep-tiny: setup_s samples {setup_s:.4?}; {} requests per sweep over {} volumes, {GPUS} modeled GPUs, {IMAGE}x{IMAGE}, fresh service per sweep",
        requests.len(),
        VOLUMES.len()
    ));

    if !args.trace {
        let phase = Phase::run(&requests, args.seconds, None);
        let refs = references(&requests);
        (r.attempted, r.failed) = check(&phase, &refs);
        let pooled: Vec<f64> = phase.reps.iter().flat_map(Repetition::latencies).collect();
        r.latency(
            "sweep-tiny submit-to-delivery latency, all sweeps pooled",
            &pooled,
        );
        let (p50, p95) = (phase.latency_quantile(0.5), phase.latency_quantile(0.95));
        r.line(format!(
            "sweep-tiny per-sweep latency quantiles, median over {} sweeps of {} requests: p50 {p50:.3} ms, p95 {p95:.3} ms",
            phase.reps.len(),
            requests.len()
        ));
        r.set("frames_per_s", phase.frames_per_s(false));
        r.set("frame_ms_p50", p50);
        r.set("frame_ms_p95", p95);
        r.set("setup_s", median(&setup_s).expect("five setups"));
        let walls: Vec<f64> = phase.reps.iter().map(|p| p.wall.as_secs_f64()).collect();
        let third = (walls.len() / 3).max(1);
        let first = median(&walls[..third]).unwrap_or(0.0);
        let last = median(&walls[walls.len() - third..]).unwrap_or(0.0);
        r.line(format!(
            "sweep-tiny drift: {} sweeps, median wall of first third {first:.4} s vs last third {last:.4} s (ratio {:.3})",
            walls.len(),
            last / first
        ));
        let rep = phase.report(false);
        r.line(format!(
            "sweep-tiny service: batch occupancy {:.3}, plan-cache hit rate {:.3} (base: {} batches), frame-cache hits {}",
            rep.batch_occupancy(),
            rep.plan_cache_hit_rate(),
            rep.batches,
            rep.cache_hits
        ));
        return r;
    }

    let tracer = Tracer::on();
    let phase = Phase::run(&requests, args.seconds, Some(&tracer));
    let refs = references(&requests);
    (r.attempted, r.failed) = check(&phase, &refs);
    let (fps_plain, fps_traced) = (phase.frames_per_s(false), phase.frames_per_s(true));
    r.line(format!(
        "sweep-tiny traced {fps_traced:.2} frames/s vs untraced {fps_plain:.2} frames/s (alternating sweeps, ABBA order)"
    ));
    r.set("trace_overhead_frac", fps_plain / fps_traced - 1.0);

    // Render parts of each served request: re-render it in process through
    // the decomposed pipeline against a warm plan per volume, as the
    // service's plan cache keeps them.
    let mut plans: BTreeMap<usize, FramePlan> = BTreeMap::new();
    let mut parts: Vec<Parts> = Vec::with_capacity(requests.len());
    for (i, (v, req)) in requests.iter().enumerate() {
        let plan = plans
            .entry(*v)
            .or_insert_with(|| FramePlan::prepare(&req.spec, &req.volume, &req.config));
        let (image, p) = render_parts(
            &req.spec,
            Plan::Warm(plan),
            &req.scene,
            &req.config,
            &tracer,
            i as u64,
            None,
        );
        r.failed += u64::from(digest(&image) != refs[i]);
        parts.push(p);
    }
    r.render_layers(&parts);
    let mut unattributed = Vec::new();
    let mut total = 0.0;
    for rep in phase.reps.iter().filter(|r| r.traced) {
        for (i, got) in rep.delivered.iter().enumerate() {
            if let Some((_, ms)) = got {
                let p = &parts[i];
                let named = (p.stage_ns + p.run_job_ns + p.replay_ns + p.stitch_ns) as f64 / 1e6;
                unattributed.push(ms - named);
                total += ms;
            }
        }
    }
    r.set("serve.unattributed_ms", mean(&unattributed).unwrap_or(0.0));
    r.set(
        "unattributed_frac",
        unattributed.iter().sum::<f64>() / total.max(1e-9),
    );
    r.line(
        "sweep-tiny unattributed = submit-to-delivery latency minus the request's own render parts: \
         mostly queue wait behind the rest of the bulk-submitted sweep",
    );
    let rep = phase.report(true);
    r.set("serve.frame_cache_hit_rate", rep.cache_hit_rate());
    r.set("serve.plan_cache_hit_rate", rep.plan_cache_hit_rate());
    r.set("serve.batch_occupancy", rep.batch_occupancy());
    r.set("serve.frames_rendered", rep.frames_rendered as f64);
    r.set("serve.admission_rejected", rep.admission_rejected as f64);
    r.line(format!(
        "sweep-tiny service: {} frames rendered of {} submitted, {} batches, {} plan lookups, {} rejected",
        rep.frames_rendered,
        rep.frames_submitted,
        rep.batches,
        rep.plan_cache.hits + rep.plan_cache.misses,
        rep.admission_rejected
    ));
    r.na(
        &[
            "net.hit_ms_p50",
            "net.encode_frame_ms",
            "net.decode_frame_ms",
            "net.frame_bytes",
            "net.encode_request_us",
            "net.loop_wakeups_per_request",
        ],
        "in-process service: no wire code runs",
    );
    let tsv =
        std::path::Path::new(crate::SPAN_DIR).join(format!("sweep-tiny-seed{}.tsv", args.seed));
    match tracer.write_tsv(&tsv) {
        Ok(()) => r.line(format!(
            "spans: {} written to {}",
            tracer.spans().len(),
            tsv.display()
        )),
        Err(e) => r.line(format!("spans: could not write {}: {e}", tsv.display())),
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(seed: u64) -> Vec<(usize, String)> {
        sweep(seed)
            .iter()
            .map(|(v, r)| (*v, format!("{:?}", r.scene.camera.raw_parts())))
            .collect()
    }

    #[test]
    fn same_seed_same_sweep_different_seed_different_sweep() {
        let a = fingerprint(11);
        assert_eq!(a, fingerprint(11));
        assert_ne!(a, fingerprint(12));
        assert_eq!(a.len(), VOLUMES.len() * VIEWS_PER_VOLUME);
        // Every view is distinct, so the frame cache never hits.
        let mut views = a.clone();
        views.sort();
        views.dedup();
        assert_eq!(views.len(), a.len());
    }
}
