//! `viewer-wire`: two closed-loop users — client threads that each wait for
//! every frame — render through a `NodePool` over two loopback
//! `RenderServer`s with default config. Views are drawn Zipf(`ZIPF_S`) over
//! the three datasets at 32³ × `AZIMUTHS` orbit azimuths, at 256² and 2
//! modeled GPUs. Most requests are frame-cache hits, so the median
//! measures the hit path (FRAME codec, event loop, cache) and the 95th
//! percentile a miss (a render).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mgpu_cluster::ClusterSpec;
use mgpu_net::wire::{decode_frame, encode_frame, encode_request};
use mgpu_net::{Directory, NetSceneRequest, NodePool, NodePoolConfig, RenderServer, ServerConfig};
use mgpu_serve::{Priority, RenderBackend, SceneRequest, ServiceReport};
use mgpu_voldata::{Dataset, Volume};
use mgpu_volren::{render, FramePlan, RenderConfig, Scene, TransferFunction};

use crate::report::Report;
use crate::rng::{digest, Rng, Zipf};
use crate::stats::{mean, median};
use crate::trace::{render_parts, Parts, Plan, Tracer};
use crate::Args;

pub const AZIMUTHS: usize = 48;
/// Zipf exponent of view popularity: with 48 azimuths it puts the
/// frame-cache hit rate near 0.8 for the whole run.
const ZIPF_S: f64 = 1.1;
const USERS: u64 = 2;
const GPUS: u32 = 2;
const BASE: u32 = 32;
const IMAGE: u32 = 256;
const ELEVATION: f32 = 20.0;
/// The hit-rate window inside which p50 and p95 sit in the hit and miss
/// modes; outside it the report flags the run.
const HIT_RATE_WINDOW: (f64, f64) = (0.6, 0.9);

/// A catalogue entry: (dataset index, azimuth index).
pub type Key = (usize, usize);

/// The view catalogue ranked by popularity: rank `r` of the Zipf draw is
/// `catalogue(seed)[r]`, a seeded permutation of every (dataset, azimuth).
pub fn catalogue(seed: u64) -> Vec<Key> {
    let mut keys: Vec<Key> = (0..Dataset::ALL.len())
        .flat_map(|d| (0..AZIMUTHS).map(move |a| (d, a)))
        .collect();
    Rng::fork(seed, 0xca7a).shuffle(&mut keys);
    keys
}

/// User `user`'s request stream: an endless seeded sequence of keys.
pub fn stream(seed: u64, user: u64) -> impl Iterator<Item = Key> {
    let keys = catalogue(seed);
    let zipf = Zipf::new(keys.len(), ZIPF_S);
    let mut rng = Rng::fork(seed, 0x05e7 + user);
    std::iter::repeat_with(move || keys[zipf.sample(&mut rng)])
}

struct World {
    servers: Vec<RenderServer>,
    pool: NodePool,
    spec: ClusterSpec,
    volumes: Vec<Volume>,
    config: RenderConfig,
}

impl World {
    fn request(&self, (d, a): Key, elevation: f32) -> SceneRequest {
        let volume = &self.volumes[d];
        let az = a as f32 * 360.0 / AZIMUTHS as f32;
        let tf = TransferFunction::for_dataset(&volume.meta.name);
        SceneRequest {
            spec: self.spec.clone(),
            volume: volume.clone(),
            scene: Scene::orbit(volume, az, elevation, tf),
            config: self.config.clone(),
            priority: Priority::Normal,
        }
    }

    fn shutdown(self) {
        drop(self.pool);
        for server in self.servers {
            server.shutdown();
        }
    }
}

/// Start both servers, connect the pool, build the volumes and warm every
/// dataset's plan on its node with one render of a view outside the
/// catalogue (so no catalogue frame is cached before the timed phase).
fn setup() -> World {
    let servers: Vec<RenderServer> = (0..2)
        .map(|_| RenderServer::start(ServerConfig::default()).expect("bind a loopback port"))
        .collect();
    let directory = Directory::new(servers.iter().map(RenderServer::addr).collect())
        .expect("two distinct nodes");
    let pool = NodePool::new(directory, NodePoolConfig::default());
    let world = World {
        servers,
        pool,
        spec: ClusterSpec::accelerator_cluster(GPUS),
        volumes: Dataset::ALL.iter().map(|d| d.volume(BASE)).collect(),
        config: RenderConfig::test_size(IMAGE),
    };
    for d in 0..world.volumes.len() {
        let warm = world.request((d, 0), -ELEVATION);
        world.pool.render(warm).expect("warm-up render");
    }
    world
}

/// What the client saw for one request, plus the client-side codec costs
/// measured beside it in traced runs.
struct Delivery {
    /// Request id: the user's stream lane in the high half, the request's
    /// index in that stream in the low half.
    req: u64,
    key: Key,
    digest: Option<u64>,
    ms: f64,
    hit: bool,
    codec: Option<Codec>,
}

struct Codec {
    encode_request_ns: u64,
    encode_frame_ns: u64,
    decode_frame_ns: u64,
    frame_bytes: usize,
}

struct Phase {
    deliveries: Vec<Delivery>,
    wall: Duration,
    /// What the phase added to the servers' counters.
    counters: Counters,
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Run the closed loop for `seconds`; users draw streams `lane..lane + USERS`.
fn run(world: &World, seed: u64, lane: u64, seconds: f64, tracer: Option<&Tracer>) -> Phase {
    let before = Counters::read(world);
    let deliveries = Mutex::new(Vec::new());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for user in 0..USERS {
            let deliveries = &deliveries;
            scope.spawn(move || {
                let mut mine = Vec::new();
                for (i, key) in stream(seed, lane + user).enumerate() {
                    if Instant::now() >= deadline {
                        break;
                    }
                    let request = world.request(key, ELEVATION);
                    let req_id = (lane + user) << 32 | i as u64;
                    // Traced runs time the request encoding the pool does
                    // internally, outside the request's latency window.
                    let encode_request_ns = tracer.map(|_| {
                        let t = Instant::now();
                        let net =
                            NetSceneRequest::from_request(&request).expect("portable request");
                        std::hint::black_box(encode_request(&net));
                        elapsed_ns(t)
                    });
                    let t0 = Instant::now();
                    let result = world.pool.render(request);
                    let end = Instant::now();
                    let ms = (end - t0).as_secs_f64() * 1e3;
                    let mut codec = None;
                    if let (Some(tracer), Ok(frame)) = (tracer, &result) {
                        let root = tracer.record(req_id, None, "request", t0, end);
                        let t = Instant::now();
                        let payload = encode_frame(&frame.image, frame.from_cache, 0);
                        let encode_frame_ns = elapsed_ns(t);
                        let t = Instant::now();
                        std::hint::black_box(decode_frame(&payload).ok());
                        let decode_frame_ns = elapsed_ns(t);
                        tracer.record(req_id, Some(root), "net.codec", t, Instant::now());
                        codec = Some(Codec {
                            encode_request_ns: encode_request_ns.unwrap_or(0),
                            encode_frame_ns,
                            decode_frame_ns,
                            frame_bytes: payload.len(),
                        });
                    }
                    mine.push(Delivery {
                        req: req_id,
                        key,
                        digest: result.as_ref().ok().map(|f| digest(&f.image)),
                        ms,
                        hit: result.as_ref().is_ok_and(|f| f.from_cache),
                        codec,
                    });
                }
                deliveries.lock().expect("deliveries poisoned").extend(mine);
            });
        }
    });
    let wall = start.elapsed();
    Phase {
        deliveries: deliveries.into_inner().expect("deliveries poisoned"),
        wall,
        counters: Counters::read(world).zip(before, u64::saturating_sub),
    }
}

/// Server-side counters: the pool's merged report plus event-loop wakeups.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    completed: u64,
    cache_hits: u64,
    rendered: u64,
    rejected: u64,
    batches: u64,
    batched_frames: u64,
    plan_hits: u64,
    plan_misses: u64,
    wakeups: u64,
}

impl Counters {
    fn read(world: &World) -> Counters {
        let r: ServiceReport = world.pool.report().expect("pool report");
        Counters {
            completed: r.frames_completed,
            cache_hits: r.cache_hits,
            rendered: r.frames_rendered,
            rejected: r.admission_rejected,
            batches: r.batches,
            batched_frames: r.batched_frames,
            plan_hits: r.plan_cache.hits,
            plan_misses: r.plan_cache.misses,
            wakeups: world.servers.iter().map(RenderServer::loop_wakeups).sum(),
        }
    }

    /// Combine field by field: `f(self.x, other.x)` for every counter.
    fn zip(self, other: Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            completed: f(self.completed, other.completed),
            cache_hits: f(self.cache_hits, other.cache_hits),
            rendered: f(self.rendered, other.rendered),
            rejected: f(self.rejected, other.rejected),
            batches: f(self.batches, other.batches),
            batched_frames: f(self.batched_frames, other.batched_frames),
            plan_hits: f(self.plan_hits, other.plan_hits),
            plan_misses: f(self.plan_misses, other.plan_misses),
            wakeups: f(self.wakeups, other.wakeups),
        }
    }
}

impl Phase {
    /// Two phases as one: deliveries and counters add up.
    fn merge(mut self, other: Phase) -> Phase {
        self.deliveries.extend(other.deliveries);
        self.wall += other.wall;
        self.counters = self.counters.zip(other.counters, u64::saturating_add);
        self
    }

    fn frames_per_s(&self) -> f64 {
        self.deliveries.len() as f64 / self.wall.as_secs_f64()
    }

    fn hit_rate(&self) -> f64 {
        self.deliveries.iter().filter(|d| d.hit).count() as f64
            / self.deliveries.len().max(1) as f64
    }
}

/// Check every delivery against a direct render of its key, made after the
/// timed phases (one reference per distinct key).
fn check(world: &World, phases: &[&Phase], refs: &mut BTreeMap<Key, u64>) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for d in phases.iter().flat_map(|p| &p.deliveries) {
        attempted += 1;
        let want = *refs.entry(d.key).or_insert_with(|| {
            let r = world.request(d.key, ELEVATION);
            digest(&render(&r.spec, &r.volume, &r.scene, &r.config).image)
        });
        failed += u64::from(d.digest != Some(want));
    }
    (attempted, failed)
}

fn flag_hit_rate(r: &mut Report, hit_rate: f64, n: usize) {
    let (lo, hi) = HIT_RATE_WINDOW;
    let verdict = if (lo..=hi).contains(&hit_rate) {
        "inside"
    } else {
        "OUTSIDE: p50 and p95 no longer sit in the hit and miss modes"
    };
    r.line(format!(
        "viewer-wire frame-cache hit rate {hit_rate:.3} (base: {n} requests), {verdict} [{lo}, {hi}]"
    ));
}

pub fn run_workload(args: &Args) -> Report {
    let mut r = Report::default();
    let mut setup_s = Vec::new();
    let mut world = None;
    for _ in 0..3 {
        if let Some(old) = world.take() {
            World::shutdown(old);
        }
        let t0 = Instant::now();
        world = Some(setup());
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let world = world.expect("three setups");
    r.line(format!(
        "viewer-wire: setup_s samples {setup_s:.4?}; {USERS} closed-loop users, 2 servers, catalogue {} views, {GPUS} modeled GPUs, {IMAGE}x{IMAGE}",
        Dataset::ALL.len() * AZIMUTHS
    ));
    let mut refs = BTreeMap::new();

    if !args.trace {
        let phase = run(&world, args.seed, 0, args.seconds, None);
        (r.attempted, r.failed) = check(&world, &[&phase], &mut refs);
        let ms: Vec<f64> = phase.deliveries.iter().map(|d| d.ms).collect();
        let lat = r
            .latency("viewer-wire request latency", &ms)
            .expect("at least one request");
        let hits: Vec<f64> = phase
            .deliveries
            .iter()
            .filter(|d| d.hit)
            .map(|d| d.ms)
            .collect();
        let misses: Vec<f64> = phase
            .deliveries
            .iter()
            .filter(|d| !d.hit)
            .map(|d| d.ms)
            .collect();
        r.latency("  of which frame-cache hits", &hits);
        r.latency("  of which misses (rendered)", &misses);
        flag_hit_rate(&mut r, phase.hit_rate(), phase.deliveries.len());
        r.set("frames_per_s", phase.frames_per_s());
        r.set("frame_ms_p50", lat.p50);
        r.set("frame_ms_p95", lat.p95);
        r.set("setup_s", median(&setup_s).expect("three setups"));
        world.shutdown();
        return r;
    }

    // A block that fills the frame caches, then four blocks in ABBA order
    // (untraced, traced, traced, untraced), each drawing fresh streams, so
    // what is left of the cache warming cancels out of the tracing overhead.
    let tracer = Tracer::on();
    let fifth = args.seconds / 5.0;
    let warm = run(&world, args.seed, 0, fifth, None);
    let a1 = run(&world, args.seed, USERS, fifth, None);
    let b1 = run(&world, args.seed, 2 * USERS, fifth, Some(&tracer));
    let b2 = run(&world, args.seed, 3 * USERS, fifth, Some(&tracer));
    let a2 = run(&world, args.seed, 4 * USERS, fifth, None);
    let plain = a1.merge(a2);
    let traced = b1.merge(b2);
    (r.attempted, r.failed) = check(&world, &[&warm, &plain, &traced], &mut refs);
    r.line(format!(
        "viewer-wire traced {:.2} requests/s vs untraced {:.2} requests/s",
        traced.frames_per_s(),
        plain.frames_per_s()
    ));
    r.set(
        "trace_overhead_frac",
        plain.frames_per_s() / traced.frames_per_s() - 1.0,
    );
    flag_hit_rate(&mut r, traced.hit_rate(), traced.deliveries.len());

    // Render parts of each miss: re-render the same request in process
    // through the decomposed pipeline, against a warm plan per dataset (the
    // servers' plan caches keep theirs warm).
    let mut plans: BTreeMap<usize, FramePlan> = BTreeMap::new();
    let mut parts: BTreeMap<Key, Parts> = BTreeMap::new();
    for d in traced.deliveries.iter().filter(|d| !d.hit) {
        if parts.contains_key(&d.key) {
            continue;
        }
        let req = world.request(d.key, ELEVATION);
        let plan = plans
            .entry(d.key.0)
            .or_insert_with(|| FramePlan::prepare(&req.spec, &req.volume, &req.config));
        let (image, p) = render_parts(
            &req.spec,
            Plan::Warm(plan),
            &req.scene,
            &req.config,
            &tracer,
            d.req,
            None,
        );
        r.failed += u64::from(Some(digest(&image)) != refs.get(&d.key).copied());
        parts.insert(d.key, p);
    }
    let miss_parts: Vec<Parts> = traced
        .deliveries
        .iter()
        .filter(|d| !d.hit)
        .filter_map(|d| parts.get(&d.key).cloned())
        .collect();
    if miss_parts.is_empty() {
        r.line("viewer-wire: no misses in the traced phase, so no render parts to report");
    }
    r.render_layers(&miss_parts);
    r.line(format!(
        "viewer-wire render layers are means over the {} misses of the traced phase; hits render nothing",
        miss_parts.len()
    ));

    let ms_of = |ns: u64| ns as f64 / 1e6;
    let mut unattributed = Vec::new();
    let mut total = 0.0;
    let mut encode_request_us = Vec::new();
    let mut encode_frame_ms = Vec::new();
    let mut decode_frame_ms = Vec::new();
    let mut frame_bytes = Vec::new();
    for d in &traced.deliveries {
        let Some(c) = &d.codec else { continue };
        let mut named = ms_of(c.encode_request_ns + c.encode_frame_ns + c.decode_frame_ns);
        if !d.hit {
            if let Some(p) = parts.get(&d.key) {
                named += ms_of(p.stage_ns + p.run_job_ns + p.replay_ns + p.stitch_ns);
            }
        }
        unattributed.push(d.ms - named);
        total += d.ms;
        encode_request_us.push(c.encode_request_ns as f64 / 1e3);
        encode_frame_ms.push(ms_of(c.encode_frame_ns));
        decode_frame_ms.push(ms_of(c.decode_frame_ns));
        frame_bytes.push(c.frame_bytes as f64);
    }
    r.set("serve.unattributed_ms", mean(&unattributed).unwrap_or(0.0));
    r.set(
        "unattributed_frac",
        unattributed.iter().sum::<f64>() / total.max(1e-9),
    );
    r.line(
        "viewer-wire unattributed = request latency minus encode_request, encode_frame, decode_frame \
         and (misses) the re-rendered parts: the wire, event loop, queue, cache lookup and handoff",
    );
    let hits: Vec<f64> = traced
        .deliveries
        .iter()
        .filter(|d| d.hit)
        .map(|d| d.ms)
        .collect();
    if let Some(s) = r.latency("viewer-wire traced frame-cache hits", &hits) {
        r.set("net.hit_ms_p50", s.p50);
    }
    r.set(
        "net.encode_request_us",
        mean(&encode_request_us).unwrap_or(0.0),
    );
    r.set("net.encode_frame_ms", mean(&encode_frame_ms).unwrap_or(0.0));
    r.set("net.decode_frame_ms", mean(&decode_frame_ms).unwrap_or(0.0));
    r.set("net.frame_bytes", mean(&frame_bytes).unwrap_or(0.0));
    let c = traced.counters;
    let n = traced.deliveries.len();
    r.set(
        "net.loop_wakeups_per_request",
        c.wakeups as f64 / n.max(1) as f64,
    );
    r.set(
        "serve.frame_cache_hit_rate",
        c.cache_hits as f64 / c.completed.max(1) as f64,
    );
    r.set(
        "serve.plan_cache_hit_rate",
        c.plan_hits as f64 / (c.plan_hits + c.plan_misses).max(1) as f64,
    );
    r.set(
        "serve.batch_occupancy",
        c.batched_frames as f64 / c.batches.max(1) as f64,
    );
    r.set("serve.frames_rendered", c.rendered as f64);
    r.set("serve.admission_rejected", c.rejected as f64);
    r.line(format!(
        "viewer-wire servers: {} frames completed, {} cache hits, {} rendered in {} batches, {} rejected (base: {n} requests)",
        c.completed, c.cache_hits, c.rendered, c.batches, c.rejected
    ));
    let tsv =
        std::path::Path::new(crate::SPAN_DIR).join(format!("viewer-wire-seed{}.tsv", args.seed));
    match tracer.write_tsv(&tsv) {
        Ok(()) => r.line(format!(
            "spans: {} written to {}",
            tracer.spans().len(),
            tsv.display()
        )),
        Err(e) => r.line(format!("spans: could not write {}: {e}", tsv.display())),
    }
    world.shutdown();
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let take = |seed, user| stream(seed, user).take(500).collect::<Vec<Key>>();
        assert_eq!(take(5, 0), take(5, 0));
        assert_ne!(take(5, 0), take(6, 0));
        assert_ne!(take(5, 0), take(5, 1), "users draw independent streams");
        // Zipf(1): the most popular view is requested far more than the
        // median one.
        let keys = catalogue(5);
        let draws = take(5, 0);
        let top = draws.iter().filter(|k| **k == keys[0]).count();
        let mid = draws.iter().filter(|k| **k == keys[keys.len() / 2]).count();
        assert!(top > 5 * mid.max(1), "top {top} mid {mid}");
    }
}
