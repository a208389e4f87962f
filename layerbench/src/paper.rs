//! `paper-512`: one caller renders a seeded orbit of 512² frames through
//! direct `mgpu_volren::render` on a 4-GPU modeled cluster, cycling skull
//! 128³, supernova 128³ and the out-of-core plume (64×64×256, staged from
//! disk under a host cache half its size). Every frame prepares its own plan
//! and stages cold bricks, as in the paper's Figure 3. No service or wire
//! code runs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mgpu_cluster::ClusterSpec;
use mgpu_net::wire::{decode_frame, encode_frame};
use mgpu_voldata::{Dataset, Volume};
use mgpu_volren::{
    render, render_planned, FramePlan, RenderConfig, Residency, Scene, TransferFunction,
};

use crate::report::Report;
use crate::rng::{digest, Rng};
use crate::stats::{median, quantile};
use crate::trace::{render_parts, self_time_ns, Parts, Plan, Span, Tracer};
use crate::Args;

const DATASETS: [(Dataset, u32); 3] = [
    (Dataset::Skull, 128),
    (Dataset::Supernova, 128),
    (Dataset::Plume, 64),
];
/// Orbit stops per dataset, a third of a turn apart: the stops fall at
/// three evenly spread phases of a cube's quarter-turn symmetry (and the
/// plume's half-turn), so the orbit's total cost hardly depends on where
/// the seed starts it.
const STOPS: usize = 3;
const GPUS: u32 = 4;

struct Setup {
    spec: ClusterSpec,
    volumes: Vec<(Volume, RenderConfig)>,
    /// The orbit, in render order: (dataset index, scene).
    views: Vec<(usize, Scene)>,
}

/// The seeded orbit: a start azimuth and an elevation near the standard
/// 20°, then `STOPS` stops, each visiting the three datasets in turn.
fn orbit(seed: u64, volumes: &[(Volume, RenderConfig)]) -> Vec<(usize, Scene)> {
    let mut rng = Rng::fork(seed, 0x9a9e);
    let azimuth = rng.range(0.0, 360.0);
    let elevation = rng.range(15.0, 25.0);
    let mut views = Vec::new();
    for stop in 0..STOPS {
        for (d, (volume, _)) in volumes.iter().enumerate() {
            let az = azimuth + 120.0 * stop as f32 + 40.0 * d as f32;
            let tf = TransferFunction::for_dataset(&volume.meta.name);
            views.push((d, Scene::orbit(volume, az % 360.0, elevation, tf)));
        }
    }
    views
}

/// Volumes, orbit and a warm-up frame (the first frame of a process pays
/// one-time costs that later frames do not).
fn setup(seed: u64) -> Setup {
    let spec = ClusterSpec::accelerator_cluster(GPUS);
    let volumes: Vec<(Volume, RenderConfig)> = DATASETS
        .iter()
        .map(|&(dataset, base)| {
            let volume = dataset.volume(base);
            let mut cfg = RenderConfig::default();
            if dataset == Dataset::Plume {
                cfg.residency = Residency::Disk;
                cfg.host_cache_bytes = volume.meta.bytes() / 2;
            }
            (volume, cfg)
        })
        .collect();
    let views = orbit(seed, &volumes);
    let (d, scene) = &views[0];
    let (volume, cfg) = &volumes[*d];
    std::hint::black_box(render(&spec, volume, scene, cfg));
    Setup {
        spec,
        volumes,
        views,
    }
}

/// One delivered frame: which orbit stop, its pixel digest, its latency,
/// and whether it went through the traced pipeline.
struct Delivery {
    view: usize,
    digest: u64,
    ms: f64,
    traced: bool,
}

struct Phase {
    deliveries: Vec<Delivery>,
    wall: Duration,
    parts: Vec<Parts>,
}

impl Phase {
    /// Frames per second of the traced or untraced frames, over their own
    /// render time.
    fn frames_per_s(&self, traced: bool) -> f64 {
        let ms: Vec<f64> = self
            .deliveries
            .iter()
            .filter(|d| d.traced == traced)
            .map(|d| d.ms)
            .collect();
        ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3)
    }
}

/// Render the orbit in a loop for `seconds`. With a tracer, frames go in
/// pairs — each orbit stop once directly and once through the traced
/// decomposed pipeline, in ABBA order so slow drift cancels — and the pair's
/// difference is the tracing overhead.
fn run(s: &Setup, seconds: f64, tracer: Option<&Tracer>) -> Phase {
    let start = Instant::now();
    let mut deliveries = Vec::new();
    let mut parts = Vec::new();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds || (tracer.is_some() && i % 2 == 1) {
        let (view, traced) = match tracer {
            None => (i % s.views.len(), false),
            Some(_) => ((i / 2) % s.views.len(), matches!(i % 4, 1 | 2)),
        };
        let (d, scene) = &s.views[view];
        let (volume, cfg) = &s.volumes[*d];
        let t0 = Instant::now();
        let image = match tracer.filter(|_| traced) {
            None => render(&s.spec, volume, scene, cfg).image,
            Some(tracer) => {
                let req = i as u64;
                let root = tracer.open();
                let (image, p) = render_parts(
                    &s.spec,
                    Plan::Fresh(volume),
                    scene,
                    cfg,
                    tracer,
                    req,
                    Some(root),
                );
                tracer.close(root, req, None, "frame", t0, Instant::now());
                parts.push(p);
                image
            }
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        deliveries.push(Delivery {
            view,
            digest: digest(&image),
            ms,
            traced,
        });
        i += 1;
    }
    Phase {
        deliveries,
        wall: start.elapsed(),
        parts,
    }
}

/// Compare every delivery with a reference digest per orbit stop, made
/// after the timed phases by `reference`. Returns the mismatches.
fn check(s: &Setup, phase: &Phase, reference: impl Fn(usize, &Scene) -> u64) -> u64 {
    let mut refs: BTreeMap<usize, u64> = BTreeMap::new();
    let mut failed = 0;
    for d in &phase.deliveries {
        let want = *refs.entry(d.view).or_insert_with(|| {
            let (ds, scene) = &s.views[d.view];
            reference(*ds, scene)
        });
        failed += u64::from(want != d.digest);
    }
    failed
}

/// Each orbit stop's latencies, in render order.
fn by_stop(phase: &Phase) -> BTreeMap<usize, Vec<f64>> {
    let mut by_view: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for d in &phase.deliveries {
        by_view.entry(d.view).or_default().push(d.ms);
    }
    by_view
}

/// Median over orbit stops rendered more than once of last ÷ first latency:
/// above 1 means frames slowed as the process aged.
fn drift(phase: &Phase) -> Option<f64> {
    let ratios: Vec<f64> = by_stop(phase)
        .values()
        .filter(|v| v.len() > 1)
        .map(|v| v[v.len() - 1] / v[0])
        .collect();
    median(&ratios)
}

pub fn run_workload(args: &Args) -> Report {
    let mut r = Report::default();
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        last = Some(setup(args.seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let s = last.expect("three setups");
    r.line(format!(
        "paper-512: setup_s samples {setup_s:.3?}; orbit of {} stops over {} datasets, {GPUS} modeled GPUs, 512x512",
        s.views.len(),
        s.volumes.len()
    ));
    let direct_ref = |d: usize, scene: &Scene| {
        let (volume, cfg) = &s.volumes[d];
        digest(&render(&s.spec, volume, scene, cfg).image)
    };
    let decomposed_ref = |d: usize, scene: &Scene| {
        let (volume, cfg) = &s.volumes[d];
        let off = Tracer::off();
        digest(&render_parts(&s.spec, Plan::Fresh(volume), scene, cfg, &off, 0, None).0)
    };

    if !args.trace {
        let phase = run(&s, args.seconds, None);
        let n = phase.deliveries.len();
        let ms: Vec<f64> = phase.deliveries.iter().map(|d| d.ms).collect();
        r.attempted = n as u64;
        r.failed = check(&s, &phase, decomposed_ref);
        r.latency("paper-512 frame latency, all frames", &ms);
        r.line(format!(
            "paper-512 wall-clock throughput {:.4} frames/s over {n} frames",
            n as f64 / phase.wall.as_secs_f64()
        ));
        // Each stop is rendered several times; its median latency is that
        // view's cost with bursts of outside load voted out.
        let stops: Vec<f64> = by_stop(&phase).values().filter_map(|v| median(v)).collect();
        let lat = r
            .latency("paper-512 per-stop median latency", &stops)
            .expect("at least one frame");
        r.set(
            "frames_per_s",
            stops.len() as f64 / (stops.iter().sum::<f64>() / 1e3),
        );
        r.set("frame_ms_p50", lat.p50);
        r.set("frame_ms_p95", lat.p95);
        r.set("setup_s", median(&setup_s).expect("three setups"));
        if let Some(drift) = drift(&phase) {
            r.line(format!(
                "paper-512 drift: median last/first latency per repeated stop = {drift:.3}"
            ));
        }
        return r;
    }

    let tracer = Tracer::on();
    let traced = run(&s, args.seconds, Some(&tracer));
    r.attempted = traced.deliveries.len() as u64;
    r.failed = check(&s, &traced, direct_ref);
    let fps_plain = traced.frames_per_s(false);
    let fps_traced = traced.frames_per_s(true);
    r.line(format!(
        "paper-512 traced {fps_traced:.4} frames/s vs untraced {fps_plain:.4} frames/s (paired by orbit stop, ABBA order)"
    ));
    r.set("trace_overhead_frac", fps_plain / fps_traced - 1.0);
    r.render_layers(&traced.parts);
    let spans = tracer.spans();
    let (unattributed, total) = frame_self_time(&spans);
    r.set("unattributed_frac", unattributed / total.max(1.0));
    r.line(format!(
        "paper-512 frame = prepare + stage + run_job + replay + stitch + {:.3} ms unattributed per frame",
        unattributed / 1e6 / traced.parts.len().max(1) as f64
    ));
    r.set("serve.unattributed_ms", 0.0);
    r.na(
        &[
            "serve.frame_cache_hit_rate",
            "serve.plan_cache_hit_rate",
            "serve.batch_occupancy",
            "serve.frames_rendered",
            "serve.admission_rejected",
        ],
        "direct render: no service runs",
    );
    r.na(
        &[
            "net.hit_ms_p50",
            "net.encode_frame_ms",
            "net.decode_frame_ms",
            "net.frame_bytes",
            "net.encode_request_us",
            "net.loop_wakeups_per_request",
        ],
        "direct render: no wire code runs",
    );
    let tsv =
        std::path::Path::new(crate::SPAN_DIR).join(format!("paper-512-seed{}.tsv", args.seed));
    match tracer.write_tsv(&tsv) {
        Ok(()) => r.line(format!(
            "spans: {} written to {}",
            spans.len(),
            tsv.display()
        )),
        Err(e) => r.line(format!("spans: could not write {}: {e}", tsv.display())),
    }
    probe_table(&mut r);
    r
}

/// Σ self time of the `frame` spans (the part no named child covers) and
/// Σ their durations, in ns.
fn frame_self_time(spans: &[Span]) -> (f64, f64) {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut unattributed = 0.0;
    let mut total = 0.0;
    for root in spans.iter().filter(|s| s.name == "frame") {
        let kids = children.get(&root.id).map_or(&[][..], |v| &v[..]);
        unattributed += self_time_ns(root, kids) as f64;
        total += root.dur_ns() as f64;
    }
    (unattributed, total)
}

/// Re-measure the ROADMAP's probe numbers and print them beside the
/// numbers quoted there, saying where they disagree by more than 1.5×.
fn probe_table(r: &mut Report) {
    let ratios = std::cell::RefCell::new(Vec::new());
    let verdict = |measured: f64, quoted: f64| {
        let ratio = measured / quoted;
        ratios.borrow_mut().push(ratio);
        if (1.0 / 1.5..=1.5).contains(&ratio) {
            format!("{ratio:.2}x, agrees")
        } else {
            format!("{ratio:.2}x, DISAGREES")
        }
    };
    r.line("ROADMAP probe table (medians; quoted numbers in brackets):");
    let mut replay_max: f64 = 0.0;
    let mut stitch_max: f64 = 0.0;
    let mut last_image = None;
    for (base, image, gpus, reps, planned_q, job_q) in [
        (16u32, 64u32, 2u32, 15usize, 1.81, 1.70),
        (64, 256, 2, 5, 58.1, 57.7),
        (128, 512, 4, 3, 382.0, 381.0),
    ] {
        let volume = Dataset::Skull.volume(base);
        let spec = ClusterSpec::accelerator_cluster(gpus);
        let cfg = RenderConfig::test_size(image);
        let scene = Scene::orbit(&volume, 30.0, 20.0, TransferFunction::bone());
        let plan = FramePlan::prepare(&spec, &volume, &cfg);
        let off = Tracer::off();
        std::hint::black_box(render_planned(&spec, &plan, &scene, &cfg));
        let mut planned = Vec::new();
        let mut parts = Vec::new();
        for _ in 0..reps {
            let t0 = Instant::now();
            let out = render_planned(&spec, &plan, &scene, &cfg);
            planned.push(t0.elapsed().as_secs_f64() * 1e3);
            last_image = Some(out.image);
            parts.push(render_parts(&spec, Plan::Warm(&plan), &scene, &cfg, &off, 0, None).1);
        }
        let med = |f: &dyn Fn(&Parts) -> u64| {
            median(&parts.iter().map(|p| f(p) as f64 / 1e6).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        let planned_ms = median(&planned).unwrap_or(0.0);
        let job_ms = med(&|p| p.run_job_ns);
        replay_max = replay_max.max(med(&|p| p.replay_ns));
        stitch_max = stitch_max.max(med(&|p| p.stitch_ns));
        r.line(format!(
            "  {base}^3/{image}^2 {gpus} GPUs (n={reps}): render_planned {planned_ms:.2} ms [{planned_q}] ({}), run_job {job_ms:.2} ms [{job_q}] ({}), run_job share {:.3}",
            verdict(planned_ms, planned_q),
            verdict(job_ms, job_q),
            job_ms / planned_ms
        ));
    }
    r.line(format!(
        "  DES replay max {replay_max:.3} ms [<= 0.08] ({}), stitch max {stitch_max:.3} ms [<= 0.83] ({})",
        if replay_max <= 0.08 * 1.5 { "agrees" } else { "DISAGREES" },
        if stitch_max <= 0.83 * 1.5 { "agrees" } else { "DISAGREES" },
    ));
    let image = last_image.expect("a 512x512 frame");
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut bytes = 0;
    for _ in 0..7 {
        let t0 = Instant::now();
        let payload = encode_frame(&image, false, 0);
        enc.push(t0.elapsed().as_secs_f64() * 1e3);
        let t1 = Instant::now();
        let frame = decode_frame(&payload).expect("own encoding decodes");
        dec.push(t1.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            digest(&frame.image),
            digest(&image),
            "FRAME codec round trip"
        );
        bytes = payload.len();
    }
    let (e, d) = (median(&enc).unwrap_or(0.0), median(&dec).unwrap_or(0.0));
    r.line(format!(
        "  FRAME 512^2 ({bytes} B, n=7): encode {e:.2} ms [2.3] ({}), decode {d:.2} ms [1.8] ({}); encode p95 {:.2} ms",
        verdict(e, 2.3),
        verdict(d, 1.8),
        quantile(&enc, 0.95).unwrap_or(0.0)
    ));
    // A host faster or slower than the one the ROADMAP was measured on
    // scales every row alike; a row far from the common ratio is a layer
    // whose share of the frame has changed.
    let ratios = ratios.into_inner();
    let common = median(&ratios).unwrap_or(1.0);
    let outliers = ratios
        .iter()
        .filter(|&&x| !(1.0 / 1.5..=1.5).contains(&(x / common)))
        .count();
    r.line(format!(
        "  median measured/quoted ratio {common:.2}x over {} timed rows; {outliers} rows more than 1.5x from it",
        ratios.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_orbit_different_seed_different_orbit() {
        let volumes: Vec<(Volume, RenderConfig)> = DATASETS
            .iter()
            .map(|&(d, _)| (d.volume(16), RenderConfig::default()))
            .collect();
        let cams = |seed| {
            orbit(seed, &volumes)
                .iter()
                .map(|(d, s)| format!("{d}:{:?}", s.camera.raw_parts()))
                .collect::<Vec<_>>()
        };
        assert_eq!(cams(3), cams(3));
        assert_ne!(cams(3), cams(4));
        assert_eq!(cams(3).len(), STOPS * DATASETS.len());
    }
}
