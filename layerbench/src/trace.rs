//! Spans recorded by the benchmark around calls into each crate's public
//! functions, and the decomposed frame pipeline that makes those calls.
//!
//! [`render_parts`] rebuilds `mgpu_volren::render_planned` from public
//! pieces only — `FramePlan::prepare`, `RenderBrick::voxels`, `run_job`
//! with timing wrappers around the `VolumeMapper` and `CompositeReducer`,
//! `build_trace`/`simulate`/`account`, and `stitch` — so each layer's time
//! is measured at its boundary without changing the program. The output
//! check holds it to bit-identity with `render`.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mgpu_cluster::{ClusterSpec, GpuId};
use mgpu_mapreduce::{
    build_trace, run_job, Chunk, Combiner, CostBook, GpuMapper, JobConfig, Key, MapOutput, Reducer,
};
use mgpu_sim::{account, simulate};
use mgpu_voldata::Volume;
use mgpu_volren::combine::AdjacentFragmentCombiner;
use mgpu_volren::mapper::VolumeMapper;
use mgpu_volren::reduce::CompositeReducer;
use mgpu_volren::stitch::stitch;
use mgpu_volren::{Compositor, FramePlan, Image, RenderBrick, RenderConfig, Scene};

/// One timed interval. Spans of one request share `req`; `parent` links a
/// span to the one that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub req: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store: recording takes one lock per span and nothing is
/// written out until [`Tracer::write_tsv`] at the end of the run. A tracer
/// built with [`Tracer::off`] records nothing.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn on() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Some(Mutex::new(Vec::new())),
        }
    }

    pub fn off() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: None,
        }
    }

    /// Reserve a span id, so children can name a parent that closes later.
    pub fn open(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Close span `id` over `[start, end]`.
    pub fn close(
        &self,
        id: u64,
        req: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if let Some(spans) = &self.spans {
            let span = Span {
                req,
                id,
                parent,
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end).max(self.ns(start)),
            };
            spans.lock().expect("span store poisoned").push(span);
        }
    }

    /// Record a closed span in one call; returns its id.
    pub fn record(
        &self,
        req: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.open();
        self.close(id, req, parent, name, start, end);
        id
    }

    pub fn spans(&self) -> Vec<Span> {
        match &self.spans {
            Some(spans) => spans.lock().expect("span store poisoned").clone(),
            None => Vec::new(),
        }
    }

    /// Dump every span as tab-separated `req id parent name start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::from("req\tid\tparent\tname\tstart_ns\tend_ns\n");
        for s in self.spans() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.req, s.id, parent, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover (children may overlap, as mapper threads do).
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    span.dur_ns() - covered
}

/// Times every `map_chunk` of the wrapped mapper: a span per call, plus
/// per-GPU summed map time and the launch statistics of each output.
struct TimedMapper<'a, M> {
    inner: &'a M,
    tracer: &'a Tracer,
    req: u64,
    parent: u64,
    per_gpu_ns: Vec<AtomicU64>,
    samples: AtomicU64,
    simt_samples: AtomicU64,
}

impl<C: Chunk, M: GpuMapper<C>> GpuMapper<C> for TimedMapper<'_, M> {
    type Value = M::Value;

    fn init(&self, gpu: GpuId) -> u64 {
        self.inner.init(gpu)
    }

    fn map_chunk(&self, gpu: GpuId, chunk: &C) -> MapOutput<M::Value> {
        let start = Instant::now();
        let out = self.inner.map_chunk(gpu, chunk);
        let end = Instant::now();
        self.tracer
            .record(self.req, Some(self.parent), "map_chunk", start, end);
        self.per_gpu_ns[gpu.0 as usize]
            .fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        self.samples
            .fetch_add(out.stats.total_samples, Ordering::Relaxed);
        self.simt_samples
            .fetch_add(out.stats.simt_samples, Ordering::Relaxed);
        out
    }
}

/// Sums the wrapped reducer's time. `reduce` runs once per pixel, so it is
/// summed into one counter rather than recorded as a span per call.
struct TimedReducer<'a, R> {
    inner: &'a R,
    ns: AtomicU64,
}

impl<R: Reducer> Reducer for TimedReducer<'_, R> {
    type Value = R::Value;
    type Out = R::Out;

    fn reduce(&self, key: Key, values: &mut Vec<R::Value>) -> R::Out {
        let start = Instant::now();
        let out = self.inner.reduce(key, values);
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

/// Everything measured about one frame rendered through [`render_parts`].
/// Times are nanoseconds of wall time on the host; `makespan_ns` and
/// `fig3_ns` are the DES-modeled times of the paper's cluster.
#[derive(Debug, Clone, Default)]
pub struct Parts {
    pub prepare_ns: u64,
    pub stage_ns: u64,
    pub run_job_ns: u64,
    /// Σ `map_chunk` over every mapper.
    pub map_sum_ns: u64,
    /// The slowest mapper's summed map time (the blocking path).
    pub map_critical_ns: u64,
    /// Mean summed map time over mappers.
    pub map_mean_ns: f64,
    pub reduce_ns: u64,
    pub replay_ns: u64,
    pub stitch_ns: u64,
    pub samples: u64,
    pub simt_samples: u64,
    pub fragments_kept: u64,
    pub wire_bytes: u64,
    pub batches: u64,
    pub bytes_staged: u64,
    pub evictions: u64,
    pub makespan_ns: u64,
    /// Modeled Figure-3 buckets: map, partition + I/O, sort, reduce.
    pub fig3_ns: [u64; 4],
}

/// Where the frame's plan comes from: prepared for this frame (and timed),
/// or a warm plan kept across frames as the render service's plan cache
/// keeps one.
pub enum Plan<'a> {
    Fresh(&'a Volume),
    Warm(&'a FramePlan),
}

/// Render one frame through the decomposed pipeline, recording spans under
/// `parent` for request `req`. Bit-identical to `mgpu_volren::render`.
pub fn render_parts(
    spec: &ClusterSpec,
    plan: Plan<'_>,
    scene: &Scene,
    cfg: &RenderConfig,
    tracer: &Tracer,
    req: u64,
    parent: Option<u64>,
) -> (Image, Parts) {
    let mut parts = Parts::default();
    let fresh;
    let plan = match plan {
        Plan::Fresh(volume) => {
            let start = Instant::now();
            fresh = FramePlan::prepare(spec, volume, cfg);
            let end = Instant::now();
            tracer.record(req, parent, "voldata.prepare", start, end);
            parts.prepare_ns = (end - start).as_nanos() as u64;
            &fresh
        }
        Plan::Warm(plan) => plan,
    };
    let store_before = plan.store().snapshot();

    // Stage every brick before the job, one thread per GPU over the bricks
    // that GPU's mapper will take (chunk `i` → mapper `i mod gpus`), as the
    // mappers would stage them inside `map_chunk`.
    let gpus = spec.gpus;
    let start = Instant::now();
    let bricks: Vec<RenderBrick> = (0..plan.brick_count())
        .map(|i| RenderBrick::new(Arc::clone(plan.store()), i, plan.staging))
        .collect();
    let stage_span = tracer.open();
    std::thread::scope(|scope| {
        for g in 0..gpus as usize {
            let bricks = &bricks;
            scope.spawn(move || {
                let t = Instant::now();
                for brick in bricks.iter().skip(g).step_by(gpus as usize) {
                    std::hint::black_box(brick.voxels());
                }
                tracer.record(req, Some(stage_span), "voxels", t, Instant::now());
            });
        }
    });
    let end = Instant::now();
    tracer.close(stage_span, req, parent, "voldata.stage", start, end);
    parts.stage_ns = (end - start).as_nanos() as u64;

    let (width, height) = cfg.image;
    let volume_mapper = VolumeMapper::new(
        scene.clone(),
        cfg.image,
        cfg.step_voxels,
        cfg.early_term,
        cfg.resolved_kernel_parallelism(gpus),
    );
    let composite = CompositeReducer {
        background: scene.background,
    };
    let partitioner = cfg.partition.build(width);
    let combiner = AdjacentFragmentCombiner::default();
    let job_cfg = JobConfig {
        batch_bytes: cfg.batch_bytes,
        assignment: cfg.assignment,
        ..JobConfig::new(gpus, width * height)
    };
    let job_span = tracer.open();
    let mapper = TimedMapper {
        inner: &volume_mapper,
        tracer,
        req,
        parent: job_span,
        per_gpu_ns: (0..gpus).map(|_| AtomicU64::new(0)).collect(),
        samples: AtomicU64::new(0),
        simt_samples: AtomicU64::new(0),
    };
    let reducer = TimedReducer {
        inner: &composite,
        ns: AtomicU64::new(0),
    };
    let start = Instant::now();
    let output = run_job(
        &bricks,
        &mapper,
        &reducer,
        partitioner.as_ref(),
        cfg.combiner.then_some(&combiner as &dyn Combiner<_>),
        spec,
        &job_cfg,
    );
    let end = Instant::now();
    tracer.close(job_span, req, parent, "mapreduce.run_job", start, end);
    parts.run_job_ns = (end - start).as_nanos() as u64;
    let per_gpu: Vec<u64> = mapper
        .per_gpu_ns
        .iter()
        .map(|ns| ns.load(Ordering::Relaxed))
        .collect();
    parts.map_sum_ns = per_gpu.iter().sum();
    parts.map_critical_ns = per_gpu.iter().copied().max().unwrap_or(0);
    parts.map_mean_ns = parts.map_sum_ns as f64 / per_gpu.len().max(1) as f64;
    parts.samples = mapper.samples.load(Ordering::Relaxed);
    parts.simt_samples = mapper.simt_samples.load(Ordering::Relaxed);
    parts.reduce_ns = reducer.ns.load(Ordering::Relaxed);
    parts.fragments_kept = output.stats.kept;
    parts.wire_bytes = output.stats.wire_bytes_sent;
    parts.batches = output.stats.batches;

    let start = Instant::now();
    let accounting = match cfg.compositor {
        Compositor::DirectSend => {
            let book = CostBook::from_cluster(spec);
            let trace = build_trace(&output.record, spec, &book, &cfg.trace);
            let schedule = simulate(&trace);
            account(&trace, &schedule)
        }
        Compositor::BinarySwap => mgpu_volren::binary_swap::account_binary_swap(
            &output.record,
            spec,
            &cfg.trace,
            width as u64 * height as u64,
        ),
    };
    let end = Instant::now();
    tracer.record(req, parent, "sim.replay", start, end);
    parts.replay_ns = (end - start).as_nanos() as u64;
    parts.makespan_ns = accounting.makespan.nanos();
    let b = &accounting.breakdown;
    parts.fig3_ns = [
        b.map.nanos(),
        b.partition_io.nanos(),
        b.sort.nanos(),
        b.reduce.nanos(),
    ];

    let start = Instant::now();
    let image = stitch(&output.keys, &output.outs, width, height, scene.background);
    let end = Instant::now();
    tracer.record(req, parent, "volren.stitch", start, end);
    parts.stitch_ns = (end - start).as_nanos() as u64;

    let store = plan.store().snapshot().since(&store_before);
    parts.bytes_staged = store.bytes_materialized;
    parts.evictions = store.evictions;
    (image, parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::digest;
    use mgpu_voldata::Dataset;
    use mgpu_volren::{render, render_planned, Residency, TransferFunction};

    fn scene(volume: &Volume, az: f32) -> Scene {
        Scene::orbit(
            volume,
            az,
            20.0,
            TransferFunction::for_dataset(&volume.meta.name),
        )
    }

    #[test]
    fn timing_wrappers_leave_pixels_bit_identical() {
        let tracer = Tracer::on();
        for (dataset, base, gpus, image) in [
            (Dataset::Skull, 16, 2, 64),
            (Dataset::Supernova, 32, 4, 96),
            (Dataset::Plume, 16, 2, 64),
        ] {
            let volume = dataset.volume(base);
            let spec = ClusterSpec::accelerator_cluster(gpus);
            let mut cfg = RenderConfig::test_size(image);
            if dataset == Dataset::Plume {
                cfg.residency = Residency::Disk;
                cfg.host_cache_bytes = volume.meta.bytes() / 2;
            }
            for az in [15.0, 200.0] {
                let scene = scene(&volume, az);
                let direct = render(&spec, &volume, &scene, &cfg).image;
                let (fresh, parts) =
                    render_parts(&spec, Plan::Fresh(&volume), &scene, &cfg, &tracer, 1, None);
                assert_eq!(digest(&direct), digest(&fresh), "{dataset:?} az {az}");
                assert!(parts.samples > 0 && parts.map_critical_ns > 0);
                assert!(parts.map_critical_ns as f64 >= parts.map_mean_ns);
                let plan = FramePlan::prepare(&spec, &volume, &cfg);
                let (warm, _) =
                    render_parts(&spec, Plan::Warm(&plan), &scene, &cfg, &tracer, 2, None);
                let planned = render_planned(&spec, &plan, &scene, &cfg).image;
                assert_eq!(digest(&direct), digest(&warm));
                assert_eq!(digest(&direct), digest(&planned));
            }
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            req: 0,
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
        };
        let root = span(0, None, 0, 100);
        // Two overlapping children cover [10, 50); a third covers [60, 70);
        // one sticks out past the parent's end and is clipped to [95, 100).
        let kids = [
            span(1, Some(0), 10, 40),
            span(2, Some(0), 20, 50),
            span(3, Some(0), 60, 70),
            span(4, Some(0), 95, 120),
        ];
        let refs: Vec<&Span> = kids.iter().collect();
        assert_eq!(self_time_ns(&root, &refs), 100 - 40 - 10 - 5);
        assert_eq!(self_time_ns(&root, &[]), 100);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let off = Tracer::off();
        let t = Instant::now();
        off.record(1, None, "x", t, t);
        assert!(off.spans().is_empty());
        let on = Tracer::on();
        let id = on.record(1, None, "x", t, t);
        on.record(1, Some(id), "y", t, t);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
    }
}
