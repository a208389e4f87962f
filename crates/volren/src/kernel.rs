//! The ray-casting map kernel (§3.2), executed for real by the software GPU.
//!
//! Per thread: one pixel of the brick's sub-image. The ray is intersected
//! against the brick's bounding box; surviving rays march the brick at fixed
//! increments on a **global** sample grid (`t_k = (k + 0.5)·step`, identical
//! for every brick), sampling the 3-D texture trilinearly, classifying
//! through the 1-D transfer-function texture, accumulating front-to-back
//! with early ray termination. Threads with nothing to contribute emit the
//! sentinel placeholder — the paper's "every GPU thread must emit" rule.
//!
//! Two details make bricked rendering bit-compatible with unbricked:
//! * the global `t` grid means sample *positions* do not depend on how the
//!   volume was bricked;
//! * half-open segment ownership (`t ∈ [t_enter, t_exit)`) means each sample
//!   belongs to exactly one brick along the ray.
//!
//! The production path is the [`BlockKernel`] impl: per block it resolves
//! the texture/LUT samplers once, hoists the camera-eye slab invariants
//! ([`SlabTest`]) and the per-row image-plane coordinate, marches with the
//! interior fast-path samplers, classifies alpha before color, tallies once
//! per ray, and interleaves each row's rays two at a time to hide the sample
//! chain's latency. [`RayCastKernel::reference_pixel`] is the oracle: one
//! pixel at a time through [`Texture3D::sample`]/[`Texture1D::sample`].
//! Every value a ray computes is produced by the same float operations in
//! the same order on both, so the `(Key, Fragment)` output and per-lane
//! sample counts are bit-identical (pinned by `tests/batched_equivalence.rs`).

use mgpu_gpu::{BlockCtx, BlockKernel, BlockOut, Texture1D, Texture3D};
use mgpu_mapreduce::{Key, SENTINEL_KEY};

use crate::camera::Camera;
use crate::composite::accumulate;
use crate::fragment::Fragment;
use crate::math::Vec3;
use crate::ray::SlabTest;

/// Alpha below which a fragment is considered empty and discarded.
pub const EMPTY_ALPHA: f32 = 1e-5;

/// The ray-cast kernel for one brick.
pub struct RayCastKernel<'a> {
    pub camera: &'a Camera,
    pub lut: &'a Texture1D,
    pub texture: &'a Texture3D,
    /// World coordinate of the stored array's origin (core origin − ghost).
    pub store_origin: Vec3,
    /// Brick core box in world (voxel) coordinates.
    pub core_lo: Vec3,
    pub core_hi: Vec3,
    /// Full image dimensions.
    pub image: (u32, u32),
    /// Sub-image (footprint) origin this launch covers.
    pub offset: (u32, u32),
    /// Step along the ray in voxel units (the global sample grid).
    pub step: f32,
    /// Early-ray-termination opacity threshold (≥ 1.0 disables).
    pub early_term: f32,
}

impl RayCastKernel<'_> {
    /// Whether opacity correction is needed (`step ≠ 1`).
    #[inline]
    fn needs_correction(&self) -> bool {
        (self.step - 1.0).abs() > 1e-6
    }

    /// The reference ray caster: what the launch thread at `global`
    /// (launch-global coordinates, before `offset`) emits, plus its sample
    /// tally. One pixel at a time through the plain texture lookups — the
    /// oracle the [`BlockKernel`] impl must match bit for bit.
    pub fn reference_pixel(&self, global: (u32, u32)) -> (Key, Fragment, u64) {
        let px = self.offset.0 + global.0;
        let py = self.offset.1 + global.1;
        // Padding threads outside the image emit placeholders.
        if px >= self.image.0 || py >= self.image.1 {
            return (SENTINEL_KEY, Fragment::default(), 0);
        }

        let ray = self.camera.ray(px, py, self.image.0, self.image.1);
        let Some((t0, t1)) = ray.intersect_aabb(self.core_lo, self.core_hi) else {
            return (SENTINEL_KEY, Fragment::default(), 0);
        };

        // First global sample index with t_k = (k + 0.5)·step ≥ t0.
        let mut k = (t0 / self.step - 0.5).ceil().max(0.0) as u64;
        let correct = self.needs_correction();
        let mut acc = [0f32; 4];
        let mut samples = 0u64;
        loop {
            let t = (k as f32 + 0.5) * self.step;
            if t >= t1 {
                break; // half-open ownership: t1 belongs to the next brick
            }
            let p = ray.at(t);
            let v = self.texture.sample(
                p.x - self.store_origin.x,
                p.y - self.store_origin.y,
                p.z - self.store_origin.z,
            );
            samples += 1;
            let rgba = self.lut.sample(v);
            let mut a = rgba[3];
            if correct && a > 0.0 {
                a = 1.0 - (1.0 - a).powf(self.step);
            }
            if a > 0.0 {
                accumulate(&mut acc, [rgba[0], rgba[1], rgba[2]], a);
                if acc[3] >= self.early_term {
                    break;
                }
            }
            k += 1;
        }

        if acc[3] <= EMPTY_ALPHA {
            // "Ray fragments with no contributions are discarded."
            return (SENTINEL_KEY, Fragment::default(), samples);
        }
        let key = py * self.image.0 + px;
        (
            key,
            Fragment {
                color: acc,
                depth: t0,
                exit: t1,
            },
            samples,
        )
    }
}

/// The production path: same rays, same samples, same float ops as
/// [`RayCastKernel::reference_pixel`] — restructured so per-launch state (samplers, slab
/// invariants, opacity-correction flag) is resolved once per block and the
/// per-row image-plane coordinate once per row. Rays are marched **two at a
/// time**: a single march is one serial dependency chain (position → fetch →
/// classify → blend), so interleaving two independent chains hides most of
/// each other's latency — the one-core analog of the warp-level latency
/// hiding the paper gets from the hardware scheduler. Interleaving reorders
/// nothing within a ray, so output stays bit-identical. Emits straight into
/// the launch's SoA buffers; sample counts are tallied once per ray.
impl BlockKernel for RayCastKernel<'_> {
    type Key = Key;
    type Value = Fragment;

    fn run_block(&self, ctx: &BlockCtx, out: BlockOut<'_, Key, Fragment>) {
        let mctx = MarchCtx {
            smp: self.texture.sampler(),
            lut: self.lut.sampler(),
            step: self.step,
            correct: self.needs_correction(),
            early_term: self.early_term,
            ox: self.store_origin.x,
            oy: self.store_origin.y,
            oz: self.store_origin.z,
        };
        let slabs = SlabTest::new(self.camera.eye, self.core_lo, self.core_hi);
        let (w, h) = self.image;
        let step = self.step;
        let mut rowq: Vec<March> = Vec::with_capacity(ctx.dim.0 as usize);

        for ty in 0..ctx.dim.1 {
            let row = ctx.index(0, ty);
            let py = self.offset.1 + ctx.block.1 * ctx.dim.1 + ty;
            if py >= h {
                // Whole row is padding below the image.
                for tx in 0..ctx.dim.0 {
                    out.keys[row + tx as usize] = SENTINEL_KEY;
                }
                continue;
            }
            let v = self.camera.ndc_v(py, h);

            // Pass 1: intersect the row's rays, queue the survivors.
            rowq.clear();
            for tx in 0..ctx.dim.0 {
                let i = row + tx as usize;
                out.keys[i] = SENTINEL_KEY;
                let px = self.offset.0 + ctx.block.0 * ctx.dim.0 + tx;
                if px >= w {
                    continue; // padding column; value/samples stay default
                }
                let ray = self.camera.ray_from_ndc(self.camera.ndc_u(px, w, h), v);
                let Some((t0, t1)) = slabs.intersect(ray.dir) else {
                    continue;
                };
                rowq.push(March {
                    lane: i,
                    key: py * w + px,
                    ray,
                    t0,
                    t1,
                    k: (t0 / step - 0.5).ceil().max(0.0) as u64,
                    acc: [0.0; 4],
                    samples: 0,
                    live: true,
                });
            }

            // Pass 2: march the survivors, paired for latency hiding.
            let mut pairs = rowq.chunks_exact_mut(2);
            for pair in &mut pairs {
                let (a, b) = pair.split_at_mut(1);
                mctx.march_pair(&mut a[0], &mut b[0]);
            }
            if let [last] = pairs.into_remainder() {
                mctx.march_solo(last);
            }

            for m in &rowq {
                out.samples[m.lane] = m.samples;
                if m.acc[3] > EMPTY_ALPHA {
                    out.keys[m.lane] = m.key;
                    out.values[m.lane] = Fragment {
                        color: m.acc,
                        depth: m.t0,
                        exit: m.t1,
                    };
                }
            }
        }
    }
}

/// One ray in flight through the batched march (`run_block` pass 2).
struct March {
    lane: usize,
    key: Key,
    ray: crate::ray::Ray,
    t0: f32,
    t1: f32,
    /// Next global sample index.
    k: u64,
    acc: [f32; 4],
    samples: u64,
    /// False once early ray termination fires (bounds are checked per step).
    live: bool,
}

/// Per-launch march invariants: the resolved samplers plus the plain config
/// the inner loop reads every sample.
struct MarchCtx<'a> {
    smp: mgpu_gpu::Sampler3D<'a>,
    lut: mgpu_gpu::Sampler1D<'a>,
    step: f32,
    correct: bool,
    early_term: f32,
    ox: f32,
    oy: f32,
    oz: f32,
}

impl MarchCtx<'_> {
    /// Take one sample at parametric distance `t` (caller has checked
    /// `t < t1`): exactly the per-sample float ops of
    /// [`RayCastKernel::reference_pixel`], in the same order. The color lerps only run
    /// for samples that contribute — identical expressions when they do.
    #[inline(always)]
    fn sample_step(&self, m: &mut March, t: f32) {
        let p = m.ray.at(t);
        let val = self.smp.sample(p.x - self.ox, p.y - self.oy, p.z - self.oz);
        m.samples += 1;
        let (c0, c1, f) = self.lut.taps(val);
        let mut a = c0[3] + (c1[3] - c0[3]) * f;
        if self.correct && a > 0.0 {
            a = 1.0 - (1.0 - a).powf(self.step);
        }
        if a > 0.0 {
            let rgb = [
                c0[0] + (c1[0] - c0[0]) * f,
                c0[1] + (c1[1] - c0[1]) * f,
                c0[2] + (c1[2] - c0[2]) * f,
            ];
            accumulate(&mut m.acc, rgb, a);
            if m.acc[3] >= self.early_term {
                m.live = false;
                return;
            }
        }
        m.k += 1;
    }

    /// March one ray to its exit (or early termination).
    #[inline(always)]
    fn march_solo(&self, m: &mut March) {
        while m.live {
            let t = (m.k as f32 + 0.5) * self.step;
            if t >= m.t1 {
                break; // half-open ownership: t1 belongs to the next brick
            }
            self.sample_step(m, t);
        }
    }

    /// March two rays interleaved while both are active — two independent
    /// dependency chains in flight — then finish the survivor alone. Each
    /// ray still takes its own samples in its own order, so the result is
    /// bit-identical to two solo marches.
    #[inline(always)]
    fn march_pair(&self, a: &mut March, b: &mut March) {
        while a.live && b.live {
            let ta = (a.k as f32 + 0.5) * self.step;
            let tb = (b.k as f32 + 0.5) * self.step;
            if ta >= a.t1 || tb >= b.t1 {
                break;
            }
            self.sample_step(a, ta);
            self.sample_step(b, tb);
        }
        self.march_solo(a);
        self.march_solo(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::Scene;
    use crate::math::vec3;
    use crate::transfer::TransferFunction;
    use mgpu_gpu::{launch_blocks, LaunchConfig};
    use mgpu_voldata::Dataset;

    /// A uniform 8³ texture (with ghost padding) of constant density.
    fn flat_texture(value: f32) -> Texture3D {
        Texture3D::new([10, 10, 10], vec![value; 1000])
    }

    fn test_scene() -> Scene {
        let v = Dataset::Skull.volume(8);
        Scene::orbit(&v, 30.0, 20.0, TransferFunction::grayscale())
    }

    fn run_kernel(kernel: &RayCastKernel<'_>, w: u32, h: u32) -> Vec<(Key, Fragment)> {
        let out = launch_blocks(kernel, LaunchConfig::cover(w, h), 1);
        out.keys.into_iter().zip(out.values).collect()
    }

    #[test]
    fn every_thread_emits_and_misses_are_sentinels() {
        let tex = flat_texture(0.5);
        let lut = TransferFunction::grayscale().bake();
        let scene = test_scene();
        let kernel = RayCastKernel {
            camera: &scene.camera,
            lut: &lut,
            texture: &tex,
            store_origin: vec3(-1.0, -1.0, -1.0),
            core_lo: Vec3::ZERO,
            core_hi: vec3(8.0, 8.0, 8.0),
            image: (64, 64),
            offset: (0, 0),
            step: 1.0,
            early_term: 1.1,
        };
        let outs = run_kernel(&kernel, 64, 64);
        assert_eq!(outs.len(), 64 * 64);
        let hits = outs.iter().filter(|(k, _)| *k != SENTINEL_KEY).count();
        let sentinels = outs.len() - hits;
        assert!(hits > 0, "no ray hit the box");
        assert!(sentinels > 0, "some padding/missing rays expected");
        for (k, f) in &outs {
            if *k != SENTINEL_KEY {
                assert!(*k < 64 * 64);
                assert!(f.color[3] > 0.0);
                assert!(f.depth >= 0.0);
            }
        }
    }

    #[test]
    fn denser_volume_yields_higher_alpha() {
        let lut = TransferFunction::grayscale().bake();
        let scene = test_scene();
        let mut alphas = Vec::new();
        for density in [0.2f32, 0.6] {
            let tex = flat_texture(density);
            let kernel = RayCastKernel {
                camera: &scene.camera,
                lut: &lut,
                texture: &tex,
                store_origin: vec3(-1.0, -1.0, -1.0),
                core_lo: Vec3::ZERO,
                core_hi: vec3(8.0, 8.0, 8.0),
                image: (32, 32),
                offset: (0, 0),
                step: 1.0,
                early_term: 1.1,
            };
            let outs = run_kernel(&kernel, 32, 32);
            let best = outs
                .iter()
                .filter(|(k, _)| *k != SENTINEL_KEY)
                .map(|(_, f)| f.color[3])
                .fold(0f32, f32::max);
            alphas.push(best);
        }
        assert!(alphas[1] > alphas[0]);
    }

    #[test]
    fn early_termination_reduces_samples() {
        let tex = flat_texture(1.0); // fully opaque everywhere
        let lut = TransferFunction::grayscale().bake();
        let scene = test_scene();
        let base = RayCastKernel {
            camera: &scene.camera,
            lut: &lut,
            texture: &tex,
            store_origin: vec3(-1.0, -1.0, -1.0),
            core_lo: Vec3::ZERO,
            core_hi: vec3(8.0, 8.0, 8.0),
            image: (32, 32),
            offset: (0, 0),
            step: 1.0,
            early_term: 1.1,
        };
        let no_et = launch_blocks(&base, LaunchConfig::cover(32, 32), 1).stats;
        let with_et = RayCastKernel {
            early_term: 0.95,
            ..base
        };
        let et = launch_blocks(&with_et, LaunchConfig::cover(32, 32), 1).stats;
        assert!(
            et.total_samples < no_et.total_samples,
            "ET must cut samples: {} vs {}",
            et.total_samples,
            no_et.total_samples
        );
    }

    #[test]
    fn offset_launch_covers_sub_image() {
        let tex = flat_texture(0.5);
        let lut = TransferFunction::grayscale().bake();
        let scene = test_scene();
        let kernel = RayCastKernel {
            camera: &scene.camera,
            lut: &lut,
            texture: &tex,
            store_origin: vec3(-1.0, -1.0, -1.0),
            core_lo: Vec3::ZERO,
            core_hi: vec3(8.0, 8.0, 8.0),
            image: (64, 64),
            offset: (16, 16),
            step: 1.0,
            early_term: 1.1,
        };
        let outs = run_kernel(&kernel, 32, 32);
        for (k, _) in outs.iter().filter(|(k, _)| *k != SENTINEL_KEY) {
            let x = k % 64;
            let y = k / 64;
            assert!((16..48).contains(&x), "x {x} outside sub-image");
            assert!((16..48).contains(&y), "y {y} outside sub-image");
        }
    }

    #[test]
    fn empty_volume_emits_only_sentinels() {
        let tex = flat_texture(0.0);
        let lut = TransferFunction::bone().bake(); // air is transparent
        let scene = test_scene();
        let kernel = RayCastKernel {
            camera: &scene.camera,
            lut: &lut,
            texture: &tex,
            store_origin: vec3(-1.0, -1.0, -1.0),
            core_lo: Vec3::ZERO,
            core_hi: vec3(8.0, 8.0, 8.0),
            image: (32, 32),
            offset: (0, 0),
            step: 1.0,
            early_term: 1.1,
        };
        let outs = run_kernel(&kernel, 32, 32);
        assert!(outs.iter().all(|(k, _)| *k == SENTINEL_KEY));
    }
}
