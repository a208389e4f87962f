//! CUDA-style kernel execution: a 2-D grid of 2-D blocks, real per-thread
//! computation on host threads, and SIMT warp statistics for the cost model.
//!
//! The paper launches its ray caster as "a 2D grid of 2D blocks; each block
//! is 16×16, and the grid is made to match the size of the sub-image onto
//! which the current chunk projects". The executor reproduces those index
//! semantics exactly and additionally tallies per-thread sample counts so
//! the device cost model can charge either flat throughput or
//! divergence-aware (warp-max) time.
//!
//! There is one launch engine: a [`BlockKernel`] runs one call per *block*
//! under [`launch_blocks`], writing keys, values and per-thread sample
//! tallies into caller-provided structure-of-arrays slices ([`BlockOut`]).
//! That lets a kernel hoist per-block/per-row invariants out of the pixel
//! loop. A per-thread kernel is a `BlockKernel` whose `run_block` loops over
//! `ctx.dim` and writes lane `ctx.index(tx, ty)`.

/// Threads per warp (NVIDIA Tesla-era SIMT width).
pub const WARP_SIZE: usize = 32;

/// A 2-D launch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    pub grid: (u32, u32),
    pub block: (u32, u32),
}

impl LaunchConfig {
    /// The paper's configuration: 16×16 blocks covering (with padding) a
    /// `width × height` sub-image.
    pub fn cover(width: u32, height: u32) -> LaunchConfig {
        LaunchConfig {
            grid: (width.div_ceil(16).max(1), height.div_ceil(16).max(1)),
            block: (16, 16),
        }
    }

    pub fn threads_per_block(&self) -> usize {
        (self.block.0 * self.block.1) as usize
    }

    pub fn blocks(&self) -> usize {
        (self.grid.0 * self.grid.1) as usize
    }

    pub fn total_threads(&self) -> usize {
        self.blocks() * self.threads_per_block()
    }
}

/// Execution statistics used by the kernel cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LaunchStats {
    pub threads: u64,
    pub blocks: u64,
    pub warps: u64,
    /// Total per-thread tallied samples.
    pub total_samples: u64,
    /// SIMT-charged samples: `Σ_warps WARP_SIZE · max(lane samples)` — what a
    /// lockstep machine pays under divergence.
    pub simt_samples: u64,
}

impl LaunchStats {
    /// ≥ 1; how much lockstep execution inflates the sample count.
    pub fn divergence_factor(&self) -> f64 {
        if self.total_samples == 0 {
            return 1.0;
        }
        self.simt_samples as f64 / self.total_samples as f64
    }

    pub fn merge(&mut self, other: &LaunchStats) {
        self.threads += other.threads;
        self.blocks += other.blocks;
        self.warps += other.warps;
        self.total_samples += other.total_samples;
        self.simt_samples += other.simt_samples;
    }
}

/// Incremental SIMT warp accounting for one block: lanes fill 32-wide warps
/// in thread order, each warp costs `WARP_SIZE · max(lane samples)`, and a
/// partial trailing warp still occupies all lanes.
#[derive(Default)]
struct WarpAccum {
    warp_max: u64,
    lane: usize,
    warps: u64,
    simt_samples: u64,
}

impl WarpAccum {
    #[inline]
    fn lane(&mut self, samples: u64) {
        self.warp_max = self.warp_max.max(samples);
        self.lane += 1;
        if self.lane == WARP_SIZE {
            self.warps += 1;
            self.simt_samples += self.warp_max * WARP_SIZE as u64;
            self.warp_max = 0;
            self.lane = 0;
        }
    }

    fn finish(mut self, stats: &mut LaunchStats) {
        if self.lane > 0 {
            self.warps += 1;
            self.simt_samples += self.warp_max * WARP_SIZE as u64;
        }
        stats.warps += self.warps;
        stats.simt_samples += self.simt_samples;
    }
}

/// Per-block context for a [`BlockKernel`]: which block is running and the
/// block dimensions, from which the kernel derives thread coordinates.
#[derive(Debug, Clone, Copy)]
pub struct BlockCtx {
    /// Block coordinates within the grid.
    pub block: (u32, u32),
    /// Block dimensions (`blockDim`).
    pub dim: (u32, u32),
}

impl BlockCtx {
    /// Global coordinates of thread `(tx, ty)` in this block:
    /// `block * blockDim + thread`.
    #[inline]
    pub fn global(&self, tx: u32, ty: u32) -> (u32, u32) {
        (
            self.block.0 * self.dim.0 + tx,
            self.block.1 * self.dim.1 + ty,
        )
    }

    /// Flat output index of thread `(tx, ty)` (row-major within the block).
    #[inline]
    pub fn index(&self, tx: u32, ty: u32) -> usize {
        (ty * self.dim.0 + tx) as usize
    }
}

/// Caller-provided structure-of-arrays output for one block: one key, one
/// value and one sample tally per thread, row-major within the block. Every
/// slice is exactly `threads_per_block` long and pre-initialized to
/// `Default`/zero, so a kernel only has to write the lanes it has something
/// to say about.
pub struct BlockOut<'a, K, V> {
    pub keys: &'a mut [K],
    pub values: &'a mut [V],
    /// Per-thread work tallies (texture samples / work units); these feed
    /// the SIMT warp accounting.
    pub samples: &'a mut [u64],
}

/// A device kernel: one call per block, writing into structure-of-arrays
/// output slices instead of returning per-thread tuples.
///
/// A kernel can hoist per-block and per-row invariants out of the inner loop
/// and keep reusable scratch across the block. The paper's restriction that
/// "every GPU thread must emit a key-value pair" and that "emitted values
/// are homogeneous in size" is encoded in [`BlockOut`]: every thread owns
/// exactly one `(key, value, samples)` lane.
pub trait BlockKernel: Sync {
    type Key: Send + Copy + Default;
    type Value: Send + Copy + Default;

    fn run_block(&self, ctx: &BlockCtx, out: BlockOut<'_, Self::Key, Self::Value>);
}

/// Result of [`launch_blocks`]: structure-of-arrays outputs in block-major
/// order (block id, then thread row-major within the block) plus statistics.
/// `keys[i]`, `values[i]` and `samples[i]` describe the same thread.
#[derive(Debug)]
pub struct BlockOutput<K, V> {
    pub keys: Vec<K>,
    pub values: Vec<V>,
    /// Per-thread sample tallies, same order as `keys`/`values`.
    pub samples: Vec<u64>,
    pub stats: LaunchStats,
}

/// Execute a [`BlockKernel`] over `config`, using up to `parallelism` host
/// threads (block-level parallelism, matching how blocks map to SMs).
///
/// Blocks are split into contiguous runs, one per worker; each worker runs
/// its blocks in order with the same loop. The last run executes on the
/// calling thread, so a one-worker launch spawns no thread. Output order and
/// statistics do not depend on `parallelism`.
pub fn launch_blocks<B: BlockKernel>(
    kernel: &B,
    config: LaunchConfig,
    parallelism: usize,
) -> BlockOutput<B::Key, B::Value> {
    let tpb = config.threads_per_block();
    let blocks = config.blocks();
    let total = blocks * tpb;
    let mut keys = vec![B::Key::default(); total];
    let mut values = vec![B::Value::default(); total];
    let mut samples = vec![0u64; total];

    // One worker's loop: blocks `first..first + n`, whose lanes are exactly
    // the given slices.
    let run_blocks = |first: usize,
                      n: usize,
                      keys: &mut [B::Key],
                      values: &mut [B::Value],
                      samples: &mut [u64]|
     -> LaunchStats {
        let mut stats = LaunchStats::default();
        for b in 0..n {
            let block_id = (first + b) as u32;
            let ctx = BlockCtx {
                block: (block_id % config.grid.0, block_id / config.grid.0),
                dim: config.block,
            };
            let lanes = b * tpb..(b + 1) * tpb;
            let samples = &mut samples[lanes.clone()];
            kernel.run_block(
                &ctx,
                BlockOut {
                    keys: &mut keys[lanes.clone()],
                    values: &mut values[lanes],
                    samples,
                },
            );
            stats.threads += tpb as u64;
            stats.blocks += 1;
            let mut acc = WarpAccum::default();
            for &s in samples.iter() {
                stats.total_samples += s;
                acc.lane(s);
            }
            acc.finish(&mut stats);
        }
        stats
    };

    let workers = parallelism.clamp(1, blocks.max(1));
    let per_worker = blocks.div_ceil(workers).max(1);
    let stats = std::thread::scope(|scope| {
        let mut stats = LaunchStats::default();
        let mut handles = Vec::with_capacity(workers - 1);
        let (mut kr, mut vr, mut sr) = (&mut keys[..], &mut values[..], &mut samples[..]);
        for first in (0..blocks).step_by(per_worker) {
            let n = per_worker.min(blocks - first);
            let (kc, k_rest) = std::mem::take(&mut kr).split_at_mut(n * tpb);
            let (vc, v_rest) = std::mem::take(&mut vr).split_at_mut(n * tpb);
            let (sc, s_rest) = std::mem::take(&mut sr).split_at_mut(n * tpb);
            (kr, vr, sr) = (k_rest, v_rest, s_rest);
            if first + n < blocks {
                let run_blocks = &run_blocks;
                handles.push(scope.spawn(move || run_blocks(first, n, kc, vc, sc)));
            } else {
                stats.merge(&run_blocks(first, n, kc, vc, sc));
            }
        }
        for h in handles {
            match h.join() {
                Ok(s) => stats.merge(&s),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        stats
    });

    BlockOutput {
        keys,
        values,
        samples,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-thread probe: each lane's key is its global coordinates, its value
    /// its `(block, thread)` coordinates, and it tallies `work(global)`.
    struct Probe<F>(F);

    impl<F: Fn((u32, u32)) -> u64 + Sync> BlockKernel for Probe<F> {
        type Key = (u32, u32);
        type Value = [u32; 4];

        fn run_block(&self, ctx: &BlockCtx, out: BlockOut<'_, (u32, u32), [u32; 4]>) {
            for ty in 0..ctx.dim.1 {
                for tx in 0..ctx.dim.0 {
                    let g = ctx.global(tx, ty);
                    let i = ctx.index(tx, ty);
                    out.keys[i] = g;
                    out.values[i] = [ctx.block.0, ctx.block.1, tx, ty];
                    out.samples[i] = (self.0)(g);
                }
            }
        }
    }

    fn probe(
        work: impl Fn((u32, u32)) -> u64 + Sync,
        config: LaunchConfig,
        parallelism: usize,
    ) -> BlockOutput<(u32, u32), [u32; 4]> {
        launch_blocks(&Probe(work), config, parallelism)
    }

    fn assert_same<K: PartialEq + std::fmt::Debug, V: PartialEq + std::fmt::Debug>(
        a: &BlockOutput<K, V>,
        b: &BlockOutput<K, V>,
    ) {
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.values, b.values);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn cover_pads_to_block_multiples() {
        let c = LaunchConfig::cover(100, 33);
        assert_eq!(c.grid, (7, 3));
        assert_eq!(c.total_threads(), 7 * 3 * 256);
        // Degenerate sub-image still launches one block.
        assert_eq!(LaunchConfig::cover(0, 0).grid, (1, 1));
    }

    #[test]
    fn outputs_are_block_major_and_complete() {
        let c = LaunchConfig {
            grid: (2, 2),
            block: (4, 2),
        };
        let out = probe(|g| g.0 as u64, c, 1);
        assert_eq!(out.keys.len(), 32);
        assert_eq!(out.values.len(), 32);
        assert_eq!(out.samples.len(), 32);
        // Block 0 thread (0,0) is global (0,0).
        assert_eq!(out.keys[0], (0, 0));
        // Block 1 is grid-x=1: its thread (0,0) is global (4,0).
        assert_eq!(out.keys[8], (4, 0));
        assert_eq!(out.values[8], [1, 0, 0, 0]);
        // Block 2 is grid-y=1: its thread (1,1) is global (1,3).
        assert_eq!(out.keys[16 + 5], (1, 3));
        assert_eq!(out.values[16 + 5], [0, 1, 1, 1]);
        // Each lane's tally lands in its own slot.
        assert_eq!(out.samples[8], 4);
    }

    #[test]
    fn serial_and_parallel_agree() {
        // Ragged per-thread work, so every warp charges differently.
        let work = |g: (u32, u32)| (g.0 as u64 * 7 + g.1 as u64) % 13;
        let c = LaunchConfig::cover(64, 64);
        assert_same(&probe(work, c, 1), &probe(work, c, 4));
    }

    #[test]
    fn launch_blocks_serial_and_parallel_agree() {
        // 21 blocks: uneven splits, and more workers than blocks.
        let c = LaunchConfig::cover(100, 33);
        let serial = probe(|g| g.0 as u64, c, 1);
        for parallelism in [2, 3, 4, 5, 8, 21, 64] {
            assert_same(&serial, &probe(|g| g.0 as u64, c, parallelism));
        }
    }

    #[test]
    fn zero_block_grid_is_empty() {
        let c = LaunchConfig {
            grid: (0, 3),
            block: (16, 16),
        };
        for parallelism in [1, 4] {
            let out = probe(|_| 1, c, parallelism);
            assert!(out.keys.is_empty());
            assert!(out.values.is_empty());
            assert!(out.samples.is_empty());
            assert_eq!(out.stats, LaunchStats::default());
        }
    }

    #[test]
    fn stats_count_threads_and_samples() {
        let c = LaunchConfig {
            grid: (1, 1),
            block: (16, 16),
        };
        let out = probe(|g| g.0 as u64, c, 1);
        assert_eq!(out.stats.threads, 256);
        assert_eq!(out.stats.blocks, 1);
        assert_eq!(out.stats.warps, 8);
        // Σ global.0 over the block: each row sums 0..15 = 120; 16 rows.
        assert_eq!(out.stats.total_samples, 120 * 16);
    }

    #[test]
    fn divergence_inflates_simt_samples() {
        // One thread per warp does 100 samples, the rest do none.
        let spike = |g: (u32, u32)| if g.0.is_multiple_of(32) { 100 } else { 0 };
        let c = LaunchConfig {
            grid: (2, 1),
            block: (32, 1),
        };
        let out = probe(spike, c, 1);
        assert_eq!(out.stats.total_samples, 200);
        assert_eq!(out.stats.simt_samples, 2 * 100 * 32);
        assert!((out.stats.divergence_factor() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_work_has_no_divergence_penalty() {
        let c = LaunchConfig {
            grid: (4, 4),
            block: (8, 4),
        };
        let out = probe(|_| 7, c, 2);
        assert_eq!(out.stats.divergence_factor(), 1.0);
    }

    #[test]
    fn partial_warp_charged_fully() {
        // 8-thread block = one partial warp, still charged 32 lanes.
        let c = LaunchConfig {
            grid: (1, 1),
            block: (8, 1),
        };
        let out = probe(|_| 1, c, 1);
        assert_eq!(out.stats.total_samples, 8);
        assert_eq!(out.stats.simt_samples, 32);
        // Warps never span blocks: two 40-thread blocks are one full and one
        // partial warp each.
        let c = LaunchConfig {
            grid: (2, 1),
            block: (40, 1),
        };
        let out = probe(|_| 1, c, 2);
        assert_eq!(out.stats.warps, 4);
        assert_eq!(out.stats.simt_samples, 4 * 32);
    }
}
