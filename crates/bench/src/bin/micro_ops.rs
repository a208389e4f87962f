//! Micro-benchmarks of the hot primitives: the counting sort against the
//! comparison sort it replaces (the §3.1.2 θ(n) claim), the partition
//! strategies, trilinear texture sampling, fragment compositing, value
//! noise and the DES replay itself. Each line is `id  mean-time unit`.
//!
//! `cargo run --release -p mgpu-bench --bin micro_ops`

use std::hint::black_box;
use std::time::{Duration, Instant};

use mgpu_gpu::Texture3D;
use mgpu_mapreduce::{counting_sort_groups, Partitioner, RoundRobin, Striped, Tiled};
use mgpu_sim::{simulate, Activity, SimDuration, Trace};
use mgpu_voldata::noise::{fbm, value_noise};
use mgpu_volren::composite::{composite_unsorted, over};
use mgpu_volren::Fragment;

const WARMUP_ITERS: u32 = 2;
const MEASURE_ITERS: u32 = 10;

/// Print the mean wall time of `routine` over `MEASURE_ITERS` runs, after
/// `WARMUP_ITERS` untimed ones.
fn bench<O>(id: &str, mut routine: impl FnMut() -> O) {
    bench_batched(id, || (), |()| routine());
}

/// Like [`bench`], but `setup` builds each run's input and is not timed.
fn bench_batched<I, O>(id: &str, mut setup: impl FnMut() -> I, mut routine: impl FnMut(I) -> O) {
    for _ in 0..WARMUP_ITERS {
        black_box(routine(setup()));
    }
    let mut total = Duration::ZERO;
    for _ in 0..MEASURE_ITERS {
        let input = setup();
        let start = Instant::now();
        black_box(routine(input));
        total += start.elapsed();
    }
    let mean_nanos = total.as_nanos() as f64 / MEASURE_ITERS as f64;
    if mean_nanos >= 1e6 {
        println!("{id:<50} {:>12.3} ms", mean_nanos / 1e6);
    } else if mean_nanos >= 1e3 {
        println!("{id:<50} {:>12.3} µs", mean_nanos / 1e3);
    } else {
        println!("{id:<50} {:>12.1} ns", mean_nanos);
    }
}

fn pairs(n: usize, key_space: u32) -> (Vec<u32>, Vec<u64>) {
    let keys = (0..n as u64)
        .map(|i| ((i.wrapping_mul(2654435761)) % key_space as u64) as u32)
        .collect();
    let values = (0..n as u64).collect();
    (keys, values)
}

fn bench_sort() {
    let (in_keys, in_values) = pairs(100_000, 262_144);
    bench("sort/counting_sort_100k_pairs", || {
        counting_sort_groups(black_box(&in_keys), black_box(&in_values), 262_144)
    });
    let tupled: Vec<(u32, u64)> = in_keys
        .iter()
        .copied()
        .zip(in_values.iter().copied())
        .collect();
    bench_batched(
        "sort/comparison_sort_100k_pairs",
        || tupled.clone(),
        |mut v| {
            v.sort_by_key(|(k, _)| *k);
            v
        },
    );
}

fn bench_partition() {
    let keys: Vec<u32> = (0..262_144u32).collect();
    let strategies: Vec<(&str, Box<dyn Partitioner>)> = vec![
        ("round_robin", Box::new(RoundRobin)),
        (
            "striped",
            Box::new(Striped {
                width: 512,
                rows_per_stripe: 16,
            }),
        ),
        (
            "tiled",
            Box::new(Tiled {
                width: 512,
                tile: 64,
            }),
        ),
    ];
    for (name, p) in strategies {
        bench(&format!("partition/{name}_262k_keys"), || {
            let mut acc = 0u32;
            for &k in &keys {
                acc = acc.wrapping_add(p.reducer_of(black_box(k), 8));
            }
            acc
        });
    }
}

fn bench_texture() {
    let dims = [64usize; 3];
    let data: Vec<f32> = (0..dims[0] * dims[1] * dims[2])
        .map(|i| (i % 97) as f32 / 97.0)
        .collect();
    let tex = Texture3D::new(dims, data);
    bench("texture/trilinear_sample_64cubed", || {
        let mut acc = 0f32;
        let mut p = 0.7f32;
        for _ in 0..1000 {
            acc += tex.sample(black_box(p), p * 0.9, p * 1.1);
            p = (p + 0.061) % 62.0;
        }
        acc
    });
}

fn bench_composite() {
    let frags: Vec<Fragment> = (0..16)
        .map(|i| Fragment {
            color: [0.05, 0.04, 0.03, 0.1],
            depth: ((i * 7) % 16) as f32,
            exit: ((i * 7) % 16) as f32 + 1.0,
        })
        .collect();
    bench_batched(
        "composite/depth_sort_and_blend_16_fragments",
        || frags.clone(),
        |mut f| composite_unsorted(black_box(&mut f), [0.0; 4]),
    );
    bench("composite/over_operator", || {
        let mut acc = [0f32; 4];
        for _ in 0..1000 {
            acc = over(black_box(acc), [0.01, 0.01, 0.01, 0.02]);
        }
        acc
    });
}

fn bench_noise() {
    bench("noise/value_noise_1k", || {
        let mut acc = 0f32;
        for i in 0..1000 {
            let x = i as f32 * 0.37;
            acc += value_noise(black_box(x), x * 0.5, x * 0.25, 7);
        }
        acc
    });
    bench("noise/fbm3_1k", || {
        let mut acc = 0f32;
        for i in 0..1000 {
            let x = i as f32 * 0.37;
            acc += fbm(black_box(x), x * 0.5, x * 0.25, 3, 2.0, 0.5, 7);
        }
        acc
    });
}

fn bench_des() {
    // A synthetic 10k-task pipeline: 8 chains with cross dependencies.
    let mut tr = Trace::new();
    let rs = tr.add_resources(16);
    let mut prev = Vec::new();
    for i in 0..10_000u32 {
        let deps = if i >= 8 {
            vec![prev[(i - 8) as usize]]
        } else {
            vec![]
        };
        let t = tr.task(
            Activity::Kernel,
            rs[(i % 16) as usize],
            SimDuration(100 + (i as u64 % 37)),
            deps,
        );
        prev.push(t);
    }
    bench("des/replay_10k_tasks", || simulate(black_box(&tr)));
}

fn main() {
    bench_sort();
    bench_partition();
    bench_texture();
    bench_composite();
    bench_noise();
    bench_des();
}
