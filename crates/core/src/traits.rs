//! The user-facing MapReduce abstractions — the paper's "objects with virtual
//! functions used as callbacks", as Rust traits.

use mgpu_cluster::GpuId;
use mgpu_gpu::LaunchStats;

use crate::types::{Key, Pair, WireValue};

/// A unit of map work — for the renderer, one brick of the volume.
///
/// "A Chunk represents a collection of work to be mapped, in our case, it is
/// a brick of a volume. Each Chunk requests a certain amount of GPU memory
/// to hold its volume data." (§3.1.2)
pub trait Chunk: Send + Sync {
    /// Stable identifier (brick id).
    fn id(&self) -> usize;

    /// Bytes uploaded to the device before the kernel runs.
    fn device_bytes(&self) -> u64;

    /// Bytes staged from disk for this chunk (0 when resident in host RAM —
    /// the paper's Figure-3 runs assume residency; out-of-core runs do not).
    fn disk_bytes(&self) -> u64;
}

/// Everything a map kernel execution produces: the homogeneous per-thread
/// emissions (including sentinel placeholders) and the launch statistics the
/// device cost model charges time from.
///
/// Emissions are structure-of-arrays — `keys[i]` and `values[i]` describe the
/// same GPU thread — so a batched kernel launch
/// ([`mgpu_gpu::kernel::launch_blocks`]) hands its output buffers over whole,
/// with no per-thread tuple re-materialization.
#[derive(Debug, Clone)]
pub struct MapOutput<V> {
    /// One key per GPU thread, in block-major thread order. Threads with
    /// nothing to contribute emit `SENTINEL_KEY`.
    pub keys: Vec<Key>,
    /// The value emitted by the thread that wrote `keys[i]`.
    pub values: Vec<V>,
    pub stats: LaunchStats,
}

impl<V> MapOutput<V> {
    /// Build from tuple-form `(key, value)` emissions.
    pub fn from_pairs(pairs: Vec<Pair<V>>, stats: LaunchStats) -> MapOutput<V> {
        let mut keys = Vec::with_capacity(pairs.len());
        let mut values = Vec::with_capacity(pairs.len());
        for (k, v) in pairs {
            keys.push(k);
            values.push(v);
        }
        MapOutput {
            keys,
            values,
            stats,
        }
    }

    /// Emissions (threads), including sentinel placeholders.
    pub fn len(&self) -> usize {
        debug_assert_eq!(self.keys.len(), self.values.len());
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterate emissions as `(key, &value)` lanes.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &V)> {
        self.keys.iter().copied().zip(self.values.iter())
    }
}

/// The Mapper: executes the (real) map kernel for each chunk.
///
/// "Mappers execute a ray-casting kernel on each Chunk. Each Mapper has an
/// initialization function that allocates static data on the GPU (e.g. view
/// matrix)." (§3.1.2)
pub trait GpuMapper<C: Chunk>: Send + Sync {
    type Value: WireValue;

    /// Called once per GPU before any chunk is mapped (static allocations).
    /// Returns the bytes of static device state (view matrices, transfer
    /// function LUT) uploaded during initialization.
    fn init(&self, _gpu: GpuId) -> u64 {
        0
    }

    /// Execute the map kernel against `chunk` on `gpu`.
    fn map_chunk(&self, gpu: GpuId, chunk: &C) -> MapOutput<Self::Value>;
}

/// The Reducer: folds all values of one key into one output.
///
/// For the renderer this is per-pixel compositing: "All ray fragments for a
/// given pixel are ascending-depth sorted, composited, and blended against
/// the background color." (§3.2)
pub trait Reducer: Send + Sync {
    type Value: WireValue;
    type Out: Send;

    /// `values` arrive in deterministic (mapper, emission) order; the
    /// reducer may reorder them freely (compositing depth-sorts).
    fn reduce(&self, key: Key, values: &mut Vec<Self::Value>) -> Self::Out;
}

/// Optional mapper-side partial reduction ("combine"). The paper *omitted*
/// this stage — "it didn't increase performance for our volume renderer"
/// (§3.1) — but the library supports it so the ablation bench can reproduce
/// that finding.
pub trait Combiner<V: WireValue>: Send + Sync {
    /// Combine values sharing `key` into (usually fewer) values, in place.
    fn combine(&self, key: Key, values: &mut Vec<V>);
}

/// A combiner for associative value merging (e.g. word-count sums).
pub struct FnCombiner<V, F>
where
    F: Fn(Key, &mut Vec<V>) + Send + Sync,
{
    f: F,
    _marker: std::marker::PhantomData<fn(V)>,
}

impl<V, F> FnCombiner<V, F>
where
    F: Fn(Key, &mut Vec<V>) + Send + Sync,
{
    pub fn new(f: F) -> Self {
        FnCombiner {
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<V: WireValue, F> Combiner<V> for FnCombiner<V, F>
where
    F: Fn(Key, &mut Vec<V>) + Send + Sync,
{
    fn combine(&self, key: Key, values: &mut Vec<V>) {
        (self.f)(key, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_combiner_sums() {
        let c = FnCombiner::new(|_k, vs: &mut Vec<u32>| {
            let s: u32 = vs.iter().sum();
            vs.clear();
            vs.push(s);
        });
        let mut vals = vec![1u32, 2, 3];
        c.combine(0, &mut vals);
        assert_eq!(vals, vec![6]);
    }
}
