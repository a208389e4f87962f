//! # mgpu-gpu — the software GPU
//!
//! A CUDA-class device model for the reproduction: real computation, modeled
//! time. Kernels execute for real on host threads with CUDA grid/block/thread
//! index semantics through one launch engine: per-block execution into
//! structure-of-arrays buffers ([`kernel::BlockKernel`] +
//! [`kernel::launch_blocks`]). [`texture::Texture3D`] reproduces `tex3D`
//! trilinear filtering with clamp addressing (with [`texture::Sampler3D`] as
//! the resolved inner-loop view); [`vram::VramAllocator`] enforces the
//! paper's "map task must fit in GPU memory" restriction; and
//! [`device::KernelCostModel`] converts launch statistics (including SIMT
//! warp divergence) into simulated time on a Tesla C1060-class part.

pub mod device;
pub mod kernel;
pub mod texture;
pub mod vram;

pub use device::{Device, DeviceProps, KernelCostModel, KernelTimingMode};
pub use kernel::{
    launch_blocks, BlockCtx, BlockKernel, BlockOut, BlockOutput, LaunchConfig, LaunchStats,
    WARP_SIZE,
};
pub use texture::{Sampler1D, Sampler3D, Texture1D, Texture3D};
pub use vram::{AllocId, OutOfMemory, VramAllocator};
