//! The one CPU-feature probe behind every loop the workspace compiles
//! twice.
//!
//! The GFC size walk (`qgpu-compress`) and the gate kernels
//! (`qgpu-statevec`) each keep one body, instantiated portable and again
//! with AVX-512 target features. Which instantiation runs is decided here,
//! once per process, from the running CPU — never from build flags.

use std::sync::OnceLock;

/// Whether the running CPU has every feature a wide instantiation in the
/// workspace enables: AVX-512 F, CD and VL, and LZCNT.
///
/// Detected on the first call; every later call reads the cached answer.
pub fn wide() -> bool {
    static WIDE: OnceLock<bool> = OnceLock::new();
    *WIDE.get_or_init(detect)
}

#[cfg(target_arch = "x86_64")]
fn detect() -> bool {
    use std::arch::is_x86_feature_detected as has;
    has!("avx512f") && has!("avx512cd") && has!("avx512vl") && has!("lzcnt")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> bool {
    false
}
