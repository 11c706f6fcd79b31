//! Launch geometry, the software device handle, and the device-time model.

use crate::counters::KernelCounters;
use gsword_sanitizer::{Sanitizer, WarpSanitizer};

/// Kernel launch geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Thread blocks per launch.
    pub num_blocks: usize,
    /// Threads per block; must be a multiple of 32.
    pub threads_per_block: usize,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            num_blocks: 46,
            threads_per_block: 256,
        }
    }
}

impl DeviceConfig {
    /// Checked constructor: rejects geometries the SIMT model cannot
    /// execute instead of panicking later inside a launch. The block size
    /// must be a positive multiple of 32 (whole warps only — a ragged
    /// trailing warp would need per-lane predication the lockstep model
    /// deliberately does not have), and the grid must be non-empty.
    pub fn checked(num_blocks: usize, threads_per_block: usize) -> Result<Self, ConfigError> {
        if threads_per_block == 0 || !threads_per_block.is_multiple_of(32) {
            return Err(ConfigError::RaggedBlock { threads_per_block });
        }
        if num_blocks == 0 {
            return Err(ConfigError::EmptyGrid);
        }
        Ok(DeviceConfig {
            num_blocks,
            threads_per_block,
        })
    }

    /// Warps per block.
    pub fn warps_per_block(&self) -> usize {
        debug_assert!(
            self.threads_per_block > 0 && self.threads_per_block.is_multiple_of(32),
            "DeviceConfig bypassed validation: threads_per_block = {} is not a \
             positive multiple of 32 (use DeviceConfig::checked)",
            self.threads_per_block
        );
        self.threads_per_block / 32
    }

    /// Total device threads in the launch.
    pub fn total_threads(&self) -> usize {
        self.num_blocks * self.threads_per_block
    }
}

/// Rejected launch geometry from [`DeviceConfig::checked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `threads_per_block` is zero or not a multiple of 32.
    RaggedBlock { threads_per_block: usize },
    /// `num_blocks` is zero.
    EmptyGrid,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::RaggedBlock { threads_per_block } => write!(
                f,
                "threads_per_block = {threads_per_block} must be a positive multiple of 32"
            ),
            ConfigError::EmptyGrid => write!(f, "num_blocks must be positive"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The software device: a launch geometry plus its checking layer. Kernels
/// run on it through [`crate::Runtime`], whose streams execute the blocks.
#[derive(Debug, Clone, Default)]
pub struct Device {
    /// Launch configuration.
    pub config: DeviceConfig,
    /// Attached checking layer; the default is the disabled (zero-cost)
    /// handle. Kernel bodies obtain per-warp handles via
    /// [`Device::warp_sanitizer`].
    pub sanitizer: Sanitizer,
}

impl Device {
    /// Create a device with the given configuration and no sanitizer.
    pub fn new(config: DeviceConfig) -> Self {
        Device::with_sanitizer(config, Sanitizer::off())
    }

    /// Create a device with a checking layer attached. Every launch on
    /// this device reports into the same sanitizer.
    pub fn with_sanitizer(config: DeviceConfig, sanitizer: Sanitizer) -> Self {
        assert!(
            config.threads_per_block.is_multiple_of(32),
            "block size must be a multiple of 32"
        );
        assert!(config.num_blocks > 0 && config.threads_per_block > 0);
        Device { config, sanitizer }
    }

    /// Per-warp sanitizer handle for kernel bodies (the disabled handle
    /// when no sanitizer is attached).
    pub fn warp_sanitizer(&self, block: usize, warp: usize) -> WarpSanitizer {
        self.sanitizer.warp(block, warp)
    }
}

/// Analytic device-time model converting [`KernelCounters`] into estimated
/// kernel milliseconds on an RTX 2080 Ti-class GPU.
///
/// The model is deliberately simple: the kernel is issue-bound or
/// bandwidth-bound, whichever is worse, plus a fixed launch overhead.
/// Divergence replays consume issue slots. Absolute values are indicative;
/// *ratios* between kernel variants (which share the model) are the
/// reproduction target. See DESIGN.md §1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceModel {
    /// Streaming multiprocessors.
    pub num_sms: u32,
    /// Warp instructions each SM can issue per cycle.
    pub issue_per_sm_per_cycle: f64,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// DRAM bandwidth in GB/s.
    pub dram_gbps: f64,
    /// Fixed launch overhead in milliseconds.
    pub launch_overhead_ms: f64,
    /// Average issue cycles per warp instruction (pipeline + dependency
    /// stalls not otherwise modeled).
    pub cycles_per_instruction: f64,
}

impl Default for DeviceModel {
    /// RTX 2080 Ti: 68 SMs, 1.35 GHz, 616 GB/s.
    fn default() -> Self {
        DeviceModel {
            num_sms: 68,
            issue_per_sm_per_cycle: 1.0,
            clock_ghz: 1.35,
            dram_gbps: 616.0,
            launch_overhead_ms: 0.03,
            cycles_per_instruction: 6.0,
        }
    }
}

impl DeviceModel {
    /// Modeled kernel time in milliseconds for the merged counters of one
    /// launch.
    pub fn modeled_ms(&self, c: &KernelCounters) -> f64 {
        let instructions = (c.alu_instructions + c.mem_instructions + c.divergent_replays) as f64;
        let issue_rate_per_ms =
            self.num_sms as f64 * self.issue_per_sm_per_cycle * self.clock_ghz * 1e6
                / self.cycles_per_instruction;
        let compute_ms = instructions / issue_rate_per_ms;
        let bytes = c.mem_transactions as f64 * 128.0;
        let mem_ms = bytes / (self.dram_gbps * 1e6);
        self.launch_overhead_ms + compute_ms.max(mem_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn rejects_ragged_blocks() {
        Device::new(DeviceConfig {
            num_blocks: 1,
            threads_per_block: 33,
        });
    }

    #[test]
    fn model_monotonic_in_transactions() {
        let m = DeviceModel::default();
        let mut a = KernelCounters::default();
        let mut b = KernelCounters::default();
        for _ in 0..1000 {
            a.warp_load(32, 2);
            b.warp_load(32, 30);
        }
        assert!(m.modeled_ms(&b) > m.modeled_ms(&a));
    }

    #[test]
    fn model_monotonic_in_instructions() {
        let m = DeviceModel::default();
        let mut a = KernelCounters::default();
        let mut b = KernelCounters::default();
        for _ in 0..10_000 {
            a.warp_instruction(u32::MAX);
            b.warp_instruction(u32::MAX);
            b.warp_instruction(u32::MAX);
        }
        assert!(m.modeled_ms(&b) > m.modeled_ms(&a));
    }

    #[test]
    fn model_includes_launch_overhead() {
        let m = DeviceModel::default();
        let c = KernelCounters::default();
        assert!((m.modeled_ms(&c) - m.launch_overhead_ms).abs() < 1e-12);
    }

    #[test]
    fn checked_rejects_bad_geometry() {
        assert_eq!(
            DeviceConfig::checked(4, 33),
            Err(ConfigError::RaggedBlock {
                threads_per_block: 33
            })
        );
        assert_eq!(
            DeviceConfig::checked(4, 0),
            Err(ConfigError::RaggedBlock {
                threads_per_block: 0
            })
        );
        assert_eq!(DeviceConfig::checked(0, 64), Err(ConfigError::EmptyGrid));
        let err = DeviceConfig::checked(4, 48).unwrap_err();
        assert!(err.to_string().contains("multiple of 32"), "{err}");
    }

    #[test]
    fn checked_accepts_whole_warps() {
        let c = DeviceConfig::checked(4, 128).unwrap();
        assert_eq!(c.num_blocks, 4);
        assert_eq!(c.threads_per_block, 128);
        assert_eq!(c.warps_per_block(), 4);
    }

    #[test]
    fn config_geometry() {
        let c = DeviceConfig {
            num_blocks: 4,
            threads_per_block: 128,
        };
        assert_eq!(c.warps_per_block(), 4);
        assert_eq!(c.total_threads(), 512);
    }
}
