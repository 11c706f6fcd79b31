//! Co-processing run reports.

use gsword_estimators::Estimate;
use gsword_simt::{KernelCounters, ProfReport, SanitizerReport};

/// Outcome of one co-processing run: both the pure sampler estimate and the
/// trawling estimate, with the timing components of Figure 16.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The GPU sampler's HT estimate across all batches.
    pub sampler: Estimate,
    /// Mean trawling contribution over completed trawl samples (the
    /// "separate estimate" of Section 5). `None` when no trawl sample
    /// completed enumeration in time.
    pub trawl: Option<f64>,
    /// Trawl samples that completed enumeration before their batch timeout.
    pub trawl_completed: u64,
    /// Trawl samples handed to the CPU side in total.
    pub trawl_attempted: u64,
    /// Merged device counters of all sampling batches.
    pub counters: KernelCounters,
    /// Modeled device milliseconds summed over batches.
    pub gpu_modeled_ms: f64,
    /// Wall-clock of the functional GPU simulation summed over batches.
    pub gpu_wall_ms: f64,
    /// Wall-clock of the whole co-processing run (sampling + overlapped
    /// enumeration + final barrier).
    pub total_wall_ms: f64,
    /// Merged sanitizer findings across all sampling batches, when the
    /// engine ran with `sanitize`.
    pub sanitizer: Option<SanitizerReport>,
    /// Profiler output across all batches (batch phases show up as
    /// host-track spans) when the engine ran with `profile`.
    pub prof: Option<ProfReport>,
}

impl PipelineReport {
    /// The final estimate: the trawling estimate when the pipeline
    /// completed any trawl samples (the regime it exists for), otherwise
    /// the sampler's estimate.
    pub fn value(&self) -> f64 {
        match self.trawl {
            Some(t) if self.trawl_completed > 0 => t,
            _ => self.sampler.value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> PipelineReport {
        PipelineReport {
            sampler: {
                let mut e = Estimate::default();
                e.record_valid(10.0);
                e.record_invalid();
                e
            },
            trawl: None,
            trawl_completed: 0,
            trawl_attempted: 8,
            counters: KernelCounters::default(),
            gpu_modeled_ms: 1.0,
            gpu_wall_ms: 2.0,
            total_wall_ms: 2.5,
            sanitizer: None,
            prof: None,
        }
    }

    #[test]
    fn falls_back_to_sampler_without_trawl() {
        let r = base();
        assert_eq!(r.value(), 5.0);
    }

    #[test]
    fn prefers_trawl_when_available() {
        let mut r = base();
        r.trawl = Some(42.0);
        r.trawl_completed = 3;
        assert_eq!(r.value(), 42.0);
    }
}
