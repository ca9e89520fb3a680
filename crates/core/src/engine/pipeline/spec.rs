//! The declarative pipeline specification: what a [`crate::Version`]
//! *means*, reduced to an execution mode plus optimization flags.
//!
//! The six named versions are six points in a larger configuration
//! space: the baseline's static allocation is an execution **mode**
//! (chunks pinned in place, reactive exchange), while the streaming
//! engine composes four independent optimization **flags**
//! ([`OptFlags`]). [`PipelineSpec::from_config`] is the single place
//! that mapping lives — the stages themselves never consult the
//! version again.

use crate::config::{OptFlags, SimConfig, Version};

/// How the state vector meets the device(s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExecMode {
    /// Qiskit-Aer-style static chunk allocation (paper §III-B): chunks
    /// `0..resident` pinned on the GPU(s), the rest on the host,
    /// reactive synchronous exchange for cross-boundary mixing.
    Static,
    /// Chunks stream through the GPU(s) per gate (paper §III-C …§IV),
    /// with the optimization flags layered on the shared round trip.
    Streaming,
}

/// The assembled pipeline configuration for one run: mode, optimization
/// subset, and the gate-batching extension toggle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PipelineSpec {
    pub(crate) mode: ExecMode,
    pub(crate) flags: OptFlags,
    /// Merge runs of chunk-local gates into one chunk round trip
    /// (the [`SimConfig::batch_local_gates`] extension). Streaming only:
    /// static mode has no round trip to share.
    pub(crate) batching: bool,
}

impl PipelineSpec {
    /// Derives the spec from a config: an explicit
    /// [`SimConfig::opts`] subset always streams with exactly those
    /// flags; otherwise the named version supplies its flag set, with
    /// [`Version::Baseline`] selecting the static mode.
    pub(crate) fn from_config(cfg: &SimConfig) -> Self {
        let (mode, flags) = match cfg.opts {
            Some(f) => (ExecMode::Streaming, f),
            None if cfg.version == Version::Baseline => (ExecMode::Static, OptFlags::default()),
            None => (ExecMode::Streaming, cfg.version.opt_flags()),
        };
        PipelineSpec {
            mode,
            flags,
            batching: mode == ExecMode::Streaming && cfg.batch_local_gates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_versions_map_to_their_flag_sets() {
        for v in Version::ALL {
            let spec = PipelineSpec::from_config(&SimConfig::scaled_paper(10).with_version(v));
            if v == Version::Baseline {
                assert_eq!(spec.mode, ExecMode::Static);
                assert_eq!(spec.flags, OptFlags::default());
            } else {
                assert_eq!(spec.mode, ExecMode::Streaming);
                assert_eq!(spec.flags, v.opt_flags(), "{v}");
            }
        }
    }

    #[test]
    fn explicit_opts_override_the_version_even_for_baseline() {
        let opts = OptFlags::parse("pruning+compression").unwrap();
        let cfg = SimConfig::scaled_paper(10)
            .with_version(Version::Baseline)
            .with_opts(opts);
        let spec = PipelineSpec::from_config(&cfg);
        assert_eq!(spec.mode, ExecMode::Streaming);
        assert_eq!(spec.flags, opts);
    }

    #[test]
    fn batching_rides_the_config_flag() {
        let cfg = SimConfig::scaled_paper(10).with_gate_batching();
        assert!(PipelineSpec::from_config(&cfg).batching);
        assert!(!PipelineSpec::from_config(&SimConfig::scaled_paper(10)).batching);
        // The baseline's static mode never batches, flag or not; an
        // explicit subset under it streams and does.
        let baseline = cfg.with_version(Version::Baseline);
        assert!(!PipelineSpec::from_config(&baseline).batching);
        let subset = baseline.with_opts(OptFlags::default());
        assert!(PipelineSpec::from_config(&subset).batching);
    }
}
