//! Self-describing run metadata.
//!
//! Every telemetry artifact this workspace writes — `--metrics-out`
//! snapshots and flight-recorder dumps; perf trajectories belong to the
//! `benchmark/` harness (see `benchmark/README.md`) — should identify
//! *what produced it* without out-of-band context: the git revision,
//! the execution version / `OptFlags` label, the stochastic seed, a
//! hash of the full config, the crate version and the host. [`RunMeta`] collects exactly that block once and renders
//! it the same way everywhere.

use std::process::Command;

use crate::json::Json;

/// 64-bit FNV-1a — the same fingerprint the golden-report harness uses,
/// here to give configs a compact stable identity.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The short git SHA of the working tree, or `"unknown"` outside a
/// repository (e.g. an unpacked source tarball).
pub fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The metadata block stamped onto telemetry artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// Short git SHA of the producing tree (`"unknown"` outside git).
    pub git_sha: String,
    /// Execution version or `OptFlags` label, e.g. `"Q-GPU"` or
    /// `"overlap+pruning"`.
    pub label: String,
    /// Stochastic seed the run was keyed by.
    pub seed: u64,
    /// FNV-1a hash of the full rendered config, as `%016x`.
    pub config_hash: String,
    /// Version of the producing crate.
    pub crate_version: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Available hardware parallelism.
    pub cores: u64,
}

impl RunMeta {
    /// Collects the block: `label`/`seed` describe the run,
    /// `config_text` is any stable rendering of the full config (its
    /// FNV-1a hash becomes `config_hash`), `crate_version` is the
    /// caller's `env!("CARGO_PKG_VERSION")`.
    pub fn collect(label: &str, seed: u64, config_text: &str, crate_version: &str) -> Self {
        RunMeta {
            git_sha: git_sha(),
            label: label.to_string(),
            seed,
            config_hash: format!("{:016x}", fnv1a(config_text.as_bytes())),
            crate_version: crate_version.to_string(),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cores: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
        }
    }

    /// The `meta` JSON block.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("git_sha".to_string(), Json::Str(self.git_sha.clone())),
            ("label".to_string(), Json::Str(self.label.clone())),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            (
                "config_hash".to_string(),
                Json::Str(self.config_hash.clone()),
            ),
            (
                "crate_version".to_string(),
                Json::Str(self.crate_version.clone()),
            ),
            (
                "host".to_string(),
                Json::Obj(vec![
                    ("os".to_string(), Json::Str(self.os.clone())),
                    ("arch".to_string(), Json::Str(self.arch.clone())),
                    ("cores".to_string(), Json::Num(self.cores as f64)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_stable() {
        // Reference vectors for the 64-bit FNV-1a parameters.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"config a"), fnv1a(b"config b"));
    }

    #[test]
    fn meta_block_renders_all_fields() {
        let m = RunMeta::collect("Q-GPU", 7, "cfg{qubits:10}", "0.1.0");
        let j = m.to_json();
        assert_eq!(j.get("label").and_then(Json::as_str), Some("Q-GPU"));
        assert_eq!(j.get("seed").and_then(Json::as_f64), Some(7.0));
        assert_eq!(
            j.get("config_hash").and_then(Json::as_str).map(str::len),
            Some(16)
        );
        assert!(j.get("host").and_then(|h| h.get("cores")).is_some());
        // Same config text, same hash; different text, different hash.
        let m2 = RunMeta::collect("Q-GPU", 7, "cfg{qubits:10}", "0.1.0");
        assert_eq!(m.config_hash, m2.config_hash);
        let m3 = RunMeta::collect("Q-GPU", 7, "cfg{qubits:12}", "0.1.0");
        assert_ne!(m.config_hash, m3.config_hash);
    }
}
