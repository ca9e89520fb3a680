//! Resilient multi-device orchestration: device loss, work stealing,
//! link degradation and memory-pressure budgets stay bit-exact (or fail
//! with a typed error when no device survives).

use qgpu_circuit::generators::Benchmark;
use qgpu_device::Platform;
use qgpu_faults::{FaultConfig, SimError};
use qgpu_sched::devicegroup::OrchestratorConfig;

use super::assert_bitwise_eq;
use crate::config::{SimConfig, Version};
use crate::engine::Simulator;

/// A miniaturized `d`-device fleet at the paper's residency ratio.
fn fleet_cfg(n: usize, d: usize, v: Version) -> SimConfig {
    let p = Platform::scaled_paper_p100(n).with_devices(d);
    SimConfig::new(p).with_version(v)
}

#[test]
fn orchestrated_fault_free_run_matches_plain_and_never_migrates() {
    // Turning orchestration on without any fault or budget must be
    // invisible: same modeled time, same bytes, zero migrations.
    let n = 11;
    let c = Benchmark::Qft.generate(n);
    for v in [Version::Overlap, Version::QGpu] {
        let plain = Simulator::new(fleet_cfg(n, 4, v)).run(&c);
        let orch =
            Simulator::new(fleet_cfg(n, 4, v).with_orchestration(OrchestratorConfig::default()))
                .run(&c);
        assert_bitwise_eq(
            plain.state.as_ref().expect("collected"),
            orch.state.as_ref().expect("collected"),
        );
        assert_eq!(
            plain.report.total_time, orch.report.total_time,
            "{v}: orchestration changed fault-free modeled time"
        );
        assert_eq!(orch.report.devices_lost, 0);
        assert_eq!(orch.report.chunks_migrated, 0);
        assert_eq!(orch.report.steals, 0, "{v}: healthy run migrated work");
        assert_eq!(orch.report.pressure_downshifts, 0);
    }
}

#[test]
fn device_loss_recovers_bit_exactly_with_modeled_cost() {
    let n = 12;
    let c = Benchmark::Qft.generate(n);
    for v in [Version::Naive, Version::Overlap, Version::QGpu] {
        let clean = Simulator::new(fleet_cfg(n, 4, v)).run(&c);
        let faults = FaultConfig {
            device_lost_at: 5,
            device_lost_id: 1,
            ..FaultConfig::default()
        };
        let lossy = Simulator::new(fleet_cfg(n, 4, v).with_faults(faults))
            .try_run(&c)
            .expect("three survivors must absorb one loss");
        assert_bitwise_eq(
            clean.state.as_ref().expect("collected"),
            lossy.state.as_ref().expect("collected"),
        );
        assert_eq!(lossy.report.devices_lost, 1, "{v}");
        assert!(
            lossy.report.total_time > clean.report.total_time,
            "{v}: recovery must cost modeled time ({} vs {})",
            lossy.report.total_time,
            clean.report.total_time
        );
    }
}

#[test]
fn device_loss_mid_run_migrates_replay_work() {
    // Lose a device deep enough into the run that its since-barrier
    // log is non-empty: the replay shows up as migrated chunks.
    let n = 12;
    let c = Benchmark::Qft.generate(n);
    let faults = FaultConfig {
        device_lost_at: 20,
        device_lost_id: 2,
        ..FaultConfig::default()
    };
    let lossy = Simulator::new(fleet_cfg(n, 4, Version::Overlap).with_faults(faults))
        .try_run(&c)
        .expect("survivors absorb the loss");
    assert_eq!(lossy.report.devices_lost, 1);
    assert!(
        lossy.report.chunks_migrated > 0,
        "no chunks migrated on a mid-run loss"
    );
}

#[test]
fn losing_the_only_device_is_a_typed_error() {
    let c = Benchmark::Qft.generate(10);
    let faults = FaultConfig {
        device_lost_at: 3,
        device_lost_id: 0,
        ..FaultConfig::default()
    };
    let err = Simulator::new(fleet_cfg(10, 1, Version::Overlap).with_faults(faults))
        .try_run(&c)
        .expect_err("no survivors: the run cannot continue");
    assert!(
        matches!(err, SimError::AllDevicesLost { device: 0 }),
        "unexpected error: {err}"
    );
}

#[test]
fn straggler_triggers_steals_and_stays_bit_exact() {
    let n = 12;
    let c = Benchmark::Qft.generate(n);
    let clean = Simulator::new(fleet_cfg(n, 4, Version::Overlap)).run(&c);
    let faults = FaultConfig {
        straggler_device: 1,
        slowdown_factor: 8.0,
        ..FaultConfig::default()
    };
    let slow = Simulator::new(fleet_cfg(n, 4, Version::Overlap).with_faults(faults))
        .try_run(&c)
        .expect("a straggler is not fatal");
    assert_bitwise_eq(
        clean.state.as_ref().expect("collected"),
        slow.state.as_ref().expect("collected"),
    );
    assert!(
        slow.report.steals > 0,
        "an 8x straggler must shed work to its peers"
    );
    assert_eq!(slow.report.devices_lost, 0);
}

#[test]
fn link_degradation_counts_and_stays_bit_exact() {
    let n = 11;
    let c = Benchmark::Qft.generate(n);
    let clean = Simulator::new(fleet_cfg(n, 2, Version::Overlap)).run(&c);
    let faults = FaultConfig {
        p_link_degraded: 0.05,
        ..FaultConfig::default()
    };
    let degraded = Simulator::new(fleet_cfg(n, 2, Version::Overlap).with_faults(faults))
        .try_run(&c)
        .expect("degraded links only slow the run");
    assert_bitwise_eq(
        clean.state.as_ref().expect("collected"),
        degraded.state.as_ref().expect("collected"),
    );
    assert!(degraded.report.link_degradations > 0);
    assert!(degraded.report.total_time > clean.report.total_time);
}

#[test]
fn memory_budget_degrades_but_never_exceeds_the_budget() {
    let n = 12;
    let c = Benchmark::Qft.generate(n);
    let clean = Simulator::new(fleet_cfg(n, 2, Version::Overlap)).run(&c);
    // A budget of four base chunks per device: tight enough to bind
    // on a fleet whose window would otherwise hold more.
    let chunk_bytes = 16u64 << fleet_cfg(n, 2, Version::Overlap).chunk_bits_for(n);
    let budget = 4 * chunk_bytes;
    let tight = Simulator::new(fleet_cfg(n, 2, Version::Overlap).with_mem_budget(budget))
        .try_run(&c)
        .expect("pressure degrades, never fails");
    assert_bitwise_eq(
        clean.state.as_ref().expect("collected"),
        tight.state.as_ref().expect("collected"),
    );
    assert!(
        tight.report.peak_resident_bytes <= budget,
        "peak residency {} exceeded budget {budget}",
        tight.report.peak_resident_bytes
    );
    assert!(tight.report.peak_resident_bytes > 0);
}
