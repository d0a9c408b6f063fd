//! Host self-profiler regression: profiling is pure observation.
//!
//! `profile_host` threads wall-clock spans through the run loop, which is
//! exactly the kind of change that could perturb results if it ever
//! leaked into model state. These tests pin the contract at the strictest
//! observable boundary: with profiling on or off, the exported report
//! (stats, stall fractions, audit ledger, telemetry series) and the
//! sampled Chrome trace must be byte-identical. A second test checks the
//! profiler's own output is structurally sound: every run-loop phase the
//! model exercises is present, and the attribution stays within the
//! run's wall time.

use gmh::core::{GpuConfig, GpuSim};
use gmh::exp::{chrome_trace_json, report_json, utilization_table};
use gmh::types::prof::HostPhase;
use gmh::workloads::spec::{AddressMix, PhaseSpec, Suite, WorkloadSpec};

/// A small machine (4 cores, 4 banks, 2 channels) that stays fast.
fn small_gpu() -> GpuConfig {
    let mut c = GpuConfig::gtx480_baseline();
    c.n_cores = 4;
    c.n_l2_banks = 4;
    c.n_channels = 2;
    c.dram.n_channels = 2;
    c.l2_bank.set_stride = 4;
    c.l2_bank.size_bytes = 256 * 1024 / 4;
    c.max_core_cycles = 60_000;
    c.trace_sample = 4;
    c
}

fn workload() -> WorkloadSpec {
    WorkloadSpec {
        name: "host-prof-mix",
        suite: Suite::Parboil,
        full_name: "mixed archetype for host-profiler equivalence",
        warps_per_core: 16,
        insts_per_warp: 200,
        code_lines: 4,
        mem_fraction: 0.4,
        write_fraction: 0.15,
        ilp: 4,
        alu_latency: 8,
        alu_dep_fraction: 0.1,
        accesses_per_mem: 2,
        mix: AddressMix::new(0.5, 0.25, 0.25),
        hot_lines: 64,
        shared_lines: 2048,
        coherent_stream: false,
        phases: PhaseSpec::STEADY,
        seed: 1234,
    }
}

#[test]
fn profiling_leaves_reports_and_traces_byte_identical() {
    let wl = workload();
    let off_cfg = small_gpu();
    let mut on_cfg = off_cfg.clone();
    on_cfg.profile_host = true;

    let off = GpuSim::new(off_cfg, &wl).run();
    let mut on_sim = GpuSim::new(on_cfg, &wl);
    let on = on_sim.run();
    assert_eq!(
        report_json("host-prof", wl.name, &off),
        report_json("host-prof", wl.name, &on),
        "profiling must not change a byte of the report"
    );
    assert_eq!(
        chrome_trace_json(wl.name, &off.trace),
        chrome_trace_json(wl.name, &on.trace),
        "profiling must not change a byte of the trace"
    );
    // And the profiled run did actually profile.
    let report = on_sim.take_host_report().expect("profile_host was on");
    assert!(report.phase_count(HostPhase::CoreTick) > 0);
}

#[test]
fn profile_populates_every_run_loop_phase() {
    let wl = workload();
    let mut cfg = small_gpu();
    cfg.profile_host = true;
    let mut sim = GpuSim::new(cfg, &wl);
    sim.run();
    let r = sim.take_host_report().expect("profile_host was on");
    assert!(r.wall_ns > 0);

    // Every clock-domain tick phase, the nested L2 sub-phase, telemetry
    // and the end-of-run flush all fire on a full-model run.
    for phase in [
        HostPhase::CoreTick,
        HostPhase::IcntTick,
        HostPhase::L2Tick,
        HostPhase::DramTick,
        HostPhase::Telemetry,
        HostPhase::SchedResched,
    ] {
        assert!(r.phase_count(phase) > 0, "records {phase:?} spans");
    }
    // L2 time nests inside icnt time, and the run loop's busy time
    // (top-level phases only) fits inside the wall time.
    assert!(r.phase_total_ns(HostPhase::L2Tick) <= r.phase_total_ns(HostPhase::IcntTick));
    assert!(r.busy_ns() <= r.wall_ns, "{} > {}", r.busy_ns(), r.wall_ns);

    let table = utilization_table(&r);
    assert!(table.contains("icnt_tick") && table.contains("l2_tick"));
}
