//! Golden outputs: one small traced run per memory model, pinned by
//! stable hashes of everything it exports.
//!
//! The other equivalence tests compare two execution strategies inside
//! one build (event core against the naive loop, traced against
//! untraced). Both sides of such a comparison share the trace sink, the
//! report writer and the audit ledger, so a change that moves all of them
//! the same way passes unnoticed. These hashes were taken from an earlier
//! build and pin the absolute bytes instead: the report JSON, the sampled
//! Chrome trace JSON and the fetch-conservation ledger.
//!
//! A deliberate model change that moves the output updates the constants
//! below; the failure message prints the new values.

use gmh::core::config::MemoryModel;
use gmh::core::{GpuConfig, GpuSim};
use gmh::exp::{chrome_trace_json, report_json};
use gmh::types::hash::stable_hash_str;
use gmh::workloads::spec::{AddressMix, PhaseSpec, Suite, WorkloadSpec};

fn small_gpu(model: MemoryModel) -> GpuConfig {
    let mut c = GpuConfig::gtx480_baseline();
    c.n_cores = 4;
    c.n_l2_banks = 4;
    c.n_channels = 2;
    c.dram.n_channels = 2;
    c.l2_bank.set_stride = 4;
    c.l2_bank.size_bytes = 256 * 1024 / 4;
    c.max_core_cycles = 200_000;
    c.trace_sample = 4;
    c.memory_model = model;
    c
}

fn workload() -> WorkloadSpec {
    WorkloadSpec {
        name: "golden-mix",
        suite: Suite::Parboil,
        full_name: "mixed archetype for golden output hashes",
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

/// `(report, chrome trace, audit ledger)` hashes of one traced run.
fn hashes(model: MemoryModel) -> [u64; 3] {
    let wl = workload();
    let stats = GpuSim::new(small_gpu(model), &wl).run();
    assert!(stats.trace.sampled > 0, "the run must sample fetches");
    let a = stats.audit;
    let ledger = format!(
        "emitted={} returned={} absorbed={} in_flight={} sampled={} events={}",
        a.emitted,
        a.returned,
        a.absorbed,
        a.in_flight,
        stats.trace.sampled,
        stats.trace.events.len()
    );
    [
        stable_hash_str(&report_json("gtx480_small", wl.name, &stats)),
        stable_hash_str(&chrome_trace_json(wl.name, &stats.trace)),
        stable_hash_str(&ledger),
    ]
}

fn check(model: MemoryModel, expected: [u64; 3]) {
    let got = hashes(model.clone());
    assert_eq!(
        got, expected,
        "{model:?}: [report, trace, ledger] hashes moved; got [{:#018x}, {:#018x}, {:#018x}]",
        got[0], got[1], got[2]
    );
}

#[test]
fn full_model_outputs_match_the_golden_hashes() {
    check(
        MemoryModel::Full,
        [0x85f2f7d1fc27cf41, 0xbce148917fc37480, 0x5582cd57b66494fe],
    );
}

#[test]
fn fixed_l1_miss_latency_outputs_match_the_golden_hashes() {
    check(
        MemoryModel::FixedL1MissLatency(120),
        [0x8b472381acc42e97, 0x12181eb3929cabd3, 0xb420a49d80605d17],
    );
}

#[test]
fn infinite_bw_outputs_match_the_golden_hashes() {
    check(
        MemoryModel::InfiniteBw {
            l2_hit: 120,
            dram: 220,
        },
        [0xd88bc5ffd91615f3, 0xa43035cb044a3955, 0xdb6817e29f6b3c7e],
    );
}

#[test]
fn infinite_dram_outputs_match_the_golden_hashes() {
    check(
        MemoryModel::InfiniteDram { latency: 100 },
        [0xdec00faf7f241549, 0x9f437ba3d77c4f76, 0xc4f46970574059d8],
    );
}
