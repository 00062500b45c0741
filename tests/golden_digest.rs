//! Golden-digest pins for the parameter-server path, on the flat fabric
//! and on an oversubscribed multi-rack fabric, plus a ResNet-50 P3 run
//! whose many live priority classes exercise the allocator's class loop.
//!
//! The engine decomposition (DESIGN.md §11) promised that splitting
//! `ClusterSim` into layers would be behaviour-preserving: the PS path
//! must produce **bit-identical traces** to the pre-refactor monolith.
//! This test pins that promise to a constant captured from the
//! pre-refactor build. If it ever fails, the engine changed observable
//! scheduling behaviour — either revert, or (for an intentional protocol
//! change) regenerate the constant and call the change out in the PR.

use p3::cluster::{ClusterConfig, ClusterSim};
use p3::core::SyncStrategy;
use p3::models::{BlockKind, ComputeBlock, ModelSpec, ParamArray, SampleUnit};
use p3::net::Bandwidth;
use p3::topo::Topology;
use p3::trace::export_trace_json;

/// Digest of the exported trace for [`golden_config`], captured from the
/// pre-refactor monolithic `sim.rs` (commit 6ef229d lineage), re-pinned
/// when the export metadata gained the `collective` field (the event
/// stream, throughput bits, and event count are unchanged from the
/// original capture — only the embedded `p3Meta` header grew).
const GOLDEN_TRACE_FNV: u64 = 0x425b_a9d2_bb57_3d7a;
/// Throughput bits for the same run.
const GOLDEN_THROUGHPUT_BITS: u64 = 0x40a3_86b6_3905_ca76;
/// Simulator events processed for the same run.
const GOLDEN_EVENTS: u64 = 1639;

/// Digest, throughput bits and event count of [`racks_config`]: the same
/// run on 2 racks x 2 behind a 4:1 core. Its `WireEnd` records name each
/// message's bottleneck link, so this pins the link-graph allocator's
/// path order and bottleneck scan, which the flat run never exercises.
const GOLDEN_RACKS: (u64, u64, u64) = (0x15fd_42c2_8c6c_52ca, 0x408f_f682_bbca_e045, 1472);

/// Event hash, throughput bits and event count of [`resnet_config`].
/// TinyDet has few slices, so only a handful of priority classes are ever
/// live in the allocator at once; ResNet-50 under P3 has one class per
/// parameter slice, and on this slow fabric, with the default per-flow
/// cap binding, each reallocation sees 11 classes on average and up to
/// 18. Captured before the allocator moved to class-indexed filling
/// (DESIGN.md §9).
const GOLDEN_RESNET: (u64, u64, u64) = (0x6d62_a5b3_3180_2792, 0x405a_8000_0bb6_5b65, 8199);

/// Same skewed three-block model as `tests/determinism.rs`: fast to run
/// in debug builds, still exercises slicing, priorities, and stalls.
fn tiny_model() -> ModelSpec {
    let blocks = vec![
        ComputeBlock::new(
            "conv1",
            BlockKind::Conv,
            40_000_000,
            vec![ParamArray::new("conv1.weight", 40_000)],
        ),
        ComputeBlock::new(
            "conv2",
            BlockKind::Conv,
            40_000_000,
            vec![ParamArray::new("conv2.weight", 120_000)],
        ),
        ComputeBlock::new(
            "head",
            BlockKind::Dense,
            10_000_000,
            vec![
                ParamArray::new("head.weight", 900_000),
                ParamArray::new("head.bias", 3_000),
            ],
        ),
    ];
    ModelSpec::from_blocks("TinyDet", SampleUnit::Images, blocks, 800.0, 32, 0.0)
}

fn golden_config() -> ClusterConfig {
    ClusterConfig::new(
        tiny_model(),
        SyncStrategy::p3(),
        4,
        Bandwidth::from_gbps(5.0),
    )
    .with_iters(1, 2)
    .with_seed(7)
    .with_slice_trace()
}

/// ResNet-50, P3, 4 machines on the flat fabric at 2 Gbps, no warmup and
/// one measured iteration, default `flow_cap`.
fn resnet_config() -> ClusterConfig {
    ClusterConfig::new(
        ModelSpec::resnet50(),
        SyncStrategy::p3(),
        4,
        Bandwidth::from_gbps(2.0),
    )
    .with_iters(0, 1)
    .with_seed(42)
}

fn racks_config() -> ClusterConfig {
    golden_config().with_topology(Topology::new(2, 2, 4.0))
}

fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs `cfg` traced and returns (exported trace, throughput bits, events).
fn run_traced(cfg: ClusterConfig) -> (String, u64, u64) {
    let meta = cfg.trace_meta();
    let (result, log) = ClusterSim::new(cfg)
        .try_run_traced()
        .expect("golden config must run clean");
    let log = log.expect("slice tracing was enabled");
    let doc = export_trace_json(&log, &meta);
    (doc, result.throughput.to_bits(), result.events)
}

#[test]
fn ps_trace_digest_matches_pre_refactor_golden() {
    let (doc, throughput_bits, events) = run_traced(golden_config());
    let digest = fnv(&doc);
    assert_eq!(
        (digest, throughput_bits, events),
        (GOLDEN_TRACE_FNV, GOLDEN_THROUGHPUT_BITS, GOLDEN_EVENTS),
        "PS-path trace diverged from the pre-refactor golden digest \
         (got fnv={digest:#018x} throughput_bits={throughput_bits:#018x} events={events})",
    );
}

#[test]
fn racks_trace_digest_matches_golden() {
    let (doc, throughput_bits, events) = run_traced(racks_config());
    // Links 0..8 are the four machines' ports; 8..12 the racks' up and
    // down links. The pin is only worth having if the core binds.
    assert!(
        (8..12).any(|l| doc.contains(&format!("\"bottleneck\": {l}}}"))),
        "no message was bottlenecked on a core link"
    );
    let got = (fnv(&doc), throughput_bits, events);
    assert_eq!(
        got, GOLDEN_RACKS,
        "multi-rack PS trace diverged from its golden digest (got {got:#018x?})",
    );
}

#[test]
fn resnet_p3_event_hash_matches_golden() {
    let r = ClusterSim::new(resnet_config())
        .try_run()
        .expect("ResNet-50 golden config must run clean");
    let got = (r.event_hash, r.throughput.to_bits(), r.events);
    assert_eq!(
        got, GOLDEN_RESNET,
        "ResNet-50 P3 run diverged from its golden event hash (got {got:#018x?})",
    );
}
