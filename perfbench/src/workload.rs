//! The benchmark's workloads: fixed cluster configurations whose only free
//! input is the seed, plus the per-run checks every workload must pass.

use p3_cluster::bound::iteration_bound;
use p3_cluster::{BackendKind, ClusterConfig, RunResult};
use p3_core::{Slicing, SyncStrategy};
use p3_models::ModelSpec;
use p3_net::{Bandwidth, NetworkConfig};
use p3_topo::Topology;

/// Every workload name.
pub const NAMES: &[&str] = &["ps-flat-p3", "ring-flat", "ps-racks-audit"];

/// One benchmark workload: ResNet-50 at 10 Gbps, warmup 1, measure 2.
///
/// The clusters are sized so that one run takes 1–3 host seconds: a timed
/// invocation then holds 8–20 runs, enough for a steady median, and each
/// run is short enough for the calibrations around it (`calib.rs`) to
/// track the host's speed during it. Each keeps the character of its
/// layer: allocator-bound PS, per-call-bound ring, link-graph racks.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The configuration the untraced end-to-end run simulates.
    pub cfg: ClusterConfig,
    /// True when the end-to-end run records the trace and audits it
    /// inline, as `p3 simulate --audit` does.
    pub audited: bool,
}

impl Workload {
    /// The workload called `name`, seeded with `seed`; `None` for an
    /// unknown name.
    pub fn named(name: &str, seed: u64) -> Option<Workload> {
        let model = ModelSpec::resnet50();
        let nic = Bandwidth::from_gbps(10.0);
        let (cfg, audited) = match name {
            "ps-flat-p3" => (
                ClusterConfig::new(model, SyncStrategy::p3(), 12, nic),
                false,
            ),
            "ring-flat" => {
                // Collectives want coarse slices: 2M parameters is the
                // slice-size sweep's collective plateau (as `p3 bench`).
                let mut strategy = SyncStrategy::p3();
                strategy.slicing = Slicing::MaxParams(2_000_000);
                let cfg =
                    ClusterConfig::new(model, strategy, 16, nic).with_backend(BackendKind::Ring);
                (cfg, false)
            }
            "ps-racks-audit" => {
                let topo = Topology::parse_spec("racks=4,size=3,oversub=4")
                    .expect("the rack topology spec is a valid literal");
                let cfg = ClusterConfig::new(model, SyncStrategy::p3(), topo.machines(), nic)
                    .with_topology(topo);
                (cfg, true)
            }
            _ => return None,
        };
        Some(Workload {
            cfg: cfg.with_iters(1, 2).with_seed(seed),
            audited,
        })
    }

    /// The configuration of the end-to-end run: the workload's own, with
    /// the inline audit switched on where the workload has one.
    pub fn run_config(&self) -> ClusterConfig {
        if self.audited {
            self.cfg.clone().with_audit()
        } else {
            self.cfg.clone()
        }
    }

    /// Simulated worker-iterations one run completes (machines ×
    /// iterations, warmup included).
    pub fn worker_iters(&self) -> f64 {
        (self.cfg.machines as u64 * (self.cfg.warmup_iters + self.cfg.measure_iters)) as f64
    }

    /// The fabric `ClusterSim::new` builds for this configuration. The
    /// replay's every-`WireEnd`-reproduced check is what keeps the two in
    /// step.
    pub fn network_config(&self) -> NetworkConfig {
        let cfg = &self.cfg;
        let net = NetworkConfig::new(cfg.machines, cfg.bandwidth)
            .with_latency(cfg.latency)
            .with_efficiency(cfg.net_efficiency)
            .with_flow_cap(cfg.flow_cap);
        match &cfg.topology {
            Some(topo) => net.with_link_graph(topo.compile(cfg.bandwidth)),
            None => net,
        }
    }

    /// Mean iteration over the analytic Ω-bound: at least 1 for a correct
    /// parameter-server run, `None` for the collective backends (the
    /// bound models PS traffic only).
    pub fn omega_ratio(&self, r: &RunResult) -> Option<f64> {
        if self.cfg.backend != BackendKind::Ps {
            return None;
        }
        let limit = iteration_bound(&self.cfg).limit();
        Some(r.mean_iteration.as_nanos() as f64 / limit.as_nanos() as f64)
    }

    /// The per-run checks on a finished result; each failure is one line.
    pub fn check(&self, r: &RunResult) -> Vec<String> {
        let mut errors = Vec::new();
        if let Some(ratio) = self.omega_ratio(r) {
            if ratio < 1.0 {
                errors.push(format!(
                    "mean iteration {} beats the Ω-bound (ratio {ratio})",
                    r.mean_iteration
                ));
            }
        }
        errors
    }
}
