//! Host-cost benchmark of the P3 simulator.
//!
//! ```text
//! p3-perfbench e2e <workload> <seed>     one end-to-end run
//! p3-perfbench setup <workload> <seed>   repeated `ClusterSim::new` calls
//! p3-perfbench layers <workload> <seed>  the per-layer ledger
//! ```
//!
//! Each measuring command prints one JSON object on one line: `ok`,
//! `errors` (failed checks), `absent` (metrics that could not be measured,
//! with the reason) and then every value by name. `perfbench/run.py`
//! drives these commands, repeats them and aggregates the results.
//!
//! `e2e` and `setup` also report `calib_s`: the mean host time of the
//! calibration kernel (`calib.rs`) timed right before and right after the
//! measurement, from which `run.py` scales their times to a reference
//! host speed.

mod calib;
mod layers;
mod replay;
mod report;
mod workload;

use p3_cluster::{ClusterSim, RunResult};
use report::Report;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;

/// `ClusterSim::new` calls per `setup` process; `setup_s` is their median.
const SETUP_REPS: usize = 1001;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let [cmd @ ("e2e" | "setup" | "layers"), name, seed] = args[..] else {
        return usage("expected `e2e|setup|layers <workload> <seed>`");
    };
    let Ok(seed) = seed.parse::<u64>() else {
        return usage("the seed must be an unsigned integer");
    };
    let Some(w) = Workload::named(name, seed) else {
        let known = workload::NAMES.join(", ");
        return usage(&format!("unknown workload {name}; known: {known}"));
    };
    let rep = match cmd {
        "e2e" => e2e(&w),
        "setup" => setup(&w),
        _ => layers::layers(&w),
    };
    println!("{}", rep.to_json());
    ExitCode::SUCCESS
}

fn usage(why: &str) -> ExitCode {
    eprintln!("p3-perfbench: {why}");
    ExitCode::from(2)
}

/// One end-to-end run as a user sees it, in a fresh process:
/// `ClusterSim::new`, then the run call (which records and audits the trace
/// where the workload does), between two calibrations.
fn e2e(w: &Workload) -> Report {
    let mut rep = Report::default();
    let before = calib::seconds();
    let started = Instant::now();
    let sim = ClusterSim::new(w.run_config());
    let run_started = Instant::now();
    let result = sim.try_run();
    let (wall, run) = (started.elapsed(), run_started.elapsed());
    rep.num("calib_s", (before + calib::seconds()) / 2.0);
    match result {
        Err(e) => rep.fail(format!("run: {e}")),
        Ok(r) => {
            rep.num("wall_s", wall.as_secs_f64());
            rep.num("sim_iters_per_s", w.worker_iters() / run.as_secs_f64());
            rep.fail_all(w.check(&r));
            deterministic(&mut rep, w, &r);
        }
    }
    rep
}

/// The median host time of [`SETUP_REPS`] `ClusterSim::new` calls, in a
/// process of its own (after a run the allocator's state depends on the
/// run, which makes the figure drift from process to process), between two
/// calibrations.
fn setup(w: &Workload) -> Report {
    let cfg = w.run_config();
    let before = calib::seconds();
    let mut times: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let cfg = cfg.clone();
            let started = Instant::now();
            let sim = black_box(ClusterSim::new(cfg));
            let s = started.elapsed().as_secs_f64();
            drop(sim);
            s
        })
        .collect();
    let mut rep = Report::default();
    rep.num("calib_s", (before + calib::seconds()) / 2.0);
    rep.num("setup_s", median(&mut times));
    rep
}

/// The simulated outputs of a run. They repeat exactly for one workload
/// and seed; they are recorded, not treated as performance.
fn deterministic(rep: &mut Report, w: &Workload, r: &RunResult) {
    rep.num("events", r.events as f64);
    rep.text("event_hash", &format!("{:#018x}", r.event_hash));
    rep.num("sim_seconds", r.finished_at.as_secs_f64());
    rep.num("throughput_img_s", r.throughput);
    if let Some(ratio) = w.omega_ratio(r) {
        rep.num("omega_ratio", ratio);
    }
}

/// The median of a non-empty sample (mean of the middle pair when even).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}
