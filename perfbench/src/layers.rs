//! The per-layer ledger of one workload: an untraced, a traced and a
//! profiled run of it, a replay of its flows through a fresh `Network`,
//! the audit of its trace, and a hold test of the event calendar.
//!
//! The engine's profiler timers are inclusive. The nesting assumed when
//! turning them into self times is: every `dispatch/*` span sits directly
//! in the run loop; `net/poll`, `net/start_flow` and `backend/delivered`
//! sit inside a `dispatch/*` span and not inside each other. Backend
//! callbacks that send a message break the last assumption (their
//! `net/start_flow` spans lie inside `backend/delivered`), so
//! `engine.dispatch_self_s` can undercount by up to
//! `engine.nesting_slack_s`.

use crate::replay::{compare, flows_of, replay, CallTimer, RateDiff};
use crate::report::Report;
use crate::workload::Workload;
use p3_audit::AuditOptions;
use p3_cluster::ClusterSim;
use p3_des::{EventQueue, SimDuration, SimTime, SplitMix64};
use p3_prof::ProfileReport;
use std::hint::black_box;
use std::time::Instant;

/// Largest share of the profiled run's wall time by which its self times
/// may miss it before the ledger is flagged.
const LEDGER_TOLERANCE: f64 = 0.03;

/// Calendar operations per hold-test batch.
const HOLD_OPS: u32 = 1 << 20;

/// Hold-test batches; the median is reported.
const HOLD_BATCHES: usize = 5;

/// Measures every layer of `w`. A failed check is recorded in the report;
/// a run that errors ends the measurement.
pub fn layers(w: &Workload) -> Report {
    let mut rep = Report::default();
    if let Err(why) = measure(w, &mut rep) {
        rep.fail(why);
    }
    rep
}

fn measure(w: &Workload, rep: &mut Report) -> Result<(), String> {
    // Profiled run first: like an end-to-end run it pays a fresh process's
    // first-run costs, which leaves the untraced and traced runs below
    // equally warm, so their difference is the trace's own cost.
    let started = Instant::now();
    let profiled = ClusterSim::new(w.cfg.clone())
        .with_profiling()
        .try_run()
        .map_err(|e| format!("profiled run: {e}"))?;
    let profiled_s = started.elapsed().as_secs_f64();

    // Untraced reference run: the base of the trace overhead.
    let sim = ClusterSim::new(w.cfg.clone());
    let started = Instant::now();
    let plain = sim.try_run().map_err(|e| format!("untraced run: {e}"))?;
    let plain_s = started.elapsed().as_secs_f64();
    rep.fail_all(w.check(&plain));
    crate::deterministic(rep, w, &plain);
    same_hash(rep, "profiled", profiled.event_hash, plain.event_hash);

    // p3-trace: the same run, recording the slice-lifecycle trace.
    let sim = ClusterSim::new(w.cfg.clone().with_slice_trace());
    let started = Instant::now();
    let (traced, log) = sim
        .try_run_traced()
        .map_err(|e| format!("traced run: {e}"))?;
    let traced_s = started.elapsed().as_secs_f64();
    let log = log.ok_or("the traced run returned no trace")?;
    same_hash(rep, "traced", traced.event_hash, plain.event_hash);
    rep.num("trace.events", log.len() as f64);
    rep.num("trace.overhead_s", traced_s - plain_s);

    // p3-audit, on the trace just recorded.
    let opts = AuditOptions::from_meta(&w.cfg.trace_meta());
    let started = Instant::now();
    let audit = p3_audit::check_with(&log, &opts);
    let audit_s = started.elapsed().as_secs_f64();
    if !audit.is_clean() {
        rep.fail(format!("audit: {}", audit.violated_invariants().join(", ")));
    }
    rep.num("audit.s", audit_s);
    rep.num("audit.events_per_s", log.len() as f64 / audit_s);

    // p3-net: replay the traced flows open-loop, timed, then again untimed
    // with a snapshot diff around every reallocating call.
    let (starts, traced_ends) = flows_of(&log);
    drop(log);
    let net_cfg = w.network_config();
    let run = replay(&net_cfg, &starts, |_| {})?;
    let fid = compare(starts.len(), traced_ends, run.ends)?;
    let secs = |t: CallTimer| t.total.as_secs_f64();
    rep.num("net.start_flow_s", secs(run.start_flow));
    rep.num("net.start_flow_calls", run.start_flow.calls as f64);
    rep.num(
        "net.start_flow_us",
        secs(run.start_flow) * 1e6 / run.start_flow.calls.max(1) as f64,
    );
    rep.num("net.poll_s", secs(run.poll));
    rep.num("net.poll_calls", run.poll.calls as f64);
    rep.num("net.next_event_s", secs(run.next_event));
    rep.num("net.next_event_calls", run.next_event.calls as f64);
    rep.num("net.replay_s", run.wall.as_secs_f64());
    rep.num("net.share", run.wall.as_secs_f64() / traced_s);
    rep.num(
        "net.replay_exact_frac",
        fid.exact as f64 / fid.total.max(1) as f64,
    );
    rep.num("net.replay_max_dev_ns", fid.max_dev_ns as f64);
    let s = run.stats;
    let per_realloc = |n: u64| n as f64 / s.reallocations.max(1) as f64;
    rep.num("net.reallocations", s.reallocations as f64);
    rep.num("net.waterfill_rounds", s.waterfill_rounds as f64);
    rep.num("net.flows_touched", s.flows_touched as f64);
    rep.num("net.ports_touched", s.ports_touched as f64);
    rep.num("net.peak_in_flight", s.peak_in_flight as f64);
    rep.num("net.rounds_per_realloc", per_realloc(s.waterfill_rounds));
    rep.num("net.flows_per_realloc", per_realloc(s.flows_touched));
    let mut diff = RateDiff::default();
    replay(&net_cfg, &starts, |net| diff.observe(net))?;
    rep.num(
        "net.rate_change_frac",
        diff.changed as f64 / diff.recomputed.max(1) as f64,
    );
    drop(starts);

    // p3-cluster engine: the profiler's inclusive timers, as self times.
    let profile = profiled
        .profile
        .ok_or("the profiled run returned no profile")?;
    engine_ledger(&profile, profiled_s, rep);

    // p3-des: the calendar's work, and its cost at the run's depth.
    rep.num("des.events", plain.events as f64);
    match profile.counter("heap/high_water") {
        Some(depth) => {
            rep.num("des.heap_high_water", depth as f64);
            let gap_ns = plain.finished_at.as_nanos() / plain.events.max(1);
            rep.num("des.hold_ns", hold_ns(depth as usize, gap_ns));
        }
        None => rep.absent("des.heap_high_water", "the profile lacks heap/high_water"),
    }
    Ok(())
}

/// Fails the run when a variant of the untraced run took another path.
fn same_hash(rep: &mut Report, run: &str, got: u64, untraced: u64) {
    if got != untraced {
        rep.fail(format!(
            "{run} event hash {got:#018x} differs from untraced {untraced:#018x}"
        ));
    }
}

/// The engine's self times from a profile's inclusive timers, under the
/// nesting stated at the top of this module, checked against `wall`, the
/// host seconds of the profiled run call.
fn engine_ledger(profile: &ProfileReport, wall: f64, rep: &mut Report) {
    let timer = |key: &str| profile.timer(key).map(|t| t.seconds);
    let dispatch: Vec<f64> = profile
        .timers
        .iter()
        .filter(|t| t.key.starts_with("dispatch/"))
        .map(|t| t.seconds)
        .collect();
    let dispatch = (!dispatch.is_empty()).then(|| dispatch.iter().sum::<f64>());
    let net = timer("net/poll").zip(timer("net/start_flow"));
    let backend = timer("backend/delivered");
    match (dispatch, net, backend) {
        (Some(dispatch), Some((poll, start)), Some(backend)) => {
            let net = poll + start;
            let loop_self = profile.wall_seconds - dispatch;
            let dispatch_self = dispatch - net - backend;
            rep.num("engine.dispatch_self_s", dispatch_self);
            rep.num("engine.net_s", net);
            rep.num("engine.backend_s", backend);
            rep.num("engine.loop_self_s", loop_self);
            rep.num("engine.nesting_slack_s", start.min(backend));
            // The self times add up to the profiler's own clock; that clock
            // must in turn account for the run call timed from outside.
            let ledger = loop_self + dispatch_self + net + backend;
            let gap = (wall - ledger).abs() / wall;
            rep.num("engine.ledger_gap", gap);
            if gap > LEDGER_TOLERANCE || loop_self < 0.0 || dispatch_self < 0.0 {
                rep.fail(format!(
                    "engine ledger double counts: self times sum to {ledger} s \
                     (loop {loop_self}, dispatch {dispatch_self}, net {net}, \
                     backend {backend}) against {wall} s of wall"
                ));
            }
        }
        _ => rep.absent(
            "engine.*",
            "the profile lacks a dispatch/*, net/poll, net/start_flow or backend/delivered timer",
        ),
    }
}

/// Host ns per `pop` + `schedule_at` pair (plus one generator draw) on an
/// `EventQueue` held at `depth` pending events whose simulated times are
/// spread like the run's: `gap_ns` apart on average. Median of
/// [`HOLD_BATCHES`] batches.
fn hold_ns(depth: usize, gap_ns: u64) -> f64 {
    let depth = depth.max(1);
    let spread = (gap_ns.max(1) * depth as u64).max(2);
    let mut rng = SplitMix64::new(0x484f_4c44);
    let mut q = EventQueue::new();
    for i in 0..depth {
        q.schedule_at(SimTime::from_nanos(rng.next_below(spread)), i);
    }
    let mut batches: Vec<f64> = (0..HOLD_BATCHES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..HOLD_OPS {
                let (at, e) = q.pop().expect("a held calendar never drains");
                let delay = SimDuration::from_nanos(1 + rng.next_below(2 * spread));
                q.schedule_at(at + delay, black_box(e));
            }
            started.elapsed().as_nanos() as f64 / f64::from(HOLD_OPS)
        })
        .collect();
    crate::median(&mut batches)
}
