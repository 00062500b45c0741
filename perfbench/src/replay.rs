//! Open-loop replay of a traced run's flows through a fresh `Network`:
//! every traced `WireStart` is issued at its traced instant, whatever the
//! replayed fabric did before, and every `WireEnd` must come back.

use p3_des::SimTime;
use p3_net::{MachineId, NetStats, Network, NetworkConfig, Priority};
use p3_trace::{TraceEvent, TraceLog};
use std::time::{Duration, Instant};

/// One traced flow start.
#[derive(Debug, Clone, Copy)]
pub struct Start {
    at: SimTime,
    src: usize,
    dst: usize,
    bytes: u64,
    priority: u32,
    tag: u64,
}

/// One delivered flow: `(tag, src, dst, delivery instant in ns)`, ordered
/// so that sorting pairs up equal flows in delivery order.
pub type End = (u64, usize, usize, u64);

/// The flow starts and deliveries a trace recorded.
pub fn flows_of(log: &TraceLog) -> (Vec<Start>, Vec<End>) {
    let mut starts = Vec::new();
    let mut ends = Vec::new();
    for e in log.events() {
        match e.event {
            TraceEvent::WireStart {
                msg_id,
                src,
                dst,
                bytes,
                priority,
            } => starts.push(Start {
                at: e.at,
                src,
                dst,
                bytes,
                priority,
                tag: msg_id,
            }),
            TraceEvent::WireEnd {
                msg_id, src, dst, ..
            } => ends.push((msg_id, src, dst, e.at.as_nanos())),
            _ => {}
        }
    }
    (starts, ends)
}

/// Host time and call count of one `Network` entry point.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallTimer {
    /// Calls made.
    pub calls: u64,
    /// Host time inside those calls.
    pub total: Duration,
}

impl CallTimer {
    fn time<T>(&mut self, call: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = call();
        self.total += started.elapsed();
        self.calls += 1;
        out
    }
}

/// What one replay measured.
#[derive(Debug)]
pub struct Replay {
    /// `Network::start_flow`.
    pub start_flow: CallTimer,
    /// `Network::poll`.
    pub poll: CallTimer,
    /// `Network::next_event_time`.
    pub next_event: CallTimer,
    /// Host time of the whole replay, bookkeeping included.
    pub wall: Duration,
    /// Every delivery the replayed fabric made.
    pub ends: Vec<End>,
    /// The replayed fabric's work counters.
    pub stats: NetStats,
}

/// Consecutive polls at one instant after which the replay gives up: the
/// fabric is not making progress.
const STUCK_POLLS: u32 = 64;

/// Replays `starts` through a fresh fabric built from `cfg`, calling
/// `observe` after every `start_flow` and `poll` (outside the timed calls).
pub fn replay(
    cfg: &NetworkConfig,
    starts: &[Start],
    mut observe: impl FnMut(&Network),
) -> Result<Replay, String> {
    let began = Instant::now();
    let mut run = Replay {
        start_flow: CallTimer::default(),
        poll: CallTimer::default(),
        next_event: CallTimer::default(),
        wall: Duration::ZERO,
        ends: Vec::with_capacity(starts.len()),
        stats: NetStats::default(),
    };
    let mut net = Network::new(cfg.clone());
    let mut stuck = (SimTime::ZERO, 0u32);
    for s in starts.iter().map(Some).chain([None]) {
        // Deliver everything due up to the next start (all of it at the end).
        while let Some(at) = run.next_event.time(|| net.next_event_time()) {
            if s.is_some_and(|s| at > s.at) {
                break;
            }
            stuck = if at == stuck.0 {
                (at, stuck.1 + 1)
            } else {
                (at, 0)
            };
            if stuck.1 >= STUCK_POLLS {
                return Err(format!("replayed fabric stuck at {at}"));
            }
            let done = run.poll.time(|| net.poll(at));
            let at_ns = at.as_nanos();
            run.ends
                .extend(done.iter().map(|f| (f.tag, f.src.0, f.dst.0, at_ns)));
            observe(&net);
        }
        let Some(s) = s else { break };
        let (src, dst, prio) = (MachineId(s.src), MachineId(s.dst), Priority(s.priority));
        run.start_flow
            .time(|| net.start_flow(s.at, src, dst, s.bytes, prio, s.tag));
        observe(&net);
    }
    run.wall = began.elapsed();
    run.stats = net.stats();
    Ok(run)
}

/// How closely a replay reproduced the traced deliveries.
#[derive(Debug, Clone, Copy)]
pub struct Fidelity {
    /// Deliveries at exactly the traced nanosecond.
    pub exact: u64,
    /// Deliveries compared (all of them).
    pub total: u64,
    /// Largest deviation from a traced delivery instant, in simulated ns.
    pub max_dev_ns: u64,
}

/// Pairs every traced delivery with a replayed one. The replay drains the
/// fabric, so it also delivers the flows still in flight when the traced
/// run stopped; beyond those, an unmatched flow on either side is an error.
pub fn compare(
    starts: usize,
    mut traced: Vec<End>,
    mut replayed: Vec<End>,
) -> Result<Fidelity, String> {
    traced.sort_unstable();
    replayed.sort_unstable();
    let mut fid = Fidelity {
        exact: 0,
        total: traced.len() as u64,
        max_dev_ns: 0,
    };
    let key = |e: &End| (e.0, e.1, e.2);
    let mut rest = replayed.iter().peekable();
    for t in &traced {
        // Replayed deliveries of a flow key the trace never delivered, or
        // delivered fewer times, belong to flows cut off by the run's end.
        while rest.next_if(|r| key(r) < key(t)).is_some() {}
        let Some(r) = rest.next_if(|r| key(r) == key(t)) else {
            return Err(format!(
                "traced flow tag {} ({} -> {}) not reproduced by the replay",
                t.0, t.1, t.2
            ));
        };
        let dev = t.3.abs_diff(r.3);
        fid.exact += u64::from(dev == 0);
        fid.max_dev_ns = fid.max_dev_ns.max(dev);
    }
    let in_flight = starts.saturating_sub(traced.len());
    let extra = replayed.len() - traced.len();
    if extra != in_flight {
        return Err(format!(
            "replay delivered {extra} flows beyond the trace's, but {in_flight} were in flight at its end"
        ));
    }
    Ok(fid)
}

/// Counts, over every reallocation of a replay, the flow rates the
/// allocator recomputed and those whose value actually changed (a flow
/// new to the fabric counts as changed).
#[derive(Debug, Default)]
pub struct RateDiff {
    /// Last known rate per flow id (`NaN`: not seen yet).
    rate_of: Vec<f64>,
    seen: NetStats,
    /// Rates recomputed.
    pub recomputed: u64,
    /// Rates that changed value.
    pub changed: u64,
}

impl RateDiff {
    /// Diffs the fabric's snapshot against the last one, if the call just
    /// made reallocated.
    pub fn observe(&mut self, net: &Network) {
        let stats = net.stats();
        if stats.reallocations == self.seen.reallocations {
            return;
        }
        self.recomputed += stats.flows_touched - self.seen.flows_touched;
        self.seen = stats;
        for f in net.snapshot().flows {
            let id = f.id as usize;
            if id >= self.rate_of.len() {
                self.rate_of.resize(id + 1, f64::NAN);
            }
            if self.rate_of[id].to_bits() != f.rate.to_bits() {
                self.changed += 1;
                self.rate_of[id] = f.rate;
            }
        }
    }
}
