//! Strict-priority max-min fair rate allocation over a [`LinkGraph`].
//!
//! Every flow crosses a fixed path of capacitated unidirectional links:
//! its source machine's transmit port, any transit links (switch uplinks
//! and downlinks), and its destination's receive port. Within a priority
//! class, rates are max-min fair (progressive filling / water filling)
//! over every link on every path; across classes, a more urgent class is
//! allocated first and less urgent classes share only the leftover
//! capacity — the fluid-model equivalent of strict priority queueing,
//! which is how P3's priority-tagged packets are serviced.
//!
//! The flat single-switch fabric is the endpoint-only graph: no transit
//! links, so each flow consumes its source's tx port and its
//! destination's rx port at the same rate.

use crate::multilink::{LinkGraph, LinkId, Route};
use crate::types::Priority;

/// Relative tolerance of the freeze tests.
const EPS: f64 = 1e-9;
/// Residual capacity below this (bytes/sec — one byte per ~12 days) is
/// numerical noise left over from freezing a saturated link; treat it as
/// zero so no flow is ever assigned an absurdly small positive rate.
const FLOOR: f64 = 1e-6;

/// Work performed by one allocator invocation: how many water-fill raise
/// rounds ran and how many flow/link slots they examined. Counting is
/// pure integer arithmetic bolted alongside the float math — the rate
/// arithmetic itself is untouched — so the counters are as deterministic
/// as the rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocWork {
    /// Water-fill raise rounds executed.
    pub rounds: u64,
    /// Flow slots examined, summed over rounds.
    pub flow_touches: u64,
    /// Links (ports included) carrying at least one active flow, summed
    /// over rounds.
    pub port_touches: u64,
}

/// One flow's routing and urgency, as seen by the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Index of the transmitting machine.
    pub src: usize,
    /// Index of the receiving machine.
    pub dst: usize,
    /// Strict-priority class.
    pub priority: Priority,
}

/// Result of [`allocate_rates_on_graph`]: per-flow rates and the link at
/// which each flow froze.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphAllocation {
    /// Rate of each flow in bytes/sec, parallel to the input.
    pub rates: Vec<f64>,
    /// The saturated link that froze each flow, or `None` when the flow
    /// was limited by the per-flow cap (or never froze on a link).
    pub bottleneck: Vec<Option<LinkId>>,
}

/// Computes strict-priority max-min fair rates over a [`LinkGraph`]:
/// progressive filling over every link on each flow's path, more urgent
/// classes first, less urgent classes restricted to the leftovers.
///
/// `caps` is the working capacity of each link (typically
/// [`LinkGraph::scaled_caps`]). `flow_cap` bounds every individual flow —
/// the single-stream goodput ceiling imposed by a CPU-bound endpoint
/// stack (ps-lite serializes each connection on one core; PHub, Luo et
/// al. 2018, measured a few Gbps per stream); link capacity freed by
/// capped flows is redistributed max-min. `f64::INFINITY` disables it.
///
/// Loopback flows (`src == dst`) must not be submitted — they have no
/// path in the graph.
///
/// # Panics
///
/// Panics if a flow references an unknown machine or a loopback pair, if
/// `caps.len()` differs from the graph's link count, or if `flow_cap` is
/// not positive.
///
/// # Examples
///
/// ```
/// use p3_net::{allocate_rates_on_graph, FlowSpec, LinkGraph, Priority};
///
/// // Two equal-priority flows out of machine 0 share its tx port.
/// let g = LinkGraph::new(&[100.0, 100.0, 100.0]);
/// let flows = [
///     FlowSpec { src: 0, dst: 1, priority: Priority(1) },
///     FlowSpec { src: 0, dst: 2, priority: Priority(1) },
/// ];
/// let alloc = allocate_rates_on_graph(&flows, &g, g.caps(), f64::INFINITY);
/// assert_eq!(alloc.rates, vec![50.0, 50.0]);
/// assert_eq!(alloc.bottleneck, vec![Some(g.tx_link(0)); 2]);
/// ```
pub fn allocate_rates_on_graph(
    flows: &[FlowSpec],
    graph: &LinkGraph,
    caps: &[f64],
    flow_cap: f64,
) -> GraphAllocation {
    allocate_rates_on_graph_with_work(flows, graph, caps, flow_cap, &mut AllocWork::default())
}

/// Like [`allocate_rates_on_graph`], but additionally accumulates the
/// allocator's effort (water-fill rounds, flow and link touches) into
/// `work` — the simulator's self-profiling counters. The returned
/// allocation is bit-identical to the uncounted variant.
///
/// # Panics
///
/// Panics under the same conditions as [`allocate_rates_on_graph`].
pub fn allocate_rates_on_graph_with_work(
    flows: &[FlowSpec],
    graph: &LinkGraph,
    caps: &[f64],
    flow_cap: f64,
    work: &mut AllocWork,
) -> GraphAllocation {
    let machines = graph.machines();
    let routes = flows.iter().map(|f| {
        assert!(
            f.src < machines && f.dst < machines,
            "flow {f:?} references unknown machine"
        );
        assert!(
            f.src != f.dst,
            "loopback flow {f:?} has no path in the graph"
        );
        graph.route(f.src, f.dst)
    });
    let mut order: Vec<ClassEntry> = flows
        .iter()
        .zip(routes)
        .enumerate()
        .map(|(flow, (f, route))| ClassEntry {
            flow,
            priority: f.priority,
            route,
        })
        .collect();
    order.sort_by_key(|e| e.priority);
    let mut scratch = AllocScratch::default();
    water_fill(&order, graph, caps, flow_cap, &mut scratch, work);
    GraphAllocation {
        rates: scratch.rates,
        bottleneck: scratch.bottleneck,
    }
}

/// One flow as the water-fill reads it: its slot in the caller's flow
/// table, its class and its cached route.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClassEntry {
    /// Index of the flow in the caller's table: where its rate goes.
    pub(crate) flow: usize,
    /// Strict-priority class.
    pub(crate) priority: Priority,
    /// The flow's path.
    pub(crate) route: Route,
}

/// Buffers of the water-fill, kept by their owner across calls so that a
/// reallocation allocates nothing once they have grown to the fabric's
/// size. Only `rates` and `bottleneck` carry meaning between calls: the
/// output of the last [`water_fill`].
#[derive(Debug, Default)]
pub(crate) struct AllocScratch {
    /// Residual capacity of every link.
    res: Vec<f64>,
    /// Unfrozen flows of the current class crossing each link.
    count: Vec<u32>,
    /// Links crossed by the current class's unfrozen flows.
    touched: Vec<usize>,
    /// The current class's unfrozen flows.
    active: Vec<ClassEntry>,
    /// Rate of each flow slot in bytes/sec.
    pub(crate) rates: Vec<f64>,
    /// The saturated link that froze each flow slot, as in
    /// [`GraphAllocation::bottleneck`].
    pub(crate) bottleneck: Vec<Option<LinkId>>,
}

/// The capacity scale of the freeze test: the largest residual, but no
/// less than one. Residuals only fall, so the maximum can move only when
/// the last link holding it is charged; counting the holders keeps it
/// exact with no scan in the other rounds.
struct Top {
    value: f64,
    holders: usize,
}

impl Top {
    fn of(res: &[f64]) -> Top {
        let mut top = Top {
            value: 1.0,
            holders: 0,
        };
        for &r in res {
            if r > top.value {
                top = Top {
                    value: r,
                    holders: 1,
                };
            } else if r == top.value {
                top.holders += 1;
            }
        }
        top
    }
}

/// The one strict-priority water-fill. `order` holds flows `0..order.len()`
/// grouped by class, most urgent first. Rates and bottlenecks land in
/// `s.rates` and `s.bottleneck`, indexed by [`ClassEntry::flow`].
///
/// Within a class every unfrozen flow starts at 0 and is raised by the
/// same delta each round, so the class fills at one shared `level`, a
/// link carrying `count[l]` unfrozen flows is charged `count[l]` times by
/// that delta, and a flow's freeze test reads only residuals. None of it
/// depends on the order of flows within a class, which is why the slots
/// of a class may come in any order. A residual snapped to 0 below
/// `FLOOR` right after its charge reads the same to the freeze test
/// (`thr >= FLOOR`) and to the scale (`>= 1`) as one snapped at the start
/// of the next round.
///
/// # Panics
///
/// Panics if `caps.len()` differs from the graph's link count or if
/// `flow_cap` is not positive.
pub(crate) fn water_fill(
    order: &[ClassEntry],
    graph: &LinkGraph,
    caps: &[f64],
    flow_cap: f64,
    s: &mut AllocScratch,
    work: &mut AllocWork,
) {
    assert_eq!(
        caps.len(),
        graph.num_links(),
        "capacity table does not match the graph"
    );
    assert!(flow_cap > 0.0, "non-positive flow cap");
    s.rates.clear();
    s.rates.resize(order.len(), 0.0);
    s.bottleneck.clear();
    s.bottleneck.resize(order.len(), None);
    s.res.clear();
    s.res
        .extend(caps.iter().map(|&c| if c < FLOOR { 0.0 } else { c }));
    s.count.clear();
    s.count.resize(caps.len(), 0);
    let mut top = Top::of(&s.res);
    for class in order.chunk_by(|a, b| a.priority == b.priority) {
        s.active.clear();
        s.active.extend_from_slice(class);
        fill_class(graph, flow_cap, s, &mut top, work);
    }
}

/// Progressive filling of one class (`s.active`) on the residual
/// capacities left by the more urgent classes.
fn fill_class(
    graph: &LinkGraph,
    flow_cap: f64,
    s: &mut AllocScratch,
    top: &mut Top,
    work: &mut AllocWork,
) {
    let AllocScratch {
        res,
        count,
        touched,
        active,
        rates,
        bottleneck,
    } = s;
    for e in active.iter() {
        graph.for_each_link(e.route, |l| {
            if count[l] == 0 {
                touched.push(l);
            }
            count[l] += 1;
        });
    }
    let mut level = 0.0f64;
    while !active.is_empty() {
        work.rounds += 1;
        work.flow_touches += active.len() as u64;
        work.port_touches += touched.len() as u64;

        // The common rate increment is limited by the tightest link, or
        // by the class reaching the per-flow ceiling.
        let mut delta = f64::INFINITY;
        for &l in touched.iter() {
            delta = delta.min(res[l] / count[l] as f64);
        }
        delta = delta.min(flow_cap - level);
        debug_assert!(delta.is_finite(), "active flows but no limiting link");
        let delta = delta.max(0.0);

        // Raise the class by delta and charge each link once per flow
        // crossing it, in sequence, as per-flow charging would. A zero
        // delta changes nothing.
        if delta > 0.0 {
            level += delta;
            for &l in touched.iter() {
                let r = &mut res[l];
                let old = *r;
                for _ in 0..count[l] {
                    *r -= delta;
                }
                if *r < FLOOR {
                    *r = 0.0;
                }
                if old == top.value && *r != old {
                    top.holders -= 1;
                }
            }
            if top.holders == 0 && top.value > 1.0 {
                *top = Top::of(res);
            }
        }

        // Freeze flows crossing any saturated link, recording the first
        // such link in path order as the bottleneck, or every flow at
        // once when the class reached the per-flow cap.
        let thr = (EPS * top.value.max(delta)).max(FLOOR);
        let capped = level >= flow_cap * (1.0 - EPS);
        let before = active.len();
        active.retain(|e| {
            let hit = if capped {
                None
            } else {
                match graph.first_at_most(e.route, res, thr) {
                    Some(l) => Some(LinkId(l)),
                    None => return true,
                }
            };
            rates[e.flow] = level;
            bottleneck[e.flow] = hit;
            graph.for_each_link(e.route, |l| count[l] -= 1);
            false
        });
        // Progress guarantee: if nothing froze, every remaining link
        // has zero residual growth possible (e.g. zero-capacity
        // links) — terminate.
        if active.len() == before {
            break;
        }
        touched.retain(|&l| count[l] > 0);
    }
    for e in active.iter() {
        rates[e.flow] = level;
    }
    for &l in touched.iter() {
        count[l] = 0;
    }
    touched.clear();
}

#[cfg(test)]
pub(crate) mod tests;
