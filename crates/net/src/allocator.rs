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
    assert_eq!(
        caps.len(),
        graph.num_links(),
        "capacity table does not match the graph"
    );
    assert!(flow_cap > 0.0, "non-positive flow cap");
    let machines = graph.machines();
    // Each flow's path, resolved once for all rounds.
    let routes: Vec<Route> = flows
        .iter()
        .map(|f| {
            assert!(
                f.src < machines && f.dst < machines,
                "flow {f:?} references unknown machine"
            );
            assert!(
                f.src != f.dst,
                "loopback flow {f:?} has no path in the graph"
            );
            graph.route(f.src, f.dst)
        })
        .collect();

    let mut res = caps.to_vec();
    let mut rates = vec![0.0; flows.len()];
    let mut bottleneck = vec![None; flows.len()];
    // Active flows per link in the current round.
    let mut count = vec![0u32; caps.len()];

    // Flows grouped by class, most urgent first; the stable sort keeps
    // the input order within a class.
    let mut order: Vec<usize> = (0..flows.len()).collect();
    order.sort_by_key(|&i| flows[i].priority);
    let mut active = Vec::with_capacity(flows.len());
    for class in order.chunk_by(|&a, &b| flows[a].priority == flows[b].priority) {
        // Progressive filling of the class on the residual capacities.
        active.clear();
        active.extend_from_slice(class);
        while !active.is_empty() {
            for r in res.iter_mut() {
                if *r < FLOOR {
                    *r = 0.0;
                }
            }
            count.fill(0);
            for &i in &active {
                routes[i].links().for_each(|l| count[l] += 1);
            }
            work.rounds += 1;
            work.flow_touches += active.len() as u64;
            work.port_touches += count.iter().filter(|&&c| c > 0).count() as u64;

            // The common rate increment is limited by the tightest link,
            // or by the first flow to reach the per-flow ceiling.
            let mut delta = f64::INFINITY;
            for (&r, &c) in res.iter().zip(&count) {
                if c > 0 {
                    delta = delta.min(r / c as f64);
                }
            }
            for &i in &active {
                delta = delta.min(flow_cap - rates[i]);
            }
            debug_assert!(delta.is_finite(), "active flows but no limiting link");
            let delta = delta.max(0.0);

            // Raise every active flow by delta and charge its whole path.
            for &i in &active {
                rates[i] += delta;
                routes[i].links().for_each(|l| res[l] -= delta);
            }
            for r in res.iter_mut() {
                if *r < 0.0 {
                    *r = 0.0;
                }
            }

            // Freeze flows crossing any saturated link, recording the
            // first such link in path order as the bottleneck. Capacity
            // scale for the epsilon test: the largest residual in use.
            let scale = res.iter().fold(1.0f64, |a, &b| a.max(b)).max(delta);
            let thr = (EPS * scale).max(FLOOR);
            let before = active.len();
            active.retain(|&i| {
                if rates[i] >= flow_cap * (1.0 - EPS) {
                    // Frozen by the per-flow cap, not by a link.
                    return false;
                }
                match routes[i].links().find(|&l| res[l] <= thr) {
                    Some(l) => {
                        bottleneck[i] = Some(LinkId(l));
                        false
                    }
                    None => true,
                }
            });
            // Progress guarantee: if nothing froze, every remaining link
            // has zero residual growth possible (e.g. zero-capacity
            // links) — terminate.
            if active.len() == before {
                break;
            }
        }
    }
    GraphAllocation { rates, bottleneck }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(src: usize, dst: usize, p: u32) -> FlowSpec {
        FlowSpec {
            src,
            dst,
            priority: Priority(p),
        }
    }

    fn caps(n: usize, c: f64) -> Vec<f64> {
        vec![c; n]
    }

    /// Rates on the flat fabric: the endpoint-only graph with the given
    /// per-machine tx and rx port capacities.
    fn flat(flows: &[FlowSpec], tx: &[f64], rx: &[f64], flow_cap: f64) -> Vec<f64> {
        let g = LinkGraph::with_ports(tx, rx);
        allocate_rates_on_graph(flows, &g, g.caps(), flow_cap).rates
    }

    #[test]
    fn empty_input() {
        assert!(flat(&[], &caps(3, 10.0), &caps(3, 10.0), f64::INFINITY).is_empty());
    }

    #[test]
    fn single_flow_gets_min_of_its_ports() {
        let rates = flat(
            &[flow(0, 1, 0)],
            &[100.0, 40.0],
            &[70.0, 30.0],
            f64::INFINITY,
        );
        assert_eq!(rates, vec![30.0]); // limited by dst rx
    }

    #[test]
    fn fan_out_shares_tx() {
        let flows: Vec<FlowSpec> = (1..=4).map(|d| flow(0, d, 2)).collect();
        let rates = flat(&flows, &caps(5, 100.0), &caps(5, 100.0), f64::INFINITY);
        for r in rates {
            assert!((r - 25.0).abs() < 1e-6);
        }
    }

    #[test]
    fn incast_shares_rx() {
        let flows: Vec<FlowSpec> = (1..=4).map(|s| flow(s, 0, 2)).collect();
        let rates = flat(&flows, &caps(5, 100.0), &caps(5, 100.0), f64::INFINITY);
        for r in rates {
            assert!((r - 25.0).abs() < 1e-6);
        }
    }

    #[test]
    fn max_min_redistributes_leftover() {
        // Flow A: 0->1 (shares tx of 0 with B). Flow B: 0->2 but dst 2 has a
        // tiny rx. B freezes at 10, A picks up the leftover 90.
        let flows = [flow(0, 1, 1), flow(0, 2, 1)];
        let tx = [100.0, 100.0, 100.0];
        let rx = [100.0, 100.0, 10.0];
        let rates = flat(&flows, &tx, &rx, f64::INFINITY);
        assert!((rates[1] - 10.0).abs() < 1e-6, "B limited by rx: {rates:?}");
        assert!(
            (rates[0] - 90.0).abs() < 1e-6,
            "A takes leftover: {rates:?}"
        );
    }

    #[test]
    fn strict_priority_starves_bulk() {
        let flows = [flow(0, 1, 0), flow(0, 1, 9)];
        let rates = flat(&flows, &caps(2, 100.0), &caps(2, 100.0), f64::INFINITY);
        assert!((rates[0] - 100.0).abs() < 1e-6);
        assert!(rates[1].abs() < 1e-6);
    }

    #[test]
    fn lower_class_uses_ports_urgent_class_does_not() {
        // Urgent flow 0->1 saturates 0.tx; bulk flow 2->3 is unaffected.
        let flows = [flow(0, 1, 0), flow(2, 3, 7)];
        let rates = flat(&flows, &caps(4, 100.0), &caps(4, 100.0), f64::INFINITY);
        assert!((rates[0] - 100.0).abs() < 1e-6);
        assert!((rates[1] - 100.0).abs() < 1e-6);
    }

    #[test]
    fn bidirectional_flows_do_not_contend() {
        // tx and rx are independent: full-duplex.
        let flows = [flow(0, 1, 1), flow(1, 0, 1)];
        let rates = flat(&flows, &caps(2, 100.0), &caps(2, 100.0), f64::INFINITY);
        assert!((rates[0] - 100.0).abs() < 1e-6);
        assert!((rates[1] - 100.0).abs() < 1e-6);
    }

    #[test]
    fn zero_capacity_yields_zero_rates() {
        let rates = flat(&[flow(0, 1, 1)], &[0.0, 0.0], &[0.0, 0.0], f64::INFINITY);
        assert_eq!(rates, vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "unknown machine")]
    fn out_of_range_machine_panics() {
        flat(
            &[flow(0, 5, 0)],
            &caps(2, 1.0),
            &caps(2, 1.0),
            f64::INFINITY,
        );
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_flow_rejected() {
        flat(
            &[flow(1, 1, 0)],
            &caps(2, 10.0),
            &caps(2, 10.0),
            f64::INFINITY,
        );
    }

    #[test]
    fn flow_cap_limits_isolated_flow() {
        let rates = flat(&[flow(0, 1, 0)], &caps(2, 100.0), &caps(2, 100.0), 30.0);
        assert_eq!(rates, vec![30.0]);
    }

    #[test]
    fn capped_flows_release_capacity_to_others() {
        // Two flows share 0.tx; with a cap of 30, each takes 30 and the
        // rest of the port goes unused (no third flow to absorb it).
        let flows = [flow(0, 1, 0), flow(0, 2, 0)];
        let rates = flat(&flows, &caps(3, 100.0), &caps(3, 100.0), 30.0);
        assert_eq!(rates, vec![30.0, 30.0]);
        // With a cap of 80 the port (100) binds instead: 50/50.
        let rates = flat(&flows, &caps(3, 100.0), &caps(3, 100.0), 80.0);
        assert_eq!(rates, vec![50.0, 50.0]);
    }

    #[test]
    fn uncapped_equals_huge_cap() {
        let flows = [flow(0, 1, 0), flow(1, 2, 1)];
        let a = flat(&flows, &caps(3, 77.0), &caps(3, 77.0), f64::INFINITY);
        let b = flat(&flows, &caps(3, 77.0), &caps(3, 77.0), 1e18);
        assert_eq!(a, b);
    }

    #[test]
    fn three_class_cascade() {
        // Class 0 takes 60 (its rx limit), class 1 takes the remaining 40 of
        // 0.tx, class 2 gets nothing from 0.tx.
        let flows = [flow(0, 1, 0), flow(0, 2, 1), flow(0, 3, 2)];
        let tx = [100.0, 100.0, 100.0, 100.0];
        let rx = [100.0, 60.0, 100.0, 100.0];
        let rates = flat(&flows, &tx, &rx, f64::INFINITY);
        assert!((rates[0] - 60.0).abs() < 1e-6);
        assert!((rates[1] - 40.0).abs() < 1e-6);
        assert!(rates[2].abs() < 1e-6);
    }

    #[test]
    fn interleaved_classes_are_grouped() {
        // Class 0 flows sit between class 2 flows in the input; they
        // still take 0.tx first, in equal shares.
        let flows = [flow(0, 1, 2), flow(0, 2, 0), flow(0, 3, 2), flow(0, 1, 0)];
        let rates = flat(&flows, &caps(4, 90.0), &caps(4, 90.0), f64::INFINITY);
        assert_eq!(rates, vec![0.0, 45.0, 0.0, 45.0]);
    }

    #[test]
    fn work_counters_are_filled_without_perturbing_rates() {
        let flows = [flow(0, 1, 0), flow(0, 2, 1)];
        let g = LinkGraph::new(&caps(3, 100.0));
        let plain = allocate_rates_on_graph(&flows, &g, g.caps(), 30.0);
        let mut work = AllocWork::default();
        let counted = allocate_rates_on_graph_with_work(&flows, &g, g.caps(), 30.0, &mut work);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&plain.rates),
            bits(&counted.rates),
            "counting changed a rate bit"
        );
        // Two priority classes: at least one round each, and every round
        // touches one flow over two ports.
        assert!(work.rounds >= 2, "{work:?}");
        assert_eq!(work.flow_touches, work.rounds, "{work:?}");
        assert_eq!(work.port_touches, 2 * work.rounds, "{work:?}");
    }

    #[test]
    fn empty_input_reports_zero_work() {
        let g = LinkGraph::new(&caps(2, 10.0));
        let mut work = AllocWork::default();
        let a = allocate_rates_on_graph_with_work(&[], &g, g.caps(), 1.0, &mut work);
        assert!(a.rates.is_empty() && a.bottleneck.is_empty());
        assert_eq!(work, AllocWork::default());
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    /// Random flows over `machines` machines; a drawn `src == dst` pair is
    /// remapped to the next machine, since loopback has no path.
    fn arb_flows(machines: usize) -> impl Strategy<Value = Vec<FlowSpec>> {
        prop::collection::vec(
            (0..machines, 0..machines, 0u32..4).prop_map(move |(src, dst, p)| FlowSpec {
                src,
                dst: if dst == src {
                    (dst + 1) % machines
                } else {
                    dst
                },
                priority: Priority(p),
            }),
            0..24,
        )
    }

    /// Rates on the flat fabric of `n` machines with `cap` on every port.
    fn flat(flows: &[FlowSpec], n: usize, cap: f64) -> Vec<f64> {
        let g = LinkGraph::new(&vec![cap; n]);
        allocate_rates_on_graph(flows, &g, g.caps(), f64::INFINITY).rates
    }

    proptest! {
        #[test]
        fn port_capacities_respected(flows in arb_flows(5), cap in 1.0f64..1e10) {
            let rates = flat(&flows, 5, cap);
            let mut tx_sum = [0.0; 5];
            let mut rx_sum = [0.0; 5];
            for (f, r) in flows.iter().zip(&rates) {
                prop_assert!(*r >= 0.0);
                tx_sum[f.src] += r;
                rx_sum[f.dst] += r;
            }
            for m in 0..5 {
                prop_assert!(tx_sum[m] <= cap * (1.0 + 1e-6));
                prop_assert!(rx_sum[m] <= cap * (1.0 + 1e-6));
            }
        }

        #[test]
        fn work_conserving(flows in arb_flows(4)) {
            // Every flow must have at least one saturated port (max-min
            // optimality): otherwise its rate could be raised.
            let cap = 100.0;
            let rates = flat(&flows, 4, cap);
            let mut tx_sum = [0.0; 4];
            let mut rx_sum = [0.0; 4];
            for (f, r) in flows.iter().zip(&rates) {
                tx_sum[f.src] += r;
                rx_sum[f.dst] += r;
            }
            for f in &flows {
                let saturated = tx_sum[f.src] >= cap * (1.0 - 1e-6)
                    || rx_sum[f.dst] >= cap * (1.0 - 1e-6);
                prop_assert!(saturated, "flow {:?} has slack on both ports", f);
            }
        }

        #[test]
        fn urgent_class_blind_to_bulk(flows in arb_flows(4)) {
            // Rates of the most urgent class must be identical whether or
            // not any other traffic exists.
            let all = flat(&flows, 4, 77.0);
            let urgent: Vec<FlowSpec> =
                flows.iter().copied().filter(|f| f.priority == Priority(0)).collect();
            let alone = flat(&urgent, 4, 77.0);
            let mut k = 0;
            for (f, r) in flows.iter().zip(&all) {
                if f.priority == Priority(0) {
                    prop_assert!((r - alone[k]).abs() < 1e-6,
                        "urgent flow rate changed: {} vs {}", r, alone[k]);
                    k += 1;
                }
            }
        }

        #[test]
        fn identical_flows_get_equal_rates(n in 1usize..10, cap in 1.0f64..1e9) {
            let flows: Vec<FlowSpec> =
                (0..n).map(|_| FlowSpec { src: 0, dst: 1, priority: Priority(1) }).collect();
            let rates = flat(&flows, 2, cap);
            for r in &rates {
                prop_assert!((r - rates[0]).abs() < 1e-6 * cap);
            }
        }
    }
}
