//! Unit and property tests of the water-fill, and the per-flow oracle
//! the class-indexed fill is held to bit for bit.

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

/// The per-flow water-fill the class-indexed [`water_fill`] replaced, kept
/// as the reference it must match bit for bit: every flow carries its own
/// rate, and every round re-counts the active flows on every link, scans
/// every link for the delta and the scale, and snaps every residual.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// Rates, bottlenecks and work of the per-flow water-fill.
    pub(crate) fn allocate(
        flows: &[FlowSpec],
        graph: &LinkGraph,
        caps: &[f64],
        flow_cap: f64,
        work: &mut AllocWork,
    ) -> GraphAllocation {
        let routes: Vec<Vec<usize>> = flows
            .iter()
            .map(|f| graph.path(f.src, f.dst).map(|l| l.0).collect())
            .collect();
        let mut res = caps.to_vec();
        let mut rates = vec![0.0; flows.len()];
        let mut bottleneck = vec![None; flows.len()];
        let mut count = vec![0u32; caps.len()];
        let mut order: Vec<usize> = (0..flows.len()).collect();
        order.sort_by_key(|&i| flows[i].priority);
        let mut active = Vec::with_capacity(flows.len());
        for class in order.chunk_by(|&a, &b| flows[a].priority == flows[b].priority) {
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
                    routes[i].iter().for_each(|&l| count[l] += 1);
                }
                work.rounds += 1;
                work.flow_touches += active.len() as u64;
                work.port_touches += count.iter().filter(|&&c| c > 0).count() as u64;
                let mut delta = f64::INFINITY;
                for (&r, &c) in res.iter().zip(&count) {
                    if c > 0 {
                        delta = delta.min(r / c as f64);
                    }
                }
                for &i in &active {
                    delta = delta.min(flow_cap - rates[i]);
                }
                let delta = delta.max(0.0);
                for &i in &active {
                    rates[i] += delta;
                    routes[i].iter().for_each(|&l| res[l] -= delta);
                }
                for r in res.iter_mut() {
                    if *r < 0.0 {
                        *r = 0.0;
                    }
                }
                let scale = res.iter().fold(1.0f64, |a, &b| a.max(b)).max(delta);
                let thr = (EPS * scale).max(FLOOR);
                let before = active.len();
                active.retain(|&i| {
                    if rates[i] >= flow_cap * (1.0 - EPS) {
                        return false;
                    }
                    match routes[i].iter().find(|&&l| res[l] <= thr) {
                        Some(&l) => {
                            bottleneck[i] = Some(LinkId(l));
                            false
                        }
                        None => true,
                    }
                });
                if active.len() == before {
                    break;
                }
            }
        }
        GraphAllocation { rates, bottleneck }
    }
}

#[cfg(test)]
mod equivalence {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// One allocator input.
    #[derive(Debug)]
    struct Case {
        graph: LinkGraph,
        caps: Vec<f64>,
        flows: Vec<FlowSpec>,
        flow_cap: f64,
    }

    /// Allocator inputs: a flat fabric or racks behind core links, with
    /// capacities that are zero, tiny (below the noise floor), tied or
    /// random; flows of one to six classes; a finite or infinite cap.
    #[derive(Debug)]
    struct Cases;

    fn capacity(rng: &mut TestRng, tie: f64) -> f64 {
        match rng.below(10) {
            0 => 0.0,
            1 => rng.unit_f64() * 2e-6,
            2..=4 => tie,
            _ => 1.0 + rng.unit_f64() * 1e9,
        }
    }

    impl Strategy for Cases {
        type Value = Case;

        fn generate(&self, rng: &mut TestRng) -> Case {
            let tie = [1.0, 100.0, 1.25e9][rng.below(3) as usize];
            let (racks, size) = if rng.below(2) == 0 {
                (1, 2 + rng.below(5) as usize)
            } else {
                (2 + rng.below(2) as usize, 1 + rng.below(3) as usize)
            };
            let machines = racks * size;
            let tx: Vec<f64> = (0..machines).map(|_| capacity(rng, tie)).collect();
            let rx: Vec<f64> = (0..machines).map(|_| capacity(rng, tie)).collect();
            let mut graph = LinkGraph::with_ports(&tx, &rx);
            if racks > 1 {
                let mut core = |g: &mut LinkGraph, name: String| {
                    let cap = capacity(rng, tie);
                    g.add_link(&name, cap)
                };
                let ups: Vec<LinkId> = (0..racks)
                    .map(|r| core(&mut graph, format!("rack{r}.up")))
                    .collect();
                let downs: Vec<LinkId> = (0..racks)
                    .map(|r| core(&mut graph, format!("rack{r}.down")))
                    .collect();
                for src in 0..machines {
                    for dst in 0..machines {
                        if src / size != dst / size {
                            graph.set_transit(src, dst, &[ups[src / size], downs[dst / size]]);
                        }
                    }
                }
            }
            let scale = |rng: &mut TestRng| {
                (0..machines)
                    .map(|_| 0.25 + 0.75 * rng.unit_f64())
                    .collect::<Vec<_>>()
            };
            let caps = if rng.below(2) == 0 {
                graph.caps().to_vec()
            } else {
                let (tx_scale, rx_scale) = (scale(rng), scale(rng));
                graph.scaled_caps(0.5 + 0.5 * rng.unit_f64(), &tx_scale, &rx_scale)
            };
            let classes = 1 + rng.below(6);
            let flows = (0..rng.below(40))
                .map(|_| {
                    let src = rng.below(machines as u64) as usize;
                    let hop = 1 + rng.below(machines as u64 - 1) as usize;
                    FlowSpec {
                        src,
                        dst: (src + hop) % machines,
                        priority: Priority(3 + 7 * rng.below(classes) as u32),
                    }
                })
                .collect();
            let flow_cap = match rng.below(4) {
                0 | 1 => f64::INFINITY,
                2 => tie / (1 + rng.below(4)) as f64,
                _ => 1e-3 + rng.unit_f64() * 2e9,
            };
            Case {
                graph,
                caps,
                flows,
                flow_cap,
            }
        }
    }

    proptest! {
        /// The class-indexed fill reproduces the per-flow one exactly:
        /// every rate bit, every bottleneck and every work counter.
        #[test]
        fn class_fill_matches_per_flow_oracle_bit_for_bit(case in Cases) {
            let Case { graph, caps, flows, flow_cap } = &case;
            let mut want_work = AllocWork::default();
            let want = oracle::allocate(flows, graph, caps, *flow_cap, &mut want_work);
            let mut got_work = AllocWork::default();
            let got = allocate_rates_on_graph_with_work(flows, graph, caps, *flow_cap, &mut got_work);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got.rates), bits(&want.rates), "{:?}", case);
            prop_assert_eq!(&got.bottleneck, &want.bottleneck, "{:?}", case);
            prop_assert_eq!(got_work, want_work, "{:?}", case);
        }
    }
}
