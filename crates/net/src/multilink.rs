//! Multi-hop topology: the link graph the rate allocator runs on.
//!
//! Production clusters are not flat: racks hang off top-of-rack switches
//! whose core uplinks are oversubscribed (Parameter Hub, Luo et al., SoCC
//! 2018, measures PS traffic dying exactly there). A [`LinkGraph`] is a
//! set of capacitated unidirectional links plus one fixed path per ordered
//! machine pair, and [`crate::allocate_rates_on_graph`] performs
//! strict-priority progressive filling over *every* link on a flow's
//! path. The flat single-switch fabric is the graph with no transit links,
//! where every path is `[tx(src), rx(dst)]`.

/// Index of one unidirectional link in a [`LinkGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

impl std::fmt::Display for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// One machine pair's route, resolved once and detached from the graph:
/// the source's tx port, the span of the pair's transit hops in the
/// graph's hop table, and the destination's rx port. A flow caches it for
/// its whole life; [`LinkGraph::links`] walks it in path order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Route {
    tx: u32,
    rx: u32,
    hops: (u32, u32),
}

/// A capacitated link graph with a fixed route per machine pair.
///
/// Links `0..machines` are the per-machine transmit ports, links
/// `machines..2*machines` the receive ports; transit links (switch
/// uplinks/downlinks) are appended with [`LinkGraph::add_link`]. Every
/// path starts at the source's tx port and ends at the destination's rx
/// port; [`LinkGraph::set_transit`] inserts the transit hops in between.
///
/// # Examples
///
/// ```
/// use p3_net::{allocate_rates_on_graph, FlowSpec, LinkGraph, Priority};
///
/// // Two machines behind a shared 50 B/s uplink.
/// let mut g = LinkGraph::new(&[100.0, 100.0, 100.0]);
/// let up = g.add_link("up", 50.0);
/// g.set_transit(0, 2, &[up]);
/// g.set_transit(1, 2, &[up]);
/// let flows = [
///     FlowSpec { src: 0, dst: 2, priority: Priority(1) },
///     FlowSpec { src: 1, dst: 2, priority: Priority(1) },
/// ];
/// let caps = g.caps().to_vec();
/// let alloc = allocate_rates_on_graph(&flows, &g, &caps, f64::INFINITY);
/// assert_eq!(alloc.rates, vec![25.0, 25.0]); // uplink, not the NICs, binds
/// assert_eq!(alloc.bottleneck, vec![Some(up), Some(up)]);
/// ```
#[derive(Debug, Clone)]
pub struct LinkGraph {
    machines: usize,
    /// Names of the transit links; port names follow from the machine.
    names: Vec<String>,
    caps: Vec<f64>,
    /// Transit hops of every routed pair, back to back.
    hops: Vec<LinkId>,
    /// Row-major `src * machines + dst`: the `(start, end)` of the pair's
    /// transit hops in `hops`. Empty until the first
    /// [`LinkGraph::set_transit`]; the endpoint ports follow from the pair.
    routes: Vec<(usize, usize)>,
}

impl LinkGraph {
    /// A graph of `nic.len()` machines whose tx and rx ports both have the
    /// given per-machine capacity (bytes/sec), with direct two-hop paths
    /// `[tx(src), rx(dst)]` for every pair — the degenerate single-switch
    /// fabric.
    ///
    /// # Panics
    ///
    /// Panics if `nic` is empty or any capacity is negative or non-finite.
    pub fn new(nic: &[f64]) -> Self {
        Self::with_ports(nic, nic)
    }

    /// Like [`LinkGraph::new`] but with distinct transmit and receive port
    /// capacities.
    ///
    /// # Panics
    ///
    /// Panics if the tables are empty, differ in length, or contain a
    /// negative or non-finite capacity.
    pub fn with_ports(tx: &[f64], rx: &[f64]) -> Self {
        assert!(!tx.is_empty(), "a link graph needs at least one machine");
        assert_eq!(tx.len(), rx.len(), "tx/rx capacity tables differ in length");
        for (side, ports) in [("tx", tx), ("rx", rx)] {
            for (m, &c) in ports.iter().enumerate() {
                assert!(
                    c >= 0.0 && c.is_finite(),
                    "bad {side} capacity {c} on machine {m}"
                );
            }
        }
        LinkGraph {
            machines: tx.len(),
            names: Vec::new(),
            caps: [tx, rx].concat(),
            hops: Vec::new(),
            routes: Vec::new(),
        }
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Number of links (ports plus transit links).
    pub fn num_links(&self) -> usize {
        self.caps.len()
    }

    /// The transmit-port link of machine `m`.
    pub fn tx_link(&self, m: usize) -> LinkId {
        assert!(m < self.machines, "unknown machine {m}");
        LinkId(m)
    }

    /// The receive-port link of machine `m`.
    pub fn rx_link(&self, m: usize) -> LinkId {
        assert!(m < self.machines, "unknown machine {m}");
        LinkId(self.machines + m)
    }

    /// True when `link` is a transit link (not an endpoint port).
    pub fn is_transit(&self, link: LinkId) -> bool {
        link.0 >= 2 * self.machines
    }

    /// Human-readable name of a link: `m{m}.tx` or `m{m}.rx` for machine
    /// `m`'s ports, the name given to [`LinkGraph::add_link`] for a
    /// transit link.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn link_name(&self, link: LinkId) -> String {
        let m = self.machines;
        match link.0.checked_sub(2 * m) {
            Some(t) => self.names[t].clone(),
            None if link.0 < m => format!("m{}.tx", link.0),
            None => format!("m{}.rx", link.0 - m),
        }
    }

    /// Nominal capacity of a link in bytes/sec.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn link_cap(&self, link: LinkId) -> f64 {
        self.caps[link.0]
    }

    /// All nominal link capacities, indexed by [`LinkId`].
    pub fn caps(&self) -> &[f64] {
        &self.caps
    }

    /// Adds a transit link (switch uplink, core hop, …) and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is negative or non-finite.
    pub fn add_link(&mut self, name: &str, cap: f64) -> LinkId {
        assert!(cap >= 0.0 && cap.is_finite(), "bad link capacity {cap}");
        self.names.push(name.to_string());
        self.caps.push(cap);
        LinkId(self.caps.len() - 1)
    }

    /// Routes `src -> dst` through the given transit links: the full path
    /// becomes `[tx(src), via…, rx(dst)]`. A path must not repeat a link.
    ///
    /// # Panics
    ///
    /// Panics if a machine or link is out of range, `src == dst`, or `via`
    /// contains a duplicate or an endpoint port.
    pub fn set_transit(&mut self, src: usize, dst: usize, via: &[LinkId]) {
        assert!(
            src < self.machines && dst < self.machines,
            "unknown machine pair {src}->{dst}"
        );
        assert!(src != dst, "no route needed from a machine to itself");
        for (k, &l) in via.iter().enumerate() {
            assert!(l.0 < self.caps.len(), "unknown link {l}");
            assert!(
                self.is_transit(l),
                "path interior must be transit links, got port {l}"
            );
            assert!(
                !via[..k].contains(&l),
                "duplicate link {l} on path {src}->{dst}"
            );
        }
        if self.routes.is_empty() {
            self.routes = vec![(0, 0); self.machines * self.machines];
        }
        let start = self.hops.len();
        self.hops.extend_from_slice(via);
        self.routes[src * self.machines + dst] = (start, self.hops.len());
    }

    /// The fixed route for `src -> dst`.
    ///
    /// # Panics
    ///
    /// Panics if either machine is out of range.
    pub(crate) fn route(&self, src: usize, dst: usize) -> Route {
        assert!(
            src < self.machines && dst < self.machines,
            "unknown machine pair {src}->{dst}"
        );
        let (start, end) = self
            .routes
            .get(src * self.machines + dst)
            .copied()
            .unwrap_or((0, 0));
        // Link and hop-table indices fit in u32 by a wide margin: a graph
        // holds a few links per machine.
        Route {
            tx: src as u32,
            rx: (self.machines + dst) as u32,
            hops: (start as u32, end as u32),
        }
    }

    /// The transit hops of a route of this graph.
    fn hops_of(&self, route: Route) -> &[LinkId] {
        let (start, end) = (route.hops.0 as usize, route.hops.1 as usize);
        // Endpoint-only routes, every route of a flat fabric, skip the
        // table lookup.
        if start == end {
            return &[];
        }
        self.hops.get(start..end).unwrap_or(&[])
    }

    /// The link indices of a route of this graph, in path order: tx port,
    /// transit hops, rx port.
    pub(crate) fn links(&self, route: Route) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(route.tx as usize)
            .chain(self.hops_of(route).iter().map(|h| h.0))
            .chain(std::iter::once(route.rx as usize))
    }

    /// Calls `f` on every link of `route`, in path order: [`Self::links`]
    /// unrolled for the allocator's inner loops.
    pub(crate) fn for_each_link(&self, route: Route, mut f: impl FnMut(usize)) {
        f(route.tx as usize);
        self.hops_of(route).iter().for_each(|h| f(h.0));
        f(route.rx as usize);
    }

    /// The first link of `route`, in path order, whose residual in `res`
    /// is at most `thr`.
    pub(crate) fn first_at_most(&self, route: Route, res: &[f64], thr: f64) -> Option<usize> {
        let at_most = |l: usize| res.get(l).is_some_and(|&r| r <= thr);
        let tx = route.tx as usize;
        if at_most(tx) {
            return Some(tx);
        }
        if let Some(h) = self.hops_of(route).iter().find(|h| at_most(h.0)) {
            return Some(h.0);
        }
        let rx = route.rx as usize;
        at_most(rx).then_some(rx)
    }

    /// The fixed route for `src -> dst`, endpoint ports included:
    /// `tx(src)`, the transit hops, `rx(dst)`.
    ///
    /// # Panics
    ///
    /// Panics if either machine is out of range.
    pub fn path(&self, src: usize, dst: usize) -> impl Iterator<Item = LinkId> + '_ {
        self.links(self.route(src, dst)).map(LinkId)
    }

    /// Link capacities scaled by a protocol-efficiency factor and by
    /// per-machine port factors (fault injection): the tx port of machine
    /// `m` is scaled by `tx_scale[m]`, its rx port by `rx_scale[m]`,
    /// transit links by `efficiency` alone.
    ///
    /// # Panics
    ///
    /// Panics if a scale table's length differs from the machine count.
    pub fn scaled_caps(&self, efficiency: f64, tx_scale: &[f64], rx_scale: &[f64]) -> Vec<f64> {
        assert_eq!(tx_scale.len(), self.machines, "tx scale table length");
        assert_eq!(rx_scale.len(), self.machines, "rx scale table length");
        let mut caps: Vec<f64> = self.caps.iter().map(|c| c * efficiency).collect();
        for m in 0..self.machines {
            caps[m] *= tx_scale[m];
            caps[self.machines + m] *= rx_scale[m];
        }
        caps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::{
        allocate_rates_on_graph, allocate_rates_on_graph_with_work, AllocWork, FlowSpec,
    };
    use crate::types::Priority;

    fn flow(src: usize, dst: usize, p: u32) -> FlowSpec {
        FlowSpec {
            src,
            dst,
            priority: Priority(p),
        }
    }

    /// Two racks of two machines each behind per-rack up/down links of
    /// `core` bytes/sec; NICs at `nic` bytes/sec.
    fn two_racks(nic: f64, core: f64) -> LinkGraph {
        let mut g = LinkGraph::new(&[nic; 4]);
        let up0 = g.add_link("rack0.up", core);
        let down0 = g.add_link("rack0.down", core);
        let up1 = g.add_link("rack1.up", core);
        let down1 = g.add_link("rack1.down", core);
        for src in 0..4usize {
            for dst in 0..4usize {
                if src == dst || src / 2 == dst / 2 {
                    continue;
                }
                let via = if src / 2 == 0 {
                    [up0, down1]
                } else {
                    [up1, down0]
                };
                g.set_transit(src, dst, &via);
            }
        }
        g
    }

    #[test]
    fn paths_run_tx_then_transit_then_rx() {
        let g = two_racks(100.0, 50.0);
        let ids = |src, dst| g.path(src, dst).map(|l| l.0).collect::<Vec<_>>();
        assert_eq!(ids(0, 1), vec![0, 5], "intra-rack: ports only");
        assert_eq!(ids(1, 0), vec![1, 4]);
        assert_eq!(ids(0, 3), vec![0, 8, 11, 7], "tx, rack0.up, rack1.down, rx");
        assert_eq!(ids(3, 0), vec![3, 10, 9, 4], "tx, rack1.up, rack0.down, rx");
        let flat = LinkGraph::new(&[1.0; 3]);
        assert_eq!(flat.path(2, 0).map(|l| l.0).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn links_are_named_after_their_machine_or_as_added() {
        let g = two_racks(100.0, 50.0);
        assert_eq!(g.link_name(g.tx_link(3)), "m3.tx");
        assert_eq!(g.link_name(g.rx_link(0)), "m0.rx");
        assert_eq!(g.link_name(LinkId(8)), "rack0.up");
        assert_eq!(g.link_name(LinkId(11)), "rack1.down");
    }

    #[test]
    fn rerouting_a_pair_replaces_its_hops() {
        let mut g = two_racks(100.0, 50.0);
        let extra = g.add_link("spine", 10.0);
        g.set_transit(0, 3, &[extra]);
        let path = |src, dst| g.path(src, dst).collect::<Vec<_>>();
        assert_eq!(path(0, 3), vec![g.tx_link(0), extra, g.rx_link(3)]);
        assert_eq!(path(1, 3).len(), 4, "other pairs keep their route");
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn repeated_transit_hop_rejected() {
        let mut g = LinkGraph::new(&[10.0, 10.0]);
        let up = g.add_link("up", 5.0);
        g.set_transit(0, 1, &[up, up]);
    }

    #[test]
    fn intra_rack_flow_ignores_the_core() {
        let g = two_racks(100.0, 1.0); // core nearly dead
        let flows = [flow(0, 1, 0)];
        let caps = g.caps().to_vec();
        let a = allocate_rates_on_graph(&flows, &g, &caps, f64::INFINITY);
        assert!((a.rates[0] - 100.0).abs() < 1e-6, "{:?}", a.rates);
    }

    #[test]
    fn cross_rack_flow_bound_by_uplink() {
        let g = two_racks(100.0, 40.0);
        let flows = [flow(0, 2, 0)];
        let caps = g.caps().to_vec();
        let a = allocate_rates_on_graph(&flows, &g, &caps, f64::INFINITY);
        assert!((a.rates[0] - 40.0).abs() < 1e-6, "{:?}", a.rates);
        let l = a.bottleneck[0].expect("bottlenecked");
        assert!(
            g.is_transit(l),
            "bottleneck should be a core link, got {}",
            g.link_name(l)
        );
    }

    #[test]
    fn oversubscribed_core_shared_max_min() {
        // Both rack-0 machines send cross-rack: they share the uplink.
        let g = two_racks(100.0, 50.0);
        let flows = [flow(0, 2, 0), flow(1, 3, 0)];
        let caps = g.caps().to_vec();
        let a = allocate_rates_on_graph(&flows, &g, &caps, f64::INFINITY);
        assert!((a.rates[0] - 25.0).abs() < 1e-6, "{:?}", a.rates);
        assert!((a.rates[1] - 25.0).abs() < 1e-6, "{:?}", a.rates);
        assert_eq!(g.link_name(a.bottleneck[0].unwrap()), "rack0.up");
    }

    #[test]
    fn urgent_class_owns_the_uplink_first() {
        let g = two_racks(100.0, 60.0);
        let flows = [flow(0, 2, 0), flow(1, 3, 9)];
        let caps = g.caps().to_vec();
        let a = allocate_rates_on_graph(&flows, &g, &caps, f64::INFINITY);
        assert!(
            (a.rates[0] - 60.0).abs() < 1e-6,
            "urgent takes the core: {:?}",
            a.rates
        );
        assert!(
            a.rates[1].abs() < 1e-6,
            "bulk starved on the core: {:?}",
            a.rates
        );
    }

    #[test]
    fn flow_cap_reports_no_link_bottleneck() {
        let g = two_racks(100.0, 60.0);
        let flows = [flow(0, 2, 0)];
        let caps = g.caps().to_vec();
        let a = allocate_rates_on_graph(&flows, &g, &caps, 10.0);
        assert_eq!(a.rates, vec![10.0]);
        assert_eq!(a.bottleneck, vec![None]);
    }

    #[test]
    fn zero_capacity_core_yields_zero_rates() {
        let g = two_racks(100.0, 0.0);
        let flows = [flow(0, 3, 0)];
        let caps = g.caps().to_vec();
        let a = allocate_rates_on_graph(&flows, &g, &caps, f64::INFINITY);
        assert_eq!(a.rates, vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "transit")]
    fn endpoint_port_rejected_as_transit_hop() {
        let mut g = LinkGraph::new(&[10.0, 10.0, 10.0]);
        let port = g.rx_link(2);
        g.set_transit(0, 1, &[port]);
    }

    #[test]
    fn work_counters_are_filled_without_perturbing_allocation() {
        let g = two_racks(100.0, 50.0);
        let flows = [flow(0, 3, 0), flow(1, 2, 1)];
        let caps = g.caps().to_vec();
        let plain = allocate_rates_on_graph(&flows, &g, &caps, f64::INFINITY);
        let mut work = AllocWork::default();
        let counted =
            allocate_rates_on_graph_with_work(&flows, &g, &caps, f64::INFINITY, &mut work);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&plain.rates), bits(&counted.rates));
        assert_eq!(plain.bottleneck, counted.bottleneck);
        assert!(work.rounds >= 2, "one round per priority class: {work:?}");
        assert!(work.flow_touches >= work.rounds, "{work:?}");
        // Each flow's path crosses at least tx, core, rx.
        assert!(work.port_touches >= 3 * work.rounds, "{work:?}");
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::allocator::{allocate_rates_on_graph, FlowSpec};
    use crate::types::Priority;
    use proptest::prelude::*;

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

    /// `racks` racks of `size` machines, uplink/downlink = size*nic/oversub.
    fn racked(racks: usize, size: usize, nic: f64, oversub: f64) -> LinkGraph {
        let machines = racks * size;
        let mut g = LinkGraph::new(&vec![nic; machines]);
        let core = size as f64 * nic / oversub;
        let ups: Vec<LinkId> = (0..racks)
            .map(|r| g.add_link(&format!("rack{r}.up"), core))
            .collect();
        let downs: Vec<LinkId> = (0..racks)
            .map(|r| g.add_link(&format!("rack{r}.down"), core))
            .collect();
        for src in 0..machines {
            for dst in 0..machines {
                if src != dst && src / size != dst / size {
                    g.set_transit(src, dst, &[ups[src / size], downs[dst / size]]);
                }
            }
        }
        g
    }

    proptest! {
        /// No link in an oversubscribed fabric is ever loaded beyond its
        /// capacity.
        #[test]
        fn link_capacities_respected(
            flows in arb_flows(6),
            nic in 1.0f64..1e9,
            oversub in 1.0f64..8.0,
        ) {
            let g = racked(3, 2, nic, oversub);
            let caps = g.caps().to_vec();
            let a = allocate_rates_on_graph(&flows, &g, &caps, f64::INFINITY);
            let mut load = vec![0.0; g.num_links()];
            for (f, r) in flows.iter().zip(&a.rates) {
                prop_assert!(*r >= 0.0);
                for l in g.path(f.src, f.dst) {
                    load[l.0] += r;
                }
            }
            for l in 0..g.num_links() {
                prop_assert!(load[l] <= caps[l] * (1.0 + 1e-6),
                    "link {} over capacity: {} > {}", g.link_name(LinkId(l)), load[l], caps[l]);
            }
        }

        /// Max-min optimality: every flow is bottlenecked at some
        /// saturated link on its path (otherwise its rate could rise).
        #[test]
        fn every_flow_hits_a_saturated_link(
            flows in arb_flows(6),
            oversub in 1.0f64..8.0,
        ) {
            let nic = 100.0;
            let g = racked(3, 2, nic, oversub);
            let caps = g.caps().to_vec();
            let a = allocate_rates_on_graph(&flows, &g, &caps, f64::INFINITY);
            let mut load = vec![0.0; g.num_links()];
            for (f, r) in flows.iter().zip(&a.rates) {
                for l in g.path(f.src, f.dst) {
                    load[l.0] += r;
                }
            }
            for (i, f) in flows.iter().enumerate() {
                let saturated = g
                    .path(f.src, f.dst)
                    .any(|l| load[l.0] >= caps[l.0] * (1.0 - 1e-6));
                prop_assert!(saturated, "flow {i} ({f:?}) has slack on every link of its path");
            }
        }

        /// The reported bottleneck is honest: the flow crosses it and it
        /// is saturated under the final allocation.
        #[test]
        fn reported_bottleneck_is_on_path_and_saturated(
            flows in arb_flows(6),
            oversub in 1.0f64..8.0,
        ) {
            let g = racked(3, 2, 100.0, oversub);
            let caps = g.caps().to_vec();
            let a = allocate_rates_on_graph(&flows, &g, &caps, f64::INFINITY);
            let mut load = vec![0.0; g.num_links()];
            for (f, r) in flows.iter().zip(&a.rates) {
                for l in g.path(f.src, f.dst) {
                    load[l.0] += r;
                }
            }
            for (i, f) in flows.iter().enumerate() {
                if let Some(l) = a.bottleneck[i] {
                    prop_assert!(g.path(f.src, f.dst).any(|p| p == l),
                        "flow {i}: bottleneck {} not on its path", g.link_name(l));
                    prop_assert!(load[l.0] >= caps[l.0] * (1.0 - 1e-6),
                        "flow {i}: bottleneck {} not saturated", g.link_name(l));
                }
            }
        }

        /// Urgent-class rates are unchanged by the presence of bulk
        /// traffic, exactly as in the flat model.
        #[test]
        fn urgent_class_blind_to_bulk_on_graph(flows in arb_flows(6)) {
            let g = racked(3, 2, 77.0, 4.0);
            let caps = g.caps().to_vec();
            let all = allocate_rates_on_graph(&flows, &g, &caps, f64::INFINITY);
            let urgent: Vec<FlowSpec> =
                flows.iter().copied().filter(|f| f.priority == Priority(0)).collect();
            let alone = allocate_rates_on_graph(&urgent, &g, &caps, f64::INFINITY);
            let mut k = 0;
            for (f, r) in flows.iter().zip(&all.rates) {
                if f.priority == Priority(0) {
                    prop_assert!((r - alone.rates[k]).abs() < 1e-6,
                        "urgent flow rate changed: {} vs {}", r, alone.rates[k]);
                    k += 1;
                }
            }
        }
    }
}
