//! Micro-benchmarks of the hot paths underlying every experiment: the
//! priority queue, the max-min rate allocator, parameter slicing, server
//! aggregation, the wire codec, DGC top-k selection and MLP backprop.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use p3_compress::Dgc;
use p3_core::{p3_plan, PrioQueue, SyncStrategy};
use p3_des::{SimTime, SplitMix64};
use p3_models::ModelSpec;
use p3_net::{
    allocate_rates_on_graph, Bandwidth, FlowSpec, LinkGraph, MachineId, Network, NetworkConfig,
    Priority,
};
use p3_pserver::{Key, KvServer, Message, OptimizerKind, WorkerId};
use p3_tensor::{Matrix, Mlp};
use p3_topo::Topology;

fn bench_prio_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("prio_queue");
    for n in [1_000usize, 10_000] {
        g.bench_with_input(BenchmarkId::new("push_pop", n), &n, |b, &n| {
            let mut rng = SplitMix64::new(1);
            b.iter(|| {
                let mut q = PrioQueue::new();
                for i in 0..n {
                    q.push((rng.next_u64() % 64) as u32, i);
                }
                let mut acc = 0usize;
                while let Some(v) = q.pop() {
                    acc = acc.wrapping_add(v);
                }
                acc
            })
        });
    }
    g.finish();
}

/// `n` loopback-free flows over `machines` machines in `classes` priority
/// classes: each destination is drawn among the other machines.
fn random_flows(rng: &mut SplitMix64, machines: usize, n: usize, classes: u64) -> Vec<FlowSpec> {
    (0..n)
        .map(|_| {
            let src = rng.next_below(machines as u64) as usize;
            let hop = 1 + rng.next_below(machines as u64 - 1) as usize;
            FlowSpec {
                src,
                dst: (src + hop) % machines,
                priority: Priority(rng.next_below(classes) as u32),
            }
        })
        .collect()
}

fn bench_allocator(c: &mut Criterion) {
    let mut g = c.benchmark_group("rate_allocator");
    for machines in [4usize, 16] {
        let mut rng = SplitMix64::new(7);
        let flows = random_flows(&mut rng, machines, machines * 3, 4);
        // The flat fabric: an endpoint-only graph of 10 Gbps ports.
        let graph = LinkGraph::new(&vec![1.25e9; machines]);
        g.bench_with_input(
            BenchmarkId::new("strict_priority_max_min", machines),
            &flows,
            |b, flows| b.iter(|| allocate_rates_on_graph(flows, &graph, graph.caps(), 1.2e8)),
        );
    }
    // Shaped like the ps-racks workload: 12 machines as 4 racks of 3
    // behind 4:1 cores, ~250 flows in flight spread over many classes (P3
    // gives every parameter slice its own), each crossing up to 4 links.
    let mut rng = SplitMix64::new(11);
    let flows = random_flows(&mut rng, 12, 250, 24);
    let graph = Topology::new(4, 3, 4.0).compile(Bandwidth::from_gbps(10.0));
    g.bench_with_input(
        BenchmarkId::new("racked_many_classes", 12),
        &flows,
        |b, flows| b.iter(|| allocate_rates_on_graph(flows, &graph, graph.caps(), 1.2e8)),
    );
    // The same flows held by a `Network`, which keeps them class-indexed
    // with cached routes and reuses its buffers: the per-reallocation
    // cost the simulator pays. A no-op port rescale reallocates.
    let cfg = NetworkConfig::new(12, Bandwidth::from_gbps(10.0))
        .with_link_graph(graph)
        .with_flow_cap(1.2e8);
    let mut net = Network::new(cfg);
    for (tag, f) in flows.iter().enumerate() {
        let (src, dst) = (MachineId(f.src), MachineId(f.dst));
        net.start_flow(SimTime::ZERO, src, dst, 1 << 30, f.priority, tag as u64);
    }
    g.bench_function("network_racked_many_classes/12", |b| {
        b.iter(|| net.set_port_scale(SimTime::ZERO, MachineId(0), 1.0, 1.0))
    });
    g.finish();
}

fn bench_slicing(c: &mut Criterion) {
    let vgg = ModelSpec::vgg19();
    let arrays: Vec<u64> = vgg.param_arrays().map(|a| a.params).collect();
    c.bench_function("slicing/vgg19_p3_plan_50k", |b| {
        b.iter(|| p3_plan(&arrays, 4, 50_000))
    });
    c.bench_function("slicing/vgg19_priorities", |b| {
        let strat = SyncStrategy::p3();
        let plan = strat.plan(&vgg, 4, 0);
        b.iter(|| strat.priorities(&plan))
    });
}

fn bench_server(c: &mut Criterion) {
    c.bench_function("kvserver/round_50k_params_4_workers", |b| {
        b.iter_batched(
            || {
                let mut s = KvServer::new(4, OptimizerKind::Sgd { lr: 0.1 });
                s.init(Key(0), vec![0.1; 50_000]);
                (s, vec![0.01f32; 50_000])
            },
            |(mut s, g)| {
                for w in 0..4 {
                    s.push(WorkerId(w), Key(0), &g);
                }
                s
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_codec(c: &mut Criterion) {
    let msg = Message::Push {
        key: Key(42),
        worker: WorkerId(1),
        priority: 3,
        values: vec![0.5; 50_000],
    };
    c.bench_function("codec/encode_decode_50k", |b| {
        b.iter(|| {
            let mut buf = bytes::BytesMut::with_capacity(msg.wire_size());
            msg.encode(&mut buf);
            Message::decode(&mut buf.freeze()).expect("roundtrip")
        })
    });
}

fn bench_dgc(c: &mut Criterion) {
    let mut rng = SplitMix64::new(3);
    let grad: Vec<f32> = (0..1_000_000).map(|_| rng.normal() as f32).collect();
    c.bench_function("dgc/top_k_1m_params", |b| {
        b.iter_batched(
            || Dgc::new(1_000_000, 0.9, 0.999, 0),
            |mut d| d.step(&grad),
            BatchSize::LargeInput,
        )
    });
}

fn bench_mlp(c: &mut Criterion) {
    let mut rng = SplitMix64::new(5);
    let mlp = Mlp::new(&[32, 64, 32, 10], &mut rng);
    let x = Matrix::randn(64, 32, 1.0, &mut rng);
    let y: Vec<usize> = (0..64).map(|i| i % 10).collect();
    c.bench_function("mlp/loss_and_grads_batch64", |b| {
        b.iter(|| mlp.loss_and_grads(&x, &y))
    });
}

criterion_group!(
    benches,
    bench_prio_queue,
    bench_allocator,
    bench_slicing,
    bench_server,
    bench_codec,
    bench_dgc,
    bench_mlp
);
criterion_main!(benches);
