//! Snapshot deserialization: validates bytes back into a mid-run
//! [`ClusterSim`]. Field order mirrors [`super::encode`] exactly. Every
//! length, index, and cross-reference the engine would later trust is
//! checked here against [`Bounds`], so hostile or truncated input can
//! never panic the engine — it surfaces as [`SnapshotError`].

use super::super::collective::{ActiveCollective, CollectiveState};
use super::super::types::{Ev, MsgCtx, MsgKind, Phase, ProcItem, ServerState, WorkerState};
use super::super::ClusterSim;
use super::{check, config_fingerprint, role_from};
use crate::config::ClusterConfig;
use crate::egress::{EgressUnit, OutMsg};
use crate::snap::{SnapReader, SnapshotError};
use p3_core::PrioQueue;
use p3_des::{EventQueue, SimDuration, SimTime, SplitMix64};
use p3_net::{
    CompletedFlow, DeliveringSnapshot, FlowId, FlowSnapshot, MachineId, NetStats, NetworkSnapshot,
    Priority,
};
use std::collections::{BTreeMap, VecDeque};

/// Index bounds a decoded snapshot must respect — anything the engine
/// will later use as an array index.
struct Bounds {
    machines: usize,
    blocks: usize,
    num_keys: usize,
    stragglers: usize,
    degradations: usize,
    crashes: usize,
}

/// Rebuilds a mid-run simulation from snapshot bytes. Never panics on
/// malformed input: structural violations return [`SnapshotError`].
pub(in crate::engine) fn restore(
    cfg: ClusterConfig,
    bytes: &[u8],
) -> Result<ClusterSim, SnapshotError> {
    let expected = config_fingerprint(&cfg);
    let (mut r, found) = SnapReader::new(bytes)?;
    if found != expected {
        return Err(SnapshotError::ConfigMismatch);
    }
    let mut sim = ClusterSim::new(cfg);
    if sim.config_error.is_some() {
        // The fingerprint matched a configuration the engine itself
        // rejects — the original run could never have snapshotted it.
        return Err(SnapshotError::ConfigMismatch);
    }
    let b = Bounds {
        machines: sim.cfg.machines,
        blocks: sim.cfg.model.blocks().len(),
        num_keys: sim.plan.num_keys(),
        stragglers: sim.cfg.faults.stragglers.len(),
        degradations: sim.cfg.faults.link_degradations.len(),
        crashes: sim.cfg.faults.crashes.len(),
    };
    let nlinks = sim.net.link_usage().len();
    let traced_ports = if sim.cfg.trace_bin.is_some() {
        b.machines
    } else {
        0
    };

    let now = SimTime::from_nanos(r.u64()?);
    let n = r.len()?;
    let mut pending = Vec::new();
    for _ in 0..n {
        let t = SimTime::from_nanos(r.u64()?);
        check(t >= now, "pending event scheduled before the clock")?;
        pending.push((t, decode_ev(&mut r, &b)?));
    }
    sim.queue = EventQueue::from_pending(now, pending);

    for i in 0..b.machines {
        decode_worker(&mut r, &mut sim.workers[i], &b)?;
    }
    for i in 0..b.machines {
        decode_server(&mut r, &mut sim.servers[i], &b)?;
    }
    let netsnap = decode_net(&mut r, &b, nlinks, traced_ports)?;

    let n = r.len()?;
    let mut msgs = BTreeMap::new();
    for _ in 0..n {
        let id = r.u64()?;
        let ctx = decode_msg_ctx(&mut r, &b)?;
        check(msgs.insert(id, ctx).is_none(), "duplicate message id")?;
    }
    let n = r.len()?;
    let mut flows = BTreeMap::new();
    for _ in 0..n {
        let flow = FlowId(r.u64()?);
        let mid = r.u64()?;
        check(msgs.contains_key(&mid), "flow references unknown message")?;
        check(flows.insert(flow, mid).is_none(), "duplicate flow id")?;
    }
    // Every flow the network will eventually deliver must resolve to a
    // registered message, or delivery would panic.
    for f in &netsnap.flows {
        check(
            flows.contains_key(&FlowId(f.id)),
            "network flow unknown to the engine",
        )?;
    }
    for d in &netsnap.delivering {
        check(
            flows.contains_key(&d.flow.id),
            "delivering flow unknown to the engine",
        )?;
    }
    sim.net.restore_from(&netsnap);
    sim.msgs = msgs;
    sim.flows = flows;

    sim.next_msg_id = r.u64()?;
    if let Some((&max_id, _)) = sim.msgs.last_key_value() {
        check(
            sim.next_msg_id > max_id,
            "message id counter behind live ids",
        )?;
    }
    sim.next_wake = r.opt_u64()?.map(SimTime::from_nanos);
    for i in 0..b.machines {
        sim.admit_gate[i] = [SimTime::from_nanos(r.u64()?), SimTime::from_nanos(r.u64()?)];
    }
    for i in 0..b.machines {
        sim.admit_kick_at[i] = [
            r.opt_u64()?.map(SimTime::from_nanos),
            r.opt_u64()?.map(SimTime::from_nanos),
        ];
    }
    sim.events = r.u64()?;

    sim.stats.pushes = r.u64()?;
    sim.stats.responses = r.u64()?;
    sim.stats.notifies = r.u64()?;
    sim.stats.pull_requests = r.u64()?;
    sim.stats.rack_pushes = r.u64()?;
    sim.stats.combined_pushes = r.u64()?;
    sim.stats.collective_chunks = r.u64()?;

    sim.loss_rng = SplitMix64::new(r.u64()?);
    for i in 0..b.machines {
        sim.dead_members[i] = r.bool()?;
    }
    sim.expected_pushes = r.u32()?;

    sim.faults.messages_lost = r.u64()?;
    sim.faults.retransmits = r.u64()?;
    sim.faults.gave_up = r.u64()?;
    sim.faults.stale_pushes_dropped = r.u64()?;
    sim.faults.duplicate_pushes_dropped = r.u64()?;
    sim.faults.degraded_rounds = r.u64()?;
    sim.faults.flows_cancelled = r.u64()?;
    sim.faults.collectives_aborted = r.u64()?;

    let n = r.len()?;
    sim.rack_agg.clear();
    for _ in 0..n {
        let machine = r.usize()?;
        let key = r.usize()?;
        let round = r.u64()?;
        let mask = r.u128()?;
        check(machine < b.machines, "rack aggregator out of range")?;
        check(key < b.num_keys, "rack-aggregation key out of range")?;
        sim.rack_agg.insert((machine, key, round), mask);
    }

    let has_collective = r.bool()?;
    check(
        has_collective == sim.collective.is_some(),
        "collective state presence contradicts the backend",
    )?;
    // Presence equality was just checked, so this decodes exactly when
    // the writer encoded.
    if let Some(st) = sim.collective.as_mut() {
        decode_collective(&mut r, st, &b)?;
    }
    sim.hash = r.u64()?;
    r.expect_end()?;
    sim.config_error = None;
    Ok(sim)
}

fn decode_ev(r: &mut SnapReader, b: &Bounds) -> Result<Ev, SnapshotError> {
    let idx_below = |v: usize, bound: usize, what: &str| -> Result<usize, SnapshotError> {
        check(v < bound, what)?;
        Ok(v)
    };
    let tag = r.u8()?;
    Ok(match tag {
        0 => Ev::StartWorker {
            worker: idx_below(r.usize()?, b.machines, "event worker out of range")?,
        },
        1 => {
            let worker = idx_below(r.usize()?, b.machines, "event worker out of range")?;
            let ptag = r.u8()?;
            let block = idx_below(r.usize()?, b.blocks, "event block out of range")?;
            let phase = match ptag {
                0 => Phase::Fwd(block),
                1 => Phase::Bwd(block),
                _ => return Err(SnapshotError::Corrupt(format!("bad phase tag {ptag}"))),
            };
            Ev::Compute {
                worker,
                phase,
                inc: r.u32()?,
            }
        }
        2 => Ev::EgressReady {
            machine: idx_below(r.usize()?, b.machines, "event machine out of range")?,
            role: role_from(r.u8()?)?,
            dst: MachineId(idx_below(
                r.usize()?,
                b.machines,
                "event destination out of range",
            )?),
            inc: r.u32()?,
        },
        3 => Ev::AdmitKick {
            machine: idx_below(r.usize()?, b.machines, "event machine out of range")?,
            role: role_from(r.u8()?)?,
        },
        4 => Ev::ProcDone {
            server: idx_below(r.usize()?, b.machines, "event server out of range")?,
        },
        5 => Ev::NetWake,
        6 => Ev::StragglerStart {
            idx: idx_below(r.usize()?, b.stragglers, "straggler index out of range")?,
        },
        7 => Ev::StragglerEnd {
            idx: idx_below(r.usize()?, b.stragglers, "straggler index out of range")?,
        },
        8 => Ev::LinkDegradeStart {
            idx: idx_below(r.usize()?, b.degradations, "degradation index out of range")?,
        },
        9 => Ev::LinkDegradeEnd {
            idx: idx_below(r.usize()?, b.degradations, "degradation index out of range")?,
        },
        10 => Ev::Crash {
            idx: idx_below(r.usize()?, b.crashes, "crash index out of range")?,
        },
        11 => Ev::Rejoin {
            worker: idx_below(r.usize()?, b.machines, "event worker out of range")?,
        },
        12 => Ev::RetryTimer {
            msg_id: r.u64()?,
            attempt: r.u32()?,
        },
        13 => Ev::LivenessTimeout {
            worker: idx_below(r.usize()?, b.machines, "event worker out of range")?,
        },
        _ => return Err(SnapshotError::Corrupt(format!("bad event tag {tag}"))),
    })
}

fn decode_u64s(r: &mut SnapReader, expected: usize, what: &str) -> Result<Vec<u64>, SnapshotError> {
    let n = r.len()?;
    check(n == expected, what)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u64()?);
    }
    Ok(out)
}

fn decode_worker(
    r: &mut SnapReader,
    ws: &mut WorkerState,
    b: &Bounds,
) -> Result<(), SnapshotError> {
    ws.iter = r.u64()?;
    ws.completed = r.u64()?;
    ws.received_version = decode_u64s(r, b.num_keys, "worker version vector length")?;
    ws.notified_version = decode_u64s(r, b.num_keys, "worker version vector length")?;
    ws.waiting_block = r.opt_usize()?;
    if let Some(blk) = ws.waiting_block {
        check(blk < b.blocks, "waiting block out of range")?;
    }
    ws.stalled_since = r.opt_u64()?.map(SimTime::from_nanos);
    ws.stalled_total = SimDuration::from_nanos(r.u64()?);
    ws.started = r.bool()?;
    ws.measure_start = r.opt_u64()?.map(SimTime::from_nanos);
    ws.measure_end = r.opt_u64()?.map(SimTime::from_nanos);
    ws.jitter = r.f64()?;
    ws.slowdown = r.f64()?;
    ws.crashed = r.bool()?;
    ws.permanently_dead = r.bool()?;
    ws.incarnation = r.u32()?;
    ws.resume_iter = r.u64()?;
    ws.iter_started = SimTime::from_nanos(r.u64()?);
    let n = r.len()?;
    ws.measured_iters = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        ws.measured_iters.push(r.f64()?);
    }
    ws.egress = decode_egress(r, b)?;
    ws.rng = SplitMix64::new(r.u64()?);
    Ok(())
}

fn decode_server(
    r: &mut SnapReader,
    ss: &mut ServerState,
    b: &Bounds,
) -> Result<(), SnapshotError> {
    let n = r.len()?;
    let mut queue = PrioQueue::new();
    for _ in 0..n {
        let prio = r.u32()?;
        queue.push(prio, decode_proc_item(r, b)?);
    }
    ss.proc_queue = queue;
    ss.proc_busy = r.bool()?;
    let n = r.len()?;
    check(n == b.num_keys, "server mask vector length")?;
    ss.received = Vec::with_capacity(n);
    for _ in 0..n {
        ss.received.push(r.u128()?);
    }
    ss.version = decode_u64s(r, b.num_keys, "server version vector length")?;
    let n = r.len()?;
    check(n == b.num_keys, "pending-pull vector length")?;
    ss.pending_pulls = Vec::with_capacity(n);
    for _ in 0..n {
        let m = r.len()?;
        let mut pulls = Vec::with_capacity(m.min(1024));
        for _ in 0..m {
            let worker = r.usize()?;
            check(worker < b.machines, "pending puller out of range")?;
            pulls.push(worker);
        }
        ss.pending_pulls.push(pulls);
    }
    ss.current = if r.bool()? {
        Some(decode_proc_item(r, b)?)
    } else {
        None
    };
    ss.egress = decode_egress(r, b)?;
    Ok(())
}

fn decode_proc_item(r: &mut SnapReader, b: &Bounds) -> Result<ProcItem, SnapshotError> {
    let key = r.usize()?;
    let round = r.u64()?;
    let worker = r.usize()?;
    let members = r.u128()?;
    check(key < b.num_keys, "processing-item key out of range")?;
    check(worker < b.machines, "processing-item worker out of range")?;
    Ok(ProcItem {
        key,
        round,
        worker,
        members,
    })
}

fn decode_egress(r: &mut SnapReader, b: &Bounds) -> Result<EgressUnit, SnapshotError> {
    let tag = r.u8()?;
    match tag {
        0 => {
            let window = r.usize()?;
            check(window > 0, "zero egress window")?;
            let in_flight = r.usize()?;
            let n = r.len()?;
            let mut queue = PrioQueue::new();
            for _ in 0..n {
                let msg = decode_out_msg(r, b)?;
                queue.push(msg.priority.0, msg);
            }
            Ok(EgressUnit::Single {
                queue,
                in_flight,
                window,
            })
        }
        1 => {
            let n = r.len()?;
            check(n == b.machines, "per-destination lane count")?;
            let mut queues = Vec::with_capacity(n);
            for _ in 0..n {
                let m = r.len()?;
                let mut lane = VecDeque::new();
                for _ in 0..m {
                    lane.push_back(decode_out_msg(r, b)?);
                }
                queues.push(lane);
            }
            let n = r.len()?;
            check(n == b.machines, "per-destination busy count")?;
            let mut busy = Vec::with_capacity(n);
            for _ in 0..n {
                busy.push(r.bool()?);
            }
            Ok(EgressUnit::PerDest { queues, busy })
        }
        _ => Err(SnapshotError::Corrupt(format!("bad egress tag {tag}"))),
    }
}

fn decode_out_msg(r: &mut SnapReader, b: &Bounds) -> Result<OutMsg, SnapshotError> {
    let dst = r.usize()?;
    check(dst < b.machines, "egress destination out of range")?;
    Ok(OutMsg {
        dst: MachineId(dst),
        bytes: r.u64()?,
        priority: Priority(r.u32()?),
        msg_id: r.u64()?,
    })
}

fn decode_msg_ctx(r: &mut SnapReader, b: &Bounds) -> Result<MsgCtx, SnapshotError> {
    let kind = decode_msg_kind(r, b)?;
    let src = r.usize()?;
    let dst = r.usize()?;
    check(src < b.machines, "message source out of range")?;
    check(dst < b.machines, "message destination out of range")?;
    Ok(MsgCtx {
        kind,
        src,
        dst,
        bytes: r.u64()?,
        priority: Priority(r.u32()?),
        attempt: r.u32()?,
        in_flight: r.bool()?,
    })
}

fn decode_msg_kind(r: &mut SnapReader, b: &Bounds) -> Result<MsgKind, SnapshotError> {
    let tag = r.u8()?;
    let key = r.usize()?;
    check(key < b.num_keys, "message key out of range")?;
    let n = r.u64()?; // round or version, tag-dependent
    Ok(match tag {
        0 => MsgKind::Push { key, round: n },
        1 => MsgKind::Response { key, version: n },
        2 => MsgKind::Notify { key, version: n },
        3 => MsgKind::PullReq { key, round: n },
        4 => MsgKind::RackPush { key, round: n },
        5 => MsgKind::CombinedPush {
            key,
            round: n,
            members: r.u128()?,
        },
        6 => MsgKind::ReduceScatter {
            key,
            round: n,
            step: r.usize()?,
        },
        7 => MsgKind::AllGather {
            key,
            version: n,
            step: r.usize()?,
        },
        _ => {
            return Err(SnapshotError::Corrupt(format!(
                "bad message-kind tag {tag}"
            )))
        }
    })
}

fn decode_f64s(
    r: &mut SnapReader,
    expected: Option<usize>,
    what: &str,
) -> Result<Vec<f64>, SnapshotError> {
    let n = r.len()?;
    if let Some(e) = expected {
        check(n == e, what)?;
    }
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(r.f64()?);
    }
    Ok(out)
}

fn decode_net(
    r: &mut SnapReader,
    b: &Bounds,
    nlinks: usize,
    traced_ports: usize,
) -> Result<NetworkSnapshot, SnapshotError> {
    let n = r.len()?;
    let mut flows = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let id = r.u64()?;
        let src = r.usize()?;
        let dst = r.usize()?;
        check(src < b.machines, "flow source out of range")?;
        check(dst < b.machines, "flow destination out of range")?;
        // Loopback transfers never enter the fabric's flow table.
        check(src != dst, "loopback flow in the fabric")?;
        let priority = r.u32()?;
        let tag = r.u64()?;
        let bytes = r.u64()?;
        let remaining = r.f64()?;
        let rate = r.f64()?;
        let bottleneck = r.opt_usize()?;
        if let Some(l) = bottleneck {
            check(l < nlinks, "flow bottleneck link out of range")?;
        }
        flows.push(FlowSnapshot {
            id,
            src,
            dst,
            priority,
            tag,
            bytes,
            remaining,
            rate,
            bottleneck,
        });
    }
    let n = r.len()?;
    let mut delivering = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let at = SimTime::from_nanos(r.u64()?);
        let id = FlowId(r.u64()?);
        let src = r.usize()?;
        let dst = r.usize()?;
        check(src < b.machines, "delivering source out of range")?;
        check(dst < b.machines, "delivering destination out of range")?;
        let tag = r.u64()?;
        let bytes = r.u64()?;
        let bottleneck = r.opt_usize()?;
        delivering.push(DeliveringSnapshot {
            at,
            flow: CompletedFlow {
                id,
                src: MachineId(src),
                dst: MachineId(dst),
                tag,
                bytes,
                bottleneck,
            },
        });
    }
    let last_update = SimTime::from_nanos(r.u64()?);
    let next_flow_id = r.u64()?;
    let tx_scale = decode_f64s(r, Some(b.machines), "port scale vector length")?;
    let rx_scale = decode_f64s(r, Some(b.machines), "port scale vector length")?;
    let link_busy = decode_f64s(r, Some(nlinks), "link accounting vector length")?;
    let link_bytes = decode_f64s(r, Some(nlinks), "link accounting vector length")?;
    let n = r.len()?;
    check(n == traced_ports, "trace bin vector count")?;
    let mut tx_bins = Vec::with_capacity(n);
    for _ in 0..n {
        tx_bins.push(decode_f64s(r, None, "trace bins")?);
    }
    let n = r.len()?;
    check(n == traced_ports, "trace bin vector count")?;
    let mut rx_bins = Vec::with_capacity(n);
    for _ in 0..n {
        rx_bins.push(decode_f64s(r, None, "trace bins")?);
    }
    let stats = NetStats {
        reallocations: r.u64()?,
        flows_touched: r.u64()?,
        waterfill_rounds: r.u64()?,
        ports_touched: r.u64()?,
        peak_in_flight: r.u64()?,
    };
    Ok(NetworkSnapshot {
        flows,
        delivering,
        last_update,
        next_flow_id,
        tx_scale,
        rx_scale,
        link_busy,
        link_bytes,
        tx_bins,
        rx_bins,
        stats,
    })
}

fn decode_collective(
    r: &mut SnapReader,
    st: &mut CollectiveState,
    b: &Bounds,
) -> Result<(), SnapshotError> {
    let n = r.len()?;
    check(n == b.blocks, "block-barrier vector length")?;
    st.block_ready = Vec::with_capacity(n);
    for _ in 0..n {
        st.block_ready.push(r.u128()?);
    }
    st.block_round = decode_u64s(r, b.blocks, "block-round vector length")?;
    let n = r.len()?;
    let mut pending = PrioQueue::new();
    for _ in 0..n {
        let prio = r.u32()?;
        let key = r.usize()?;
        let round = r.u64()?;
        let members = r.u128()?;
        check(key < b.num_keys, "pending collective key out of range")?;
        pending.push(prio, (key, round, members));
    }
    st.pending = pending;
    st.active = if r.bool()? {
        let key = r.usize()?;
        let round = r.u64()?;
        let step = r.usize()?;
        let outstanding = r.usize()?;
        let members = r.u128()?;
        check(key < b.num_keys, "active collective key out of range")?;
        check(step < 2 * b.machines.max(2), "collective step out of range")?;
        Some(ActiveCollective {
            key,
            round,
            step,
            outstanding,
            members,
        })
    } else {
        None
    };
    st.completed_version = decode_u64s(r, b.num_keys, "collective version vector length")?;
    Ok(())
}
