//! A fixed calibration kernel that measures how fast the host runs right
//! now, so that `perfbench/run.py` can scale the simulator's host times to
//! a reference speed.
//!
//! On a shared virtual machine the same run can take 1.5x longer from one
//! minute to the next while the process is never descheduled (its thread
//! CPU time equals its wall time): the vCPU itself slows down. Timing this
//! kernel right before and right after a run tells how fast the host was
//! during it. The kernel is frozen: it calls no simulator code, so a change
//! to the simulator cannot move it. It does the same kind of work as the
//! simulator's hot path — a max-min fair water-fill over ports and a binary
//! heap of completion times — so the two slow down together.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Ports on each side (senders and receivers) of the calibration fabric.
const PORTS: usize = 64;
/// Flows in flight.
const FLOWS: usize = 1000;
/// Water-fills per calibration: one flow is replaced before each.
const ROUNDS: usize = 200;

/// Host seconds one pass of the calibration kernel takes.
pub fn seconds() -> f64 {
    let started = Instant::now();
    black_box(kernel(black_box(PORTS), black_box(ROUNDS)));
    started.elapsed().as_secs_f64()
}

/// `rounds` max-min fair water-fills of [`FLOWS`] flows between `ports`
/// senders and `ports` receivers of unit capacity, one flow replaced
/// before each; every fill pushes each flow's finish time on a heap that
/// is drained to a fixed depth. Returns a checksum.
fn kernel(ports: usize, rounds: usize) -> f64 {
    let mut state: u64 = 0x2545_f491_4f6c_dd1d;
    let mut port = move || {
        // xorshift64: deterministic, and no dependency of the simulator's.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % ports as u64) as usize
    };
    // (sending port, receiving port + ports, rate)
    let mut flows: Vec<(usize, usize, f64)> =
        (0..FLOWS).map(|_| (port(), ports + port(), 0.0)).collect();
    let mut heap = BinaryHeap::new();
    let mut checksum = 0.0;
    for round in 0..rounds {
        let k = (port() * FLOWS / ports + round) % FLOWS;
        flows[k] = (port(), ports + port(), 0.0);
        let mut capacity = vec![1.0f64; 2 * ports];
        let mut unfixed = vec![0u32; 2 * ports];
        let mut fixed = vec![false; FLOWS];
        for f in &flows {
            unfixed[f.0] += 1;
            unfixed[f.1] += 1;
        }
        loop {
            // The most constrained port sets the rate of its flows.
            let mut share = f64::INFINITY;
            let mut bottleneck = None;
            for p in 0..2 * ports {
                if unfixed[p] > 0 {
                    let s = capacity[p] / f64::from(unfixed[p]);
                    if s < share {
                        share = s;
                        bottleneck = Some(p);
                    }
                }
            }
            let Some(b) = bottleneck else { break };
            for (i, f) in flows.iter_mut().enumerate() {
                if !fixed[i] && (f.0 == b || f.1 == b) {
                    fixed[i] = true;
                    f.2 = share;
                    capacity[f.0] -= share;
                    capacity[f.1] -= share;
                    unfixed[f.0] -= 1;
                    unfixed[f.1] -= 1;
                }
            }
        }
        for (i, f) in flows.iter().enumerate() {
            heap.push(Reverse(((1e9 / f.2) as u64, i)));
        }
        while heap.len() > PORTS {
            if let Some(Reverse((at, _))) = heap.pop() {
                checksum += at as f64;
            }
        }
    }
    checksum
}
