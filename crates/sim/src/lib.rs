//! # ftdb-sim
//!
//! A synchronous message-passing parallel-machine simulator for the
//! constant-degree interconnection networks studied by the paper.
//!
//! The paper's motivation (Section I) is an *operational* claim: efficient
//! algorithms for the de Bruijn and shuffle-exchange networks — in particular
//! the Ascend/Descend classes of Preparata and Vuillemin — use **every**
//! processor and **every** link, so a single fault severely degrades (in
//! practice: stalls) the machine, and the fault-tolerant constructions
//! restore a fully healthy logical topology at the cost of a few spare nodes
//! and wider ports. The paper could not, of course, ship a 1992
//! multiprocessor with its TPDS brief; this crate substitutes a discrete,
//! synchronous simulator that exercises exactly those code paths:
//!
//! * [`machine`] — the physical machine model: a graph of processors, a set
//!   of faulty nodes, and a port model (how many distinct values a processor
//!   may transmit per step).
//! * [`ascend_descend`] — Ascend/Descend-class collectives (all-reduce and
//!   parallel prefix over hypercube dimensions), each a combine rule run by
//!   one driver per network: natively on the hypercube, or on the
//!   shuffle-exchange emulation over an arbitrary physical host through an
//!   embedding (which is how the fault-tolerant graphs are exercised after
//!   reconfiguration).
//! * [`routing`] — packet routing on healthy and faulty machines, both along
//!   the logical de Bruijn/shuffle-exchange routes and with fault-avoiding
//!   BFS fallback.
//! * [`congestion`] — the cycle-level congestion engine: one flit per
//!   directed link per cycle, `PortModel` output arbitration, dynamic
//!   mid-run fault injection and online reconfiguration recovery.
//! * [`bus_model`] — the Section V bus implementation's timing model
//!   (experiment SIM2: the "factor of ≈ 2" bus slowdown).
//! * [`workload`] and [`metrics`] — traffic generators and summary
//!   statistics used by the experiment driver.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ascend_descend;
pub mod bus_model;
pub mod congestion;
pub mod diagnosis;
pub mod machine;
pub mod metrics;
pub mod routing;
pub mod workload;

pub use congestion::{
    CongestionConfig, CongestionReport, CongestionSim, FaultResponse, FlowControl, ShardedSim,
    Switching,
};
pub use machine::{PhysicalMachine, PortModel, SimError};
