//! Simulated cores that take turns in simulated time.
//!
//! A workload runs each simulated core on its own host thread. Left alone,
//! those threads reach the machine's shared level — the SLC, the
//! memory nodes' links, first-touch placement — in whatever order the host
//! schedules them, so every multi-core simulated number would depend on the
//! host. The cores of a gang ([`crate::Machine::gang_begin`]) instead take
//! turns: exactly one member's thread runs simulated code at a time, and the
//! turn always goes to the member that is furthest behind in simulated time
//! (lowest clock, then lowest core id). The holder runs until its clock
//! passes the next-lowest member's clock by more than [`TURN_CYCLES`] and
//! hands the turn on at its next access past the L2, the first point where
//! it would touch shared state. Which core runs when is therefore a function
//! of the simulated clocks alone, and so is every result.
//!
//! A one-core gang never hands the turn on, so a single core runs exactly as
//! it does outside a gang.

use std::thread::{self, Thread};

use parking_lot::Mutex;

/// How far, in cycles, the member holding the turn may run ahead of the
/// next-lowest member before it hands the turn on. Smaller is closer to
/// simulated-time order on the shared state, and costs a host thread switch
/// more often.
///
/// Measured on `ampere_altra_max` at period 4 096 (STREAM 400 000 × 1, CFD
/// 20 000 × 2, BFS 2^15, PageRank 2^14), against the same runs at 0: the
/// makespan at 1 000 is within 0.1 % at 2 cores; at 8, STREAM is +1.9 %,
/// CFD +0.5 % and BFS and PageRank +0.1 %; at 32, STREAM is +8.2 %, CFD
/// +9.3 % and BFS and PageRank within 0.3 %. At 100 every 8-core run is
/// within 1 %, for about three times the host wall time.
pub const TURN_CYCLES: u64 = 1_000;

#[derive(Debug)]
struct Member {
    core: usize,
    /// The member's clock when it last handed the turn on (or joined).
    clock: u64,
    /// The member's thread, once it has asked for the turn.
    thread: Option<Thread>,
}

#[derive(Debug, Default)]
struct Members {
    members: Vec<Member>,
    /// The core whose thread may run simulated code.
    holder: Option<usize>,
}

impl Members {
    fn find(&self, core: usize) -> Option<usize> {
        self.members.iter().position(|m| m.core == core)
    }

    /// Give the turn to the member furthest behind and wake its thread.
    fn pass(&mut self) {
        let next = self.members.iter().min_by_key(|m| (m.clock, m.core));
        self.holder = next.map(|m| m.core);
        if let Some(thread) = next.and_then(|m| m.thread.as_ref()) {
            thread.unpark();
        }
    }

    /// The clock past which `core` must hand the turn on.
    fn turn_end(&self, core: usize) -> f64 {
        let others = self.members.iter().filter(|m| m.core != core);
        others.map(|m| m.clock).min().map_or(f64::INFINITY, |c| (c + TURN_CYCLES) as f64)
    }
}

/// The machine's turn-taking state: one lock, taken only to join, to hand
/// the turn on and to leave.
#[derive(Debug)]
pub(crate) struct Gang {
    members: Mutex<Members>,
}

impl Gang {
    pub(crate) fn new() -> Self {
        Gang { members: Mutex::named(Members::default(), "machine.gang") }
    }

    /// Add `(core, clock)` members; a core already in the gang stays as it
    /// is.
    pub(crate) fn join(&self, members: impl IntoIterator<Item = (usize, u64)>) {
        let mut gang = self.members.lock();
        for (core, clock) in members {
            if gang.find(core).is_none() {
                gang.members.push(Member { core, clock, thread: None });
            }
        }
        if gang.holder.is_none() {
            gang.pass();
        }
    }

    /// Block until `core` holds the turn. Returns the clock past which it
    /// must hand the turn on: infinite for a core outside the gang, or the
    /// only one left in it.
    pub(crate) fn wait_turn(&self, core: usize) -> f64 {
        let mut gang = self.members.lock();
        let Some(me) = gang.find(core) else { return f64::INFINITY };
        gang.members[me].thread = Some(thread::current());
        while gang.holder != Some(core) && gang.find(core).is_some() {
            drop(gang);
            thread::park();
            gang = self.members.lock();
        }
        match gang.find(core) {
            Some(_) => gang.turn_end(core),
            None => f64::INFINITY,
        }
    }

    /// `core` has run to `clock`, past its turn: the turn goes to the member
    /// furthest behind, and this returns once it is `core`'s again.
    pub(crate) fn hand_on(&self, core: usize, clock: u64) -> f64 {
        {
            let mut gang = self.members.lock();
            if let Some(me) = gang.find(core) {
                gang.members[me].clock = clock;
                gang.pass();
            }
        }
        self.wait_turn(core)
    }

    /// `core` leaves the gang; if it held the turn, the turn passes on.
    pub(crate) fn leave(&self, core: usize) {
        let mut gang = self.members.lock();
        if let Some(me) = gang.find(core) {
            gang.members.swap_remove(me);
            if gang.holder == Some(core) {
                gang.pass();
            }
        }
    }
}
