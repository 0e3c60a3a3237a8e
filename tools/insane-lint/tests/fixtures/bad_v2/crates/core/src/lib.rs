//! Planted violations for the v2 (AST + call-graph) rule tier.  Each
//! construct below must produce exactly the finding named in its
//! comment; `fixtures.rs` asserts every new rule fires at least once.

use std::sync::{Condvar, Mutex, RwLock};

pub struct Pools {
    a: Mutex<u32>,
    b: Mutex<u32>,
    cv: Condvar,
    table: RwLock<u32>,
}

// insane-lint: hot-path-root
pub fn poll_hot(p: &Pools, xs: &[u32]) -> u32 {
    let first = xs[0]; // hot-path-panic: unguarded indexing in the root
    drain_step(p);
    route_step(p);
    first
}

/// Not annotated: hot only because the call graph reaches it from
/// `poll_hot` — the findings below prove graph propagation works.
fn drain_step(p: &Pools) {
    let mut grown = Vec::new(); // hot-path-alloc in a callee
    grown.push(1u32);
    let g = p.a.lock().unwrap(); // hot-path-block (+ unwrap panic)
    drop(g);
    std::thread::park_timeout(std::time::Duration::from_millis(1)); // hot-path-block: a timed park still parks
    p.cv.notify_one(); // hot-path-block: a futex syscall whether or not anyone waits
}

/// Also unannotated: reached from `poll_hot` through the call graph.
fn route_step(p: &Pools) -> u32 {
    let g = p.table.read(); // hot-path-rwlock: reader-writer lock on the hot path
    g.map(|v| *v).unwrap_or(0)
}

// Lock-order cycle: `a` is held while `b` is acquired here ...
pub fn order_ab(p: &Pools) {
    let ga = p.a.lock().unwrap();
    let gb = p.b.lock().unwrap();
    drop(gb);
    drop(ga);
}

// ... and `b` is held while `a` is acquired here: lock-order-cycle.
pub fn order_ba(p: &Pools) {
    let gb = p.b.lock().unwrap();
    let ga = p.a.lock().unwrap();
    drop(ga);
    drop(gb);
}

// lock-across-wait: the channel recv blocks while `g` is held.
pub fn wait_holding(p: &Pools, rx: &std::sync::mpsc::Receiver<u32>) -> u32 {
    let g = p.a.lock().unwrap();
    let v = rx.recv().unwrap_or(0);
    drop(g);
    v
}

pub struct Guard;

impl Guard {
    pub fn into_token(self) -> u64 {
        0
    }
}

// slot-token-drop: the minted token is never consumed — the slot leaks.
pub fn leak_token(g: Guard) -> u32 {
    let token = g.into_token();
    7
}
