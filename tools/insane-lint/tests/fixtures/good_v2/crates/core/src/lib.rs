//! Negative cases for the v2 (AST + call-graph) rule tier: every
//! construct here is discipline-clean and must produce no findings.

use std::sync::{Condvar, Mutex};

pub struct Pools {
    a: Mutex<u32>,
    b: Mutex<u32>,
    cv: Condvar,
}

// insane-lint: hot-path-root
pub fn poll_hot(p: &Pools, xs: &[u32]) -> u32 {
    let first = xs.first().copied().unwrap_or(0);
    report(p);
    first
}

pub struct Device;

impl Device {
    pub fn read(&self, out: &mut [u8]) -> usize {
        out.len()
    }
    pub fn write(&self, out: &[u8]) -> usize {
        out.len()
    }
}

// insane-lint: hot-path-root
// `read`/`write` WITH arguments are io-style calls, not RwLock
// acquisition: hot-path-rwlock must not fire on them.
pub fn poll_device(dev: &Device, out: &mut [u8]) -> usize {
    let got = dev.read(out);
    got + dev.write(out)
}

// insane-lint: cold-path -- setup/reporting; hot reachability must stop here
fn report(p: &Pools) -> Vec<u32> {
    let mut grown = Vec::new();
    grown.push(p.a.lock().map(|g| *g).unwrap_or(0));
    p.cv.notify_all(); // a wake is fine where the hot graph does not reach
    grown
}

// Consistent a -> b order in every function: no lock-order-cycle.
pub fn order_ab_sum(p: &Pools) -> u32 {
    let ga = p.a.lock().unwrap_or_else(|e| e.into_inner());
    let gb = p.b.lock().unwrap_or_else(|e| e.into_inner());
    *ga + *gb
}

pub fn order_ab_diff(p: &Pools) -> u32 {
    let ga = p.a.lock().unwrap_or_else(|e| e.into_inner());
    let gb = p.b.lock().unwrap_or_else(|e| e.into_inner());
    ga.wrapping_sub(*gb)
}

// The condvar wait takes (and so releases) the only held guard: no
// lock-across-wait.
pub fn wait_releases(p: &Pools) -> u32 {
    let mut g = p.a.lock().unwrap_or_else(|e| e.into_inner());
    g = p.cv.wait(g).unwrap_or_else(|e| e.into_inner());
    *g
}

pub struct Guard;

impl Guard {
    pub fn into_token(self) -> u64 {
        0
    }
}

pub struct Pool;

impl Pool {
    pub fn release(&self, token: u64) -> u64 {
        token
    }
}

// The token is forwarded to the pool: no slot-token-drop.
pub fn forward_token(pool: &Pool, g: Guard) -> u64 {
    let token = g.into_token();
    pool.release(token)
}

#[cfg(test)]
mod tests {
    // Allocation inside test code is outside every hot-path analysis.
    #[test]
    fn alloc_in_tests_is_fine() {
        let mut v = Vec::new();
        v.push(1u32);
        assert_eq!(v.len(), 1);
    }
}
