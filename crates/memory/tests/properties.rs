//! Property-based tests for the slot-pool invariants.

use insane_memory::{
    MemoryError, PoolConfig, PoolSetBuilder, SlotPool, SlotToken, TenantId, TenantQuota,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Acquire(u8),
    ReleaseHeld(usize),
    ViewHeld(usize),
    DoubleRelease(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..=64).prop_map(Op::Acquire),
        (0usize..8).prop_map(Op::ReleaseHeld),
        (0usize..8).prop_map(Op::ViewHeld),
        (0usize..8).prop_map(Op::DoubleRelease),
    ]
}

proptest! {
    /// Under any sequence of acquire/release/view/double-release the pool
    /// never loses slots, never double-lends, and always detects stale
    /// tokens.
    #[test]
    fn pool_accounting_is_exact(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let pool = SlotPool::new(PoolConfig::new(0, 64, 8)).unwrap();
        let mut held: Vec<SlotToken> = Vec::new();
        let mut released: Vec<SlotToken> = Vec::new();
        for op in ops {
            match op {
                Op::Acquire(len) => match pool.acquire(len as usize) {
                    Ok(mut g) => {
                        for b in g.iter_mut() {
                            *b = len;
                        }
                        held.push(g.into_token());
                    }
                    Err(MemoryError::PoolExhausted { .. }) => prop_assert_eq!(held.len(), 8),
                    Err(e) => return Err(TestCaseError::fail(format!("unexpected {e}"))),
                },
                Op::ReleaseHeld(i) if !held.is_empty() => {
                    let t = held.swap_remove(i % held.len());
                    pool.release(t).unwrap();
                    released.push(t);
                }
                Op::ViewHeld(i) if !held.is_empty() => {
                    let t = held[i % held.len()];
                    let v = pool.view(t).unwrap();
                    prop_assert_eq!(v.len(), t.len());
                    // Contents are what the acquirer wrote.
                    prop_assert!(v.iter().all(|&b| b as usize == t.len()));
                    let _ = v.into_token(); // keep checked out
                }
                Op::DoubleRelease(i) if !released.is_empty() => {
                    let t = released[i % released.len()];
                    prop_assert_eq!(pool.release(t), Err(MemoryError::StaleToken));
                }
                _ => {}
            }
            prop_assert_eq!(pool.stats().in_use, held.len());
            prop_assert_eq!(pool.free_slots(), 8 - held.len());
        }
    }

    /// PoolSet lends from a class that fits, and the lent handle finds its
    /// own way back, for arbitrary size-class layouts and request sizes.
    #[test]
    fn pool_set_routing_is_consistent(sizes in proptest::collection::vec(1usize..512, 1..4),
                                      reqs in proptest::collection::vec(0usize..600, 1..50)) {
        let mut b = PoolSetBuilder::new();
        for &s in &sizes {
            b = b.pool(s, 4);
        }
        let set = b.build().unwrap();
        let max = *sizes.iter().max().unwrap();
        for req in reqs {
            match set.acquire(req) {
                Ok(g) => {
                    let id = g.token().pool_id();
                    let owner = set.classes().find(|p| p.pool_id() == id).unwrap();
                    prop_assert!(owner.slot_size() >= req);
                    prop_assert_eq!(owner.stats().in_use, 1);
                    drop(g.into_view());
                }
                Err(MemoryError::RequestTooLarge { requested, max: m }) => {
                    prop_assert!(req > max);
                    prop_assert_eq!(requested, req);
                    prop_assert_eq!(m, max);
                }
                Err(MemoryError::PoolExhausted { .. }) => {}
                Err(e) => return Err(TestCaseError::fail(format!("unexpected {e}"))),
            }
        }
        prop_assert_eq!(set.total_in_use(), 0);
    }

    /// Quota accounting is exact under arbitrary lend/release interleavings:
    /// a tenant's slots-held never exceeds its quota max, rejections are
    /// typed (`QuotaExceeded`, never a global exhaustion while its neighbor's
    /// reservation would still fit), and the per-tenant holds reconcile with
    /// the pool-level `PoolStats` occupancy at every step.
    #[test]
    fn tenant_quota_accounting_is_exact(
        ops in proptest::collection::vec((0u8..3, 0usize..16), 1..300)
    ) {
        const QUOTAS: [(TenantId, TenantQuota); 2] = [
            (1, TenantQuota { reserved: 2, max: 5 }),
            (2, TenantQuota { reserved: 3, max: 12 }),
        ];
        let set = PoolSetBuilder::new()
            .pool(64, 8)
            .pool(256, 4)
            .tenant(QUOTAS[0].0, QUOTAS[0].1)
            .tenant(QUOTAS[1].0, QUOTAS[1].1)
            .build()
            .unwrap();
        let mut held: [Vec<insane_memory::SlotGuard>; 2] = [Vec::new(), Vec::new()];
        for (op, arg) in ops {
            let who = arg % 2;
            let (tenant, quota) = QUOTAS[who];
            match op {
                // Lend for one of the two tenants.
                0 | 1 => match set.lend(tenant, 48) {
                    Ok(guard) => held[who].push(guard),
                    Err(MemoryError::QuotaExceeded { tenant: t, held: h, max }) => {
                        prop_assert_eq!(t, tenant);
                        prop_assert_eq!(h, quota.max);
                        prop_assert_eq!(max, quota.max);
                        prop_assert_eq!(held[who].len(), quota.max);
                    }
                    Err(MemoryError::PoolExhausted { .. }) => {
                        // Legal only when the supply is genuinely gone for
                        // this tenant: every slot is out, or only other
                        // tenants' reservations remain.
                        prop_assert!(held[0].len() + held[1].len() >= 7);
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("unexpected {e}"))),
                },
                // Release one held slot.
                _ => {
                    if !held[who].is_empty() {
                        let idx = arg % held[who].len();
                        drop(held[who].swap_remove(idx));
                    }
                }
            }
            // Invariants after every operation.
            for (who, (tenant, quota)) in QUOTAS.iter().enumerate() {
                prop_assert_eq!(set.tenant_held(*tenant), held[who].len());
                prop_assert!(held[who].len() <= quota.max);
            }
            // Per-tenant holds reconcile with pool-level stats.
            prop_assert_eq!(set.total_in_use(), held[0].len() + held[1].len());
        }
        drop(held);
        prop_assert_eq!(set.total_in_use(), 0);
        prop_assert_eq!(set.tenant_held(1), 0);
        prop_assert_eq!(set.tenant_held(2), 0);
    }
}
