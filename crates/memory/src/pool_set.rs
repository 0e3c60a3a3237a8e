//! Size-class selection over several [`SlotPool`]s.
//!
//! The INSANE runtime reserves more than one pool at startup: small slots
//! for ordinary packets and jumbo slots for large payloads (the paper uses
//! jumbo frames above 1.5 KB, §6.2).  `PoolSet` picks the smallest class
//! that fits a request and charges the lend to its tenant; the handle it
//! returns knows its own pool, so nothing is ever routed back.

use std::fmt;

use insane_queues::sync::Arc;

use crate::pool::{PoolConfig, SlotGuard, SlotPool};
use crate::quota::QuotaLedger;
use crate::{MemoryError, PoolId, TenantId, TenantQuota, TenantUsage, DEFAULT_TENANT};

/// An ordered collection of pools acting as size classes.
///
/// # Examples
///
/// ```
/// use insane_memory::PoolSetBuilder;
///
/// let pools = PoolSetBuilder::new()
///     .pool(2048, 128)   // packet class
///     .pool(9216, 16)    // jumbo class
///     .build()?;
/// let small = pools.acquire(100)?;   // lands in the 2 KB class
/// let big = pools.acquire(4000)?;    // lands in the jumbo class
/// assert_ne!(small.token().pool_id(), big.token().pool_id());
/// # Ok::<(), insane_memory::MemoryError>(())
/// ```
#[derive(Clone)]
pub struct PoolSet {
    /// Sorted ascending by slot size.
    classes: Vec<SlotPool>,
    /// Tenant-quota accounting; present only when tenants registered.
    ledger: Option<Arc<QuotaLedger>>,
}

impl fmt::Debug for PoolSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolSet")
            .field("classes", &self.classes)
            .finish()
    }
}

/// Builder for [`PoolSet`]; pool ids are assigned in insertion order.
#[derive(Debug, Default)]
pub struct PoolSetBuilder {
    configs: Vec<(usize, usize)>,
    quotas: Vec<(TenantId, TenantQuota)>,
}

impl PoolSetBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a size class of `slot_count` slots of `slot_size` bytes.
    pub fn pool(mut self, slot_size: usize, slot_count: usize) -> Self {
        self.configs.push((slot_size, slot_count));
        self
    }

    /// Registers a per-tenant slot quota (reservation + max, enforced at
    /// [`PoolSet::lend`] time).  With at least one registration the set
    /// carries a [`QuotaLedger`]; unregistered tenants then share an
    /// anonymous unreserved entry.  With none, lending is unmetered.
    pub fn tenant(mut self, tenant: TenantId, quota: TenantQuota) -> Self {
        self.quotas.push((tenant, quota));
        self
    }

    /// Builds the set.
    ///
    /// # Errors
    ///
    /// * [`MemoryError::BadConfig`] if no class was added, any class has a
    ///   zero dimension, or the tenant quotas are inconsistent (see
    ///   [`QuotaLedger::new`]).
    pub fn build(self) -> Result<PoolSet, MemoryError> {
        if self.configs.is_empty() {
            return Err(MemoryError::BadConfig("pool set needs at least one class"));
        }
        let total_slots: usize = self.configs.iter().map(|&(_, count)| count).sum();
        let ledger = if self.quotas.is_empty() {
            None
        } else {
            Some(Arc::new(QuotaLedger::new(total_slots, &self.quotas)?))
        };
        let mut classes = Vec::with_capacity(self.configs.len());
        let mut base = 0usize;
        for (id, (slot_size, slot_count)) in self.configs.into_iter().enumerate() {
            classes.push(SlotPool::with_ledger(
                PoolConfig::new(id as PoolId, slot_size, slot_count),
                ledger.as_ref().map(|l| (Arc::clone(l), base)),
            )?);
            base += slot_count;
        }
        classes.sort_by_key(|p| p.slot_size());
        Ok(PoolSet { classes, ledger })
    }
}

impl PoolSet {
    /// Acquires a slot from the smallest class that fits `len` bytes,
    /// falling back to larger classes when the preferred one is exhausted.
    ///
    /// Equivalent to [`PoolSet::lend`] on behalf of [`DEFAULT_TENANT`].
    ///
    /// # Errors
    ///
    /// As [`PoolSet::lend`].
    pub fn acquire(&self, len: usize) -> Result<SlotGuard, MemoryError> {
        self.lend(DEFAULT_TENANT, len)
    }

    /// Lends a slot to `tenant` from the smallest class that fits `len`
    /// bytes, falling back to larger classes when the preferred one is
    /// exhausted.  With tenants registered (see
    /// [`PoolSetBuilder::tenant`]) the lend is charged against the
    /// tenant's quota; the charge is credited back automatically when
    /// the slot's last guard/view/token is released, wherever that
    /// happens.
    ///
    /// # Errors
    ///
    /// * [`MemoryError::RequestTooLarge`] if no class is big enough.
    /// * [`MemoryError::QuotaExceeded`] if the tenant already holds its
    ///   quota max — reported *before* global exhaustion, so an
    ///   over-quota tenant can never present as a full pool.
    /// * [`MemoryError::PoolExhausted`] if every fitting class is empty
    ///   (or only reservation-backed slots remain and `tenant` has used
    ///   up its own reservation); carries the occupancy of the smallest
    ///   fitting class.
    pub fn lend(&self, tenant: TenantId, len: usize) -> Result<SlotGuard, MemoryError> {
        let mut first_dry: Option<MemoryError> = None;
        for pool in &self.classes {
            if pool.slot_size() >= len {
                match pool.acquire(len) {
                    Ok(guard) => {
                        match pool.charge_tenant(tenant, guard.token().index()) {
                            Ok(()) => return Ok(guard),
                            // Over-max is over-max in every class: stop
                            // instead of spilling (dropping the guard
                            // returns the uncharged slot).
                            Err(e @ MemoryError::QuotaExceeded { .. }) => return Err(e),
                            // Shared headroom dry: a free slot exists but
                            // is spoken for by reservations.  That holds
                            // in every class (the headroom is global), so
                            // report it with this class's occupancy.
                            Err(MemoryError::PoolExhausted { .. }) => {
                                return Err(pool.exhausted(len));
                            }
                            Err(other) => return Err(other),
                        }
                    }
                    Err(e @ MemoryError::PoolExhausted { .. }) => {
                        first_dry.get_or_insert(e);
                    }
                    Err(other) => return Err(other),
                }
            }
        }
        match first_dry {
            Some(e) => Err(e),
            None => Err(MemoryError::RequestTooLarge {
                requested: len,
                max: self.max_slot_size(),
            }),
        }
    }

    /// Largest slot size any class offers.
    pub fn max_slot_size(&self) -> usize {
        self.classes.last().map(|p| p.slot_size()).unwrap_or(0)
    }

    /// Iterates over the size classes, smallest first.
    pub fn classes(&self) -> impl Iterator<Item = &SlotPool> {
        self.classes.iter()
    }

    /// Total slots currently lent out across all classes.
    pub fn total_in_use(&self) -> usize {
        self.classes.iter().map(|p| p.stats().in_use).sum()
    }

    /// Slots currently held by `tenant` (always 0 without a ledger).
    pub fn tenant_held(&self, tenant: TenantId) -> usize {
        self.ledger.as_ref().map_or(0, |l| l.held(tenant))
    }

    /// Per-tenant usage rollup for telemetry (the anonymous catch-all
    /// entry first); empty without a ledger.
    pub fn tenant_usage(&self) -> Vec<TenantUsage> {
        self.ledger.as_ref().map_or_else(Vec::new, |l| l.usage())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set() -> PoolSet {
        PoolSetBuilder::new()
            .pool(64, 2)
            .pool(1024, 2)
            .build()
            .unwrap()
    }

    /// Slot size of the class `guard` was lent from.
    fn class_of(set: &PoolSet, guard: &SlotGuard) -> usize {
        let id = guard.token().pool_id();
        let owner = set.classes().find(|p| p.pool_id() == id);
        owner.expect("lent by this set").slot_size()
    }

    #[test]
    fn empty_builder_is_rejected() {
        assert!(matches!(
            PoolSetBuilder::new().build(),
            Err(MemoryError::BadConfig(_))
        ));
    }

    #[test]
    fn picks_smallest_fitting_class() {
        let s = set();
        let small = s.acquire(64).unwrap();
        let large = s.acquire(65).unwrap();
        assert_eq!(class_of(&s, &small), 64);
        assert_eq!(class_of(&s, &large), 1024);
    }

    #[test]
    fn falls_back_to_bigger_class_when_exhausted() {
        let s = set();
        let _a = s.acquire(10).unwrap();
        let _b = s.acquire(10).unwrap();
        // Small class is now empty; the request spills into the 1 KB class.
        let c = s.acquire(10).unwrap();
        assert_eq!(class_of(&s, &c), 1024);
    }

    #[test]
    fn too_large_reports_max_class() {
        let s = set();
        assert_eq!(
            s.acquire(4096).err(),
            Some(MemoryError::RequestTooLarge {
                requested: 4096,
                max: 1024
            })
        );
    }

    #[test]
    fn exhausted_when_all_fitting_classes_empty() {
        let s = set();
        let guards: Vec<_> = (0..4).map(|_| s.acquire(10).unwrap()).collect();
        // The error reports the smallest fitting class's occupancy.
        assert_eq!(
            s.acquire(10).err(),
            Some(MemoryError::PoolExhausted {
                slot_size: 64,
                requested: 10,
                in_use: 2,
                slot_count: 2
            })
        );
        drop(guards);
        assert_eq!(s.total_in_use(), 0);
    }

    #[test]
    fn lend_enforces_tenant_max_with_typed_rejection() {
        let s = PoolSetBuilder::new()
            .pool(64, 4)
            .tenant(7, TenantQuota::new(1, 2))
            .build()
            .unwrap();
        let _a = s.lend(7, 10).unwrap();
        let _b = s.lend(7, 10).unwrap();
        assert_eq!(
            s.lend(7, 10).err(),
            Some(MemoryError::QuotaExceeded {
                tenant: 7,
                held: 2,
                max: 2
            })
        );
        assert_eq!(s.tenant_held(7), 2);
        // Another tenant is unaffected by 7's rejection.
        let _c = s.lend(8, 10).unwrap();
    }

    #[test]
    fn reservation_survives_anonymous_pressure() {
        let s = PoolSetBuilder::new()
            .pool(64, 4)
            .tenant(1, TenantQuota::new(2, 4))
            .build()
            .unwrap();
        // Anonymous tenants can draw only the 2-slot shared headroom.
        let x = s.lend(50, 10).unwrap();
        let y = s.lend(50, 10).unwrap();
        assert!(matches!(
            s.lend(50, 10),
            Err(MemoryError::PoolExhausted { .. })
        ));
        // Tenant 1's reservation is intact.
        let _a = s.lend(1, 10).unwrap();
        let _b = s.lend(1, 10).unwrap();
        drop((x, y));
        assert_eq!(s.tenant_held(1), 2);
        assert_eq!(s.tenant_held(50), 0, "anonymous draw pools on entry 0");
    }

    #[test]
    fn released_slots_credit_the_ledger_through_any_path() {
        let s = PoolSetBuilder::new()
            .pool(64, 4)
            .tenant(3, TenantQuota::new(0, 2))
            .build()
            .unwrap();
        let pool = s.classes().next().unwrap();
        // Guard drop.
        drop(s.lend(3, 8).unwrap());
        assert_eq!(s.tenant_held(3), 0);
        // Frozen guard: the views share one charge, credited by the last.
        let view = s.lend(3, 8).unwrap().into_view();
        let second = view.clone_ref();
        drop(view);
        assert_eq!(s.tenant_held(3), 1);
        drop(second);
        assert_eq!(s.tenant_held(3), 0);
        // By-token view (the process-boundary path), then its drop.
        let t = s.lend(3, 8).unwrap().into_token();
        assert_eq!(s.tenant_held(3), 1);
        drop(pool.view(t).unwrap());
        assert_eq!(s.tenant_held(3), 0);
        // By-token release.
        let t = s.lend(3, 8).unwrap().into_token();
        pool.release(t).unwrap();
        assert_eq!(s.tenant_held(3), 0);
        let usage = s.tenant_usage();
        let t3 = usage.iter().find(|u| u.tenant == 3).unwrap();
        assert_eq!(t3.held, 0);
        assert_eq!(t3.max, 2);
    }
}
