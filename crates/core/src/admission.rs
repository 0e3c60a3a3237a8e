//! Token-bucket admission control: per-tenant rate limiting with an
//! overload policy deciding who is refused when a tenant outruns its
//! budget (DESIGN.md §10).
//!
//! Placement: the bucket is charged once per message at buffer-lend
//! time ([`crate::Source::get_buffer`]), before the application invests
//! any work in the payload.  TX-queue overflow additionally consults
//! the policy ([`AdmissionController::on_tx_full`]) so a saturating
//! tenant's best-effort traffic is shed instead of turning into
//! indiscriminate backpressure.
//!
//! The hot path is allocation-free and panic-free: a linear scan over
//! a small fixed entry table, then CAS loops on two atomics.  Tokens
//! are stored in millitokens so sub-message refill amounts survive
//! integer math at low configured rates.

use std::sync::atomic::{AtomicU64, Ordering};

use insane_memory::TenantId;
use insane_tsn::TrafficClass;

use crate::InsaneError;

/// Millitokens charged per admitted message.
const TOKEN: u64 = 1_000;

/// Percentage of the bucket reserved for time-sensitive classes under
/// the shed/backpressure policies: a tenant's best-effort traffic
/// cannot spend the last quarter of the bucket, so its time-sensitive
/// messages keep a budget while the bulk traffic is being refused.
const PROTECT_RESERVE_PCT: u64 = 25;

/// Sustained-rate and burst limits of one tenant's token bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantRate {
    /// Sustained admission rate, messages per second.
    pub per_sec: u64,
    /// Bucket capacity: messages admitted back-to-back after idle.
    pub burst: u64,
}

impl TenantRate {
    /// A rate limit of `per_sec` messages per second, with bursts of up
    /// to `burst` messages after idle periods.  Zero values are clamped
    /// to 1 (a zero rate would silently admit nothing forever).
    pub fn new(per_sec: u64, burst: u64) -> Self {
        Self {
            per_sec: per_sec.max(1),
            burst: burst.max(1),
        }
    }
}

/// What happens when a tenant's admission bucket runs dry, or its TX
/// queue overflows while the runtime is saturated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Refuse with [`InsaneError::AdmissionRejected`] regardless of
    /// traffic class — the strictest accounting: every message beyond
    /// the budget is an error the tenant sees.
    #[default]
    Reject,
    /// Shed lowest-criticality first: best-effort messages are refused
    /// with [`InsaneError::Shed`] once the bucket drops below its
    /// protected reserve, while time-sensitive classes may spend the
    /// bucket to empty.  Only a fully empty bucket rejects
    /// time-sensitive traffic.
    ShedLowest,
    /// Backpressure best-effort: like [`OverloadPolicy::ShedLowest`],
    /// but refused best-effort messages get the retryable
    /// [`InsaneError::Backpressure`] instead of a terminal shed — the
    /// tenant's bulk traffic slows down rather than losing messages,
    /// and time-sensitive classes keep their budgets.
    Backpressure,
}

/// Point-in-time admission counters of one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionUsage {
    /// The tenant (0 = the anonymous default tenant).
    pub tenant: TenantId,
    /// Messages admitted through the bucket.
    pub admitted: u64,
    /// Messages refused terminally ([`InsaneError::AdmissionRejected`]).
    pub rejected: u64,
    /// Best-effort messages shed under [`OverloadPolicy::ShedLowest`].
    pub shed: u64,
    /// Best-effort messages backpressured under
    /// [`OverloadPolicy::Backpressure`] (retryable refusals).
    pub throttled: u64,
}

/// One tenant's bucket and counters.
#[derive(Debug)]
struct Entry {
    tenant: TenantId,
    rate: Option<TenantRate>,
    /// Current bucket level, millitokens.
    tokens_milli: AtomicU64,
    /// Epoch timestamp of the last refill claim.
    last_refill_ns: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    throttled: AtomicU64,
}

impl Entry {
    fn new(tenant: TenantId, rate: Option<TenantRate>) -> Self {
        // Buckets start full so a tenant's first burst after startup is
        // admitted; the first refill claim anchors the clock.
        let initial = rate.map_or(0, |r| r.burst.saturating_mul(TOKEN));
        Self {
            tenant,
            rate,
            tokens_milli: AtomicU64::new(initial),
            last_refill_ns: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            throttled: AtomicU64::new(0),
        }
    }
}

/// Per-runtime admission controller: one token bucket per registered
/// tenant, shared by every stream the tenant opens.  Unregistered
/// tenants (and the anonymous default tenant) pool on entry 0, which
/// has no rate limit — admission control is opt-in per tenant, exactly
/// like the slot-quota ledger.
#[derive(Debug)]
pub struct AdmissionController {
    entries: Vec<Entry>,
    policy: OverloadPolicy,
}

impl AdmissionController {
    /// Builds a controller for the given `(tenant, rate)` registrations
    /// under `policy`.  A `None` rate registers the tenant without a
    /// bucket (counted, never refused).
    pub(crate) fn new(rates: &[(TenantId, Option<TenantRate>)], policy: OverloadPolicy) -> Self {
        let mut entries = Vec::with_capacity(rates.len() + 1);
        // Entry 0: the anonymous catch-all (unlimited).
        entries.push(Entry::new(insane_memory::DEFAULT_TENANT, None));
        for &(tenant, rate) in rates {
            if tenant != insane_memory::DEFAULT_TENANT
                && !entries.iter().any(|e| e.tenant == tenant)
            {
                entries.push(Entry::new(tenant, rate));
            }
        }
        Self { entries, policy }
    }

    /// The configured overload policy.
    pub fn policy(&self) -> OverloadPolicy {
        self.policy
    }

    fn entry_index(&self, tenant: TenantId) -> usize {
        self.entries
            .iter()
            .skip(1)
            .position(|e| e.tenant == tenant)
            .map_or(0, |i| i + 1)
    }

    /// Refills `entry`'s bucket for the time elapsed since the last
    /// claim.  Elapsed time is only claimed when it converts to at
    /// least one millitoken, so frequent polls at low rates never
    /// starve the bucket by rounding every refill down to zero.
    fn refill(entry: &Entry, rate: TenantRate, now_ns: u64) {
        let last = entry.last_refill_ns.load(Ordering::Relaxed);
        if now_ns <= last {
            return;
        }
        let elapsed = now_ns - last;
        let add = ((u128::from(elapsed) * u128::from(rate.per_sec) * u128::from(TOKEN))
            / 1_000_000_000) as u64;
        if add == 0 {
            return;
        }
        if entry
            .last_refill_ns
            .compare_exchange(last, now_ns, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            // Another thread claimed this window; its refill covers it.
            return;
        }
        let cap = rate.burst.saturating_mul(TOKEN);
        let mut cur = entry.tokens_milli.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(add).min(cap);
            match entry.tokens_milli.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(v) => cur = v,
            }
        }
    }

    /// Charges one message against `tenant`'s bucket.  `now` yields the
    /// caller's epoch timestamp (passed in so tests are deterministic)
    /// and is called only for a rate-limited tenant: an unrated lend
    /// reads no clock.
    ///
    /// # Errors
    ///
    /// On an empty bucket, the policy decides:
    /// [`InsaneError::AdmissionRejected`], [`InsaneError::Shed`], or
    /// [`InsaneError::Backpressure`] — see [`OverloadPolicy`].
    pub fn admit(
        &self,
        tenant: TenantId,
        class: TrafficClass,
        now: impl FnOnce() -> u64,
    ) -> Result<(), InsaneError> {
        let idx = self.entry_index(tenant);
        let Some(entry) = self.entries.get(idx) else {
            return Ok(());
        };
        let Some(rate) = entry.rate else {
            entry.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        };
        Self::refill(entry, rate, now());
        let cap = rate.burst.saturating_mul(TOKEN);
        // Best-effort traffic cannot spend the protected reserve under
        // the class-aware policies; time-sensitive classes (and every
        // class under plain Reject) may drain the bucket to empty.
        let floor = match self.policy {
            OverloadPolicy::Reject => 0,
            OverloadPolicy::ShedLowest | OverloadPolicy::Backpressure => {
                if class == TrafficClass::BEST_EFFORT {
                    cap.saturating_mul(PROTECT_RESERVE_PCT) / 100
                } else {
                    0
                }
            }
        };
        let mut cur = entry.tokens_milli.load(Ordering::Relaxed);
        loop {
            if cur < floor.saturating_add(TOKEN) {
                return Err(self.deny(entry, class));
            }
            match entry.tokens_milli.compare_exchange_weak(
                cur,
                cur - TOKEN,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    entry.admitted.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                Err(v) => cur = v,
            }
        }
    }

    fn deny(&self, entry: &Entry, class: TrafficClass) -> InsaneError {
        let best_effort = class == TrafficClass::BEST_EFFORT;
        match self.policy {
            OverloadPolicy::ShedLowest if best_effort => {
                entry.shed.fetch_add(1, Ordering::Relaxed);
                InsaneError::Shed {
                    tenant: entry.tenant,
                }
            }
            OverloadPolicy::Backpressure if best_effort => {
                entry.throttled.fetch_add(1, Ordering::Relaxed);
                InsaneError::Backpressure
            }
            _ => {
                entry.rejected.fetch_add(1, Ordering::Relaxed);
                InsaneError::AdmissionRejected {
                    tenant: entry.tenant,
                }
            }
        }
    }

    /// Resolves a full TX queue into the policy's error for `tenant`:
    /// under [`OverloadPolicy::ShedLowest`] a best-effort message is
    /// shed (counted, terminal), every other combination is the
    /// retryable [`InsaneError::Backpressure`] the emit path has always
    /// reported.
    pub(crate) fn on_tx_full(&self, tenant: TenantId, class: TrafficClass) -> InsaneError {
        if self.policy == OverloadPolicy::ShedLowest && class == TrafficClass::BEST_EFFORT {
            let idx = self.entry_index(tenant);
            if let Some(entry) = self.entries.get(idx) {
                entry.shed.fetch_add(1, Ordering::Relaxed);
                return InsaneError::Shed {
                    tenant: entry.tenant,
                };
            }
        }
        InsaneError::Backpressure
    }

    /// Point-in-time counters of every entry (the anonymous entry 0
    /// first, then registered tenants in registration order).
    pub fn usage(&self) -> Vec<AdmissionUsage> {
        self.entries
            .iter()
            .map(|e| AdmissionUsage {
                tenant: e.tenant,
                admitted: e.admitted.load(Ordering::Relaxed),
                rejected: e.rejected.load(Ordering::Relaxed),
                shed: e.shed.load(Ordering::Relaxed),
                throttled: e.throttled.load(Ordering::Relaxed),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    fn controller(rate: TenantRate, policy: OverloadPolicy) -> AdmissionController {
        AdmissionController::new(&[(7, Some(rate))], policy)
    }

    #[test]
    fn unregistered_tenants_are_never_refused() {
        let ctl = controller(TenantRate::new(1, 1), OverloadPolicy::Reject);
        for _ in 0..100 {
            ctl.admit(42, TrafficClass::BEST_EFFORT, || {
                unreachable!("an unrated tenant reads no clock")
            })
            .unwrap();
        }
        assert_eq!(ctl.usage()[0].admitted, 100);
        assert_eq!(ctl.usage()[0].rejected, 0);
    }

    #[test]
    fn burst_then_sustained_rate() {
        // 10 msg/s, burst 4: four back-to-back admits, then the bucket
        // is dry until 100 ms pass per token.
        let ctl = controller(TenantRate::new(10, 4), OverloadPolicy::Reject);
        for _ in 0..4 {
            ctl.admit(7, TrafficClass::BEST_EFFORT, || SEC).unwrap();
        }
        assert!(matches!(
            ctl.admit(7, TrafficClass::BEST_EFFORT, || SEC),
            Err(InsaneError::AdmissionRejected { tenant: 7 })
        ));
        // 100 ms later exactly one more token has dripped in.
        ctl.admit(7, TrafficClass::BEST_EFFORT, || SEC + SEC / 10)
            .unwrap();
        assert!(matches!(
            ctl.admit(7, TrafficClass::BEST_EFFORT, || SEC + SEC / 10),
            Err(InsaneError::AdmissionRejected { tenant: 7 })
        ));
        let u = &ctl.usage()[1];
        assert_eq!((u.tenant, u.admitted, u.rejected), (7, 5, 2));
    }

    #[test]
    fn refill_never_exceeds_burst() {
        let ctl = controller(TenantRate::new(1_000_000, 2), OverloadPolicy::Reject);
        // A long idle period must not bank more than `burst` tokens.
        for _ in 0..2 {
            ctl.admit(7, TrafficClass::BEST_EFFORT, || 100 * SEC)
                .unwrap();
        }
        assert!(ctl
            .admit(7, TrafficClass::BEST_EFFORT, || 100 * SEC)
            .is_err());
    }

    #[test]
    fn shed_lowest_protects_time_sensitive_budget() {
        // Burst 8, reserve 25% = 2 tokens best effort cannot spend.
        let ctl = controller(TenantRate::new(1, 8), OverloadPolicy::ShedLowest);
        for _ in 0..6 {
            ctl.admit(7, TrafficClass::BEST_EFFORT, || 0).unwrap();
        }
        // Best effort hits the protected reserve and is shed...
        assert!(matches!(
            ctl.admit(7, TrafficClass::BEST_EFFORT, || 0),
            Err(InsaneError::Shed { tenant: 7 })
        ));
        // ...while time-critical still has the reserved budget.
        ctl.admit(7, TrafficClass::TIME_CRITICAL, || 0).unwrap();
        ctl.admit(7, TrafficClass::TIME_CRITICAL, || 0).unwrap();
        // A fully empty bucket rejects even time-critical, terminally.
        assert!(matches!(
            ctl.admit(7, TrafficClass::TIME_CRITICAL, || 0),
            Err(InsaneError::AdmissionRejected { tenant: 7 })
        ));
        let u = &ctl.usage()[1];
        assert_eq!((u.admitted, u.rejected, u.shed), (8, 1, 1));
    }

    #[test]
    fn backpressure_policy_is_retryable_for_best_effort() {
        let ctl = controller(TenantRate::new(1, 4), OverloadPolicy::Backpressure);
        for _ in 0..3 {
            ctl.admit(7, TrafficClass::BEST_EFFORT, || 0).unwrap();
        }
        assert!(matches!(
            ctl.admit(7, TrafficClass::BEST_EFFORT, || 0),
            Err(InsaneError::Backpressure)
        ));
        assert_eq!(ctl.usage()[1].throttled, 1);
        // The reserve is still spendable by a time-sensitive message.
        ctl.admit(7, TrafficClass::TIME_CRITICAL, || 0).unwrap();
    }

    #[test]
    fn tx_full_shed_only_under_shed_policy() {
        let ctl = controller(TenantRate::new(1, 1), OverloadPolicy::ShedLowest);
        assert!(matches!(
            ctl.on_tx_full(7, TrafficClass::BEST_EFFORT),
            InsaneError::Shed { tenant: 7 }
        ));
        assert!(matches!(
            ctl.on_tx_full(7, TrafficClass::TIME_CRITICAL),
            InsaneError::Backpressure
        ));
        let ctl = controller(TenantRate::new(1, 1), OverloadPolicy::Reject);
        assert!(matches!(
            ctl.on_tx_full(7, TrafficClass::BEST_EFFORT),
            InsaneError::Backpressure
        ));
    }
}
