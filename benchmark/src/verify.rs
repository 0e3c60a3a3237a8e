//! Output checking: what counts as a failed operation, and the
//! `--self-test` faults that prove the checks can fail.

use crate::gen::{PayloadGen, SEQ_BYTES};

/// A deliberate fault for `--self-test`: the run must report it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Flip one byte of one payload after it is written.
    Corrupt,
    /// Take one delivered message off its sink without checking it.
    Swallow,
}

/// Fires one [`Fault`] once, at a fixed operation of the timed phase.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    fault: Option<Fault>,
    fired: bool,
}

/// Operation (counted from the start of the run) that takes the fault.
const FAULT_AT_OP: u64 = 1_000;

impl FaultPlan {
    pub fn new(fault: Option<Fault>) -> Self {
        Self {
            fault,
            fired: false,
        }
    }

    fn due(&mut self, fault: Fault, op: u64) -> bool {
        if self.fault == Some(fault) && !self.fired && op >= FAULT_AT_OP {
            self.fired = true;
            return true;
        }
        false
    }

    /// Corrupts `payload` if this is the operation to corrupt.
    #[inline]
    pub fn maybe_corrupt(&mut self, op: u64, payload: &mut [u8]) {
        if self.fault.is_some() && self.due(Fault::Corrupt, op) {
            let at = payload.len() / 2;
            payload[at] ^= 0x20;
        }
    }

    /// Whether the message just taken off a sink must be dropped
    /// unchecked.
    #[inline]
    pub fn swallow_now(&mut self, op: u64) -> bool {
        self.fault.is_some() && self.due(Fault::Swallow, op)
    }

    /// Whether the planned fault was injected (a self-test that never
    /// fired proves nothing).
    pub fn fired(&self) -> bool {
        self.fault.is_none() || self.fired
    }
}

/// Attempted and failed operations of a run, the refusals seen, and the
/// first failure's description.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Messages delivered to a sink and verified.
    pub verified: u64,
    /// `emit` refused with `Backpressure` (TX queue full).
    pub emit_backpressure: u64,
    /// `get_buffer` refused because a pool or quota was exhausted.
    pub acquire_failed: u64,
    /// `get_buffer` refused by the admission controller.
    pub admission_rejected: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    /// Counts one failed operation.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }
}

/// In-order, exactly-once, content-checked delivery on one sink.
#[derive(Debug)]
pub struct Checker {
    name: &'static str,
    next: u64,
}

impl Checker {
    pub fn new(name: &'static str) -> Self {
        Self { name, next: 0 }
    }

    /// Messages this sink has accepted as correct, which must equal
    /// what was emitted towards it.
    pub fn accepted_through(&self) -> u64 {
        self.next
    }

    /// Checks one delivered payload against the next expected message.
    /// A gap (lost message) resynchronises on the delivered sequence
    /// number, so one loss is one failure, not one per later message.
    #[inline]
    pub fn check(&mut self, gen: &PayloadGen, payload: &[u8], tally: &mut Tally) {
        if gen.check(self.next, payload) {
            self.next += 1;
            tally.verified += 1;
            return;
        }
        self.mismatch(gen, payload, tally);
    }

    #[cold]
    fn mismatch(&mut self, gen: &PayloadGen, payload: &[u8], tally: &mut Tally) {
        let expected = self.next;
        let got = payload
            .get(..SEQ_BYTES)
            .and_then(|b| b.try_into().ok())
            .map(u64::from_le_bytes);
        let name = self.name;
        match got {
            Some(seq) if seq > expected && gen.check(seq, payload) => {
                self.next = seq + 1;
                tally.verified += 1;
                tally.fail(|| format!("{name}: lost message(s) {expected}..{seq}"));
            }
            Some(seq) if seq < expected && gen.check(seq, payload) => {
                tally.fail(|| {
                    format!("{name}: duplicated or reordered message {seq} (expected {expected})")
                });
            }
            _ => {
                self.next += 1;
                tally.fail(|| format!("{name}: corrupted payload at message {expected}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(gen: &PayloadGen, seq: u64) -> Vec<u8> {
        let mut buf = vec![0u8; 64];
        gen.fill(seq, &mut buf);
        buf
    }

    #[test]
    fn in_order_stream_passes() {
        let gen = PayloadGen::new(1, 1, 64);
        let (mut c, mut t) = (Checker::new("s"), Tally::default());
        for seq in 0..10 {
            c.check(&gen, &payload(&gen, seq), &mut t);
        }
        assert_eq!((t.failed, t.verified, c.accepted_through()), (0, 10, 10));
    }

    #[test]
    fn loss_duplicate_and_corruption_each_fail_once() {
        let gen = PayloadGen::new(1, 1, 64);
        let (mut c, mut t) = (Checker::new("s"), Tally::default());
        c.check(&gen, &payload(&gen, 0), &mut t);
        c.check(&gen, &payload(&gen, 2), &mut t); // 1 lost
        assert_eq!(t.failed, 1);
        c.check(&gen, &payload(&gen, 3), &mut t);
        assert_eq!(t.failed, 1, "resynchronised after the gap");
        c.check(&gen, &payload(&gen, 3), &mut t); // duplicate
        assert_eq!(t.failed, 2);
        let mut bad = payload(&gen, 4);
        bad[20] ^= 1;
        c.check(&gen, &bad, &mut t);
        assert_eq!(t.failed, 3);
        c.check(&gen, &payload(&gen, 5), &mut t);
        assert_eq!(t.failed, 3);
        assert!(t
            .first_failure
            .as_deref()
            .is_some_and(|m| m.contains("lost")));
    }

    #[test]
    fn fault_plan_fires_once_at_its_operation() {
        let mut plan = FaultPlan::new(Some(Fault::Corrupt));
        let mut buf = [0u8; 8];
        plan.maybe_corrupt(FAULT_AT_OP - 1, &mut buf);
        assert_eq!(buf, [0u8; 8]);
        assert!(!plan.fired());
        plan.maybe_corrupt(FAULT_AT_OP, &mut buf);
        assert_ne!(buf, [0u8; 8]);
        let snapshot = buf;
        plan.maybe_corrupt(FAULT_AT_OP + 1, &mut buf);
        assert_eq!(buf, snapshot, "fires once");
        assert!(plan.fired());
        assert!(
            !plan.swallow_now(FAULT_AT_OP + 2),
            "a corrupt plan never swallows"
        );
        assert!(FaultPlan::new(None).fired());
    }
}
