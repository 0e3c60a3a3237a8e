//! Property-based tests for the queue primitives.

use insane_queues::{channel, FreeStack, MpmcQueue};
use proptest::prelude::*;

proptest! {
    /// Whatever interleaving of pushes and pops we perform, the SPSC ring
    /// yields exactly the pushed values, in order, with no loss and no
    /// duplication.
    #[test]
    fn spsc_is_fifo_and_lossless(ops in proptest::collection::vec(any::<bool>(), 1..400),
                                 cap in 1usize..32) {
        let (tx, rx) = channel::<u64>(cap);
        let mut next_push = 0u64;
        let mut next_expect = 0u64;
        let mut queued = 0usize;
        for is_push in ops {
            if is_push {
                match tx.push(next_push) {
                    Ok(()) => {
                        next_push += 1;
                        queued += 1;
                        prop_assert!(queued <= tx.capacity());
                    }
                    Err(_) => prop_assert_eq!(queued, tx.capacity()),
                }
            } else {
                match rx.pop() {
                    Some(v) => {
                        prop_assert_eq!(v, next_expect);
                        next_expect += 1;
                        queued -= 1;
                    }
                    None => prop_assert_eq!(queued, 0),
                }
            }
        }
        // Drain: everything pushed must come out in order.
        while let Some(v) = rx.pop() {
            prop_assert_eq!(v, next_expect);
            next_expect += 1;
        }
        prop_assert_eq!(next_expect, next_push);
    }

    /// The MPMC queue behaves identically to a model VecDeque under any
    /// single-threaded operation sequence.
    #[test]
    fn mpmc_matches_vecdeque_model(ops in proptest::collection::vec(any::<Option<u16>>(), 1..400),
                                   cap in 1usize..32) {
        let q = MpmcQueue::<u16>::new(cap);
        let mut model = std::collections::VecDeque::new();
        for op in ops {
            match op {
                Some(v) => match q.push(v) {
                    Ok(()) => model.push_back(v),
                    Err(back) => {
                        prop_assert_eq!(back, v);
                        prop_assert_eq!(model.len(), q.capacity());
                    }
                },
                None => prop_assert_eq!(q.pop(), model.pop_front()),
            }
        }
        prop_assert_eq!(q.len(), model.len());
    }

    /// Popping everything from a stack pre-filled with 0..n yields a
    /// permutation of 0..n regardless of interleaved pushes.
    #[test]
    fn free_stack_is_a_permutation(cap in 1usize..64,
                                   ops in proptest::collection::vec(any::<bool>(), 0..200)) {
        let stack = FreeStack::full(cap);
        let mut held = Vec::new();
        for take in ops {
            if take {
                if let Some(i) = stack.pop() {
                    prop_assert!((i as usize) < cap);
                    held.push(i);
                }
            } else if let Some(i) = held.pop() {
                stack.push(i);
            }
        }
        while let Some(i) = stack.pop() {
            held.push(i);
        }
        held.sort_unstable();
        let expect: Vec<u32> = (0..cap as u32).collect();
        prop_assert_eq!(held, expect);
    }
}
