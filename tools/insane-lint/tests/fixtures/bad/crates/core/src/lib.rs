// Seeded-violation fixture: every line below should trip a rule.
// This tree is excluded from real lint runs (fixtures/ is skipped by the
// directory walker) and exists so the integration test can prove the
// linter exits non-zero on known-bad input.

use std::net::UdpSocket;

pub fn forge_token() -> u32 {
    let token = SlotToken { index: 3, generation: 1 };
    token.index() * 64
}

pub fn die(x: Option<u8>) -> u8 {
    x.unwrap()
}

pub fn poke(p: *mut u8) {
    unsafe { *p = 0 };
}

// insane-lint: allow(no-panic-paths)
pub fn waived_badly(x: Option<u8>) -> u8 {
    x.expect("boom")
}

pub struct SlotToken {
    pub index: u32,
    pub generation: u32,
}

pub fn queue_by_id(token: SlotToken) {}
