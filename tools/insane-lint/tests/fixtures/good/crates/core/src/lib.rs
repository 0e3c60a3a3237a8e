// Clean fixture: exercises constructs that look like violations but are
// not (strings, comments, test modules, word-boundary near-misses).

pub fn describe() -> &'static str {
    "unsafe unwrap() panic!() UdpSocket" // raw-socket unsafe unwrap()
}

pub fn lookup(x: Option<u8>) -> u8 {
    x.unwrap_or(0)
}

pub fn seed(host_index: usize) -> usize {
    host_index + 1
}

#[cfg(test)]
mod tests {
    #[test]
    fn panics_are_fine_in_tests() {
        let x: Option<u8> = Some(1);
        assert_eq!(x.unwrap(), 1);
    }

    #[test]
    fn tests_may_name_the_wire_id() {
        assert_eq!(core::mem::size_of::<insane_memory::SlotToken>(), 16);
    }
}
