//~ crate: rejection
//~ path: crates/rejection/src/fixture.rs

pub fn tidy(x: u64) -> u64 {
    x + 1 // xtask-allow: no-unwrap //~ expect: dead-pragma
}

pub fn tidy2(x: u64) -> u64 {
    x + 2 // xtask-allow: no-unwrapping //~ expect: dead-pragma
}

pub fn moved(n: u32) -> usize {
    n as usize // xtask-allow: lossy-cast: clippy owns this rule now //~ expect: dead-pragma
}
