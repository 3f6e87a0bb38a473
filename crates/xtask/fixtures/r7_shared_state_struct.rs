//! Seeded R7 violation: atomics hidden one level down, inside a struct
//! of the same file, are still process-global mutable state when the
//! struct is a `static`.

use std::sync::atomic::AtomicU64;

/// A run-wide accumulator: every counter in one struct.
struct Accum {
    events_pushed: AtomicU64,
    events_popped: AtomicU64,
}

impl Accum {
    const fn new() -> Accum {
        Accum {
            events_pushed: AtomicU64::new(0),
            events_popped: AtomicU64::new(0),
        }
    }
}

/// The hidden cross-shard accumulator.
static ACCUM: Accum = Accum::new();
