//! The benchmark's counting allocator.
//!
//! A `#[global_allocator]` wrapper over [`System`] that costs one relaxed
//! flag load per call while disarmed. Armed, it counts allocations and
//! bytes and tracks the peak of live bytes above the moment of arming.
//! It is armed only on dedicated untimed passes, never on a timed one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

pub struct Counting;

// Statistics only: none of these publishes other data, so `Relaxed`.
static ARMED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(size: usize) {
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ARMED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What one armed window saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub count: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Peak of live bytes above the level at arming.
    pub peak: u64,
}

/// Runs `f` with the allocator armed and returns what it allocated.
/// Windows are serialized (they share the counters) and must not nest;
/// every thread's allocations count while one is open, which is how the
/// sharded engine's workers are included.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, AllocCounts) {
    static WINDOW: Mutex<()> = Mutex::new(());
    // The guarded data is `()`: a poisoned lock leaves nothing invalid.
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    COUNT.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ARMED.store(true, Relaxed);
    let out = f();
    ARMED.store(false, Relaxed);
    let counts = AllocCounts {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak: PEAK.load(Relaxed).max(0) as u64,
    };
    (out, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{multi_engine, pass, Warm};
    use crate::stats::best;
    use crate::workloads::spec;
    use vitex_core::Telemetry;

    #[test]
    fn arming_changes_neither_the_matches_nor_the_disarmed_cost() {
        let w = spec("auction-k1000-fanout").unwrap().generate(3).unwrap();
        let doc = &w.docs[0];
        let mut engine = multi_engine(&w.queries, &Telemetry::disabled()).unwrap();
        let disarmed = engine.run_doc(doc).unwrap().fingerprint();
        let (armed, counts) = counted(|| engine.run_doc(doc).unwrap().fingerprint());
        assert_eq!(armed, disarmed, "identical matches armed and disarmed");
        assert!(disarmed.0 > 1000, "the fan-out workload delivers many matches");
        assert!(counts.count > 0 && counts.bytes > 0 && counts.peak > 0, "{counts:?}");

        // Interleaved passes: were the disarmed path doing the armed
        // path's work, it would not be the faster of the two.
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for _ in 0..15 {
            off.push(pass(&mut engine, doc).nanos);
            on.push(counted(|| pass(&mut engine, doc).nanos).0);
        }
        assert!(
            best(&off) as f64 <= best(&on) as f64 * 1.05,
            "disarmed best {} ns, armed best {} ns",
            best(&off),
            best(&on)
        );
    }

    #[test]
    fn a_window_reports_its_own_peak() {
        let (held, counts) = counted(|| {
            drop(vec![0u8; 1 << 20]);
            vec![0u8; 1 << 10]
        });
        assert!(counts.peak >= 1 << 20, "{counts:?}");
        assert!(counts.count >= 2 && counts.bytes >= (1 << 20) + (1 << 10), "{counts:?}");
        drop(held);
    }
}
