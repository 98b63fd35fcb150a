//! Observability hook for the parser.
//!
//! `xmlsax` stays dependency-free: it does not know about any metrics
//! registry. Instead the reader accepts an optional [`ParseProbe`] — a thin
//! trait whose one method defaults to a no-op — and reports scanner byte
//! counts through it. `vitex-core`'s telemetry handle implements the trait
//! and folds them into its registry.
//!
//! The hook is called outside the scan loops: byte counts accumulate in
//! plain per-reader integers and are flushed once per document (or on
//! reader drop), so a probe sees a call or two per document, not per byte
//! or per event.

use std::sync::Arc;

/// Receiver for parser observations. The method defaults to a no-op;
/// implementors override it to record. A probe handle may be cloned into
/// readers on several threads, hence `Send + Sync`.
pub trait ParseProbe: Send + Sync {
    /// Scanner byte counts for one reader: bytes walked past through the
    /// block stop masks (`wide`) vs bytes consumed one at a time
    /// (`scalar`); the two add up to the bytes consumed. Flushed once per
    /// document end (or reader drop), with deltas since the previous
    /// flush.
    fn on_scan_bytes(&self, wide: u64, scalar: u64) {
        let _ = (wide, scalar);
    }
}

/// Shared probe handle given to readers.
pub type ProbeHandle = Arc<dyn ParseProbe>;

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct CountingProbe {
        wide: AtomicU64,
        scalar: AtomicU64,
    }

    impl ParseProbe for CountingProbe {
        fn on_scan_bytes(&self, wide: u64, scalar: u64) {
            self.wide.fetch_add(wide, Ordering::Relaxed);
            self.scalar.fetch_add(scalar, Ordering::Relaxed);
        }
    }

    #[test]
    fn default_method_is_a_noop() {
        struct Silent;
        impl ParseProbe for Silent {}
        let probe: ProbeHandle = Arc::new(Silent);
        probe.on_scan_bytes(1, 2);
    }

    #[test]
    fn implementors_receive_calls() {
        let probe = Arc::new(CountingProbe::default());
        let handle: ProbeHandle = probe.clone();
        handle.on_scan_bytes(64, 8);
        assert_eq!(probe.wide.load(Ordering::Relaxed), 64);
        assert_eq!(probe.scalar.load(Ordering::Relaxed), 8);
    }
}
