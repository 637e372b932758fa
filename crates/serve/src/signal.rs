//! SIGINT/SIGTERM handling without a libc crate dependency.
//!
//! std links libc anyway, so the two-argument `signal(2)` entry point
//! is declared directly. The handler only sets an [`AtomicBool`] —
//! async-signal-safe — which the accept loop polls alongside its own
//! stop flag, turning Ctrl-C and `kill` into the same graceful drain
//! as `POST /admin/shutdown`.

use std::sync::atomic::{AtomicBool, Ordering};

static REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::{AtomicBool, Ordering, REQUESTED};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    static INSTALLED: AtomicBool = AtomicBool::new(false);

    pub fn install() {
        if INSTALLED.swap(true, Ordering::SeqCst) {
            return;
        }
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// No-op off Unix: shutdown remains available via the admin route.
    pub fn install() {}
}

/// Installs the SIGINT/SIGTERM → graceful-shutdown handlers (idempotent).
pub fn install() {
    imp::install();
}

/// Whether a termination signal has arrived since [`install`].
pub fn requested() -> bool {
    REQUESTED.load(Ordering::SeqCst)
}
