//! Multiprogramming injection: background threads that only spin.
//!
//! The paper creates multiprogrammed configurations by initializing extra
//! threads "that just spin locally" (Figure 7 uses 48 of them, Figure 10 uses
//! 30), representing other applications sharing the machine. These spinners
//! optionally register with a [`SystemLoadMonitor`] so GLK's multiprogramming
//! detection can see them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use gls_runtime::SystemLoadMonitor;

/// A set of background spinner threads, stopped and joined on drop.
#[derive(Debug)]
pub struct BackgroundSpinners {
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl BackgroundSpinners {
    /// Starts `count` spinner threads. Each registers as runnable with
    /// `monitor`, if one is provided.
    pub fn start(count: usize, monitor: Option<Arc<SystemLoadMonitor>>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let handles = (0..count)
            .map(|_| {
                let stop = Arc::clone(&stop);
                let monitor = monitor.clone();
                std::thread::spawn(move || {
                    let _runnable = monitor.as_ref().map(|m| m.runnable_guard());
                    while !stop.load(Ordering::Relaxed) {
                        // Spin "locally": burn a hardware context without
                        // touching any shared state.
                        for _ in 0..1_000 {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        Self { stop, handles }
    }
}

impl Drop for BackgroundSpinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_spinners_is_a_noop() {
        let s = BackgroundSpinners::start(0, None);
        assert!(s.handles.is_empty());
    }

    #[test]
    fn spinners_register_with_monitor_and_unregister_on_drop() {
        let monitor = Arc::new(SystemLoadMonitor::new());
        let spinners = BackgroundSpinners::start(3, Some(Arc::clone(&monitor)));
        assert_eq!(spinners.handles.len(), 3);
        // Wait for all spinners to have registered.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while monitor.registered_runnable() < 3 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(monitor.registered_runnable(), 3);
        drop(spinners);
        assert_eq!(monitor.registered_runnable(), 0);
    }

    #[test]
    fn enough_spinners_trigger_multiprogramming_detection() {
        let monitor = Arc::new(SystemLoadMonitor::new());
        let hw = gls_runtime::hardware_contexts();
        let spinners = BackgroundSpinners::start(hw + 2, Some(Arc::clone(&monitor)));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while monitor.registered_runnable() < hw + 2 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(monitor.is_multiprogrammed());
        drop(spinners);
        assert!(!monitor.is_multiprogrammed());
    }
}
