//! Wall-clock timing helpers for the experiment harnesses.

use std::time::{Duration, Instant};

/// A simple stopwatch that accumulates elapsed time across start/stop
/// intervals. The Table 5 harness uses this to time *only* the matrix
/// multiplication portion of each mini-batch, as the paper does.
#[derive(Debug)]
pub struct Stopwatch {
    accumulated: Duration,
    started: Option<Instant>,
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::new()
    }
}

impl Stopwatch {
    /// A stopped stopwatch with zero accumulated time.
    pub fn new() -> Self {
        Self {
            accumulated: Duration::ZERO,
            started: None,
        }
    }

    /// Start (or restart) the current interval. Idempotent while running.
    pub fn start(&mut self) {
        if self.started.is_none() {
            self.started = Some(Instant::now());
        }
    }

    /// Stop the current interval, folding it into the accumulated total.
    pub fn stop(&mut self) {
        if let Some(t) = self.started.take() {
            self.accumulated += t.elapsed();
        }
    }

    /// Total accumulated time (including a running interval, if any).
    pub fn elapsed(&self) -> Duration {
        match self.started {
            Some(t) => self.accumulated + t.elapsed(),
            None => self.accumulated,
        }
    }

    /// Accumulated seconds as `f64`.
    pub fn secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

/// Time a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_accumulates() {
        let mut sw = Stopwatch::new();
        sw.start();
        std::thread::sleep(Duration::from_millis(5));
        sw.stop();
        let first = sw.elapsed();
        assert!(first >= Duration::from_millis(4));
        sw.start();
        std::thread::sleep(Duration::from_millis(5));
        sw.stop();
        assert!(sw.elapsed() > first);
    }

    #[test]
    fn timed_returns_result() {
        let (v, secs) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
