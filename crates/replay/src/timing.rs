//! Replay timing: the paper's scheduling rule (§2.6, "Correct timing for
//! replayed queries").
//!
//! On the time-synchronization broadcast each querier latches the trace
//! epoch t̄₁ and the real epoch t₁. For query qᵢ with trace time t̄ᵢ seen
//! at real time tᵢ it computes
//!
//! ```text
//! Δt̄ᵢ = t̄ᵢ − t̄₁     (ideal delay from trace start)
//! Δtᵢ = tᵢ − t₁      (processing delay already accumulated)
//! ΔTᵢ = Δt̄ᵢ − Δtᵢ    (timer to arm; ≤ 0 → send immediately)
//! ```
//!
//! which continuously subtracts input-processing delay rather than letting
//! it accumulate — the property behind Figures 6–8's sub-10 ms errors.

/// Per-querier replay clock.
#[derive(Debug, Clone, Copy)]
pub struct ReplayClock {
    /// Trace epoch t̄₁ (µs, trace timeline).
    trace_epoch_us: u64,
    /// Real epoch t₁ (µs, caller's clock).
    real_epoch_us: u64,
    /// Time-scaling factor (1.0 = real time, 0.5 = replay twice as fast).
    speed: f64,
}

impl ReplayClock {
    /// Latches the epochs (the time-sync broadcast).
    pub fn synchronize(trace_epoch_us: u64, real_epoch_us: u64) -> ReplayClock {
        ReplayClock {
            trace_epoch_us,
            real_epoch_us,
            speed: 1.0,
        }
    }

    /// Scales replay speed: delays are multiplied by `factor`, so
    /// **smaller is faster** — `0.5` replays the trace in half the wall
    /// time, `2.0` in double. See DESIGN.md ("Replay speed convention").
    ///
    /// ```
    /// use ldp_replay::ReplayClock;
    ///
    /// // A query 10 ms into the trace...
    /// let real_time = ReplayClock::synchronize(0, 0);
    /// assert_eq!(real_time.delay_us(10_000, 0), Some(10_000));
    ///
    /// // ...is due at 5 ms when speed = 0.5 (twice as fast)...
    /// let doubled = ReplayClock::synchronize(0, 0).with_speed(0.5);
    /// assert_eq!(doubled.delay_us(10_000, 0), Some(5_000));
    /// assert_eq!(doubled.target_real_us(10_000), 5_000);
    ///
    /// // ...and at 20 ms when speed = 2.0 (half speed).
    /// let halved = ReplayClock::synchronize(0, 0).with_speed(2.0);
    /// assert_eq!(halved.delay_us(10_000, 0), Some(20_000));
    /// ```
    pub fn with_speed(mut self, factor: f64) -> ReplayClock {
        // Deadlines must stay monotone in trace time: a negative or NaN
        // factor would reorder sends relative to the trace.
        debug_assert!(
            factor.is_finite() && factor >= 0.0,
            "replay speed must be finite and non-negative, got {factor}"
        );
        self.speed = factor;
        self
    }

    /// ΔTᵢ: how long to wait, from `now_real_us`, before sending the query
    /// stamped `trace_time_us`. `None` means the replay is behind schedule
    /// — send immediately.
    pub fn delay_us(&self, trace_time_us: u64, now_real_us: u64) -> Option<u64> {
        let ideal = (trace_time_us.saturating_sub(self.trace_epoch_us) as f64 * self.speed) as u64;
        let elapsed = now_real_us.saturating_sub(self.real_epoch_us);
        if ideal > elapsed {
            Some(ideal - elapsed)
        } else {
            None
        }
    }

    /// Absolute target send time on the real clock (µs).
    pub fn target_real_us(&self, trace_time_us: u64) -> u64 {
        let ideal = (trace_time_us.saturating_sub(self.trace_epoch_us) as f64 * self.speed) as u64;
        self.real_epoch_us + ideal
    }

    /// The replay-timing error for a query actually sent at
    /// `sent_real_us`: positive = late, negative = early. This is the
    /// quantity Figure 6 plots.
    pub fn error_us(&self, trace_time_us: u64, sent_real_us: u64) -> i64 {
        sent_real_us as i64 - self.target_real_us(trace_time_us) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_schedule_waits_the_gap() {
        // Trace starts at 500, real clock at 1000.
        let clock = ReplayClock::synchronize(500, 1000);
        // A query 250µs into the trace, asked about at real 1100 (100µs
        // elapsed): wait 150 more.
        assert_eq!(clock.delay_us(750, 1100), Some(150));
    }

    #[test]
    fn behind_schedule_sends_immediately() {
        let clock = ReplayClock::synchronize(0, 0);
        // Query at trace 100µs, but 300µs already elapsed.
        assert_eq!(clock.delay_us(100, 300), None);
    }

    #[test]
    fn exactly_on_time_sends_now() {
        let clock = ReplayClock::synchronize(0, 0);
        assert_eq!(clock.delay_us(100, 100), None);
    }

    #[test]
    fn processing_delay_subtracted_not_accumulated() {
        // Three queries 100µs apart in the trace; input processing lags by
        // 30µs by the time each is seen. Targets stay absolute: errors
        // don't stack.
        let clock = ReplayClock::synchronize(0, 0);
        for i in 1..=3u64 {
            let trace_t = i * 100;
            let seen_at = trace_t - 70; // seen 70µs before its slot
            assert_eq!(clock.delay_us(trace_t, seen_at), Some(70));
        }
    }

    #[test]
    fn speed_scaling() {
        let clock = ReplayClock::synchronize(0, 0).with_speed(0.5);
        // 1000µs of trace becomes 500µs of real time.
        assert_eq!(clock.delay_us(1000, 0), Some(500));
        let slow = ReplayClock::synchronize(0, 0).with_speed(2.0);
        assert_eq!(slow.delay_us(1000, 0), Some(2000));
    }

    #[test]
    fn error_sign_convention() {
        let clock = ReplayClock::synchronize(0, 1000);
        // Target for trace 500 is real 1500.
        assert_eq!(clock.error_us(500, 1503), 3, "late is positive");
        assert_eq!(clock.error_us(500, 1490), -10, "early is negative");
    }

    #[test]
    fn trace_time_before_epoch_clamps() {
        let clock = ReplayClock::synchronize(1000, 0);
        assert_eq!(clock.delay_us(500, 0), None);
        assert_eq!(clock.target_real_us(500), 0);
    }
}
