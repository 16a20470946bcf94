//! Global TAS schedule configuration.

use crate::error::SchedError;
use crate::Result;

/// The global Time-Aware-Shaper schedule: a base period `B` divided into
/// uniform time slots, executed cyclically on every link against a globally
/// synchronized clock (IEEE 802.1Qbv, Section II-A).
///
/// `B` and the slot layout are fixed before the network starts and never
/// change at run time; recovery re-schedules flows within this fixed cycle.
///
/// # Examples
///
/// ```
/// use nptsn_sched::TasConfig;
///
/// // The evaluation setup: 500 us base period, 20 uniform slots, 1 Gbit/s.
/// let tas = TasConfig::default();
/// assert_eq!(tas.base_period_us(), 500);
/// assert_eq!(tas.slots(), 20);
/// assert_eq!(tas.slot_duration_us(), 25);
/// // A 25 us slot at 1 Gbit/s carries 3125 bytes.
/// assert_eq!(tas.slot_capacity_bytes(), 3125);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TasConfig {
    base_period_us: u64,
    slots: usize,
    bandwidth_mbps: u64,
}

impl TasConfig {
    /// Creates a TAS configuration.
    ///
    /// # Panics
    ///
    /// Panics when `slots`, `base_period_us` or `bandwidth_mbps` is zero,
    /// the base period is not divisible into `slots` equal slots, or a
    /// slot's capacity in bytes does not fit in a `u32`. Use
    /// [`TasConfig::try_new`] for values read from outside the program.
    pub fn new(base_period_us: u64, slots: usize, bandwidth_mbps: u64) -> TasConfig {
        TasConfig::try_new(base_period_us, slots, bandwidth_mbps).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible counterpart of [`TasConfig::new`].
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidTas`] when `slots`, `base_period_us` or
    /// `bandwidth_mbps` is zero, the base period is not divisible into
    /// `slots` equal slots, or a slot's capacity in bytes
    /// (`bandwidth_mbps × slot duration / 8`) does not fit in a `u32`.
    ///
    /// ```
    /// use nptsn_sched::TasConfig;
    ///
    /// assert!(TasConfig::try_new(500, 20, 1000).is_ok());
    /// // 500 us cannot be cut into 3 equal whole-microsecond slots.
    /// assert!(TasConfig::try_new(500, 3, 1000).is_err());
    /// // 25 us slots at 10^10 Mbit/s would carry 3.1e10 bytes each.
    /// assert!(TasConfig::try_new(500, 20, 10_000_000_000).is_err());
    /// ```
    pub fn try_new(base_period_us: u64, slots: usize, bandwidth_mbps: u64) -> Result<TasConfig> {
        let invalid = |msg: String| Err(SchedError::InvalidTas(msg));
        if slots == 0 {
            return invalid("at least one slot is required".to_string());
        }
        if base_period_us == 0 {
            return invalid("base period must be positive".to_string());
        }
        if bandwidth_mbps == 0 {
            return invalid("bandwidth must be positive".to_string());
        }
        if !base_period_us.is_multiple_of(slots as u64) {
            return invalid(format!(
                "base period {base_period_us} us is not divisible into {slots} slots"
            ));
        }
        let slot_us = base_period_us / slots as u64;
        let capacity = bandwidth_mbps.checked_mul(slot_us).map(|bits| bits / 8);
        if capacity.and_then(|bytes| u32::try_from(bytes).ok()).is_none() {
            return invalid(format!(
                "a {slot_us} us slot at {bandwidth_mbps} Mbit/s carries more than {} bytes",
                u32::MAX
            ));
        }
        Ok(TasConfig { base_period_us, slots, bandwidth_mbps })
    }

    /// The base period `B` in microseconds.
    pub fn base_period_us(&self) -> u64 {
        self.base_period_us
    }

    /// Number of time slots per base period.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Uniform link bandwidth in Mbit/s (a typical setup for TT
    /// transmission, Section II-A).
    pub fn bandwidth_mbps(&self) -> u64 {
        self.bandwidth_mbps
    }

    /// Duration of one slot in microseconds.
    pub fn slot_duration_us(&self) -> u64 {
        self.base_period_us / self.slots as u64
    }

    /// Bytes a single slot can carry at the configured bandwidth.
    pub fn slot_capacity_bytes(&self) -> u32 {
        // bandwidth [Mbit/s] * duration [us] = bits; / 8 = bytes. `try_new`
        // checked that this neither overflows nor exceeds `u32`.
        (self.bandwidth_mbps * self.slot_duration_us() / 8) as u32
    }

    /// How many transmissions per base period a flow with `period_us` needs.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::ZeroPeriod`] for a zero period,
    /// [`SchedError::PeriodNotDivisor`] when the period does not divide `B`
    /// and [`SchedError::SlotsNotDivisible`] when the release windows would
    /// not be slot-aligned.
    pub fn repetitions(&self, period_us: u64) -> Result<usize> {
        if period_us == 0 {
            return Err(SchedError::ZeroPeriod);
        }
        if !self.base_period_us.is_multiple_of(period_us) {
            return Err(SchedError::PeriodNotDivisor {
                period_us,
                base_period_us: self.base_period_us,
            });
        }
        let reps = (self.base_period_us / period_us) as usize;
        if !self.slots.is_multiple_of(reps) {
            return Err(SchedError::SlotsNotDivisible { slots: self.slots, repetitions: reps });
        }
        Ok(reps)
    }

    /// Slots per release window for a flow with the given repetitions.
    pub fn window_slots(&self, repetitions: usize) -> usize {
        self.slots / repetitions
    }
}

impl Default for TasConfig {
    /// The evaluation setup of Section VI-A: a 500 us base period uniformly
    /// divided into 20 time slots, at 1 Gbit/s.
    fn default() -> TasConfig {
        TasConfig::new(500, 20, 1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let tas = TasConfig::default();
        assert_eq!(tas.base_period_us(), 500);
        assert_eq!(tas.slots(), 20);
        assert_eq!(tas.slot_duration_us(), 25);
    }

    #[test]
    fn repetitions_for_divisor_periods() {
        let tas = TasConfig::default();
        assert_eq!(tas.repetitions(500).unwrap(), 1);
        assert_eq!(tas.repetitions(250).unwrap(), 2);
        assert_eq!(tas.repetitions(100).unwrap(), 5);
        assert_eq!(tas.window_slots(5), 4);
    }

    #[test]
    fn invalid_periods_rejected() {
        let tas = TasConfig::default();
        assert_eq!(tas.repetitions(0), Err(SchedError::ZeroPeriod));
        assert_eq!(
            tas.repetitions(300),
            Err(SchedError::PeriodNotDivisor { period_us: 300, base_period_us: 500 })
        );
        // 500/125 = 4 reps but 20 % 4 == 0, fine; use slots=18 to trigger.
        let tas2 = TasConfig::new(504, 18, 1000);
        assert_eq!(
            tas2.repetitions(126), // 4 repetitions, 18 % 4 != 0
            Err(SchedError::SlotsNotDivisible { slots: 18, repetitions: 4 })
        );
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn non_uniform_slots_panic() {
        let _ = TasConfig::new(500, 7, 1000);
    }

    #[test]
    fn try_new_rejects_what_new_panics_on() {
        let invalid = [(500, 0, 1000), (0, 20, 1000), (500, 20, 0), (500, 3, 1000)];
        for (base, slots, bandwidth) in invalid {
            let result = TasConfig::try_new(base, slots, bandwidth);
            assert!(
                matches!(result, Err(SchedError::InvalidTas(_))),
                "{base} us / {slots} slots / {bandwidth} Mbit/s"
            );
        }
        assert_eq!(TasConfig::try_new(500, 20, 1000), Ok(TasConfig::default()));
    }

    #[test]
    fn try_new_rejects_a_slot_capacity_beyond_u32() {
        // 25 us slots: 3.1e10 bytes at 10^10 Mbit/s, which the old cast
        // truncated to 1.19e9 in release builds.
        let too_wide = TasConfig::try_new(500, 20, 10_000_000_000);
        assert!(matches!(too_wide, Err(SchedError::InvalidTas(m)) if m.contains("bytes")));
        // bandwidth × slot duration overflows u64 itself.
        assert!(TasConfig::try_new(1_000_000, 1, u64::MAX / 2).is_err());
        // An 8 us slot carries `bandwidth_mbps` bytes: u32::MAX is the
        // widest that fits.
        let tas = TasConfig::try_new(8, 1, u64::from(u32::MAX)).unwrap();
        assert_eq!(tas.slot_capacity_bytes(), u32::MAX);
        assert!(TasConfig::try_new(8, 1, u64::from(u32::MAX) + 1).is_err());
    }

    #[test]
    fn slot_capacity_scales_with_bandwidth() {
        let slow = TasConfig::new(500, 20, 100);
        assert_eq!(slow.slot_capacity_bytes(), 312);
        let fast = TasConfig::new(500, 20, 1000);
        assert_eq!(fast.slot_capacity_bytes(), 3125);
    }
}
