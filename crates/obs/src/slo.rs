//! Service-level objectives and multi-window burn rates
//! (`SNN_SLO="p99=25ms,avail=99.9"`).
//!
//! # Burn-rate math
//!
//! An SLO grants an **error budget**: `p99=25ms` promises 99% of
//! requests under 25ms, so 1% may be slower; `avail=99.9` promises
//! 99.9% non-error responses, so 0.1% may fail. The **burn rate**
//! over a window is how fast that budget is being consumed relative
//! to plan:
//!
//! ```text
//! burn = (bad events in window / total events in window) / budget
//! ```
//!
//! `burn = 1` spends the budget exactly at the sustainable rate;
//! `burn = 14.4` over a short window (the classic fast-burn page
//! threshold, [`FAST_BURN_THRESHOLD`]) would exhaust 2% of a 30-day
//! budget in one hour. Two windows are tracked — 5 minutes (fast,
//! catches acute incidents) and 1 hour (slow, catches simmering
//! regressions) — from one wheel of 10-second slots; the tracker
//! flags [`BurnRates::fast_burn`] when the 5-minute burn of either
//! objective crosses the threshold, and the serve layer flips
//! `/healthz` to `degraded` off that flag.
//!
//! The wheel is fed per-request (the same event stream the serve
//! latency histograms record) and costs one short mutex hold per
//! record; gauges are refreshed at scrape time.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// 5-minute burn at or above this rate flags fast burn (Google
/// SRE-workbook paging threshold: 2%/hour of a 30-day budget).
pub const FAST_BURN_THRESHOLD: f64 = 14.4;

/// Windows with fewer events than this never flag fast burn — a lone
/// failed request in an idle second is not an incident.
pub const MIN_EVENTS_FOR_BURN: u64 = 10;

const SLOT_SECS: u64 = 10;
const SLOTS_1H: usize = 360;
const SLOTS_5M: usize = 30;

/// Parsed objectives from an `SNN_SLO` spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Latency objective: (quantile in 0..1, threshold seconds).
    /// `p99=25ms` → `(0.99, 0.025)`. Zeroed when unset.
    pub latency_quantile: f64,
    /// Latency threshold in seconds; `0.0` when no latency objective.
    pub latency_threshold: f64,
    /// Availability objective in 0..1 (`avail=99.9` → `0.999`); `0.0`
    /// when no availability objective.
    pub availability: f64,
}

impl SloConfig {
    /// Parses a spec like `p99=25ms,avail=99.9`. Either objective may
    /// be omitted; at least one must be present.
    pub fn parse(spec: &str) -> Result<SloConfig, String> {
        let mut cfg = SloConfig { latency_quantile: 0.0, latency_threshold: 0.0, availability: 0.0 };
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("`{part}`: want key=value"))?;
            if let Some(pct) = key.strip_prefix('p') {
                let q: f64 = pct
                    .parse()
                    .map_err(|_| format!("`{key}`: bad quantile (want e.g. p99)"))?;
                if !(0.0..100.0).contains(&q) || q <= 0.0 {
                    return Err(format!("`{key}`: quantile out of range"));
                }
                cfg.latency_quantile = q / 100.0;
                cfg.latency_threshold = parse_duration_secs(value)?;
            } else if key == "avail" {
                let pct: f64 =
                    value.parse().map_err(|_| format!("`avail={value}`: bad percentage"))?;
                if !(0.0..100.0).contains(&pct) || pct <= 0.0 {
                    return Err(format!("`avail={value}`: percentage out of range"));
                }
                cfg.availability = pct / 100.0;
            } else {
                return Err(format!("unknown objective `{key}` (want pNN or avail)"));
            }
        }
        if cfg.latency_threshold == 0.0 && cfg.availability == 0.0 {
            return Err("no objectives (want e.g. p99=25ms,avail=99.9)".to_string());
        }
        Ok(cfg)
    }

    /// The configuration `SNN_SLO` asks for, or `None` when unset.
    /// A malformed spec is reported on stderr and treated as unset —
    /// a bad ops knob must not take the server down.
    pub fn from_env() -> Option<SloConfig> {
        let spec = std::env::var("SNN_SLO").ok()?;
        if spec.is_empty() {
            return None;
        }
        match SloConfig::parse(&spec) {
            Ok(cfg) => Some(cfg),
            Err(e) => {
                eprintln!("snn-obs: bad SNN_SLO `{spec}`: {e}; SLO tracking disabled");
                None
            }
        }
    }

    /// Latency error budget (fraction of requests allowed over the
    /// threshold), or 0 when no latency objective.
    pub fn latency_budget(&self) -> f64 {
        if self.latency_threshold > 0.0 {
            1.0 - self.latency_quantile
        } else {
            0.0
        }
    }

    /// Availability error budget, or 0 when no availability objective.
    pub fn availability_budget(&self) -> f64 {
        if self.availability > 0.0 {
            1.0 - self.availability
        } else {
            0.0
        }
    }
}

fn parse_duration_secs(s: &str) -> Result<f64, String> {
    let (num, scale) = if let Some(v) = s.strip_suffix("us") {
        (v, 1e-6)
    } else if let Some(v) = s.strip_suffix("ms") {
        (v, 1e-3)
    } else if let Some(v) = s.strip_suffix('s') {
        (v, 1.0)
    } else {
        return Err(format!("`{s}`: want a duration like 25ms"));
    };
    let n: f64 = num.parse().map_err(|_| format!("`{s}`: bad number"))?;
    if !n.is_finite() || n <= 0.0 {
        return Err(format!("`{s}`: duration must be positive"));
    }
    Ok(n * scale)
}

/// Burn rates over both windows, plus the paging flag.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BurnRates {
    /// Latency burn over the last 5 minutes.
    pub latency_5m: f64,
    /// Latency burn over the last hour.
    pub latency_1h: f64,
    /// Availability burn over the last 5 minutes.
    pub availability_5m: f64,
    /// Availability burn over the last hour.
    pub availability_1h: f64,
    /// Whether either 5-minute burn crossed
    /// [`FAST_BURN_THRESHOLD`] with enough traffic to mean it.
    pub fast_burn: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Absolute slot index this entry holds data for (wheel entries
    /// are lazily recycled, so stale indices are skipped on read).
    index: u64,
    total: u64,
    errors: u64,
    slow: u64,
}

/// Per-request SLO accounting: feed with [`SloTracker::record`], read
/// with [`SloTracker::burn_rates`].
pub struct SloTracker {
    cfg: SloConfig,
    epoch: Instant,
    wheel: Mutex<Vec<Slot>>,
}

impl SloTracker {
    /// A tracker for the given objectives, starting empty.
    pub fn new(cfg: SloConfig) -> SloTracker {
        SloTracker {
            cfg,
            epoch: Instant::now(),
            wheel: Mutex::new(vec![Slot::default(); SLOTS_1H]),
        }
    }

    /// Records one finished request. `ok` is "counts against
    /// availability?" (server-caused failures: shed, deadline, panic,
    /// circuit open); `latency` is end-to-end wall time and counts
    /// against the latency objective only for ok requests (a shed
    /// request has no meaningful service latency).
    pub fn record(&self, ok: bool, latency: Duration) {
        self.record_at(self.epoch.elapsed().as_secs(), ok, latency.as_secs_f64());
    }

    /// Clock-injected form of [`SloTracker::record`] for tests.
    #[doc(hidden)]
    pub fn record_at(&self, now_secs: u64, ok: bool, latency_secs: f64) {
        let index = now_secs / SLOT_SECS;
        let mut wheel = self.wheel.lock().expect("slo wheel poisoned");
        let slot = &mut wheel[(index as usize) % SLOTS_1H];
        if slot.index != index {
            *slot = Slot { index, ..Slot::default() };
        }
        slot.total += 1;
        if !ok {
            slot.errors += 1;
        } else if self.cfg.latency_threshold > 0.0 && latency_secs > self.cfg.latency_threshold {
            slot.slow += 1;
        }
    }

    /// Burn rates over the trailing 5-minute and 1-hour windows.
    pub fn burn_rates(&self) -> BurnRates {
        self.burn_rates_at(self.epoch.elapsed().as_secs())
    }

    /// Clock-injected form of [`SloTracker::burn_rates`] for tests.
    #[doc(hidden)]
    pub fn burn_rates_at(&self, now_secs: u64) -> BurnRates {
        let now_index = now_secs / SLOT_SECS;
        let wheel = self.wheel.lock().expect("slo wheel poisoned");
        let sum = |slots_back: usize| -> (u64, u64, u64) {
            let (mut total, mut errors, mut slow) = (0, 0, 0);
            for slot in wheel.iter() {
                if slot.index + (slots_back as u64) > now_index && slot.index <= now_index {
                    total += slot.total;
                    errors += slot.errors;
                    slow += slot.slow;
                }
            }
            (total, errors, slow)
        };
        let (total_5m, errors_5m, slow_5m) = sum(SLOTS_5M);
        let (total_1h, errors_1h, slow_1h) = sum(SLOTS_1H);
        drop(wheel);

        let burn = |bad: u64, total: u64, budget: f64| -> f64 {
            if total == 0 || budget <= 0.0 {
                0.0
            } else {
                (bad as f64 / total as f64) / budget
            }
        };
        let lat_budget = self.cfg.latency_budget();
        let avail_budget = self.cfg.availability_budget();
        let latency_5m = burn(slow_5m, total_5m, lat_budget);
        let availability_5m = burn(errors_5m, total_5m, avail_budget);
        BurnRates {
            latency_5m,
            latency_1h: burn(slow_1h, total_1h, lat_budget),
            availability_5m,
            availability_1h: burn(errors_1h, total_1h, avail_budget),
            fast_burn: total_5m >= MIN_EVENTS_FOR_BURN
                && (latency_5m >= FAST_BURN_THRESHOLD || availability_5m >= FAST_BURN_THRESHOLD),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_canonical_spec() {
        let cfg = SloConfig::parse("p99=25ms,avail=99.9").unwrap();
        assert!((cfg.latency_quantile - 0.99).abs() < 1e-12);
        assert!((cfg.latency_threshold - 0.025).abs() < 1e-12);
        assert!((cfg.availability - 0.999).abs() < 1e-12);
        assert!((cfg.latency_budget() - 0.01).abs() < 1e-12);
        assert!((cfg.availability_budget() - 0.001).abs() < 1e-9);
    }

    #[test]
    fn parse_accepts_partial_specs_and_units() {
        let lat_only = SloConfig::parse("p95=2s").unwrap();
        assert!((lat_only.latency_threshold - 2.0).abs() < 1e-12);
        assert_eq!(lat_only.availability_budget(), 0.0);
        let avail_only = SloConfig::parse("avail=99").unwrap();
        assert_eq!(avail_only.latency_budget(), 0.0);
        assert!((SloConfig::parse("p50=500us").unwrap().latency_threshold - 5e-4).abs() < 1e-15);
    }

    #[test]
    fn parse_rejects_junk() {
        for bad in ["", "p99=25", "p99", "avail=101", "avail=0", "p0=1ms", "lat=3ms", "p99=-2ms"] {
            assert!(SloConfig::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn burn_rates_reflect_windowed_bad_fractions() {
        let cfg = SloConfig::parse("p99=25ms,avail=99.9").unwrap();
        let t = SloTracker::new(cfg);
        // 100 requests at t=0..50s: 2 slow, 1 error.
        for i in 0..100u64 {
            let slow = i < 2;
            let err = i == 2;
            t.record_at(i % 50, !err, if slow { 0.050 } else { 0.001 });
        }
        let rates = t.burn_rates_at(55);
        // Latency: 2 slow of 100 total; budget 1% → burn = 2.
        assert!((rates.latency_5m - (2.0 / 100.0) / 0.01).abs() < 1e-9, "{rates:?}");
        // Availability: 1/100 errors; budget 0.1% → burn = 10.
        assert!((rates.availability_5m - 10.0).abs() < 1e-9, "{rates:?}");
        assert_eq!(rates.latency_5m, rates.latency_1h, "same data in both windows");
        assert!(!rates.fast_burn, "burn 10 < 14.4 must not page");
    }

    #[test]
    fn fast_burn_flags_and_expires() {
        let cfg = SloConfig::parse("avail=99.9").unwrap();
        let t = SloTracker::new(cfg);
        // 20 requests, half failing → burn = 0.5/0.001 = 500.
        for i in 0..20u64 {
            t.record_at(10, i % 2 == 0, 0.001);
        }
        assert!(t.burn_rates_at(15).fast_burn);
        // 5 minutes later the window has rolled past the bad slot.
        let later = t.burn_rates_at(15 + 360);
        assert!(!later.fast_burn, "{later:?}");
        assert_eq!(later.availability_5m, 0.0);
        // …but the 1h window still remembers.
        assert!(later.availability_1h > 0.0);
    }

    #[test]
    fn few_events_never_page() {
        let cfg = SloConfig::parse("avail=99.9").unwrap();
        let t = SloTracker::new(cfg);
        for _ in 0..5 {
            t.record_at(3, false, 0.001); // 100% failure, 5 events
        }
        assert!(!t.burn_rates_at(5).fast_burn, "below MIN_EVENTS_FOR_BURN");
        assert!(t.burn_rates_at(5).availability_5m > 0.0, "burn itself still reported");
    }
}
