//! fgc-fault — a deterministic, dependency-free fault-injection plane.
//!
//! Production code declares **named fault points** (`storage.write.wal`,
//! `dist.pool.send`, ...) by calling [`FaultPlane::check`] at the site.
//! Tests and operators **arm** a point with a [`FaultAction`] and a
//! [`Trigger`]; the site then observes the action — an injected
//! io-error, a torn (half-written) write, a simulated crash, or a
//! delay — exactly when the trigger fires. Everything is
//! deterministic: nth-hit and every-k triggers count per point, and
//! probabilistic triggers run a per-point xorshift stream seeded from
//! the plane seed and the point name, so a failing schedule can be
//! replayed bit-for-bit.
//!
//! The plane is designed to cost ~nothing when unconfigured: `check`
//! is a single relaxed atomic load on the hot path and only takes the
//! registry lock while a point is armed (or while observe-all counting
//! is on). Per-point hit/injected counters are exported through
//! `fgc-obs`'s Prometheus writer as `*_fault_point_hits_total` /
//! `*_fault_point_injected_total`.
//!
//! Two deployment shapes:
//!
//! * a **private plane** (`FaultPlane::new()`) owned by one test —
//!   used by the storage crash harness so parallel tests never see
//!   each other's faults;
//! * the **global plane** ([`global`]) — what CLI `--fault` specs arm
//!   and what the server/pool hot paths consult.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// When an armed fault point actually fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire on every hit.
    Always,
    /// Fire on exactly the n-th hit (1-based), once.
    Nth(u64),
    /// Fire on every k-th hit (k ≥ 1).
    EveryK(u64),
    /// Fire with probability `p` per hit, from a per-point seeded
    /// xorshift stream (deterministic given the plane seed).
    Probability(f64),
}

/// What an armed fault point does when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The site fails with an injected I/O-style error.
    Error,
    /// A write-like site persists only a prefix (half) of its bytes,
    /// then behaves like [`FaultAction::CrashAfter`]. Non-write sites
    /// treat this as [`FaultAction::Error`].
    Torn,
    /// Simulated kill *before* the operation: nothing is performed,
    /// the site errors, and (for crash-aware consumers like the fault
    /// VFS) every subsequent operation fails too.
    CrashBefore,
    /// Simulated kill *after* the operation: the effect is durable,
    /// then the site errors and the consumer is poisoned.
    CrashAfter,
    /// The site sleeps for the given duration, then proceeds normally.
    Delay(Duration),
}

impl FaultAction {
    /// Human-readable tag used in error messages and spec parsing.
    pub fn tag(&self) -> &'static str {
        match self {
            FaultAction::Error => "error",
            FaultAction::Torn => "torn",
            FaultAction::CrashBefore => "crash-before",
            FaultAction::CrashAfter => "crash-after",
            FaultAction::Delay(_) => "delay",
        }
    }
}

#[derive(Debug, Default)]
struct PointState {
    action: Option<FaultAction>,
    trigger: Option<Trigger>,
    hits: u64,
    injected: u64,
    /// xorshift64 state for [`Trigger::Probability`]; 0 = unseeded.
    rng: u64,
}

/// One row of [`FaultPlane::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointSnapshot {
    /// Fault point name.
    pub name: String,
    /// Times the site was reached while the plane was active.
    pub hits: u64,
    /// Times a fault actually fired.
    pub injected: u64,
    /// Whether the point is currently armed.
    pub armed: bool,
}

/// The workspace's one FNV-1a 64-bit. It derives per-point RNG
/// streams here, routes values to shards in `fgc-relation` (std's
/// `RandomState` is seeded per process; routing must be a pure
/// function of the value) and checksums WAL records — so its output
/// is wire- and disk-visible and pinned by the standard test vectors.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a 64-bit of one byte string.
pub fn fnv64(bytes: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut h = Fnv64::default();
    h.write(bytes);
    h.finish()
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A registry of named fault points. See the module docs.
#[derive(Debug)]
pub struct FaultPlane {
    /// Fast-path gate: true iff any point is armed or observe-all
    /// counting is on. A single relaxed load when idle.
    active: AtomicBool,
    observe_all: AtomicBool,
    seed: AtomicU64,
    points: Mutex<BTreeMap<String, PointState>>,
}

impl FaultPlane {
    /// An empty, inactive plane. `const` so the global plane needs no
    /// lazy initialization.
    pub const fn new() -> Self {
        FaultPlane {
            active: AtomicBool::new(false),
            observe_all: AtomicBool::new(false),
            seed: AtomicU64::new(0x5eed_f417),
            points: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether any point is armed (or observe-all counting is on).
    /// This is the only cost `check` pays on an unconfigured plane.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Seed the probabilistic-trigger streams. Points derive their
    /// stream from `seed ^ fnv64(name)`, so two points never share
    /// one. Resetting the seed restarts every stream.
    pub fn set_seed(&self, seed: u64) {
        self.seed.store(seed, Ordering::Relaxed);
        let mut points = self.points.lock().expect("fault plane poisoned");
        for state in points.values_mut() {
            state.rng = 0;
        }
    }

    /// Count hits on *every* point reached, armed or not — how the
    /// crash harness enumerates the sites of a workload before
    /// deciding where to kill it.
    pub fn set_observe_all(&self, on: bool) {
        self.observe_all.store(on, Ordering::Relaxed);
        self.refresh_active();
    }

    fn refresh_active(&self) {
        let armed = {
            let points = self.points.lock().expect("fault plane poisoned");
            points.values().any(|p| p.action.is_some())
        };
        self.active.store(
            armed || self.observe_all.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }

    /// Arm `point`: `action` fires per `trigger`. Re-arming replaces
    /// the previous action/trigger but keeps the counters.
    pub fn arm(&self, point: &str, action: FaultAction, trigger: Trigger) {
        {
            let mut points = self.points.lock().expect("fault plane poisoned");
            let state = points.entry(point.to_string()).or_default();
            state.action = Some(action);
            state.trigger = Some(trigger);
        }
        self.active.store(true, Ordering::Relaxed);
    }

    /// Arm `point` and get a guard that disarms it when dropped —
    /// scoped activation for tests sharing the global plane.
    pub fn arm_scoped(
        &self,
        point: &str,
        action: FaultAction,
        trigger: Trigger,
    ) -> ScopedFault<'_> {
        self.arm(point, action, trigger);
        ScopedFault {
            plane: self,
            point: point.to_string(),
        }
    }

    /// Disarm one point (counters survive).
    pub fn disarm(&self, point: &str) {
        {
            let mut points = self.points.lock().expect("fault plane poisoned");
            if let Some(state) = points.get_mut(point) {
                state.action = None;
                state.trigger = None;
            }
        }
        self.refresh_active();
    }

    /// Disarm every point and drop all counters.
    pub fn reset(&self) {
        self.points.lock().expect("fault plane poisoned").clear();
        self.observe_all.store(false, Ordering::Relaxed);
        self.active.store(false, Ordering::Relaxed);
    }

    /// The hot-path call a fault site makes. Returns the action to
    /// apply when the point is armed and its trigger fires; `None`
    /// (after one relaxed atomic load) when the plane is idle.
    #[inline]
    pub fn check(&self, point: &str) -> Option<FaultAction> {
        if !self.is_active() {
            return None;
        }
        self.check_slow(point)
    }

    fn check_slow(&self, point: &str) -> Option<FaultAction> {
        let observe_all = self.observe_all.load(Ordering::Relaxed);
        let mut points = self.points.lock().expect("fault plane poisoned");
        let state = if observe_all {
            points.entry(point.to_string()).or_default()
        } else {
            // Only armed/known points allocate an entry; an active
            // plane must not grow state for every unrelated site.
            points.get_mut(point)?
        };
        state.hits += 1;
        let (action, trigger) = match (state.action, state.trigger) {
            (Some(a), Some(t)) => (a, t),
            _ => return None,
        };
        let fire = match trigger {
            Trigger::Always => true,
            Trigger::Nth(n) => state.hits == n,
            Trigger::EveryK(k) => k > 0 && state.hits.is_multiple_of(k),
            Trigger::Probability(p) => {
                if state.rng == 0 {
                    // splitmix64 finalizer: decorrelates neighboring
                    // seeds before the xorshift stream starts
                    let mut s = self.seed.load(Ordering::Relaxed) ^ fnv64(point.as_bytes());
                    s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    s = (s ^ (s >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    s = (s ^ (s >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    s ^= s >> 31;
                    state.rng = if s == 0 { 1 } else { s };
                }
                let draw = xorshift(&mut state.rng) as f64 / u64::MAX as f64;
                draw < p
            }
        };
        if fire {
            state.injected += 1;
            Some(action)
        } else {
            None
        }
    }

    /// Hits recorded for `point` (0 if never reached).
    pub fn hits(&self, point: &str) -> u64 {
        let points = self.points.lock().expect("fault plane poisoned");
        points.get(point).map_or(0, |s| s.hits)
    }

    /// Faults injected at `point` (0 if none).
    pub fn injected(&self, point: &str) -> u64 {
        let points = self.points.lock().expect("fault plane poisoned");
        points.get(point).map_or(0, |s| s.injected)
    }

    /// Every known point with its counters, in name order.
    pub fn snapshot(&self) -> Vec<PointSnapshot> {
        let points = self.points.lock().expect("fault plane poisoned");
        points
            .iter()
            .map(|(name, s)| PointSnapshot {
                name: name.clone(),
                hits: s.hits,
                injected: s.injected,
                armed: s.action.is_some(),
            })
            .collect()
    }

    /// Arm a point from a `point=action[@trigger]` spec string:
    /// actions `error | torn | crash-before | crash-after |
    /// delay:<ms>`; triggers `always | nth:<n> | every:<k> | p:<f>`
    /// (default `always`). This is what `--fault` feeds.
    pub fn arm_spec(&self, spec: &str) -> Result<(), String> {
        let (point, rest) = spec
            .split_once('=')
            .ok_or_else(|| format!("fault spec `{spec}` needs point=action[@trigger]"))?;
        let point = point.trim();
        if point.is_empty() {
            return Err(format!("fault spec `{spec}` has an empty point name"));
        }
        let (action, trigger) = match rest.split_once('@') {
            Some((a, t)) => (a.trim(), Some(t.trim())),
            None => (rest.trim(), None),
        };
        let action = match action.split_once(':') {
            Some(("delay", ms)) => {
                let ms: u64 = ms
                    .parse()
                    .map_err(|_| format!("fault spec `{spec}`: delay wants milliseconds"))?;
                FaultAction::Delay(Duration::from_millis(ms))
            }
            None => match action {
                "error" => FaultAction::Error,
                "torn" => FaultAction::Torn,
                "crash-before" => FaultAction::CrashBefore,
                "crash-after" => FaultAction::CrashAfter,
                other => return Err(format!("unknown fault action `{other}` in `{spec}`")),
            },
            Some((other, _)) => return Err(format!("unknown fault action `{other}` in `{spec}`")),
        };
        let trigger = match trigger {
            None | Some("always") => Trigger::Always,
            Some(t) => match t.split_once(':') {
                Some(("nth", n)) => Trigger::Nth(
                    n.parse()
                        .map_err(|_| format!("fault spec `{spec}`: nth wants a number"))?,
                ),
                Some(("every", k)) => {
                    let k: u64 = k
                        .parse()
                        .map_err(|_| format!("fault spec `{spec}`: every wants a number"))?;
                    if k == 0 {
                        return Err(format!("fault spec `{spec}`: every:0 would never fire"));
                    }
                    Trigger::EveryK(k)
                }
                Some(("p", p)) => {
                    let p: f64 = p
                        .parse()
                        .map_err(|_| format!("fault spec `{spec}`: p wants a probability"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("fault spec `{spec}`: p must be in [0, 1]"));
                    }
                    Trigger::Probability(p)
                }
                _ => return Err(format!("unknown fault trigger `{t}` in `{spec}`")),
            },
        };
        self.arm(point, action, trigger);
        Ok(())
    }

    /// Emit the per-point counter families. Writes nothing when no
    /// point has ever been reached, so an unconfigured deployment's
    /// `/metrics` is unchanged.
    pub fn write_prometheus(&self, w: &mut fgc_obs::PromWriter, base: &[(&str, &str)]) {
        let snapshot = self.snapshot();
        if snapshot.is_empty() {
            return;
        }
        w.help(
            "fgcite_fault_point_hits_total",
            "counter",
            "Times an armed/observed fault point was reached.",
        );
        for p in &snapshot {
            let mut labels: Vec<(&str, &str)> = base.to_vec();
            labels.push(("point", &p.name));
            w.int("fgcite_fault_point_hits_total", &labels, p.hits);
        }
        w.help(
            "fgcite_fault_point_injected_total",
            "counter",
            "Faults actually injected per point.",
        );
        for p in &snapshot {
            let mut labels: Vec<(&str, &str)> = base.to_vec();
            labels.push(("point", &p.name));
            w.int("fgcite_fault_point_injected_total", &labels, p.injected);
        }
    }
}

impl Default for FaultPlane {
    fn default() -> Self {
        FaultPlane::new()
    }
}

/// Drop guard from [`FaultPlane::arm_scoped`]: disarms its point.
#[derive(Debug)]
pub struct ScopedFault<'a> {
    plane: &'a FaultPlane,
    point: String,
}

impl Drop for ScopedFault<'_> {
    fn drop(&mut self) {
        self.plane.disarm(&self.point);
    }
}

static GLOBAL: OnceLock<Arc<FaultPlane>> = OnceLock::new();

fn global_handle() -> &'static Arc<FaultPlane> {
    GLOBAL.get_or_init(|| Arc::new(FaultPlane::new()))
}

/// The process-wide plane: CLI `--fault` specs arm it, server and
/// pool hot paths consult it.
pub fn global() -> &'static FaultPlane {
    global_handle().as_ref()
}

/// The global plane as a cloneable handle, for seams that store an
/// `Arc<FaultPlane>` — the production disk storage wires its VFS to
/// this so CLI-armed `storage.*` points reach real I/O.
pub fn global_arc() -> Arc<FaultPlane> {
    Arc::clone(global_handle())
}

/// Convenience: `global().check(point)` — the one-liner a production
/// fault site calls.
#[inline]
pub fn check(point: &str) -> Option<FaultAction> {
    global_handle().check(point)
}

/// Build the injected-fault `io::Error` a site should surface: typed
/// `Other`, message names the point so operators can trace it.
pub fn injected_error(point: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault at `{point}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_the_standard_vectors() {
        // shard placement and WAL checksums are on the wire and on disk
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
        // the `Hasher` is the same function fed in pieces
        use std::hash::Hasher;
        let mut h = Fnv64::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
    }

    #[test]
    fn idle_plane_is_inactive_and_checks_are_none() {
        let plane = FaultPlane::new();
        assert!(!plane.is_active());
        assert_eq!(plane.check("a.b"), None);
        assert_eq!(plane.hits("a.b"), 0, "idle checks must not count");
        assert!(plane.snapshot().is_empty());
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let plane = FaultPlane::new();
        plane.arm("p", FaultAction::Error, Trigger::Nth(3));
        let fired: Vec<bool> = (0..6).map(|_| plane.check("p").is_some()).collect();
        assert_eq!(fired, [false, false, true, false, false, false]);
        assert_eq!(plane.hits("p"), 6);
        assert_eq!(plane.injected("p"), 1);
    }

    #[test]
    fn every_k_trigger_fires_periodically() {
        let plane = FaultPlane::new();
        plane.arm("p", FaultAction::Error, Trigger::EveryK(2));
        let fired: Vec<bool> = (0..6).map(|_| plane.check("p").is_some()).collect();
        assert_eq!(fired, [false, true, false, true, false, true]);
    }

    #[test]
    fn always_fires_and_disarm_stops_it() {
        let plane = FaultPlane::new();
        plane.arm("p", FaultAction::CrashAfter, Trigger::Always);
        assert_eq!(plane.check("p"), Some(FaultAction::CrashAfter));
        plane.disarm("p");
        assert!(!plane.is_active());
        assert_eq!(plane.check("p"), None);
        // counters survive disarm
        assert_eq!(plane.hits("p"), 1);
    }

    #[test]
    fn probability_stream_is_seeded_and_deterministic() {
        let draw = |seed: u64| -> Vec<bool> {
            let plane = FaultPlane::new();
            plane.set_seed(seed);
            plane.arm("p", FaultAction::Error, Trigger::Probability(0.5));
            (0..64).map(|_| plane.check("p").is_some()).collect()
        };
        assert_eq!(draw(42), draw(42), "same seed, same schedule");
        assert_ne!(draw(42), draw(43), "different seed, different schedule");
        let fired = draw(42).iter().filter(|&&b| b).count();
        assert!((10..=54).contains(&fired), "p=0.5 over 64 draws: {fired}");
        // distinct points get distinct streams under one seed
        let plane = FaultPlane::new();
        plane.set_seed(7);
        plane.arm("a", FaultAction::Error, Trigger::Probability(0.5));
        plane.arm("b", FaultAction::Error, Trigger::Probability(0.5));
        let a: Vec<bool> = (0..64).map(|_| plane.check("a").is_some()).collect();
        let b: Vec<bool> = (0..64).map(|_| plane.check("b").is_some()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn observe_all_counts_unarmed_points() {
        let plane = FaultPlane::new();
        plane.set_observe_all(true);
        assert!(plane.is_active());
        assert_eq!(plane.check("x"), None);
        assert_eq!(plane.check("x"), None);
        assert_eq!(plane.check("y"), None);
        assert_eq!(plane.hits("x"), 2);
        assert_eq!(plane.hits("y"), 1);
        plane.set_observe_all(false);
        assert!(!plane.is_active());
    }

    #[test]
    fn active_plane_does_not_grow_state_for_unrelated_points() {
        let plane = FaultPlane::new();
        plane.arm("armed", FaultAction::Error, Trigger::Always);
        assert_eq!(plane.check("unrelated"), None);
        assert_eq!(plane.snapshot().len(), 1, "no entry for unrelated");
    }

    #[test]
    fn scoped_arm_disarms_on_drop() {
        let plane = FaultPlane::new();
        {
            let _guard = plane.arm_scoped("p", FaultAction::Error, Trigger::Always);
            assert!(plane.check("p").is_some());
        }
        assert!(!plane.is_active());
        assert_eq!(plane.check("p"), None);
    }

    #[test]
    fn spec_parsing_round_trips() {
        let plane = FaultPlane::new();
        plane.arm_spec("storage.write.wal=error@nth:2").unwrap();
        assert_eq!(plane.check("storage.write.wal"), None);
        assert_eq!(plane.check("storage.write.wal"), Some(FaultAction::Error));
        plane.arm_spec("d=delay:25").unwrap();
        assert_eq!(
            plane.check("d"),
            Some(FaultAction::Delay(Duration::from_millis(25)))
        );
        plane.arm_spec("t=torn@every:1").unwrap();
        assert_eq!(plane.check("t"), Some(FaultAction::Torn));
        plane.arm_spec("c=crash-before@always").unwrap();
        assert_eq!(plane.check("c"), Some(FaultAction::CrashBefore));
        plane.arm_spec("c2=crash-after@p:1.0").unwrap();
        assert_eq!(plane.check("c2"), Some(FaultAction::CrashAfter));

        for bad in [
            "noequals",
            "=error",
            "p=unknown",
            "p=delay:soon",
            "p=error@nth:x",
            "p=error@every:0",
            "p=error@p:1.5",
            "p=error@sometimes",
        ] {
            assert!(plane.arm_spec(bad).is_err(), "{bad} should be rejected");
        }
    }

    /// Every guarded site calls `check` unconditionally, which is only
    /// sound if an idle plane is close to free (~30 ns optimised). The
    /// bound leaves 20x headroom for a debug build on a shared box.
    #[test]
    fn idle_check_costs_well_under_two_microseconds() {
        use std::hint::black_box;
        let plane = FaultPlane::new();
        let calls = 1_000_000u32;
        let start = std::time::Instant::now();
        for _ in 0..calls {
            black_box(plane.check(black_box("idle.point")));
        }
        let mean = start.elapsed() / calls;
        assert!(mean < std::time::Duration::from_micros(2), "{mean:?}");
    }

    #[test]
    fn reset_clears_everything() {
        let plane = FaultPlane::new();
        plane.arm("p", FaultAction::Error, Trigger::Always);
        plane.check("p");
        plane.reset();
        assert!(!plane.is_active());
        assert!(plane.snapshot().is_empty());
    }

    #[test]
    fn prometheus_families_appear_only_with_traffic() {
        let plane = FaultPlane::new();
        let mut w = fgc_obs::PromWriter::new();
        plane.write_prometheus(&mut w, &[("role", "single")]);
        assert_eq!(w.finish(), "", "idle plane writes nothing");

        plane.arm("a.b", FaultAction::Error, Trigger::Nth(1));
        plane.check("a.b");
        plane.check("a.b");
        let mut w = fgc_obs::PromWriter::new();
        plane.write_prometheus(&mut w, &[("role", "single")]);
        let text = w.finish();
        assert!(
            text.contains("fgcite_fault_point_hits_total{role=\"single\",point=\"a.b\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("fgcite_fault_point_injected_total{role=\"single\",point=\"a.b\"} 1"),
            "{text}"
        );
    }
}
