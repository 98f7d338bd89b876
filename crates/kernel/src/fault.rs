//! Typed, timestamped fault events shared by both substrate simulators.
//!
//! Availability dynamics — wavelength/transceiver loss, link degradation
//! and flaps, stragglers, node failures — are modelled as **first-class
//! kernel events**: a [`FaultScript`] is a list of [`FaultEvent`]s that a
//! simulator schedules through its [`crate::EventKernel`] alongside normal
//! transfer events, so faults interleave with grants, completions and
//! wake-ups under the kernel's deterministic `(time, seq)` ordering and
//! bit-equality same-instant coalescing.
//!
//! The kinds are substrate-polymorphic: each simulator applies the events
//! it understands and ignores the rest (wavelength events are optical-only,
//! link events electrical-only; node events apply to both). A
//! [`FaultPolicy`] decides how interrupted work recovers.
//!
//! # Same-instant coalescing
//!
//! When a fault lands at an instant where a transfer also completes (bit-
//! identical `f64` times — see the kernel's coalescing contract), both
//! simulators apply the **completion first**: a transfer finishing at
//! exactly `t` is finished, not aborted, by a fault at `t`. Times one ulp
//! apart are distinct instants and are never coalesced.

use std::fmt;

/// One kind of availability event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A wavelength channel (transceiver/laser) fails: the lane stops
    /// admitting new lightpaths and every in-flight transfer holding it
    /// aborts. Optical-only; ignored by the electrical substrate.
    WavelengthDown {
        /// Failed wavelength index.
        lane: usize,
    },
    /// The wavelength is repaired. Must follow a [`FaultKind::WavelengthDown`]
    /// on the same lane ([`FaultError::UpWithoutDown`] otherwise).
    WavelengthUp {
        /// Repaired wavelength index.
        lane: usize,
    },
    /// A link's capacity is multiplied by `factor` (in `(0, 1]`) from the
    /// event instant onward, triggering an incremental max-min re-solve of
    /// the affected contention component. Electrical-only.
    LinkDegrade {
        /// Link index in the network's link table.
        link: usize,
        /// Capacity multiplier, `0 < factor <= 1`.
        factor: f64,
    },
    /// The link goes fully dark for `down_s` seconds, then returns to full
    /// capacity. Flows crossing it are suspended (fluid progress frozen),
    /// not aborted. Electrical-only.
    LinkFlap {
        /// Link index in the network's link table.
        link: usize,
        /// Outage duration, seconds (`> 0`).
        down_s: f64,
    },
    /// A node's endpoint processing slows by `slowdown` (`>= 1`): transfers
    /// touching the node run `slowdown` times longer (optical: grants at or
    /// after the instant; electrical: allocated rate divided, the freed
    /// share is *not* redistributed).
    NodeStraggle {
        /// Straggling node index.
        node: usize,
        /// Duration/rate multiplier, `>= 1`.
        slowdown: f64,
    },
    /// The node fails permanently: transfers with an endpoint on it can
    /// never complete. The [`FaultPolicy`] decides whether the owning job
    /// fails wholly or survivors re-plan around the loss.
    NodeDown {
        /// Failed node index.
        node: usize,
    },
}

/// A [`FaultKind`] pinned to a simulated instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Injection instant, seconds (finite, `>= 0`).
    pub at_s: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// How interrupted work recovers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPolicy {
    /// The job owning an aborted or failed transfer fails wholly: all of
    /// its unfinished transfers are marked failed and release the fabric.
    FailJob,
    /// An aborted transfer re-enters the grant loop after the given
    /// backoff, losing all progress. Transfers hit by a *permanent* fault
    /// (a node failure) still fail — retrying is futile — and their
    /// dependents are re-planned as under [`FaultPolicy::Replan`].
    RetryAfter(f64),
    /// An aborted transfer immediately re-enters the grant loop (optical:
    /// RWA re-grant over the surviving lanes at the fault instant, under
    /// the same cross-job arbitration). Transfers hit by a permanent fault
    /// fail, and their dependents are released so survivors re-plan.
    Replan,
}

impl FaultPolicy {
    /// Stable label used in reports, hashes and CSV rows.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            FaultPolicy::FailJob => "fail-job".to_string(),
            FaultPolicy::RetryAfter(b) => format!("retry-after:{b}"),
            FaultPolicy::Replan => "replan".to_string(),
        }
    }

    /// Validate the policy's own parameters.
    pub fn validate(self) -> Result<(), FaultError> {
        if let FaultPolicy::RetryAfter(b) = self {
            if !b.is_finite() || b < 0.0 {
                return Err(FaultError::BadBackoff { backoff: b });
            }
        }
        Ok(())
    }
}

impl fmt::Display for FaultPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Substrate dimensions a [`FaultScript`] is validated against. A `None`
/// dimension means the substrate has no such resource and events targeting
/// it are no-ops there — they pass validation unchecked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultLimits {
    /// Number of compute nodes.
    pub nodes: usize,
    /// Wavelengths per waveguide (`None` on substrates without WDM).
    pub wavelengths: Option<usize>,
    /// Links in the network (`None` on substrates without a link table).
    pub links: Option<usize>,
}

/// Typed validation errors for fault scripts and policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultError {
    /// An event's timestamp is NaN/infinite or negative.
    BadTimestamp {
        /// Index of the offending event in the script.
        index: usize,
        /// The offending timestamp.
        at_s: f64,
    },
    /// A wavelength event referenced a lane outside the waveguide.
    LaneOutOfRange {
        /// Index of the offending event in the script.
        index: usize,
        /// Offending lane.
        lane: usize,
        /// Wavelengths per waveguide.
        wavelengths: usize,
    },
    /// A link event referenced a link outside the network's link table.
    LinkOutOfRange {
        /// Index of the offending event in the script.
        index: usize,
        /// Offending link.
        link: usize,
        /// Number of links.
        links: usize,
    },
    /// A node event referenced a node outside the deployment.
    NodeOutOfRange {
        /// Index of the offending event in the script.
        index: usize,
        /// Offending node.
        node: usize,
        /// Number of nodes.
        nodes: usize,
    },
    /// A [`FaultKind::WavelengthUp`] without a preceding
    /// [`FaultKind::WavelengthDown`] on the same lane.
    UpWithoutDown {
        /// Index of the offending event in the script.
        index: usize,
        /// The lane the event tried to repair.
        lane: usize,
    },
    /// A degrade factor outside `(0, 1]` (or NaN).
    BadFactor {
        /// Index of the offending event in the script.
        index: usize,
        /// The offending factor.
        factor: f64,
    },
    /// A straggle slowdown below 1 (or NaN/infinite).
    BadSlowdown {
        /// Index of the offending event in the script.
        index: usize,
        /// The offending slowdown.
        slowdown: f64,
    },
    /// A flap outage duration that is not finite and positive, or whose
    /// restore instant (`at_s + down_s`) overflows.
    BadFlapDuration {
        /// Index of the offending event in the script.
        index: usize,
        /// The offending duration.
        down_s: f64,
    },
    /// A [`FaultPolicy::RetryAfter`] backoff that is NaN/infinite/negative.
    BadBackoff {
        /// The offending backoff, seconds.
        backoff: f64,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::BadTimestamp { index, at_s } => {
                write!(f, "fault event {index}: timestamp {at_s} must be finite and >= 0")
            }
            FaultError::LaneOutOfRange {
                index,
                lane,
                wavelengths,
            } => write!(
                f,
                "fault event {index}: lane {lane} out of range ({wavelengths} wavelengths)"
            ),
            FaultError::LinkOutOfRange { index, link, links } => {
                write!(f, "fault event {index}: link {link} out of range ({links} links)")
            }
            FaultError::NodeOutOfRange { index, node, nodes } => {
                write!(f, "fault event {index}: node {node} out of range ({nodes} nodes)")
            }
            FaultError::UpWithoutDown { index, lane } => write!(
                f,
                "fault event {index}: WavelengthUp on lane {lane} without a preceding WavelengthDown"
            ),
            FaultError::BadFactor { index, factor } => write!(
                f,
                "fault event {index}: degrade factor {factor} must be in (0, 1]"
            ),
            FaultError::BadSlowdown { index, slowdown } => write!(
                f,
                "fault event {index}: straggle slowdown {slowdown} must be finite and >= 1"
            ),
            FaultError::BadFlapDuration { index, down_s } => write!(
                f,
                "fault event {index}: flap duration {down_s} must be finite, > 0 and end at a finite instant"
            ),
            FaultError::BadBackoff { backoff } => {
                write!(f, "retry backoff {backoff} must be finite and >= 0")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// A validated-on-demand list of timestamped fault events.
///
/// Events need not be pre-sorted — simulators schedule each at its own
/// instant and the kernel orders them — but [`FaultScript::validate`]
/// checks the *time-ordered* view (e.g. every `WavelengthUp` must follow a
/// `WavelengthDown` on its lane).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultScript {
    events: Vec<FaultEvent>,
}

impl FaultScript {
    /// Empty script (a faulted run with it is bit-exact with a clean run).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event (builder style).
    #[must_use]
    pub fn with(mut self, at_s: f64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at_s, kind });
        self
    }

    /// Append an event.
    pub fn push(&mut self, at_s: f64, kind: FaultKind) {
        self.events.push(FaultEvent { at_s, kind });
    }

    /// The events, in insertion order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the script holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Validate the script against a substrate's dimensions: finite
    /// non-negative timestamps, in-range lanes/links/nodes (for the
    /// dimensions the substrate has), well-formed factors/slowdowns, and
    /// `Up`-follows-`Down` pairing per lane in time order.
    pub fn validate(&self, limits: &FaultLimits) -> Result<(), FaultError> {
        for (index, ev) in self.events.iter().enumerate() {
            if !ev.at_s.is_finite() || ev.at_s < 0.0 {
                return Err(FaultError::BadTimestamp {
                    index,
                    at_s: ev.at_s,
                });
            }
            match ev.kind {
                FaultKind::WavelengthDown { lane } | FaultKind::WavelengthUp { lane } => {
                    if let Some(w) = limits.wavelengths {
                        if lane >= w {
                            return Err(FaultError::LaneOutOfRange {
                                index,
                                lane,
                                wavelengths: w,
                            });
                        }
                    }
                }
                FaultKind::LinkDegrade { link, factor } => {
                    if !(factor > 0.0 && factor <= 1.0) {
                        return Err(FaultError::BadFactor { index, factor });
                    }
                    if let Some(l) = limits.links {
                        if link >= l {
                            return Err(FaultError::LinkOutOfRange {
                                index,
                                link,
                                links: l,
                            });
                        }
                    }
                }
                FaultKind::LinkFlap { link, down_s } => {
                    // The restore instant `at_s + down_s` must be finite too.
                    if !down_s.is_finite() || down_s <= 0.0 || !(ev.at_s + down_s).is_finite() {
                        return Err(FaultError::BadFlapDuration { index, down_s });
                    }
                    if let Some(l) = limits.links {
                        if link >= l {
                            return Err(FaultError::LinkOutOfRange {
                                index,
                                link,
                                links: l,
                            });
                        }
                    }
                }
                FaultKind::NodeStraggle { node, slowdown } => {
                    if !slowdown.is_finite() || slowdown < 1.0 {
                        return Err(FaultError::BadSlowdown { index, slowdown });
                    }
                    if node >= limits.nodes {
                        return Err(FaultError::NodeOutOfRange {
                            index,
                            node,
                            nodes: limits.nodes,
                        });
                    }
                }
                FaultKind::NodeDown { node } => {
                    if node >= limits.nodes {
                        return Err(FaultError::NodeOutOfRange {
                            index,
                            node,
                            nodes: limits.nodes,
                        });
                    }
                }
            }
        }
        // Up must follow Down per lane, in the time-ordered view (stable on
        // insertion order for equal timestamps). Down is idempotent.
        if let Some(w) = limits.wavelengths {
            let mut order: Vec<usize> = (0..self.events.len()).collect();
            order.sort_by(|&a, &b| {
                self.events[a]
                    .at_s
                    .total_cmp(&self.events[b].at_s)
                    .then(a.cmp(&b))
            });
            let mut down = vec![false; w];
            for &i in &order {
                match self.events[i].kind {
                    FaultKind::WavelengthDown { lane } => down[lane] = true,
                    FaultKind::WavelengthUp { lane } => {
                        if !down[lane] {
                            return Err(FaultError::UpWithoutDown { index: i, lane });
                        }
                        down[lane] = false;
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMITS: FaultLimits = FaultLimits {
        nodes: 8,
        wavelengths: Some(4),
        links: Some(16),
    };

    #[test]
    fn empty_script_validates() {
        assert!(FaultScript::new().validate(&LIMITS).is_ok());
        assert!(FaultScript::new().is_empty());
        assert_eq!(FaultScript::new().len(), 0);
    }

    #[test]
    fn nan_and_negative_timestamps_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let s = FaultScript::new().with(bad, FaultKind::NodeDown { node: 0 });
            assert!(matches!(
                s.validate(&LIMITS),
                Err(FaultError::BadTimestamp { index: 0, .. })
            ));
        }
    }

    #[test]
    fn out_of_range_resources_are_rejected_per_dimension() {
        let s = FaultScript::new().with(0.0, FaultKind::WavelengthDown { lane: 4 });
        assert!(matches!(
            s.validate(&LIMITS),
            Err(FaultError::LaneOutOfRange { lane: 4, .. })
        ));
        // Substrate without WDM: the same event passes unchecked (no-op).
        let no_wdm = FaultLimits {
            wavelengths: None,
            ..LIMITS
        };
        assert!(s.validate(&no_wdm).is_ok());

        let s = FaultScript::new().with(
            0.0,
            FaultKind::LinkDegrade {
                link: 16,
                factor: 0.5,
            },
        );
        assert!(matches!(
            s.validate(&LIMITS),
            Err(FaultError::LinkOutOfRange { link: 16, .. })
        ));
        let s = FaultScript::new().with(0.0, FaultKind::NodeDown { node: 8 });
        assert!(matches!(
            s.validate(&LIMITS),
            Err(FaultError::NodeOutOfRange { node: 8, .. })
        ));
    }

    #[test]
    fn up_requires_a_preceding_down_in_time_order() {
        let s = FaultScript::new().with(1.0, FaultKind::WavelengthUp { lane: 0 });
        assert!(matches!(
            s.validate(&LIMITS),
            Err(FaultError::UpWithoutDown { lane: 0, .. })
        ));
        // Insertion order is not time order: Down at 1.0 pushed after Up at
        // 2.0 still precedes it in time, so the pair is legal.
        let s = FaultScript::new()
            .with(2.0, FaultKind::WavelengthUp { lane: 0 })
            .with(1.0, FaultKind::WavelengthDown { lane: 0 });
        assert!(s.validate(&LIMITS).is_ok());
        // A second Up with no second Down is illegal again.
        let s = s.with(3.0, FaultKind::WavelengthUp { lane: 0 });
        assert!(matches!(
            s.validate(&LIMITS),
            Err(FaultError::UpWithoutDown { .. })
        ));
    }

    #[test]
    fn factors_slowdowns_and_flaps_are_range_checked() {
        for factor in [0.0, -0.5, 1.5, f64::NAN] {
            let s = FaultScript::new().with(0.0, FaultKind::LinkDegrade { link: 0, factor });
            assert!(matches!(
                s.validate(&LIMITS),
                Err(FaultError::BadFactor { .. })
            ));
        }
        for slowdown in [0.5, f64::NAN, f64::INFINITY] {
            let s = FaultScript::new().with(0.0, FaultKind::NodeStraggle { node: 0, slowdown });
            assert!(matches!(
                s.validate(&LIMITS),
                Err(FaultError::BadSlowdown { .. })
            ));
        }
        for down_s in [0.0, -1.0, f64::NAN] {
            let s = FaultScript::new().with(0.0, FaultKind::LinkFlap { link: 0, down_s });
            assert!(matches!(
                s.validate(&LIMITS),
                Err(FaultError::BadFlapDuration { .. })
            ));
        }
        // Degrade factor exactly 1.0 is legal (and must be a no-op).
        let s = FaultScript::new().with(
            0.0,
            FaultKind::LinkDegrade {
                link: 0,
                factor: 1.0,
            },
        );
        assert!(s.validate(&LIMITS).is_ok());
    }

    #[test]
    fn policy_backoff_is_validated_and_labelled() {
        assert!(FaultPolicy::FailJob.validate().is_ok());
        assert!(FaultPolicy::Replan.validate().is_ok());
        assert!(FaultPolicy::RetryAfter(1e-3).validate().is_ok());
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(matches!(
                FaultPolicy::RetryAfter(bad).validate(),
                Err(FaultError::BadBackoff { .. })
            ));
        }
        assert_eq!(FaultPolicy::FailJob.label(), "fail-job");
        assert_eq!(FaultPolicy::Replan.to_string(), "replan");
        assert!(FaultPolicy::RetryAfter(0.5)
            .label()
            .starts_with("retry-after:"));
    }
}
