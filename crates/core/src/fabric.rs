//! One engine interface over both fabrics.
//!
//! [`FabricEngine`] wraps the optical [`GrantEngine`] and the electrical
//! [`FluidEngine`] behind the `inject` / `peek` / `step` / `drain` surface
//! that this crate's two event loops drive: the open-loop stream service
//! ([`crate::stream`]) and the composed hierarchical loop
//! ([`crate::hierarchy`]). Per-engine knowledge lives in the engines
//! themselves (the fluid engine's peek covers freshly injected releases,
//! the grant engine types its own stuck-waiter error); what stays here is
//! the mapping between the two engine APIs. Driver concerns stay in the
//! drivers: admission and metrics in the stream service; node rebasing,
//! the engine-key → DAG-index map and the late-gate clamp in the composed
//! loop.

use electrical_sim::{EngineFlow, FluidEngine, FluidEngineSnapshot, Network};
use optical_sim::{
    GrantCompletion, GrantEngine, GrantEngineSnapshot, GrantTransfer, OpticalConfig, Strategy,
};
use serde::{Deserialize, Serialize, Value};

use crate::error::{cfg_err, Result};

/// One transfer completion drained from a [`FabricEngine`].
pub(crate) struct Completion {
    /// Engine key: the grant order key (optical) or the flow index
    /// (electrical). Both count the engine's injected transfers from zero.
    pub key: usize,
    /// Job slot the transfer was injected under.
    pub job: usize,
    /// Start instant, seconds.
    pub start_s: f64,
    /// Completion instant, seconds.
    pub finish_s: f64,
}

/// The electrical checkpoint image: the engine snapshot plus the job-slot
/// allocator (the fluid engine has no job table of its own).
#[derive(Serialize, Deserialize)]
struct ElectricalImage {
    engine: FluidEngineSnapshot,
    free_slots: Vec<usize>,
    next_slot: usize,
}

/// A running fabric engine (see module docs).
pub(crate) enum FabricEngine<'a> {
    /// The wavelength-grant engine of a WDM ring.
    Optical {
        eng: Box<GrantEngine>,
        done: Vec<GrantCompletion>,
    },
    /// The max-min fluid engine of an electrical network.
    Electrical {
        eng: Box<FluidEngine<'a>>,
        /// Launch overhead charged to every flow, seconds.
        overhead_s: f64,
        /// Job slots free for reuse, and the next fresh one.
        free_slots: Vec<usize>,
        next_slot: usize,
        done: Vec<usize>,
    },
}

impl<'a> FabricEngine<'a> {
    /// A grant engine over `config`, or restored from a checkpoint `image`.
    pub(crate) fn optical(
        config: &OpticalConfig,
        strategy: Strategy,
        arbitrated: bool,
        fair_share: bool,
        image: Option<&Value>,
    ) -> Result<Self> {
        let eng = match image {
            None => GrantEngine::new(config, strategy, arbitrated, fair_share)?,
            Some(image) => {
                let snap = GrantEngineSnapshot::from_value(image)
                    .map_err(|_| cfg_err("malformed stream checkpoint"))?;
                GrantEngine::restore(config, strategy, arbitrated, fair_share, &snap)?
            }
        };
        Ok(FabricEngine::Optical {
            eng: Box::new(eng),
            done: Vec::new(),
        })
    }

    /// A fluid engine over `network`, or restored from a checkpoint
    /// `image`.
    pub(crate) fn electrical(
        network: &'a Network,
        overhead_s: f64,
        image: Option<&Value>,
    ) -> Result<Self> {
        let (eng, free_slots, next_slot) = match image {
            None => (FluidEngine::new(network), Vec::new(), 0),
            Some(image) => {
                let image = ElectricalImage::from_value(image)
                    .map_err(|_| cfg_err("malformed stream checkpoint"))?;
                let eng = FluidEngine::restore(network, &image.engine)?;
                (eng, image.free_slots, image.next_slot)
            }
        };
        Ok(FabricEngine::Electrical {
            eng: Box::new(eng),
            overhead_s,
            free_slots,
            next_slot,
            done: Vec::new(),
        })
    }

    /// Serialized engine image for a checkpoint.
    pub(crate) fn snapshot(&self) -> Value {
        match self {
            FabricEngine::Optical { eng, .. } => eng.snapshot().to_value(),
            FabricEngine::Electrical {
                eng,
                free_slots,
                next_slot,
                ..
            } => ElectricalImage {
                engine: eng.snapshot(),
                free_slots: free_slots.clone(),
                next_slot: *next_slot,
            }
            .to_value(),
        }
    }

    /// Register a job with the given grant rank, returning its slot.
    pub(crate) fn add_job(&mut self, rank: u64) -> usize {
        match self {
            FabricEngine::Optical { eng, .. } => eng.add_job(rank),
            // Max-min rates are policy-free; ranks only matter optically.
            // The slot still identifies the job's completions.
            FabricEngine::Electrical {
                free_slots,
                next_slot,
                ..
            } => free_slots.pop().unwrap_or_else(|| {
                *next_slot += 1;
                *next_slot - 1
            }),
        }
    }

    /// Release a finished job's slot for reuse.
    pub(crate) fn retire_job(&mut self, slot: usize) {
        match self {
            FabricEngine::Optical { eng, .. } => eng.retire_job(slot),
            FabricEngine::Electrical { free_slots, .. } => free_slots.push(slot),
        }
    }

    /// Inject one batch: batch-local dependencies, absolute releases.
    pub(crate) fn inject(&mut self, batch: &[GrantTransfer]) -> Result<()> {
        match self {
            FabricEngine::Optical { eng, .. } => eng.inject(batch)?,
            FabricEngine::Electrical {
                eng, overhead_s, ..
            } => {
                let flows: Vec<EngineFlow> = batch
                    .iter()
                    .map(|t| EngineFlow {
                        src: t.transfer.src.0,
                        dst: t.transfer.dst.0,
                        bytes: t.transfer.bytes,
                        release_s: t.release_s,
                        delay_s: *overhead_s,
                        deps: t.deps.clone(),
                        job: t.job,
                    })
                    .collect();
                eng.inject(&flows)?;
            }
        }
        Ok(())
    }

    /// Instant of the next pending event, if any.
    pub(crate) fn peek(&mut self) -> Option<f64> {
        match self {
            FabricEngine::Optical { eng, .. } => eng.peek_time(),
            FabricEngine::Electrical { eng, .. } => eng.peek_time(),
        }
    }

    /// Coincidence tolerance of the engine's batches: the fluid engine
    /// promotes anything within [`electrical_sim::sim::EPS`] of the batch
    /// instant, the grant engine batches bit-identical instants only.
    pub(crate) fn coincidence_s(&self) -> f64 {
        match self {
            FabricEngine::Optical { .. } => 0.0,
            FabricEngine::Electrical { .. } => electrical_sim::sim::EPS,
        }
    }

    /// Process the next event instant; returns it, or `None` when idle.
    pub(crate) fn step(&mut self) -> Result<Option<f64>> {
        Ok(match self {
            FabricEngine::Optical { eng, .. } => eng.step()?,
            FabricEngine::Electrical { eng, .. } => eng.step()?,
        })
    }

    /// Append the completions recorded by previous steps.
    pub(crate) fn drain(&mut self, out: &mut Vec<Completion>) {
        match self {
            FabricEngine::Optical { eng, done } => {
                done.clear();
                eng.drain_completions(done);
                out.extend(done.iter().map(|c| Completion {
                    key: c.order as usize,
                    job: c.job,
                    start_s: c.start_s,
                    finish_s: c.finish_s,
                }));
            }
            FabricEngine::Electrical { eng, done, .. } => {
                done.clear();
                eng.drain_completed(done);
                out.extend(done.iter().map(|&i| {
                    let (start_s, finish_s) = eng.window(i);
                    Completion {
                        key: i,
                        job: eng.flow_job(i),
                        start_s,
                        finish_s,
                    }
                }));
            }
        }
    }

    /// Events processed so far.
    pub(crate) fn events(&self) -> u64 {
        match self {
            FabricEngine::Optical { eng, .. } => eng.events(),
            FabricEngine::Electrical { eng, .. } => eng.events(),
        }
    }

    /// Highest wavelength index ever in use, plus one (0 electrically).
    pub(crate) fn peak_wavelength(&self) -> usize {
        match self {
            FabricEngine::Optical { eng, .. } => eng.peak_wavelength(),
            FabricEngine::Electrical { .. } => 0,
        }
    }

    /// (rate recomputations, solver work) — zero optically.
    pub(crate) fn solver_stats(&self) -> (usize, usize) {
        match self {
            FabricEngine::Optical { .. } => (0, 0),
            FabricEngine::Electrical { eng, .. } => (eng.rate_recomputations(), eng.solver_work()),
        }
    }

    /// Surface the engine's own diagnostic for a run that stopped with
    /// unfinished transfers: stuck optical waiters, or the electrical
    /// "unreachable flows" error from a step on the drained engine.
    pub(crate) fn stall(&mut self) -> Result<()> {
        match self {
            FabricEngine::Optical { eng, .. } => eng.check_stuck()?,
            FabricEngine::Electrical { eng, .. } => {
                eng.step()?;
            }
        }
        Ok(())
    }
}
