//! Frozen VM templates: build once, freeze, stamp out clones.
//!
//! The fork-server idiom. Constructing a guest VM — parsing MiniScript,
//! compiling to bytecode, generating the typed interpreter image,
//! loading it into simulated memory — costs a large fraction of a
//! small-scale simulation. A [`Template`] pays that cost once, freezes
//! the simulated memory into a shared copy-on-write base image
//! (`tarch_core::Cpu::freeze_memory`), and then [`Template::spawn`]s
//! tenants as plain `clone()`s: every clone shares the frozen pages,
//! copying only what it writes. [`measure_costs`] quantifies the gap on
//! the live host.
//!
//! [`Template::build`] never runs the guest, so every tenant starts with
//! an empty block table and builds its own blocks. Only a fork taken
//! mid-run (a `clone()` of a guest that has run) inherits compiled
//! blocks: the block table holds them by reference count, so the fork
//! shares its parent's code instead of rebuilding it. Each copy keeps
//! its own table, so a tenant that writes its own (copy-on-write) text
//! drops only its own blocks.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;
use tarch_core::{CoreConfig, Cpu, IsaLevel};
use tarch_runner::{EngineKind, ExecError};
use tarch_sim::{Engine, EngineError, GuestVm, RunOutcome, RunReport};

/// One guest VM with its engine erased: what schedulers, the harness and
/// tools use when the engine is picked at run time. Each call dispatches
/// once; the simulate loop inside stays monomorphic per engine.
#[derive(Debug)]
pub struct Guest(Box<dyn Erased>);

/// The object-safe face of [`GuestVm`].
trait Erased: fmt::Debug + Send {
    fn boxed_clone(&self) -> Box<dyn Erased>;
    fn run(&mut self, max_steps: u64, profiled: bool)
        -> Result<RunReport<&'static str>, ExecError>;
    fn run_slice(&mut self, max_steps: u64) -> Result<RunOutcome, String>;
    fn output(&self) -> &str;
    fn symbols(&self) -> &BTreeMap<String, u64>;
    fn cpu(&self) -> &Cpu;
    fn cpu_mut(&mut self) -> &mut Cpu;
}

impl<E: Engine> Erased for GuestVm<E> {
    fn boxed_clone(&self) -> Box<dyn Erased> {
        Box::new(self.clone())
    }

    fn run(
        &mut self,
        max_steps: u64,
        profiled: bool,
    ) -> Result<RunReport<&'static str>, ExecError> {
        let report =
            if profiled { self.run_profiled(max_steps) } else { GuestVm::run(self, max_steps) };
        report.map(RunReport::named).map_err(|e| match e {
            EngineError::StepLimit { max_steps } => ExecError::StepBudget { steps: max_steps },
            e => ExecError::Failed(e.to_string()),
        })
    }

    fn run_slice(&mut self, max_steps: u64) -> Result<RunOutcome, String> {
        GuestVm::run_slice(self, max_steps).map_err(|e| e.to_string())
    }

    fn output(&self) -> &str {
        GuestVm::output(self)
    }

    fn symbols(&self) -> &BTreeMap<String, u64> {
        &self.image().program.symbols
    }

    fn cpu(&self) -> &Cpu {
        GuestVm::cpu(self)
    }

    fn cpu_mut(&mut self) -> &mut Cpu {
        GuestVm::cpu_mut(self)
    }
}

impl Clone for Guest {
    fn clone(&self) -> Guest {
        Guest(self.0.boxed_clone())
    }
}

impl Guest {
    /// Runs to completion (up to `max_steps` simulated instructions).
    ///
    /// # Errors
    ///
    /// [`ExecError::StepBudget`] when the budget runs out, otherwise
    /// [`ExecError::Failed`] with the engine's message.
    pub fn run(&mut self, max_steps: u64) -> Result<RunReport<&'static str>, ExecError> {
        self.0.run(max_steps, false)
    }

    /// [`Guest::run`] with per-opcode attribution, keyed by opcode name.
    ///
    /// # Errors
    ///
    /// Same as [`Guest::run`].
    pub fn run_profiled(&mut self, max_steps: u64) -> Result<RunReport<&'static str>, ExecError> {
        self.0.run(max_steps, true)
    }

    /// Runs one scheduling slice of up to `max_steps` simulated
    /// instructions; exhausting the slice leaves the guest resumable.
    ///
    /// # Errors
    ///
    /// Returns the engine's error rendering on traps or runtime errors.
    pub fn run_slice(&mut self, max_steps: u64) -> Result<RunOutcome, String> {
        self.0.run_slice(max_steps)
    }

    /// Whether the guest program has halted.
    pub fn is_halted(&self) -> bool {
        self.cpu().is_halted()
    }

    /// Everything the guest has printed so far.
    pub fn output(&self) -> String {
        self.0.output().to_string()
    }

    /// The image program's symbols (handler and label addresses).
    pub fn symbols(&self) -> &BTreeMap<String, u64> {
        self.0.symbols()
    }

    /// The simulated core.
    pub fn cpu(&self) -> &Cpu {
        self.0.cpu()
    }

    /// The simulated core, mutably.
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        self.0.cpu_mut()
    }
}

/// The engine registry: builds a ready-to-run guest of any engine, without
/// freezing (the full-construction path a [`Template`] amortizes away).
/// This is the one place that names every engine.
///
/// # Errors
///
/// Returns the engine's parse/compile/codegen error rendering.
pub fn build_guest(
    engine: EngineKind,
    source: &str,
    level: IsaLevel,
    core: CoreConfig,
) -> Result<Guest, String> {
    match engine {
        EngineKind::Lua => erase::<luart::Lua>(source, level, core),
        EngineKind::Js => erase::<jsrt::Js>(source, level, core),
        EngineKind::Wasm => erase::<wasmrt::Wasm>(source, level, core),
    }
}

/// Whether `engine` builds the same image at every ISA level
/// ([`Engine::LEVEL_INVARIANT`]), so that one level's run stands for the
/// others.
pub fn level_invariant(engine: EngineKind) -> bool {
    match engine {
        EngineKind::Lua => luart::Lua::LEVEL_INVARIANT,
        EngineKind::Js => jsrt::Js::LEVEL_INVARIANT,
        EngineKind::Wasm => wasmrt::Wasm::LEVEL_INVARIANT,
    }
}

fn erase<E: Engine>(source: &str, level: IsaLevel, core: CoreConfig) -> Result<Guest, String> {
    let vm = GuestVm::<E>::from_source(source, level, core).map_err(|e| e.to_string())?;
    Ok(Guest(Box::new(vm)))
}

/// A fully constructed, frozen guest image that tenants are cloned from.
#[derive(Debug, Clone)]
pub struct Template {
    guest: Guest,
}

impl Template {
    /// Builds the guest and freezes its memory into the shared base.
    ///
    /// # Errors
    ///
    /// Same as [`build_guest`].
    pub fn build(
        engine: EngineKind,
        source: &str,
        level: IsaLevel,
        core: CoreConfig,
    ) -> Result<Template, String> {
        let mut guest = build_guest(engine, source, level, core)?;
        guest.cpu_mut().freeze_memory();
        Ok(Template { guest })
    }

    /// Stamps out one tenant: a clone sharing the frozen pages
    /// copy-on-write, with its tracer (if any) relabelled so exported
    /// events stay attributable to this tenant.
    pub fn spawn(&self, tenant: u32) -> Guest {
        let mut guest = self.guest.clone();
        if let Some(t) = guest.cpu_mut().tracer_mut() {
            t.set_tenant(tenant);
        }
        guest
    }

    /// The frozen prototype (read access, e.g. for equivalence tests).
    pub fn guest(&self) -> &Guest {
        &self.guest
    }
}

/// Measured per-VM cost of full construction vs. cloning, in host
/// wall-nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct CloneCosts {
    /// Average nanoseconds to construct one guest from source.
    pub construct_nanos: u64,
    /// Average nanoseconds to clone one tenant from a frozen template.
    pub clone_nanos: u64,
}

impl CloneCosts {
    /// How many times cheaper a clone was; infinite when clones measured
    /// below the timer's resolution.
    pub fn speedup(&self) -> f64 {
        if self.clone_nanos == 0 {
            f64::INFINITY
        } else {
            self.construct_nanos as f64 / self.clone_nanos as f64
        }
    }
}

/// Times `iters` full constructions against `iters` clones of one
/// frozen template (the clones are built but never run).
///
/// # Errors
///
/// Propagates construction failures.
pub fn measure_costs(
    engine: EngineKind,
    source: &str,
    level: IsaLevel,
    core: CoreConfig,
    iters: u32,
) -> Result<CloneCosts, String> {
    let iters = iters.max(1);
    let t0 = Instant::now();
    for _ in 0..iters {
        // Keep the whole pipeline observable so the optimizer cannot
        // elide construction work.
        let guest = build_guest(engine, source, level, core.clone())?;
        std::hint::black_box(&guest);
    }
    let construct_nanos = (t0.elapsed().as_nanos() / u128::from(iters)) as u64;

    let template = Template::build(engine, source, level, core)?;
    let t1 = Instant::now();
    for tenant in 0..iters {
        let guest = template.spawn(tenant);
        std::hint::black_box(&guest);
    }
    let clone_nanos = (t1.elapsed().as_nanos() / u128::from(iters)) as u64;
    Ok(CloneCosts { construct_nanos, clone_nanos })
}
