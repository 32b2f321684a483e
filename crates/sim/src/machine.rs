//! The simulated machine: core + memory + native host.

use crate::native::{HostError, NativeHost};
use std::error::Error;
use std::fmt;
use tarch_core::{CoreConfig, Cpu, PerfCounters, StepEvent, Trap};
use tarch_isa::asm::Program;

/// Why a [`Machine::run`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The program executed `halt`.
    Halted,
    /// The step budget was exhausted first.
    StepLimit,
}

/// Fatal simulation error.
#[derive(Debug)]
pub enum SimError {
    /// The simulated program trapped.
    Trap(Trap),
    /// A native helper failed.
    Host(HostError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Trap(t) => write!(f, "simulated program trapped: {t}"),
            SimError::Host(h) => write!(f, "{h}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Trap(t) => Some(t),
            SimError::Host(h) => Some(h),
        }
    }
}

impl From<Trap> for SimError {
    fn from(t: Trap) -> SimError {
        SimError::Trap(t)
    }
}

impl From<HostError> for SimError {
    fn from(h: HostError) -> SimError {
        SimError::Host(h)
    }
}

/// A complete simulated machine: the Typed Architecture core plus a native
/// host servicing `ecall`s.
///
/// # Examples
///
/// ```
/// use tarch_sim::{Machine, NoHost, RunOutcome};
/// use tarch_core::CoreConfig;
/// use tarch_isa::text::assemble;
///
/// let program = assemble("li a0, 41\naddi a0, a0, 1\nhalt\n", 0x1000, 0x20000)?;
/// let mut m = Machine::new(CoreConfig::paper(), NoHost);
/// m.load(&program);
/// assert_eq!(m.run(1000)?, RunOutcome::Halted);
/// assert_eq!(m.cpu().regs().read(tarch_isa::Reg::A0).v, 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Machine<H> {
    cpu: Cpu,
    host: H,
}

impl<H: NativeHost> Machine<H> {
    /// Creates a machine with the given core configuration and host.
    pub fn new(config: CoreConfig, host: H) -> Machine<H> {
        Machine { cpu: Cpu::new(config), host }
    }

    /// Loads a program image and resets the pc to its entry point.
    pub fn load(&mut self, program: &Program) {
        self.cpu.load_program(program);
    }

    /// The core.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// The core, mutably.
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// The native host.
    pub fn host(&self) -> &H {
        &self.host
    }

    /// Runs up to `max_steps` instructions.
    ///
    /// Delegates the hot loop to [`Cpu::run`] in bulk (which dispatches to
    /// the basic-block engine when enabled), surfacing only `ecall`s to
    /// the host. Guest instructions consumed per bulk call are measured
    /// from the retired-instruction counter — nothing else advances it
    /// inside `Cpu::run`; helper charges happen here, during `ecall`
    /// service, and do not count against the step budget.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on traps and host failures.
    pub fn run(&mut self, max_steps: u64) -> Result<RunOutcome, SimError> {
        let mut remaining = max_steps;
        while remaining > 0 {
            let before = self.cpu.counters().instructions;
            let event = self.cpu.run(remaining)?;
            remaining = remaining.saturating_sub(self.cpu.counters().instructions - before);
            match event {
                StepEvent::Halted => return Ok(RunOutcome::Halted),
                StepEvent::Ecall => self.host.ecall(&mut self.cpu)?,
                StepEvent::Retired => {}
            }
        }
        if self.cpu.is_halted() {
            Ok(RunOutcome::Halted)
        } else {
            Ok(RunOutcome::StepLimit)
        }
    }

    /// Snapshot of the performance counters.
    pub fn counters(&self) -> PerfCounters {
        *self.cpu.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::{Cost, NoHost};
    use tarch_isa::text::assemble;
    use tarch_isa::Reg;

    struct DoubleA0;

    impl NativeHost for DoubleA0 {
        fn ecall(&mut self, cpu: &mut Cpu) -> Result<(), HostError> {
            let id = cpu.regs().read(Reg::A7).v;
            if id != 1 {
                return Err(HostError::new(id, "unknown helper"));
            }
            let v = cpu.regs().read(Reg::A0).v;
            cpu.regs_mut().write_untyped(Reg::A0, v * 2);
            Cost::fixed(50).charge(cpu);
            Ok(())
        }
    }

    #[test]
    fn ecall_dispatches_to_host() {
        let program =
            assemble("li a0, 21\nli a7, 1\necall\nhalt\n", 0x1000, 0x20000).unwrap();
        let mut m = Machine::new(CoreConfig::paper(), DoubleA0);
        m.load(&program);
        assert_eq!(m.run(100).unwrap(), RunOutcome::Halted);
        assert_eq!(m.cpu().regs().read(Reg::A0).v, 42);
        assert_eq!(m.counters().helper_instructions, 50);
        assert!(m.counters().helper_cycles >= 50);
    }

    #[test]
    fn unknown_helper_is_fatal() {
        let program = assemble("li a7, 9\necall\nhalt\n", 0x1000, 0x20000).unwrap();
        let mut m = Machine::new(CoreConfig::paper(), DoubleA0);
        m.load(&program);
        assert!(matches!(m.run(100), Err(SimError::Host(_))));
    }

    #[test]
    fn no_host_rejects_ecall() {
        let program = assemble("ecall\nhalt\n", 0x1000, 0x20000).unwrap();
        let mut m = Machine::new(CoreConfig::paper(), NoHost);
        m.load(&program);
        assert!(matches!(m.run(100), Err(SimError::Host(_))));
    }

    #[test]
    fn step_limit_reported() {
        let program = assemble("top: j top\n", 0x1000, 0x20000).unwrap();
        let mut m = Machine::new(CoreConfig::paper(), NoHost);
        m.load(&program);
        assert_eq!(m.run(100).unwrap(), RunOutcome::StepLimit);
    }

    #[test]
    fn trap_surfaces_as_sim_error() {
        let mut m = Machine::new(CoreConfig::paper(), NoHost);
        m.cpu_mut().mem_mut().write_u32(0x100, 0xffff_ffff);
        m.cpu_mut().set_pc(0x100);
        assert!(matches!(m.run(10), Err(SimError::Trap(_))));
    }
}
