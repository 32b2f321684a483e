//! Native host services (`ecall`) and their cost model.
//!
//! The scripting engines keep their hot interpreter paths — dispatch, type
//! guards, arithmetic, table indexing — in simulated TRV64 assembly, but
//! runtime services that the paper also leaves in software (string
//! interning and hashing, hash-table probes, allocation growth, `printf`
//! and I/O) execute *functionally* in Rust against simulated memory and
//! charge a calibrated instruction/cycle cost.
//!
//! Costs are **identical across ISA levels**, which reproduces the paper's
//! Amdahl's-law dilution for CALL-heavy benchmarks (Section 7.1: mandelbrot,
//! pidigits, k-nucleotide are limited by native library time).
//!
//! The cost model is affine: `instructions = base + per_unit × units`,
//! `cycles = ⌈instructions × 1.3⌉` (a typical interpreter-era CPI for this
//! class of core).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use tarch_core::{Cpu, Trap};

/// Cycles charged per charged instruction, in tenths (13 = CPI 1.3).
pub const HELPER_CPI_TENTHS: u64 = 13;

/// An instruction/cycle cost charged to the simulated core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    /// Instructions to charge.
    pub instructions: u64,
    /// Cycles to charge.
    pub cycles: u64,
}

impl Cost {
    /// An affine cost: `base + per_unit × units` instructions at the
    /// standard helper CPI.
    ///
    /// # Examples
    ///
    /// ```
    /// use tarch_sim::Cost;
    /// let c = Cost::affine(40, 6, 10); // e.g. hash 10 bytes
    /// assert_eq!(c.instructions, 100);
    /// assert_eq!(c.cycles, 130);
    /// ```
    pub fn affine(base: u64, per_unit: u64, units: u64) -> Cost {
        let instructions = base + per_unit * units;
        Cost { instructions, cycles: instructions * HELPER_CPI_TENTHS / 10 }
    }

    /// A fixed cost of `instructions` at the standard helper CPI.
    pub fn fixed(instructions: u64) -> Cost {
        Cost::affine(instructions, 0, 0)
    }

    /// Component-wise sum.
    pub fn plus(self, other: Cost) -> Cost {
        Cost {
            instructions: self.instructions + other.instructions,
            cycles: self.cycles + other.cycles,
        }
    }

    /// Charges this cost to a core.
    pub fn charge(self, cpu: &mut Cpu) {
        cpu.charge(self.instructions, self.cycles);
    }
}

/// Error raised by a native host while servicing an `ecall`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostError {
    /// The helper id that failed (value of `a7`).
    pub helper: u64,
    /// Description of the failure.
    pub message: String,
}

impl HostError {
    /// Creates a host error.
    pub fn new(helper: u64, message: impl Into<String>) -> HostError {
        HostError { helper, message: message.into() }
    }
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "native helper {} failed: {}", self.helper, self.message)
    }
}

impl Error for HostError {}

impl From<Trap> for HostError {
    fn from(t: Trap) -> HostError {
        HostError::new(u64::MAX, t.to_string())
    }
}

/// Services `ecall` instructions for a running machine.
///
/// By convention the helper id is passed in `a7` and arguments in
/// `a0`–`a6`; results are written back to argument registers or simulated
/// memory, and the helper charges its [`Cost`] via [`Cpu::charge`].
pub trait NativeHost {
    /// Services one `ecall`. The pc has already advanced past the `ecall`.
    ///
    /// # Errors
    ///
    /// Returns [`HostError`] for unknown helper ids or invalid arguments —
    /// this aborts the simulation, like a fatal runtime error would.
    fn ecall(&mut self, cpu: &mut Cpu) -> Result<(), HostError>;
}

/// Start of the guest heap every engine's host bump-allocates from.
pub const HEAP_BASE: u64 = 0x0200_0000;
/// Heap exhaustion limit.
pub const HEAP_LIMIT: u64 = 0x0800_0000;

/// An interning string table: ids are dense indices in first-seen order,
/// and equal strings share one id.
#[derive(Debug, Clone, Default)]
pub struct StringTable {
    strings: Vec<String>,
    ids: HashMap<String, u32>,
}

impl StringTable {
    /// The id of `s`, adding it if it is new.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(id) = self.ids.get(s) {
            return *id;
        }
        let id = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.ids.insert(s.to_string(), id);
        id
    }

    /// The string with id `id`.
    pub fn get(&self, id: u32) -> Option<&str> {
        self.strings.get(id as usize).map(String::as_str)
    }

    /// The strings in id order.
    pub fn into_strings(self) -> Vec<String> {
        self.strings
    }
}

impl From<Vec<String>> for StringTable {
    fn from(strings: Vec<String>) -> StringTable {
        let ids = strings.iter().enumerate().map(|(i, s)| (s.clone(), i as u32)).collect();
        StringTable { strings, ids }
    }
}

/// The state every engine's host keeps alike: the interned strings, the
/// program's printed output, and a bump allocator over the guest heap
/// ([`HEAP_BASE`]..[`HEAP_LIMIT`]; GC is off, as in the paper's runs).
#[derive(Debug, Clone)]
pub struct HostState {
    strings: StringTable,
    output: String,
    heap_ptr: u64,
}

impl HostState {
    /// State pre-loaded with an image's interned strings.
    pub fn new(strings: Vec<String>) -> HostState {
        HostState { strings: strings.into(), output: String::new(), heap_ptr: HEAP_BASE }
    }

    /// Everything the program printed.
    pub fn output(&self) -> &str {
        &self.output
    }

    /// Appends to the program's output.
    pub fn print(&mut self, text: &str) {
        self.output.push_str(text);
    }

    /// The id of `s`, interning it if it is new.
    pub fn intern(&mut self, s: &str) -> u32 {
        self.strings.intern(s)
    }

    /// The string with id `id`.
    ///
    /// # Errors
    ///
    /// Returns [`HostError`] for an id no string has.
    pub fn string(&self, id: u32) -> Result<&str, HostError> {
        self.strings.get(id).ok_or_else(|| HostError::new(0, format!("bad string id {id}")))
    }

    /// Allocates `bytes` of 16-byte-aligned guest heap.
    ///
    /// # Errors
    ///
    /// Returns [`HostError`] when the heap is exhausted.
    pub fn alloc(&mut self, bytes: u64) -> Result<u64, HostError> {
        let addr = (self.heap_ptr + 15) & !15;
        let end = addr + bytes;
        if end > HEAP_LIMIT {
            return Err(HostError::new(0, "heap exhausted (GC is disabled)"));
        }
        self.heap_ptr = end;
        Ok(addr)
    }
}

/// A host that rejects every `ecall`; suitable for pure-assembly programs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoHost;

impl NativeHost for NoHost {
    fn ecall(&mut self, cpu: &mut Cpu) -> Result<(), HostError> {
        let id = cpu.regs().read(tarch_isa::Reg::A7).v;
        Err(HostError::new(id, "program made an ecall but no host is attached"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_cost_math() {
        let c = Cost::affine(100, 25, 4);
        assert_eq!(c.instructions, 200);
        assert_eq!(c.cycles, 260);
        assert_eq!(Cost::fixed(10).plus(c).instructions, 210);
    }

    #[test]
    fn zero_cost_is_free() {
        let c = Cost::affine(0, 5, 0);
        assert_eq!(c, Cost::default());
    }
}
