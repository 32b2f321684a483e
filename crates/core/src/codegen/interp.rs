//! The interpreter backend: the PR 3/4 fused-block walker.
//!
//! [`walk`] executes one block's decoded run op by op, exactly as
//! `Cpu::run_blocks` did before the backend split — the `match` arms,
//! charge ordering, trap checkpoints, and inter-instruction checks are a
//! verbatim port (see the stepwise-equivalence notes on
//! `Cpu::run_blocks` and the legality rules in `blocks.rs`). Every block
//! starts life on this backend, budget-clipped tails always run on it,
//! and a deopted compiled block falls back to it.

use super::{BlockExit, SpanBatch};
use crate::blocks::BlockOp;
use crate::cpu::{Cpu, StepEvent};
use tarch_isa::Instruction;

/// The interpreter backend marker. It emits nothing (`walk` is its
/// executor): a core with tiering off runs every block through the
/// walker forever, which is exactly the pre-tier engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct Interp;

impl super::CodeGenerator for Interp {
    fn name(&self) -> &'static str {
        "interp"
    }

    /// Declines every block: the interpreter has nothing to compile.
    fn emit(
        &self,
        _entry_pc: u64,
        _line_shift: u32,
        _ops: &[BlockOp],
    ) -> Option<std::sync::Arc<super::CompiledBlock>> {
        None
    }
}

/// Executes one block run (`ops`, retiring `width` instructions when it
/// runs in full) against `cpu`, retiring at most `budget` instructions,
/// watching `entry_gen` for invalidation. Starts at `cpu.pc` (the
/// block's entry) and leaves `cpu.pc` at the next instruction to
/// execute, exactly like the stepwise path.
///
/// Force-inlined into its single caller (`Cpu::run_blocks`): the span
/// batch and per-op locals then stay promotable to registers across the
/// whole walk, matching the codegen this loop had when it was written
/// inline in `run_blocks`.
#[inline(always)]
pub(crate) fn walk(
    cpu: &mut Cpu,
    span: &mut SpanBatch,
    ops: &[BlockOp],
    width: u32,
    budget: u64,
    entry_gen: u64,
) -> BlockExit {
    // Budget clipping is rare (only at the tail of a step budget);
    // hoisting the test keeps the per-op checks off the hot path as a
    // loop-invariant, always-false branch.
    let clipped = budget < u64::from(width);
    let mut executed = 0u64;
    let mut ipc = cpu.pc;
    let mut stop = None;
    // Set when a superblock guard leaves the straightened path: the
    // exit is a direct, statically-targeted transfer, reported as
    // `BlockExit::SideExit` so the run loop's edge recorder notes it.
    let mut guard_exit = false;
    let mut prev_mnemonic: Option<&'static str> = None;
    // Trap exit: the faulting instruction's own (possibly deferred)
    // fetch charge is included in the batch; cycles rewind to where the
    // stepwise path last synced them.
    macro_rules! trap_exit {
        ($checkpoint:expr, $trap:expr) => {{
            span.flush(cpu);
            cpu.counters.cycles = $checkpoint;
            let trap = $trap;
            cpu.trace_trap(&trap);
            return BlockExit::Trap(trap);
        }};
    }
    // One instruction through the generic stepwise core: the unfused
    // path, and the budget-clipped first component of a fused pair (the
    // block then resumes at the second's pc).
    macro_rules! step_one {
        ($instr:expr, $ops:lifetime) => {{
            let instr = $instr;
            if let Some(profile) = cpu.pair_profile.as_deref_mut() {
                // Adjacent same-block retired pair: the fusable
                // population (see `pairprof`).
                let m = instr.mnemonic();
                if let Some(p) = prev_mnemonic {
                    profile.note(p, m);
                }
                prev_mnemonic = Some(m);
            }
            // Stepwise `counters.cycles` at this point is `now` as of
            // the previous instruction's execute; remember it so a trap
            // can leave the counter exactly there.
            let checkpoint = cpu.now;
            span.charge(cpu, ipc);
            cpu.counters.instructions += 1;
            let event = match cpu.execute(ipc, instr) {
                Ok(event) => event,
                Err(trap) => trap_exit!(checkpoint, trap),
            };
            executed += 1;
            if event != StepEvent::Retired {
                stop = Some(event);
                break $ops;
            }
            let fall_through = ipc.wrapping_add(4);
            if cpu.pc != fall_through || cpu.blocks.generation() != entry_gen {
                break $ops;
            }
            ipc = fall_through;
        }};
    }
    'ops: for &op in ops {
        if clipped && executed >= budget {
            break;
        }
        match op {
            BlockOp::One(instr) => {
                step_one!(instr, 'ops);
            }
            BlockOp::OneSafe(instr) => {
                // Cannot trap, redirect, store, or stop (see
                // `safe_one`): the checkpoint and every
                // post-instruction check are statically dead.
                span.charge(cpu, ipc);
                cpu.counters.instructions += 1;
                let result = cpu.execute(ipc, instr);
                debug_assert!(
                    matches!(result, Ok(StepEvent::Retired)),
                    "safe_one misclassification"
                );
                let _ = result;
                executed += 1;
                ipc = ipc.wrapping_add(4);
            }
            BlockOp::OneLoad(instr) => {
                // May trap; never redirects, stores, or stops.
                let checkpoint = cpu.now;
                span.charge(cpu, ipc);
                cpu.counters.instructions += 1;
                let Instruction::Load { width, signed, rd, rs1, imm } = instr else {
                    unreachable!()
                };
                if let Err(trap) = cpu.exec_load(ipc, width, signed, rd, rs1, imm) {
                    trap_exit!(checkpoint, trap); // pc already at the load
                }
                executed += 1;
                let next = ipc.wrapping_add(4);
                cpu.pc = next;
                ipc = next;
            }
            BlockOp::OneStore(instr) => {
                // May trap and may invalidate blocks: keeps the
                // post-store generation check, drops the rest.
                let checkpoint = cpu.now;
                span.charge(cpu, ipc);
                cpu.counters.instructions += 1;
                let Instruction::Store { width, rs2, rs1, imm } = instr else {
                    unreachable!()
                };
                if let Err(trap) = cpu.exec_store(ipc, width, rs2, rs1, imm) {
                    trap_exit!(checkpoint, trap); // pc already at the store
                }
                executed += 1;
                let next = ipc.wrapping_add(4);
                cpu.pc = next;
                if cpu.blocks.generation() != entry_gen {
                    break 'ops;
                }
                ipc = next;
            }
            BlockOp::OneBranch(instr) => {
                // Never traps; always the final op of its block, so
                // nothing after it needs checking.
                span.charge(cpu, ipc);
                cpu.counters.instructions += 1;
                let Instruction::Branch { cond, rs1, rs2, offset } = instr else {
                    unreachable!()
                };
                cpu.pc = cpu.exec_branch(ipc, cond, rs1, rs2, offset);
                executed += 1;
                break 'ops;
            }
            BlockOp::OneJal(instr) => {
                span.charge(cpu, ipc);
                cpu.counters.instructions += 1;
                let Instruction::Jal { rd, offset } = instr else { unreachable!() };
                cpu.pc = cpu.exec_jal(ipc, rd, offset);
                executed += 1;
                break 'ops;
            }
            BlockOp::OneJalr(instr) => {
                span.charge(cpu, ipc);
                cpu.counters.instructions += 1;
                let Instruction::Jalr { rd, rs1, imm } = instr else { unreachable!() };
                cpu.pc = cpu.exec_jalr(ipc, rd, rs1, imm);
                executed += 1;
                break 'ops;
            }
            BlockOp::GuardBranch(instr, expected) => {
                // Superblock side-exit guard: executes exactly like
                // `OneBranch` (same charge, same `exec_branch`), then
                // continues into the next segment's ops when the branch
                // went where the profile predicted, and side-exits the
                // block otherwise. Never traps; never stores, so no
                // generation check is needed before continuing.
                span.charge(cpu, ipc);
                cpu.counters.instructions += 1;
                let Instruction::Branch { cond, rs1, rs2, offset } = instr else {
                    unreachable!()
                };
                cpu.pc = cpu.exec_branch(ipc, cond, rs1, rs2, offset);
                executed += 1;
                if cpu.pc != expected {
                    guard_exit = true;
                    break 'ops;
                }
                ipc = expected;
            }
            BlockOp::GuardJal(instr) => {
                // Superblock segment link over a static jump: the
                // successor is unconditional, so execution always
                // continues into the next segment.
                span.charge(cpu, ipc);
                cpu.counters.instructions += 1;
                let Instruction::Jal { rd, offset } = instr else { unreachable!() };
                cpu.pc = cpu.exec_jal(ipc, rd, offset);
                executed += 1;
                ipc = cpu.pc;
            }
            BlockOp::AluPair(a, b) => {
                if clipped && executed + 2 > budget {
                    step_one!(a, 'ops);
                    continue;
                }
                span.charge(cpu, ipc);
                cpu.counters.instructions += 1;
                cpu.exec_alu_class(a);
                let bpc = ipc.wrapping_add(4);
                span.charge(cpu, bpc);
                cpu.counters.instructions += 1;
                cpu.exec_alu_class(b);
                executed += 2;
                // Neither component traps, redirects, stores, or
                // stops: no inter- or post-pair checks needed.
                let next = bpc.wrapping_add(4);
                cpu.pc = next;
                ipc = next;
            }
            BlockOp::AluLoad(a, b) => {
                if clipped && executed + 2 > budget {
                    step_one!(a, 'ops);
                    continue;
                }
                span.charge(cpu, ipc);
                cpu.counters.instructions += 1;
                cpu.exec_alu_class(a);
                let bpc = ipc.wrapping_add(4);
                let checkpoint = cpu.now;
                span.charge(cpu, bpc);
                cpu.counters.instructions += 1;
                let Instruction::Load { width, signed, rd, rs1, imm } = b else {
                    unreachable!()
                };
                if let Err(trap) = cpu.exec_load(bpc, width, signed, rd, rs1, imm) {
                    cpu.pc = bpc; // stepwise left pc at the faulting load
                    trap_exit!(checkpoint, trap);
                }
                executed += 2;
                let next = bpc.wrapping_add(4);
                cpu.pc = next;
                ipc = next;
            }
            BlockOp::LoadAlu(a, b) => {
                if clipped && executed + 2 > budget {
                    step_one!(a, 'ops);
                    continue;
                }
                let checkpoint = cpu.now;
                span.charge(cpu, ipc);
                cpu.counters.instructions += 1;
                let Instruction::Load { width, signed, rd, rs1, imm } = a else {
                    unreachable!()
                };
                if let Err(trap) = cpu.exec_load(ipc, width, signed, rd, rs1, imm) {
                    trap_exit!(checkpoint, trap); // pc already at the load
                }
                let bpc = ipc.wrapping_add(4);
                span.charge(cpu, bpc);
                cpu.counters.instructions += 1;
                cpu.exec_alu_class(b);
                executed += 2;
                let next = bpc.wrapping_add(4);
                cpu.pc = next;
                ipc = next;
            }
            BlockOp::AluBranch(a, b) => {
                if clipped && executed + 2 > budget {
                    step_one!(a, 'ops);
                    continue;
                }
                span.charge(cpu, ipc);
                cpu.counters.instructions += 1;
                cpu.exec_alu_class(a);
                let bpc = ipc.wrapping_add(4);
                span.charge(cpu, bpc);
                cpu.counters.instructions += 1;
                let Instruction::Branch { cond, rs1, rs2, offset } = b else {
                    unreachable!()
                };
                cpu.pc = cpu.exec_branch(bpc, cond, rs1, rs2, offset);
                executed += 2;
                break 'ops; // always the last op of its block
            }
            BlockOp::AluJal(a, b) => {
                if clipped && executed + 2 > budget {
                    step_one!(a, 'ops);
                    continue;
                }
                span.charge(cpu, ipc);
                cpu.counters.instructions += 1;
                cpu.exec_alu_class(a);
                let bpc = ipc.wrapping_add(4);
                span.charge(cpu, bpc);
                cpu.counters.instructions += 1;
                let Instruction::Jal { rd, offset } = b else { unreachable!() };
                cpu.pc = cpu.exec_jal(bpc, rd, offset);
                executed += 2;
                break 'ops;
            }
            BlockOp::LoadJalr(a, b) => {
                if clipped && executed + 2 > budget {
                    step_one!(a, 'ops);
                    continue;
                }
                let checkpoint = cpu.now;
                span.charge(cpu, ipc);
                cpu.counters.instructions += 1;
                let Instruction::Load { width, signed, rd, rs1, imm } = a else {
                    unreachable!()
                };
                if let Err(trap) = cpu.exec_load(ipc, width, signed, rd, rs1, imm) {
                    trap_exit!(checkpoint, trap);
                }
                let bpc = ipc.wrapping_add(4);
                span.charge(cpu, bpc);
                cpu.counters.instructions += 1;
                let Instruction::Jalr { rd, rs1, imm } = b else { unreachable!() };
                cpu.pc = cpu.exec_jalr(bpc, rd, rs1, imm);
                executed += 2;
                break 'ops; // always the last op of its block
            }
            BlockOp::AluStore(a, b) => {
                if clipped && executed + 2 > budget {
                    step_one!(a, 'ops);
                    continue;
                }
                span.charge(cpu, ipc);
                cpu.counters.instructions += 1;
                cpu.exec_alu_class(a);
                let bpc = ipc.wrapping_add(4);
                let checkpoint = cpu.now;
                span.charge(cpu, bpc);
                cpu.counters.instructions += 1;
                let Instruction::Store { width, rs2, rs1, imm } = b else {
                    unreachable!()
                };
                if let Err(trap) = cpu.exec_store(bpc, width, rs2, rs1, imm) {
                    cpu.pc = bpc;
                    trap_exit!(checkpoint, trap);
                }
                executed += 2;
                let next = bpc.wrapping_add(4);
                cpu.pc = next;
                // The store may have hit text (even this block).
                if cpu.blocks.generation() != entry_gen {
                    break 'ops;
                }
                ipc = next;
            }
            BlockOp::LoadStore(a, b) => {
                if clipped && executed + 2 > budget {
                    step_one!(a, 'ops);
                    continue;
                }
                let checkpoint = cpu.now;
                span.charge(cpu, ipc);
                cpu.counters.instructions += 1;
                let Instruction::Load { width, signed, rd, rs1, imm } = a else {
                    unreachable!()
                };
                if let Err(trap) = cpu.exec_load(ipc, width, signed, rd, rs1, imm) {
                    trap_exit!(checkpoint, trap);
                }
                let bpc = ipc.wrapping_add(4);
                let checkpoint = cpu.now;
                span.charge(cpu, bpc);
                cpu.counters.instructions += 1;
                let Instruction::Store { width, rs2, rs1, imm } = b else {
                    unreachable!()
                };
                if let Err(trap) = cpu.exec_store(bpc, width, rs2, rs1, imm) {
                    cpu.pc = bpc;
                    trap_exit!(checkpoint, trap);
                }
                executed += 2;
                let next = bpc.wrapping_add(4);
                cpu.pc = next;
                if cpu.blocks.generation() != entry_gen {
                    break 'ops;
                }
                ipc = next;
            }
            BlockOp::LoadLoad(a, b) => {
                if clipped && executed + 2 > budget {
                    step_one!(a, 'ops);
                    continue;
                }
                let checkpoint = cpu.now;
                span.charge(cpu, ipc);
                cpu.counters.instructions += 1;
                let Instruction::Load { width, signed, rd, rs1, imm } = a else {
                    unreachable!()
                };
                if let Err(trap) = cpu.exec_load(ipc, width, signed, rd, rs1, imm) {
                    trap_exit!(checkpoint, trap); // pc already at the load
                }
                let bpc = ipc.wrapping_add(4);
                let checkpoint = cpu.now;
                span.charge(cpu, bpc);
                cpu.counters.instructions += 1;
                let Instruction::Load { width, signed, rd, rs1, imm } = b else {
                    unreachable!()
                };
                if let Err(trap) = cpu.exec_load(bpc, width, signed, rd, rs1, imm) {
                    cpu.pc = bpc; // stepwise left pc at the faulting load
                    trap_exit!(checkpoint, trap);
                }
                executed += 2;
                let next = bpc.wrapping_add(4);
                cpu.pc = next;
                ipc = next;
            }
            BlockOp::StoreAlu(a, b) => {
                if clipped && executed + 2 > budget {
                    step_one!(a, 'ops);
                    continue;
                }
                let checkpoint = cpu.now;
                span.charge(cpu, ipc);
                cpu.counters.instructions += 1;
                let Instruction::Store { width, rs2, rs1, imm } = a else {
                    unreachable!()
                };
                if let Err(trap) = cpu.exec_store(ipc, width, rs2, rs1, imm) {
                    trap_exit!(checkpoint, trap); // pc already at the store
                }
                let bpc = ipc.wrapping_add(4);
                // The leading store may have hit text (even this
                // block): abandon the cached decode before the second
                // component, exactly like the generic path's post-store
                // generation check.
                if cpu.blocks.generation() != entry_gen {
                    cpu.pc = bpc;
                    executed += 1;
                    break 'ops;
                }
                span.charge(cpu, bpc);
                cpu.counters.instructions += 1;
                cpu.exec_alu_class(b);
                executed += 2;
                let next = bpc.wrapping_add(4);
                cpu.pc = next;
                ipc = next;
            }
            BlockOp::StoreJal(a, b) => {
                if clipped && executed + 2 > budget {
                    step_one!(a, 'ops);
                    continue;
                }
                let checkpoint = cpu.now;
                span.charge(cpu, ipc);
                cpu.counters.instructions += 1;
                let Instruction::Store { width, rs2, rs1, imm } = a else {
                    unreachable!()
                };
                if let Err(trap) = cpu.exec_store(ipc, width, rs2, rs1, imm) {
                    trap_exit!(checkpoint, trap);
                }
                let bpc = ipc.wrapping_add(4);
                if cpu.blocks.generation() != entry_gen {
                    cpu.pc = bpc;
                    executed += 1;
                    break 'ops;
                }
                span.charge(cpu, bpc);
                cpu.counters.instructions += 1;
                let Instruction::Jal { rd, offset } = b else { unreachable!() };
                cpu.pc = cpu.exec_jal(bpc, rd, offset);
                executed += 2;
                break 'ops;
            }
            BlockOp::TldTchk(a, b) => {
                if clipped && executed + 2 > budget {
                    step_one!(a, 'ops);
                    continue;
                }
                let checkpoint = cpu.now;
                span.charge(cpu, ipc);
                cpu.counters.instructions += 1;
                let Instruction::Tld { rd, rs1, imm } = a else { unreachable!() };
                if let Err(trap) = cpu.exec_tld(ipc, rd, rs1, imm) {
                    trap_exit!(checkpoint, trap);
                }
                let bpc = ipc.wrapping_add(4);
                span.charge(cpu, bpc);
                cpu.counters.instructions += 1;
                let Instruction::Tchk { rs1, rs2 } = b else { unreachable!() };
                let next = cpu.exec_tchk(bpc, rs1, rs2);
                cpu.pc = next;
                executed += 2;
                if next != bpc.wrapping_add(4) {
                    break 'ops; // type miss: redirected to R_hdl
                }
                ipc = next;
            }
            BlockOp::TgetBranch(a, b) => {
                if clipped && executed + 2 > budget {
                    step_one!(a, 'ops);
                    continue;
                }
                span.charge(cpu, ipc);
                cpu.counters.instructions += 1;
                let Instruction::Tget { rd, rs1 } = a else { unreachable!() };
                cpu.exec_tget(rd, rs1);
                let bpc = ipc.wrapping_add(4);
                span.charge(cpu, bpc);
                cpu.counters.instructions += 1;
                let Instruction::Branch { cond, rs1, rs2, offset } = b else {
                    unreachable!()
                };
                cpu.pc = cpu.exec_branch(bpc, cond, rs1, rs2, offset);
                executed += 2;
                break 'ops;
            }
        }
    }
    match stop {
        Some(event) => BlockExit::Stop { executed, event },
        None if guard_exit => BlockExit::SideExit { executed },
        None => BlockExit::Done { executed },
    }
}
