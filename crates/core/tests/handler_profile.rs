//! Per-handler attribution on the block engine: every way of reaching a
//! handler entry must give exactly the counts of a per-instruction
//! observer of the stepwise core.

use std::collections::BTreeMap;
use std::sync::Arc;
use tarch_core::{CoreConfig, Cpu, HandlerProfile, PgoProfile, StepEvent};
use tarch_isa::asm::Program;
use tarch_isa::text::assemble;
use tarch_isa::{AluImmOp, Instruction, Reg};

/// A miniature interpreter with four handlers. `op_a` is first reached
/// by falling through from the prologue and later by a taken branch;
/// `op_b` by falling through from `op_a`'s body; `op_c` only by a `tchk`
/// redirect from the middle of `op_b` (the TRT is empty, so every check
/// misses). `op_c` calls a native helper, then calls `op_out`, a handler
/// placed outside the text image (written into the data segment at
/// load), which runs on the stepwise fallback and returns into the
/// middle of `op_c`. The loop's back branch follows, and the tail runs
/// an inner loop whose blocks start inside a handler.
const SRC: &str = "
        li s1, 0
        li s2, 3
        thdl op_c
op_a:
        addi s1, s1, 1
        addi s3, s1, 0
op_b:
        addi s3, s3, 2
        tchk s1, s3
        addi s3, s3, 100
op_c:
        li a7, 1
        ecall
        la t2, op_out
        jalr ra, 0(t2)
back:
        addi s2, s2, -1
        bnez s2, op_a
        li s4, 4
inner:
        addi s4, s4, -1
        bnez s4, inner
        halt
        .data
op_out: .dword 0
";

/// Instructions the native helper charges per `ecall`.
const HELPER_INSTRUCTIONS: u64 = 50;

fn program() -> Program {
    assemble(SRC, 0x1000, 0x2_0000).unwrap()
}

/// A core with the program loaded and `op_out`'s two instructions
/// (`addi s5, s5, 1; jalr zero, 0(ra)`) written at its data address,
/// and the handler entry pcs.
fn loaded(config: CoreConfig) -> (Cpu, Vec<u64>) {
    let program = program();
    let entries: Vec<u64> =
        ["op_a", "op_b", "op_c", "op_out"].map(|s| program.symbol(s).unwrap()).to_vec();
    let mut cpu = Cpu::new(config);
    cpu.load_program(&program);
    let out = [
        Instruction::AluImm { op: AluImmOp::Addi, rd: Reg::S5, rs1: Reg::S5, imm: 1 },
        Instruction::Jalr { rd: Reg::ZERO, rs1: Reg::RA, imm: 0 },
    ];
    for (i, instr) in out.iter().enumerate() {
        cpu.mem_mut().write_u32(entries[3] + 4 * i as u64, instr.encode().unwrap());
    }
    (cpu, entries)
}

fn service_ecall(cpu: &mut Cpu) {
    cpu.charge(HELPER_INSTRUCTIONS, 60);
}

/// The per-instruction reference: observes the pc before every step of
/// the stepwise core, after `skip` unobserved steps.
fn reference(skip: u64) -> (HandlerProfile, Cpu) {
    let (mut cpu, entries) = loaded(CoreConfig { blocks: false, ..CoreConfig::paper() });
    let mut counts =
        HandlerProfile { dispatches: vec![0; entries.len()], instructions: vec![0; entries.len()] };
    let mut current = None;
    let mut steps = 0;
    loop {
        if steps >= skip {
            if let Some(h) = entries.iter().position(|&pc| pc == cpu.pc()) {
                counts.dispatches[h] += 1;
                current = Some(h);
            }
            if let Some(h) = current {
                counts.instructions[h] += 1;
            }
        }
        steps += 1;
        match cpu.step().unwrap() {
            StepEvent::Retired => {}
            StepEvent::Ecall => service_ecall(&mut cpu),
            StepEvent::Halted => return (counts, cpu),
        }
    }
}

/// Runs `cpu` to `halt` in `Cpu::run` calls of at most `budget` steps.
fn finish(cpu: &mut Cpu, budget: u64) {
    loop {
        match cpu.run(budget).unwrap() {
            StepEvent::Retired => {}
            StepEvent::Ecall => service_ecall(cpu),
            StepEvent::Halted => return,
        }
    }
}

/// An attributed run on `config`, in slices of `budget` steps.
fn attributed(config: CoreConfig, budget: u64) -> (HandlerProfile, Cpu) {
    let (mut cpu, entries) = loaded(config);
    cpu.enable_handler_profile(&entries);
    finish(&mut cpu, budget);
    (cpu.handler_profile().expect("attribution enabled"), cpu)
}

fn assert_same_run(label: &str, got: &Cpu, want: &Cpu) {
    assert_eq!(got.counters(), want.counters(), "{label}: attribution moved a counter");
    assert_eq!(got.branch_stats(), want.branch_stats(), "{label}: branch statistics");
}

#[test]
fn reference_sees_every_path_into_a_handler() {
    let (counts, cpu) = reference(0);
    // Three iterations through every handler; the prologue's three
    // instructions are credited to no handler.
    assert_eq!(counts.dispatches, vec![3, 3, 3, 3]);
    assert_eq!(counts.instructions[..2], [2 * 3, 2 * 3]);
    let guest = cpu.counters().instructions - cpu.counters().helper_instructions;
    assert_eq!(counts.instructions.iter().sum::<u64>(), guest - 3);
    assert_eq!(cpu.counters().helper_instructions, 3 * HELPER_INSTRUCTIONS);
}

#[test]
fn block_engine_matches_the_per_instruction_reference() {
    let (want, reference_cpu) = reference(0);
    let (got, cpu) = attributed(CoreConfig::paper(), u64::MAX);
    assert_eq!(got, want, "fall-through, redirect, ecall and out-of-text handler");
    assert_same_run("blocks", &cpu, &reference_cpu);
}

#[test]
fn budget_clipped_blocks_match_the_reference() {
    let (want, reference_cpu) = reference(0);
    for budget in [1, 2, 3, 5, 7] {
        let (got, cpu) = attributed(CoreConfig::paper(), budget);
        assert_eq!(got, want, "slices of {budget} steps");
        assert_same_run(&format!("budget {budget}"), &cpu, &reference_cpu);
    }
}

#[test]
fn stepwise_core_matches_the_reference() {
    let (want, reference_cpu) = reference(0);
    let stepwise = CoreConfig { blocks: false, ..CoreConfig::paper() };
    for budget in [u64::MAX, 3] {
        let (got, cpu) = attributed(stepwise.clone(), budget);
        assert_eq!(got, want, "blocks: false, slices of {budget} steps");
        assert_same_run("stepwise", &cpu, &reference_cpu);
    }
}

#[test]
fn enabling_attribution_flushes_blocks_built_without_the_split() {
    // Warm the block table without attribution, clone the core mid-run
    // as a fleet would, and attribute the rest of the run on the clone.
    // After 18 steps the second pass has entered `op_a`, so the warm
    // table holds a block at `op_a` that runs on into `op_b`; the third
    // pass would miss its arrival at `op_b` without the flush.
    let skip = 18;
    let (mut warm, entries) = loaded(CoreConfig::paper());
    let mut left = skip;
    while left > 0 {
        let before = warm.counters().instructions - warm.counters().helper_instructions;
        if warm.run(left).unwrap() == StepEvent::Ecall {
            service_ecall(&mut warm);
        }
        left -= warm.counters().instructions - warm.counters().helper_instructions - before;
    }
    let mut clone = warm.clone();
    clone.enable_handler_profile(&entries);
    finish(&mut clone, u64::MAX);
    let (want, reference_cpu) = reference(skip);
    assert_eq!(clone.handler_profile().unwrap(), want);
    assert_same_run("clone", &clone, &reference_cpu);
}

#[test]
fn no_superblock_straightens_into_a_handler_entry() {
    // A profile whose one dominant edge is the loop's back branch into
    // `op_a`: without attribution the builder straightens it.
    let program = program();
    let back = program.symbol("back").unwrap();
    let pgo = PgoProfile::new(
        Vec::new(),
        BTreeMap::from([(back, program.symbol("op_a").unwrap())]),
        BTreeMap::new(),
        None,
    );
    let guided = CoreConfig { pgo: Some(Arc::new(pgo)), ..CoreConfig::paper() };
    let (mut plain, _) = loaded(guided.clone());
    finish(&mut plain, u64::MAX);
    assert!(plain.block_stats().superblocks > 0, "the edge straightens without attribution");

    let (want, reference_cpu) = reference(0);
    let (got, cpu) = attributed(guided, u64::MAX);
    assert_eq!(cpu.block_stats().superblocks, 0);
    assert_eq!(got, want);
    assert_same_run("pgo", &cpu, &reference_cpu);
}

#[test]
fn a_run_without_attribution_reports_none() {
    let (mut cpu, _) = loaded(CoreConfig::paper());
    finish(&mut cpu, u64::MAX);
    assert_eq!(cpu.handler_profile(), None);
}
