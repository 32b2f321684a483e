//! Self-modifying-code correctness for the block engine.
//!
//! The basic-block table is the core's one cache of decoded text words
//! (the stepwise path decodes every fetch), and any text change drops
//! every block in it. These tests prove its invalidation paths work end
//! to end: guest stores into the text segment (`sw` over an
//! instruction), host writes through `Cpu::mem_mut`, and precise host
//! stores through `Cpu::host_store_u64`. In every case re-executing the
//! patched address must observe the new instruction, and the
//! architectural counters must match a stepwise run. They also pin the
//! hardest cases: a store that patches an instruction *later in the
//! currently executing block*, which must abandon the in-flight compiled
//! block rather than retire stale decodes, and the same store into the
//! second segment of a PGO superblock.

use std::collections::BTreeMap;
use std::sync::Arc;
use tarch_core::{CoreConfig, Cpu, PgoProfile, StepEvent};
use tarch_isa::text::assemble;
use tarch_isa::{AluImmOp, Instruction, Reg};

const TEXT_BASE: u64 = 0x1000;
const DATA_BASE: u64 = 0x2_0000;

fn addi_a0(imm: i32) -> u32 {
    Instruction::AluImm { op: AluImmOp::Addi, rd: Reg::A0, rs1: Reg::A0, imm }
        .encode()
        .expect("encodable")
}

/// The first instruction (at exactly `TEXT_BASE`) is the patch target:
/// pass one executes `addi a0, a0, 1`, stores a replacement word over it,
/// and loops; pass two must execute the replacement.
const SMC_SRC: &str = "
top:
    addi a0, a0, 1      # patch target: rewritten to addi a0, a0, 100
    bnez s2, done
    li   s2, 1
    li   s3, 0x20000    # data base: holds the replacement word
    lw   t0, 0(s3)
    li   s4, 0x1000     # text base: address of the patch target
    sw   t0, 0(s4)
    bnez s2, top
done:
    halt
";

fn run_smc(blocks: bool) -> Cpu {
    let mut program = assemble(SMC_SRC, TEXT_BASE, DATA_BASE).expect("assembles");
    assert_eq!(program.text[0], addi_a0(1), "patch target must sit at TEXT_BASE");
    program.data = addi_a0(100).to_le_bytes().to_vec();
    let mut cpu = Cpu::new(CoreConfig { blocks, ..CoreConfig::paper() });
    cpu.load_program(&program);
    assert_eq!(cpu.run(10_000).expect("no trap"), StepEvent::Halted);
    cpu
}

#[test]
fn guest_store_into_text_is_observed() {
    let cpu = run_smc(true);
    // 1 from the original instruction, 100 from its replacement.
    assert_eq!(cpu.regs().read(Reg::A0).v, 101);
    let stats = cpu.block_stats();
    assert!(stats.store_invalidations > 0, "the store must bump the block generation");
    assert!(stats.rebuilds > 0, "the patched block must be dropped and rebuilt");
}

#[test]
fn smc_counters_match_decode_every_step() {
    let on = run_smc(true);
    let off = run_smc(false);
    assert_eq!(off.regs().read(Reg::A0).v, 101, "reference run must also see the patch");
    assert_eq!(on.counters(), off.counters());
    assert_eq!(on.branch_stats(), off.branch_stats());
    assert_eq!(off.block_stats().builds, 0, "the stepwise run must never build a block");
}

/// One straight-line block whose store patches an instruction *further
/// down the same block*. The executor holds the block's detached compiled
/// code; after the store it must notice the generation bump, abandon the
/// block at the store boundary (a deopt), and rebuild — executing the
/// replacement, not the stale decode.
/// The second pass re-enters the patched block from the top, forcing the
/// table to notice the changed word and rebuild the dropped entry.
const MID_BLOCK_SRC: &str = "
start:
    li   s3, 0x20000    # data base: holds the replacement word
    lw   t0, 0(s3)
    la   s4, patch
    sw   t0, 0(s4)      # patches an instruction later in THIS block
    addi a0, a0, 1
patch:
    addi a0, a0, 7      # must execute as addi a0, a0, 100
    addi a0, a0, 1
    bnez s2, done
    li   s2, 1
    bnez s2, start
done:
    halt
";

fn run_mid_block(blocks: bool) -> Cpu {
    let mut program = assemble(MID_BLOCK_SRC, TEXT_BASE, DATA_BASE).expect("assembles");
    program.data = addi_a0(100).to_le_bytes().to_vec();
    let mut cpu = Cpu::new(CoreConfig { blocks, ..CoreConfig::paper() });
    cpu.load_program(&program);
    assert_eq!(cpu.run(10_000).expect("no trap"), StepEvent::Halted);
    cpu
}

#[test]
fn guest_store_mid_block_invalidates_the_running_block() {
    let cpu = run_mid_block(true);
    // Two passes of 1 + 100 (replacement) + 1; a stale block run would
    // retire the original addi 7 for 9 per pass.
    assert_eq!(cpu.regs().read(Reg::A0).v, 204);
    let stats = cpu.block_stats();
    assert!(stats.store_invalidations > 0, "the store must bump the block generation");
    assert!(stats.rebuilds > 0, "the patched block must be dropped and rebuilt");
    assert!(stats.builds >= 2, "initial build plus the rebuild after the patch");
}

#[test]
fn mid_block_smc_counters_match_stepwise_decode() {
    let on = run_mid_block(true);
    let off = run_mid_block(false);
    assert_eq!(off.regs().read(Reg::A0).v, 204, "reference run must also see the patch");
    assert_eq!(on.counters(), off.counters());
    assert_eq!(on.branch_stats(), off.branch_stats());
}

#[test]
fn host_write_through_mem_mut_revalidates_blocks() {
    // Two blocks in a loop: block A holds the patch target, block B is
    // untouched. After the host write both are dropped, B too, and
    // rebuilt from current memory.
    let src = "
    top:
        addi a0, a0, 1      # patched by the host after the first pass
        j    mid
    mid:
        addi s1, s1, -1
        bnez s1, top
        halt
    ";
    let program = assemble(src, TEXT_BASE, DATA_BASE).expect("assembles");
    assert_eq!(program.text[0], addi_a0(1));
    let mut cpu = Cpu::new(CoreConfig::paper());
    cpu.load_program(&program);
    cpu.regs_mut().write_untyped(Reg::S1, 2);
    // First full iteration: both blocks built and executed.
    assert_eq!(cpu.run(4).expect("no trap"), StepEvent::Retired);
    assert_eq!(cpu.regs().read(Reg::A0).v, 1);
    cpu.mem_mut().write_u32(TEXT_BASE, addi_a0(100));
    assert_eq!(cpu.run(10_000).expect("no trap"), StepEvent::Halted);
    assert_eq!(cpu.regs().read(Reg::A0).v, 101);
    let stats = cpu.block_stats();
    assert_eq!(stats.rebuilds, 2, "a host write drops both blocks, the untouched one too");
    assert_eq!(stats.tier_deopts, 2, "each dropped block is a deopt");
    assert_eq!(stats.builds, 5, "both blocks rebuilt, then the `halt` block");
    assert_eq!(stats.revalidations, 0, "no block is re-compared against memory");
}

#[test]
fn host_store_u64_invalidates_text_but_not_data() {
    let src = "
    top:
        addi a0, a0, 1      # patched (with its successor) by the host
        j    mid
    mid:
        addi s1, s1, -1
        bnez s1, top
        halt
    ";
    let program = assemble(src, TEXT_BASE, DATA_BASE).expect("assembles");
    assert_eq!(program.text[0], addi_a0(1));
    let mut cpu = Cpu::new(CoreConfig::paper());
    cpu.load_program(&program);
    cpu.regs_mut().write_untyped(Reg::S1, 6);
    assert_eq!(cpu.run(12).expect("no trap"), StepEvent::Retired);

    // A store to the data segment must NOT disturb the block table: the
    // whole point of `host_store_u64` over `mem_mut` is that runtime heap
    // writes leave code caches alone.
    let quiet = cpu.block_stats();
    cpu.host_store_u64(DATA_BASE, 0xdead_beef_dead_beef);
    assert_eq!(cpu.run(4).expect("no trap"), StepEvent::Retired);
    let after_data = cpu.block_stats();
    assert_eq!(after_data.revalidations, quiet.revalidations, "no epoch bump for data");
    assert_eq!(after_data.rebuilds, quiet.rebuilds, "no block dropped for a data store");

    // A store overlapping the text segment MUST invalidate: patch the
    // first two instructions (addi+j) in one 64-bit write, keeping the
    // jump word intact.
    let jump_word = cpu.mem().read_u32(TEXT_BASE + 4);
    let patch = (u64::from(jump_word) << 32) | u64::from(addi_a0(100));
    cpu.host_store_u64(TEXT_BASE, patch);
    assert_eq!(cpu.run(10_000).expect("no trap"), StepEvent::Halted);
    // 6 iterations: 3 + 1 (before the patch landed) at +1, 2 at +100.
    assert_eq!(cpu.regs().read(Reg::A0).v, 204);
    let after_text = cpu.block_stats();
    assert!(after_text.rebuilds > after_data.rebuilds, "patched block must rebuild");
}

#[test]
fn guest_store_mid_compiled_block_deopts_at_the_store() {
    let cpu = run_mid_block(true);
    // A stale compiled closure would retire the original `addi 7`.
    assert_eq!(cpu.regs().read(Reg::A0).v, 204);
    let stats = cpu.block_stats();
    assert_eq!(stats.compiles, stats.builds, "every block is compiled when it is built");
    assert!(
        stats.tier_deopts > 0,
        "the self-patching store must deopt the in-flight compiled block"
    );
    assert!(stats.rebuilds > 0, "the patched block must be dropped and rebuilt");
}

#[test]
fn host_store_u64_deopts_compiled_text_but_not_data() {
    // The two-block loop from the `host_store_u64` test, with both
    // blocks compiled when they are built. A host heap store
    // must leave the compiled blocks alone; a host text store must drop
    // the patched block's compiled code (a deopt) and the replacement
    // must execute.
    let src = "
    top:
        addi a0, a0, 1      # patched (with its successor) by the host
        j    mid
    mid:
        addi s1, s1, -1
        bnez s1, top
        halt
    ";
    let program = assemble(src, TEXT_BASE, DATA_BASE).expect("assembles");
    assert_eq!(program.text[0], addi_a0(1));
    let mut cpu = Cpu::new(CoreConfig::paper());
    cpu.load_program(&program);
    cpu.regs_mut().write_untyped(Reg::S1, 6);
    assert_eq!(cpu.run(12).expect("no trap"), StepEvent::Retired);
    let warm = cpu.block_stats();
    assert!(warm.compiles >= 2, "both loop blocks must compile when they are built");

    cpu.host_store_u64(DATA_BASE, 0xdead_beef_dead_beef);
    assert_eq!(cpu.run(4).expect("no trap"), StepEvent::Retired);
    let after_data = cpu.block_stats();
    assert_eq!(after_data.tier_deopts, warm.tier_deopts, "no deopt for a heap store");
    assert_eq!(after_data.rebuilds, warm.rebuilds, "no block dropped for a heap store");

    let jump_word = cpu.mem().read_u32(TEXT_BASE + 4);
    let patch = (u64::from(jump_word) << 32) | u64::from(addi_a0(100));
    cpu.host_store_u64(TEXT_BASE, patch);
    assert_eq!(cpu.run(10_000).expect("no trap"), StepEvent::Halted);
    // 6 iterations: 3 + 1 (before the patch landed) at +1, 2 at +100.
    assert_eq!(cpu.regs().read(Reg::A0).v, 204);
    let after_text = cpu.block_stats();
    assert!(
        after_text.tier_deopts > after_data.tier_deopts,
        "dropping the patched block's compiled code must count as a deopt"
    );
    assert!(after_text.rebuilds > after_data.rebuilds, "patched block must rebuild");
}

/// A loop whose first block a one-edge profile straightens across its
/// `j second` into a two-segment superblock. On the first pass the
/// superblock's first segment stores over `patch`, in its second
/// segment; later passes store into data. A compiled superblock that ran
/// on past the store, or that survived the store, would retire the
/// original `addi 7`.
const SUPER_SRC: &str = "
    li   s3, 0x20000    # data base: holds the replacement word
    la   s4, patch      # the first pass stores into text
    li   s5, 0x20008    # later passes store into data
    li   s1, 3
    j    top
top:
    lw   t0, 0(s3)
    sw   t0, 0(s4)      # patches an instruction of the second segment
    mv   s4, s5
    addi s1, s1, -1
    j    second         # the profiled edge
    halt
second:
    addi a0, a0, 1
patch:
    addi a0, a0, 7      # must execute as addi a0, a0, 100
    bnez s1, top
    halt
";

fn run_super(config: CoreConfig) -> Cpu {
    let mut program = assemble(SUPER_SRC, TEXT_BASE, DATA_BASE).expect("assembles");
    program.data = addi_a0(100).to_le_bytes().to_vec();
    let edge = (program.symbol("top").unwrap(), program.symbol("second").unwrap());
    let pgo = PgoProfile::new(BTreeMap::from([edge]));
    let mut cpu = Cpu::new(CoreConfig { pgo: Some(Arc::new(pgo)), ..config });
    cpu.load_program(&program);
    assert_eq!(cpu.run(10_000).expect("no trap"), StepEvent::Halted);
    cpu
}

#[test]
fn store_into_a_superblocks_second_segment_matches_stepwise() {
    let on = run_super(CoreConfig::paper());
    let off = run_super(CoreConfig { blocks: false, ..CoreConfig::paper() });
    assert_eq!(off.regs().read(Reg::A0).v, 3 * 101, "reference run must see the patch");
    let regs =
        |cpu: &Cpu| (0..32).map(|n| cpu.regs().read(Reg::new(n).unwrap())).collect::<Vec<_>>();
    assert_eq!(regs(&on), regs(&off));
    assert_eq!(on.counters(), off.counters());
    assert_eq!(on.branch_stats(), off.branch_stats());
    let stats = on.block_stats();
    assert!(stats.superblocks >= 1, "the profiled edge must straighten");
    assert!(stats.rebuilds > 0, "the store must drop the superblock");
}
