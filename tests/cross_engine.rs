//! Workspace-level differential tests: every Table 7 workload (at test
//! scale) must print byte-identical output under
//!
//! * the MiniScript reference interpreter,
//! * `luart`'s host-side bytecode VM,
//! * the simulated `luart` engine × {baseline, checked-load, typed},
//! * the simulated `jsrt` engine × {baseline, checked-load, typed},
//! * the simulated `wasmrt` engine × {baseline, checked-load, typed}.
//!
//! That is eleven independent executions per workload agreeing on output —
//! the strongest end-to-end correctness statement this repository makes.
//! The simulated engines run through the engine registry
//! (`tarch_fleet::build_guest`). The `wasmrt` legs additionally assert the
//! third engine's headline property: zero typed-hardware activity at every
//! ISA level.

use miniscript::{parse, Interp};
use tarch_bench::workloads::{self, Scale};
use tarch_core::{CoreConfig, IsaLevel};
use tarch_fleet::build_guest;
use tarch_runner::EngineKind;

const MAX_STEPS: u64 = 2_000_000_000;

fn reference_output(src: &str, name: &str) -> String {
    let chunk = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut interp = Interp::new();
    interp.run(&chunk).unwrap_or_else(|e| panic!("{name} (reference): {e}"));
    interp.output().to_string()
}

fn check_workload(name: &str) {
    let w = workloads::by_name(name).expect("known workload");
    let src = w.source(Scale::Test);
    let expected = reference_output(&src, name);
    assert!(!expected.is_empty(), "{name} printed nothing");

    // Host-side bytecode VM.
    let chunk = parse(&src).unwrap();
    let module = luart::compile(&chunk).unwrap_or_else(|e| panic!("{name}: {e}"));
    let host_out =
        luart::host_run(&module, 500_000_000).unwrap_or_else(|e| panic!("{name} hostvm: {e}"));
    assert_eq!(host_out, expected, "{name}: host VM diverged");

    // Simulated engines at every ISA level.
    for engine in EngineKind::ALL {
        for level in IsaLevel::ALL {
            let tag = format!("{name}: {} {level}", engine.id());
            let mut guest = build_guest(engine, &src, level, CoreConfig::paper())
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            let r = guest.run(MAX_STEPS).unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert_eq!(r.output, expected, "{tag} diverged");
            if engine == EngineKind::Wasm {
                assert_eq!(r.counters.type_checks, 0, "{tag} ran type checks");
                assert_eq!(r.counters.tagged_mem, 0, "{tag} ran tagged mem ops");
                assert_eq!(r.counters.typed_alu, 0, "{tag} ran typed ALU ops");
            }
        }
    }
}

/// A value whose static class joined `Int` into `Tab` (a table element
/// that is sometimes a child table, sometimes an integer): the dynamic
/// engines print what the reference prints, and the statically typed
/// engine, which has no type code to render it with, refuses to compile
/// the program. A table that never met an integer prints as `table`
/// everywhere.
#[test]
fn int_or_table_values_print_like_the_reference_or_fail_to_compile() {
    let ambiguous = "
        function build(item, depth)
            local node = {item, 0, 0}
            if depth > 0 then
                node[2] = build(item + item - 1, depth - 1)
                node[3] = build(item + item, depth - 1)
            end
            return node
        end
        function check(node)
            local left = node[2]
            if left == 0 then return node[1] end
            return node[1] + check(left) - check(node[3])
        end
        print(check(build(3, 2)))
    ";
    let plain = "print({})";
    for src in [ambiguous, plain] {
        let expected = reference_output(src, src);
        for engine in EngineKind::ALL {
            let built = build_guest(engine, src, IsaLevel::Typed, CoreConfig::paper());
            if engine == EngineKind::Wasm && src == ambiguous {
                let err = built.expect_err("wasmrt must reject the int/table ambiguity");
                assert!(err.contains("int/table ambiguity"), "{err}");
                continue;
            }
            let mut guest = built.unwrap_or_else(|e| panic!("{}: {e}", engine.id()));
            let r = guest.run(MAX_STEPS).unwrap_or_else(|e| panic!("{}: {e}", engine.id()));
            assert_eq!(r.output, expected, "{}: {src}", engine.id());
        }
    }
}

/// Runtime operands each engine must decode by its own value rules: a
/// nil where a table, string or number belongs, a boolean in `..`, an
/// integral float where a builtin wants an integer. Where the reference
/// raises an error, every engine fails to build or to run; otherwise
/// every engine prints what the reference prints.
#[test]
fn runtime_operands_fail_or_print_like_the_reference() {
    let programs = [
        "local u = {} u.y = 7 local t = {} print(t.x.y)",
        "local t = {} t.w = 'abc' print(#t.z)",
        "local t = {} t.w = 1 print(floor(t.z))",
        "local t = {} t.w = 1 print(abs(t.z))",
        "local t = {} t.w = 1 print(min(t.z, 1))",
        "local t = {} t.w = 1 print(max(1, t.z))",
        "local t = {} t.w = 'hello' print(sub(t.z, 1, 2))",
        "local t = {} t.w = 'hello' print(byte(t.z))",
        "local t = {} t.w = 'hello' print(len(t.z))",
        "local t = {} t.w = 'b' print('a' .. t.z)",
        "print('a' .. true)",
        "print(char(65.0))",
        "print(sub('hello', 2.0))",
        "print(byte('AB', 2.0))",
    ];
    for src in programs {
        let expected = parse(src).map_err(|e| e.to_string()).and_then(|chunk| {
            let mut interp = Interp::new();
            interp.run(&chunk).map_err(|e| e.to_string())?;
            Ok(interp.output().to_string())
        });
        for engine in EngineKind::ALL {
            let run = build_guest(engine, src, IsaLevel::Typed, CoreConfig::paper())
                .and_then(|mut g| g.run(MAX_STEPS).map_err(|e| e.to_string()));
            match (&expected, run) {
                (Ok(want), Ok(r)) => assert_eq!(&r.output, want, "{}: {src}", engine.id()),
                (Ok(_), Err(e)) => panic!("{}: {src}: {e}", engine.id()),
                (Err(_), Ok(r)) => {
                    panic!("{}: {src}: printed {:?}; the reference errors", engine.id(), r.output)
                }
                (Err(_), Err(_)) => {}
            }
        }
    }
}

#[test]
fn ackermann_all_configs_agree() {
    check_workload("ackermann");
}

#[test]
fn binary_trees_all_configs_agree() {
    check_workload("binary-trees");
}

#[test]
fn fannkuch_all_configs_agree() {
    check_workload("fannkuch-redux");
}

#[test]
fn fibo_all_configs_agree() {
    check_workload("fibo");
}

#[test]
fn k_nucleotide_all_configs_agree() {
    check_workload("k-nucleotide");
}

#[test]
fn mandelbrot_all_configs_agree() {
    check_workload("mandelbrot");
}

#[test]
fn n_body_all_configs_agree() {
    check_workload("n-body");
}

#[test]
fn n_sieve_all_configs_agree() {
    check_workload("n-sieve");
}

#[test]
fn pidigits_all_configs_agree() {
    check_workload("pidigits");
}

#[test]
fn random_all_configs_agree() {
    check_workload("random");
}

#[test]
fn spectral_norm_all_configs_agree() {
    check_workload("spectral-norm");
}
