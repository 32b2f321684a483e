//! Differential tests: every program must print the same bytes under
//! the MiniScript reference interpreter and the simulated engine at all
//! three ISA levels — and the typed variant must never retire *more*
//! instructions than the baseline.

use luart::{compile, LuaVm};
use miniscript::{parse, Interp};
use tarch_core::{CoreConfig, IsaLevel};

const MAX_STEPS: u64 = 200_000_000;

fn check(src: &str) {
    let chunk = parse(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let mut interp = Interp::new();
    interp.run(&chunk).unwrap_or_else(|e| panic!("reference: {e}\n{src}"));
    let expected = interp.output().to_string();

    let module = compile(&chunk).unwrap_or_else(|e| panic!("{e}\n{src}"));

    let mut instr_by_level = Vec::new();
    for level in IsaLevel::ALL {
        let mut vm = LuaVm::new(&module, level, CoreConfig::paper())
            .unwrap_or_else(|e| panic!("build {level}: {e}"));
        let report =
            vm.run(MAX_STEPS).unwrap_or_else(|e| panic!("sim {level}: {e}\n{src}"));
        assert_eq!(report.output, expected, "{level} engine diverged for:\n{src}");
        instr_by_level.push((level, report.counters.instructions));
    }
    // Typed may never exceed baseline by more than its one-time setup
    // (SPRs + 8 TRT rules pushed at launch, Section 3.1). Checked Load has
    // no such bound: the paper itself reports it regressing on FP-heavy
    // code (Section 7.1, n-body).
    let baseline = instr_by_level[0].1;
    let typed = instr_by_level[2].1;
    const TYPED_SETUP_ALLOWANCE: u64 = 100;
    assert!(
        typed <= baseline + TYPED_SETUP_ALLOWANCE,
        "typed retired {typed} instructions vs baseline {baseline} for:\n{src}"
    );
}

#[test]
fn integer_arithmetic() {
    check("print(1 + 2, 10 - 3, 6 * 7, 7 // 2, 7 % 3, -7 // 2, -7 % 3)");
    check("local a = 100 local b = 7 print(a + b * 2 - a // b)");
}

#[test]
fn float_arithmetic() {
    check("print(1.5 + 2.25, 1.5 * 2.0, 7.0 / 2.0, 0.5 - 1.5)");
    check("print(1 + 2.5, 2.5 + 1, 2 * 3.5, 3.5 - 1)"); // mixed pairs → slow path
    check("print(7 / 2)"); // int/int division is float
    check("print(7.5 % 2, 7.5 // 2)");
}

#[test]
fn string_coercion_figure_1a() {
    check("print(\"1\" + \"2\")");
    check("print(\"1.5\" * 2)");
}

#[test]
fn comparisons() {
    check("print(1 < 2, 2 <= 2, 3 == 3.0, 3 ~= 4, 2 > 1, 2 >= 3)");
    check("print(\"abc\" == \"abc\", \"a\" == \"b\", \"a\" < \"b\", \"ab\" <= \"aa\")");
    check("print(1.5 < 2.5, 1.5 <= 1.5, 1 < 1.5, 2.5 == 2.5)");
    check("print(nil == nil, nil == false, true == true)");
}

#[test]
fn logic_and_truthiness() {
    check("print(true and 1 or 2, false and 1 or 2, nil and 1 or 2)");
    check("local x = 0 if x then print(\"zero is truthy\") end");
    check("print(not nil, not false, not 0, not \"\")");
}

#[test]
fn control_flow() {
    check("local s = 0 for i = 1, 50 do s = s + i end print(s)");
    check("local s = 0 for i = 50, 1, -2 do s = s + i end print(s)");
    check("for x = 0.25, 1.0, 0.25 do write(x, \";\") end print(\"\")");
    check("local i = 0 while i < 32 do i = i + 5 end print(i)");
    check("local i = 0 while true do i = i + 1 if i >= 7 then break end end print(i)");
    check("if 1 > 2 then print(1) elseif 3 > 2 then print(2) else print(3) end");
}

#[test]
fn functions_and_recursion() {
    check("function add(x, y) return x + y end print(add(1, 2), add(1.5, 2.0))");
    check("function fib(n) if n < 2 then return n end return fib(n-1) + fib(n-2) end print(fib(16))");
    check("function noval() return end print(noval())");
    check(
        "function ack(m, n)
            if m == 0 then return n + 1 end
            if n == 0 then return ack(m - 1, 1) end
            return ack(m - 1, ack(m, n - 1))
        end
        print(ack(2, 3))",
    );
}

#[test]
fn tables_fast_paths() {
    check("local t = {1, 2, 3} print(t[1] + t[2] + t[3], #t)");
    check("local t = {} for i = 1, 40 do t[i] = i * i end local s = 0 for i = 1, 40 do s = s + t[i] end print(s, #t)");
    check("local t = {5} t[1] = t[1] + 1 print(t[1])");
}

#[test]
fn tables_slow_paths() {
    check("local t = {} t[\"name\"] = \"lua\" t.version = 5.3 print(t.name, t[\"version\"], t.absent)");
    check("local t = {} t[100] = 7 print(t[100], t[99], #t)"); // sparse
    check("local t = {} t[2] = 2 t[1] = 1 print(#t, t[1], t[2])"); // absorption
    check("local t = {1.5, \"two\", true} print(t[1], t[2], t[3])");
    check("local t = {} insert(t, 10) insert(t, 20) insert(t, 30) print(#t, t[2])");
}

#[test]
fn nested_tables() {
    check("local m = {{1, 2}, {3, 4}} print(m[1][2], m[2][1])");
    check("local m = {} for i = 1, 5 do m[i] = {} for j = 1, 5 do m[i][j] = i * j end end print(m[3][4], m[5][5])");
}

#[test]
fn strings_and_builtins() {
    check("print(sub(\"typed architectures\", 7, 9), len(\"abc\"), #\"hello\")");
    check("print(\"a\" .. \"b\" .. 12 .. 3.5)");
    check("print(char(72), byte(\"H\"), byte(\"Hi\", 2))");
    check("print(floor(9.9), floor(-9.9), sqrt(144), abs(-5), min(3, 8), max(3, 8))");
    check("print(tostring(42), tostring(nil), tostring(1.25))");
}

#[test]
fn globals() {
    check("g = 5 function bump() g = g + 1 end bump() bump() print(g)");
    check("print(undefined_global)");
}

#[test]
fn unary_ops() {
    check("local x = 5 print(-x, -(-x))");
    check("local y = 2.5 print(-y)");
    check("print(-\"3\")"); // string coercion through the slow path
}

#[test]
fn deep_expression_nesting() {
    check("print(((1 + 2) * (3 + 4) - (5 - 6)) * ((7 + 8) // (2 + 1)))");
    check("local a = 1 local b = 2 local c = 3 local d = 4 print((a+b)*(c+d), (a*c)+(b*d), a+b*c-d)");
}

#[test]
fn typed_counters_behave() {
    // A pure-integer loop: the typed engine must hit the TRT, never miss.
    let src = "local s = 0 for i = 1, 200 do s = s + i * 2 end print(s)";
    let chunk = parse(src).unwrap();
    let module = compile(&chunk).unwrap();
    let mut vm = LuaVm::new(&module, IsaLevel::Typed, CoreConfig::paper()).unwrap();
    let r = vm.run(MAX_STEPS).unwrap();
    assert_eq!(r.output, "40200\n");
    assert!(r.counters.type_hits >= 400, "ADD+MUL per iteration: {:?}", r.counters.type_hits);
    assert_eq!(r.counters.type_misses, 0);
    assert_eq!(r.counters.overflow_misses, 0);

    // Mixed-type arithmetic must produce type misses.
    let src = "local s = 0.0 for i = 1, 50 do s = s + i end print(s)";
    let chunk = parse(src).unwrap();
    let module = compile(&chunk).unwrap();
    let mut vm = LuaVm::new(&module, IsaLevel::Typed, CoreConfig::paper()).unwrap();
    let r = vm.run(MAX_STEPS).unwrap();
    assert_eq!(r.output, "1275\n");
    assert!(r.counters.type_misses >= 50, "mixed adds must miss: {}", r.counters.type_misses);
}

#[test]
fn checked_load_counters_behave() {
    let src = "local s = 0 for i = 1, 100 do s = s + i end print(s)";
    let chunk = parse(src).unwrap();
    let module = compile(&chunk).unwrap();
    let mut vm = LuaVm::new(&module, IsaLevel::CheckedLoad, CoreConfig::paper()).unwrap();
    let r = vm.run(MAX_STEPS).unwrap();
    assert_eq!(r.output, "5050\n");
    assert!(r.counters.chklb_checks >= 200);
    assert_eq!(r.counters.chklb_misses, 0);

    // Float adds always miss the fixed Int fast path.
    let src = "local s = 0.0 for i = 1, 50 do s = s + 1.5 end print(s)";
    let chunk = parse(src).unwrap();
    let module = compile(&chunk).unwrap();
    let mut vm = LuaVm::new(&module, IsaLevel::CheckedLoad, CoreConfig::paper()).unwrap();
    let r = vm.run(MAX_STEPS).unwrap();
    assert_eq!(r.output, "75\n");
    assert!(r.counters.chklb_misses >= 50);
}

#[test]
fn profiled_run_attributes_bytecodes() {
    let src = "local s = 0 for i = 1, 100 do s = s + i end print(s)";
    let chunk = parse(src).unwrap();
    let module = compile(&chunk).unwrap();
    let mut vm = LuaVm::new(&module, IsaLevel::Baseline, CoreConfig::paper()).unwrap();
    let r = vm.run_profiled(MAX_STEPS).unwrap();
    let profile = r.profile.expect("profile requested");
    assert_eq!(profile.dynamic.get(&luart::Op::Add).copied(), Some(100));
    // 100 iterations + the final exit test.
    assert_eq!(profile.dynamic.get(&luart::Op::ForLoop).copied(), Some(101));
    assert!(profile.instr_per_bytecode(luart::Op::Add) > 10.0);
    assert!(profile.total_bytecodes() > 200);
}

#[test]
fn runtime_errors_are_reported() {
    let src = "local t = nil print(t[1])";
    let chunk = parse(src).unwrap();
    let module = compile(&chunk).unwrap();
    let mut vm = LuaVm::new(&module, IsaLevel::Typed, CoreConfig::paper()).unwrap();
    let err = vm.run(MAX_STEPS).unwrap_err();
    assert!(err.to_string().contains("index a nil"), "{err}");

    let src = "print(7 // 0)";
    let chunk = parse(src).unwrap();
    let module = compile(&chunk).unwrap();
    let mut vm = LuaVm::new(&module, IsaLevel::Baseline, CoreConfig::paper()).unwrap();
    let err = vm.run(MAX_STEPS).unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
}

#[test]
fn stack_overflow_is_caught() {
    let src = "function f(n) return f(n + 1) end print(f(0))";
    let chunk = parse(src).unwrap();
    let module = compile(&chunk).unwrap();
    let mut vm = LuaVm::new(&module, IsaLevel::Baseline, CoreConfig::paper()).unwrap();
    let err = vm.run(MAX_STEPS).unwrap_err();
    assert!(err.to_string().contains("stack overflow"), "{err}");
}
