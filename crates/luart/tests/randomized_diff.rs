//! Randomized differential testing: random arithmetic/comparison
//! expression programs must behave identically (same output or same
//! error-ness) under the reference interpreter and the compiled bytecode
//! executed by the simulated interpreter at all three ISA levels. This
//! fuzzes the compiler's register allocation, RK folding and operator
//! lowering, and each level's handlers, against the language semantics.
//!
//! Expressions are drawn from a seeded deterministic generator
//! ([`tarch_testkit::Rng`]) so every run covers the same corpus and any
//! failure reproduces exactly.

use luart::LuaVm;
use miniscript::{parse, Interp};
use tarch_core::{CoreConfig, IsaLevel};
use tarch_testkit::Rng;

/// A small expression AST rendered to MiniScript source.
#[derive(Debug, Clone)]
enum E {
    Int(i32),
    Float(f64),
    Bin(&'static str, Box<E>, Box<E>),
    Neg(Box<E>),
}

impl E {
    fn render(&self) -> String {
        match self {
            E::Int(v) => format!("{v}"),
            E::Float(v) => {
                // Keep literals parseable (always with a decimal point).
                let s = format!("{v}");
                if s.contains('.') || s.contains('e') {
                    s
                } else {
                    format!("{s}.0")
                }
            }
            E::Bin(op, a, b) => format!("({} {op} {})", a.render(), b.render()),
            E::Neg(a) => format!("(-{})", a.render()),
        }
    }
}

const BIN_OPS: [&str; 10] = ["+", "-", "*", "/", "//", "%", "<", "<=", "==", "~="];

/// Random expression with at most `depth` levels of nesting; leaves are
/// small ints or quarter-rounded floats, like the proptest strategy this
/// replaces.
fn random_expr(rng: &mut Rng, depth: u32) -> E {
    let leaf = depth == 0 || rng.range_u64(0, 3) == 0;
    if leaf {
        if rng.bool() {
            E::Int(rng.range_i32(-50, 50))
        } else {
            E::Float((rng.range_f64(-8.0, 8.0) * 4.0).round() / 4.0)
        }
    } else if rng.range_u64(0, 5) == 0 {
        E::Neg(Box::new(random_expr(rng, depth - 1)))
    } else {
        let op = *rng.choice(&BIN_OPS);
        E::Bin(
            op,
            Box::new(random_expr(rng, depth - 1)),
            Box::new(random_expr(rng, depth - 1)),
        )
    }
}

fn reference(src: &str) -> Result<String, String> {
    let chunk = parse(src).map_err(|e| e.to_string())?;
    let mut i = Interp::new();
    i.run(&chunk).map_err(|e| e.to_string())?;
    Ok(i.output().to_string())
}

fn simulated(src: &str, level: IsaLevel) -> Result<String, String> {
    let mut vm = LuaVm::from_source(src, level, CoreConfig::paper()).map_err(|e| e.to_string())?;
    Ok(vm.run(10_000_000).map_err(|e| e.to_string())?.output)
}

fn assert_agree(src: &str) {
    let want = reference(src);
    for level in IsaLevel::ALL {
        match (&want, simulated(src, level)) {
            (Ok(a), Ok(b)) => assert_eq!(*a, b, "{level}: source: {src}"),
            (Err(_), Err(_)) => {} // both reject (e.g. n//0, bool arithmetic)
            (a, b) => panic!("{level}: divergence for {src}: {a:?} vs {b:?}"),
        }
    }
}

/// Random expressions: both executions agree on the printed value, or
/// both fail (division by zero, comparison across types, …).
#[test]
fn expressions_agree() {
    let mut rng = Rng::new(0x10a9_7e57);
    for _ in 0..256 {
        let e = random_expr(&mut rng, 4);
        // Comparisons produce booleans which cannot feed arithmetic, so
        // print the expression directly; errors must then match too.
        assert_agree(&format!("print({})", e.render()));
    }
}

/// Random expressions assigned through locals and re-read: exercises
/// register allocation and temporary recycling.
#[test]
fn locals_roundtrip() {
    let mut rng = Rng::new(0x10a9_7e58);
    for _ in 0..256 {
        let e1 = random_expr(&mut rng, 4);
        let e2 = random_expr(&mut rng, 4);
        assert_agree(&format!(
            "local a = {} local b = {} if a == a and b == b then print(a, b) end",
            e1.render(),
            e2.render()
        ));
    }
}
