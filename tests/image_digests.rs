//! Golden interpreter images: every image each engine builds must stay
//! byte-identical unless a change means to move it.
//!
//! A job key hashes the workload, engine, level and configuration, not the
//! code generator. An image that changed by mistake would therefore be
//! served from a stale result cache; this test catches it first.
//!
//! Each image is digested with FNV-1a 64 over its text and data bases,
//! entry point, text words, data bytes, interned strings in order, and
//! every symbol whose address lies in the text section. Data-section
//! labels need no entry of their own: the text and data bytes that
//! reference them already carry their addresses. One digest is kept per
//! (engine, level), over the 11 workloads at test and default scale and
//! the sample programs below, in that order. `wasmrt` skips the programs
//! it rejects at compile time.
//!
//! The same digests check each engine's claim to build one image at every
//! level, on which the harness relies to simulate one level for all.

use tarch_bench::workloads::{self, Scale};
use tarch_core::IsaLevel;
use tarch_fleet::level_invariant;
use tarch_isa::asm::Program;
use tarch_runner::EngineKind;

/// Sample programs covering what the workloads reach only in part: the
/// type-pair loops of Figure 2(b), globals, calls, negative and float
/// `for` steps, table operations including `insert`, and constants of
/// every kind.
const SAMPLES: [&str; 6] = [
    // Figure 2(b)'s arithmetic type pairs.
    "local s = 0 for i = 1, 400 do s = s + i s = s - 1 s = s * 1 end print(s)
     local f = 0.5 for i = 1, 400 do f = f + 0.5 f = f - 0.25 f = f * 1.0 end print(f)
     local m = 0.5 for i = 1, 400 do m = m + 1 end print(m)",
    // Figure 2(b)'s table type pairs.
    "local t = {1} local s = 0 for i = 1, 400 do t[1] = i s = s + t[1] end print(s)
     local u = {} u.k = 0 local r = 0 for i = 1, 400 do u.k = i r = r + u.k end print(r)",
    // Globals, with string, float and out-of-int32 constants.
    "count = 0 name = 'g' big = 3000000000
     function bump(by) count = count + by return count end
     bump(2) bump(3) print(name .. count, big + 1, 2.5 * count)",
    // Calls: recursion, several arguments, early returns.
    "function fib(n) if n < 2 then return n end return fib(n - 1) + fib(n - 2) end
     function pick(a, b, c) if a > b then return c end return a - b end
     local x = 0 for i = 1, 5 do x = x + pick(i, 3, fib(i)) end print(fib(12), x)",
    // Negative and float `for` steps, floor division and modulo.
    "local s = 0 for i = 10, 1, -3 do s = s + i end
     local f = 0 for x = 0, 1, 0.25 do f = f + x end
     print(s, f, 17 // 5) print(-17 % 5, 7 / 2)",
    // Table operations: constructors, `insert`, `#`, string keys, nesting.
    "local t = {} for i = 1, 10 do insert(t, i * 2) end
     local n = {t, {3, 4}} n[2][3] = 5 local r = {} r.name = 'x'
     local total = 0 for i = 1, #t do total = total + t[i] end
     print(#t, t[3], total, #n[2]) print(r.name, n[1][10] == 20, not n[3])",
];

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn fold_image(h: &mut Fnv, program: &Program, strings: &[String]) {
    h.u64(program.text_base);
    h.u64(program.data_base);
    h.u64(program.entry);
    for word in &program.text {
        h.bytes(&word.to_le_bytes());
    }
    h.u64(program.data.len() as u64);
    h.bytes(&program.data);
    h.u64(strings.len() as u64);
    for s in strings {
        h.u64(s.len() as u64);
        h.bytes(s.as_bytes());
    }
    let text_end = program.text_base + 4 * program.text.len() as u64;
    for (name, &addr) in &program.symbols {
        if (program.text_base..text_end).contains(&addr) {
            h.bytes(name.as_bytes());
            h.u64(addr);
        }
    }
}

/// Every program of the digest, in order.
fn programs() -> Vec<String> {
    let ws = workloads::all();
    let mut srcs: Vec<String> = ws.iter().map(|w| w.source(Scale::Test)).collect();
    srcs.extend(ws.iter().map(|w| w.source(Scale::Default)));
    srcs.extend(SAMPLES.iter().map(|s| s.to_string()));
    srcs
}

/// Digests one engine's images at `level`; returns the digest and the
/// number of images built.
fn digest(engine: &str, level: IsaLevel) -> (u64, usize) {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut built = 0;
    for src in programs() {
        let chunk = miniscript::parse(&src).expect("parses");
        match engine {
            "lua" => {
                let image = luart::build_image(&luart::compile(&chunk).unwrap(), level).unwrap();
                fold_image(&mut h, &image.program, &image.strings);
            }
            "js" => {
                let image = jsrt::build_image(&jsrt::compile(&chunk).unwrap(), level).unwrap();
                fold_image(&mut h, &image.program, &image.strings);
            }
            _ => {
                let Ok(module) = wasmrt::compile(&chunk) else { continue };
                let image = wasmrt::build_image(&module, level).unwrap();
                fold_image(&mut h, &image.program, &image.strings);
            }
        }
        built += 1;
    }
    (h.0, built)
}

#[test]
fn every_interpreter_image_is_unchanged() {
    let golden: [(&str, IsaLevel, &str); 9] = [
        ("lua", IsaLevel::Baseline, "9c0cc80a8e620713"),
        ("lua", IsaLevel::CheckedLoad, "cdc78b7c35915599"),
        ("lua", IsaLevel::Typed, "7d4080d32cf35eb3"),
        ("js", IsaLevel::Baseline, "0e3fd4f122c54934"),
        ("js", IsaLevel::CheckedLoad, "8c0c704de1b786ad"),
        ("js", IsaLevel::Typed, "0c33c632d66b3fb9"),
        ("wasm", IsaLevel::Baseline, "2504d8959ded0def"),
        ("wasm", IsaLevel::CheckedLoad, "2504d8959ded0def"),
        ("wasm", IsaLevel::Typed, "2504d8959ded0def"),
    ];
    let mut total = 0;
    let mut moved = Vec::new();
    for (engine, level, want) in golden {
        let (d, built) = digest(engine, level);
        total += built;
        let got = format!("{d:016x}");
        if got != want {
            moved.push(format!("(\"{engine}\", IsaLevel::{level:?}, \"{got}\"), recorded {want}"));
        }
    }
    assert_eq!(total, 252, "images built");
    assert!(moved.is_empty(), "interpreter images moved:\n{}", moved.join("\n"));
}

/// An engine declared level-invariant (`tarch_fleet::level_invariant`) has
/// its plain cells at every level taken from one simulation, so its
/// images must agree at all three levels; an engine whose images differ
/// must not be declared.
#[test]
fn level_invariant_engines_build_one_image_at_every_level() {
    for (name, engine) in
        [("lua", EngineKind::Lua), ("js", EngineKind::Js), ("wasm", EngineKind::Wasm)]
    {
        let digests = IsaLevel::ALL.map(|level| digest(name, level).0);
        let one_image = digests.iter().all(|&d| d == digests[0]);
        assert_eq!(
            level_invariant(engine),
            one_image,
            "{name}: declared level-invariant {}, digests {digests:016x?}",
            level_invariant(engine)
        );
    }
    assert!(!level_invariant(EngineKind::Lua) && !level_invariant(EngineKind::Js));
    assert!(level_invariant(EngineKind::Wasm));
}
