//! Golden costs of the native runtime behind `ecall` on the paths the 11
//! workloads never reach: every builtin, the arithmetic, comparison,
//! concatenation and `#` slow paths, the table store's growth, absorb and
//! removal paths, globals and the float `for` loop.
//!
//! Each program runs on every engine at the Typed level. Its digest covers
//! the printed output and the counters a `Cost` formula moves
//! (instructions, cycles and their helper shares). The values were
//! recorded from the three engines' separate runtimes, before they were
//! written once as `luart::native`, so any change to a formula, a result
//! slot or a value encoding shows here.
//!
//! A wasm entry exists only for the programs `wasmrt` compiles: it
//! rejects string ordering and arithmetic, float `//` and float keys at
//! compile time.

use miniscript::{parse, Interp};
use tarch_core::{CoreConfig, IsaLevel};
use tarch_fleet::build_guest;
use tarch_runner::EngineKind;

const MAX_STEPS: u64 = 10_000_000;

/// A program and its digests on lua, js and wasm (`None`: not compiled).
struct Case {
    name: &'static str,
    src: &'static str,
    digests: [Option<u64>; 3],
}

const CASES: &[Case] = &[
    Case {
        name: "print_and_write_every_type",
        src: r#"
            local t = {}
            print(1, -2, 2.5, "s")
            print(true, false, nil, t)
            print()
            write(3, " ", 4.25, " ")
            write("w", true, nil, t)
            write("\n")
            print(12345678901, 1e20, 0.1, -0.5)
        "#,
        digests: [
            Some(0xe849_48f4_ba29_c632),
            Some(0xbc2f_241c_e43a_f9c4),
            Some(0x8c1c_ad1d_94cb_e035),
        ],
    },
    Case {
        name: "numeric_builtins",
        src: "
            print(floor(3.7), floor(-2.5), floor(4))
            print(abs(-3), abs(-2.5), abs(7))
            print(min(3, 1.5), max(2, 7), min(1, 2))
            print(max(1.5, 0.5), min(4, 4.0), max(-1, -1.5))
            print(sqrt(16), sqrt(2), sqrt(9.0), clock())
        ",
        digests: [
            Some(0xc421_3137_a6d1_544c),
            Some(0xe705_f818_3df7_8387),
            Some(0x4182_ec40_8713_65cb),
        ],
    },
    Case {
        name: "sqrt_of_a_negative",
        src: "
            local x = sqrt(-1)
            print(x ~= x)
            local t = {}
            t[1] = x
            print(t[1] ~= t[1], tostring(x ~= x))
        ",
        digests: [
            Some(0x9727_fb63_aff5_5e41),
            Some(0xbd0a_d76f_b36d_a236),
            Some(0xc77e_b497_41a8_50d6),
        ],
    },
    Case {
        name: "sub_with_negative_indices",
        src: r#"
            local s = "hello world"
            print(sub(s, 2, 4), sub(s, -5), sub(s, -5, -2), sub(s, 0))
            print(sub(s, 4, 2), sub(s, 7), sub(s, -100, 3), sub(s, 3, 100))
        "#,
        digests: [
            Some(0x7c5a_839e_46de_1e06),
            Some(0x80f8_c6de_d5fd_ac8b),
            Some(0x54f6_1f1d_fe2a_1b6e),
        ],
    },
    Case {
        name: "byte_char_len_tostring",
        src: r#"
            local s = "AB"
            print(byte(s), byte(s, 2), byte(s, 3))
            print(byte(s, 0), byte(s, -1))
            print(char(72), char(105), len(s), len("hello"))
            print(len({1, 2, 3}), tostring(12), tostring(1.5))
            print(tostring("x"), tostring(true))
        "#,
        digests: [
            Some(0xf72a_c9f3_5fd5_6ef4),
            Some(0x0d5b_46fe_00e4_d333),
            Some(0x090c_3c10_a75d_bc47),
        ],
    },
    Case {
        name: "insert_grows_the_array",
        src: "
            local t = {}
            for i = 1, 21 do insert(t, i * 2) end
            print(len(t), t[1], t[21], t[22])
        ",
        digests: [
            Some(0xc7b6_7423_9434_8409),
            Some(0xfc5d_8f98_c0f2_8fee),
            Some(0x7b26_258a_17a1_3648),
        ],
    },
    Case {
        name: "concat_of_int_float_and_string",
        src: r#"
            local i = 7
            local f = 2.25
            local s = "s"
            print(i .. i, f .. "x", "a" .. i, s .. f)
            print(s .. s, 1.0 .. "")
            local acc = ""
            for k = 1, 6 do acc = acc .. k end
            print(acc)
        "#,
        digests: [
            Some(0x7c31_ca36_90b1_6169),
            Some(0xd028_8aa1_fb66_0a92),
            Some(0xb648_9fbc_3e3f_395a),
        ],
    },
    Case {
        name: "string_ordering",
        src: r#"
            local a = "abc"
            local b = "abd"
            local c = "ab"
            print(a < b, a <= b, b < a, b <= a)
            print(a <= a, c < a, a < c)
        "#,
        digests: [Some(0x69bb_c320_1c13_e48f), Some(0xbd27_37dd_b829_cb50), None],
    },
    Case {
        name: "mixed_int_float_compare",
        src: "
            local i = 3
            local f = 3.0
            print(i == f, f == i, i < 3.5, 2.5 < i)
            print(f <= i, i ~= 4.0, 4.5 <= i)
        ",
        digests: [
            Some(0x7403_3092_4fb8_ab67),
            Some(0xcc60_54d1_c269_8308),
            Some(0xb1c0_16ea_65d2_65b3),
        ],
    },
    Case {
        name: "string_keys_get_and_set",
        src: r#"
            local t = {}
            t.alpha = 1
            t["beta"] = 2
            t.alpha = t.alpha + t.beta
            t.a_much_longer_key_name = 9
            print(t.alpha, t.beta, t.gamma, t.a_much_longer_key_name)
        "#,
        digests: [
            Some(0x0678_b81d_9166_ff6f),
            Some(0xf6d4_851d_8846_ceff),
            Some(0x5017_8b33_32ac_a594),
        ],
    },
    Case {
        name: "sparse_keys_absorbed_into_the_array",
        src: "
            local t = {}
            t[3] = 30
            t[2] = 20
            t[6] = 60
            t[1] = 10
            print(#t, t[4], t[6])
            t[5] = 50
            t[4] = 40
            print(#t, t[5], t[6])
            print(t[0], t[-1], t[100])
        ",
        digests: [
            Some(0x1593_38f4_8f05_b3c4),
            Some(0x0ac6_8e8a_dfd5_e405),
            Some(0x1877_114d_4271_d9fe),
        ],
    },
    Case {
        name: "array_growth_past_capacity",
        src: "
            local t = {}
            for i = 1, 40 do t[i] = i * i end
            local u = {1, 2, 3}
            u[4] = 4
            u[5] = 5
            print(#t, t[40], #u, u[5])
        ",
        digests: [
            Some(0xf01d_4351_3361_1fa9),
            Some(0x13d0_230d_56a4_db29),
            Some(0x353e_2b8e_2434_fd5c),
        ],
    },
    Case {
        name: "nil_write_removes_a_hash_key",
        src: "
            local t = {}
            t.k = 1
            t.k = nil
            local u = {}
            u[100] = 5
            u[100] = nil
            print(t.k, u[100])
            t.k = 2
            print(t.k)
        ",
        digests: [
            Some(0x1a78_2e6d_deca_fc0f),
            Some(0x5364_1507_2921_f88e),
            Some(0x3520_8689_eccd_c2f0),
        ],
    },
    Case {
        name: "globals_and_string_length",
        src: r#"
            g = 5
            function bump() g = g + 1 return g end
            print(bump(), bump(), g)
            local s = "hello" .. "world"
            print(#s, #"abc", #"")
        "#,
        digests: [
            Some(0xb956_0c84_af90_4c72),
            Some(0xe309_22fb_5804_5b2f),
            Some(0xb836_8110_ae59_cfc0),
        ],
    },
    Case {
        name: "float_for_loop",
        src: r#"
            for x = 0.5, 2.5, 0.5 do write(x, " ") end
            print()
            for i = 1, 2.5 do write(i, " ") end
            print()
            for x = 3, 1.5, -0.5 do write(x, " ") end
            print()
        "#,
        digests: [
            Some(0x3b0f_8f65_e1ff_bffd),
            Some(0x3626_914b_520b_6492),
            Some(0x9f23_2d44_e8e6_a437),
        ],
    },
    Case {
        name: "int32_overflow",
        src: "
            local x = 2147483647
            x = x + 1
            local y = 65536 * 65536
            local z = -2147483648 - 1
            print(x, y, z)
            print(x - 1, y // 65536, -z)
        ",
        digests: [
            Some(0xe582_f5a2_d681_82ef),
            Some(0xd41c_cd56_91b9_c55a),
            Some(0xa5f2_1618_10b6_d013),
        ],
    },
    Case {
        name: "division_and_negation",
        src: "
            local a = 7
            local b = 2.5
            print(a / 2, 1 / 4, -a, -b)
            print(a // 2, a % 3, -a // 2, -a % 3)
        ",
        digests: [
            Some(0x24a8_910c_c68b_47e0),
            Some(0x9310_afdd_a773_2608),
            Some(0x3e55_bb63_e758_5b44),
        ],
    },
    Case {
        name: "float_floor_division_and_modulo",
        src: "
            local a = 7.5
            local b = 2
            print(a // b, a % b, -a // b, -a % b)
            print(7 // 2.0, 7 % 2.5)
        ",
        digests: [Some(0xbcc4_1732_8fff_9fcc), Some(0xf4f0_1b00_f6aa_73c2), None],
    },
    Case {
        name: "string_coercion",
        src: r#"
            print("10" + 5, "3" * "4", "1.5" + 1, 10 / "4")
            print(-"2", "7" // 2, "7" % 3)
            print("2" < 3, 1 <= " 1.5 ")
        "#,
        digests: [Some(0x2730_2397_7a6a_adc9), Some(0xb3dd_2324_f1cf_9f10), None],
    },
    Case {
        name: "float_keys",
        src: r#"
            local t = {}
            t[1.0] = "a"
            t[2] = "b"
            print(t[1], t[2.0], #t)
        "#,
        digests: [Some(0x7c9d_918c_5ffa_fca9), Some(0x2356_58c0_a049_c589), None],
    },
];

/// FNV-1a 64 over the output and the four cost counters.
fn digest(output: &str, counters: [u64; 4]) -> u64 {
    let text = format!("{output}\0{counters:?}");
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
fn runtime_costs_are_unchanged() {
    let mut moved = Vec::new();
    for case in CASES {
        let chunk = parse(case.src).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        Interp::new().run(&chunk).unwrap_or_else(|e| panic!("{} (reference): {e}", case.name));
        for (engine, want) in EngineKind::ALL.into_iter().zip(case.digests) {
            let label = format!("{}/{}", case.name, engine.id());
            let built = build_guest(engine, case.src, IsaLevel::Typed, CoreConfig::paper());
            let Some(want) = want else {
                assert!(built.is_err(), "{label}: compiles now; record its digest");
                continue;
            };
            let mut guest = built.unwrap_or_else(|e| panic!("{label}: {e}"));
            let r = guest.run(MAX_STEPS).unwrap_or_else(|e| panic!("{label}: {e}"));
            let c = r.counters;
            let got = digest(
                &r.output,
                [c.instructions, c.cycles, c.helper_instructions, c.helper_cycles],
            );
            if got != want {
                moved.push(format!("{label}: {got:#018x}"));
            }
        }
    }
    assert!(moved.is_empty(), "runtime costs moved:\n{}", moved.join("\n"));
}
