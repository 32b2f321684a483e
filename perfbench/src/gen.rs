//! Seeded generator of short MiniScript programs for the `scripts`
//! workload. Four shapes, each sized to retire roughly 10^4 to 10^5
//! simulated instructions: a sensor filter (float arithmetic over an
//! array), string-keyed counting (table hashing and concatenation),
//! recursion (calls and returns) and table building (allocation and
//! element access). Every program is type-stable, so the statically
//! typed `wasmrt` accepts it as well as the two dynamic engines, and
//! ends by printing its own id, so no two programs are the same.

use tarch_core::IsaLevel;
use tarch_runner::EngineKind;
use tarch_testkit::Rng;

/// One generated program and where it runs.
pub struct Script {
    pub shape: &'static str,
    pub source: String,
    pub engine: EngineKind,
    pub level: IsaLevel,
}

pub const SHAPES: [&str; 4] = ["sensor", "count", "recurse", "tables"];

/// The `n` programs of the stream for `seed`. Shapes, engines and ISA
/// levels come in equal shares, so every seed runs the same mix; the seed
/// deals them out to the programs and picks each program's constants.
pub fn corpus(seed: u64, n: u64) -> Vec<Script> {
    let mut kinds: Vec<u64> = (0..n).collect();
    let mut rng = Rng::new(seed);
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.range_usize(0, i + 1));
    }
    kinds
        .into_iter()
        .enumerate()
        .map(|(index, k)| script(seed, index as u64, k))
        .collect()
}

/// Program `index` of the stream for `seed`, of kind `k`: its shape,
/// engine and ISA level.
fn script(seed: u64, index: u64, k: u64) -> Script {
    let mut rng = Rng::new(crate::mix(seed, index));
    let shape = SHAPES[k as usize % SHAPES.len()];
    let k = k / SHAPES.len() as u64;
    let engine = EngineKind::ALL[k as usize % EngineKind::ALL.len()];
    let k = k / EngineKind::ALL.len() as u64;
    let level = IsaLevel::ALL[k as usize % IsaLevel::ALL.len()];
    let body = match shape {
        "sensor" => sensor(&mut rng),
        "count" => count(&mut rng),
        "recurse" => recurse(&mut rng),
        _ => tables(&mut rng),
    };
    Script {
        shape,
        source: format!("{body}print(\"id\", {index})\n"),
        engine,
        level,
    }
}

fn sensor(rng: &mut Rng) -> String {
    let seed = rng.range_u64(1, 139_968);
    let n = rng.range_u64(20, 130);
    let start = rng.range_f64(10.0, 30.0);
    let target = rng.range_f64(15.0, 35.0);
    let drift = rng.range_f64(0.005, 0.05);
    let amp = rng.range_f64(0.5, 4.0);
    let alpha = rng.range_f64(0.05, 0.5);
    let thr = (start + target) / 2.0;
    format!(
        "local seed = {seed}
local samples = {{}}
local level = {start:.3}
for i = 1, {n} do
    seed = (seed * 3877 + 29573) % 139968
    level = level + {drift:.4} * ({target:.3} - level)
    samples[i] = level + (seed / 139968 - 0.5) * {amp:.3}
end
local smooth = samples[1]
local alarms = 0
local sum = 0.0
for i = 1, {n} do
    smooth = smooth + {alpha:.3} * (samples[i] - smooth)
    sum = sum + smooth
    if smooth > {thr:.3} then alarms = alarms + 1 end
end
print(\"alarms\", alarms)
print(\"mean\", floor(sum / {n} * 1000))
"
    )
}

fn count(rng: &mut Rng) -> String {
    const ALPHABET: [&str; 8] = ["a", "c", "g", "t", "u", "x", "y", "z"];
    let m = rng.range_usize(2, 7);
    let syms: Vec<String> = ALPHABET[..m].iter().map(|s| format!("\"{s}\"")).collect();
    let seed = rng.range_u64(1, 139_968);
    let n = rng.range_u64(20, 130);
    let pairs = rng.range_u64(0, 2) == 1;
    let pair = if pairs {
        format!(
            "    if i % 2 == 0 then
        seed = (seed * 3877 + 29573) % 139968
        k = k .. syms[1 + seed % {m}]
    end
"
        )
    } else {
        String::new()
    };
    format!(
        "local syms = {{{}}}
local seed = {seed}
local counts = {{}}
for i = 1, {n} do
    seed = (seed * 3877 + 29573) % 139968
    local k = syms[1 + seed % {m}]
{pair}    local c = counts[k]
    if c == nil then counts[k] = 1 else counts[k] = c + 1 end
end
for i = 1, {m} do
    local c = counts[syms[i]]
    if c == nil then c = 0 end
    print(syms[i] .. \" \" .. c)
end
",
        syms.join(", ")
    )
}

fn recurse(rng: &mut Rng) -> String {
    match rng.range_u64(0, 3) {
        0 => {
            let base = rng.range_u64(2, 4);
            let add = rng.range_u64(0, 3);
            let n = rng.range_u64(8, 13);
            format!(
                "function fib(n)
    if n < {base} then return n end
    return fib(n - 1) + fib(n - 2) + {add}
end
print(fib({n}))
"
            )
        }
        1 => {
            let n = rng.range_u64(2, 7);
            format!(
                "function ack(m, n)
    if m == 0 then return n + 1 end
    if n == 0 then return ack(m - 1, 1) end
    return ack(m - 1, ack(m, n - 1))
end
print(ack(2, {n}))
"
            )
        }
        _ => {
            let x = rng.range_u64(6, 10);
            let y = rng.range_u64(2, 5);
            let z = rng.range_u64(0, 3);
            format!(
                "function tak(x, y, z)
    if y >= x then return z end
    return tak(tak(x - 1, y, z), tak(y - 1, z, x), tak(z - 1, x, y))
end
print(tak({x}, {y}, {z}))
"
            )
        }
    }
}

fn tables(rng: &mut Rng) -> String {
    if rng.range_u64(0, 2) == 0 {
        let depth = rng.range_u64(2, 6);
        let item = rng.range_u64(0, 50);
        format!(
            "function build(item, depth)
    if depth > 0 then
        local node = {{item, 0, 0}}
        node[2] = build(item + item - 1, depth - 1)
        node[3] = build(item + item, depth - 1)
        return node
    end
    return {{item, 0, 0}}
end
function check(node)
    local left = node[2]
    if left == 0 then return node[1] end
    return node[1] + check(left) - check(node[3])
end
print(\"check \" .. check(build({item}, {depth})))
"
        )
    } else {
        let n = rng.range_u64(30, 220);
        let a = rng.range_u64(3, 97);
        let m = rng.range_u64(50, 1000);
        let thr = rng.range_u64(0, m);
        format!(
            "local t = {{}}
for i = 1, {n} do t[i] = (i * {a}) % {m} end
local s = 0
local hits = 0
for i = 1, #t do
    if t[i] > {thr} then
        s = s + t[i]
        hits = hits + 1
    end
end
print(#t, hits, s)
"
        )
    }
}
