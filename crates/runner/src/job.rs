//! The job model: one simulation cell and its stable content key.

use std::fmt::{self, Write as _};
use tarch_core::{CoreConfig, IsaLevel};

/// Bumped whenever the key derivation or the cached result layout
/// changes; part of every content key, so stale cache entries from an
/// older layout simply miss.
///
/// History: `1` → `2` when [`CellResult`](crate::CellResult) grew the
/// optional `trace` summary and `CoreConfig` the `trace` field (the
/// config's `Debug` rendering — and with it every key — changed shape).
/// `2` → `3` when `CoreConfig` grew the tier-3 fields (`tier`,
/// `tier_threshold`) and `CellResult` the per-cell `tier` attribution —
/// pre-tier cache entries describe a different machine and must miss.
/// `3` → `4` when `CoreConfig` grew the `pgo` profile (in the key via
/// the config's `Debug` rendering, so differently-profiled runs never
/// share an entry) and `CellResult` the per-cell `tier_deopts` count.
/// `4` → `5` when [`EngineKind`] grew the `Wasm` variant — engine ids
/// now draw from a three-value set, and artifacts written by the
/// two-engine layout must not satisfy three-engine requests.
pub const KEY_SCHEMA: u32 = 5;

/// Which scripting engine runs the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EngineKind {
    /// `luart`, the register-based Lua-like engine.
    Lua,
    /// `jsrt`, the stack-based NaN-boxing engine (SpiderMonkey stand-in).
    Js,
    /// `wasmrt`, the statically typed WASM-subset engine (no tags, no
    /// typed-hardware activity — the static-typing control group).
    Wasm,
}

impl EngineKind {
    /// All engines, Lua first (the paper's figure order), then the
    /// static-typing control group.
    pub const ALL: [EngineKind; 3] = [EngineKind::Lua, EngineKind::Js, EngineKind::Wasm];

    /// Display name used in figures.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Lua => "Lua",
            EngineKind::Js => "SpiderMonkey-like (JS)",
            EngineKind::Wasm => "WASM-like (static)",
        }
    }

    /// Stable machine-readable identifier used in keys and artifacts.
    pub fn id(self) -> &'static str {
        match self {
            EngineKind::Lua => "lua",
            EngineKind::Js => "js",
            EngineKind::Wasm => "wasm",
        }
    }

    /// Parses an [`EngineKind::id`] spelling.
    pub fn parse(s: &str) -> Option<EngineKind> {
        EngineKind::ALL.into_iter().find(|e| e.id() == s)
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Input scale for a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny inputs for unit/integration tests.
    Test,
    /// Simulator-friendly defaults used by `repro`.
    Default,
    /// The paper's Table 7 inputs.
    Full,
}

impl Scale {
    /// Stable machine-readable identifier used in keys and artifacts.
    pub fn id(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Default => "default",
            Scale::Full => "full",
        }
    }

    /// Parses a [`Scale::id`] spelling.
    pub fn parse(s: &str) -> Option<Scale> {
        [Scale::Test, Scale::Default, Scale::Full].into_iter().find(|x| x.id() == s)
    }
}

/// 128-bit content key identifying one simulation's inputs.
///
/// Derived from everything that determines the simulated result: the
/// program source text, engine, ISA level, profiled flag, and the full
/// [`CoreConfig`] (via its `Debug` rendering, which covers every field).
/// Two jobs with the same key produce byte-identical results, which is
/// the cache's soundness condition. The key does **not** cover the
/// simulator *code*: after changing simulator semantics, run with the
/// cache disabled or delete the cache directory (see EXPERIMENTS.md).
///
/// The two halves are FNV-1a 64 over the same canonical bytes from two
/// offset bases, computed in one pass: the canonical fields are
/// formatted straight into a hashing sink that advances both lanes per
/// byte, so no canonical string is ever built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobKey(pub u64, pub u64);

impl JobKey {
    /// 32-hex-digit rendering; doubles as the cache file stem.
    pub fn hex(&self) -> String {
        self.to_string()
    }

    /// Hashes the canonical bytes of one job; `config` is the core
    /// config's `Debug` rendering, formatted on the fly or stored.
    fn derive(
        engine: EngineKind,
        level: IsaLevel,
        scale: Scale,
        profiled: bool,
        config: impl fmt::Display,
        source: &str,
    ) -> JobKey {
        let mut h = KeyHasher(0xcbf2_9ce4_8422_2325, 0x6c62_272e_07bb_0142);
        // \x1f separators prevent field-boundary ambiguity.
        write!(
            h,
            "v{KEY_SCHEMA}\x1f{}\x1f{}\x1f{}\x1f{}\x1f{config}\x1f{source}",
            engine.id(),
            level.name(),
            scale.id(),
            profiled,
        )
        .expect("hashing is infallible");
        JobKey(h.0, h.1)
    }

    /// Parses a [`JobKey::hex`] rendering: exactly 32 lowercase hex
    /// digits, so every key has one spelling.
    pub fn parse(s: &str) -> Option<JobKey> {
        if s.len() != 32 || !s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(JobKey(hi, lo))
    }
}

impl fmt::Display for JobKey {
    /// The [`JobKey::hex`] digits.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

/// The two FNV-1a 64 lanes of a [`JobKey`] as a formatting sink: every
/// byte written advances both lanes.
struct KeyHasher(u64, u64);

impl fmt::Write for KeyHasher {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(PRIME);
            self.1 = (self.1 ^ b as u64).wrapping_mul(PRIME);
        }
        Ok(())
    }
}

/// A [`CoreConfig`] with its `Debug` rendering, the part of every job key
/// that describes the simulated core. Rendering costs about as much as
/// hashing the rest of a key, so a job list renders each distinct config
/// once and builds its specs with [`JobSpec::from_rendered`].
#[derive(Debug)]
pub struct RenderedConfig<'c> {
    config: &'c CoreConfig,
    text: String,
}

impl<'c> RenderedConfig<'c> {
    /// Renders `config`.
    pub fn new(config: &'c CoreConfig) -> RenderedConfig<'c> {
        RenderedConfig { config, text: format!("{config:?}") }
    }
}

/// One runnable simulation cell: workload + engine + ISA level + scale +
/// profiled flag, plus the program source the key is derived from.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Workload name (Table 7 spelling).
    pub workload: String,
    /// Engine that runs it.
    pub engine: EngineKind,
    /// ISA level simulated.
    pub level: IsaLevel,
    /// Input scale.
    pub scale: Scale,
    /// Whether to collect the per-bytecode profile (Figure 9 runs).
    pub profiled: bool,
    /// MiniScript source at `scale`.
    pub source: String,
    /// Simulated core configuration the executor must use (covered by
    /// the content key via its `Debug` rendering).
    pub core: CoreConfig,
    /// Content key (see [`JobKey`]); empty-source specs loaded from an
    /// artifact keep the key recorded at run time.
    pub key: JobKey,
}

impl JobSpec {
    /// Builds a spec and derives its content key (see [`JobKey`]).
    pub fn new(
        workload: impl Into<String>,
        engine: EngineKind,
        level: IsaLevel,
        scale: Scale,
        profiled: bool,
        source: impl Into<String>,
        config: &CoreConfig,
    ) -> JobSpec {
        let source = source.into();
        let key = JobKey::derive(engine, level, scale, profiled, format_args!("{config:?}"), &source);
        let workload = workload.into();
        JobSpec { workload, engine, level, scale, profiled, source, core: config.clone(), key }
    }

    /// [`JobSpec::new`] with the config already rendered; the key is the
    /// same.
    pub fn from_rendered(
        workload: impl Into<String>,
        engine: EngineKind,
        level: IsaLevel,
        scale: Scale,
        profiled: bool,
        source: impl Into<String>,
        config: &RenderedConfig<'_>,
    ) -> JobSpec {
        let source = source.into();
        let key = JobKey::derive(engine, level, scale, profiled, &config.text, &source);
        let workload = workload.into();
        let core = config.config.clone();
        JobSpec { workload, engine, level, scale, profiled, source, core, key }
    }

    /// Display label for progress lines and diagnostics, e.g.
    /// `fibo/lua/typed` (with a `+prof` suffix for profiled runs).
    pub fn label(&self) -> String {
        let prof = if self.profiled { "+prof" } else { "" };
        format!("{}/{}/{}{prof}", self.workload, self.engine.id(), self.level.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(source: &str, profiled: bool) -> JobSpec {
        JobSpec::new(
            "fibo",
            EngineKind::Lua,
            IsaLevel::Typed,
            Scale::Test,
            profiled,
            source,
            &CoreConfig::paper(),
        )
    }

    #[test]
    fn key_is_stable_for_identical_inputs() {
        assert_eq!(spec("print(1)", false).key, spec("print(1)", false).key);
    }

    #[test]
    fn key_changes_with_any_input() {
        let base = spec("print(1)", false);
        assert_ne!(base.key, spec("print(2)", false).key, "source must affect key");
        assert_ne!(base.key, spec("print(1)", true).key, "profiled must affect key");
        let other_level = JobSpec::new(
            "fibo",
            EngineKind::Lua,
            IsaLevel::Baseline,
            Scale::Test,
            false,
            "print(1)",
            &CoreConfig::paper(),
        );
        assert_ne!(base.key, other_level.key, "level must affect key");
        let mut cfg = CoreConfig::paper();
        cfg.trt_entries = 16;
        let other_cfg = JobSpec::new(
            "fibo",
            EngineKind::Lua,
            IsaLevel::Typed,
            Scale::Test,
            false,
            "print(1)",
            &cfg,
        );
        assert_ne!(base.key, other_cfg.key, "core config must affect key");
    }

    #[test]
    fn key_hex_roundtrip() {
        let k = spec("print(1)", false).key;
        assert_eq!(JobKey::parse(&k.hex()), Some(k));
        assert_eq!(k.hex().len(), 32);
        assert_eq!(JobKey::parse("zz"), None);
    }

    #[test]
    fn key_parse_accepts_only_what_hex_emits() {
        let k = JobKey(0x0123_4567_89ab_cdef, 0xa);
        assert_eq!(JobKey::parse("0123456789abcdef000000000000000a"), Some(k));
        // `from_str_radix` alone takes a sign and either case, so these
        // would parse to keys whose `hex()` differs from the input.
        for other in [
            "+00000000000000a+00000000000000b",
            "-00000000000000a000000000000000b",
            "0123456789ABCDEF000000000000000A",
            "0123456789abcdef000000000000000 ",
            "0123456789abcdef000000000000000a0",
        ] {
            assert_eq!(JobKey::parse(other), None, "{other}");
        }
    }

    #[test]
    fn rendered_config_gives_the_same_key() {
        let mut cfg = CoreConfig::paper();
        cfg.tier = false;
        let rendered = RenderedConfig::new(&cfg);
        for (source, profiled) in [("print(1)", false), ("print(2)", true)] {
            let a = JobSpec::new("w", EngineKind::Js, IsaLevel::Typed, Scale::Test, profiled, source, &cfg);
            let b = JobSpec::from_rendered(
                "w",
                EngineKind::Js,
                IsaLevel::Typed,
                Scale::Test,
                profiled,
                source,
                &rendered,
            );
            assert_eq!(a.key, b.key);
            assert!(!b.core.tier);
        }
    }

    #[test]
    fn ids_roundtrip() {
        for e in EngineKind::ALL {
            assert_eq!(EngineKind::parse(e.id()), Some(e));
        }
        for s in [Scale::Test, Scale::Default, Scale::Full] {
            assert_eq!(Scale::parse(s.id()), Some(s));
        }
        assert_eq!(EngineKind::parse("nope"), None);
    }

    #[test]
    fn label_format() {
        assert_eq!(spec("x", false).label(), "fibo/lua/typed");
        assert_eq!(spec("x", true).label(), "fibo/lua/typed+prof");
    }
}
