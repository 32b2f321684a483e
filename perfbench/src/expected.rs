//! Result fingerprints recorded from the simulator: one line per cell or
//! fleet, `<key> <fnv64 of the fingerprint>`. A host-side change must
//! keep every simulated result, so these never move; a mismatch is a
//! failed op. After a deliberate change to the simulated model,
//! regenerate the file from the `observed` lines a failing run prints.

const RECORDED: &str = include_str!("../expected.txt");

pub fn fnv64(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Compares the fingerprint `text` of result `key` with the recording.
pub fn check(key: &str, text: &str) -> Result<(), String> {
    let got = fnv64(text);
    let want = RECORDED
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|rest| rest.strip_prefix(' ')));
    match want {
        Some(w) if w.trim() == got => Ok(()),
        Some(w) => Err(format!(
            "{key}: fingerprint {got}, recorded {}; observed: {key} {got}",
            w.trim()
        )),
        None => Err(format!(
            "{key}: no recorded fingerprint; observed: {key} {got}"
        )),
    }
}
