//! Each telemetry tier's gate reads its environment variable.
//!
//! This file is its own test binary, so its process starts with every gate
//! unread and no other test's `set_enabled` can reach it: each tier's
//! `enabled()` must report exactly what its `DTR_*` variable says. Run
//! plainly, the test proves every tier is off; run with every variable set
//! to `1` (the all-tiers CI step), it proves every tier came on.

/// The gate rule: `1`, `true` or `on` (case-insensitive, surrounding
/// whitespace ignored) mean on; any other value, or none, means off.
fn requested(var: &str) -> bool {
    std::env::var(var).is_ok_and(|v| {
        let v = v.trim();
        v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on")
    })
}

#[test]
fn every_tier_follows_its_variable() {
    for (var, enabled) in [
        ("DTR_PROFILE", dtr_obs::enabled as fn() -> bool),
        ("DTR_JOURNAL", dtr_obs::journal::enabled),
        ("DTR_FLIGHT", dtr_obs::recorder::enabled),
        ("DTR_AUDIT", dtr_obs::audit::enabled),
    ] {
        assert_eq!(
            enabled(),
            requested(var),
            "{var}={:?}",
            std::env::var(var).ok()
        );
    }
}
