// R7 fixture: a justified escape hatch suppresses the diagnostic.
pub fn started() -> std::time::Instant {
    std::time::Instant::now() // ldp-lint: allow(r7) -- fixture exercises the escape hatch
}
pub fn wall() -> std::time::SystemTime {
    // ldp-lint: allow(sans-io) -- fixture exercises the alias form
    std::time::SystemTime::now()
}
