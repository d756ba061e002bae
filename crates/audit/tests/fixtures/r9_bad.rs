//! Fixture: one R9 (env-read) violation — an environment read outside
//! the sanctioned config files. The same bytes under a sanctioned path
//! are clean.

pub fn backend_override() -> Option<String> {
    std::env::var("STSL_FIXTURE_BACKEND").ok()
}
