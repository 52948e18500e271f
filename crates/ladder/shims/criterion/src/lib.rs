//! Empty offline stand-in for `criterion`; see `Cargo.toml`.
