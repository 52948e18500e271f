//! Empty offline stand-in for `crossbeam`; see `Cargo.toml`.
