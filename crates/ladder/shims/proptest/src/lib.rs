//! Empty offline stand-in for `proptest`; see `Cargo.toml`.
