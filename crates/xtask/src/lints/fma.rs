//! **fma-discipline**: `mul_add` is permitted only inside `*_avx2` kernels.
//!
//! Every bitwise-reproducibility contract in the workspace (ensemble
//! replica vs standalone run, four-lane FFT bundle vs one-lane line, SIMD
//! pair batches vs scalar loops) rests on the scalar expression trees using
//! plain `mul`/`add`/`sub` with IEEE rounding at every step. A single
//! `mul_add` in a scalar tree contracts two roundings into one and silently
//! changes the bits — the same way the paper's Section IV kernels lose
//! accuracy when their summation order drifts. Hardware-FMA intrinsics are
//! confined to `*_avx2` kernels (the FFT's two `combine_avx2` impls expand
//! one `combine_body!` FMA tree), where the scalar twin and the
//! equivalence/bitwise tests define the contract explicitly; `mul_add` in
//! their scalar tail loops is part of that same audited kernel body.

use super::source::{find_word, line_of, SourceFile};
use super::Violation;

pub fn run(sf: &SourceFile, out: &mut Vec<Violation>) {
    for pos in find_word(&sf.cleaned, "mul_add") {
        let sanctioned = sf.enclosing_fn(pos).is_some_and(|f| f.name.ends_with("_avx2"));
        if sanctioned {
            continue;
        }
        out.push(Violation {
            file: sf.path.clone(),
            line: line_of(&sf.cleaned, pos),
            lint: "fma-discipline",
            msg: "`mul_add` outside a `*_avx2` kernel: fused rounding breaks the \
                  scalar bitwise contracts (write the plain mul/add tree instead)"
                .to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::source::SourceFile;

    fn audit(path: &str, src: &str) -> Vec<super::Violation> {
        let mut out = Vec::new();
        super::run(&SourceFile::parse(path, src), &mut out);
        out
    }

    #[test]
    fn mul_add_in_scalar_fn_is_rejected() {
        let src = include_str!("../../fixtures/bad_fma.rs");
        let v = audit("bad_fma.rs", src);
        assert_eq!(v.len(), 2, "both scalar mul_adds flagged: {v:?}");
        assert!(v.iter().all(|x| x.lint == "fma-discipline"));
    }

    #[test]
    fn mul_add_in_avx2_kernel_passes() {
        let src = include_str!("../../fixtures/good_fma.rs");
        let v = audit("good_fma.rs", src);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn deliberate_mul_add_in_a_scalar_fft_lane_kernel_fails() {
        // The acceptance-criterion scenario: someone "optimizes" a lane
        // helper with mul_add. The audit must fail.
        let src = "fn mul4_scalar(a: [f64; 4], b: [f64; 4], c: [f64; 4]) -> [f64; 4] {\n\
                   \x20   let mut o = [0.0; 4];\n\
                   \x20   for l in 0..4 { o[l] = a[l].mul_add(b[l], c[l]); }\n\
                   \x20   o\n}\n";
        let v = audit("crates/fft/src/lanes.rs", src);
        assert_eq!(v.len(), 1, "got {v:?}");
        assert_eq!(v[0].lint, "fma-discipline");
    }

    #[test]
    fn mul_add_in_comment_or_string_not_flagged() {
        let src = "// mul_add would be wrong here\nfn f() { let _ = \"mul_add\"; }\n";
        assert!(audit("x.rs", src).is_empty());
    }
}
