//! `bench_ladder diff <old.json> <new.json>`: every workload x end-to-end
//! metric as a ratio with its base and a verdict from the benchmark's own
//! bounds; per-layer metrics as ratios without a verdict.

use crate::host::Host;
use crate::json::Value;
use crate::schema::{validate, END_TO_END, SCHEMA};
use crate::workloads::WORKLOADS;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// Run-to-run spread exceeds the bound and the two files' ranges
    /// overlap: the medians cannot be told apart.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median with the range of the samples behind it and their run-to-run
/// spread (interquartile range over the median, as the driver measures it;
/// `(max - min) / median` when the document carries no quartiles).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub spread: f64,
}

impl Sample {
    fn from_metric(m: &Value) -> Option<Sample> {
        let median = m.get("value")?.as_f64()?;
        let min = m.get("min").and_then(Value::as_f64).unwrap_or(median);
        let max = m.get("max").and_then(Value::as_f64).unwrap_or(median);
        let width = match (m.get("q1").and_then(Value::as_f64), m.get("q3").and_then(Value::as_f64))
        {
            (Some(q1), Some(q3)) => q3 - q1,
            _ => max - min,
        };
        Some(Sample { median, min, max, spread: width / median.abs().max(f64::MIN_POSITIVE) })
    }
}

/// Judge `new` against `old`. A median that worsened by more than `bound`
/// (as a share of the old median) is worse, one that improved by more is
/// better. When either file's own run-to-run spread exceeds the bound the
/// medians are only trusted if the min-max ranges do not overlap at all.
pub fn verdict(old: Sample, new: Sample, higher_is_better: bool, bound: f64) -> Verdict {
    // Orient so that larger always means worse.
    let (o, n) = if higher_is_better {
        (
            Sample { median: -old.median, min: -old.max, max: -old.min, ..old },
            Sample { median: -new.median, min: -new.max, max: -new.min, ..new },
        )
    } else {
        (old, new)
    };
    let worsening = (n.median - o.median) / old.median.abs().max(f64::MIN_POSITIVE);
    let by_median = if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    if old.spread.max(new.spread) <= bound {
        return by_median;
    }
    let all_worse = n.min > o.max;
    let all_better = n.max < o.min;
    match by_median {
        Verdict::Worse if all_worse => Verdict::Worse,
        Verdict::Better if all_better => Verdict::Better,
        Verdict::Same if all_worse || all_better => Verdict::Same,
        _ => Verdict::Unresolved,
    }
}

/// Why two documents cannot be compared (exit code 2), if they cannot.
pub fn refusal(old: &Value, new: &Value) -> Option<String> {
    for (label, doc) in [("old", old), ("new", new)] {
        if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Some(format!("{label} file is not a single `{SCHEMA}` document"));
        }
        let problems = validate(doc);
        if !problems.is_empty() {
            return Some(format!("{label} file is invalid: {}", problems.join("; ")));
        }
        if doc.get("smoke").and_then(Value::as_bool) != Some(false) {
            return Some(format!(
                "{label} file is a smoke run (tiny shapes); its numbers mean nothing"
            ));
        }
    }
    let fp = |d: &Value| d.get("host").and_then(Host::fingerprint);
    if fp(old) != fp(new) {
        return Some(format!(
            "host fingerprints differ (nproc, T, SIMD, LLC): {:?} vs {:?}",
            fp(old),
            fp(new)
        ));
    }
    if old.get("constants") != new.get("constants") {
        return Some("frozen workload constants differ".into());
    }
    None
}

pub struct Report {
    pub text: String,
    pub worse: usize,
    pub unresolved: usize,
}

/// Compare two comparable documents (see [`refusal`]).
pub fn compare(old: &Value, new: &Value) -> Report {
    let mut text = String::new();
    let (mut worse, mut unresolved) = (0, 0);
    let entry = |doc: &'_ Value, w: &str| doc.get("workloads").and_then(|x| x.get(w)).cloned();
    let _ = writeln!(
        text,
        "end-to-end (ratio = new / old; bound = allowed worsening of the old median)"
    );
    for (workload, _) in WORKLOADS {
        let (Some(o), Some(n)) = (entry(old, workload), entry(new, workload)) else { continue };
        for m in END_TO_END {
            let get = |e: &Value| {
                e.get("end_to_end").and_then(|x| x.get(m.name)).and_then(Sample::from_metric)
            };
            let (Some(os), Some(ns)) = (get(&o), get(&n)) else { continue };
            let v = verdict(os, ns, m.better == "higher", m.bound);
            worse += usize::from(v == Verdict::Worse);
            unresolved += usize::from(v == Verdict::Unresolved);
            let _ = writeln!(
                text,
                "  {workload:<13} {:<14} {:>12.5} -> {:>12.5} {:<8} x{:.4} of base {:.5} [{:.5}, {:.5}] -> [{:.5}, {:.5}] bound {:.2}  {}",
                m.name, os.median, ns.median, m.unit, ns.median / os.median, os.median, os.min, os.max, ns.min, ns.max, m.bound,
                v.label()
            );
        }
        // failed_share: any increase is a regression.
        let share = |e: &Value| {
            let f = e.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
            f / e.get("attempted").and_then(Value::as_f64).unwrap_or(1.0).max(1.0)
        };
        let (fo, fn_) = (share(&o), share(&n));
        let v = if fn_ > fo {
            worse += 1;
            Verdict::Worse
        } else if fn_ < fo {
            Verdict::Better
        } else {
            Verdict::Same
        };
        let _ = writeln!(text, "  {workload:<13} {:<14} {fo:>12.5} -> {fn_:>12.5} ratio    (any increase is worse)  {}", "failed_share", v.label());
    }
    let _ = writeln!(text, "per-layer (no verdict; ratio = new / old with its base)");
    for (workload, _) in WORKLOADS {
        let (Some(o), Some(n)) = (entry(old, workload), entry(new, workload)) else { continue };
        let (Some(ol), Some(nl)) = (
            o.get("per_layer").and_then(Value::as_obj).cloned(),
            n.get("per_layer").and_then(Value::as_obj).cloned(),
        ) else {
            continue;
        };
        for layer in crate::schema::per_layer() {
            let value = |m: &std::collections::BTreeMap<String, Value>| {
                m.get(&layer.name).and_then(|x| x.get("value")).and_then(Value::as_f64)
            };
            if let (Some(a), Some(b)) = (value(&ol), value(&nl)) {
                let _ = writeln!(
                    text,
                    "  {workload:<13} {:<42} {a:>14.6} -> {b:>14.6} {:<8} x{:.4} of base {a:.6}",
                    layer.name,
                    layer.unit,
                    b / a
                );
            }
        }
    }
    let _ = writeln!(text, "{worse} worse, {unresolved} unresolved");
    Report { text, worse, unresolved }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::tests::synthetic_doc;
    use crate::workloads::Constants;

    fn s(median: f64, min: f64, max: f64) -> Sample {
        Sample { median, min, max, spread: (max - min) / median }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        // Tight runs: the medians decide.
        assert_eq!(verdict(s(10.0, 9.9, 10.1), s(10.5, 10.4, 10.6), false, 0.10), Verdict::Same);
        assert_eq!(verdict(s(10.0, 9.9, 10.1), s(11.5, 11.4, 11.6), false, 0.10), Verdict::Worse);
        assert_eq!(verdict(s(10.0, 9.9, 10.1), s(8.5, 8.4, 8.6), false, 0.10), Verdict::Better);
        // Higher is better: the same numbers flip.
        assert_eq!(verdict(s(10.0, 9.9, 10.1), s(11.5, 11.4, 11.6), true, 0.10), Verdict::Better);
        assert_eq!(verdict(s(10.0, 9.9, 10.1), s(8.5, 8.4, 8.6), true, 0.10), Verdict::Worse);
        // Spread wider than the bound with overlapping ranges: unresolved,
        // whatever the medians say.
        assert_eq!(
            verdict(s(10.0, 8.0, 12.0), s(11.5, 9.0, 13.0), false, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(s(10.0, 8.0, 12.0), s(10.2, 9.0, 11.0), false, 0.10),
            Verdict::Unresolved
        );
        // ... unless every run of one side beats every run of the other.
        assert_eq!(verdict(s(10.0, 8.0, 12.0), s(14.0, 12.5, 15.0), false, 0.10), Verdict::Worse);
        assert_eq!(verdict(s(10.0, 8.0, 12.0), s(6.0, 5.0, 7.5), false, 0.10), Verdict::Better);
        assert_eq!(verdict(s(10.0, 8.0, 12.0), s(14.0, 12.5, 15.0), true, 0.10), Verdict::Better);
    }

    #[test]
    fn compare_flags_a_regressed_document_and_passes_an_equal_one() {
        let c = Constants::frozen();
        let base = synthetic_doc(1.0, &c);
        assert!(refusal(&base, &base).is_none());
        let same = compare(&base, &synthetic_doc(1.02, &c));
        assert_eq!((same.worse, same.unresolved), (0, 0), "{}", same.text);
        assert!(same.text.contains("periodic_run") && same.text.contains("fft.line_n64.ns"));
        // Everything 30 % larger: the lower-is-better metrics regress on
        // every workload, the higher-is-better ones improve.
        let slower = compare(&base, &synthetic_doc(1.3, &c));
        assert_eq!(slower.worse, 2 * 4, "{}", slower.text);
        assert!(slower.text.contains("better") && slower.text.contains("worse"));
    }

    #[test]
    fn refuses_smoke_foreign_hosts_and_changed_constants() {
        let c = Constants::frozen();
        let base = synthetic_doc(1.0, &c);
        let smoke = synthetic_doc(1.0, &Constants::smoke());
        assert!(refusal(&base, &smoke).unwrap().contains("smoke"));
        let mut other_host = base.clone();
        if let Value::Obj(top) = &mut other_host {
            let Some(Value::Obj(h)) = top.get_mut("host") else { unreachable!() };
            h.insert("nproc".into(), Value::Num(64.0));
        }
        assert!(refusal(&base, &other_host).unwrap().contains("fingerprint"));
        let mut other_constants = base.clone();
        if let Value::Obj(top) = &mut other_constants {
            let Some(Value::Obj(k)) = top.get_mut("constants") else { unreachable!() };
            k.insert("periodic_run.steps".into(), Value::Num(48.0));
        }
        assert!(refusal(&base, &other_constants).unwrap().contains("constants"));
        assert!(refusal(&Value::Null, &base).unwrap().contains("old file"));
    }
}
