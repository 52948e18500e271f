//! The host block of a `hibd-bench-v1` document and the thread policy.

use crate::json::Value;

/// Facts about the machine a document was measured on. `nproc`, `threads`,
/// `simd` and `llc_bytes` form the fingerprint `diff` compares.
#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    pub nproc: usize,
    /// `T`: the `RAYON_NUM_THREADS` every child runs with.
    pub threads: usize,
    pub simd: String,
    pub llc_bytes: u64,
    pub cpu_model: String,
}

/// `T = min(2, nproc)`: the reference host has two cores, and a fixed `T`
/// keeps documents from larger hosts comparable in shape.
pub fn threads_for(nproc: usize) -> usize {
    nproc.clamp(1, 2)
}

impl Host {
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        Host {
            nproc,
            threads: threads_for(nproc),
            simd: format!("{:?}", hibd_simd::level()),
            llc_bytes: llc_bytes(&cpuinfo),
            cpu_model: cpuinfo_field(&cpuinfo, "model name").unwrap_or("unknown").to_string(),
        }
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("nproc", self.nproc.into()),
            ("threads", self.threads.into()),
            ("simd", Value::str(&self.simd)),
            ("llc_bytes", Value::Num(self.llc_bytes as f64)),
            ("cpu_model", Value::str(&self.cpu_model)),
        ])
    }

    /// The comparable part of a host block read back from a document.
    pub fn fingerprint(host: &Value) -> Option<(u64, u64, String, u64)> {
        Some((
            host.get("nproc")?.as_f64()? as u64,
            host.get("threads")?.as_f64()? as u64,
            host.get("simd")?.as_str()?.to_string(),
            host.get("llc_bytes")?.as_f64()? as u64,
        ))
    }
}

fn cpuinfo_field<'a>(cpuinfo: &'a str, key: &str) -> Option<&'a str> {
    cpuinfo.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == key).then_some(v.trim())
    })
}

/// Parse a sysfs cache size such as `2048K` or `32M`.
fn parse_cache_size(text: &str) -> Option<u64> {
    let t = text.trim();
    let (digits, mult) = match t.as_bytes().last()? {
        b'K' => (&t[..t.len() - 1], 1 << 10),
        b'M' => (&t[..t.len() - 1], 1 << 20),
        b'G' => (&t[..t.len() - 1], 1 << 30),
        _ => (t, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

/// Last-level cache size: the largest unified/data cache sysfs reports for
/// cpu0, else `/proc/cpuinfo`'s `cache size`, else 0 (unknown).
fn llc_bytes(cpuinfo: &str) -> u64 {
    let mut best = 0;
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else { continue };
        let kind = std::fs::read_to_string(format!("{dir}/type")).unwrap_or_default();
        if kind.trim() != "Instruction" {
            best = best.max(parse_cache_size(&size).unwrap_or(0));
        }
    }
    if best == 0 {
        best = cpuinfo_field(cpuinfo, "cache size")
            .and_then(|v| parse_cache_size(&v.replace(" KB", "K")))
            .unwrap_or(0);
    }
    best
}

/// `/proc/loadavg`'s three averages, recorded before each run so a reader
/// can see whether something else was running.
pub fn loadavg() -> Value {
    let text = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    Value::Arr(
        text.split_whitespace()
            .take(3)
            .filter_map(|t| t.parse::<f64>().ok())
            .map(Value::Num)
            .collect(),
    )
}

/// `MemAvailable` in bytes (0 when unknown).
pub fn mem_available_bytes() -> u64 {
    let text = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("MemAvailable:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_and_cpuinfo_fields_parse() {
        assert_eq!(parse_cache_size("2048K\n"), Some(2048 << 10));
        assert_eq!(parse_cache_size("32M"), Some(32 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("big"), None);
        let info = "processor\t: 0\nmodel name\t: Test CPU @ 2GHz\ncache size\t: 1024 KB\n";
        assert_eq!(cpuinfo_field(info, "model name"), Some("Test CPU @ 2GHz"));
        assert_eq!(cpuinfo_field(info, "bogus"), None);
    }

    #[test]
    fn thread_policy_and_fingerprint_round_trip() {
        assert_eq!((threads_for(1), threads_for(2), threads_for(64)), (1, 2, 2));
        let h = Host {
            nproc: 2,
            threads: 2,
            simd: "Avx2".into(),
            llc_bytes: 1 << 20,
            cpu_model: "x".into(),
        };
        assert_eq!(Host::fingerprint(&h.to_json()), Some((2, 2, "Avx2".to_string(), 1 << 20)));
        assert_eq!(Host::fingerprint(&Value::Null), None);
    }
}
