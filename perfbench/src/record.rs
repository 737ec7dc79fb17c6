//! Digest records: the determinism digests a run leaves under `out/`, so
//! that every later run of the same binary on the same workload and seed
//! is checked against the first, across processes.
//!
//! A record is keyed by the workload, the seed and a hash of the running
//! executable, so a rebuilt program starts a fresh record instead of
//! failing against its predecessor's. It holds one `<name> <hex>` line per
//! digest; an untraced run records the pass digest, a traced run also the
//! registry digest.

use std::collections::BTreeMap;
use std::path::Path;

use crate::stats::Fnv;

/// Checks `digests` against the record for `workload` and `seed` under
/// `dir`, then stores the union of both. A digest that differs from the
/// recorded one is an error naming both values.
pub fn check(dir: &Path, workload: &str, seed: u64, digests: &[(&str, u64)]) -> Result<(), String> {
    let exe = std::env::current_exe().and_then(std::fs::read).map_err(|e| e.to_string())?;
    let mut build = Fnv::default();
    build.bytes(&exe);
    let path = dir.join("digests").join(format!("{workload}-seed{seed}-{:016x}.txt", build.0));
    let earlier = std::fs::read_to_string(&path).unwrap_or_default();
    let merged =
        merge(&earlier, digests).map_err(|e| format!("{e} (record {})", path.display()))?;
    std::fs::create_dir_all(path.parent().expect("the record has a directory"))
        .and_then(|()| std::fs::write(&path, merged))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The record `earlier` with `digests` added, or an error if one of them
/// differs from its recorded value.
fn merge(earlier: &str, digests: &[(&str, u64)]) -> Result<String, String> {
    let mut record: BTreeMap<String, u64> = earlier
        .lines()
        .filter_map(|line| {
            let (name, hex) = line.split_once(' ')?;
            Some((name.to_string(), u64::from_str_radix(hex, 16).ok()?))
        })
        .collect();
    for &(name, digest) in digests {
        match record.insert(name.to_string(), digest) {
            Some(before) if before != digest => {
                return Err(format!(
                    "{name} digest {digest:016x} differs from {before:016x} of an earlier run"
                ))
            }
            _ => {}
        }
    }
    Ok(record.iter().map(|(name, digest)| format!("{name} {digest:016x}\n")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_new_digests_and_rejects_changed_ones() {
        let first = merge("", &[("pass", 0xab)]).unwrap();
        assert_eq!(first, "pass 00000000000000ab\n");
        let both = merge(&first, &[("pass", 0xab), ("registry", 7)]).unwrap();
        assert_eq!(both, "pass 00000000000000ab\nregistry 0000000000000007\n");
        assert_eq!(merge(&both, &[("pass", 0xab)]).unwrap(), both);
        let err = merge(&both, &[("registry", 8)]).unwrap_err();
        assert!(err.contains("0000000000000008") && err.contains("0000000000000007"), "{err}");
    }
}
