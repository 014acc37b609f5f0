//! Deterministic partitioning of the campaign `(site, trial)` grid.
//!
//! A campaign enumerates its work as a site-major grid: global index
//! `g = site_position * trials_per_site + trial`. Shard `i/n` owns exactly
//! the points with `g % n == i`, in increasing `g` — a pure function of the
//! grid shape, so any process (or host) can compute its slice without
//! coordination, the slices are disjoint, and their union is the full grid.
//!
//! Sharding never touches fault selection: per-trial RNG seeds are pure in
//! `(seed, site, trial)` (see [`trial_seed`](crate::trial_seed)), so a
//! point draws the identical fault whether it runs one-shot, in shard
//! `0/1`, or in shard `7/16`. The round-robin (strided) assignment also
//! balances cost: expensive site classes (SDC trials run to the full
//! budget plus a state diff) spread across shards instead of landing on
//! one.

use crate::campaign::FaultSite;
use std::fmt;

/// One shard's identity within a campaign: `index` of `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    index: u32,
    count: u32,
}

impl ShardSpec {
    /// The whole campaign as a single shard (`0/1`).
    pub const SOLO: ShardSpec = ShardSpec { index: 0, count: 1 };

    /// Creates shard `index` of `count`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `index >= count`.
    pub fn new(index: u32, count: u32) -> ShardSpec {
        assert!(count > 0, "shard count must be positive");
        assert!(index < count, "shard index {index} out of range for {count} shards");
        ShardSpec { index, count }
    }

    /// Parses the CLI form `i/n` (e.g. `0/2`).
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let (i, n) = s.split_once('/').ok_or_else(|| format!("expected i/n, got `{s}`"))?;
        let index: u32 = i.trim().parse().map_err(|_| format!("bad shard index `{i}`"))?;
        let count: u32 = n.trim().parse().map_err(|_| format!("bad shard count `{n}`"))?;
        if count == 0 {
            return Err("shard count must be positive".to_string());
        }
        if index >= count {
            return Err(format!("shard index {index} out of range for {count} shards"));
        }
        Ok(ShardSpec { index, count })
    }

    /// This shard's index.
    pub fn index(self) -> u32 {
        self.index
    }

    /// Total shards in the campaign.
    pub fn count(self) -> u32 {
        self.count
    }

    /// Whether this shard owns global grid index `g`.
    pub fn owns(self, g: usize) -> bool {
        g % self.count as usize == self.index as usize
    }

    /// How many points of a `grid`-point grid this shard owns.
    pub(crate) fn slice_len(self, grid: u64) -> u64 {
        grid.saturating_sub(self.index as u64).div_ceil(self.count as u64)
    }

    /// Point `j` of this shard's slice of the site-major grid over `sites`:
    /// the one at grid index `i + j·n`, or `None` past the grid.
    pub(crate) fn point(
        self,
        sites: &[FaultSite],
        trials_per_site: u64,
        j: u64,
    ) -> Option<(FaultSite, u64)> {
        let g = j.checked_mul(self.count as u64)?.checked_add(self.index as u64)?;
        let site = sites.get(usize::try_from(g.checked_div(trials_per_site)?).ok()?)?;
        Some((*site, g % trials_per_site))
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The full campaign grid, site-major: every `(site, trial)` point in
/// reporting order. This is the canonical enumeration both the one-shot
/// runner and the sharded runner partition.
pub fn grid_points(sites: &[FaultSite], trials_per_site: u64) -> Vec<(FaultSite, u64)> {
    sites.iter().flat_map(|&site| (0..trials_per_site).map(move |t| (site, t))).collect()
}

/// The slice of the grid shard `shard` owns, in increasing global index.
pub fn shard_points(
    sites: &[FaultSite],
    trials_per_site: u64,
    shard: ShardSpec,
) -> Vec<(FaultSite, u64)> {
    let grid = (sites.len() as u64).saturating_mul(trials_per_site);
    (0..shard.slice_len(grid))
        .map(|j| shard.point(sites, trials_per_site, j).expect("j is inside the slice"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_partition_the_grid() {
        let sites = FaultSite::all();
        for n in [1u32, 2, 3, 5, 8] {
            let mut seen = std::collections::HashSet::new();
            let mut union_len = 0;
            for i in 0..n {
                let pts = shard_points(&sites, 7, ShardSpec::new(i, n));
                union_len += pts.len();
                for p in pts {
                    assert!(seen.insert(p), "point {p:?} assigned to two shards at n={n}");
                }
            }
            assert_eq!(union_len, grid_points(&sites, 7).len());
            assert_eq!(seen.len(), sites.len() * 7);
        }
    }

    #[test]
    fn solo_shard_is_the_full_grid() {
        let sites = [FaultSite::IntReg, FaultSite::Pc];
        assert_eq!(shard_points(&sites, 5, ShardSpec::SOLO), grid_points(&sites, 5));
    }

    #[test]
    fn parse_round_trips() {
        let s = ShardSpec::parse("1/4").unwrap();
        assert_eq!((s.index(), s.count()), (1, 4));
        assert_eq!(s.to_string(), "1/4");
        assert!(ShardSpec::parse("4/4").is_err());
        assert!(ShardSpec::parse("0/0").is_err());
        assert!(ShardSpec::parse("banana").is_err());
    }
}
