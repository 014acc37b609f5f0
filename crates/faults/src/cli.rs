//! Flag parsing shared by the `campaignd` and `campaign-merge` binaries.
//!
//! Both binaries describe a campaign with the same flags, and both must
//! turn them into the same [`CampaignConfig`] — the config fingerprint
//! that gates resume and merge is computed from it, so a parsing
//! divergence between the binaries would read as a (spurious) fingerprint
//! mismatch. Keeping the parsing here makes that impossible.

use crate::campaign::{CampaignConfig, FaultSite, MIN_CAMPAIGN_INSTRS};
use crate::store::StoreError;
use paradet_core::{RecoveryPolicy, SystemConfig};
use paradet_ooo::FaultKind;
use paradet_stats::Table;
use paradet_workloads::Workload;
use std::path::Path;

/// The one exit-code table of the campaign binaries. `campaignd`,
/// `campaign-merge`, and the supervisor all map through here — a code
/// must mean the same thing no matter which binary printed it, because
/// the supervisor's retry/quarantine decisions key off its children's
/// codes.
pub mod exit {
    use super::StoreError;

    /// Success.
    pub const OK: i32 = 0;
    /// Unclassified store error (I/O and other [`StoreError`] variants
    /// without a dedicated code).
    pub const STORE: i32 = 1;
    /// Bad flags / usage.
    pub const USAGE: i32 = 2;
    /// Config fingerprint mismatch: the directory belongs to a different
    /// campaign ([`StoreError::FingerprintMismatch`]).
    pub const FINGERPRINT_MISMATCH: i32 = 3;
    /// Shard locked by a live process, or its finished checkpoint exists
    /// without `--resume` ([`StoreError::Locked`]).
    pub const LOCKED: i32 = 4;
    /// Merge found missing/short shards ([`StoreError::Incomplete`]) —
    /// `campaign-merge --partial` renders them explicitly instead.
    pub const INCOMPLETE: i32 = 5;
    /// Store written by an incompatible schema version
    /// ([`StoreError::SchemaVersion`]).
    pub const SCHEMA_VERSION: i32 = 6;
    /// A supervised campaign quarantined at least one shard as degraded;
    /// the partial checkpoints remain mergeable.
    pub const DEGRADED: i32 = 7;

    /// The exit code a [`StoreError`] maps to, in every binary.
    pub fn code_for(e: &StoreError) -> i32 {
        match e {
            StoreError::FingerprintMismatch { .. } => FINGERPRINT_MISMATCH,
            StoreError::Locked(_) => LOCKED,
            StoreError::Incomplete(_) => INCOMPLETE,
            StoreError::SchemaVersion { .. } => SCHEMA_VERSION,
            StoreError::Io(_) | StoreError::Corrupt(_) => STORE,
        }
    }
}

/// The campaign-describing flags both binaries accept.
pub const CONFIG_FLAGS_HELP: &str = "\
  --workload <name>         workload kernel (default freqmine)
  --instrs <n>              dynamic instructions per trial, at least 3
                            (default 20000)
  --trials-per-site <n>     trials per fault-site class (default 50)
  --seed <n>                campaign RNG seed (default 42)
  --sites <a,b,...>         fault-site classes (default: the eight legacy
                            sites; `extended` selects all thirteen)
  --fault-kind <k>          transient | intermittent:<period>,<count> |
                            permanent (default transient)
  --recover                 run trials under the rollback/re-execute driver
  --max-retries <n>         rollback budget before degrading (implies
                            --recover; default 3)
  --no-lfu                  disable the load forwarding unit (ablation)";

/// Parses a `--fault-kind` value.
pub fn parse_fault_kind(v: &str) -> Result<FaultKind, String> {
    match v {
        "transient" => Ok(FaultKind::Transient),
        "permanent" => Ok(FaultKind::Permanent),
        other => {
            let spec = other
                .strip_prefix("intermittent:")
                .ok_or_else(|| format!("bad --fault-kind `{other}`"))?;
            let (p, c) = spec
                .split_once(',')
                .ok_or_else(|| format!("bad --fault-kind `{other}` (want period,count)"))?;
            let period = p.parse().map_err(|_| format!("bad intermittent period `{p}`"))?;
            let count = c.parse().map_err(|_| format!("bad intermittent count `{c}`"))?;
            Ok(FaultKind::Intermittent { period, count })
        }
    }
}

/// Removes `--name <value>` from `args`, returning the value.
pub fn take_value(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{name} requires a value"));
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Ok(Some(v))
}

/// Removes `--name <value>` from `args` and parses the value; the error
/// names the flag and the value.
pub fn take_parsed<T: std::str::FromStr>(
    args: &mut Vec<String>,
    name: &str,
) -> Result<Option<T>, String> {
    take_value(args, name)?.map(|v| v.parse().map_err(|_| format!("bad {name} `{v}`"))).transpose()
}

/// Whether `args` asks for the usage text (`--help` or `-h`), which the
/// binaries print to stdout before parsing anything else.
pub fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

/// Removes the bare switch `--name` from `args`, returning whether it was
/// present.
pub fn take_switch(args: &mut Vec<String>, name: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == name) {
        args.remove(i);
        true
    } else {
        false
    }
}

/// Parses the shared campaign-config flags out of `args` (consuming them).
/// Returns the config and whether *any* config flag was explicitly given —
/// `campaign-merge` only enforces the fingerprint expectation when the
/// caller actually described a campaign.
pub fn parse_campaign_flags(args: &mut Vec<String>) -> Result<(CampaignConfig, bool), String> {
    let mut cfg = CampaignConfig::default();
    let mut explicit = false;

    if let Some(w) = take_value(args, "--workload")? {
        cfg.workload = Workload::by_name(&w).ok_or_else(|| format!("unknown workload `{w}`"))?;
        explicit = true;
    }
    if let Some(instrs) = take_parsed(args, "--instrs")? {
        if instrs < MIN_CAMPAIGN_INSTRS {
            return Err(format!("--instrs must be at least {MIN_CAMPAIGN_INSTRS}, got {instrs}"));
        }
        cfg.instrs = instrs;
        explicit = true;
    }
    if let Some(trials) = take_parsed(args, "--trials-per-site")? {
        cfg.trials_per_site = trials;
        explicit = true;
    }
    if let Some(seed) = take_parsed(args, "--seed")? {
        cfg.seed = seed;
        explicit = true;
    }
    if let Some(v) = take_value(args, "--sites")? {
        if v.trim() == "extended" {
            cfg.sites = FaultSite::extended().to_vec();
        } else {
            cfg.sites = v
                .split(',')
                .map(|n| {
                    FaultSite::from_name(n.trim())
                        .ok_or_else(|| format!("unknown fault site `{}`", n.trim()))
                })
                .collect::<Result<_, _>>()?;
        }
        if cfg.sites.is_empty() {
            return Err("--sites needs at least one site".to_string());
        }
        // Trials tally under their own site, so a repeated site would
        // merge two rows of the table into one.
        if let Some(dup) = (1..cfg.sites.len()).find(|&i| cfg.sites[..i].contains(&cfg.sites[i])) {
            return Err(format!("fault site `{}` listed twice", cfg.sites[dup].name()));
        }
        explicit = true;
    }
    if let Some(v) = take_value(args, "--fault-kind")? {
        cfg.fault_kind = parse_fault_kind(&v)?;
        explicit = true;
    }
    if take_switch(args, "--recover") {
        cfg.recovery = Some(RecoveryPolicy::default());
        explicit = true;
    }
    if let Some(max_retries) = take_parsed(args, "--max-retries")? {
        let base = cfg.recovery.unwrap_or_default();
        cfg.recovery = Some(RecoveryPolicy { max_retries, ..base });
        explicit = true;
    }
    if take_switch(args, "--no-lfu") {
        cfg.system = SystemConfig { lfu_enabled: false, ..cfg.system };
        explicit = true;
    }
    // A store's manifest refuses such a grid, so no store is begun for it.
    if (cfg.sites.len() as u64).checked_mul(cfg.trials_per_site).is_none() {
        return Err(format!(
            "--trials-per-site {} times {} sites overflows a u64",
            cfg.trials_per_site,
            cfg.sites.len()
        ));
    }
    Ok((cfg, explicit))
}

/// Renders a config back into the flag list [`parse_campaign_flags`]
/// accepts — the inverse the supervisor uses to respawn shard children
/// with *exactly* the campaign it was given. Every CLI-expressible field
/// is rendered explicitly (no reliance on defaults), and the round-trip
/// is unit-tested; if a future field were missed anyway, the children
/// would fingerprint differently and exit
/// [`FINGERPRINT_MISMATCH`](exit::FINGERPRINT_MISMATCH) — a visible
/// quarantine, never a silently different campaign.
pub fn render_config_flags(cfg: &CampaignConfig) -> Vec<String> {
    let mut flags = vec![
        "--workload".to_string(),
        cfg.workload.name().to_string(),
        "--instrs".to_string(),
        cfg.instrs.to_string(),
        "--trials-per-site".to_string(),
        cfg.trials_per_site.to_string(),
        "--seed".to_string(),
        cfg.seed.to_string(),
        "--sites".to_string(),
        cfg.sites.iter().map(|s| s.name()).collect::<Vec<_>>().join(","),
        "--fault-kind".to_string(),
        match cfg.fault_kind {
            FaultKind::Transient => "transient".to_string(),
            FaultKind::Permanent => "permanent".to_string(),
            FaultKind::Intermittent { period, count } => {
                format!("intermittent:{period},{count}")
            }
        },
    ];
    if let Some(r) = &cfg.recovery {
        flags.push("--recover".to_string());
        flags.push("--max-retries".to_string());
        flags.push(r.max_retries.to_string());
    }
    if !cfg.system.lfu_enabled {
        flags.push("--no-lfu".to_string());
    }
    flags
}

/// Prints `table` to stdout and, with `--out <csv>`, writes it as CSV:
/// the one output path of both binaries. A CSV that cannot be written
/// exits [`exit::STORE`], the message prefixed with `bin`.
pub fn emit_table(bin: &str, table: &Table, out: Option<&Path>) {
    print!("{}", table.render());
    if let Some(path) = out {
        if let Err(e) = table.write_csv(path) {
            eprintln!("{bin}: writing {}: {e}", path.display());
            std::process::exit(exit::STORE);
        }
        eprintln!("wrote {}", path.display());
    }
}

/// Fails on any remaining `--flag` the binary didn't consume (typo guard:
/// a misspelled flag must not silently fall back to a default config,
/// where it would fingerprint as a different campaign).
pub fn reject_unknown(args: &[String]) -> Result<(), String> {
    if let Some(a) = args.iter().find(|a| a.starts_with('-')) {
        return Err(format!("unknown flag `{a}`"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Manifest;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn defaults_when_no_flags() {
        let mut args = argv(&[]);
        let (cfg, explicit) = parse_campaign_flags(&mut args).unwrap();
        assert!(!explicit);
        assert_eq!(cfg.seed, CampaignConfig::default().seed);
    }

    #[test]
    fn flags_override_and_consume() {
        let mut args = argv(&[
            "--workload",
            "stream",
            "--seed",
            "7",
            "--sites",
            "pc,int-reg",
            "--no-lfu",
            "--dir",
            "x",
        ]);
        let (cfg, explicit) = parse_campaign_flags(&mut args).unwrap();
        assert!(explicit);
        assert_eq!(cfg.workload.name(), "stream");
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.sites, vec![FaultSite::Pc, FaultSite::IntReg]);
        assert!(!cfg.system.lfu_enabled);
        assert_eq!(args, argv(&["--dir", "x"]));
    }

    #[test]
    fn budgets_below_the_minimum_are_rejected() {
        for instrs in ["0", "1", "2"] {
            let err = parse_campaign_flags(&mut argv(&["--instrs", instrs])).unwrap_err();
            assert!(err.contains("at least 3"), "{instrs}: {err}");
        }
        let (cfg, _) = parse_campaign_flags(&mut argv(&["--instrs", "3"])).unwrap();
        assert_eq!(cfg.instrs, 3);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(reject_unknown(&argv(&["--wrokload", "stream"])).is_err());
        assert!(reject_unknown(&argv(&[])).is_ok());
    }

    #[test]
    fn bad_values_error() {
        assert!(parse_campaign_flags(&mut argv(&["--workload", "nope"])).is_err());
        assert!(parse_campaign_flags(&mut argv(&["--instrs", "many"])).is_err());
        assert!(parse_campaign_flags(&mut argv(&["--seed"])).is_err());
        assert!(parse_campaign_flags(&mut argv(&["--fault-kind", "flaky"])).is_err());
        assert!(parse_campaign_flags(&mut argv(&["--fault-kind", "intermittent:40"])).is_err());
        assert!(parse_campaign_flags(&mut argv(&["--max-retries", "lots"])).is_err());
        assert!(parse_campaign_flags(&mut argv(&["--sites", "pc,int-reg,pc"])).is_err());
        // The eight default sites times 2^61 trials overflow a u64.
        let grid = parse_campaign_flags(&mut argv(&["--trials-per-site", "2305843009213693952"]));
        assert!(grid.unwrap_err().contains("--trials-per-site"));
    }

    #[test]
    fn render_round_trips_through_parse() {
        let fingerprint = |cfg: &CampaignConfig| Manifest::from_config(cfg, 1).fingerprint;
        let configs = vec![
            CampaignConfig::default(),
            CampaignConfig {
                workload: Workload::Stream,
                instrs: 2_500,
                trials_per_site: 4,
                seed: 7,
                sites: vec![FaultSite::Pc, FaultSite::IntReg],
                fault_kind: FaultKind::Intermittent { period: 40, count: 3 },
                recovery: Some(RecoveryPolicy { max_retries: 5, ..RecoveryPolicy::default() }),
                system: SystemConfig { lfu_enabled: false, ..SystemConfig::paper_default() },
            },
            CampaignConfig {
                fault_kind: FaultKind::Permanent,
                recovery: Some(RecoveryPolicy::default()),
                sites: FaultSite::extended().to_vec(),
                ..CampaignConfig::default()
            },
        ];
        for cfg in configs {
            let mut flags = render_config_flags(&cfg);
            let (back, explicit) = parse_campaign_flags(&mut flags).unwrap();
            assert!(explicit && flags.is_empty());
            // The fingerprint is the equality that matters: it is what
            // gates a supervisor-respawned child against its parent.
            assert_eq!(
                fingerprint(&back),
                fingerprint(&cfg),
                "render→parse must preserve the campaign identity of {cfg:?}"
            );
        }
    }

    #[test]
    fn exit_codes_are_stable_and_distinct() {
        use super::exit;
        let all = [
            exit::OK,
            exit::STORE,
            exit::USAGE,
            exit::FINGERPRINT_MISMATCH,
            exit::LOCKED,
            exit::INCOMPLETE,
            exit::SCHEMA_VERSION,
            exit::DEGRADED,
        ];
        assert_eq!(all, [0, 1, 2, 3, 4, 5, 6, 7], "codes are a public contract");
        assert_eq!(
            exit::code_for(&crate::store::StoreError::Incomplete("x".into())),
            exit::INCOMPLETE
        );
        assert_eq!(exit::code_for(&crate::store::StoreError::Locked("x".into())), exit::LOCKED);
    }

    #[test]
    fn recovery_flags_parse() {
        let mut args = argv(&[
            "--fault-kind",
            "intermittent:40,3",
            "--recover",
            "--max-retries",
            "5",
            "--sites",
            "extended",
        ]);
        let (cfg, explicit) = parse_campaign_flags(&mut args).unwrap();
        assert!(explicit && args.is_empty());
        assert_eq!(cfg.fault_kind, FaultKind::Intermittent { period: 40, count: 3 });
        assert_eq!(cfg.recovery.unwrap().max_retries, 5);
        assert_eq!(cfg.sites, FaultSite::extended().to_vec());
        // --max-retries alone implies recovery.
        let (cfg, _) = parse_campaign_flags(&mut argv(&["--max-retries", "2"])).unwrap();
        assert_eq!(cfg.recovery.unwrap().max_retries, 2);
        assert_eq!(parse_fault_kind("permanent").unwrap(), FaultKind::Permanent);
        assert_eq!(parse_fault_kind("transient").unwrap(), FaultKind::Transient);
    }
}
