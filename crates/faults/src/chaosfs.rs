//! Deterministic I/O fault injection for the campaign store: a
//! [`StoreFs`] that replays a scripted fault plan over the real
//! filesystem.
//!
//! The campaign service claims to survive torn writes, kills inside the
//! write→rename window, ENOSPC, lost lock removals, and stale
//! heartbeats. Those claims are only worth anything if they are *tested*
//! against exactly those faults — and testable means reproducible. A
//! [`ChaosFs`] is constructed from a [`ChaosScript`]: a list of entries,
//! each naming the n-th operation of a `(file class, operation)` pair and
//! the fault to inject there. Scripts render to/parse from a compact
//! string (the `--chaos` flag / `PARADET_CHAOS` env var), and
//! [`ChaosScript::random`] derives one from a seed with the same
//! SplitMix64 idiom as `trial_seed` — so every chaos run, including the
//! proptest's, replays bit-identically from `(seed, script)`.
//!
//! # Script grammar
//!
//! Entries are `;`-separated: `<attempt>:<verb>-<class>-<op>@<index>[=<arg>]`
//!
//! * `attempt` — which incarnation of the shard the entry arms for (the
//!   supervisor exports `PARADET_CHAOS_ATTEMPT`; restart n+1 sees a
//!   different slice of the script than the run it replaced).
//! * `verb` — `torn` (write a prefix), `abort` (kill the process at that
//!   operation), `fail` (return an error: ENOSPC on writes, EIO on
//!   reads), `drop` (pretend success, do nothing — a lost write or lost
//!   lock removal), `stall` (sleep `arg` ms first — a stale heartbeat).
//! * `class` — `manifest`, `ckpt`, `status`, `lock`, or `any`.
//! * `op` — `write`, `rename`, `read`, `remove`.
//! * `index` — 0-based occurrence of that `(class, op)` pair.
//! * `arg` — tear point for `torn`/`abort` writes (`k ≥ 0`: keep `k`
//!   bytes; `k < 0`: drop the last `|k|` bytes; `abort` with `0` writes
//!   everything, then dies — stranding the tmp before its rename), or
//!   the stall in milliseconds.
//!
//! `0:torn-ckpt-write-1=-9` = "on attempt 0, the second checkpoint-file
//! write keeps all but its last 9 bytes".
//!
//! # Kill modes
//!
//! [`KillMode::Abort`] is for real child processes (`std::process::abort`,
//! die-instantly like SIGKILL). [`KillMode::Panic`] is for in-process
//! harnesses (the chaos proptest): it panics with a recognizable payload
//! *and flips the filesystem dead* — from then on writes, renames, and
//! removes silently do nothing, so the `ShardLock` released during unwind
//! stays on disk exactly as a SIGKILLed process would leave it.

use crate::store::{RealFs, StoreFs};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Which store file an operation touches, by filename shape. Pid-tagged
/// `.tmp` staging siblings classify as their target (a checkpoint's tmp
/// is checkpoint traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileClass {
    /// `run_manifest.json`.
    Manifest,
    /// `shard-i-of-n.jsonl` checkpoints.
    Ckpt,
    /// `status-shard-i.json` heartbeats.
    Status,
    /// `shard-i.lock` lock files.
    Lock,
    /// Anything else (directories, foreign files).
    Other,
}

impl FileClass {
    fn of(path: &Path) -> FileClass {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.contains(".lock") {
            FileClass::Lock
        } else if name.contains("run_manifest") {
            FileClass::Manifest
        } else if name.starts_with("shard-") && name.contains(".jsonl") {
            FileClass::Ckpt
        } else if name.starts_with("status-") {
            FileClass::Status
        } else {
            FileClass::Other
        }
    }

    fn tag(self) -> &'static str {
        match self {
            FileClass::Manifest => "manifest",
            FileClass::Ckpt => "ckpt",
            FileClass::Status => "status",
            FileClass::Lock => "lock",
            FileClass::Other => "other",
        }
    }
}

/// The filesystem operation an entry arms on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsOp {
    /// [`StoreFs::write`].
    Write,
    /// [`StoreFs::rename`].
    Rename,
    /// [`StoreFs::read_to_string`].
    Read,
    /// [`StoreFs::remove_file`].
    Remove,
}

impl FsOp {
    fn tag(self) -> &'static str {
        match self {
            FsOp::Write => "write",
            FsOp::Rename => "rename",
            FsOp::Read => "read",
            FsOp::Remove => "remove",
        }
    }
}

/// The fault an entry injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// Write only a prefix (see the `arg` rules) and report success.
    Torn,
    /// Kill the process at this operation (after a `torn`-style partial
    /// write for `write` ops; *instead of* the rename for `rename` ops).
    Abort,
    /// Return an error: ENOSPC-flavoured on write/rename/remove, EIO on
    /// read.
    Fail,
    /// Report success without doing anything — a lost write, or the lost
    /// lock removal of a dying process.
    Drop,
    /// Sleep `arg` milliseconds, then do the operation — a stale
    /// heartbeat / hung shard as the supervisor sees it.
    Stall,
}

impl Verb {
    fn tag(self) -> &'static str {
        match self {
            Verb::Torn => "torn",
            Verb::Abort => "abort",
            Verb::Fail => "fail",
            Verb::Drop => "drop",
            Verb::Stall => "stall",
        }
    }
}

/// One scripted fault: on `attempt`, at the `index`-th `(class, op)`
/// operation, inject `verb` (with `arg`). `class: None` is the `any`
/// class — its indices count *all* operations of that op kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEntry {
    /// Shard incarnation the entry arms for.
    pub attempt: u32,
    /// Fault to inject.
    pub verb: Verb,
    /// File class to match, `None` for `any`.
    pub class: Option<FileClass>,
    /// Operation kind to match.
    pub op: FsOp,
    /// 0-based occurrence of the `(class, op)` pair.
    pub index: u32,
    /// Tear point or stall milliseconds (verb-dependent).
    pub arg: i64,
}

impl ChaosEntry {
    fn render(&self) -> String {
        let class = self.class.map(FileClass::tag).unwrap_or("any");
        let mut s = format!(
            "{}:{}-{}-{}@{}",
            self.attempt,
            self.verb.tag(),
            class,
            self.op.tag(),
            self.index
        );
        if self.arg != 0 {
            s.push_str(&format!("={}", self.arg));
        }
        s
    }

    fn parse(s: &str) -> Result<ChaosEntry, String> {
        let bad = |what: &str| format!("chaos entry `{s}`: {what}");
        let (attempt, rest) = s.split_once(':').ok_or_else(|| bad("missing `attempt:`"))?;
        let attempt: u32 = attempt.trim().parse().map_err(|_| bad("bad attempt"))?;
        let (spec, tail) = rest.split_once('@').ok_or_else(|| bad("missing `@index`"))?;
        let (index, arg) = match tail.split_once('=') {
            Some((i, a)) => (
                i.trim().parse().map_err(|_| bad("bad index"))?,
                a.trim().parse().map_err(|_| bad("bad arg"))?,
            ),
            None => (tail.trim().parse().map_err(|_| bad("bad index"))?, 0),
        };
        let mut parts = spec.trim().splitn(3, '-');
        let verb = match parts.next().unwrap_or("") {
            "torn" => Verb::Torn,
            "abort" => Verb::Abort,
            "fail" => Verb::Fail,
            "drop" => Verb::Drop,
            "stall" => Verb::Stall,
            v => return Err(bad(&format!("unknown verb `{v}`"))),
        };
        let class = match parts.next().unwrap_or("") {
            "manifest" => Some(FileClass::Manifest),
            "ckpt" => Some(FileClass::Ckpt),
            "status" => Some(FileClass::Status),
            "lock" => Some(FileClass::Lock),
            "any" => None,
            c => return Err(bad(&format!("unknown class `{c}`"))),
        };
        let op = match parts.next().unwrap_or("") {
            "write" => FsOp::Write,
            "rename" => FsOp::Rename,
            "read" => FsOp::Read,
            "remove" => FsOp::Remove,
            o => return Err(bad(&format!("unknown op `{o}`"))),
        };
        Ok(ChaosEntry { attempt, verb, class, op, index, arg })
    }
}

/// A full fault plan: the ordered entries of a chaos run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosScript {
    /// The scripted faults.
    pub entries: Vec<ChaosEntry>,
}

impl ChaosScript {
    /// Parses the `;`-separated script grammar (see the module docs).
    pub fn parse(s: &str) -> Result<ChaosScript, String> {
        let entries = s
            .split(';')
            .map(str::trim)
            .filter(|e| !e.is_empty())
            .map(ChaosEntry::parse)
            .collect::<Result<_, _>>()?;
        Ok(ChaosScript { entries })
    }

    /// Renders back to the script grammar (`parse ∘ render` is identity).
    pub fn render(&self) -> String {
        self.entries.iter().map(ChaosEntry::render).collect::<Vec<_>>().join(";")
    }

    /// Derives a random-but-reproducible script from `seed`: 1–3 entries
    /// over attempts `0..attempts`, uniformly across the verb/class/op
    /// combinations that model process or disk faults. Never generates
    /// `stall` (wall-clock sleeps would slow the proptest for nothing —
    /// the hang leg is exercised by a fixed CI script instead).
    pub fn random(seed: u64, attempts: u32) -> ChaosScript {
        let mut state = seed;
        let mut next = move || {
            // SplitMix64 — the same generator idiom as `trial_seed`.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let count = 1 + (next() % 3) as usize;
        let entries = (0..count)
            .map(|_| {
                let verb = match next() % 4 {
                    0 => Verb::Torn,
                    1 => Verb::Abort,
                    2 => Verb::Fail,
                    _ => Verb::Drop,
                };
                let op = match verb {
                    Verb::Torn => FsOp::Write,
                    Verb::Abort => [FsOp::Write, FsOp::Rename][(next() % 2) as usize],
                    Verb::Fail => {
                        [FsOp::Write, FsOp::Rename, FsOp::Read, FsOp::Remove][(next() % 4) as usize]
                    }
                    Verb::Drop => [FsOp::Write, FsOp::Remove][(next() % 2) as usize],
                    Verb::Stall => unreachable!(),
                };
                let class = match next() % 5 {
                    0 => Some(FileClass::Manifest),
                    1 => Some(FileClass::Ckpt),
                    2 => Some(FileClass::Status),
                    3 => Some(FileClass::Lock),
                    _ => None,
                };
                let arg = match verb {
                    Verb::Torn => -(1 + (next() % 24) as i64),
                    Verb::Abort if op == FsOp::Write => {
                        if next() % 2 == 0 {
                            0
                        } else {
                            -(1 + (next() % 24) as i64)
                        }
                    }
                    _ => 0,
                };
                ChaosEntry {
                    attempt: (next() % u64::from(attempts.max(1))) as u32,
                    verb,
                    class,
                    op,
                    index: (next() % 5) as u32,
                    arg,
                }
            })
            .collect();
        ChaosScript { entries }
    }
}

/// How an `abort` entry kills the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillMode {
    /// `std::process::abort()` — for real child processes; dies without
    /// unwinding, like SIGKILL.
    Abort,
    /// `panic!("chaos-kill")` with the filesystem flipped dead — for
    /// in-process harnesses; unwinding drops run the code paths, but the
    /// dead filesystem refuses to act on them, so the on-disk state is
    /// exactly what a SIGKILL would leave.
    Panic,
}

/// The panic payload [`KillMode::Panic`] uses; harnesses match on it to
/// tell a scripted kill from a real bug.
pub const CHAOS_KILL: &str = "chaos-kill";

/// A [`StoreFs`] that injects the faults of a [`ChaosScript`] over
/// [`RealFs`]. See the module docs for semantics.
#[derive(Debug)]
pub struct ChaosFs {
    inner: RealFs,
    script: ChaosScript,
    attempt: u32,
    kill_mode: KillMode,
    /// Occurrence counters per `(class, op)`; `(Other, op)` doubles as
    /// nothing special — the `any` counter is keyed separately below.
    counters: Mutex<std::collections::HashMap<(Option<FileClass>, FsOp), u32>>,
    dead: AtomicBool,
}

impl ChaosFs {
    /// A chaos filesystem replaying `script` as incarnation `attempt`.
    pub fn new(script: ChaosScript, attempt: u32, kill_mode: KillMode) -> ChaosFs {
        ChaosFs {
            inner: RealFs,
            script,
            attempt,
            kill_mode,
            counters: Mutex::new(std::collections::HashMap::new()),
            dead: AtomicBool::new(false),
        }
    }

    /// Builds a chaos filesystem from `PARADET_CHAOS` (the script) and
    /// `PARADET_CHAOS_ATTEMPT` (the incarnation, default 0) — how the
    /// `campaignd` binary picks up the supervisor's fault plan. `None`
    /// when no script is set. A malformed script or attempt is an error
    /// that names its variable, not a silently clean run or attempt 0.
    pub fn from_env(kill_mode: KillMode) -> Result<Option<ChaosFs>, String> {
        let Ok(script) = std::env::var("PARADET_CHAOS") else {
            return Ok(None);
        };
        let script = ChaosScript::parse(&script).map_err(|e| format!("PARADET_CHAOS: {e}"))?;
        let attempt = paradet_par::try_env_setting("PARADET_CHAOS_ATTEMPT")?.unwrap_or(0);
        Ok(Some(ChaosFs::new(script, attempt, kill_mode)))
    }

    /// Whether a scripted kill has already fired (Panic mode only).
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Returns the armed verb+arg for this `(path, op)` occurrence, if
    /// any. Counts both the class-specific and the `any` occurrence.
    fn armed(&self, path: &Path, op: FsOp) -> Option<(Verb, i64)> {
        let class = FileClass::of(path);
        let mut counters = self.counters.lock().unwrap();
        let specific = {
            let c = counters.entry((Some(class), op)).or_insert(0);
            let i = *c;
            *c += 1;
            i
        };
        let any = {
            let c = counters.entry((None, op)).or_insert(0);
            let i = *c;
            *c += 1;
            i
        };
        drop(counters);
        self.script.entries.iter().find_map(|e| {
            if e.attempt != self.attempt || e.op != op {
                return None;
            }
            let hit = match e.class {
                Some(c) => c == class && e.index == specific,
                None => e.index == any,
            };
            hit.then_some((e.verb, e.arg))
        })
    }

    /// Kills the process per the kill mode. Never returns.
    fn kill(&self) -> ! {
        match self.kill_mode {
            KillMode::Abort => std::process::abort(),
            KillMode::Panic => {
                self.dead.store(true, Ordering::SeqCst);
                panic!("{CHAOS_KILL}");
            }
        }
    }

    fn enospc(path: &Path) -> io::Error {
        io::Error::other(format!(
            "chaos: injected ENOSPC (no space left on device) writing {}",
            path.display()
        ))
    }

    fn eio(path: &Path) -> io::Error {
        io::Error::other(format!("chaos: injected EIO reading {}", path.display()))
    }
}

/// Keeps `len` bytes for `k ≥ 0`, all but the last `|k|` for `k < 0`.
fn tear_len(len: usize, k: i64) -> usize {
    if k >= 0 {
        (k as usize).min(len)
    } else {
        len.saturating_sub(k.unsigned_abs() as usize)
    }
}

impl StoreFs for ChaosFs {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        if self.is_dead() {
            return Err(Self::eio(path));
        }
        match self.armed(path, FsOp::Read) {
            Some((Verb::Fail, _)) => Err(Self::eio(path)),
            Some((Verb::Abort, _)) => self.kill(),
            Some((Verb::Stall, ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms.max(0) as u64));
                self.inner.read_to_string(path)
            }
            // torn/drop reads don't model anything the store could
            // distinguish from corruption already covered by the crc
            // seals; treat them as clean.
            _ => self.inner.read_to_string(path),
        }
    }

    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        if self.is_dead() {
            return Ok(()); // A dead process writes nothing, silently.
        }
        match self.armed(path, FsOp::Write) {
            Some((Verb::Torn, k)) => {
                self.inner.write(path, &contents[..tear_len(contents.len(), k)])
            }
            Some((Verb::Abort, k)) => {
                // Die mid-write: the file holds a prefix (arg 0 = all of
                // it — the kill lands between write and rename instead).
                let keep = if k == 0 { contents.len() } else { tear_len(contents.len(), k) };
                let _ = self.inner.write(path, &contents[..keep]);
                self.kill()
            }
            Some((Verb::Fail, _)) => Err(Self::enospc(path)),
            Some((Verb::Drop, _)) => Ok(()),
            Some((Verb::Stall, ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms.max(0) as u64));
                self.inner.write(path, contents)
            }
            None => self.inner.write(path, contents),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self.is_dead() {
            return Ok(());
        }
        match self.armed(to, FsOp::Rename) {
            // Die before the rename commits: the `.tmp` is stranded and
            // the target keeps its previous contents — the exact window
            // the atomic-write discipline (and the tmp sweep) exist for.
            Some((Verb::Abort, _)) => self.kill(),
            Some((Verb::Fail, _)) => Err(Self::enospc(to)),
            Some((Verb::Drop, _)) => Ok(()),
            Some((Verb::Stall, ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms.max(0) as u64));
                self.inner.rename(from, to)
            }
            _ => self.inner.rename(from, to),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        if self.is_dead() {
            return Ok(()); // Critically: a dead process removes no locks.
        }
        match self.armed(path, FsOp::Remove) {
            Some((Verb::Fail, _)) => Err(Self::enospc(path)),
            Some((Verb::Drop, _)) => Ok(()), // Lost lock removal.
            Some((Verb::Abort, _)) => self.kill(),
            _ => self.inner.remove_file(path),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        if self.is_dead() {
            return Ok(());
        }
        self.inner.create_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list_dir(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("paradet-chaos-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn script_parse_render_round_trips() {
        let s = "0:torn-ckpt-write@1=-9;2:fail-any-read@0;1:drop-lock-remove@0;0:stall-status-write@3=250";
        let script = ChaosScript::parse(s).unwrap();
        assert_eq!(script.entries.len(), 4);
        assert_eq!(ChaosScript::parse(&script.render()).unwrap(), script);
        assert_eq!(
            script.entries[0],
            ChaosEntry {
                attempt: 0,
                verb: Verb::Torn,
                class: Some(FileClass::Ckpt),
                op: FsOp::Write,
                index: 1,
                arg: -9
            }
        );
        assert_eq!(script.entries[1].class, None, "`any` parses as no class filter");
        assert!(ChaosScript::parse("0:zorch-ckpt-write@0").is_err());
        assert!(ChaosScript::parse("no-attempt-write@0").is_err());
    }

    #[test]
    fn random_scripts_are_reproducible_and_parse() {
        for seed in 0..50 {
            let a = ChaosScript::random(seed, 3);
            let b = ChaosScript::random(seed, 3);
            assert_eq!(a, b, "seed {seed} must replay identically");
            assert_eq!(ChaosScript::parse(&a.render()).unwrap(), a);
            assert!(!a.entries.is_empty());
            assert!(a.entries.iter().all(|e| e.verb != Verb::Stall), "no wall-clock sleeps");
        }
        assert_ne!(ChaosScript::random(1, 3), ChaosScript::random(2, 3));
    }

    #[test]
    fn classifies_store_files_including_tmp_siblings() {
        let c = |p: &str| FileClass::of(Path::new(p));
        assert_eq!(c("/d/run_manifest.json"), FileClass::Manifest);
        assert_eq!(c("/d/run_manifest.json.123.tmp"), FileClass::Manifest);
        assert_eq!(c("/d/shard-0-of-2.jsonl"), FileClass::Ckpt);
        assert_eq!(c("/d/shard-0-of-2.jsonl.123.tmp"), FileClass::Ckpt);
        assert_eq!(c("/d/status-shard-1.json"), FileClass::Status);
        assert_eq!(c("/d/shard-1.lock"), FileClass::Lock);
        assert_eq!(c("/d/unrelated.txt"), FileClass::Other);
    }

    #[test]
    fn torn_write_keeps_the_scripted_prefix() {
        let dir = tmpdir("torn");
        let fs =
            ChaosFs::new(ChaosScript::parse("0:torn-ckpt-write@0=-4").unwrap(), 0, KillMode::Panic);
        let path = dir.join("shard-0-of-1.jsonl");
        fs.write(&path, b"hello checkpoint").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "hello checkp");
        // Occurrence 1 is unscripted: clean.
        fs.write(&path, b"second write").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second write");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fail_write_is_enospc_flavoured_and_attempt_scoped() {
        let dir = tmpdir("fail");
        let script = ChaosScript::parse("1:fail-status-write@0").unwrap();
        let path = dir.join("status-shard-0.json");
        // Attempt 0: the entry is armed for attempt 1, so this is clean.
        let fs0 = ChaosFs::new(script.clone(), 0, KillMode::Panic);
        fs0.write(&path, b"ok").unwrap();
        // Attempt 1: injected.
        let fs1 = ChaosFs::new(script, 1, KillMode::Panic);
        let err = fs1.write(&path, b"nope").unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panic_kill_flips_dead_and_preserves_lock_files() {
        let dir = tmpdir("dead");
        let fs =
            ChaosFs::new(ChaosScript::parse("0:abort-ckpt-write@0=0").unwrap(), 0, KillMode::Panic);
        let lock = dir.join("shard-0.lock");
        fs.write(&lock, b"123 456\n").unwrap();
        let ckpt = dir.join("shard-0-of-1.jsonl");
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fs.write(&ckpt, b"doomed").unwrap();
        }));
        let payload = killed.unwrap_err();
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some(CHAOS_KILL));
        assert!(fs.is_dead());
        // Arg 0: the write itself landed before the kill.
        assert_eq!(std::fs::read_to_string(&ckpt).unwrap(), "doomed");
        // A dead process cannot clean up after itself: the remove that
        // ShardLock::drop issues during unwind must be a silent no-op.
        fs.remove_file(&lock).unwrap();
        assert!(lock.exists(), "a dead fs leaves lock files behind, like SIGKILL");
        fs.write(&ckpt, b"ghost write").unwrap();
        assert_eq!(std::fs::read_to_string(&ckpt).unwrap(), "doomed", "dead writes are no-ops");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_remove_models_lost_lock_removal() {
        let dir = tmpdir("droprm");
        let fs =
            ChaosFs::new(ChaosScript::parse("0:drop-lock-remove@0").unwrap(), 0, KillMode::Panic);
        let lock = dir.join("shard-0.lock");
        std::fs::write(&lock, "123 -\n").unwrap();
        fs.remove_file(&lock).unwrap(); // Reports success…
        assert!(lock.exists(), "…but the lock survives: a lost removal");
        fs.remove_file(&lock).unwrap(); // Second occurrence is clean.
        assert!(!lock.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn abort_rename_strands_the_tmp() {
        let dir = tmpdir("strand");
        let fs =
            ChaosFs::new(ChaosScript::parse("0:abort-ckpt-rename@0").unwrap(), 0, KillMode::Panic);
        let tmp = dir.join("shard-0-of-1.jsonl.99.tmp");
        let target = dir.join("shard-0-of-1.jsonl");
        std::fs::write(&target, "old checkpoint").unwrap();
        fs.write(&tmp, b"new checkpoint").unwrap();
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fs.rename(&tmp, &target).unwrap();
        }));
        assert!(killed.is_err());
        assert!(tmp.exists(), "tmp stranded in the write→rename window");
        assert_eq!(std::fs::read_to_string(&target).unwrap(), "old checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn any_class_counts_across_all_files() {
        let dir = tmpdir("any");
        // The third write of *any* class fails, regardless of target.
        let fs =
            ChaosFs::new(ChaosScript::parse("0:fail-any-write@2").unwrap(), 0, KillMode::Panic);
        fs.write(&dir.join("run_manifest.json"), b"a").unwrap();
        fs.write(&dir.join("shard-0.lock"), b"b").unwrap();
        assert!(fs.write(&dir.join("status-shard-0.json"), b"c").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
