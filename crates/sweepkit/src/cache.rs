//! Content-hashed, persistent on-disk result cache for sweep jobs.
//!
//! Every (deck, grid-point, analysis) job is identified by a 128-bit
//! content hash over four ingredients ([`job_hash`]):
//!
//! 1. the deck fingerprint ([`circuitdae::Deck::fingerprint`] — device
//!    cards and sweep bindings),
//! 2. the grid-point values (raw IEEE-754 bits),
//! 3. the resolved analysis spec
//!    ([`circuitdae::AnalysisSpec::fingerprint`] — every option,
//!    including `.options`/CLI overrides), and
//! 4. a code-version salt ([`CACHE_SALT`]) so results computed by an
//!    older solver build are recomputed, never trusted.
//!
//! [`ResultCache`] keeps one file per job (`<hash>.sweepres`) in a flat
//! directory. Writes are write-then-rename, so a killed sweep can never
//! leave a readable-but-wrong entry: a torn temporary file is simply an
//! unreadable name the next run ignores. Reads treat *any* malformed
//! file as a miss and recompute — the cache can only change how fast an
//! answer arrives, never which answer.
//!
//! The stored [`ScenarioResult`] round-trips bit-exactly: floats are
//! serialised as the hex of their bit patterns, which is what makes the
//! determinism invariant (cold run bytes == warm run bytes) testable at
//! all.

use crate::analysis::ScenarioResult;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Code-version salt mixed into every job hash. Bump the format suffix
/// whenever the cache file layout or any solver numeric behaviour
/// changes in a way the spec fingerprints cannot see.
// fmt2: the `newton_iterations` metric was renamed `newton_iters`, which
// changes the serialised ScenarioResult bytes.
// fmt3: the KLU sparse kernel (BTF + AMD ordering + row equilibration)
// and the block-circulant GMRES preconditioner change the floating-point
// sequence of the sparse and quasiperiodic solve paths.
// fmt4: batched execution. Warm-started chain positions are keyed under
// [`job_hash_mode`] (the plain [`job_hash`] key now *means* "computed
// cold"), and continuation seeding changes the Newton iterate sequence,
// so fmt3 entries must not satisfy fmt4 lookups in either direction.
// fmt5: the WaMPDE envelope keeps its factored step Jacobian across
// Newton iterations and t2 steps, which changes `.wampde` results.
// fmt6: the cold oscillator start settles loosely before the orbit
// Newton, which moves cold `.shooting`/`.wampde` orbits within the Newton
// tolerance, and `.wampde` `newton_iters` now includes the initialisation.
// fmt7: warm chain positions from the third on start their orbit Newton
// from a seed extrapolated through earlier positions, which moves their
// `.shooting`/`.wampde` orbits within the Newton tolerance.
// fmt8: the shooting flow factors one step matrix per step and its
// Newton runs on it (modified Newton), so `.shooting`/`.wampde` results
// now move within the Newton tolerance; `.shooting` points also report
// `factorisations`.
// fmt9: adaptive WaMPDE steps converge in DASSL's Newton test in the step
// controller's error weights, so adaptive `.wampde` results move within
// the step tolerance.
// fmt10: a kept Newton matrix serves any number of iterations while it
// contracts, and the WaMPDE step scales stale corrections by
// 2/(1 + a0h/a0h_kept), so `.wampde` results move within the step
// tolerance and some `.shooting` results move within the Newton tolerance.
// fmt11: the dense LU's back substitution subtracts each row's terms in
// descending column order, so `.wampde`, `.mpde` and dense `.shooting`
// results move by rounding.
// fmt12: adaptive envelope steps weigh each collocation sample's error by
// its variable's amplitude and take Gustafsson's PI gains, the WaMPDE
// corrector runs undamped, and the `.wampde` default rtol is 2e-4, so
// adaptive `.wampde` and `.mpde` results move within the step tolerance.
// fmt13: the cold oscillator start's loose warm-up ends once the phase
// variable's oscillation has settled, so cold `.shooting`/`.wampde`
// orbits whose warm-up settles move within the Newton tolerance.
// fmt14: shooting flows run on the transient's own kept-matrix Newton and
// the monodromy is propagated only for the orbit Newton's Jacobians, so
// `.shooting`/`.wampde` orbits move within the Newton tolerance and
// `.shooting` points report fewer factorisations.
// fmt15: every shooting flow after an orbit Newton's first is seeded
// along the flow before it, and a warm chain position's first flow rides
// the neighbour's samples and its first step the neighbour's monodromy,
// so `.shooting`/`.wampde` orbits move within the Newton tolerance and
// warm `.shooting` points report fewer factorisations.
// fmt16: the cold oscillator start's warm-up and settle steps converge on
// a kept matrix at 0.33 of their own error weights, its DC point uses
// the deck's linear solver, and the bordered orbit Jacobian is factored
// by dense LU on every backend, so `.shooting`/`.wampde` orbits move
// within the Newton tolerance and cold `.shooting` points report far
// fewer factorisations.
pub const CACHE_SALT: &str = concat!("sweepkit-", env!("CARGO_PKG_VERSION"), "-fmt16");

/// FNV-1a, 128-bit: tiny, dependency-free, and plenty for cache keys
/// (collision odds are negligible below ~2^60 distinct jobs).
fn fnv1a128(chunks: &[&[u8]]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut h = OFFSET;
    for chunk in chunks {
        for &b in *chunk {
            h ^= u128::from(b);
            h = h.wrapping_mul(PRIME);
        }
        // Explicit chunk separator so ("ab", "c") != ("a", "bc").
        h ^= 0xff;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Content hash of one sweep job, as 32 lowercase hex characters.
///
/// `deck_fingerprint` and `spec_fingerprint` are the stable
/// serialisations from `circuitdae`; `values` are this grid point's
/// swept parameter values (hashed as raw bits, so `0.1 + 0.2` and
/// `0.3` are — correctly — different jobs).
pub fn job_hash(deck_fingerprint: &str, values: &[f64], spec_fingerprint: &str) -> String {
    job_hash_mode(deck_fingerprint, values, spec_fingerprint, "")
}

/// [`job_hash`] with an execution-`mode` discriminator mixed in.
///
/// The batched executor stores a warm-started chain position under a
/// mode string encoding its predecessors' grid values (see
/// `executor`), so a warm result can never satisfy a cold lookup — or a
/// lookup from a chain with a different upstream — and vice versa. The
/// empty mode is identical to the plain [`job_hash`].
pub fn job_hash_mode(
    deck_fingerprint: &str,
    values: &[f64],
    spec_fingerprint: &str,
    mode: &str,
) -> String {
    let mut value_bits = Vec::with_capacity(values.len() * 8);
    for v in values {
        value_bits.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    let h = fnv1a128(&[
        CACHE_SALT.as_bytes(),
        deck_fingerprint.as_bytes(),
        &value_bits,
        spec_fingerprint.as_bytes(),
        mode.as_bytes(),
    ]);
    format!("{h:032x}")
}

/// A flat-directory result cache, one file per job hash, optionally
/// size-bounded (see [`ResultCache::set_max_bytes`]).
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    max_bytes: Option<u64>,
}

impl ResultCache {
    /// Opens (and creates, if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            dir,
            max_bytes: None,
        })
    }

    /// Bounds the total size of `.sweepres` entries. After every
    /// [`store`](ResultCache::store), least-recently-written entries
    /// (oldest mtime first) are evicted until the directory fits the
    /// budget again. `None` (the default) disables eviction.
    pub fn set_max_bytes(&mut self, max_bytes: Option<u64>) {
        self.max_bytes = max_bytes;
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path of one job's entry.
    pub fn entry_path(&self, hash: &str) -> PathBuf {
        self.dir.join(format!("{hash}.sweepres"))
    }

    /// Loads a cached result, or `None` on a miss. A malformed or torn
    /// file is a miss (the job is recomputed and the entry rewritten),
    /// never an error.
    pub fn load(&self, hash: &str) -> Option<ScenarioResult> {
        let text = fs::read_to_string(self.entry_path(hash)).ok()?;
        parse_result(&text)
    }

    /// Stores one job's result atomically: the serialisation is written
    /// to a process-unique temporary name in the same directory, then
    /// renamed over the final entry, so concurrent or interrupted
    /// writers can never produce a readable half-entry.
    ///
    /// # Errors
    ///
    /// Any I/O failure writing or renaming the entry.
    pub fn store(&self, hash: &str, result: &ScenarioResult) -> io::Result<()> {
        let final_path = self.entry_path(hash);
        let tmp_path = self.dir.join(format!("{hash}.tmp.{}", std::process::id()));
        fs::write(&tmp_path, render_result(result))?;
        match fs::rename(&tmp_path, &final_path) {
            Ok(()) => {
                if self.max_bytes.is_some() {
                    // Best effort: an eviction hiccup (e.g. a concurrent
                    // shard deleting the same entry) must not fail the
                    // store — the budget is advisory, correctness is not.
                    let _ = self.evict_to_limit();
                }
                Ok(())
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp_path);
                Err(e)
            }
        }
    }

    /// Deletes oldest-mtime `.sweepres` entries until the directory's
    /// entry bytes fit `max_bytes`; a no-op without a budget. Deletion
    /// uses `remove_file` on final entry names only, so it composes with
    /// the write-then-rename protocol: a concurrent writer either fully
    /// re-creates an entry or leaves a plain miss, never a torn file.
    /// Returns the number of entries evicted.
    ///
    /// # Errors
    ///
    /// Any I/O failure listing the directory (individual stat/delete
    /// failures are skipped — another process may race us).
    pub fn evict_to_limit(&self) -> io::Result<usize> {
        let Some(budget) = self.max_bytes else {
            return Ok(0);
        };
        let mut entries: Vec<(std::time::SystemTime, u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let Ok(entry) = entry else { continue };
            let path = entry.path();
            if path.extension().is_none_or(|e| e != "sweepres") {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            entries.push((mtime, meta.len(), path));
        }
        let mut total: u64 = entries.iter().map(|(_, len, _)| len).sum();
        if total <= budget {
            return Ok(0);
        }
        // Oldest first; tie-break on the path name so eviction order is
        // deterministic on coarse-mtime filesystems.
        entries.sort_by(|a, b| (a.0, &a.2).cmp(&(b.0, &b.2)));
        let mut evicted = 0;
        for (_, len, path) in entries {
            if total <= budget {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                evicted += 1;
            }
        }
        Ok(evicted)
    }
}

/// Maps a stored analysis keyword back to the `'static` labels
/// [`ScenarioResult`] carries.
pub(crate) fn static_analysis(name: &str) -> Option<&'static str> {
    match name {
        "tran" => Some("tran"),
        "shooting" => Some("shooting"),
        "mpde" => Some("mpde"),
        "wampde" => Some("wampde"),
        _ => None,
    }
}

/// Serialises a result bit-exactly. Line-oriented, versioned, with a
/// trailing `end` marker so truncation is detectable.
fn render_result(r: &ScenarioResult) -> String {
    let ncols = r.rows.first().map_or(0, Vec::len);
    let mut s = String::new();
    s.push_str("sweepres 1\n");
    s.push_str(&format!("analysis {}\n", r.analysis));
    s.push_str(&format!("columns {}\n", r.columns.len()));
    for c in &r.columns {
        s.push_str(c);
        s.push('\n');
    }
    s.push_str(&format!("metrics {}\n", r.metrics.len()));
    for (name, v) in &r.metrics {
        s.push_str(&format!("{name} {:016x}\n", v.to_bits()));
    }
    s.push_str(&format!("rows {} {}\n", r.rows.len(), ncols));
    for row in &r.rows {
        let words: Vec<String> = row
            .iter()
            .map(|v| format!("{:016x}", v.to_bits()))
            .collect();
        s.push_str(&words.join(" "));
        s.push('\n');
    }
    s.push_str("end\n");
    s
}

fn parse_bits(word: &str) -> Option<f64> {
    u64::from_str_radix(word, 16).ok().map(f64::from_bits)
}

/// Strict inverse of [`render_result`]; any deviation returns `None`.
fn parse_result(text: &str) -> Option<ScenarioResult> {
    let mut lines = text.lines();
    if lines.next()? != "sweepres 1" {
        return None;
    }
    let analysis = static_analysis(lines.next()?.strip_prefix("analysis ")?)?;

    let ncolumns: usize = lines.next()?.strip_prefix("columns ")?.parse().ok()?;
    let mut columns = Vec::with_capacity(ncolumns);
    for _ in 0..ncolumns {
        columns.push(lines.next()?.to_string());
    }

    let nmetrics: usize = lines.next()?.strip_prefix("metrics ")?.parse().ok()?;
    let mut metrics = Vec::with_capacity(nmetrics);
    for _ in 0..nmetrics {
        let line = lines.next()?;
        let (name, bits) = line.rsplit_once(' ')?;
        metrics.push((name.to_string(), parse_bits(bits)?));
    }

    let shape = lines.next()?.strip_prefix("rows ")?;
    let (nrows, ncols) = shape.split_once(' ')?;
    let nrows: usize = nrows.parse().ok()?;
    let ncols: usize = ncols.parse().ok()?;
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let line = lines.next()?;
        let row: Option<Vec<f64>> = line.split(' ').map(parse_bits).collect();
        let row = row?;
        if row.len() != ncols {
            return None;
        }
        rows.push(row);
    }

    if lines.next()? != "end" || lines.next().is_some() {
        return None;
    }
    Some(ScenarioResult {
        analysis,
        columns,
        rows,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unique_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "sweepkit-cache-test-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_result() -> ScenarioResult {
        ScenarioResult {
            analysis: "wampde",
            columns: vec!["t2".into(), "amp(v(out))".into()],
            rows: vec![vec![0.0, 0.1 + 0.2], vec![1e-6, -3.5e10]],
            metrics: vec![("steps".into(), 131.0), ("omega_min_hz".into(), 7.5e5)],
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let r = sample_result();
        let back = parse_result(&render_result(&r)).unwrap();
        assert_eq!(r, back);
        // PartialEq on f64 misses -0.0 vs 0.0 and NaN subtleties; check
        // actual bits too.
        for (a, b) in r.rows.iter().flatten().zip(back.rows.iter().flatten()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn truncated_or_corrupt_entries_are_misses() {
        let full = render_result(&sample_result());
        for cut in [0, 10, full.len() / 2, full.len() - 2] {
            assert!(parse_result(&full[..cut]).is_none(), "cut at {cut}");
        }
        assert!(parse_result(&full.replace("wampde", "bogus")).is_none());
        assert!(parse_result(&(full.clone() + "trailing\n")).is_none());
    }

    #[test]
    fn store_load_and_miss() {
        let dir = unique_dir("store");
        let cache = ResultCache::open(&dir).unwrap();
        let r = sample_result();
        let h = job_hash("deck", &[1.5], "wampde t_stop=...");
        assert!(cache.load(&h).is_none());
        cache.store(&h, &r).unwrap();
        assert_eq!(cache.load(&h).unwrap(), r);
        // A torn (garbage) entry reads as a miss, not an error.
        fs::write(cache.entry_path(&h), "sweepres 1\nanalysis wam").unwrap();
        assert!(cache.load(&h).is_none());
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn job_hash_mode_discriminates() {
        let cold = job_hash("deck", &[1.5], "spec");
        assert_eq!(cold, job_hash_mode("deck", &[1.5], "spec", ""));
        let warm = job_hash_mode("deck", &[1.5], "spec", "warm:3ff8000000000000");
        assert_ne!(cold, warm);
        assert_ne!(
            warm,
            job_hash_mode("deck", &[1.5], "spec", "warm:4000000000000000")
        );
    }

    #[test]
    fn eviction_drops_oldest_entries_to_fit_budget() {
        let dir = unique_dir("evict");
        let mut cache = ResultCache::open(&dir).unwrap();
        let r = sample_result();
        let hashes: Vec<String> = (0..3)
            .map(|i| job_hash("deck", &[i as f64], "spec"))
            .collect();
        cache.store(&hashes[0], &r).unwrap();
        let entry_len = fs::metadata(cache.entry_path(&hashes[0])).unwrap().len();
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.store(&hashes[1], &r).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Room for two entries: storing the third must evict the oldest.
        cache.set_max_bytes(Some(2 * entry_len + entry_len / 2));
        cache.store(&hashes[2], &r).unwrap();
        assert!(cache.load(&hashes[0]).is_none(), "oldest entry survives");
        assert!(cache.load(&hashes[1]).is_some());
        assert!(cache.load(&hashes[2]).is_some());
        // Without a budget nothing is ever pruned.
        cache.set_max_bytes(None);
        assert_eq!(cache.evict_to_limit().unwrap(), 0);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn job_hash_sensitivity() {
        let h = job_hash("deck", &[1.5], "spec");
        assert_eq!(h.len(), 32);
        assert_eq!(h, job_hash("deck", &[1.5], "spec"));
        assert_ne!(h, job_hash("deck2", &[1.5], "spec"));
        assert_ne!(h, job_hash("deck", &[1.5000000001], "spec"));
        assert_ne!(h, job_hash("deck", &[1.5, 2.0], "spec"));
        assert_ne!(h, job_hash("deck", &[1.5], "spec2"));
        // Chunk boundaries matter: moving a byte across the separator
        // must change the hash.
        assert_ne!(job_hash("ab", &[], "c"), job_hash("a", &[], "bc"));
    }
}
