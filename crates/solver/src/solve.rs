//! The decision procedure.
//!
//! [`Solver::check`] normalises a formula into cubes (see [`crate::cube`]) and
//! decides each cube with:
//!
//! 1. an offset-carrying union-find that merges variable equalities
//!    (`v + a = w + b`),
//! 2. per-equivalence-class interval domains obtained by intersecting the
//!    domain literals of every class member,
//! 3. bound propagation across ordering literals until a fixpoint,
//! 4. disequality pruning when one side is already a singleton, and finally
//! 5. a bounded concrete-witness search whose candidate values are re-checked
//!    against every literal — `Sat` is only ever reported together with a
//!    verified [`Model`].

use crate::cache;
use crate::cube::{append_conjunct, to_cubes, Cube, CubeOverflow, Literal};
use crate::fingerprint;
use crate::formula::{CmpOp, Formula};
use crate::interval::IntervalSet;
use crate::model::Model;
use crate::path::{NodeCache, PathCond, PathNode};
use crate::stats::SolverStats;
use crate::table::Table;
use crate::term::SymVar;
use std::collections::BTreeMap;
use std::sync::{Arc, MutexGuard, OnceLock};
use std::time::Instant;

/// Tunable limits of the decision procedure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SolverConfig {
    /// Maximum number of cubes a formula may normalise into before the solver
    /// gives up with [`SolverResult::Unknown`].
    pub max_cubes: usize,
    /// Maximum number of candidate assignments tried per cube during the
    /// witness search.
    pub max_model_attempts: usize,
    /// Maximum number of bound-propagation sweeps per cube.
    pub max_propagation_rounds: usize,
    /// Number of sample values drawn from each variable domain during the
    /// witness search.
    pub samples_per_var: usize,
    /// Use the incremental prefix-cached procedure for [`PathCond`] queries
    /// ([`Solver::check_path`] and friends). When disabled, path queries are
    /// materialised into a single formula and solved from scratch — the
    /// baseline the benchmarks compare against. This knob selects *how*
    /// answers are obtained, never *what* they are, so it is excluded from
    /// the config fingerprint mixed into cache keys.
    pub incremental: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_cubes: 1 << 14,
            max_model_attempts: 4096,
            max_propagation_rounds: 64,
            samples_per_var: 6,
            incremental: true,
        }
    }
}

/// Outcome of a satisfiability query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolverResult {
    /// Satisfiable, with a verified witness.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// The solver exceeded a budget and could not decide the query.
    Unknown,
}

impl SolverResult {
    /// True if the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolverResult::Sat(_))
    }

    /// True if the result is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolverResult::Unsat)
    }
}

/// The cube normalisation of a path-condition prefix, or the budget overflow
/// that aborted it.
type CachedCubes = Result<Arc<Vec<Cube>>, CubeOverflow>;

/// Keys a shard of each content memo holds before it is cleared.
const MEMO_CAPACITY: usize = 8192;

/// The content memos are process-wide tables keyed on the query key the
/// persistent store uses too (see [`Solver::persisted`]): the prefix
/// fingerprint and the solver's [`fingerprint::config_fp`], combined under the
/// query's domain tag. They are shared by every worker's solver *and across
/// injections*: re-injecting a structurally identical scenario reproduces the
/// same fingerprints and therefore hits these entries instead of re-solving,
/// while solvers with different budgets never exchange results.
///
/// An entry is a pure function of its key, so a hit is taken whenever there
/// is one — whatever the state of the queried chain's node caches — and
/// changes nothing a report pins (see [`crate::stats`]). Each memo is cleared
/// shard by shard at capacity, like every solver table.
///
/// The memo for [`Solver::check_path`]: `DOMAIN_PATH` key → (prefix cubes,
/// verdict).
fn path_memo() -> &'static Table<(CachedCubes, SolverResult)> {
    static MEMO: OnceLock<Table<(CachedCubes, SolverResult)>> = OnceLock::new();
    MEMO.get_or_init(|| Table::new(MEMO_CAPACITY))
}

/// The memo for [`Solver::feasible_values_path`]: `DOMAIN_PROJECTION` key →
/// projection (see [`path_memo`]).
fn feasible_memo() -> &'static Table<Option<IntervalSet>> {
    static MEMO: OnceLock<Table<Option<IntervalSet>>> = OnceLock::new();
    MEMO.get_or_init(|| Table::new(MEMO_CAPACITY))
}

/// Clears the process-wide content memos. Benchmarks use this to measure a
/// genuinely cold (or warm-disk-only) run inside a process that has already
/// explored the same scenario; correctness never depends on memo contents, so
/// production code has no reason to call it.
#[doc(hidden)]
pub fn reset_process_memos() {
    path_memo().clear();
    feasible_memo().clear();
}

/// What a query hands back — a verdict or a projection: how it counts as an
/// outcome, and how the persistent store ([`crate::cache`]) reads and writes
/// it.
trait Answer: Sized {
    fn count(&self, stats: &mut SolverStats);
    fn lookup(key: u128) -> Option<Self>;
    fn store(&self, key: u128);
}

impl Answer for SolverResult {
    fn count(&self, stats: &mut SolverStats) {
        match self {
            SolverResult::Sat(_) => stats.sat += 1,
            SolverResult::Unsat => stats.unsat += 1,
            SolverResult::Unknown => stats.unknown += 1,
        }
    }

    fn lookup(key: u128) -> Option<Self> {
        cache::lookup_verdict(key)
    }

    fn store(&self, key: u128) {
        cache::store_verdict(key, self);
    }
}

/// A projection: `None` means the cube budget was exceeded.
impl Answer for Option<IntervalSet> {
    fn count(&self, stats: &mut SolverStats) {
        match self {
            Some(_) => stats.sat += 1,
            None => stats.unknown += 1,
        }
    }

    fn lookup(key: u128) -> Option<Self> {
        cache::lookup_projection(key)
    }

    fn store(&self, key: u128) {
        cache::store_projection(key, self);
    }
}

/// The constraint solver. Create one per analysis (it accumulates statistics)
/// and reuse it across queries.
///
/// Three layers of caching sit in front of the decision procedure, each a
/// pure function of what it is keyed on:
///
/// * the **prefix cache** lives on [`PathCond`] nodes (shared by every path
///   that forked from the same prefix and by every worker) and stores the cube
///   normalisation plus verdict of each prefix, so checking `P ∧ c` reuses the
///   analysis of `P` and only folds in `c`;
/// * the **content memos** are process-wide tables keyed on prefix
///   fingerprints (see [`crate::fingerprint`]), so structurally identical
///   prefixes — sibling extensions, or a whole scenario re-injected into a
///   fresh network — are answered without re-solving even though their nodes
///   are distinct;
/// * the **persistent store** ([`crate::cache`], off unless a directory is
///   configured) keeps verdicts and projections across processes, under the
///   same keys as the content memos.
///
/// The memos, the store's in-memory index and the formula interner are one
/// table type with one rule: a shard that reaches its capacity is cleared
/// (the store's index has none). No measured workload fills one; `paper
/// --full all` ends with `interner evictions: formulas 0/0`.
///
/// Which layer answers a query shows only in the measurement counters of
/// [`SolverStats`], never in an answer or in what a report serialises.
#[derive(Clone, Debug, Default)]
pub struct Solver {
    /// Limits of the decision procedure.
    pub config: SolverConfig,
    stats: SolverStats,
}

impl Solver {
    /// Creates a solver with the given configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        Solver {
            config,
            ..Solver::default()
        }
    }

    /// Accumulated statistics (queries, outcomes, time in solver).
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Resets the accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Consumes the solver, returning its accumulated statistics. This is the
    /// natural end of a per-worker solver's life in parallel exploration: each
    /// worker owns a `Solver`, and the engine merges the returned records into
    /// the run's totals (see [`SolverStats::merge`]).
    pub fn into_stats(self) -> SolverStats {
        self.stats
    }

    /// Runs one query: counts the call, its outcome and the time it took.
    fn query<T: Answer>(&mut self, run: impl FnOnce(&mut Self) -> T) -> T {
        let start = Instant::now();
        self.stats.calls += 1;
        let answer = run(self);
        answer.count(&mut self.stats);
        self.stats.time_in_solver += start.elapsed();
        answer
    }

    /// The persistent layer, in one place: when a cache directory is
    /// configured process-wide, looks the answer up under `key` — the
    /// query's content fingerprints and [`fingerprint::config_fp`] combined
    /// under its domain tag, built only when the layer is on; on a miss, or
    /// with the layer off, runs `solve` and stores what it returns.
    fn persisted<T: Answer>(
        &mut self,
        key: impl FnOnce() -> u128,
        solve: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !cache::active() {
            return solve(self);
        }
        let key = key();
        if let Some(answer) = T::lookup(key) {
            self.stats.persisted_hits += 1;
            return answer;
        }
        self.stats.persisted_misses += 1;
        let answer = solve(self);
        self.stats.persisted_stores += 1;
        answer.store(key);
        answer
    }

    /// Decides satisfiability of `formula`.
    pub fn check(&mut self, formula: &Formula) -> SolverResult {
        self.query(|s| {
            // `Unknown` is stored too: a cube-budget overflow is a
            // deterministic function of (formula, config), so caching it
            // saves the re-normalisation.
            let config = fingerprint::config_fp(&s.config);
            s.persisted(
                || {
                    let parts = [fingerprint::formula_fp(formula), config];
                    fingerprint::combine(fingerprint::DOMAIN_CHECK, &parts)
                },
                |s| s.solve_formula(formula),
            )
        })
    }

    /// Normalises and decides one formula from scratch, with every cache
    /// bypassed.
    fn solve_formula(&mut self, formula: &Formula) -> SolverResult {
        let Ok(cubes) = to_cubes(formula, self.config.max_cubes) else {
            return SolverResult::Unknown;
        };
        match self.solve_cubes(&cubes) {
            SolverResult::Sat(mut model) => {
                // Variables of the formula that the satisfied cube does not
                // mention are unconstrained on this disjunct; give them a
                // default value so the model is total.
                for var in formula.variables() {
                    if model.value(var.id).is_none() {
                        model.set(var.id, 0);
                    }
                }
                debug_assert!(model.satisfies(formula) || formula.variables().is_empty());
                SolverResult::Sat(model)
            }
            other => other,
        }
    }

    /// The core decision loop: examines cubes in order, first satisfiable cube
    /// wins (a `Sat` model covers only the winning cube's variables).
    fn solve_cubes(&mut self, cubes: &[Cube]) -> SolverResult {
        for cube in cubes {
            self.stats.cubes_examined += 1;
            if let Some(model) = self.solve_cube(cube) {
                return SolverResult::Sat(model);
            }
        }
        SolverResult::Unsat
    }

    /// True if the formula is satisfiable.
    pub fn is_sat(&mut self, formula: &Formula) -> bool {
        self.check(formula).is_sat()
    }

    /// True if the formula is proven unsatisfiable (an `Unknown` outcome
    /// returns false, i.e. the caller must treat the formula as possibly
    /// satisfiable).
    pub fn is_unsat(&mut self, formula: &Formula) -> bool {
        self.check(formula).is_unsat()
    }

    /// Returns a satisfying assignment, if one exists.
    pub fn model(&mut self, formula: &Formula) -> Option<Model> {
        match self.check(formula) {
            SolverResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// True if `premise` implies `conclusion`, i.e. `premise ∧ ¬conclusion` is
    /// unsatisfiable. Used for invariance checks.
    pub fn implies(&mut self, premise: &Formula, conclusion: &Formula) -> bool {
        let query = Formula::and(vec![premise.clone(), Formula::not(conclusion.clone())]);
        self.is_unsat(&query)
    }

    /// The loop-detection query of Figure 5: the old state is *included* in
    /// the new state iff `old ∧ ¬new` has no witness. A `true` answer means a
    /// network loop has been found (every packet admitted by the old state is
    /// also admitted by the new state, so execution can repeat forever).
    pub fn state_included(&mut self, old: &Formula, new: &Formula) -> bool {
        let query = Formula::and(vec![old.clone(), Formula::not(new.clone())]);
        self.is_unsat(&query)
    }

    // ------------------------------------------------------------------
    // Incremental queries over persistent path conditions
    // ------------------------------------------------------------------

    /// Decides satisfiability of a persistent path condition, reusing the
    /// analysis cached on its shared prefix nodes: only conjuncts that no
    /// earlier query has normalised are folded in, and a prefix that was
    /// already decided is answered without touching the decision procedure at
    /// all. With [`SolverConfig::incremental`] disabled this materialises the
    /// condition and solves it from scratch with every cache bypassed — the
    /// honest baseline the benchmarks compare against.
    ///
    /// A `Sat` answer carries a witness for the variables of the satisfying
    /// cube (unlike [`Solver::check`], unmentioned variables are not padded).
    pub fn check_path(&mut self, path: &PathCond) -> SolverResult {
        self.query(|s| {
            if s.config.incremental {
                s.check_path_inner(path)
            } else {
                s.solve_formula(&path.to_formula())
            }
        })
    }

    fn check_path_inner(&mut self, path: &PathCond) -> SolverResult {
        let Some(node) = path.node() else {
            return SolverResult::Sat(Model::new());
        };
        let mut guard = node.lock_cache();
        if let Some(result) = &guard.result {
            self.stats.prefix_hits += 1;
            return result.clone();
        }
        // Content memo: any prefix with the same *content* — a sibling
        // extension of a shared parent, or the same scenario re-injected into
        // a fresh network — has the same cubes and verdict (both are a
        // function of the conjunct sequence alone). The same key serves the
        // persistent layer.
        let config = fingerprint::config_fp(&self.config);
        let key = fingerprint::combine(fingerprint::DOMAIN_PATH, &[node.fingerprint(), config]);
        if let Some((cubes, result)) = path_memo().get(key) {
            self.stats.content_hits += 1;
            guard.cubes = Some(cubes);
            guard.result = Some(result.clone());
            return result;
        }
        self.stats.content_misses += 1;
        // The cube normalisation always runs (children of this node fold
        // their conjunct into it); the persistent layer can only skip
        // `solve_cubes`. An overflow is `Unknown` without consulting it.
        let cubes = self.cubes_locked(node, &mut guard);
        let result = match &cubes {
            Err(_) => SolverResult::Unknown,
            Ok(cubes) => self.persisted(|| key, |s| s.solve_cubes(cubes)),
        };
        guard.result = Some(result.clone());
        path_memo().insert(key, (cubes, result.clone()));
        result
    }

    /// True if the path condition is proven unsatisfiable (`Unknown` returns
    /// false, as for [`Solver::is_unsat`]).
    pub fn is_unsat_path(&mut self, path: &PathCond) -> bool {
        self.check_path(path).is_unsat()
    }

    /// Decides `path ∧ extra` without extending the path condition: the cached
    /// cube normalisation of `path` is reused and only `extra` is folded in.
    /// Used for one-off queries (invariance checks) that must not pollute the
    /// shared prefix chain.
    pub fn check_assuming(&mut self, path: &PathCond, extra: &Formula) -> SolverResult {
        self.query(|s| {
            if !s.config.incremental {
                return s.solve_formula(&Formula::and(vec![path.to_formula(), extra.clone()]));
            }
            let cubes = s
                .prefix_cubes(path)
                .and_then(|prefix| append_conjunct(&prefix, extra, s.config.max_cubes));
            match cubes {
                Err(_) => SolverResult::Unknown,
                Ok(cubes) => {
                    let config = fingerprint::config_fp(&s.config);
                    s.persisted(
                        || {
                            let parts =
                                [path.fingerprint(), fingerprint::formula_fp(extra), config];
                            fingerprint::combine(fingerprint::DOMAIN_ASSUMING, &parts)
                        },
                        |s| s.solve_cubes(&cubes),
                    )
                }
            }
        })
    }

    /// True if every packet admitted by `path` satisfies `conclusion`
    /// (`path ∧ ¬conclusion` is unsatisfiable).
    pub fn implies_path(&mut self, path: &PathCond, conclusion: &Formula) -> bool {
        self.check_assuming(path, &Formula::not(conclusion.clone()))
            .is_unsat()
    }

    /// Projects a persistent path condition onto one variable (the incremental
    /// counterpart of [`Solver::feasible_values`]). Results are memoised
    /// process-wide per `(prefix fingerprint, variable)`: the engine queries
    /// the same projection for every loop-detection field at every port
    /// arrival, sibling paths forked from one prefix repeat the identical
    /// query, and a re-injected scenario repeats all of them with fresh nodes
    /// but identical fingerprints.
    pub fn feasible_values_path(&mut self, path: &PathCond, var: SymVar) -> Option<IntervalSet> {
        if !self.config.incremental {
            return self.feasible_values(&path.to_formula(), var);
        }
        self.query(|s| {
            let parts = [
                path.fingerprint(),
                fingerprint::var_fp(var),
                fingerprint::config_fp(&s.config),
            ];
            let key = fingerprint::combine(fingerprint::DOMAIN_PROJECTION, &parts);
            if let Some(hit) = feasible_memo().get(key) {
                s.stats.content_hits += 1;
                return hit;
            }
            s.stats.content_misses += 1;
            let result = s.persisted(
                || key,
                |s| {
                    let cubes = s.prefix_cubes(path).ok()?;
                    Some(s.project_cubes(&cubes, var))
                },
            );
            feasible_memo().insert(key, result.clone());
            result
        })
    }

    /// Projects a cube list onto one variable: the union of the per-cube
    /// feasible sets of `var`, clamped to its width domain.
    fn project_cubes(&mut self, cubes: &[Cube], var: SymVar) -> IntervalSet {
        let (lo, hi) = var.domain();
        let mut acc = IntervalSet::empty();
        self.stats.cubes_examined += cubes.len() as u64;
        for cube in cubes {
            if let Some((mut uf, domains)) = self.propagate_cube(cube) {
                let (root, delta) = uf.find(var);
                let set = domains
                    .get(&root)
                    .cloned()
                    .unwrap_or_else(|| IntervalSet::range(lo - delta, hi - delta))
                    .shift(delta);
                acc = acc.union(&set.intersect(&IntervalSet::range(lo, hi)));
            }
        }
        acc
    }

    /// The cached cube normalisation of a whole path condition (an empty
    /// condition is the single trivially-true cube).
    fn prefix_cubes(&mut self, path: &PathCond) -> CachedCubes {
        match path.node() {
            None => Ok(Arc::new(vec![Cube::default()])),
            Some(node) => self.cubes_locked(node, &mut node.lock_cache()),
        }
    }

    /// Returns the cube normalisation of the prefix ending at `node`, whose
    /// cache guard the caller already holds, computing and caching it (and any
    /// uncached ancestors) on demand. Locks are only ever taken child→parent,
    /// so concurrent workers cannot deadlock, and holding the guard across the
    /// computation means no two workers normalise the same node at once.
    fn cubes_locked(
        &mut self,
        node: &PathNode,
        guard: &mut MutexGuard<'_, NodeCache>,
    ) -> CachedCubes {
        if let Some(cached) = &guard.cubes {
            self.stats.prefix_hits += 1;
            return cached.clone();
        }
        self.stats.prefix_misses += 1;
        let computed = self.prefix_cubes(node.parent()).and_then(|prefix| {
            append_conjunct(&prefix, node.formula(), self.config.max_cubes).map(Arc::new)
        });
        guard.cubes = Some(computed.clone());
        computed
    }

    /// Projects a formula onto one variable: the set of values `var` can take
    /// in *some* satisfying assignment. The result is exact for single-variable
    /// formulas and a (sound) over-approximation in the presence of
    /// cross-variable constraints, which is what the engine's loop-detection
    /// snapshots need. Returns `None` when the cube budget is exceeded.
    pub fn feasible_values(&mut self, formula: &Formula, var: SymVar) -> Option<IntervalSet> {
        self.query(|s| {
            let cubes = to_cubes(formula, s.config.max_cubes).ok()?;
            Some(s.project_cubes(&cubes, var))
        })
    }

    /// Runs the propagation phase (union-find, domain intersection, bound
    /// propagation, disequality pruning) of [`Self::solve_cube`] and returns
    /// the per-root domains, or `None` if the cube is contradictory.
    fn propagate_cube(&self, cube: &Cube) -> Option<(UnionFind, BTreeMap<SymVar, IntervalSet>)> {
        self.analyze_cube(cube).map(|a| (a.uf, a.domains))
    }

    /// Decides a single cube, returning a verified witness if it is
    /// satisfiable.
    fn solve_cube(&self, cube: &Cube) -> Option<Model> {
        let analysis = self.analyze_cube(cube)?;
        self.search_witness(&analysis)
    }

    /// Runs the constraint-propagation phase on a cube: union-find over
    /// equalities, per-root domain intersection, ordering bound propagation
    /// and disequality pruning. Returns `None` if a contradiction is found.
    fn analyze_cube(&self, cube: &Cube) -> Option<CubeAnalysis> {
        if cube.is_contradictory() {
            return None;
        }
        // 1. Merge equalities with an offset-carrying union-find.
        let mut uf = UnionFind::default();
        let mut orderings: Vec<OrderingLit> = Vec::new();
        let mut disequalities: Vec<((SymVar, i128), (SymVar, i128))> = Vec::new();
        for lit in &cube.cross {
            let Literal::Cross { op, lhs, rhs } = lit else {
                continue;
            };
            match op {
                CmpOp::Eq => {
                    // lhs.0 + lhs.1 == rhs.0 + rhs.1  ⇒  lhs.0 = rhs.0 + (rhs.1 - lhs.1)
                    if !uf.union(lhs.0, rhs.0, rhs.1 - lhs.1) {
                        return None;
                    }
                }
                CmpOp::Ne => disequalities.push((*lhs, *rhs)),
                _ => orderings.push((*op, *lhs, *rhs)),
            }
        }

        // 2. Per-root domains: each variable's domain literal (or full width
        // domain) expressed over its class root.
        let mut domains: BTreeMap<SymVar, IntervalSet> = BTreeMap::new();
        let mut vars: Vec<SymVar> = cube.domains.keys().copied().collect();
        for lit in &cube.cross {
            if let Literal::Cross { lhs, rhs, .. } = lit {
                vars.push(lhs.0);
                vars.push(rhs.0);
            }
        }
        vars.sort_unstable();
        vars.dedup();
        for var in &vars {
            let (root, delta) = uf.find(*var);
            let (lo, hi) = var.domain();
            let var_set = cube
                .domains
                .get(var)
                .cloned()
                .unwrap_or_else(|| IntervalSet::range(lo, hi));
            // value(var) = value(root) + delta  ⇒  value(root) ∈ set - delta.
            let root_set = var_set.shift(-delta);
            let entry = domains
                .entry(root)
                .or_insert_with(|| IntervalSet::range(i128::MIN / 4, i128::MAX / 4));
            *entry = entry.intersect(&root_set);
            if entry.is_empty() {
                return None;
            }
        }

        // 3. Bound propagation for ordering constraints, rewritten over roots.
        let root_orderings: Vec<OrderingLit> = orderings
            .iter()
            .filter_map(|(op, lhs, rhs)| {
                let (lr, ld) = uf.find(lhs.0);
                let (rr, rd) = uf.find(rhs.0);
                let l = (lr, lhs.1 + ld);
                let r = (rr, rhs.1 + rd);
                if lr == rr {
                    // Constant comparison within one class.
                    if op.eval(l.1, r.1) {
                        None
                    } else {
                        Some((CmpOp::Eq, (lr, 0), (lr, 1))) // impossible marker
                    }
                } else {
                    Some((*op, l, r))
                }
            })
            .collect();
        if root_orderings
            .iter()
            .any(|(op, l, r)| *op == CmpOp::Eq && l.0 == r.0 && l.1 != r.1)
        {
            return None;
        }
        for _ in 0..self.config.max_propagation_rounds {
            let mut changed = false;
            for (op, (lv, lo_off), (rv, ro_off)) in &root_orderings {
                if lv == rv {
                    continue;
                }
                let ld = domains.get(lv).cloned()?;
                let rd = domains.get(rv).cloned()?;
                let (lmin, lmax) = (ld.min()?, ld.max()?);
                let (rmin, rmax) = (rd.min()?, rd.max()?);
                // value(lv) + lo_off  op  value(rv) + ro_off
                let (new_l, new_r) = match op {
                    CmpOp::Lt => (
                        ld.intersect(&IntervalSet::range(lmin, rmax + ro_off - lo_off - 1)),
                        rd.intersect(&IntervalSet::range(lmin + lo_off - ro_off + 1, rmax)),
                    ),
                    CmpOp::Le => (
                        ld.intersect(&IntervalSet::range(lmin, rmax + ro_off - lo_off)),
                        rd.intersect(&IntervalSet::range(lmin + lo_off - ro_off, rmax)),
                    ),
                    CmpOp::Gt => (
                        ld.intersect(&IntervalSet::range(rmin + ro_off - lo_off + 1, lmax)),
                        rd.intersect(&IntervalSet::range(rmin, lmax + lo_off - ro_off - 1)),
                    ),
                    CmpOp::Ge => (
                        ld.intersect(&IntervalSet::range(rmin + ro_off - lo_off, lmax)),
                        rd.intersect(&IntervalSet::range(rmin, lmax + lo_off - ro_off)),
                    ),
                    _ => (ld.clone(), rd.clone()),
                };
                if new_l.is_empty() || new_r.is_empty() {
                    return None;
                }
                if new_l != ld {
                    domains.insert(*lv, new_l);
                    changed = true;
                }
                if new_r != rd {
                    domains.insert(*rv, new_r);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // 4. Disequality pruning when one side is a singleton.
        let root_disequalities: Vec<((SymVar, i128), (SymVar, i128))> = disequalities
            .iter()
            .map(|(lhs, rhs)| {
                let (lr, ld) = uf.find(lhs.0);
                let (rr, rd) = uf.find(rhs.0);
                ((lr, lhs.1 + ld), (rr, rhs.1 + rd))
            })
            .collect();
        for ((lv, lo_off), (rv, ro_off)) in &root_disequalities {
            if lv == rv {
                if lo_off == ro_off {
                    return None;
                }
                continue;
            }
            let ld = domains.get(lv)?.clone();
            let rd = domains.get(rv)?.clone();
            if ld.cardinality() == 1 {
                let point = ld.min()? + lo_off - ro_off;
                let pruned = rd.remove_point(point);
                if pruned.is_empty() {
                    return None;
                }
                domains.insert(*rv, pruned);
            } else if rd.cardinality() == 1 {
                let point = rd.min()? + ro_off - lo_off;
                let pruned = ld.remove_point(point);
                if pruned.is_empty() {
                    return None;
                }
                domains.insert(*lv, pruned);
            }
        }

        Some(CubeAnalysis {
            uf,
            domains,
            root_orderings,
            root_disequalities,
            vars,
        })
    }

    /// Searches for a concrete witness of an analysed cube by enumerating
    /// sampled candidate values per equivalence-class root and re-checking
    /// every literal.
    fn search_witness(&self, analysis: &CubeAnalysis) -> Option<Model> {
        let CubeAnalysis {
            uf,
            domains,
            root_orderings,
            root_disequalities,
            vars,
        } = analysis;
        let mut uf = uf.clone();
        // Witness search over sampled candidate values.
        let roots: Vec<SymVar> = domains.keys().copied().collect();
        let candidates: Vec<Vec<i128>> = roots
            .iter()
            .map(|r| domains[r].samples(self.config.samples_per_var))
            .collect();
        if candidates.iter().any(Vec::is_empty) {
            return None;
        }
        let check = |assignment: &BTreeMap<SymVar, i128>| -> bool {
            for (op, l, r) in root_orderings {
                let lv = assignment[&l.0] + l.1;
                let rv = assignment[&r.0] + r.1;
                if !op.eval(lv, rv) {
                    return false;
                }
            }
            for (l, r) in root_disequalities {
                let lv = assignment[&l.0] + l.1;
                let rv = assignment[&r.0] + r.1;
                if lv == rv {
                    return false;
                }
            }
            true
        };
        let mut attempt = 0usize;
        let mut indices = vec![0usize; roots.len()];
        loop {
            attempt += 1;
            if attempt > self.config.max_model_attempts {
                return None;
            }
            let assignment: BTreeMap<SymVar, i128> = roots
                .iter()
                .zip(indices.iter())
                .map(|(r, &i)| {
                    (
                        *r,
                        candidates[roots.iter().position(|x| x == r).unwrap()][i],
                    )
                })
                .collect();
            if check(&assignment) {
                // Expand to every original variable and verify width bounds.
                let mut model = Model::new();
                let mut ok = true;
                for var in vars {
                    let (root, delta) = uf.find(*var);
                    let value = assignment[&root] + delta;
                    if value < 0 || value > var.max_value() as i128 {
                        ok = false;
                        break;
                    }
                    model.set(var.id, value as u64);
                }
                if ok {
                    return Some(model);
                }
            }
            // Advance the index vector (odometer order).
            let mut pos = 0usize;
            loop {
                if pos >= roots.len() {
                    return None;
                }
                indices[pos] += 1;
                if indices[pos] < candidates[pos].len() {
                    break;
                }
                indices[pos] = 0;
                pos += 1;
            }
        }
    }
}

/// An ordering literal rewritten over terms: `lhs.0 + lhs.1  op  rhs.0 + rhs.1`.
type OrderingLit = (CmpOp, (SymVar, i128), (SymVar, i128));

/// Result of the propagation phase on one cube.
struct CubeAnalysis {
    /// Equality classes (offset-carrying union-find).
    uf: UnionFind,
    /// Value domain per equivalence-class root.
    domains: BTreeMap<SymVar, IntervalSet>,
    /// Ordering literals rewritten over roots.
    root_orderings: Vec<OrderingLit>,
    /// Disequality literals rewritten over roots.
    root_disequalities: Vec<((SymVar, i128), (SymVar, i128))>,
    /// Every variable mentioned by the cube.
    vars: Vec<SymVar>,
}

/// Union-find where every node stores an offset to its parent:
/// `value(node) = value(parent) + offset`.
#[derive(Clone, Debug, Default)]
struct UnionFind {
    parent: BTreeMap<SymVar, (SymVar, i128)>,
}

impl UnionFind {
    /// Returns `(root, delta)` with `value(var) = value(root) + delta`.
    fn find(&mut self, var: SymVar) -> (SymVar, i128) {
        let Some(&(parent, offset)) = self.parent.get(&var) else {
            return (var, 0);
        };
        if parent == var {
            return (var, 0);
        }
        let (root, parent_delta) = self.find(parent);
        let delta = offset + parent_delta;
        self.parent.insert(var, (root, delta));
        (root, delta)
    }

    /// Adds the constraint `value(a) = value(b) + delta`. Returns false if it
    /// contradicts an existing equality.
    fn union(&mut self, a: SymVar, b: SymVar, delta: i128) -> bool {
        let (ra, da) = self.find(a);
        let (rb, db) = self.find(b);
        if ra == rb {
            // value(a) = value(ra) + da and value(b) = value(ra) + db; the new
            // constraint requires da == db + delta.
            return da == db + delta;
        }
        // value(ra) = value(a) - da = value(b) + delta - da = value(rb) + db + delta - da.
        self.parent.insert(ra, (rb, db + delta - da));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn v(id: u64, w: u8) -> SymVar {
        SymVar::new(id, w)
    }

    fn solver() -> Solver {
        Solver::default()
    }

    #[test]
    fn trivial_formulas() {
        let mut s = solver();
        assert!(s.is_sat(&Formula::True));
        assert!(s.is_unsat(&Formula::False));
    }

    #[test]
    fn single_variable_range() {
        let mut s = solver();
        let x = v(0, 16);
        let f = Formula::and(vec![
            Formula::cmp_const(CmpOp::Ge, x, 100),
            Formula::cmp_const(CmpOp::Lt, x, 200),
        ]);
        let m = s.model(&f).unwrap();
        let val = m.value(x.id).unwrap();
        assert!((100..200).contains(&val));
        let unsat = Formula::and(vec![f, Formula::cmp_const(CmpOp::Gt, x, 1000)]);
        assert!(s.is_unsat(&unsat));
    }

    #[test]
    fn equality_chain_is_propagated() {
        let mut s = solver();
        let a = v(0, 32);
        let b = v(1, 32);
        let c = v(2, 32);
        // a == b + 10, b == c, c == 5  ⇒  a == 15.
        let f = Formula::and(vec![
            Formula::cmp(CmpOp::Eq, Term::var(a), Term::var(b).plus(10)),
            Formula::cmp(CmpOp::Eq, Term::var(b), Term::var(c)),
            Formula::eq_const(c, 5),
        ]);
        let m = s.model(&f).unwrap();
        assert_eq!(m.value(a.id), Some(15));
        assert_eq!(m.value(b.id), Some(5));
        assert_eq!(m.value(c.id), Some(5));
        // Contradictory chain.
        let g = Formula::and(vec![
            Formula::cmp(CmpOp::Eq, Term::var(a), Term::var(b)),
            Formula::eq_const(a, 1),
            Formula::eq_const(b, 2),
        ]);
        assert!(s.is_unsat(&g));
    }

    #[test]
    fn ordering_between_variables() {
        let mut s = solver();
        let x = v(0, 8);
        let y = v(1, 8);
        // x < y, y <= 3, x >= 2  ⇒  x = 2, y = 3.
        let f = Formula::and(vec![
            Formula::cmp(CmpOp::Lt, Term::var(x), Term::var(y)),
            Formula::cmp_const(CmpOp::Le, y, 3),
            Formula::cmp_const(CmpOp::Ge, x, 2),
        ]);
        let m = s.model(&f).unwrap();
        assert_eq!(m.value(x.id), Some(2));
        assert_eq!(m.value(y.id), Some(3));
        // Impossible ordering cycle: x < y, y < x.
        let g = Formula::and(vec![
            Formula::cmp(CmpOp::Lt, Term::var(x), Term::var(y)),
            Formula::cmp(CmpOp::Lt, Term::var(y), Term::var(x)),
        ]);
        assert!(s.is_unsat(&g));
    }

    #[test]
    fn disequality_with_singleton() {
        let mut s = solver();
        let x = v(0, 8);
        let y = v(1, 8);
        let f = Formula::and(vec![
            Formula::eq_const(x, 7),
            Formula::cmp(CmpOp::Ne, Term::var(y), Term::var(x)),
            Formula::cmp_const(CmpOp::Le, y, 7),
        ]);
        let m = s.model(&f).unwrap();
        assert_ne!(m.value(y.id), Some(7));
        // x != x is unsat.
        let g = Formula::cmp(CmpOp::Ne, Term::var(x), Term::var(x));
        assert!(s.is_unsat(&g));
        // Forced equality plus disequality is unsat.
        let h = Formula::and(vec![
            Formula::eq_const(x, 7),
            Formula::eq_const(y, 7),
            Formula::cmp(CmpOp::Ne, Term::var(y), Term::var(x)),
        ]);
        assert!(s.is_unsat(&h));
    }

    #[test]
    fn huge_same_variable_disjunction_is_fast() {
        let mut s = solver();
        let mac = v(0, 48);
        let f = Formula::or(
            (0..100_000u64)
                .map(|m| Formula::eq_const(mac, m * 3 + 1))
                .collect(),
        );
        let with_filter =
            Formula::and(vec![f.clone(), Formula::cmp_const(CmpOp::Ge, mac, 299_990)]);
        let m = s.model(&with_filter).unwrap();
        let val = m.value(mac.id).unwrap();
        assert!(val >= 299_990 && (val - 1).is_multiple_of(3));
        // Excluding every member is unsat.
        let excluded = Formula::and(vec![f, Formula::cmp_const(CmpOp::Gt, mac, 300_000)]);
        assert!(s.is_unsat(&excluded));
    }

    #[test]
    fn prefix_matching_with_exclusion() {
        let mut s = solver();
        let ip = v(0, 32);
        // 10.0.0.0/8 but not 10.10.0.1/32 — the LPM exclusion trick from §7.
        let f = Formula::and(vec![
            Formula::prefix_match(ip, 0x0a000000, 8),
            Formula::not(Formula::prefix_match(ip, 0x0a0a0001, 32)),
        ]);
        let m = s.model(&f).unwrap();
        let val = m.value(ip.id).unwrap();
        assert_eq!(val >> 24, 0x0a);
        assert_ne!(val, 0x0a0a0001);
        // The excluded point alone is unsat.
        let g = Formula::and(vec![f, Formula::eq_const(ip, 0x0a0a0001)]);
        assert!(s.is_unsat(&g));
    }

    #[test]
    fn implies_and_state_included() {
        let mut s = solver();
        let x = v(0, 16);
        let narrow = Formula::and(vec![
            Formula::cmp_const(CmpOp::Ge, x, 10),
            Formula::cmp_const(CmpOp::Le, x, 20),
        ]);
        let wide = Formula::cmp_const(CmpOp::Le, x, 100);
        assert!(s.implies(&narrow, &wide));
        assert!(!s.implies(&wide, &narrow));
        // Loop detection semantics (Fig. 5): old ⊆ new ⇒ loop.
        assert!(s.state_included(&narrow, &wide));
        assert!(!s.state_included(&wide, &narrow));
        // Identical states always loop.
        assert!(s.state_included(&narrow, &narrow));
    }

    #[test]
    fn unknown_on_cube_blowup() {
        let mut s = Solver::with_config(SolverConfig {
            max_cubes: 8,
            ..Default::default()
        });
        let mut parts = Vec::new();
        for i in 0..10u64 {
            parts.push(Formula::or(vec![
                Formula::eq_const(v(2 * i, 8), 0),
                Formula::eq_const(v(2 * i + 1, 8), 0),
            ]));
        }
        let f = Formula::and(parts);
        assert_eq!(s.check(&f), SolverResult::Unknown);
        assert_eq!(s.stats().unknown, 1);
    }

    #[test]
    fn stats_are_accumulated() {
        let mut s = solver();
        let x = v(0, 8);
        s.is_sat(&Formula::eq_const(x, 1));
        s.is_unsat(&Formula::and(vec![
            Formula::eq_const(x, 1),
            Formula::eq_const(x, 2),
        ]));
        assert_eq!(s.stats().calls, 2);
        assert_eq!(s.stats().sat, 1);
        assert_eq!(s.stats().unsat, 1);
        s.reset_stats();
        assert_eq!(s.stats().calls, 0);
    }

    #[test]
    fn prefix_sharing_chain_hits_the_caches() {
        use crate::path::PathCond;
        let mut s = solver();
        let x = v(0, 16);
        let y = v(1, 16);
        let base = PathCond::empty()
            .push(Formula::cmp_const(CmpOp::Ge, x, 10))
            .push(Formula::cmp_const(CmpOp::Le, x, 500));
        assert!(s.check_path(&base).is_sat());
        let after_base = s.stats().clone();
        assert!(after_base.prefix_misses > 0);

        // Two extensions forked from the same prefix: both reuse the cached
        // analysis of `base` and only fold in their own conjunct.
        let a = base.push(Formula::eq_const(y, 7));
        let b = base.push(Formula::cmp_const(CmpOp::Gt, x, 1000));
        assert!(s.check_path(&a).is_sat());
        assert!(s.check_path(&b).is_unsat());
        assert!(
            s.stats().prefix_hits > after_base.prefix_hits,
            "extensions must reuse the shared prefix: {:?}",
            s.stats()
        );

        // Re-checking an already-decided prefix is a pure cache hit.
        let before = s.stats().clone();
        assert!(s.check_path(&a).is_sat());
        assert_eq!(s.stats().prefix_hits, before.prefix_hits + 1);
        assert_eq!(s.stats().cubes_examined, before.cubes_examined);

        // A structurally identical sibling extension (distinct node, same
        // parent and conjunct) is answered by the content-keyed memo.
        let twin = base.push(Formula::eq_const(y, 7));
        let before_memo = s.stats().content_hits;
        assert!(s.check_path(&twin).is_sat());
        assert_eq!(s.stats().content_hits, before_memo + 1);

        // Projection memo: the same (prefix, variable) projection twice.
        let first = s.feasible_values_path(&a, x).unwrap();
        let memo_before = s.stats().content_hits;
        let second = s.feasible_values_path(&a, x).unwrap();
        assert_eq!(first, second);
        assert_eq!(s.stats().content_hits, memo_before + 1);

        // The caches never change answers: a fresh from-scratch solver agrees.
        let mut scratch = Solver::with_config(SolverConfig {
            incremental: false,
            ..SolverConfig::default()
        });
        assert!(scratch.check_path(&a).is_sat());
        assert!(scratch.check_path(&b).is_unsat());
        assert_eq!(scratch.feasible_values_path(&a, x), Some(first));
    }

    #[test]
    fn warm_content_memo_answers_a_rebuilt_unnormalised_chain() {
        // Variables no other test in this binary uses: the memos are
        // process-wide.
        let x = v(900, 16);
        let y = v(901, 16);
        let build = || -> PathCond {
            [
                Formula::cmp_const(CmpOp::Ge, x, 10),
                Formula::cmp_const(CmpOp::Le, x, 500),
                Formula::cmp(CmpOp::Eq, Term::var(y), Term::var(x).plus(3)),
            ]
            .into_iter()
            .collect()
        };
        let original = build();
        let mut first = solver();
        let verdict = first.check_path(&original);
        let projection = first.feasible_values_path(&original, y);
        assert!(verdict.is_sat() && projection.is_some());
        assert!(first.stats().cubes_examined > 0);

        // The same conjunct sequence on fresh nodes, none of them normalised:
        // the memo answers from the tip's content alone, so no node is
        // normalised and no cube examined.
        let mut warm = solver();
        assert_eq!(warm.check_path(&build()), verdict);
        assert_eq!(warm.stats().content_hits, 1, "{:?}", warm.stats());
        assert_eq!(warm.stats().prefix_misses, 0, "{:?}", warm.stats());
        assert_eq!(warm.stats().cubes_examined, 0, "{:?}", warm.stats());

        // Likewise for a projection asked of an un-normalised tip.
        let mut warm = solver();
        assert_eq!(warm.feasible_values_path(&build(), y), projection);
        assert_eq!(warm.stats().content_hits, 1, "{:?}", warm.stats());
        assert_eq!(warm.stats().prefix_misses, 0, "{:?}", warm.stats());
        assert_eq!(warm.stats().cubes_examined, 0, "{:?}", warm.stats());

        // Which layer answered is a measurement; what was asked and answered
        // is the same either way.
        assert_eq!((warm.stats().calls, warm.stats().sat), (1, 1));
    }

    #[test]
    fn differently_budgeted_solvers_never_share_memo_entries() {
        // Four two-variable disjunctions normalise into 16 cubes: over a
        // budget of 8, well inside the default one. Each order runs on its
        // own variables, so both start from a cold memo.
        let tight = SolverConfig {
            max_cubes: 8,
            ..SolverConfig::default()
        };
        for (base, order) in [
            (920, [tight, SolverConfig::default()]),
            (940, [SolverConfig::default(), tight]),
        ] {
            let build = || -> PathCond {
                (0..4u64)
                    .map(|i| {
                        Formula::or(vec![
                            Formula::eq_const(v(base + 2 * i, 8), 0),
                            Formula::eq_const(v(base + 2 * i + 1, 8), 0),
                        ])
                    })
                    .collect()
            };
            for config in order {
                // A freshly rebuilt chain: no node cache can answer, only the
                // memo could.
                let chain = build();
                let mut s = Solver::with_config(config);
                let verdict = s.check_path(&chain);
                assert_eq!(
                    (s.stats().content_hits, s.stats().content_misses),
                    (0, 1),
                    "{config:?}"
                );
                let projection = s.feasible_values_path(&chain, v(base, 8));
                assert_eq!(
                    (s.stats().content_hits, s.stats().content_misses),
                    (0, 2),
                    "{config:?}"
                );
                if config == tight {
                    assert_eq!(verdict, SolverResult::Unknown);
                    assert_eq!(projection, None);
                } else {
                    assert!(verdict.is_sat(), "{verdict:?}");
                    assert!(projection.is_some());
                }
            }
        }
    }

    #[test]
    fn a_poisoned_prefix_lock_does_not_take_later_queries_down() {
        let x = v(910, 16);
        let base = PathCond::empty().push(Formula::cmp_const(CmpOp::Ge, x, 10));
        let sat = base.push(Formula::cmp_const(CmpOp::Le, x, 20));
        let unsat = base.push(Formula::cmp_const(CmpOp::Lt, x, 5));

        // A worker dies while holding the shared prefix node's cache lock.
        let held = base.clone();
        let worker = std::thread::spawn(move || {
            let _guard = held.node().unwrap().lock_cache();
            panic!("worker died holding a prefix lock");
        });
        assert!(worker.join().is_err());

        // Every later query on that prefix still answers, and agrees with a
        // from-scratch solver.
        let mut s = solver();
        let mut scratch = Solver::with_config(SolverConfig {
            incremental: false,
            ..SolverConfig::default()
        });
        for path in [&sat, &unsat, &base] {
            assert_eq!(s.check_path(path), scratch.check_path(path));
            assert_eq!(
                s.feasible_values_path(path, x),
                scratch.feasible_values_path(path, x)
            );
        }
        assert!(s.check_path(&sat).is_sat() && s.check_path(&unsat).is_unsat());
    }

    #[test]
    fn cross_variable_with_domains_and_offsets() {
        let mut s = solver();
        let len = v(0, 16);
        let mtu = v(1, 16);
        // The §8.4 MTU scenario: len + 20 < mtu, mtu == 1536 ⇒ len < 1516.
        let f = Formula::and(vec![
            Formula::cmp(CmpOp::Lt, Term::var(len).plus(20), Term::var(mtu)),
            Formula::eq_const(mtu, 1536),
        ]);
        let m = s.model(&f).unwrap();
        assert!(m.value(len.id).unwrap() < 1516);
        let g = Formula::and(vec![f, Formula::cmp_const(CmpOp::Ge, len, 1516)]);
        assert!(s.is_unsat(&g));
    }

    #[test]
    fn model_respects_width_bounds() {
        let mut s = solver();
        let x = v(0, 4);
        let y = v(1, 4);
        // y == x + 12 with both 4-bit wide: only x in 0..=3 works.
        let f = Formula::cmp(CmpOp::Eq, Term::var(y), Term::var(x).plus(12));
        let m = s.model(&f).unwrap();
        let xv = m.value(x.id).unwrap();
        let yv = m.value(y.id).unwrap();
        assert_eq!(yv, xv + 12);
        assert!(yv <= 15);
    }
}
