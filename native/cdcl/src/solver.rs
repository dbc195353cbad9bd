//! A conflict-driven clause-learning SAT solver in the style of MiniSat
//! (Eén & Sörensson, "An Extensible SAT-solver", SAT 2003):
//!
//!   * two watched literals per clause, with a blocking literal;
//!   * first-UIP conflict analysis with recursive clause minimisation;
//!   * VSIDS branching over a binary heap, with phase saving;
//!   * Luby restarts;
//!   * learned-clause reduction by literal block distance, then activity,
//!     and compaction of the clause arena once half of it is garbage;
//!   * incremental use: clauses may be added between solves, and
//!     assumptions are decisions below every search level, so they never
//!     stick;
//!   * per-call conflict and wall-clock budgets.
//!
//! Variables are 0-based inside; the DIMACS variable `v` is variable `v - 1`.

use std::time::{Duration, Instant};

/// A literal: variable `v` occurs as `2v` (positive) or `2v + 1` (negative).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Lit(u32);

impl Lit {
    fn from_dimacs(lit: i32) -> Lit {
        let var = lit.unsigned_abs() - 1;
        Lit(var << 1 | (lit < 0) as u32)
    }

    fn var(self) -> usize {
        (self.0 >> 1) as usize
    }

    fn idx(self) -> usize {
        self.0 as usize
    }

    fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

const TRUE: i8 = 1;
const FALSE: i8 = -1;
const UNDEF: i8 = 0;

/// Clause reference: offset of the clause header in the arena.
type CRef = u32;
const NO_REASON: CRef = u32::MAX;

// Arena layout per clause: [len, flags | lbd << 2, activity bits, lits...].
const HEADER: usize = 3;
const LEARNT: u32 = 1;
const DELETED: u32 = 2;

#[derive(Clone, Copy)]
struct Watcher {
    cref: CRef,
    blocker: Lit,
}

/// Outcome of one call to [`Solver::solve`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    Sat,
    Unsat,
    Unknown,
}

/// Why one restart-bounded round of search stopped.
enum Round {
    Done(Status),
    Restart,
}

/// Max-heap of variables ordered by activity.
#[derive(Default)]
struct VarHeap {
    heap: Vec<u32>,
    pos: Vec<i32>, // index in `heap`, or -1
}

impl VarHeap {
    fn grow(&mut self, vars: usize) {
        self.pos.resize(vars, -1);
    }

    fn contains(&self, v: usize) -> bool {
        self.pos[v] >= 0
    }

    fn insert(&mut self, v: usize, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v] = self.heap.len() as i32;
        self.heap.push(v as u32);
        self.up(self.heap.len() - 1, act);
    }

    fn pop(&mut self, act: &[f64]) -> Option<usize> {
        let top = *self.heap.first()? as usize;
        let last = self.heap.pop().unwrap();
        self.pos[top] = -1;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.down(0, act);
        }
        Some(top)
    }

    /// Restore the heap order after `v`'s activity increased.
    fn bumped(&mut self, v: usize, act: &[f64]) {
        if self.contains(v) {
            self.up(self.pos[v] as usize, act);
        }
    }

    fn up(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if act[p as usize] >= act[v as usize] {
                break;
            }
            self.heap[i] = p;
            self.pos[p as usize] = i as i32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as i32;
    }

    fn down(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && act[self.heap[right] as usize] > act[self.heap[left] as usize]
            {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if act[c as usize] <= act[v as usize] {
                break;
            }
            self.heap[i] = c;
            self.pos[c as usize] = i as i32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as i32;
    }
}

/// The i-th element (0-based) of the Luby sequence 1 1 2 1 1 2 4 1 1 2 ...
fn luby(mut i: u64) -> u64 {
    let (mut size, mut seq) = (1u64, 0u32);
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != i {
        size = (size - 1) >> 1;
        seq -= 1;
        i %= size;
    }
    1 << seq
}

pub struct Solver {
    ok: bool, // false once the clause set is unsatisfiable without assumptions
    arena: Vec<u32>,
    wasted: usize,
    clauses: Vec<CRef>,
    learnts: Vec<CRef>,
    watches: Vec<Vec<Watcher>>, // by literal: clauses watching that literal
    vals: Vec<i8>,              // by literal
    level: Vec<u32>,
    reason: Vec<CRef>,
    phase: Vec<bool>, // saved polarity: true means negative
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f32,
    order: VarHeap,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    seen: Vec<bool>,
    level_stamp: Vec<u64>,
    stamp: u64,
    model: Vec<i8>, // by variable, from the last satisfiable solve
    assumptions: Vec<Lit>,
    next_reduce: u64,
    reductions: u64,
    conflicts: u64,
    decisions: u64,
    last_conflicts: u64, // conflicts of the last call to `solve`
}

impl Solver {
    pub fn new() -> Solver {
        Solver {
            ok: true,
            arena: Vec::new(),
            wasted: 0,
            clauses: Vec::new(),
            learnts: Vec::new(),
            watches: Vec::new(),
            vals: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            phase: Vec::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: VarHeap::default(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            seen: Vec::new(),
            level_stamp: vec![0],
            stamp: 0,
            model: Vec::new(),
            assumptions: Vec::new(),
            next_reduce: 2000,
            reductions: 0,
            conflicts: 0,
            decisions: 0,
            last_conflicts: 0,
        }
    }

    /// Conflicts met by the last call to `solve`.
    pub fn last_conflicts(&self) -> u64 {
        self.last_conflicts
    }

    /// +1 / -1 for a literal true / false in the last model, 0 when there is
    /// no model or the variable is not in it.
    pub fn value(&self, lit: i32) -> i32 {
        if lit == 0 {
            return 0;
        }
        let var = lit.unsigned_abs() as usize - 1;
        match self.model.get(var) {
            Some(&v) if lit > 0 => v as i32,
            Some(&v) => -(v as i32),
            None => 0,
        }
    }

    // -- variables and assignment -------------------------------------------

    fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Map a DIMACS literal, creating its variable if it is new.
    fn import(&mut self, lit: i32) -> Lit {
        let n = lit.unsigned_abs() as usize;
        let old = self.num_vars();
        if n > old {
            self.watches.resize_with(2 * n, Vec::new);
            self.vals.resize(2 * n, UNDEF);
            self.level.resize(n, 0);
            self.reason.resize(n, NO_REASON);
            self.phase.resize(n, true);
            self.activity.resize(n, 0.0);
            self.seen.resize(n, false);
            self.order.grow(n);
            for v in old..n {
                self.order.insert(v, &self.activity);
            }
        }
        Lit::from_dimacs(lit)
    }

    fn value_of(&self, lit: Lit) -> i8 {
        self.vals[lit.idx()]
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn assign(&mut self, lit: Lit, reason: CRef) {
        let v = lit.var();
        self.vals[lit.idx()] = TRUE;
        self.vals[(!lit).idx()] = FALSE;
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    fn cancel_until(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let start = self.trail_lim[level];
        for i in (start..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var();
            self.vals[lit.idx()] = UNDEF;
            self.vals[(!lit).idx()] = UNDEF;
            self.phase[v] = lit.is_neg();
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(start);
        self.trail_lim.truncate(level);
        self.qhead = start;
    }

    // -- clause arena ----------------------------------------------------------

    fn clause_len(&self, c: CRef) -> usize {
        self.arena[c as usize] as usize
    }

    fn lit_at(&self, c: CRef, i: usize) -> Lit {
        Lit(self.arena[c as usize + HEADER + i])
    }

    fn flags(&self, c: CRef) -> u32 {
        self.arena[c as usize + 1]
    }

    fn lbd(&self, c: CRef) -> u32 {
        self.flags(c) >> 2
    }

    fn activity_of(&self, c: CRef) -> f32 {
        f32::from_bits(self.arena[c as usize + 2])
    }

    fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> CRef {
        let c = self.arena.len();
        assert!(
            c + HEADER + lits.len() < NO_REASON as usize,
            "clause arena full"
        );
        self.arena.push(lits.len() as u32);
        self.arena.push(lbd << 2 | if learnt { LEARNT } else { 0 });
        self.arena.push(0f32.to_bits());
        self.arena.extend(lits.iter().map(|l| l.0));
        c as CRef
    }

    fn watch(&mut self, c: CRef) {
        let (a, b) = (self.lit_at(c, 0), self.lit_at(c, 1));
        self.watches[a.idx()].push(Watcher {
            cref: c,
            blocker: b,
        });
        self.watches[b.idx()].push(Watcher {
            cref: c,
            blocker: a,
        });
    }

    fn locked(&self, c: CRef) -> bool {
        let first = self.lit_at(c, 0);
        self.value_of(first) == TRUE && self.reason[first.var()] == c
    }

    // -- adding clauses --------------------------------------------------------

    /// Add a clause of DIMACS literals.  Always called at decision level 0.
    pub fn add_clause(&mut self, dimacs: &[i32]) {
        let mut lits: Vec<Lit> = dimacs
            .iter()
            .filter(|&&l| l != 0)
            .map(|&l| self.import(l))
            .collect();
        if !self.ok {
            return;
        }
        lits.sort_unstable_by_key(|l| l.0);
        lits.dedup();
        let mut kept = 0;
        for i in 0..lits.len() {
            let lit = lits[i];
            if self.value_of(lit) == TRUE || (i + 1 < lits.len() && lits[i + 1] == !lit) {
                return; // satisfied at level 0, or a tautology
            }
            if self.value_of(lit) == UNDEF {
                lits[kept] = lit;
                kept += 1;
            }
        }
        lits.truncate(kept);
        match lits.len() {
            0 => self.ok = false,
            1 => {
                self.assign(lits[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
            }
            _ => {
                let c = self.alloc(&lits, false, 0);
                self.clauses.push(c);
                self.watch(c);
            }
        }
    }

    // -- propagation -----------------------------------------------------------

    /// Unit propagation over the two-watched-literal scheme; returns a
    /// conflicting clause, if any.
    fn propagate(&mut self) -> Option<CRef> {
        let mut conflict = None;
        while self.qhead < self.trail.len() && conflict.is_none() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.idx()]);
            let (mut i, mut j) = (0, 0);
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.value_of(w.blocker) == TRUE {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let c = w.cref as usize;
                // keep the false literal in slot 1
                if self.arena[c + HEADER] == false_lit.0 {
                    self.arena.swap(c + HEADER, c + HEADER + 1);
                }
                let first = Lit(self.arena[c + HEADER]);
                let kept = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                if first != w.blocker && self.value_of(first) == TRUE {
                    ws[j] = kept;
                    j += 1;
                    continue;
                }
                let len = self.arena[c] as usize;
                let mut moved = false;
                for k in 2..len {
                    let lit = Lit(self.arena[c + HEADER + k]);
                    if self.value_of(lit) != FALSE {
                        self.arena[c + HEADER + 1] = lit.0;
                        self.arena[c + HEADER + k] = false_lit.0;
                        self.watches[lit.idx()].push(kept);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                ws[j] = kept;
                j += 1;
                if self.value_of(first) == FALSE {
                    conflict = Some(w.cref);
                    self.qhead = self.trail.len();
                    while i < ws.len() {
                        ws[j] = ws[i];
                        i += 1;
                        j += 1;
                    }
                } else {
                    self.assign(first, w.cref);
                }
            }
            ws.truncate(j);
            self.watches[false_lit.idx()] = ws;
        }
        conflict
    }

    // -- conflict analysis -----------------------------------------------------

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in self.activity.iter_mut() {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(v, &self.activity);
    }

    fn bump_clause(&mut self, c: CRef) {
        let slot = c as usize + 2;
        let act = f32::from_bits(self.arena[slot]) + self.cla_inc;
        self.arena[slot] = act.to_bits();
        if act > 1e20 {
            for i in 0..self.learnts.len() {
                let s = self.learnts[i] as usize + 2;
                self.arena[s] = (f32::from_bits(self.arena[s]) * 1e-20).to_bits();
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn abstract_level(&self, v: usize) -> u32 {
        1 << (self.level[v] & 31)
    }

    /// First-UIP learning.  Returns the learned clause, asserting literal
    /// first and a literal of the backjump level second.
    fn analyze(&mut self, mut confl: CRef) -> Vec<Lit> {
        let mut learnt = vec![Lit(0)];
        let mut pending = 0;
        let mut index = self.trail.len();
        let mut p: Option<Lit> = None;
        let level = self.decision_level() as u32;
        loop {
            if self.flags(confl) & LEARNT != 0 {
                self.bump_clause(confl);
            }
            let skip = if p.is_some() { 1 } else { 0 };
            for k in skip..self.clause_len(confl) {
                let q = self.lit_at(confl, k);
                let v = q.var();
                if !self.seen[v] && self.level[v] > 0 {
                    self.bump_var(v);
                    self.seen[v] = true;
                    if self.level[v] >= level {
                        pending += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            loop {
                index -= 1;
                if self.seen[self.trail[index].var()] {
                    break;
                }
            }
            let lit = self.trail[index];
            p = Some(lit);
            confl = self.reason[lit.var()];
            self.seen[lit.var()] = false;
            pending -= 1;
            if pending == 0 {
                break;
            }
        }
        learnt[0] = !p.unwrap();

        // recursive minimisation: drop literals implied by the others
        let mut to_clear: Vec<Lit> = learnt[1..].to_vec();
        let levels = learnt[1..]
            .iter()
            .fold(0, |acc, l| acc | self.abstract_level(l.var()));
        let mut kept = 1;
        for i in 1..learnt.len() {
            let lit = learnt[i];
            if self.reason[lit.var()] == NO_REASON || !self.redundant(lit, levels, &mut to_clear) {
                learnt[kept] = lit;
                kept += 1;
            }
        }
        learnt.truncate(kept);
        for lit in to_clear {
            self.seen[lit.var()] = false;
        }

        if learnt.len() > 1 {
            let mut best = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var()] > self.level[learnt[best].var()] {
                    best = i;
                }
            }
            learnt.swap(1, best);
        }
        learnt
    }

    /// Whether `lit` of a learned clause follows from the clause's other
    /// literals through reason clauses (MiniSat's `litRedundant`).
    fn redundant(&mut self, lit: Lit, levels: u32, to_clear: &mut Vec<Lit>) -> bool {
        let mut stack = vec![lit];
        let top = to_clear.len();
        while let Some(q) = stack.pop() {
            let c = self.reason[q.var()];
            for k in 1..self.clause_len(c) {
                let l = self.lit_at(c, k);
                let v = l.var();
                if self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                if self.reason[v] != NO_REASON && self.abstract_level(v) & levels != 0 {
                    self.seen[v] = true;
                    stack.push(l);
                    to_clear.push(l);
                } else {
                    for l in to_clear.drain(top..) {
                        self.seen[l.var()] = false;
                    }
                    return false;
                }
            }
        }
        true
    }

    /// Literal block distance: the number of decision levels in the clause.
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.stamp += 1;
        if self.level_stamp.len() <= self.decision_level() {
            self.level_stamp.resize(self.decision_level() + 1, 0);
        }
        let mut count = 0;
        for lit in lits {
            let l = self.level[lit.var()] as usize;
            if self.level_stamp[l] != self.stamp {
                self.level_stamp[l] = self.stamp;
                count += 1;
            }
        }
        count
    }

    // -- learned clause database ----------------------------------------------

    /// Delete about half of the learned clauses, keeping those with an LBD of
    /// at most 2 and those that are reasons on the trail.
    fn reduce_db(&mut self) {
        let mut candidates: Vec<CRef> = self
            .learnts
            .iter()
            .copied()
            .filter(|&c| self.lbd(c) > 2 && !self.locked(c))
            .collect();
        candidates.sort_by(|&a, &b| {
            self.lbd(b)
                .cmp(&self.lbd(a))
                .then(self.activity_of(a).total_cmp(&self.activity_of(b)))
        });
        for &c in &candidates[..candidates.len() / 2] {
            self.arena[c as usize + 1] |= DELETED;
            self.wasted += HEADER + self.clause_len(c);
        }
        let arena = &self.arena;
        let live = |c: CRef| arena[c as usize + 1] & DELETED == 0;
        self.learnts.retain(|&c| live(c));
        for ws in self.watches.iter_mut() {
            ws.retain(|w| live(w.cref));
        }
        if self.wasted * 2 > self.arena.len() {
            self.compact();
        }
    }

    /// Copy the live clauses into a fresh arena and rebuild the watch lists.
    fn compact(&mut self) {
        let mut fresh = Vec::with_capacity(self.arena.len() - self.wasted);
        let mut moved = |list: &mut Vec<CRef>, arena: &mut Vec<u32>| {
            for c in list.iter_mut() {
                let start = *c as usize;
                let end = start + HEADER + arena[start] as usize;
                let to = fresh.len() as u32;
                fresh.extend_from_slice(&arena[start..end]);
                arena[start] = to; // forwarding address, read below
                *c = to;
            }
        };
        moved(&mut self.clauses, &mut self.arena);
        moved(&mut self.learnts, &mut self.arena);
        for lit in &self.trail {
            let r = &mut self.reason[lit.var()];
            if *r != NO_REASON {
                *r = self.arena[*r as usize];
            }
        }
        self.arena = fresh;
        self.wasted = 0;
        for ws in self.watches.iter_mut() {
            ws.clear();
        }
        for i in 0..self.clauses.len() {
            self.watch(self.clauses[i]);
        }
        for i in 0..self.learnts.len() {
            self.watch(self.learnts[i]);
        }
    }

    // -- search ----------------------------------------------------------------

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.vals[2 * v] == UNDEF {
                return Some(Lit((v as u32) << 1 | self.phase[v] as u32));
            }
        }
        None
    }

    fn search(
        &mut self,
        restart_after: u64,
        conflict_limit: Option<u64>,
        deadline: Option<Instant>,
    ) -> Round {
        let mut round_conflicts = 0;
        loop {
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                round_conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Round::Done(Status::Unsat);
                }
                if conflict_limit.is_some_and(|limit| self.conflicts > limit)
                    || deadline.is_some_and(|d| Instant::now() >= d)
                {
                    return Round::Done(Status::Unknown);
                }
                let learnt = self.analyze(confl);
                let lbd = self.compute_lbd(&learnt);
                let back = if learnt.len() > 1 {
                    self.level[learnt[1].var()] as usize
                } else {
                    0
                };
                self.cancel_until(back);
                if learnt.len() == 1 {
                    self.assign(learnt[0], NO_REASON);
                } else {
                    let c = self.alloc(&learnt, true, lbd);
                    self.learnts.push(c);
                    self.watch(c);
                    self.bump_clause(c);
                    self.assign(learnt[0], c);
                }
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                continue;
            }
            if round_conflicts >= restart_after {
                self.cancel_until(0);
                return Round::Restart;
            }
            if self.conflicts >= self.next_reduce {
                self.reductions += 1;
                self.next_reduce = self.conflicts + 2000 + 300 * self.reductions;
                self.reduce_db();
            }
            if self.decisions.is_multiple_of(256) && deadline.is_some_and(|d| Instant::now() >= d) {
                return Round::Done(Status::Unknown);
            }
            let mut next = None;
            while self.decision_level() < self.assumptions.len() {
                let a = self.assumptions[self.decision_level()];
                match self.value_of(a) {
                    TRUE => self.trail_lim.push(self.trail.len()), // already holds
                    FALSE => return Round::Done(Status::Unsat),
                    _ => {
                        next = Some(a);
                        break;
                    }
                }
            }
            let lit = match next.or_else(|| self.pick_branch()) {
                Some(lit) => lit,
                None => return Round::Done(Status::Sat),
            };
            self.decisions += 1;
            self.trail_lim.push(self.trail.len());
            self.assign(lit, NO_REASON);
        }
    }

    /// Solve under `assumptions` (DIMACS literals).  `conflict_budget` caps the
    /// conflicts of this call (at most that many are analysed) and `timeout`
    /// its wall-clock time; both apply to this call only.  A timeout too long
    /// for the clock to reach is no limit.
    pub fn solve(
        &mut self,
        assumptions: &[i32],
        conflict_budget: Option<u64>,
        timeout: Option<Duration>,
    ) -> Status {
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let before = self.conflicts;
        self.last_conflicts = 0;
        self.model.clear();
        self.assumptions = assumptions
            .iter()
            .filter(|&&l| l != 0)
            .map(|&l| self.import(l))
            .collect();
        if !self.ok {
            return Status::Unsat;
        }
        let conflict_limit = conflict_budget.map(|b| self.conflicts + b);
        let mut restarts = 0;
        let status = loop {
            match self.search(100 * luby(restarts), conflict_limit, deadline) {
                Round::Done(status) => break status,
                Round::Restart => restarts += 1,
            }
        };
        if status == Status::Sat {
            self.model = (0..self.num_vars()).map(|v| self.vals[2 * v]).collect();
        }
        self.cancel_until(0);
        self.last_conflicts = self.conflicts - before;
        status
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny deterministic generator (xorshift64*).
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) % n
        }
    }

    fn random_cnf(rng: &mut Rng, vars: u64, clauses: usize) -> Vec<Vec<i32>> {
        (0..clauses)
            .map(|_| {
                (0..1 + rng.below(3))
                    .map(|_| {
                        let v = 1 + rng.below(vars) as i32;
                        if rng.below(2) == 0 {
                            v
                        } else {
                            -v
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn satisfies(cnf: &[Vec<i32>], holds: impl Fn(i32) -> bool) -> bool {
        cnf.iter().all(|c| c.iter().any(|&l| holds(l)))
    }

    fn brute_force(cnf: &[Vec<i32>], vars: u32, assumed: &[i32]) -> bool {
        (0u32..1 << vars).any(|bits| {
            let holds = |l: i32| (bits >> (l.unsigned_abs() - 1) & 1 == 1) == (l > 0);
            assumed.iter().all(|&a| holds(a)) && satisfies(cnf, holds)
        })
    }

    fn pigeonhole(holes: i32) -> Vec<Vec<i32>> {
        let var = |p: i32, h: i32| p * holes + h + 1;
        let mut cnf: Vec<Vec<i32>> = (0..=holes)
            .map(|p| (0..holes).map(|h| var(p, h)).collect())
            .collect();
        for h in 0..holes {
            for p in 0..=holes {
                for q in p + 1..=holes {
                    cnf.push(vec![-var(p, h), -var(q, h)]);
                }
            }
        }
        cnf
    }

    #[test]
    fn luby_prefix() {
        let seq: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(seq, [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn agrees_with_brute_force_incrementally() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for _ in 0..300 {
            let vars = 1 + rng.below(10) as u32;
            let clauses = 1 + rng.below(40) as usize;
            let cnf = random_cnf(&mut rng, vars as u64, clauses);
            let mut solver = Solver::new();
            for (n, clause) in cnf.iter().enumerate() {
                solver.add_clause(clause);
                let prefix = &cnf[..=n];
                let assumed: Vec<i32> = random_cnf(&mut rng, vars as u64, 1)[0].clone();
                for assumptions in [&[][..], &assumed[..]] {
                    let expected = brute_force(prefix, vars, assumptions);
                    let got = solver.solve(assumptions, None, None);
                    assert_eq!(
                        got == Status::Sat,
                        expected,
                        "{prefix:?} under {assumptions:?}"
                    );
                    assert_ne!(got, Status::Unknown);
                    if got == Status::Sat {
                        let holds = |l: i32| solver.value(l) > 0;
                        assert!(satisfies(prefix, holds));
                        assert!(assumptions.iter().all(|&a| holds(a)));
                    }
                }
            }
        }
    }

    #[test]
    fn pigeonhole_is_unsat_and_budgets_apply_per_call() {
        let mut solver = Solver::new();
        for clause in pigeonhole(6) {
            solver.add_clause(&clause);
        }
        assert_eq!(solver.solve(&[], Some(0), None), Status::Unknown);
        assert_eq!(solver.last_conflicts(), 1);
        assert_eq!(solver.solve(&[], Some(10), None), Status::Unknown);
        assert_eq!(solver.last_conflicts(), 11);
        assert_eq!(
            solver.solve(&[], None, Some(Duration::ZERO)),
            Status::Unknown
        );
        assert_eq!(solver.solve(&[], None, None), Status::Unsat);
        assert_eq!(solver.solve(&[], None, None), Status::Unsat);
    }

    #[test]
    fn reduction_and_compaction_keep_answers() {
        // enough conflicts to trigger several reductions and compactions
        let mut solver = Solver::new();
        for clause in pigeonhole(8) {
            solver.add_clause(&clause);
        }
        assert_eq!(solver.solve(&[], None, None), Status::Unsat);
        assert!(solver.reductions > 0);
    }

    #[test]
    fn unseen_variables_have_no_value() {
        let mut solver = Solver::new();
        assert_eq!(solver.value(1), 0);
        solver.add_clause(&[1, 2]);
        assert_eq!(solver.solve(&[-1], None, None), Status::Sat);
        assert_eq!(
            (solver.value(1), solver.value(2), solver.value(-2)),
            (-1, 1, -1)
        );
        assert_eq!(solver.value(3), 0);
        solver.add_clause(&[-2]);
        assert_eq!(solver.solve(&[], None, None), Status::Sat);
        assert_eq!(solver.value(1), 1);
        solver.add_clause(&[-1]);
        assert_eq!(solver.solve(&[], None, None), Status::Unsat);
        assert_eq!(solver.value(1), 0);
        assert_eq!(solver.num_vars(), 2);
    }
}
