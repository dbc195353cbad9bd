//! The built-in CDCL solver of [`solver`] behind the `satbridge` C ABI of
//! `native/abi`, with no dependencies outside this repository, so the Python
//! package has a SAT backend wherever a Rust toolchain works offline.

mod solver;

use std::time::Duration;

use satbridge_abi::{satbridge_abi, Backend};
use solver::{Solver, Status};

impl Backend for Solver {
    fn new() -> Self {
        Solver::new()
    }

    fn add_clause(&mut self, lits: &[i32]) {
        Solver::add_clause(self, lits);
    }

    fn solve(
        &mut self,
        assumptions: &[i32],
        conflicts: Option<u64>,
        timeout: Option<Duration>,
    ) -> Option<bool> {
        match Solver::solve(self, assumptions, conflicts, timeout) {
            Status::Sat => Some(true),
            Status::Unsat => Some(false),
            Status::Unknown => None,
        }
    }

    fn value(&self, var: i32) -> i8 {
        Solver::value(self, var) as i8
    }

    fn conflicts(&self) -> i64 {
        self.last_conflicts() as i64
    }

    fn signature(&self) -> String {
        concat!("alcfit-cdcl-", env!("CARGO_PKG_VERSION")).to_string()
    }
}

satbridge_abi!(Solver);
