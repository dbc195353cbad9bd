//! The `satbridge` C ABI of `native/abi` over the `cadical` crate, so the
//! Python package can drive CaDiCaL through ctypes without any Python-level
//! bindings.

use std::time::Duration;

use cadical::{Solver, Timeout};
use satbridge_abi::{satbridge_abi, Backend};

pub struct Bridge {
    solver: Solver<Timeout>,
}

/// `conflicts` keeps the default -1: the `cadical` crate does not expose
/// the count.
impl Backend for Bridge {
    fn new() -> Self {
        Bridge {
            solver: Solver::new(),
        }
    }

    fn add_clause(&mut self, lits: &[i32]) {
        self.solver.add_clause(lits.iter().copied());
    }

    fn solve(
        &mut self,
        assumptions: &[i32],
        conflicts: Option<u64>,
        timeout: Option<Duration>,
    ) -> Option<bool> {
        let timeout = timeout.map(|t| Timeout::new(t.as_secs_f32()));
        self.solver.set_callbacks(timeout);
        if let Some(budget) = conflicts {
            // limits apply to the next solve only; errors only on bad names
            let capped = budget.min(i32::MAX as u64) as i32;
            let _ = self.solver.set_limit("conflicts", capped);
        }
        self.solver.solve_with(assumptions.iter().copied())
    }

    fn value(&self, var: i32) -> i8 {
        match self.solver.value(var) {
            Some(true) => 1,
            Some(false) => -1,
            None => 0,
        }
    }

    fn signature(&self) -> String {
        self.solver.signature().to_string()
    }
}

satbridge_abi!(Bridge);
