//! The `satbridge` C ABI over a built-in CDCL solver with no dependencies,
//! so the Python package has a SAT backend wherever a Rust toolchain works
//! offline.  Drop-in replacement for the CaDiCaL shim in `native/satbridge`.
//!
//! Conventions (the same as `native/satbridge`):
//!   * literals are nonzero i32 in DIMACS sign convention;
//!   * `satbridge_solve` returns 10 (SAT), 20 (UNSAT) or 0 (unknown: conflict
//!     budget or wall-clock budget exhausted), mirroring SAT-competition
//!     exit codes;
//!   * `satbridge_model` copies the last model at once: +1 / -1 / 0 for
//!     true / false / unassigned.
//!
//! The nine calls: `satbridge_new`, `satbridge_free`, `satbridge_add_clauses`,
//! `satbridge_solve`, `satbridge_model`, `satbridge_conflicts`,
//! `satbridge_max_variable`, `satbridge_signature`, `satbridge_string_free`.

mod solver;

use std::ffi::CString;
use std::os::raw::c_char;
use std::slice;
use std::time::Duration;

use solver::{Solver, Status};

const SIGNATURE: &str = concat!("alcfit-cdcl-", env!("CARGO_PKG_VERSION"));

/// A slice from a C buffer; a zero length may come with a null pointer.
unsafe fn buffer<'a>(ptr: *const i32, len: usize) -> &'a [i32] {
    if len == 0 {
        &[]
    } else {
        slice::from_raw_parts(ptr, len)
    }
}

#[no_mangle]
pub extern "C" fn satbridge_new() -> *mut Solver {
    Box::into_raw(Box::new(Solver::new()))
}

#[no_mangle]
pub extern "C" fn satbridge_free(ptr: *mut Solver) {
    if !ptr.is_null() {
        unsafe {
            drop(Box::from_raw(ptr));
        }
    }
}

/// Add many clauses from one flat buffer of zero-terminated literal runs.
/// Returns the number of clauses added.
#[no_mangle]
pub extern "C" fn satbridge_add_clauses(ptr: *mut Solver, lits: *const i32, len: usize) -> i64 {
    let solver = unsafe { &mut *ptr };
    let buf = unsafe { buffer(lits, len) };
    let mut added: i64 = 0;
    for clause in buf.split_inclusive(|&lit| lit == 0) {
        if clause.last() == Some(&0) {
            solver.add_clause(&clause[..clause.len() - 1]);
            added += 1;
        }
    }
    added
}

/// Solve under the given assumptions. A negative budget means unlimited;
/// a non-positive timeout means no wall-clock limit.
#[no_mangle]
pub extern "C" fn satbridge_solve(
    ptr: *mut Solver,
    assumptions: *const i32,
    alen: usize,
    conflict_budget: i64,
    timeout_secs: f64,
) -> i32 {
    let solver = unsafe { &mut *ptr };
    let budget = u64::try_from(conflict_budget).ok();
    let timeout = if timeout_secs > 0.0 {
        Duration::try_from_secs_f64(timeout_secs).ok()
    } else {
        None
    };
    match solver.solve(unsafe { buffer(assumptions, alen) }, budget, timeout) {
        Status::Sat => 10,
        Status::Unsat => 20,
        Status::Unknown => 0,
    }
}

/// Copy the last model in one call: `out[v]` becomes the value of variable
/// `v` for every `1 <= v < len`, and `out[0]` becomes 0.
#[no_mangle]
pub extern "C" fn satbridge_model(ptr: *mut Solver, out: *mut i8, len: usize) {
    if len == 0 {
        return;
    }
    let solver = unsafe { &*ptr };
    let out = unsafe { slice::from_raw_parts_mut(out, len) };
    for (var, slot) in out.iter_mut().enumerate() {
        *slot = solver.value(var as i32) as i8;
    }
}

/// Conflicts met by the last `satbridge_solve` call, or -1 where the
/// backend does not count them.
#[no_mangle]
pub extern "C" fn satbridge_conflicts(ptr: *mut Solver) -> i64 {
    let solver = unsafe { &*ptr };
    solver.last_conflicts() as i64
}

#[no_mangle]
pub extern "C" fn satbridge_max_variable(ptr: *mut Solver) -> i32 {
    let solver = unsafe { &*ptr };
    solver.max_variable()
}

/// Owned C string with the backing solver's name and version. The caller
/// frees it with `satbridge_string_free`.
#[no_mangle]
pub extern "C" fn satbridge_signature(_ptr: *mut Solver) -> *mut c_char {
    CString::new(SIGNATURE).unwrap_or_default().into_raw()
}

#[no_mangle]
pub extern "C" fn satbridge_string_free(s: *mut c_char) {
    if !s.is_null() {
        unsafe {
            drop(CString::from_raw(s));
        }
    }
}
