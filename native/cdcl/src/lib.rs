//! The built-in CDCL solver of [`solver`] behind the `satbridge` C ABI: seven
//! `extern "C"` calls that the Python package binds through ctypes.
//! The crate has no dependencies, so the Python package has a SAT backend
//! wherever a Rust toolchain works offline.
//!
//! Safety: every call but `satbridge_signature` is `unsafe`, and every one
//! but `satbridge_new` and `satbridge_signature` trusts its caller with raw
//! pointers.  A solver pointer must come from `satbridge_new` and not yet
//! be freed, and a buffer pointer must be valid for the length passed with
//! it; null is accepted only where a convention below says so.
//!
//! Conventions:
//!   * literals are nonzero i32 in DIMACS sign convention, and a buffer of
//!     length zero may come with a null pointer;
//!   * `satbridge_add_clauses` reads one flat buffer of zero-terminated runs
//!     (a trailing run without its zero is dropped) and returns the number
//!     of clauses added;
//!   * `satbridge_solve` returns 10 (SAT), 20 (UNSAT) or 0 (unknown: a budget
//!     ran out), mirroring SAT-competition exit codes; a negative conflict
//!     budget means unlimited, a non-positive or unreachable timeout no limit;
//!   * `satbridge_model` copies the last model at once: `out[v]` becomes
//!     +1 / -1 / 0 for variable `v` true / false / unassigned, `out[0]` 0;
//!   * `satbridge_conflicts` gives the conflicts of the last solve;
//!   * `satbridge_signature` returns a static NUL-terminated string, which
//!     the caller reads and never frees (as IPASIR's `ipasir_signature`).

mod solver;

use std::ffi::c_char;
use std::time::Duration;

use solver::{Solver, Status};

/// A slice from a C buffer; a zero length may come with a null pointer.
///
/// # Safety
/// A nonzero `len` needs `ptr` valid for `len` reads while the slice lives.
unsafe fn buffer<'a>(ptr: *const i32, len: usize) -> &'a [i32] {
    if len == 0 {
        &[]
    } else {
        std::slice::from_raw_parts(ptr, len)
    }
}

/// The clauses of one flat buffer of zero-terminated runs, without their
/// zeros; a trailing run without its zero is dropped.
fn clauses(lits: &[i32]) -> impl Iterator<Item = &[i32]> {
    lits.split_inclusive(|&lit| lit == 0)
        .filter_map(|run| match run.split_last() {
            Some((&0, clause)) => Some(clause),
            _ => None,
        })
}

/// The budgets of one `satbridge_solve` as the solver takes them: a negative
/// conflict budget is unlimited, a timeout that is not positive no limit.
fn budgets(conflict_budget: i64, timeout_secs: f64) -> (Option<u64>, Option<Duration>) {
    let timeout = if timeout_secs > 0.0 {
        Duration::try_from_secs_f64(timeout_secs).ok()
    } else {
        None
    };
    (u64::try_from(conflict_budget).ok(), timeout)
}

/// # Safety
/// None beyond the crate docs' contract; the result goes to `satbridge_free`.
#[no_mangle]
pub unsafe extern "C" fn satbridge_new() -> *mut Solver {
    Box::into_raw(Box::new(Solver::new()))
}

/// # Safety
/// `ptr` is null or live, as the crate docs say; it is dead afterwards.
#[no_mangle]
pub unsafe extern "C" fn satbridge_free(ptr: *mut Solver) {
    if !ptr.is_null() {
        drop(unsafe { Box::from_raw(ptr) });
    }
}

/// # Safety
/// `ptr` and `lits`, `len` as the crate docs say.
#[no_mangle]
pub unsafe extern "C" fn satbridge_add_clauses(
    ptr: *mut Solver,
    lits: *const i32,
    len: usize,
) -> i64 {
    let solver = unsafe { &mut *ptr };
    let mut added = 0;
    for clause in clauses(unsafe { buffer(lits, len) }) {
        solver.add_clause(clause);
        added += 1;
    }
    added
}

/// # Safety
/// `ptr` and `assumptions`, `alen` as the crate docs say.
#[no_mangle]
pub unsafe extern "C" fn satbridge_solve(
    ptr: *mut Solver,
    assumptions: *const i32,
    alen: usize,
    conflict_budget: i64,
    timeout_secs: f64,
) -> i32 {
    let solver = unsafe { &mut *ptr };
    let assumed = unsafe { buffer(assumptions, alen) };
    let (conflicts, timeout) = budgets(conflict_budget, timeout_secs);
    match solver.solve(assumed, conflicts, timeout) {
        Status::Sat => 10,
        Status::Unsat => 20,
        Status::Unknown => 0,
    }
}

/// # Safety
/// `ptr` and `out`, `len` as the crate docs say.
#[no_mangle]
pub unsafe extern "C" fn satbridge_model(ptr: *mut Solver, out: *mut i8, len: usize) {
    if len == 0 {
        return;
    }
    let solver = unsafe { &*ptr };
    let out = unsafe { std::slice::from_raw_parts_mut(out, len) };
    out[0] = 0;
    for (var, slot) in out.iter_mut().enumerate().skip(1) {
        *slot = solver.value(var as i32) as i8;
    }
}

/// # Safety
/// `ptr` as the crate docs say.
#[no_mangle]
pub unsafe extern "C" fn satbridge_conflicts(ptr: *mut Solver) -> i64 {
    unsafe { &*ptr }.last_conflicts() as i64
}

/// The solver's name and version, a static string that lives as long as
/// the library.
#[no_mangle]
pub extern "C" fn satbridge_signature() -> *const c_char {
    concat!("alcfit-cdcl-", env!("CARGO_PKG_VERSION"), "\0")
        .as_ptr()
        .cast()
}

/// The C calls driven as the Python bindings drive them.  Each test makes
/// its calls in one `unsafe` block: every solver pointer it passes comes
/// from `satbridge_new`, every buffer is a live local of the length passed
/// with it, and null comes only where the ABI allows it.
#[cfg(test)]
mod tests {
    use super::*;
    use std::ffi::CStr;
    use std::ptr;

    #[test]
    fn a_flat_buffer_splits_into_clauses_and_drops_a_trailing_run() {
        let split: Vec<_> = clauses(&[1, -2, 0, 3, 0, -4, 5, 6, 0]).collect();
        assert_eq!(split, [&[1, -2][..], &[3], &[-4, 5, 6]]);
        let split: Vec<_> = clauses(&[1, 2, 0, 3, 4]).collect();
        assert_eq!(split, [&[1, 2][..]]);
    }

    #[test]
    fn budgets_follow_the_c_conventions() {
        let ms = Duration::from_millis;
        assert_eq!(budgets(-1, 0.0), (None, None));
        assert_eq!(budgets(0, -1.0), (Some(0), None));
        assert_eq!(budgets(5, 1.5), (Some(5), Some(ms(1500))));
        assert_eq!(budgets(-7, f64::NAN), (None, None));
    }

    #[test]
    fn a_null_buffer_of_length_zero_is_accepted() {
        unsafe {
            let ptr = satbridge_new();
            assert_eq!(satbridge_add_clauses(ptr, ptr::null(), 0), 0);
            assert_eq!(satbridge_solve(ptr, ptr::null(), 0, -1, 0.0), 10);
            satbridge_model(ptr, ptr::null_mut(), 0);
            satbridge_free(ptr);
            satbridge_free(ptr::null_mut());
        }
    }

    #[test]
    fn solve_answers_in_exit_codes_and_the_model_is_signed() {
        unsafe {
            let ptr = satbridge_new();
            let buf = [1, 2, 0, 3, 0, 4, 5];
            assert_eq!(satbridge_add_clauses(ptr, buf.as_ptr(), buf.len()), 2);
            let (sat, unsat) = ([-1], [-1, -2]);
            assert_eq!(satbridge_solve(ptr, sat.as_ptr(), 1, 5, 1.5), 10);
            let mut out = [7i8; 5];
            satbridge_model(ptr, out.as_mut_ptr(), out.len());
            assert_eq!(out, [0, -1, 1, 1, 0]);
            assert_eq!(satbridge_solve(ptr, unsat.as_ptr(), 2, -1, 0.0), 20);
            satbridge_free(ptr);
        }
    }

    #[test]
    fn a_timeout_beyond_the_clock_is_no_limit() {
        // 1e19 s fits a Duration but not an Instant
        unsafe {
            let ptr = satbridge_new();
            assert_eq!(satbridge_solve(ptr, ptr::null(), 0, -1, 1e19), 10);
            satbridge_free(ptr);
        }
    }

    #[test]
    fn a_spent_conflict_budget_is_unknown_and_conflicts_reach_the_abi() {
        // every clause over variables 1..=3: unsatisfiable only after search
        let buf: Vec<i32> = (0..8)
            .flat_map(|bits| {
                (1..=3)
                    .map(move |v| if bits >> (v - 1) & 1 == 1 { v } else { -v })
                    .chain([0])
            })
            .collect();
        unsafe {
            let ptr = satbridge_new();
            assert_eq!(satbridge_conflicts(ptr), 0);
            assert_eq!(satbridge_add_clauses(ptr, buf.as_ptr(), buf.len()), 8);
            assert_eq!(satbridge_solve(ptr, ptr::null(), 0, 0, 0.0), 0);
            assert_eq!(satbridge_conflicts(ptr), 1);
            assert_eq!(satbridge_solve(ptr, ptr::null(), 0, -1, 0.0), 20);
            assert!(satbridge_conflicts(ptr) > 0);
            satbridge_free(ptr);
        }
    }

    #[test]
    fn the_signature_is_one_static_string() {
        let expected = format!("alcfit-cdcl-{}", env!("CARGO_PKG_VERSION"));
        let raw = satbridge_signature();
        assert_eq!(raw, satbridge_signature());
        // a static NUL-terminated string: readable without a solver, and
        // the same pointer every call, so nothing is allocated to free
        let text = unsafe { CStr::from_ptr(raw) };
        assert_eq!(text.to_str(), Ok(expected.as_str()));
    }
}
