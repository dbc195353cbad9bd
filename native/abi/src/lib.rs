//! The `satbridge` C ABI, written once over a small [`Backend`] trait.
//!
//! A solver crate implements [`Backend`] and invokes [`satbridge_abi!`] once;
//! the macro expands, inside that crate's cdylib, to the eight
//! `unsafe extern "C"` calls that the Python package binds through ctypes.
//!
//! Safety: every call but `satbridge_new` trusts its caller with raw
//! pointers.  A backend pointer must come from `satbridge_new` and not yet
//! be freed, a buffer pointer must be valid for the length passed with it,
//! and a string must come from `satbridge_signature`; null is accepted only
//! where a convention below says so.
//!
//! Conventions:
//!   * literals are nonzero i32 in DIMACS sign convention, and a buffer of
//!     length zero may come with a null pointer;
//!   * `satbridge_add_clauses` reads one flat buffer of zero-terminated runs
//!     (a trailing run without its zero is dropped) and returns the number
//!     of clauses added;
//!   * `satbridge_solve` returns 10 (SAT), 20 (UNSAT) or 0 (unknown: a budget
//!     ran out), mirroring SAT-competition exit codes; a negative conflict
//!     budget means unlimited, a non-positive timeout no wall-clock limit;
//!   * `satbridge_model` copies the last model at once: `out[v]` becomes
//!     +1 / -1 / 0 for variable `v` true / false / unassigned, `out[0]` 0;
//!   * `satbridge_conflicts` gives the conflicts of the last solve;
//!   * `satbridge_signature` returns an owned C string, which the caller
//!     frees with `satbridge_string_free`.

use std::time::Duration;

/// One incremental SAT solver, as the C ABI drives it.
pub trait Backend {
    fn new() -> Self;

    /// Add one clause of nonzero DIMACS literals.
    fn add_clause(&mut self, lits: &[i32]);

    /// Solve under `assumptions`: `Some(true)` for SAT, `Some(false)` for
    /// UNSAT, `None` when a budget ran out.  Both budgets bind this call only.
    fn solve(
        &mut self,
        assumptions: &[i32],
        conflicts: Option<u64>,
        timeout: Option<Duration>,
    ) -> Option<bool>;

    /// +1 / -1 / 0: variable `var` true / false / unassigned in the last model.
    fn value(&self, var: i32) -> i8;

    /// Conflicts met by the last solve.
    fn conflicts(&self) -> i64;

    /// The backing solver's name and version.
    fn signature(&self) -> String;
}

/// A slice from a C buffer; a zero length may come with a null pointer.
///
/// # Safety
/// A nonzero `len` needs `ptr` valid for `len` reads while the slice lives.
#[doc(hidden)]
pub unsafe fn buffer<'a>(ptr: *const i32, len: usize) -> &'a [i32] {
    if len == 0 {
        &[]
    } else {
        std::slice::from_raw_parts(ptr, len)
    }
}

/// The eight `satbridge_` calls over `$backend`, which implements [`Backend`];
/// each is `unsafe`, under the safety contract of the crate docs.
#[macro_export]
macro_rules! satbridge_abi {
    ($backend:ty) => {
        #[no_mangle]
        pub unsafe extern "C" fn satbridge_new() -> *mut $backend {
            Box::into_raw(Box::new(<$backend as $crate::Backend>::new()))
        }

        #[no_mangle]
        pub unsafe extern "C" fn satbridge_free(ptr: *mut $backend) {
            if !ptr.is_null() {
                drop(unsafe { Box::from_raw(ptr) });
            }
        }

        #[no_mangle]
        pub unsafe extern "C" fn satbridge_add_clauses(
            ptr: *mut $backend,
            lits: *const i32,
            len: usize,
        ) -> i64 {
            let backend = unsafe { &mut *ptr };
            let mut added = 0;
            for run in unsafe { $crate::buffer(lits, len) }.split_inclusive(|&lit| lit == 0) {
                if let Some((&0, clause)) = run.split_last() {
                    $crate::Backend::add_clause(backend, clause);
                    added += 1;
                }
            }
            added
        }

        #[no_mangle]
        pub unsafe extern "C" fn satbridge_solve(
            ptr: *mut $backend,
            assumptions: *const i32,
            alen: usize,
            conflict_budget: i64,
            timeout_secs: f64,
        ) -> i32 {
            let backend = unsafe { &mut *ptr };
            let assumed = unsafe { $crate::buffer(assumptions, alen) };
            let budget = u64::try_from(conflict_budget).ok();
            let timeout = if timeout_secs > 0.0 {
                ::std::time::Duration::try_from_secs_f64(timeout_secs).ok()
            } else {
                None
            };
            match $crate::Backend::solve(backend, assumed, budget, timeout) {
                Some(true) => 10,
                Some(false) => 20,
                None => 0,
            }
        }

        #[no_mangle]
        pub unsafe extern "C" fn satbridge_model(ptr: *mut $backend, out: *mut i8, len: usize) {
            if len == 0 {
                return;
            }
            let backend = unsafe { &*ptr };
            let out = unsafe { ::std::slice::from_raw_parts_mut(out, len) };
            out[0] = 0;
            for (var, slot) in out.iter_mut().enumerate().skip(1) {
                *slot = $crate::Backend::value(backend, var as i32);
            }
        }

        #[no_mangle]
        pub unsafe extern "C" fn satbridge_conflicts(ptr: *mut $backend) -> i64 {
            $crate::Backend::conflicts(unsafe { &*ptr })
        }

        #[no_mangle]
        pub unsafe extern "C" fn satbridge_signature(
            ptr: *mut $backend,
        ) -> *mut ::std::os::raw::c_char {
            let signature = $crate::Backend::signature(unsafe { &*ptr });
            ::std::ffi::CString::new(signature)
                .unwrap_or_default()
                .into_raw()
        }

        #[no_mangle]
        pub unsafe extern "C" fn satbridge_string_free(s: *mut ::std::os::raw::c_char) {
            if !s.is_null() {
                drop(unsafe { ::std::ffi::CString::from_raw(s) });
            }
        }
    };
}
