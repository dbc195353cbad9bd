//! C ABI shim over the `cadical` crate so the Python package can drive an
//! incremental SAT solver through ctypes without any Python-level bindings.
//!
//! Conventions:
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

use std::ffi::CString;
use std::os::raw::c_char;
use std::slice;

use cadical::{Solver, Timeout};

pub struct Bridge {
    solver: Solver<Timeout>,
}

#[no_mangle]
pub extern "C" fn satbridge_new() -> *mut Bridge {
    let bridge = Box::new(Bridge {
        solver: Solver::new(),
    });
    Box::into_raw(bridge)
}

#[no_mangle]
pub extern "C" fn satbridge_free(ptr: *mut Bridge) {
    if !ptr.is_null() {
        unsafe {
            drop(Box::from_raw(ptr));
        }
    }
}

/// Add many clauses from one flat buffer of zero-terminated literal runs.
/// Returns the number of clauses added.
#[no_mangle]
pub extern "C" fn satbridge_add_clauses(ptr: *mut Bridge, lits: *const i32, len: usize) -> i64 {
    let bridge = unsafe { &mut *ptr };
    let buf = unsafe { slice::from_raw_parts(lits, len) };
    let mut added: i64 = 0;
    let mut start = 0usize;
    for (pos, &lit) in buf.iter().enumerate() {
        if lit == 0 {
            bridge.solver.add_clause(buf[start..pos].iter().copied());
            added += 1;
            start = pos + 1;
        }
    }
    added
}

/// Solve under the given assumptions. A negative budget means unlimited;
/// a non-positive timeout means no wall-clock limit.
#[no_mangle]
pub extern "C" fn satbridge_solve(
    ptr: *mut Bridge,
    assumptions: *const i32,
    alen: usize,
    conflict_budget: i64,
    timeout_secs: f64,
) -> i32 {
    let bridge = unsafe { &mut *ptr };
    if timeout_secs > 0.0 {
        bridge
            .solver
            .set_callbacks(Some(Timeout::new(timeout_secs as f32)));
    } else {
        bridge.solver.set_callbacks(None);
    }
    if conflict_budget >= 0 {
        let capped = conflict_budget.min(i32::MAX as i64) as i32;
        // limits apply to the next solve only; errors only on bad names
        let _ = bridge.solver.set_limit("conflicts", capped);
    }
    let outcome = if alen == 0 {
        bridge.solver.solve()
    } else {
        let assumed = unsafe { slice::from_raw_parts(assumptions, alen) };
        bridge.solver.solve_with(assumed.iter().copied())
    };
    match outcome {
        Some(true) => 10,
        Some(false) => 20,
        None => 0,
    }
}

/// Copy the last model in one call: `out[v]` becomes the value of variable
/// `v` for every `1 <= v < len`, and `out[0]` becomes 0.
#[no_mangle]
pub extern "C" fn satbridge_model(ptr: *mut Bridge, out: *mut i8, len: usize) {
    if len == 0 {
        return;
    }
    let bridge = unsafe { &*ptr };
    let out = unsafe { slice::from_raw_parts_mut(out, len) };
    out[0] = 0;
    for (var, slot) in out.iter_mut().enumerate().skip(1) {
        *slot = match bridge.solver.value(var as i32) {
            Some(true) => 1,
            Some(false) => -1,
            None => 0,
        };
    }
}

/// Conflicts met by the last `satbridge_solve` call, or -1 where the
/// backend does not count them; the `cadical` crate does not expose them.
#[no_mangle]
pub extern "C" fn satbridge_conflicts(_ptr: *mut Bridge) -> i64 {
    -1
}

#[no_mangle]
pub extern "C" fn satbridge_max_variable(ptr: *mut Bridge) -> i32 {
    let bridge = unsafe { &*ptr };
    bridge.solver.max_variable()
}

/// Owned C string with the backing solver's name and version. The caller
/// frees it with `satbridge_string_free`.
#[no_mangle]
pub extern "C" fn satbridge_signature(ptr: *mut Bridge) -> *mut c_char {
    let bridge = unsafe { &*ptr };
    let sig = CString::new(bridge.solver.signature()).unwrap_or_default();
    sig.into_raw()
}

#[no_mangle]
pub extern "C" fn satbridge_string_free(s: *mut c_char) {
    if !s.is_null() {
        unsafe {
            drop(CString::from_raw(s));
        }
    }
}
