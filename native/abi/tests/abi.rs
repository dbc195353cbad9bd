//! The eight calls of `satbridge_abi!`, expanded over a fake backend that
//! records what reaches it, driven as the Python bindings drive them.
//!
//! Each test makes its calls in one `unsafe` block: every backend pointer
//! it passes comes from `satbridge_new`, every buffer is a live local of
//! the length passed with it, and null comes only where the ABI allows it.

use std::ffi::CStr;
use std::ptr;
use std::time::Duration;

use satbridge_abi::{satbridge_abi, Backend};

#[derive(Default)]
pub struct Fake {
    clauses: Vec<Vec<i32>>,
    solves: Vec<(Vec<i32>, Option<u64>, Option<Duration>)>,
}

impl Backend for Fake {
    fn new() -> Self {
        Fake::default()
    }

    fn add_clause(&mut self, lits: &[i32]) {
        self.clauses.push(lits.to_vec());
    }

    /// SAT when the first assumption is 1, UNSAT when it is -1, else unknown.
    fn solve(
        &mut self,
        assumptions: &[i32],
        conflicts: Option<u64>,
        timeout: Option<Duration>,
    ) -> Option<bool> {
        self.solves.push((assumptions.to_vec(), conflicts, timeout));
        match assumptions.first() {
            Some(1) => Some(true),
            Some(-1) => Some(false),
            _ => None,
        }
    }

    /// Odd variables true, even ones false.
    fn value(&self, var: i32) -> i8 {
        if var % 2 == 1 {
            1
        } else {
            -1
        }
    }

    /// The number of solves so far.
    fn conflicts(&self) -> i64 {
        self.solves.len() as i64
    }

    fn signature(&self) -> String {
        "fake-0.1".to_string()
    }
}

satbridge_abi!(Fake);

fn seen<'a>(ptr: *mut Fake) -> &'a Fake {
    unsafe { &*ptr }
}

#[test]
fn clauses_are_split_from_one_flat_buffer_and_counted() {
    unsafe {
        let ptr = satbridge_new();
        let buf = [1, -2, 0, 3, 0, -4, 5, 6, 0];
        assert_eq!(satbridge_add_clauses(ptr, buf.as_ptr(), buf.len()), 3);
        assert_eq!(
            seen(ptr).clauses,
            vec![vec![1, -2], vec![3], vec![-4, 5, 6]]
        );
        satbridge_free(ptr);
    }
}

#[test]
fn a_trailing_run_without_its_zero_is_dropped() {
    unsafe {
        let ptr = satbridge_new();
        let buf = [1, 2, 0, 3, 4];
        assert_eq!(satbridge_add_clauses(ptr, buf.as_ptr(), buf.len()), 1);
        assert_eq!(seen(ptr).clauses, vec![vec![1, 2]]);
        satbridge_free(ptr);
    }
}

#[test]
fn a_null_buffer_of_length_zero_is_accepted() {
    unsafe {
        let ptr = satbridge_new();
        assert_eq!(satbridge_add_clauses(ptr, ptr::null(), 0), 0);
        assert_eq!(satbridge_solve(ptr, ptr::null(), 0, -1, 0.0), 0);
        satbridge_model(ptr, ptr::null_mut(), 0);
        assert!(seen(ptr).clauses.is_empty());
        assert_eq!(seen(ptr).solves, vec![(vec![], None, None)]);
        satbridge_free(ptr);
        satbridge_free(ptr::null_mut());
    }
}

#[test]
fn solve_answers_in_exit_codes_under_the_budget_conventions() {
    unsafe {
        let ptr = satbridge_new();
        let (sat, unsat, unknown) = ([1, 2], [-1], [3]);
        assert_eq!(satbridge_solve(ptr, sat.as_ptr(), 2, 5, 1.5), 10);
        assert_eq!(satbridge_solve(ptr, unsat.as_ptr(), 1, 0, -1.0), 20);
        assert_eq!(satbridge_solve(ptr, unknown.as_ptr(), 1, -7, 0.0), 0);
        let budgets: Vec<_> = seen(ptr).solves.iter().map(|s| (s.1, s.2)).collect();
        assert_eq!(
            budgets,
            vec![
                (Some(5), Some(Duration::from_millis(1500))),
                (Some(0), None),
                (None, None)
            ]
        );
        assert_eq!(seen(ptr).solves[0].0, vec![1, 2]);
        satbridge_free(ptr);
    }
}

#[test]
fn the_model_fills_slot_zero_with_zero() {
    unsafe {
        let ptr = satbridge_new();
        let mut out = [7i8; 5];
        satbridge_model(ptr, out.as_mut_ptr(), out.len());
        assert_eq!(out, [0, 1, -1, 1, -1]);
        satbridge_free(ptr);
    }
}

#[test]
fn conflicts_reach_the_abi_and_the_signature_is_an_owned_string() {
    unsafe {
        let ptr = satbridge_new();
        assert_eq!(satbridge_conflicts(ptr), 0);
        satbridge_solve(ptr, ptr::null(), 0, -1, 0.0);
        satbridge_solve(ptr, ptr::null(), 0, -1, 0.0);
        assert_eq!(satbridge_conflicts(ptr), 2);
        let raw = satbridge_signature(ptr);
        assert_eq!(CStr::from_ptr(raw).to_str(), Ok("fake-0.1"));
        satbridge_string_free(raw);
        satbridge_string_free(ptr::null_mut());
        satbridge_free(ptr);
    }
}
