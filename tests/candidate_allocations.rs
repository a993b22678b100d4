//! The IMCIS candidate hot path allocates nothing once warm: a
//! `ConstrainedRowSampler` draw reuses the sampler's own buffers across
//! its rejection attempts, and the batched search keeps no per-candidate
//! draw.
//!
//! A counting global allocator keeps one count per thread, so tests that
//! run at the same time on other threads do not disturb a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use imc_distr::{ConstrainedRowSampler, IntervalSpec};
use imc_models::scenario::{group_repair_setup, GroupRepairIs};
use imc_optim::{BatchSearch, Problem, RandomSearchConfig};
use imc_sampling::{sample_is_run, IsConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread's counter is gone while the thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is passed unchanged to the system allocator. Counting
// touches only a const-initialised thread-local `Cell<u64>`, which needs
// neither an allocation nor a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the number of allocations the
/// calling thread made meanwhile.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn spec(lo: f64, hi: f64, center: f64) -> IntervalSpec {
    IntervalSpec::new(lo, hi, center).unwrap()
}

#[test]
fn warm_row_draws_allocate_nothing() {
    let third = 1.0 / 3.0;
    let rows = [
        // Plain: every coordinate free.
        vec![
            spec(0.25, 0.35, 0.3),
            spec(0.15, 0.25, 0.2),
            spec(0.45, 0.55, 0.5),
        ],
        // A pinned coordinate.
        vec![
            spec(0.3, 0.3, 0.3),
            spec(0.3, 0.5, 0.4),
            spec(0.2, 0.4, 0.3),
        ],
        // A split coordinate drawn uniformly first.
        vec![
            spec(0.000_995, 0.001_005, 0.001),
            spec(0.2, 0.4, 0.3),
            spec(0.3, 0.5, 0.4),
            spec(0.199, 0.399, 0.299),
        ],
        // Shapes below 1.
        vec![
            spec(0.0, 0.2, 0.1),
            spec(0.0, 0.4, 0.2),
            spec(0.4, 1.0, 0.7),
        ],
        // A box that needs λ-inflation.
        vec![
            spec(third - 2e-3, third + 2e-3, third),
            spec(third - 2e-3, third + 2e-3, third),
            spec(third - 0.05, third + 0.05, third),
        ],
    ];
    for (case, row) in rows.iter().enumerate() {
        let mut sampler = ConstrainedRowSampler::new(row).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        sampler.sample(&mut rng).unwrap();
        let ((), n) = allocations(|| {
            for _ in 0..1000 {
                black_box(sampler.sample(&mut rng).unwrap());
            }
        });
        assert_eq!(n, 0, "row {case}: 1000 warm draws allocated {n} times");
        assert!(sampler.stats().attempts > 1001, "row {case}: no rejection");
    }
}

#[test]
fn batched_search_allocations_do_not_grow_with_the_candidate_budget() {
    let setup = group_repair_setup(GroupRepairIs::Mixture(0.9), 2018);
    let mut rng = StdRng::seed_from_u64(11);
    let run = sample_is_run(&setup.b, &setup.property, &IsConfig::new(1000), &mut rng);
    let problem = Problem::new(&setup.imc, &setup.b, &run).unwrap();
    assert!(problem.num_sampled_rows() > 10);
    let allocations_at = |r_max: usize| {
        let config = RandomSearchConfig {
            r_undefeated: usize::MAX,
            r_max,
            record_trace: false,
        };
        let (outcome, n) = allocations(|| {
            BatchSearch::new(1, 64)
                .run(&problem, &config, 2018)
                .unwrap()
        });
        assert_eq!(outcome.rounds, r_max);
        assert!(outcome.min_found_at > 0 && outcome.max_found_at > 0);
        n
    };
    allocations_at(8);
    let (small, large) = (allocations_at(64), allocations_at(1024));
    assert_eq!(
        small, large,
        "r_max 64 allocated {small} times, r_max 1024 {large}"
    );
}
