//! Traced benchmark binary: the untraced binary plus a counting global
//! allocator, printing the per-layer metrics of one workload.

use dps_perfbench::trace::ALLOC;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::Ordering;

/// Forwards to the system allocator and counts into [`ALLOC`].
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`
// (same layout, same pointer, same size) and returns `System`'s result;
// the only other work is relaxed atomic counting, which neither allocates
// nor panics. The impl therefore upholds `GlobalAlloc`'s contract exactly
// as `System` does. The package denies `unsafe_code`; this impl is its
// only waiver and lives in the traced binary alone, so untraced runs
// never go through it.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC.on_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC.on_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        ALLOC.on_free(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC.on_free(layout.size());
        ALLOC.on_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn main() {
    ALLOC.installed.store(true, Ordering::Relaxed);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (stdout, stderr, code) = dps_perfbench::main_with(&argv);
    eprint!("{stderr}");
    print!("{stdout}");
    std::process::exit(code);
}
