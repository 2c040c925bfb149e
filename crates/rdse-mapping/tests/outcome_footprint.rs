//! Heap footprint of an architecture-exploration result, measured by a
//! counting global allocator. Callers that keep many results (a result
//! store, a benchmark harness) hold exactly this much per job, so it is
//! guarded here. The binary holds a single test so no other test
//! allocates while it measures.

use rdse_mapping::{explore_architecture, ArchExploreOptions, Mapping, ResourceCatalog};
use rdse_model::units::{Clbs, Micros};
use rdse_model::{Architecture, DrlcSpec, ProcessorSpec};
use rdse_workloads::{motion_detection_app, MOTION_DEADLINE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, tracking the bytes currently allocated.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` needs and its
// guarantees pass back; the atomic counter update does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::SeqCst);
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap bytes released by dropping `value`.
fn held<T>(value: T) -> isize {
    let before = LIVE.load(Ordering::SeqCst);
    drop(value);
    before - LIVE.load(Ordering::SeqCst)
}

#[test]
fn motion_outcome_holds_few_heap_bytes_at_exact_capacity() {
    let app = motion_detection_app();
    let catalog = ResourceCatalog {
        processors: vec![ProcessorSpec::new("arm922", 10.0)],
        drlcs: vec![
            DrlcSpec::new("virtex-500", Clbs::new(500), Micros::new(22.5), 12.0),
            DrlcSpec::new("virtex-1000", Clbs::new(1000), Micros::new(22.5), 20.0),
            DrlcSpec::new("virtex-2000", Clbs::new(2000), Micros::new(22.5), 35.0),
        ],
        asics: vec![],
    };
    let initial = Architecture::builder("over-provisioned")
        .processor("arm922", 10.0)
        .drlc("virtex-2000", Clbs::new(2000), Micros::new(22.5), 35.0)
        .bus_rate(25.0)
        .build()
        .expect("valid architecture");
    let opts = ArchExploreOptions {
        seed: 1,
        deadline: MOTION_DEADLINE,
        ..ArchExploreOptions::default()
    };
    let out = explore_architecture(&app, initial, &catalog, &opts).expect("motion explores");
    let parts: (Mapping, Architecture) = (out.mapping, out.architecture);

    // A clone allocates every buffer at exactly its length.
    let before = LIVE.load(Ordering::SeqCst);
    let exact = parts.clone();
    let exact_bytes = LIVE.load(Ordering::SeqCst) - before;
    assert_eq!(held(exact), exact_bytes);

    let bytes = held(parts);
    assert!(
        bytes <= 800,
        "mapping + architecture hold {bytes} heap bytes"
    );
    // The outcome is the restored best snapshot, not the resident
    // buffers grown over the walk.
    assert_eq!(bytes, exact_bytes, "the outcome carries spare capacity");
}
