//! The benchmark's allocator set-up.
//!
//! A counting wrapper around the system allocator that keeps the
//! program's memory apart from the harness's: the live-heap high-water
//! mark of allocations made outside the harness, and separately of
//! those made inside it. The harness thread marks itself with
//! [`harness`] and enters the program with [`program`]; every other
//! thread (the daemon's, and the threads the program forks) counts.
//! Each block carries a tag saying whose it is, so a block
//! freed on the other side of the line (a harness delta the program
//! drops, a program result the harness drops) leaves the count right.
//! The live heap, not the resident set, because the resident set also
//! moves with allocator fragmentation.
//!
//! And glibc told to keep freed memory: without it, whether a large
//! allocation reuses mapped pages or faults in fresh ones depends on the
//! allocator's history, and on a VM the cost of those faults depends on
//! the host's load. Kept memory removes those faults from every
//! measurement, while allocation sizes and the work of filling memory
//! still count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct Counting;

/// Live bytes and their high-water mark, indexed by tag: 0 for the
/// harness's blocks, 1 for the program's.
static LIVE: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];
static PEAK: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];

thread_local! {
    /// Whether this thread is running harness code.
    static HARNESS: Cell<bool> = const { Cell::new(false) };
}

/// Mark the calling thread as the harness: its allocations stop
/// counting as the program's, except inside [`program`].
pub fn harness() {
    HARNESS.with(|h| h.set(true));
}

/// Run `f`, a call into the program, with its allocations counted as
/// the program's.
pub fn program<R>(f: impl FnOnce() -> R) -> R {
    in_mode(false, f)
}

/// Run `f` with its allocations counted as the harness's: program work
/// the program's memory figure should not include (an extra set-up
/// repetition).
pub fn as_harness<R>(f: impl FnOnce() -> R) -> R {
    in_mode(true, f)
}

fn in_mode<R>(harness: bool, f: impl FnOnce() -> R) -> R {
    let was = HARNESS.with(|h| h.replace(harness));
    let r = f();
    HARNESS.with(|h| h.set(was));
    r
}

/// The tag of a block allocated now on this thread.
fn tag() -> u8 {
    u8::from(!HARNESS.try_with(Cell::get).unwrap_or(false))
}

fn grew(tag: u8, by: usize) {
    let t = usize::from(tag);
    let live = LIVE[t].fetch_add(by, Ordering::Relaxed) + by;
    PEAK[t].fetch_max(live, Ordering::Relaxed);
}

fn shrank(tag: u8, by: usize) {
    LIVE[usize::from(tag)].fetch_sub(by, Ordering::Relaxed);
}

/// Bytes in front of each block: room for the tag, keeping the block's
/// alignment.
fn header(layout: Layout) -> usize {
    layout.align().max(16)
}

/// The layout of a block of `size` bytes with its header.
fn outer(layout: Layout, size: usize) -> Option<Layout> {
    let h = header(layout);
    Layout::from_size_align(size.checked_add(h)?, h).ok()
}

/// Tag a fresh block at `base` and return the caller's pointer.
///
/// # Safety
/// `base` is null or a block of `outer(layout, layout.size())`.
unsafe fn tagged(base: *mut u8, layout: Layout) -> *mut u8 {
    if base.is_null() {
        return base;
    }
    let tag = tag();
    let p = base.add(header(layout));
    p.sub(1).write(tag);
    grew(tag, layout.size());
    p
}

// SAFETY: every block is `System`'s block of `outer(layout, size)`, of
// which the caller gets the part after the header: `header` is a power
// of two at least `layout.align()`, so the caller's pointer keeps the
// alignment it asked for, and its `size` bytes lie inside the block.
// The tag byte sits just before the caller's pointer, in the header,
// which no caller touches; `dealloc` and `realloc` recover the block
// from the same layout arithmetic. The counters are statistics that no
// allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        match outer(layout, layout.size()) {
            Some(o) => tagged(System.alloc(o), layout),
            None => std::ptr::null_mut(),
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        match outer(layout, layout.size()) {
            Some(o) => tagged(System.alloc_zeroed(o), layout),
            None => std::ptr::null_mut(),
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(ptr.sub(1).read(), layout.size());
        let o = outer(layout, layout.size()).expect("layout of a live block");
        System.dealloc(ptr.sub(header(layout)), o);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let (Some(old), Some(new)) = (outer(layout, layout.size()), outer(layout, new_size)) else {
            return std::ptr::null_mut();
        };
        let tag = ptr.sub(1).read();
        let base = System.realloc(ptr.sub(header(layout)), old, new.size());
        if base.is_null() {
            return base;
        }
        if new_size > layout.size() {
            grew(tag, new_size - layout.size());
        } else {
            shrank(tag, layout.size() - new_size);
        }
        // The tag moved with the block's contents.
        base.add(header(layout))
    }
}

/// Highest live heap (MiB) since the process started: the program's,
/// and the harness's.
pub fn peak_heap_mb() -> (f64, f64) {
    let mb = |t: usize| PEAK[t].load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0);
    (mb(1), mb(0))
}

/// Keep freed memory in the process: serve allocations up to 32 MiB
/// from the heap and never trim it. Returns whether glibc accepted both
/// settings.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn keep_freed_memory() -> bool {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets allocator parameters; it is called
    // before the benchmark allocates anything that depends on them, and
    // both values are in the ranges glibc documents (the mmap threshold
    // at its 32 MiB maximum on 64-bit targets).
    unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn keep_freed_memory() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_blocks_stay_the_harness_s() {
        harness();
        let mut v = vec![1u8; 64 << 20];
        // Grown inside the program, the harness's block keeps its tag.
        program(|| v.reserve(v.len()));
        let (program_mb, harness_mb) = peak_heap_mb();
        assert!(harness_mb >= 128.0, "harness peak {harness_mb}");
        assert!(program_mb < 64.0, "program peak {program_mb}");
        drop(v);
        let w = program(|| vec![1u8; 64 << 20]);
        assert!(peak_heap_mb().0 >= 64.0);
        drop(w);
    }
}
