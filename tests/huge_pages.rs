//! The index's memory really is on 2 MiB pages: a touched
//! `Region::mapped` block shows up in the kernel's `AnonHugePages`. A test
//! binary of its own, so no other test frees huge pages while this one
//! counts them.

use prefetch::pages::Region;

/// `AnonHugePages` of this process, in bytes; `None` without
/// `/proc/self/smaps_rollup`.
fn anon_huge_pages() -> Option<usize> {
    let rollup = std::fs::read_to_string("/proc/self/smaps_rollup").ok()?;
    let line = rollup.lines().find(|l| l.starts_with("AnonHugePages:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[test]
fn a_touched_mapped_region_is_on_huge_pages() {
    let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
    if thp.as_deref().map_or(true, |s| s.contains("[never]")) {
        println!("skipped: transparent huge pages are off or absent ({thp:?})");
        return;
    }
    let Some(before) = anon_huge_pages() else {
        println!("skipped: no AnonHugePages in /proc/self/smaps_rollup");
        return;
    };
    let len = 64 << 20;
    let region = Region::mapped(len).expect("map 64 MiB");
    for off in (0..len).step_by(4096) {
        // SAFETY: inside the region, which nothing else refers to.
        unsafe { region.as_ptr().add(off).write_volatile(1) };
    }
    let after = anon_huge_pages().expect("smaps_rollup read a moment ago");
    println!("AnonHugePages {before} -> {after} B");
    assert!(
        after >= before + (32 << 20),
        "64 MiB touched, AnonHugePages grew by {} B only",
        after.saturating_sub(before)
    );
}
