//! `BufferPool::flush_all` lists the dirty frames under the shard lock
//! and writes them without it. A page freed in between — in the tree, a
//! reader dropping the last snapshot of an epoch — used to fail the whole
//! checkpoint with `InvalidPage`. The interleaving is forced with a gate
//! inside the device's `write_page`; nothing here depends on timing.

use nnq_storage::{BufferPool, DiskManager, DiskStats, MemDisk, PageId, Result};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

const PAGE: usize = 128;

/// A `MemDisk` whose first `write_page` stops before touching the device:
/// it reports which page it is about to write, then waits for the test's
/// go-ahead. Later writes pass straight through.
struct GatedDisk {
    inner: MemDisk,
    gate: Mutex<Option<(Sender<PageId>, Receiver<()>)>>,
}

impl DiskManager for GatedDisk {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.inner.read_page(id, buf)
    }
    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        if let Some((about_to_write, go)) = self.gate.lock().unwrap().take() {
            about_to_write.send(id).unwrap();
            go.recv().unwrap();
        }
        self.inner.write_page(id, buf)
    }
    fn allocate(&self) -> Result<PageId> {
        self.inner.allocate()
    }
    fn deallocate(&self, id: PageId) -> Result<()> {
        self.inner.deallocate(id)
    }
    fn live_pages(&self) -> u64 {
        self.inner.live_pages()
    }
    fn stats(&self) -> DiskStats {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
    fn ensure_allocated(&self, id: PageId) -> Result<()> {
        self.inner.ensure_allocated(id)
    }
}

/// Two dirty pages; `flush_all` is stopped inside its first device write
/// while `free` (given the page being written and the other one) deletes
/// a page; then the flush resumes. Returns the flush's result, the pool,
/// the device, and the two pages as (being written, other); a page is
/// filled with its id's low byte.
fn flush_with_a_free_in_the_middle(
    free: impl FnOnce(&BufferPool, PageId, PageId),
) -> (
    Result<()>,
    Arc<BufferPool>,
    Arc<GatedDisk>,
    (PageId, PageId),
) {
    let (about_to_write, written_first) = channel();
    let (go, wait) = channel();
    let disk = Arc::new(GatedDisk {
        inner: MemDisk::new(PAGE),
        gate: Mutex::new(Some((about_to_write, wait))),
    });
    let pool = Arc::new(BufferPool::new(Box::new(Arc::clone(&disk)), 8));
    let mut pages = Vec::new();
    for _ in 0..2 {
        let (id, mut guard) = pool.new_page().unwrap();
        guard.fill(id.0 as u8);
        pages.push(id);
    }
    let flusher = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || pool.flush_all())
    };
    // The flush has listed both dirty frames and is inside its first write.
    let first = written_first.recv().unwrap();
    let other = *pages.iter().find(|&&p| p != first).unwrap();
    free(&pool, first, other);
    go.send(()).unwrap();
    (flusher.join().unwrap(), pool, disk, (first, other))
}

/// What the device holds for `id`.
fn on_device(disk: &GatedDisk, id: PageId) -> Result<Vec<u8>> {
    let mut buf = vec![0u8; PAGE];
    disk.inner.read_page(id, &mut buf).map(|()| buf)
}

/// The wide window: a page listed but not yet reached is freed. Its
/// frame is skipped; the other page is written as usual.
#[test]
fn flush_all_skips_a_page_freed_after_it_was_listed() {
    let (flushed, pool, disk, (first, other)) =
        flush_with_a_free_in_the_middle(|pool, _, other| pool.delete_page(other).unwrap());
    flushed.expect("a concurrent free must not fail the checkpoint");
    assert_eq!(pool.stats().writebacks, 1, "only the surviving page");
    assert_eq!(on_device(&disk, first).unwrap(), [first.0 as u8; PAGE]);
    assert!(
        on_device(&disk, other).is_err(),
        "the freed page stays freed"
    );
}

/// The narrow window: the page is freed after the flush probed it, while
/// the device write is in progress, so the device refuses the write. The
/// flush sees the page is gone and moves on to the next frame.
#[test]
fn flush_all_survives_a_free_during_the_device_write() {
    let (flushed, pool, disk, (first, other)) =
        flush_with_a_free_in_the_middle(|pool, first, _| pool.delete_page(first).unwrap());
    flushed.expect("a concurrent free must not fail the checkpoint");
    assert_eq!(pool.stats().writebacks, 1, "only the surviving page");
    assert!(
        on_device(&disk, first).is_err(),
        "the freed page stays freed"
    );
    assert_eq!(on_device(&disk, other).unwrap(), [other.0 as u8; PAGE]);
}
