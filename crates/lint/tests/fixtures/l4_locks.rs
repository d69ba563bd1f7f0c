//! L4 fixture: declared-order violation, I/O under a guard, and a cycle.
// srlint: lock-order(meta < shard) -- fixture order: free-list state before cache stripes

pub struct Pager {
    meta: Mutex<Meta>,
    shard: Mutex<Cache>,
}

impl Pager {
    pub fn ordered_ok(&self) {
        let m = self.meta.lock();
        let s = self.shard.lock();
        drop(s);
        drop(m);
    }

    pub fn inverted(&self) {
        let s = self.shard.lock();
        let m = self.meta.lock();
        drop(m);
        drop(s);
    }

    pub fn io_under_guard(&self, id: u64, data: &[u8]) {
        let s = self.shard.lock();
        self.write_page(id, data);
        drop(s);
    }

    pub fn io_after_guard(&self, id: u64, data: &[u8]) {
        let s = self.shard.lock();
        drop(s);
        self.write_page(id, data);
    }

    #[doc = "srlint: io"] fn write_page(&self, _id: u64, _data: &[u8]) {}
}

pub struct Tangle {
    left: Mutex<u32>,
    right: Mutex<u32>,
}

impl Tangle {
    pub fn forward(&self) {
        let a = self.left.lock();
        let b = self.right.lock();
        drop(b);
        drop(a);
    }

    pub fn backward(&self) {
        let b = self.right.lock();
        let a = self.left.lock();
        drop(a);
        drop(b);
    }
}

pub struct Escapes {
    meta: Mutex<Meta>,
}

impl Escapes {
    pub fn guard_tail(&self) -> MutexGuard<Meta> {
        let m = self.meta.lock();
        m
    }

    pub fn guard_return_stmt(&self) -> MutexGuard<Meta> {
        return self.meta.lock();
    }

    pub fn rebound_escape(&self) -> MutexGuard<Meta> {
        let m = self.meta.lock();
        let m2 = m;
        m2
    }

    pub fn data_not_guard(&self) -> u64 {
        let m = self.meta.lock();
        m.value
    }

    pub fn rebound_then_dropped(&self) {
        let m = self.meta.lock();
        let m2 = m;
        drop(m2);
    }

    pub fn hatched_accessor(&self) -> MutexGuard<Meta> {
        // srlint: allow(guard-escape) -- fixture: sanctioned accessor; the caller is the lock scope
        self.meta.lock()
    }
}
