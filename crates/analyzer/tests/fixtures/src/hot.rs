//! Fixture: a registered hot path that allocates two calls deep and does
//! an atomic RMW, plus a second root covered by the fixture allowlist.
pub struct Pump;

impl Pump {
    pub fn drain(&self) {
        helper();
        self.sent.fetch_add(1, Ordering::Relaxed);
        // A slice swap names no `Ordering`, so it is not an RMW.
        self.slots.swap(0, 1);
    }

    pub fn flush(&self) {
        self.queue.pop().unwrap();
    }
}

fn helper() {
    let scratch = vec![0u8; 64];
    consume(&scratch);
}
