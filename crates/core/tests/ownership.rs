//! Single-writer-discipline checker tests (feature `ownership-checks`).
//!
//! Run with: `cargo test -p flipc-core --features ownership-checks`
#![cfg(feature = "ownership-checks")]

use flipc_core::commbuf::CommBuffer;
use flipc_core::endpoint::{EndpointType, Importance};
use flipc_core::layout::{
    Geometry, WriteOwner, EP_DROPS, EP_PROCESS, HDR_EP_EPOCH, HDR_MISADDR_DROPS,
};
use flipc_core::ownership::{self, Role};
use flipc_core::sync::atomic::Ordering;
use std::sync::{Mutex, MutexGuard, PoisonError};

fn base_of(cb: &CommBuffer) -> usize {
    cb.raw_word(0) as *const _ as usize
}

/// The violation list is global and `take_violations` drains all of it,
/// so a test reading it in parallel with another could take the other's
/// violations. Every test here holds this lock while it runs.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Violations recorded for this buffer only (tests in this binary run in
/// parallel and the violation list is global).
fn my_violations(cb: &CommBuffer) -> Vec<ownership::Violation> {
    let base = base_of(cb);
    ownership::take_violations()
        .into_iter()
        .filter(|v| v.region_base == base)
        .collect()
}

/// The seeded cross-role write: an errant application scribbles on the
/// engine-owned `process` pointer through `raw_word`. The checker must
/// report it, resolved to the layout field name.
#[test]
fn errant_app_write_to_process_pointer_is_detected() {
    let _serial = serial();
    let cb = CommBuffer::new(Geometry::small()).unwrap();
    let (ep, _) = cb
        .alloc_endpoint(EndpointType::Send, Importance::Normal)
        .unwrap();
    let _ = my_violations(&cb); // discard any setup noise
    let off = cb.layout().endpoint(ep.0) + EP_PROCESS;
    cb.raw_word(off).store(0xDEAD, Ordering::Relaxed);
    let violations = my_violations(&cb);
    assert_eq!(violations.len(), 1, "exactly one violation: {violations:?}");
    let v = &violations[0];
    assert_eq!(v.field, format!("endpoint[{}].process", ep.0));
    assert_eq!(v.offset, off);
    assert_eq!(v.owner, WriteOwner::Engine);
    assert_eq!(v.actual, Role::App);
    let shown = v.to_string();
    assert!(
        shown.contains("process"),
        "display names the field: {shown}"
    );
}

/// Same for the engine's drop counters: app-role stores to `drops` words
/// are cross-role; the legitimate engine-side handle is not.
#[test]
fn drop_counter_words_are_engine_owned() {
    let _serial = serial();
    let cb = CommBuffer::new(Geometry::small()).unwrap();
    let (ep, _) = cb
        .alloc_endpoint(EndpointType::Receive, Importance::Normal)
        .unwrap();
    let _ = my_violations(&cb);
    // Legitimate: through the engine-side handle (role-tagged).
    cb.drops_engine(ep).unwrap().increment();
    cb.misaddressed_engine().increment();
    assert!(
        my_violations(&cb).is_empty(),
        "tagged engine writes are clean"
    );
    // Errant: raw app-role stores to the same words.
    cb.raw_word(cb.layout().endpoint(ep.0) + EP_DROPS)
        .store(9, Ordering::Relaxed);
    cb.raw_word(HDR_MISADDR_DROPS).store(9, Ordering::Relaxed);
    let violations = my_violations(&cb);
    let fields: Vec<&str> = violations.iter().map(|v| v.field.as_str()).collect();
    assert!(
        fields.contains(&format!("endpoint[{}].drops", ep.0).as_str()),
        "missing endpoint drops violation: {fields:?}"
    );
    assert!(
        fields.contains(&"header.misaddr_drops"),
        "missing misaddressed violation: {fields:?}"
    );
}

/// A full legitimate message cycle — allocation, release, engine
/// processing, acquire, counters, free — produces zero violations: the
/// production code paths all write through correctly-roled accessors.
#[test]
fn normal_traffic_is_violation_free() {
    let _serial = serial();
    let cb = CommBuffer::new(Geometry::small()).unwrap();
    let _ = my_violations(&cb);
    let (ep, _) = cb
        .alloc_endpoint(EndpointType::Send, Importance::High)
        .unwrap();
    let token = cb.alloc_buffer().unwrap();
    let idx = token.index();
    cb.app_queue(ep).unwrap().release(idx).unwrap();
    // Engine side processes.
    let eq = cb.engine_queue(ep).unwrap();
    assert_eq!(eq.peek(), Some(idx));
    eq.advance();
    cb.drops_engine(ep).unwrap().increment();
    // App side reclaims.
    assert_eq!(cb.app_queue(ep).unwrap().acquire(), Some(idx));
    assert_eq!(cb.drops_app(ep).unwrap().read_and_reset(), 1);
    cb.adjust_waiters(ep, 1).unwrap();
    cb.adjust_waiters(ep, -1).unwrap();
    cb.free_buffer(token);
    cb.free_endpoint(ep).unwrap();
    let violations = my_violations(&cb);
    assert!(
        violations.is_empty(),
        "unexpected violations: {violations:?}"
    );
}

/// Endpoint allocate and free bump the App-owned endpoint-table epoch
/// under the allocation lock: churn through the whole table is clean, and
/// an engine-role store to the epoch is caught by field name.
#[test]
fn endpoint_epoch_is_app_written() {
    let _serial = serial();
    let cb = CommBuffer::new(Geometry::small()).unwrap();
    let _ = my_violations(&cb);
    let before = cb.endpoint_epoch();
    let mut eps = Vec::new();
    for ty in [EndpointType::Send, EndpointType::Receive].repeat(4) {
        eps.push(cb.alloc_endpoint(ty, Importance::Low).unwrap().0);
    }
    for ep in eps {
        cb.free_endpoint(ep).unwrap();
    }
    assert_eq!(cb.endpoint_epoch(), before.wrapping_add(16));
    let violations = my_violations(&cb);
    assert!(
        violations.is_empty(),
        "unexpected violations: {violations:?}"
    );
    {
        let _role = ownership::enter(Role::Engine);
        cb.raw_word(HDR_EP_EPOCH).store(0, Ordering::Relaxed);
    }
    let violations = my_violations(&cb);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].field, "header.ep_epoch");
    assert_eq!(violations[0].owner, WriteOwner::App);
}

/// The telemetry histogram follows the same discipline: its recording
/// side is Engine-owned, its harvest shadow is App-owned, and a pinned
/// registered histogram reports cross-role writes by field name.
#[test]
fn histogram_words_follow_single_writer_discipline() {
    let _serial = serial();
    use flipc_core::hist::Histogram;
    // Pinned allocation: registration requires a stable address.
    let h: Box<Histogram> = Box::new(Histogram::new());
    h.register_ownership("deliver_latency");
    let base = &*h as *const Histogram as usize;
    let mine = |vs: Vec<ownership::Violation>| -> Vec<ownership::Violation> {
        vs.into_iter().filter(|v| v.region_base == base).collect()
    };
    let _ = mine(ownership::take_violations());

    // Legitimate: record() runs under the Engine role, harvest() under
    // the default App role — both write only words their role owns.
    h.recorder().record(42);
    let snap = h.reader().harvest();
    assert_eq!(snap.count(), 1);
    assert!(
        mine(ownership::take_violations()).is_empty(),
        "production record/harvest paths must be violation-free"
    );

    // Errant: an app-role record() (role forced back to App inside the
    // engine-owned store) is simulated by an engine-role harvest —
    // the harvest writes App-owned `taken` words from the Engine role.
    {
        let _role = ownership::enter(Role::Engine);
        let _ = h.reader().harvest();
    }
    let violations = mine(ownership::take_violations());
    assert!(
        !violations.is_empty(),
        "engine-role harvest must be flagged"
    );
    assert!(
        violations
            .iter()
            .all(|v| v.owner == WriteOwner::App && v.actual == Role::Engine),
        "violations misattributed: {violations:?}"
    );
    assert!(
        violations
            .iter()
            .any(|v| v.field.starts_with("deliver_latency.taken")),
        "field names must resolve through the registered table: {violations:?}"
    );
    h.unregister_ownership();
    // After unregistration the words are anonymous again.
    {
        let _role = ownership::enter(Role::Engine);
        let _ = h.reader().harvest();
    }
    assert!(mine(ownership::take_violations()).is_empty());
}

/// Buffer header words have dynamic (alternating) ownership and are
/// exempt — writes from either role are legal there.
#[test]
fn buffer_words_are_exempt_dynamic_ownership() {
    let _serial = serial();
    let cb = CommBuffer::new(Geometry::small()).unwrap();
    let _ = my_violations(&cb);
    let token = cb.alloc_buffer().unwrap();
    // App-role write to the buffer header word (via set_state inside
    // alloc; write again explicitly through the raw facade).
    let hdr_off = cb.layout().buffer(token.index());
    cb.raw_word(hdr_off).store(1, Ordering::Relaxed);
    cb.raw_word(hdr_off + 12).store(7, Ordering::Relaxed); // payload word
    assert!(
        my_violations(&cb).is_empty(),
        "dynamic words must be exempt"
    );
}
