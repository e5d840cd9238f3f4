//! Endpoint groups: receive-any over multiple endpoints.
//!
//! An endpoint group "logically combines multiple endpoints into a single
//! abstraction": a receive retrieves a message from *any* member endpoint
//! that has one. Because FLIPC's resource-control model associates buffers
//! with endpoints, the member queues cannot be merged — so, exactly as in
//! the paper, the group receive "is implemented entirely in the library" as
//! a scan. The scan start rotates so that a busy member cannot starve the
//! others.
//!
//! The blocking variant shares the idle ladder of
//! [`Flipc::recv_blocking`]: it first polls every member's ring with loads
//! alone for at most one measured sleep-and-wake ([`crate::wait`]), and
//! only then registers one wait cell on every member endpoint in the
//! node's wait registry. The engine's delivery wake on any member releases
//! the parked thread, which is then presented to the scheduler.

use std::time::Duration;

use crate::api::{Flipc, LocalEndpoint, Received};
use crate::endpoint::EndpointType;
use crate::error::{FlipcError, Result};

/// A group of receive endpoints supporting receive-any.
pub struct EndpointGroup {
    members: Vec<LocalEndpoint>,
    cursor: usize,
}

impl EndpointGroup {
    /// Creates an empty group.
    pub fn new() -> EndpointGroup {
        EndpointGroup {
            members: Vec::new(),
            cursor: 0,
        }
    }

    /// Adds a receive endpoint to the group, taking ownership.
    ///
    /// Fails (returning the endpoint) if it is not a receive endpoint.
    pub fn add(
        &mut self,
        ep: LocalEndpoint,
    ) -> std::result::Result<(), (FlipcError, LocalEndpoint)> {
        if ep.endpoint_type() != EndpointType::Receive {
            return Err((FlipcError::WrongEndpointType, ep));
        }
        self.members.push(ep);
        Ok(())
    }

    /// Removes and returns the member at `i`.
    pub fn remove(&mut self, i: usize) -> Result<LocalEndpoint> {
        if i >= self.members.len() {
            return Err(FlipcError::BadGroup);
        }
        self.cursor = 0;
        Ok(self.members.remove(i))
    }

    /// Number of member endpoints.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the group has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Member access (e.g. to provide buffers or query drops).
    pub fn member(&self, i: usize) -> Option<&LocalEndpoint> {
        self.members.get(i)
    }

    /// Polling receive-any: returns the first available message found,
    /// scanning members from a rotating start position, together with the
    /// member index it arrived on.
    pub fn recv_any(&mut self, f: &Flipc) -> Result<Option<(usize, Received)>> {
        if self.members.is_empty() {
            return Err(FlipcError::BadGroup);
        }
        scan(&self.members, &mut self.cursor, f)
    }

    /// Blocking receive-any: returns the first message any member receives,
    /// or [`FlipcError::Timeout`] after `timeout`. Polls the members' rings
    /// for at most one measured sleep-and-wake, then parks the thread until
    /// any member delivers.
    pub fn recv_any_blocking(&mut self, f: &Flipc, timeout: Duration) -> Result<(usize, Received)> {
        if self.members.is_empty() {
            return Err(FlipcError::BadGroup);
        }
        let EndpointGroup { members, cursor } = self;
        f.idle_ladder(members, timeout, || scan(members, cursor, f))
    }

    /// Disbands the group, returning its members.
    pub fn into_members(self) -> Vec<LocalEndpoint> {
        self.members
    }
}

/// One rotating scan of `members`, starting at `cursor`.
fn scan(
    members: &[LocalEndpoint],
    cursor: &mut usize,
    f: &Flipc,
) -> Result<Option<(usize, Received)>> {
    let n = members.len();
    for step in 0..n {
        let i = (*cursor + step) % n;
        if let Some(r) = f.recv(&members[i])? {
            // Next scan starts after the member that was served.
            *cursor = (i + 1) % n;
            return Ok(Some((i, r)));
        }
    }
    Ok(None)
}

impl Default for EndpointGroup {
    fn default() -> Self {
        EndpointGroup::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferState;
    use crate::commbuf::CommBuffer;
    use crate::endpoint::{EndpointAddress, EndpointIndex, FlipcNodeId, Importance};
    use crate::layout::Geometry;
    use crate::wait::WaitRegistry;
    use std::sync::Arc;
    use std::time::Instant;

    fn flipc() -> Flipc {
        let cb = Arc::new(CommBuffer::new(Geometry::small()).unwrap());
        Flipc::attach(cb, FlipcNodeId(0), WaitRegistry::new())
    }

    /// Delivers a canned message into `ep` playing the engine's role.
    fn deliver(f: &Flipc, ep: EndpointIndex, tag: u16) {
        let q = f.commbuf().engine_queue(ep).unwrap();
        let b = q.peek().expect("no receive buffer provided");
        let src = EndpointAddress::new(FlipcNodeId(9), EndpointIndex(tag), 1);
        f.commbuf().header(b).store(src, BufferState::Processed);
        q.advance();
    }

    fn group_of(f: &Flipc, n: usize) -> EndpointGroup {
        let mut g = EndpointGroup::new();
        for _ in 0..n {
            let ep = f
                .endpoint_allocate(EndpointType::Receive, Importance::Normal)
                .unwrap();
            let t = f.buffer_allocate().unwrap();
            f.provide_receive_buffer(&ep, t)
                .map_err(|r| r.error)
                .unwrap();
            g.add(ep).map_err(|e| e.0).unwrap();
        }
        g
    }

    #[test]
    fn empty_group_is_an_error() {
        let f = flipc();
        let mut g = EndpointGroup::new();
        assert_eq!(g.recv_any(&f).unwrap_err(), FlipcError::BadGroup);
        assert!(g.is_empty());
    }

    #[test]
    fn send_endpoints_are_rejected() {
        let f = flipc();
        let mut g = EndpointGroup::new();
        let s = f
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let (err, ep) = g.add(s).unwrap_err();
        assert_eq!(err, FlipcError::WrongEndpointType);
        f.endpoint_free(ep).unwrap();
    }

    #[test]
    fn recv_any_finds_message_on_any_member() {
        let f = flipc();
        let mut g = group_of(&f, 3);
        assert!(g.recv_any(&f).unwrap().is_none());
        deliver(&f, g.member(2).unwrap().index(), 42);
        let (i, r) = g.recv_any(&f).unwrap().unwrap();
        assert_eq!(i, 2);
        assert_eq!(r.from.index(), EndpointIndex(42));
    }

    #[test]
    fn rotation_gives_each_member_service() {
        let f = flipc();
        let mut g = group_of(&f, 3);
        // Keep every member loaded; the scan must rotate rather than
        // repeatedly serving member 0.
        let mut served = Vec::new();
        for round in 0..6 {
            for i in 0..3 {
                // Top up receive buffers and deliver one message each.
                let ep = g.member(i).unwrap().index();
                deliver(&f, ep, (round * 3 + i) as u16);
                let t = f.buffer_allocate().unwrap();
                let m = g.member(i).unwrap();
                f.provide_receive_buffer(m, t).map_err(|r| r.error).unwrap();
            }
            for _ in 0..3 {
                let (i, r) = g.recv_any(&f).unwrap().unwrap();
                served.push(i);
                f.buffer_free(r.token);
            }
        }
        let count = |m: usize| served.iter().filter(|&&x| x == m).count();
        assert_eq!(count(0), 6);
        assert_eq!(count(1), 6);
        assert_eq!(count(2), 6);
    }

    #[test]
    fn blocking_recv_any_times_out() {
        let f = flipc();
        let mut g = group_of(&f, 2);
        let err = g
            .recv_any_blocking(&f, Duration::from_millis(15))
            .unwrap_err();
        assert_eq!(err, FlipcError::Timeout);
        for i in 0..2 {
            assert_eq!(
                f.commbuf().waiters(g.member(i).unwrap().index()).unwrap(),
                0
            );
        }
    }

    #[test]
    fn blocking_recv_any_wakes_on_any_member() {
        let cb = Arc::new(CommBuffer::new(Geometry::small()).unwrap());
        let registry = WaitRegistry::new();
        let f = Arc::new(Flipc::attach(cb, FlipcNodeId(0), registry.clone()));
        let mut g = group_of(&f, 3);
        let target = g.member(1).unwrap().index();

        let f2 = f.clone();
        let waiter = std::thread::spawn(move || {
            let hit = g.recv_any_blocking(&f2, Duration::from_secs(5)).unwrap();
            hit.0
        });
        while f.commbuf().waiters(target).unwrap() == 0 {
            std::thread::yield_now();
        }
        deliver(&f, target, 7);
        registry.wake(target);
        assert_eq!(waiter.join().unwrap(), 1);
    }

    #[test]
    fn blocking_recv_any_takes_a_reply_inside_the_poll_phase_without_parking() {
        let cb = Arc::new(CommBuffer::new(Geometry::small()).unwrap());
        let registry = WaitRegistry::new();
        let f = Arc::new(Flipc::attach(cb, FlipcNodeId(0), registry.clone()));
        let mut g = group_of(&f, 3);
        let members: Vec<EndpointIndex> = (0..3).map(|i| g.member(i).unwrap().index()).collect();
        let (started, start) = std::sync::mpsc::channel();
        let f2 = f.clone();
        let waiter = std::thread::spawn(move || {
            let _pin = crate::wait::PinnedBound::new(Duration::from_secs(10));
            started.send(Instant::now()).unwrap();
            let hit = g.recv_any_blocking(&f2, Duration::from_secs(10));
            (hit.map(|h| h.0), Instant::now())
        });
        let began = start.recv().unwrap();
        while began.elapsed() < Duration::from_millis(20) {
            for &ep in &members {
                assert_eq!(f.commbuf().waiters(ep).unwrap(), 0, "receiver parked");
                assert_eq!(registry.waiter_count(ep), 0, "receiver registered");
            }
            std::thread::yield_now();
        }
        // No wake is posted: only the poll phase can find this message.
        deliver(&f, members[2], 7);
        let (hit, done) = waiter.join().unwrap();
        assert_eq!(hit.unwrap(), 2);
        assert!(done - began < Duration::from_secs(5));
        for &ep in &members {
            assert_eq!(f.commbuf().waiters(ep).unwrap(), 0);
            assert_eq!(registry.waiter_count(ep), 0);
        }
    }

    #[test]
    fn blocking_recv_any_parks_after_the_poll_phase_and_is_woken() {
        let cb = Arc::new(CommBuffer::new(Geometry::small()).unwrap());
        let registry = WaitRegistry::new();
        let f = Arc::new(Flipc::attach(cb, FlipcNodeId(0), registry.clone()));
        let mut g = group_of(&f, 2);
        let target = g.member(0).unwrap().index();
        let bound = Duration::from_millis(5);
        let began = Instant::now();
        let f2 = f.clone();
        let waiter = std::thread::spawn(move || {
            let _pin = crate::wait::PinnedBound::new(bound);
            g.recv_any_blocking(&f2, Duration::from_secs(10))
                .map(|h| h.0)
        });
        while f.commbuf().waiters(target).unwrap() == 0 {
            assert!(began.elapsed() < Duration::from_secs(5), "never parked");
            std::thread::yield_now();
        }
        assert!(
            began.elapsed() >= bound,
            "parked before the poll phase ended"
        );
        deliver(&f, target, 7);
        crate::sync::atomic::fence(crate::sync::atomic::Ordering::SeqCst);
        if f.commbuf().waiters(target).unwrap() > 0 {
            registry.wake(target);
        }
        assert_eq!(waiter.join().unwrap().unwrap(), 0);
        assert_eq!(f.commbuf().waiters(target).unwrap(), 0);
    }

    #[test]
    fn blocking_recv_any_times_out_inside_a_longer_poll_phase() {
        let f = flipc();
        let mut g = group_of(&f, 2);
        let _pin = crate::wait::PinnedBound::new(Duration::from_secs(60));
        let began = Instant::now();
        let err = g
            .recv_any_blocking(&f, Duration::from_millis(30))
            .unwrap_err();
        let took = began.elapsed();
        assert_eq!(err, FlipcError::Timeout);
        assert!(took >= Duration::from_millis(30), "{took:?}");
        assert!(took < Duration::from_secs(5), "{took:?}");
        for i in 0..2 {
            assert_eq!(
                f.commbuf().waiters(g.member(i).unwrap().index()).unwrap(),
                0
            );
        }
    }

    #[test]
    fn remove_and_disband_return_endpoints() {
        let f = flipc();
        let mut g = group_of(&f, 3);
        assert_eq!(g.len(), 3);
        assert!(g.remove(9).is_err());
        let _ep = g.remove(1).unwrap();
        assert_eq!(g.len(), 2);
        let rest = g.into_members();
        assert_eq!(rest.len(), 2);
    }
}
