//! The outside-in layer trace.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer, and by timing adapters that wrap a transport ([`TracedTransport`])
//! or a datagram link ([`TracedLink`]) through the public `Transport` and
//! `Link` traits. Nothing inside the library is instrumented. A span holds
//! its name, start and end in time-stamp-counter ticks, its parent, the
//! sequence number of the message in hand, one call-specific argument, and
//! the allocations its thread made while it was open. Spans go into memory
//! reserved before the traced phase; they are reduced to per-layer
//! figures when the phase ends. A layer's self time is its span's duration
//! minus the durations of its child spans.

use std::cell::RefCell;
use std::time::Instant;

use flipc_core::endpoint::FlipcNodeId;
use flipc_core::inspect::TransportSnapshot;
use flipc_engine::{Frame, Transport};
use flipc_net::Link;

use crate::alloc;

/// Span names: one per call the benchmark times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// `Flipc::send_unlocked`.
    Send,
    /// `Flipc::recv_unlocked`; the argument is 1 when it yields a message.
    Recv,
    /// `Flipc::buffer_allocate`.
    Alloc,
    /// `Flipc::buffer_free`.
    Free,
    /// `Flipc::provide_receive_buffer_unlocked`.
    Provide,
    /// `Flipc::reclaim_send_unlocked`.
    Reclaim,
    /// `Flipc::recv_blocking`.
    RecvBlocking,
    /// `Engine::iterate`; the argument is the work it reports.
    Iterate,
    /// `LoopbackPort::try_send`; the argument is 1 when accepted.
    LoopbackTrySend,
    /// `LoopbackPort::try_recv`; the argument is 1 when a frame came back.
    LoopbackTryRecv,
    /// `NetTransport::try_send`; the argument is 1 when accepted.
    NetTrySend,
    /// `NetTransport::try_recv`; the argument is 1 when a frame came back.
    NetTryRecv,
    /// `NetTransport::flush`.
    NetFlush,
    /// `UdpLink::send`; the argument is 1 when the socket took it.
    UdpSend,
    /// `UdpLink::send_batch`; the argument is the datagrams taken.
    UdpSendBatch,
    /// `UdpLink::recv`; the argument is 1 when a datagram came back.
    UdpRecv,
}

const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub seq: u32,
    pub arg: u32,
    /// Allocations made on the thread while the span was open, its
    /// children's included.
    pub allocs: u32,
    pub name: Name,
}

struct Recorder {
    spans: Vec<Span>,
    open: u32,
    seq: u32,
    on: bool,
    datagrams: u64,
    bytes: u64,
}

thread_local! {
    static REC: RefCell<Recorder> = const {
        RefCell::new(Recorder {
            spans: Vec::new(),
            open: NONE,
            seq: 0,
            on: false,
            datagrams: 0,
            bytes: 0,
        })
    };
}

/// The span clock: the time-stamp counter where there is one (a few
/// nanoseconds per read), converted to nanoseconds when the phase ends.
#[inline(always)]
fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` has no preconditions on x86-64.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

fn enter(name: Name) -> u32 {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return NONE;
        }
        if r.spans.len() == r.spans.capacity() {
            r.on = false;
            return NONE;
        }
        let id = r.spans.len() as u32;
        let span = Span {
            start: ticks(),
            end: 0,
            parent: r.open,
            seq: r.seq,
            arg: 0,
            allocs: alloc::thread_allocs() as u32,
            name,
        };
        r.spans.push(span);
        r.open = id;
        id
    })
}

fn exit(id: u32, arg: u32) {
    if id == NONE {
        return;
    }
    let end = ticks();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let allocs = alloc::thread_allocs() as u32;
        let s = &mut r.spans[id as usize];
        s.end = end;
        s.arg = arg;
        s.allocs = allocs.wrapping_sub(s.allocs);
        let parent = s.parent;
        r.open = parent;
    })
}

fn count_sent(datagrams: usize, bytes: usize) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            r.datagrams += datagrams as u64;
            r.bytes += bytes as u64;
        }
    })
}

/// Whether the benchmark's calls into the library are timed.
pub trait Probe: Copy {
    /// Runs `f` as a span called `name`; `arg` reads the span's argument
    /// off the result.
    fn span<R>(self, name: Name, f: impl FnOnce() -> R, arg: impl FnOnce(&R) -> u32) -> R;
    /// Tags subsequent spans with the sequence number of the message in
    /// hand.
    fn seq(self, seq: u64);
}

/// No tracing: every method compiles away.
#[derive(Clone, Copy)]
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn span<R>(self, _: Name, f: impl FnOnce() -> R, _: impl FnOnce(&R) -> u32) -> R {
        f()
    }

    #[inline(always)]
    fn seq(self, _: u64) {}
}

/// Record spans into the calling thread's trace.
#[derive(Clone, Copy)]
pub struct On;

impl Probe for On {
    #[inline]
    fn span<R>(self, name: Name, f: impl FnOnce() -> R, arg: impl FnOnce(&R) -> u32) -> R {
        let id = enter(name);
        let r = f();
        exit(id, arg(&r));
        r
    }

    fn seq(self, seq: u64) {
        REC.with(|r| r.borrow_mut().seq = seq as u32);
    }
}

/// A timing adapter over any transport: spans around `try_send`,
/// `try_recv` and (for the UDP transport) `flush`; every other trait
/// method is forwarded untimed, so the engine sees the wrapped transport's
/// exact behaviour.
pub struct TracedTransport<T> {
    inner: T,
    try_send: Name,
    try_recv: Name,
    flush: Option<Name>,
}

impl<T: Transport> TracedTransport<T> {
    pub fn loopback(inner: T) -> TracedTransport<T> {
        TracedTransport {
            inner,
            try_send: Name::LoopbackTrySend,
            try_recv: Name::LoopbackTryRecv,
            flush: None,
        }
    }

    pub fn net(inner: T) -> TracedTransport<T> {
        TracedTransport {
            inner,
            try_send: Name::NetTrySend,
            try_recv: Name::NetTryRecv,
            flush: Some(Name::NetFlush),
        }
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn try_send(&mut self, dst: FlipcNodeId, frame: &Frame) -> bool {
        let inner = &mut self.inner;
        On.span(
            self.try_send,
            || inner.try_send(dst, frame),
            |&ok| ok.into(),
        )
    }

    fn try_recv(&mut self) -> Option<Frame> {
        let inner = &mut self.inner;
        On.span(self.try_recv, || inner.try_recv(), |f| f.is_some().into())
    }

    fn local_node(&self) -> FlipcNodeId {
        self.inner.local_node()
    }

    fn retransmits_since_poll(&mut self) -> u32 {
        self.inner.retransmits_since_poll()
    }

    fn snapshot(&self) -> Option<TransportSnapshot> {
        self.inner.snapshot()
    }

    fn peer_down(&self, dst: FlipcNodeId) -> bool {
        self.inner.peer_down(dst)
    }

    fn flush(&mut self) {
        match self.flush {
            Some(name) => On.span(name, || self.inner.flush(), |_| 0),
            None => self.inner.flush(),
        }
    }
}

/// A timing adapter over a datagram link: spans around `send`,
/// `send_batch` and `recv`, counts of datagrams and bytes the wire took,
/// and untimed forwarding of `associate` and `on_tick`.
pub struct TracedLink<L>(pub L);

impl<L: Link> Link for TracedLink<L> {
    fn send(&mut self, dst: FlipcNodeId, bytes: &[u8]) -> bool {
        let inner = &mut self.0;
        let ok = On.span(Name::UdpSend, || inner.send(dst, bytes), |&ok| ok.into());
        if ok {
            count_sent(1, bytes.len());
        }
        ok
    }

    fn recv(&mut self, buf: &mut [u8]) -> Option<usize> {
        let inner = &mut self.0;
        On.span(Name::UdpRecv, || inner.recv(buf), |n| n.is_some().into())
    }

    fn associate(&mut self, node: FlipcNodeId) {
        self.0.associate(node);
    }

    fn on_tick(&mut self, now: u64) {
        self.0.on_tick(now);
    }

    fn send_batch(&mut self, dst: FlipcNodeId, datagrams: &[&[u8]]) -> usize {
        let inner = &mut self.0;
        let taken = On.span(
            Name::UdpSendBatch,
            || inner.send_batch(dst, datagrams),
            |&n| n as u32,
        );
        let bytes = datagrams[..taken].iter().map(|d| d.len()).sum();
        count_sent(taken, bytes);
        taken
    }
}

/// Reserves room for `capacity` spans on the calling thread and starts
/// recording there, with allocation counting on.
pub fn start(capacity: usize) -> Phase {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.spans = Vec::with_capacity(capacity);
        r.open = NONE;
        r.datagrams = 0;
        r.bytes = 0;
        r.on = true;
    });
    alloc::set_counting(true);
    Phase {
        instant: Instant::now(),
        ticks: ticks(),
        untraced_allocs: alloc::untraced_thread_allocs(),
    }
}

/// True once the span memory is used up; the traced phase then ends.
pub fn full() -> bool {
    REC.with(|r| !r.borrow().on)
}

/// The start of a traced phase, for converting ticks to nanoseconds.
pub struct Phase {
    instant: Instant,
    ticks: u64,
    untraced_allocs: u64,
}

impl Phase {
    /// Stops recording and hands back what was recorded.
    pub fn finish(self) -> Trace {
        let end_ticks = ticks();
        let wall_ns = self.instant.elapsed().as_nanos() as f64;
        alloc::set_counting(false);
        let untraced_allocs = alloc::untraced_thread_allocs() - self.untraced_allocs;
        REC.with(|r| {
            let mut r = r.borrow_mut();
            r.on = false;
            let ticks = end_ticks.saturating_sub(self.ticks).max(1);
            Trace {
                spans: std::mem::take(&mut r.spans),
                ns_per_tick: wall_ns / ticks as f64,
                wall_ns,
                datagrams: r.datagrams,
                bytes: r.bytes,
                untraced_allocs,
            }
        })
    }
}

/// A finished traced phase.
pub struct Trace {
    spans: Vec<Span>,
    ns_per_tick: f64,
    /// Wall time of the phase.
    pub wall_ns: f64,
    /// Datagrams and bytes the links accepted.
    pub datagrams: u64,
    pub bytes: u64,
    /// Allocations on threads that record no spans.
    pub untraced_allocs: u64,
}

/// Per-span durations, self times and self allocations, indexed like the
/// spans.
pub struct Reduced<'a> {
    trace: &'a Trace,
    self_ticks: Vec<u64>,
    self_allocs: Vec<u64>,
}

impl Trace {
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line: name, start and end in
    /// nanoseconds from the first span, parent line (-1 for none),
    /// sequence number, argument and allocations.
    pub fn write_tsv(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let t0 = self.spans.first().map_or(0, |s| s.start);
        let ns = |t: u64| t.saturating_sub(t0) as f64 * self.ns_per_tick;
        writeln!(out, "name\tstart_ns\tend_ns\tparent\tseq\targ\tallocs")?;
        for s in &self.spans {
            let parent = if s.parent == NONE {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{:?}\t{:.0}\t{:.0}\t{parent}\t{}\t{}\t{}",
                s.name,
                ns(s.start),
                ns(s.end),
                s.seq,
                s.arg,
                s.allocs
            )?;
        }
        Ok(())
    }

    pub fn reduce(&self) -> Reduced<'_> {
        let n = self.spans.len();
        let mut child_ticks = vec![0u64; n];
        let mut child_allocs = vec![0u64; n];
        for s in &self.spans {
            if s.parent != NONE && s.end != 0 {
                child_ticks[s.parent as usize] += s.end - s.start;
                child_allocs[s.parent as usize] += u64::from(s.allocs);
            }
        }
        let self_ticks = self
            .spans
            .iter()
            .zip(&child_ticks)
            .map(|(s, c)| (s.end.saturating_sub(s.start)).saturating_sub(*c))
            .collect();
        let self_allocs = self
            .spans
            .iter()
            .zip(&child_allocs)
            .map(|(s, c)| u64::from(s.allocs).saturating_sub(*c))
            .collect();
        Reduced {
            trace: self,
            self_ticks,
            self_allocs,
        }
    }
}

impl Reduced<'_> {
    fn closed(&self) -> impl Iterator<Item = (usize, &Span)> {
        self.trace
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.end != 0)
    }

    fn ns(&self, ticks: u64) -> f64 {
        ticks as f64 * self.trace.ns_per_tick
    }

    /// Median duration of the `name` spans whose argument passes `keep`,
    /// or 0 when there are none.
    pub fn median_ns(&self, name: Name, keep: impl Fn(u32) -> bool) -> f64 {
        let mut d: Vec<u64> = self
            .closed()
            .filter(|(_, s)| s.name == name && keep(s.arg))
            .map(|(_, s)| s.end - s.start)
            .collect();
        if d.is_empty() {
            return 0.0;
        }
        let mid = d.len() / 2;
        let (_, m, _) = d.select_nth_unstable(mid);
        self.ns(*m)
    }

    pub fn count(&self, name: Name, keep: impl Fn(u32) -> bool) -> u64 {
        self.closed()
            .filter(|(_, s)| s.name == name && keep(s.arg))
            .count() as u64
    }

    pub fn arg_sum(&self, name: Name) -> u64 {
        self.closed()
            .filter(|(_, s)| s.name == name)
            .map(|(_, s)| u64::from(s.arg))
            .sum()
    }

    pub fn total_ns(&self, names: &[Name]) -> f64 {
        let t = self
            .closed()
            .filter(|(_, s)| names.contains(&s.name))
            .map(|(_, s)| s.end - s.start)
            .sum();
        self.ns(t)
    }

    pub fn self_ns(&self, names: &[Name]) -> f64 {
        let t = self
            .closed()
            .filter(|(_, s)| names.contains(&s.name))
            .map(|(i, _)| self.self_ticks[i])
            .sum();
        self.ns(t)
    }

    pub fn self_allocs(&self, names: &[Name]) -> u64 {
        self.closed()
            .filter(|(_, s)| names.contains(&s.name))
            .map(|(i, _)| self.self_allocs[i])
            .sum()
    }

    /// Wall time of the phase not covered by any top-level span: the
    /// benchmark's own work between calls into the library.
    pub fn unattributed_ns(&self) -> f64 {
        let covered: u64 = self
            .closed()
            .filter(|(_, s)| s.parent == NONE)
            .map(|(_, s)| s.end - s.start)
            .sum();
        (self.trace.wall_ns - self.ns(covered)).max(0.0)
    }
}
