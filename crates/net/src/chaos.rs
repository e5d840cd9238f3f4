//! Deterministic chaos scenarios for the peer lifecycle.
//!
//! A [`Scenario`] is a small scripted failure story — "run traffic, cut
//! the link one way, crash the receiver mid-stream, bring it back" —
//! played against *real* [`crate::transport::NetTransport`]s joined by a
//! [`crate::link::MemHub`] whose links are wrapped in seeded
//! [`crate::fault::FaultInjector`]s and clocked by a
//! [`crate::clock::ManualClock`]. Nothing in the harness is random on its
//! own: the entire run is a pure function of `(seed, script)`, so a
//! failing scenario replays byte-for-byte identically and the transcript
//! it produces can be diffed across runs, machines, and CI shards.
//!
//! While the script plays, the harness continuously checks the lifecycle
//! invariants the design promises (see `DESIGN.md` §3.4.2):
//!
//! * **In-order, duplicate-free delivery per direction.** Every payload
//!   carries a monotone tag; a delivered tag that does not exceed its
//!   predecessor from the same sender is a violation. Gaps are legal —
//!   frames failed by a dead declaration are *allowed* to be lost, and
//!   stale-epoch rejection guarantees an abandoned epoch's stragglers
//!   cannot sneak in after a resync.
//! * **Scripted expectations.** `expect_*` steps assert liveness verdicts,
//!   delivery counts, epoch resyncs, failed-send accounting, and the
//!   zero-datagram-cost property of dead peers at chosen points in the
//!   story.
//!
//! Violations do not panic mid-run; they are collected into the
//! [`ScenarioOutcome`] together with the transcript so a test failure
//! shows the whole story, not just the last assertion.

use std::collections::VecDeque;

use flipc_core::endpoint::{EndpointAddress, EndpointIndex, FlipcNodeId};
use flipc_core::inspect::{PeerLiveness, TransportSnapshot};
use flipc_engine::transport::Transport;
use flipc_engine::wire::Frame;

use crate::clock::ManualClock;
use crate::fault::{FaultConfig, FaultInjector};
use crate::link::{Link, MemHub, MemLink};
use crate::reliability::NetConfig;
use crate::transport::NetTransport;

/// One instruction in a chaos script.
#[derive(Clone, Debug)]
pub enum ScenarioStep {
    /// A narrative marker copied into the transcript.
    Say(String),
    /// Queue `count` tagged frames from one node to another. Tags are
    /// monotone per direction across the whole scenario (including
    /// crashes), which is what makes the ordering invariant checkable.
    Send {
        /// Sending node.
        from: u16,
        /// Destination node.
        to: u16,
        /// Frames to queue.
        count: u32,
    },
    /// Advance the shared clock, pumping every live node's transport as
    /// time passes.
    Run {
        /// Clock ticks to advance.
        ticks: u64,
    },
    /// Replace the fault probabilities on one node's outbound injector.
    Faults {
        /// Node whose injector is reconfigured.
        node: u16,
        /// The new fault probabilities.
        cfg: FaultConfig,
    },
    /// Cut `from`'s outbound traffic toward `to` (one-way).
    Partition {
        /// Side whose outbound traffic is cut.
        from: u16,
        /// Unreachable destination.
        to: u16,
    },
    /// Restore `from`'s outbound traffic toward `to`.
    Heal {
        /// Side whose outbound traffic is restored.
        from: u16,
        /// Destination made reachable again.
        to: u16,
    },
    /// Drop a node's transport mid-stream: in-flight state, timers, and
    /// epochs are gone, exactly like a process crash.
    Crash {
        /// Node to kill.
        node: u16,
    },
    /// Boot a fresh transport for a crashed node at the next session
    /// epoch (the incarnation number a restart supervisor would assign).
    /// The node's network buffers are drained first — a rebooted machine
    /// does not keep its predecessor's socket queues — and its outbound
    /// injector restarts fault-free.
    Restart {
        /// Node to reboot (must be crashed).
        node: u16,
    },
    /// Record a node's current datagram spend (sent + retransmitted +
    /// pings) for a later [`ScenarioStep::ExpectNoCostSinceMark`].
    MarkCost {
        /// Node whose spend is recorded.
        node: u16,
    },
    /// Assert a failure detector's current verdict about a peer.
    ExpectLiveness {
        /// Node doing the judging.
        observer: u16,
        /// Peer being judged.
        peer: u16,
        /// The verdict the script demands.
        expect: PeerLiveness,
    },
    /// Assert a node has delivered at least `count` frames sent by
    /// `from` so far.
    ExpectDeliveredAtLeast {
        /// Receiving node.
        node: u16,
        /// Originating node.
        from: u16,
        /// Minimum deliveries demanded.
        count: u32,
    },
    /// Assert a node has resynchronized at least `count` times after a
    /// peer arrived on a newer epoch.
    ExpectEpochResyncsAtLeast {
        /// Observing node.
        node: u16,
        /// Minimum resync count demanded.
        count: u32,
    },
    /// Assert a node's path to `peer` has failed at least `count` sends
    /// back to the application (dead declaration / epoch reset).
    ExpectFailedAtLeast {
        /// Sending node.
        node: u16,
        /// Path destination.
        peer: u16,
        /// Minimum failed-send count demanded.
        count: u32,
    },
    /// Assert a node has sent zero datagrams since its last
    /// [`ScenarioStep::MarkCost`] — the dead-peer cost bound.
    ExpectNoCostSinceMark {
        /// Node whose spend is compared against its mark.
        node: u16,
    },
    /// Assert a node has sent at most `max` datagrams since its last
    /// [`ScenarioStep::MarkCost`] — the capped slow-probe cost bound for
    /// a dead peer with pending send demand.
    ExpectCostAtMostSinceMark {
        /// Node whose spend is compared against its mark.
        node: u16,
        /// Maximum datagrams allowed since the mark.
        max: u64,
    },
}

/// A scripted, seeded chaos run over `nodes` live transports.
#[derive(Clone, Debug)]
pub struct Scenario {
    name: String,
    nodes: u16,
    cfg: NetConfig,
    seed: u64,
    /// Clock ticks per pump iteration inside [`ScenarioStep::Run`].
    tick: u64,
    steps: Vec<ScenarioStep>,
}

/// Everything a finished scenario produced: the story and the verdicts.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Scenario name (for artifact file naming).
    pub name: String,
    /// The seed the run was played under.
    pub seed: u64,
    /// Chronological event log: step markers, liveness transitions, epoch
    /// resyncs, expectation results. Identical across replays of the same
    /// `(seed, script)`.
    pub transcript: Vec<String>,
    /// Invariant breaches and failed expectations (empty means pass).
    pub violations: Vec<String>,
    /// Per node: every delivered frame as `(source node, tag)`, in
    /// delivery order, surviving crashes.
    pub delivered: Vec<Vec<(u16, u32)>>,
    /// Final transport state per node (`None` if it ended crashed).
    pub snapshots: Vec<Option<TransportSnapshot>>,
}

impl ScenarioOutcome {
    /// `true` when every invariant held and every expectation passed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The transcript as one printable block.
    pub fn transcript_text(&self) -> String {
        let mut out = String::with_capacity(self.transcript.len() * 48);
        for line in &self.transcript {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Writes the transcript as a CI artifact under `dir` (created
    /// lazily), named `<workload>-<scenario>-<seed>.txt` so artifacts
    /// from different harnesses and seeds never collide.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-write failures.
    pub fn write_transcript(
        &self,
        dir: &std::path::Path,
        workload: &str,
    ) -> std::io::Result<std::path::PathBuf> {
        write_transcript_to(
            dir,
            workload,
            &self.name,
            self.seed,
            &self.transcript_text(),
        )
    }

    /// Panics with the full transcript if anything went wrong — the test
    /// entry point.
    pub fn assert_clean(&self) {
        assert!(
            self.passed(),
            "chaos scenario '{}' (seed {:#x}) failed:\n  {}\n--- transcript ---\n{}",
            self.name,
            self.seed,
            self.violations.join("\n  "),
            self.transcript_text(),
        );
    }
}

/// The transport type every chaos harness drives: a real
/// [`NetTransport`] over a seeded [`FaultInjector`]-wrapped in-memory
/// link, clocked manually. Public so workload harnesses built on
/// [`Cluster`] can name it.
pub type ChaosTransport = NetTransport<FaultInjector<MemLink>, ManualClock>;

/// Distinct, stable fault-schedule stream per `(node, incarnation)`, all
/// derived from one scenario seed.
fn derive_injector_seed(seed: u64, node: u16, incarnation: u16) -> u64 {
    seed.wrapping_add(u64::from(node).wrapping_mul(0x9E37_79B9))
        .wrapping_add(u64::from(incarnation).wrapping_mul(0x85EB_CA6B_0000))
}

/// Boots one node's transport into `hub` at the given incarnation: peers
/// are every other node, the outbound link is wrapped in a fault injector
/// seeded from `(seed, node, incarnation)`, and the session epoch starts
/// at `initial_epoch + incarnation` (the number a restart supervisor
/// would assign).
fn boot_node(
    hub: &std::sync::Arc<MemHub>,
    clock: &ManualClock,
    nodes: u16,
    cfg: &NetConfig,
    seed: u64,
    node: u16,
    incarnation: u16,
) -> ChaosTransport {
    let peers: Vec<FlipcNodeId> = (0..nodes).filter(|&n| n != node).map(FlipcNodeId).collect();
    let link = FaultInjector::new(
        hub.link(FlipcNodeId(node)),
        FaultConfig::default(),
        derive_injector_seed(seed, node, incarnation),
    );
    NetTransport::new(
        FlipcNodeId(node),
        &peers,
        link,
        clock.clone(),
        NetConfig {
            initial_epoch: cfg.initial_epoch.wrapping_add(incarnation),
            ..*cfg
        },
    )
}

/// The artifact file name for one chaos transcript:
/// `<workload>-<scenario>-<seed>.txt`. The workload prefix keeps
/// transcripts from different harnesses (lifecycle, broadcast, log,
/// tiers) from colliding when CI's seed matrix uploads them into one
/// artifact directory.
pub fn transcript_file_name(workload: &str, scenario: &str, seed: u64) -> String {
    format!("{workload}-{scenario}-{seed:#x}.txt")
}

/// Writes one transcript under `dir`, creating the directory **lazily**
/// (only when a transcript is actually written — a green run must not
/// litter `target/` with empty artifact directories). Returns the path
/// written.
///
/// # Errors
///
/// Propagates directory-creation and file-write failures.
pub fn write_transcript_to(
    dir: &std::path::Path,
    workload: &str,
    scenario: &str,
    seed: u64,
    text: &str,
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(transcript_file_name(workload, scenario, seed));
    std::fs::write(&path, text)?;
    Ok(path)
}

/// A scriptable cluster of live chaos transports — the DSL hook workload
/// harnesses build on.
///
/// [`Scenario`] plays a fixed failure story against a fixed traffic
/// model (tagged frames, one stream per direction). Higher-level
/// workloads — pub-sub fan-out, replicated logs, tiered delivery — need
/// the same deterministic fault machinery (seeded injectors, one-way
/// partitions, crash/restart with epoch bumps, a manual clock) under
/// *their own* traffic and invariants. `Cluster` is that machinery with
/// the traffic model left out: the caller owns every send and receive
/// through [`Cluster::transport_mut`] and pumps time with
/// [`Cluster::advance`].
///
/// Everything is a pure function of `(seed, call sequence)`, exactly like
/// a scenario: fault schedules derive from the seed per
/// `(node, incarnation)`, and the shared [`ManualClock`] only moves when
/// told to.
pub struct Cluster {
    hub: std::sync::Arc<MemHub>,
    clock: ManualClock,
    now: u64,
    cfg: NetConfig,
    seed: u64,
    nodes: u16,
    transports: Vec<Option<ChaosTransport>>,
    incarnations: Vec<u16>,
    transcript: Vec<String>,
}

impl Cluster {
    /// Boots `nodes` transports configured with `cfg`, fault schedules
    /// derived from `seed`.
    pub fn new(nodes: u16, cfg: NetConfig, seed: u64) -> Cluster {
        assert!(nodes >= 2, "a cluster needs at least two nodes");
        let hub = MemHub::new(nodes as usize, 4096);
        let clock = ManualClock::new();
        let transports = (0..nodes)
            .map(|n| Some(boot_node(&hub, &clock, nodes, &cfg, seed, n, 0)))
            .collect();
        Cluster {
            hub,
            clock,
            now: 0,
            cfg,
            seed,
            nodes,
            transports,
            incarnations: vec![0; nodes as usize],
            transcript: vec![format!("t=0 cluster seed {seed:#x}: {nodes} nodes booted")],
        }
    }

    /// Number of nodes (crashed ones included).
    pub fn nodes(&self) -> u16 {
        self.nodes
    }

    /// The seed the fault schedules derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Current manual-clock time in ticks.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances the shared clock. The caller pumps the transports itself
    /// (that is the point: the workload owns the traffic).
    pub fn advance(&mut self, ticks: u64) {
        self.clock.advance(ticks);
        self.now += ticks;
    }

    /// `true` while `node`'s transport is booted.
    pub fn is_up(&self, node: u16) -> bool {
        self.transports
            .get(node as usize)
            .map(|t| t.is_some())
            .unwrap_or(false)
    }

    /// Mutable transport access for one live node (`None` if crashed).
    pub fn transport_mut(&mut self, node: u16) -> Option<&mut ChaosTransport> {
        self.transports.get_mut(node as usize)?.as_mut()
    }

    /// Shared transport access for one live node (`None` if crashed).
    pub fn transport(&self, node: u16) -> Option<&ChaosTransport> {
        self.transports.get(node as usize)?.as_ref()
    }

    /// Final-state counter snapshot for one live node.
    pub fn snapshot(&self, node: u16) -> Option<TransportSnapshot> {
        self.transport(node).map(|t| t.stats().snapshot())
    }

    /// Replaces the fault probabilities on `node`'s outbound injector.
    pub fn faults(&mut self, node: u16, cfg: FaultConfig) {
        let now = self.now;
        if let Some(t) = self.transport_mut(node) {
            t.link_mut().set_config(cfg);
            self.transcript.push(format!(
                "t={now} node {node}: faults loss={} dup={} reorder={} delay={} corrupt={}",
                cfg.loss, cfg.duplicate, cfg.reorder, cfg.delay, cfg.corrupt
            ));
        }
    }

    /// Cuts `from`'s outbound traffic toward `to` (one-way).
    pub fn partition(&mut self, from: u16, to: u16) {
        let now = self.now;
        if let Some(t) = self.transport_mut(from) {
            t.link_mut().partition(FlipcNodeId(to));
            self.transcript
                .push(format!("t={now} partition {from} -> {to} cut"));
        }
    }

    /// Restores `from`'s outbound traffic toward `to`.
    pub fn heal(&mut self, from: u16, to: u16) {
        let now = self.now;
        if let Some(t) = self.transport_mut(from) {
            t.link_mut().heal(FlipcNodeId(to));
            self.transcript
                .push(format!("t={now} partition {from} -> {to} healed"));
        }
    }

    /// Drops `node`'s transport mid-stream, exactly like a process crash:
    /// in-flight state, timers, and epochs are gone.
    pub fn crash(&mut self, node: u16) {
        if let Some(slot) = self.transports.get_mut(node as usize) {
            *slot = None;
            self.transcript
                .push(format!("t={} node {node}: CRASH", self.now));
        }
    }

    /// Boots a fresh transport for a crashed node at its next incarnation
    /// epoch, draining its network buffers first (a rebooted machine does
    /// not keep its predecessor's socket queues). Returns `false` if the
    /// node was still up (nothing happens).
    pub fn restart(&mut self, node: u16) -> bool {
        if self.is_up(node) || usize::from(node) >= self.transports.len() {
            return false;
        }
        let mut drain = self.hub.link(FlipcNodeId(node));
        let mut buf = [0u8; crate::packet::MAX_DATAGRAM];
        let mut stale = 0u32;
        while drain.recv(&mut buf).is_some() {
            stale += 1;
        }
        self.incarnations[node as usize] = self.incarnations[node as usize].wrapping_add(1);
        let inc = self.incarnations[node as usize];
        self.transports[node as usize] = Some(boot_node(
            &self.hub,
            &self.clock,
            self.nodes,
            &self.cfg,
            self.seed,
            node,
            inc,
        ));
        self.transcript.push(format!(
            "t={} node {node}: RESTART incarnation {inc} ({stale} stale datagrams discarded)",
            self.now
        ));
        true
    }

    /// Appends a narrative line to the transcript.
    pub fn log(&mut self, text: &str) {
        self.transcript.push(format!("t={} -- {text}", self.now));
    }

    /// The chronological transcript so far.
    pub fn transcript(&self) -> &[String] {
        &self.transcript
    }

    /// The transcript as one printable block.
    pub fn transcript_text(&self) -> String {
        let mut out = String::with_capacity(self.transcript.len() * 48);
        for line in &self.transcript {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// One node's standing in the harness. The harness state (tag counters,
/// delivery log) deliberately survives crashes — it plays the role of the
/// application and its supervisor, which outlive the transport process.
struct NodeState {
    transport: Option<ChaosTransport>,
    /// Restart count; the restarted transport boots at
    /// `initial_epoch + incarnation`.
    incarnation: u16,
    /// Next payload tag per destination node (monotone forever).
    next_tag: Vec<u32>,
    /// Highest tag delivered per source node (ordering invariant).
    last_seen: Vec<Option<u32>>,
    /// Frames admitted to `Send` but not yet accepted by the transport
    /// (window backpressure): retried every pump iteration.
    pending: VecDeque<(FlipcNodeId, u32)>,
    /// Delivery log: `(source node, tag)`.
    delivered: Vec<(u16, u32)>,
    /// Last liveness verdict seen per peer (transition edge detection).
    view: Vec<PeerLiveness>,
    /// Last epoch-resync count logged.
    resyncs_seen: u32,
    /// Datagram spend recorded by [`ScenarioStep::MarkCost`].
    cost_mark: Option<u64>,
}

fn tagged_frame(from: u16, to: u16, tag: u32) -> Frame {
    let mut payload = vec![0u8; 8];
    payload[..4].copy_from_slice(&tag.to_le_bytes());
    Frame {
        src: EndpointAddress::new(FlipcNodeId(from), EndpointIndex(0), 1),
        dst: EndpointAddress::new(FlipcNodeId(to), EndpointIndex(0), 1),
        payload: payload.into(),
        stamp_ns: 0,
    }
}

fn datagram_cost(s: &TransportSnapshot) -> u64 {
    s.paths
        .iter()
        .map(|p| u64::from(p.sent) + u64::from(p.retransmitted) + u64::from(p.pings))
        .sum()
}

impl Scenario {
    /// An empty script over `nodes` transports configured with `cfg`,
    /// whose fault schedules derive from `seed`.
    pub fn new(name: &str, nodes: u16, cfg: NetConfig, seed: u64) -> Scenario {
        assert!(nodes >= 2, "a scenario needs at least two nodes");
        Scenario {
            name: name.to_string(),
            nodes,
            cfg,
            seed,
            tick: 50,
            steps: Vec::new(),
        }
    }

    /// Sets the clock granularity of [`ScenarioStep::Run`] (default 50
    /// ticks per pump iteration).
    pub fn tick(mut self, ticks: u64) -> Scenario {
        assert!(ticks > 0);
        self.tick = ticks;
        self
    }

    /// Appends one raw step.
    pub fn step(mut self, s: ScenarioStep) -> Scenario {
        self.steps.push(s);
        self
    }

    /// Narrative marker (transcript only).
    pub fn say(self, text: &str) -> Scenario {
        self.step(ScenarioStep::Say(text.to_string()))
    }

    /// Queue `count` tagged frames `from → to`.
    pub fn send(self, from: u16, to: u16, count: u32) -> Scenario {
        self.step(ScenarioStep::Send { from, to, count })
    }

    /// Advance time by `ticks`, pumping every live node.
    pub fn run(self, ticks: u64) -> Scenario {
        self.step(ScenarioStep::Run { ticks })
    }

    /// Swap `node`'s outbound fault probabilities.
    pub fn faults(self, node: u16, cfg: FaultConfig) -> Scenario {
        self.step(ScenarioStep::Faults { node, cfg })
    }

    /// One-way cut of `from`'s traffic toward `to`.
    pub fn partition(self, from: u16, to: u16) -> Scenario {
        self.step(ScenarioStep::Partition { from, to })
    }

    /// Undo a one-way cut.
    pub fn heal(self, from: u16, to: u16) -> Scenario {
        self.step(ScenarioStep::Heal { from, to })
    }

    /// Kill `node`'s transport.
    pub fn crash(self, node: u16) -> Scenario {
        self.step(ScenarioStep::Crash { node })
    }

    /// Reboot a crashed `node` at its next incarnation epoch.
    pub fn restart(self, node: u16) -> Scenario {
        self.step(ScenarioStep::Restart { node })
    }

    /// Record `node`'s datagram spend for a later cost assertion.
    pub fn mark_cost(self, node: u16) -> Scenario {
        self.step(ScenarioStep::MarkCost { node })
    }

    /// Assert a liveness verdict.
    pub fn expect_liveness(self, observer: u16, peer: u16, expect: PeerLiveness) -> Scenario {
        self.step(ScenarioStep::ExpectLiveness {
            observer,
            peer,
            expect,
        })
    }

    /// Assert a delivery count floor.
    pub fn expect_delivered_at_least(self, node: u16, from: u16, count: u32) -> Scenario {
        self.step(ScenarioStep::ExpectDeliveredAtLeast { node, from, count })
    }

    /// Assert an epoch-resync count floor.
    pub fn expect_epoch_resyncs_at_least(self, node: u16, count: u32) -> Scenario {
        self.step(ScenarioStep::ExpectEpochResyncsAtLeast { node, count })
    }

    /// Assert a failed-send count floor on one path.
    pub fn expect_failed_at_least(self, node: u16, peer: u16, count: u32) -> Scenario {
        self.step(ScenarioStep::ExpectFailedAtLeast { node, peer, count })
    }

    /// Assert zero datagrams sent since the last [`Scenario::mark_cost`].
    pub fn expect_no_cost_since_mark(self, node: u16) -> Scenario {
        self.step(ScenarioStep::ExpectNoCostSinceMark { node })
    }

    /// Assert at most `max` datagrams sent since the last
    /// [`Scenario::mark_cost`] (the dead-probe budget).
    pub fn expect_cost_at_most_since_mark(self, node: u16, max: u64) -> Scenario {
        self.step(ScenarioStep::ExpectCostAtMostSinceMark { node, max })
    }

    fn boot(
        &self,
        hub: &std::sync::Arc<MemHub>,
        clock: &ManualClock,
        node: u16,
        incarnation: u16,
    ) -> ChaosTransport {
        boot_node(
            hub,
            clock,
            self.nodes,
            &self.cfg,
            self.seed,
            node,
            incarnation,
        )
    }

    /// Plays the script and returns the full outcome. Deterministic: the
    /// same scenario produces the same outcome on every call.
    pub fn play(&self) -> ScenarioOutcome {
        let hub = MemHub::new(self.nodes as usize, 4096);
        let clock = ManualClock::new();
        let mut now: u64 = 0;
        let mut transcript: Vec<String> = Vec::new();
        let mut violations: Vec<String> = Vec::new();
        let mut nodes: Vec<NodeState> = (0..self.nodes)
            .map(|n| NodeState {
                transport: Some(self.boot(&hub, &clock, n, 0)),
                incarnation: 0,
                next_tag: vec![0; self.nodes as usize],
                last_seen: vec![None; self.nodes as usize],
                pending: VecDeque::new(),
                delivered: Vec::new(),
                view: vec![PeerLiveness::Healthy; self.nodes as usize],
                resyncs_seen: 0,
                cost_mark: None,
            })
            .collect();
        transcript.push(format!(
            "t=0 scenario '{}' seed {:#x}: {} nodes booted",
            self.name, self.seed, self.nodes
        ));

        for step in &self.steps {
            match step {
                ScenarioStep::Say(text) => transcript.push(format!("t={now} -- {text}")),
                ScenarioStep::Send { from, to, count } => {
                    let n = &mut nodes[*from as usize];
                    let first = n.next_tag[*to as usize];
                    for _ in 0..*count {
                        let tag = n.next_tag[*to as usize];
                        n.next_tag[*to as usize] += 1;
                        n.pending.push_back((FlipcNodeId(*to), tag));
                    }
                    transcript.push(format!(
                        "t={now} node {from}: queue {count} frames to {to} (tags {first}..{})",
                        first + count
                    ));
                    Self::drive(&mut nodes, now, &mut transcript, &mut violations);
                }
                ScenarioStep::Run { ticks } => {
                    let mut left = *ticks;
                    while left > 0 {
                        let chunk = left.min(self.tick);
                        clock.advance(chunk);
                        now += chunk;
                        left -= chunk;
                        Self::drive(&mut nodes, now, &mut transcript, &mut violations);
                    }
                }
                ScenarioStep::Faults { node, cfg } => {
                    if let Some(t) = nodes[*node as usize].transport.as_mut() {
                        t.link_mut().set_config(*cfg);
                        transcript.push(format!(
                            "t={now} node {node}: faults loss={} dup={} reorder={} delay={} corrupt={}",
                            cfg.loss, cfg.duplicate, cfg.reorder, cfg.delay, cfg.corrupt
                        ));
                    }
                }
                ScenarioStep::Partition { from, to } => {
                    if let Some(t) = nodes[*from as usize].transport.as_mut() {
                        t.link_mut().partition(FlipcNodeId(*to));
                        transcript.push(format!("t={now} partition {from} -> {to} cut"));
                    }
                }
                ScenarioStep::Heal { from, to } => {
                    if let Some(t) = nodes[*from as usize].transport.as_mut() {
                        t.link_mut().heal(FlipcNodeId(*to));
                        transcript.push(format!("t={now} partition {from} -> {to} healed"));
                    }
                }
                ScenarioStep::Crash { node } => {
                    nodes[*node as usize].transport = None;
                    transcript.push(format!("t={now} node {node}: CRASH"));
                }
                ScenarioStep::Restart { node } => {
                    let n = &mut nodes[*node as usize];
                    if n.transport.is_some() {
                        violations.push(format!("t={now} restart of live node {node}"));
                        continue;
                    }
                    // A rebooted machine boots with empty socket queues:
                    // drain whatever piled up while it was down.
                    let mut drain = hub.link(FlipcNodeId(*node));
                    let mut buf = [0u8; crate::packet::MAX_DATAGRAM];
                    let mut stale = 0u32;
                    while drain.recv(&mut buf).is_some() {
                        stale += 1;
                    }
                    n.incarnation = n.incarnation.wrapping_add(1);
                    let inc = n.incarnation;
                    // A fresh process has no failure-detector memory either.
                    n.view = vec![PeerLiveness::Healthy; self.nodes as usize];
                    n.resyncs_seen = 0;
                    n.cost_mark = None;
                    n.transport = Some(self.boot(&hub, &clock, *node, inc));
                    transcript.push(format!(
                        "t={now} node {node}: RESTART incarnation {inc} ({stale} stale datagrams discarded)"
                    ));
                }
                ScenarioStep::MarkCost { node } => {
                    if let Some(t) = nodes[*node as usize].transport.as_ref() {
                        let cost = datagram_cost(&t.stats().snapshot());
                        nodes[*node as usize].cost_mark = Some(cost);
                        transcript.push(format!(
                            "t={now} node {node}: cost mark at {cost} datagrams"
                        ));
                    }
                }
                ScenarioStep::ExpectLiveness {
                    observer,
                    peer,
                    expect,
                } => {
                    let got = nodes[*observer as usize]
                        .transport
                        .as_ref()
                        .map(|t| t.stats().liveness.get(FlipcNodeId(*peer)));
                    match got {
                        Some(got) if got == *expect => transcript.push(format!(
                            "t={now} expect node {observer} sees {peer} {}: ok",
                            expect.name()
                        )),
                        Some(got) => violations.push(format!(
                            "t={now} node {observer} sees peer {peer} {} (expected {})",
                            got.name(),
                            expect.name()
                        )),
                        None => violations.push(format!(
                            "t={now} liveness expectation on crashed node {observer}"
                        )),
                    }
                }
                ScenarioStep::ExpectDeliveredAtLeast { node, from, count } => {
                    let got = nodes[*node as usize]
                        .delivered
                        .iter()
                        .filter(|(src, _)| *src == *from)
                        .count() as u32;
                    if got >= *count {
                        transcript.push(format!(
                            "t={now} expect node {node} delivered >= {count} from {from}: ok ({got})"
                        ));
                    } else {
                        violations.push(format!(
                            "t={now} node {node} delivered only {got}/{count} frames from {from}"
                        ));
                    }
                }
                ScenarioStep::ExpectEpochResyncsAtLeast { node, count } => {
                    let got = nodes[*node as usize]
                        .transport
                        .as_ref()
                        .map(|t| t.stats().snapshot().epoch_resyncs)
                        .unwrap_or(0);
                    if got >= *count {
                        transcript.push(format!(
                            "t={now} expect node {node} epoch resyncs >= {count}: ok ({got})"
                        ));
                    } else {
                        violations.push(format!(
                            "t={now} node {node} resynced only {got}/{count} times"
                        ));
                    }
                }
                ScenarioStep::ExpectFailedAtLeast { node, peer, count } => {
                    let got = nodes[*node as usize]
                        .transport
                        .as_ref()
                        .and_then(|t| {
                            t.stats()
                                .snapshot()
                                .paths
                                .iter()
                                .find(|p| p.peer.0 == *peer)
                                .map(|p| p.failed)
                        })
                        .unwrap_or(0);
                    if got >= *count {
                        transcript.push(format!(
                            "t={now} expect node {node} failed >= {count} to {peer}: ok ({got})"
                        ));
                    } else {
                        violations.push(format!(
                            "t={now} node {node} failed only {got}/{count} sends to {peer}"
                        ));
                    }
                }
                ScenarioStep::ExpectNoCostSinceMark { node } => {
                    let n = &nodes[*node as usize];
                    match (n.cost_mark, n.transport.as_ref()) {
                        (Some(mark), Some(t)) => {
                            let cost = datagram_cost(&t.stats().snapshot());
                            if cost == mark {
                                transcript.push(format!(
                                    "t={now} expect node {node} zero datagrams since mark: ok"
                                ));
                            } else {
                                violations.push(format!(
                                    "t={now} node {node} sent {} datagrams since its cost mark",
                                    cost - mark
                                ));
                            }
                        }
                        _ => violations.push(format!(
                            "t={now} cost expectation on node {node} without mark/transport"
                        )),
                    }
                }
                ScenarioStep::ExpectCostAtMostSinceMark { node, max } => {
                    let n = &nodes[*node as usize];
                    match (n.cost_mark, n.transport.as_ref()) {
                        (Some(mark), Some(t)) => {
                            let cost = datagram_cost(&t.stats().snapshot());
                            let spent = cost.saturating_sub(mark);
                            if spent <= *max {
                                transcript.push(format!(
                                    "t={now} expect node {node} <= {max} datagrams since mark: ok ({spent})"
                                ));
                            } else {
                                violations.push(format!(
                                    "t={now} node {node} sent {spent} datagrams since its cost mark (cap {max})"
                                ));
                            }
                        }
                        _ => violations.push(format!(
                            "t={now} cost expectation on node {node} without mark/transport"
                        )),
                    }
                }
            }
        }

        let snapshots = nodes
            .iter()
            .map(|n| n.transport.as_ref().map(|t| t.stats().snapshot()))
            .collect();
        let delivered = nodes.iter().map(|n| n.delivered.clone()).collect();
        transcript.push(format!(
            "t={now} scenario '{}' done: {} violations",
            self.name,
            violations.len()
        ));
        ScenarioOutcome {
            name: self.name.clone(),
            seed: self.seed,
            transcript,
            violations,
            delivered,
            snapshots,
        }
    }

    /// One pump of every live node: retry pending sends, drain
    /// deliveries, log liveness / resync transitions, check ordering, and
    /// end the node's turn with the batch-boundary `flush`.
    fn drive(
        nodes: &mut [NodeState],
        now: u64,
        transcript: &mut Vec<String>,
        violations: &mut Vec<String>,
    ) {
        for i in 0..nodes.len() {
            let Some(mut transport) = nodes[i].transport.take() else {
                continue;
            };
            // Retry window-backpressured sends in order.
            while let Some(&(dst, tag)) = nodes[i].pending.front() {
                if transport.try_send(dst, &tagged_frame(i as u16, dst.0, tag)) {
                    nodes[i].pending.pop_front();
                } else {
                    break;
                }
            }
            // Drain everything deliverable right now.
            while let Some(f) = transport.try_recv() {
                let src = f.src.node().0;
                if usize::from(src) >= nodes.len() || f.payload.len() < 4 {
                    // Unreachable with the checksum in place: corruption
                    // must never surface as a delivered frame.
                    violations.push(format!(
                        "t={now} node {i}: delivered garbage (src {src}, {} payload bytes)",
                        f.payload.len()
                    ));
                    continue;
                }
                let mut tag = [0u8; 4];
                tag.copy_from_slice(&f.payload[..4]);
                let tag = u32::from_le_bytes(tag);
                if let Some(prev) = nodes[i].last_seen[src as usize] {
                    if tag <= prev {
                        violations.push(format!(
                            "t={now} node {i}: tag {tag} from {src} after {prev} \
                             (duplicate or reorder)"
                        ));
                    }
                }
                nodes[i].last_seen[src as usize] = Some(tag);
                nodes[i].delivered.push((src, tag));
            }
            // Edge-detect liveness and resync transitions for the story.
            let stats = transport.stats();
            for p in 0..nodes.len() {
                if p == i {
                    continue;
                }
                let s = stats.liveness.get(FlipcNodeId(p as u16));
                if s != nodes[i].view[p] {
                    transcript.push(format!(
                        "t={now} node {i}: peer {p} {} -> {}",
                        nodes[i].view[p].name(),
                        s.name()
                    ));
                    nodes[i].view[p] = s;
                }
            }
            let resyncs = stats.snapshot().epoch_resyncs;
            if resyncs != nodes[i].resyncs_seen {
                transcript.push(format!("t={now} node {i}: epoch resync #{resyncs}"));
                nodes[i].resyncs_seen = resyncs;
            }
            // End the turn as the engine ends a pass, so the stories run
            // the paced path production runs: an ack owed for one frame
            // waits a turn to ride reverse data, and each turn polls the
            // link once.
            transport.flush();
            nodes[i].transport = Some(transport);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lifecycle_cfg() -> NetConfig {
        NetConfig {
            window: 8,
            rto: 100,
            rto_max: 400,
            rto_min: 10,
            suspect_strikes: 2,
            dead_strikes: 4,
            heartbeat_interval: 1_000,
            ..NetConfig::default()
        }
    }

    #[test]
    fn clean_scenario_delivers_and_replays_identically() {
        let s = Scenario::new("clean", 2, lifecycle_cfg(), 0xC0FFEE)
            .send(0, 1, 20)
            .run(4_000)
            .expect_delivered_at_least(1, 0, 20)
            .expect_liveness(0, 1, PeerLiveness::Healthy);
        let a = s.play();
        a.assert_clean();
        let b = s.play();
        assert_eq!(
            a.transcript, b.transcript,
            "a scenario must be a pure function of (seed, script)"
        );
        assert_eq!(a.delivered, b.delivered);
    }

    #[test]
    fn expectation_failures_are_collected_with_the_story() {
        let s = Scenario::new("wrong", 2, lifecycle_cfg(), 1)
            .send(0, 1, 2)
            .run(1_000)
            .expect_liveness(0, 1, PeerLiveness::Dead); // nonsense on purpose
        let out = s.play();
        assert!(!out.passed());
        assert_eq!(out.violations.len(), 1);
        assert!(
            out.violations[0].contains("expected dead"),
            "{:?}",
            out.violations
        );
        assert!(out.transcript_text().contains("scenario 'wrong'"));
    }

    #[test]
    fn crash_without_restart_leaves_no_final_snapshot() {
        let out = Scenario::new("halt", 2, lifecycle_cfg(), 2)
            .send(0, 1, 4)
            .run(1_000)
            .crash(1)
            .run(500)
            .play();
        assert!(out.snapshots[0].is_some());
        assert!(out.snapshots[1].is_none());
        assert_eq!(out.delivered[1].len(), 4, "the log survives the crash");
    }
}
