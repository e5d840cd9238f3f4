//! Running the engine on a dedicated "message coprocessor" thread.
//!
//! On Paragon MP3 nodes one of the three i860s is reserved as a message
//! coprocessor; [`spawn_engine`] reproduces that arrangement with an OS
//! thread that runs the engine's bounded event loop continuously, yielding
//! its timeslice when idle (important on machines with fewer cores than the
//! MP3 node had processors).

use flipc_core::sync::atomic::{AtomicBool, Ordering};
use flipc_core::wait::SPINS_BEFORE_YIELD;
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::engine::{Engine, EngineStats};
use flipc_obs::{EngineTelemetry, EngineTelemetrySnapshot, TraceReader};

/// Handle to a running engine thread; stops and joins on drop.
pub struct EngineHandle {
    stop: Arc<AtomicBool>,
    stats: Arc<EngineStats>,
    telemetry: Arc<EngineTelemetry>,
    /// Consumer half of the engine's trace ring, parked here until an
    /// observer claims it (see [`EngineHandle::take_trace_reader`]).
    trace: Option<TraceReader>,
    join: Option<JoinHandle<Engine>>,
}

/// Starts `engine` on its own thread with a trace ring of `capacity`
/// events installed; the consumer half rides the returned handle until an
/// observer takes it.
pub fn spawn_engine_traced(mut engine: Engine, capacity: usize) -> EngineHandle {
    let reader = engine.install_trace(capacity);
    let mut handle = spawn_engine(engine);
    handle.trace = Some(reader);
    handle
}

/// Starts `engine` on its own thread.
pub fn spawn_engine(mut engine: Engine) -> EngineHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stats = engine.stats();
    let telemetry = engine.telemetry();
    let stop2 = stop.clone();
    let join = std::thread::Builder::new()
        .name(format!("flipc-engine-{}", engine.node().0))
        .spawn(move || {
            let mut idle_streak = 0u32;
            while !stop2.load(Ordering::Acquire) {
                let work = engine.iterate();
                if work == 0 {
                    idle_streak += 1;
                    if idle_streak > SPINS_BEFORE_YIELD {
                        // Idle: surrender the core so application threads
                        // (or other engines) can run.
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                } else {
                    idle_streak = 0;
                }
            }
            // Quiesce before exiting: sends are optimistic, so the
            // application may have queued frames the loop has not picked
            // up yet when the stop flag lands. Keep iterating (bounded,
            // in case a peer's acks never arrive) until an iteration
            // finds nothing to do, so stopping the engine cannot strand
            // a queued send in the outbox ring.
            for _ in 0..1024 {
                if engine.iterate() == 0 {
                    break;
                }
            }
            engine
        })
        .expect("failed to spawn engine thread");
    EngineHandle {
        stop,
        stats,
        telemetry,
        trace: None,
        join: Some(join),
    }
}

impl EngineHandle {
    /// Shared statistics of the running engine.
    pub fn stats(&self) -> &Arc<EngineStats> {
        &self.stats
    }

    /// Shared telemetry of the running engine (loads-only histogram
    /// snapshots, readable while the engine runs).
    pub fn telemetry(&self) -> &Arc<EngineTelemetry> {
        &self.telemetry
    }

    /// Harvests (snapshot-and-reset) the engine's telemetry. The caller
    /// becomes the application-role harvester for this interval — run at
    /// most one concurrent harvester per engine, per the two-location
    /// counter discipline.
    pub fn harvest_telemetry(&self) -> EngineTelemetrySnapshot {
        self.telemetry.harvest()
    }

    /// Hands the trace ring's consumer half to the caller (present only
    /// when the engine was started with [`spawn_engine_traced`]; `None`
    /// afterwards or for untraced engines). The reader outlives the
    /// handle, so an observer may keep draining after the engine stops.
    pub fn take_trace_reader(&mut self) -> Option<TraceReader> {
        self.trace.take()
    }

    /// Stops the engine loop and returns the engine (for inspection or
    /// restart).
    pub fn stop(mut self) -> Engine {
        self.stop.store(true, Ordering::Release);
        self.join
            .take()
            .expect("engine already stopped")
            .join()
            .expect("engine thread panicked")
    }
}

impl Drop for EngineHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::loopback::fabric;
    use flipc_core::api::Flipc;
    use flipc_core::commbuf::CommBuffer;
    use flipc_core::endpoint::{EndpointType, FlipcNodeId, Importance};
    use flipc_core::layout::Geometry;
    use flipc_core::wait::WaitRegistry;

    #[test]
    fn threaded_engines_deliver_between_nodes() {
        let ports = fabric(2, 64);
        let mut flipc = Vec::new();
        let mut handles = Vec::new();
        for (i, port) in ports.into_iter().enumerate() {
            let cb = Arc::new(CommBuffer::new(Geometry::small()).unwrap());
            let registry = WaitRegistry::new();
            flipc.push(Flipc::attach(
                cb.clone(),
                FlipcNodeId(i as u16),
                registry.clone(),
            ));
            handles.push(spawn_engine(Engine::new(
                cb,
                Box::new(port),
                registry,
                EngineConfig::default(),
            )));
        }
        let tx = flipc[0]
            .endpoint_allocate(EndpointType::Send, Importance::Normal)
            .unwrap();
        let rx = flipc[1]
            .endpoint_allocate(EndpointType::Receive, Importance::Normal)
            .unwrap();
        let dest = flipc[1].address(&rx);
        let b = flipc[1].buffer_allocate().unwrap();
        flipc[1]
            .provide_receive_buffer(&rx, b)
            .map_err(|r| r.error)
            .unwrap();

        let mut t = flipc[0].buffer_allocate().unwrap();
        flipc[0].payload_mut(&mut t)[..4].copy_from_slice(b"ping");
        flipc[0].send(&tx, t, dest).unwrap();

        // Blocking receive rides the engine's wakeup.
        let got = flipc[1]
            .recv_blocking(&rx, std::time::Duration::from_secs(10))
            .unwrap();
        assert_eq!(&flipc[1].payload(&got.token)[..4], b"ping");

        let h = handles.pop().unwrap();
        let engine = h.stop();
        assert_eq!(engine.stats().delivered.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn handle_drop_stops_cleanly() {
        let ports = fabric(1, 4);
        let cb = Arc::new(CommBuffer::new(Geometry::small()).unwrap());
        let registry = WaitRegistry::new();
        let h = spawn_engine(Engine::new(
            cb,
            Box::new(ports.into_iter().next().unwrap()),
            registry,
            EngineConfig::default(),
        ));
        let stats = h.stats().clone();
        drop(h);
        let after = stats.iterations.load(Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(
            stats.iterations.load(Ordering::Relaxed),
            after,
            "engine kept running"
        );
    }
}
