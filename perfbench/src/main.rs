//! Wall-clock benchmark of the FLIPC stack.
//!
//! ```text
//! flipc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process drives the public stack (`Flipc`, `Engine::iterate`,
//! `spawn_engine`, the loopback fabric and the UDP transport) through one
//! of four workloads, checks every delivered message, and prints one JSON
//! object as its last line of standard output. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics of a
//! traced run (see `README.md` in this directory).

mod alloc;
mod hist;
mod procfs;
mod report;
mod trace;
mod workloads;

#[cfg(test)]
mod tests;

use std::process::ExitCode;

use workloads::{Pingpong, Rpc, Stream, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: flipc-perfbench --workload <pingpong_loopback|pingpong_udp|stream_udp|rpc_threaded> \
                     --seed <n> --seconds <1..=600> --trace <0|1> [--spans <file>]";

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub spans: Option<std::path::PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(|| bad(()))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad(()))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| bad(()))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(())),
                })
            }
            "--spans" => spans = Some(value.into()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flipc-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Workload::PingpongLoopback | Workload::PingpongUdp => report::run::<Pingpong>(&args),
        Workload::StreamUdp => report::run::<Stream>(&args),
        Workload::RpcThreaded => report::run::<Rpc>(&args),
    };
    match outcome {
        Ok(out) => {
            println!("{}", out.json());
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("flipc-perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
